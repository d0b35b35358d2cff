"""Corank-1 singularity classification by iterated Jacobian determinants.

For a polynomial map F = (f_1,...,f_n) with Jacobian determinant J, the tower

    J_{1,i} = det(Jacobian with row i replaced by grad J)
    J_{k+1,i} = det(Jacobian with row i replaced by grad J_{k,i})

detects Morin singularities at a corank-1 critical point p: the smallest k with
some J_{k,i}(p) != 0 is the type A_k (A_1 fold, A_2 cusp, A_3 swallowtail).
For graph-like maps (x_1,...,x_{n-1}, g) the chain collapses to J_{r,n} =
d^{r+1} g / d x_n^{r+1}, which the symbolic tower reproduces exactly.  Points
of corank >= 2 kill every level, so the classifier reports them separately.

J_{k,i} depends only on J_{k-1,i}, so the tower is n chains, one per row i of
dF.  ``morin_tower`` builds every J_{k,i} symbolically, one ``PolyMatrix.det``
per level and row (``_chain``) -- exact and cacheable, but level-k degrees
grow like k * sum(d_i - 1), which is ruinous for one-point queries on larger
maps.  The classifier reads values at points instead, with dF's adjugate in
place of n determinants per level; both routes agree (tested).

Every verdict comes from one level-by-level loop, ``_decide``: it sets each
(point, tolerance) corank once, then climbs r = 1, 2, ... asking its level
source, ``_classify_at``, for [J_{r,i}(p)] only at the points still open.
It decides the float cells as arrays, all tolerances at once: one
comparison of the stacked singular values gives the coranks, and each level
one vanish mask.  At the float points dF(p), J(p), the Hadamard bound on
|J(p)| and level 1 come from F's first and second partials (``Partials``,
kept on the map by ``_partials_of``), evaluated once on all of them by
``_level_one``: Jacobi's formula gives grad J(p)_k = tr(adj dF(p) .
d_k dF(p)), expanding the replaced row gives J_{1,.}(p) = grad J(p) @
adj dF(p), and the adjugate comes from the SVD, which stays accurate at
J(p) ~ 0 and gives every tolerance's corank.  ``_level_two`` differentiates that once more, in one
batch over the points open at level 2: F's third partials give d_m grad J,
the SVD gives the adjugate's derivative, and J_{2,i}(p) = grad J_{1,i}(p) .
adj dF(p)[:, i].  Exact points read dF(p) off their order-(k_max+1) jets;
their levels, and float levels r >= 3, are pulled one at a time off a lazy
``_jet_tower`` on the jets at p (polynomials mod (x - p)^{m+1} form a ring,
so J_{r,i}(p) stays exact for r <= k_max).  Its first pull builds J and the
truncated adjugate of the jets' dF from one set of cofactors, and each level
costs n^2 series products; on exact points it runs on Python ints and
divides its values back exactly into Fractions.

One scale-free rule decides a float point (``_corank`` and ``_survives``,
array rules that the cusp probe calls too): p is regular exactly when no
singular value of dF(p) is at or below tol * sigma_1, and J_{r,i}(p) =
grad J_{r-1,i}(p) . adj dF(p)[:, i] vanishes when it is at most tol times
its Cauchy-Schwarz bound ||grad J_{r-1,i}(p)|| * ||adj dF(p)||_2, where
||adj dF(p)||_2 = sigma_1 ... sigma_{n-1}.  Exact points use exact rank,
once per point, and 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import clear_denominators, exact_det, exact_rank
from .maps import HomogeneousMap, UsageError, jacobian, rest_exponents
from .polynomials import RATIONAL, Polynomial, PolyMatrix, _radix_weights, is_exact_point

__all__ = [
    "GeneralMap",
    "MorinTower",
    "SingularityClass",
    "morin_tower",
    "corank_at",
    "classify",
    "jet_tower_values",
    "classify_from_values",
    "linear_conjugate",
    "validate_tol",
]

DEFAULT_KMAX = 4
DEFAULT_TOL = 1e-7
_KMAX_GUARD = 6  # symbolic levels beyond this explode in degree


@dataclass(frozen=True)
class GeneralMap:
    """Square polynomial map without any homogeneity requirement."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("empty map")
        n = self.components[0].n_vars
        kind = self.components[0].kind
        if len(self.components) != n:
            raise ValueError("map must be square: one component per variable")
        for f in self.components:
            if f.n_vars != n or f.kind != kind:
                raise ValueError("components must share n_vars and kind")

    @property
    def n(self) -> int:
        return len(self.components)


def validate_tol(tol: float) -> float:
    """A relative tolerance of the float rule: strictly inside (0, 1), so NaN fails."""
    if not 0.0 < tol < 1.0:
        raise UsageError(f"tol must lie in (0, 1), got {tol!r}")
    return tol


def _validate_kmax(k_max) -> int:
    """The tower depth as an int >= 1; a non-integer or a depth below 1 is a ValueError."""
    try:
        k_max = operator.index(k_max)
    except TypeError:
        raise ValueError(f"k_max must be an integer, got {k_max!r}") from None
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return k_max


def _components_of(F) -> tuple[Polynomial, ...]:
    if isinstance(F, (HomogeneousMap, GeneralMap)):
        return tuple(F.components)
    comps = tuple(F)
    return GeneralMap(comps).components  # runs the shape validation


def _chain(jac: PolyMatrix, base: Polynomial, i: int, k: int):
    """Yield J_{1,i}, ..., J_{k,i} from dF and J, one determinant per level."""
    level = base
    for r in range(1, k + 1):
        level = jac.with_row(i, level.gradient()).det()
        yield level


# ---------------------------------------------------------------- symbolic tower
@dataclass(frozen=True)
class MorinTower:
    """All J_{k,i} of a map, computed symbolically once and queried at points."""

    components: tuple[Polynomial, ...]
    k_max: int
    base: Polynomial                                # J(F)
    levels: tuple[tuple[Polynomial, ...], ...]      # levels[k-1][i] = J_{k,i}

    def level(self, k: int, i: int) -> Polynomial:
        """J_{k,i} for 1 <= k <= k_max and row index 0 <= i < n."""
        return self.levels[k - 1][i]


def morin_tower(F, k_max: int = DEFAULT_KMAX) -> MorinTower:
    """Symbolic J_{k,i} for k <= k_max; exact in the rational kind."""
    k_max = _validate_kmax(k_max)
    if k_max > _KMAX_GUARD:
        raise ValueError(f"k_max {k_max} exceeds the symbolic-growth guard {_KMAX_GUARD}")
    components = _components_of(F)
    jac = jacobian(GeneralMap(components))
    base = jac.det()
    chains = [_chain(jac, base, i, k_max) for i in range(len(components))]
    return MorinTower(components, k_max, base, tuple(zip(*chains)))


# ---------------------------------------------------------------- jet evaluation
@functools.cache
def _monomial_keys(n: int, top: int) -> tuple[tuple[int, ...], dict[int, int], dict[int, tuple]]:
    """Integer keys, radix top + 1, for the monomials of degree <= top in n
    variables: the weights radix^(n-1), ..., 1 (keys are exps @ weights, as in
    ``_radix_weights``), and each key's degree and exponents, over those
    monomials alone; shared per (n, top), never written.  A product of degree
    <= top has every exponent below the radix: its key is the sum of keys."""
    weights = tuple(_radix_weights(top + 1, n).tolist())
    exponents = {sum(map(operator.mul, e, weights)): e for e in rest_exponents(top, n + 1)}
    return weights, {key: sum(e) for key, e in exponents.items()}, exponents


def _jet_tower(jets: Sequence[Polynomial], k: int):
    """Yield J(p), then ([J_{r,i}(p)], [||grad J_{r-1,i}(p)||]) for r = 1, ..., k,
    one level per pull, from the order-(k+1) jets at p (J_{0,i} = J).

    The jets run as truncated series, dicts from ``_monomial_keys`` keys to
    coefficients.  Expanding along the replaced row, J_{r,i} = sum_j d_j
    J_{r-1,i} adj(dF)_{j,i}: J comes from cofactor expansion with its minors
    kept, the first level pull finishes the adjugate from them, and each
    level costs n^2 products, level r cut past degree k - r.  The terms read
    off are exact (exact arithmetic in the rational kind, plain floating
    error otherwise -- no truncation error either way).

    Rational jets are cleared of denominators first: jet i times c_i, the lcm
    of its denominators, is an integer jet, and the whole tower runs on
    Python ints.  Scaling row i of dF by c_i makes J_{r,i} of the scaled jets
    C^{r+1} / c_i^r times J_{r,i} of F (C = prod c_i; J_{0,i} = J), and so
    each value, and each gradient a norm is taken of, is divided back
    exactly into a Fraction.  The int series never leave this generator.
    """
    n = len(jets)
    exact = jets[0].kind == RATIONAL
    coefficients, lcms = [list(f.terms.values()) for f in jets], [1] * n
    if exact:
        coefficients, lcms = zip(*(clear_denominators(c) for c in coefficients))
    scale, zero = math.prod(lcms), 0 if exact else 0j

    def unscaled(r: int, i: int, c):
        """A coefficient of J_{r,i} of the scaled jets as that of F's J_{r,i}."""
        return Fraction(c, scale ** (r + 1) // lcms[i] ** r) if exact else c

    weights, degree, exponents = _monomial_keys(n, k + 1)

    def expand(products, cap: int) -> dict:
        """The sum of sign * a * b over (sign, series a, minor b), cut past degree cap."""
        out = {}
        for sign, a, b in products:
            for key_a, c_a in a.items():
                room, c_a = cap - degree[key_a], sign * c_a
                for d, key_b, c_b in b:
                    if d > room:
                        break
                    out[key_a + key_b] = out.get(key_a + key_b, zero) + c_a * c_b
        return {key: c for key, c in out.items() if c}

    def gradient(f: dict) -> list[dict]:
        """[d_j f]: the key of x^e drops by weights[j], its coefficient gains e_j."""
        out = [{} for _ in range(n)]
        for key, c in f.items():
            for j, e in enumerate(exponents[key]):
                if e:
                    out[j][key - weights[j]] = c * e
        return out

    dF = [gradient({sum(map(operator.mul, e, weights)): c for e, c in zip(f.terms, cs)})
          for f, cs in zip(jets, coefficients)]
    minors: dict[tuple[tuple, tuple], list] = {}

    def minor(rows: tuple, cols: tuple) -> list:
        """det of dF on rows x cols cut past degree k, expanded along rows[0] and
        kept, as its (degree, key, coefficient) terms in degree order."""
        if not rows:
            return [(0, 0, 1)]
        if (rows, cols) not in minors:
            total = expand((((-1) ** s, dF[rows[0]][c], minor(rows[1:], cols[:s] + cols[s + 1:]))
                            for s, c in enumerate(cols) if dF[rows[0]][c]), k)
            minors[rows, cols] = sorted((degree[key], key, c) for key, c in total.items())
        return minors[rows, cols]

    full = tuple(range(n))
    without = [full[:i] + full[i + 1:] for i in full]
    base = {key: c for _, key, c in minor(full, full)}
    yield unscaled(0, 0, base.get(0, zero))
    grads = [gradient(base)] * n            # grads[i] = grad J_{r-1,i} of the scaled jets
    for r in range(1, k + 1):
        levels = [expand((((-1) ** (i + j), g, minor(without[i], without[j]))
                          for j, g in enumerate(row) if g), k - r)
                  for i, row in enumerate(grads)]
        yield ([unscaled(r, i, level.get(0, zero)) for i, level in enumerate(levels)],
               [math.hypot(*(abs(unscaled(r - 1, i, g.get(0, zero))) for g in row))
                for i, row in enumerate(grads)])
        grads = [gradient(level) for level in levels]


# ---------------------------------------------------------------- classification
@dataclass(frozen=True)
class SingularityClass:
    """Verdict at one point: regular / Morin A_k / corank >= 2 / indeterminate."""

    tag: str                       # "regular" | "morin" | "corank_ge_2" | "indeterminate"
    k: int | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.tag == "morin":
            return f"A{self.k}"
        return self.tag

    def is_morin(self, k: int | None = None) -> bool:
        return self.tag == "morin" and (k is None or self.k == k)

    def to_dict(self) -> dict:
        if self.tag == "morin":
            cls = f"A{self.k}" if self.k <= 3 else "Ak"
            out = {"class": cls, "k": self.k}
        else:
            out = {"class": self.tag}
        out["diagnostics"] = self.diagnostics
        return out


def _linear_rows(jets: Sequence[Polynomial]) -> list[list]:
    """The gradient at p of each jet at p, read off its linear terms; dF(p) for F's jets."""
    units = [tuple(int(i == j) for i in range(len(jets))) for j in range(len(jets))]
    return [[g.coefficient(u) for u in units] for g in jets]


@functools.cache
def _multi_indices(n: int, r: int) -> tuple[np.ndarray, ...]:
    """The part of ``Partials`` order r that depends on n and r alone, kept
    read-only per (n, r).  One row per sorted multi-index a = (a_1 <= ... <=
    a_r) of size r: its variables, how many equal entries precede each, and
    its counts per variable; and for each dense index (i, j, k, ...) the
    table column i * (number of rows) + (the row of its sorted twin)."""
    sorted_a = list(itertools.combinations_with_replacement(range(n), r))
    shape = (len(sorted_a), r)
    variables = np.array(sorted_a, dtype=np.intp).reshape(shape)
    repeats = np.array([[a[:k].count(j) for k, j in enumerate(a)] for a in sorted_a],
                       dtype=np.intp).reshape(shape)
    counts = np.array([np.bincount(a, minlength=n) for a in sorted_a])
    position = {a: k for k, a in enumerate(sorted_a)}
    gather = np.array([i * len(sorted_a) + position[tuple(sorted(a))]
                       for i, *a in itertools.product(range(n), repeat=r + 1)])
    for table in (variables, repeats, counts, gather):
        table.setflags(write=False)
    return variables, repeats, counts, gather


class Partials:
    """The partial derivatives of a square map's components, one coefficient table per order.

    By d^a f_i = sum_e c_ie e!/(e - a)! x^(e - a), the order-r partials are
    linear in the lowered monomials x^(e - a).  Order r keeps the distinct
    ones and a table with one column per component i and sorted multi-index
    a of size r (partials commute, so every other entry is read off its
    sorted twin).  The distinct monomials are found by one ``np.unique`` over
    their mixed-radix keys in base (largest lowered exponent + 1), which sort
    as the exponent rows do lexicographically; keys past int64 are Python
    ints.  A table is built the first time ``at`` asks for its order
    and kept with the instance, so whoever holds one -- a survey map, a cusp
    hunt -- builds it once for all its evaluations.
    """

    def __init__(self, components: Sequence[Polynomial]):
        self.components = tuple(components)
        # _orders[r]: the lowered exponents, the table, and for each dense index
        # (i, j, k, ...) the table column of its sorted twin
        self._orders: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _order(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if r not in self._orders:
            n = len(self.components)
            kernels = [f._kernel() for f in self.components]
            exps, coeffs = (np.concatenate(k) for k in zip(*kernels))
            owner = np.repeat(np.arange(n), [len(c) for _, c in kernels])
            variables, repeats, counts, gather = _multi_indices(n, r)
            # e!/(e - a)! = prod_k (e_{a_k} - #{l < k : a_l = a_k}), 0 unless e >= a
            falling = np.prod(exps[:, variables] - repeats, axis=-1).T
            a, term = np.nonzero(falling)       # the (a, term) pairs with a nonzero partial
            lowered = exps[term] - counts[a]
            keys = lowered @ _radix_weights(int(lowered.max(initial=0)) + 1, n)
            _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
            table = np.zeros((len(first), n * len(counts)), dtype=complex)
            table[rows, owner[term] * len(counts) + a] = coeffs[term] * falling[a, term]
            self._orders[r] = lowered[first], table, gather
        return self._orders[r]

    def at(self, points, r: int) -> np.ndarray:
        """d^r F at the (N, n) float points: entry [p, i, j, k, ...] is
        d^r f_i / dx_j dx_k ... at point p, from one evaluation of the order's
        monomials and one product with its table."""
        x = np.asarray(points, dtype=complex)
        monomials, table, gather = self._order(r)
        values = np.prod(x[:, None, :] ** monomials, axis=-1) @ table
        return values[:, gather].reshape(len(x), *(len(self.components),) * (r + 1))


def _partials_of(F) -> Partials:
    """F's ``Partials``, built on first use and kept on a HomogeneousMap or
    GeneralMap, outside its fields (equality, hash and repr do not see it),
    as a polynomial keeps its compiled kernel; a bare sequence of components
    gets a new one."""
    if not isinstance(F, (HomogeneousMap, GeneralMap)):
        return Partials(_components_of(F))
    if "_partials" not in vars(F):
        object.__setattr__(F, "_partials", Partials(F.components))
    return F._partials


def _hadamard(differentials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row norms of each evaluated dF, a zero row's taken as 1 (J = 0 all
    the same), and their product prod_i ||row i||, the Hadamard bound on |J|."""
    norms = np.linalg.norm(differentials, axis=-1)
    norms = np.where(norms > 0.0, norms, 1.0)
    return norms, np.prod(norms, axis=-1)


class _LevelOne(NamedTuple):
    """What level 1 at (N, n) float points reads and gives, one row per point."""

    differentials: np.ndarray       # dF(p)
    hessians: np.ndarray            # [p, i, j, k] = d^2 f_i / dx_j dx_k at p
    u: np.ndarray                   # dF(p) = U diag(s) V^H
    s: np.ndarray
    vh: np.ndarray
    adj: np.ndarray                 # adj dF(p)
    grad: np.ndarray                # grad J(p)
    values: np.ndarray              # [J_{1,i}(p)]


def _level_one(partials: Partials, points) -> _LevelOne:
    """dF(p), its SVD and adjugate, grad J(p) and [J_{1,i}(p)] at (N, n) float points.

    dF and the Hessians of F are F's first and second partials, evaluated
    once on all the points.  By Jacobi's formula grad J_k =
    tr(adj dF . d_k dF), and replacing row i of dF by grad J makes
    J_{1,i} = (grad J @ adj dF)_i.  With dF = U diag(s) V^H the adjugate is
    det(U) det(V^H) V diag(prod_{k != j} s_k) U^H, which needs no inverse.
    """
    differentials = partials.at(points, 1)
    hessians = partials.at(points, 2)
    u, s, vh = np.linalg.svd(differentials)
    n = s.shape[-1]
    others = np.prod(np.where(np.eye(n, dtype=bool), 1.0, s[:, None, :]), axis=-1)
    phase = np.linalg.det(u) * np.linalg.det(vh)
    adj = (phase[:, None, None] * vh.conj().transpose(0, 2, 1) * others[:, None, :]
           @ u.conj().transpose(0, 2, 1))
    grad = np.einsum("pab,pbak->pk", adj, hessians)
    return _LevelOne(differentials, hessians, u, s, vh, adj, grad,
                     np.einsum("pk,pki->pi", grad, adj))


def _adjugate_derivative(u, s, vh, directions) -> np.ndarray:
    """D adj(A)[E] at A = U diag(s) V^H for the (N, M, n, n) directions E of each point.

    With G = U^H E V, adj(A + tE) = det(U) det(V^H) V adj(diag(s) + tG) U^H,
    and the derivative D of adj at diag(s) along G has off-diagonal entries
    -G_ki prod_{l != k, i} s_l and diagonal entries sum_{l != k} G_ll
    prod_{j != k, l} s_j: products of singular values and no inverse, so it
    stays accurate at corank 1.
    """
    n = s.shape[-1]
    eye = np.eye(n, dtype=bool)
    # pair[p, k, i] = prod of s_l over l not in {k, i}, zero on the diagonal
    pair = np.prod(np.where(eye[:, None, :] | eye, 1.0, s[:, None, None, :]), axis=-1)
    pair = np.where(eye, 0.0, pair)
    uh, v = u.conj().transpose(0, 2, 1)[:, None], vh.conj().transpose(0, 2, 1)[:, None]
    g = uh @ directions @ v
    d = -g * pair[:, None]
    d[..., eye] = np.einsum("pkl,pml->pmk", pair, np.diagonal(g, axis1=-2, axis2=-1))
    phase = np.linalg.det(u) * np.linalg.det(vh)
    return phase[:, None, None, None] * (v @ d @ uh)


def _level_two(partials: Partials, points, one: _LevelOne):
    """[J_{2,i}(p)] and [||grad J_{1,i}(p)||] at (N, n) float points, given their level 1.

    F's third partials are evaluated once on the points; dF, the Hessians,
    the SVD and the adjugate are `one`'s.  Differentiating J_{1,i} =
    sum_k g_k adj_{k,i} (g = grad J) gives d_m J_{1,i} = sum_k d_m g_k
    adj_{k,i} + g_k (d_m adj)_{k,i}, where d_m g_k = tr(d_m adj . d_k dF) +
    tr(adj . d_m d_k dF) and d_m adj = D adj(dF)[d_m dF] comes from the SVD
    (``_adjugate_derivative``).  Replacing row i of dF by grad J_{1,i} makes
    J_{2,i} = grad J_{1,i} . adj dF[:, i].
    """
    third = partials.at(points, 3)
    d_adj = _adjugate_derivative(one.u, one.s, one.vh, np.moveaxis(one.hessians, -1, 1))
    d_grad = (np.einsum("pmab,pbak->pmk", d_adj, one.hessians)
              + np.einsum("pab,pbakm->pmk", one.adj, third))
    d_level = (np.einsum("pmk,pki->pmi", d_grad, one.adj)
               + np.einsum("pk,pmki->pmi", one.grad, d_adj))
    return np.einsum("pmi,pmi->pi", d_level, one.adj), np.linalg.norm(d_level, axis=1)


def _corank(s: np.ndarray, tol) -> np.ndarray:
    """n - rank dF(p) at each float point: how many of its singular values, a
    row of `s`, are at or below tol * sigma_1.  A `tol` of shape (T, 1, 1)
    gives every tolerance's coranks, shape (T, N), from one comparison."""
    return s.shape[-1] - np.count_nonzero(s > tol * s[:, :1], axis=-1)


def _adjugate_norms(s: np.ndarray) -> np.ndarray:
    """||adj dF(p)||_2 = sigma_1 ... sigma_{n-1} from each row of singular values."""
    return np.prod(s[:, :-1], axis=-1)


def _survives(moduli, norms, adj_norms, tol) -> np.ndarray:
    """Which float level values are nonzero by the module's vanish rule,
    |J_{r,i}(p)| > tol * ||grad J_{r-1,i}(p)|| * ||adj dF(p)||_2, elementwise
    over arrays that broadcast.  The moduli are np.hypot of the real and
    imaginary parts, bit for bit Python's abs of a complex (np.abs is not)."""
    return moduli > tol * norms * adj_norms


def _decide(exact_rows, s, measured, tols: Sequence[float], k_max: int,
            level) -> list[list[SingularityClass]]:
    """The verdicts at each point m for each tolerance in `tols`.

    `exact_rows[m]` is dF(p)'s rows at an exact point, None at a float
    point; `s` holds the float points' singular values, a row each in point
    order; `measured[m]` (|J(p)| and its bound) opens each verdict's
    diagnostics.  An exact point's corank is n minus its exact rank, once
    for all tolerances.  The float cells are decided as arrays: ``_corank``
    gives all coranks at once, ||adj dF(p)||_2 is one product per point,
    and each level gets one ``_survives`` mask over the open cells.  Only
    corank 1 climbs.  ``level(r, exact, floats)`` gives level r at the open
    exact points (point indices), as a list of ([J_{r,i}(p)],
    [||grad J_{r-1,i}(p)||]), and at the open float points (rows of `s`),
    as two (len(floats), n) arrays.  Exact points alone do no array work.
    """
    floats = [m for m, rows in enumerate(exact_rows) if rows is None]
    coranks = {m: len(rows) - exact_rank(rows) for m, rows in enumerate(exact_rows)
               if rows is not None}
    maxima = [[] for _ in exact_rows]       # max_i |J_{r,i}(p)| of each level reached
    stops = {}                              # an exact point's Morin level
    open_exact = [m for m, corank in coranks.items() if corank == 1]
    if floats:
        tol = np.array(tols)[:, None, None]     # one axis entry per tolerance
        float_coranks = _corank(s, tol)
        adj_norms = _adjugate_norms(s)[:, None]
        open_float = float_coranks == 1
        float_stops = np.zeros(open_float.shape, dtype=int)
    for r in range(1, k_max + 1):
        rows = np.flatnonzero(open_float.any(axis=0)) if floats else []
        if not open_exact and not len(rows):
            break
        exact_levels, values, norms = level(r, open_exact, rows)
        for m, (row, _) in zip(open_exact, exact_levels):
            maxima[m].append(float(max(abs(complex(v)) for v in row)))
            if any(v != 0 for v in row):
                stops[m] = r
        open_exact = [m for m in open_exact if m not in stops]
        if len(rows):
            moduli = np.hypot(values.real, values.imag)
            for f, top in zip(rows.tolist(), moduli.max(axis=-1).tolist()):
                maxima[floats[f]].append(top)
            alive = open_float[:, rows] & _survives(moduli, norms, adj_norms[rows], tol).any(-1)
            float_stops[:, rows] += r * alive
            open_float[:, rows] &= ~alive
    # cells[m]: the corank and the Morin level (0 for none) at each tolerance
    cells = {m: ([corank] * len(tols), [stops.get(m, 0)] * len(tols))
             for m, corank in coranks.items()}
    if floats:
        cells.update(zip(floats, zip(float_coranks.T.tolist(), float_stops.T.tolist())))

    def verdict(m: int, t: int) -> SingularityClass:
        corank, stop = cells[m][0][t], cells[m][1][t]
        depth = (stop or k_max) if corank == 1 else 0
        diag = {**measured[m], "tol": tols[t] if exact_rows[m] is None else None,
                "levels": {str(r): v for r, v in enumerate(maxima[m][:depth], 1)},
                "corank": corank}
        tag = ("regular" if corank == 0 else "corank_ge_2" if corank > 1
               else "morin" if stop else "indeterminate")
        return SingularityClass(tag, k=stop or None, diagnostics=diag)

    return [[verdict(m, t) for t in range(len(tols))] for m in range(len(exact_rows))]


def _classify_at(F, points, tols: Sequence[float], k_max: int) -> list[list[SingularityClass]]:
    """The verdicts at each point for each tolerance in `tols`: ``_decide`` with
    this level source.  The float points are evaluated in one batch on F's
    kept ``Partials`` (``_partials_of``): one ``_level_one`` call gives dF(p),
    its SVD, J(p), the Hadamard bound prod_i ||row i of dF(p)|| on |J(p)|
    (the diagnostic `jdet_bound`) and level 1, and one ``_level_two`` call
    gives level 2 at the points still open, if any.  An exact point reads
    dF(p) off its order-(k_max+1) jets, and each point's levels (a float
    point's from r = 3) are pulled one per step off its lazy ``_jet_tower``,
    whose first pull builds the truncated adjugate of the jets' dF; a float
    point translates its jets on the first pull.  A point of the
    wrong length, or a float NaN or inf, is a ValueError.
    """
    k_max = _validate_kmax(k_max)
    components = _components_of(F)
    n = len(components)

    def float_tower(p):
        """Levels 3, 4, ... at float point p, its jets translated on the first pull."""
        jets = [f.translate_truncated(p, k_max + 1) for f in components]
        yield from itertools.islice(_jet_tower(jets, k_max), 3, None)

    exact_rows, measured, towers = [], [], []     # towers[m]: point m's levels, one per pull
    for p in points:
        if len(p) != n:
            raise ValueError(f"point length {len(p)} != n_vars {n}")
        rows = tower = None
        if components[0].kind == RATIONAL and is_exact_point(p):
            jets = [f.translate_truncated(p, k_max + 1) for f in components]
            rows, tower = _linear_rows(jets), itertools.islice(_jet_tower(jets, k_max), 1, None)
        elif not np.all(np.isfinite(np.asarray(p, dtype=complex))):
            raise ValueError(f"point {p} has non-finite entries")
        exact_rows.append(rows)
        towers.append(float_tower(p) if tower is None else tower)
        measured.append(None if rows is None else
                        {"abs_jdet": float(abs(complex(exact_det(rows)))), "jdet_bound": None})
    floats = [m for m, rows in enumerate(exact_rows) if rows is None]
    s = None
    if floats:
        partials = _partials_of(F)
        float_points = np.asarray([points[m] for m in floats], dtype=complex)
        one = _level_one(partials, float_points)
        s, dets = one.s, np.linalg.det(one.differentials)
        grad_norms = np.linalg.norm(one.grad, axis=-1)
        for m, modulus, bound in zip(floats, np.hypot(dets.real, dets.imag).tolist(),
                                     _hadamard(one.differentials)[1].tolist()):
            measured[m] = {"abs_jdet": modulus, "jdet_bound": bound}

    def level(r: int, exact: list[int], rows):
        exact_levels = [next(towers[m]) for m in exact]
        if not len(rows):
            return exact_levels, None, None
        if r == 1:      # ||grad J(p)|| bounds every J_{1,i}(p)
            return exact_levels, one.values[rows], grad_norms[rows, None]
        if r == 2:
            return exact_levels, *_level_two(partials, float_points[rows],
                                             _LevelOne(*(a[rows] for a in one)))
        values, norms = zip(*(next(towers[floats[f]]) for f in rows))
        return exact_levels, np.array(values), np.array(norms)

    return _decide(exact_rows, s, measured, tols, k_max, level)


def corank_at(F, p, tol: float = DEFAULT_TOL) -> int:
    """n - rank(dF(p)): exact row reduction for rational data, SVD otherwise."""
    return _classify_at(F, [p], (validate_tol(tol),), 1)[0][0].diagnostics["corank"]


def classify(F, p, k_max: int = DEFAULT_KMAX, tol: float = DEFAULT_TOL) -> SingularityClass:
    """Singularity type of F at p.

    Regular if dF(p) has corank 0; corank >= 2 reported as such (the tower
    is blind there); at corank 1, Morin(k) for the smallest k <= k_max with
    some J_{k,i}(p) above tol times its bound ||grad J_{k-1,i}(p)|| *
    ||adj dF(p)||_2, Indeterminate if none is.  The rank counts singular
    values above tol * sigma_1, so multiplying F by a constant keeps the
    verdict.  At a float point dF(p), J(p), level 1 and, when the decision
    gets that far, level 2 come from F's evaluated partials, with no jet and
    no determinant polynomial; every other level is pulled, one per step as
    the decision climbs, off one tower on order-(k_max+1) Taylor jets at p,
    which needs their dF's truncated adjugate once and n^2 products a level.
    Exact points read dF(p) off those jets and use exact rank and zero tests.
    """
    return _classify_at(F, [p], (validate_tol(tol),), k_max)[0][0]


def jet_tower_values(F, p, k_max: int = DEFAULT_KMAX):
    """(J(p), [[J_{r,i}(p)]]) for r <= k_max: every level of one jet tower on
    the order-(k_max+1) jets at p.  ``classify`` pulls only the levels it needs."""
    tower = _jet_tower([f.translate_truncated(p, k_max + 1) for f in _components_of(F)], k_max)
    return next(tower), [values for values, _ in tower]


def classify_from_values(F, p, base_value, level_values,
                         tol: float = DEFAULT_TOL) -> SingularityClass:
    """The ``classify`` decision on precomputed tower values (k_max = their
    depth); dF(p) and the norms ||grad J_{r-1,i}(p)|| come from the jets at p."""
    if not level_values:
        raise ValueError("k_max must be >= 1")
    components, tol, k = _components_of(F), validate_tol(tol), len(level_values)
    jets = [f.translate_truncated(p, k + 1) for f in components]
    tower = itertools.islice(_jet_tower(jets, k), 1, None)
    rows = _linear_rows(jets)
    measured = {"abs_jdet": float(abs(complex(base_value))), "jdet_bound": None}
    if components[0].kind == RATIONAL and is_exact_point(p):
        return _decide([rows], None, [measured], (tol,), k,
                       lambda r, *_: ([(level_values[r - 1], next(tower)[1])], None, None)
                       )[0][0]
    differentials = np.array([rows], dtype=complex)
    measured["jdet_bound"] = float(_hadamard(differentials)[1][0])
    return _decide([None], np.linalg.svd(differentials, compute_uv=False), [measured], (tol,), k,
                   lambda r, *_: ([], np.array([level_values[r - 1]], dtype=complex),
                                  np.array([next(tower)[1]])))[0][0]


# ---------------------------------------------------------------- coordinate changes
def linear_conjugate(components: Sequence[Polynomial], target: Sequence[Sequence[int]],
                     source: Sequence[Sequence[int]]) -> list[Polynomial]:
    """M o F o L for integer matrices M (target) and L (source)."""
    components = list(components)
    n = len(components)
    kind = components[0].kind

    def times(matrix, polys):
        """The matrix-vector product matrix @ polys, skipping zero entries."""
        return [sum((p * m for m, p in zip(row, polys) if m), Polynomial.zero(n, kind))
                for row in matrix]

    linear_forms = times(source, [Polynomial.variable(j, n, kind) for j in range(n)])
    return times(target, [f.substitute(linear_forms) for f in components])
