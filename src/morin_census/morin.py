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
dF; ``_chain`` builds one, a level at a time as it is pulled, for both paths:

* ``morin_tower`` builds every J_{k,i} symbolically -- exact, cacheable, and
  cheap while component degrees are small, but level-k degrees grow like
  k * sum(d_i - 1), which is ruinous for one-point queries on larger maps.
* ``classify`` instead works with truncated Taylor jets at the query point:
  polynomials mod (x - p)^{m+1} form a ring, and J_{r,i} computed from an
  order-(k+1) jet of F is still correct to order k - r, so every value
  J_{r,i}(p) comes out exact at a tiny fraction of the symbolic cost.
  One point's jets and levels, each built once, serve every tolerance the
  point is decided at.
  Both paths agree (this is tested), they just price the work differently.

At a float point the first level needs no determinant polynomial at all.
dF(p) and the Hessians of F come from F's first and second partials, each
evaluated once on all the points being classified.  Jacobi's formula gives
grad J(p)_k = tr(adj dF(p) . d_k dF(p)), and expanding the replaced row gives
the whole level J_{1,.}(p) = grad J(p) @ adj dF(p); the adjugate comes from
the SVD, which stays accurate at J(p) ~ 0 and gives every tolerance's
corank.  Exact points read dF(p) off their jets and keep exact arithmetic.

One scale-free rule decides a float point: p is regular exactly when no
singular value of dF(p) is at or below tol * sigma_1, and J_{r,i}(p) =
grad J_{r-1,i}(p) . adj dF(p)[:, i] vanishes when it is at most tol times its
Cauchy-Schwarz bound ||grad J_{r-1,i}(p)|| * ||adj dF(p)||_2, where
||adj dF(p)||_2 = sigma_1 ... sigma_{n-1}.  Exact points use exact rank and 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import exact_det, exact_rank
from .maps import HomogeneousMap, UsageError, jacobian
from .polynomials import RATIONAL, Polynomial, PolyMatrix

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


def _components_of(F) -> tuple[Polynomial, ...]:
    if isinstance(F, (HomogeneousMap, GeneralMap)):
        return tuple(F.components)
    comps = tuple(F)
    return GeneralMap(comps).components  # runs the shape validation


def _chain(jac: PolyMatrix, base: Polynomial, i: int, k: int, cap: int | None = None):
    """Yield J_{1,i}, ..., J_{k,i} from dF and J; with `cap`, cut level r past degree cap - r."""
    level = base
    for r in range(1, k + 1):
        level = jac.with_row(i, level.gradient()).det(None if cap is None else cap - r)
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
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > _KMAX_GUARD:
        raise ValueError(f"k_max {k_max} exceeds the symbolic-growth guard {_KMAX_GUARD}")
    components = _components_of(F)
    jac = jacobian(GeneralMap(components))
    base = jac.det()
    chains = [_chain(jac, base, i, k_max) for i in range(len(components))]
    return MorinTower(components, k_max, base, tuple(zip(*chains)))


# ---------------------------------------------------------------- jet evaluation
def _tower_values_at(jets: Sequence[Polynomial], k: int):
    """J(p), the values J_{r,i}(p) and the norms ||grad J_{r-1,i}(p)|| for r <= k,
    from the order-(k+1) jets at p (J_{0,i} = J).

    Truncating level r past total degree k - r keeps every intermediate
    polynomial tiny and the terms read off it exact (exact arithmetic in the
    rational kind, plain floating error otherwise -- no truncation error
    either way).
    """
    jac = jacobian(GeneralMap(jets))
    origin = (0,) * len(jets)
    base = jac.det(max_degree=k)
    chains = [[base, *_chain(jac, base, i, k, cap=k)] for i in range(len(jets))]
    values = [[L.coefficient(origin) for L in chain[1:]] for chain in chains]
    norms = [[math.hypot(*map(abs, g)) for g in _linear_rows(chain[:-1])] for chain in chains]
    return (base.coefficient(origin), [list(r) for r in zip(*values)],
            [list(r) for r in zip(*norms)])


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


def _is_exact(components: Sequence[Polynomial], p) -> bool:
    return (components[0].kind == RATIONAL
            and all(isinstance(v, (int, Fraction)) for v in p))


def _linear_rows(jets: Sequence[Polynomial]) -> list[list]:
    """The gradient at p of each jet at p, read off its linear terms; dF(p) for F's jets."""
    n = jets[0].n_vars if jets else 0
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [[g.coefficient(u) for u in units] for g in jets]


def _evaluated(jac: PolyMatrix, points) -> np.ndarray:
    """A polynomial matrix at each of the (N, n) float points: an (N, rows, cols) array.

    Each entry goes through one ``Polynomial.evaluate`` over all the points.
    """
    x = np.asarray(points, dtype=complex)
    values = np.array([e.evaluate(x) for e in jac.entries])
    return values.T.reshape(len(x), jac.rows, jac.cols)


def _spectrum(components: Sequence[Polynomial], p):
    """What the corank rule reads at p: the rows of dF(p) from the order-1 jets at an
    exact point, else the singular values of dF(p) from F's evaluated partials."""
    if _is_exact(components, p):
        return _linear_rows([f.translate_truncated(p, 1) for f in components])
    return np.linalg.svd(_evaluated(jacobian(GeneralMap(components)), [p])[0], compute_uv=False)


def _level_one(components: Sequence[Polynomial], points):
    """dF(p), [J_{1,i}(p)], ||grad J(p)|| and dF(p)'s singular values at (N, n) float points.

    dF and the Hessians of F come from F's first and second partials, each
    evaluated once on all the points.  By Jacobi's formula grad J_k =
    tr(adj dF . d_k dF), and replacing row i of dF by grad J makes
    J_{1,i} = (grad J @ adj dF)_i.  With dF = U diag(s) V^H the adjugate is
    det(U) det(V^H) V diag(prod_{k != j} s_k) U^H, which needs no inverse.
    """
    jac = jacobian(GeneralMap(components))
    differentials = _evaluated(jac, points)
    # hessians[p, i, j, k] = d^2 f_i / dx_j dx_k at point p
    hessians = np.stack([_evaluated(jacobian(GeneralMap(jac.row(i))), points)
                         for i in range(jac.rows)], axis=1)
    u, s, vh = np.linalg.svd(differentials)
    others = np.prod(np.where(np.eye(jac.rows, dtype=bool), 1.0, s[:, None, :]), axis=-1)
    phase = np.linalg.det(u) * np.linalg.det(vh)
    adj = (phase[:, None, None] * vh.conj().transpose(0, 2, 1) * others[:, None, :]
           @ u.conj().transpose(0, 2, 1))
    grad = np.einsum("pab,pbak->pk", adj, hessians)
    return differentials, np.einsum("pk,pki->pi", grad, adj), np.linalg.norm(grad, axis=-1), s


def _corank(spectrum, exact: bool, tol: float) -> tuple[int, float | None]:
    """n - rank of dF(p), by exact row reduction of its rows or from its singular
    values, and at a float point ||adj dF||_2 = sigma_1 ... sigma_{n-1}."""
    n = len(spectrum)
    if exact:
        return n - exact_rank(spectrum), None
    return n - int(np.sum(spectrum > tol * spectrum[0])), float(np.prod(spectrum[:-1]))


def _verdict(components, p, base_value, spectrum, level_row, k_max,
             tol) -> SingularityClass:
    """The classification decision, given J(p), dF(p)'s spectrum and a level source.

    Regular exactly at corank 0; only corank 1 climbs the tower, by the
    module's vanish rule.  ``level_row(r)`` returns [J_{r,i}(p)] and
    [||grad J_{r-1,i}(p)||]; it is asked for r = 1, 2, ... only until some
    level survives, so a lazy source pays for the shallow verdicts alone.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    exact = _is_exact(components, p)
    corank, adj_norm = _corank(spectrum, exact, tol)
    diag = {
        "abs_jdet": float(abs(complex(base_value))),
        "tol": None if exact else tol,
        "levels": {},
        "corank": corank,
    }
    if corank != 1:
        return SingularityClass("regular" if corank == 0 else "corank_ge_2", diagnostics=diag)
    for r in range(1, k_max + 1):
        values, norms = level_row(r)
        diag["levels"][str(r)] = float(max(abs(complex(v)) for v in values))
        if any(v != 0 if exact else abs(complex(v)) > tol * g * adj_norm
               for v, g in zip(values, norms)):
            return SingularityClass("morin", k=r, diagnostics=diag)
    return SingularityClass("indeterminate", diagnostics=diag)


def corank_at(F, p, tol: float = DEFAULT_TOL) -> int:
    """n - rank(dF(p)): exact row reduction for rational data, SVD otherwise."""
    components = _components_of(F)
    return _corank(_spectrum(components, p), _is_exact(components, p), validate_tol(tol))[0]


def _classify_at(F, points, tols: Sequence[float], k_max: int,
                 level_one=None) -> list[list[SingularityClass]]:
    """The verdicts at each point for each tolerance in `tols`.

    At the float points, dF(p) and its singular values, J(p), level 1 and
    ||grad J(p)|| come from F's partials, evaluated once on all of them
    (``_level_one``; `level_one` is its result when the caller has it).  An
    exact point reads dF(p) and level 1 off its order-2 jets.  Level r >= 2
    and its norms come from the order-(r+1) jets at p, built once, when the
    first verdict at p reaches it.
    """
    components = _components_of(F)
    floats = [p for p in points if not _is_exact(components, p)]
    if floats:
        float_rows = iter(zip(*(level_one or _level_one(components, floats))))

    def verdicts(p, spectrum, base_value, levels, jets2=None):
        def level_row(r: int):
            if r not in levels:
                jets = jets2 if r == 1 else [f.translate_truncated(p, r + 1) for f in components]
                _, values, norms = _tower_values_at(jets, r)
                levels[r] = values[r - 1], norms[r - 1]
            return levels[r]

        return [_verdict(components, p, base_value, spectrum, level_row, k_max, tol)
                for tol in tols]

    out = []
    for p in points:
        if _is_exact(components, p):
            jets2 = [f.translate_truncated(p, 2) for f in components]
            rows = _linear_rows(jets2)
            out.append(verdicts(p, rows, exact_det(rows), {}, jets2))
        else:
            rows, first, grad_norm, sv = next(float_rows)
            out.append(verdicts(p, sv, complex(np.linalg.det(rows)),
                                {1: (list(first), [grad_norm] * len(first))}))
    return out


def classify(F, p, k_max: int = DEFAULT_KMAX, tol: float = DEFAULT_TOL) -> SingularityClass:
    """Singularity type of F at p.

    Regular if dF(p) has corank 0; corank >= 2 reported as such (the tower
    is blind there); at corank 1, Morin(k) for the smallest k <= k_max with
    some J_{k,i}(p) above tol times its bound ||grad J_{k-1,i}(p)|| *
    ||adj dF(p)||_2, Indeterminate if none is.  The rank counts singular
    values above tol * sigma_1, so multiplying F by a constant keeps the
    verdict.  Level r >= 2 comes from order-(r+1) Taylor jets at p, built
    only when the decision gets that far.  At a float point dF(p), J(p) and
    level 1 come from F's evaluated partials; exact inputs read them off the
    order-2 jets and use exact rank and zero tests throughout.
    """
    return _classify_at(F, [p], (validate_tol(tol),), k_max)[0][0]


def jet_tower_values(F, p, k_max: int = DEFAULT_KMAX):
    """(J(p), [[J_{r,i}(p)]]) for r <= k_max from one jet computation at p.

    Every level at once, from order-(k_max+1) jets.  Classifying does not
    need this: ``classify`` builds only the levels its decision reaches, and
    most points stop at level 1.
    """
    jets = [f.translate_truncated(p, k_max + 1) for f in _components_of(F)]
    return _tower_values_at(jets, k_max)[:2]


def classify_from_values(F, p, base_value, level_values,
                         tol: float = DEFAULT_TOL) -> SingularityClass:
    """The ``classify`` decision on precomputed tower values (k_max = their
    depth); the norms ||grad J_{r-1,i}(p)|| come from the jets at p."""
    components, tol = _components_of(F), validate_tol(tol)
    k = len(level_values)
    norms = _tower_values_at([f.translate_truncated(p, k + 1) for f in components], k)[2]
    return _verdict(components, p, base_value, _spectrum(components, p),
                    lambda r: (level_values[r - 1], norms[r - 1]), k, tol)


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
