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
the SVD, which stays accurate at J(p) ~ 0.  Exact points read dF(p) off their
jets and keep exact arithmetic throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import exact_det, exact_rank
from .maps import HomogeneousMap, jacobian
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
    """J(p) and the values J_{r,i}(p) for r <= k, from the order-(k+1) jets at p.

    Truncating level r past total degree k - r keeps every intermediate
    polynomial tiny and its constant term exact (exact arithmetic in the
    rational kind, plain floating error otherwise -- no truncation error
    either way).
    """
    jac = jacobian(GeneralMap(jets))
    origin = (0,) * len(jets)
    base = jac.det(max_degree=k)
    chains = [[L.coefficient(origin) for L in _chain(jac, base, i, k, cap=k)]
              for i in range(len(jets))]
    return base.coefficient(origin), [list(row) for row in zip(*chains)]


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


def _degree_bounds(components: Sequence[Polynomial], k_max: int):
    """Degree bounds for J and each tower level, for scale-aware thresholds."""
    degs = [max(f.total_degree() or 0, 1) for f in components]
    s = sum(d - 1 for d in degs)
    base = s
    levels = [[max(s + k * (s - d), 0) for d in degs] for k in range(1, k_max + 1)]
    return base, levels


def _threshold(tol: float, p, degree: int) -> float:
    norm = math.sqrt(sum(abs(complex(v)) ** 2 for v in p))
    return tol * (1.0 + norm) ** degree


def _is_exact(components: Sequence[Polynomial], p) -> bool:
    return (components[0].kind == RATIONAL
            and all(isinstance(v, (int, Fraction)) for v in p))


def _linear_rows(jets: Sequence[Polynomial]) -> list[list]:
    """dF(p) read off the linear terms of the jets at an exact point p."""
    units = [tuple(int(i == j) for i in range(len(jets))) for j in range(len(jets))]
    return [[g.coefficient(u) for u in units] for g in jets]


def _evaluated(jac: PolyMatrix, points) -> np.ndarray:
    """A polynomial matrix at each of the (N, n) float points: an (N, rows, cols) array.

    Each entry goes through one ``Polynomial.evaluate`` over all the points.
    """
    x = np.asarray(points, dtype=complex)
    values = np.array([e.evaluate(x) for e in jac.entries])
    return values.T.reshape(len(x), jac.rows, jac.cols)


def _differential(components: Sequence[Polynomial], p) -> list[list]:
    """dF(p): from the order-1 jets at an exact point, else from F's evaluated partials."""
    if _is_exact(components, p):
        return _linear_rows([f.translate_truncated(p, 1) for f in components])
    return _evaluated(jacobian(GeneralMap(components)), [p])[0]


def _level_one(components: Sequence[Polynomial], points) -> tuple[np.ndarray, np.ndarray]:
    """dF(p) and the row [J_{1,i}(p)] at each of the (N, n) float points.

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
    return differentials, np.einsum("pk,pki->pi", grad, adj)


def _corank(rows, exact: bool, tol: float) -> int:
    """n - rank of an evaluated differential: exact row reduction or SVD."""
    n = len(rows)
    if exact:
        return n - exact_rank(rows)
    a = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv[0] if len(sv) else 0.0
    if top == 0.0:
        return n
    return n - int(np.sum(sv > tol * top))


def _verdict(components, p, base_value, differential, level_row, k_max,
             tol) -> SingularityClass:
    """The classification decision, given J(p), dF(p) and a level source.

    ``level_row(r)`` returns the values [J_{r,i}(p)]; it is asked for
    r = 1, 2, ... only until some level survives, so a lazy source pays for
    the shallow verdicts alone.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    exact = _is_exact(components, p)
    base_bound, level_bounds = _degree_bounds(components, k_max)

    def vanishes(value, degree: int) -> bool:
        if exact:
            return value == 0
        return abs(complex(value)) <= _threshold(tol, p, degree)

    diag = {
        "abs_jdet": float(abs(complex(base_value))),
        "tol": None if exact else tol,
        "levels": {},
    }
    if not vanishes(base_value, base_bound):
        diag["corank"] = 0
        return SingularityClass("regular", diagnostics=diag)
    corank = _corank(differential, exact, tol)
    diag["corank"] = corank
    if corank >= 2:
        return SingularityClass("corank_ge_2", diagnostics=diag)
    for r in range(1, k_max + 1):
        row = level_row(r)
        diag["levels"][str(r)] = float(max(abs(complex(v)) for v in row))
        if any(not vanishes(v, level_bounds[r - 1][i]) for i, v in enumerate(row)):
            return SingularityClass("morin", k=r, diagnostics=diag)
    return SingularityClass("indeterminate", diagnostics=diag)


def corank_at(F, p, tol: float = DEFAULT_TOL) -> int:
    """n - rank(dF(p)): exact row reduction for rational data, SVD otherwise."""
    components = _components_of(F)
    return _corank(_differential(components, p), _is_exact(components, p), tol)


def _classify_at(F, points, tols: Sequence[float], k_max: int) -> list[list[SingularityClass]]:
    """The verdicts at each point for each tolerance in `tols`.

    At the float points, dF(p), J(p) and level 1 come from F's first and
    second partials, evaluated once on all of those points (``_level_one``).
    An exact point reads dF(p) and level 1 off its order-2 jets.  Level
    r >= 2 comes from the order-(r+1) jets at p, built once, when the first
    verdict at p reaches it.
    """
    components = _components_of(F)
    floats = [p for p in points if not _is_exact(components, p)]
    if floats:
        float_rows = iter(zip(*_level_one(components, floats)))

    def verdicts(p, rows, base_value, levels, jets2=None):
        def level_row(r: int):
            if r not in levels:
                jets = jets2 if r == 1 else [f.translate_truncated(p, r + 1) for f in components]
                levels[r] = _tower_values_at(jets, r)[1][r - 1]
            return levels[r]

        return [_verdict(components, p, base_value, rows, level_row, k_max, tol)
                for tol in tols]

    out = []
    for p in points:
        if _is_exact(components, p):
            jets2 = [f.translate_truncated(p, 2) for f in components]
            rows = _linear_rows(jets2)
            out.append(verdicts(p, rows, exact_det(rows), {}, jets2))
        else:
            rows, first = next(float_rows)
            out.append(verdicts(p, rows, complex(np.linalg.det(rows)), {1: list(first)}))
    return out


def classify(F, p, k_max: int = DEFAULT_KMAX, tol: float = DEFAULT_TOL) -> SingularityClass:
    """Singularity type of F at p.

    Regular if J(p) != 0; corank >= 2 reported as such (the tower is blind
    there); otherwise Morin(k) for the smallest k <= k_max with some
    J_{k,i}(p) above the scale-aware tolerance, Indeterminate if none is.
    Level r >= 2 comes from order-(r+1) Taylor jets at p, built only when the
    decision gets that far.  At a float point dF(p), J(p) and level 1 come
    from F's evaluated partials; exact inputs read them off the order-2 jets
    and use exact zero tests throughout.
    """
    return _classify_at(F, [p], (tol,), k_max)[0][0]


def jet_tower_values(F, p, k_max: int = DEFAULT_KMAX):
    """(J(p), [[J_{r,i}(p)]]) for r <= k_max from one jet computation at p.

    Every level at once, from order-(k_max+1) jets.  Classifying does not
    need this: ``classify`` builds only the levels its decision reaches, and
    most points stop at level 1.
    """
    jets = [f.translate_truncated(p, k_max + 1) for f in _components_of(F)]
    return _tower_values_at(jets, k_max)


def classify_from_values(F, p, base_value, level_values,
                         tol: float = DEFAULT_TOL) -> SingularityClass:
    """The ``classify`` decision on precomputed tower values (k_max = their depth)."""
    components = _components_of(F)
    return _verdict(components, p, base_value, _differential(components, p),
                    lambda r: level_values[r - 1], len(level_values), tol)


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
