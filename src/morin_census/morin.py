"""Corank-1 singularity classification by iterated Jacobian determinants.

For a polynomial map F = (f_1,...,f_n) with Jacobian determinant J, the tower

    J_{1,i} = det(Jacobian with row i replaced by grad J)
    J_{k+1,i} = det(Jacobian with row i replaced by grad J_{k,i})

detects Morin singularities at a corank-1 critical point p: the smallest k with
some J_{k,i}(p) != 0 is the type A_k (A_1 fold, A_2 cusp, A_3 swallowtail).
For graph-like maps (x_1,...,x_{n-1}, g) the chain collapses to J_{r,n} =
d^{r+1} g / d x_n^{r+1}, which the symbolic tower reproduces exactly.  Points
of corank >= 2 kill every level, so the classifier reports them separately.

Two evaluation strategies coexist:

* ``morin_tower`` builds every J_{k,i} symbolically -- exact, cacheable, and
  cheap while component degrees are small, but level-k degrees grow like
  k * sum(d_i - 1), which is ruinous for one-point queries on larger maps.
* ``classify`` instead works with truncated Taylor jets at the query point:
  polynomials mod (x - p)^{m+1} form a ring, and J_{k,i} computed from an
  order-(k+1) jet of F is still correct to order k - r at level r, so every
  value J_{k,i}(p) comes out exact at a tiny fraction of the symbolic cost.
  Both paths agree (this is tested), they just price the work differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import exact_det, exact_rank
from .maps import HomogeneousMap
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


def _jacobian_rows(components: Sequence[Polynomial]) -> list[list[Polynomial]]:
    n = len(components)
    return [[f.partial(j) for j in range(n)] for f in components]


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
    n = len(components)
    jac = PolyMatrix.from_rows(_jacobian_rows(components))
    base = jac.det()
    levels = []
    chains = [base] * n
    for _ in range(k_max):
        row = []
        for i in range(n):
            grad = chains[i].gradient()
            row.append(jac.with_row(i, grad).det())
        chains = row
        levels.append(tuple(row))
    return MorinTower(components, k_max, base, tuple(levels))


# ---------------------------------------------------------------- jet evaluation
def _tower_values_at(components: Sequence[Polynomial], p, k: int):
    """J(p) and the values J_{r,i}(p) for r <= k, via order-(k+1) jets at p.

    Translating to p and truncating past total degree k+1 keeps every
    intermediate polynomial tiny; level r stays correct to order k - r, so all
    constant terms below level k are exact (exact arithmetic in the rational
    kind, plain floating error otherwise -- no truncation error either way).
    """
    n = len(components)
    jets = [f.translate_truncated(p, k + 1) for f in components]
    jac = PolyMatrix.from_rows(_jacobian_rows(jets))
    origin = (0,) * n
    base = jac.det(max_degree=k)
    values = []
    chains = [base] * n
    for r in range(1, k + 1):
        cap = k - r
        row_vals = []
        new_chains = []
        for i in range(n):
            grad = chains[i].gradient()
            level_poly = jac.with_row(i, grad).det(max_degree=cap)
            new_chains.append(level_poly)
            row_vals.append(level_poly.coefficient(origin))
        chains = new_chains
        values.append(row_vals)
    return base.coefficient(origin), values


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


def _differential(components: Sequence[Polynomial], p) -> list[list]:
    """dF(p) as evaluated rows."""
    n = len(components)
    return [[components[i].partial(j).evaluate(p) for j in range(n)]
            for i in range(n)]


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


def classify(F, p, k_max: int = DEFAULT_KMAX, tol: float = DEFAULT_TOL) -> SingularityClass:
    """Singularity type of F at p.

    Regular if J(p) != 0; corank >= 2 reported as such (the tower is blind
    there); otherwise Morin(k) for the smallest k <= k_max with some
    J_{k,i}(p) above the scale-aware tolerance, Indeterminate if none is.
    Level r comes from an order-(r+1) jet built only when the decision gets
    that far, so the common shallow verdicts never pay for deep ones; exact
    inputs use exact zero tests throughout.
    """
    components = _components_of(F)
    n = len(components)
    if len(p) != n:
        raise ValueError(f"point length {len(p)} != n {n}")
    rows = _differential(components, p)
    if _is_exact(components, p):
        base_value = exact_det(rows)
    else:
        base_value = complex(np.linalg.det(np.array(
            [[complex(v) for v in row] for row in rows], dtype=complex)))
    return _verdict(components, p, base_value, rows,
                    lambda r: _tower_values_at(components, p, r)[1][r - 1],
                    k_max, tol)


def jet_tower_values(F, p, k_max: int = DEFAULT_KMAX):
    """(J(p), [[J_{r,i}(p)]]) for r <= k_max from one jet computation at p.

    Every level at once, from order-(k_max+1) jets.  Classifying does not
    need this: ``classify`` builds only the levels its decision reaches,
    which is cheaper even when a point is re-decided under several
    tolerances, because most points stop at level 1.
    """
    components = _components_of(F)
    if len(p) != len(components):
        raise ValueError(f"point length {len(p)} != n {len(components)}")
    return _tower_values_at(components, p, k_max)


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
    variables = [Polynomial.variable(j, n, kind) for j in range(n)]
    substituted = []
    for f in components:
        linear_forms = []
        for i in range(n):
            form = Polynomial.zero(n, kind)
            for j in range(n):
                if source[i][j]:
                    form = form + variables[j] * source[i][j]
            linear_forms.append(form)
        substituted.append(f.substitute(linear_forms))
    out = []
    for i in range(n):
        g = Polynomial.zero(n, kind)
        for j in range(n):
            if target[i][j]:
                g = g + substituted[j] * target[i][j]
        out.append(g)
    return out
