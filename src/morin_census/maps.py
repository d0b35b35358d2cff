"""Homogeneous polynomial mappings F = (f_1, ..., f_n): C^n -> C^n.

Component f_k is homogeneous of degree d_k and is indexed by the exponents of
the variables x_2..x_n (the x_1 exponent is forced by homogeneity):

    f_k = sum a_{i2,...,in;k} * x1^(d_k - i2 - ... - in) * x2^i2 * ... * xn^in.

The module also carries the degree-arithmetic results that need no map at all:
the gcd eligibility gate for n = 4 (which tuples admit an A-finitely determined
generic germ) and the ray multiplicity gcd{d_i : f_i(p) != 0} counting the
points of the ray C*p that share the value F(p).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polynomials import (
    COMPLEX,
    RATIONAL,
    ROOT_TOL,
    Polynomial,
    PolyMatrix,
    format_coefficient,
    is_exact_point,
    parse_coefficient,
)

__all__ = [
    "HomogeneousMap",
    "EligibilityVerdict",
    "ELIGIBLE_GENERIC",
    "HYPOTHESIS_FAILS",
    "NEVER_FINITE",
    "INFINITE_RAY",
    "validate_degrees",
    "validate_count",
    "UsageError",
    "coefficient",
    "random_map",
    "jacobian",
    "jdet",
    "eligibility_gate",
    "ray_multiplicity",
    "map_to_dict",
    "map_from_dict",
    "save_map",
    "load_map",
]


def validate_degrees(degrees: Sequence[int]) -> tuple[int, ...]:
    """Degree tuples need length >= 2 and integral entries >= 1 (degree 1 is a trivial edge case).

    Entries must be ints or numpy integers; anything else, such as 2.5 or 2.0,
    is rejected rather than truncated.
    """
    entries = []
    for d in degrees:
        try:
            entries.append(operator.index(d))
        except TypeError:
            raise ValueError(f"degrees must be integers, got {d!r}") from None
    t = tuple(entries)
    if len(t) < 2:
        raise ValueError("need at least two degrees")
    if any(d < 1 for d in t):
        raise ValueError("degrees must be >= 1")
    return t


class UsageError(ValueError):
    """An argument outside its domain, or bad input data: the CLI's exit code 1."""


def validate_count(value: int, name: str, least: int = 0) -> int:
    """A sampling count, or with least=1 a coefficient bound: an int >= least.

    Like the entries of ``validate_degrees``, it must be an int or a numpy
    integer; 1.5 or 2.0 is a UsageError naming the parameter, not truncated.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise UsageError(f"{name} must be >= {least}, got {value}")
    return value


def rest_exponents(degree: int, n: int):
    """All (i2,...,in) with sum <= degree, in lexicographic order."""
    ranges = [range(degree + 1)] * (n - 1)
    for rest in itertools.product(*ranges):
        if sum(rest) <= degree:
            yield rest


def _full_exponents(degree: int, rest: Sequence[int]) -> tuple[int, ...]:
    return (degree - sum(rest),) + tuple(rest)


@functools.cache
def _layout(degree: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of a degree-`degree` form in n variables, in
    ``rest_exponents`` order: the term order of ``random_map``."""
    return tuple(_full_exponents(degree, rest) for rest in rest_exponents(degree, n))


@dataclass(frozen=True)
class HomogeneousMap:
    """F = (f_1,...,f_n) with f_k homogeneous of degree degrees[k] (or zero)."""

    degrees: tuple[int, ...]
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", validate_degrees(self.degrees))
        object.__setattr__(self, "components", tuple(self.components))
        n = len(self.degrees)
        if len(self.components) != n:
            raise ValueError("one component per degree required")
        kind = self.components[0].kind
        for k, (d, f) in enumerate(zip(self.degrees, self.components)):
            if f.n_vars != n:
                raise ValueError(f"component {k} has n_vars {f.n_vars} != n {n}")
            if f.kind != kind:
                raise ValueError("components must share one coefficient kind")
            h = f.is_homogeneous()
            if not f.is_zero() and h != d:
                raise ValueError(f"component {k} is not homogeneous of degree {d}")

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def kind(self) -> str:
        return self.components[0].kind

    def evaluate(self, point):
        return [f.evaluate(point) for f in self.components]

    def as_complex(self) -> "HomogeneousMap":
        if self.kind == COMPLEX:
            return self
        return HomogeneousMap(self.degrees, tuple(f.as_complex() for f in self.components))


def coefficient(F: HomogeneousMap, k: int, rest: Sequence[int]):
    """a_{i2,...,in;k}: coefficient of x1^(d_k - sum) x2^i2 ... xn^in in f_k (0-based k)."""
    if not 0 <= k < F.n:
        raise ValueError(f"component index {k} out of range")
    rest = tuple(int(i) for i in rest)
    if len(rest) != F.n - 1:
        raise ValueError(f"need {F.n - 1} trailing exponents, got {len(rest)}")
    if any(i < 0 for i in rest):
        raise ValueError("negative exponent")
    if sum(rest) > F.degrees[k]:
        raise ValueError(f"exponent sum {sum(rest)} exceeds degree {F.degrees[k]}")
    return F.components[k].coefficient(_full_exponents(F.degrees[k], rest))


def random_map(degrees: Sequence[int], seed: int, kind: str = RATIONAL,
               bound: int = 10) -> HomogeneousMap:
    """Seeded random map with every coefficient drawn independently.

    The rational kind draws integers uniformly from [-bound, bound], bound >= 1;
    the complex kind draws standard complex Gaussians.  Either distribution is a
    stand-in for "generic": the properties probed downstream hold off proper
    Zariski-closed sets, so any atomless-enough law reaches them with probability one.
    Each degree's exponent layout is built once per (degree, n); the drawn
    coefficients are clean by construction and go in unchecked.  An unknown
    `kind` is a ValueError, raised before anything is drawn.
    """
    degrees = validate_degrees(degrees)
    bound = validate_count(bound, "bound", 1)
    if kind not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown coefficient kind {kind!r}")
    n = len(degrees)
    rng = np.random.default_rng(seed)
    components = []
    for d in degrees:
        exponents = _layout(d, n)
        # one call per component draws, in term order, what one call per term would
        if kind == RATIONAL:
            coeffs = map(Fraction, rng.integers(-bound, bound + 1, size=len(exponents)).tolist())
        else:
            parts = (rng.standard_normal((len(exponents), 2)) / math.sqrt(2)).tolist()
            coeffs = itertools.starmap(complex, parts)
        components.append(Polynomial._trusted(
            n, {e: c for e, c in zip(exponents, coeffs) if c != 0}, kind))
    return HomogeneousMap(degrees, tuple(components))


def jacobian(F) -> PolyMatrix:
    """dF, the n x n matrix with entry (i, j) = d f_i / d x_j; every dF is built here.

    F is any square map: a HomogeneousMap, or a GeneralMap such as the jets of
    a map at a point.
    """
    return PolyMatrix.from_rows([[f.partial(j) for j in range(F.n)] for f in F.components])


def jdet(F: HomogeneousMap) -> Polynomial:
    """J(F) = det(jacobian(F)); homogeneous of degree sum(d_i - 1) when nonzero.

    The exact, symbolic J, kept as the oracle the classifier's J(p) and the
    line sampler's det dF are tested against; the package never builds it.
    """
    return jacobian(F).det()


# ------------------------------------------------------------------ eligibility
ELIGIBLE_GENERIC = "eligible_generic"
HYPOTHESIS_FAILS = "hypothesis_fails"
NEVER_FINITE = "never_finite"


@dataclass(frozen=True)
class EligibilityVerdict:
    """Outcome of the n=4 gcd gate, with the violated condition as witness."""

    tag: str
    witness: str | None = None

    def to_dict(self) -> dict:
        return {"tag": self.tag, "witness": self.witness}


def eligibility_gate(degrees: Sequence[int]) -> EligibilityVerdict:
    """Which degree tuples admit an A-finitely determined generic germ (n = 4).

    NeverFinite when gcd(d1,d2,d3,d4) > 1: no map of these degrees is finitely
    determined.  EligibleGeneric when every triple gcd is 1 and every pairwise
    gcd is <= 2: the generic map is finitely determined.  Anything else fails
    the hypotheses without the hard obstruction, reported with a witness.
    """
    d = validate_degrees(degrees)
    if len(d) != 4:
        raise ValueError("the eligibility gate is specific to n = 4")
    return _gate(d)


_TRIPLES = tuple(itertools.combinations(range(4), 3))
_PAIRS = tuple(itertools.combinations(range(4), 2))


def _gate(d: tuple[int, ...]) -> EligibilityVerdict:
    """``eligibility_gate`` on a degree 4-tuple that is already validated."""
    g_all = math.gcd(*d)
    if g_all > 1:
        return EligibilityVerdict(NEVER_FINITE, f"gcd(d1..d4)={g_all}")
    for a, b, c in _TRIPLES:
        g = math.gcd(d[a], d[b], d[c])
        if g != 1:
            return EligibilityVerdict(
                HYPOTHESIS_FAILS,
                f"gcd(d{a + 1},d{b + 1},d{c + 1})={g} (triple gcd must be 1)")
    for a, b in _PAIRS:
        g = math.gcd(d[a], d[b])
        if g > 2:
            return EligibilityVerdict(
                HYPOTHESIS_FAILS,
                f"gcd(d{a + 1},d{b + 1})={g} (pairwise gcd must be <= 2)")
    return EligibilityVerdict(ELIGIBLE_GENERIC)


# ------------------------------------------------------------------ ray counting
INFINITE_RAY = math.inf


def ray_multiplicity(F: HomogeneousMap, p):
    """Number of points on the ray C*p sharing the value F(p).

    Scaling p by lambda multiplies f_i(p) by lambda^{d_i}, so the ray collapses
    onto F(p) exactly gcd{d_i : f_i(p) != 0} times; if every component vanishes
    the whole ray maps to 0 and the designated INFINITE_RAY marker is returned.
    At a float point f_i(p) vanishes when |f_i(p)| <= ROOT_TOL times its
    coefficient envelope sum_e |a_e| |p^e|, so a constant factor on F changes
    nothing.  An (N, n) array of float points gives a list of N
    multiplicities, from one batched ``value_and_envelope`` per component; a
    batch with a zero row is a ValueError like the origin itself.
    """
    exact = F.kind == RATIONAL and is_exact_point(p)
    x = np.asarray(p, dtype=object if exact else complex)
    if x.ndim not in (1, 2) or x.shape[-1] != F.n:
        raise ValueError(f"point shape {x.shape} is not (n,) or (N, n) with n = {F.n}")
    if np.any(np.all(x == 0, axis=-1)):
        raise ValueError("ray multiplicity is undefined at the origin")
    if exact:
        return math.gcd(*(d for d, v in zip(F.degrees, F.evaluate(p)) if v != 0)) or INFINITE_RAY
    pairs = [f.value_and_envelope(x) for f in F.components]
    # surviving[m, i]: f_i does not vanish at point m
    surviving = np.array([np.abs(v) > ROOT_TOL * e for v, e in pairs]).reshape(F.n, -1).T
    mults = [math.gcd(*(d for d, alive in zip(F.degrees, row) if alive)) or INFINITE_RAY
             for row in surviving]
    return mults if x.ndim == 2 else mults[0]


# ------------------------------------------------------------------ serialization
def map_to_dict(F: HomogeneousMap) -> dict:
    """Map-file form: the JSON interchange consumed by every CLI subcommand."""
    return {
        "n": F.n,
        "degrees": list(F.degrees),
        "kind": F.kind,
        "components": [
            [{"exps": list(e), "coeff": format_coefficient(c, F.kind)}
             for e, c in f.sorted_terms()]
            for f in F.components
        ],
    }


def map_from_dict(data: dict) -> HomogeneousMap:
    n = int(data["n"])
    degrees = validate_degrees(data["degrees"])
    kind = data["kind"]
    if kind not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown kind {kind!r}")
    if len(degrees) != n:
        raise ValueError("degrees length != n")
    components = []
    for comp in data["components"]:
        terms = {}
        for item in comp:
            exps = tuple(int(e) for e in item["exps"])
            terms[exps] = parse_coefficient(item["coeff"], kind)
        components.append(Polynomial(n, terms, kind))
    return HomogeneousMap(degrees, tuple(components))


def save_map(F: HomogeneousMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_dict(F), fh, indent=2)
        fh.write("\n")


def load_map(path) -> HomogeneousMap:
    with open(path, encoding="utf-8") as fh:
        return map_from_dict(json.load(fh))
