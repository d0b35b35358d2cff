"""Homogeneous map model: coefficients, Jacobians, gate, rays, serialization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from morin_census import (
    ELIGIBLE_GENERIC,
    HYPOTHESIS_FAILS,
    INFINITE_RAY,
    NEVER_FINITE,
    GeneralMap,
    HomogeneousMap,
    Polynomial,
    coefficient,
    eligibility_gate,
    jacobian,
    jdet,
    load_map,
    map_from_dict,
    map_to_dict,
    random_map,
    ray_multiplicity,
    rest_exponents,
    save_map,
    survey,
    validate_degrees,
)
from morin_census.maps import UsageError
from morin_census.sampler import cusp_points


def _fold_map():
    comps = (
        Polynomial(4, {(1, 0, 0, 0): 1}),
        Polynomial(4, {(0, 1, 0, 0): 1}),
        Polynomial(4, {(0, 0, 1, 0): 1}),
        Polynomial(4, {(0, 0, 0, 2): 1}),
    )
    return HomogeneousMap((1, 1, 1, 2), comps)


# ------------------------------------------------------------- construction
def test_random_map_is_deterministic_per_seed():
    """Equal seeds give equal maps; different seeds give different maps."""
    a = random_map((2, 3), seed=5)
    b = random_map((2, 3), seed=5)
    c = random_map((2, 3), seed=6)
    assert a.components == b.components
    assert a.components != c.components


def test_random_map_respects_degrees_and_kind():
    """Every component is homogeneous of its declared degree."""
    F = random_map((2, 3, 4), seed=1, kind="complex")
    assert F.degrees == (2, 3, 4)
    for d, f in zip(F.degrees, F.components):
        assert f.is_homogeneous() == d
        assert f.kind == "complex"


def _one_draw_per_term(degrees, seed, kind, bound):
    """random_map's terms as drawn one coefficient at a time, in rest_exponents order."""
    rng = np.random.default_rng(seed)
    n = len(degrees)
    components = []
    for d in degrees:
        terms = []
        for rest in rest_exponents(d, n):
            if kind == "rational":
                c = int(rng.integers(-bound, bound + 1))
            else:
                re, im = rng.standard_normal(2)
                c = complex(re, im) / math.sqrt(2)
            if c != 0:
                terms.append(((d - sum(rest),) + rest, c))
        components.append(terms)
    return components


@pytest.mark.parametrize("degrees, kind, bound", [
    ((2, 3, 5, 7), "complex", 10), ((3, 3, 3, 3), "complex", 10),
    ((2, 2, 2), "rational", 10), ((2, 3, 4), "rational", 1000),
    ((3, 3, 3), "rational", 1000), ((2, 2, 2, 2), "rational", 10)])
def test_random_map_terms_are_those_of_one_draw_per_term(degrees, kind, bound):
    """Every workload's inputs come from random_map: its terms, coefficients and
    term order are pinned to a reference that draws one coefficient at a time.
    The components, built unchecked, equal the validated Polynomial(...) of
    those draws term for term, in order, with Fraction or complex values."""
    for seed in (0, 1, 7, 123456789, 2 ** 31 - 1):
        F = random_map(degrees, seed=seed, kind=kind, bound=bound)
        drawn = _one_draw_per_term(degrees, seed, kind, bound)
        assert [list(f.terms.items()) for f in F.components] == drawn
        validated = [Polynomial(len(degrees), dict(terms), kind) for terms in drawn]
        assert [[(e, c, type(c)) for e, c in f.terms.items()] for f in F.components] == \
            [[(e, c, type(c)) for e, c in g.terms.items()] for g in validated]


def test_random_map_rejects_an_unknown_kind_before_drawing(monkeypatch):
    """An unknown kind is a ValueError before any generator is made."""
    def no_draws(*args, **kwargs):
        raise AssertionError("random_map drew coefficients")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match="unknown coefficient kind 'real'"):
        random_map((2, 2), seed=0, kind="real")


@pytest.mark.parametrize("bound", [0, -1])
def test_random_map_rejects_a_bound_below_one(bound):
    """bound = 0 would give the zero map, and a negative bound numpy's
    "low >= high": both are a ValueError naming the bound."""
    with pytest.raises(ValueError, match="bound must be >= 1"):
        random_map((2, 2), seed=0, bound=bound)


@pytest.mark.parametrize("call, name", [
    (lambda: random_map((2, 2), seed=1, bound=2.5), "bound"),
    (lambda: survey((2, 2, 2, 2), maps=1.5, lines=1, seed=1), "maps"),
    (lambda: cusp_points(random_map((2, 2, 2, 2), seed=1), planes=1.5, seed=1), "planes"),
], ids=["random_map_bound", "survey_maps", "cusp_points_planes"])
def test_counts_must_be_integers(call, name):
    """A count or bound of 1.5 or 2.5 is a UsageError naming the parameter,
    not a silently truncated range or a TypeError from numpy or ``range``."""
    with pytest.raises(UsageError, match=f"{name} must be an integer"):
        call()


def test_validate_degrees_rejects_nonpositive():
    """Degrees must be positive integers."""
    with pytest.raises(ValueError):
        validate_degrees((2, 0))


def test_validate_degrees_rejects_non_integral_entries():
    """Fractional degrees are rejected, naming the entry, rather than truncated."""
    for bad in ((2.5, 3), (2, 3.0), (2, Fraction(3)), (2, "3")):
        with pytest.raises(ValueError, match="integers"):
            validate_degrees(bad)
    with pytest.raises(ValueError, match=r"2\.9"):
        eligibility_gate((2.9, 3, 5, 7))
    with pytest.raises(ValueError, match=r"2\.5"):
        random_map((2.5, 3), seed=1)
    assert validate_degrees(np.array([2, 3], dtype=np.int64)) == (2, 3)
    assert all(type(d) is int for d in validate_degrees((np.int32(2), np.uint8(3))))


def test_homogeneity_enforced():
    """A non-homogeneous component is rejected at construction."""
    bad = Polynomial(2, {(1, 0): 1, (0, 0): 1})
    good = Polynomial(2, {(0, 2): 1})
    with pytest.raises(ValueError):
        HomogeneousMap((1, 2), (bad, good))


def test_coefficient_indexing_round_trip():
    """coefficient(F, k, rest) reads the monomial with x1 absorbing the rest."""
    F = random_map((3, 2), seed=9)
    k = 0
    for rest in rest_exponents(3, 2):
        lead = 3 - sum(rest)
        exps = (lead,) + tuple(rest)
        assert coefficient(F, k, rest) == F.components[k].coefficient(exps)


# ------------------------------------------------------------- jacobians
def test_jacobian_shape_and_entries():
    """Jacobian matrix holds the partial derivatives row by row."""
    F = _fold_map()
    J = jacobian(F)
    assert (J.rows, J.cols) == (4, 4)
    assert J.entry(3, 3) == Polynomial(4, {(0, 0, 0, 1): 2})


def test_jacobian_takes_a_general_map():
    """Any square map goes in, not only a homogeneous one."""
    G = GeneralMap((Polynomial(2, {(2, 0): 1, (0, 1): 1}), Polynomial(2, {(1, 1): 3})))
    J = jacobian(G)
    assert J.row(0) == [Polynomial(2, {(1, 0): 2}), Polynomial(2, {(0, 0): 1})]
    assert J.row(1) == [Polynomial(2, {(0, 1): 3}), Polynomial(2, {(1, 0): 3})]


def test_jdet_of_fold_normal_form():
    """J(x1,x2,x3,x4^2) = 2*x4 exactly."""
    assert jdet(_fold_map()) == Polynomial(4, {(0, 0, 0, 1): 2})


def test_jdet_degree_of_random_map():
    """deg J = sum(d_i - 1) for nondegenerate maps."""
    F = random_map((2, 2, 3), seed=4)
    assert jdet(F).total_degree() == sum(d - 1 for d in F.degrees)


# ------------------------------------------------------------- gate
def test_gate_truth_table():
    """The four pinned degree tuples land in the documented gate states."""
    assert eligibility_gate((2, 3, 5, 7)).tag == ELIGIBLE_GENERIC
    assert eligibility_gate((2, 4, 3, 5)).tag == ELIGIBLE_GENERIC
    assert eligibility_gate((2, 4, 6, 3)).tag == HYPOTHESIS_FAILS
    assert eligibility_gate((2, 4, 6, 8)).tag == NEVER_FINITE


def test_gate_witness_strings():
    """Failing gates explain which gcd condition broke."""
    v = eligibility_gate((2, 4, 6, 8))
    assert v.witness == "gcd(d1..d4)=2"
    w = eligibility_gate((2, 4, 6, 3))
    assert "triple gcd must be 1" in w.witness


def test_gate_permutation_invariant():
    """Gate verdict only depends on the multiset of degrees."""
    assert eligibility_gate((3, 6, 4, 2)).tag == eligibility_gate((2, 4, 6, 3)).tag


# ------------------------------------------------------------- rays
def test_ray_multiplicity_all_even_degrees():
    """With all degrees even the whole ray folds in pairs: multiplicity 2."""
    F = random_map((2, 2, 2, 2), seed=0, kind="complex")
    p = np.array([1.0, 0.5, -0.25, 2.0])
    assert ray_multiplicity(F, p) == 2


def test_ray_multiplicity_coprime_degrees():
    """Coprime surviving degrees force multiplicity 1."""
    F = random_map((2, 3, 5, 7), seed=0, kind="complex")
    p = np.array([1.0, 1.0, 1.0, 1.0])
    assert ray_multiplicity(F, p) == 1


def test_ray_multiplicity_does_not_depend_on_the_scale_of_F():
    """Each component is tested against its own coefficient envelope at |p|,
    so F times 1e-12 keeps its multiplicity instead of looking like a map that
    vanishes on the whole ray."""
    F = random_map((2, 2, 2, 2), seed=0, kind="complex")
    G = HomogeneousMap(F.degrees, tuple(f * 1e-12 for f in F.components))
    for p in (np.array([1.0, 0.5, -0.25, 2.0]), np.array([1e-3, 0.0, 0.0, 0.0])):
        assert ray_multiplicity(G, p) == ray_multiplicity(F, p) == 2


def test_ray_multiplicity_infinite_when_all_components_vanish():
    """F(p) = 0 makes the whole ray a fiber: INFINITE_RAY."""
    comps = (
        Polynomial(2, {(2, 0): 1}),
        Polynomial(2, {(1, 1): 1}),
    )
    F = HomogeneousMap((2, 2), comps)
    mult = ray_multiplicity(F, [0.0, 1.0])
    assert mult is INFINITE_RAY and math.isinf(mult)


def test_ray_multiplicity_is_gcd_of_surviving_degrees():
    """Components vanishing at p drop out of the gcd."""
    comps = (
        Polynomial(2, {(0, 4): 1}),   # x2^4: survives at (0,1)
        Polynomial(2, {(1, 5): 1}),   # x1*x2^5: vanishes at (0,1)
    )
    F = HomogeneousMap((4, 6), comps)
    assert ray_multiplicity(F, [0.0, 1.0]) == 4


def _ray_case_map():
    """Degrees (2, 3, 4): f1 = x1^2 + x2 x3, f2 = x1 (x2^2 + x3^2) vanishing on
    the hyperplane x1 = 0, f3 = x1^4 + x2^4; all three vanish at (0, 0, 1)."""
    comps = (
        Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): 1}),
        Polynomial(3, {(1, 2, 0): 1, (1, 0, 2): 1}),
        Polynomial(3, {(4, 0, 0): 1, (0, 4, 0): 1}),
    )
    return HomogeneousMap((2, 3, 4), comps).as_complex()


def test_batched_ray_multiplicity_equals_the_point_by_point_calls():
    """An (N, n) batch gives the per-point multiplicities in one list: 1 at
    generic points, 2 = gcd(2, 4) on the hyperplane x1 = 0 where f2 vanishes,
    and INFINITE_RAY at (0, 0, 1) where every component vanishes."""
    F = _ray_case_map()
    rng = np.random.default_rng(3)
    generic = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    on_plane = generic.copy()
    on_plane[:, 0] = 0.0
    batch = np.vstack([generic, on_plane, [[0.0, 0.0, 2.0]]])
    got = ray_multiplicity(F, batch)
    assert got == [ray_multiplicity(F, p) for p in batch]
    assert got[:6] == [1, 1, 1, 2, 2, 2] and got[6] is INFINITE_RAY


def test_batched_ray_multiplicity_rejects_a_zero_row():
    """The origin check runs per point: one zero row makes the batch a ValueError."""
    F = _ray_case_map()
    batch = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="undefined at the origin"):
        ray_multiplicity(F, batch)


# ------------------------------------------------------------- serialization
def test_map_dict_round_trip_rational():
    """map_to_dict / map_from_dict is the identity on rational maps."""
    F = random_map((2, 3), seed=7)
    assert map_from_dict(map_to_dict(F)) == F


def test_map_file_round_trip_complex(tmp_path):
    """save_map / load_map round-trips complex coefficients."""
    F = random_map((2, 2, 2), seed=3, kind="complex")
    path = tmp_path / "map.json"
    save_map(F, path)
    assert load_map(path) == F


def test_map_dict_schema():
    """Serialized maps expose n, degrees, kind, and per-term components."""
    d = map_to_dict(random_map((2, 2), seed=1))
    assert sorted(d) == ["components", "degrees", "kind", "n"]
    assert d["n"] == 2 and d["degrees"] == [2, 2] and d["kind"] == "rational"
    for comp in d["components"]:
        for term in comp:
            assert sorted(term) == ["coeff", "exps"]
            assert isinstance(term["coeff"], str)
