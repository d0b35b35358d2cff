"""The three workloads: inputs, the calls into the program, and their checks.

Each workload builds one round of inputs from (seed, round), runs the round
through the program's public API, and checks every output with ``verify``.
A run repeats whole rounds of the same shape, so every figure is per round.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

import verify

MENU = ("A1", "A2", "A3")


def round_rng(seed: int, r: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, r, tag)))


class Outcome:
    """What one round produced: operations attempted and failed, outputs, problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.results = 0
        self.problems: list[str] = []
        self.tally: Counter = Counter()

    def call(self, fn, *args, expected=(), **kwargs):
        """One operation; an exception outside `expected` counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except expected as err:
            return err
        except Exception as err:  # the run goes on; the failure is reported
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)} raised {err!r}")
            return None


# ---------------------------------------------------------------- survey
class Survey:
    """survey() of random complex (2,3,5,7) maps under the default thread pool.

    The degrees are pairwise coprime, so every ray multiplicity is 1, and the
    jet tower at each critical point dominates the time.
    """

    degrees = (2, 3, 5, 7)

    def __init__(self, smoke: bool):
        # two maps keep the thread pool live; one line each keeps a round near
        # 5 s, so a run has several rounds for its median; smoke runs the same
        self.maps, self.lines = 2, 1

    def make(self, mc, seed: int, r: int) -> dict:
        survey_seed = int(round_rng(seed, r, 1).integers(2 ** 31))
        return {"seed": survey_seed}

    def run(self, mc, inputs: dict, out: Outcome):
        return out.call(mc.survey, self.degrees, maps=self.maps, lines=self.lines,
                        seed=inputs["seed"])

    def _maps(self, mc, survey_seed: int):
        # survey() documents its sub-seeds: a SeedSequence keyed on its seed,
        # two words per map, the first seeding the map
        state = np.random.SeedSequence(survey_seed).generate_state(
            2 * self.maps, dtype=np.uint64)
        return [verify.coefficient_arrays(
            mc.random_map(self.degrees, seed=int(state[2 * m]), kind="complex").components)
            for m in range(self.maps)]

    def check(self, mc, inputs: dict, report, out: Outcome):
        if report is None:
            return
        maps = self._maps(mc, inputs["seed"])
        deg_j = sum(d - 1 for d in self.degrees)
        per_map = Counter()
        for rec in report.points:
            p = np.array([complex(re, im) for re, im in rec["point"]])
            m = min(range(len(maps)), key=lambda k: abs(np.linalg.det(
                verify.differential(maps[k], p))))
            per_map[m] += 1
            label = rec["class"]["class"]
            problems = verify.critical_point_problems(maps[m], p, deg_j)
            if label not in MENU:
                problems.append(f"class {label} outside {MENU}")
                label = "outside_menu"
            if rec["ray_multiplicity"] != 1 or verify.ray_multiplicity(
                    self.degrees, maps[m], p) != 1:
                problems.append(f"ray multiplicity {rec['ray_multiplicity']} != 1")
            out.tally[label] += 1
            # a class the A2 pairing contradicts is a wrong class, but a rare
            # one (see CHANGES.md): the point is left out of the results
            fold = verify.cusp_pairing(maps[m], p) > verify.PAIRING_TOL
            if problems:
                out.problems.append(f"survey point {p}: {'; '.join(problems)}")
            elif fold != (label == "A1"):
                out.tally["class_contradicted"] += 1
            else:
                out.results += 1
        for m, count in per_map.items():
            if count > self.lines * deg_j:
                out.problems.append(f"map {m}: {count} points on {self.lines} lines "
                                    f"exceed deg J = {deg_j} per line")

    @staticmethod
    def finish(tally: Counter) -> list[str]:
        total = sum(tally[label] for label in MENU) + tally["outside_menu"]
        if total and tally["A1"] < 0.99 * total:
            return [f"only {tally['A1']} of {total} survey points are A1"]
        return []


# ---------------------------------------------------------------- cusp
class Cusp:
    """cusp_points() on the complex (3,3,3,3) map with seed 2, planes seed 9 (two planes).

    The inputs do not depend on the benchmark seed.  At this program's root
    finder the number of cusps found on one random plane swings between 0 and
    12 with the plane, so seeded maps or planes would make `results` and
    `wall_s` differ from seed to seed by more than any usable bound.
    """

    degrees = (3, 3, 3, 3)
    cases = ((2, 9),)          # (map seed, plane seed)

    def __init__(self, smoke: bool):
        self.planes = 1 if smoke else 2

    def make(self, mc, seed: int, r: int) -> list:
        return [(mc.random_map(self.degrees, seed=ms, kind="complex"), ps)
                for ms, ps in self.cases]

    def run(self, mc, inputs: list, out: Outcome):
        return [out.call(mc.cusp_points, F, planes=self.planes, seed=ps)
                for F, ps in inputs]

    def check(self, mc, inputs: list, found, out: Outcome):
        for (F, _), sols in zip(inputs, found):
            if sols is None:
                continue
            arrays = verify.coefficient_arrays(F.components)
            deg_j = sum(d - 1 for d in F.degrees)
            kept: list[np.ndarray] = []
            for sol in sols:
                p = np.asarray(sol.point, dtype=complex)
                problems = verify.critical_point_problems(arrays, p, deg_j)
                pairing = verify.cusp_pairing(arrays, p)
                if pairing > verify.PAIRING_TOL:
                    problems.append(f"A2 pairing {pairing:.3g} does not vanish")
                if any(verify.same_ray(p, q) for q in kept):
                    problems.append("ray repeats an earlier cusp")
                if problems:
                    out.problems.append(f"cusp {p}: {'; '.join(problems)}")
                else:
                    kept.append(p)
                    out.results += 1

    @staticmethod
    def finish(tally: Counter) -> list[str]:
        return []


# ---------------------------------------------------------------- exact
X = tuple(tuple(1 if j == i else 0 for j in range(4)) for i in range(4))
NORMAL_FORMS = (   # criterion 04's germs at the origin, with their classes
    ("A1", ({X[0]: 1}, {X[1]: 1}, {X[2]: 1}, {(0, 0, 0, 2): 1})),
    ("A2", ({X[0]: 1}, {X[1]: 1}, {X[2]: 1}, {(0, 0, 0, 3): 1, (1, 0, 0, 1): 1})),
    ("A3", ({X[0]: 1}, {X[1]: 1}, {X[2]: 1},
            {(0, 0, 0, 4): 1, (1, 0, 0, 2): 1, (0, 1, 0, 1): 1})),
    ("corank_ge_2", ({X[0]: 1}, {X[1]: 1}, {(0, 0, 2, 0): 1}, {(0, 0, 0, 2): 1})),
)
CERT_DEGREES = ((2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2))
# Integer coefficients in [-1000, 1000]: at random_map's default [-10, 10] a
# map is not proper about 3 times in 10^4, e.g. when every component lacks
# its x_k^d term, and no certificate can exist for it.
CERT_BOUND = 1000
PLANTED_DEGREES = (2, 2, 2)


def planted_zero_map(mc, rng: np.random.Generator):
    """A random rational map whose components all vanish at a nonzero integer point."""
    F = mc.random_map(PLANTED_DEGREES, seed=int(rng.integers(2 ** 31)))
    n = len(PLANTED_DEGREES)
    zero = [0] * n
    while not any(zero):
        zero = [int(v) for v in rng.integers(-3, 4, size=n)]
    k = max(range(n), key=lambda i: abs(zero[i]))
    comps = []
    for d, f in zip(PLANTED_DEGREES, F.components):
        power = tuple(d if j == k else 0 for j in range(n))
        shift = mc.Polynomial(n, {power: Fraction(f.evaluate(zero)) / zero[k] ** d})
        comps.append(f - shift)
    return mc.HomogeneousMap(PLANTED_DEGREES, tuple(comps)), zero


class Exact:
    """Exact arithmetic only: census sweep, Macaulay certificates, exact classify."""

    def __init__(self, smoke: bool):
        self.side = 4 if smoke else 9          # census over {1..side}^4
        self.certs, self.planted, self.changes = (1, 2, 1) if smoke else (20, 40, 10)

    def make(self, mc, seed: int, r: int) -> dict:
        rng = round_rng(seed, r, 3)
        certs = [mc.random_map(degs, seed=int(rng.integers(2 ** 31)), bound=CERT_BOUND)
                 for degs in CERT_DEGREES for _ in range(self.certs)]
        planted = [planted_zero_map(mc, rng) for _ in range(self.planted)]
        forms = []
        for label, terms in NORMAL_FORMS:
            comps = [mc.Polynomial(4, t) for t in terms]
            for _ in range(self.changes):
                M = mc.linalg.random_unimodular_matrix(4, rng)
                L = mc.linalg.random_unimodular_matrix(4, rng)
                forms.append((label, mc.GeneralMap(tuple(mc.linear_conjugate(comps, M, L)))))
        return {"certs": certs, "planted": planted, "forms": forms}

    def run(self, mc, inputs: dict, out: Outcome) -> dict:
        tuples = itertools.product(range(1, self.side + 1), repeat=4)
        origin = (0, 0, 0, 0)
        return {
            "census": [(degs, out.call(mc.census, degs, expected=mc.IntegralityError))
                       for degs in tuples],
            "certs": [out.call(mc.macaulay_resultant_certificate, F)
                      for F in inputs["certs"]],
            "planted": [out.call(mc.properness_verdict, G) for G, _ in inputs["planted"]],
            "forms": [out.call(mc.classify, G, origin) for _, G in inputs["forms"]],
        }

    def check(self, mc, inputs: dict, outputs: dict, out: Outcome):
        canonical = {}
        for degs, rep in outputs["census"]:
            if rep is None:
                continue
            if isinstance(rep, mc.IntegralityError):
                ok = verify.half_integral_parity(degs) and verify.gate_fails(degs)
                out.tally["integrality_errors"] += 1
            else:
                counts = tuple(rep.counts[k] for k in sorted(rep.counts))
                key = tuple(sorted(degs))
                ok = (not verify.half_integral_parity(degs)
                      and tuple(rep.c) == verify.chern_closed_forms(degs)
                      and canonical.setdefault(key, counts) == counts)
                if degs == (1, 1, 1, 1):
                    ok = ok and not any(rep.c) and not any(counts)
            if ok:
                out.results += 1
            else:
                out.problems.append(f"census {degs}: {rep!r}")
        expected_errors = sum(
            verify.half_integral_parity(degs)
            for degs in itertools.product(range(1, self.side + 1), repeat=4))
        if out.tally["integrality_errors"] != expected_errors:
            out.problems.append(f"{out.tally['integrality_errors']} integrality errors, "
                                f"expected {expected_errors}")
        for F, v in zip(inputs["certs"], outputs["certs"]):
            if v is None:
                continue
            if v.verdict == "proper":
                out.results += 1
            else:
                out.problems.append(f"random map {F.degrees} not certified: {v.certificate}")
        for (G, zero), v in zip(inputs["planted"], outputs["planted"]):
            # the sphere search may miss the planted zero (inconclusive): no
            # result then, but only a proper verdict or a false witness is wrong
            if v is None or v.verdict == "inconclusive":
                continue
            problems = [] if v.verdict == "not_proper" else [f"verdict {v.verdict}"]
            if v.witness is not None:
                problems += verify.witness_problems(
                    verify.coefficient_arrays(G.components), v.witness)
            if problems:
                out.problems.append(f"planted zero {zero}: {'; '.join(problems)}")
            else:
                out.results += 1
        for (label, _), v in zip(inputs["forms"], outputs["forms"]):
            if v is None:
                continue
            if v.label == label:
                out.results += 1
            else:
                out.problems.append(f"normal form {label} classified {v.label}")

    @staticmethod
    def finish(tally: Counter) -> list[str]:
        return []


WORKLOADS = {"survey": Survey, "cusp": Cusp, "exact": Exact}

__all__ = ["WORKLOADS", "Outcome"]
