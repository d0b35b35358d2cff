"""Checks of the program's outputs, computed apart from the program.

Everything here works from a map's coefficient arrays with numpy alone: the
differential, the second derivatives, singular values, the cokernel pairing
that separates folds from cusps, and the census identities in the elementary
symmetric functions of the degrees.  None of it calls the program's jet tower,
determinants, root finder or census formulas.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# A singular value at most SV_TOL times the largest counts as zero.  The
# sampler accepts line points with |J| up to 1e-8 * 2^deg J; on (2,3,5,7) such
# points have a smallest singular value up to ~5e-6 of the largest, while the
# second smallest stays above ~5e-2 of it.
SV_TOL = 1e-4
DET_TOL = 1e-8         # |det dF(p)| below DET_TOL * (1 + |p|)^deg J is critical
PAIRING_TOL = 1e-6     # relative |w^T D^2F(p)(v, v)| below this is a cusp
RAY_TOL = 1e-6         # |<p, q>| above 1 - RAY_TOL is the same ray
WITNESS_TOL = 1e-10    # ||F(w)|| below this times the coefficient scale


def coefficient_arrays(components) -> list[tuple[np.ndarray, np.ndarray]]:
    """(exponents, coefficients) per component, read off the term dictionaries."""
    out = []
    for f in components:
        items = sorted(f.terms.items())
        exps = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), f.n_vars)
        coeffs = np.array([complex(c) for _, c in items], dtype=complex)
        out.append((exps, coeffs))
    return out


def _monomials(exps: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^e at p for each row e; zero where an exponent is negative."""
    ok = np.all(exps >= 0, axis=1)
    vals = np.prod(np.power(p[None, :], np.where(exps >= 0, exps, 0)), axis=1)
    return np.where(ok, vals, 0.0)


def values(arrays, p: np.ndarray) -> np.ndarray:
    return np.array([_monomials(e, p) @ c for e, c in arrays])


def differential(arrays, p: np.ndarray) -> np.ndarray:
    """dF(p): entry (i, j) is the x_j-derivative of f_i at p."""
    n = p.size
    unit = np.eye(n, dtype=np.int64)
    return np.array([[(c * e[:, j]) @ _monomials(e - unit[j], p) for j in range(n)]
                     for e, c in arrays])


def second_derivatives(arrays, p: np.ndarray) -> np.ndarray:
    """D^2F(p) as an (n, n, n) array: entry (i, j, k) is d^2 f_i / dx_j dx_k."""
    n = p.size
    unit = np.eye(n, dtype=np.int64)
    out = np.zeros((len(arrays), n, n), dtype=complex)
    for i, (e, c) in enumerate(arrays):
        for j in range(n):
            for k in range(n):
                factor = e[:, j] * (e[:, k] - (1 if j == k else 0))
                out[i, j, k] = (c * factor) @ _monomials(e - unit[j] - unit[k], p)
    return out


def critical_point_problems(arrays, p: np.ndarray, deg_j: int) -> list[str]:
    """Unit norm, a vanishing Jacobian determinant and corank exactly one.

    |det dF(p)| must stay below the scale-aware bound DET_TOL * (1 + |p|)^deg J,
    the bound the sampler documents for its line points.
    """
    problems = []
    norm = float(np.linalg.norm(p))
    if abs(norm - 1.0) > 1e-9:
        problems.append(f"norm {norm:.3g} != 1")
    a = differential(arrays, p)
    det = abs(np.linalg.det(a))
    if det > DET_TOL * (1.0 + norm) ** deg_j:
        problems.append(f"|det dF| {det:.3g} above threshold")
    sv = np.linalg.svd(a, compute_uv=False)
    vanishing = int(np.sum(sv <= SV_TOL * sv[0]))
    if vanishing != 1:
        problems.append(f"{vanishing} vanishing singular values")
    return problems


def cusp_pairing(arrays, p: np.ndarray) -> float:
    """|w^T D^2F(p)(v, v)| relative to the size of D^2F(p).

    v spans the kernel of dF(p) and w the cokernel.  At a fold the pairing is
    nonzero; at a cusp (and deeper Morin points) it vanishes.
    """
    u, _, vh = np.linalg.svd(differential(arrays, p))
    v = vh[-1].conj()
    w = u[:, -1].conj()
    h = second_derivatives(arrays, p)
    pairing = np.einsum("i,ijk,j,k->", w, h, v, v)
    scale = float(np.linalg.norm(h))
    return abs(pairing) / scale if scale else math.inf


def ray_multiplicity(degrees, arrays, p: np.ndarray) -> int:
    """gcd of the degrees whose components do not vanish at p."""
    vals = values(arrays, p)
    norm = float(np.linalg.norm(p))
    surviving = [d for d, v in zip(degrees, vals) if abs(v) > 1e-9 * norm ** d]
    return math.gcd(*surviving) if surviving else 0


def same_ray(p: np.ndarray, q: np.ndarray) -> bool:
    return abs(np.vdot(p, q)) > (1.0 - RAY_TOL) * np.linalg.norm(p) * np.linalg.norm(q)


# ------------------------------------------------------------------ census
def elementary_symmetric(degrees) -> tuple[int, int, int, int]:
    return tuple(sum(math.prod(c) for c in itertools.combinations(degrees, k))
                 for k in range(1, 5))


def chern_closed_forms(degrees) -> tuple[int, int, int, int]:
    """c1..c4 of (1 + d1 a)...(1 + d4 a) / (1 + a)^4 from e1..e4."""
    e1, e2, e3, e4 = elementary_symmetric(degrees)
    return (e1 - 4,
            e2 - 4 * e1 + 10,
            e3 - 4 * e2 + 10 * e1 - 20,
            e4 - 4 * e3 + 10 * e2 - 20 * e1 + 35)


def half_integral_parity(degrees) -> bool:
    """Three even degrees and one odd: where the A2_2 count is half-integral."""
    return sum(d % 2 for d in degrees) == 1


def gate_fails(degrees) -> bool:
    """Some triple gcd or all-four gcd exceeds 1, or some pairwise gcd exceeds 2."""
    if math.gcd(*degrees) > 1:
        return True
    if any(math.gcd(*t) > 1 for t in itertools.combinations(degrees, 3)):
        return True
    return any(math.gcd(*t) > 2 for t in itertools.combinations(degrees, 2))


def witness_problems(arrays, witness) -> list[str]:
    """A claimed nonzero common root: unit norm and F(w) ~ 0."""
    w = np.asarray(witness, dtype=complex)
    problems = []
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        problems.append("witness is not of unit norm")
    scale = max(float(np.max(np.abs(c))) for _, c in arrays)
    residual = float(np.linalg.norm(values(arrays, w)))
    if residual > WITNESS_TOL * scale:
        problems.append(f"||F(witness)|| = {residual:.3g}")
    return problems
