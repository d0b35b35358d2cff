"""
Certifying properness: one Macaulay matrix, both ways
=====================================================

A homogeneous square map is proper exactly when the origin is its only
zero.  The full Macaulay matrix in degree nu = sum(d_i - 1) + 1 has full
column rank exactly then.  For exact rational coefficients its exact rank
decides; when the rank drops, the common root is read off the null space
and returned as a unit-norm counterexample witness.
"""

import numpy as np

from morin_census import (
    HomogeneousMap,
    Polynomial,
    macaulay_matrix,
    properness_verdict,
    random_map,
    sphere_falsifier,
)

# A generic rational map: one row s * f_i for every monomial s of degree
# nu - d_i; full column rank certifies F^{-1}(0) = {0}.
F = random_map((2, 2, 2), seed=0)
rows, monomials, _ = macaulay_matrix(F)
print(f"Macaulay matrix: {len(rows)} x {len(monomials)} in degree {sum(monomials[0])}")
verdict = properness_verdict(F)
print("verdict    :", verdict.verdict)
print("certificate:", verdict.certificate)

# A map with a whole line of zeros: (x1^2, x1 x2, x3^2, x4^2) kills the
# x2-axis.  The rank drops, and the null space gives the witness.
shared_zero = HomogeneousMap((2, 2, 2, 2), (
    Polynomial(4, {(2, 0, 0, 0): 1}),
    Polynomial(4, {(1, 1, 0, 0): 1}),
    Polynomial(4, {(0, 0, 2, 0): 1}),
    Polynomial(4, {(0, 0, 0, 2): 1}),
))
witness = sphere_falsifier(shared_zero)
print("\nwitness on the unit sphere:", np.round(np.asarray(witness), 6))
bad = properness_verdict(shared_zero)
print("verdict    :", bad.verdict)
print("certificate:", bad.certificate)

# JSON form carries the witness as [re, im] pairs for each coordinate.
print("\nserialized:", bad.to_dict())
