"""Subspace arithmetic: spans, lattice operations, tolerance-driven rank.

Everything in this library is built on subspaces of C^n stored as orthonormal
bases.  This script walks through the basic vocabulary.
"""

import numpy as np

from relcalc import (
    Tolerance,
    full_space,
    orthonormalize,
    subspace_complement,
    subspace_contains,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
)

# A span is formed from any list of vectors; dependent directions collapse.
line = orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
print(f"span of (1,0) and (2,0) has dimension {line.dim}")

# Two independent vectors fill the plane and the projector is the identity.
plane = orthonormalize([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
print("projector onto their span == identity:", np.allclose(plane.projector(), np.eye(2)))

# Lattice operations: sum, intersection (via complements), complement.
diag = orthonormalize([np.array([1.0, 1.0])])
anti = orthonormalize([np.array([1.0, -1.0])])
print("diag + anti fills C^2:", subspace_equals(subspace_sum(diag, anti), full_space(2)))
print("diag cap anti is trivial:", subspace_intersect(diag, anti).dim == 0)
print("complement of the first axis is the second:",
      subspace_equals(subspace_complement(line), orthonormalize([np.array([0.0, 1.0])])))

# Orthogonal projection of a vector.
print("P_diag (1, 0) =", np.round(diag.project(np.array([1.0, 0.0])), 6))

# The modular law holds with exact integer dimensions.
rng = np.random.default_rng(7)
a = orthonormalize(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
b = orthonormalize(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
total = subspace_sum(a, b)
meet = subspace_intersect(a, b)
print(f"dim(A+B) + dim(A cap B) = {total.dim} + {meet.dim} = {a.dim + b.dim} = dim A + dim B")

# Rank decisions follow an explicit tolerance: a tiny vector is zero by
# default, but survives under a stricter absolute cutoff.
tiny = np.array([1e-13, 0.0])
print("default tolerance treats 1e-13 as zero:", orthonormalize([tiny]).dim == 0)
print("abs_eps=1e-15 keeps it:", orthonormalize([tiny], Tolerance(abs_eps=1e-15)).dim == 1)

# Containment tests are the workhorse of every identity later on.
print("line inside plane:", subspace_contains(full_space(2), line))
