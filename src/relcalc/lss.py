"""Weighted least-squares solutions of inclusions b in A x.

For a relation A, a psd weight W and a vector b, a solution is any x0 in
dom A some of whose values come W-seminorm-closest to b among all of ran A.
Existence, the minimum, the attainment set and the full solution coset all
come out of the weighted projection P onto ran A, taken from the paper's
block form: along S = ran A, P is (I, a^-1 b; 0, 0) with a = P_S W|_S, so
one eigendecomposition of the Hermitian corner a = U*WU decides P b.  The
normal equation 0 in A* W (A x0 - b) reads on the same basis U of ran A:
(z, 0) lies in A* exactly when U* z = 0, so ``check_normal`` works on U*W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NoSolutionError
from .subspaces import Coset, Tolerance, _as_vector, _cut_svd, _tol, subspace_equals, subspace_intersect
from .relations import LinearRelation, apply, apply_to_coset, invert, parts, range_space
from .weighted import Weight, _project_by_blocks, _psd_root, psd_sqrt


@dataclass(frozen=True)
class LssProblem:
    """Inclusion data: square relation A, psd weight W, target b."""

    A: LinearRelation
    W: Weight
    b: np.ndarray

    def __post_init__(self):
        if not self.A.is_square:
            raise ValueError("relation must act on a single space")
        if self.W.kind != "psd":
            raise ValueError("least-squares weight must be psd")
        _check_weight_size(self.A, self.W)
        b = _as_vector(self.b, self.A.dim_in, "target vector b")
        if not np.all(np.isfinite(b)):
            raise ValueError("target vector b must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LssSolution:
    exists: bool
    min_value: float
    witness: np.ndarray | None
    solution_set: Coset
    minimizing_outputs: Coset


def _check_weight_size(A: LinearRelation, W: Weight):
    if W.ambient_dim != A.dim_in:
        raise ValueError(f"weight size {W.ambient_dim} != relation dimension {A.dim_in}")


def solve(p: LssProblem, tol: Tolerance | None = None) -> LssSolution:
    """Solve the weighted inclusion problem; non-existence is data, not an error.

    The minimizing outputs are the coset P b of the weighted projection P
    onto ran A, from its block form on an orthonormal basis U of ran A (see
    ``weighted._project_by_blocks``): they exist exactly when U*W b lies in
    the range of a = U*WU, up to the allowance a psd W leaves for the
    eigenvalues the cut dropped; P b is empty when W is not psd beyond that.
    When solvable, the minimum is the W-seminorm of any residual
    representative (checked constant across representatives), the output
    directions must be ran A cap ker W, with ker W from the eigendecomposition
    that gives W^1/2, and the solution set is the inverse image of the
    output coset.  The check runs before A^-1, which would scale any gap
    between the two by up to 1 / sigma_min(A).  Both steps read only A's
    output block H: ran A and the point of A^-1 come from H's kept singular
    triplets, the solution directions from a preimage under H; the input
    block is never factored.
    """
    w_half, ker_w = _psd_root(p.W.matrix, tol)
    ran = range_space(p.A, tol)
    outputs = _project_by_blocks(p.W.matrix, w_half, ran.basis, p.b, tol)
    n = p.A.dim_in
    if outputs.is_empty:
        return LssSolution(
            exists=False,
            min_value=float("nan"),
            witness=None,
            solution_set=Coset.empty(n),
            minimizing_outputs=Coset.empty(n),
        )
    min_value = outputs._constant_value(
        lambda y: float(np.linalg.norm(w_half @ (y - p.b))), "minimum value varies across coset representatives"
    )
    structural = subspace_intersect(ran, ker_w, tol)
    if not subspace_equals(outputs.direction, structural, tol):
        raise ConsistencyError(
            f"minimizing output directions (dim {outputs.direction.dim}) differ from "
            f"ran A cap ker W (dim {structural.dim})"
        )
    solution_set = apply_to_coset(invert(p.A), outputs, tol)  # reads A's output half
    if solution_set.is_empty:
        raise ConsistencyError("minimizing outputs fell outside ran A")
    return LssSolution(
        exists=True,
        min_value=min_value,
        witness=solution_set.min_norm_point(),
        solution_set=solution_set,
        minimizing_outputs=outputs,
    )


def check_normal(p: LssProblem, x0: np.ndarray, tol: Tolerance | None = None) -> bool:
    """Normal-equation test: zero must be a value of A* W (A x0 - b).

    (z, 0) lies in A* exactly when U* z = 0, for U the orthonormal basis of
    ran A that ``parts`` cut.  With A x0 = y0 + mul A and M the basis of
    mul A, zero is a value when some y0 + M c - b has U*W (y0 + M c - b) = 0:
    when g = U*W (y0 - b) lies in the range of K = U*W M.  One SVD of the
    small matrix K, cut at the rank cutoff (none when mul A = 0), and a
    residual test at the scale of g decide it.  True exactly for the weighted
    least-squares solutions.
    """
    tol = _tol(tol)
    value = apply(p.A, _as_vector(x0, p.A.dim_in, "candidate x0"), tol)
    if value.is_empty:
        raise ValueError("candidate lies outside dom A")
    uw = parts(p.A, tol).ran.basis.conj().T @ p.W.matrix
    g = uw @ (value.point - p.b)
    threshold = tol.residual(max(1.0, float(np.linalg.norm(g))), p.A.dim_in)
    left, _, _, rank = _cut_svd(uw @ value.direction.basis, tol, full_matrices=False)
    g = g - left[:, :rank] @ (left[:, :rank].conj().T @ g)
    return float(np.linalg.norm(g)) <= threshold


def w1w2_solve(
    A: LinearRelation,
    W1: Weight,
    W2: Weight,
    b: np.ndarray,
    tol: Tolerance | None = None,
) -> Coset:
    """Among the W1-least-squares solutions, those of minimal W2 seminorm.

    With x0 + D the W1 solution set, D = A^{-1}(ker W1), the answer is
    (I - Q) x0 + (D cap ker W2) for the weighted projection Q (weight W2)
    onto D, taken from its block form on an orthonormal basis of D.
    """
    if W1.kind != "psd" or W2.kind != "psd":
        raise ValueError("both weights must be psd")
    _check_weight_size(A, W2)
    b = _as_vector(b, A.dim_in, "target vector b")
    first = solve(LssProblem(A, W1, b), tol)
    if not first.exists:
        raise NoSolutionError("no W1 least-squares solution exists for this target")
    # solve has checked these directions against A^{-1}(ker W1)
    x0, directions = first.solution_set.point, first.solution_set.direction
    projected = _project_by_blocks(W2.matrix, psd_sqrt(W2.matrix, tol), directions.basis, x0, tol)
    if projected.is_empty:
        raise ConsistencyError("minimal-seminorm reduction produced an empty set")
    return Coset.of(x0 - projected.point, projected.direction)
