"""Weighted least-squares solutions of inclusions b in A x.

For a relation A, a psd weight W and a vector b, a solution is any x0 in
dom A some of whose values come W-seminorm-closest to b among all of ran A.
Existence, the minimum, the attainment set and the full solution coset all
come out of the weighted projection P onto ran A, taken from the paper's
block form: along S = ran A, P is (I, a^-1 b; 0, 0) with a = P_S W|_S, so
one eigendecomposition of the Hermitian corner a = U*WU decides P b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, NoSolutionError
from .subspaces import Coset, Tolerance, _as_vector, null_space, subspace_equals
from .relations import (
    LinearRelation,
    adjoint,
    apply,
    apply_to_coset,
    compose,
    graph_of_matrix,
    image,
    invert,
    parts,
)
from .weighted import Weight, _project_by_blocks, psd_sqrt


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
        if self.W.ambient_dim != self.A.dim_in:
            raise ValueError(
                f"weight size {self.W.ambient_dim} != relation dimension {self.A.dim_in}"
            )
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


def _seminorm(w_half: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.norm(w_half @ v))


def solve(p: LssProblem, tol: Tolerance | None = None) -> LssSolution:
    """Solve the weighted inclusion problem; non-existence is data, not an error.

    The minimizing outputs are the coset P b of the weighted projection P
    onto ran A, from its block form on an orthonormal basis U of ran A (see
    ``weighted._project_by_blocks``): they exist exactly when U*W b lies in
    the range of a = U*WU, up to the allowance a psd W leaves for the
    eigenvalues the cut dropped; P b is empty when W is not psd beyond that.
    When solvable, the minimum is the W-seminorm of any residual
    representative (checked constant across representatives), and the
    solution set is the inverse image of that coset, which must coincide
    with witness + A^{-1}(ker W).
    """
    w_half = psd_sqrt(p.W.matrix, tol)
    outputs = _project_by_blocks(p.W.matrix, w_half, parts(p.A, tol).ran.basis, p.b, tol)
    n = p.A.dim_in
    if outputs.is_empty:
        return LssSolution(
            exists=False,
            min_value=float("nan"),
            witness=None,
            solution_set=Coset.empty(n),
            minimizing_outputs=Coset.empty(n),
        )
    min_value = _seminorm(w_half, outputs.point - p.b)
    if outputs.direction.dim:
        second = outputs.point + outputs.direction.basis[:, 0]
        other = _seminorm(w_half, second - p.b)
        if abs(other - min_value) > 1e-8 * (1.0 + min_value):
            raise ConsistencyError("minimum value varies across coset representatives")
    inverse = invert(p.A)  # shares the parts of A computed above
    solution_set = apply_to_coset(inverse, outputs, tol)
    if solution_set.is_empty:
        raise ConsistencyError("minimizing outputs fell outside ran A")
    structural = image(inverse, null_space(p.W.matrix, tol), tol)
    if not subspace_equals(solution_set.direction, structural, tol):
        raise ConsistencyError(
            "solution set directions differ from the inverse image of ker W"
        )
    witness = solution_set.min_norm_point()
    return LssSolution(
        exists=True,
        min_value=min_value,
        witness=witness,
        solution_set=solution_set,
        minimizing_outputs=outputs,
    )


def check_normal(p: LssProblem, x0: np.ndarray, tol: Tolerance | None = None) -> bool:
    """Normal-equation test: zero must be a value of A* W (A x0 - b).

    Also evaluates the set form A* W (A x - b) = A* W (mul A); the two
    verdicts are equivalent and checked against each other.  True exactly for
    the weighted least-squares solutions.
    """
    x0 = _as_vector(x0, p.A.dim_in, "candidate x0")
    pa = parts(p.A, tol)
    if not pa.dom.contains_vector(x0, tol):
        raise ValueError("candidate lies outside dom A")
    aw = compose(adjoint(p.A, tol), graph_of_matrix(p.W.matrix, tol), tol)
    residual_set = apply(p.A, x0, tol).translate(-p.b)
    pushed = apply_to_coset(aw, residual_set, tol)
    zero = np.zeros(p.A.dim_in, dtype=complex)
    by_membership = pushed.contains(zero, tol)
    rhs = image(aw, pa.mul, tol)
    by_set_form = (
        not pushed.is_empty
        and subspace_equals(pushed.direction, rhs, tol)
        and rhs.contains_vector(pushed.point, tol)
    )
    if by_membership != by_set_form:
        raise ConsistencyError(
            f"normal-equation tests disagree: membership {by_membership}, set form {by_set_form}"
        )
    return by_membership


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
