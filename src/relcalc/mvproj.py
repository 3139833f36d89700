"""Multivalued projections, their 2x2 block representations, and the
sub/super/idempotent taxonomy.

A multivalued projection is a relation E with E^2 = E and ran E contained in
dom E; it is determined by its range M and kernel N through
``P(M, N) = I_M cw+ (N x {0})``.  Block representations split a square
relation along a subspace S into four corner relations whose generated
relation reproduces the original.

Each object here is read off the graph blocks F (inputs) over H (outputs)
of a relation: a corner P_out T|_in is one span of the pairs (F c, P_out H c),
the super-idempotent generated by the block form is one span, and the fixed
points ker(I - E) are F times the null space of F - H.  A relation generated
or rebuilt from several blocks is one span of all their graph columns, and a
containment such as ran x <= M or x(S2) <= S1 + mul x is a residual of the
blocks, tested without normalizing them first.  The relation calculus routes
they replace (projector graphs, ``restrict``, ``image``, products, sums and
``identity_minus``) are test-only cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionMismatchError, NotRepresentableError
from .subspaces import (
    Subspace,
    Tolerance,
    _block_image,
    _negligible,
    _null_of_rows,
    _svd,
    matrix_image,
    matrix_preimage,
    null_space,
    orthonormalize,
    subspace_complement,
    subspace_contains,
    subspace_equals,
    subspace_intersect,
    subspace_sum,
    zero_space,
)
from .relations import (
    LinearRelation,
    _op_sum_pairs,
    compose,
    from_graph_basis,
    identity_on,
    parts,
    product_of_subspaces,
    relation_contains,
    relation_equals,
    zero_on,
)


@dataclass(frozen=True)
class BlockRep:
    """2x2 block splitting of a square relation along S.

    The four corners are relations stored in ambient coordinates: ``a`` acts
    inside S, ``d`` inside the orthogonal complement, ``b`` maps the
    complement into S and ``c`` the other way around.
    """

    splitter: Subspace
    co_splitter: Subspace
    a: LinearRelation
    b: LinearRelation
    c: LinearRelation
    d: LinearRelation

    def generate(self, tol: Tolerance | None = None) -> LinearRelation:
        """The relation generated by the four blocks.

        Columns pair a and c (shared input in S), rows pair the two columns by
        summing inputs and outputs componentwise: the componentwise sum of
        the operator sums a + c and b + d, one span of both sums' pairs.
        """
        pairs = np.hstack([_op_sum_pairs(self.a, self.c, tol), _op_sum_pairs(self.b, self.d, tol)])
        dim = self.splitter.ambient_dim
        return from_graph_basis(dim, dim, pairs, tol)


@dataclass(frozen=True)
class Classification:
    is_sub: bool
    is_super: bool
    is_idempotent: bool
    is_mvproj: bool
    canonical: tuple[Subspace, Subspace, Subspace] | None = None


@dataclass(frozen=True)
class SuperIdempotent:
    relation: LinearRelation
    canonical: tuple[Subspace, Subspace, Subspace]
    is_idempotent: bool


def _fixed_points(E: LinearRelation, tol: Tolerance | None) -> Subspace:
    """ker(I - E) = {x : (x, x) in E}, F times the null space of F - H for
    the graph blocks F over H of E: one SVD.  For a unit c there, (F c, F c)
    is a unit graph vector, so sqrt(2) F c is already orthonormal."""
    return _block_image(np.sqrt(2.0) * E.in_block, null_space(E.in_block - E.out_block, tol).basis)


def make_pmn(m: Subspace, n: Subspace) -> LinearRelation:
    """The multivalued projection with range M and kernel N.

    dom = M + N and mul = M cap N; squares to itself and maps into its domain.
    Its graph is the thin U of the pairs (u, u) / sqrt(2) and (v, 0), sigma >= 0.541.
    """
    if m.ambient_dim != n.ambient_dim:
        raise DimensionMismatchError("range and kernel must share an ambient space")
    if not (m.dim and n.dim):
        return zero_on(n) if n.dim else identity_on(m)
    pairs = np.hstack([identity_on(m).graph.basis, zero_on(n).graph.basis])
    return LinearRelation(m.ambient_dim, m.ambient_dim, Subspace._trusted(_svd(pairs)[0]))


def classify(E: LinearRelation, tol: Tolerance | None = None) -> Classification:
    """Sub/super/idempotent flags by comparing E^2 against E as graphs.

    Super-idempotents also get their canonical triple (range-like part,
    kernel, multivalued part), checked by rebuilding the relation from it:
    one span of the generators identity-on-M, N x {0} and {0} x S (a lone
    nonempty generator is its own orthonormal graph).
    """
    if not E.is_square:
        raise ValueError("classification needs a square relation")
    E2 = compose(E, E, tol)
    is_sub = relation_contains(E, E2, tol)
    is_super = relation_contains(E2, E, tol)
    is_idem = is_sub and is_super
    p = parts(E, tol)
    is_mvproj = is_idem and subspace_contains(p.dom, p.ran, tol)
    canonical = None
    if is_super:
        m = _fixed_points(E, tol)
        n, s = p.ker, p.mul
        generators = (identity_on(m), zero_on(n), product_of_subspaces(zero_space(E.dim_in), s))
        nonempty = [g for g in generators if g.graph.dim]
        if len(nonempty) == 1:
            rebuilt = nonempty[0]
        else:
            pairs = np.hstack([g.graph.basis for g in generators])
            rebuilt = from_graph_basis(E.dim_in, E.dim_in, pairs, tol)
        if not relation_equals(rebuilt, E, tol):
            raise ConsistencyError(
                "canonical super-idempotent data failed to reproduce the relation"
            )
        canonical = (m, n, s)
    return Classification(is_sub, is_super, is_idem, is_mvproj, canonical)


def decompose(P: LinearRelation, tol: Tolerance | None = None) -> tuple[LinearRelation, Subspace]:
    """Split a multivalued projection into an operator part plus {0} x (M cap N).

    The operator part projects onto M minus the overlap along N; its graph is
    orthogonal to the purely multivalued remainder, and their componentwise
    sum restores the input.  As the overlap lies in M, M minus the overlap
    is M times the null space of overlap* M (sigma = the kept cosines): one SVD.
    """
    if not P.is_square:
        raise ValueError("decompose needs a square relation")
    E2 = compose(P, P, tol)
    p = parts(P, tol)
    if not (relation_equals(E2, P, tol) and subspace_contains(p.dom, p.ran, tol)):
        raise ValueError("input is not a multivalued projection")
    m, n = p.ran, p.ker
    overlap = subspace_intersect(m, n, tol)
    reduced = Subspace._trusted(m.basis @ _null_of_rows(overlap.basis.conj().T @ m.basis).basis)
    return make_pmn(reduced, n), overlap


def representable(T: LinearRelation, s: Subspace, tol: Tolerance | None = None) -> bool:
    """Whether T splits into blocks along S: the orthogonal projection onto S
    must keep both dom T and mul T inside themselves."""
    if not T.is_square:
        raise ValueError("representability needs a square relation")
    p = parts(T, tol)
    proj = s.projector()
    return all(subspace_contains(part, matrix_image(proj, part, tol), tol) for part in (p.dom, p.mul))


def canonical_blocks(T: LinearRelation, s: Subspace, tol: Tolerance | None = None) -> BlockRep:
    """The four corner relations P_S T|_S, P_S T|_{S-perp}, and so on.

    With T's graph basis split into F over H and c an orthonormal basis of
    the coordinates with F c in the input subspace (one preimage SVD per
    input side), the corner P_out T|_in is the span of the pairs
    (F c, P_out H c): one SVD per corner.
    """
    if not representable(T, s, tol):
        raise NotRepresentableError("relation admits no block splitting along this subspace")
    s_perp = subspace_complement(s)
    on_s, on_p = (matrix_preimage(T.in_block, side, tol).basis for side in (s, s_perp))

    def corner(out: Subspace, coords: np.ndarray) -> LinearRelation:
        outputs = out.basis @ (out.basis.conj().T @ (T.out_block @ coords))
        return from_graph_basis(T.dim_in, T.dim_in, np.vstack([T.in_block @ coords, outputs]), tol)

    return BlockRep(s, s_perp, corner(s, on_s), corner(s, on_p), corner(s_perp, on_s), corner(s_perp, on_p))


def coefficient_x(m: Subspace, n: Subspace) -> LinearRelation:
    """The off-diagonal coefficient of the projection with range M, kernel N.

    The graph {(v - P_M v, -P_M v) : v in N}, equal to the composed form
    -P_M ((I - P_M)|_N)^(-1).  The map v -> (v - P_M v, -P_M v) is an
    isometry, so it carries the orthonormal basis of N to an orthonormal
    graph basis: no rank decision.  dom x is the N-shadow on the complement
    of M; mul x = M cap N.
    """
    if m.ambient_dim != n.ambient_dim:
        raise DimensionMismatchError("range and kernel must share an ambient space")
    dim = m.ambient_dim
    onto_m = m.projector() @ n.basis
    return LinearRelation(dim, dim, Subspace._trusted(np.vstack([n.basis - onto_m, -onto_m])))


def _projection_blocks(m: Subspace, n: Subspace) -> BlockRep:
    """The paper's block form (I_M, x; 0, 0) along M of the projection with
    range M and kernel N, for x = ``coefficient_x(M, N)``: no rank decision."""
    m_perp = subspace_complement(m)
    return BlockRep(m, m_perp, identity_on(m), coefficient_x(m, n), zero_on(m), zero_on(m_perp))


def assemble_representation(m: Subspace, n: Subspace, tol: Tolerance | None = None) -> BlockRep:
    """Block form (identity-on-M, x; 0, 0) of the projection with range M, kernel N.

    The relation the four blocks generate must be P(M, N) itself.
    """
    rep = _projection_blocks(m, n)
    if not relation_equals(rep.generate(tol), make_pmn(m, n), tol):
        raise ConsistencyError("block form failed to regenerate P(M, N)")
    return rep


def _generated_super(m: Subspace, s1: Subspace, s2: Subspace, x: LinearRelation,
                     tol: Tolerance | None) -> LinearRelation:
    """The relation generated by (identity-on-M, x cw+ {0}xS1; {0}xS2, 0)
    along M.  As dom x lies in the complement of M, it is
    I_M + x + {0} x (S1 + S2): one span of the graph blocks
    [[M, F, 0, 0], [M, H, S1, S2]] for x's graph basis F over H."""
    lower = np.hstack([s1.basis, s2.basis])
    pairs = np.hstack([identity_on(m).graph.basis, x.graph.basis, np.vstack([np.zeros_like(lower), lower])])
    return from_graph_basis(m.ambient_dim, m.ambient_dim, pairs, tol)


def build_super(
    m: Subspace,
    s1: Subspace,
    s2: Subspace,
    x: LinearRelation,
    tol: Tolerance | None = None,
) -> SuperIdempotent:
    """Super-idempotent generated by (identity-on-M, x cw+ {0}xS1; {0}xS2-padded 0, 0).

    Requires S1 inside M, S2 inside the complement of M, and x mapping the
    complement into M.  With x's graph basis split into F over H, those are
    residuals of the blocks: M* S2, (I - P_M) H (ran x) and M* F (dom x)
    must be negligible, so only mul x, from one SVD of F, is factored.  The
    relation the blocks generate is one span of its graph blocks
    (``_generated_super``).  Its canonical triple has a closed form, each
    sum one span, checked against the fixed points ker(I - E) and the kernel
    and multivalued part of the relation.  Idempotency is decided by the
    containment x(S2) <= S1 + mul x, the residual off S1 + mul x of H c for
    c the coordinates with F c in S2, and cross-checked against literal
    graph squaring; disagreement raises instead of picking a side.
    """
    dim = m.ambient_dim
    if (s2.ambient_dim, x.dim_in, x.dim_out) != (dim, dim, dim):
        raise DimensionMismatchError("s2 and x must live on the ambient space of the base subspace")
    F, H = x.in_block, x.out_block
    m_adj = m.basis.conj().T
    if not subspace_contains(m, s1, tol):
        raise ValueError("s1 must be contained in the base subspace")
    if not _negligible(m_adj @ s2.basis, dim, tol):
        raise ValueError("s2 must be contained in the complement of the base subspace")
    if not _negligible(H - m.basis @ (m_adj @ H), dim, tol):
        raise ValueError("ran x must be contained in the base subspace")
    if not _negligible(m_adj @ F, dim, tol):
        raise ValueError("dom x must be contained in the complement of the base subspace")

    E = _generated_super(m, s1, s2, x, tol)

    # closed-form canonical triple.  The first component only absorbs the part
    # of S2 on which x takes a value inside S1 (mod mul x); on the rest the
    # relation is not locally idempotent and ker(I - E) stays at M.
    anchored = subspace_intersect(x.graph, product_of_subspaces(s2, s1).graph, tol)
    s1_mul = subspace_sum(s1, parts(x, tol).mul, tol)
    canonical = (
        m if anchored.dim == 0 else orthonormalize(np.hstack([m.basis, anchored.basis[:dim]]), tol),
        s1 if x.graph.dim == 0 else orthonormalize(np.hstack([F - H, s1.basis]), tol),
        subspace_sum(s1_mul, s2, tol),
    )
    pe = parts(E, tol)
    direct = (_fixed_points(E, tol), pe.ker, pe.mul)
    for closed_form, computed in zip(canonical, direct):
        if not subspace_equals(closed_form, computed, tol):
            raise ConsistencyError("closed-form canonical triple disagrees with ker/mul data")

    x_s2 = H @ matrix_preimage(F, s2, tol).basis
    criterion = _negligible(x_s2 - s1_mul.basis @ (s1_mul.basis.conj().T @ x_s2), dim, tol)
    squared = relation_equals(compose(E, E, tol), E, tol)
    if criterion != squared:
        raise ConsistencyError(
            f"idempotency criterion ({criterion}) disagrees with graph squaring ({squared})"
        )
    return SuperIdempotent(relation=E, canonical=canonical, is_idempotent=squared)
