"""Linear relations as graph subspaces of C^n x C^m, with the full calculus.

A relation from C^n to C^m is any subspace of the product, stored here by an
orthonormal basis of the graph with inputs stacked on top of outputs.  A
relation is (the graph of) an operator exactly when its multivalued part
``mul T = {y : (0, y) in T}`` is trivial.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .subspaces import (
    Coset,
    Cut,
    Subspace,
    Tolerance,
    _as_vector,
    _block_image,
    _cut_svd,
    _svd,
    _tol,
    matrix_preimage,
    orthonormalize,
    subspace_contains,
    subspace_complement,
    subspace_equals,
    subspace_sum,
)


class LinearRelation:
    """A subspace of C^{dim_in} x C^{dim_out}; ``parts`` reads its dom/ran/ker/mul."""

    def __init__(self, dim_in: int, dim_out: int, graph: Subspace):
        if graph.ambient_dim != dim_in + dim_out:
            raise DimensionMismatchError(
                f"graph ambient {graph.ambient_dim} != dim_in + dim_out = {dim_in + dim_out}"
            )
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.graph = graph
        # one cache per graph block (input F, output H): the key None holds
        # the block's one SVD, uncut, and each tolerance the _Half cut from it
        self._halves: tuple[dict, dict] = ({}, {})

    @property
    def in_block(self) -> np.ndarray:
        return self.graph.basis[: self.dim_in]

    @property
    def out_block(self) -> np.ndarray:
        return self.graph.basis[self.dim_in :]

    @property
    def is_square(self) -> bool:
        return self.dim_in == self.dim_out

    def __repr__(self):
        return (
            f"LinearRelation({self.dim_in}->{self.dim_out}, graph dim {self.graph.dim})"
        )


class _Half(NamedTuple):
    """What one graph block decides at one tolerance: its span (dom for the
    input block F, ran for the output block H), the other block applied to
    its null space (mul = H null(F), ker = F null(H)) and the block's stored
    SVD cut at that tolerance, in ``_svd``'s shapes with the dropped
    singular values, block = cut.u @ diag(cut.s) @ cut.vh."""

    span: Subspace
    null_image: Subspace
    cut: Cut


_IN, _OUT = 0, 1


def _half(T: LinearRelation, tol: Tolerance | None, side: int) -> _Half:
    """The cached half of the parts that the block on ``side`` (``_IN`` or
    ``_OUT``) decides at the tolerance, cut from the block's one stored SVD
    (made on the first read at any tolerance, unless stored at construction):
    ``Tolerance.rank`` of its values, or the rank stored with them for a
    block invertible by construction.  The dropped right singular vectors
    span the block's null space in graph coordinates."""
    tol = _tol(tol)
    cache = T._halves[side]
    half = cache.get(tol)
    if half is None:
        block, other = (T.in_block, T.out_block) if side == _IN else (T.out_block, T.in_block)
        svd = cache.get(None)
        if svd is None:
            svd = cache[None] = Cut(*_svd(block), None)
        r = tol.rank(svd.s, block.shape) if svd.rank is None else svd.rank
        span = Subspace._trusted(svd.u[:, :r])
        half = cache[tol] = _Half(span, _block_image(other, svd.vh[r:].conj().T), svd._replace(rank=r))
    return half


class RelationParts:
    """What ``parts`` returns: dom, ran, ker and mul at one tolerance, each
    read from the cached half of the graph block that decides it."""

    __slots__ = ("relation", "tol")

    def __init__(self, relation: LinearRelation, tol: Tolerance):
        self.relation = relation
        self.tol = tol

    @property
    def dom(self) -> Subspace:
        return _half(self.relation, self.tol, _IN).span

    @property
    def ran(self) -> Subspace:
        return _half(self.relation, self.tol, _OUT).span

    @property
    def ker(self) -> Subspace:
        return _half(self.relation, self.tol, _OUT).null_image

    @property
    def mul(self) -> Subspace:
        return _half(self.relation, self.tol, _IN).null_image


def parts(T: LinearRelation, tol: Tolerance | None = None) -> RelationParts:
    """Domain, range, kernel and multivalued part of the relation.

    With the graph basis split into its input block F and output block H,
    dom and ran are the column spans of F and H, ker is F applied to the null
    space of H, and mul is H applied to the null space of F.  One SVD of
    a block gives both its span (kept left singular vectors) and its null
    space (dropped right singular vectors), so each block decides one half of
    the parts: F gives dom and mul, H gives ran and ker.  A block's SVD is
    stored uncut on the relation the first time one of its two subspaces is
    read, at any tolerance, and a tolerance is a ``Tolerance.rank`` count on
    its values; the half so cut is cached per tolerance value (``None`` and
    ``Tolerance()`` share one entry), and ``_map`` reads its kept triplets
    for ``apply`` and for ``solve``'s A^-1.  ``parts`` itself factors
    nothing, and ``graph_of_matrix`` stores both SVDs from the one of M.
    """
    return RelationParts(T, _tol(tol))


# ---------------------------------------------------------------------------
# constructors


def from_graph_basis(dim_in: int, dim_out: int, vectors, tol: Tolerance | None = None) -> LinearRelation:
    """The relation whose graph the given pairs span, inputs stacked on top
    of outputs: one span at the tolerance's rank cut."""
    graph = orthonormalize(vectors, tol, ambient_dim=dim_in + dim_out)
    if graph.ambient_dim != dim_in + dim_out:
        raise DimensionMismatchError(
            f"graph vectors have length {graph.ambient_dim}, expected {dim_in + dim_out}"
        )
    return LinearRelation(dim_in, dim_out, graph)


def graph_of_matrix(matrix: np.ndarray) -> LinearRelation:
    """The relation {(x, M x)} of an m x n matrix M, from one SVD of M.

    For M = U S V* the graph has the orthonormal basis [V C; U S C] with
    C = (I + S^2)^(-1/2), its CS form, s padded by zeros to length n: the
    input block F = V C and the output block H = U S C arrive factored, with
    singular values 1 / hypot(1, s) and s / hypot(1, s) and identity rows as
    right factors in graph coordinates, stored uncut as the blocks' SVDs.
    F is invertible, so the graph has all n columns, dom = C^n and
    mul = {0}: F's factors (V's columns reversed, so that its values
    descend) are stored with rank n for every tolerance.  ``parts`` reads
    H's rank r as ``Tolerance.rank`` of its values at each tolerance: ran is
    U's first r columns and ker F's last n - r.  So no rank is decided
    here, and ``parts`` and ``apply`` factor nothing at any tolerance.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    m, n = matrix.shape
    u, s, vh = _svd(matrix)
    v = vh.conj().T
    sigma = np.zeros(n)
    sigma[: s.size] = s
    in_s = 1 / np.hypot(1, sigma)  # sqrt(1 + sigma^2) would overflow past 1e154
    out_s = sigma * in_s
    basis = np.zeros((n + m, n), dtype=complex)
    basis[:n] = v * in_s
    basis[n:, : s.size] = u * out_s[: s.size]
    T = LinearRelation(n, m, Subspace._trusted(basis))
    coords = np.eye(n, dtype=complex)
    T._halves[_IN][None] = Cut(v[:, ::-1], in_s[::-1], coords[::-1], n)
    T._halves[_OUT][None] = Cut(u, out_s[: s.size], coords, None)
    return T


def identity_on(s: Subspace) -> LinearRelation:
    """{(u, u) : u in S} on the ambient space of S."""
    b = s.basis / np.sqrt(2.0)
    return LinearRelation(s.ambient_dim, s.ambient_dim, Subspace._trusted(np.vstack([b, b])))


def zero_on(s: Subspace) -> LinearRelation:
    """S x {0}: everything in S is sent to zero."""
    n = s.ambient_dim
    return LinearRelation(n, n, Subspace._trusted(np.vstack([s.basis, np.zeros_like(s.basis)])))


def product_of_subspaces(m: Subspace, n: Subspace) -> LinearRelation:
    """M x N as a relation: dom M, constant value set N."""
    top = np.vstack([m.basis, np.zeros((n.ambient_dim, m.dim), dtype=complex)])
    bot = np.vstack([np.zeros((m.ambient_dim, n.dim), dtype=complex), n.basis])
    return LinearRelation(m.ambient_dim, n.ambient_dim, Subspace._trusted(np.hstack([top, bot])))


# ---------------------------------------------------------------------------
# the calculus


def invert(T: LinearRelation) -> LinearRelation:
    """{(y, x) : (x, y) in T}; dom and ran, ker and mul swap roles.

    The inverse's input block is T's output block and the other way round,
    so it shares T's two per-block caches in swapped order: its input half
    is exactly T's output half, and a half either relation factors serves
    both.
    """
    swapped = np.vstack([T.out_block, T.in_block])
    inverse = LinearRelation(T.dim_out, T.dim_in, Subspace._trusted(swapped))
    inverse._halves = T._halves[::-1]
    return inverse


def adjoint(T: LinearRelation) -> LinearRelation:
    """{(u, v) : <y, u> = <x, v> for every (x, y) in T}.

    One linear condition per graph basis vector: the adjoint graph is the
    complement (sigma = 1) of the flipped graph columns (H, -F), in C^m x C^n.
    """
    flipped = Subspace._trusted(np.vstack([T.out_block, -T.in_block]))
    return LinearRelation(T.dim_out, T.dim_in, subspace_complement(flipped))


def _preimage_under_block(block: np.ndarray, e: int, target: Subspace, tol: Tolerance | None):
    """The pairs (a, z) with (block a, z) in target, the preimage of target
    under diag(block, I_e), split into the a and z coordinate blocks."""
    q, d = block.shape
    block_map = np.zeros((q + e, d + e), dtype=complex)
    block_map[:q, :d] = block
    block_map[q:, d:] = np.eye(e)
    coords = matrix_preimage(block_map, target, tol).basis
    return coords[:d], coords[d:]


def compose(R: LinearRelation, T: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """R T = {(x, y) : (x, z) in T and (z, y) in R for some z}.

    With T's graph basis split into F over H, R T holds the pairs (F a, y)
    over the preimage of R's graph under diag(H, I).  That rank decision
    weighs the principal-angle sines of the zero-padded cylinders T x C^e and
    C^n x R in C^(n+k+e), on a matrix n rows shorter: the relative cutoff's
    dimension factor shrinks by at most n, a shift of at most
    1e-12 * n * sigma_max.
    """
    if T.dim_out != R.dim_in:
        raise DimensionMismatchError(
            f"inner dimensions differ: T maps into C^{T.dim_out}, R is defined on C^{R.dim_in}"
        )
    n, e = T.dim_in, R.dim_out
    a, y = _preimage_under_block(T.out_block, e, R.graph, tol)
    pairs = np.vstack([T.in_block @ a, y])
    return from_graph_basis(n, e, pairs, tol)


def op_sum(T: LinearRelation, S: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """T + S = {(x, y + z) : (x, y) in T and (x, z) in S}.

    With T's graph basis split into F over H, T + S holds the pairs
    (F a, H a + z) over the preimage of S's graph under diag(F, I).  As in
    ``compose``, that weighs the principal-angle sines of the zero-padded
    cylinders in C^(n+2m), on a matrix m rows shorter: a cutoff shift of at
    most 1e-12 * m * sigma_max.
    """
    pairs = _op_sum_pairs(T, S, tol)
    return from_graph_basis(T.dim_in, T.dim_out, pairs, tol)


def _op_sum_pairs(T: LinearRelation, S: LinearRelation, tol: Tolerance | None) -> np.ndarray:
    """The pairs (F a, H a + z) that span T + S, before their span is cut."""
    _check_same_shape(T, S)
    a, z = _preimage_under_block(T.in_block, T.dim_out, S.graph, tol)
    return np.vstack([T.in_block @ a, T.out_block @ a + z])


def cw_sum(T: LinearRelation, S: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """Componentwise sum: the subspace sum of the two graphs."""
    _check_same_shape(T, S)
    return LinearRelation(T.dim_in, T.dim_out, subspace_sum(T.graph, S.graph, tol))


def scale(T: LinearRelation, lam: complex, tol: Tolerance | None = None) -> LinearRelation:
    """{(x, lam * y) : (x, y) in T}; lam = 0 collapses onto dom T x {0}."""
    if not np.isfinite(lam):
        raise ValueError("scale factor must be finite")
    stacked = np.vstack([T.in_block, lam * T.out_block])
    return from_graph_basis(T.dim_in, T.dim_out, stacked, tol)


def identity_minus(T: LinearRelation) -> LinearRelation:
    """I - T = {(x, x - y) : (x, y) in T}: the span of (F a, F a - H a), sigma >= 0.618."""
    if not T.is_square:
        raise DimensionMismatchError("identity_minus needs a square relation")
    pairs = np.vstack([T.in_block, T.in_block - T.out_block])
    return LinearRelation(T.dim_in, T.dim_out, Subspace._trusted(_svd(pairs)[0]))


def restrict(T: LinearRelation, m: Subspace, tol: Tolerance | None = None) -> LinearRelation:
    """T restricted to inputs in M: {(x, y) in T : x in M}.

    The graph coordinates a with F a in M form the preimage of M under the
    input block F; the graph basis times an orthonormal basis of them is
    already orthonormal, and is the restriction's graph basis.
    """
    if m.ambient_dim != T.dim_in:
        raise DimensionMismatchError(
            f"restriction subspace ambient {m.ambient_dim} != dim_in {T.dim_in}"
        )
    coords = matrix_preimage(T.in_block, m, tol).basis
    return LinearRelation(T.dim_in, T.dim_out, Subspace._trusted(T.graph.basis @ coords))


def image(T: LinearRelation, m: Subspace, tol: Tolerance | None = None) -> Subspace:
    """T(M) = {y : (x, y) in T for some x in M}: the range of the
    restriction to M, read by ``parts`` at the same tolerance."""
    return parts(restrict(T, m, tol), tol).ran


def apply(T: LinearRelation, x: np.ndarray, tol: Tolerance | None = None) -> Coset:
    """The value T x = y + mul T, or the empty coset when x is outside dom T.

    ``_map`` of the point x on the input block's half of the parts alone:
    dom T decides the test, and the graph coefficients of the value are
    V_r S_r^-1 U_r* x from the kept singular triplets (U_r, S_r, V_r) of
    the input block cut at the tolerance.
    """
    return _map(T, _IN, _as_vector(x, T.dim_in, "input vector"), None, tol)


def apply_to_coset(T: LinearRelation, c: Coset, tol: Tolerance | None = None) -> Coset:
    """Image of an affine set under the relation: {y : (x, y) in T, x in c}.

    For the coset p + span D, one SVD of the off-dom part R = (I - P_dom) D,
    cut at the rank cutoff, decides both questions about dom T: its kept
    triplets give the least-squares shift of p into dom T, and its dropped
    right singular vectors the coordinates of the feasible directions
    X = D cap dom T.  dom T and the shifted point's value come from the input
    block's half of the parts, through ``apply``; T(X) comes from ``image``,
    the range of the restriction to X, whose rank decision weighs unit graph
    vectors.  ``solve`` does not come here: its outputs lie in
    dom A^-1 = ran A by construction, so it maps them through the kept
    triplets of A's output block (``_map``), one preimage SVD fewer.
    Sending X through ``_map`` as well adds spurious directions on the
    conditioning family (ROADMAP item 17), so T(X) keeps ``image``.  Both
    routes carry rounding of about eps / sigma_min into the image, where a
    direction of X in ker T can surface as a spurious one (ROADMAP item 5).
    At a purely relative tolerance the cut of the off-dom part, a matrix of
    rounding when D lies in dom T, can keep "rank" and drop feasible
    directions (ROADMAP item 13).
    """
    if c.ambient_dim != T.dim_in:
        raise DimensionMismatchError(
            f"coset ambient {c.ambient_dim} != dim_in {T.dim_in}"
        )
    if c.is_empty:
        return Coset.empty(T.dim_out)
    if c.direction.dim == 0:
        return apply(T, c.point, tol)  # apply refuses a non-finite point
    if not np.isfinite(c.point).all():
        raise ValueError("vector must be finite")
    f = _half(T, tol, _IN)
    dom, d = f.span.basis, c.direction.basis
    off_dom = d - dom @ (dom.conj().T @ d)
    cut = _cut_svd(off_dom, tol)
    value = apply(T, c.point - d @ cut.solve(c.point - dom @ (dom.conj().T @ c.point)), tol)
    if value.is_empty:
        return value
    feasible = Subspace._trusted(d @ cut.vh[cut.rank :].conj().T)
    return Coset.of(value.point, image(T, feasible, tol))


def _map(
    T: LinearRelation, side: int, point: np.ndarray, coords: np.ndarray | None, tol: Tolerance | None
) -> Coset:
    """The image of the coset point + span(U coords) under T (``side`` is
    ``_IN``) or T^-1 (``_OUT``), from the cached half of the block B on
    ``side`` alone: U is the basis of span B (dom T or ran T) that ``parts``
    cut, ``point`` lies in span(U), and ``coords`` has orthonormal columns.
    ``coords`` None maps the point alone, any point: one outside span B has
    the empty image.

    With B ~ U S_r V_r* the kept triplets and G the other block, U c is B a
    exactly for a in V_r S_r^-1 c + null(B).  So the point is G times
    ``Cut.solve``, and the directions are G times V_r S_r^-1 coords, plus
    G null(B) (mul T or ker T).  The columns of S_r^-1 coords are
    independent and need no rank decision: one Householder QR, its rows in
    decreasing order of 1 / s as for a weighted least-squares problem (Cox
    and Higham, 1998), makes them orthonormal and keeps the combinations
    that cancel a large row, which an SVD of the normalized columns loses to
    rounding over s_min.  G times both is cut as ``image`` cuts one: unit
    graph vectors at the rank cutoff.
    """
    span, null_image, cut = _half(T, tol, side)
    other = T.out_block if side == _IN else T.in_block
    if coords is None and not span.contains_vector(point, tol):
        return Coset.empty(other.shape[0])
    point = other @ cut.solve(point)
    if coords is None or not coords.shape[1]:
        return Coset.of(point, null_image)
    r = cut.rank
    graded = coords[::-1] / cut.s[:r][::-1, None]  # S_r^-1 coords, largest rows first
    graph_coords = cut.vh[:r].conj().T @ np.linalg.qr(graded)[0][::-1]
    directions = np.hstack([other @ graph_coords, null_image.basis])
    return Coset.of(point, orthonormalize(directions, tol))


def relation_contains(outer: LinearRelation, inner: LinearRelation, tol: Tolerance | None = None) -> bool:
    """Graph containment inner <= outer."""
    _check_same_shape(outer, inner)
    return subspace_contains(outer.graph, inner.graph, tol)


def relation_equals(T: LinearRelation, S: LinearRelation, tol: Tolerance | None = None) -> bool:
    """Relation equality is graph-subspace equality."""
    _check_same_shape(T, S)
    return subspace_equals(T.graph, S.graph, tol)


def is_operator(T: LinearRelation, tol: Tolerance | None = None) -> bool:
    return parts(T, tol).mul.dim == 0


def as_matrix(T: LinearRelation, tol: Tolerance | None = None) -> np.ndarray:
    """Realize an everywhere-defined single-valued relation as its matrix."""
    tol = _tol(tol)
    p = parts(T, tol)
    if p.mul.dim != 0 or p.dom.dim != T.dim_in:
        raise ValueError("relation is not an everywhere-defined operator")
    F = T.in_block
    if F.shape[0] != F.shape[1]:
        raise ValueError("graph dimension is inconsistent with an operator")
    return T.out_block @ np.linalg.inv(F)


def _check_same_shape(T: LinearRelation, S: LinearRelation):
    if T.dim_in != S.dim_in or T.dim_out != S.dim_out:
        raise DimensionMismatchError(
            f"relation shapes differ: {T.dim_in}->{T.dim_out} vs {S.dim_in}->{S.dim_out}"
        )
