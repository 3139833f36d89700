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
    _ORTHONORMAL_GRAM_GAP,
    Coset,
    Cut,
    Subspace,
    Tolerance,
    _as_vector,
    _cut_svd,
    _null_cut,
    _svd,
    _tol,
    matrix_preimage,
    null_space,
    orthonormalize,
    subspace_contains,
    subspace_equals,
    subspace_sum,
    zero_space,
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
        # one cache per graph block (input F, output H), keyed by tolerance;
        # the key None holds a half that serves every tolerance
        self._halves: tuple[dict[Tolerance | None, _Half], dict[Tolerance | None, _Half]] = ({}, {})

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


class Restriction(NamedTuple):
    relation: "LinearRelation"
    image: Subspace


class _Half(NamedTuple):
    """What one full SVD of a graph block decides, cut at one tolerance: the
    block's span (dom for the input block F, ran for the output block H), the
    other block applied to its null space (mul = H null(F), ker = F null(H))
    and the cut trimmed to the block's kept singular triplets,
    block ~ span.basis @ diag(kept.s) @ kept.vh."""

    span: Subspace
    null_image: Subspace
    kept: Cut


_IN, _OUT = 0, 1


def _block_image(block: np.ndarray, coords: np.ndarray, tol: Tolerance) -> Subspace:
    """The span of block @ coords, for coords an orthonormal basis of the
    other graph block's null space.

    The graph basis gives F*F + H*H = I, so these columns are orthonormal up
    to the squares of the dropped singular values.  A graph basis accepted
    with a looser Gram matrix (``Subspace`` validates at 1e-8), or a cutoff
    coarse enough to show, is re-orthonormalized under the same rank cutoff
    instead.
    """
    vecs = block @ coords
    gram_gap = np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1])).max(initial=0.0)
    if gram_gap > _ORTHONORMAL_GRAM_GAP:
        return orthonormalize(vecs, tol, ambient_dim=block.shape[0])
    return Subspace(vecs, validate=False)


def _factor_half(block: np.ndarray, other: np.ndarray, tol: Tolerance) -> _Half:
    """One SVD of a graph block with all of its right singular vectors, cut
    at the tolerance's rank cutoff: the kept triplets, and the other block
    applied to the dropped right singular vectors, the graph coordinates of
    the block's null space."""
    u, s, vh, rank = _null_cut(block, tol)
    span = Subspace(u[:, :rank], validate=False)
    null_image = _block_image(other, vh[rank:].conj().T, tol)
    return _Half(span, null_image, Cut(span.basis, s[:rank].copy(), vh[:rank].copy(), rank))


def _half(T: LinearRelation, tol: Tolerance | None, side: int) -> _Half:
    """The cached half of the parts that the block on ``side`` (``_IN`` or
    ``_OUT``) decides at the tolerance, else the one cached for every
    tolerance; one SVD the first time."""
    tol = _tol(tol)
    cache = T._halves[side]
    half = cache.get(tol, cache.get(None))
    if half is None:
        block, other = (T.in_block, T.out_block) if side == _IN else (T.out_block, T.in_block)
        half = cache[tol] = _factor_half(block, other, tol)
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
    space of H, and mul is H applied to the null space of F.  One full SVD of
    a block gives both its span (kept left singular vectors) and its null
    space (dropped right singular vectors), so each block decides one half of
    the parts: F gives dom and mul, H gives ran and ker.  Each half is cached
    on the relation per block and tolerance value, with the block's kept
    singular triplets for ``apply``; ``None`` and ``Tolerance()`` share one
    entry.  ``parts`` itself factors nothing: a block is factored the first
    time one of its two subspaces is read, except that ``graph_of_matrix``
    seeds both halves from the SVD of the matrix: the output half at its
    tolerance, the input half (dom = C^n, mul = {0}) for every tolerance.
    """
    return RelationParts(T, _tol(tol))


# ---------------------------------------------------------------------------
# constructors


def from_graph_basis(dim_in: int, dim_out: int, vectors, tol: Tolerance | None = None) -> LinearRelation:
    graph = orthonormalize(vectors, tol, ambient_dim=dim_in + dim_out)
    if graph.ambient_dim != dim_in + dim_out:
        raise DimensionMismatchError(
            f"graph vectors have length {graph.ambient_dim}, expected {dim_in + dim_out}"
        )
    return LinearRelation(dim_in, dim_out, graph)


def graph_of_matrix(matrix: np.ndarray, tol: Tolerance | None = None) -> LinearRelation:
    """The relation {(x, M x)} of an m x n matrix M, from one SVD of M.

    For M = U S V* the graph has the orthonormal basis [V C; U S C] with
    C = (I + S^2)^(-1/2), its CS form, s padded by zeros to length n: the
    input block F = V C and the output block H = U S C arrive factored, with
    singular values 1 / hypot(1, s) and s / hypot(1, s) and identity rows as
    right factors in graph coordinates.  F is invertible, so the graph has
    all n columns, dom = C^n and mul = {0}: the input half, dom V (columns
    reversed, so that F's values descend) with all n triplets of F, is
    seeded once for every tolerance.  The one cut, of H's values at the
    tolerance, keeps r of them: ran is U's first r columns and ker V's last
    n - r, seeded at the tolerance.  So ``parts`` and ``apply`` factor
    nothing there, and dom, mul and ``apply`` nothing at any tolerance.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    m, n = matrix.shape
    tol = _tol(tol)
    u, s, vh = _svd(matrix, full_matrices=m < n)
    v = vh.conj().T
    sigma = np.zeros(n)
    sigma[: s.size] = s
    in_s = 1 / np.hypot(1, sigma)  # sqrt(1 + sigma^2) would overflow past 1e154
    out_s = sigma * in_s
    basis = np.zeros((n + m, n), dtype=complex)
    basis[:n] = v * in_s
    basis[n:, : s.size] = u * out_s[: s.size]
    T = LinearRelation(n, m, Subspace(basis, validate=False))
    r = tol.rank(out_s, (m, n))
    coords = np.eye(n, dtype=complex)
    ran = Subspace(u[:, :r], validate=False)
    T._halves[_OUT][tol] = _Half(ran, Subspace(v[:, r:], validate=False), Cut(ran.basis, out_s[:r], coords[:r], r))
    dom = Subspace(v[:, ::-1], validate=False)
    T._halves[_IN][None] = _Half(dom, zero_space(m), Cut(dom.basis, in_s[::-1], coords[::-1], n))
    return T


def identity_on(s: Subspace) -> LinearRelation:
    """{(u, u) : u in S} on the ambient space of S."""
    b = s.basis / np.sqrt(2.0)
    return LinearRelation(s.ambient_dim, s.ambient_dim, Subspace(np.vstack([b, b]), validate=False))


def zero_on(s: Subspace) -> LinearRelation:
    """S x {0}: everything in S is sent to zero."""
    n = s.ambient_dim
    return LinearRelation(n, n, Subspace(np.vstack([s.basis, np.zeros_like(s.basis)]), validate=False))


def product_of_subspaces(m: Subspace, n: Subspace) -> LinearRelation:
    """M x N as a relation: dom M, constant value set N."""
    top = np.vstack([m.basis, np.zeros((n.ambient_dim, m.dim), dtype=complex)])
    bot = np.vstack([np.zeros((m.ambient_dim, n.dim), dtype=complex), n.basis])
    return LinearRelation(m.ambient_dim, n.ambient_dim, Subspace(np.hstack([top, bot]), validate=False))


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
    inverse = LinearRelation(T.dim_out, T.dim_in, Subspace(swapped, validate=False))
    inverse._halves = T._halves[::-1]
    return inverse


def adjoint(T: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """{(u, v) : <y, u> = <x, v> for every (x, y) in T}.

    One linear condition per graph basis vector; the adjoint graph is the null
    space of the stacked condition matrix read in C^{dim_out} x C^{dim_in}.
    """
    cond = np.hstack([T.out_block.conj().T, -T.in_block.conj().T])
    return LinearRelation(T.dim_out, T.dim_in, null_space(cond, tol))


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
    return LinearRelation(n, e, orthonormalize(pairs, tol, ambient_dim=n + e))


def op_sum(T: LinearRelation, S: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """T + S = {(x, y + z) : (x, y) in T and (x, z) in S}.

    With T's graph basis split into F over H, T + S holds the pairs
    (F a, H a + z) over the preimage of S's graph under diag(F, I).  As in
    ``compose``, that weighs the principal-angle sines of the zero-padded
    cylinders in C^(n+2m), on a matrix m rows shorter: a cutoff shift of at
    most 1e-12 * m * sigma_max.
    """
    _check_same_shape(T, S)
    n, m = T.dim_in, T.dim_out
    a, z = _preimage_under_block(T.in_block, m, S.graph, tol)
    pairs = np.vstack([T.in_block @ a, T.out_block @ a + z])
    return LinearRelation(n, m, orthonormalize(pairs, tol, ambient_dim=n + m))


def cw_sum(T: LinearRelation, S: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """Componentwise sum: the subspace sum of the two graphs."""
    _check_same_shape(T, S)
    return LinearRelation(T.dim_in, T.dim_out, subspace_sum(T.graph, S.graph, tol))


def scale(T: LinearRelation, lam: complex, tol: Tolerance | None = None) -> LinearRelation:
    """{(x, lam * y) : (x, y) in T}; lam = 0 collapses onto dom T x {0}."""
    stacked = np.vstack([T.in_block, lam * T.out_block])
    return LinearRelation(T.dim_in, T.dim_out, orthonormalize(stacked, tol, ambient_dim=T.dim_in + T.dim_out))


def identity_minus(T: LinearRelation, tol: Tolerance | None = None) -> LinearRelation:
    """I - T = {(x, x - y) : (x, y) in T} on a square relation: one span."""
    if not T.is_square:
        raise DimensionMismatchError("identity_minus needs a square relation")
    pairs = np.vstack([T.in_block, T.in_block - T.out_block])
    return LinearRelation(T.dim_in, T.dim_out, orthonormalize(pairs, tol, ambient_dim=2 * T.dim_in))


def restrict(T: LinearRelation, m: Subspace, tol: Tolerance | None = None) -> Restriction:
    """T restricted to inputs in M, plus the image T(M).

    The graph coordinates a with F a in M form the preimage of M under the
    input block F; the graph basis times an orthonormal basis of them is
    already orthonormal.
    """
    if m.ambient_dim != T.dim_in:
        raise DimensionMismatchError(
            f"restriction subspace ambient {m.ambient_dim} != dim_in {T.dim_in}"
        )
    coords = matrix_preimage(T.in_block, m, tol).basis
    graph = Subspace(T.graph.basis @ coords, validate=False)
    img = orthonormalize(T.out_block @ coords, tol, ambient_dim=T.dim_out)
    return Restriction(LinearRelation(T.dim_in, T.dim_out, graph), img)


def image(T: LinearRelation, m: Subspace, tol: Tolerance | None = None) -> Subspace:
    """T(M) = {y : (x, y) in T for some x in M}."""
    return restrict(T, m, tol).image


def apply(T: LinearRelation, x: np.ndarray, tol: Tolerance | None = None) -> Coset:
    """The value T x = y + mul T, or the empty coset when x is outside dom T.

    Reads the input block's half of the parts only: the graph coefficients
    of x are V_r S_r^-1 U_r* x, from the kept singular triplets
    (U_r, S_r, V_r) of the input block cut at the tolerance.
    """
    x = _as_vector(x, T.dim_in, "input vector")
    f = _half(T, tol, _IN)
    if not f.span.contains_vector(x, tol):
        return Coset.empty(T.dim_out)
    return Coset.of(T.out_block @ f.kept.solve(x), f.null_image)


def apply_to_coset(T: LinearRelation, c: Coset, tol: Tolerance | None = None) -> Coset:
    """Image of an affine set under the relation: {y : (x, y) in T, x in c}.

    For the coset p + span D, one SVD of the off-dom part R = (I - P_dom) D,
    cut at the rank cutoff, decides both questions about dom T: its kept
    triplets give the least-squares shift of p into dom T, and its dropped
    right singular vectors the coordinates of the feasible directions
    X = D cap dom T.  dom T and the shifted point's value come from the input
    block's half of the parts, through ``apply``; T(X) comes from ``image``,
    whose rank decision weighs unit graph vectors.  Mapping X through the
    input block's triplets instead, H V_r S_r^-1 U_r* X, would scale the
    rounding of X by up to 1 / sigma_min(F), enough to turn a direction of
    X in ker T into a spurious image direction.
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
    cut = _cut_svd(off_dom, tol, full_matrices=False)
    value = apply(T, c.point - d @ cut.solve(c.point - dom @ (dom.conj().T @ c.point)), tol)
    if value.is_empty:
        return value
    feasible = Subspace(d @ cut.vh[cut.rank :].conj().T, validate=False)
    return Coset.of(value.point, image(T, feasible, tol))


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
