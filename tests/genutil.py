"""Seeded random generators and small assertion helpers shared by the tests."""

import numpy as np
import pytest

from relcalc import (
    LinearRelation,
    Subspace,
    cw_sum,
    graph_of_matrix,
    make_pmn,
    null_space,
    orthonormalize,
    product_of_subspaces,
    restrict,
    subspace_complement,
    subspace_sum,
    zero_space,
)


# (seed, top) for singular values geomspace(1 / top, top, n): top 1e6 under
# the bare seed as its id, and 1e8 on the same seeds
WIDE_SPECTRA = [pytest.param(seed, 1e6, id=str(seed)) for seed in range(10)] + [
    pytest.param(seed, 1e8, id=f"{seed}-1e8") for seed in range(10)
]


def cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def cmat(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def random_unitary(rng, n):
    q, r = np.linalg.qr(cmat(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_subspace(rng, n, dim=None):
    if dim is None:
        dim = int(rng.integers(0, n + 1))
    if dim == 0:
        return zero_space(n)
    return orthonormalize(cmat(rng, n, dim))


def subspace_of(rng, s, dim=None):
    """Random subspace inside s."""
    if s.dim == 0:
        return s
    if dim is None:
        dim = int(rng.integers(0, s.dim + 1))
    if dim == 0:
        return zero_space(s.ambient_dim)
    return orthonormalize(s.basis @ cmat(rng, s.dim, dim))


def random_relation(rng, n, m, extra_ker=True, extra_mul=True):
    """Random relation that frequently has nontrivial kernel and multivalued part."""
    d0 = int(rng.integers(0, min(n, m) + 1))
    cols = [cmat(rng, n + m, d0)]
    if extra_mul and rng.random() < 0.5:
        col = np.zeros((n + m, 1), dtype=complex)
        col[n:, 0] = cvec(rng, m)
        cols.append(col)
    if extra_ker and rng.random() < 0.5:
        col = np.zeros((n + m, 1), dtype=complex)
        col[:n, 0] = cvec(rng, n)
        cols.append(col)
    graph = orthonormalize(np.hstack(cols), ambient_dim=n + m)
    return LinearRelation(n, m, graph)


def relation_with_ker_and_mul(rng, n, m, tilt=1e-6):
    """Random relation whose graph always holds a kernel pair (x, 0), a
    multivalued pair (0, y) and random pairs, plus one pair (x', tilt * y')
    at a principal angle of about ``tilt`` from the input axis, so that x' is
    close to the kernel but outside it."""
    d0 = int(rng.integers(0, min(n, m)))
    ker = np.zeros((n + m, 1), dtype=complex)
    ker[:n, 0] = cvec(rng, n)
    mul = np.zeros((n + m, 1), dtype=complex)
    mul[n:, 0] = cvec(rng, m)
    x, y = cvec(rng, n), cvec(rng, m)
    near = np.concatenate([x / np.linalg.norm(x), tilt * y / np.linalg.norm(y)])[:, None]
    graph = orthonormalize(np.hstack([cmat(rng, n + m, d0), ker, mul, near]), ambient_dim=n + m)
    return LinearRelation(n, m, graph)


def relation_near_output_axis(rng, n, m, tilt):
    """Random pairs plus one pair (tilt * x, y) at a principal angle of about
    ``tilt`` from the output axis.  The random pairs are orthogonal to x in
    their inputs and to y in their outputs, so the input block's singular
    value along x is tilt / sqrt(1 + tilt^2): y lies in mul T exactly when
    tilt falls under the rank cutoff."""
    d0 = int(rng.integers(0, min(n, m)))
    x, y = cvec(rng, n), cvec(rng, m)
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    pairs = cmat(rng, n + m, d0)
    pairs[:n] -= np.outer(x, x.conj() @ pairs[:n])
    pairs[n:] -= np.outer(y, y.conj() @ pairs[n:])
    near = np.concatenate([tilt * x, y])[:, None]
    graph = orthonormalize(np.hstack([pairs, near]), ambient_dim=n + m)
    return LinearRelation(n, m, graph)


def loosely_orthonormal_relation(rng, n, m, gram_gap=1e-9):
    """``relation_with_ker_and_mul`` with its graph basis moved off
    orthonormal within its span, by about ``gram_gap`` in the Gram matrix,
    and kept loose by ``Subspace._trusted``: the public constructor stores
    the polar factor of any basis more than 1e-13 off orthonormal."""
    basis = relation_with_ker_and_mul(rng, n, m, tilt=1.0).graph.basis
    k = basis.shape[1]
    h = random_selfadjoint(rng, k)
    loose = basis @ (np.eye(k) + gram_gap / 2 * h / np.abs(h).max())
    return LinearRelation(n, m, Subspace._trusted(loose))


def random_psd(rng, n, force_singular=None):
    """Random psd matrix with well-separated spectrum; singular half the time."""
    if force_singular is None:
        force_singular = bool(rng.random() < 0.5)
    n_zero = int(rng.integers(1, n)) if force_singular else 0
    eigs = np.concatenate([np.zeros(n_zero), rng.uniform(0.2, 2.5, n - n_zero)])
    rng.shuffle(eigs)
    q = random_unitary(rng, n)
    w = (q * eigs) @ q.conj().T
    return (w + w.conj().T) / 2


def psd_with_tiny_eigenvalues(rng, n):
    """Random psd matrix with 1 to n - 1 eigenvalues drawn from 10^U(-13, -7),
    around the default rank cutoff, and the rest from U(0.2, 2.5)."""
    k = int(rng.integers(1, n))
    eigs = np.concatenate([10.0 ** rng.uniform(-13, -7, k), rng.uniform(0.2, 2.5, n - k)])
    rng.shuffle(eigs)
    q = random_unitary(rng, n)
    w = (q * eigs) @ q.conj().T
    return (w + w.conj().T) / 2


def rotated_borderline_problem(rng, n, eps):
    """The lss-no-solution fixture in C^n, rotated by a random unitary Q.

    A projects onto e1, W is [[0, eps], [eps, 1]] plus the identity on the
    other coordinates (psd up to its eigenvalue -eps^2) and b = e2: ran A is
    W-neutral yet W pairs it with b, so no weighted least-squares solution
    exists.  Returns the rotated (A, W, b)."""
    a = np.zeros((n, n))
    a[0, 0] = 1.0
    w = np.eye(n)
    w[:2, :2] = [[0.0, eps], [eps, 1.0]]
    b = np.zeros(n)
    b[1] = 1.0
    q = random_unitary(rng, n)
    w = q @ w @ q.conj().T
    return q @ a @ q.conj().T, (w + w.conj().T) / 2, q @ b


def random_selfadjoint(rng, n):
    h = cmat(rng, n, n)
    return (h + h.conj().T) / 2


def random_symmetry(rng, n):
    q = random_unitary(rng, n)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if np.all(signs == signs[0]) and n > 1:
        signs[0] = -signs[0]  # keep it indefinite most of the time
    w = (q * signs) @ q.conj().T
    return (w + w.conj().T) / 2


def weight_and_subspace(rng):
    """A psd, selfadjoint or symmetry weight matrix on C^n, n in 2..8, and a
    subspace; for an indefinite symmetry, usually one holding a vector that
    is also in its companion, so that about a quarter of the pairs are not
    complementable."""
    n = int(rng.integers(2, 9))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        w = random_psd(rng, n)
    elif kind == 1:
        w = random_selfadjoint(rng, n)
    else:
        w = random_symmetry(rng, n)
    indefinite = 0 < np.count_nonzero(np.linalg.eigvalsh(w) > 0) < n
    if kind == 2 and indefinite and rng.random() < 0.7:
        return w, degenerate_subspace(rng, w)
    return w, random_subspace(rng, n)


def degenerate_subspace(rng, j):
    """A neutral vector x (x* J x = 0, J indefinite) plus random vectors
    J-orthogonal to it, so that x lies in S and in its J-companion."""
    eigs, vecs = np.linalg.eigh(j)
    pos, neg = vecs[:, eigs > 0], vecs[:, eigs < 0]
    u, v = pos @ cvec(rng, pos.shape[1]), neg @ cvec(rng, neg.shape[1])
    x = u / np.linalg.norm(u) + v / np.linalg.norm(v)
    companion = null_space((j @ x)[None, :].conj()).basis
    extra = int(rng.integers(0, companion.shape[1] + 1))
    return orthonormalize(np.column_stack([x, companion @ cmat(rng, companion.shape[1], extra)]))


def random_mv_projection(rng, n):
    m = random_subspace(rng, n)
    k = random_subspace(rng, n)
    return make_pmn(m, k), m, k


def relation_with_parts(rng, n, dom, mul):
    """A relation with the prescribed domain and multivalued part."""
    base = restrict(graph_of_matrix(cmat(rng, n, n)), dom)
    return cw_sum(base, product_of_subspaces(zero_space(n), mul))


def random_representable(rng, n):
    """A square relation representable along a random subspace S, plus S."""
    s = random_subspace(rng, n, dim=int(rng.integers(1, n)))
    s_perp = subspace_complement(s)
    dom = subspace_sum(subspace_of(rng, s), subspace_of(rng, s_perp))
    mul = subspace_sum(subspace_of(rng, s), subspace_of(rng, s_perp))
    return relation_with_parts(rng, n, dom, mul), s


def projector_dist(a: Subspace, b: Subspace) -> float:
    return float(np.linalg.norm(a.projector() - b.projector()))


def coset_gap(new, old):
    """Distance between two nonempty cosets of equal direction dimension:
    the min-norm points (relative to the old one's norm) and the direction
    projectors."""
    point_gap = np.linalg.norm(new.min_norm_point() - old.min_norm_point()) / max(
        1.0, np.linalg.norm(old.min_norm_point())
    )
    return max(point_gap, np.linalg.norm(new.direction.projector() - old.direction.projector()))


def graph_dist(t: LinearRelation, s: LinearRelation) -> float:
    return projector_dist(t.graph, s.graph)
