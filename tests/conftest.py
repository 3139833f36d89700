"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """The name of each numpy.linalg.svd, lstsq, pinv, eigh and eigvalsh call,
    in order: an "svd" is one rank decision under the tolerance, an "lstsq"
    or a "pinv" one at numpy's own cutoff, an "eigh" one Hermitian
    eigendecomposition (cut at the tolerance where it decides a rank) and an
    "eigvalsh" a psd certification."""
    calls = []
    for name in ("svd", "lstsq", "pinv", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def svd_shapes(monkeypatch):
    """The matrix shape and the ``full_matrices`` flag of each
    numpy.linalg.svd call, in order, as (shape, full_matrices) pairs."""
    calls = []
    original = np.linalg.svd

    def recording(a, full_matrices=True, *args, **kwargs):
        calls.append((np.shape(a)[-2:], full_matrices))
        return original(a, full_matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


@pytest.fixture
def qr_calls(monkeypatch):
    """The matrix shape of each numpy.linalg.qr call, in order: an
    orthonormal basis with no rank decision."""
    calls = []
    original = np.linalg.qr

    def recording(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return calls
