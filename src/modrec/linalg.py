"""Hermitian eigendecomposition with input validation, on LAPACK via numpy.

``numpy.linalg.eigh`` computes the spectrum to near machine precision, which
matters because rank decisions hinge on eigenvalues close to zero.  It reads
one triangle only, so this wrapper first checks that the input is square and
Hermitian; the eigenvectors are complex whatever the input dtype.
"""

from __future__ import annotations

import numpy as np


def hermitian_eig(A: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Returns (w, V) with A @ V[:, k] = w[k] * V[:, k].  Raises ValueError if A
    is not square, or not Hermitian within 1e-12 relative to its largest
    entry.
    """
    a = np.asarray(A, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if a.size and float(np.max(np.abs(a - a.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(0.5 * (a + a.conj().T))
