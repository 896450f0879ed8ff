"""Dense linear algebra substrate over the real or the complex field.

All matrices are ``numpy.ndarray`` with dtype ``complex128``, or ``float64``
where the arithmetic is real: the functions here keep a ``float64`` input in
``float64`` (and so take the real LAPACK and BLAS routes) and coerce every
other input to ``complex128``.  Tensor indices
are flattened row-major: the basis vector ``x^{i1} (x) ... (x) x^{in}`` of an
N-ary tensor power sits at offset ``sum((i_k - 1) * N**(n-k))`` (letters are
1-based, offsets 0-based).  Every module in the package relies on this one
convention.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitian

#: Global default equality tolerance; overridable per call and via the CLI.
DEFAULT_EPS = 1e-9


def resolve_eps(eps: float | None) -> float:
    """Return ``eps`` or the global default, rejecting non-positive and non-finite values."""
    if eps is None:
        return DEFAULT_EPS
    if not 0 < eps < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {eps}")
    return float(eps)


def _in_field(a) -> np.ndarray:
    """``a`` as an array: ``float64`` stays real, every other dtype becomes ``complex128``."""
    m = np.asarray(a)
    return m if m.dtype in (np.float64, np.complex128) else m.astype(complex)


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d real or complex array (:func:`_in_field`), rejecting NaN/Inf entries."""
    m = _in_field(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty arrays."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; the transpose of a ``float64`` input, which stays real."""
    return _in_field(a).conj().T


def hermitian_spectrum(
    a: np.ndarray, eps: float | None = None, scale: float | None = None
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises :class:`NotHermitian` (see :func:`check_hermitian`, which takes
    ``scale``) unless ``a`` is Hermitian to within the relative tolerance;
    otherwise diagonalizes the Hermitian part ``(a + dagger(a)) / 2``.
    """
    eps = resolve_eps(eps)
    m = as_matrix(a)
    check_hermitian(m, eps, scale)
    if m.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh((m + dagger(m)) / 2)


def check_hermitian(
    a: np.ndarray, eps: float | None = None, scale: float | None = None
) -> None:
    """Raise :class:`NotHermitian` unless ``a`` is square and Hermitian.

    The entrywise residual ``|a - dagger(a)|`` may reach ``eps * max(1,
    scale)``, where ``scale`` defaults to ``max|a|``: the same relative rule
    as the rank cutoff, so that matrices whose entries grow large (Gram
    matrices grow like n!) are judged by their rounding, not by their scale.
    A diagonal block of a larger matrix passes that matrix's ``max|a|`` as
    ``scale``, to be judged at the tolerance of the whole.
    """
    eps = resolve_eps(eps)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is not square: shape {a.shape}")
    residual = max_abs(a - dagger(a))
    tol = eps * max(1.0, max_abs(a) if scale is None else scale)
    if residual > tol:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {residual:.3e} (tolerance {tol:.3e})"
        )


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value; 0 for empty matrices."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, ord=2))


def kernel_basis(a: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as matrix columns.

    Singular values at or below ``eps * max(1, sigma_max)`` count as zero.
    A ``(cols, 0)``-shaped result means the kernel is trivial.
    """
    eps = resolve_eps(eps)
    m = as_matrix(a)
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=m.dtype)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=m.dtype)
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > eps * max(1.0, smax)))
    return vh[rank:].conj().T


def span_and_complement(
    vectors: np.ndarray, ambient_dim: int, eps: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column span of ``vectors`` and of its complement.

    ``vectors`` is an ``ambient_dim x k`` matrix with the vectors as columns.
    Both returned bases are column matrices in the standard Euclidean inner
    product; their widths always add up to ``ambient_dim``.  Singular values
    at or below ``eps * max(1, sigma_max)`` count as zero.
    """
    eps = resolve_eps(eps)
    vecs = _in_field(vectors)
    if vecs.ndim != 2 or vecs.shape[0] != ambient_dim:
        raise ValueError(
            f"expected an {ambient_dim} x k matrix of column vectors, "
            f"got shape {vecs.shape}"
        )
    if vecs.shape[1] == 0:
        return (np.zeros((ambient_dim, 0), dtype=vecs.dtype),
                np.eye(ambient_dim, dtype=vecs.dtype))
    # The complement needs all ambient_dim columns of U, which the reduced
    # SVD already returns when there are at least as many vectors; the full
    # one would also build the k x k right factor, which is never used.
    u, s, _ = np.linalg.svd(vecs, full_matrices=vecs.shape[1] < ambient_dim)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > eps * max(1.0, smax)))
    return u[:, :rank], u[:, rank:]
