"""Built-in statistics systems: boltzmann, boson, fermion, quon, phase.

All presets are flip-scaled: ``T^{ij}_{kl} = q_ij delta^i_l delta^j_k`` for a
species-pair coefficient matrix q.  Bosons take q = 1, fermions q = -1,
boltzmann q = 0 (free statistics, no exchange relation), quon a real constant
q, and the phase family q_ij = exp(i Phi_ij) for a real antisymmetric Phi.
Presets with a braid operator use B = Ttilde, which satisfies the braid
relation and both consistency conditions for these tensors.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .linalg import DEFAULT_EPS, max_abs
from .operators import (
    BraidOperator,
    CrossOperator,
    StatisticsSystem,
    build_ttilde,
    check_operator_dim,
)

PRESET_NAMES = ("boltzmann", "boson", "fermion", "quon", "phase")


def scaled_flip_cross(coeffs: np.ndarray) -> CrossOperator:
    """Cross operator ``T^{ij}_{kl} = coeffs[i, j] delta^i_l delta^j_k``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[0]
    if coeffs.shape != (n, n):
        raise InvalidParams(f"coefficient matrix must be square, got {coeffs.shape}")
    t4 = np.zeros((n, n, n, n), dtype=complex)
    for i0 in range(n):
        for j0 in range(n):
            t4[j0, i0, i0, j0] = coeffs[i0, j0]
    return CrossOperator(t4.reshape(n * n, n * n))


def phase_matrix(dim: int, phi) -> np.ndarray:
    """Normalize the phase parameter to a real antisymmetric dim x dim matrix.

    Accepts a full matrix or a single angle, which is placed on every pair
    i < j (the one-parameter anyonic case).
    """
    if np.isscalar(phi):
        mat = np.zeros((dim, dim))
        angle = float(phi)
        for i in range(dim):
            for j in range(i + 1, dim):
                mat[i, j] = angle
                mat[j, i] = -angle
        return mat
    mat = np.asarray(phi, dtype=float)
    if mat.shape != (dim, dim):
        raise InvalidParams(
            f"phase matrix must have shape ({dim}, {dim}), got {mat.shape}"
        )
    if max_abs(mat + mat.T) > DEFAULT_EPS:
        raise InvalidParams("phase matrix must be antisymmetric")
    return mat


def make_preset(
    name: str,
    dim: int,
    q: float | None = None,
    phi=None,
) -> StatisticsSystem:
    """Construct a preset system; see the module docstring for the family."""
    if dim < 1:
        raise InvalidParams(f"dim must be >= 1, got {dim}")
    check_operator_dim(dim)
    if name == "boltzmann":
        coeffs = np.zeros((dim, dim))
        return StatisticsSystem(
            cross=scaled_flip_cross(coeffs), braid=None,
            label=f"boltzmann(N={dim})",
        )
    if name == "boson":
        cross = scaled_flip_cross(np.ones((dim, dim)))
        return StatisticsSystem(
            cross=cross, braid=BraidOperator(build_ttilde(cross)),
            label=f"boson(N={dim})",
        )
    if name == "fermion":
        cross = scaled_flip_cross(-np.ones((dim, dim)))
        return StatisticsSystem(
            cross=cross, braid=BraidOperator(build_ttilde(cross)),
            label=f"fermion(N={dim})",
        )
    if name == "quon":
        if q is None:
            raise InvalidParams("quon preset needs the deformation parameter q")
        if isinstance(q, complex) and q.imag != 0:
            raise InvalidParams("quon parameter must be real (star condition)")
        qval = float(q.real if isinstance(q, complex) else q)
        cross = scaled_flip_cross(qval * np.ones((dim, dim)))
        return StatisticsSystem(
            cross=cross, braid=None, label=f"quon(N={dim},q={qval!r})",
        )
    if name == "phase":
        if phi is None:
            raise InvalidParams("phase preset needs the phase parameter phi")
        mat = phase_matrix(dim, phi)
        cross = scaled_flip_cross(np.exp(1j * mat))
        return StatisticsSystem(
            cross=cross, braid=BraidOperator(build_ttilde(cross)),
            label=f"phase(N={dim})",
        )
    raise InvalidParams(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
