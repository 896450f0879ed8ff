from __future__ import annotations

import numpy as np
import pytest

from wickforge import make_preset
from wickforge.fock import clear_cache
from wickforge.operators import BraidOperator, CrossOperator, StatisticsSystem

from oracles import preset_qmat


def phase_phi(n_species: int, angle: float) -> np.ndarray:
    """Antisymmetric phase matrix with the angle on the (1, 2) pair only."""
    phi = np.zeros((n_species, n_species))
    if n_species >= 2:
        phi[0, 1] = angle
        phi[1, 0] = -angle
    return phi


def acceptance_systems(n_species: int):
    """The preset battery used throughout: (system, oracle coefficient matrix)."""
    angle = np.pi / 3
    phi = phase_phi(n_species, angle)
    return [
        (make_preset("boson", n_species), preset_qmat("boson", n_species)),
        (make_preset("fermion", n_species), preset_qmat("fermion", n_species)),
        (make_preset("boltzmann", n_species), preset_qmat("boltzmann", n_species)),
        (make_preset("quon", n_species, q=0.5), preset_qmat("quon", n_species, q=0.5)),
        (make_preset("quon", n_species, q=-0.5), preset_qmat("quon", n_species, q=-0.5)),
        (make_preset("quon", n_species, q=1.0), preset_qmat("quon", n_species, q=1.0)),
        (make_preset("phase", n_species, phi=phi), preset_qmat("phase", n_species, phi=phi)),
    ]


def twisted_ccr(n_species: int, mu: float) -> StatisticsSystem:
    """Pusz-Woronowicz twisted CCR: a graded system that is not flip-scaled.

    ``T^{ij}_{ji} = mu`` for i != j, ``T^{ii}_{ii} = mu^2`` and
    ``T^{ii}_{kk} = -(1 - mu^2)`` for k < i; no braid.
    """
    t = np.zeros((n_species,) * 4, dtype=complex)  # t[k, l, i, j] = T^{ij}_{kl}
    for i in range(n_species):
        for j in range(n_species):
            if i != j:
                t[j, i, i, j] = mu
        t[i, i, i, i] = mu * mu
        for k in range(i):
            t[k, k, i, i] = -(1 - mu * mu)
    return StatisticsSystem(cross=CrossOperator(t.reshape(n_species**2, n_species**2)),
                            label=f"twisted-ccr(mu={mu})")


def multi_q(n_species: int, rng: np.random.Generator) -> StatisticsSystem:
    """Flip-scaled T with a random real symmetric q, 0.1 <= |q_ij| < 0.8; no braid."""
    signed = rng.uniform(0.1, 0.8, (n_species, n_species)) * rng.choice((-1, 1), (n_species,) * 2)
    qmat = np.triu(signed) + np.triu(signed, 1).T
    t = np.zeros((n_species,) * 4, dtype=complex)  # t[k, l, i, j] = T^{ij}_{kl}
    for i in range(n_species):
        for j in range(n_species):
            t[j, i, i, j] = qmat[i, j]
    return StatisticsSystem(cross=CrossOperator(t.reshape(n_species**2, n_species**2)),
                            label="multi-q")


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qmat, rmat = np.linalg.qr(z)
    d = np.diagonal(rmat)
    return qmat * (d / np.abs(d))


def haar_rotated(system: StatisticsSystem, rng: np.random.Generator) -> StatisticsSystem:
    """The same statistics in the basis ``x'_p = sum_j u[j, p] x^j`` for a Haar u.

    Every law and Gram verdict is basis independent; the grading by letter
    content is not.
    """
    n = system.dim
    u = haar_unitary(rng, n)
    uc = u.conj()
    cross = np.einsum("ks,lt,ip,jr,klij->stpr", uc, u, uc, u, system.cross.tensor())
    braid = None
    if system.braid is not None:
        braid = BraidOperator(np.einsum("ks,lt,ip,jr,klij->stpr", uc, uc, u, u,
                                        system.braid.tensor()).reshape(n * n, n * n))
    return StatisticsSystem(cross=CrossOperator(cross.reshape(n * n, n * n)),
                            braid=braid, label=f"rotated {system.label}")


@pytest.fixture
def twisted2():
    return twisted_ccr(2, 0.6)


@pytest.fixture
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def boson2():
    return make_preset("boson", 2)


@pytest.fixture
def fermion2():
    return make_preset("fermion", 2)


@pytest.fixture
def boltzmann2():
    return make_preset("boltzmann", 2)


@pytest.fixture
def quon1_half():
    return make_preset("quon", 1, q=0.5)
