"""Seeded inputs for the wickforge benchmark: operator files and session lists.

A *session* is what a user does with one system: ``validate``, then ``gram
--sector n``, then ``quotient --max-sector m`` when the system has a braid.
For ``wick`` a session is one ``normal-order --verify`` call.  Every system
reaches the program through ``--file``.

Parameters come from one RNG stream and the rotating unitaries from an
independent one, so a ``rotated`` system has exactly the parameters of its
``graded`` twin.  The systems are written here from their defining formulas,
not through wickforge, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import comb

import numpy as np

WORKLOADS = ("graded", "rotated", "wick")

#: Tolerance passed to the program and used by the result gate (its default).
EPS = 1e-9


@dataclass
class Call:
    """One CLI invocation and the verdicts known for it without running it."""

    kind: str           # validate | gram | quotient | normal-order
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Session:
    name: str
    calls: list[Call]


# ---------------------------------------------------------------------------
# Systems, as 4-index tensors t[k, l, i, j] = T^{ij}_{kl}
# ---------------------------------------------------------------------------

def flip_scaled(q: np.ndarray) -> np.ndarray:
    """``T^{ij}_{kl} = q_ij delta^i_l delta^j_k``."""
    n = q.shape[0]
    t = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            t[j, i, i, j] = q[i, j]
    return t


def multi_q(rng: np.random.Generator, n: int, min_abs: float = 0.0) -> np.ndarray:
    """Real symmetric q_ij with min_abs <= |q_ij| < 0.8 and a random sign; no braid.

    The bound is 0.8, not 0.9: with |q| up to 0.9 a sector-10 Gram can reach
    sigma_min / sigma_max = 1.4e-10 < eps, and the rank verdict then reports a
    kernel in a Gram matrix that is positive definite.
    """
    signed = rng.uniform(min_abs, 0.8, size=(n, n)) * rng.choice((-1.0, 1.0), size=(n, n))
    upper = np.triu(signed)
    return flip_scaled(upper + np.triu(upper, 1).T)


def twisted_ccr(rng: np.random.Generator, n: int, mu_min: float = 0.2) -> np.ndarray:
    """Pusz-Woronowicz twisted CCR with mu in (mu_min, 0.9); no braid.

    ``T^{ij}_{ji} = mu`` (i != j), ``T^{ii}_{ii} = mu^2`` and
    ``T^{ii}_{kk} = -(1 - mu^2)`` for k < i.
    """
    mu = rng.uniform(mu_min, 0.9)
    t = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                t[j, i, i, j] = mu
        t[i, i, i, i] = mu * mu
        for k in range(i):
            t[k, k, i, i] = -(1 - mu * mu)
    return t


def phase(rng: np.random.Generator, n: int) -> np.ndarray:
    """q_ij = exp(i Phi_ij) for a random real antisymmetric Phi; braid B = Ttilde."""
    upper = np.triu(rng.uniform(-np.pi, np.pi, size=(n, n)), 1)
    return flip_scaled(np.exp(1j * (upper - upper.T)))


def ttilde(t: np.ndarray) -> np.ndarray:
    """``(Ttilde)^{ij}_{kl} = T^{ki}_{lj}`` as a tensor ``b[k, l, i, j]``."""
    return t.transpose(2, 0, 3, 1)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qmat, rmat = np.linalg.qr(z)
    d = np.diagonal(rmat)
    return qmat * (d / np.abs(d))


def rotate_cross(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """T in the basis ``x'_p = sum_j u[j, p] x^j`` of E (E* transforms by conj(u))."""
    uc = u.conj()
    return np.einsum("ks,lt,ip,jr,klij->stpr", uc, u, uc, u, t)


def rotate_braid(b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """B conjugated by u (x) u on E (x) E."""
    uc = u.conj()
    return np.einsum("ks,lt,ip,jr,klij->stpr", uc, uc, u, u, b)


def _entries(t: np.ndarray) -> list[list]:
    """Nonzero ``[i, j, k, l, re, im]`` rows, 1-based, as the operator-file schema wants."""
    n = t.shape[0]
    rows = []
    for k, l, i, j in zip(*np.nonzero(t)):
        v = complex(t[k, l, i, j])
        rows.append([int(i) + 1, int(j) + 1, int(k) + 1, int(l) + 1, v.real, v.imag])
    rows.sort()
    return rows


def write_system(path: str, t: np.ndarray, b: np.ndarray | None, label: str) -> None:
    payload = {
        "dim": t.shape[0],
        "cross": _entries(t),
        "braid": None if b is None else _entries(b),
        "label": label,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Session lists
# ---------------------------------------------------------------------------

FAMILIES = {"multiq": multi_q, "twisted": twisted_ccr, "phase": phase}

#: Gram sectors per family for N = 2 and N = 3; session k of every family uses
#: the k-th size, and the three families alternate.  Quotients go to max-sector
#: n - 4 for N = 2 and to 4 for N = 3.  Sectors stop where the verdicts of the
#: program are still right for every seed: Gram entries grow like n!, and the
#: absolute tolerance eps then fails first for phase systems (at N = 2, sector
#: 9, min_eig already reaches -7.6e-10 on rotated systems; at sector 10 they are
#: reported not PSD or not Hermitian) and next for twisted CCR.
GRADED_SIZES = {
    "multiq": ((2, 8), (2, 9), (2, 9), (2, 10), (3, 5), (3, 6), (3, 6)),
    "twisted": ((2, 8), (2, 9), (2, 9), (2, 9), (3, 5), (3, 6), (3, 6)),
    "phase": ((2, 7), (2, 8), (2, 8), (2, 8), (3, 5), (3, 6), (3, 6)),
}
SMOKE_SIZES = {family: ((2, 4), (2, 5), (3, 3)) for family in ("multiq", "twisted", "phase")}


def _pbw_dim(n_species: int, n: int) -> int:
    """Symmetric-power dimension C(n + N - 1, N - 1)."""
    return comb(n + n_species - 1, n_species - 1)


def _gram_expect(family: str, n_species: int, n: int) -> dict:
    expect = {"rc": 0, "dim": n_species**n, "hermitian": True, "psd": True}
    if family == "multiq":
        # |q_ij| < 1: the Gram matrix is strictly positive (Bozejko-Speicher).
        expect.update(kernel_dim=0, pd=True)
    else:
        # Twisted CCR and phase systems have a PBW basis of ordered monomials,
        # so the Fock kernel has codimension C(n + N - 1, N - 1).
        expect.update(kernel_dim=n_species**n - _pbw_dim(n_species, n),
                      pd=n < 2)
    return expect


def graded_sessions(seed: int, workdir: str, rotated: bool,
                    sizes=GRADED_SIZES) -> list[Session]:
    """Write the operator files for ``graded`` or ``rotated`` and list the sessions."""
    params = np.random.default_rng([seed, 1])
    unitaries = np.random.default_rng([seed, 2])
    sessions = []
    order = [(fam, size) for k in range(len(sizes["multiq"]))
             for fam, size in ((f, sizes[f][k]) for f in FAMILIES)]
    for idx, (family, (n_species, n)) in enumerate(order):
        t = FAMILIES[family](params, n_species)
        b = ttilde(t) if family == "phase" else None
        if rotated:
            u = haar_unitary(unitaries, n_species)
            t = rotate_cross(t, u)
            b = None if b is None else rotate_braid(b, u)
        name = f"{idx:02d}-{family}-N{n_species}-n{n}"
        path = os.path.join(workdir, name + ".json")
        write_system(path, t, b, name)
        src = ["--file", path]
        calls = [
            Call("validate", ["validate", *src, "--json"], {"rc": 0, "passed": True}),
            Call("gram", ["gram", *src, "--sector", str(n), "--json"],
                 _gram_expect(family, n_species, n)),
        ]
        if b is not None:
            top = n - 4 if n_species == 2 else 4
            calls.append(Call(
                "quotient", ["quotient", *src, "--max-sector", str(top), "--json"],
                {"rc": 0, "well_defined": True,
                 "quotient_dims": [_pbw_dim(n_species, m) for m in range(top + 1)]},
            ))
        sessions.append(Session(name, calls))
    return sessions


#: Request classes of ``wick``: (family, N, letter content of the annihilator
#: word, letter content of the creator word, --max-sector, count, seeded
#: letters).  Each word is k annihilators then k' creators with the given
#: letter counts.  With seeded letters the seed orders them; for flip-scaled
#: systems the number of rewrite paths depends only on the content, so the
#: work repeats across seeds.  Twisted-CCR words are fixed (only mu is
#: seeded): their rewrite tree size varies by a factor of 2 to 4 with the
#: letter order, which would swamp any timing.
WICK_CLASSES = (
    ("multiq", 2, (4, 4), (4, 4), 2, 6, True),
    ("twisted", 2, (3, 3), (3, 3), 2, 6, False),
    ("phase", 3, (2, 2, 1), (1, 2, 2), 2, 8, True),
    ("phase", 3, (1, 1, 0), (0, 1, 1), 5, 2, True),
    ("phase", 3, (1, 0, 0), (0, 1, 0), 6, 2, True),
)
#: Parameter draws of ``wick``.  The program drops normal-form terms whose
#: coefficient is at most 1e-9 in absolute value, so products of many small
#: q or mu make ``--verify`` fail (exit 1) on valid input: multi-q with
#: q_11 = -0.046 leaves a residual of 1.2e-9.  Keeping |q| >= 0.4 and
#: mu >= 0.5 keeps every path coefficient above 1e-6.
WICK_FAMILIES = {
    "multiq": lambda rng, n: multi_q(rng, n, min_abs=0.4),
    "twisted": lambda rng, n: twisted_ccr(rng, n, mu_min=0.5),
    "phase": phase,
}
SMOKE_WICK_CLASSES = (
    ("multiq", 2, (2, 1), (1, 2), 2, 1, True),
    ("twisted", 2, (1, 1), (1, 1), 2, 1, False),
    ("phase", 3, (1, 1, 0), (0, 1, 1), 2, 1, True),
    ("phase", 3, (1, 0, 0), (1, 1, 0), 3, 1, True),
)


def _letters(rng: np.random.Generator, content) -> list[int]:
    letters = [s + 1 for s, count in enumerate(content) for _ in range(count)]
    return [int(x) for x in rng.permutation(letters)]


def wick_sessions(seed: int, workdir: str, classes=WICK_CLASSES) -> list[Session]:
    """Write one operator file per request and list the normal-order requests."""
    rng = np.random.default_rng([seed, 3])
    fixed = np.random.default_rng(0)
    sessions = []
    idx = 0
    for family, n_species, a_content, c_content, top, count, seeded in classes:
        for _ in range(count):
            t = WICK_FAMILIES[family](rng, n_species)
            b = ttilde(t) if family == "phase" else None
            letter_rng = rng if seeded else fixed
            word = " ".join([f"a({x})" for x in _letters(letter_rng, a_content)]
                            + [f"c({x})" for x in _letters(letter_rng, c_content)])
            name = f"{idx:02d}-{family}-N{n_species}-s{top}"
            path = os.path.join(workdir, name + ".json")
            write_system(path, t, b, name)
            argv = ["normal-order", word, "--file", path, "--verify",
                    "--max-sector", str(top), "--json"]
            sessions.append(Session(name, [Call("normal-order", argv,
                                                {"rc": 0, "residual_ok": True})]))
            idx += 1
    return sessions


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Session]:
    """Generate and write the inputs of one workload; return its sessions."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    if workload == "wick":
        return wick_sessions(seed, workdir, SMOKE_WICK_CLASSES if smoke else WICK_CLASSES)
    sizes = SMOKE_SIZES if smoke else GRADED_SIZES
    return graded_sessions(seed, workdir, workload == "rotated", sizes)
