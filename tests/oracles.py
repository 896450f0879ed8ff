"""Independent oracles and small builders used to fix inputs and expected values.

Everything here is deliberately brute force and shares no code path with the
package: the flip matrix, Kronecker products (by numpy and by index loops),
word offsets and letter-content groups by enumeration, permutation sums for
Gram entries, the textbook q-factorial, normal ordering summed over rewrite
paths, annihilation applied word by word, and the symmetry generators of T
and B solved one first index at a time.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in complex128; block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def flip_matrix(n: int) -> np.ndarray:
    """The transposition on a two-fold tensor power: x^i (x) x^j -> x^j (x) x^i."""
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[j * n + i, i * n + j] = 1.0
    return m


def word_index(word: tuple[int, ...], n_species: int) -> int:
    """Offset of a word under the row-major flattening."""
    idx = 0
    for letter in word:
        if not 1 <= letter <= n_species:
            raise ValueError(f"letter {letter} out of range 1..{n_species}")
        idx = idx * n_species + (letter - 1)
    return idx


def content_blocks(n_species: int, n: int) -> tuple[np.ndarray, ...]:
    """Word offsets of sector n grouped by letter content, ascending in each group.

    Groups are ordered by their content, ascending as sorted-letter tuples;
    together they partition ``range(n_species**n)``.  Built by enumerating
    the words.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for offset, word in enumerate(product(range(1, n_species + 1), repeat=n)):
        groups.setdefault(tuple(sorted(word)), []).append(offset)
    return tuple(np.array(groups[key], dtype=np.intp) for key in sorted(groups))


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index loops."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


def ttilde_oracle(t4: np.ndarray) -> np.ndarray:
    """Companion tensor by explicit reindexing: out^{ij}_{kl} = in^{ki}_{lj}."""
    n = t4.shape[0]
    out = np.zeros_like(t4)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[k, l, i, j] = t4[l, j, k, i]
    return out.reshape(n * n, n * n)


def ttilde_inverse_oracle(m4: np.ndarray) -> np.ndarray:
    """Inverse of the companion reindexing: out^{ij}_{kl} = in^{jl}_{ik}."""
    n = m4.shape[0]
    out = np.zeros_like(m4)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    # in^{jl}_{ik} is stored at in[i, k, j, l]
                    out[k, l, i, j] = m4[i, k, j, l]
    return out


def inversions(sigma: tuple[int, ...]) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(len(sigma))
        for b in range(a + 1, len(sigma))
        if sigma[a] > sigma[b]
    ]


def perm_gram_entry(w: tuple[int, ...], u: tuple[int, ...], qmat: np.ndarray) -> complex:
    """<w, u> as a sum over letter-matching permutations with inversion phases.

    Sums over sigma with u[sigma(m)] = w[m] for every position m; each
    inversion (a, b) of sigma contributes the factor qmat[w_a - 1, w_b - 1].
    """
    n = len(w)
    if sorted(w) != sorted(u):
        return 0.0
    total = 0.0 + 0.0j
    for sigma in permutations(range(n)):
        if any(u[sigma[m]] != w[m] for m in range(n)):
            continue
        phase = 1.0 + 0.0j
        for a, b in inversions(sigma):
            phase *= qmat[w[a] - 1, w[b] - 1]
        total += phase
    return total


def perm_gram(n_species: int, degree: int, qmat: np.ndarray) -> np.ndarray:
    """Full sector Gram matrix from the permutation-sum oracle."""
    words = list(product(range(1, n_species + 1), repeat=degree))
    dim = len(words)
    out = np.zeros((dim, dim), dtype=complex)
    for r, w in enumerate(words):
        for c, u in enumerate(words):
            out[r, c] = perm_gram_entry(w, u, qmat)
    return out


def path_sum_normal_order(
    terms: dict, t4: np.ndarray
) -> dict[tuple, list[complex]]:
    """Contributions of every rewrite path to each normal-ordered word.

    Words are tuples of ``(kind, species)`` pairs.  Depth-first, leftmost
    pair first, with ``a(i) c(j) -> delta_ij + sum T^{ij}_{kl} c(k) a(l)``
    (``t4[k-1, l-1, i-1, j-1]``); like words are never merged and nothing is
    pruned, so the returned lists hold one entry per path.
    """
    n = t4.shape[0]
    out: dict[tuple, list[complex]] = {}
    stack = [(tuple(word), complex(coeff)) for word, coeff in terms.items()]
    while stack:
        word, coeff = stack.pop()
        pos = next((p for p in range(len(word) - 1)
                    if word[p][0] == "a" and word[p + 1][0] == "c"), None)
        if pos is None:
            out.setdefault(word, []).append(coeff)
            continue
        i, j = word[pos][1], word[pos + 1][1]
        head, tail = word[:pos], word[pos + 2:]
        if i == j:
            stack.append((head + tail, coeff))
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                t = t4[k - 1, l - 1, i - 1, j - 1]
                if t != 0:
                    stack.append((head + (("c", k), ("a", l)) + tail, coeff * t))
    return out


def annihilate_word(t4: np.ndarray, i: int, word: tuple[int, ...]) -> dict[tuple, complex]:
    """``a_i`` applied to one word by the recursion, as a dict of words.

    ``a_i (x^j w) = delta_ij w + sum_{k,l} T^{ij}_{kl} x^k a_l(w)`` with
    ``T^{ij}_{kl} = t4[k-1, l-1, i-1, j-1]``, and ``a_i`` kills the empty word.
    """
    if not word:
        return {}
    n = t4.shape[0]
    j, rest = word[0], word[1:]
    out: dict[tuple, complex] = {rest: 1.0 + 0j} if i == j else {}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            t = t4[k - 1, l - 1, i - 1, j - 1]
            if t != 0:
                for tail, c in annihilate_word(t4, l, rest).items():
                    key = (k,) + tail
                    out[key] = out.get(key, 0) + t * c
    return out


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = prod_m (1 + q + ... + q^(m-1))."""
    total = 1.0
    for m in range(1, n + 1):
        total *= sum(q**p for p in range(m))
    return total


def preset_qmat(name: str, n_species: int, q: float | None = None,
                phi: np.ndarray | None = None) -> np.ndarray:
    """Species-pair coefficient matrix of a flip-scaled preset, built from scratch."""
    if name == "boltzmann":
        return np.zeros((n_species, n_species), dtype=complex)
    if name == "boson":
        return np.ones((n_species, n_species), dtype=complex)
    if name == "fermion":
        return -np.ones((n_species, n_species), dtype=complex)
    if name == "quon":
        return q * np.ones((n_species, n_species), dtype=complex)
    if name == "phase":
        return np.exp(1j * np.asarray(phi, dtype=float))
    raise ValueError(name)


def symmetry_generators_oracle(t4s: list[tuple[np.ndarray, tuple[int, ...]]]) -> np.ndarray:
    """Hermitian X whose derivation kills every ``(t4, slots)``, one first index s at a time.

    ``slots[a]`` is -1 where tensor axis a transforms by conj(u) and +1 where
    it transforms by u.  X runs over the n x n Hermitian matrices, orthonormal
    under ``Re tr(a^* b)``; per operator and per s, the rows ``[m, s, :, :, :]``
    of the derivation by each basis element (``-conj(X_m)`` on a -1 slot, X_m
    on a +1 slot) are split into real and imaginary parts and folded into the
    triangular factor of a QR, and the null space is read off one SVD of it,
    cut at ``1e3 * eps * max(1, sigma_max)``.  Returns the ``(d, n, n)`` stack.
    """
    n = t4s[0][0].shape[0]
    herm = []
    for a in range(n):
        for b in range(a, n):
            for value in ((1.0,) if a == b else (2**-0.5, 1j * 2**-0.5)):
                mat = np.zeros((n, n), dtype=complex)
                mat[a, b] = value
                mat[b, a] = np.conj(value)
                herm.append(mat)
    herm = np.array(herm)
    tri = np.zeros((0, n * n))
    for t4, slots in t4s:
        acts = [sign * (herm.conj() if sign < 0 else herm) for sign in slots]
        for s in range(n):
            head = t4[s]
            d = (acts[0][:, :, s] @ t4.reshape(n, -1)).reshape(-1, n, n, n)
            d += np.tensordot(acts[1], head, axes=([1], [0]))
            d += np.tensordot(acts[2], head, axes=([1], [1])).transpose(0, 2, 1, 3)
            d += np.tensordot(acts[3], head, axes=([1], [2])).transpose(0, 2, 3, 1)
            rows = d.reshape(len(d), -1)
            tri = np.linalg.qr(np.vstack([tri, rows.real.T, rows.imag.T]), mode="r")
    sv, vh = np.linalg.svd(tri)[1:]
    null = vh[np.count_nonzero(sv > 1e3 * np.finfo(float).eps * max(1.0, sv[0])):]
    return np.einsum("dm,mab->dab", null, herm)
