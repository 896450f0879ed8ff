"""Fock-space representation built sector by sector.

Degree-n sectors are spanned by the N^n words of length n over the species
alphabet 1..N, in lexicographic order (which coincides with the global
row-major flattening).  Creation prepends a letter; annihilation acts by the
one-step recursion

    a_i (x^j (x) w) = delta_ij * w + sum_{k,l} T^{ij}_{kl} * x^k (x) a_l(w),
    a_i |0> = 0,

whose matrix form drives the Gram recursion and everything downstream.  The
vacuum is normalized to <0|0> = 1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import NoBraid, NotWellDefined, SizeLimit
from .linalg import (
    dagger,
    eye,
    hermitian_spectrum,
    kernel_basis,
    max_abs,
    resolve_eps,
    span_and_complement,
)
from .operators import (
    ROUNDING,
    StatisticsSystem,
    build_ttilde,
    change_basis,
    graded_part,
    is_graded,
    preserves_content,
    weight_basis,
)

#: Hard ceiling on sector dimension N^n; exceeding it raises SizeLimit.
SECTOR_CAP = 100_000

#: Hard ceiling on the entries of one dense matrix built from sectors (256 MiB
#: of complex entries); exceeding it raises SizeLimit.
ENTRY_CAP = 2**24

Word = tuple[int, ...]

_CACHE_LOCK = threading.Lock()
_CACHE: dict[tuple, object] = {}


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _cache_get(key):
    with _CACHE_LOCK:
        return _CACHE.get(key)


def _cache_put(key, value):
    with _CACHE_LOCK:
        return _CACHE.setdefault(key, value)


def _sector_dim(n_species: int, n: int) -> int:
    """Dimension N^n of sector n: the one size rule, raising SizeLimit above the cap."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    dim = n_species**n
    if dim > SECTOR_CAP:
        raise SizeLimit(f"sector dimension {dim} exceeds cap {SECTOR_CAP}")
    return dim


def _check_entries(rows: int, cols: int, what: str, held: int = 0) -> None:
    """The size rule for one dense matrix built from sectors, raising SizeLimit above the cap.

    Checked before allocating every matrix whose size a sector does not bound
    by itself, here and in :func:`~wickforge.wick.evaluation_blocks`.  A set
    of matrices that stands for one dense matrix (the pieces of an evaluation
    block) is bounded as a whole: ``held`` counts the entries of the set
    allocated before this one.
    """
    if held + rows * cols > ENTRY_CAP:
        raise SizeLimit(f"{what} of {rows} x {cols} entries exceeds cap {ENTRY_CAP}"
                        + (f" with the {held} entries held beside it" if held else ""))


def _scatter(shape: tuple[int, int], what: str, parts) -> np.ndarray:
    """Read-only zeros with each ``(rows, cols, part)`` placed, capped before ``parts`` is read."""
    _check_entries(*shape, what)
    mat = np.zeros(shape, dtype=complex)
    for rows, cols, part in parts:
        mat[rows[:, None], cols] = part
    mat.setflags(write=False)
    return mat


def _check_species(system: StatisticsSystem, i: int) -> None:
    if not 1 <= i <= system.dim:
        raise ValueError(f"species {i} out of range 1..{system.dim}")


def word_index(word: Word, n_species: int) -> int:
    """Offset of a word under the row-major flattening."""
    idx = 0
    for letter in word:
        if not 1 <= letter <= n_species:
            raise ValueError(f"letter {letter} out of range 1..{n_species}")
        idx = idx * n_species + (letter - 1)
    return idx


@dataclass(frozen=True, eq=False)
class QuotientData:
    """Representatives of TE/I inside a sector: complement basis and projector."""

    complement_basis: np.ndarray  # N^n x d', orthonormal columns

    @cached_property
    def projector(self) -> np.ndarray:
        """The N^n x N^n Hermitian idempotent onto the complement, built on first use."""
        rows = self.complement_basis.shape[0]
        _check_entries(rows, rows, "quotient projector")
        projector = self.complement_basis @ dagger(self.complement_basis)
        projector.setflags(write=False)
        return projector

    @property
    def dim(self) -> int:
        return self.complement_basis.shape[1]


@dataclass(frozen=True, eq=False)
class FockSector:
    n: int
    dim_full: int
    basis: tuple[Word, ...]
    quotient: QuotientData | None = None


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """A sector Gram matrix, held as its diagonal blocks on the sector's word blocks.

    ``blocks[b]`` is the Gram matrix on the words ``words[b]`` (ascending
    offsets; see :func:`word_blocks`); entries between different blocks are
    zero.  ``mat`` is the dense matrix, the blocks scattered into zeros (or
    the one block itself), built on first use.
    """

    n: int
    words: tuple
    blocks: tuple

    @cached_property
    def mat(self) -> np.ndarray:
        if len(self.blocks) == 1:
            return self.blocks[0]
        return _scatter((self.dim, self.dim), "dense Gram matrix",
                        zip(self.words, self.words, self.blocks))

    @property
    def dim(self) -> int:
        return sum(block.shape[0] for block in self.blocks)


@dataclass(frozen=True)
class PositivityReport:
    n: int
    min_eig: float | None
    kernel_dim: int
    positive_semidefinite: bool
    positive_definite: bool


def sector_basis(n_species: int, n: int) -> FockSector:
    """All words of length n over 1..n_species, lexicographic."""
    if n_species < 1:
        raise ValueError(f"need at least one species, got {n_species}")
    dim = _sector_dim(n_species, n)
    words = tuple(product(range(1, n_species + 1), repeat=n))
    return FockSector(n=n, dim_full=dim, basis=words)


def creation_rows(system: StatisticsSystem, i: int, n: int) -> slice:
    """Rows of sector n+1 that w -> x^i (x) w fills from sector n: one row block.

    Creation prepends the letter i, so it places sector n, unchanged, in row
    block i of sector n+1.
    """
    _check_species(system, i)
    size = _sector_dim(system.dim, n)
    _sector_dim(system.dim, n + 1)
    return slice((i - 1) * size, i * size)


def creation_matrix(system: StatisticsSystem, i: int, n: int) -> np.ndarray:
    """Matrix of w -> x^i (x) w from sector n to sector n+1."""
    rows = creation_rows(system, i, n)
    size = rows.stop - rows.start
    mat = np.zeros((_sector_dim(system.dim, n + 1), size), dtype=complex)
    mat[rows] = eye(size)
    return mat


def _annihilation_slices(
    system: StatisticsSystem, m: int
) -> tuple[tuple[np.ndarray | None, ...], ...]:
    """Per word block c of sector m >= 1 (:func:`word_blocks`): ``A_i[c - e_i, c]`` at index i0.

    Letters that c lacks get None.  The rows of a slice are the block c - e_i
    of sector m-1 that the head of letter i names, its columns the words of
    c.  Block c's slices are one step of :func:`_annihilate_placed` on its
    identity over the slices of degree m-1: the identity on column run i, plus
    ``T^{ij}_{kl}`` times slice l of block c - e_j in row run k and column
    run j, for every nonzero of T in the order of ``np.nonzero(T)``.  The
    blocks are the system's own (:func:`_labels`): by letter content when T
    is graded (then row run k of block c - e_i holds exactly the rows of
    slice l of block c - e_j), and otherwise the whole sector, whose slices
    are the dense levels.
    """
    key = ("annihilation", system.content_key, m)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    n_sp = system.dim
    _, heads, sizes, _ = _content_heads(_labels(system), m)
    for runs, size in zip(heads, sizes):  # refused before the recursion builds anything
        for _, lo, hi in runs.values():
            _check_entries(hi - lo, size, "annihilation slice")
    walk = _Walk(system, m - 1)
    out = []
    for b, (runs, size) in enumerate(zip(heads, sizes)):
        slices = [None] * n_sp
        for i0, (_, lo, hi) in runs.items():
            slices[i0] = np.zeros((hi - lo, size), dtype=complex)
        _annihilate_placed(walk, m, b, slice(0, size), None, walk.species[-1], slices)
        for mat in slices:
            if mat is not None:
                mat.setflags(write=False)
        out.append(tuple(slices))
    return _cache_put(key, tuple(out))


def annihilation_matrix(system: StatisticsSystem, i: int, n: int) -> np.ndarray:
    """Matrix of the annihilation recursion from sector n to sector n-1.

    A sector of one block returns its cached slice.  The level of a sector
    of several blocks is checked against the entry cap, then scattered from
    the slices (:func:`_letter_parts`) on each call, not cached.
    """
    _check_species(system, i)
    if n < 1:
        raise ValueError(f"annihilation needs degree >= 1, got {n}")
    n_sp = system.dim
    _sector_dim(n_sp, n)
    if len(_content_heads(_labels(system), n)[2]) == 1:
        return _annihilation_slices(system, n)[0][i - 1]
    return _scatter((n_sp ** (n - 1), n_sp**n), "annihilation level",
                    _letter_parts(system, i - 1, n))


def _letter_parts(system: StatisticsSystem, i0: int, n: int):
    """``(rows, cols, A_i[c - e_i, c])`` for each word block c of sector n >= 1 holding letter i0 + 1.

    ``cols`` are the word offsets of c and ``rows`` those of c - e_i in
    sector n-1 (:func:`word_blocks`); the slices are built on the first step.
    """
    labels = _labels(system)
    heads = _content_heads(labels, n)[1]
    below, words = _content_partition(labels, n - 1), _content_partition(labels, n)
    slices = _annihilation_slices(system, n)
    for b, runs in enumerate(heads):
        if i0 in runs:
            yield below[runs[i0][0]], words[b], slices[b][i0]


def _walk_species(system: StatisticsSystem) -> tuple:
    """Per species index s0, then for all species: the species set needed and the T nonzeros read.

    The set is the smallest one that holds s0 (all, in the last entry) and
    every l of a nonzero ``T^{ij}_{kl}`` with i in it (``{s0}`` for a
    flip-scaled T).  The nonzeros are listed per first letter j0 as ``(k0,
    l0, i0, T^{i0 j0}_{k0 l0})``, i0 in the set, in the order of ``np.nonzero``.
    """
    key = ("walkspecies", system.content_key)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    n_sp = system.dim
    t4 = system.cross.tensor()
    nonzeros = list(zip(*(idx.tolist() for idx in np.nonzero(t4))))
    feeds = [{l0 for _, l0, i0, _ in nonzeros if i0 == s0} for s0 in range(n_sp)]
    by_first = [[] for _ in range(n_sp)]
    for k0, l0, i0, j0 in nonzeros:
        by_first[j0].append((k0, l0, i0, t4[k0, l0, i0, j0]))
    out = []
    for start in [{s0} for s0 in range(n_sp)] + [set(range(n_sp))]:
        closed, todo = set(start), list(start)
        while todo:
            new = feeds[todo.pop()] - closed
            closed |= new
            todo.extend(new)
        rules = tuple(tuple(rule for rule in row if rule[2] in closed) for row in by_first)
        out.append((tuple(sorted(closed)), rules))
    return _cache_put(key, tuple(out))


class _Walk:
    """The lookups of one recursion on the word blocks of sector ``floor``, read without locks.

    The blocks are the system's own, grouped by the letter ``labels``
    (:func:`_labels`).  :meth:`level` reads the heads, sizes and growth of a
    sector and :meth:`slices` the annihilation slices of a degree ``<=
    floor``; each takes the cache lock once per degree and call.
    ``species[i0]`` is what ``A_i0`` needs of T (:func:`_walk_species`).
    """

    def __init__(self, system: StatisticsSystem, floor: int):
        self.system, self.n_species, self.floor = system, system.dim, floor
        self.labels = _labels(system)
        self.species = _walk_species(system)
        self._levels = {}
        self._slices = {}

    def level(self, d: int) -> tuple:
        """``(heads, sizes, grow)`` of sector d (:func:`_content_heads`), checked against the sector cap.

        No word offsets are formed, so none for the degrees above ``floor``
        that the walk passes through.
        """
        found = self._levels.get(d)
        if found is None:
            _sector_dim(self.n_species, d)
            found = self._levels[d] = _content_heads(self.labels, d)[1:]
        return found

    def slices(self, m: int) -> tuple:
        """The annihilation slices of sector ``1 <= m <= floor`` on the walk's blocks."""
        found = self._slices.get(m)
        if found is None:
            found = self._slices[m] = _annihilation_slices(self.system, m)
        return found


def _annihilate_placed(
    walk: _Walk, m: int, b: int, rows: slice, block: np.ndarray | None, species: tuple,
    out: list | None = None,
) -> list[np.ndarray | None]:
    """``A_l`` applied to a column block placed in word block b of sector m, for l in a species set.

    The block (``None``: the identity) fills positions ``rows`` of block b;
    the other rows are zero.  ``species`` is an entry of ``walk.species``.
    Entry l of the result is ``A_l`` of the block on the rows of block ``b -
    e_l`` of sector m-1 (the head of letter l), for each l of the set whose
    letter block b holds, and None otherwise.  At degrees ``m <= floor`` the
    slices ``A_l[b - e_l, b]`` are read on those columns.  Above ``floor``
    the one-step recursion acts instead, adding into ``out`` when the caller
    has allocated it (zeros or None per species) and otherwise into zeros
    allocated here, the entries of all species bounded together by the
    entry cap.  The rows are split by the first-letter runs of block b, each
    live tail is annihilated one degree down in its block p, and ``A_i``
    collects ``delta_ij tail + sum T^{ij}_{kl} x^k (x) A_l(tail)``, the
    second term in run k of block ``b - e_i`` (for the identity, in the
    columns of run j).  No slice above ``floor`` is built.  On a one-block
    partition this is the recursion on the whole sector.
    """
    wanted, rules = species
    if m <= walk.floor:
        out = [None] * walk.n_species
        found = walk.slices(m)[b]
        for l0 in wanted:
            if found[l0] is not None:
                out[l0] = found[l0][:, rows] if block is None else found[l0][:, rows] @ block
        return out
    runs = walk.level(m)[0][b]
    tails, below, _ = walk.level(m - 1)
    if out is None:
        width = rows.stop - rows.start if block is None else block.shape[1]
        targets = [(i0, runs[i0][0]) for i0 in wanted if i0 in runs]
        _check_entries(sum(below[p] for _, p in targets), width, "placed annihilation stack")
        out = [None] * walk.n_species
        for i0, p in targets:
            out[i0] = np.zeros((below[p], width), dtype=complex)
    first, last = rows.start, rows.stop
    for j0, (p, lo, hi) in runs.items():
        start, stop = (lo if lo > first else first), (hi if hi < last else last)
        if start >= stop:
            continue
        part = None if block is None else block[start - first:stop - first]
        if part is not None and not np.count_nonzero(part):
            continue
        cols = slice(start - first, stop - first) if part is None else slice(None)
        tail = start - lo
        if out[j0] is not None:
            if part is None:
                diag = np.arange(stop - start)
                out[j0][tail + diag, start - first + diag] = 1.0
            else:
                out[j0][tail:tail + part.shape[0]] += part
        if m == 1:
            continue
        inner = _annihilate_placed(walk, m - 1, p, slice(tail, tail + stop - start), part, species)
        for k0, l0, i0, coeff in rules[j0]:
            if inner[l0] is not None:
                _, top, bottom = tails[runs[i0][0]][k0]
                out[i0][top:bottom, cols] += coeff * inner[l0]
    return out


def _gram(system: StatisticsSystem, n: int) -> GramMatrix:
    """The cached Gram matrix of sector n, its blocks built from those of sector n-1."""
    key = ("gram", system.content_key, n)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    labels = _labels(system)
    _, heads, sizes, _ = _content_heads(labels, n)
    if n == 0:
        blocks = (np.ones((1, 1), dtype=complex),)
    else:
        for size in sizes:  # refused before the recursion builds anything
            _check_entries(size, size, "Gram block")
        prev = _gram(system, n - 1).blocks
        blocks = tuple(np.vstack([prev[p] @ slices[i0] for i0, (p, _, _) in runs.items()])
                       for runs, slices in zip(heads, _annihilation_slices(system, n)))
    for block in blocks:
        block.setflags(write=False)
    return _cache_put(key, GramMatrix(n=n, words=_content_partition(labels, n), blocks=blocks))


def gram_matrix(system: StatisticsSystem, n: int) -> GramMatrix:
    """Sector Gram matrix of the scalar product making creators adjoint, on :func:`word_blocks`.

    G_0 = [[1]].  The (i, j) species block of G_n is ``G_{n-1} A_i C_j``, so
    G_n stacks ``G_{n-1} A_i`` row-blockwise.  Within block c, the words
    beginning with letter i have their tails in one block c - e_i of sector
    n-1, and ``A_i`` maps block c into it, so block c is the stack over i of
    ``G_{n-1}[c - e_i] @ A_i[c - e_i, c]``, rows in ascending word offset.
    Only those slices are built (:func:`_annihilation_slices`); when the
    sector is one block, they are the dense levels.
    """
    _sector_dim(system.dim, n)
    return _gram(system, n)


def quotient_gram(system: StatisticsSystem, n: int,
                  eps: float | None = None) -> GramMatrix:
    """Gram matrix compressed to the quotient representatives of sector n."""
    q = quotient_sector(system, n, eps=eps).quotient.complement_basis
    mat = dagger(q) @ gram_matrix(system, n).mat @ q
    return GramMatrix(n=n, words=(np.arange(q.shape[1]),), blocks=(mat,))


def _labels(system: StatisticsSystem) -> tuple[int, ...]:
    """The block label of each letter: its own when T is graded and B, if any, preserves content.

    Otherwise every letter has label 0, and each sector is one block.
    """
    key = ("labels", system.content_key)
    cached = _cache_get(key)
    if cached is None:
        braid = system.braid
        graded = is_graded(system.cross) and (braid is None or preserves_content(braid))
        cached = _cache_put(key, tuple(range(system.dim)) if graded else (0,) * system.dim)
    return cached


def _content_heads(labels: tuple[int, ...], n: int) -> tuple:
    """The word blocks of sector n without their words: (counts, heads, sizes, grow).

    ``labels[j0]`` is the label of letter j0 + 1 (:func:`_labels`).  A block
    holds the words with one count of each label, ``counts[b]``, and
    ``sizes[b]`` is its number of words.  Blocks are numbered in descending
    order of their count tuples (for distinct labels, ascending order of
    their sorted-letter tuples).  Sector n grows from sector n-1: the word
    ``x^j (x) w`` has the counts of w plus one of the label of j, and the
    words of block p with letter j0 + 1 prepended form one run of the block
    of those counts.  The head ``{j0: (p, lo, hi)}`` of a block says that
    its words beginning with letter j0 + 1 sit at positions ``lo:hi`` of the
    block (ascending offsets put them in one run), and that their tails are
    the words of block p of sector n-1, in the same order.  ``grow[j0][p] =
    (b, lo)`` inverts the heads: letter j0 + 1 prepended to block p of
    sector n-1 gives the run of block b that starts at ``lo`` (None at n =
    0).  With every label 0 the sector is one block of ``N^n`` words, with
    the head ``{j0: (0, j0 N^(n-1), (j0 + 1) N^(n-1))}``.
    """
    key = ("heads", labels, n)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    _sector_dim(len(labels), n)
    if n == 0:
        return _cache_put(key, (((0,) * (max(labels) + 1),), ({},), (1,), None))
    prev_counts, _, prev_sizes, _ = _content_heads(labels, n - 1)
    grown = [[c[:k] + (c[k] + 1,) + c[k + 1:] for c in prev_counts] for k in labels]
    counts = sorted({c for row in grown for c in row}, reverse=True)
    index = {c: b for b, c in enumerate(counts)}
    heads = tuple({} for _ in counts)
    grow = tuple([None] * len(prev_counts) for _ in labels)
    fill = [0] * len(counts)
    for j0, row in enumerate(grown):
        for p, c in enumerate(row):
            b = index[c]
            heads[b][j0] = (p, fill[b], fill[b] + prev_sizes[p])
            grow[j0][p] = (b, fill[b])
            fill[b] += prev_sizes[p]
    return _cache_put(key, (tuple(counts), heads, tuple(fill), grow))


def _content_partition(labels: tuple[int, ...], n: int) -> tuple[np.ndarray, ...]:
    """Word offsets of the blocks of sector n (:func:`_content_heads`), ascending in each block.

    Run j0 of block b holds the words of its block p of sector n-1 with
    letter j0 + 1 prepended, that is the offsets of block p plus ``j0 *
    N^(n-1)``, so the runs in order give the ascending offsets of block b.
    """
    key = ("blocks", labels, n)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    heads = _content_heads(labels, n)[1]
    if n == 0:
        blocks = (np.zeros(1, dtype=np.intp),)
    else:
        prev = _content_partition(labels, n - 1)
        size = len(labels) ** (n - 1)
        blocks = tuple(np.concatenate([j0 * size + prev[p] for j0, (p, _, _) in runs.items()])
                       for runs in heads)
    for arr in blocks:
        arr.setflags(write=False)
    return _cache_put(key, blocks)


def content_blocks(n_species: int, n: int) -> tuple[np.ndarray, ...]:
    """Word offsets of sector n grouped by letter content, ascending in each group.

    Groups are ordered by their content, ascending as sorted-letter tuples;
    together they partition ``range(n_species**n)``.
    """
    return _content_partition(tuple(range(n_species)), n)


def _weight_form(system: StatisticsSystem) -> tuple[np.ndarray, StatisticsSystem]:
    """The weight basis W of the system and the system in it, graded if possible.

    A system graded as given, each letter with its own label (:func:`_labels`),
    is its own weight form, with ``W = 1``.  Otherwise T and B are moved to
    the basis of :func:`~wickforge.operators.weight_basis` and cut to the
    graded patterns (:func:`~wickforge.operators.graded_part`); the cut form
    is accepted only when the entries it drops are rounding, at most
    ``ROUNDING * max(1, max|T|, max|B|)``.  A system without such a torus
    keeps ``W = 1`` and itself, one block per sector.  Every basis-invariant
    verdict (Gram spectra, ideal and quotient dimensions) can be taken on it.
    """
    if len(set(_labels(system))) == system.dim:
        return eye(system.dim), system
    key = ("weight", system.content_key)
    cached = _cache_get(key)
    if cached is None:
        w = weight_basis(system)
        graded, dropped = graded_part(change_basis(system, w))
        scale = max(1.0, max_abs(system.cross.mat),
                    0.0 if system.braid is None else max_abs(system.braid.mat))
        cached = _cache_put(key, (w, graded) if dropped <= ROUNDING * scale
                            else (eye(system.dim), None))
    w, form = cached
    return w, system if form is None else form


def _apply_tensor_power(w: np.ndarray, mat: np.ndarray, n: int) -> np.ndarray:
    """``(w (x) ... (x) w) @ mat`` for n factors, applied one factor at a time."""
    n_sp = w.shape[0]
    out = mat.reshape((n_sp,) * n + (mat.shape[1],))
    for axis in range(n):
        out = np.moveaxis(np.tensordot(w, out, axes=([1], [axis])), 0, axis)
    return out.reshape(mat.shape)


def word_blocks(system: StatisticsSystem, n: int) -> tuple[np.ndarray, ...]:
    """The word blocks that the Gram matrix and the ideal slice of sector n live on.

    Each block is given by its ascending word offsets.  When T is graded and
    B (if any) preserves letter content, every letter has its own label
    (:func:`_labels`) and these are the :func:`content_blocks`: the Gram
    matrix, the ideal slice and its complement are then block-diagonal over
    them.  Otherwise the sector is one block, ``arange(N^n)``.
    """
    return _content_partition(_labels(system), n)


def sector_spectrum(
    system: StatisticsSystem,
    n: int,
    eps: float | None = None,
    quotient: bool = False,
) -> np.ndarray:
    """Ascending eigenvalues of the (possibly quotient) Gram matrix of sector n.

    The one decomposition of a sector, cached, from which every Gram verdict
    is derived.  Each diagonal block of the Gram matrix (:func:`word_blocks`;
    a quotient Gram is one block) is checked for Hermiticity at the tolerance
    of the whole matrix, ``eps * max(1, max|G|)`` (raising
    :class:`NotHermitian`), and diagonalized on its own; off-block entries
    are zero by construction.  An entry that is not finite raises ValueError.
    """
    eps = resolve_eps(eps)
    _sector_dim(system.dim, n)
    key = ("spectrum", system.content_key, n, eps, quotient)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    if quotient:
        gram = quotient_gram(system, n, eps=eps)
    else:
        gram = gram_matrix(_weight_form(system)[1], n)
    scale = float(np.max([max_abs(block) for block in gram.blocks]))  # NaN if any block has one
    if not np.isfinite(scale):
        raise ValueError(f"{'quotient ' * quotient}Gram matrix of sector {n} is not finite")
    spectrum = np.sort(np.concatenate(
        [hermitian_spectrum(block, eps, scale=scale) for block in gram.blocks]))
    spectrum.setflags(write=False)
    return _cache_put(key, spectrum)


def positivity_report(
    system: StatisticsSystem,
    n: int,
    eps: float | None = None,
    quotient: bool = False,
) -> PositivityReport:
    """Positivity verdict for the (possibly quotient) Gram, from its spectrum.

    With ``cutoff = eps * max(1, max|lambda|)``: the kernel dimension counts
    eigenvalues with ``|lambda| <= cutoff`` (the rank rule of
    :func:`~wickforge.linalg.kernel_basis`, as the singular values of a
    Hermitian matrix are ``|lambda|``); the matrix is positive semidefinite
    when ``min_eig >= -cutoff`` and positive definite when, in addition, the
    kernel is trivial.
    """
    eps = resolve_eps(eps)
    spectrum = sector_spectrum(system, n, eps=eps, quotient=quotient)
    if spectrum.size == 0:
        return PositivityReport(n=n, min_eig=None, kernel_dim=0,
                                positive_semidefinite=True, positive_definite=True)
    min_eig = float(spectrum[0])
    cutoff = eps * max(1.0, -min_eig, float(spectrum[-1]))
    kdim = int(np.count_nonzero(np.abs(spectrum) <= cutoff))
    psd = min_eig >= -cutoff
    return PositivityReport(
        n=n,
        min_eig=min_eig,
        kernel_dim=kdim,
        positive_semidefinite=psd,
        positive_definite=psd and kdim == 0,
    )


def p2_kernel(system: StatisticsSystem, eps: float | None = None) -> np.ndarray:
    """Kernel of id + Ttilde on the two-fold tensor power, as matrix columns."""
    n_sp = system.dim
    return kernel_basis(eye(n_sp * n_sp) + build_ttilde(system.cross), eps)


def _block_generators(
    gen: np.ndarray, offsets: np.ndarray, n_sp: int, n: int
) -> np.ndarray:
    """Ideal generators of sector n on the words ``offsets``, one column block per p.

    Column block p is ``id^(p-1) (x) gen (x) id^(n-p-1)`` on those rows and
    columns: entry (u, w) is ``gen[pair(u), pair(w)]`` when the words u and w
    agree outside the letters p, p+1, and 0 otherwise.
    """
    blocks = []
    for p in range(1, n):
        low = n_sp ** (n - p - 1)
        pair = offsets // low % (n_sp * n_sp)
        rest = offsets - pair * low
        blocks.append(np.where(rest[:, None] == rest, gen[pair[:, None], pair], 0))
    return np.hstack(blocks)


def _scatter_rows(dim: int, words, parts) -> np.ndarray:
    """The parts side by side, each with its rows placed on its word block."""
    out = np.zeros((dim, sum(part.shape[1] for part in parts)), dtype=complex)
    col = 0
    for rows, part in zip(words, parts):
        out[rows, col:col + part.shape[1]] = part
        col += part.shape[1]
    return out


def _ideal_bases(
    system: StatisticsSystem, n: int, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the degree-n slice of the braid ideal and its complement.

    The generators are the columns of ``id^(p-1) (x) (id - B) (x) id^(n-p-1)``
    over the insertion positions p.  They are formed in the weight basis
    (:func:`_weight_form`), where each one stays inside the word block of its
    column (:func:`word_blocks`), so the span and the complement are taken
    block by block, each with the rank cutoff ``eps * max(1, sigma_max)`` of
    its own block, scattered back into sector-n columns and mapped to the
    standard basis by ``W^(x)n``.
    """
    if system.braid is None:
        raise NoBraid("no braid operator: the free algebra has no quotient")
    n_sp = system.dim
    dim = _sector_dim(n_sp, n)
    key = ("ideal", system.content_key, n, eps)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    if n < 2:
        span, comp = np.zeros((dim, 0), dtype=complex), eye(dim)
    else:
        w, form = _weight_form(system)
        gen = eye(n_sp * n_sp) - form.braid.mat
        words = word_blocks(form, n)
        largest = max(block.size for block in words)
        _check_entries(largest, (n - 1) * largest, "ideal generator stack")
        _check_entries(dim, dim, "ideal span and complement")
        bases = [span_and_complement(_block_generators(gen, block, n_sp, n), block.size, eps)
                 for block in words]
        span = _scatter_rows(dim, words, [span_b for span_b, _ in bases])
        comp = _scatter_rows(dim, words, [comp_b for _, comp_b in bases])
        if form is not system:
            span, comp = _apply_tensor_power(w, span, n), _apply_tensor_power(w, comp, n)
    span.setflags(write=False)
    comp.setflags(write=False)
    return _cache_put(key, (span, comp))


def ideal_subspace(
    system: StatisticsSystem, n: int, eps: float | None = None
) -> np.ndarray:
    """Degree-n slice of the two-sided ideal generated by the image of id - B.

    Spanned by the images of ``id^(p-1) (x) (id - B) (x) id^(n-p-1)`` over all
    insertion positions p; empty below degree 2.
    """
    span, _ = _ideal_bases(system, n, resolve_eps(eps))
    return span


def quotient_sector(
    system: StatisticsSystem, n: int, eps: float | None = None
) -> FockSector:
    """Sector with quotient representatives (complement of the ideal) attached."""
    eps = resolve_eps(eps)
    sector = sector_basis(system.dim, n)
    _, comp = _ideal_bases(system, n, eps)
    return FockSector(
        n=sector.n,
        dim_full=sector.dim_full,
        basis=sector.basis,
        quotient=QuotientData(complement_basis=comp),
    )


def descended_operators(
    system: StatisticsSystem,
    i: int,
    n: int,
    eps: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Creation (n -> n+1) and annihilation (n -> n-1) on quotient sectors.

    Raises :class:`NotWellDefined` unless creation and annihilation map the
    degree-n ideal slice into the neighboring slices, which is exactly the
    consistency requirement on (T, B).  At n = 0 the annihilation factor is
    the empty map (the vacuum is killed).
    """
    eps = resolve_eps(eps)
    _check_species(system, i)
    # The larger sector first, so that an oversized one is refused before
    # the smaller one is built.
    _, q_up = _ideal_bases(system, n + 1, eps)
    span_n, q_n = _ideal_bases(system, n, eps)
    # Creation fills one row block of sector n+1, so dagger(q_up) @ C reduces
    # to the matching columns of dagger(q_up).
    q_up_c = dagger(q_up[creation_rows(system, i, n)])
    res_c = max_abs(q_up_c @ span_n)  # 0 for an empty span
    if not res_c <= eps:  # a NaN residual fails too
        raise NotWellDefined(
            f"creation does not preserve the ideal at degree {n} "
            f"(residual {res_c:.3e})"
        )
    if n == 0:
        return q_up_c @ q_n, np.zeros((0, q_n.shape[1]), dtype=complex)
    # A_i [span_n | q_n], block by block from the slices: no dense level.
    _, q_down = _ideal_bases(system, n - 1, eps)
    k, cols = span_n.shape[1], np.hstack([span_n, q_n])
    image = np.zeros((q_down.shape[0], cols.shape[1]), dtype=complex)
    for rows, words, part in _letter_parts(system, i - 1, n):
        image[rows] = part @ cols[words]
    res_a = max_abs(dagger(q_down) @ image[:, :k])
    if not res_a <= eps:
        raise NotWellDefined(
            f"annihilation does not preserve the ideal at degree {n} "
            f"(residual {res_a:.3e}); (T, B) violate the consistency laws"
        )
    return q_up_c @ q_n, dagger(q_down) @ image[:, k:]


def sector_report(
    system: StatisticsSystem,
    n: int,
    quotient: bool = False,
    eps: float | None = None,
) -> dict:
    """JSON-ready summary of one sector, as consumed by the CLI."""
    eps = resolve_eps(eps)
    report = positivity_report(system, n, eps=eps, quotient=quotient)
    qdim = None
    if quotient:
        qdim = quotient_sector(system, n, eps=eps).quotient.dim
    return {
        "sector": n,
        "dim": _sector_dim(system.dim, n),
        "quotient_dim": qdim,
        "min_eig": report.min_eig,
        "kernel_dim": report.kernel_dim,
        "checks": {
            # The spectrum behind the report raises NotHermitian otherwise.
            "gram_hermitian": True,
            "positive_semidefinite": report.positive_semidefinite,
            "positive_definite": report.positive_definite,
        },
    }
