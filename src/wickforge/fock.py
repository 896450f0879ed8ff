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
from dataclasses import dataclass, replace
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
    BraidOperator,
    CrossOperator,
    StatisticsSystem,
    build_ttilde,
    change_basis,
    graded_part,
    is_graded,
    preserves_content,
    real_part,
    weight_basis,
)

#: Hard ceiling on sector dimension N^n; exceeding it raises SizeLimit.
SECTOR_CAP = 100_000

#: Hard ceiling on the entries of one dense matrix built from sectors, whatever
#: their dtype (256 MiB of complex or 128 MiB of real entries); exceeding it
#: raises SizeLimit.
ENTRY_CAP = 2**24

Word = tuple[int, ...]

_CACHE_LOCK = threading.Lock()
_CACHE: dict[str, _Tower] = {}


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _cache_put(key, value, table: dict):
    with _CACHE_LOCK:
        return table.setdefault(key, value)


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


def _scatter(shape: tuple[int, int], dtype, what: str, parts) -> np.ndarray:
    """Read-only ``dtype`` zeros with each ``(rows, cols, part)`` placed, capped before reading."""
    _check_entries(*shape, what)
    mat = np.zeros(shape, dtype=dtype)
    for rows, cols, part in parts:
        mat[rows[:, None], cols] = part
    mat.setflags(write=False)
    return mat


def _check_species(system: StatisticsSystem, i: int) -> None:
    if not 1 <= i <= system.dim:
        raise ValueError(f"species {i} out of range 1..{system.dim}")


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
        return _scatter((self.dim, self.dim), self.blocks[0].dtype, "dense Gram matrix",
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


def annihilation_matrix(system: StatisticsSystem, i: int, n: int) -> np.ndarray:
    """Matrix of the annihilation recursion from sector n to sector n-1.

    A sector of one block returns its cached slice.  The level of a sector
    of several blocks is checked against the entry cap, then scattered from
    the slices ``A_i[c - e_i, c]`` (:func:`word_blocks`) on each call, not cached.
    """
    _check_species(system, i)
    if n < 1:
        raise ValueError(f"annihilation needs degree >= 1, got {n}")
    n_sp = system.dim
    _sector_dim(n_sp, n)
    tower = _tower(system)
    heads = tower.level(n)[0]
    if len(heads) == 1:
        return tower.slices(n)[0][i - 1]
    below, words = tower.words(n - 1), tower.words(n)
    # Lazy, so that the slices are built only once the level passes the cap.
    parts = ((below[runs[i - 1][0]], words[b], tower.slices(n)[b][i - 1])
             for b, runs in enumerate(heads) if i - 1 in runs)
    return _scatter((n_sp ** (n - 1), n_sp**n), tower.dtype, "annihilation level", parts)


class _Tower:
    """The state of the Fock representation of one operator content, its one owner.

    Fetched by :func:`_tower`, one per content, so shared by every system
    with that content; ``_CACHE`` holds nothing else.  Built once:

    - ``labels``, the block label of each letter: its own when T is graded
      and B, if any, preserves content; otherwise every letter has label 0,
      and each sector is one block.
    - ``dtype``, ``float`` when no entry of T or B has an imaginary part,
      and otherwise ``complex``: the dtype of the annihilation slices, Gram
      blocks and ideal bases, so that a real system takes the real BLAS and
      LAPACK routes at half the bytes.  A weight form whose imaginary parts
      are rounding is made real (:func:`_weight_form`).  The operators
      themselves keep their complex storage.
    - ``species`` (on first read, so that a system read only for its
      labels, as :func:`_weight_form` reads a rotated one, skips it): per
      species index s0, then for all species, the species set needed and
      the T nonzeros read.  The set is the smallest one that holds s0 (all,
      in the last entry) and every l of a nonzero
      ``T^{ij}_{kl}`` with i in it (``{s0}`` for a flip-scaled T).  The
      nonzeros are listed per first letter j0 as ``(k0, l0, i0, T^{i0
      j0}_{k0 l0})``, i0 in the set, in the order of ``np.nonzero``; the
      coefficients are real when ``dtype`` is, and a real coefficient 1 is
      None, which :func:`_add_rules` adds without a product.

    Then tables, built on first use and read without the lock: per degree
    :meth:`level`, :meth:`words`, :meth:`slices` and :meth:`gram`, and verdicts.
    """

    def __init__(self, system: StatisticsSystem):
        self.n_species = n_sp = system.dim
        braid = system.braid
        graded = is_graded(system.cross) and (braid is None or preserves_content(braid))
        self.labels = tuple(range(n_sp)) if graded else (0,) * n_sp
        parts = [system.cross.mat] + ([] if braid is None else [braid.mat])
        self.dtype = complex if any(np.any(m.imag) for m in parts) else float
        self._cross = system.cross
        self._levels, self._words, self._slices, self._grams = {}, {}, {}, {}
        self._weight, self._spectra, self._ideals = {}, {}, {}

    @cached_property
    def species(self) -> tuple:
        n_sp = self.n_species
        t4 = self._cross.tensor()
        if self.dtype is float:
            t4 = t4.real
        nonzeros = list(zip(*(idx.tolist() for idx in np.nonzero(t4))))
        feeds = [{l0 for _, l0, i0, _ in nonzeros if i0 == s0} for s0 in range(n_sp)]
        by_first = [[] for _ in range(n_sp)]
        for k0, l0, i0, j0 in nonzeros:
            coeff = t4[k0, l0, i0, j0]
            by_first[j0].append((k0, l0, i0, None if t4.dtype == float and coeff == 1 else coeff))
        species = []
        for start in [{s0} for s0 in range(n_sp)] + [set(range(n_sp))]:
            closed, todo = set(start), list(start)
            while todo:
                new = feeds[todo.pop()] - closed
                closed |= new
                todo.extend(new)
            rules = tuple(tuple(rule for rule in row if rule[2] in closed) for row in by_first)
            species.append((tuple(sorted(closed)), rules))
        return tuple(species)

    def level(self, d: int) -> tuple:
        """``(heads, sizes, grow, counts)`` of sector d, grown from d-1's (:func:`_content_heads`).

        Checked against the sector cap on every call, kept or not.  No word
        offsets are formed, so none for the degrees that a placed recursion
        passes through.
        """
        _sector_dim(self.n_species, d)
        found = self._levels.get(d)
        return found if found is not None else _cache_put(
            d, _content_heads(self.labels, self.level(d - 1) if d else None), self._levels)

    def words(self, d: int) -> tuple[np.ndarray, ...]:
        """Word offsets of the blocks of sector d, grown from d-1's (:func:`_content_partition`)."""
        found = self._words.get(d)
        return found if found is not None else _cache_put(
            d, _content_partition(self.level(d)[0], self.words(d - 1) if d else None), self._words)

    def slices(self, m: int) -> tuple[tuple[np.ndarray | None, ...], ...]:
        """Per word block c of sector m >= 1 (:func:`word_blocks`): ``A_i[c - e_i, c]`` at i0.

        Letters that c lacks get None.  The rows of a slice are the block c -
        e_i of sector m-1 that the head of letter i names, its columns the
        words of c.  Block c's slices are one step of the recursion on its
        identity over the slices of degree m-1: per first-letter run j of c,
        the identity on column run j of slice j, plus ``T^{ij}_{kl}`` times
        slice l of the run's tail block c - e_j in row run k and column run j
        of slice i (:func:`_add_rules`), for every nonzero of T in the order
        of ``np.nonzero(T)``.  The blocks are the tower's own (``labels``):
        by letter content when T is graded (then row run k of block c - e_i
        holds exactly the rows of slice l of block c - e_j), and otherwise
        the whole sector, whose slices are the dense levels.
        """
        found = self._slices.get(m)
        if found is not None:
            return found
        heads, sizes = self.level(m)[:2]
        for runs, size in zip(heads, sizes):  # refused before the recursion builds anything
            for _, lo, hi in runs.values():
                _check_entries(hi - lo, size, "annihilation slice")
        if m > 1:
            tails = self.level(m - 1)[0]
            prev = self.slices(m - 1)
            rules = self.species[-1][1]
        out = []
        for runs, size in zip(heads, sizes):
            slices = [None] * self.n_species
            for i0, (_, lo, hi) in runs.items():
                slices[i0] = np.zeros((hi - lo, size), dtype=self.dtype)
            for j0, (p, lo, hi) in runs.items():
                np.fill_diagonal(slices[j0][:, lo:hi], 1.0)
                if m > 1:
                    _add_rules(slices, rules[j0], prev[p], tails, runs, slice(lo, hi))
            for mat in slices:
                if mat is not None:
                    mat.setflags(write=False)
            out.append(tuple(slices))
        return _cache_put(m, tuple(out), self._slices)

    def gram(self, n: int) -> GramMatrix:
        """The Gram matrix of sector n (:func:`gram_matrix`), its blocks built from sector n-1's."""
        found = self._grams.get(n)
        if found is not None:
            return found
        heads, sizes = self.level(n)[:2]
        if n == 0:
            blocks = (np.ones((1, 1), dtype=self.dtype),)
        else:
            for size in sizes:  # refused before the recursion builds anything
                _check_entries(size, size, "Gram block")
            prev = self.gram(n - 1).blocks
            blocks = []
            for runs, size, slices in zip(heads, sizes, self.slices(n)):
                block = np.empty((size, size), dtype=self.dtype)
                for i0, (p, lo, hi) in runs.items():  # row run i0 is G_{n-1}[p] @ A_i[p, c]
                    np.matmul(prev[p], slices[i0], out=block[lo:hi])
                blocks.append(block)
        for block in blocks:
            block.setflags(write=False)
        gram = GramMatrix(n=n, words=self.words(n), blocks=tuple(blocks))
        return _cache_put(n, gram, self._grams)


def _tower(system: StatisticsSystem) -> _Tower:
    """The :class:`_Tower` of the system's operator content, built on first use."""
    tower = _CACHE.get(system.content_key)
    return tower if tower is not None else _cache_put(system.content_key, _Tower(system), _CACHE)


def _add_rules(out: list, rules: tuple, inner, tails: tuple, runs: dict, cols: slice) -> None:
    """Add ``T^{ij}_{kl} x^k (x) inner_l`` into ``out[i0]`` for the rules of one first-letter run.

    The one place where the recursion rule is written.  ``rules`` are the
    nonzeros of the run's first letter j (``_Tower.species``), ``inner``
    the result of ``A_l`` on the run's tails per species index (None where
    the tail block lacks the letter), ``tails`` the heads of sector m-1,
    ``runs`` the head of the word block, and ``cols`` the run's columns of
    ``out``.  Each term lands in row run k of block ``b - e_i``.
    """
    for k0, l0, i0, coeff in rules:
        if inner[l0] is not None:
            _, top, bottom = tails[runs[i0][0]][k0]
            target = out[i0][top:bottom, cols]
            if coeff is None:
                target += inner[l0]
            else:
                target += coeff * inner[l0]


def _annihilate_placed(
    tower: _Tower, floor: int, m: int, b: int, rows: slice, block: np.ndarray | None,
    species: tuple,
) -> list[np.ndarray | None]:
    """``A_l`` applied to a column block placed in word block b of sector m, for l in a species set.

    The block (``None``: the identity) fills positions ``rows`` of block b;
    the other rows are zero.  ``species`` is an entry of ``tower.species``.
    Entry l of the result is ``A_l`` of the block on the rows of block ``b -
    e_l`` of sector m-1 (the head of letter l), for each l of the set whose
    letter block b holds, and None otherwise.  At degrees ``m <= floor`` the
    slices ``A_l[b - e_l, b]`` are read on those columns.  Above ``floor``
    the one-step recursion acts instead, adding into zeros allocated in the
    field of the tower and the block, the entries of all species bounded
    together by the entry cap.  The rows are split by the first-letter runs
    of block b, each live tail is annihilated one degree down in its block
    p, and ``A_i`` collects ``delta_ij tail + sum T^{ij}_{kl} x^k (x)
    A_l(tail)`` (:func:`_add_rules`), the second term in run k of block ``b
    - e_i`` (for the identity, in the columns of run j).  No slice above
    ``floor`` is built.  On a one-block partition this is the recursion on
    the whole sector.
    """
    wanted, rules = species
    out = [None] * tower.n_species
    if m <= floor:
        found = tower.slices(m)[b]
        for l0 in wanted:
            if found[l0] is not None:
                out[l0] = found[l0][:, rows] if block is None else found[l0][:, rows] @ block
        return out
    runs = tower.level(m)[0][b]
    tails, below = tower.level(m - 1)[:2]
    width = rows.stop - rows.start if block is None else block.shape[1]
    targets = [(i0, runs[i0][0]) for i0 in wanted if i0 in runs]
    _check_entries(sum(below[p] for _, p in targets), width, "placed annihilation stack")
    dtype = tower.dtype if block is None else np.result_type(tower.dtype, block)
    for i0, p in targets:
        out[i0] = np.zeros((below[p], width), dtype=dtype)
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
        inner = _annihilate_placed(tower, floor, m - 1, p, slice(tail, tail + stop - start), part,
                                   species)
        _add_rules(out, rules[j0], inner, tails, runs, cols)
    return out


def gram_matrix(system: StatisticsSystem, n: int) -> GramMatrix:
    """Sector Gram matrix of the scalar product making creators adjoint, on :func:`word_blocks`.

    G_0 = [[1]].  The (i, j) species block of G_n is ``G_{n-1} A_i C_j``, so
    G_n stacks ``G_{n-1} A_i`` row-blockwise.  Within block c, the words
    beginning with letter i have their tails in one block c - e_i of sector
    n-1, and ``A_i`` maps block c into it, so block c is the stack over i of
    ``G_{n-1}[c - e_i] @ A_i[c - e_i, c]``, rows in ascending word offset.
    Only those slices are built (``_Tower.slices``); when the sector is one
    block, they are the dense levels.  The blocks are kept in the tower of
    the system's content (:func:`_tower`).
    """
    _sector_dim(system.dim, n)
    return _tower(system).gram(n)


def quotient_gram(system: StatisticsSystem, n: int,
                  eps: float | None = None) -> GramMatrix:
    """Gram matrix compressed to the quotient representatives of sector n.

    Block b is ``comp_b^* G'_b comp_b`` for the weight form's Gram matrix G'
    (:func:`_ideal_split`), on the columns ``words[b]`` of ``comp_b`` in the
    complement basis of :func:`quotient_sector`.
    """
    split = _ideal_split(system, n, resolve_eps(eps))
    blocks = tuple(dagger(comp) @ block @ comp for (_, comp), block
                   in zip(split, gram_matrix(_weight_form(system)[1], n).blocks))
    return GramMatrix(n=n, words=_column_ranges(blocks), blocks=blocks)


def _content_heads(labels: tuple[int, ...], prev: tuple | None) -> tuple:
    """The word blocks of sector n without their words: (heads, sizes, grow, counts).

    ``labels[j0]`` is the label of letter j0 + 1 (``_Tower.labels``).  A block
    holds the words with one count of each label, ``counts[b]``, and
    ``sizes[b]`` is its number of words.  Blocks are numbered in descending
    order of their count tuples (for distinct labels, ascending order of their
    sorted-letter tuples).  Sector n grows from ``prev``, sector n-1's tuple
    (None at n = 0): the word ``x^j (x) w`` has the counts of w plus one of the
    label of j, and the words of block p with letter j0 + 1 prepended form one
    run of the block of those counts.  The head ``{j0: (p, lo, hi)}`` of a
    block says that its words beginning with letter j0 + 1 sit at positions
    ``lo:hi`` of the block (ascending offsets put them in one run), and that
    their tails are the words of block p of sector n-1, in the same order.
    ``grow[j0][p] = (b, lo)`` inverts the heads: letter j0 + 1 prepended to
    block p of sector n-1 gives the run of block b that starts at ``lo`` (None
    at n = 0).  With every label 0 the sector is one block of ``N^n`` words,
    with the head ``{j0: (0, j0 N^(n-1), (j0 + 1) N^(n-1))}``.
    """
    if prev is None:
        return ({},), (1,), None, ((0,) * (max(labels) + 1),)
    _, prev_sizes, _, prev_counts = prev
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
    return heads, tuple(fill), grow, tuple(counts)


def _content_partition(heads: tuple, prev: tuple | None) -> tuple[np.ndarray, ...]:
    """Word offsets of the blocks of sector n (:func:`_content_heads`), ascending in each block.

    Run j0 of block b holds the words of block p of ``prev``, sector n-1's
    (None at n = 0), with letter j0 + 1 prepended: the offsets of block p plus
    ``j0 * N^(n-1)``, so the runs in order give the ascending offsets.
    """
    if prev is None:
        blocks = (np.zeros(1, dtype=np.intp),)
    else:
        size = sum(map(len, prev))  # N^(n-1)
        blocks = tuple(np.concatenate([j0 * size + prev[p] for j0, (p, _, _) in runs.items()])
                       for runs in heads)
    for arr in blocks:
        arr.setflags(write=False)
    return blocks


def _label_words(labels: tuple[int, ...], n: int) -> tuple[np.ndarray, ...]:
    """``_Tower.words(n)`` from the labels alone: the same growth, folded up and not kept."""
    level = words = None
    for _ in range(n + 1):
        level = _content_heads(labels, level)
        words = _content_partition(level[0], words)
    return words


def _weight_form(system: StatisticsSystem) -> tuple[np.ndarray, StatisticsSystem]:
    """The weight basis W of the system and the system in it, graded if possible, kept in its tower.

    A system graded as given, each letter with its own label (:class:`_Tower`),
    is its own weight form, with ``W = 1``.  Otherwise T and B are moved to
    the basis of :func:`~wickforge.operators.weight_basis` and cut to the
    graded patterns (:func:`~wickforge.operators.graded_part`); the cut form
    is accepted only when the entries it drops are rounding, at most
    ``ROUNDING * max(1, max|T|, max|B|)``.  By the same rule, the entries of
    the cut form that are rounding are zeroed, so that a rotated graded
    system's form has the nonzeros of its graded twin, and the imaginary
    parts are dropped (:func:`~wickforge.operators.real_part`) when all of
    them are rounding, so that its arithmetic is real (``_Tower.dtype``).  A
    system without such a torus keeps ``W = 1`` and itself, one block per
    sector.  Every basis-invariant verdict is taken on
    the form: Gram spectra and all quotient verdicts (:func:`_ideal_split`).
    Only the bases that the library returns are mapped back by ``W^(x)n``
    (:func:`_standard_basis`).
    """
    tower = _tower(system)
    if len(set(tower.labels)) == system.dim:
        return np.eye(system.dim), system
    cached = tower._weight.get(None)
    if cached is None:
        w = weight_basis(system)
        graded, dropped = graded_part(change_basis(system, w))
        tol = ROUNDING * max(1.0, max_abs(system.cross.mat),
                             0.0 if system.braid is None else max_abs(system.braid.mat))
        if dropped <= tol:
            graded = _zero_rounding(graded, tol)
            real, imag = real_part(graded)
            cached = _cache_put(None, (w, real if imag <= tol else graded), tower._weight)
        else:
            cached = _cache_put(None, (np.eye(system.dim), None), tower._weight)
    w, form = cached
    return w, system if form is None else form


def _zero_rounding(system: StatisticsSystem, tol: float) -> StatisticsSystem:
    """The system with every entry of T and B of magnitude at most ``tol`` set to zero."""
    def cut(op):
        return np.where(np.abs(op.mat) <= tol, 0, op.mat)

    braid = None if system.braid is None else BraidOperator(cut(system.braid))
    return StatisticsSystem(cross=CrossOperator(cut(system.cross)), braid=braid,
                            label=system.label)


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
    (:class:`_Tower`) and these group the words by letter content: the Gram
    matrix, the ideal slice and its complement are then block-diagonal over
    them.  Otherwise the sector is one block, ``arange(N^n)``.
    """
    return _tower(system).words(n)


def sector_spectrum(
    system: StatisticsSystem,
    n: int,
    eps: float | None = None,
    quotient: bool = False,
) -> np.ndarray:
    """Ascending eigenvalues of the (possibly quotient) Gram matrix of sector n.

    The one decomposition of a sector, kept in the system's tower, from which
    every Gram verdict is derived.  Each diagonal block of the weight form's
    Gram matrix (:func:`word_blocks`) or of :func:`quotient_gram` is checked
    for Hermiticity at the tolerance of the whole matrix, ``eps * max(1,
    max|G|)`` (raising :class:`NotHermitian`), and diagonalized on its own;
    off-block entries are zero by construction.  An entry that is not finite
    raises ValueError.
    """
    eps = resolve_eps(eps)
    _sector_dim(system.dim, n)
    spectra = _tower(system)._spectra
    cached = spectra.get((n, eps, quotient))
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
    return _cache_put((n, eps, quotient), spectrum, spectra)


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
    blocks = [np.zeros((offsets.size, 0), dtype=gen.dtype)]  # no generators below degree 2
    for p in range(1, n):
        low = n_sp ** (n - p - 1)
        pair = offsets // low % (n_sp * n_sp)
        rest = offsets - pair * low
        blocks.append(np.where(rest[:, None] == rest, gen[pair[:, None], pair], 0))
    return np.hstack(blocks)


def _ideal_split(system: StatisticsSystem, n: int, eps: float) -> tuple:
    """Orthonormal ``(span_b, comp_b)`` of the ideal slice and its complement per weight-form block b.

    The generators are the columns of ``id^(p-1) (x) (id - B) (x) id^(n-p-1)``
    over the insertion positions p.  They are formed in the weight basis
    (:func:`_weight_form`), in its field (``_Tower.dtype``), where each one stays
    inside the word block of its column (:func:`word_blocks`), so the span and
    the complement are taken block by block
    (:func:`~wickforge.linalg.span_and_complement`), each with the rank cutoff
    ``eps * max(1, sigma_max)`` of its own block and the words of the block
    as rows.  Kept per ``(n, eps)`` in the ideal table of the weight form's
    tower, which a system shares with its rotated twins.
    """
    if system.braid is None:
        raise NoBraid("no braid operator: the free algebra has no quotient")
    n_sp = system.dim
    _sector_dim(n_sp, n)
    form = _weight_form(system)[1]
    tower = _tower(form)
    cached = tower._ideals.get((n, eps))
    if cached is not None:
        return cached
    braid = form.braid.mat
    gen = np.eye(n_sp * n_sp) - (braid.real if tower.dtype is float else braid)
    words = tower.words(n)
    largest = max(block.size for block in words)
    _check_entries(largest, (n - 1) * largest, "ideal generator stack")
    split = tuple(span_and_complement(_block_generators(gen, block, n_sp, n), block.size, eps)
                  for block in words)
    for basis in (basis for pair in split for basis in pair):
        basis.setflags(write=False)
    return _cache_put((n, eps), split, tower._ideals)


def _column_ranges(parts) -> tuple[np.ndarray, ...]:
    """The column offsets of each part when the parts stand side by side."""
    edges = np.cumsum([0] + [part.shape[1] for part in parts])
    return tuple(np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def _standard_basis(system: StatisticsSystem, n: int, eps: float, half: int) -> np.ndarray:
    """The ideal slice (``half`` 0) or its complement (1) of sector n in the standard basis.

    The blocks of :func:`_ideal_split` stand side by side, each on the rows
    of its words, mapped by ``W^(x)n`` (:func:`_weight_form`).
    """
    parts = [pair[half] for pair in _ideal_split(system, n, eps)]
    w, form = _weight_form(system)
    cols = _column_ranges(parts)
    basis = _scatter((_sector_dim(system.dim, n), sum(col.size for col in cols)), parts[0].dtype,
                     ("ideal basis", "quotient complement basis")[half],
                     zip(word_blocks(form, n), cols, parts))
    if form is system:
        return basis
    basis = _apply_tensor_power(w, basis, n)
    basis.setflags(write=False)
    return basis


def ideal_subspace(
    system: StatisticsSystem, n: int, eps: float | None = None
) -> np.ndarray:
    """Degree-n slice of the two-sided ideal generated by the image of id - B.

    Spanned by the images of ``id^(p-1) (x) (id - B) (x) id^(n-p-1)`` over all
    insertion positions p; empty below degree 2.
    """
    return _standard_basis(system, n, resolve_eps(eps), 0)


def quotient_sector(
    system: StatisticsSystem, n: int, eps: float | None = None
) -> FockSector:
    """Sector with quotient representatives (complement of the ideal) attached."""
    sector = sector_basis(system.dim, n)
    return replace(sector, quotient=QuotientData(_standard_basis(system, n, resolve_eps(eps), 1)))


def _check_descends(system: StatisticsSystem, n: int, eps: float) -> None:
    """Raise :class:`NotWellDefined` unless every ``Q_{n-1}^* A_i`` vanishes on the ideal slice ``I_n``.

    In the weight form ``A_i = sum_p W[i, p] A'_p``, and the block pair ``(b
    - e_p, b)`` has one letter p (a one-block form has ``W = 1``), so the
    residual ``max|Q_{n-1}^* A_i span_n|`` of species i is ``max_p |W[i, p]|
    r_p``, where ``r_p`` is the largest entry of ``comp_{b-e_p}^* A'_p[b -
    e_p, b] span_b`` over the blocks b (:func:`_ideal_split`).  Zero weights
    are skipped, and a NaN residual fails.  The message names the residual of
    the first failing species in order 1..N.  Reads the bases of sectors n
    and n-1 only, n first; the vacuum is killed, so n = 0 passes.
    """
    split = _ideal_split(system, n, eps)
    if n == 0:
        return
    below = _ideal_split(system, n - 1, eps)
    w, form = _weight_form(system)
    tower = _tower(form)
    letters = np.zeros(system.dim)  # r_p; np.maximum keeps a NaN
    for (span_b, _), runs, slices in zip(split, tower.level(n)[0], tower.slices(n)):
        for p, (c, _, _) in runs.items():
            res = max_abs((dagger(below[c][1]) @ slices[p]) @ span_b)  # 0 for an empty span
            letters[p] = np.maximum(letters[p], res)
    for weights in np.abs(w):
        kept = weights != 0  # a zero weight times an infinite r_p would read NaN
        res = max_abs(weights[kept] * letters[kept])
        if not res <= eps:  # a NaN residual fails too
            raise NotWellDefined(f"annihilation does not preserve the ideal at degree {n} "
                                 f"(residual {res:.3e}); (T, B) violate the consistency laws")


def descended_operators(
    system: StatisticsSystem,
    i: int,
    n: int,
    eps: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Creation (n -> n+1) and annihilation (n -> n-1) on quotient sectors.

    Raises :class:`NotWellDefined` unless the annihilation of every species
    maps the degree-n ideal slice into degree n-1 (:func:`_check_descends`),
    the consistency requirement on (T, B); at n = 0 the annihilation is the
    empty map.  Creation needs no check: the ideal is two-sided and
    generated in degree 2, so ``E (x) I_n`` lies in ``I_{n+1}`` for every (T,
    B).  The annihilation ``Q_{n-1}^* A_i Q_n`` gets ``W[i, p]
    comp_{b-e_p}^* A'_p[b - e_p, b] comp_b`` on each block pair of the weight
    form, rows and columns as in :func:`quotient_sector`.
    """
    eps = resolve_eps(eps)
    _check_species(system, i)
    # The larger sector first, so that an oversized one is refused before
    # the smaller ones are built.
    q_up = _standard_basis(system, n + 1, eps, 1)
    _check_descends(system, n, eps)
    split = _ideal_split(system, n, eps)
    if n == 0:
        annihilation = np.zeros((0, split[0][1].shape[1]), dtype=split[0][1].dtype)
    else:
        below = _ideal_split(system, n - 1, eps)
        w, form = _weight_form(system)
        tower = _tower(form)
        rows, cols = (np.cumsum([0] + [comp.shape[1] for _, comp in bases]).tolist()
                      for bases in (below, split))
        annihilation = np.zeros((rows[-1], cols[-1]), dtype=np.result_type(split[0][1], w))
        weights = w[i - 1].tolist()
        for b, ((_, comp_b), runs, slices) in enumerate(
                zip(split, tower.level(n)[0], tower.slices(n))):
            for p, (c, _, _) in runs.items():
                if weights[p]:
                    annihilation[rows[c]:rows[c + 1], cols[b]:cols[b + 1]] += (
                        weights[p] * (dagger(below[c][1]) @ slices[p])) @ comp_b
    q_n = _standard_basis(system, n, eps, 1)
    # Creation fills one row block of sector n+1, so dagger(q_up) @ C reduces
    # to the matching columns of dagger(q_up).
    return dagger(q_up[creation_rows(system, i, n)]) @ q_n, annihilation


def sector_report(
    system: StatisticsSystem,
    n: int,
    quotient: bool = False,
    eps: float | None = None,
) -> dict:
    """JSON-ready summary of one sector, as consumed by the CLI.

    With ``quotient``, ``quotient_dim`` is the length of the quotient spectrum
    (:func:`sector_spectrum`), one eigenvalue per complement column.
    """
    eps = resolve_eps(eps)
    report = positivity_report(system, n, eps=eps, quotient=quotient)
    return {
        "sector": n,
        "dim": _sector_dim(system.dim, n),
        "quotient_dim": sector_spectrum(system, n, eps, quotient=True).size if quotient else None,
        "min_eig": report.min_eig,
        "kernel_dim": report.kernel_dim,
        "checks": {
            # The spectrum behind the report raises NotHermitian otherwise.
            "gram_hermitian": True,
            "positive_semidefinite": report.positive_semidefinite,
            "positive_definite": report.positive_definite,
        },
    }
