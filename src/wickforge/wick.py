"""Symbolic Wick algebra: parsing, normal ordering, star, Fock evaluation.

Expressions are finite complex-linear combinations of words in the generators
``c(i)`` (creation) and ``a(i)`` (annihilation); the empty word is the unit.
Juxtaposition is operator composition with the leftmost factor acting last.
Normal ordering rewrites the leftmost annihilator-creator pair with

    a(i) c(j)  ->  delta_ij 1 + sum_{k,l} T^{ij}_{kl} c(k) a(l)

until every term has all creators in front.  Words are never canonicalized
modulo the braid operator here; that quotient lives in :mod:`wickforge.fock`.

Grammar::

    expr    := sign? term (sign term)*
    term    := coeff? factor+
    coeff   := number | '(' sign? number ',' sign? number ')'
    factor  := 'c(' digits ')' | 'a(' digits ')' | '1'
    sign    := '+' | '-'
    number  := (digits ('.' digits?)? | '.' digits) (('e' | 'E') sign? digits)?

Whitespace between tokens is optional and ignored; a generator such as
``c(12)`` is one token.  A bare number is a coefficient only when a factor
follows it, and the literal ``1`` is the only unit factor (``1.0`` is
rejected).
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from .errors import ExpressionSyntaxError, SpeciesOutOfRange
from .fock import (
    _annihilate_placed,
    _check_entries,
    _label_words,
    _scatter,
    _sector_dim,
    _tower,
    annihilation_matrix,
)
from .linalg import DEFAULT_EPS, max_abs, resolve_eps
from .operators import CheckResult, StatisticsSystem, ValidationReport


class Generator(NamedTuple):
    kind: str  # "c" or "a"
    species: int


GenWord = tuple[Generator, ...]

#: Kind order used for deterministic printing: creators before annihilators.
_KIND_RANK = {"c": 0, "a": 1}


class OperatorExpression:
    """A formal complex combination of generator words; exact-zero terms are pruned.

    Arithmetic keeps every nonzero coefficient, however small: a product of
    small coefficients is still a true term.  Only the parser drops input
    terms with ``|coeff| <= 1e-9``.  The terms are never changed after
    construction, so :func:`evaluation_blocks` keeps their walk table
    (:func:`_walk_table`) beside them, built on first evaluation; it takes no
    part in equality, hashing or pickling.
    """

    __slots__ = ("_terms", "_walks")

    def __init__(self, terms: dict[GenWord, complex] | None = None):
        pruned: dict[GenWord, complex] = {}
        for word, coeff in (terms or {}).items():
            coeff = complex(coeff)
            if coeff != 0:
                pruned[tuple(word)] = coeff
        self._terms = pruned
        self._walks = None

    @classmethod
    def _trusted(cls, terms: dict[GenWord, complex]):
        """Wrap complex terms that the caller has already pruned and checked."""
        expr = cls.__new__(cls)
        expr._terms, expr._walks = terms, None
        return expr

    def __getstate__(self):
        return None, {"_terms": self._terms}

    def __setstate__(self, state):
        self._terms, self._walks = state[1]["_terms"], None

    @property
    def terms(self) -> dict[GenWord, complex]:
        return dict(self._terms)

    @classmethod
    def unit(cls, coeff: complex = 1.0) -> "OperatorExpression":
        return cls({(): coeff})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorExpression):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "OperatorExpression") -> "OperatorExpression":
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            merged[word] = merged.get(word, 0.0) + coeff
        return OperatorExpression(merged)

    def __sub__(self, other: "OperatorExpression") -> "OperatorExpression":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "OperatorExpression":
        return OperatorExpression(
            {w: factor * c for w, c in self._terms.items()}
        )

    def concat(self, other: "OperatorExpression") -> "OperatorExpression":
        """Free (unordered) product: concatenate words, multiply coefficients."""
        merged: dict[GenWord, complex] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                merged[word] = merged.get(word, 0.0) + c1 * c2
        return OperatorExpression(merged)

    def is_normal_ordered(self) -> bool:
        return all(_first_inversion(w) is None for w in self._terms)

    def __str__(self) -> str:
        return format_expression(self)

    def __repr__(self) -> str:
        return f"OperatorExpression({format_expression(self)!r})"


class NormalForm(OperatorExpression):
    """An expression verified to have creators before annihilators in every term."""

    def __init__(self, terms: dict[GenWord, complex] | None = None):
        super().__init__(terms)
        bad = [w for w in self._terms if _first_inversion(w) is not None]
        if bad:
            raise ValueError(f"term is not normal-ordered: {bad[0]}")


def _first_inversion(word: GenWord) -> int | None:
    for pos in range(len(word) - 1):
        if word[pos].kind == "a" and word[pos + 1].kind == "c":
            return pos
    return None


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0:
        return _fmt_number(c.real)
    return f"({_fmt_number(c.real)},{_fmt_number(c.imag)})"


def _word_text(word: GenWord) -> str:
    return " ".join(f"{g.kind}({g.species})" for g in word) or "1"


def format_expression(expr: OperatorExpression) -> str:
    """Deterministic text form; terms sorted by word.

    Words sort letter by letter, creators before annihilators, then by
    species.  The rank and text of each distinct generator are worked out
    once per call, so each word is sorted and written from them.  Parses
    back exactly, except terms with ``|coeff| <= DEFAULT_EPS``, which the
    parser drops.
    """
    if not expr._terms:
        return "0 1"
    gens = sorted(set().union(*expr._terms), key=lambda g: (_KIND_RANK[g.kind], g.species))
    rank = {g: r for r, g in enumerate(gens)}
    text = {g: f"{g.kind}({g.species})" for g in gens}
    pieces = []
    for word in sorted(expr._terms, key=lambda w: tuple(map(rank.__getitem__, w))):
        coeff = expr._terms[word]
        sign = "+"
        if coeff.imag == 0 and coeff.real < 0:
            sign, coeff = "-", -coeff
        factors = " ".join(map(text.__getitem__, word))
        if not word:
            body = "1" if coeff == 1 else f"{_fmt_coeff(coeff)} 1"
        elif coeff == 1:
            body = factors
        else:
            body = f"{_fmt_coeff(coeff)} {factors}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    return (("-" if first_sign == "-" else "") + first_body
            + "".join(f" {sign} {body}" for sign, body in pieces[1:]))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<gen>([ca])\((\d+)\))"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
    r"|(?P<sign>[+-])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _expect(token: tuple, kind: str) -> None:
    """Raise unless ``token`` is of ``kind``; the end of the text is its own error."""
    if token[0] is None:
        raise ExpressionSyntaxError("unexpected end of expression", token[2])
    if token[0] != kind:
        raise ExpressionSyntaxError(f"expected {kind}, got {token[1]!r}", token[2])


def _read_sign(tokens: list, i: int) -> tuple[float, int]:
    """The value of an optional sign at ``tokens[i]``, and the index after it."""
    if tokens[i][0] == "sign":
        return (-1.0 if tokens[i][1] == "-" else 1.0), i + 1
    return 1.0, i


def parse_expression(text: str, n_species: int) -> OperatorExpression:
    """Parse expression text; round-trips exactly with :func:`format_expression`.

    The whole text is tokenized before any term is read, so a stray
    character anywhere is reported first.  Each token is ``(kind, text,
    position, match)``, and the end of the text is a token of kind None.
    """
    if n_species < 1:
        raise ValueError(f"need at least one species, got {n_species}")
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            raise ExpressionSyntaxError(f"unexpected character {match[0]!r}", match.start())
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match[0], match.start(), match))
    tokens.append((None, "", len(text), None))
    terms: dict[GenWord, complex] = {}
    starts: dict[GenWord, int] = {}
    i = 0
    while True:  # one term per pass: sign, coefficient, factors
        sign, i = _read_sign(tokens, i)
        kind, _, start, _ = tokens[i]
        coeff = 1.0
        if kind is None:
            raise ExpressionSyntaxError(
                "unexpected end of expression" if terms else "empty expression", start)
        if kind == "lparen":
            parts = []
            for closer in ("comma", "rparen"):
                part_sign, i = _read_sign(tokens, i + 1)
                _expect(tokens[i], "number")
                parts.append(part_sign * float(tokens[i][1]))
                _expect(tokens[i + 1], closer)
                i += 1
            coeff, i = complex(*parts), i + 1
        elif kind == "number" and tokens[i + 1][0] in ("gen", "number"):
            coeff, i = complex(float(tokens[i][1]), 0.0), i + 1
        letters: list[Generator] = []
        first = i
        while tokens[i][0] not in ("sign", None):
            kind, token_text, pos, match = tokens[i]
            if kind == "gen":
                gen = Generator(match[2], int(match[3]))
                _check_word_species((gen,), n_species)
                letters.append(gen)
            elif kind != "number":
                raise ExpressionSyntaxError(f"expected factor, got {token_text!r}", pos)
            elif token_text != "1":
                raise ExpressionSyntaxError(f"expected factor, got number {token_text!r}", pos)
            i += 1  # the unit factor contributes no letters
        if i == first:
            raise ExpressionSyntaxError("term has no factors", tokens[i][2])
        word = tuple(letters)
        terms[word] = terms.get(word, 0.0) + coeff * sign
        starts.setdefault(word, start)
        if tokens[i][0] is None:
            break
    # Checked on the sums, which can overflow where no single term does.
    for word, c in terms.items():
        if not cmath.isfinite(c):
            raise ExpressionSyntaxError(
                f"coefficient {c} of {_word_text(word)} is not finite", starts[word])
    return OperatorExpression(
        {word: c for word, c in terms.items() if abs(c) > DEFAULT_EPS})


# ---------------------------------------------------------------------------
# Normal ordering and the Wick product
# ---------------------------------------------------------------------------

def _check_word_species(word: GenWord, n_species: int) -> None:
    for gen in word:
        if not 1 <= gen.species <= n_species:
            raise SpeciesOutOfRange(
                f"species {gen.species} out of range 1..{n_species}"
            )


def _rewrite_table(system: StatisticsSystem) -> dict[str, list[tuple[str, complex, float]]]:
    """The rewrite rule of every pair ``a(i) c(j)``, keyed by its two-letter code.

    Each right-hand side is a list of ``(code, coeff, |coeff|)``: the empty
    code for ``delta_ij`` and ``c(k) a(l)`` for each nonzero ``T^{ij}_{kl}``.
    """
    n_sp = system.dim
    t4 = system.cross.tensor()
    table: dict[str, list[tuple[str, complex, float]]] = {}
    for i0 in range(n_sp):
        for j0 in range(n_sp):
            rhs = [("", 1.0 + 0.0j, 1.0)] if i0 == j0 else []
            for k0, l0 in zip(*np.nonzero(t4[:, :, i0, j0])):
                coeff = complex(t4[k0, l0, i0, j0])
                rhs.append((chr(k0 + 1) + chr(n_sp + l0 + 1), coeff, abs(coeff)))
            table[chr(n_sp + i0 + 1) + chr(j0 + 1)] = rhs
    return table


def normal_order(expr: OperatorExpression, system: StatisticsSystem) -> NormalForm:
    """Rewrite to creators-first form, preserving the operator on every sector.

    A word's inversion count is its number of annihilator-before-creator
    pairs.  Every rewrite of a word's leftmost pair lowers it: the swap to
    ``c(k) a(l)`` by one, the delta term by at least one.  So the rewriting
    runs in rounds from the highest inversion count down, one round per
    count: each round rewrites the leftmost pair of every pending word with
    that count, and all paths into a word have merged before its round.  The
    work follows distinct words, not rewrite paths, and the count-0 words
    left at the end are the normal form.

    Beside each coefficient the rounds carry its mass, the sum of the
    absolute values of the path contributions merged into it.  A word is
    dropped as cancellation noise when ``|coeff| <= DEFAULT_EPS * mass``; a
    small coefficient reached without cancellation is kept.  A coefficient
    or mass that is not finite (an overflow) raises ValueError.
    """
    n_sp = system.dim
    # Words are coded as strings: c(s) is chr(s) and a(s) is chr(n_sp + s).
    gens = [None] + [Generator(kind, s) for kind in "ca" for s in range(1, n_sp + 1)]
    code = {gen: chr(idx) for idx, gen in enumerate(gens[1:], 1)}
    last_creator = chr(n_sp)
    leftmost_pair = re.compile(
        f"[{re.escape(chr(n_sp + 1))}-{re.escape(chr(2 * n_sp))}]"
        f"[{re.escape(chr(1))}-{re.escape(last_creator)}]"
    ).search

    def inversions(w: str) -> int:
        count = annihilators = 0
        for ch in w:
            if ch > last_creator:
                annihilators += 1
            else:
                count += annihilators
        return count

    table = _rewrite_table(system)
    rounds: dict[int, dict[str, tuple[complex, float]]] = {}
    for word, coeff in expr._terms.items():
        _check_word_species(word, n_sp)
        w = "".join(code[g] for g in word)
        _merge(rounds.setdefault(inversions(w), {}), w, coeff, abs(coeff))
    for level in range(max(rounds, default=0), 0, -1):
        swapped = rounds.setdefault(level - 1, {})
        for w, (c, m) in rounds.pop(level, {}).items():
            pos = leftmost_pair(w).start()
            head, tail = w[:pos], w[pos + 2:]
            for mid, t, t_abs in table[w[pos:pos + 2]]:
                child = head + mid + tail
                acc = swapped if mid else rounds.setdefault(inversions(child), {})
                _merge(acc, child, c * t, m * t_abs)
    terms = {}
    for w, (c, m) in rounds.get(0, {}).items():
        if not (cmath.isfinite(c) and cmath.isfinite(m)):
            word = _word_text(tuple(gens[ord(ch)] for ch in w))
            raise ValueError(f"coefficient {c} of {word} in the normal form is not finite")
        if abs(c) > DEFAULT_EPS * m:
            terms[tuple(gens[ord(ch)] for ch in w)] = c
    return NormalForm._trusted(terms)


def _merge(acc: dict[str, tuple[complex, float]], w: str, c: complex, m: float) -> None:
    prev = acc.get(w)
    acc[w] = (c, m) if prev is None else (prev[0] + c, prev[1] + m)


def wick_product(
    e1: OperatorExpression, e2: OperatorExpression, system: StatisticsSystem
) -> NormalForm:
    """Product in the Wick algebra: concatenate, then normal-order."""
    return normal_order(e1.concat(e2), system)


def star(expr: OperatorExpression) -> OperatorExpression:
    """The involution: reverse words, swap c <-> a, conjugate coefficients."""
    flipped = {"c": "a", "a": "c"}
    return OperatorExpression(
        {
            tuple(Generator(flipped[g.kind], g.species) for g in reversed(word)):
            coeff.conjugate()
            for word, coeff in expr._terms.items()
        }
    )


# ---------------------------------------------------------------------------
# Fock evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvaluationBlock:
    """The Fock matrix of an expression from sector n to one target sector, held in pieces.

    ``pieces[(b, c)]`` is the matrix from word block c of sector n (the
    words ``cols[c]``) to word block b of the target sector (the words
    ``rows[b]``); a pair of blocks without a piece, and every entry outside
    the pieces, is zero.  The blocks are those of
    :func:`~wickforge.fock.word_blocks`, grouped by the letter ``labels``.
    ``mat`` is the dense matrix, the pieces scattered into zeros (or the one
    piece itself when both sectors are one block), built on first use.
    """

    labels: tuple
    target: int
    n: int
    pieces: dict

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.labels) ** self.target, len(self.labels) ** self.n

    @property
    def rows(self) -> tuple:
        return _label_words(self.labels, self.target)

    @property
    def cols(self) -> tuple:
        return _label_words(self.labels, self.n)

    @cached_property
    def mat(self) -> np.ndarray:
        rows, cols = self.rows, self.cols
        if len(rows) == len(cols) == 1 and self.pieces:
            return self.pieces[(0, 0)]
        return _scatter(self.shape, complex, "evaluation block",
                        ((rows[b], cols[c], piece) for (b, c), piece in self.pieces.items()))


def _walk_table(terms: dict[GenWord, complex]) -> tuple:
    """What :func:`evaluation_blocks` reads of each term, the same on every sector and system.

    Per term, in order: ``(word, coeff, suffix, rest, shift, smallest,
    largest)``.  The letters are read right to left as ``(is creator,
    species index)``: ``suffix`` holds the species indices of the leading
    run of annihilators, the term's all-annihilator suffix, and ``rest`` the
    letters after it.  ``shift`` is the degree the term adds, and
    ``smallest`` and ``largest`` bound its species (1 for the unit).  Each
    distinct generator is read once, into ``letter``.
    """
    letter = {g: (g.kind == "c", g.species - 1) for g in set().union(*terms)}
    table = []
    for word, coeff in terms.items():
        if not word:
            table.append((word, coeff, (), (), 0, 1, 1))
            continue
        letters = tuple(map(letter.__getitem__, reversed(word)))
        creates, indices = zip(*letters)
        split = creates.index(True) if True in creates else len(creates)
        table.append((word, coeff, indices[:split], letters[split:],
                      2 * sum(creates) - len(creates), min(indices) + 1, max(indices) + 1))
    return tuple(table)


def evaluation_blocks(
    expr: OperatorExpression,
    system: StatisticsSystem,
    n: int,
) -> dict[int, EvaluationBlock]:
    """Fock matrices of the expression on sector n, keyed by target degree, held blockwise.

    Factors compose right to left.  Terms that push an intermediate degree
    below zero annihilate and contribute zeros; terms whose final degree is
    negative are dropped entirely.

    Each term's letters are read once per expression, into the walk table
    kept on it (:func:`_walk_table`), which every call reads.  Every term is
    walked once per word block c of sector n (the blocks of
    :class:`EvaluationBlock`) that its all-annihilator suffix leaves alive,
    right to left over its letters, on a running column block placed at some
    rows of one word block of the current sector.  Creation only moves the
    block to a run of a block of the next sector, through the ``grow`` table
    of that sector's level, fetched once per call.  An annihilator at degree
    at most n multiplies it by the columns of that block's annihilation
    slice; above n it acts on the placed block by the one-step recursion
    down to degree n (:func:`~wickforge.fock._annihilate_placed`), so no slice
    above sector n is built.  When T is graded, each letter moves the content
    by one, so a term maps block c into one block of its target, or dies
    where a block lacks the letter of an annihilator.  The live blocks after
    an all-annihilator suffix, with their states, are kept for the call: the
    terms ``c_w a_v`` of a normal form that share ``a_v`` compute them once.  The term is added in
    place to the rows of its piece.  The pieces of a target degree stand for
    its dense matrix and are bounded together by the entry cap, checked
    before each piece is allocated.
    """
    n_sp = system.dim
    _sector_dim(n_sp, n)
    tower = _tower(system)
    level, species = tower.level, tower.species
    widths = level(n)[1]
    # The levels of the degrees walked so far, each checked once: a creator
    # reaches a new degree only from the one below it.
    levels = [level(d) for d in range(n + 1)]
    walks = expr._walks
    if walks is None:
        walks = expr._walks = _walk_table(expr._terms)
    # Every target degree gets a block, even if all its terms die; the
    # entries of its pieces are bounded together, as its dense matrix is.
    pieces: dict[int, dict] = {}
    entries: dict[int, int] = {}
    # the live blocks after each all-annihilator suffix: (c, mat, block)
    trailing: dict[tuple, list] = {(): [(c, None, c) for c in range(len(widths))]}

    def settle(suffix: tuple) -> list:
        """``(c, mat, block)`` per block c of sector n that the annihilators ``suffix`` spare."""
        live = trailing.get(suffix)
        if live is None:
            degree, i0 = n + 1 - len(suffix), suffix[-1]
            live = trailing[suffix] = []
            for c, mat, b in settle(suffix[:-1]):
                found = tower.slices(degree)[b][i0]
                if found is not None:
                    live.append((c, found if mat is None else found @ mat,
                                 levels[degree][0][b][i0][0]))
        return live

    for word, coeff, suffix, rest, shift, smallest, largest in walks:
        if smallest < 1 or largest > n_sp:
            _check_word_species(word, n_sp)
        target = n + shift
        if target < 0:
            continue
        held = pieces.get(target)
        if held is None:
            _sector_dim(n_sp, target)
            held = pieces[target] = {}
        if len(suffix) > n:  # the suffix meets the vacuum
            continue
        for c, mat, b in settle(suffix):
            width, degree, row = widths[c], n - len(suffix), 0
            for creates, i0 in rest:
                if creates:
                    degree += 1
                    if degree == len(levels):
                        levels.append(level(degree))
                    b, lo = levels[degree][2][i0][b]
                    row += lo
                    continue
                if degree == 0:
                    break
                rows = slice(row, row + (width if mat is None else mat.shape[0]))
                if degree > n:
                    mat = _annihilate_placed(tower, n, degree, b, rows, mat, species[i0])[i0]
                else:
                    found = tower.slices(degree)[b][i0]
                    mat = None if found is None else (
                        found[:, rows] if mat is None else found[:, rows] @ mat)
                if mat is None:  # block b lacks the letter
                    break
                b, degree, row = levels[degree][0][b][i0][0], degree - 1, 0
            else:
                piece = held.get((b, c))
                if piece is None:
                    height, done = levels[target][1][b], entries.get(target, 0)
                    _check_entries(height, width, f"evaluation piece to sector {target}",
                                   held=done)
                    entries[target] = done + height * width
                    piece = held[(b, c)] = np.zeros((height, width), dtype=complex)
                if mat is None:
                    diag = np.arange(width)
                    piece[row + diag, diag] += coeff
                else:
                    piece[row:row + mat.shape[0]] += coeff * mat
    for held in pieces.values():
        for piece in held.values():
            piece.setflags(write=False)
    return {target: EvaluationBlock(labels=tower.labels, target=target, n=n, pieces=held)
            for target, held in pieces.items()}


# ---------------------------------------------------------------------------
# Cross-symmetry axiom checks
# ---------------------------------------------------------------------------

def _psi_action_residual(
    rewrite_system: StatisticsSystem,
    fock_system: StatisticsSystem,
    max_degree: int,
) -> float:
    """Worst gap of two routes to ``a(i) c(j1) ... c(jm) |0>`` from the dense level.

    The reference is the annihilation matrix column of ``fock_system``.  One
    route normal-orders the word letter by letter with ``rewrite_system`` and
    applies the result to the vacuum; the other evaluates the word itself on
    the vacuum, where ``a(i)`` acts by the one-step recursion and reads no
    dense level.  Separating the two systems lets tests break one route.
    """
    n_sp = fock_system.dim
    worst = 0.0
    for m in range(1, max_degree + 1):
        for i in range(1, n_sp + 1):
            direct = annihilation_matrix(fock_system, i, m)
            for col, letters in enumerate(
                iter_product(range(1, n_sp + 1), repeat=m)
            ):
                word = (Generator("a", i),) + tuple(
                    Generator("c", j) for j in letters
                )
                expr = OperatorExpression({word: 1.0})
                for form in (normal_order(expr, rewrite_system), expr):
                    blocks = evaluation_blocks(form, fock_system, 0)
                    got = blocks[m - 1].mat[:, 0] if m - 1 in blocks else 0.0
                    worst = float(np.maximum(worst, max_abs(got - direct[:, col])))
    return worst  # a NaN is kept, and fails the check


def _star_axiom_residual(system: StatisticsSystem, max_degree: int) -> float:
    """Worst coefficient gap between star-then-order and order-then-star."""
    n_sp = system.dim
    worst = 0.0
    for m in range(1, max_degree + 1):
        for i in range(1, n_sp + 1):
            for letters in iter_product(range(1, n_sp + 1), repeat=m):
                word = (Generator("a", i),) + tuple(
                    Generator("c", j) for j in letters
                )
                expr = OperatorExpression({word: 1.0})
                lhs = star(normal_order(expr, system))
                rhs = normal_order(star(expr), system)
                diff = lhs - rhs
                worst = float(np.max([abs(c) for c in diff._terms.values()], initial=worst))
    return worst  # a NaN is kept, and fails the check


def check_cross_symmetry_axioms(
    system: StatisticsSystem,
    max_degree: int = 2,
    eps: float | None = None,
) -> ValidationReport:
    """Degreewise verification of the twist axioms behind the rewrite rule."""
    eps = resolve_eps(eps)
    if max_degree > 3:
        raise ValueError("max_degree above 3 is not supported")
    psi_res = _psi_action_residual(system, system, max_degree)
    star_res = _star_axiom_residual(system, max_degree)
    checks = (
        CheckResult(
            "psi_action", "pass" if psi_res <= eps else "fail", psi_res,
            "normal ordering and the one-step recursion match the dense levels",
        ),
        CheckResult(
            "star_axiom", "pass" if star_res <= eps else "fail", star_res,
            "star of a normal form equals the normal form of the star",
        ),
    )
    return ValidationReport(label=system.label, checks=checks)
