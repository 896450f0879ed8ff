"""Symbolic Wick algebra: parsing, normal ordering, star, Fock evaluation.

Expressions are finite complex-linear combinations of words in the generators
``c(i)`` (creation) and ``a(i)`` (annihilation); the empty word is the unit.
Juxtaposition is operator composition with the leftmost factor acting last.
Normal ordering rewrites the leftmost annihilator-creator pair with

    a(i) c(j)  ->  delta_ij 1 + sum_{k,l} T^{ij}_{kl} c(k) a(l)

until every term has all creators in front.  Words are never canonicalized
modulo the braid operator here; that quotient lives in :mod:`wickforge.fock`.

Grammar (whitespace separates factors)::

    expr    := sign? term (sign term)*
    term    := coeff? factor+
    coeff   := number | '(' number ',' number ')'
    factor  := 'c(' int ')' | 'a(' int ')' | '1'
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
    _content_partition,
    _scatter,
    _sector_dim,
    _Walk,
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


def _word_sort_key(word: GenWord):
    return tuple((_KIND_RANK[g.kind], g.species) for g in word)


class OperatorExpression:
    """A formal complex combination of generator words; exact-zero terms are pruned.

    Arithmetic keeps every nonzero coefficient, however small: a product of
    small coefficients is still a true term.  Only the parser drops input
    terms with ``|coeff| <= 1e-9``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[GenWord, complex] | None = None):
        pruned: dict[GenWord, complex] = {}
        for word, coeff in (terms or {}).items():
            coeff = complex(coeff)
            if coeff != 0:
                pruned[tuple(word)] = coeff
        self._terms = pruned

    @classmethod
    def _trusted(cls, terms: dict[GenWord, complex]):
        """Wrap complex terms that the caller has already pruned and checked."""
        expr = cls.__new__(cls)
        expr._terms = terms
        return expr

    @property
    def terms(self) -> dict[GenWord, complex]:
        return dict(self._terms)

    @classmethod
    def unit(cls, coeff: complex = 1.0) -> "OperatorExpression":
        return cls({(): coeff})

    @classmethod
    def from_word(cls, word, coeff: complex = 1.0) -> "OperatorExpression":
        return cls({tuple(word): coeff})

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

    Parses back exactly, except terms with ``|coeff| <= DEFAULT_EPS``, which
    the parser drops.
    """
    if not expr._terms:
        return "0 1"
    pieces = []
    for word in sorted(expr._terms, key=_word_sort_key):
        coeff = expr._terms[word]
        sign = "+"
        if coeff.imag == 0 and coeff.real < 0:
            sign, coeff = "-", -coeff
        factors = _word_text(word)
        if not word:
            body = "1" if coeff == 1 else f"{_fmt_coeff(coeff)} 1"
        elif coeff == 1:
            body = factors
        else:
            body = f"{_fmt_coeff(coeff)} {factors}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<gen>[ca])\((?P<species>\d+)\)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if match.group("gen") is not None:
            tokens.append(_Token("gen", match.group(0), pos))
        else:
            tokens.append(_Token(match.lastgroup, match.group(0), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n_species: int, length: int):
        self.tokens = tokens
        self.n_species = n_species
        self.length = length
        self.idx = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", self.length)
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionSyntaxError(
                f"expected {kind}, got {tok.text!r}", tok.pos
            )
        return tok

    def parse(self) -> OperatorExpression:
        terms: dict[GenWord, complex] = {}
        sign = 1.0
        tok = self.peek()
        if tok is not None and tok.kind in ("plus", "minus"):
            self.next()
            sign = -1.0 if tok.kind == "minus" else 1.0
        if self.peek() is None:
            raise ExpressionSyntaxError("empty expression", self.length)
        starts: dict[GenWord, int] = {}
        while True:
            tok = self.peek()
            word, coeff = self.parse_term()
            coeff *= sign
            terms[word] = terms.get(word, 0.0) + coeff
            starts.setdefault(word, tok.pos if tok is not None else self.length)
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == "plus":
                sign = 1.0
            elif tok.kind == "minus":
                sign = -1.0
            else:
                raise ExpressionSyntaxError(
                    f"expected '+' or '-', got {tok.text!r}", tok.pos
                )
            self.next()
        # Checked on the sums, which can overflow where no single term does.
        for word, c in terms.items():
            if not cmath.isfinite(c):
                raise ExpressionSyntaxError(
                    f"coefficient {c} of {_word_text(word)} is not finite", starts[word])
        return OperatorExpression(
            {word: c for word, c in terms.items() if abs(c) > DEFAULT_EPS})

    def parse_term(self) -> tuple[GenWord, complex]:
        coeff = self.parse_coeff()
        word: list[Generator] = []
        saw_factor = False
        while True:
            tok = self.peek()
            if tok is None or tok.kind in ("plus", "minus"):
                break
            if tok.kind == "gen":
                self.next()
                word.append(self.make_generator(tok))
                saw_factor = True
            elif tok.kind == "num":
                if tok.text != "1":
                    raise ExpressionSyntaxError(
                        f"expected factor, got number {tok.text!r}", tok.pos
                    )
                self.next()
                saw_factor = True  # the unit factor contributes no letters
            else:
                raise ExpressionSyntaxError(
                    f"expected factor, got {tok.text!r}", tok.pos
                )
        if not saw_factor:
            tok = self.peek()
            pos = tok.pos if tok else self.length
            raise ExpressionSyntaxError("term has no factors", pos)
        return tuple(word), coeff

    def parse_coeff(self) -> complex:
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", self.length)
        if tok.kind == "lparen":
            self.next()
            re_part = self.parse_signed_number()
            self.expect("comma")
            im_part = self.parse_signed_number()
            self.expect("rparen")
            return complex(re_part, im_part)
        if tok.kind == "num":
            nxt = (
                self.tokens[self.idx + 1]
                if self.idx + 1 < len(self.tokens)
                else None
            )
            if nxt is not None and nxt.kind in ("gen", "num"):
                self.next()
                return complex(float(tok.text), 0.0)
            # a lone number is only valid as the unit factor "1"
            return 1.0
        return 1.0

    def parse_signed_number(self) -> float:
        sign = 1.0
        tok = self.next()
        if tok.kind in ("plus", "minus"):
            sign = -1.0 if tok.kind == "minus" else 1.0
            tok = self.next()
        if tok.kind != "num":
            raise ExpressionSyntaxError(f"expected number, got {tok.text!r}", tok.pos)
        return sign * float(tok.text)

    def make_generator(self, tok: _Token) -> Generator:
        match = _TOKEN_RE.match(tok.text)
        species = int(match.group("species"))
        if not 1 <= species <= self.n_species:
            raise SpeciesOutOfRange(
                f"species {species} out of range 1..{self.n_species}"
            )
        return Generator(tok.text[0], species)


def parse_expression(text: str, n_species: int) -> OperatorExpression:
    """Parse expression text; round-trips exactly with :func:`format_expression`."""
    if n_species < 1:
        raise ValueError(f"need at least one species, got {n_species}")
    return _Parser(_tokenize(text), n_species, len(text)).parse()


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
        return _content_partition(self.labels, self.target)

    @property
    def cols(self) -> tuple:
        return _content_partition(self.labels, self.n)

    @cached_property
    def mat(self) -> np.ndarray:
        rows, cols = self.rows, self.cols
        if len(rows) == len(cols) == 1 and self.pieces:
            return self.pieces[(0, 0)]
        return _scatter(self.shape, "evaluation block",
                        ((rows[b], cols[c], piece) for (b, c), piece in self.pieces.items()))


def evaluation_blocks(
    expr: OperatorExpression,
    system: StatisticsSystem,
    n: int,
) -> dict[int, EvaluationBlock]:
    """Fock matrices of the expression on sector n, keyed by target degree, held blockwise.

    Factors compose right to left.  Terms that push an intermediate degree
    below zero annihilate and contribute zeros; terms whose final degree is
    negative are dropped entirely.

    Every term is walked once per word block c of sector n (the blocks of
    :class:`EvaluationBlock`), right to left over its letters, on a running
    column block placed at some rows of one word block of the current
    sector.  Creation only moves the block to a run of a block of the next
    sector.  An annihilator at degree at most n multiplies it by the columns
    of that block's annihilation slice; above n it acts on the placed block
    by the one-step recursion down to degree n
    (:func:`~wickforge.fock._annihilate_placed`), so no slice above sector n
    is built.  When T is graded, each letter moves the content by one, so a
    term maps block c into one block of its target, or dies where a block
    lacks the letter of an annihilator.  The state after an all-annihilator
    suffix is kept per source block for the call: the terms ``c_w a_v`` of a
    normal form that share ``a_v`` compute it once.  The term is added in
    place to the rows of its piece.  The pieces of a target degree stand for
    its dense matrix and are bounded together by the entry cap, checked
    before each piece is allocated.
    """
    n_sp = system.dim
    _sector_dim(n_sp, n)
    walk = _Walk(system, n)
    level, species = walk.level, walk.species
    widths = level(n)[1]
    # Every target degree gets a block, even if all its terms die; the
    # entries of its pieces are bounded together, as its dense matrix is.
    pieces: dict[int, dict] = {}
    entries: dict[int, int] = {}
    trailing: dict[tuple, tuple | None] = {}

    def settle(suffix: tuple, c: int) -> tuple | None:
        """``(mat, block)`` after the annihilators ``suffix`` on block c of sector n; None if dead."""
        key = (suffix, c)
        if key not in trailing:
            state = (None, c) if len(suffix) == 1 else settle(suffix[:-1], c)
            degree, i0 = n + 1 - len(suffix), suffix[-1]
            found = None if state is None else walk.slices(degree)[state[1]][i0]
            if found is None:
                trailing[key] = None
            else:
                mat, b = state
                trailing[key] = (found if mat is None else found @ mat,
                                 level(degree)[0][b][i0][0])
        return trailing[key]

    for word, coeff in expr._terms.items():
        _check_word_species(word, n_sp)
        target = n + sum(1 if g.kind == "c" else -1 for g in word)
        if target < 0:
            continue
        _sector_dim(n_sp, target)
        held = pieces.setdefault(target, {})
        # letters right to left as (is creator, species index), and the
        # length of the all-annihilator suffix
        letters = tuple((g.kind == "c", g.species - 1) for g in reversed(word))
        split = 0
        for creates, _ in letters:
            if creates or split > n:
                break
            split += 1
        if split > n:  # the suffix meets the vacuum
            continue
        suffix = tuple(i0 for _, i0 in letters[:split])
        for c, width in enumerate(widths):
            state = settle(suffix, c) if split else (None, c)
            if state is None:
                continue
            (mat, b), degree, row = state, n - split, 0
            for creates, i0 in letters[split:]:
                if creates:
                    b, lo = level(degree + 1)[2][i0][b]
                    row, degree = row + lo, degree + 1
                    continue
                if degree == 0:
                    break
                rows = slice(row, row + (width if mat is None else mat.shape[0]))
                if degree > n:
                    mat = _annihilate_placed(walk, degree, b, rows, mat, species[i0])[i0]
                else:
                    found = walk.slices(degree)[b][i0]
                    mat = None if found is None else (
                        found[:, rows] if mat is None else found[:, rows] @ mat)
                if mat is None:  # block b lacks the letter
                    break
                b, degree, row = level(degree)[0][b][i0][0], degree - 1, 0
            else:
                piece = held.get((b, c))
                if piece is None:
                    height, done = level(target)[1][b], entries.get(target, 0)
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
    return {target: EvaluationBlock(labels=walk.labels, target=target, n=n, pieces=held)
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
