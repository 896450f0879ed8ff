import pickle
import re
from functools import lru_cache

import numpy as np
import pytest

from wickforge import fock, wick
from wickforge.catalog import make_preset
from wickforge.errors import ExpressionSyntaxError, SizeLimit, SpeciesOutOfRange
from wickforge.fock import annihilation_matrix, gram_matrix
from wickforge.linalg import dagger, max_abs
from wickforge.operators import is_graded
from wickforge.wick import (
    Generator,
    NormalForm,
    OperatorExpression,
    _psi_action_residual,
    check_cross_symmetry_axioms,
    evaluation_blocks,
    format_expression,
    normal_order,
    parse_expression,
    star,
    wick_product,
)

from conftest import acceptance_systems, haar_rotated, multi_q, phase_phi, twisted_ccr
from oracles import content_blocks, kron_oracle, path_sum_normal_order

EPS = 1e-9


def c(i):
    return Generator("c", i)


def a(i):
    return Generator("a", i)


def random_expression(rng, n_species, max_terms=3, max_len=3):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        length = int(rng.integers(0, max_len + 1))
        word = tuple(
            Generator(rng.choice(["c", "a"]), int(rng.integers(1, n_species + 1)))
            for _ in range(length)
        )
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms[word] = terms.get(word, 0.0) + coeff
    return OperatorExpression(terms)


def dense(blocks):
    """Target degree -> dense matrix, from evaluation blocks or from dense arrays."""
    return {key: getattr(block, "mat", block) for key, block in blocks.items()}


def blocks_residual(lhs, rhs):
    lhs, rhs = dense(lhs), dense(rhs)
    worst = 0.0
    for key in set(lhs) | set(rhs):
        ref = lhs.get(key, rhs.get(key))
        zero = np.zeros(ref.shape, dtype=complex)
        worst = max(worst, max_abs(lhs.get(key, zero) - rhs.get(key, zero)))
    return worst


class TestParser:
    def test_single_term(self):
        expr = parse_expression("a(1) c(1)", 2)
        assert expr.terms == {(a(1), c(1)): 1.0 + 0.0j}

    def test_coeff_and_complex_unit(self):
        expr = parse_expression("2 c(1) a(2) + (0,1) 1", 2)
        assert expr.terms == {(c(1), a(2)): 2.0 + 0.0j, (): 1.0j}

    def test_species_out_of_range(self):
        with pytest.raises(SpeciesOutOfRange):
            parse_expression("c(5)", 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("c(1) @", 2)
        assert info.value.position == 5

    def test_bare_number_is_not_a_factor(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2 3", 2)

    def test_leading_minus(self):
        expr = parse_expression("-2 c(1)", 2)
        assert expr.terms == {(c(1),): -2.0 + 0.0j}

    def test_merges_duplicate_words(self):
        expr = parse_expression("c(1) + c(1)", 2)
        assert expr.terms == {(c(1),): 2.0 + 0.0j}

    def test_cancellation_prunes(self):
        expr = parse_expression("c(1) - c(1)", 2)
        assert expr.terms == {}

    def test_empty_expression_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ", 2)

    @pytest.mark.parametrize("text, error, message, position", [
        ("c(1) \u200b", ExpressionSyntaxError, "unexpected character '\\u200b'", 5),
        ("c(1) +", ExpressionSyntaxError, "unexpected end of expression", 6),
        ("(1,", ExpressionSyntaxError, "unexpected end of expression", 3),
        ("(1 2) c(1)", ExpressionSyntaxError, "expected comma, got '2'", 3),
        ("(1,2 c(1)", ExpressionSyntaxError, "expected rparen, got 'c(1)'", 5),
        ("(,1) c(1)", ExpressionSyntaxError, "expected number, got ','", 1),
        ("", ExpressionSyntaxError, "empty expression", 0),
        ("   ", ExpressionSyntaxError, "empty expression", 3),
        ("-", ExpressionSyntaxError, "empty expression", 1),
        ("2 3", ExpressionSyntaxError, "expected factor, got number '3'", 2),
        ("1.0", ExpressionSyntaxError, "expected factor, got number '1.0'", 0),
        ("c(1) (1,2)", ExpressionSyntaxError, "expected factor, got '('", 5),
        ("(1,2)", ExpressionSyntaxError, "term has no factors", 5),
        ("- - c(1)", ExpressionSyntaxError, "term has no factors", 2),
        ("1e400 c(1)", ExpressionSyntaxError,
         "coefficient (inf+0j) of c(1) is not finite", 0),
        ("1e308 c(1) + 1e308 c(1)", ExpressionSyntaxError,
         "coefficient (inf+0j) of c(1) is not finite", 0),
        ("a(1) c(3)", SpeciesOutOfRange, "species 3 out of range 1..2", None),
        ("c(0)", SpeciesOutOfRange, "species 0 out of range 1..2", None),
        # Every character is read before any term: the stray one wins.
        ("c(3) @", ExpressionSyntaxError, "unexpected character '@'", 5),
        # Digits are ASCII: a generator index in another script is no generator.
        ("c(\u0663)", ExpressionSyntaxError, "unexpected character 'c'", 0),
        ("\u0663 c(1)", ExpressionSyntaxError, "unexpected character '\u0663'", 0),
        # A generator is checked when read, before the factor after it.
        ("c(3) (", SpeciesOutOfRange, "species 3 out of range 1..2", None),
    ])
    def test_error_contract(self, text, error, message, position):
        with pytest.raises(error) as info:
            parse_expression(text, 2)
        if position is None:
            assert str(info.value) == message
            assert not hasattr(info.value, "position")
        else:
            assert str(info.value) == f"{message} (at position {position})"
            assert info.value.position == position

    @pytest.mark.parametrize("text, terms", [
        ("c(1)c(2)", [((c(1), c(2)), 1)]),
        ("c(1)\u3000a(2)", [((c(1), a(2)), 1)]),
        ("2 1", [((), 2)]),
        ("c(007)", [((c(7),), 1)]),
        ("(1,-2) c(1) - .5e1 1", [((c(1),), 1 - 2j), ((), -5)]),
        ("c(2) + c(1) + c(2)", [((c(2),), 2), ((c(1),), 1)]),
        ("1e-10 c(1) + c(2)", [((c(2),), 1)]),
    ])
    def test_valid_contract(self, text, terms):
        got = list(parse_expression(text, 7).terms.items())
        assert got == terms
        assert all(type(coeff) is complex for _, coeff in got)


class TestPrinting:
    def test_quon_form(self):
        assert format_expression(
            OperatorExpression({(): 1.0, (c(1), a(1)): 0.5})
        ) == "1 + 0.5 c(1) a(1)"

    def test_zero_prints_parseable(self):
        text = format_expression(OperatorExpression({}))
        assert text == "0 1"
        assert parse_expression(text, 2).terms == {}

    def test_roundtrip_random(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            expr = random_expression(rng, 3)
            text = format_expression(expr)
            assert parse_expression(text, 3) == expr, text

    def test_deterministic_term_order(self):
        expr = OperatorExpression({(a(1),): 1.0, (c(2),): 1.0, (c(1),): 1.0})
        assert format_expression(expr) == "c(1) + c(2) + a(1)"


class TestNormalOrder:
    def test_quon_relation(self, quon1_half):
        nf = normal_order(parse_expression("a(1) c(1)", 1), quon1_half)
        assert format_expression(nf) == "1 + 0.5 c(1) a(1)"

    def test_boltzmann_keeps_only_delta(self, boltzmann2):
        nf = normal_order(parse_expression("a(1) c(1)", 2), boltzmann2)
        assert nf.terms == {(): 1.0 + 0.0j}
        nf = normal_order(parse_expression("a(1) c(2)", 2), boltzmann2)
        assert nf.terms == {}

    def test_boson_three_letter_against_fock(self, boson2):
        expr = parse_expression("a(1) c(2) c(1)", 2)
        nf = normal_order(expr, boson2)
        assert nf.is_normal_ordered()
        for degree in range(4):
            assert blocks_residual(
                evaluation_blocks(expr, boson2, degree),
                evaluation_blocks(nf, boson2, degree),
            ) <= EPS

    def test_idempotent_coefficient_exact(self, boson2):
        rng = np.random.default_rng(59)
        for _ in range(20):
            expr = random_expression(rng, 2)
            once = normal_order(expr, boson2)
            twice = normal_order(once, boson2)
            assert once.terms == twice.terms

    def test_terminates_on_adversarial_words(self):
        for system, _ in acceptance_systems(2):
            word = (a(1), c(1), a(2), c(2), a(1), c(2))
            nf = normal_order(OperatorExpression({word: 1.0}), system)
            assert nf.is_normal_ordered()

    def test_overflowing_coefficient_raises(self):
        # with q = 1e200 the rewrite coefficients of 1e200 a(1)^2 c(1)^2 overflow
        huge = make_preset("quon", 1, q=1e200)
        with pytest.raises(ValueError, match=r"of c\(1\) a\(1\) in the normal form is not finite"):
            normal_order(parse_expression("1e200 a(1) a(1) c(1) c(1)", 1), huge)

    def test_normal_form_type_validates(self):
        with pytest.raises(ValueError):
            NormalForm({(a(1), c(1)): 1.0})


class TestWickProduct:
    def test_already_normal(self, boson2):
        result = wick_product(parse_expression("c(1)", 2),
                              parse_expression("a(1)", 2), boson2)
        assert result.terms == {(c(1), a(1)): 1.0 + 0.0j}

    def test_quon_pair(self, quon1_half):
        result = wick_product(parse_expression("a(1)", 1),
                              parse_expression("c(1)", 1), quon1_half)
        assert format_expression(result) == "1 + 0.5 c(1) a(1)"

    def test_keeps_small_product_terms(self, quon1_half):
        # 1e-5 * 1e-5 = 1e-10 is below the parser's 1e-9 drop but is a true
        # term of the product; arithmetic must keep it.
        result = wick_product(parse_expression("1e-5 a(1)", 1),
                              parse_expression("1e-5 c(1)", 1), quon1_half)
        assert set(result.terms) == {(), (c(1), a(1))}
        assert result.terms[()] == pytest.approx(1e-10, rel=1e-12)
        assert result.terms[(c(1), a(1))] == pytest.approx(5e-11, rel=1e-12)

    def test_arithmetic_drops_only_exact_zeros(self):
        small = OperatorExpression({(c(1),): 1e-12})
        assert (small + small).terms == {(c(1),): 2e-12}
        assert small.scale(1e-3).terms == {(c(1),): 1e-15}
        assert (small - small).terms == {}
        assert parse_expression("1e-12 c(1)", 1).terms == {}

    def test_associative(self, boson2):
        rng = np.random.default_rng(61)
        for _ in range(10):
            e1 = random_expression(rng, 2, max_terms=2, max_len=2)
            e2 = random_expression(rng, 2, max_terms=2, max_len=2)
            e3 = random_expression(rng, 2, max_terms=2, max_len=2)
            left = wick_product(wick_product(e1, e2, boson2), e3, boson2)
            right = wick_product(e1, wick_product(e2, e3, boson2), boson2)
            diff = left - right
            worst = max((abs(v) for v in diff.terms.values()), default=0.0)
            assert worst <= 1e-8


class TestStar:
    def test_generator_swap(self):
        assert star(parse_expression("c(1)", 2)).terms == {(a(1),): 1.0 + 0.0j}

    def test_antihomomorphism_on_words(self):
        expr = parse_expression("(0,1) c(1) c(2)", 2)
        assert star(expr).terms == {(a(2), a(1)): -1.0j}

    def test_involution(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            expr = random_expression(rng, 3)
            assert star(star(expr)) == expr

    def test_star_commutes_with_normal_order_on_fock(self, boson2):
        rng = np.random.default_rng(71)
        for _ in range(10):
            expr = random_expression(rng, 2, max_terms=2, max_len=3)
            lhs = star(normal_order(expr, boson2))
            rhs = normal_order(star(expr), boson2)
            for degree in range(3):
                assert blocks_residual(
                    evaluation_blocks(lhs, boson2, degree),
                    evaluation_blocks(rhs, boson2, degree),
                ) <= 1e-8

    def test_star_of_product_reverses(self, boson2):
        rng = np.random.default_rng(73)
        for _ in range(10):
            e1 = random_expression(rng, 2, max_terms=2, max_len=2)
            e2 = random_expression(rng, 2, max_terms=2, max_len=2)
            lhs = star(wick_product(e1, e2, boson2))
            rhs = wick_product(star(e2), star(e1), boson2)
            for degree in range(3):
                assert blocks_residual(
                    evaluation_blocks(lhs, boson2, degree),
                    evaluation_blocks(rhs, boson2, degree),
                ) <= 1e-8


class TestEvaluate:
    def test_unit_is_identity(self, boson2):
        blocks = evaluation_blocks(OperatorExpression.unit(), boson2, 2)
        assert set(blocks) == {2}
        assert np.array_equal(blocks[2].mat, np.eye(4))

    def test_number_operator_boltzmann(self, boltzmann2):
        expr = parse_expression("c(1) a(1)", 2)
        blocks = evaluation_blocks(expr, boltzmann2, 1)
        assert set(blocks) == {1}
        assert np.allclose(blocks[1].mat, np.diag([1.0, 0.0]), atol=EPS)

    def test_mixed_shifts_return_blocks(self, boson2):
        expr = parse_expression("c(1) + a(1)", 2)
        blocks = evaluation_blocks(expr, boson2, 1)
        assert set(blocks) == {0, 2}
        assert blocks[0].mat.shape == (1, 2)
        assert blocks[2].mat.shape == (4, 2)

    def test_annihilating_term_contributes_zero_block(self, boson2):
        expr = parse_expression("c(1) a(1)", 2)
        blocks = evaluation_blocks(expr, boson2, 0)
        assert set(blocks) == {0}
        assert np.array_equal(blocks[0].mat, np.zeros((1, 1)))

    def test_size_limit_propagates(self, boson2, monkeypatch):
        monkeypatch.setattr(fock, "SECTOR_CAP", 8)
        expr = parse_expression("c(1) c(1) c(1)", 2)
        with pytest.raises(SizeLimit):
            evaluation_blocks(expr, boson2, 2)

    def test_soundness_random(self):
        rng = np.random.default_rng(79)
        for system, _ in acceptance_systems(2):
            for _ in range(10):
                expr = random_expression(rng, 2)
                nf = normal_order(expr, system)
                for degree in range(3):
                    assert blocks_residual(
                        evaluation_blocks(expr, system, degree),
                        evaluation_blocks(nf, system, degree),
                    ) <= 1e-8, system.label

    def test_adjointness_bridge(self, boson2):
        rng = np.random.default_rng(83)
        for _ in range(10):
            length = int(rng.integers(1, 4))
            word = tuple(
                Generator(rng.choice(["c", "a"]), int(rng.integers(1, 3)))
                for _ in range(length)
            )
            expr = OperatorExpression({word: 1.0})
            degree = 2
            shift = sum(1 if g.kind == "c" else -1 for g in word)
            target = degree + shift
            if target < 0:
                continue
            forward = evaluation_blocks(expr, boson2, degree)[target].mat
            backward = evaluation_blocks(star(expr), boson2, target)[degree].mat
            gram_target = gram_matrix(boson2, target).mat
            gram_source = gram_matrix(boson2, degree).mat
            assert max_abs(
                dagger(forward) @ gram_target - gram_source @ backward
            ) <= EPS


def inversion_count(word):
    return sum(1 for p, g in enumerate(word) for h in word[p + 1:]
               if g.kind == "a" and h.kind == "c")


def random_word(rng, n_species, max_len, max_inversions):
    """A random word of length <= max_len, annihilators likelier towards the front.

    Words with more than max_inversions inversions are redrawn: the cap
    bounds the number of rewrite paths the oracle walks.
    """
    while True:
        length = int(rng.integers(0, max_len + 1))
        word = tuple(
            Generator("a" if rng.random() < 1 - pos / length else "c",
                      int(rng.integers(1, n_species + 1)))
            for pos in range(length)
        )
        if inversion_count(word) <= max_inversions:
            return word


def reference_systems():
    """(id, system, inversion cap) for the oracle checks; none is flip-scaled."""
    rotated = haar_rotated(twisted_ccr(2, 0.6), np.random.default_rng(89))
    return [
        ("twisted2", twisted_ccr(2, 0.6), 14),
        ("twisted3", twisted_ccr(3, 0.7), 12),
        ("phase3", make_preset("phase", 3, phi=phase_phi(3, np.pi / 3)), 16),
        ("rotated-twisted2", rotated, 7),
    ]


@lru_cache(maxsize=None)
def creation_oracle(n_species, species, degree):
    unit = np.zeros((n_species, 1), dtype=complex)
    unit[species - 1, 0] = 1.0
    return kron_oracle(unit, np.eye(n_species**degree))


def dense_blocks(expr, system, n):
    """Fock blocks by composing dense factor matrices, right to left, from the identity.

    Creation matrices come from ``kron_oracle``; annihilation matrices from
    the sector recursion.
    """
    n_sp = system.dim
    out = {}
    for word, coeff in expr.terms.items():
        target = n + sum(1 if g.kind == "c" else -1 for g in word)
        if target < 0:
            continue
        mat, degree = np.eye(n_sp**n, dtype=complex), n
        for gen in reversed(word):
            if gen.kind == "c":
                mat = creation_oracle(n_sp, gen.species, degree) @ mat
                degree += 1
            elif degree == 0:
                mat = np.zeros((n_sp**target, n_sp**n), dtype=complex)
                break
            else:
                mat = annihilation_matrix(system, gen.species, degree) @ mat
                degree -= 1
        out[target] = out.get(target, 0) + coeff * mat
    return out


class TestReferences:
    @pytest.mark.parametrize("case", range(4),
                             ids=[case[0] for case in reference_systems()])
    def test_normal_order_matches_path_sum(self, case):
        _, system, max_inversions = reference_systems()[case]
        t4 = system.cross.tensor()
        rng = np.random.default_rng(97 + case)
        for _ in range(20):
            terms = {
                random_word(rng, system.dim, 8, max_inversions):
                complex(rng.standard_normal(), rng.standard_normal())
                for _ in range(int(rng.integers(1, 3)))
            }
            got = normal_order(OperatorExpression(terms), system).terms
            paths = path_sum_normal_order(terms, t4)
            assert set(got) <= set(paths)
            for word, contributions in paths.items():
                scale = sum(abs(c) for c in contributions)
                assert abs(got.get(word, 0.0) - sum(contributions)) <= 1e-12 * scale

    def test_rotated_system_is_dense(self):
        _, system, _ = reference_systems()[3]
        assert not is_graded(system.cross)
        assert np.count_nonzero(system.cross.tensor()) == 16

    def test_small_true_coefficient_is_kept(self):
        q = 0.099
        expr = parse_expression("a(1) a(1) a(1) c(1) c(1) c(1)", 1)
        nf = normal_order(expr, make_preset("quon", 1, q=q))
        coeff = nf.terms[(c(1), c(1), c(1), a(1), a(1), a(1))]
        assert abs(coeff - q**9) <= 1e-12 * q**9

    def test_cancellation_noise_is_dropped(self):
        # 3 * 0.1 - 0.3 leaves 5.6e-17 on c(1) a(1): noise against a mass of 0.6
        expr = parse_expression("3 a(1) c(1) - 0.3 c(1) a(1)", 1)
        nf = normal_order(expr, make_preset("quon", 1, q=0.1))
        assert nf.terms == {(): 3.0 + 0.0j}

    @pytest.mark.parametrize("case", [0, 3], ids=["twisted2", "rotated-twisted2"])
    def test_evaluation_matches_dense_composition(self, case, boson2):
        systems = [boson2, reference_systems()[case][1]]
        rng = np.random.default_rng(101 + case)
        # An annihilator at a degree <= n after a creator has moved the rows
        # reads its level at a nonzero column offset.
        placed = ["a(2) c(2) a(1) a(1)", "a(1) c(2) a(2)"]
        for system in systems:
            exprs = [random_expression(rng, 2, max_terms=4, max_len=4) for _ in range(8)]
            for expr in exprs + [parse_expression(text, 2) for text in placed]:
                for form in (expr, normal_order(expr, system)):
                    for n in range(3):
                        got = evaluation_blocks(form, system, n)
                        ref = dense_blocks(form, system, n)
                        assert set(got) == set(ref)
                        assert blocks_residual(got, ref) <= 1e-12

    def test_terms_share_their_trailing_annihilators(self, twisted2, monkeypatch):
        # one slice read per distinct all-annihilator suffix that stays above
        # the vacuum and per source block on which the suffix one letter
        # shorter lives, however many terms of the normal form end in it
        n = 3
        nf = normal_order(parse_expression("a(1) a(2) a(1) c(1) c(2) c(1)", 2), twisted2)
        reads = []
        real = fock._Tower.slices
        fock._tower(twisted2).slices(n)  # built first, so that only the reads are counted

        def counted(tower, m):
            reads.append(m)
            return real(tower, m)

        monkeypatch.setattr(fock._Tower, "slices", counted)
        got = evaluation_blocks(nf, twisted2, n)
        assert fock._tower(twisted2).labels == (0, 1)
        counts = fock._tower(twisted2).level(n)[3]

        def lives(suffix, c):
            return all(counts[c][s - 1] >= sum(g.species == s for g in suffix) for s in (1, 2))

        suffixes = {word[k:] for word in nf.terms for k in range(len(word))
                    if len(word) - k <= n and all(g.kind == "a" for g in word[k:])}
        shared = sum(lives(suffix[1:], c) for suffix in suffixes for c in range(len(counts)))
        unshared = sum(lives(word[k + 1:], c) for word in nf.terms for k in range(len(word))
                       if len(word) - k <= n and all(g.kind == "a" for g in word[k:])
                       for c in range(len(counts)))
        assert len(reads) == shared == 21 < unshared == 61
        assert blocks_residual(got, dense_blocks(nf, twisted2, n)) <= 1e-12

    def test_evaluation_dead_and_dropped_terms(self, twisted2):
        # on sector 1: c a a dies below degree 0 but lands in sector 0,
        # a a would land in sector -1 and is dropped, c(2) lands in sector 2
        expr = parse_expression("c(1) a(1) a(1) + a(1) a(2) + c(2)", 2)
        got = evaluation_blocks(expr, twisted2, 1)
        assert set(got) == {0, 2}
        assert np.array_equal(got[0].mat, np.zeros((1, 2)))
        assert blocks_residual(got, dense_blocks(expr, twisted2, 1)) == 0.0
        # on sector 0 the annihilators after the first creator meet the vacuum
        expr = parse_expression("c(1) c(2) a(1) a(2) c(1)", 2)
        assert blocks_residual(evaluation_blocks(expr, twisted2, 0),
                               {1: np.zeros((2, 1))}) == 0.0

    def test_evaluation_cap_on_intermediate_sector(self, twisted2, monkeypatch):
        # the target is sector 2 (dim 4), but the creators pass through sector 5
        expr = parse_expression("a(1) a(2) a(1) c(2) c(1) c(2)", 2)
        monkeypatch.setattr(fock, "SECTOR_CAP", 16)
        with pytest.raises(SizeLimit):
            evaluation_blocks(expr, twisted2, 2)
        monkeypatch.setattr(fock, "SECTOR_CAP", 32)
        got = evaluation_blocks(expr, twisted2, 2)
        assert blocks_residual(got, dense_blocks(expr, twisted2, 2)) <= 1e-12


class TestEvaluationMemory:
    """Annihilators above the input sector act by the recursion, not by dense levels."""

    @pytest.mark.parametrize("text,system", [
        ("a(1) a(2) c(2) c(3)", make_preset("phase", 3, phi=phase_phi(3, np.pi / 3))),
        ("a(1) a(2) c(2) c(3)", haar_rotated(twisted_ccr(3, 0.7), np.random.default_rng(7))),
        ("a(1) a(1) a(1) a(1) c(1) c(1) c(1) c(1)", twisted_ccr(2, 0.6)),
        ("a(1) a(1) a(1) a(1) c(1) c(1) c(1) c(1) + c(2) a(1) c(1) a(2) a(2) c(1)",
         haar_rotated(twisted_ccr(2, 0.6), np.random.default_rng(11))),
    ], ids=["phase3", "rotated-twisted3", "twisted2", "rotated-twisted2"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_no_level_above_the_input_sector(self, fresh_cache, text, system, n):
        expr = parse_expression(text, system.dim)
        for form in (expr, normal_order(expr, system)):
            fock.clear_cache()
            got = evaluation_blocks(form, system, n)
            built = set(fock._tower(system)._slices)
            assert max(built, default=0) <= n, sorted(built)
            ref = dense_blocks(form, system, n)
            assert set(got) == set(ref)
            scale = max(1.0, *(max_abs(block) for block in ref.values()))
            assert blocks_residual(got, ref) <= 1e-12 * scale


class TestEvaluationPieces:
    """Graded systems: the pieces of every target block against the dense composition."""

    @staticmethod
    def graded():
        return [twisted_ccr(2, 0.6), twisted_ccr(3, 0.7), make_preset("boson", 3),
                make_preset("phase", 3, phi=phase_phi(3, np.pi / 3))]

    @pytest.mark.parametrize("text", [
        # the terms shift the letter content differently within one target
        "a(1) c(2) + c(1) a(1)",
        "a(1) c(2) + (0.5,1) c(2) a(1) + c(1) a(1) - 2 1",
        # dead terms: below the vacuum, in every block, and target < 0
        "c(1) a(1) a(1) + a(1) a(2) a(2) + c(2) + c(1) c(2) a(1) a(2) c(1)",
        # rows at nonzero offsets inside a block: the creators place the
        # running block after other runs, then annihilators read it there
        "a(2) c(2) a(1) a(1) + a(1) c(2) a(2) + c(2) c(1) a(1)",
        "a(1) a(2) a(1) c(2) c(1) c(2) + a(3) c(3) c(2) a(1)",
    ])
    def test_pieces_match_the_dense_composition(self, fresh_cache, text):
        for system in self.graded():
            if system.dim < 3 and "(3)" in text:
                continue
            expr = parse_expression(text, system.dim)
            for form in (expr, normal_order(expr, system)):
                for n in range(4):
                    got = evaluation_blocks(form, system, n)
                    ref = dense_blocks(form, system, n)
                    assert set(got) == set(ref), (system.label, n)
                    for target, block in got.items():
                        assert block.labels == tuple(range(system.dim))
                        assert block.shape == ref[target].shape
                        scale = max(1.0, max_abs(ref[target]))
                        assert max_abs(block.mat - ref[target]) <= 1e-12 * scale
                        # every piece maps a source block into one target block
                        for (b, c), piece in block.pieces.items():
                            assert piece.shape == (len(block.rows[b]), len(block.cols[c]))

    def test_graded_evaluation_reads_no_whole_sector_slice(self, fresh_cache):
        expr = parse_expression("a(1) a(2) c(2) c(1) + c(2) a(2) + a(1) c(2)", 2)
        for system in self.graded():
            fock.clear_cache()
            for n in range(4):
                evaluation_blocks(expr, system, n)
                evaluation_blocks(normal_order(expr, system), system, n)
            sets = fock._tower(system)._slices
            assert sets and all(len(value) == len(content_blocks(system.dim, m))
                                for m, value in sets.items())

    def test_one_block_is_the_dense_matrix(self):
        system = haar_rotated(twisted_ccr(2, 0.6), np.random.default_rng(47))
        got = evaluation_blocks(parse_expression("a(1) c(2) + c(1)", 2), system, 2)
        assert got[2].labels == (0, 0) and set(got[2].pieces) == {(0, 0)}
        assert got[2].mat is got[2].pieces[(0, 0)]


def same_pieces(got, want) -> bool:
    """Two evaluations with the same target degrees, pieces, dtypes, shapes and bytes."""
    return set(got) == set(want) and all(
        set(got[t].pieces) == set(want[t].pieces)
        and all(piece.dtype == want[t].pieces[key].dtype
                and piece.shape == want[t].pieces[key].shape
                and piece.tobytes() == want[t].pieces[key].tobytes()
                for key, piece in got[t].pieces.items())
        for t in got)


class TestWalkTable:
    """The walk table an expression keeps from its first evaluation."""

    TEXT = "a(1) a(2) c(1) c(2) + (0.5,1) c(2) a(1) - 2 1 + c(1) c(1) a(2) + a(2) a(2) a(1)"

    def test_kept_table_gives_the_pieces_of_a_fresh_copy(self, fresh_cache):
        rng = np.random.default_rng(59)
        systems = [twisted_ccr(2, 0.6), multi_q(2, rng), haar_rotated(twisted_ccr(2, 0.6), rng),
                   make_preset("boson", 2)]
        expr = parse_expression(self.TEXT, 2)
        forms = [expr] + [normal_order(expr, system) for system in systems]
        evaluation_blocks(expr, systems[0], 0)
        table = expr._walks
        for system in systems:
            for n in (2, 0, 3, 1):
                for form in forms:
                    fresh = type(form)(form.terms)  # the same terms, no walk table
                    assert same_pieces(evaluation_blocks(form, system, n),
                                       evaluation_blocks(fresh, system, n)), (system.label, n)
        assert expr._walks is table  # read on every sector and system, built once

    def test_filled_table_changes_no_other_behaviour(self, twisted2):
        for make in (lambda: parse_expression(self.TEXT, 2),
                     lambda: normal_order(parse_expression(self.TEXT, 2), twisted2)):
            filled, fresh = make(), make()
            evaluation_blocks(filled, twisted2, 2)
            assert filled._walks is not None and fresh._walks is None
            assert filled == fresh and hash(filled) == hash(fresh)
            assert star(filled) == star(fresh)
            assert filled.concat(filled) == fresh.concat(fresh)
            assert str(filled) == str(fresh)
            assert pickle.dumps(filled) == pickle.dumps(fresh)
            back = pickle.loads(pickle.dumps(filled))
            assert type(back) is type(filled) and back == filled and back._walks is None
            assert same_pieces(evaluation_blocks(back, twisted2, 2),
                               evaluation_blocks(filled, twisted2, 2))

    @pytest.mark.parametrize("word,species", [
        ((a(7),), 7),
        ((c(0),), 0),  # built by hand: the parser refuses species 0
        ((c(1), c(0), a(5)), 0),  # the first bad letter of the word is named
        ((a(5), c(0)), 5),
    ])
    def test_out_of_range_species_on_every_call(self, boson2, word, species):
        # the valid term comes first, so the check is made term by term
        expr = OperatorExpression({(c(1), a(2)): 1.0, word: 2.0})
        message = f"species {species} out of range 1..2"
        with pytest.raises(SpeciesOutOfRange, match=re.escape(message)):
            normal_order(expr, boson2)
        for n in (1, 1, 0):
            with pytest.raises(SpeciesOutOfRange, match=re.escape(message)):
                evaluation_blocks(expr, boson2, n)


class TestDeepWords:
    """Five and six annihilators acting above the input sector, against the dense composition.

    The placed recursion runs from up to five degrees above sector n down
    to it, on dense running blocks; the pieces are compared, not a
    ``--verify`` verdict, whose tolerance is absolute.
    """

    WORDS = {
        2: ["a(2) a(1) a(2) a(1) a(2) c(1) c(2) c(1) c(2) c(1)",
            "a(1) a(2) a(2) a(1) a(2) a(1) c(2) c(1) c(1) c(2) c(2) c(1)"],
        3: ["a(3) a(1) a(2) a(1) a(3) c(2) c(1) c(3) c(1) c(2)"],
    }

    @staticmethod
    def systems():
        rng = np.random.default_rng(61)
        pair = [twisted_ccr(2, 0.6), multi_q(2, rng)]
        return (pair + [haar_rotated(system, rng) for system in pair]
                + [make_preset("phase", 3, phi=phase_phi(3, np.pi / 3))])

    @pytest.mark.parametrize("case", range(5), ids=["twisted2", "multi-q2", "rotated-twisted2",
                                                    "rotated-multi-q2", "phase3"])
    def test_pieces_match_the_dense_composition(self, fresh_cache, case):
        system = self.systems()[case]
        for text in self.WORDS[system.dim]:
            expr = parse_expression(text, system.dim)
            for form in (expr, normal_order(expr, system)):
                for n in range(3):
                    got = evaluation_blocks(form, system, n)
                    ref = dense_blocks(form, system, n)
                    assert set(got) == set(ref), (text, n)
                    for target, block in got.items():
                        scale = max(1.0, max_abs(ref[target]))
                        for (b, c), piece in block.pieces.items():
                            want = ref[target][np.ix_(block.rows[b], block.cols[c])]
                            assert max_abs(piece - want) <= 1e-12 * scale, (text, n, target, b, c)
                        # and zero outside the pieces
                        assert max_abs(block.mat - ref[target]) <= 1e-12 * scale, (text, n, target)


class TestCrossSymmetryAxioms:
    @pytest.mark.parametrize("name,kwargs,degree", [
        ("boson", {}, 2),
        ("quon", {"q": 0.5}, 3),
        ("fermion", {}, 2),
        ("boltzmann", {}, 2),
    ])
    def test_presets_pass(self, name, kwargs, degree):
        system = make_preset(name, 2, **kwargs)
        report = check_cross_symmetry_axioms(system, max_degree=degree)
        assert report.passed
        assert all(check.status == "pass" for check in report.checks)

    def test_phase_passes(self):
        system = make_preset("phase", 2, phi=np.pi / 3)
        report = check_cross_symmetry_axioms(system, max_degree=2)
        assert report.passed

    def test_dropped_t_term_fails(self):
        # rewrite route uses T = 0 while the sector recursion keeps the boson T
        broken_rewrite = make_preset("boltzmann", 2)
        fock_side = make_preset("boson", 2)
        residual = _psi_action_residual(broken_rewrite, fock_side, max_degree=2)
        assert residual > 0.5

    def test_degree_cap(self, boson2):
        with pytest.raises(ValueError):
            check_cross_symmetry_axioms(boson2, max_degree=4)


def test_species_validation_on_programmatic_expressions(boson2):
    expr = OperatorExpression({(Generator("a", 7),): 1.0})
    with pytest.raises(SpeciesOutOfRange):
        normal_order(expr, boson2)
    with pytest.raises(SpeciesOutOfRange):
        evaluation_blocks(expr, boson2, 1)
