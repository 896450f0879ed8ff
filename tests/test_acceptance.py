"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values tagged as derived were computed with the independent
oracles in ``oracles.py`` and frozen here.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from math import comb

import numpy as np

from wickforge.catalog import make_preset
from wickforge.errors import SpeciesOutOfRange
from wickforge.fock import (
    annihilation_matrix,
    creation_matrix,
    descended_operators,
    gram_matrix,
    kernel_basis,
    positivity_report,
    quotient_gram,
    quotient_sector,
)
from wickforge.linalg import dagger, max_abs
from wickforge.operators import (
    BraidOperator,
    CrossOperator,
    StatisticsSystem,
    check_braid,
    check_consistency,
    check_star,
    check_yang_baxter,
    build_ttilde,
    dump_system,
)
from wickforge.wick import (
    Generator,
    OperatorExpression,
    evaluation_blocks,
    format_expression,
    normal_order,
    parse_expression,
)

from conftest import acceptance_systems
from oracles import flip_matrix, perm_gram, q_factorial

TOL = 1e-9


def criterion(num: int, desc: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d}: FAIL  {desc}")
                raise
            print(f"criterion {num:02d}: PASS  {desc}")
        return wrapper
    return decorate


def blocks_residual(lhs, rhs):
    lhs = {key: block.mat for key, block in lhs.items()}
    rhs = {key: block.mat for key, block in rhs.items()}
    worst = 0.0
    for key in set(lhs) | set(rhs):
        ref = lhs.get(key, rhs.get(key))
        zero = np.zeros(ref.shape, dtype=complex)
        worst = max(worst, max_abs(lhs.get(key, zero) - rhs.get(key, zero)))
    return worst


@criterion(1, "preset validation: star/YB everywhere, braid+consistency where B exists")
def test_criterion_01_preset_validation():
    for n_species in (1, 2, 3):
        for system, _ in acceptance_systems(n_species):
            ok, res = check_star(system.cross, TOL)
            assert ok and res <= TOL, system.label
            ok, res = check_yang_baxter(build_ttilde(system.cross), TOL)
            assert ok and res <= TOL, system.label
            if system.braid is not None:
                ok, res = check_braid(system.braid, TOL)
                assert ok and res <= TOL, system.label
                ok, (r1, r2) = check_consistency(system.cross, system.braid, TOL)
                assert ok and r1 <= TOL and r2 <= TOL, system.label


@criterion(2, "negative controls: (0.5*tau, tau) consistency r2 = 0.5; random B fails braid")
def test_criterion_02_negative_controls():
    tau = flip_matrix(2)
    ok, (_, r2) = check_consistency(CrossOperator(0.5 * tau), BraidOperator(tau))
    assert not ok
    assert r2 >= 0.5
    # exactly |1 - q| times the max entry of id - tau, which is 1
    assert abs(r2 - 0.5) <= TOL
    rng = np.random.default_rng(2024)
    ok, res = check_braid(BraidOperator(rng.standard_normal((4, 4))))
    assert not ok and res > TOL


@criterion(3, "boltzmann Gram is the identity for N=2, n <= 5 (deviation <= 1e-12)")
def test_criterion_03_boltzmann_identity():
    system = make_preset("boltzmann", 2)
    for degree in range(6):
        gram = gram_matrix(system, degree).mat
        assert max_abs(gram - np.eye(2**degree)) <= 1e-12, degree


# frozen from the permutation-sum oracle sum_sigma q^inv(sigma) at q = 0.5
QUON_HALF_NORMS = {1: 1.0, 2: 1.5, 3: 2.625, 4: 4.921875, 5: 9.5361328125}


@criterion(4, "quon norms: <x^n, x^n> = [n]_q! for q = 0.5, n <= 5")
def test_criterion_04_quon_norms():
    system = make_preset("quon", 1, q=0.5)
    qmat = np.array([[0.5]], dtype=complex)
    for degree, frozen in QUON_HALF_NORMS.items():
        oracle = perm_gram(1, degree, qmat)[0, 0]
        assert abs(oracle - frozen) <= 1e-12
        assert abs(q_factorial(degree, 0.5) - frozen) <= 1e-12
        gram = gram_matrix(system, degree).mat[0, 0]
        assert abs(gram - frozen) <= TOL


@criterion(5, "recursion Gram equals permutation-sum Gram for all presets, N <= 3, n <= 4")
def test_criterion_05_gram_oracle_equivalence():
    for n_species in (1, 2, 3):
        for system, qmat in acceptance_systems(n_species):
            for degree in range(5):
                gram = gram_matrix(system, degree).mat
                oracle = perm_gram(n_species, degree, qmat)
                assert max_abs(gram - oracle) <= TOL, (system.label, degree)


@criterion(6, "positivity: quon 0.5 definite; quon 1 semidefinite with symmetric-count kernel")
def test_criterion_06_positivity():
    half = make_preset("quon", 2, q=0.5)
    for degree in range(5):
        report = positivity_report(half, degree, TOL)
        assert report.min_eig > 0 and report.positive_definite, degree
    one = make_preset("quon", 2, q=1.0)
    for degree in range(5):
        gram = gram_matrix(one, degree).mat
        report = positivity_report(one, degree, TOL)
        assert report.min_eig >= -TOL, degree
        expected_kernel = 2**degree - comb(2 + degree - 1, degree)
        assert kernel_basis(gram, TOL).shape[1] == expected_kernel, degree
        assert report.kernel_dim == expected_kernel, degree


@criterion(7, "quotient dims: boson (1,2,3,4,5), fermion (1,2,1,0,0), fermion N=3 n=2 -> 3; quotient Grams definite")
def test_criterion_07_quotient_dimensions():
    boson = make_preset("boson", 2)
    assert tuple(quotient_sector(boson, n, TOL).quotient.dim
                 for n in range(5)) == (1, 2, 3, 4, 5)
    fermion = make_preset("fermion", 2)
    assert tuple(quotient_sector(fermion, n, TOL).quotient.dim
                 for n in range(5)) == (1, 2, 1, 0, 0)
    fermion3 = make_preset("fermion", 3)
    assert quotient_sector(fermion3, 2, TOL).quotient.dim == 3
    for system in (boson, fermion, fermion3):
        for degree in range(5):
            if system.dim**degree > 300:
                continue
            if quotient_sector(system, degree, TOL).quotient.dim == 0:
                continue
            report = positivity_report(system, degree, TOL, quotient=True)
            assert report.positive_definite, (system.label, degree)


@criterion(8, "representation contract: adjointness and commutation on full and quotient sectors")
def test_criterion_08_representation_contract():
    for n_species in (1, 2, 3):
        for system, _ in acceptance_systems(n_species):
            t4 = system.cross.tensor()
            for degree in range(5):
                gram_here = gram_matrix(system, degree).mat
                gram_up = gram_matrix(system, degree + 1).mat
                for i in range(1, n_species + 1):
                    cmat = creation_matrix(system, i, degree)
                    amat = annihilation_matrix(system, i, degree + 1)
                    assert max_abs(dagger(cmat) @ gram_up - gram_here @ amat) <= TOL, \
                        (system.label, degree)
                for i in range(1, n_species + 1):
                    for j in range(1, n_species + 1):
                        lhs = (annihilation_matrix(system, i, degree + 1)
                               @ creation_matrix(system, j, degree))
                        if degree > 0:
                            for k in range(1, n_species + 1):
                                for l in range(1, n_species + 1):
                                    coeff = t4[k - 1, l - 1, i - 1, j - 1]
                                    if coeff != 0:
                                        lhs = lhs - coeff * (
                                            creation_matrix(system, k, degree - 1)
                                            @ annihilation_matrix(system, l, degree)
                                        )
                        delta = (1.0 if i == j else 0.0) * np.eye(n_species**degree)
                        assert max_abs(lhs - delta) <= TOL, (system.label, degree)
    # quotient sectors for the braided presets
    for name, kwargs in (("boson", {}), ("fermion", {}), ("phase", {"phi": np.pi / 3})):
        system = make_preset(name, 2, **kwargs)
        t4 = system.cross.tensor()
        for degree in range(5):
            qgram_here = quotient_gram(system, degree, TOL).mat
            qgram_up = quotient_gram(system, degree + 1, TOL).mat
            qdim = qgram_here.shape[0]
            for i in (1, 2):
                c_desc, _ = descended_operators(system, i, degree, TOL)
                _, a_desc = descended_operators(system, i, degree + 1, TOL)
                assert max_abs(dagger(c_desc) @ qgram_up - qgram_here @ a_desc) <= TOL
            for i in (1, 2):
                for j in (1, 2):
                    c_j, _ = descended_operators(system, j, degree, TOL)
                    _, a_i_up = descended_operators(system, i, degree + 1, TOL)
                    lhs = a_i_up @ c_j
                    if degree > 0:
                        for k in (1, 2):
                            for l in (1, 2):
                                coeff = t4[k - 1, l - 1, i - 1, j - 1]
                                if coeff != 0:
                                    c_k, _ = descended_operators(system, k, degree - 1, TOL)
                                    _, a_l = descended_operators(system, l, degree, TOL)
                                    lhs = lhs - coeff * (c_k @ a_l)
                    delta = (1.0 if i == j else 0.0) * np.eye(qdim)
                    assert max_abs(lhs - delta) <= TOL, (name, degree)


@criterion(9, "boson CCR and fermion CAR (plus nilpotency) on quotient sectors, N=2, n <= 4")
def test_criterion_09_boson_fermion_recovery():
    boson = make_preset("boson", 2)
    fermion = make_preset("fermion", 2)
    for degree in range(5):
        for i in (1, 2):
            for j in (1, 2):
                qdim = quotient_sector(boson, degree, TOL).quotient.dim
                c_j, _ = descended_operators(boson, j, degree, TOL)
                _, a_i_up = descended_operators(boson, i, degree + 1, TOL)
                commutator = a_i_up @ c_j
                if degree > 0:
                    c_j_dn, _ = descended_operators(boson, j, degree - 1, TOL)
                    _, a_i = descended_operators(boson, i, degree, TOL)
                    commutator = commutator - c_j_dn @ a_i
                delta = (1.0 if i == j else 0.0) * np.eye(qdim)
                assert max_abs(commutator - delta) <= TOL, ("boson", degree)

                fdim = quotient_sector(fermion, degree, TOL).quotient.dim
                fc_j, _ = descended_operators(fermion, j, degree, TOL)
                _, fa_i_up = descended_operators(fermion, i, degree + 1, TOL)
                anti = fa_i_up @ fc_j
                if degree > 0:
                    fc_j_dn, _ = descended_operators(fermion, j, degree - 1, TOL)
                    _, fa_i = descended_operators(fermion, i, degree, TOL)
                    anti = anti + fc_j_dn @ fa_i
                delta = (1.0 if i == j else 0.0) * np.eye(fdim)
                assert max_abs(anti - delta) <= TOL, ("fermion", degree)
        # (creator)^2 vanishes on the fermion quotient
        for i in (1, 2):
            first, _ = descended_operators(fermion, i, degree, TOL)
            second, _ = descended_operators(fermion, i, degree + 1, TOL)
            square = second @ first
            assert square.size == 0 or max_abs(square) <= TOL, degree


def _random_expression(rng, n_species, max_terms=3, max_len=3):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        length = int(rng.integers(0, max_len + 1))
        word = tuple(
            Generator(rng.choice(["c", "a"]), int(rng.integers(1, n_species + 1)))
            for _ in range(length)
        )
        terms[word] = terms.get(word, 0.0) + complex(rng.standard_normal(),
                                                     rng.standard_normal())
    return OperatorExpression(terms)


@criterion(10, "normal ordering: quon print form; 50 random soundness checks per preset; termination")
def test_criterion_10_normal_ordering():
    for q in (0.5, 0.25):
        system = make_preset("quon", 1, q=q)
        nf = normal_order(parse_expression("a(1) c(1)", 1), system)
        assert format_expression(nf) == f"1 + {q} c(1) a(1)"
    rng = np.random.default_rng(4321)
    for system, _ in acceptance_systems(2):
        for _ in range(50):
            expr = _random_expression(rng, 2)
            nf = normal_order(expr, system)
            assert nf.is_normal_ordered()
            for degree in range(4):
                assert blocks_residual(
                    evaluation_blocks(expr, system, degree),
                    evaluation_blocks(nf, system, degree),
                ) <= 1e-8, system.label
        # adversarial fully-alternating fuzz words
        for _ in range(10):
            length = 6
            word = tuple(
                Generator("a" if p % 2 == 0 else "c", int(rng.integers(1, 3)))
                for p in range(length)
            )
            nf = normal_order(OperatorExpression({word: 1.0}), system)
            assert nf.is_normal_ordered()


def _run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "wickforge.cli", *argv],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


@criterion(11, "CLI determinism (byte-identical --json) and exit-code contract")
def test_criterion_11_cli(tmp_path):
    commands = [
        ["validate", "--preset", "boson", "--dim", "2", "--json"],
        ["gram", "--preset", "boson", "--dim", "2", "--sector", "2", "--json"],
        ["gram", "--preset", "boson", "--dim", "2", "--sector", "2",
         "--quotient", "--json"],
        ["kernel", "--preset", "boson", "--dim", "2", "--json"],
        ["quotient", "--preset", "boson", "--dim", "2", "--max-sector", "3",
         "--json"],
        ["normal-order", "a(1) c(1)", "--preset", "boson", "--dim", "2",
         "--verify", "--max-sector", "3", "--json"],
        ["catalog", "--preset", "boson", "--dim", "2", "--emit"],
    ]
    for argv in commands:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2 and out1, argv
    # exit-code contract: pass, fail, usage
    code, _ = _run_cli(["validate", "--preset", "boson", "--dim", "2"])
    assert code == 0
    bad = StatisticsSystem(
        cross=CrossOperator(0.5 * flip_matrix(2)),
        braid=BraidOperator(flip_matrix(2)),
        label="corrupted",
    )
    path = tmp_path / "corrupted.json"
    path.write_text(dump_system(bad))
    code, _ = _run_cli(["validate", "--file", str(path)])
    assert code == 1
    code, _ = _run_cli(["validate", "--preset", "boson", "--bogus"])
    assert code == 2


def test_species_guard_is_not_part_of_the_battery():
    # sanity backstop: SpeciesOutOfRange still fires inside acceptance paths
    system = make_preset("boson", 2)
    try:
        normal_order(OperatorExpression({(Generator("a", 9),): 1.0}), system)
    except SpeciesOutOfRange:
        return
    raise AssertionError("expected SpeciesOutOfRange")
