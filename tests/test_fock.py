import ast
import inspect
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

from wickforge import fock, operators, wick
from wickforge.catalog import make_preset
from wickforge.errors import NoBraid, NotHermitian, NotWellDefined, SizeLimit
from wickforge.fock import (
    GramMatrix,
    annihilation_matrix,
    creation_matrix,
    creation_rows,
    descended_operators,
    gram_matrix,
    ideal_subspace,
    p2_kernel,
    positivity_report,
    quotient_gram,
    quotient_sector,
    sector_basis,
    sector_report,
    sector_spectrum,
    word_blocks,
)
from wickforge.linalg import dagger, kernel_basis, max_abs
from wickforge.operators import (
    ROUNDING,
    BraidOperator,
    CrossOperator,
    StatisticsSystem,
    check_star,
    dump_system,
    is_graded,
    load_system,
    preserves_content,
    symmetry_generators,
)

from conftest import (
    acceptance_systems, haar_rotated, haar_unitary, multi_q, phase_phi, twisted_ccr,
)
from oracles import (
    annihilate_word, content_blocks, flip_matrix, perm_gram, perm_gram_entry, q_factorial,
    symmetry_generators_oracle, word_index,
)

EPS = 1e-9


class TestSectorBasis:
    def test_degree_zero_is_vacuum(self):
        sector = sector_basis(2, 0)
        assert sector.basis == ((),)
        assert sector.dim_full == 1

    def test_degree_two_enumeration(self):
        sector = sector_basis(2, 2)
        assert sector.basis == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_flattening_offset(self):
        sector = sector_basis(3, 2)
        assert len(sector.basis) == 9
        assert word_index((2, 3), 3) == 5
        assert sector.basis[5] == (2, 3)

    def test_lexicographic_matches_offsets(self):
        sector = sector_basis(3, 3)
        for idx, word in enumerate(sector.basis):
            assert word_index(word, 3) == idx

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            sector_basis(2, 17)

    def test_size_limit_on_matrix_builders(self, boson2, monkeypatch):
        monkeypatch.setattr(fock, "SECTOR_CAP", 8)
        with pytest.raises(SizeLimit):
            creation_matrix(boson2, 1, 3)  # target sector has dim 16
        with pytest.raises(SizeLimit):
            annihilation_matrix(boson2, 1, 4)
        with pytest.raises(SizeLimit):
            gram_matrix(boson2, 4)


class TestSectorCap:
    """The sector-size rule lives in one function and is not a parameter."""

    @pytest.mark.parametrize("module", [fock, wick], ids=lambda m: m.__name__)
    def test_no_function_takes_a_cap(self, module):
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if func.__module__ == module.__name__:
                assert "cap" not in inspect.signature(func).parameters, name

    @pytest.mark.parametrize("module", [fock, wick], ids=lambda m: m.__name__)
    def test_only_sector_dim_reads_the_cap(self, module):
        tree = ast.parse(inspect.getsource(module))

        def reads(node) -> int:
            """Reads of SECTOR_CAP under node: as a name, an attribute or an import."""
            count = 0
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    count += sub.id == "SECTOR_CAP"
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    count += sub.attr == "SECTOR_CAP"
                elif isinstance(sub, ast.alias):
                    count += sub.name == "SECTOR_CAP"
            return count

        inside = sum(reads(node) for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_sector_dim")
        assert reads(tree) == inside
        assert (inside > 0) == (module is fock)

    def test_cap_is_read_at_call_time(self, monkeypatch):
        assert fock._sector_dim(10, 5) == 10**5
        with pytest.raises(SizeLimit):
            fock._sector_dim(10, 6)
        monkeypatch.setattr(fock, "SECTOR_CAP", 10**6)
        assert fock._sector_dim(10, 6) == 10**6
        with pytest.raises(ValueError):
            fock._sector_dim(2, -1)

    def test_checked_before_the_cache(self, boson2, monkeypatch):
        gram_matrix(boson2, 4)
        sector_spectrum(boson2, 4)
        monkeypatch.setattr(fock, "SECTOR_CAP", 8)
        with pytest.raises(SizeLimit):
            gram_matrix(boson2, 4)
        with pytest.raises(SizeLimit):
            sector_spectrum(boson2, 4)


class TestEntryCap:
    """Dense matrices that a capped sector does not bound are checked on their own."""

    @pytest.mark.parametrize("module", [fock, wick], ids=lambda m: m.__name__)
    def test_only_check_entries_reads_the_cap(self, module):
        tree = ast.parse(inspect.getsource(module))
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                 and getattr(node, "id", getattr(node, "attr", None)) == "ENTRY_CAP"]
        inside = [node for func in tree.body
                  if isinstance(func, ast.FunctionDef) and func.name == "_check_entries"
                  for node in ast.walk(func) if node in reads]
        assert reads == inside
        assert bool(inside) == (module is fock)

    def test_real_cap_refuses_before_allocating(self, fresh_cache, boson2):
        # in sectors under SECTOR_CAP, refused before anything of their size is built
        # the pieces of one target degree are bounded together: those of c(1)
        # on sector 13 hold C(27, 13) = 20M entries, though each is under the cap
        with pytest.raises(SizeLimit, match="evaluation piece to sector 14 .* held beside it"):
            wick.evaluation_blocks(wick.parse_expression("c(1)", 2), boson2, 13)
        # the dense matrix of a blockwise evaluation, from pieces of 1.2M entries
        boson4 = make_preset("boson", 4)
        blocks = wick.evaluation_blocks(wick.parse_expression("c(1)", 4), boson4, 6)
        with pytest.raises(SizeLimit, match="evaluation block of 16384 x 4096"):
            blocks[7].mat
        # one block per sector, so the placed stack holds the whole of sector 15
        rotated = haar_rotated(boson2, np.random.default_rng(43))
        expr = wick.parse_expression(" ".join(["a(1)"] * 6 + ["c(1)"] * 6), 2)
        with pytest.raises(SizeLimit, match="placed annihilation stack of 65536 x 1024"):
            wick.evaluation_blocks(expr, rotated, 10)
        with pytest.raises(SizeLimit, match="ideal generator stack"):
            quotient_sector(boson2, 16)
        with pytest.raises(SizeLimit, match="annihilation level of 32768 x 65536"):
            annihilation_matrix(boson2, 1, 16)
        with pytest.raises(SizeLimit, match="Gram block"):
            sector_spectrum(boson2, 16)
        # the dense scatter of a blockwise Gram and the quotient projector of
        # sector 14 (no columns, so that only the dense result is large)
        gram = fock.GramMatrix(n=14, labels=None, blocks=(np.zeros((8192, 0)),) * 2)
        with pytest.raises(SizeLimit, match="dense Gram matrix of 16384 x 16384"):
            gram.mat
        with pytest.raises(SizeLimit, match="quotient projector of 16384 x 16384"):
            fock.QuotientData(complement_basis=np.zeros((16384, 0))).projector
        assert not cached_level_degrees(2)

    def test_slices_are_bounded_one_by_one(self, fresh_cache, monkeypatch):
        # the one-block level 3 -> 4 of N = 3 is three slices of 27 x 81; the
        # placed recursion that fills them would bound them as one 81 x 81 stack
        phase3 = haar_rotated(make_preset("phase", 3, phi=0.7), np.random.default_rng(53))
        monkeypatch.setattr(fock, "ENTRY_CAP", 3000)
        assert annihilation_matrix(phase3, 1, 4).shape == (27, 81)
        fock.clear_cache()
        monkeypatch.setattr(fock, "ENTRY_CAP", 27 * 81 - 1)
        with pytest.raises(SizeLimit, match="annihilation slice of 27 x 81"):
            annihilation_matrix(phase3, 1, 4)

    def test_refused_graded_level_builds_no_slice(self, fresh_cache, monkeypatch):
        # the content slices of level 3 -> 4 are each under the cap, the level is not
        phase3 = make_preset("phase", 3, phi=0.7)
        monkeypatch.setattr(fock, "ENTRY_CAP", 27 * 81 - 1)
        with pytest.raises(SizeLimit, match="annihilation level of 27 x 81"):
            annihilation_matrix(phase3, 1, 4)
        assert not fock._tower(phase3)._slices
        monkeypatch.setattr(fock, "ENTRY_CAP", 27 * 81)
        assert annihilation_matrix(phase3, 1, 4).shape == (27, 81)

    def test_cap_is_inclusive_and_checked_before_the_build(self, fresh_cache, monkeypatch):
        # sector 6 of N = 2: the largest word block has C(6, 3) = 20 words and
        # five insertion positions, so a 20 x 100 generator stack
        fermion = make_preset("fermion", 2)
        monkeypatch.setattr(fock, "ENTRY_CAP", 20 * 100 - 1)
        with pytest.raises(SizeLimit, match="ideal generator stack of 20 x 100"):
            quotient_sector(fermion, 6)
        assert not fock._tower(fock._weight_form(fermion)[1])._ideals
        monkeypatch.setattr(fock, "ENTRY_CAP", 20 * 100)
        assert quotient_sector(fermion, 6).quotient.dim == 0


class TestCreationMatrix:
    def test_vacuum_creation(self, boson2):
        col = creation_matrix(boson2, 1, 0)
        assert col.shape == (2, 1)
        assert np.array_equal(col[:, 0], [1, 0])

    def test_prepends_letter(self, boson2):
        mat = creation_matrix(boson2, 2, 1)
        # x1 -> word 21 (offset 2), x2 -> word 22 (offset 3)
        expected = np.zeros((4, 2))
        expected[2, 0] = 1
        expected[3, 1] = 1
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("i,n", [(1, 0), (2, 1), (1, 2), (2, 3)])
    def test_columns_orthonormal(self, boson2, i, n):
        mat = creation_matrix(boson2, i, n)
        assert np.allclose(dagger(mat) @ mat, np.eye(2**n), atol=EPS)


class TestAnnihilationMatrix:
    def test_boltzmann_matches_and_removes_first_letter(self, boltzmann2):
        mat = annihilation_matrix(boltzmann2, 1, 2)
        vec = np.zeros(4)
        vec[word_index((1, 2), 2)] = 1.0
        out = mat @ vec
        expected = np.zeros(2)
        expected[word_index((2,), 2)] = 1.0
        assert np.allclose(out, expected, atol=EPS)
        vec = np.zeros(4)
        vec[word_index((2, 1), 2)] = 1.0
        assert np.allclose(mat @ vec, 0.0, atol=EPS)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quon_unrolls_to_q_bracket(self, quon1_half, n):
        mat = annihilation_matrix(quon1_half, 1, n)
        bracket = sum(0.5**p for p in range(n))
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(bracket, abs=EPS)

    def test_boson_flip_then_contract(self, boson2):
        mat = annihilation_matrix(boson2, 1, 2)
        vec = np.zeros(4)
        vec[word_index((2, 1), 2)] = 1.0
        out = mat @ vec
        expected = np.zeros(2)
        expected[word_index((2,), 2)] = 1.0
        assert np.allclose(out, expected, atol=EPS)

    def test_degree_one_is_pairing(self, boson2):
        assert np.array_equal(annihilation_matrix(boson2, 2, 1), [[0, 1]])

    @pytest.mark.parametrize("n_species,max_degree", [(2, 5), (3, 4)])
    def test_matches_word_recursion(self, n_species, max_degree):
        rng = np.random.default_rng(17)
        systems = graded_systems(n_species)
        systems += [haar_rotated(systems[-1], rng), haar_rotated(systems[3], rng)]
        for system in systems:
            for n in range(1, max_degree + 1):
                for i in range(1, n_species + 1):
                    got = annihilation_matrix(system, i, n)
                    assert max_abs(got - word_level(system, i, n)) <= 1e-12, (system.label, n, i)


def word_level(system, i, n):
    """The dense level ``A_i`` from sector n to n-1, word by word (:func:`annihilate_word`)."""
    n_species, t4 = system.dim, system.cross.tensor()
    words = sector_basis(n_species, n).basis
    oracle = np.zeros((n_species ** (n - 1), len(words)), dtype=complex)
    for col, word in enumerate(words):
        for tail, c in annihilate_word(t4, i, word).items():
            oracle[word_index(tail, n_species), col] += c
    return oracle


def placed_reference(system, tower, m, b, rows, block, levels):
    """Dense ``A_l`` of sector m on the block placed at positions rows of word block b, over l.

    Entry l0 is ``(inside, outside)``: the result on the words of block
    ``b - e_l`` of sector m-1 (None when block b lacks the letter), and the
    largest entry of the result on the other words.  ``levels`` holds the
    dense levels of the system built so far, keyed by ``(l0, m)``.
    """
    n_sp = system.dim
    offsets = np.arange(n_sp**m)[tower.words(m)[b]]
    below = tower.words(m - 1)
    refs = []
    for l0 in range(n_sp):
        if (l0, m) not in levels:
            levels[l0, m] = annihilation_matrix(system, l0 + 1, m)
        full = levels[l0, m][:, offsets[rows]]
        if block is not None:
            full = full @ block
        head = tower.level(m)[0][b].get(l0)
        inside = [] if head is None else np.arange(n_sp ** (m - 1))[below[head[0]]]
        refs.append((None if head is None else full[inside],
                     max_abs(np.delete(full, inside, axis=0))))
    return refs


def assert_close(got, ref, what):
    assert got.shape == ref.shape, what
    assert max_abs(got - ref) <= 1e-12 * max(1.0, max_abs(ref)), what


def assert_placed(system, floor, m, b, rows, block, what, levels):
    """Every species set of the system's tower against :func:`placed_reference`.

    Slices are read at the degrees up to ``floor``.
    """
    tower = fock._tower(system)
    refs = placed_reference(system, tower, m, b, rows, block, levels)
    scale = max(1.0, *(max_abs(inside) for inside, _ in refs if inside is not None))
    for species in tower.species:
        got = fock._annihilate_placed(tower, floor, m, b, rows, block, species)
        for l0, (inside, outside) in enumerate(refs):
            assert outside <= 1e-12 * scale, what
            if l0 in species[0] and inside is not None:
                assert_close(got[l0], inside, (what, l0))
            else:
                assert got[l0] is None, (what, l0)


def creator_placements(tower, floor, m):
    """``(c, b, row)`` for every source block c of sector floor and every creator word of length m - floor."""
    out = []
    for c in range(len(tower.level(floor)[1])):
        for letters in product(range(tower.n_species), repeat=m - floor):
            b, row = c, 0
            for d, j0 in enumerate(letters, floor):
                b, lo = tower.level(d + 1)[2][j0][b]
                row += lo
            out.append((c, b, row))
    return out


class TestPlacedAnnihilation:
    """The one-step recursion on word blocks against the dense levels and the word oracle."""

    @staticmethod
    def systems(n_species):
        rng = np.random.default_rng(29)
        systems = graded_systems(n_species)
        return systems + [haar_rotated(systems[-1], rng), haar_rotated(systems[6], rng)]

    @pytest.mark.parametrize("n_species,max_degree", [(2, 9), (3, 6)])
    def test_identity_at_every_prefix_offset(self, fresh_cache, n_species, max_degree):
        for system in self.systems(n_species):
            levels = {}  # each dense level once per system
            for m in range(1, max_degree + 1):
                floors = {m - 1, m // 2} | ({0} if n_species**m <= 81 else set())
                tower = fock._tower(system)
                for floor in floors:
                    for c, b, row in creator_placements(tower, floor, m):
                        rows = slice(row, row + tower.level(floor)[1][c])
                        assert_placed(system, floor, m, b, rows, None,
                                      (system.label, m, floor, b, row), levels)

    @pytest.mark.parametrize("n_species,max_degree", [(2, 9), (3, 6)])
    def test_dense_and_partly_zero_blocks(self, fresh_cache, n_species, max_degree):
        rng = np.random.default_rng(31)
        for system in self.systems(n_species):
            levels = {}  # each dense level once per system
            for m in range(1, max_degree + 1):
                for floor in sorted({0, m // 2, m - 1, m}):
                    heads, sizes = fock._tower(system).level(m)[:2]
                    b = int(rng.integers(len(sizes)))
                    runs, size = heads[b], sizes[b]
                    # a dense block of any height at any offset, straddling first letters
                    height = int(rng.integers(1, size + 1))
                    row = int(rng.integers(0, size - height + 1))
                    dense = (rng.standard_normal((height, 3))
                             + 1j * rng.standard_normal((height, 3)))
                    # the whole block with some first-letter runs exactly zero
                    sparse = rng.standard_normal((size, 2)) + 0j
                    dead = rng.choice(list(runs), int(rng.integers(0, len(runs))), replace=False)
                    for j0 in dead:
                        sparse[runs[j0][1]:runs[j0][2]] = 0
                    sparse[:size // 2] = 0
                    for row_b, block in ((row, dense), (0, sparse)):
                        rows = slice(row_b, row_b + block.shape[0])
                        assert_placed(system, floor, m, b, rows, block,
                                      (system.label, m, floor, b, row_b), levels)

    @pytest.mark.parametrize("n_species,max_degree", [(2, 9), (3, 6)])
    def test_matches_word_oracle(self, fresh_cache, n_species, max_degree):
        rng = np.random.default_rng(37)
        for system in self.systems(n_species):
            t4 = system.cross.tensor()
            # the oracle walks every rewrite path: keep dense-T paths short
            top = max_degree if is_graded(system.cross) else max_degree - 5 + n_species
            for m in range(1, top + 1):
                tower = fock._tower(system)
                blocks = tower.words(m)
                below = tower.words(m - 1)
                for word_offset in rng.choice(n_species**m, 3):
                    word = sector_basis(n_species, m).basis[word_offset]
                    b, pos = next((b, int(np.flatnonzero(np.arange(n_species**m)[rows]
                                                         == word_offset)[0]))
                                  for b, rows in enumerate(blocks)
                                  if word_offset in np.arange(n_species**m)[rows])
                    for l in range(1, n_species + 1):
                        ref = np.zeros(n_species ** (m - 1), dtype=complex)
                        for tail, c in annihilate_word(t4, l, word).items():
                            ref[word_index(tail, n_species)] += c
                        got = fock._annihilate_placed(tower, 0, m, b, slice(pos, pos + 1), None,
                                                      tower.species[l - 1])[l - 1]
                        if got is None:
                            assert max_abs(ref) == 0.0, (system.label, m, word, l)
                            continue
                        inside = np.arange(n_species ** (m - 1))[below[tower.level(m)[0][b][l - 1][0]]]
                        assert_close(got[:, 0], ref[inside], (system.label, m, word, l))
                        assert max_abs(np.delete(ref, inside)) <= 1e-12 * max(1.0, max_abs(ref))

    def test_needed_species_only(self, twisted2):
        rng = np.random.default_rng(41)
        # the last entry, every species, is what the annihilation slices read
        for system in graded_systems(3)[:-1]:  # the flip-scaled presets
            assert ([wanted for wanted, _ in fock._tower(system).species]
                    == [(0,), (1,), (2,), (0, 1, 2)])
        # twisted CCR: T^{ii}_{kk} != 0 for k < i, so A_2 needs A_1
        assert [wanted for wanted, _ in fock._tower(twisted2).species] == [(0,), (0, 1), (0, 1)]
        rotated = haar_rotated(twisted2, rng)
        assert [wanted for wanted, _ in fock._tower(rotated).species] == [(0, 1)] * 3

    def test_builds_no_level_above_the_floor(self, fresh_cache, boson2):
        tower = fock._tower(boson2)
        fock._annihilate_placed(tower, 2, 8, 3, slice(5, 8), np.ones((3, 2)), tower.species[0])
        built = set(tower._slices)
        assert built and max(built) <= 2


def same_bytes(got, want) -> bool:
    """Both None, or arrays of one dtype and shape with the same bytes."""
    if got is None or want is None:
        return got is want
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSliceStep:
    """The direct block step of the slices against the placed recursion and the word oracle."""

    @staticmethod
    def systems(n_species):
        rng = np.random.default_rng(43)
        systems = graded_systems(n_species) + [multi_q(n_species, rng)]
        return systems + [haar_rotated(systems[6], rng)]  # the phase preset, as one block

    @pytest.mark.parametrize("n_species,max_degree", [(1, 8), (2, 8), (3, 5)])
    def test_slices_equal_the_placed_recursion(self, fresh_cache, n_species, max_degree):
        for system in self.systems(n_species):
            tower = fock._tower(system)
            for m in range(1, max_degree + 1):
                heads, sizes = tower.level(m)[:2]
                got = tower.slices(m)
                assert len(got) == len(sizes)
                for b, size in enumerate(sizes):
                    want = fock._annihilate_placed(tower, m - 1, m, b, slice(0, size), None,
                                                   tower.species[-1])
                    for i0 in range(n_species):
                        assert same_bytes(got[b][i0], want[i0]), (system.label, m, b, i0)
                if n_species**m <= 81:  # an independent route for the small sectors
                    for i in range(1, n_species + 1):
                        ref = word_level(system, i, m)
                        assert max_abs(annihilation_matrix(system, i, m) - ref) <= 1e-12, (
                            system.label, m, i)

    @pytest.mark.parametrize("n_species,max_degree", [(1, 8), (2, 8), (3, 5)])
    def test_gram_blocks_equal_the_stacked_products(self, fresh_cache, n_species, max_degree):
        for system in self.systems(n_species):
            for n in range(1, max_degree + 1):
                prev = gram_matrix(system, n - 1).blocks
                tower = fock._tower(system)
                for runs, slices, block in zip(tower.level(n)[0], tower.slices(n),
                                               gram_matrix(system, n).blocks):
                    want = np.vstack([prev[p] @ slices[i0] for i0, (p, _, _) in runs.items()])
                    assert same_bytes(block, want), (system.label, n)

    def test_slices_take_no_placed_recursion(self, fresh_cache, monkeypatch, twisted2):
        def refuse(*args):
            raise AssertionError("the placed recursion was called")

        monkeypatch.setattr(fock, "_annihilate_placed", refuse)
        for system in (twisted2, haar_rotated(twisted2, np.random.default_rng(47))):
            gram_matrix(system, 6)


class TestGramMatrix:
    def test_vacuum_normalization(self, boson2):
        assert np.array_equal(gram_matrix(boson2, 0).mat, [[1.0]])

    @pytest.mark.parametrize("n", range(6))
    def test_boltzmann_identity(self, boltzmann2, n):
        gram = gram_matrix(boltzmann2, n).mat
        assert max_abs(gram - np.eye(2**n)) <= 1e-12

    def test_quon_q_factorial(self, quon1_half):
        gram = gram_matrix(quon1_half, 3).mat
        assert gram[0, 0] == pytest.approx(2.625, abs=EPS)
        assert q_factorial(3, 0.5) == pytest.approx(2.625, abs=1e-15)

    def test_boson_degree_two_is_id_plus_flip(self, boson2):
        gram = gram_matrix(boson2, 2).mat
        assert np.allclose(gram, np.eye(4) + flip_matrix(2), atol=EPS)

    @pytest.mark.parametrize("n_species", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(5))
    def test_matches_permutation_oracle_everywhere(self, n_species, degree):
        if degree == 4 and n_species == 3:
            pytest.skip("covered by the acceptance suite")
        for system, qmat in acceptance_systems(n_species):
            gram = gram_matrix(system, degree).mat
            oracle = perm_gram(n_species, degree, qmat)
            assert max_abs(gram - oracle) <= EPS, system.label

    def test_hermitian(self):
        for system, _ in acceptance_systems(2):
            for degree in range(4):
                gram = gram_matrix(system, degree).mat
                assert max_abs(gram - dagger(gram)) <= EPS


class TestPositivity:
    def test_quon_half_positive_definite(self):
        system = make_preset("quon", 2, q=0.5)
        for degree in range(5):
            report = positivity_report(system, degree)
            assert report.positive_definite, degree

    def test_boson_degree_two(self, boson2):
        report = positivity_report(boson2, 2)
        assert report.positive_semidefinite
        assert not report.positive_definite
        assert report.kernel_dim == 1
        assert report.min_eig == pytest.approx(0.0, abs=EPS)

    def test_fermion_degree_two_kernel(self, fermion2):
        report = positivity_report(fermion2, 2)
        assert report.kernel_dim == 3  # symmetric words die under id - flip

    def test_definite_implies_semidefinite_and_trivial_kernel(self):
        for system, _ in acceptance_systems(2):
            for degree in range(4):
                report = positivity_report(system, degree)
                if report.positive_definite:
                    assert report.positive_semidefinite
                    assert report.kernel_dim == 0


def graded_systems(n_species: int) -> list[StatisticsSystem]:
    return ([system for system, _ in acceptance_systems(n_species)]
            + [twisted_ccr(n_species, 0.6)])


class TestGrading:
    @pytest.mark.parametrize("n_species", [1, 2, 3])
    def test_presets_and_twisted_ccr_are_graded(self, n_species):
        for system in graded_systems(n_species):
            assert is_graded(system.cross), system.label

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_haar_rotation_breaks_the_grading(self, n_species):
        rng = np.random.default_rng(7)
        for system in graded_systems(n_species):
            if np.any(system.cross.mat):  # T = 0 stays graded in every basis
                assert not is_graded(haar_rotated(system, rng).cross), system.label

    @pytest.mark.parametrize("n_species,degree",
                             [(1, 0), (1, 3), (2, 0), (2, 4), (3, 0), (3, 3), (4, 3)])
    def test_blocks_group_words_by_sorted_letters(self, n_species, degree):
        words = sector_basis(n_species, degree).basis
        blocks = content_blocks(n_species, degree)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(len(words)))
        assert all(np.all(np.diff(block) > 0) for block in blocks)
        contents = [{tuple(sorted(words[idx])) for idx in block} for block in blocks]
        assert all(len(c) == 1 for c in contents)
        assert len(set.union(*contents)) == len(blocks)
        # documented order, on which the ideal complement's column order rests
        keys = [c.pop() for c in contents]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_off_block_gram_entries_are_exactly_zero(self, n_species):
        for system in graded_systems(n_species):
            for degree in range(5):
                gram = gram_matrix(system, degree).mat
                same_content = np.zeros(gram.shape, dtype=bool)
                for block in content_blocks(n_species, degree):
                    same_content[np.ix_(block, block)] = True
                assert np.all(gram[~same_content] == 0), (system.label, degree)

    @pytest.mark.parametrize("n_species,max_degree", [(2, 6), (3, 5)])
    def test_blockwise_spectrum_matches_full_eigvalsh(self, fresh_cache, n_species,
                                                      max_degree):
        for system in graded_systems(n_species):
            for degree in range(max_degree + 1):
                full = np.linalg.eigvalsh(gram_matrix(system, degree).mat)
                scale = max(1.0, np.abs(full).max())
                assert np.allclose(sector_spectrum(system, degree), full,
                                   rtol=0, atol=EPS * scale), (system.label, degree)

    def test_twisted_ccr_kernel_has_pbw_codimension(self, twisted2):
        # Ordered monomials c(1)^a c(2)^b span the quotient: n + 1 per degree.
        for degree in range(7):
            report = positivity_report(twisted2, degree)
            assert report.positive_semidefinite, degree
            assert report.kernel_dim == 2**degree - (degree + 1), degree

    @pytest.mark.parametrize("rotated", [False, True], ids=["graded", "rotated"])
    def test_kernel_dim_matches_svd_kernel(self, rotated):
        rng = np.random.default_rng(3)
        for system in graded_systems(2):
            if rotated:
                system = haar_rotated(system, rng)
            for degree in range(6):
                gram = gram_matrix(system, degree).mat
                report = positivity_report(system, degree)
                assert report.kernel_dim == kernel_basis(gram).shape[1], (
                    system.label, degree)


def dense_gram_recursion(system: StatisticsSystem, degree: int) -> np.ndarray:
    """G_n = vstack_i(G_{n-1} A_i) over whole sectors, as assembled before blocks."""
    gram = np.ones((1, 1), dtype=complex)
    for m in range(1, degree + 1):
        gram = np.vstack([gram @ annihilation_matrix(system, i, m)
                          for i in range(1, system.dim + 1)])
    return gram


def dense_complement_projector(system: StatisticsSystem, degree: int) -> np.ndarray:
    """Complement projector of the ideal slice from one SVD of all generators."""
    n_sp, dim = system.dim, system.dim**degree
    if degree < 2:
        return np.eye(dim)
    gen = np.eye(n_sp * n_sp) - system.braid.mat
    stack = np.hstack([
        np.kron(np.eye(n_sp ** (p - 1)), np.kron(gen, np.eye(n_sp ** (degree - p - 1))))
        for p in range(1, degree)])
    u, s, _ = np.linalg.svd(stack)
    rank = int(np.sum(s > EPS * max(1.0, s[0])))
    return u[:, rank:] @ dagger(u[:, rank:])


def same_blocks(got, want) -> bool:
    """The same word blocks in the same order, each with the same offsets."""
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def labelled_tower(labels: tuple) -> fock._Tower:
    """An uncached tower whose letters carry ``labels``: the growth every tower runs, any labelling."""
    tower = fock._Tower(make_preset("boltzmann", len(labels)))
    tower.labels = labels
    return tower


def assert_labelled_tables(tower: fock._Tower, n: int) -> None:
    """The word blocks of sector n of the tower under its labels against the words themselves.

    Each block is ascending and holds exactly the words of one count of each
    label; the blocks partition the sector; each head names a run of its
    block, the runs tile the block in order, run j0 holds the words of block
    p of sector n-1 with letter j0 + 1 prepended, and ``grow`` inverts the
    heads.  The labels alone, as an evaluation block holds them, fold the
    same blocks.
    """
    labels = tower.labels
    n_sp = len(labels)
    words = sector_basis(n_sp, n).basis
    heads, sizes, grow, counts = tower.level(n)
    blocks = tower.words(n)
    assert same_blocks(fock._label_words(labels, n), blocks)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(n_sp**n))
    for b, block in enumerate(blocks):
        assert len(block) == sizes[b] and np.all(np.diff(block) > 0)
        assert {tuple(sum(labels[x - 1] == k for x in words[o]) for k in range(max(labels) + 1))
                for o in block.tolist()} == {counts[b]}
    if n == 0:
        assert heads == ({},) and grow is None
        return
    below = tower.words(n - 1)
    for b, runs in enumerate(heads):
        edges = [(lo, hi) for _, lo, hi in runs.values()]
        assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]]
        assert edges[-1][1] == sizes[b]
        for j0, (p, lo, hi) in runs.items():
            assert grow[j0][p] == (b, lo)
            assert np.array_equal(blocks[b][lo:hi], j0 * n_sp ** (n - 1) + below[p])
    assert sum(len(runs) for runs in heads) == n_sp * len(below) == sum(map(len, grow))


class TestLabels:
    """Every labelling of the letters gives its word blocks by the one recursion."""

    @pytest.mark.parametrize("n_species", [1, 2, 3, 4])
    def test_one_label_gives_the_whole_sector(self, fresh_cache, n_species):
        tower = labelled_tower((0,) * n_species)
        for n in range(7):
            size = n_species ** (n - 1) if n else 0
            heads, sizes, grow, counts = tower.level(n)
            assert counts == ((n,),) and sizes == (n_species**n,)
            assert heads == ({j0: (0, j0 * size, (j0 + 1) * size)
                              for j0 in range(n_species)} if n else {},)
            assert grow == (tuple([(0, j0 * size)] for j0 in range(n_species)) if n else None)
            (words,) = tower.words(n)
            assert np.array_equal(words, np.arange(n_species**n))
            if n <= 4:
                assert_labelled_tables(tower, n)

    @pytest.mark.parametrize("n_species,max_degree", [(1, 5), (2, 6), (3, 4), (4, 3)])
    def test_own_labels_give_the_content_blocks(self, fresh_cache, n_species, max_degree):
        # content_blocks itself is checked against the words in TestGrading
        tower = labelled_tower(tuple(range(n_species)))
        for n in range(max_degree + 1):
            assert same_blocks(tower.words(n), content_blocks(n_species, n))
            assert_labelled_tables(tower, n)

    @pytest.mark.parametrize("labels", [(0, 0, 1), (0, 1, 0), (1, 0)])
    def test_coarser_labels_join_content_blocks(self, fresh_cache, labels):
        tower = labelled_tower(labels)
        for n in range(6):
            assert_labelled_tables(tower, n)
            owner = {offset: b for b, block in enumerate(tower.words(n))
                     for offset in block.tolist()}
            for block in content_blocks(len(labels), n):
                assert len({owner[offset] for offset in block.tolist()}) == 1

    def test_system_labels(self, fresh_cache, boson2):
        rotated = haar_rotated(boson2, np.random.default_rng(3))
        assert fock._tower(boson2).labels == (0, 1)
        assert fock._tower(rotated).labels == (0, 0)
        assert fock._tower(make_preset("fermion", 1)).labels == (0,)


def braided_systems(n_species: int) -> list[StatisticsSystem]:
    return [make_preset("boson", n_species), make_preset("fermion", n_species),
            make_preset("phase", n_species, phi=np.pi / 3)]


class TestBlockwiseAssembly:
    @pytest.mark.parametrize("n_species,max_degree", [(2, 7), (3, 5)])
    def test_gram_matches_dense_recursion_and_oracle(self, fresh_cache, n_species,
                                                     max_degree):
        rng = np.random.default_rng(11)
        systems = acceptance_systems(n_species) + [(twisted_ccr(n_species, 0.6), None)]
        for system, qmat in systems:
            for degree in range(max_degree + 1):
                gram = gram_matrix(system, degree)
                assert len(gram.blocks) == len(content_blocks(n_species, degree))
                dense = dense_gram_recursion(system, degree)
                tol = 1e-12 * max(1.0, max_abs(dense))
                assert max_abs(gram.mat - dense) <= tol, (system.label, degree)
            if qmat is None:
                continue
            # Sampled entries of the top sector against the permutation sum,
            # within and across letter-content blocks.
            words = sector_basis(n_species, max_degree).basis
            for block in content_blocks(n_species, max_degree)[::3]:
                r, c = rng.choice(block, 2)
                for u in (words[c], words[rng.integers(len(words))]):
                    entry = gram.mat[r, word_index(u, n_species)]
                    oracle = perm_gram_entry(words[r], u, qmat)
                    assert abs(entry - oracle) <= 1e-12 * max(1.0, max_abs(gram.mat)), (
                        system.label, words[r], u)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_ideal_projector_matches_dense_svd(self, fresh_cache, n_species):
        for system in braided_systems(n_species):
            for degree in range(6):
                comp = quotient_sector(system, degree).quotient.complement_basis
                span = ideal_subspace(system, degree)
                assert span.shape[1] + comp.shape[1] == n_species**degree
                assert max_abs(comp @ dagger(comp)
                               - dense_complement_projector(system, degree)) <= 1e-10, (
                    system.label, degree)

    def test_haar_rotated_system_is_one_block(self, fresh_cache):
        rng = np.random.default_rng(5)
        system = haar_rotated(make_preset("phase", 2, phi=np.pi / 3), rng)
        assert not preserves_content(system.braid)
        for degree in range(5):
            (words,) = word_blocks(system, degree)
            assert np.array_equal(words, np.arange(2**degree))
            gram = gram_matrix(system, degree)
            assert gram.mat is gram.blocks[0]  # no scatter, no copy
            assert max_abs(gram.mat - dense_gram_recursion(system, degree)) == 0.0
            comp = quotient_sector(system, degree).quotient.complement_basis
            assert max_abs(comp @ dagger(comp)
                           - dense_complement_projector(system, degree)) <= 1e-10

    def test_graded_cross_with_content_mixing_braid_is_one_block(self, fresh_cache):
        # The boson B = flip is the same in every basis, so pair the boson T
        # with a rotated phase braid, which moves words between contents.
        boson = make_preset("boson", 2)
        braid = haar_rotated(make_preset("phase", 2, phi=np.pi / 3),
                             np.random.default_rng(9)).braid
        mixed = StatisticsSystem(cross=boson.cross, braid=braid, label="mixed")
        assert is_graded(mixed.cross) and not preserves_content(braid)
        assert all(preserves_content(s.braid) for s in braided_systems(3))
        for degree in range(5):
            (words,) = word_blocks(mixed, degree)
            assert np.array_equal(words, np.arange(2**degree))
            assert same_blocks(word_blocks(boson, degree), content_blocks(2, degree))
            assert max_abs(gram_matrix(mixed, degree).mat
                           - gram_matrix(boson, degree).mat) <= 1e-12 * 4**degree
            comp = quotient_sector(mixed, degree).quotient.complement_basis
            assert max_abs(comp @ dagger(comp)
                           - dense_complement_projector(mixed, degree)) <= 1e-10


def cached_level_degrees(n_species: int) -> set[int]:
    """Degrees m >= 2 of every dense N^(m-1) x N^m array anywhere in the Fock cache."""
    shapes = {(n_species ** (m - 1), n_species**m): m for m in range(2, 17)}
    found = set()

    def walk(value):
        if isinstance(value, np.ndarray):
            if value.shape in shapes:
                found.add(shapes[value.shape])
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            walk(list(value.values()))
        elif isinstance(value, (GramMatrix, fock._Tower)):
            walk(list(vars(value).values()))

    walk(list(fock._CACHE.values()))
    return found


def level_route_spectrum(system: StatisticsSystem, degree: int) -> np.ndarray:
    """``sector_spectrum`` with each Gram block read off whole dense levels.

    Block c of G_n stacks ``G_{n-1}[c - e_i] @ A_i[c - e_i, c]`` with the
    slice cut from ``annihilation_matrix``, on the blocks of the weight form
    and in its field.
    """
    form = fock._weight_form(system)[1]
    grams = (np.ones((1, 1), dtype=fock._tower(form).dtype),)
    for m in range(1, degree + 1):
        size = form.dim ** (m - 1)
        prev_words = [np.arange(size)[rows] for rows in word_blocks(form, m - 1)]
        blocks = []
        for rows in word_blocks(form, m):
            cols = np.arange(form.dim * size)[rows]
            parts = []
            for i0 in np.unique(cols // size):
                tail = cols[cols // size == i0][0] % size
                p = next(p for p, words in enumerate(prev_words) if tail in words)
                level = annihilation_matrix(form, int(i0) + 1, m)
                parts.append(grams[p] @ level[np.ix_(prev_words[p], cols)])
            blocks.append(np.vstack(parts))
        grams = blocks
    scale = max(max_abs(block) for block in grams)
    return np.sort(np.concatenate([fock.hermitian_spectrum(block, EPS, scale=scale)
                                   for block in grams]))


class TestGramMemory:
    """The Gram path builds annihilation slices per block, never a whole-sector level."""

    @pytest.mark.parametrize("n_species,degree", [(2, 8), (3, 5)])
    def test_builds_no_whole_sector_level(self, fresh_cache, n_species, degree):
        rng = np.random.default_rng(43)
        for base in graded_systems(n_species):
            for system in (base, haar_rotated(base, rng)):
                fock.clear_cache()
                got = sector_spectrum(system, degree)
                assert not cached_level_degrees(n_species), system.label
                assert np.array_equal(got, level_route_spectrum(system, degree)), system.label

    def test_session_caches_one_slice_set_per_degree(self, fresh_cache):
        # gram, quotient, a dense level and an evaluation all read the content
        # slices; sector 4's are read only by its Gram, which keeps none of them
        system = make_preset("phase", 3, phi=phase_phi(3, np.pi / 3))
        sector_spectrum(system, 4)
        for n in range(4):
            quotient_sector(system, n)
            for i in (1, 2, 3):
                descended_operators(system, i, n)
        annihilation_matrix(system, 2, 3)
        wick.evaluation_blocks(wick.parse_expression("a(1) a(2) c(2) c(3)", 3), system, 2)
        built = {(key, m): slices for key, tower in fock._CACHE.items()
                 for m, slices in tower._slices.items()}
        assert sorted(built) == [(system.content_key, m) for m in range(1, 4)]
        for (_, m), slices in built.items():
            assert len(slices) == len(content_blocks(3, m))

    @pytest.mark.parametrize("n_species,degree", [(2, 6), (3, 4)])
    def test_gram_keeps_no_slices_of_its_sector(self, fresh_cache, n_species, degree):
        rng = np.random.default_rng(59)
        for base in graded_systems(n_species) + [multi_q(n_species, rng)]:
            for system in (base, haar_rotated(base, rng)):
                fock.clear_cache()
                built = gram_matrix(system, degree).blocks
                tower = fock._tower(system)
                assert sorted(tower._slices) == list(range(1, degree)), system.label
                later = tower.slices(degree)
                fock.clear_cache()
                fresh = fock._tower(system).slices(degree)  # kept, so the Gram reads them
                assert len(later) == len(fresh)
                for got, want in zip(later, fresh):
                    assert all(map(same_bytes, got, want)), system.label
                kept = gram_matrix(system, degree).blocks
                assert len(built) == len(kept)
                assert all(map(same_bytes, built, kept)), system.label

    def test_traced_peak_of_the_largest_benchmark_gram(self, fresh_cache):
        # multi-q at N = 2, sector 10: the Gram traced 3.90 MiB and its spectrum
        # 4.87 MiB while the Gram kept sector 10's slices and the Hermitian
        # check and part took a temporary each; now 2.68 and 3.01 MiB
        system = multi_q(2, np.random.default_rng(61))
        gram_matrix(system, 3)  # the code paths warm
        fock.clear_cache()
        peaks = []
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for step in (lambda: gram_matrix(system, 10), lambda: sector_spectrum(system, 10)):
                fock.clear_cache()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                step()
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
        finally:
            if started:
                tracemalloc.stop()
        assert peaks[0] < 3.0 and peaks[1] < 3.3, peaks


def rotated_twins(n_species: int, rng: np.random.Generator):
    """(graded system, Haar-rotated copy) for the graded battery, multi-q included."""
    bases = graded_systems(n_species) + [multi_q(n_species, rng)]
    return [(base, haar_rotated(base, rng)) for base in bases]


def generic_system(n_species: int, rng: np.random.Generator) -> StatisticsSystem:
    """A star-law T and a B with no common symmetry but the overall phase."""
    shape = (n_species**2, n_species**2)
    t4 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).reshape(
        (n_species,) * 4)
    cross = (t4 + t4.transpose(1, 0, 3, 2).conj()).reshape(shape) / 4
    braid = haar_unitary(rng, n_species**2)
    return StatisticsSystem(cross=CrossOperator(cross), braid=BraidOperator(braid),
                            label="generic")


class TestWeightForm:
    """Basis-invariant verdicts are taken in the weight basis of the system's torus."""

    @pytest.mark.parametrize("n_species", [1, 2, 3])
    def test_graded_systems_are_their_own_weight_form(self, fresh_cache, n_species):
        for system in graded_systems(n_species):
            w, form = fock._weight_form(system)
            assert form is system, system.label
            assert np.array_equal(w, np.eye(n_species))

    @pytest.mark.parametrize("n_species,max_degree", [(2, 7), (3, 5)])
    def test_rotated_spectra_equal_graded_twin(self, fresh_cache, n_species, max_degree):
        rng = np.random.default_rng(17)
        for base, rotated in rotated_twins(n_species, rng):
            form = fock._weight_form(rotated)[1]
            assert len(set(fock._tower(form).labels)) == n_species, base.label
            for degree in range(max_degree + 1):
                want = sector_spectrum(base, degree)
                got = sector_spectrum(rotated, degree)
                tol = 1e-12 * max(1.0, max_abs(want))
                assert max_abs(got - want) <= tol, (base.label, degree)

    def test_rotated_kernel_dim_matches_dense_svd(self, fresh_cache):
        rng = np.random.default_rng(19)
        for base, rotated in rotated_twins(3, rng):
            for degree in range(5):
                assert positivity_report(rotated, degree).kernel_dim == kernel_basis(
                    gram_matrix(rotated, degree).mat).shape[1], (base.label, degree)

    @pytest.mark.parametrize("n_species,max_degree", [(2, 6), (3, 5)])
    def test_rotated_complement_projector_matches_dense_svd(self, fresh_cache, n_species,
                                                            max_degree):
        rng = np.random.default_rng(23)
        for system in braided_systems(n_species):
            rotated = haar_rotated(system, rng)
            assert fock._weight_form(rotated)[1] is not rotated
            for degree in range(max_degree + 1):
                comp = quotient_sector(rotated, degree).quotient.complement_basis
                span = ideal_subspace(rotated, degree)
                assert max_abs(dagger(span) @ comp) <= 1e-12
                assert max_abs(comp @ dagger(comp)
                               - dense_complement_projector(rotated, degree)) <= 1e-10, (
                    system.label, degree)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_generic_system_falls_back_to_one_block(self, fresh_cache, n_species):
        system = generic_system(n_species, np.random.default_rng(29))
        w, form = fock._weight_form(system)
        assert form is system and np.array_equal(w, np.eye(n_species))
        for degree in range(5 if n_species == 2 else 4):
            (words,) = word_blocks(system, degree)
            assert np.array_equal(words, np.arange(n_species**degree))
            gram = gram_matrix(system, degree).mat
            full = np.linalg.eigvalsh(gram)
            assert max_abs(sector_spectrum(system, degree) - full) <= 1e-12 * max(
                1.0, max_abs(full))
            assert positivity_report(system, degree).kernel_dim == kernel_basis(
                gram).shape[1]
            comp = quotient_sector(system, degree).quotient.complement_basis
            assert max_abs(comp @ dagger(comp)
                           - dense_complement_projector(system, degree)) <= 1e-10

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_rotated_form_has_its_twins_sparsity(self, fresh_cache, n_species):
        # Rounding-level entries of the cut are zeroed, so the form carries no
        # extra recursion rule and no wider species set than its graded twin.
        def shape(system):
            nonzeros = [np.count_nonzero(op.mat) for op in (system.cross, system.braid)
                        if op is not None]
            return nonzeros, sum(len(rules) for rules in fock._tower(system).species[-1][1])

        rng = np.random.default_rng(73)
        for base, rotated in rotated_twins(n_species, rng):
            form = fock._weight_form(rotated)[1]
            assert shape(form) == shape(base), base.label

    def test_rotated_cross_breaking_star_law_is_not_hermitian(self, fresh_cache):
        qmat = np.array([[0.3, 0.5], [0.2, -0.4]])  # q_12 != conj(q_21)
        t4 = np.zeros((2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                t4[j, i, i, j] = qmat[i, j]
        base = StatisticsSystem(cross=CrossOperator(t4.reshape(4, 4)), label="non-star")
        rotated = haar_rotated(base, np.random.default_rng(31))
        assert not check_star(rotated.cross)[0]
        assert fock._weight_form(rotated)[1] is not rotated
        for system in (base, rotated):
            with pytest.raises(NotHermitian):
                sector_spectrum(system, 2)

    @pytest.mark.parametrize("n_species,degree", [(2, 8), (3, 5)])
    def test_rotated_blocks_stay_within_content_blocks(self, fresh_cache, monkeypatch,
                                                       n_species, degree):
        sizes = []
        real = fock.hermitian_spectrum

        def spy(block, *args, **kwargs):
            sizes.append(block.shape[0])
            return real(block, *args, **kwargs)

        monkeypatch.setattr(fock, "hermitian_spectrum", spy)
        largest = max(len(block) for block in content_blocks(n_species, degree))
        rng = np.random.default_rng(37)
        for _, rotated in rotated_twins(n_species, rng):
            sizes.clear()
            sector_spectrum(rotated, degree)
            assert len(sizes) == len(content_blocks(n_species, degree))
            assert max(sizes) <= largest < n_species**degree

    @pytest.mark.parametrize("n_species,degree", [(1, 3), (2, 4), (3, 3)])
    def test_tensor_power_applies_one_factor_at_a_time(self, n_species, degree):
        rng = np.random.default_rng(41)
        w = haar_unitary(rng, n_species)
        mat = rng.standard_normal((n_species**degree, 5)) + 0j
        power = np.ones((1, 1))
        for _ in range(degree):
            power = np.kron(power, w)
        assert max_abs(fock._apply_tensor_power(w, mat, degree) - power @ mat) <= 1e-13


def generator_projector(gens: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the real span of a stack of matrices, in real coordinates."""
    basis = np.linalg.qr(np.hstack([gens.real.reshape(len(gens), -1),
                                    gens.imag.reshape(len(gens), -1)]).T)[0]
    return basis @ basis.T


class TestSymmetryGenerators:
    """The chunked torus solve spans what the per-first-index QR stream spans."""

    @pytest.mark.parametrize("width", [None, 1, 2])
    @pytest.mark.parametrize("n_species", [1, 2, 3, 4])
    def test_span_matches_per_index_stream(self, monkeypatch, n_species, width):
        if width is not None:  # chunks of `width` first indices, the last one shorter at N = 3
            monkeypatch.setattr(operators, "_CHUNK_ENTRIES", width * n_species**5)
        rng = np.random.default_rng(79)
        systems = (graded_systems(n_species) + [multi_q(n_species, rng)]
                   + [rotated for _, rotated in rotated_twins(n_species, rng)]
                   + [generic_system(n_species, rng)])
        for system in systems:
            ops = [(system.cross.tensor(), (-1, 1, -1, 1))]
            if system.braid is not None:
                ops.append((system.braid.tensor(), (-1, -1, 1, 1)))
            want = symmetry_generators_oracle(ops)
            got = symmetry_generators(system)
            assert got.shape == want.shape, system.label
            assert max_abs(generator_projector(got) - generator_projector(want)) <= 1e-12, (
                system.label)


def hermitian_q(imag: float) -> StatisticsSystem:
    """Flip-scaled T on N = 2 with ``q_12 = 0.5 + imag i = conj(q_21)`` and ``q_ii = 0.3``."""
    qmat = np.array([[0.3, 0.5 + 1j * imag], [0.5 - 1j * imag, 0.3]])
    t4 = np.zeros((2, 2, 2, 2), dtype=complex)  # t4[k, l, i, j] = T^{ij}_{kl}
    for i in range(2):
        for j in range(2):
            t4[j, i, i, j] = qmat[i, j]
    return StatisticsSystem(cross=CrossOperator(t4.reshape(4, 4)), label=f"q_12 imag {imag}")


def built_dtypes(system: StatisticsSystem, degree: int) -> set:
    """The dtypes of the cached slices of sectors 1..degree and Gram blocks of sectors 0..degree."""
    dtypes = {block.dtype for n in range(degree + 1) for block in gram_matrix(system, n).blocks}
    for m in range(1, degree + 1):
        dtypes |= {mat.dtype for slices in fock._tower(system).slices(m)
                   for mat in slices if mat is not None}
    return dtypes


class TestRealArithmetic:
    """A system whose weight form has no imaginary part is built in float64."""

    @staticmethod
    def real_systems(n_species: int, rng: np.random.Generator) -> list[StatisticsSystem]:
        """Real presets, the twisted and multi-q fixtures, and rotated twins of all but quon."""
        fixtures = [twisted_ccr(n_species, 0.6), multi_q(n_species, rng)]
        braided = [make_preset("boson", n_species), make_preset("fermion", n_species)]
        return ([make_preset("quon", n_species, q=0.5)] + braided + fixtures
                + [haar_rotated(system, rng) for system in braided + fixtures])

    @pytest.mark.parametrize("n_species,degree", [(2, 5), (3, 4)])
    def test_real_forms_build_slices_grams_and_ideals_in_float64(
            self, fresh_cache, monkeypatch, n_species, degree):
        svd_inputs = []
        real = fock.span_and_complement

        def spy(vectors, *args, **kwargs):
            svd_inputs.append(vectors.dtype)
            return real(vectors, *args, **kwargs)

        monkeypatch.setattr(fock, "span_and_complement", spy)
        for system in self.real_systems(n_species, np.random.default_rng(61)):
            form = fock._weight_form(system)[1]
            assert fock._tower(form).dtype is float, system.label
            sector_spectrum(system, degree)
            assert built_dtypes(form, degree) == {np.dtype(float)}, system.label
            if system.braid is None:
                continue
            svd_inputs.clear()
            quotient_sector(system, degree)
            assert svd_inputs and set(svd_inputs) == {np.dtype(float)}, system.label
            assert {basis.dtype for pair in fock._ideal_split(form, degree, EPS)
                    for basis in pair} == {np.dtype(float)}, system.label

    def test_complex_forms_stay_complex(self, fresh_cache, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(dump_system(hermitian_q(0.2)))
        rng = np.random.default_rng(67)
        phase = make_preset("phase", 3, phi=phase_phi(3, np.pi / 3))
        systems = [phase, haar_rotated(phase, rng), load_system(str(path)),
                   haar_rotated(hermitian_q(4 * ROUNDING), rng), hermitian_q(1e-30)]
        for system in systems:
            form = fock._weight_form(system)[1]
            assert fock._tower(form).dtype is complex, system.label
            sector_spectrum(system, 3)
            assert built_dtypes(form, 3) == {np.dtype(complex)}, system.label
            if system.braid is not None:
                assert {basis.dtype for pair in fock._ideal_split(form, 3, EPS)
                        for basis in pair} == {np.dtype(complex)}
        # below the rounding cut the weight form drops the imaginary part
        below = haar_rotated(hermitian_q(ROUNDING / 4), rng)
        form = fock._weight_form(below)[1]
        assert fock._tower(form).dtype is float and not np.any(form.cross.mat.imag)
        assert form.cross.mat.dtype == complex  # the operators keep complex storage

    @pytest.mark.parametrize("n_species,max_degree", [(2, 6), (3, 4)])
    def test_spectra_equal_the_complex_oracle(self, fresh_cache, n_species, max_degree):
        rng = np.random.default_rng(71)
        bases = ([system for system, _ in acceptance_systems(n_species)]
                 + [twisted_ccr(n_species, 0.6), multi_q(n_species, rng)])
        for base in bases:
            for system in (base, haar_rotated(base, rng)):
                for degree in range(max_degree + 1):
                    # the recursion is seeded complex, so its products are complex
                    want = np.linalg.eigvalsh(dense_gram_recursion(system, degree))
                    got = sector_spectrum(system, degree)
                    assert max_abs(got - want) <= 1e-13 * max(1.0, max_abs(want)), (
                        system.label, degree)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_quotient_projectors_equal_the_complex_path(self, fresh_cache, n_species):
        # Compare projectors, not bases: a real SVD may rotate the complement basis.
        rng = np.random.default_rng(73)
        for base in braided_systems(n_species)[:2]:
            for system in (base, haar_rotated(base, rng)):
                assert fock._tower(fock._weight_form(system)[1]).dtype is float
                for degree in range(6):
                    got = quotient_sector(system, degree).quotient.projector
                    want = dense_complement_projector(system, degree)
                    assert max_abs(got - want) <= 1e-12, (system.label, degree)


class TestKernelGeneration:
    """The Gram kernel of sector n is the degree-n ideal of ker(id + Ttilde).

    With B = Ttilde the generators id - B span the degree-2 kernel, and the
    Fock kernel is generated in degree 2 (Jorgensen-Proskurin-Samoilenko,
    Pacific J. Math. 198 (2001)).  Dimension form: the Gram layer (spectrum)
    and the ideal layer (generator SVD) share no code.
    """

    @pytest.mark.parametrize("rotated", [False, True], ids=["graded", "rotated"])
    @pytest.mark.parametrize("n_species", [2, 3])
    def test_kernel_dim_equals_ideal_dim(self, fresh_cache, n_species, rotated):
        rng = np.random.default_rng(13)
        for system in braided_systems(n_species):
            if rotated:
                system = haar_rotated(system, rng)
            for degree in range(6):
                kernel_dim = positivity_report(system, degree).kernel_dim
                ideal_dim = ideal_subspace(system, degree).shape[1]
                assert kernel_dim == ideal_dim, (system.label, degree)


class TestP2Kernel:
    def test_boltzmann_trivial(self, boltzmann2):
        assert p2_kernel(boltzmann2).shape == (4, 0)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_boson_antisymmetric_dimension(self, n_species):
        system = make_preset("boson", n_species)
        expected = n_species * (n_species - 1) // 2
        assert p2_kernel(system).shape[1] == expected

    def test_quon_inside_unit_interval_trivial(self):
        system = make_preset("quon", 2, q=0.5)
        assert p2_kernel(system).shape[1] == 0

    def test_boson_matches_degree_two_gram_kernel(self, boson2):
        gram = gram_matrix(boson2, 2).mat
        gram_kernel = kernel_basis(gram)
        p2 = p2_kernel(boson2)
        assert gram_kernel.shape == p2.shape
        # same subspace: projections coincide
        assert np.allclose(gram_kernel @ dagger(gram_kernel),
                           p2 @ dagger(p2), atol=EPS)


class TestIdealAndQuotient:
    def test_no_braid_raises(self, boltzmann2):
        with pytest.raises(NoBraid):
            ideal_subspace(boltzmann2, 2)
        with pytest.raises(NoBraid):
            quotient_sector(boltzmann2, 2)

    def test_boson_degree_two_span(self, boson2):
        span = ideal_subspace(boson2, 2)
        assert span.shape == (4, 1)
        target = np.zeros(4)
        target[1], target[2] = 1, -1
        overlap = abs(np.vdot(target / np.sqrt(2), span[:, 0]))
        assert overlap == pytest.approx(1.0, abs=EPS)

    def test_fermion_degree_two_span(self, fermion2):
        assert ideal_subspace(fermion2, 2).shape[1] == 3

    def test_fermion_degree_three_span_fills_sector(self, fermion2):
        assert ideal_subspace(fermion2, 3).shape[1] == 8

    @pytest.mark.parametrize("name,dims", [
        ("boson", (1, 2, 3, 4, 5)),
        ("fermion", (1, 2, 1, 0, 0)),
    ])
    def test_quotient_dimensions(self, name, dims):
        system = make_preset(name, 2)
        got = tuple(quotient_sector(system, n).quotient.dim for n in range(5))
        assert got == dims

    def test_fermion_three_species_degree_two(self):
        system = make_preset("fermion", 3)
        assert quotient_sector(system, 2).quotient.dim == 3

    def test_single_species_quotients(self):
        # boson N=1: id - B = 0, every sector survives whole
        boson = make_preset("boson", 1)
        assert [quotient_sector(boson, n).quotient.dim for n in range(4)] == [1, 1, 1, 1]
        # fermion N=1: degree >= 2 dies entirely
        fermion = make_preset("fermion", 1)
        assert [quotient_sector(fermion, n).quotient.dim for n in range(4)] == [1, 1, 0, 0]

    def test_projector_properties(self, fermion2):
        for degree in range(4):
            sector = quotient_sector(fermion2, degree)
            proj = sector.quotient.projector
            assert max_abs(proj @ proj - proj) <= EPS
            assert max_abs(proj - dagger(proj)) <= EPS
            span = ideal_subspace(fermion2, degree)
            if span.shape[1]:
                assert max_abs(proj @ span) <= EPS

    def test_projector_is_built_on_first_use(self, fermion2):
        quotient = quotient_sector(fermion2, 3).quotient
        assert "projector" not in vars(quotient)
        assert quotient.projector is quotient.projector

    def test_quotient_gram_positive_definite(self):
        for name in ("boson", "fermion"):
            system = make_preset(name, 2)
            for degree in range(5):
                gram = quotient_gram(system, degree)
                if gram.dim == 0:
                    continue
                report = positivity_report(system, degree, quotient=True)
                assert report.positive_definite, (name, degree)


class TestDescendedOperators:
    def _descended_pair(self, system, i, degree):
        creation, _ = descended_operators(system, i, degree)
        _, annihilation = descended_operators(system, i, degree + 1)
        return creation, annihilation

    def test_boson_ccr_on_quotients(self, boson2):
        for degree in range(4):
            for i in (1, 2):
                for j in (1, 2):
                    c_j, _ = descended_operators(boson2, j, degree)
                    _, a_i_up = descended_operators(boson2, i, degree + 1)
                    dim = quotient_sector(boson2, degree).quotient.dim
                    first = a_i_up @ c_j
                    if degree == 0:
                        second = np.zeros((dim, dim))
                    else:
                        c_j_down, _ = descended_operators(boson2, j, degree - 1)
                        _, a_i = descended_operators(boson2, i, degree)
                        second = c_j_down @ a_i
                    expected = (1.0 if i == j else 0.0) * np.eye(dim)
                    assert max_abs(first - second - expected) <= EPS

    def test_fermion_car_and_nilpotency(self, fermion2):
        # {a_i, c_j} = delta_ij on the degree-1 quotient
        for i in (1, 2):
            for j in (1, 2):
                c_j, _ = descended_operators(fermion2, j, 1)
                _, a_i_up = descended_operators(fermion2, i, 2)
                c_j_down, _ = descended_operators(fermion2, j, 0)
                _, a_i = descended_operators(fermion2, i, 1)
                anti = a_i_up @ c_j + c_j_down @ a_i
                expected = (1.0 if i == j else 0.0) * np.eye(2)
                assert max_abs(anti - expected) <= EPS
        # repeated creators vanish on the quotient
        c_1_12, _ = descended_operators(fermion2, 1, 1)
        c_1_23, _ = descended_operators(fermion2, 1, 2)
        square = c_1_23 @ c_1_12
        assert square.size == 0 or max_abs(square) <= EPS

    def test_corrupted_pair_not_well_defined(self):
        system = StatisticsSystem(
            cross=CrossOperator(0.5 * flip_matrix(2)),
            braid=BraidOperator(flip_matrix(2)),
            label="corrupted",
        )
        with pytest.raises(NotWellDefined):
            descended_operators(system, 1, 2)

    def test_check_descends_matches_the_dense_residual(self, fresh_cache):
        # A second route to every eps verdict: the dense level between the
        # standard-basis bases, species by species.
        rng = np.random.default_rng(67)
        first_failing = set()
        for n_species in (2, 3):
            corrupted = StatisticsSystem(cross=CrossOperator(0.5 * flip_matrix(n_species)),
                                         braid=BraidOperator(flip_matrix(n_species)),
                                         label="corrupted")
            bases = (braided_systems(n_species) + inconsistent_braids(n_species, rng)
                     + [corrupted] + [split_braid()] * (n_species == 3))
            for base in bases:
                for system in (base, haar_rotated(base, rng)):
                    fock._check_descends(system, 0, EPS)  # the vacuum is killed
                    for n in range(1, 5):
                        q_down = quotient_sector(system, n - 1).quotient.complement_basis
                        span = ideal_subspace(system, n)
                        dense = [max_abs(dagger(q_down) @ annihilation_matrix(system, i, n) @ span)
                                 for i in range(1, n_species + 1)]
                        failing = [(i, res) for i, res in enumerate(dense, 1) if not res <= EPS]
                        if not failing:
                            fock._check_descends(system, n, EPS)
                            continue
                        first, res = failing[0]
                        first_failing.add(first)
                        with pytest.raises(NotWellDefined, match=(
                                rf"^annihilation does not preserve the ideal at degree {n} "
                                r"\(residual \S+\); \(T, B\) violate")) as info:
                            fock._check_descends(system, n, EPS)
                        named = float(str(info.value).split("residual ")[1].split(")")[0])
                        assert named == pytest.approx(res, rel=5e-3), (system.label, n, first)
        assert first_failing == {1, 2}

    def test_one_failing_species_refuses_every_species(self, fresh_cache):
        # The quotient carries the representation only when every A_i descends.
        for i in (1, 2, 3):
            with pytest.raises(NotWellDefined, match=r"degree 2 \(residual 6.780e-01\)"):
                descended_operators(split_braid(), i, 2)

    def test_overflowing_residual_is_not_well_defined(self, fresh_cache, boson2):
        # the level of a huge T overflows, so the annihilation residual is NaN
        system = StatisticsSystem(cross=CrossOperator(1e200 * boson2.cross.mat),
                                  braid=boson2.braid, label="huge")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NotWellDefined, match=r"degree 3 \(residual nan\)"):
            descended_operators(system, 1, 3)


    @pytest.mark.parametrize("n_species", [2, 3])
    def test_builds_no_annihilation_level(self, fresh_cache, monkeypatch, n_species):
        def refuse(*args):
            raise AssertionError("an annihilation level was built")

        real_scatter = fock._scatter

        def scatter(shape, dtype, what, parts):
            # the returned quotient bases are scattered too; a level is not
            if what == "annihilation level":
                refuse()
            return real_scatter(shape, dtype, what, parts)

        monkeypatch.setattr(fock, "annihilation_matrix", refuse)
        monkeypatch.setattr(fock, "_scatter", scatter)
        rng = np.random.default_rng(51)
        for base in braided_systems(n_species):
            for system in (base, haar_rotated(base, rng)):
                for n in range(5):
                    for i in range(1, n_species + 1):
                        descended_operators(system, i, n)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_products_match_the_dense_level(self, fresh_cache, n_species):
        rng = np.random.default_rng(53)
        for base in braided_systems(n_species):
            for system in (base, haar_rotated(base, rng)):
                for n in range(1, 5):
                    q_down = quotient_sector(system, n - 1).quotient.complement_basis
                    q_n = quotient_sector(system, n).quotient.complement_basis
                    for i in range(1, n_species + 1):
                        ref = dagger(q_down) @ annihilation_matrix(system, i, n) @ q_n
                        got = descended_operators(system, i, n)[1]
                        assert got.shape == ref.shape
                        assert max_abs(got - ref) <= 1e-13 * max(1.0, max_abs(ref)), (
                            system.label, n, i)


def split_braid() -> StatisticsSystem:
    """The boson T with the phase braid of letters 2 and 3 only: A_1 descends, A_2 does not."""
    phi = np.zeros((3, 3))
    phi[1, 2], phi[2, 1] = 1.0, -1.0
    return StatisticsSystem(cross=make_preset("boson", 3).cross,
                            braid=make_preset("phase", 3, phi=phi).braid, label="split")


def inconsistent_braids(n_species: int, rng: np.random.Generator) -> list[StatisticsSystem]:
    """The boson T with a random unitary B and with a random diagonal B.

    Neither B is chosen to be consistent with T.  Each has ``N(N-1)/2``
    random phases and the eigenvalue 1 elsewhere, so that ``id - B`` has the
    rank of the boson one and the ideal is proper in the low sectors.
    """
    boson = make_preset("boson", n_species)
    phases = np.ones(n_species**2, dtype=complex)
    rank = n_species * (n_species - 1) // 2
    phases[:rank] = np.exp(2j * np.pi * rng.uniform(0.1, 0.9, rank))
    v = haar_unitary(rng, n_species**2)
    braids = {"unitary": v @ np.diag(phases) @ dagger(v),
              "diagonal": np.diag(rng.permutation(phases))}
    return [StatisticsSystem(cross=boson.cross, braid=BraidOperator(b), label=f"boson, {name} B")
            for name, b in braids.items()]


class TestCreationPreservesTheIdeal:
    """``E (x) I_n`` lies in ``I_{n+1}`` for any B, which is why quotients check annihilation only."""

    @pytest.mark.parametrize("n_species,max_degree", [(2, 5), (3, 4)])
    def test_creation_residual_is_rounding(self, fresh_cache, n_species, max_degree):
        rng = np.random.default_rng(59)
        for base in braided_systems(n_species) + inconsistent_braids(n_species, rng):
            for system in (base, haar_rotated(base, rng)):
                proper = False  # some degree with a nonzero span and a nonzero complement above
                for n in range(max_degree + 1):
                    span_n = ideal_subspace(system, n)
                    q_up = quotient_sector(system, n + 1).quotient.complement_basis
                    proper |= span_n.shape[1] > 0 and q_up.shape[1] > 0
                    for i in range(1, n_species + 1):
                        res = max_abs(dagger(q_up[creation_rows(system, i, n)]) @ span_n)
                        assert res <= 1e-13, (system.label, n, i, res)
                # the fermion quotient at N = 2 is zero from degree 3 on
                assert proper or base.label == "fermion(N=2)", system.label


class TestRepresentationContract:
    @pytest.mark.parametrize("n_species", [1, 2])
    def test_adjointness_full_sectors(self, n_species):
        for system, _ in acceptance_systems(n_species):
            for degree in range(4):
                gram_up = gram_matrix(system, degree + 1).mat
                gram_dn = gram_matrix(system, degree).mat
                for i in range(1, n_species + 1):
                    c_i = creation_matrix(system, i, degree)
                    a_i = annihilation_matrix(system, i, degree + 1)
                    lhs = dagger(c_i) @ gram_up
                    rhs = gram_dn @ a_i
                    assert max_abs(lhs - rhs) <= EPS, system.label

    def test_adjointness_quotient_sectors(self):
        for name in ("boson", "fermion"):
            system = make_preset(name, 2)
            for degree in range(3):
                gram_up = quotient_gram(system, degree + 1).mat
                gram_dn = quotient_gram(system, degree).mat
                for i in (1, 2):
                    c_i, _ = descended_operators(system, i, degree)
                    _, a_i = descended_operators(system, i, degree + 1)
                    assert max_abs(dagger(c_i) @ gram_up - gram_dn @ a_i) <= EPS

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_rotated_phase_quotient_sectors(self, fresh_cache, n_species):
        # The one braided fixture with W != 1: boson and fermion are
        # U(N)-invariant, so they keep W = 1 when rotated.
        rng = np.random.default_rng(79)
        angles = np.triu(rng.uniform(0.3, 2.8, (n_species, n_species)), 1)
        system = haar_rotated(make_preset("phase", n_species, phi=angles - angles.T), rng)
        w, form = fock._weight_form(system)
        assert form is not system and max_abs(np.abs(w) - np.eye(n_species)) > 0.1
        t4 = system.cross.tensor()
        grams = []
        for degree in range(4):
            # the dense route of the given system, kept as the oracle
            q = quotient_sector(system, degree).quotient.complement_basis
            want = dagger(q) @ gram_matrix(system, degree).mat @ q
            grams.append(quotient_gram(system, degree).mat)
            assert max_abs(grams[-1] - want) <= 1e-13 * max(1.0, max_abs(want)), degree
        for degree in range(3):
            ops = [descended_operators(system, i, degree) for i in range(1, n_species + 1)]
            ups = [descended_operators(system, i, degree + 1) for i in range(1, n_species + 1)]
            downs = ([descended_operators(system, i, degree - 1) for i in range(1, n_species + 1)]
                     if degree else None)
            scale = max(1.0, max_abs(grams[degree + 1]))
            for i in range(n_species):
                # adjointness: dagger(C^Q_i) G^Q_{n+1} = G^Q_n A^Q_i
                lhs = dagger(ops[i][0]) @ grams[degree + 1]
                assert max_abs(lhs - grams[degree] @ ups[i][1]) <= EPS * scale, (degree, i)
                for j in range(n_species):
                    # A^Q_i C^Q_j - sum_{k,l} T^{ij}_{kl} C^Q_k A^Q_l = delta_ij
                    lhs = ups[i][1] @ ops[j][0]
                    for k in range(n_species):
                        for l in range(n_species):
                            if degree and t4[k, l, i, j] != 0:
                                lhs = lhs - t4[k, l, i, j] * (downs[k][0] @ ops[l][1])
                    expected = np.eye(lhs.shape[0]) if i == j else 0
                    assert max_abs(lhs - expected) <= EPS, (degree, i, j)

    @pytest.mark.parametrize("n_species", [1, 2])
    def test_commutation_identity_full_sectors(self, n_species):
        for system, _ in acceptance_systems(n_species):
            t4 = system.cross.tensor()
            for degree in range(4):
                dim = n_species**degree
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
                        expected = (1.0 if i == j else 0.0) * np.eye(dim)
                        assert max_abs(lhs - expected) <= EPS, system.label


class TestExchangeRelationsOnQuotients:
    """The braid exchange relations among creators (and their adjoints) hold
    on quotient sectors; on the free sectors they are exactly what the ideal
    removes."""

    PRESETS = (("boson", {}), ("fermion", {}), ("phase", {"phi": np.pi / 3}))

    @pytest.mark.parametrize("name,kwargs", PRESETS)
    def test_creator_exchange(self, name, kwargs):
        system = make_preset(name, 2, **kwargs)
        b4 = system.braid.tensor()
        for degree in range(3):
            for i in (1, 2):
                for j in (1, 2):
                    c_j, _ = descended_operators(system, j, degree)
                    c_i_up, _ = descended_operators(system, i, degree + 1)
                    lhs = c_i_up @ c_j
                    for k in (1, 2):
                        for l in (1, 2):
                            coeff = b4[k - 1, l - 1, i - 1, j - 1]
                            if coeff != 0:
                                c_l, _ = descended_operators(system, l, degree)
                                c_k_up, _ = descended_operators(system, k, degree + 1)
                                lhs = lhs - coeff * (c_k_up @ c_l)
                    assert max_abs(lhs) <= EPS, (name, degree, i, j)

    @pytest.mark.parametrize("name,kwargs", PRESETS)
    def test_annihilator_exchange(self, name, kwargs):
        # Gram-adjoint of the creator relation: coefficients conjugate,
        # composition order reverses
        system = make_preset(name, 2, **kwargs)
        b4 = system.braid.tensor()
        for degree in range(3):
            for i in (1, 2):
                for j in (1, 2):
                    _, a_j = descended_operators(system, j, degree + 1)
                    _, a_i_hi = descended_operators(system, i, degree + 2)
                    lhs = a_j @ a_i_hi
                    for k in (1, 2):
                        for l in (1, 2):
                            coeff = np.conj(b4[k - 1, l - 1, i - 1, j - 1])
                            if coeff != 0:
                                _, a_l = descended_operators(system, l, degree + 1)
                                _, a_k_hi = descended_operators(system, k, degree + 2)
                                lhs = lhs - coeff * (a_l @ a_k_hi)
                    assert max_abs(lhs) <= EPS, (name, degree, i, j)


class TestBozejkoSpeicher:
    def test_norm_bound_and_yang_baxter_imply_semidefiniteness(self):
        from wickforge.operators import validate_system

        for system, _ in acceptance_systems(2):
            report = validate_system(system)
            yb_ok = report.get("yang_baxter").status == "pass"
            norm_ok = report.get("ttilde_norm").residual <= 1.0 + EPS
            if yb_ok and norm_ok:
                for degree in range(5):
                    result = positivity_report(system, degree)
                    assert result.min_eig >= -EPS, (system.label, degree)


class TestReportsAndCaching:
    def test_sector_report_shape(self, boson2):
        report = sector_report(boson2, 2, quotient=True)
        assert report["sector"] == 2
        assert report["dim"] == 4
        assert report["quotient_dim"] == 3
        assert set(report["checks"]) == {
            "gram_hermitian", "positive_semidefinite", "positive_definite"
        }

    @pytest.mark.parametrize("n_species", [2, 3])
    @pytest.mark.parametrize("rotated", [False, True], ids=["graded", "rotated"])
    @pytest.mark.parametrize("name", ["boson", "fermion", "phase"])
    def test_quotient_dim_is_the_complement_width(self, fresh_cache, name, n_species, rotated):
        # The report counts the quotient spectrum; the library's complement
        # basis, built in the standard basis, must have as many columns.
        system = make_preset(name, n_species, phi=0.7 if name == "phase" else None)
        if rotated:
            system = haar_rotated(system, np.random.default_rng(61 + n_species))
        for n in range(5):
            report = sector_report(system, n, quotient=True, eps=EPS)
            assert report["quotient_dim"] == quotient_sector(system, n, EPS).quotient.dim

    def test_gram_cache_returns_same_array(self, fresh_cache, boson2):
        first = gram_matrix(boson2, 3).mat
        second = gram_matrix(boson2, 3).mat
        assert first is second
        assert not first.flags.writeable

    def test_gram_blocks_are_a_tuple(self, fresh_cache, boson2):
        # the cached Gram is shared, so its blocks must not be a list a caller can grow
        for n in range(5):
            assert isinstance(gram_matrix(boson2, n).blocks, tuple), n

    def test_cache_keyed_by_content_not_label(self, fresh_cache):
        a = make_preset("boson", 2)
        b = StatisticsSystem(cross=a.cross, braid=a.braid, label="renamed")
        assert a.content_key == b.content_key
        assert gram_matrix(a, 2).mat is gram_matrix(b, 2).mat
        # one tower per content: evaluation and the quotient of the first
        # system leave nothing for those of the second to add, graded or not
        assert fock._tower(a) is fock._tower(b)
        rotated = haar_rotated(a, np.random.default_rng(89))
        twin = StatisticsSystem(cross=rotated.cross, braid=rotated.braid, label="renamed twin")
        expr = wick.parse_expression("a(1) a(2) c(2) c(1) + c(2) a(1)", 2)

        def session(system):
            for n in range(4):
                wick.evaluation_blocks(expr, system, n)
                fock._check_descends(system, n, EPS)

        def entries():
            # every entry of every table of every tower, by content
            return {(key, name, entry) for key, tower in fock._CACHE.items()
                    for name, table in vars(tower).items() if isinstance(table, dict)
                    for entry in table}

        for first, second in ((a, b), (rotated, twin)):
            session(first)
            keys = entries()
            session(second)
            assert fock._tower(first) is fock._tower(second)
            assert entries() == keys, second.label

    def test_cache_holds_one_tower_per_touched_content(self, fresh_cache):
        # a mixed session on a rotated braided system and its graded twin:
        # every verdict lands in a table of the tower of its content
        base = make_preset("phase", 2, phi=0.7)
        rotated = haar_rotated(base, np.random.default_rng(101))
        expr = wick.parse_expression("a(1) a(2) c(2) c(1) + c(2) a(1)", 2)
        touched = set()
        for system in (rotated, base):
            for n in range(4):
                sector_spectrum(system, n, EPS)
                sector_spectrum(system, n, EPS, quotient=True)
                fock._check_descends(system, n, EPS)
                wick.evaluation_blocks(expr, system, n)
                annihilation_matrix(system, 2, n + 1)
            touched |= {system.content_key, fock._weight_form(system)[1].content_key}
        assert fock._weight_form(rotated)[1] is not rotated
        assert fock._CACHE and all(type(tower) is fock._Tower for tower in fock._CACHE.values())
        assert set(fock._CACHE) <= touched
        assert fock._tower(fock._weight_form(rotated)[1])._ideals
        fock.clear_cache()
        assert not fock._CACHE

    def test_concurrent_sector_builds(self, fresh_cache):
        from concurrent.futures import ThreadPoolExecutor

        systems = [system for system, _ in acceptance_systems(2)]
        jobs = [(system, degree) for system in systems for degree in range(5)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            grams = list(pool.map(lambda job: gram_matrix(*job).mat, jobs))
        for (system, degree), mat in zip(jobs, grams):
            assert max_abs(mat - gram_matrix(system, degree).mat) == 0.0
        # evaluations and quotient checks on shared towers, whose per-degree
        # tables every thread reads and grows, against sequential runs
        fock.clear_cache()
        rng = np.random.default_rng(97)
        braided = [system for system, _ in acceptance_systems(2) if system.braid is not None]
        systems = braided + [haar_rotated(system, rng) for system in braided]
        expr = wick.parse_expression("a(1) a(2) c(2) c(1) + c(2) a(1) + a(2) c(1) c(1)", 2)
        # each job twice in a row, so that two threads grow one tower at once
        jobs = [(system, n) for system in systems for n in range(5) for _ in range(2)]

        def work(job):
            system, n = job
            pieces = {(target, pair): (piece.dtype, piece.shape, piece.tobytes())
                      for target, block in wick.evaluation_blocks(expr, system, n).items()
                      for pair, piece in block.pieces.items()}
            try:
                fock._check_descends(system, n, EPS)
                verdict = None
            except NotWellDefined as exc:
                verdict = str(exc)
            # the verdict tables: quotient spectra on the system's tower, the
            # weight form and the ideal splits on the form's
            w, form = fock._weight_form(system)
            split = [(span.tobytes(), comp.tobytes()) for span, comp
                     in fock._ideal_split(system, n, EPS)]
            spectrum = sector_spectrum(system, n, EPS, quotient=True).tobytes()
            return pieces, verdict, w.tobytes(), form.content_key, split, spectrum

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(work, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        fock.clear_cache()
        assert threaded == [work(job) for job in jobs]
