import json

import numpy as np
import pytest

from wickforge import operators
from wickforge.catalog import make_preset
from wickforge.errors import DimensionMismatch, SizeLimit
from wickforge.linalg import dagger, max_abs
from wickforge.operators import (
    OPERATOR_CAP,
    ROUNDING,
    BraidOperator,
    CrossOperator,
    StatisticsSystem,
    build_ttilde,
    change_basis,
    check_operator_dim,
    check_braid,
    check_consistency,
    check_star,
    check_yang_baxter,
    dump_system,
    graded_part,
    is_graded,
    load_system,
    preserves_content,
    symmetry_generators,
    system_from_dict,
    system_to_dict,
    validate_system,
    weight_basis,
)

from conftest import haar_rotated, haar_unitary, multi_q, twisted_ccr
from oracles import flip_matrix, kron_oracle, ttilde_inverse_oracle, ttilde_oracle

EPS = 1e-9


def random_cross(rng, n):
    mat = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return CrossOperator(mat)


class TestBuildTtilde:
    def test_zero(self):
        assert np.array_equal(build_ttilde(CrossOperator(np.zeros((4, 4)))),
                              np.zeros((4, 4)))

    def test_flip_maps_to_flip(self):
        tau = flip_matrix(2)
        assert np.array_equal(build_ttilde(CrossOperator(tau)), tau)

    def test_scaled_flip_is_linear(self):
        tau = flip_matrix(2)
        assert np.array_equal(build_ttilde(CrossOperator(0.5 * tau)), 0.5 * tau)

    def test_against_index_oracle(self):
        rng = np.random.default_rng(23)
        cross = random_cross(rng, 2)
        assert np.array_equal(build_ttilde(cross), ttilde_oracle(cross.tensor()))

    def test_reindexing_roundtrip(self):
        rng = np.random.default_rng(29)
        for n in (2, 3):
            cross = random_cross(rng, n)
            tt4 = build_ttilde(cross).reshape(n, n, n, n)
            recovered = ttilde_inverse_oracle(tt4).reshape(n * n, n * n)
            assert np.array_equal(recovered, cross.mat)


class TestCheckStar:
    def test_real_scaled_flip_passes(self):
        ok, res = check_star(CrossOperator(0.7 * flip_matrix(2)))
        assert ok and res == 0.0

    def test_imaginary_scale_fails_with_residual_two(self):
        ok, res = check_star(CrossOperator(1j * flip_matrix(2)))
        assert not ok
        assert res == pytest.approx(2.0, abs=EPS)

    def test_zero_passes(self):
        ok, _ = check_star(CrossOperator(np.zeros((4, 4))))
        assert ok

    def test_equivalent_to_ttilde_hermiticity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cross = random_cross(rng, 2)
            if rng.random() < 0.5:
                t4 = cross.tensor()
                sym = (t4 + t4.transpose(1, 0, 3, 2).conj()) / 2
                cross = CrossOperator(sym.reshape(4, 4))
            ok, res = check_star(cross)
            ttilde = build_ttilde(cross)
            herm_res = max_abs(ttilde - dagger(ttilde))
            assert ok == (herm_res <= EPS)
            assert res == pytest.approx(herm_res, abs=1e-14)


class TestCheckBraid:
    def test_flip(self):
        ok, res = check_braid(BraidOperator(flip_matrix(2)))
        assert ok and res == 0.0

    def test_negative_flip(self):
        ok, _ = check_braid(BraidOperator(-flip_matrix(2)))
        assert ok

    def test_constant_diagonal_passes(self):
        ok, _ = check_braid(BraidOperator(np.diag([2.0, 2.0, 2.0, 2.0])))
        assert ok

    def test_generic_diagonal_fails(self):
        # direct multiplication: B1 B2 B1 = B1^2 B2 and B2 B1 B2 = B2^2 B1
        # for commuting diagonals, and those differ for distinct entries
        braid = BraidOperator(np.diag([1.0, 2.0, 3.0, 4.0]))
        b1 = np.kron(braid.mat, np.eye(2))
        b2 = np.kron(np.eye(2), braid.mat)
        oracle = np.max(np.abs(b1 @ b2 @ b1 - b2 @ b1 @ b2))
        ok, res = check_braid(braid)
        assert oracle > 1.0
        assert not ok and res == pytest.approx(oracle, abs=EPS)

    def test_random_dense_fails(self):
        rng = np.random.default_rng(37)
        mat = rng.standard_normal((4, 4))
        ok, res = check_braid(BraidOperator(mat))
        assert not ok and res > 1e-3


class TestCheckYangBaxter:
    def test_zero(self):
        ok, _ = check_yang_baxter(np.zeros((4, 4)))
        assert ok

    @pytest.mark.parametrize("q", [1.0, -1.0, 0.5, 2.0, 1j])
    def test_scaled_flip(self, q):
        ok, res = check_yang_baxter(q * flip_matrix(2))
        assert ok and res <= EPS

    def test_random_fails(self):
        rng = np.random.default_rng(41)
        ok, res = check_yang_baxter(rng.standard_normal((4, 4)))
        assert not ok and res > 1e-3


class TestCheckConsistency:
    def test_boson_flip_pair(self):
        tau = flip_matrix(2)
        ok, (r1, r2) = check_consistency(CrossOperator(tau), BraidOperator(tau))
        assert ok and r1 <= EPS and r2 <= EPS

    def test_fermion_pair(self):
        tau = flip_matrix(2)
        ok, _ = check_consistency(CrossOperator(-tau), BraidOperator(-tau))
        assert ok

    def test_scaled_cross_with_plain_braid_fails(self):
        tau = flip_matrix(2)
        ok, (r1, r2) = check_consistency(CrossOperator(0.5 * tau), BraidOperator(tau))
        assert not ok
        # (id + q tau)(id - tau) = (1 - q)(id - tau); max entry of id - tau is 1
        assert r2 == pytest.approx(0.5, abs=EPS)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_consistency(CrossOperator(flip_matrix(2)),
                              BraidOperator(flip_matrix(3)))


class TestThreeSlotResiduals:
    """The three-fold laws applied slot by slot equal the Kronecker-product residuals."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [2**20, 5], ids=["one-chunk", "many-chunks"])
    def test_match_kronecker_products(self, monkeypatch, n, chunk):
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", chunk * n**3)
        rng = np.random.default_rng(43 + n)
        ident = np.eye(n)
        for _ in range(3):
            t, b = (rng.standard_normal((n * n, n * n))
                    + 1j * rng.standard_normal((n * n, n * n)) for _ in range(2))
            t1, t2 = kron_oracle(t, ident), kron_oracle(ident, t)
            b1, b2 = kron_oracle(b, ident), kron_oracle(ident, b)
            for got, ref in (
                (check_braid(BraidOperator(b))[1], max_abs(b1 @ b2 @ b1 - b2 @ b1 @ b2)),
                (check_yang_baxter(t)[1], max_abs(t1 @ t2 @ t1 - t2 @ t1 @ t2)),
                (check_consistency(CrossOperator(t), BraidOperator(b))[1][0],
                 max_abs(b1 @ t2 @ t1 - t2 @ t1 @ b2)),
            ):
                assert abs(got - ref) <= 1e-12 * max(1.0, ref)

    @pytest.mark.parametrize("chunk", [2**20, 5], ids=["one-chunk", "many-chunks"])
    def test_overflow_fails(self, monkeypatch, chunk):
        # products of three entries near 1e110 overflow, and inf - inf is NaN
        monkeypatch.setattr(operators, "_CHUNK_ENTRIES", chunk * 8)
        rng = np.random.default_rng(47)
        t, b = (1e110 * rng.standard_normal((4, 4)) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            braid, yang_baxter = check_braid(BraidOperator(b)), check_yang_baxter(t)
            ok, (r1, _) = check_consistency(CrossOperator(t), BraidOperator(b))
        for ok_law, res in (braid, yang_baxter, (ok, r1)):
            assert not ok_law and np.isnan(res)


class TestValidateSystem:
    def test_boltzmann(self):
        report = validate_system(make_preset("boltzmann", 2))
        assert report.get("star").status == "pass"
        assert report.get("yang_baxter").status == "pass"
        assert report.get("ttilde_norm").status == "pass"
        assert report.get("ttilde_norm").residual == 0.0
        assert report.get("cross_invertible").status == "warn"
        assert report.get("braid_relation").status == "skipped"
        assert report.get("consistency_ideal").status == "skipped"
        assert report.passed

    def test_boson_all_pass(self):
        report = validate_system(make_preset("boson", 2))
        assert report.passed
        assert all(c.status == "pass" for c in report.checks)

    def test_quon_above_norm_one_warns(self):
        report = validate_system(make_preset("quon", 2, q=1.5))
        assert report.passed
        norm_check = report.get("ttilde_norm")
        assert norm_check.status == "warn"
        assert norm_check.residual == pytest.approx(1.5, abs=EPS)

    def test_every_check_appears_once(self):
        report = validate_system(make_preset("fermion", 2))
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names)) == 9


def _transform_cross(cross: CrossOperator, unitary: np.ndarray) -> CrossOperator:
    t4 = cross.tensor()
    new = np.einsum("kc,ld,ia,jb,cdab->klij",
                    unitary.conj(), unitary, unitary.conj(), unitary, t4)
    n = unitary.shape[0]
    return CrossOperator(new.reshape(n * n, n * n))


def _transform_braid(braid: BraidOperator, unitary: np.ndarray) -> BraidOperator:
    b4 = braid.tensor()
    new = np.einsum("kc,ld,ia,jb,cdab->klij",
                    unitary.conj(), unitary.conj(), unitary, unitary, b4)
    n = unitary.shape[0]
    return BraidOperator(new.reshape(n * n, n * n))


class TestBasisChangeInvariance:
    def _random_unitary(self, rng, n):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        unitary, _ = np.linalg.qr(mat)
        return unitary

    @pytest.mark.parametrize("name,kwargs", [
        ("boson", {}),
        ("fermion", {}),
        ("quon", {"q": 0.5}),
        ("phase", {"phi": np.pi / 5}),
    ])
    def test_preset_statuses_and_residuals_stable(self, name, kwargs):
        rng = np.random.default_rng(43)
        system = make_preset(name, 2, **kwargs)
        unitary = self._random_unitary(rng, 2)
        moved = StatisticsSystem(
            cross=_transform_cross(system.cross, unitary),
            braid=None if system.braid is None
            else _transform_braid(system.braid, unitary),
            label=system.label + "-rotated",
        )
        base = validate_system(system)
        rotated = validate_system(moved)
        for c_base, c_rot in zip(base.checks, rotated.checks):
            assert c_base.name == c_rot.name
            assert c_base.status == c_rot.status
            assert c_rot.residual == pytest.approx(c_base.residual, abs=1e-6)

    def test_failing_system_stays_failing(self):
        rng = np.random.default_rng(47)
        cross = random_cross(rng, 2)
        unitary = self._random_unitary(rng, 2)
        moved = _transform_cross(cross, unitary)
        base = validate_system(StatisticsSystem(cross=cross, label="random"))
        rotated = validate_system(StatisticsSystem(cross=moved, label="rotated"))
        assert not base.passed and not rotated.passed
        for c_base, c_rot in zip(base.checks, rotated.checks):
            assert c_base.status == c_rot.status


def random_phase(rng: np.random.Generator, n_species: int) -> StatisticsSystem:
    upper = np.triu(rng.uniform(-np.pi, np.pi, (n_species, n_species)), 1)
    return make_preset("phase", n_species, phi=upper - upper.T)


def rotated_battery(n_species: int, rng: np.random.Generator) -> list[StatisticsSystem]:
    """Haar-rotated multi-q, twisted CCR and phase systems: graded in some other basis."""
    bases = [multi_q(n_species, rng), twisted_ccr(n_species, 0.6),
             make_preset("phase", n_species, phi=np.pi / 3), random_phase(rng, n_species)]
    return [haar_rotated(base, rng) for base in bases]


def star_cross(rng: np.random.Generator, n_species: int) -> CrossOperator:
    """A generic T satisfying the star law T^{ij}_{kl} = conj(T^{ji}_{lk})."""
    t4 = random_cross(rng, n_species).tensor()
    return CrossOperator((t4 + t4.transpose(1, 0, 3, 2).conj()).reshape(
        n_species**2, n_species**2) / 4)


def operator_scale(system: StatisticsSystem) -> float:
    braid = 0.0 if system.braid is None else max_abs(system.braid.mat)
    return max(1.0, max_abs(system.cross.mat), braid)


def unitary_from(herm: np.ndarray, theta: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(herm)
    return vecs @ np.diag(np.exp(1j * theta * vals)) @ dagger(vecs)


class TestWeightBasis:
    def test_change_basis_matches_index_formula(self):
        # change_basis takes the new basis vectors as columns; the index
        # formula of _transform_cross contracts its unitary by rows.
        rng = np.random.default_rng(53)
        for n_species in (2, 3):
            system = random_phase(rng, n_species)
            unitary = haar_unitary(rng, n_species)
            moved = change_basis(system, unitary.T)
            assert max_abs(moved.cross.mat
                           - _transform_cross(system.cross, unitary).mat) <= 1e-14
            assert max_abs(moved.braid.mat
                           - _transform_braid(system.braid, unitary).mat) <= 1e-14

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_rotated_systems_have_a_rank_n_torus_and_are_regraded(self, n_species):
        rng = np.random.default_rng(59)
        for system in rotated_battery(n_species, rng):
            assert not is_graded(system.cross), system.label
            gens = symmetry_generators(system)
            assert gens.shape == (n_species, n_species, n_species), system.label
            gram = np.einsum("aij,bij->ab", gens.conj(), gens).real
            assert max_abs(gram - np.eye(n_species)) <= 1e-12
            assert max_abs(gens - gens.conj().transpose(0, 2, 1)) <= 1e-15
            w = weight_basis(system)
            assert max_abs(dagger(w) @ w - np.eye(n_species)) <= 1e-13
            graded, dropped = graded_part(change_basis(system, w))
            assert dropped <= ROUNDING * operator_scale(system), (system.label, dropped)
            assert is_graded(graded.cross)
            assert graded.braid is None or preserves_content(graded.braid)

    def test_crowded_weights_are_separated(self):
        # In this basis the projection of diag(1, 2, 3) onto the torus has two
        # eigenvalues about 3e-5 apart, and its eigenvectors alone mix the
        # weight vectors far above rounding (a drop of about 4e-11).
        rng = np.random.default_rng(7)
        while True:
            unitary = haar_unitary(rng, 3)
            weights = np.sort((np.abs(unitary) ** 2).T @ np.arange(1.0, 4))
            if np.min(np.diff(weights)) < 3e-5:
                break
        system = change_basis(twisted_ccr(3, 0.6), unitary)
        dropped = graded_part(change_basis(system, weight_basis(system)))[1]
        assert dropped <= ROUNDING * operator_scale(system)

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_generators_are_finite_symmetries(self, n_species):
        # An independent route to the slot signs: exp(i theta X) leaves T and
        # B unchanged, a Hermitian X outside the span moves them.
        rng = np.random.default_rng(61)
        for system in rotated_battery(n_species, rng):
            for gen in symmetry_generators(system):
                moved = change_basis(system, unitary_from(gen, 0.7))
                assert max_abs(moved.cross.mat - system.cross.mat) <= 1e-12
                if system.braid is not None:
                    assert max_abs(moved.braid.mat - system.braid.mat) <= 1e-12
            other = rng.standard_normal((n_species, n_species)) * (1 + 1j)
            moved = change_basis(system, unitary_from(other + dagger(other), 0.7))
            assert max_abs(moved.cross.mat - system.cross.mat) > 1e-3, system.label

    @pytest.mark.parametrize("n_species", [1, 2, 3])
    def test_graded_systems_keep_the_standard_basis(self, n_species):
        rng = np.random.default_rng(67)
        for system in (multi_q(n_species, rng), twisted_ccr(n_species, 0.6),
                       random_phase(rng, n_species)):
            gens = symmetry_generators(system)
            assert len(gens) == n_species, system.label
            assert max_abs(gens - np.einsum("aii,ij->aij", gens, np.eye(n_species))) <= 1e-14
            assert max_abs(weight_basis(system) - np.eye(n_species)) <= 1e-14

    def test_full_unitary_symmetry(self):
        for n_species in (2, 3):
            system = make_preset("boson", n_species)
            assert len(symmetry_generators(system)) == n_species**2

    @pytest.mark.parametrize("n_species", [2, 3])
    def test_generic_cross_has_only_the_phase_symmetry(self, n_species):
        rng = np.random.default_rng(71)
        system = StatisticsSystem(cross=star_cross(rng, n_species), label="generic")
        gens = symmetry_generators(system)
        assert len(gens) == 1
        assert max_abs(gens[0] * np.sqrt(n_species) - np.sign(gens[0, 0, 0])
                       * np.eye(n_species)) <= 1e-12
        dropped = graded_part(change_basis(system, weight_basis(system)))[1]
        assert dropped > 1e-3


class TestOperatorSizeRule:
    def test_cap_bounds_n_to_the_fourth(self):
        check_operator_dim(17)
        assert 17**4 <= OPERATOR_CAP < 18**4
        with pytest.raises(SizeLimit):
            check_operator_dim(18)

    @pytest.mark.parametrize("build", [
        lambda: make_preset("boson", 1000),
        lambda: make_preset("phase", 10**6, phi=0.5),
        lambda: system_from_dict({"dim": 1000, "cross": [], "braid": None}),
        lambda: CrossOperator.from_entries(10**4, []),
    ], ids=["preset", "phase-preset", "file", "entries"])
    def test_checked_before_allocation(self, build):
        # An N^4 allocation at these sizes would raise MemoryError instead.
        with pytest.raises(SizeLimit, match="cap"):
            build()


class TestOperatorFile:
    def test_roundtrip(self, tmp_path):
        system = make_preset("phase", 2, phi=np.pi / 3)
        path = tmp_path / "phase.json"
        path.write_text(dump_system(system))
        loaded = load_system(path)
        assert loaded.dim == 2
        assert np.allclose(loaded.cross.mat, system.cross.mat, atol=1e-15)
        assert np.allclose(loaded.braid.mat, system.braid.mat, atol=1e-15)
        assert loaded.label == system.label

    def test_braidless_roundtrip(self):
        system = make_preset("quon", 2, q=0.5)
        data = system_to_dict(system)
        assert data["braid"] is None
        loaded = system_from_dict(json.loads(json.dumps(data)))
        assert loaded.braid is None
        assert np.allclose(loaded.cross.mat, system.cross.mat)

    def test_duplicate_entry_rejected(self):
        data = {"dim": 2,
                "cross": [[1, 1, 1, 1, 1.0, 0.0], [1, 1, 1, 1, 2.0, 0.0]],
                "braid": None, "label": "dup"}
        with pytest.raises(ValueError, match="duplicate"):
            system_from_dict(data)

    def test_out_of_range_index_rejected(self):
        data = {"dim": 2, "cross": [[3, 1, 1, 1, 1.0, 0.0]],
                "braid": None, "label": "bad"}
        with pytest.raises(ValueError, match="out of range"):
            system_from_dict(data)

    @pytest.mark.parametrize("change", [
        {"cross": [[1, 1, 1, 1, 1.0]]},
        {"cross": [[1, 1, 1, 1, "x", 0.0]]},
        {"cross": [[1, 1, True, 1, 1.0, 0.0]]},
        {"cross": [[1, 1, 1.5, 1, 1.0, 0.0]]},
        {"cross": {"1": [1, 1, 1, 1, 1.0, 0.0]}},
        {"braid": 5},
        {"dim": "2"},
        {"dim": 0},
    ], ids=["five-fields", "string-coeff", "bool-index", "float-index",
            "dict-rows", "scalar-braid", "string-dim", "zero-dim"])
    def test_schema_violations_raise_value_error(self, change):
        data = {"dim": 2, "cross": [[1, 1, 1, 1, 1.0, 0.0]], "braid": None,
                "label": "bad", **change}
        with pytest.raises(ValueError, match="malformed operator file"):
            system_from_dict(data)

    def test_omitted_entries_are_zero(self):
        data = {"dim": 2, "cross": [], "braid": None, "label": "zero"}
        system = system_from_dict(data)
        assert np.array_equal(system.cross.mat, np.zeros((4, 4)))


class TestContentKey:
    """The cache key hashes the operator content: N, then T's and B's bytes."""

    def test_round_trip_keeps_the_key(self, tmp_path):
        for system in (make_preset("phase", 3, phi=0.7), make_preset("quon", 2, q=0.5),
                       twisted_ccr(3, 0.6)):
            path = tmp_path / "system.json"
            path.write_text(dump_system(system))
            assert load_system(path).content_key == system.content_key, system.label

    def test_signed_zero_entry_is_an_absent_one(self):
        base = {"dim": 2, "cross": [[1, 2, 2, 1, 0.5, 0.0]], "braid": None, "label": ""}
        zero = {**base, "cross": base["cross"] + [[1, 1, 1, 1, 0.0, -0.0]]}
        negative = {**base, "cross": [[1, 2, 2, 1, 0.5, -0.0]]}
        keys = {system_from_dict(data).content_key for data in (base, zero, negative)}
        assert len(keys) == 1

    def test_content_changes_the_key_and_the_label_does_not(self):
        phase = make_preset("phase", 2, phi=0.7)
        others = [
            make_preset("phase", 2, phi=0.8),
            StatisticsSystem(cross=phase.cross),
            StatisticsSystem(cross=phase.cross, braid=BraidOperator(np.zeros((4, 4)))),
            make_preset("phase", 3, phi=0.7),
            make_preset("boson", 2),
        ]
        keys = [system.content_key for system in [phase] + others]
        assert len(set(keys)) == len(keys)
        relabelled = StatisticsSystem(cross=phase.cross, braid=phase.braid, label="other")
        assert relabelled.content_key == phase.content_key


class TestLoaderMessages:
    """A file with several bad rows names the first one in file order."""

    GOOD = [1, 1, 1, 1, 1.0, 0.0]

    @pytest.mark.parametrize("rows, message", [
        ([GOOD, [1, 2, 1, 3, 1.0, 0.0], [1, 1, 1, 1, 2.0, 0.0], [0, 1, 1, 1, 1.0, 0.0]],
         "cross entry index 3 out of range 1..2 in (1, 2, 1, 3, (1+0j))"),
        ([GOOD, [2, 1, 1, 2, 1.0, 0.0], [1, 1, 1, 1, 2.0, 0.0], [1, 1, 1, 3, 1.0, 0.0]],
         "duplicate cross entry for indices (1, 1, 1, 1)"),
        ([GOOD, [1, 1, 2**70, 1, 1.0, 0.0], [1, 1, 1, 1, 2.0, 0.0]],
         f"cross entry index {2**70} out of range 1..2 in (1, 1, {2**70}, 1, (1+0j))"),
        ([GOOD, [1, True, 1, 1, 1.0, 0.0], [1, 1, 1, 3, 1.0, 0.0]],
         "malformed operator file: cross row [1, True, 1, 1, 1.0, 0.0] is not "
         "[i, j, k, l, re, im] with integer indices and real numbers"),
        ([GOOD, [2, 2, 2, 2, 10**400, 0.0], [1, 1, 1, 1, 2.0, 0.0]],
         f"malformed operator file: cross row [2, 2, 2, 2, {10**400}, 0.0] is not "
         "[i, j, k, l, re, im] with integer indices and real numbers"),
    ], ids=["out-of-range", "duplicate", "index-overflow", "bool-index", "value-overflow"])
    def test_first_bad_row_is_named(self, tmp_path, rows, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "cross": rows, "braid": None}))
        with pytest.raises(ValueError) as info:
            load_system(path)
        assert str(info.value) == message


def test_system_dim_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        StatisticsSystem(cross=CrossOperator(flip_matrix(2)),
                         braid=BraidOperator(flip_matrix(3)))


def test_non_finite_entries_rejected():
    bad = np.zeros((4, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        CrossOperator(bad)


@pytest.mark.parametrize("build, message", [
    (lambda: CrossOperator(np.zeros((4, 5))),
     "cross operator matrix must be square, got shape (4, 5)"),
    (lambda: BraidOperator(np.zeros((3, 3))),
     "braid operator matrix must be N^2 x N^2, got 3 rows"),
    (lambda: BraidOperator.from_entries(2, [(1, 1, 1, 1, 1.0)] * 2),
     "duplicate braid entry for indices (1, 1, 1, 1)"),
], ids=["cross-not-square", "braid-not-n-squared", "braid-duplicate-entry"])
def test_constructor_messages_name_the_operator(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
