import json

import numpy as np
import pytest

from wickforge import fock
from wickforge.cli import main
from wickforge.operators import dump_system, system_to_dict
from wickforge.catalog import make_preset
from wickforge.operators import BraidOperator, CrossOperator, StatisticsSystem, flip_matrix

from conftest import haar_rotated


@pytest.fixture
def corrupted_file(tmp_path):
    """(T = 0.5 tau, B = tau): star/YB pass but consistency fails."""
    system = StatisticsSystem(
        cross=CrossOperator(0.5 * flip_matrix(2)),
        braid=BraidOperator(flip_matrix(2)),
        label="corrupted",
    )
    path = tmp_path / "corrupted.json"
    path.write_text(dump_system(system))
    return str(path)


@pytest.fixture
def huge_boson_file(tmp_path):
    """The boson N = 2 T scaled by 1e200 with the boson B: its levels overflow from sector 3."""
    boson = make_preset("boson", 2)
    system = StatisticsSystem(cross=CrossOperator(1e200 * boson.cross.mat),
                              braid=boson.braid, label="huge")
    path = tmp_path / "huge.json"
    path.write_text(dump_system(system))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DOCUMENTED_JSON_COMMANDS = [
    ["validate", "--preset", "boson", "--dim", "2", "--json"],
    ["gram", "--preset", "boson", "--dim", "2", "--sector", "2", "--json"],
    ["gram", "--preset", "boson", "--dim", "2", "--sector", "2", "--quotient", "--json"],
    ["kernel", "--preset", "boson", "--dim", "2", "--json"],
    ["quotient", "--preset", "boson", "--dim", "2", "--max-sector", "3", "--json"],
    ["normal-order", "a(1) c(1)", "--preset", "boson", "--dim", "2",
     "--verify", "--max-sector", "3", "--json"],
    ["catalog", "--preset", "boson", "--dim", "2", "--emit"],
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", DOCUMENTED_JSON_COMMANDS,
                             ids=lambda argv: argv[0] + ("-q" if "--quotient" in argv else ""))
    def test_byte_identical_across_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1  # non-empty

    def test_json_is_valid(self, capsys):
        _, out, _ = run(capsys, ["validate", "--preset", "boson", "--json"])
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 9


class TestExitCodes:
    def test_pass_case(self, capsys):
        code, _, _ = run(capsys, ["validate", "--preset", "boson", "--dim", "2"])
        assert code == 0

    def test_fail_case(self, capsys, corrupted_file):
        code, out, _ = run(capsys, ["validate", "--file", corrupted_file])
        assert code == 1
        assert "FAIL" in out

    def test_usage_error(self, capsys):
        assert main(["validate", "--preset", "boson", "--bogus"]) == 2
        assert main(["validate"]) == 2  # no system source
        assert main([]) == 2  # no command

    def test_size_limit(self, capsys):
        code, _, err = run(capsys, ["gram", "--preset", "boson", "--dim", "2",
                                    "--sector", "17"])
        assert code == 3
        assert "cap" in err

    def test_oversized_verify_target_is_size_limit(self, capsys):
        # the target sector of 40 creators on the vacuum has dim 2^40
        code, out, err = run(capsys, ["normal-order", " ".join(["c(1)"] * 40),
                                      "--preset", "boson", "--dim", "2", "--verify",
                                      "--max-sector", "0"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap" in err

    @pytest.mark.parametrize("argv", [
        ["normal-order", "c(1)", "--preset", "boson", "--dim", "2", "--verify",
         "--max-sector", "15"],
        ["gram", "--preset", "boson", "--dim", "2", "--sector", "16", "--quotient"],
        ["quotient", "--preset", "boson", "--dim", "2", "--max-sector", "15"],
        ["normal-order", " ".join(["a(1)"] * 6 + ["c(1)"] * 6), "--preset", "boson",
         "--dim", "2", "--verify", "--max-sector", "10"],
    ], ids=["verify-target", "gram-quotient", "quotient", "verify-placed"])
    def test_oversized_dense_matrix_is_size_limit(self, capsys, monkeypatch, argv):
        # Every sector here is under the sector cap.  A lowered entry cap
        # makes the small sectors before the first oversized matrix cheap;
        # tests/test_fock.py::TestEntryCap checks the real cap on these shapes.
        monkeypatch.setattr(fock, "ENTRY_CAP", 2**16)
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "entries exceeds cap" in err

    @pytest.mark.parametrize("argv", [
        ["quotient", "--preset", "boson", "--dim", "2", "--max-sector", "15"],
        ["quotient", "--preset", "boson", "--dim", "3", "--max-sector", "7"],
    ])
    def test_oversized_range_is_refused_before_smaller_sectors(self, capsys, monkeypatch, argv):
        # The top sector's sizes are checked first, so no ideal basis of a
        # smaller sector is computed and thrown away.
        calls = []
        real = fock.span_and_complement

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(fock, "span_and_complement", counted)
        monkeypatch.setattr(fock, "ENTRY_CAP", 2**16)
        code, out, _ = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert calls == []

    @pytest.mark.parametrize("command", [["catalog"], ["gram", "--sector", "2"]])
    def test_quon_without_q_reads_the_same_everywhere(self, capsys, command):
        code, out, err = run(capsys, command + ["--preset", "quon"])
        assert code == 2
        assert out == ""
        assert err == "error: preset quon requires --q\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "--preset", "boson", "--dim", "1000"],
        ["catalog", "--preset", "boson", "--dim", "18"],
        ["validate", "--file", "{big}"],
    ], ids=["preset", "catalog", "file"])
    def test_oversized_operator_is_size_limit(self, capsys, tmp_path, argv):
        # The rule runs before the N^4 tensor exists: at N = 1000 it would
        # take 14.6 TiB.
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dim": 1000, "cross": [[1, 1, 1, 1, 1.0, 0.0]],
                                   "braid": None}))
        code, out, err = run(capsys, [arg.format(big=big) for arg in argv])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap" in err

    @pytest.mark.parametrize("argv", [
        ["quotient", "--preset", "boson", "--max-sector", "-3"],
        ["normal-order", "a(1) c(1)", "--preset", "boson", "--verify",
         "--max-sector", "-1"],
    ])
    def test_negative_max_sector_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: --max-sector must be >= 0, got " + argv[-1] + "\n"

    def test_quotient_on_braidless_system(self, capsys):
        code, _, err = run(capsys, ["quotient", "--preset", "quon", "--q", "0.5",
                                    "--dim", "2"])
        assert code == 1
        assert "braid" in err

    def test_quotient_fail_case(self, capsys, corrupted_file):
        code, out, _ = run(capsys, ["quotient", "--file", corrupted_file,
                                    "--max-sector", "3"])
        assert code == 1
        assert "FAIL" in out

    def test_overflowed_law_residual_fails(self, capsys, tmp_path):
        # a star-law T that fails Yang-Baxter, scaled so that the residual's
        # products overflow: the NaN residual fails the law
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
        t = 1e110 * (t + np.conj(t.transpose(1, 0, 3, 2))) / 2  # t[k, l, i, j] = T^{ij}_{kl}
        path = tmp_path / "huge.json"
        path.write_text(dump_system(StatisticsSystem(cross=CrossOperator(t.reshape(4, 4)))))
        code, out, err = run(capsys, ["validate", "--file", str(path)])
        assert code == 1
        assert "yang_baxter          fail     nan" in out
        assert out.splitlines()[-1] == "result: FAIL"
        assert err == ""  # no numpy warnings about the overflow

    def test_overflowed_quotient_residual_fails(self, capsys, huge_boson_file):
        code, out, err = run(capsys, ["quotient", "--file", huge_boson_file,
                                      "--max-sector", "4"])
        assert code == 1
        rows = out.splitlines()
        for n in (3, 4):
            assert rows[n + 1].startswith(f"sector {n}: dim {2**n}  quotient_dim {n + 1}"
                                          "  well_defined False")
            assert f"degree {n} (residual nan)" in rows[n + 1]
        assert rows[-1] == "result: FAIL"
        assert err == ""

    @pytest.mark.parametrize("quotient", [False, True])
    def test_overflowed_gram_names_its_sector(self, capsys, huge_boson_file, quotient):
        argv = ["gram", "--file", huge_boson_file, "--sector", "3"]
        code, out, err = run(capsys, argv + ["--quotient"] * quotient)
        assert code == 2
        assert out == ""
        assert err == ("error: " + "quotient " * quotient
                       + "Gram matrix of sector 3 is not finite\n")

    def test_overflowing_normal_form_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["normal-order", "1e200 a(1) a(1) c(1) c(1)",
                                      "--preset", "quon", "--q", "1e200", "--dim", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "c(1) a(1) in the normal form is not finite" in err

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["normal-order", "c(", "--preset", "boson"])
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["validate", "--file", "/nonexistent.json"])
        assert code == 2


class TestCommands:
    def test_gram_quon_sector_three(self, capsys):
        code, out, _ = run(capsys, ["gram", "--preset", "quon", "--q", "0.5",
                                    "--dim", "1", "--sector", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"] == [2.625]
        assert payload["checks"]["positive_definite"] is True

    def test_kernel_boson(self, capsys):
        code, out, _ = run(capsys, ["kernel", "--preset", "boson", "--dim", "2",
                                    "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_dim"] == 1

    def test_quotient_dims_in_output(self, capsys):
        code, out, _ = run(capsys, ["quotient", "--preset", "fermion", "--dim", "2",
                                    "--max-sector", "4", "--json"])
        assert code == 0
        payload = json.loads(out)
        dims = [row["quotient_dim"] for row in payload["sectors"]]
        assert dims == [1, 2, 1, 0, 0]
        assert payload["well_defined"] is True

    def test_normal_order_prints_quon_form(self, capsys):
        code, out, _ = run(capsys, ["normal-order", "a(1) c(1)", "--preset", "quon",
                                    "--q", "0.5", "--dim", "1"])
        assert code == 0
        assert out.splitlines()[0] == "1 + 0.5 c(1) a(1)"

    def test_normal_order_keeps_small_true_term(self, capsys):
        # The c^3 a^3 coefficient is q^9 = 9.1e-10, below the default eps but
        # reached without cancellation, so it stays and --verify passes.
        code, out, _ = run(capsys, ["normal-order", "a(1) a(1) a(1) c(1) c(1) c(1)",
                                    "--preset", "quon", "--q", "0.099", "--dim", "1",
                                    "--verify", "--max-sector", "3"])
        assert code == 0
        form, verify = out.splitlines()
        head = form.split(" c(1) c(1) c(1) a(1) a(1) a(1)")[0]
        coeff = float(head.rsplit(" ", 1)[1])
        assert abs(coeff - 0.099**9) <= 1e-12 * 0.099**9
        assert verify.startswith("verify: max residual")

    def test_catalog_emit_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "boson.json"
        code, _, _ = run(capsys, ["catalog", "--preset", "boson", "--dim", "2",
                                  "--emit", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data == system_to_dict(make_preset("boson", 2))
        code, _, _ = run(capsys, ["validate", "--file", str(path)])
        assert code == 0

    def test_catalog_emit_stdout(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--preset", "fermion", "--dim", "2"])
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_phase_preset_via_phi_flag(self, capsys):
        code, _, _ = run(capsys, ["validate", "--preset", "phase", "--dim", "2",
                                  "--phi", "1.0471975511965976"])
        assert code == 0

    def test_phase_preset_via_full_matrix(self, capsys):
        csv = "0,1.0471975511965976,-1.0471975511965976,0"
        code, _, _ = run(capsys, ["validate", "--preset", "phase", "--dim", "2",
                                  "--phi", csv])
        assert code == 0


class TestEpsPlumbing:
    def test_flag_loosens_checks(self, capsys, corrupted_file):
        code, _, _ = run(capsys, ["--eps", "0.6", "validate", "--file",
                                  corrupted_file])
        assert code == 0  # residual 0.5 within the loosened tolerance

    def test_env_var_fallback(self, capsys, corrupted_file, monkeypatch):
        monkeypatch.setenv("WICKFORGE_EPS", "0.6")
        code, _, _ = run(capsys, ["validate", "--file", corrupted_file])
        assert code == 0

    def test_env_var_not_a_number_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WICKFORGE_EPS", "abc")
        code, out, err = run(capsys, ["validate", "--preset", "boson"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "WICKFORGE_EPS" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400", "0"])
    def test_flag_not_positive_finite_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, ["--eps", value, "gram", "--preset", "boson",
                                      "--sector", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_env_var_not_positive_finite_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("WICKFORGE_EPS", value)
        code, out, err = run(capsys, ["gram", "--preset", "boson", "--sector", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "WICKFORGE_EPS" in err

    def test_flag_overrides_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("WICKFORGE_EPS", "abc")
        code, _, _ = run(capsys, ["--eps", "1e-9", "validate", "--preset", "boson"])
        assert code == 0


class TestVerify:
    @pytest.mark.parametrize("expr", [
        "1e400 a(1) c(1)",
        # finite terms whose sums overflow or cancel to NaN
        "1e308 c(1) + 1e308 c(1)",
        "c(2) - 1e400 c(1) + 1e400 c(1)",
    ])
    def test_non_finite_coefficient_is_usage_error(self, capsys, expr):
        code, out, err = run(capsys, ["normal-order", expr, "--preset", "boson", "--verify"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err

    def test_nan_residual_fails(self, capsys, tmp_path):
        # a(1) c(1) = 1 + q c(1) a(1) with q = 1e200: on sector 2 both sides
        # overflow to inf, and their difference is NaN
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1, "cross": [[1, 1, 1, 1, 1e200, 0.0]]}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run(capsys, ["normal-order", "a(1) c(1)", "--file", str(path),
                                        "--verify", "--max-sector", "3"])
        assert code == 1
        assert out.splitlines()[1].startswith("verify: max residual nan")

    def test_long_boson_word_to_sector_ten(self, capsys):
        # per-block evaluation: the whole-sector placed stack of sector 16
        # (65536 x 1024) would be over the entry cap
        word = " ".join(["a(1)"] * 6 + ["c(1)"] * 6)
        code, out, err = run(capsys, ["normal-order", word, "--preset", "boson", "--dim", "2",
                                      "--verify", "--max-sector", "10"])
        assert code == 0, err
        assert out.splitlines()[1].startswith("verify: max residual 0.000e+00")


class TestLargeSectorTolerances:
    """Gram entries grow like n!: verdicts must hold at the scale of the matrix.

    A phase system at N = 2 has a PBW basis of ordered monomials, so its
    sector-10 Gram kernel has dimension 2^10 - 11 = 1013.  Its largest
    eigenvalue is about 3.6e6, where an absolute tolerance misreads rounding
    as negative eigenvalues or as a non-Hermitian matrix.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rotated", [False, True], ids=["graded", "rotated"])
    def test_phase_sector_ten(self, capsys, tmp_path, seed, rotated):
        rng = np.random.default_rng(seed)
        system = make_preset("phase", 2, phi=rng.uniform(-np.pi, np.pi))
        if rotated:
            system = haar_rotated(system, rng)
        path = tmp_path / "phase.json"
        path.write_text(dump_system(system))
        code, out, err = run(capsys, ["gram", "--file", str(path), "--sector", "10",
                                      "--json"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["kernel_dim"] == 1013
        assert payload["checks"] == {"gram_hermitian": True,
                                     "positive_semidefinite": True,
                                     "positive_definite": False}


#: JSON values that are neither integers nor real numbers.
NOT_NUMBERS = (None, "x", True, [1], {"re": 1})


def _mutated(rng: np.random.Generator, data: dict) -> dict | list | str | None:
    """A copy of a valid operator-file payload with one schema violation."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    data = json.loads(json.dumps(data))
    field = "braid" if data["braid"] is not None and rng.random() < 0.5 else "cross"
    rows = data[field]
    row = pick(rows)
    pos = int(rng.integers(6))
    kind = int(rng.integers(11))
    if kind == 0:
        del row[pos]                                   # five-field row
    elif kind == 1:
        row.append(0.0)                                # seven-field row
    elif kind == 2:
        row[pos] = pick(NOT_NUMBERS + ((1.5,) if pos < 4 else ()))
    elif kind == 3:
        row[int(rng.integers(4))] = pick((0, data["dim"] + 1))
    elif kind == 4:
        rows.append(list(row))                         # duplicate index quadruple
    elif kind == 5:
        data[field] = pick((5, "x", {}, True))
    elif kind == 6:
        rows[int(rng.integers(len(rows)))] = pick((7, "row", None))
    elif kind == 7:
        data["dim"] = pick(("two", None, 0, -1, 1.5, [2], True))
    elif kind == 8:
        del data[pick(("dim", "cross"))]
    elif kind == 9:
        return pick(([], 5, "x", None))                # not a JSON object
    else:
        text = json.dumps(data)
        return text[: int(rng.integers(1, len(text)))]  # truncated JSON text
    return data


class TestMalformedOperatorFiles:
    @pytest.mark.parametrize("row", [
        [1, 1, 1, 1, 1.0],                 # five fields
        [1, 1, 1, 1, "x", 0.0],            # string coefficient
    ])
    def test_reported_rows_exit_two(self, capsys, tmp_path, row):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "cross": [row], "braid": None}))
        code, out, err = run(capsys, ["validate", "--file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: malformed operator file")

    def test_scalar_braid_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "cross": [], "braid": 5}))
        code, _, err = run(capsys, ["validate", "--file", str(path)])
        assert code == 2
        assert err.startswith("error: malformed operator file")

    def test_fuzzed_files_exit_two_with_one_line(self, capsys, tmp_path):
        rng = np.random.default_rng(2024)
        valid = system_to_dict(make_preset("phase", 2, phi=0.7))
        path = tmp_path / "fuzz.json"
        for trial in range(300):
            mutated = _mutated(rng, valid)
            path.write_text(mutated if isinstance(mutated, str) else json.dumps(mutated))
            code, out, err = run(capsys, ["validate", "--file", str(path)])
            assert code == 2, (trial, mutated, err)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, (trial, err)
