import json
import subprocess
import sys

import numpy as np
import pytest

from wickforge import cli, fock
from wickforge.cli import main
from wickforge.operators import dump_system, load_system, system_to_dict
from wickforge.catalog import make_preset
from wickforge.operators import BraidOperator, CrossOperator, StatisticsSystem

from conftest import haar_rotated
from oracles import flip_matrix


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


@pytest.fixture
def identity_braid_file(tmp_path):
    """The boson T at N = 3 with B = id: a zero ideal, so sector n keeps all 3^n words."""
    system = StatisticsSystem(cross=make_preset("boson", 3).cross,
                              braid=BraidOperator(np.eye(9)), label="boson T, B = id")
    path = tmp_path / "identity-braid.json"
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

    def test_quotient_builds_no_sector_above_the_top(self, capsys, monkeypatch):
        # Creation maps the ideal into the ideal for every (T, B), so only
        # annihilation is checked and sector 9, over the lowered entry cap
        # (126 x 1008 generator stack), is never built.
        degrees = []
        real = fock._ideal_split

        def spy(system, n, eps):
            degrees.append(n)
            return real(system, n, eps)

        monkeypatch.setattr(fock, "_ideal_split", spy)
        monkeypatch.setattr(fock, "ENTRY_CAP", 2**16)
        code, out, _ = run(capsys, ["quotient", "--preset", "boson", "--dim", "2",
                                    "--max-sector", "8"])
        assert code == 0
        rows = out.splitlines()
        assert rows[1:-1] == [f"sector {n}: dim {2**n}  quotient_dim {n + 1}  well_defined True"
                              for n in range(9)]
        assert rows[-1] == "result: PASS"
        assert max(degrees) == 8

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

    @pytest.mark.parametrize("argv,system,sector,quotient", [
        (["--preset", "quon", "--q", "0.5", "--dim", "2"], make_preset("quon", 2, q=0.5), 5, False),
        (["--preset", "boson", "--dim", "3", "--quotient"], make_preset("boson", 3), 4, True),
    ])
    def test_gram_spectrum_line_in_both_modes(self, capsys, argv, system, sector, quotient):
        spectrum = fock.sector_spectrum(system, sector, quotient=quotient).tolist()
        argv = ["gram", *argv, "--sector", str(sector)]
        code, out, _ = run(capsys, [*argv, "--json"])
        assert code == 0 and out.count("\n") == 1
        assert json.loads(out)["spectrum"] == spectrum
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.splitlines()[1] == f"spectrum: {spectrum}"

    def test_json_builds_no_text(self, capsys):
        def refuse():
            raise AssertionError("the text output was built under --json")

        cli._emit({"ok": True}, True, refuse)
        assert capsys.readouterr().out == '{"ok": true}\n'

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: kernel_dim counts eigenvalues below eps * max|lambda|, "
        "so a PD Gram with condition number above 1/eps reports a kernel"))
    def test_gram_quon_near_one_is_positive_definite(self, capsys):
        # Bozejko-Speicher (Math. Ann. 300 (1994)): the quon Gram is strictly
        # positive for |q| < 1.  Today: kernel_dim 4 with min_eig 7.7e-06 > 0.
        code, out, _ = run(capsys, ["gram", "--preset", "quon", "--q", "0.9",
                                    "--dim", "2", "--sector", "8", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_dim"] == 0
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

    @pytest.mark.parametrize("glued, spaced", [("-c(1)", "- c(1)"), ("-2c(1)", "-2 c(1)")])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_normal_order_reads_leading_minus_glued_to_its_term(self, capsys, glued, spaced,
                                                                json_flag):
        # argparse alone would read the glued text as an option and exit 2
        tail = ["--preset", "boson", "--dim", "2", *json_flag]
        want = run(capsys, ["normal-order", spaced, *tail])
        assert want[0] == 0 and want[2] == ""
        assert run(capsys, ["normal-order", glued, *tail]) == want
        if json_flag:
            assert json.loads(want[1])["input"] == spaced

    def test_normal_order_help_and_missing_expression(self, capsys):
        code, out, err = run(capsys, ["normal-order", "-h"])
        assert code == 0 and err == ""
        assert out.startswith("usage: wickforge normal-order [-h]")
        code, out, err = run(capsys, ["normal-order", "--preset", "boson", "--dim", "2"])
        assert code == 2 and out == ""
        assert err.endswith("wickforge normal-order: error: the following arguments are "
                            "required: expr\n")

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

    def test_rotated_quotient_reads_only_the_weight_form(self, capsys, tmp_path, fresh_cache):
        # A Haar-rotated phase system is graded only in its weight basis (W != 1).
        # Its quotient verdicts read the slices and Gram blocks of that form,
        # not the one-block slices and Grams of the system as given.
        rng = np.random.default_rng(83)
        angles = np.triu(rng.uniform(0.3, 2.8, (3, 3)), 1)
        path = tmp_path / "phase.json"
        path.write_text(dump_system(haar_rotated(make_preset("phase", 3, phi=angles - angles.T),
                                                 rng)))
        assert run(capsys, ["quotient", "--file", str(path), "--max-sector", "4"])[0] == 0
        assert run(capsys, ["gram", "--file", str(path), "--sector", "5", "--quotient"])[0] == 0
        system = load_system(str(path))
        form = fock._weight_form(system)[1]
        assert form is not system
        mine = fock._CACHE.get(system.content_key)
        assert mine is None or not (mine._slices or mine._grams)
        theirs = fock._CACHE[form.content_key]
        assert theirs._slices and theirs._grams and theirs._ideals

    def test_zero_ideal_quotient_runs_under_the_entry_cap(self, capsys, monkeypatch,
                                                         identity_braid_file, fresh_cache):
        # Sector 4's complement is all 81 words: as one 81 x 81 standard-basis
        # array it would exceed the lowered cap, but the verdicts read only the
        # per-block ideal split.
        monkeypatch.setattr(fock, "ENTRY_CAP", 4096)
        code, out, err = run(capsys, ["quotient", "--file", identity_braid_file,
                                      "--max-sector", "4", "--json"])
        assert code == 0, err
        assert [row["quotient_dim"] for row in json.loads(out)["sectors"]] == [
            3**n for n in range(5)]
        code, out, err = run(capsys, ["gram", "--file", identity_braid_file, "--sector", "4",
                                      "--quotient", "--json"])
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["quotient_dim"], payload["kernel_dim"]) == (81, 66)

    @pytest.mark.parametrize("rotated", [False, True], ids=["graded", "rotated"])
    def test_quotient_verdicts_build_no_standard_basis(self, capsys, monkeypatch, tmp_path,
                                                       fresh_cache, rotated):
        rng = np.random.default_rng(89)
        angles = np.triu(rng.uniform(0.3, 2.8, (3, 3)), 1)
        system = make_preset("phase", 3, phi=angles - angles.T)
        if rotated:  # graded only in its weight basis, W != 1
            system = haar_rotated(system, rng)
        path = tmp_path / "phase.json"
        path.write_text(dump_system(system))
        argvs = [[*command, "--file", str(path), *flags]
                 for command in (["quotient", "--max-sector", "4"],
                                 ["gram", "--sector", "4", "--quotient"])
                 for flags in ([], ["--json"])]
        expected = [run(capsys, argv) for argv in argvs]
        assert [code for code, _, _ in expected] == [0] * 4
        fock.clear_cache()

        def refuse(*args):
            raise AssertionError("a quotient verdict built a standard basis or a descended map")

        monkeypatch.setattr(fock, "_standard_basis", refuse)
        monkeypatch.setattr(fock, "descended_operators", refuse)
        assert [run(capsys, argv) for argv in argvs] == expected

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


class TestSharedParser:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert main(["validate", "--preset", "boson"]) == 0
        assert main(["gram", "--preset", "boson", "--sector", "2"]) == 0
        assert main(["gram", "--preset", "boson"]) == 2
        assert built == []

    def test_sequence_matches_fresh_processes(self, capsys, monkeypatch, corrupted_file):
        # Each call could inherit state from the one before: a flag, a
        # subcommand default, an aborted parse, or a help exit.
        monkeypatch.delenv("WICKFORGE_EPS", raising=False)
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["--eps", "0.6", "validate", "--file", corrupted_file],
            ["validate", "--file", corrupted_file],
            ["gram", "--preset", "boson", "--sector", "3", "--quotient"],
            ["gram", "--preset", "boson", "--sector", "3"],
            ["gram", "--preset", "boson"],
            ["validate", "--preset", "boson"],
            ["--help"],
            ["catalog", "--preset", "boson"],
            ["validate", "--file", corrupted_file],
        ]
        fresh = {}
        for argv in sequence:
            key = tuple(argv)
            if key not in fresh:
                proc = subprocess.run([sys.executable, "-m", "wickforge.cli", *argv],
                                      capture_output=True, text=True)
                fresh[key] = (proc.returncode, proc.stdout, proc.stderr)
        codes = []
        for argv in sequence:
            result = run(capsys, argv)
            assert result == fresh[tuple(argv)], argv
            codes.append(result[0])
        assert codes == [0, 1, 0, 0, 2, 0, 0, 0, 1]


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

    @pytest.mark.parametrize("preset", [["boson"], ["fermion"], ["quon", "--q", "0.5"]])
    def test_complex_coefficient_on_a_real_system(self, capsys, preset):
        # the slices are float64; the evaluation pieces stay complex
        expr = "(0.3, 0.7) a(1) c(2) + (0, -1) a(2) a(1) c(1) c(2)"
        code, out, err = run(capsys, ["normal-order", expr, "--preset", *preset, "--dim", "2",
                                      "--verify", "--max-sector", "4"])
        assert code == 0, err
        assert float(out.splitlines()[1].split()[3]) <= 1e-12

    @pytest.mark.parametrize("top", [0, 4])
    def test_each_side_evaluated_once_per_sector(self, capsys, monkeypatch, top):
        # the two expressions keep their walk tables from sector to sector
        calls = []
        real = cli.evaluation_blocks

        def counted(expr, system, n):
            calls.append((expr, n))
            return real(expr, system, n)

        monkeypatch.setattr(cli, "evaluation_blocks", counted)
        code, _, err = run(capsys, ["normal-order", "a(2) a(1) c(1) c(3)", "--preset", "phase",
                                    "--phi", "0.7", "--dim", "3", "--verify",
                                    "--max-sector", str(top)])
        assert code == 0, err
        assert len(calls) == 2 * (top + 1)
        assert sorted(n for _, n in calls) == sorted(2 * list(range(top + 1)))
        sides = {id(expr): expr for expr, _ in calls}
        assert len(sides) == 2 and all(expr._walks is not None for expr in sides.values())

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

    def test_deeply_nested_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, ["validate", "--file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: malformed operator file") and err.count("\n") == 1

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


#: Pieces of expression text: whole terms and signs, drawn three times in
#: four, and near-tokens, Unicode and zero-width spaces and stray characters.
#: Joined with no separator they also make numbers and generators that no
#: piece spells out.
EXPRESSION_TERMS = ("c(1) ", "a(2) ", "a(1)", "c(2)", " + ", " - ", "2 ", "(1,-2) ", "1 ")
EXPRESSION_EDGES = (
    "c(3)", "a(0)", "c(007)", "0.5", ".5e1", "1.0", "1e400", "1e-12", "(", ")", ",", "+", "-",
    " ", "\u00a0", "\u3000", "\u200b", "\t", "@", "c(", "a", "e", ".",
)


class TestMalformedExpressions:
    def test_fuzzed_expressions_exit_zero_or_two_with_one_line(self, capsys):
        rng = np.random.default_rng(2030)
        for trial in range(300):
            text = "".join(
                rng.choice(EXPRESSION_TERMS if rng.random() < 0.75 else EXPRESSION_EDGES)
                for _ in range(int(rng.integers(1, 9))))
            code, out, err = run(capsys, ["normal-order", text, "--preset", "boson", "--dim", "2"])
            if code == 0:
                assert out.count("\n") == 1 and err == "", (trial, text, err)
                continue
            # argparse reads a text such as "-(" or "-a" as an option, and
            # prints its usage lines before its one error line.
            lines = err.splitlines()
            assert code == 2 and out == "", (trial, text, code, out)
            assert [line for line in lines if "error: " in line] == lines[-1:], (trial, text, err)
