import json
import math

import numpy as np
import pytest

from qschlicht.caratheodory import AtomicMeasure, dump_measure, \
    sample_measure
from qschlicht.cli import _parse_complex, main
from qschlicht.power_series import TruncatedSeries
from qschlicht.q_calculus import ClassParams
from qschlicht.schlicht import alexander_pair
from qschlicht.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCoeffs:
    def test_plain_listing(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--class", "starlike",
                            "--q", "0.5", "--alpha", "0", "--order", "6",
                            "--source", "f1")
        assert code == 0
        assert "a_2" in out and "2.772588722240" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--q", "0.5", "--alpha", "0",
                            "--order", "6", "--source", "f2", "--json")
        payload = json.loads(out)
        assert payload["source"] == "f2"
        # even-index coefficients of the two-atom generator vanish
        assert payload["coefficients"][2] == [0.0, 0.0]

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--q", "0.5", "--alpha", "0",
                            "--order", "4", "--source", "eq", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,re,im"
        assert len(lines) == 6

    def test_measure_source(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        dump_measure(sample_measure(3, 2), path)
        code, out = run_cli(capsys, "coeffs", "--class", "convex",
                            "--q", "0.5", "--alpha", "0.3", "--order", "8",
                            "--source", f"measure:{path}")
        assert code == 0 and "a_2" in out

    @pytest.mark.parametrize("alpha", ["0", "0.3"])
    def test_convex_measure_member_integrates_the_starlike_one(self, capsys,
                                                              tmp_path, alpha):
        path = tmp_path / "m.json"
        dump_measure(AtomicMeasure(np.array([0.6, 0.4]), np.array([0.3, 2.0])),
                     path)
        coeffs = {}
        for klass in ("starlike", "convex"):
            code, out = run_cli(capsys, "coeffs", "--class", klass, "--q",
                                "0.5", "--alpha", alpha, "--order", "8",
                                "--source", f"measure:{path}", "--json")
            assert code == 0
            coeffs[klass] = np.array([complex(*c) for c in
                                      json.loads(out)["coefficients"]])
        params = ClassParams(q=0.5, alpha=float(alpha), order=8)
        want = alexander_pair(TruncatedSeries(coeffs["starlike"]), "to_convex",
                              params).coeffs
        assert np.abs(coeffs["convex"] - want).max() <= 1e-12

    def test_unknown_source_fails_cleanly(self, capsys):
        code = main(["coeffs", "--q", "0.5", "--alpha", "0",
                     "--source", "f3"])
        assert code == 2

    def test_missing_measure_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["coeffs", "--q", "0.5",
                     "--source", f"measure:{tmp_path / 'nonexistent.json'}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

    def test_class_conversion_roundtrip(self, capsys):
        # convex view of the q-integral extremal is itself
        code, out = run_cli(capsys, "coeffs", "--class", "starlike",
                            "--q", "0.5", "--alpha", "0", "--order", "6",
                            "--source", "eq", "--json")
        payload = json.loads(out)
        # starlike partner of eq has positive coefficients (z exp F)
        assert payload["coefficients"][2][0] > 0


class TestBounds:
    def test_reports_all_bounds(self, capsys):
        code, out = run_cli(capsys, "bounds", "--q", "0.5", "--alpha", "0",
                            "--mu", "0,0")
        assert code == 0
        assert "5.69201659284" in out
        assert "3.41655476564" in out
        assert "1.84839248149" in out
        assert "conjectural" not in out

    def test_conjectural_labels(self, capsys):
        code, out = run_cli(capsys, "bounds", "--q", "0.5", "--alpha", "0.5")
        assert "(conjectural)" in out
        assert "1.16908056102" in out

    def test_n_max_beyond_default_order(self, capsys):
        code, out = run_cli(capsys, "bounds", "--q", "0.5", "--n-max", "40")
        assert code == 0
        assert out.rstrip().split("\n")[-1].startswith("|a_40|")

    @pytest.mark.parametrize("mu, message", [
        ("nan,0", "error: mu must be finite"),
        ("inf", "error: mu must be finite"),
    ])
    def test_non_finite_mu_exits_cleanly(self, capsys, mu, message):
        code = main(["bounds", "--q", "0.5", "--mu", mu])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mu, value", [
        ("1+1i", 1 + 1j), ("-0.5i", -0.5j), ("0.5 + 2i", 0.5 + 2j),
        ("-inf", complex(-math.inf)), ("infj", complex(0, math.inf)),
    ])
    def test_only_a_trailing_i_is_the_imaginary_unit(self, mu, value):
        assert _parse_complex(mu) == value

    def test_non_finite_bound_exits_cleanly(self, capsys):
        code = main(["bounds", "--q", "0.5", "--mu", "1e308,1e308"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_alpha_whose_log_ratio_rounds_to_one_exits_cleanly(self, capsys):
        # q / (1 - alpha (1 - q)) rounds to 1.0 at alpha = 1 - 2**-53
        code = main(["bounds", "--q", "0.5", "--alpha", repr(1 - 2 ** -53)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: log-ratio argument 1.0 escaped (0, 1)\n"

    @pytest.mark.parametrize("n_max", ["1", "300"])
    def test_n_max_out_of_range_prints_nothing(self, capsys, n_max):
        code = main(["bounds", "--q", "0.5", "--n-max", n_max])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestVerify:
    def test_qcalc_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "qcalc",
                            "--q", "0.5", "--alpha", "0",
                            "--samples", "30", "--seed", "5")
        assert code == 0
        assert out.count("[PASS]") == 3

    def test_hankel_suite_reports_documented_exceedance(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "hankel",
                            "--q", "0.5", "--alpha", "0",
                            "--samples", "50", "--seed", "5")
        assert code == 0
        assert "exceeds the stated bound" in out

    @pytest.mark.parametrize("alpha", ["0", "0.3"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_runs_to_a_verdict(self, capsys, suite, alpha):
        code = main(["verify", "--suite", suite, "--q", "0.5",
                     "--alpha", alpha, "--samples", "20", "--seed", "5"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "Traceback" not in captured.err
        assert captured.out.rstrip().endswith("checks passed")

    @pytest.mark.parametrize("value", ["-0.5", "1.5", "nan"])
    @pytest.mark.parametrize("flag", ["--q", "--alpha"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_out_of_range_parameters_exit_cleanly(self, capsys, suite, flag,
                                                  value):
        args = {"--q": "0.5", "--alpha": "0", flag: value}
        code = main(["verify", "--suite", suite, "--q", args["--q"],
                     "--alpha", args["--alpha"], "--samples", "5",
                     "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_herglotz_below_its_smallest_q_exits_cleanly(self, capsys):
        code = main(["verify", "--suite", "herglotz", "--q", "1e-12",
                     "--alpha", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: the herglotz suite needs q >= 0.2")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_bad_sample_count_exits_cleanly(self, capsys, suite, samples):
        code = main(["verify", "--suite", suite, "--q", "0.5",
                     "--samples", samples, "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: samples must be at least 1")

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_seed_exits_cleanly(self, capsys, suite):
        code = main(["verify", "--suite", suite, "--q", "0.5",
                     "--samples", "5", "--seed", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: seed must be a non-negative integer,"
                                " got -3\n")

    @pytest.mark.parametrize("suite", ["fs", "hankel", "bieberbach",
                                       "herglotz", "membership"])
    def test_bad_thread_variable_exits_cleanly(self, capsys, monkeypatch,
                                               suite):
        # the sampled suites take their worker count as search does
        monkeypatch.setenv("QSCHLICHT_THREADS", "abc")
        code = main(["verify", "--suite", suite, "--q", "0.5",
                     "--samples", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: QSCHLICHT_THREADS must be a positive "
                                "integer, got 'abc'\n")


class TestSearch:
    def test_writes_canonical_report(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        csv_path = tmp_path / "rep.csv"
        code, out = run_cli(capsys, "search", "--functional", "fs",
                            "--q-grid", "0.5", "--alpha-grid", "0",
                            "--mu-grid", "0,1", "--samples", "200",
                            "--seed", "9", "--out", str(out_path),
                            "--csv", str(csv_path), "--workers", "2")
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["cells"]) == 2
        assert csv_path.read_text().startswith("q,alpha")

    def test_grid_syntax_colon(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _ = run_cli(capsys, "search", "--functional", "h22",
                          "--q-grid", "0.2:0.8:0.3", "--alpha-grid", "0",
                          "--samples", "100", "--seed", "9",
                          "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        qs = sorted({c["q"] for c in payload["cells"]})
        assert np.allclose(qs, [0.2, 0.5, 0.8])

    def test_stray_numeric_error_exits_cleanly(self, capsys, tmp_path):
        code = main(["search", "--functional", "h22", "--q-grid", "0.2:0.8:x",
                     "--samples", "10", "--seed", "9",
                     "--out", str(tmp_path / "rep.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", ["0.5:0.9", "0.5:0.9:nan", "0.5::0.1",
                                      "0.5:0.9:0", "0.5:0.9:-0.1",
                                      "0.5:0.9:inf", "nan:0.9:0.1"])
    def test_malformed_grid_spec_exits_cleanly(self, capsys, tmp_path, spec):
        out_path = tmp_path / "rep.json"
        code = main(["search", "--functional", "h22", "--q-grid", spec,
                     "--samples", "10", "--seed", "9", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: grid spec {spec!r} must be a:b:step"
                                " or v1,v2,...\n")
        assert not out_path.exists()

    def test_negative_seed_exits_cleanly(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code = main(["search", "--functional", "h22", "--q-grid", "0.5",
                     "--samples", "10", "--seed", "-1", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: seed must be a non-negative integer,"
                                " got -1\n")
        assert not out_path.exists()

    def test_one_atom_sweep_exits_cleanly(self, capsys, tmp_path):
        # a sweep sample keeps at least two atoms; one would leave only the
        # unit mass at angle 0
        out_path = tmp_path / "rep.json"
        code = main(["search", "--functional", "h22", "--q-grid", "0.5",
                     "--samples", "10", "--seed", "1", "--k-atoms", "1",
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: k_atoms must lie in [2, 8], got 1\n"
        assert not out_path.exists()

    def test_unwritable_output_exits_cleanly(self, capsys, tmp_path):
        code = main(["search", "--functional", "fs", "--q-grid", "0.5",
                     "--mu-grid", "0", "--samples", "10", "--seed", "1",
                     "--out", str(tmp_path / "nonexistent" / "dir" / "r.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv,target", [
        (["verify", "--suite", "fs", "--q", "0.5", "--samples", "10"],
         "run_suite"),
        (["search", "--functional", "h22", "--q-grid", "0.5",
          "--samples", "10", "--seed", "1"], "run_sweep")])
    @pytest.mark.parametrize("message", ["Unable to allocate 58.2 TiB", ""])
    def test_memory_error_exits_cleanly(self, capsys, tmp_path, monkeypatch,
                                        argv, target, message):
        # a real allocation this size may succeed under overcommit, so the
        # library call is replaced by one that raises
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"qschlicht.cli.{target}", out_of_memory)
        out_path = tmp_path / "rep.json"
        extra = ["--out", str(out_path)] if target == "run_sweep" else []
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message or 'MemoryError'}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "2.5"])
    def test_bad_thread_variable_exits_cleanly(self, capsys, tmp_path,
                                               monkeypatch, value):
        monkeypatch.setenv("QSCHLICHT_THREADS", value)
        out_path = tmp_path / "rep.json"
        code = main(["search", "--functional", "h22", "--q-grid", "0.5",
                     "--samples", "10", "--seed", "1", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: QSCHLICHT_THREADS must be a positive "
                                f"integer, got {value!r}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("extra", [
        ["--functional", "fs", "--mu-grid", "0,nan"],
        ["--functional", "fs", "--mu-grid", "1e400"],
        ["--functional", "h22", "--mu-grid", "0.5"],
        ["--functional", "bieberbach", "--mu-grid", "0.5"],
        ["--functional", "fs", "--mu-grid", "inf"],
        ["--functional", "h22", "--k-atoms", "9"],
    ])
    def test_inconsistent_config_exits_cleanly(self, capsys, tmp_path, extra):
        out_path = tmp_path / "rep.json"
        code = main(["search", "--q-grid", "0.5", "--samples", "10",
                     "--seed", "1", "--out", str(out_path)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert not out_path.exists()


    def test_non_finite_fs_bound_exits_cleanly(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code = main(["search", "--functional", "fs", "--q-grid", "0.5",
                     "--mu-grid", "1e308", "--samples", "10", "--seed", "1",
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert not out_path.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "qcalc", "--q", "0.5", "--seed", "1.5"],
        ["search", "--functional", "h22", "--q-grid", "0.5",
         "--samples", "x", "--seed", "1", "--out", "rep.json"],
        ["verify", "--suite", "bogus", "--q", "0.5"],
        ["search", "--functional", "cn", "--q-grid", "0.5",
         "--samples", "10", "--seed", "1", "--out", "rep.json"],
        ["verify", "--suite", "qcalc"],
        ["bounds"],
        [],
        ["search", "--functional", "h22", "--q-grid", "0.5", "--samples",
         "10", "--seed", "1", "--out", "rep.json", "--refine-iters", "5"],
    ])
    def test_parser_errors_return_two_with_one_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestLimits:
    def test_table_output(self, capsys):
        code, out = run_cli(capsys, "limits", "--q-list", "0.99,0.999",
                            "--alpha", "0")
        assert code == 0
        assert "hankel bound" in out
        assert out.count("q = ") == 2

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "limits", "--q-list", "0.999",
                            "--alpha", "0.5", "--json")
        payload = json.loads(out)
        assert payload["rows"][0]["hankel"]["target"] is None

    def test_empty_q_list_exits_cleanly(self, capsys):
        code = main(["limits", "--q-list", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
