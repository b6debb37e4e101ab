import json

import numpy as np
import pytest

from qschlicht.caratheodory import dump_measure, sample_measure
from qschlicht.cli import main
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
        ("inf", "error: cannot parse complex value 'inf'"),
    ])
    def test_non_finite_mu_exits_cleanly(self, capsys, mu, message):
        code = main(["bounds", "--q", "0.5", "--mu", mu])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(message)

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

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_bad_sample_count_exits_cleanly(self, capsys, suite, samples):
        code = main(["verify", "--suite", suite, "--q", "0.5",
                     "--samples", samples, "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: samples must be at least 1")


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

    def test_unwritable_output_exits_cleanly(self, capsys, tmp_path):
        code = main(["search", "--functional", "fs", "--q-grid", "0.5",
                     "--mu-grid", "0", "--samples", "10", "--seed", "1",
                     "--out", str(tmp_path / "nonexistent" / "dir" / "r.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

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
        ["--functional", "fs", "--mu-grid", "0", "--refine-iters", "-5"],
        ["--functional", "fs", "--mu-grid", "0,nan"],
        ["--functional", "fs", "--mu-grid", "1e400"],
        ["--functional", "h22", "--mu-grid", "0.5"],
        ["--functional", "bieberbach", "--mu-grid", "0.5"],
    ])
    def test_inconsistent_config_exits_cleanly(self, capsys, tmp_path, extra):
        out_path = tmp_path / "rep.json"
        code = main(["search", "--q-grid", "0.5", "--samples", "10",
                     "--seed", "1", "--out", str(out_path)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not out_path.exists()


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
