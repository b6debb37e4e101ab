import json
import math

import numpy as np
import pytest

from qschlicht.caratheodory import measure_from_dict, p_series
from qschlicht.errors import ConfigError
from qschlicht.explorer import (CSV_HEADER, SweepConfig,
                                _convex_product_coeffs_batch, _measure_from_row,
                                _moments, canonical_json, group_samples,
                                refine_measure, replay_cell, report_csv,
                                resolve_workers, run_limit_sweep, run_sweep)
from qschlicht.q_calculus import ClassParams
from qschlicht.schlicht import convex_from_h


def fs_config(**kw):
    base = dict(functional="fs", seed=20260810, samples=2000,
                q_grid=(0.5,), alpha_grid=(0.0,), mu_grid=(0.0,))
    base.update(kw)
    return SweepConfig(**base)


class TestConfig:
    def test_fs_requires_mu_grid(self):
        with pytest.raises(ConfigError):
            SweepConfig(functional="fs", seed=1, samples=10, q_grid=(0.5,))

    def test_unknown_functional(self):
        with pytest.raises(ConfigError):
            SweepConfig(functional="h23", seed=1, samples=10, q_grid=(0.5,))

    def test_grid_domain_checks(self):
        with pytest.raises(ConfigError):
            fs_config(q_grid=(1.0,))
        with pytest.raises(ConfigError):
            fs_config(alpha_grid=(-0.1,))
        with pytest.raises(ConfigError):
            fs_config(samples=0)

    def test_workers_resolution(self, monkeypatch):
        monkeypatch.setenv("QSCHLICHT_THREADS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(5) == 5
        monkeypatch.delenv("QSCHLICHT_THREADS")
        assert resolve_workers() >= 1


class TestSampling:
    def test_prefix_stability(self):
        cfg_small = fs_config(samples=100)
        cfg_large = fs_config(samples=300)
        w1, a1 = group_samples(cfg_small, 0)
        w2, a2 = group_samples(cfg_large, 0)
        assert np.array_equal(w1, w2[:100])
        assert np.array_equal(a1, a2[:100])

    def test_atom_count_cycles(self):
        w, _ = group_samples(fs_config(samples=16, k_atoms=4), 0)
        counts = (w > 0).sum(axis=1)
        assert list(counts[:8]) == [1, 2, 3, 4, 1, 2, 3, 4]


class TestFsSweep:
    def test_bound_attained_and_not_violated(self):
        rep = run_sweep(fs_config(samples=5000))
        cell = rep["cells"][0]
        assert abs(cell["empirical_max"] - 5.6920165928387989) <= 1e-7
        assert not cell["violated"]
        # the winner is a one-atom measure, i.e. a rotation of the extremal
        assert len(cell["argmax_measure"]["atoms"]) == 1

    def test_identical_configs_identical_bytes(self):
        a = canonical_json(run_sweep(fs_config()))
        b = canonical_json(run_sweep(fs_config()))
        assert a == b

    def test_worker_count_does_not_change_bytes(self):
        texts = {canonical_json(run_sweep(fs_config(), workers=w))
                 for w in (1, 2, 8)}
        assert len(texts) == 1

    def test_conjectural_flag_for_positive_alpha(self):
        rep = run_sweep(fs_config(alpha_grid=(0.5,), samples=500))
        cell = rep["cells"][0]
        assert cell["conjectural"]
        from qschlicht.functionals import fs_bound
        from qschlicht.q_calculus import ClassParams
        assert cell["stated_bound"] == fs_bound(
            ClassParams(q=0.5, alpha=0.5), 0.0).value

    def test_monotone_in_samples(self):
        # refinement and extremal injection off: the empirical maximum is a
        # running maximum over the sample stream
        values = []
        for s in (200, 400, 800):
            cfg = fs_config(samples=s, refine_iters=0, include_extremals=False)
            values.append(run_sweep(cfg)["cells"][0]["empirical_max"])
        assert values[0] <= values[1] <= values[2]

    def test_replay_matches(self):
        cfg = fs_config(samples=1500, q_grid=(0.3, 0.6), mu_grid=(0.0, 0.5))
        rep = run_sweep(cfg)
        for cell in rep["cells"]:
            assert abs(replay_cell(cfg, cell) - cell["empirical_max"]) <= 1e-10


class TestHankelSweep:
    def test_reports_generator_values_and_flags(self):
        cfg = SweepConfig(functional="h22", seed=7, samples=3000, q_grid=(0.5,))
        rep = run_sweep(cfg)
        cell = rep["cells"][0]
        assert cell["extremals"]["f2"] == pytest.approx(3.4165547656405435,
                                                        abs=1e-8)
        assert cell["extremals"]["f1"] == pytest.approx(3.9483235986370536,
                                                        abs=1e-8)
        # the one-atom generator exceeds the stated bound: flagged, not fatal
        assert cell["violated"]
        assert cell["empirical_max"] >= cell["extremals"]["f1"] - 1e-12
        rep2 = run_sweep(cfg)
        assert canonical_json(rep) == canonical_json(rep2)

    def test_classical_limit(self):
        cfg = SweepConfig(functional="h22", seed=7, samples=4000,
                          q_grid=(1 - 1e-4,), refine_iters=20)
        cell = run_sweep(cfg)["cells"][0]
        assert abs(cell["empirical_max"] - 1.0) <= 2e-3


class TestBieberbachSweep:
    def test_ratios_within_bound_and_extremal_attains(self):
        cfg = SweepConfig(functional="bieberbach", seed=3, samples=400,
                          q_grid=(0.2, 0.5, 0.8), alpha_grid=(0.0, 0.3, 0.7),
                          order=12, refine_iters=20)
        rep = run_sweep(cfg)
        assert len(rep["cells"]) == 9
        for cell in rep["cells"]:
            assert cell["empirical_max"] <= 1 + 1e-7
            assert not cell["violated"]
            assert cell["extremals"]["eq"] == pytest.approx(1.0, abs=1e-9)

    def test_replay_uses_recorded_construction(self):
        cfg = SweepConfig(functional="bieberbach", seed=3, samples=300,
                          q_grid=(0.5,), order=12, refine_iters=0)
        rep = run_sweep(cfg)
        cell = rep["cells"][0]
        assert cell["argmax_construction"] in ("convex_h", "convex_measure")
        assert abs(replay_cell(cfg, cell) - cell["empirical_max"]) <= 1e-10

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
    def test_product_batch_matches_convex_from_h(self, q, alpha):
        n_max = 12
        cfg = SweepConfig(functional="bieberbach", seed=11, samples=40,
                          q_grid=(q,), alpha_grid=(alpha,), order=n_max)
        weights, angles = group_samples(cfg, 0)
        batch = _convex_product_coeffs_batch(
            _moments(weights, angles, n_max - 1), q, alpha, n_max)
        params = ClassParams(q=q, alpha=alpha, order=n_max)
        for i in range(cfg.samples):
            m = _measure_from_row(weights[i], angles[i])
            f = convex_from_h(p_series(m, n_max), params).coeffs
            rel = np.abs(batch[:, i] - f).max() / np.abs(f).max()
            assert rel <= 1e-12, (i, rel)


class TestRefinement:
    def test_never_worse_than_start(self):
        from qschlicht.caratheodory import sample_measure
        from qschlicht.explorer import evaluate_measure

        m = sample_measure(5, 3)
        def score(meas):
            return evaluate_measure("fs", meas, 0.5, 0.0, mu=0.25)
        start = score(m)
        best, refined = refine_measure(score, m, iters=40)
        assert best >= start
        assert abs(score(refined) - best) == 0.0

    def test_respects_weight_floor(self):
        from qschlicht.explorer import MIN_WEIGHT
        m = measure_from_dict({"atoms": [{"weight": 0.5, "angle": 0.1},
                                         {"weight": 0.5, "angle": 2.0}]})
        _, refined = refine_measure(lambda meas: -meas.weights.min(), m, iters=30)
        assert refined.weights.min() >= MIN_WEIGHT


class TestLimitSweep:
    def test_classical_targets(self):
        rows = run_limit_sweep((0.999,), 0.0)
        row = rows[0]
        # the gap decays like 2(1-q): 2.003e-3 at q = 0.999
        assert row["hankel"]["abs_err"] <= 2.1e-3
        mu0 = [r for r in row["fekete_szego"] if r["mu"] == [0.0, 0.0]][0]
        assert mu0["abs_err"] <= 5e-3
        for br in row["bieberbach"]:
            # gap grows linearly in n: (n-1)(1-q) to first order
            assert br["abs_err"] <= 1.01 * (br["n"] - 1) * 1e-3

    def test_errors_decrease_toward_one(self):
        rows = run_limit_sweep((0.9, 0.99, 0.999), 0.0)
        errs = [row["hankel"]["abs_err"] for row in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_cn_targets_any_alpha(self):
        rows = run_limit_sweep((0.9999,), 0.5)
        for cr in rows[0]["c_n"]:
            assert cr["abs_err"] <= 1e-2
        assert rows[0]["hankel"]["target"] is None


class TestSerialization:
    def test_canonical_float_format(self):
        assert canonical_json({"x": 0.1}) == '{"x":0.10000000000000001}\n'

    def test_sorted_keys_and_types(self):
        text = canonical_json({"b": [1, 2.5, None, True], "a": "s"})
        assert text == '{"a":"s","b":[1,2.5,null,true]}\n'

    def test_report_is_valid_json(self):
        rep = run_sweep(fs_config(samples=50))
        parsed = json.loads(canonical_json(rep))
        assert parsed["config"]["rng"] == "numpy-pcg64"
        assert parsed["config"]["seed"] == 20260810
        cell = parsed["cells"][0]
        for key in ("q", "alpha", "mu", "empirical_max", "stated_bound",
                    "conjectural", "slack", "violated", "argmax_measure"):
            assert key in cell

    def test_csv_layout(self):
        rep = run_sweep(fs_config(samples=50, mu_grid=(0.0, 0.5 + 0.5j)))
        text = report_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[4] == "fs"
        assert first[7] in ("true", "false")

    def test_argmax_measure_parses(self):
        rep = run_sweep(fs_config(samples=50))
        m = measure_from_dict(rep["cells"][0]["argmax_measure"])
        assert abs(m.weights.sum() - 1.0) <= 1e-9
