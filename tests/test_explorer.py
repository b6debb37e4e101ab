import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschlicht.caratheodory import MAX_ATOMS, TWO_PI, AtomicMeasure, \
    _fill_rows, _moments, _p_coeffs, _phase, measure_from_dict, p_series
from qschlicht.errors import ConfigError
from qschlicht.explorer import (BLOCK, CSV_HEADER, FUNCTIONALS,
                                MIN_SEPARATION, MIN_WEIGHT, VIOLATION_TOL,
                                SweepConfig, _bieberbach_scores,
                                _measure_from_row, _parallel_scores, _pool,
                                _starlike_scores, canonical_json,
                                evaluate_measure, group_samples,
                                refine_measure, replay_cell, report_csv,
                                resolve_workers, run_limit_sweep, run_sweep,
                                save_report)
from qschlicht.functionals import _bieberbach_bound_table, \
    bieberbach_bound_convex
from qschlicht.power_series import MAX_ORDER
from qschlicht.q_calculus import ClassParams, _iq_core
from qschlicht.schlicht import _functional_equation_core, _starlike_core, \
    convex_from_h, membership_convex
from sampler_reference import reference_group_samples


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            fs_config(seed=seed)

    def test_integer_seed_types_are_stored_as_int(self):
        cfg = fs_config(seed=np.uint32(7), samples=10)
        assert type(cfg.seed) is int and cfg.seed == 7
        assert canonical_json(run_sweep(cfg, workers=1)) == canonical_json(
            run_sweep(fs_config(seed=7, samples=10), workers=1))

    def test_mu_grid_only_for_fs(self):
        for functional in ("h22", "bieberbach"):
            with pytest.raises(ConfigError):
                SweepConfig(functional=functional, seed=1, samples=10,
                            q_grid=(0.5,), mu_grid=(0.5,))

    def test_n_check_range(self):
        with pytest.raises(ConfigError):
            SweepConfig(functional="bieberbach", seed=1, samples=10,
                        q_grid=(0.5,), n_check=1)
        with pytest.raises(ConfigError):
            SweepConfig(functional="bieberbach", seed=1, samples=10,
                        q_grid=(0.5,), n_check=257)
        cfg = SweepConfig(functional="bieberbach", seed=1, samples=10,
                          q_grid=(0.5,), n_check=40)
        assert "order" not in cfg.to_dict()

    @pytest.mark.parametrize(("field", "value"), [
        ("samples", 2.5), ("samples", 10.0), ("k_atoms", 2.0), ("n_check", 5.0)])
    def test_counts_must_be_integers(self, field, value):
        # a float count used to end in a bare numpy TypeError
        base = dict(functional="bieberbach", seed=1, samples=10, q_grid=(0.5,))
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SweepConfig(**{**base, field: value})
        cfg = SweepConfig(**{**base, field: np.int64(5)})
        assert type(getattr(cfg, field)) is int

    def test_evaluate_measure_n_check_must_be_an_integer(self):
        m = AtomicMeasure(np.array([1.0]), np.array([0.3]))
        with pytest.raises(ConfigError, match="n_check must be an integer"):
            evaluate_measure("bieberbach", m, 0.5, 0.0, n_check=5.0)

    @pytest.mark.parametrize("mu", [math.nan, complex(0.0, math.inf)])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ConfigError, match="not finite"):
            fs_config(mu_grid=(0.5, mu))

    @pytest.mark.parametrize("mu", [1e308, complex(1e308, 1e308),
                                    complex(2e307, 2e307)])
    def test_mu_without_a_finite_fs_bound_rejected(self, mu):
        with pytest.raises(ConfigError, match="fs bound .* is not finite"):
            fs_config(mu_grid=(0.5, mu))

    @pytest.mark.parametrize("mu", [None, math.nan, complex(math.inf, 0.0)])
    def test_evaluate_measure_needs_a_finite_mu_for_fs(self, mu):
        m = AtomicMeasure(np.array([1.0]), np.array([0.3]))
        with pytest.raises(ConfigError, match="finite mu"):
            evaluate_measure("fs", m, 0.5, 0.0, mu=mu)

    @pytest.mark.parametrize("n_check", [1, 0, MAX_ORDER + 1])
    def test_evaluate_measure_rejects_n_check_outside_the_sweep_range(
            self, n_check):
        # n_check 1 used to score no degree and return 0.0, and n_check 0
        # raised a bare IndexError
        m = AtomicMeasure(np.array([1.0]), np.array([0.3]))
        with pytest.raises(ConfigError, match="n_check must lie in"):
            evaluate_measure("bieberbach", m, 0.5, 0.0, n_check=n_check)
        assert evaluate_measure("bieberbach", m, 0.5, 0.0, n_check=2) > 0.0

    def test_workers_resolution(self, monkeypatch):
        monkeypatch.setenv("QSCHLICHT_THREADS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(5) == 5
        monkeypatch.delenv("QSCHLICHT_THREADS")
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_worker_count_must_be_a_positive_integer(self):
        # 2.5 used to run on 2 workers
        with pytest.raises(ConfigError, match="worker count must be an integer"):
            resolve_workers(2.5)
        with pytest.raises(ConfigError, match="worker count must be at least 1"):
            resolve_workers(0)


class TestSampling:
    def test_prefix_stability(self):
        for k in range(2, MAX_ATOMS + 1):
            w1, a1 = group_samples(fs_config(samples=100, k_atoms=k), 0)
            w2, a2 = group_samples(fs_config(samples=300, k_atoms=k), 0)
            assert np.array_equal(w1, w2[:, :100])
            assert np.array_equal(a1, a2[:, :100])

    def test_atom_count_cycles(self):
        w, a = group_samples(fs_config(samples=16, k_atoms=4), 0)
        assert w.shape == (4, 16) and a.shape == (3, 16)
        counts = (w > 0).sum(axis=0)
        assert list(counts[:8]) == [2, 3, 4, 2, 3, 4, 2, 3]

    @pytest.mark.parametrize("k", range(2, MAX_ATOMS + 1))
    def test_sample_i_keeps_i_mod_k_minus_1_plus_2_atoms(self, k):
        samples = 3 * k + 5
        w, a = group_samples(fs_config(seed=k, samples=samples, k_atoms=k), 0)
        kept = (w > 0).sum(axis=0)
        assert list(kept) == [(i % (k - 1)) + 2 for i in range(samples)]
        # the kept atoms come first, and every measure has atom 0 at 0
        assert all((w[:n, i] > 0).all() for i, n in enumerate(kept))
        for i in range(samples):
            m = _measure_from_row(w[:, i], a[:, i])
            assert m.weights.size == kept[i] and m.angles[0] == 0.0

    def test_one_atom_sweeps_are_refused(self):
        # every sample of a one-atom sweep would be the unit mass at 0
        with pytest.raises(ConfigError, match=r"k_atoms must lie in \[2, 8\]"):
            fs_config(k_atoms=1)


def reference_moments(weights, angles, n_max):
    """_moments on row-major (rows, k) arrays, by the plain formula: atoms
    1.. summed in order, then atom 0 added."""
    phase = _phase(angles)
    out = np.empty((n_max + 1,) + phase.shape[:-1], dtype=np.complex128)
    out[0] = 1.0
    cur = np.ones_like(phase)
    for n in range(1, n_max + 1):
        cur = cur * phase
        rest = np.einsum("...j,...j->...", weights[..., 1:], cur[..., 1:])
        out[n] = rest + weights[..., 0] * cur[..., 0]
    return out


class TestBlockSampler:
    @given(seed=st.integers(0, 2 ** 32 - 1), group=st.integers(0, 5),
           k=st.integers(2, MAX_ATOMS), extra=st.integers(1, BLOCK - 1),
           data=st.data())
    @settings(max_examples=40)
    def test_rows_at_any_offset_equal_the_whole_group_rows(self, seed, group,
                                                           k, extra, data):
        samples = BLOCK + extra  # never a multiple of BLOCK
        lo = data.draw(st.integers(0, samples - 1))
        hi = data.draw(st.integers(lo + 1, samples))
        ref_w, ref_a = reference_group_samples(seed, group, samples, k)
        cols = np.full((2 * k - 1, samples), np.nan)
        w, a = _fill_rows(seed, (group,), cols[:, lo:hi], lo)
        assert np.array_equal(w, ref_w[lo:hi].T)
        assert np.array_equal(a, ref_a[lo:hi].T)
        # only columns lo..hi-1 of the buffer were written
        assert np.isnan(cols[:, :lo]).all() and np.isnan(cols[:, hi:]).all()

    @pytest.mark.parametrize("k", range(2, MAX_ATOMS + 1))
    def test_blocks_fill_the_whole_group(self, k):
        cfg = fs_config(seed=k, samples=2 * BLOCK + 5, k_atoms=k)
        cols = np.empty((2 * k - 1, cfg.samples))
        for lo in range(0, cfg.samples, BLOCK):
            _fill_rows(cfg.seed, (3,), cols[:, lo:lo + BLOCK], lo)
        ref_w, ref_a = reference_group_samples(cfg.seed, 3, cfg.samples, k)
        assert np.array_equal(cols[k - 1:], ref_w.T)
        assert np.array_equal(cols[:k - 1], ref_a.T)
        w, a = group_samples(cfg, 3)
        assert np.array_equal(w, ref_w.T) and np.array_equal(a, ref_a.T)

    def test_eight_atom_rows_divide_by_the_index_order_sum(self):
        # at seed 0, rows 4 and 5 of group 0 (6 and 7 atoms) sum differently
        # left to right than by numpy's pairwise sum of an 8-entry row
        k = MAX_ATOMS
        ref_w, ref_a = reference_group_samples(0, 0, k, k)
        w, a = _fill_rows(0, (0,), np.empty((2 * k - 1, k)), 0)
        assert np.array_equal(w, ref_w.T) and np.array_equal(a, ref_a.T)
        draws = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(0, spawn_key=(0,)))).random((k, 2 * k - 1))
        raw = np.where(ref_w > 0, 0.05 + 0.95 * draws[:, k - 1:], 0.0)
        pairwise = raw / raw.sum(axis=1, keepdims=True)
        differ = [r for r in range(k) if not np.array_equal(pairwise[r], ref_w[r])]
        assert differ == [4, 5]

    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 40),
           k=st.integers(1, MAX_ATOMS), n_max=st.integers(1, 16))
    @settings(max_examples=40)
    def test_masked_moments_equal_the_unmasked_formula(self, seed, rows, k,
                                                       n_max):
        rng = np.random.default_rng(seed)
        weights = 0.05 + rng.random((rows, k))
        weights /= weights.sum(axis=1, keepdims=True)
        angles = TWO_PI * rng.random((rows, k))
        assert np.array_equal(_moments(weights.T, angles.T, n_max),
                              reference_moments(weights, angles, n_max))
        # without atom 0's angle, atom 0 sits at angle 0: bitwise the
        # moments of the full measure with that angle 0
        angles[:, 0] = 0.0
        implied = _moments(weights.T, angles[:, 1:].T, n_max)
        full = reference_moments(weights, angles, n_max)
        assert np.array_equal(implied, full)
        assert np.array_equal(np.signbit(implied.imag), np.signbit(full.imag))


class TestFsSweep:
    def test_bound_attained_and_not_violated(self):
        rep = run_sweep(fs_config(samples=5000))
        cell = rep["cells"][0]
        assert abs(cell["empirical_max"] - 5.6920165928387989) <= 1e-7
        assert not cell["violated"]
        # the winner is the injected one-atom extremal, which no sample is
        assert cell["argmax_source"] == "extremal"
        assert cell["argmax_measure"] == ONE_ATOM

    @pytest.mark.parametrize("mu", [1e10, 1e12, 1e300])
    def test_rounding_at_large_mu_is_not_a_violation(self, mu, monkeypatch):
        # the sharp alpha = 0 bound grows with |mu|, and so does the rounding
        # of a value that attains it: the unit mass at angle 0.398, a
        # rotation of the extremal, scores above the bound (slack -1.5e-05
        # at mu 1e10).  The sample maximum is made that value, which
        # VIOLATION_TOL, relative above 1, does not flag
        rotated = _starlike_scores("fs", np.ones((1, 1)),
                                   np.array([[0.39786754374705047]]), 0.5,
                                   0.0, (mu,))[mu][0]
        monkeypatch.setattr("qschlicht.explorer._sample_maxima",
                            lambda *args: {mu: (rotated, 0)})
        cfg = fs_config(seed=1, samples=1000, mu_grid=(mu,))
        cell = run_sweep(cfg, workers=1)["cells"][0]
        assert cell["empirical_max"] == rotated
        assert cell["slack"] < -VIOLATION_TOL
        assert abs(cell["slack"]) <= 1e-15 * cell["stated_bound"]
        assert not cell["violated"]

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
        # extremal injection off: the empirical maximum is a running maximum
        # over the sample stream
        values = []
        for s in (200, 400, 800):
            cfg = fs_config(samples=s, include_extremals=False)
            values.append(run_sweep(cfg)["cells"][0]["empirical_max"])
        assert values[0] <= values[1] <= values[2]

    def test_replay_matches(self):
        cfg = fs_config(samples=1500, q_grid=(0.3, 0.6), mu_grid=(0.0, 0.5))
        rep = run_sweep(cfg)
        for cell in rep["cells"]:
            assert abs(replay_cell(cfg, cell) - cell["empirical_max"]) <= 1e-10


ONE_ATOM = {"atoms": [{"angle": 0.0, "weight": 1.0}]}
TWO_ATOM = {"atoms": [{"angle": 0.0, "weight": 0.5},
                      {"angle": math.pi, "weight": 0.5}]}


class TestTieOrder:
    # a cell is the first maximum over [one-atom, two-atom, sample]

    def test_a_sample_tying_an_extremal_loses_to_it(self, monkeypatch):
        # at q 0.5, alpha 0 the one-atom member is the larger at mu 0 and
        # the two-atom one at mu 0.75; the sample maximum is made to equal
        # the larger exactly
        cfg = fs_config(samples=50, mu_grid=(0.0, 0.75))
        values = {mu: [evaluate_measure("fs", measure_from_dict(m), 0.5, 0.0,
                                        mu=mu) for m in (ONE_ATOM, TWO_ATOM)]
                  for mu in cfg.mu_grid}
        assert values[0.0][0] > values[0.0][1]
        assert values[0.75][1] > values[0.75][0]
        monkeypatch.setattr(
            "qschlicht.explorer._sample_maxima",
            lambda *args: {mu: (max(v), 3) for mu, v in values.items()})
        cells = run_sweep(cfg, workers=1)["cells"]
        for cell, want in zip(cells, (ONE_ATOM, TWO_ATOM)):
            assert cell["argmax_source"] == "extremal"
            assert cell["argmax_measure"] == want
            assert cell["empirical_max"] == max(values[complex(*cell["mu"])])

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    def test_tied_extremals_report_the_one_atom_member(self, functional,
                                                       monkeypatch):
        # every column scores the same, so all three candidates tie
        def flat_scorer(functional, q, alpha, keys, n_check):
            return lambda w, a: {key: np.full(w.shape[1], 2.5) for key in keys}

        monkeypatch.setattr("qschlicht.explorer._scorer", flat_scorer)
        cfg = SweepConfig(functional=functional, seed=5, samples=40,
                          q_grid=(0.5,), alpha_grid=(0.0, 0.3),
                          mu_grid=(0.0, 1.0) if functional == "fs" else ())
        for cell in run_sweep(cfg, workers=1)["cells"]:
            assert cell["argmax_source"] == "extremal"
            assert cell["argmax_measure"] == ONE_ATOM
            assert cell["empirical_max"] == 2.5


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

    def test_conjectured_bound_violation_stays_flagged(self):
        # at q 0.2, alpha 0.3 the conjectured Hankel bound is exceeded by
        # 0.088, far beyond the relative tolerance
        cfg = SweepConfig(functional="h22", seed=1, samples=2000,
                          q_grid=(0.2,), alpha_grid=(0.3,))
        cell = run_sweep(cfg, workers=1)["cells"][0]
        assert cell["conjectural"] and cell["violated"]
        assert cell["slack"] == pytest.approx(-0.0881371670, abs=1e-9)

    def test_classical_limit(self):
        cfg = SweepConfig(functional="h22", seed=7, samples=4000,
                          q_grid=(1 - 1e-4,))
        cell = run_sweep(cfg)["cells"][0]
        assert abs(cell["empirical_max"] - 1.0) <= 2e-3


class TestReplay:
    # raw sample argmaxes (several multi-atom), injected ones, and
    # refine_measure's ascent from the injected ones
    @pytest.mark.parametrize("refine_iters", [0, 20])
    @pytest.mark.parametrize("functional", FUNCTIONALS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replay_of_a_saved_report_is_exact(self, functional, seed,
                                               refine_iters):
        cfg = SweepConfig(functional=functional, seed=seed, samples=400,
                          q_grid=(0.2, 0.5, 0.8), alpha_grid=(0.0, 0.3),
                          mu_grid=(0.0, 1.0) if functional == "fs" else (),
                          include_extremals=refine_iters > 0)
        report = json.loads(canonical_json(run_sweep(cfg)))
        for cell in report["cells"]:
            assert replay_cell(cfg, cell) == cell["empirical_max"]
            # the argmax measure parses to the weights it was written from
            atoms = cell["argmax_measure"]
            assert measure_from_dict(atoms).to_dict() == atoms
            if refine_iters:  # and so does refine_measure's ascent from it
                def score(m, cell=cell):
                    return replay_cell(cfg, {**cell, "argmax_measure": m.to_dict()})

                best, refined = refine_measure(score, measure_from_dict(atoms),
                                               refine_iters)
                assert best >= cell["empirical_max"]
                saved = json.loads(json.dumps(refined.to_dict()))
                assert score(measure_from_dict(saved)) == best


class TestBieberbachSweep:
    def test_ratios_within_bound_and_extremal_attains(self):
        cfg = SweepConfig(functional="bieberbach", seed=3, samples=400,
                          q_grid=(0.2, 0.5, 0.8), alpha_grid=(0.0, 0.3, 0.7))
        rep = run_sweep(cfg)
        assert len(rep["cells"]) == 9
        for cell in rep["cells"]:
            assert cell["empirical_max"] <= 1 + 1e-7
            assert not cell["violated"]
            assert cell["extremals"]["eq"] == 1.0

    def test_replay_is_exact(self):
        for alpha in (0.0, 0.3):
            cfg = SweepConfig(functional="bieberbach", seed=3, samples=300,
                              q_grid=(0.5,), alpha_grid=(alpha,))
            cell = run_sweep(cfg)["cells"][0]
            assert "argmax_construction" not in cell
            assert replay_cell(cfg, cell) == cell["empirical_max"]

    def test_alpha_positive_argmax_is_a_class_member(self):
        cfg = SweepConfig(functional="bieberbach", seed=3, samples=2000,
                          q_grid=(0.2, 0.5, 0.8), alpha_grid=(0.3, 0.7))
        for cell in run_sweep(cfg)["cells"]:
            # the member the cell scored, built alone at order 96
            params = ClassParams(q=cell["q"], alpha=cell["alpha"], order=96)
            m = measure_from_dict(cell["argmax_measure"])
            f = convex_from_h(p_series(m, 96), params)
            ratio = max(abs(f.coeffs[n]) / bieberbach_bound_convex(params, n)
                        for n in range(2, cfg.n_check + 1))
            assert abs(ratio - cell["empirical_max"]) <= 1e-12
            rep = membership_convex(f, params)
            assert rep.passed, (cell["q"], cell["alpha"], rep.worst_margin)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
    def test_product_batch_matches_convex_from_h(self, q, alpha):
        n_max = 12
        cfg = SweepConfig(functional="bieberbach", seed=11, samples=40,
                          q_grid=(q,), alpha_grid=(alpha,))
        weights, angles = group_samples(cfg, 0)
        batch = _iq_core(_starlike_core(
            _p_coeffs(_moments(weights, angles, n_max - 1)), q, alpha)[1:], q)
        params = ClassParams(q=q, alpha=alpha, order=n_max)
        for i in range(cfg.samples):
            m = _measure_from_row(weights[:, i], angles[:, i])
            f = convex_from_h(p_series(m, n_max), params).coeffs
            rel = np.abs(batch[:, i] - f).max() / np.abs(f).max()
            assert rel <= 1e-12, (i, rel)

    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=6)
    def test_worker_count_does_not_change_bytes(self, seed, q):
        cfg = SweepConfig(functional="bieberbach", seed=seed, samples=301,
                          q_grid=(q,), alpha_grid=(0.0, 0.3))
        texts = {canonical_json(run_sweep(cfg, workers=w)) for w in (1, 2, 8)}
        assert len(texts) == 1

    @given(q=st.sampled_from([0.2, 0.5, 0.8]),
           alpha=st.sampled_from([0.0, 0.3, 0.7]), n_check=st.integers(2, 16))
    @settings(max_examples=40)
    def test_eq_extremal_ratio_is_exactly_one(self, q, alpha, n_check):
        cfg = SweepConfig(functional="bieberbach", seed=1, samples=1,
                          q_grid=(q,), alpha_grid=(alpha,), n_check=n_check)
        assert run_sweep(cfg)["cells"][0]["extremals"] == {"eq": 1.0}
        # the injected one-atom member is E_q only at alpha = 0
        unit = AtomicMeasure(np.array([1.0]), np.array([0.0]))
        value = evaluate_measure("bieberbach", unit, q, alpha, n_check=n_check)
        assert value == 1.0 if alpha == 0.0 else value < 1.0

    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.floats(0.05, 0.95),
           k_atoms=st.integers(2, 8), n_check=st.integers(2, 16))
    @settings(max_examples=60)
    def test_alpha_zero_closed_form_is_the_product_route(self, seed, q,
                                                         k_atoms, n_check):
        cfg = SweepConfig(functional="bieberbach", seed=seed, samples=24,
                          q_grid=(q,), k_atoms=k_atoms)
        w, a = group_samples(cfg, 0)
        a_n = _iq_core(_functional_equation_core(
            _p_coeffs(_moments(w, a, n_check - 1)), q, 0.0)[1:], q)[2:]
        bounds = _bieberbach_bound_table(
            ClassParams(q=q, alpha=0.0, order=max(n_check, 4)))[2:n_check + 1]
        want = (np.abs(a_n) / bounds[:, None]).max(axis=0)
        got = _bieberbach_scores(w, a, q, 0.0, n_check)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# rows of one (q, alpha) group; a row scores alone as in any batch
groups = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "q": st.floats(0.05, 0.95),
    "alpha": st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    "k_atoms": st.integers(2, MAX_ATOMS),
})
ROWS = 48
MUS = (0.0, 0.5, 1 + 0.5j)


def group_rows(g):
    cfg = SweepConfig(functional="h22", seed=g["seed"], samples=ROWS,
                      q_grid=(g["q"],), alpha_grid=(g["alpha"],),
                      k_atoms=g["k_atoms"])
    return group_samples(cfg, 0)


class TestBatchOfOne:
    @given(g=groups, i=st.integers(0, ROWS - 1), n_check=st.integers(2, 12))
    @settings(max_examples=60)
    def test_row_scores_alone_as_in_batch(self, g, i, n_check):
        w, a = group_rows(g)
        q, alpha = g["q"], g["alpha"]
        m = _measure_from_row(w[:, i], a[:, i])
        fs = _starlike_scores("fs", w, a, q, alpha, MUS)
        for mu in MUS:
            assert evaluate_measure("fs", m, q, alpha, mu=mu) == fs[mu][i]
        h22 = _starlike_scores("h22", w, a, q, alpha, (None,))[None]
        assert evaluate_measure("h22", m, q, alpha) == h22[i]
        batch = _bieberbach_scores(w, a, q, alpha, n_check)
        assert evaluate_measure("bieberbach", m, q, alpha,
                                n_check=n_check) == batch[i]

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, MAX_ATOMS),
           q=st.floats(0.05, 0.95), alpha=st.sampled_from([0.0, 0.3, 0.7]),
           theta=st.floats(0.0, TWO_PI))
    @settings(max_examples=60)
    def test_rotated_measure_scores_as_unrotated(self, seed, k, q, alpha,
                                                 theta):
        # every functional is rotation invariant: evaluate_measure rotates
        # atom 0 to angle 0, and scoring the true moments of the measure as
        # given, with atom 0 anywhere, reads the same within rounding,
        # relative to max(|value|, 1) since fs and h22 are differences of
        # O(1) terms that can cancel (6000 random cases read 1.6e-14 at most)
        rng = np.random.default_rng(seed)
        raw = 0.05 + rng.random(k)
        m = AtomicMeasure(raw / raw.sum(), TWO_PI * rng.random(k))
        turned = m.rotated(theta)
        w = m.weights[:, None]
        for fn, mu in (("fs", 0.5), ("fs", 1 + 0.5j), ("h22", None),
                       ("bieberbach", None)):
            want = evaluate_measure(fn, m, q, alpha, mu=mu)
            got = [evaluate_measure(fn, turned, q, alpha, mu=mu)]
            for a in (m.angles, turned.angles):
                if fn == "bieberbach":
                    got.append(_bieberbach_scores(w, a[:, None], q, alpha, 10)[0])
                else:
                    got.append(_starlike_scores(fn, w, a[:, None], q, alpha,
                                                (mu,))[mu][0])
            for v in got:
                assert abs(v - want) <= 1e-13 * max(abs(want), 1.0), (fn, v)

    @given(g=groups, lo=st.integers(0, ROWS - 1), size=st.integers(1, ROWS))
    @settings(max_examples=40)
    def test_slice_scores_as_full_batch(self, g, lo, size):
        w, a = group_rows(g)
        q, alpha = g["q"], g["alpha"]
        hi = min(lo + size, ROWS)
        for fn, mus in (("fs", MUS), ("h22", (None,))):
            full = _starlike_scores(fn, w, a, q, alpha, mus)
            part = _starlike_scores(fn, w[:, lo:hi], a[:, lo:hi], q, alpha,
                                    mus)
            for mu in mus:
                assert np.array_equal(part[mu], full[mu][lo:hi])
        full = _bieberbach_scores(w, a, q, alpha, 10)
        part = _bieberbach_scores(w[:, lo:hi], a[:, lo:hi], q, alpha, 10)
        assert np.array_equal(part, full[lo:hi])


class TestAtomMajorLayout:
    """A sample gives bitwise the same moments and scores in every layout a
    scorer sees: alone, as columns lo..hi-1 of a wider buffer, in the
    contiguous (2*k, hi - lo) block a sweep job fills, and as a transposed
    view of row-major arrays."""

    @given(g=groups, extra=st.integers(0, 20), data=st.data(),
           n_check=st.integers(2, 12))
    @settings(max_examples=60)
    def test_sample_is_the_same_alone_in_a_block_and_transposed(self, g, extra,
                                                               data, n_check):
        k, q, alpha = g["k_atoms"], g["q"], g["alpha"]
        lo = data.draw(st.integers(0, ROWS - 1))
        hi = data.draw(st.integers(lo + 1, ROWS))
        i = data.draw(st.integers(lo, hi - 1))
        cols = np.full((2 * k - 1, ROWS + extra), np.nan)
        w, a = _fill_rows(g["seed"], (0,), cols[:, lo:hi], lo)
        rows_w, rows_a = np.ascontiguousarray(w.T), np.ascontiguousarray(a.T)
        scratch = _fill_rows(g["seed"], (0,), np.empty((2 * k - 1, hi - lo)),
                             lo)
        layouts = {"block": (w, a, i - lo), "scratch": (*scratch, i - lo),
                   "alone": (w[:, i - lo:i - lo + 1].copy(),
                             a[:, i - lo:i - lo + 1].copy(), 0),
                   "transposed": (rows_w.T, rows_a.T, i - lo)}
        want = None
        for name, (lw, la, j) in layouts.items():
            got = [_moments(lw, la, 12)[:, j]]
            for fn, mus in (("fs", MUS), ("h22", (None,))):
                scores = _starlike_scores(fn, lw, la, q, alpha, mus)
                got += [scores[mu][j] for mu in mus]
            got.append(_bieberbach_scores(lw, la, q, alpha, n_check)[j])
            if want is None:
                want = got
            for x, y in zip(got, want):
                assert np.array_equal(x, y), name

    @given(g=groups, i=st.integers(0, ROWS - 1))
    @settings(max_examples=30)
    def test_measure_moments_at_order_192_are_its_batch_column(self, g, i):
        w, a = group_rows(g)
        m = _measure_from_row(w[:, i], a[:, i])
        assert np.array_equal(_moments(m.weights, m.angles, 192),
                              _moments(w, a, 192)[:, i])


#: a Bieberbach sweep the size of one benchmark sweep-convex op, twice at one
#: worker; prints the minor faults of the second run
_SWEEP_FAULT_SCRIPT = """
import resource
import qschlicht as qs
cfg = qs.SweepConfig(functional="bieberbach", seed=4, samples=50_000,
                     q_grid=(0.5,), alpha_grid=(0.3,), n_check=10)
qs.run_sweep(cfg, workers=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
qs.run_sweep(cfg, workers=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestBlocks:
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(0, 3),
           extra=st.integers(1, BLOCK - 1), workers=st.integers(1, 3),
           data=st.data())
    @settings(max_examples=40)
    def test_reduction_is_the_argmax_of_all_values(self, seed, blocks, extra,
                                                   workers, data):
        total = blocks * BLOCK + extra  # never a multiple of BLOCK
        rng = np.random.default_rng(seed)
        values = {}
        for key in ("a", "b"):
            # three levels tie all over; the planted peaks tie within a
            # block and across blocks
            vals = rng.integers(0, 3, total).astype(float)
            offsets = data.draw(st.lists(st.integers(0, BLOCK - 1), max_size=3))
            at = [b * BLOCK + o for b in range(blocks + 1) for o in offsets
                  if b * BLOCK + o < total]
            vals[at] = 3.0
            values[key] = vals

        def score_block(lo, hi):
            return {key: vals[lo:hi] for key, vals in values.items()}

        best = _parallel_scores(score_block, total, workers)
        for key, vals in values.items():
            i = int(np.argmax(vals))
            assert best[key] == (vals[i], i)

    @pytest.mark.parametrize("k", range(2, MAX_ATOMS + 1))
    def test_argmax_sample_is_drawn_again_bitwise(self, k, monkeypatch):
        cfg = SweepConfig(functional="h22", seed=40 + k, samples=2 * BLOCK + 3,
                          q_grid=(0.5,), alpha_grid=(0.0, 0.3), k_atoms=k,
                          include_extremals=False)
        for i in (0, BLOCK - 1, BLOCK, cfg.samples - 1):
            # the reduction picks sample i of every group
            monkeypatch.setattr("qschlicht.explorer._parallel_scores",
                                lambda *args, i=i: {None: (1.0, i)})
            cells = run_sweep(cfg, workers=1)["cells"]
            for g, cell in enumerate(cells):
                w, a = group_samples(cfg, g)
                want = _measure_from_row(w[:, i], a[:, i])
                got = measure_from_dict(cell["argmax_measure"])
                assert np.array_equal(got.weights, want.weights), (i, g)
                assert np.array_equal(got.angles, want.angles), (i, g)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_memory_does_not_grow_with_samples(self, workers):
        peaks = []
        for samples in (4 * BLOCK, 32 * BLOCK):
            cfg = fs_config(samples=samples, mu_grid=(0.0, 0.5, 1.0))
            run_sweep(cfg, workers=workers)  # the pool and its scratch
            tracemalloc.start()
            try:
                run_sweep(cfg, workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6, peaks

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="counts glibc's minor faults")
    def test_steady_state_sweep_faults_in_no_fresh_memory(self):
        # MALLOC_* variables switch glibc's dynamic mmap threshold off, which
        # is what keeps the block temporaries on the heap
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _SWEEP_FAULT_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 50

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ties_across_blocks_go_to_the_lowest_index(self, workers):
        total = 3 * BLOCK + 5
        peaks = {"a": [BLOCK + 7, 2 * BLOCK, 3 * BLOCK + 1],
                 "b": [3 * BLOCK + 4, 5]}

        def score_block(lo, hi):
            out = {}
            for key, at in peaks.items():
                vals = np.zeros(hi - lo)
                for i in at:
                    if lo <= i < hi:
                        vals[i - lo] = 2.5
                out[key] = vals
            return out

        best = _parallel_scores(score_block, total, workers)
        assert best == {"a": (2.5, BLOCK + 7), "b": (2.5, 5)}

    @pytest.mark.parametrize("functional", ["fs", "h22", "bieberbach"])
    def test_worker_count_does_not_change_bytes_across_blocks(self, functional):
        # the second config has two groups sharing each thread's scratch block
        for seed, k_atoms, samples, alphas in ((17, 4, 2 * BLOCK + 3, (0.3,)),
                                               (23, 3, 2 * BLOCK + 5, (0.0, 0.3))):
            cfg = SweepConfig(functional=functional, seed=seed,
                              samples=samples, q_grid=(0.5,),
                              alpha_grid=alphas, k_atoms=k_atoms,
                              mu_grid=(0.5,) if functional == "fs" else ())
            texts = {canonical_json(run_sweep(cfg, workers=w))
                     for w in (1, 2, 3)}
            assert len(texts) == 1

    @pytest.mark.parametrize("functional", ["fs", "h22", "bieberbach"])
    def test_default_sweep_same_bytes_for_any_worker_count(self, functional):
        cfg = SweepConfig(functional=functional, seed=29, samples=BLOCK + 9,
                          q_grid=(0.2, 0.5), alpha_grid=(0.0, 0.3),
                          mu_grid=(0.0, 1.0) if functional == "fs" else ())
        texts = {canonical_json(run_sweep(cfg, workers=w)) for w in (1, 2, 3)}
        assert len(texts) == 1

    def test_calls_at_one_worker_count_reuse_their_threads(self):
        # the pool starts its threads lazily, so which of its two threads a
        # call uses varies; a pool per call would bring a new thread each time
        seen = set()

        def score_block(lo, hi):
            seen.add(threading.current_thread())
            return {None: np.zeros(hi - lo)}

        pool = _pool(2)
        for _ in range(3):
            _parallel_scores(score_block, 4 * BLOCK, 2)
        assert _pool(2) is pool
        assert threading.main_thread() not in seen
        assert len(seen) <= 2


def reference_refine(score_fn, m, iters):
    """The ascent as written before batching: one candidate per call."""
    def separation_ok(angles):
        for i in range(angles.size):
            for j in range(i + 1, angles.size):
                d = abs(angles[i] - angles[j]) % TWO_PI
                if min(d, TWO_PI - d) < MIN_SEPARATION:
                    return False
        return True

    w = m.weights.copy()
    ang = m.angles.copy()
    best = score_fn(AtomicMeasure(w, ang))
    step = 0.1
    for _ in range(iters):
        improved = False
        for idx in range(ang.size):
            for s in (step, -step):
                cand = ang.copy()
                cand[idx] = (cand[idx] + s) % TWO_PI
                if not separation_ok(cand):
                    continue
                v = score_fn(AtomicMeasure(w, cand))
                if v > best:
                    best, ang, improved = v, cand, True
                    break
        if w.size > 1:
            for idx in range(w.size):
                for s in (step, -step):
                    cand = w.copy()
                    cand[idx] = max(cand[idx] * (1.0 + s), MIN_WEIGHT)
                    cand = cand / cand.sum()
                    if np.any(cand < MIN_WEIGHT):
                        continue
                    v = score_fn(AtomicMeasure(cand, ang))
                    if v > best:
                        best, w, improved = v, cand, True
                        break
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best, AtomicMeasure(w, ang)


# angles at the wrap: 1 ulp below 2 pi, and 1 ulp below the first step, whose
# -step move lands a hair below 0 and steps to exactly 2 pi
edge_angles = st.sampled_from([math.nextafter(TWO_PI, 0.0),
                               math.nextafter(0.1, 0.0), 0.0, math.pi])


@st.composite
def start_measures(draw):
    k = draw(st.integers(1, MAX_ATOMS))
    angles = draw(st.lists(st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                                     edge_angles), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):  # a pair inside the separation guard
        angles[1] = (angles[0] + 0.5 * MIN_SEPARATION) % TWO_PI
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = raw / raw.sum()
    if k > 1 and draw(st.booleans()):  # one weight at, above or below the floor
        floor = MIN_WEIGHT * draw(st.sampled_from([0.9, 1.0, 1.0 + 1e-12, 1.1, 3.0]))
        weights = np.concatenate(([floor], (1.0 - floor) * raw[1:] / raw[1:].sum()))
    return AtomicMeasure(weights, np.array(angles))


def cell_scorer(fn, q, alpha, mu):
    """The one-measure scorer of a sweep cell."""
    mu = mu if fn == "fs" else None
    return lambda m: evaluate_measure(fn, m, q, alpha, mu=mu, n_check=6)


refine_cases = dict(m=start_measures(), fn=st.sampled_from(FUNCTIONALS),
                    q=st.floats(0.05, 0.95), alpha=st.sampled_from([0.0, 0.3, 0.7]),
                    mu=st.sampled_from(MUS),
                    iters=st.one_of(st.integers(0, 25), st.just(100)))


class TestRefinement:
    @given(**refine_cases)
    @settings(max_examples=30, deadline=None)
    def test_one_measure_adaptor_scores_the_same_candidates(self, m, fn, q,
                                                           alpha, mu, iters):
        score_fn = cell_scorer(fn, q, alpha, mu)
        seen = {"refine_measure": [], "reference": []}

        def recorder(key):
            def score(meas):
                seen[key].append(meas.weights.tobytes() + meas.angles.tobytes())
                return score_fn(meas)
            return score

        best, got = refine_measure(recorder("refine_measure"), m, iters)
        ref_best, ref = reference_refine(recorder("reference"), m, iters)
        assert seen["refine_measure"] == seen["reference"]
        assert best == ref_best
        assert got.angles.tobytes() == ref.angles.tobytes()

    def test_a_move_onto_two_pi_keeps_the_stepped_angle(self):
        # from 1 ulp below 0.1 the -0.1 move steps to exactly 2 pi; the
        # measure holds 0, but the ascent steps on from 2 pi, whose later
        # moves round differently from steps taken from 0
        m = AtomicMeasure(np.array([1.0]), np.array([math.nextafter(0.1, 0.0)]))
        seen = []

        def score(meas):
            seen.append(meas.angles[0])
            return -abs(meas.angles[0] - 0.02)

        ref_best, ref = reference_refine(score, m, 10)
        assert seen[2] == 0.0 and seen[3] != 0.1
        ref_seen, seen[:] = seen[:], []
        best, got = refine_measure(score, m, 10)
        assert seen == ref_seen
        assert best == ref_best
        assert got.angles.tobytes() == ref.angles.tobytes()

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       np.float64("nan")])
    def test_non_finite_floats_are_refused(self, value):
        with pytest.raises(ConfigError, match="cannot canonically serialize"):
            canonical_json({"cells": [{"slack": value}]})

    def test_unserializable_report_writes_no_file(self, tmp_path):
        path = tmp_path / "rep.json"
        with pytest.raises(ConfigError):
            save_report({"x": math.nan}, path, csv_path=tmp_path / "rep.csv")
        assert list(tmp_path.iterdir()) == []

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
