import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschlicht.caratheodory import MAX_ATOMS, AtomicMeasure, _fill_rows, \
    _moments, _p_coeffs, measure_from_dict, p_series
from qschlicht.errors import ConfigError
from qschlicht.explorer import (BLOCK, CSV_HEADER, MIN_SEPARATION,
                                MIN_WEIGHT, TWO_PI, SweepConfig,
                                _bieberbach_block, _bieberbach_scores,
                                _cell_scorer, _measure_from_row,
                                _parallel_scores, _pool, _refine_rows,
                                _starlike_scores, canonical_json,
                                evaluate_measure, group_samples,
                                refine_measure, replay_cell, report_csv,
                                resolve_workers, run_limit_sweep, run_sweep)
from qschlicht.q_calculus import ClassParams, _iq_core
from qschlicht.schlicht import _starlike_core, convex_from_h
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ConfigError, match="tol"):
            fs_config(tol=tol)

    def test_negative_refine_iters(self):
        with pytest.raises(ConfigError):
            fs_config(refine_iters=-5)
        assert fs_config(refine_iters=0).refine_iters == 0

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

    @pytest.mark.parametrize("mu", [math.nan, complex(0.0, math.inf)])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ConfigError, match="not finite"):
            fs_config(mu_grid=(0.5, mu))

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


def reference_moments(weights, angles, n_max):
    """_moments with the phase of every atom computed, zero weight or not."""
    phase = np.exp(1j * angles)
    out = np.empty((n_max + 1,) + phase.shape[:-1], dtype=np.complex128)
    out[0] = 1.0
    cur = np.ones_like(phase)
    for n in range(1, n_max + 1):
        cur = cur * phase
        out[n] = np.einsum("...j,...j->...", weights, cur)
    return out


class TestBlockSampler:
    @given(seed=st.integers(0, 2 ** 32 - 1), group=st.integers(0, 5),
           k=st.integers(1, MAX_ATOMS), extra=st.integers(1, BLOCK - 1),
           data=st.data())
    @settings(max_examples=40)
    def test_rows_at_any_offset_equal_the_whole_group_rows(self, seed, group,
                                                           k, extra, data):
        samples = BLOCK + extra  # never a multiple of BLOCK
        lo = data.draw(st.integers(0, samples - 1))
        hi = data.draw(st.integers(lo + 1, samples))
        ref_w, ref_a = reference_group_samples(seed, group, samples, k)
        draws = np.full((samples, 2 * k), np.nan)
        w, a = _fill_rows(seed, (group,), draws, lo, hi)
        assert np.array_equal(w, ref_w[lo:hi])
        assert np.array_equal(a, ref_a[lo:hi])
        # only rows lo..hi-1 of the buffer were written
        assert np.isnan(draws[:lo]).all() and np.isnan(draws[hi:]).all()

    @pytest.mark.parametrize("k", range(1, MAX_ATOMS + 1))
    def test_blocks_fill_the_whole_group(self, k):
        cfg = fs_config(seed=k, samples=2 * BLOCK + 5, k_atoms=k)
        draws = np.empty((cfg.samples, 2 * k))
        for lo in range(0, cfg.samples, BLOCK):
            _fill_rows(cfg.seed, (3,), draws, lo, min(lo + BLOCK, cfg.samples))
        ref_w, ref_a = reference_group_samples(cfg.seed, 3, cfg.samples, k)
        assert np.array_equal(draws[:, k:], ref_w)
        assert np.array_equal(draws[:, :k], ref_a)
        w, a = group_samples(cfg, 3)
        assert np.array_equal(w, ref_w) and np.array_equal(a, ref_a)

    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 40),
           k=st.integers(1, MAX_ATOMS), n_max=st.integers(1, 16))
    @settings(max_examples=40)
    def test_masked_moments_equal_the_unmasked_formula(self, seed, rows, k,
                                                       n_max):
        rng = np.random.default_rng(seed)
        weights = 0.05 + rng.random((rows, k))
        weights /= weights.sum(axis=1, keepdims=True)
        angles = TWO_PI * rng.random((rows, k))
        assert np.array_equal(_moments(weights, angles, n_max),
                              reference_moments(weights, angles, n_max))


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
                          refine_iters=20)
        rep = run_sweep(cfg)
        assert len(rep["cells"]) == 9
        for cell in rep["cells"]:
            assert cell["empirical_max"] <= 1 + 1e-7
            assert not cell["violated"]
            assert cell["extremals"]["eq"] == 1.0

    def test_replay_uses_recorded_construction(self):
        cfg = SweepConfig(functional="bieberbach", seed=3, samples=300,
                          q_grid=(0.5,), refine_iters=0)
        rep = run_sweep(cfg)
        cell = rep["cells"][0]
        assert cell["argmax_construction"] in ("convex_h", "convex_measure")
        assert abs(replay_cell(cfg, cell) - cell["empirical_max"]) <= 1e-10

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
            m = _measure_from_row(weights[i], angles[i])
            f = convex_from_h(p_series(m, n_max), params).coeffs
            rel = np.abs(batch[:, i] - f).max() / np.abs(f).max()
            assert rel <= 1e-12, (i, rel)

    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=6)
    def test_worker_count_does_not_change_bytes(self, seed, q):
        cfg = SweepConfig(functional="bieberbach", seed=seed, samples=301,
                          q_grid=(q,), alpha_grid=(0.0, 0.3), refine_iters=5)
        texts = {canonical_json(run_sweep(cfg, workers=w)) for w in (1, 2, 8)}
        assert len(texts) == 1

    @given(q=st.sampled_from([0.2, 0.5, 0.8]),
           alpha=st.sampled_from([0.0, 0.3, 0.7]), n_check=st.integers(2, 16))
    @settings(max_examples=40)
    def test_eq_extremal_ratio_is_exactly_one(self, q, alpha, n_check):
        unit = AtomicMeasure(np.array([1.0]), np.array([0.0]))
        assert evaluate_measure("bieberbach", unit, q, alpha, n_check=n_check,
                                construction="convex_measure") == 1.0


# rows of one (q, alpha) group; a row scores alone as in any batch
groups = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "q": st.floats(0.05, 0.95),
    "alpha": st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    "k_atoms": st.integers(1, MAX_ATOMS),
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
        m = _measure_from_row(w[i], a[i])
        fs = _starlike_scores("fs", w, a, q, alpha, MUS)
        for mu in MUS:
            assert evaluate_measure("fs", m, q, alpha, mu=mu) == fs[mu][i]
        h22 = _starlike_scores("h22", w, a, q, alpha, (None,))[None]
        assert evaluate_measure("h22", m, q, alpha) == h22[i]
        for route in ("convex_h", "convex_measure"):
            batch = _bieberbach_scores(w, a, q, alpha, n_check, route)
            assert evaluate_measure("bieberbach", m, q, alpha, n_check=n_check,
                                    construction=route) == batch[i]
        sweep = _bieberbach_block(w, a, 0, q, alpha, n_check)
        route = "convex_h" if i % 2 == 0 else "convex_measure"
        assert evaluate_measure("bieberbach", m, q, alpha, n_check=n_check,
                                construction=route) == sweep[i]

    @given(g=groups, lo=st.integers(0, ROWS - 1), size=st.integers(1, ROWS))
    @settings(max_examples=40)
    def test_slice_scores_as_full_batch(self, g, lo, size):
        w, a = group_rows(g)
        q, alpha = g["q"], g["alpha"]
        hi = min(lo + size, ROWS)
        for fn, mus in (("fs", MUS), ("h22", (None,))):
            full = _starlike_scores(fn, w, a, q, alpha, mus)
            part = _starlike_scores(fn, w[lo:hi], a[lo:hi], q, alpha, mus)
            for mu in mus:
                assert np.array_equal(part[mu], full[mu][lo:hi])
        full = _bieberbach_block(w, a, 0, q, alpha, 10)
        part = _bieberbach_block(w[lo:hi], a[lo:hi], lo, q, alpha, 10)
        assert np.array_equal(part, full[lo:hi])


class TestBlocks:
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
        # the second config has two groups sharing one sample buffer
        for seed, k_atoms, samples, alphas in ((17, 4, 2 * BLOCK + 3, (0.3,)),
                                               (23, 3, 2 * BLOCK + 5, (0.0, 0.3))):
            cfg = SweepConfig(functional=functional, seed=seed,
                              samples=samples, q_grid=(0.5,),
                              alpha_grid=alphas, k_atoms=k_atoms,
                              mu_grid=(0.5,) if functional == "fs" else (),
                              refine_iters=3)
            texts = {canonical_json(run_sweep(cfg, workers=w))
                     for w in (1, 2, 3)}
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


def reference_refine(score_fn, m, iters, step0=0.1, step_tol=1e-12):
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
    step = step0
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
            if step < step_tol:
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


ROUTES = ("fs", "h22", "convex_h", "convex_measure")


def route_scorers(route, q, alpha, mu):
    """(batch scorer the sweep refines with, one-measure scorer)."""
    fn = route if route in ("fs", "h22") else "bieberbach"
    mu = mu if fn == "fs" else None
    return (_cell_scorer(fn, q, alpha, mu, 6, route),
            lambda m: evaluate_measure(fn, m, q, alpha, mu=mu, n_check=6,
                                       construction=route))


refine_cases = dict(m=start_measures(), route=st.sampled_from(ROUTES),
                    q=st.floats(0.05, 0.95), alpha=st.sampled_from([0.0, 0.3, 0.7]),
                    mu=st.sampled_from(MUS),
                    iters=st.one_of(st.integers(0, 25), st.just(100)),
                    # 0.025 is 0.1 / 4 exactly: the step meets the floor
                    step_tol=st.sampled_from([1e-12, 1e-3, 0.025]))


class TestRefinement:
    @given(**refine_cases)
    @settings(max_examples=60, deadline=None)
    def test_batched_ascent_takes_the_sequential_path(self, m, route, q, alpha,
                                                      mu, iters, step_tol):
        score_rows, score_fn = route_scorers(route, q, alpha, mu)
        best, w, ang = _refine_rows(score_rows, m.weights, m.angles, iters,
                                    step_tol=step_tol)
        ref_best, ref = reference_refine(score_fn, m, iters, step_tol=step_tol)
        got = AtomicMeasure(w, ang)
        assert best == ref_best
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.angles.tobytes() == ref.angles.tobytes()

    @given(**refine_cases)
    @settings(max_examples=30, deadline=None)
    def test_one_measure_adaptor_scores_the_same_candidates(self, m, route, q,
                                                           alpha, mu, iters,
                                                           step_tol):
        _, score_fn = route_scorers(route, q, alpha, mu)
        seen = {"batched": [], "reference": []}

        def recorder(key):
            def score(meas):
                seen[key].append(meas.weights.tobytes() + meas.angles.tobytes())
                return score_fn(meas)
            return score

        best, got = refine_measure(recorder("batched"), m, iters,
                                   step_tol=step_tol)
        ref_best, ref = reference_refine(recorder("reference"), m, iters,
                                         step_tol=step_tol)
        assert seen["batched"] == seen["reference"]
        assert best == ref_best
        assert got.angles.tobytes() == ref.angles.tobytes()

    @given(m=start_measures(), iters=st.integers(60, 200),
           center=st.floats(0.0, TWO_PI))
    @settings(max_examples=30, deadline=None)
    def test_long_ascent_without_a_step_floor(self, m, iters, center):
        # step_tol 0: only iters ends the ascent, past PLAN_PASSES passes
        def score_rows(weights, angles):
            return -((angles - center) ** 2 * weights).sum(axis=1)

        def score(meas):
            return float(score_rows(meas.weights[None, :], meas.angles[None, :])[0])

        ref_best, ref = reference_refine(score, m, iters, step_tol=0.0)
        best, got = refine_measure(score, m, iters, step_tol=0.0)
        best_rows, w, ang = _refine_rows(score_rows, m.weights, m.angles, iters,
                                         step_tol=0.0)
        assert best == best_rows == ref_best
        for meas in (got, AtomicMeasure(w, ang)):
            assert meas.weights.tobytes() == ref.weights.tobytes()
            assert meas.angles.tobytes() == ref.angles.tobytes()

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
        best, w, ang = _refine_rows(lambda w, a: -abs(a[:, 0] - 0.02),
                                    m.weights, m.angles, 10)
        assert best == ref_best
        assert AtomicMeasure(w, ang).angles.tobytes() == ref.angles.tobytes()

    @pytest.mark.parametrize("functional", ["fs", "h22", "bieberbach"])
    def test_default_refinement_same_bytes_for_any_worker_count(self, functional):
        cfg = SweepConfig(functional=functional, seed=29, samples=BLOCK + 9,
                          q_grid=(0.2, 0.5), alpha_grid=(0.0, 0.3), k_atoms=4,
                          mu_grid=(0.0, 1.0) if functional == "fs" else (),
                          include_extremals=False)
        assert cfg.refine_iters == 100
        reports = [run_sweep(cfg, workers=w) for w in (1, 2, 3)]
        assert any(c["argmax_source"] == "refined" for c in reports[0]["cells"])
        assert len({canonical_json(r) for r in reports}) == 1

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
