import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qschlicht import power_series as ps
from qschlicht.caratheodory import (_COS, _SIN, MAX_ATOMS, AtomicMeasure,
                                    _phase, dump_measure, extend_p23,
                                    load_measure, measure_from_dict, p_series,
                                    rotation_normalized, sample_measure)
from qschlicht.errors import ConfigError, RangeError
from qschlicht.explorer import refine_measure
from parametrization_inverse import DegenerateParametrizationError, \
    recover_xi_zeta


def single_atom(angle=0.0):
    return AtomicMeasure(np.array([1.0]), np.array([angle]))


class TestPSeries:
    def test_single_atom_at_zero(self):
        p = p_series(single_atom(0.0), 8)
        assert np.allclose(p.coeffs, np.r_[1.0, 2.0 * np.ones(8)])

    def test_single_atom_at_pi(self):
        p = p_series(single_atom(math.pi), 8)
        target = np.r_[1.0, 2.0 * (-1.0) ** np.arange(1, 9)]
        assert np.allclose(p.coeffs, target, atol=1e-14)

    def test_two_symmetric_atoms(self):
        m = AtomicMeasure(np.array([0.5, 0.5]), np.array([0.0, math.pi]))
        p = p_series(m, 8)
        target = np.array([1, 0, 2, 0, 2, 0, 2, 0, 2], dtype=float)
        assert np.allclose(p.coeffs, target, atol=1e-14)

    def test_coefficients_bounded_by_two(self):
        for seed in range(200):
            m = sample_measure(seed, 1 + seed % 8)
            p = p_series(m, 24)
            assert np.abs(p.coeffs[1:]).max() <= 2.0 + 1e-12

    def test_positive_real_part_on_disk(self):
        # order chosen so the geometric tail at r = 0.95 stays below the
        # positivity margin (1-r^2)/(1+r)^2 ~ 0.0256 of a boundary-aligned atom
        rng = np.random.default_rng(77)
        zs = (rng.uniform(0.0, 0.95, 2500)
              * np.exp(1j * rng.uniform(0, 2 * math.pi, 2500)))
        for seed in range(40):
            m = sample_measure(seed, 1 + seed % 4)
            p = p_series(m, 200)
            vals = ps.eval_grid(p, zs)
            assert vals.real.min() >= -1e-12


def bits(z):
    """The bytes of an array, so that signed zeros count as different."""
    return np.ascontiguousarray(z).view(np.uint64)


class TestPhase:
    @given(angles=hnp.arrays(np.float64, st.integers(1, 200),
                             elements=st.floats(-32 * math.pi, 32 * math.pi)),
           start=st.integers(0, 40), step=st.integers(1, 9),
           offset=st.integers(1, 15))
    @settings(max_examples=60)
    def test_phase_depends_on_the_angle_alone(self, angles, start, step,
                                              offset):
        alone = np.concatenate([_phase(angles[i:i + 1])
                                for i in range(angles.size)])
        assert np.array_equal(bits(_phase(angles)), bits(alone))
        assert np.array_equal(bits(_phase(angles[start::step])),
                              bits(alone[start::step]))
        # the same angles at a byte offset, aligned or not
        raw = bytearray(8 * angles.size + 16)
        shifted = np.frombuffer(raw, np.float64, angles.size, offset)
        shifted[:] = angles
        assert np.array_equal(bits(_phase(shifted)), bits(alone))
        # as columns of a transposed 2-d view
        cols = np.tile(angles, (3, 1)).T
        assert np.array_equal(bits(_phase(cols.T)[1]), bits(alone))

    def test_axes_and_negative_angles(self):
        quarter = [0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi]
        z = _phase(np.array(quarter))
        assert np.abs(z - np.array([1, 1j, -1, -1j, 1])).max() <= 5e-16
        # every knot and half step of the table up to |theta| = 32 pi
        a = np.arange(-8192, 8193) * (math.pi / 256)
        assert np.array_equal(_phase(-a), np.conj(_phase(a)))

    def test_table_has_the_symmetries_of_cos_and_sin(self):
        k = np.arange(256)
        assert np.array_equal(_COS[-k % 256], _COS[k])
        assert np.array_equal(_SIN[-k % 256], -_SIN[k])
        assert np.array_equal(_COS[(128 - k) % 256], -_COS[k])
        assert np.array_equal(_SIN[(64 - k) % 256], _COS[k])

    def test_atoms_are_the_phases(self):
        # sigma_j = e^{i theta_j}, the points of the measure on the circle
        m = sample_measure(11, 5)
        assert np.abs(_phase(m.angles) - np.exp(1j * m.angles)).max() <= 5e-16

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(RangeError, match="finite"):
            AtomicMeasure(np.array([0.5, 0.5]), np.array([0.1, angle]))


class TestCoefficientParametrization:
    def test_boundary_p1_collapses(self):
        for xi, zeta in ((0.3 + 0.1j, -0.5), (1.0, 1.0), (0.0, 0.0)):
            p2, p3 = extend_p23(2.0, xi, zeta)
            assert p2 == pytest.approx(2.0)
            assert p3 == pytest.approx(2.0)

    def test_substitution_p1_zero(self):
        p2, p3 = extend_p23(0.0, 1.0, 0.7j)
        assert p2 == pytest.approx(2.0)
        assert p3 == pytest.approx(0.0)

    def test_substitution_interior(self):
        p2, p3 = extend_p23(1.0, 0.0, 1.0)
        assert p2 == pytest.approx(0.5)
        assert p3 == pytest.approx(1.75)

    def test_domain_validation(self):
        with pytest.raises(RangeError):
            extend_p23(2.5, 0.0, 0.0)
        with pytest.raises(RangeError):
            extend_p23(1.0, 1.5, 0.0)
        with pytest.raises(RangeError):
            extend_p23(1.0, 0.0, -2.0)

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            p1 = rng.uniform(0.05, 1.95)
            xi = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
            zeta = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
            p2, p3 = extend_p23(p1, xi, zeta)
            xi_r, zeta_r = recover_xi_zeta(p1, p2, p3)
            assert abs(xi_r - xi) <= 1e-10
            assert abs(zeta_r - zeta) <= 1e-10

    def test_measure_series_are_realizable(self):
        # recovered parameters of rotation-normalized measures stay in the disk
        worst_xi, worst_zeta = 0.0, 0.0
        for seed in range(1000):
            m = rotation_normalized(sample_measure(seed, 1 + seed % 4))
            p = p_series(m, 3)
            p1 = float(p.coeffs[1].real)
            try:
                xi, zeta = recover_xi_zeta(p1, p.coeffs[2], p.coeffs[3])
            except DegenerateParametrizationError:
                continue
            worst_xi = max(worst_xi, abs(xi))
            worst_zeta = max(worst_zeta, abs(zeta))
        assert worst_xi <= 1 + 1e-9
        assert worst_zeta <= 1 + 1e-6

    def test_single_atom_is_degenerate(self):
        p = p_series(single_atom(0.0), 3)
        with pytest.raises(DegenerateParametrizationError):
            recover_xi_zeta(float(p.coeffs[1].real), p.coeffs[2], p.coeffs[3])


class TestSampling:
    def test_deterministic(self):
        a, b = sample_measure(987654321, 5), sample_measure(987654321, 5)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.angles, b.angles)

    def test_single_atom_weight(self):
        # one atom is legal outside sweeps: the unit mass at angle 0
        m = sample_measure(3, 1)
        assert m.weights.tolist() == [1.0] and m.angles.tolist() == [0.0]

    def test_invariants_over_many_seeds(self):
        for seed in range(2000):
            m = sample_measure(seed, 1 + seed % 8)
            assert abs(m.weights.sum() - 1.0) <= 1e-12
            assert np.all(m.weights > 0)
            assert np.all((0 <= m.angles) & (m.angles < 2 * math.pi))

    def test_k_out_of_range(self):
        with pytest.raises(RangeError):
            sample_measure(1, 0)
        with pytest.raises(RangeError):
            sample_measure(1, 9)

    def test_k_must_be_an_integer(self):
        # 2.0 used to end in a bare numpy TypeError
        with pytest.raises(RangeError, match="k_atoms must be an integer"):
            sample_measure(1, 2.0)
        assert sample_measure(1, np.int64(2)).weights.size == 2

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # int(1.5) would draw seed 1's measure
        with pytest.raises(ConfigError, match="seed"):
            sample_measure(seed, 4)

    def test_rotation_normalization(self):
        for seed in range(50):
            m = rotation_normalized(sample_measure(seed, 1 + seed % 4))
            p1 = p_series(m, 1).coeffs[1]
            assert abs(p1.imag) <= 1e-12
            assert p1.real >= -1e-12


class TestMeasureJson:
    def test_roundtrip(self, tmp_path):
        m = sample_measure(42, 3)
        path = tmp_path / "m.json"
        dump_measure(m, path)
        back = load_measure(path)
        assert np.allclose(back.weights, m.weights)
        assert np.allclose(back.angles, m.angles)

    @given(seed=st.integers(0, 2 ** 64 - 1), k=st.integers(1, MAX_ATOMS),
           iters=st.integers(0, 6))
    @settings(max_examples=60)
    def test_sampled_and_refined_measures_read_back_bitwise(self, seed, k,
                                                            iters):
        m = sample_measure(seed, k)
        # refinement's weight moves renormalize, so their sums may sit a few
        # ulp off 1; within AtomicMeasure's tolerance they are kept as read
        _, refined = refine_measure(
            lambda meas: abs(complex(p_series(meas, 2).coeffs[2])), m, iters)
        for meas in (m, refined):
            back = measure_from_dict(json.loads(json.dumps(meas.to_dict())))
            assert back.weights.tobytes() == meas.weights.tobytes()
            assert back.angles.tobytes() == meas.angles.tobytes()

    def test_schema_shape(self, tmp_path):
        path = tmp_path / "m.json"
        dump_measure(sample_measure(1, 2), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"atoms"}
        assert set(payload["atoms"][0]) == {"weight", "angle"}

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(RangeError):
            measure_from_dict({"atoms": [{"weight": 0.5, "angle": 0.0},
                                         {"weight": 0.5 + 2e-9, "angle": 1.0}]})

    def test_accepts_tiny_deviation_and_renormalizes(self):
        m = measure_from_dict({"atoms": [{"weight": 0.5, "angle": 0.0},
                                         {"weight": 0.5 + 5e-10, "angle": 1.0}]})
        assert abs(m.weights.sum() - 1.0) <= 1e-15

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(RangeError):
            measure_from_dict({"atoms": [{"weight": 0.0, "angle": 0.0},
                                         {"weight": 1.0, "angle": 1.0}]})

    def test_rejects_malformed(self):
        with pytest.raises(RangeError):
            measure_from_dict({"atoms": [{"w": 1.0}]})
