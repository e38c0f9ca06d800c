import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh, toeplitz

from oracles import oracle_power_r
from recurlab import gaussian
from recurlab.gaussian import (
    PsdError,
    SpectralModel,
    power_density_model,
    power_summability,
    sample_paths,
    triple_probability,
    twisted_values,
    upper_tail,
    white_noise_model,
)


@pytest.fixture(scope="module")
def power03():
    return power_density_model(0.3)


# degenerate r(n) = 1 on every lag the tests read: every Toeplitz section
# has rank one
CONSTANT = SpectralModel(family="constant", delta=0.0, C=1.0, table=(1.0,) * 33)


def _min_eigenvalue(model, N):
    """Smallest eigenvalue of the (N+1)x(N+1) Toeplitz covariance section."""
    return float(eigvalsh(toeplitz(model.r_vector(N)), subset_by_index=(0, 0))[0])


class TestSpectralModels:
    def test_normalization_and_symmetry(self, power03):
        assert power03.r(0) == 1.0
        for n in (1, 7, 100):
            assert power03.r(-n) == power03.r(n)
            assert abs(power03.r(n)) <= 1.0

    def test_decay_slope(self, power03):
        slope = dict(power03.params)["slope"]
        assert -0.45 <= slope <= -0.15

    def test_envelope_constant(self, power03):
        for n in (1, 16, 256, 512):
            assert abs(power03.r(n)) <= power03.C * n ** (-power03.delta) + 1e-12

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            power_density_model(0.0)
        with pytest.raises(ValueError):
            power_density_model(1.0)

    def test_white_noise(self):
        wn = white_noise_model()
        assert wn.r(0) == 1.0
        assert wn.r(5) == 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SpectralModel(family="mystery", delta=0.5, C=1.0).r(3)


class TestPowerTable:
    # lags at and around the panel count, powers of two and small lags
    LAGS = (1, 2, 3, 7, 64, 257, 511, 512)

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_table_matches_oracle(self, delta):
        table = power_density_model(delta).table
        for n in self.LAGS:
            assert abs(table[n] - oracle_power_r(delta, n)) <= 1e-13, n

    def test_lags_beyond_table_match_oracle(self, power03):
        r = power03.r_vector(1024)
        assert len(power03.table) == 513
        assert r[:513].tolist() == list(power03.table)
        ref = np.array([oracle_power_r(0.3, n) for n in range(513, 1025)])
        assert np.abs(r[513:] - ref).max() <= 1e-13
        assert power03.r(700) == pytest.approx(ref[700 - 513], abs=1e-13)

    def test_table_independent_of_block_size(self, power03, monkeypatch):
        # one lag per block, and every lag in one block
        for block in (1, 1 << 24):
            monkeypatch.setattr(gaussian, "_COS_BLOCK", block)
            assert power_density_model(0.3).table == power03.table

    def test_under_resolved_rule_raises(self, monkeypatch):
        monkeypatch.setattr(gaussian, "_GL_NODES", (2, 3))
        with pytest.raises(RuntimeError, match="quadrature error"):
            power_density_model(0.3)


class TestPsd:
    def test_white_noise_identity(self):
        assert abs(_min_eigenvalue(white_noise_model(), 16) - 1.0) < 1e-12

    def test_power_model_passes(self, power03):
        assert _min_eigenvalue(power03, 1024) >= -gaussian.PSD_TOL

    def test_constant_model_degenerate(self):
        assert abs(_min_eigenvalue(CONSTANT, 32)) < 1e-10

    def test_rejection_carries_eigenvalue(self, monkeypatch):
        # a covariance that is not positive definite: the sampler's
        # factorization fails past the largest jitter and says by how much
        bad = SpectralModel(family="white", delta=1.0, C=0.0, table=(1.0, 1.5))
        monkeypatch.setattr(gaussian, "_circulant_eigs", lambda r: None)
        with pytest.raises(PsdError) as exc:
            sample_paths(bad, 4, size=2, seed=0)
        assert exc.value.min_eigenvalue == pytest.approx(_min_eigenvalue(bad, 4))
        assert exc.value.min_eigenvalue < -1e-8


class TestSampling:
    def test_reproducible(self, power03):
        a = sample_paths(power03, 64, size=1, seed=5)
        b = sample_paths(power03, 64, size=1, seed=5)
        assert (a == b).all()

    def test_white_noise_iid(self):
        paths = sample_paths(white_noise_model(), 64, size=20_000, seed=1)
        lag1 = np.mean(paths[:, 0] * paths[:, 1])
        assert abs(lag1) < 4 / math.sqrt(20_000)
        assert abs(paths[:, 0].var() - 1.0) < 4 * math.sqrt(2.0 / 20_000)

    def test_marginal_variance(self, power03):
        paths = sample_paths(power03, 32, size=50_000, seed=2)
        assert abs(paths[:, 0].var() - 1.0) < 4 * math.sqrt(2.0 / 50_000)

    def test_covariance_matches_model(self, power03):
        paths = sample_paths(power03, 16, size=100_000, seed=3)
        for n in (1, 4, 9, 16):
            emp = float(np.mean(paths[:, 0] * paths[:, n]))
            assert abs(emp - power03.r(n)) < 4 * math.sqrt(2.0 / 100_000) + 1e-3

    def test_constant_model_needs_fallback(self, monkeypatch):
        # the circulant embedding of the rank-one covariance is nonnegative,
        # so it samples exactly constant paths
        paths = sample_paths(CONSTANT, 8, size=50, seed=7)
        assert (paths == paths[:, :1]).all()
        # without it, plain Cholesky fails on the singular Toeplitz section
        # and the jitter fallback must engage and still give constant paths
        monkeypatch.setattr(gaussian, "_circulant_eigs", lambda r: None)
        paths = sample_paths(CONSTANT, 8, size=50, seed=7)
        assert np.allclose(paths, paths[:, :1], atol=1e-3)

    def test_cholesky_fallback_covariance(self, power03, monkeypatch):
        monkeypatch.setattr(gaussian, "_circulant_eigs", lambda r: None)
        paths = sample_paths(power03, 16, size=100_000, seed=3)
        for n in (0, 1, 4, 16):
            emp = float(np.mean(paths[:, 0] * paths[:, n]))
            assert abs(emp - power03.r(n)) < 4 * math.sqrt(2.0 / 100_000) + 1e-3


class TestTwistedPath:
    def test_y0_equals_x0(self, power03):
        path = sample_paths(power03, 16, size=1, seed=11)[0]
        assert twisted_values(power03, path)[0] == path[0]

    def test_white_noise_negation(self):
        wn = white_noise_model()
        path = sample_paths(wn, 10, size=1, seed=3)[0]
        assert (twisted_values(wn, path)[1:] == -path[1:]).all()

    def test_algebraic_identities(self, power03):
        # the twist is linear, Y = A X; with T the covariance of X,
        # Cov(Y) = A T A^T must equal T and Cov(X, Y) = T A^T holds
        # 2 r(n) r(m) - r(n - m)
        N = 8
        A = twisted_values(power03, np.eye(N + 1)).T
        r = power03.r_vector(N)
        T = toeplitz(r)
        assert np.allclose(A @ T @ A.T, T, atol=1e-12)
        assert (T @ A.T)[5, 2] == pytest.approx(2 * r[5] * r[2] - r[3])

    def test_empirical_cov_y1_y3(self, power03):
        paths = sample_paths(power03, 8, size=100_000, seed=4)
        ys = twisted_values(power03, paths)
        emp = float(np.mean(ys[:, 1] * ys[:, 3]))
        assert abs(emp - power03.r(2)) < 4 * math.sqrt(2.0 / 100_000) + 1e-3

    def test_exchange_symmetry(self, power03):
        # both processes are marginally stationary with covariance r, so
        # matched statistics agree within MC error
        paths = sample_paths(power03, 8, size=100_000, seed=6)
        ys = twisted_values(power03, paths)
        a = float(np.mean((paths[:, 2] > 1) & (paths[:, 5] > 1)))
        b = float(np.mean((ys[:, 2] > 1) & (ys[:, 5] > 1)))
        assert abs(a - b) < 5 * math.sqrt(a * (1 - a) / 100_000) + 1e-3


class TestUpperTail:
    @pytest.mark.parametrize("x, tail", [
        (5.0, 2.8665157187919391167e-7),
        (9.0, 1.1285884059538406477e-19),
        (20.0, 2.7536241186062336951e-89),
    ])
    def test_far_tail_relative_precision(self, x, tail):
        # P(Z > x) = erfc(x / sqrt 2) / 2, to 20 digits; no absolute slack,
        # which would let 0.0 pass for the far tails
        assert abs(upper_tail(x) - tail) <= 1e-12 * tail


class TestTripleProbability:
    def test_white_noise_exact_zero(self):
        est = triple_probability(white_noise_model(), 7, samples=50_000)
        assert est.estimate == 0.0
        assert est.env_markov == 0.0

    def test_envelopes_hold(self, power03):
        for n in (8, 16, 32, 64):
            est = triple_probability(power03, n, samples=200_000, seed=1)
            assert est.estimate <= est.envelope + 4 * est.se
            assert est.env_tail == upper_tail(1.0 / power03.r(n))

    def test_weakly_decreasing_within_error(self, power03):
        ests = [triple_probability(power03, n, samples=200_000, seed=2)
                for n in (8, 16, 32, 64)]
        for a, b in zip(ests, ests[1:]):
            assert b.estimate <= a.estimate + 4 * (a.se + b.se)

    def test_negative_correlation_zero_envelope(self):
        model = SpectralModel(family="white", delta=1.0, C=0.4,
                              table=(1.0, 0.0, 0.0, -0.4))
        est = triple_probability(model, 3, samples=50_000)
        assert est.env_tail == 0.0
        assert est.estimate == 0.0  # requires r(n) X_0 > 1 with r < 0

    def test_json_round_trip(self, power03):
        est = triple_probability(power03, 8, samples=1000)
        assert est == triple_probability(power03, 8, samples=1000)


class TestSummability:
    def test_condition_arithmetic(self):
        rep = power_summability([0.0] * 10, k=2, delta=0.3, C=0.5, H=10)
        assert 2 * rep.k * rep.delta == pytest.approx(1.2)
        assert rep.head == 0.0
        assert rep.total == rep.tail > 0.0

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            power_summability([0.1], k=1, delta=0.3, C=0.5, H=1)

    def test_finite_total(self, power03):
        ests = [triple_probability(power03, n, samples=20_000).estimate
                for n in range(1, 33)]
        rep = power_summability(ests, k=2, delta=power03.delta, C=power03.C, H=32)
        assert math.isfinite(rep.total)
        assert rep.head <= rep.total

    def test_too_many_estimates(self):
        with pytest.raises(ValueError):
            power_summability([0.1] * 5, k=2, delta=0.3, C=0.5, H=3)
