import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh, toeplitz

from oracles import (
    oracle_circulant_paths,
    oracle_power_r,
    oracle_triple,
    oracle_triple_hit_counts,
    triple_probability,
)
from recurlab import gaussian
from recurlab.experiments import exp_section2
from recurlab.fields import FieldSpec
from recurlab.gaussian import (
    PsdError,
    SpectralModel,
    conditioned_paths,
    power_density_model,
    power_summability,
    sample_paths,
    triple_envelope,
    triple_hit_counts,
    triple_probabilities,
    twisted_values,
    upper_tail,
    white_noise_model,
)
from recurlab.ranges import K_LIMIT, ComplementProfile, choose_k


@pytest.fixture(scope="module")
def power03():
    return power_density_model(0.3)


# degenerate r(0..32) = 1: every Toeplitz section has rank one
CONSTANT = np.ones(33)


def _min_eigenvalue(r):
    """Smallest eigenvalue of the Toeplitz covariance section of r(0..N)."""
    return float(eigvalsh(toeplitz(r), subset_by_index=(0, 0))[0])


class TestSpectralModels:
    def test_normalization_and_symmetry(self, power03):
        assert power03.r(0) == 1.0
        for n in (1, 7, 100):
            assert power03.r(-n) == power03.r(n)
            assert abs(power03.r(n)) <= 1.0

    def test_decay_slope(self, power03, monkeypatch):
        # the fit's log-log slope from lag 16 on sits within 0.1 of -delta
        ns = np.arange(16, gaussian.FIT_LAGS + 1)
        r = power03.r_vector(gaussian.FIT_LAGS)[16:]
        slope = float(np.polyfit(np.log(ns), np.log(np.abs(r)), 1)[0])
        assert -0.45 <= slope <= -0.15
        # a covariance decaying like n^-0.45 fails the gate at delta = 0.3
        monkeypatch.setattr(gaussian, "_power_cov", lambda delta, lags: lags ** -0.45)
        with pytest.raises(RuntimeError, match="fitted decay slope"):
            power_density_model(0.3)

    def test_envelope_constant(self, power03):
        for n in (1, 16, 256, 512):
            assert abs(power03.r(n)) <= power03.C * n ** (-power03.delta) + 1e-12

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.3, 0.525, 0.75, 0.98])
    def test_envelope_attained_at_lag_one(self, delta):
        # _power_cov's argument: r(n) n^delta is largest at n = 1, so the
        # fitted C is r(1) and bounds every lag beyond the fit
        n = np.arange(1, 4097)
        r = gaussian._power_cov(delta, n)
        assert int(np.argmax(np.abs(r) * n**delta)) == 0
        assert power_density_model(delta).C == r[0]

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
        r = power_density_model(delta).r_vector(gaussian.FIT_LAGS)
        for n in self.LAGS:
            assert abs(r[n] - oracle_power_r(delta, n)) <= 1e-13, n

    # long lags: powers of two and their neighbours up to 4096
    LONG_LAGS = (1024, 2047, 2048, 4095, 4096)

    # quad warns that it hit its subdivision limit at delta = 0.98 and
    # n = 4096, yet agrees with the table there to 1e-14
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("delta", [0.02, 0.3, 0.7, 0.98])
    def test_long_lags_match_oracle(self, delta):
        r = power_density_model(delta).r_vector(max(self.LONG_LAGS))
        for n in self.LONG_LAGS:
            assert abs(r[n] - oracle_power_r(delta, n)) <= 1e-13, n

    def test_lags_beyond_table_match_oracle(self, power03):
        # the fit reads lags 1..512; the lags past them follow the same rule
        r = power03.r_vector(1024)
        ref = np.array([oracle_power_r(0.3, n) for n in range(513, 1025)])
        assert np.abs(r[513:] - ref).max() <= 1e-13

    def test_single_lag_has_no_seam(self, power03):
        # a lag's value does not depend on which other lags were asked for,
        # on either side of the fitted range's end
        r = power03.r_vector(1024)
        ns = [511, 512, 513, 1000]
        one = np.array([power03.r(n) for n in ns])
        assert (one.view(np.uint64) == r[ns].view(np.uint64)).all()

    @pytest.mark.parametrize("delta", [0.02, 0.3, 0.98])
    def test_table_is_prefix_of_longer_computation(self, delta):
        r = gaussian._power_cov(delta, np.arange(1, 4097))
        table = power_density_model(delta).r_vector(gaussian.FIT_LAGS)[1:]
        assert (r[:512].view(np.uint64) == table.view(np.uint64)).all()

    def test_table_independent_of_block_size(self, power03, monkeypatch):
        # one lag per block, and every lag in one block
        ref = power03.r_vector(gaussian.FIT_LAGS)
        for block in (1, 1 << 24):
            monkeypatch.setattr(gaussian, "_COS_BLOCK", block)
            assert power_density_model(0.3) == power03
            r = power03.r_vector(gaussian.FIT_LAGS)
            assert (r.view(np.uint64) == ref.view(np.uint64)).all()

    def test_under_resolved_rule_raises(self, power03, monkeypatch):
        monkeypatch.setattr(gaussian, "_GL_NODES", (2, 3))
        with pytest.raises(RuntimeError, match="quadrature error"):
            power_density_model(0.3)
        with pytest.raises(RuntimeError, match="quadrature error"):
            power03.r_vector(gaussian.FIT_LAGS)


class TestPsd:
    def test_white_noise_identity(self):
        assert abs(_min_eigenvalue(white_noise_model().r_vector(16)) - 1.0) < 1e-12

    def test_power_model_passes(self, power03):
        assert _min_eigenvalue(power03.r_vector(1024)) >= -gaussian.PSD_TOL

    def test_constant_model_degenerate(self):
        assert abs(_min_eigenvalue(CONSTANT)) < 1e-10

    def test_rejection_carries_eigenvalue(self):
        # r = (1, 1.5, 0, 0, 0) is not a covariance: its circulant embedding
        # has eigenvalues 1 + 3 cos(2 pi j / 8), the smallest -2 at j = 4
        bad = np.array([1.0, 1.5, 0.0, 0.0, 0.0])
        with pytest.raises(PsdError) as exc:
            sample_paths(bad, size=2, seed=0)
        assert exc.value.min_eigenvalue == -2.0
        assert exc.value.N == 4

    # the powers of two and their neighbours bracket the embedding sizes
    # the sampler meets at the usual horizons
    PSD_NS = (*range(129), 255, 256, 257, 511, 512, 513, 1024)

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.3, 0.5, 0.7, 0.98])
    def test_power_embedding_positive(self, delta):
        # the circulant sampler is exact on the whole power family: the
        # minimal embedding never dips below zero, so sample_paths needs no
        # other factorization
        model = power_density_model(delta)
        for N in self.PSD_NS:
            assert gaussian._circulant_eigs(model.r_vector(N)).min() > 0.0, N


class TestSampling:
    def test_reproducible(self, power03):
        a = sample_paths(power03.r_vector(64), size=1, seed=5)
        b = sample_paths(power03.r_vector(64), size=1, seed=5)
        assert (a == b).all()

    def test_white_noise_iid(self):
        paths = sample_paths(white_noise_model().r_vector(64), size=20_000, seed=1)
        lag1 = np.mean(paths[:, 0] * paths[:, 1])
        assert abs(lag1) < 4 / math.sqrt(20_000)
        assert abs(paths[:, 0].var() - 1.0) < 4 * math.sqrt(2.0 / 20_000)

    def test_marginal_variance(self, power03):
        paths = sample_paths(power03.r_vector(32), size=50_000, seed=2)
        assert abs(paths[:, 0].var() - 1.0) < 4 * math.sqrt(2.0 / 50_000)

    def test_covariance_matches_model(self, power03):
        paths = sample_paths(power03.r_vector(16), size=100_000, seed=3)
        for n in (1, 4, 9, 16):
            emp = float(np.mean(paths[:, 0] * paths[:, n]))
            assert abs(emp - power03.r(n)) < 4 * math.sqrt(2.0 / 100_000) + 1e-3

    def test_constant_model_gives_constant_paths(self):
        # the circulant embedding of the rank-one covariance is nonnegative,
        # so it samples exactly constant paths
        paths = sample_paths(CONSTANT[:9], size=50, seed=7)
        assert (paths == paths[:, :1]).all()

    def test_single_point_paths_are_the_first_draws(self, power03):
        # at N = 0 the embedding is [r(0)] = [1], and the paths are the
        # first standard normal draws of the seed's stream
        paths = sample_paths(power03.r_vector(0), size=7, seed=13)
        ref = np.random.default_rng(13).standard_normal((7, 1))
        assert paths.shape == (7, 1)
        assert (paths.view(np.uint64) == ref.view(np.uint64)).all()

    @pytest.mark.parametrize("block", [1, 3 * 128 + 5, 1 << 24])
    def test_blocked_transform_equals_one_shot(self, power03, monkeypatch, block):
        # one row per block, blocks of three rows that leave one over, and
        # every row in one block; M = 128 at N = 64
        monkeypatch.setattr(gaussian, "_FFT_BLOCK", block)
        eigs = gaussian._circulant_eigs(power03.r_vector(64))
        assert len(eigs) == 128
        paths = sample_paths(power03.r_vector(64), size=10, seed=9)
        ref = oracle_circulant_paths(eigs, 64, size=10, seed=9)
        assert paths.shape == ref.shape == (10, 65)
        assert (paths.view(np.uint64) == ref.view(np.uint64)).all()

    def test_peak_memory_holds_one_draw_array(self, power03):
        # the real parts are one (size x M) array; the imaginary parts are
        # drawn a block at a time, so the peak stays below one draw array,
        # the result and four complex blocks (a second draw array would
        # add 8 MB here)
        size, N, M = 8000, 64, 128
        tracemalloc.start()
        try:
            sample_paths(power03.r_vector(N), size=size, seed=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * size * M + 8 * size * (N + 1) + 4 * 16 * gaussian._FFT_BLOCK


class TestConditionedPaths:
    def test_x0_above_one(self, power03):
        paths = conditioned_paths(power03.r_vector(16), size=5000, seed=8)
        assert paths.shape == (5000, 17)
        assert (paths[:, 0] > 1.0).all()

    def test_joint_frequency_at_lag_one(self, power03):
        # given X_0 > 1, X_1 > 1 and Y_1 > 1 hold together with probability
        # P(X_0 > 1, X_1 > 1, Y_1 > 1) / P(X_0 > 1)
        size = 200_000
        r = power03.r_vector(1)
        paths = conditioned_paths(r, size=size, seed=12)
        ys = twisted_values(r, paths)
        freq = float(np.mean((paths[:, 1] > 1.0) & (ys[:, 1] > 1.0)))
        p = float(triple_probabilities(np.array([power03.r(1)]))[0]) / upper_tail(1.0)
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / size)

    def test_shift_of_unconditioned_paths(self, power03):
        # every column but X_0 is the unconditioned path of the same seed,
        # shifted by r(n) (X_0 - Z_0)
        paths = conditioned_paths(power03.r_vector(8), size=50, seed=4)
        z = sample_paths(power03.r_vector(8), size=50, seed=4)
        shift = paths[:, :1] - z[:, :1]
        assert np.allclose(paths[:, 1:], z[:, 1:] + power03.r_vector(8)[1:] * shift,
                           rtol=0, atol=1e-12)


class TestTwistedPath:
    def test_y0_equals_x0(self, power03):
        r = power03.r_vector(16)
        path = sample_paths(r, size=1, seed=11)[0]
        assert twisted_values(r, path)[0] == path[0]

    def test_white_noise_negation(self):
        r = white_noise_model().r_vector(10)
        path = sample_paths(r, size=1, seed=3)[0]
        assert (twisted_values(r, path)[1:] == -path[1:]).all()

    def test_algebraic_identities(self, power03):
        # the twist is linear, Y = A X; with T the covariance of X,
        # Cov(Y) = A T A^T must equal T and Cov(X, Y) = T A^T holds
        # 2 r(n) r(m) - r(n - m)
        N = 8
        r = power03.r_vector(N)
        A = twisted_values(r, np.eye(N + 1)).T
        T = toeplitz(r)
        assert np.allclose(A @ T @ A.T, T, atol=1e-12)
        assert (T @ A.T)[5, 2] == pytest.approx(2 * r[5] * r[2] - r[3])

    def test_empirical_cov_y1_y3(self, power03):
        r = power03.r_vector(8)
        paths = sample_paths(r, size=100_000, seed=4)
        ys = twisted_values(r, paths)
        emp = float(np.mean(ys[:, 1] * ys[:, 3]))
        assert abs(emp - power03.r(2)) < 4 * math.sqrt(2.0 / 100_000) + 1e-3

    def test_exchange_symmetry(self, power03):
        # both processes are marginally stationary with covariance r, so
        # matched statistics agree within MC error
        r = power03.r_vector(8)
        paths = sample_paths(r, size=100_000, seed=6)
        ys = twisted_values(r, paths)
        a = float(np.mean((paths[:, 2] > 1) & (paths[:, 5] > 1)))
        b = float(np.mean((ys[:, 2] > 1) & (ys[:, 5] > 1)))
        assert abs(a - b) < 5 * math.sqrt(a * (1 - a) / 100_000) + 1e-3


class TestUpperTail:
    def test_agrees_with_ndtr(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(20240515)
        u = rng.uniform(1e-6, 1.0, 20_000)
        # |x| = 1 and 8 sqrt 2 are cephes' branch edges, and from about 37.5
        # on the tail falls below 1e-300 and then underflows to 0
        edges = []
        for e in (1.0, 8.0 * math.sqrt(2.0)):
            for s in (e, -e):
                edges += [s, np.nextafter(s, 0.0), np.nextafter(s, 2.0 * s)]
        xs = np.concatenate([rng.uniform(-40.0, 40.0, 40_000),
                             rng.uniform(-3.0, 3.0, 40_000), 1.0 / u, -1.0 / u,
                             edges, np.linspace(37.5, 38.6, 11_001), [0.0, -0.0]])
        got = np.array([upper_tail(x) for x in xs.tolist()])
        ref = ndtr(-xs)
        normal = ref >= 1e-300
        rel = np.abs(got[normal] - ref[normal]) / ref[normal]
        assert rel.max() <= 1e-12, xs[normal][np.argmax(rel)]
        assert upper_tail(38.6) == 0.0 < upper_tail(37.5)
        assert upper_tail(-np.inf) == 1.0 and upper_tail(np.inf) == 0.0
        assert math.isnan(upper_tail(np.nan))

    def test_branch_edges_bit_for_bit(self):
        # where the tail is exact, erfc and ndtr agree to the bit: it rounds
        # to 1.0 from the same point near x = -8.29 on, underflows to 0 by
        # x = 38.5, and +-0, +-inf and nan give 0.5, 0, 1 and nan
        from scipy.special import ndtr

        xs = np.concatenate([np.linspace(-40.0, -8.0, 32_001),
                             np.linspace(38.5, 40.0, 1_501),
                             [0.0, -0.0, np.inf, -np.inf, np.nan]])
        got = np.array([upper_tail(x) for x in xs.tolist()])
        ref = ndtr(-xs)
        exact = (ref == 1.0) | (ref == 0.0) | (xs == 0.0) | ~np.isfinite(xs)
        assert ((got == 1.0) == (ref == 1.0)).all()
        assert (got[exact].view(np.uint64) == ref[exact].view(np.uint64)).all()
        assert exact.sum() > 1_501 + 5

    def test_equals_ndtr_bit_for_bit(self, monkeypatch, tmp_path):
        # the normal tail only feeds gauss's envelope test, so its report is
        # the same to the bit whether the tail is erfc or scipy's ndtr
        from scipy.special import ndtr

        from recurlab.cli import main

        argv = ["gauss", "--horizon", "16", "--samples", "100",
                "--param", "mc=2000", "--seed", "3", "--out"]
        assert main(argv + [str(tmp_path / "erfc")]) == 0
        calls = []

        def scipy_tail(x):
            calls.append(x)
            return float(ndtr(-x))

        monkeypatch.setattr(gaussian, "upper_tail", scipy_tail)
        assert main(argv + [str(tmp_path / "ndtr")]) == 0
        assert calls
        for name in ("gauss.json", "gauss_decay.csv"):
            assert ((tmp_path / "erfc" / name).read_bytes()
                    == (tmp_path / "ndtr" / name).read_bytes()), name

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
        est = triple_probability(white_noise_model().r_vector(7), 7, samples=50_000)
        assert est.estimate == 0.0
        assert est.env_markov == 0.0

    def test_envelopes_hold(self, power03):
        for n in (8, 16, 32, 64):
            est = triple_probability(power03.r_vector(n), n, samples=200_000, seed=1)
            assert est.estimate <= est.envelope + 4 * est.se
            assert est.env_tail == upper_tail(1.0 / power03.r(n))

    def test_weakly_decreasing_within_error(self, power03):
        ests = [triple_probability(power03.r_vector(n), n, samples=200_000, seed=2)
                for n in (8, 16, 32, 64)]
        for a, b in zip(ests, ests[1:]):
            assert b.estimate <= a.estimate + 4 * (a.se + b.se)

    def test_negative_correlation_zero_envelope(self):
        est = triple_probability(np.array([1.0, 0.0, 0.0, -0.4]), 3, samples=50_000)
        assert est.env_tail == 0.0
        assert est.estimate == 0.0  # requires r(n) X_0 > 1 with r < 0

    def test_json_round_trip(self, power03):
        r = power03.r_vector(8)
        assert triple_probability(r, 8, samples=1000) == triple_probability(r, 8, samples=1000)


class TestTripleExact:
    # the rule's integrand e^(-a t - t^2/2) / (1 + (a + t)^2), a = s / r,
    # spreads over [0, 8.9] as r nears 1 (a = 4.5e-4 at 0.9999999) and
    # decays within 1/a = 0.047 at 0.047, where the probability is about
    # 1.6e-103
    RS = (0.9999999, 0.999, 0.99, 0.9, 0.6, 0.45, 0.3, 0.16, 0.047)

    def test_matches_quadrature_oracle(self):
        got = triple_probabilities(np.array(self.RS))
        for r, p in zip(self.RS, got.tolist()):
            ref = oracle_triple(r)
            assert abs(p - ref) <= 1e-13 * ref, r

    @pytest.mark.parametrize("r", [0.6, 0.9, 0.99, 0.999, 0.9999999])
    def test_owens_t_identity(self, r):
        # the orthant P(Z > 1) - 2 T(1, s / r); below r = 0.6 the
        # subtraction cancels too many digits to check 1e-14
        from scipy.special import ndtr, owens_t

        s = math.sqrt(1.0 - r * r)
        ref = float(ndtr(-1.0) - 2.0 * owens_t(1.0, s / r))
        p = float(triple_probabilities(np.array([r]))[0])
        assert abs(p - ref) <= 1e-14 * ref

    def test_dense_grid_passes_the_gate(self):
        # every r in [1/40, 1) meets the 1e-10 gate; P rises with r, and
        # is 0 only where e^(-1/(2 r^2)) underflows
        r = np.append(np.linspace(gaussian._TRIPLE_R_MIN, 1.0, 20001)[:-1],
                      np.nextafter(1.0, 0.0))
        p = triple_probabilities(r)
        assert (np.diff(p) >= 0).all() and (np.diff(p)[p[:-1] > 0] > 0).all()
        assert (p[r > 0.027] > 0).all() and p[-1] < upper_tail(1.0)

    def test_zero_without_positive_correlation(self):
        # r <= 0 cannot give r X_0 > 1; below r = 1/40 the probability is
        # below P(Z > 40) and rounds to 0
        rs = np.array([0.0, -0.0, -0.3, -0.999, 1e-200, 0.02, np.nextafter(1 / 40, 0)])
        assert (triple_probabilities(rs) == 0.0).all()
        assert oracle_triple(-0.3) == 0.0
        assert triple_probabilities(np.array([0.03]))[0] > 0.0

    def test_correlation_one_rejected(self):
        with pytest.raises(ValueError, match=r"r\(n\) < 1"):
            triple_probabilities(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_within_4se_of_monte_carlo(self, power03, n):
        est = triple_probability(power03.r_vector(n), n, samples=2_000_000, seed=19)
        exact = float(triple_probabilities(np.array([power03.r(n)]))[0])
        assert abs(est.estimate - exact) <= 4 * est.se

    def test_below_envelopes(self, power03):
        r = power03.r_vector(4096)[1:]
        exact = triple_probabilities(r)
        assert all(p <= triple_envelope(x) for p, x in zip(exact.tolist(), r.tolist()))
        assert triple_envelope(-0.2) == 0.0

    def test_value_independent_of_block_size(self, power03, monkeypatch):
        r = power03.r_vector(64)[1:]
        ref = triple_probabilities(r)
        for block in (1, 1 << 24):
            monkeypatch.setattr(gaussian, "_TRIPLE_BLOCK", block)
            assert (triple_probabilities(r).view(np.uint64) == ref.view(np.uint64)).all()

    def test_under_resolved_rule_raises(self, monkeypatch):
        monkeypatch.setattr(gaussian, "_TRIPLE_NODES", (2, 3))
        with pytest.raises(RuntimeError, match="triple rule error"):
            triple_probabilities(np.array([0.9]))


class TestTripleHitCounts:
    def test_equals_per_pair_event(self, power03):
        # one stream of (Z_0, Z_1) pairs, read at every lag
        r = power03.r_vector(32)[1:]
        z0, z1 = np.random.default_rng(5).standard_normal((2, 100_000))
        xn = r[:, None] * z0 + np.sqrt(1 - r * r)[:, None] * z1
        yn = 2 * r[:, None] * z0 - xn
        ref = ((z0 > 1) & (xn > 1) & (yn > 1)).sum(axis=1)
        assert (triple_hit_counts(r, 100_000, seed=5) == ref).all()

    def test_independent_of_block_size(self, power03, monkeypatch):
        r = power03.r_vector(32)[1:]
        ref = triple_hit_counts(r, 20_000, seed=6)
        monkeypatch.setattr(gaussian, "_MC_BLOCK", 1)
        assert (triple_hit_counts(r, 20_000, seed=6) == ref).all()

    def test_white_noise_never_hits(self):
        assert (triple_hit_counts(np.zeros(5), 10_000, seed=1) == 0).all()

    @pytest.mark.parametrize("delta", [0.02, 0.3, 0.525])
    def test_equals_brute_force(self, delta):
        # each lag tests only the pairs past its cut just below 1/r; the
        # brute force tests every pair at every lag
        r = power_density_model(delta).r_vector(512)[1:]
        for seed in (0, 1):
            assert np.array_equal(triple_hit_counts(r, 20_000, seed),
                                  oracle_triple_hit_counts(r, 20_000, seed))

    def test_white_model_equals_brute_force(self):
        r = white_noise_model().r_vector(64)[1:]
        assert np.array_equal(triple_hit_counts(r, 20_000, 2),
                              oracle_triple_hit_counts(r, 20_000, 2))

    def test_correlations_at_the_cut(self):
        # r = 1/Z_0 for kept pairs puts fl(r Z_0) at 1 give or take an ulp,
        # where the cut must keep every pair that can hit; with r = 1 and
        # s = 0 every kept pair hits, and r <= 0 none does
        z0 = np.random.default_rng(3).standard_normal((2, 5_000))[0]
        kept = np.sort(z0[z0 > 1.0])
        r = np.concatenate([1.0 / kept, np.nextafter(1.0 / kept, 2.0),
                            np.nextafter(1.0 / kept, 0.0), [1.0, 0.0, -0.5]])
        counts = triple_hit_counts(r, 5_000, 3)
        assert np.array_equal(counts, oracle_triple_hit_counts(r, 5_000, 3))
        assert counts[-3] == kept.size and not counts[-2:].any()

    def test_no_kept_pair(self):
        # a draw with no Z_0 > 1 leaves nothing to compare at any lag
        seed = next(seed for seed in range(100)
                    if np.random.default_rng(seed).standard_normal((2, 1))[0, 0] <= 1.0)
        r = power_density_model(0.3).r_vector(16)[1:]
        counts = triple_hit_counts(r, 1, seed)
        assert counts.shape == (16,) and not counts.any()
        assert np.array_equal(counts, oracle_triple_hit_counts(r, 1, seed))


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
        r = power03.r_vector(32)
        ests = [triple_probability(r, n, samples=20_000).estimate for n in range(1, 33)]
        rep = power_summability(ests, k=2, delta=power03.delta, C=power03.C, H=32)
        assert math.isfinite(rep.total)
        assert rep.head <= rep.total

    def test_too_many_estimates(self):
        with pytest.raises(ValueError):
            power_summability([0.1] * 5, k=2, delta=0.3, C=0.5, H=3)


class TestPowerTail:
    # choose_k's exponents k/2 (the section-2 exponent 1.5 among them) and
    # summability exponents 2 k delta > 1
    EXPONENTS = sorted({k / 2 for k in range(3, K_LIMIT + 1)}
                       | {2 * k * d for k in range(1, 7)
                          for d in (0.05, 0.1, 0.25, 0.3, 0.45, 0.5, 0.7, 0.95)
                          if 2 * k * d > 1})
    HORIZONS = (list(range(16, 130)) + [255, 600, 1000, 2000, 4096, 12345,
                                        10**5, 654321, 10**6])

    def test_bounds_the_zeta_tail(self):
        # sum_{n > H} n^-s = zeta(s, H + 1), up to a few ulps of rounding
        from scipy.special import zeta

        for s in self.EXPONENTS:
            for H in list(range(16)) + self.HORIZONS:
                tail = float(zeta(s, H + 1))
                assert gaussian.power_tail(s, H) >= tail * (1 - 4e-16), (s, H)

    def test_excess_within_midpoint_error(self):
        from scipy.special import zeta

        for s in self.EXPONENTS:
            for H in self.HORIZONS:
                excess = gaussian.power_tail(s, H) / float(zeta(s, H + 1)) - 1.0
                assert excess <= s * (s - 1) / (24 * H * H) + 1e-15, (s, H)

    # H = -1 is the zeta argument q = H + 1 = 0
    @pytest.mark.parametrize("s,H", [(1.0, 5), (0.5, 5), (math.nan, 5),
                                     (2.0, -1), (2.0, -1.5), (2.0, 2.5)])
    def test_outside_domain_rejected(self, s, H):
        with pytest.raises(ValueError, match="power_tail needs"):
            gaussian.power_tail(s, H)

    def test_each_tail_is_its_constant_times_the_bound(self):
        rep = power_summability([0.01] * 20, k=2, delta=0.3, C=0.7, H=40)
        assert rep.tail == 0.7 ** 4 * gaussian.power_tail(2 * 2 * 0.3, 40)
        spec = FieldSpec(dimension=1, k_max=8, doubling=False)
        bc, _ = exp_section2(spec, H=60, samples=4, seed0=1)
        assert bc.tail == (bc.envelope_c / 2.0) ** 3 * gaussian.power_tail(1.5, 60)
        q_hat = np.linspace(0.5, 0.05, 40)
        prof = ComplementProfile(N=40, samples=10, q_hat=q_hat, envelope_c=0.2)
        rep = choose_k(prof)
        assert rep.tail == (math.pi * 0.2) ** rep.k * gaussian.power_tail(rep.k / 2.0, 40)
