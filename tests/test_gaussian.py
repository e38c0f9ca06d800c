import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh, toeplitz

from oracles import oracle_circulant_paths, oracle_power_r
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
        r = power03.r_vector(1024)
        assert len(power03.table) == 513
        assert r[:513].tolist() == list(power03.table)
        ref = np.array([oracle_power_r(0.3, n) for n in range(513, 1025)])
        assert np.abs(r[513:] - ref).max() <= 1e-13
        # a lag's value does not depend on which other lags were asked for
        for n in (513, 600, 700, 1000):
            assert power03.r(n) == r[n], n

    @pytest.mark.parametrize("delta", [0.02, 0.3, 0.98])
    def test_table_is_prefix_of_longer_computation(self, delta):
        r = gaussian._power_cov(delta, np.arange(1, 4097))
        table = np.array(power_density_model(delta).table[1:])
        assert (r[:512].view(np.uint64) == table.view(np.uint64)).all()

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

    def test_rejection_carries_eigenvalue(self):
        # r = (1, 1.5, 0, 0, 0) is not a covariance: its circulant embedding
        # has eigenvalues 1 + 3 cos(2 pi j / 8), the smallest -2 at j = 4
        bad = SpectralModel(family="white", delta=1.0, C=0.0, table=(1.0, 1.5))
        with pytest.raises(PsdError) as exc:
            sample_paths(bad, 4, size=2, seed=0)
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

    def test_constant_model_gives_constant_paths(self):
        # the circulant embedding of the rank-one covariance is nonnegative,
        # so it samples exactly constant paths
        paths = sample_paths(CONSTANT, 8, size=50, seed=7)
        assert (paths == paths[:, :1]).all()

    def test_single_point_paths_are_the_first_draws(self, power03):
        # at N = 0 the embedding is [r(0)] = [1], and the paths are the
        # first standard normal draws of the seed's stream
        paths = sample_paths(power03, 0, size=7, seed=13)
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
        paths = sample_paths(power03, 64, size=10, seed=9)
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
            sample_paths(power03, N, size=size, seed=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * size * M + 8 * size * (N + 1) + 4 * 16 * gaussian._FFT_BLOCK


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


class TestHurwitzZeta:
    # the section-2 exponent 1.5 and summability exponents 2 k delta > 1
    EXPONENTS = sorted({1.5} | {2 * k * d for k in range(1, 7)
                                for d in (0.05, 0.1, 0.25, 0.3, 0.45, 0.5, 0.7, 0.95)
                                if 2 * k * d > 1})
    HORIZONS = (list(range(16, 130)) + [255, 600, 1000, 2000, 4096, 12345,
                                        10**5, 654321, 10**6])

    def test_equals_scipy_bit_for_bit(self):
        from scipy.special import zeta

        for s in self.EXPONENTS:
            for H in self.HORIZONS:
                assert gaussian.hurwitz_zeta(s, H + 1) == float(zeta(s, H + 1)), (s, H)

    def test_small_and_huge_arguments(self):
        # the direct sum below a = 9 and the asymptotic form beyond 1e8
        from scipy.special import zeta

        for s in (1.01, 1.5, 2.0, 3.3):
            for q in (0.25, 1.0, 2.0, 8.5, 9.0, 1e8, 1e8 + 1, 3e9):
                assert gaussian.hurwitz_zeta(s, q) == float(zeta(s, q)), (s, q)
        assert gaussian.hurwitz_zeta(2.0, 1) == pytest.approx(math.pi**2 / 6, rel=1e-15)

    @pytest.mark.parametrize("s,q", [(1.0, 5), (0.5, 5), (2.0, 0), (2.0, -1.5)])
    def test_outside_domain_rejected(self, s, q):
        with pytest.raises(ValueError):
            gaussian.hurwitz_zeta(s, q)
