import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import PreconditionError, fields
from recurlab.fields import (
    FieldSpec,
    ScaleParams,
    block_bits,
    default_k_max,
    field_nonzeros,
    partial_sums_batch,
    scale_params,
    tail_variance_bound,
)
from recurlab.ranges import certify_distinct, goal_event_plan

from recurlab.prf import hash_words, hash_words_vec

from oracles import (
    ForcedWindow,
    f_at,
    f_k_at,
    field_value,
    field_values_float,
    field_values_vec,
    keyed_block,
    min_low_scale_increment,
    oracle_axes_nonzeros,
    oracle_sums,
    oracle_window_sums,
    plan_windows,
)


class TestScaleParams:
    def test_k1(self):
        sp = scale_params(1)
        assert (sp.p, sp.d, sp.alpha) == (3, 2, 0.5)

    def test_k2(self):
        sp = scale_params(2)
        assert (sp.p, sp.d) == (4, 16)
        assert sp.alpha == pytest.approx(1 / (4 * math.sqrt(2)), abs=1e-12)
        assert sp.alpha == pytest.approx(0.176777, abs=1e-6)

    def test_k3(self):
        sp = scale_params(3)
        assert (sp.p, sp.d) == (9, 512)
        assert sp.alpha == pytest.approx(1 / (9 * math.sqrt(3 * math.log2(3))), abs=1e-15)
        assert sp.alpha == pytest.approx(0.05096, abs=1e-5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            scale_params(0)

    def test_spec_scales_stop_at_int64_periods(self):
        # p_62 = 2^62 fits in an int64 and p_63 = 2^63 + 1 does not
        assert scale_params(fields.K_MAX_LIMIT).p == 2**62 <= np.iinfo(np.int64).max
        assert scale_params(fields.K_MAX_LIMIT + 1).p > np.iinfo(np.int64).max
        assert FieldSpec(dimension=1, k_max=62).k_max == 62
        with pytest.raises(PreconditionError, match="k_max must be <= 62, got 63"):
            FieldSpec(dimension=1, k_max=63)

    def test_lag_is_computed_where_read(self, monkeypatch):
        # d_k = 2^(k k) is a property of k: certify-range's bound checks read
        # only p_k and q_k, at scales up to 1022 for C = 978 (N = 8), where
        # d_k would be a number of about a million bits
        assert "d" not in {f.name for f in dataclasses.fields(ScaleParams)}

        def lag(sp):
            assert sp.k <= fields.K_MAX_LIMIT, f"d_{sp.k} was built"
            return 2 ** (sp.k * sp.k)

        monkeypatch.setattr(ScaleParams, "d", property(lag))
        assert certify_distinct(0, 8, 978, 2).bound_checks[-1][0] == 1022

    @given(st.integers(min_value=1, max_value=40))
    def test_invariants(self, k):
        sp = scale_params(k)
        assert sp.p == (2**k if k % 2 == 0 else 2**k + 1)
        assert sp.d == 2 ** (k * k)
        assert sp.alpha**2 <= 0.5 + 1e-15


def _point(k, i, j, value):
    """A single forced value: a window one value wide."""
    return ForcedWindow(k=k, i=i, lo=j, hi=j + 1, value=value)


def _one_axis(spec, seeds, k, i, lo, hi, lagged=False):
    """(row, packed coordinate, value) of ``field_nonzeros`` on one axis."""
    return field_nonzeros(spec, seeds, [(k, i, lagged, lo, hi)])[1:]


def _dense(spec, seed, k, i, j, lagged=False):
    """The field values that ``field_nonzeros`` lists over the consecutive
    coordinates ``j``, one segment, laid out densely in the broadcast shape
    of ``seed`` and ``j``."""
    row, c, x = _one_axis(spec, seed, k, i, [j[0]], [j[-1] + 1], lagged)
    out = np.zeros((np.size(seed), len(j)), dtype=np.int64)
    out[row, c] = x
    return out.reshape(np.broadcast_shapes(np.shape(seed), np.shape(j)))


class TestFieldValue:
    def test_override_dominates(self):
        # the oracle's forced windows hold their value inside and leave the
        # field alone outside, on the lead axis and in the lag namespace of
        # k = 8, where the window is keyed by d_k + offset
        spec = FieldSpec(dimension=1, k_max=8)
        d = scale_params(8).d
        windows = (ForcedWindow(k=1, i=1, lo=0, hi=6, value=-1),
                   ForcedWindow(k=8, i=1, lo=d, hi=d + 4, value=1))
        for k, base, value in ((1, 0, -1), (8, d, 1)):
            got = [field_value(spec, 1, k, 1, base + j, windows) for j in range(-3, 10)]
            hashed = [field_value(spec, 1, k, 1, base + j) for j in range(-3, 10)]
            width = 6 if k == 1 else 4
            assert got[3 : 3 + width] == [value] * width
            assert got[:3] + got[3 + width :] == hashed[:3] + hashed[3 + width :]

    def test_deterministic(self):
        spec = FieldSpec(dimension=2, k_max=4)
        vals = [field_value(spec, 99, 3, 2, 17) for _ in range(5)]
        assert len(set(vals)) == 1

    def test_out_of_range_scale(self):
        spec = FieldSpec(dimension=1, k_max=2)
        with pytest.raises(ValueError):
            field_value(spec, 1, 3, 1, 0)
        with pytest.raises(ValueError):
            field_value(spec, 1, 1, 2, 0)

    def test_marginal_law(self):
        # empirical nonzero frequency at k=2 vs alpha^2 = 1/32, 4 SE on 1e6 draws
        spec = FieldSpec(dimension=1, k_max=4)
        j = np.arange(10**6)
        vals = _dense(spec, 2024, 2, 1, j)
        q = 1 / 32
        freq = np.mean(vals != 0)
        se = math.sqrt(q * (1 - q) / 10**6)
        assert abs(freq - q) < 4 * se
        # sign symmetry of the marginal
        fp = np.mean(vals == 1)
        fm = np.mean(vals == -1)
        se1 = math.sqrt((q / 2) * (1 - q / 2) / 10**6)
        assert abs(fp - q / 2) < 4 * se1
        assert abs(fm - q / 2) < 4 * se1

    def test_vec_matches_scalar(self):
        spec = FieldSpec(dimension=2, k_max=3)
        j = np.arange(-20, 20)
        vec = _dense(spec, 7, 2, 1, j)
        assert all(vec[idx] == field_value(spec, 7, 2, 1, int(jj)) for idx, jj in enumerate(j))

    def test_zero_spec(self):
        spec = FieldSpec(dimension=1, k_max=3, zero=True)
        assert all(field_value(spec, 7, 1, 1, j) == 0 for j in range(-5, 50))


class TestHashThresholds:
    # field_nonzeros compares the raw hash against integer thresholds; it
    # must equal the float rule u = (h >> 11) 2^-53 < q of field_value

    @pytest.mark.parametrize("k", range(1, 17))
    def test_vec_equals_float_rule(self, k):
        spec = FieldSpec(dimension=2, k_max=16)
        seeds = np.array([[3], [2**63 + 11], [2**64 - 1]], dtype=np.uint64)
        j = np.arange(-64, 1 << 14)
        for i in (1, 2):
            for lagged in (False, True):
                vec = _dense(spec, seeds, k, i, j, lagged)
                assert vec.shape == (3, j.size)
                assert np.array_equal(
                    vec, field_values_float(spec, seeds, k, i, j, lagged))
        assert fields.lag_namespace(k) == (k >= 8)

    def test_float_oracle_matches_scalar(self):
        spec = FieldSpec(dimension=2, k_max=9)
        sp = scale_params(9)
        j = np.arange(-8, 24)
        for k, lagged, shift in ((2, False, 0), (3, True, scale_params(3).d),
                                 (9, True, sp.d)):
            float_rule = field_values_float(spec, 5, k, 2, j, lagged)
            assert float_rule.tolist() == [field_value(spec, 5, k, 2, int(x) + shift)
                                           for x in j]

    @pytest.mark.parametrize("k", range(1, 17))
    def test_threshold_rule_at_its_edge(self, k):
        # m = h >> 11 is the 53-bit mantissa of u; at m = ceil(x 2^53) - 1 the
        # float rule still says u < x, at ceil(x 2^53) it no longer does,
        # whatever the 11 low bits of the hash
        q = scale_params(k).q
        thresholds = fields._thresholds(q)
        for x, threshold in zip((q, q / 2), thresholds):
            edge = math.ceil(x * 2.0**53)
            for m in (edge - 1, edge):
                for low in (0, 1, 2047):
                    h = (m << 11) | low
                    u = (h >> 11) * 2.0**-53
                    assert (u < x) == (m == edge - 1)
                    assert (np.uint64(h) < threshold) == (u < x)


class TestBlockFunction:
    def test_all_zero(self):
        spec = FieldSpec(dimension=1, k_max=1, zero=True)
        assert f_k_at(spec, 0, 1, 1, 0) == 0

    def test_single_forced_at_zero(self):
        # k=1 (p=3, d=2): only the field at time 0 is 1, everything else 0
        spec = FieldSpec(dimension=1, k_max=1, zero=True)
        assert f_k_at(spec, 0, 1, 1, 0, (_point(1, 1, 0, 1),)) == 1

    def test_single_forced_at_two_cancels(self):
        spec = FieldSpec(dimension=1, k_max=1, zero=True)
        assert f_k_at(spec, 0, 1, 1, 0, (_point(1, 1, 2, 1),)) == 0

    def test_bounded(self):
        spec = FieldSpec(dimension=1, k_max=2)
        for t in range(-10, 30):
            for k in (1, 2):
                assert abs(f_k_at(spec, 5, k, 1, t)) <= 2 * scale_params(k).p

    def test_f_at_doubling_and_independence(self):
        spec = FieldSpec(dimension=2, k_max=1, zero=True, doubling=True)
        assert f_at(spec, 0, 0, (_point(1, 1, 0, 1),)) == (2, 0)
        # coordinate 1 unaffected by values forced on coordinate 2
        spec2 = FieldSpec(dimension=2, k_max=2)
        for t in range(-3, 8):
            assert f_at(spec2, 11, t, (_point(1, 2, 3, 1),))[0] == f_at(spec2, 11, t)[0]


class TestPartialSums:
    def test_trivial_window(self):
        spec = FieldSpec(dimension=2, k_max=2)
        path = partial_sums_batch(spec, [3], (0, 0))[0]
        assert path.shape == (1, 2)
        assert (path[0] == 0).all()

    def test_zero_field(self):
        spec = FieldSpec(dimension=2, k_max=3, zero=True)
        path = partial_sums_batch(spec, [3], (-4, 6))[0]
        assert (path == 0).all()

    def test_matches_direct_sum(self):
        spec = FieldSpec(dimension=2, k_max=3, doubling=True)
        path = partial_sums_batch(spec, [42], (-6, 10))[0]
        for n in range(0, 11):
            direct = np.sum([f_at(spec, 42, t) for t in range(n)], axis=0) if n else np.zeros(2)
            assert (path[n + 6] == direct).all()
        for n in range(-6, 0):
            direct = -np.sum([f_at(spec, 42, t) for t in range(n, 0)], axis=0)
            assert (path[n + 6] == direct).all()

    def test_parity_under_doubling(self):
        spec = FieldSpec(dimension=2, k_max=3, doubling=True)
        path = partial_sums_batch(spec, [13], (-5, 20))[0]
        assert (path % 2 == 0).all()

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_cocycle_identity(self, n, m, seed):
        # S_{n+m} = S_n + (the increments over [n, n + m)), whatever window
        # the sums are read from
        spec = FieldSpec(dimension=1, k_max=2, doubling=False)
        full = partial_sums_batch(spec, [seed], (-m, n + m))[0]
        steps = [f_at(spec, seed, t) for t in range(n, n + m)]
        later = np.sum(steps, axis=0) if m else np.zeros(1)
        assert (full[m + n + m] == full[m + n] + later).all()
        assert (full[m:] == partial_sums_batch(spec, [seed], (0, n + m))[0]).all()
        assert (full == oracle_sums(spec, seed, (-m, n + m))).all()

    def test_sign_symmetry(self):
        # forcing every value the window reads to its negation, in the
        # oracle, negates the kernel's whole path
        spec = FieldSpec(dimension=1, k_max=2)
        a, b = -4, 12
        flipped = tuple(
            _point(k, 1, j, -field_value(spec, 77, k, 1, j))
            for k in (1, 2)
            for base in (0, scale_params(k).d)
            for j in range(base + a, base + b + scale_params(k).p - 1))
        pos = partial_sums_batch(spec, [77], (a, b))[0]
        neg = oracle_sums(spec, 77, (a, b), flipped)
        assert (pos == -neg).all()
        assert (pos != 0).any()

    def test_bad_window(self):
        spec = FieldSpec(dimension=1, k_max=1)
        with pytest.raises(ValueError):
            partial_sums_batch(spec, [1], (3, 1))

    def test_batch_matches_single(self):
        seeds = np.array([5, 6, 7], dtype=np.uint64)
        spec = FieldSpec(dimension=2, k_max=3, doubling=True)
        batch = partial_sums_batch(spec, seeds, (-3, 12))
        for idx, s in enumerate(seeds):
            single = partial_sums_batch(spec, [s], (-3, 12))[0]
            assert (batch[idx] == single).all()
            assert (single == oracle_sums(spec, int(s), (-3, 12))).all()

    def test_batch_chunks_match_whole_block(self, monkeypatch):
        # 7 seeds over (-3, 20): scale 1 reads 25 values per seed, so an
        # 80-value block holds 3 rows and the seeds run in chunks of 3, 3, 1
        seeds = np.arange(100, 107, dtype=np.uint64)
        spec = FieldSpec(dimension=2, k_max=5, doubling=True)
        whole = partial_sums_batch(spec, seeds, (-3, 20))
        monkeypatch.setattr(fields, "_BLOCK_ELEMS", 80)
        chunked = partial_sums_batch(spec, seeds, (-3, 20))
        assert (chunked == whole).all()


class TestScatterKernel:
    # the scatter kernel over nonzero values against the dense prefix-sum
    # kernel it replaced, which reads every value of every window

    # the scales each coordinate reads when not every one: gaps on both
    # coordinates, and k = 8, in the lag namespace, on the first only
    PARTIAL = ((1, 3, 8, 9), (2, 3, 9))
    SEEDS = np.array([0, 5, 2**63 + 1, 2**64 - 1, 99], dtype=np.uint64)

    @staticmethod
    def _read(spec, partial, lists=PARTIAL):
        """Scale lists of the kernel and of the oracle: every scale of the
        spec unless ``partial``, else ``lists`` cut to the spec's scales."""
        if not partial:
            return None, None
        ks = [[k for k in lists[i] if spec.k_min <= k <= spec.k_max]
              for i in range(spec.dimension)]
        return [list(map(scale_params, read)) for read in ks], ks

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("doubling", [False, True])
    @pytest.mark.parametrize("window", [(0, 0), (0, 1), (0, 37), (-9, 0), (-6, 25)])
    @pytest.mark.parametrize("partial", [False, True])
    def test_equals_dense_oracle(self, dimension, doubling, window, partial):
        spec = FieldSpec(dimension=dimension, k_min=1, k_max=9, doubling=doubling)
        scales, ks = self._read(spec, partial)
        got = partial_sums_batch(spec, self.SEEDS, window, scales)
        assert got.shape == (self.SEEDS.size, window[1] - window[0] + 1, dimension)
        assert np.array_equal(got, oracle_window_sums(spec, self.SEEDS, window, ks))

    @pytest.mark.parametrize("k_min,k_max", [(1, 1), (2, 4), (8, 10)])
    def test_scale_bands(self, k_min, k_max):
        spec = FieldSpec(dimension=2, k_min=k_min, k_max=k_max)
        got = partial_sums_batch(spec, self.SEEDS, (-4, 30))
        assert np.array_equal(got, oracle_window_sums(spec, self.SEEDS, (-4, 30)))
        # a coordinate that reads no scale stays at 0
        scales, ks = self._read(spec, True, ((), range(k_min, k_max + 1)))
        part = partial_sums_batch(spec, self.SEEDS, (-4, 30), scales)
        assert (part[:, :, 0] == 0).all() and np.array_equal(part[:, :, 1], got[:, :, 1])

    @pytest.mark.parametrize("partial", [False, True])
    def test_zero_field(self, partial):
        spec = FieldSpec(dimension=2, k_max=9, zero=True)
        scales, ks = self._read(spec, partial)
        got = partial_sums_batch(spec, self.SEEDS, (-5, 20), scales)
        assert np.array_equal(got, oracle_window_sums(spec, self.SEEDS, (-5, 20), ks))
        assert (got == 0).all()

    def test_row_blocks(self, monkeypatch):
        # at 40 values per block, scale 1's 39-value window runs one row
        # per chunk, and scale 2's 40-value window is hashed a row per block
        spec = FieldSpec(dimension=2, k_max=9)
        scales, ks = self._read(spec, True)
        whole = partial_sums_batch(spec, self.SEEDS, (-7, 30), scales)
        monkeypatch.setattr(fields, "_BLOCK_ELEMS", 40)
        assert np.array_equal(partial_sums_batch(spec, self.SEEDS, (-7, 30), scales), whole)
        assert np.array_equal(whole, oracle_window_sums(spec, self.SEEDS, (-7, 30), ks))

    def test_oracle_values_equal_nonzeros(self):
        spec = FieldSpec(dimension=2, k_max=9)
        j = np.arange(-20, 300)
        for k, lagged in ((1, False), (3, True), (8, True), (9, False)):
            seeds = self.SEEDS[:, None]
            assert np.array_equal(field_values_vec(spec, seeds, k, 2, j, lagged),
                                  _dense(spec, seeds, k, 2, j, lagged))


class TestHugeLagScales:
    # at k = 8 the lag 2^64 no longer fits the coordinate word; the lagged
    # window lives in its own address namespace and must stay independent
    # of the lead window rather than aliasing onto it

    def test_lag_values_not_aliased(self):
        spec = FieldSpec(dimension=1, k_max=8)
        sp = scale_params(8)
        j = np.arange(4 * 10**5)
        lead = _dense(spec, 314, 8, 1, j)
        lag = _dense(spec, 314, 8, 1, j, lagged=True)
        assert (lead != lag).any() or (lead == 0).all()
        # joint nonzero frequency ~ q^2, far below the aliased value q
        both = np.mean((lead != 0) & (lag != 0))
        q = sp.q
        assert both < q / 2

    def test_scalar_matches_vec_in_lag_region(self):
        spec = FieldSpec(dimension=1, k_max=8)
        sp = scale_params(8)
        vec = _dense(spec, 9, 8, 1, np.arange(-3, 10), lagged=True)
        for idx, t in enumerate(range(-3, 10)):
            assert vec[idx] == field_value(spec, 9, 8, 1, t + sp.d)

    def test_small_scale_lagged_is_absolute(self):
        spec = FieldSpec(dimension=1, k_max=3)
        sp = scale_params(3)
        vec = _dense(spec, 9, 3, 1, np.arange(0, 20), lagged=True)
        direct = _dense(spec, 9, 3, 1, sp.d + np.arange(0, 20))
        assert (vec == direct).all()

    def test_batch_matches_single_at_k8(self):
        seeds = np.array([21, 22], dtype=np.uint64)
        spec = FieldSpec(dimension=1, k_max=8, doubling=False)
        batch = partial_sums_batch(spec, seeds, (0, 6))
        for idx, s in enumerate(seeds):
            single = partial_sums_batch(spec, [s], (0, 6))[0]
            assert (batch[idx] == single).all()
            assert (single == oracle_sums(spec, int(s), (0, 6))).all()


class TestConditioning:
    def test_goal_plan_small(self):
        # scales 1 and 2 (p = 3, 4) can move an increment by -14, which C = 1
        # does not dominate
        with pytest.raises(PreconditionError, match="dominate"):
            goal_event_plan(N=2, C=1)
        plan = goal_event_plan(N=2)
        # kappa: smallest k with p_k > 4 -> k = 3 (p=9); K: 2 p_K < d_K holds
        # at 3; the band 9 + 16 passes C = 15 at k = 4
        assert (plan.C, plan.M, plan.kappa, plan.K, plan.k_max) == (15, -14, 3, 3, 4)
        ones = [w for w in plan_windows(plan) if w.value == 1]
        assert ones and all(w.lo == 0 and w.hi == scale_params(w.k).p + 4 for w in ones)

    def test_plan_forces_window_conditions(self):
        # the cylinder holds every value of its scales that the path over
        # (0, 2N) reads: [0, p_k + 2N - 1) on the lead and the lag axis
        plan = goal_event_plan(N=2, C=40)
        assert (plan.kappa, plan.K, plan.k_max) == (3, 3, 5)
        windows = plan_windows(plan)
        spec = FieldSpec(dimension=2, k_max=plan.k_max)
        for k in range(plan.kappa, plan.k_max + 1):
            sp = scale_params(k)
            for j in range(sp.p + 4):
                assert field_value(spec, 10, k, 1, j, windows) == 1
                assert field_value(spec, 10, k, 1, sp.d + j, windows) == 0

    def test_monotone_event_on_conditioned_samples(self):
        # every conditioned sample has strictly increasing first-coordinate
        # sums, and its path is the kernel's over the scales below kappa on
        # the first coordinate plus the band, 2 y t with y = sum of p_k
        N, C = 2, -min_low_scale_increment(2) + 1
        plan = goal_event_plan(N=N, C=C)
        windows = plan_windows(plan)
        spec = FieldSpec(dimension=2, doubling=True, k_max=plan.k_max)
        scales = spec.scales()
        band = 2 * sum(sp.p for sp in scales[plan.K - 1:]) * np.arange(2 * N + 1)
        paths = partial_sums_batch(spec, np.arange(20), (0, 2 * N),
                                   [scales[: plan.kappa - 1], scales])
        paths[:, :, 0] += band
        assert (np.diff(paths[:, :, 0], axis=1) > 0).all()
        for seed in range(3):
            want = oracle_sums(spec, seed, (0, 2 * N), windows)
            assert (paths[seed] == want).all()


class TestTruncation:
    def test_default_k_max(self):
        assert default_k_max(64) == 8
        assert default_k_max(10**9) == 32

    def test_tail_bound_decreases(self):
        assert tail_variance_bound(64, 10) < tail_variance_bound(64, 8)
        assert tail_variance_bound(64, 8) > 0


class TestKeyedBlocks:
    # scales from k = 3 on are realized in keyed blocks of 2^b values: a
    # Binomial(2^b, q) count, then distinct uniform positions with fair signs

    SEEDS = np.arange(40, dtype=np.uint64) * 7919 + 3

    @staticmethod
    def _p_value(observed, expected):
        from scipy.stats import chi2
        stat = float(((observed - expected) ** 2 / expected).sum())
        return chi2.sf(stat, observed.size - 1)

    @pytest.mark.parametrize("k,blocks", [(3, 2000), (4, 1000), (8, 500), (12, 500)])
    def test_law_chi_square(self, k, blocks):
        q = scale_params(k).q
        b = fields.block_bits(q)
        assert q * 2.0**b <= 1.0 < q * 2.0 ** (b + 1)
        spec = FieldSpec(dimension=1, k_max=k)
        row, c, x = _one_axis(spec, self.SEEDS, k, 1, [0], [blocks << b])
        # counts per block against the binomial, the tail from 4 on pooled
        per_block = np.bincount(row * blocks + (c >> b), minlength=self.SEEDS.size * blocks)
        observed = np.bincount(np.minimum(per_block, 4), minlength=5)
        from scipy.stats import binom
        pmf = binom.pmf(np.arange(4), 2**b, q)
        expected = per_block.size * np.append(pmf, 1.0 - pmf.sum())
        assert self._p_value(observed, expected) > 1e-3
        # positions in 64 equal bins of a block, and signs
        bins = np.bincount((c & ((1 << b) - 1)) >> (b - 6), minlength=64)
        assert self._p_value(bins, np.full(64, c.size / 64)) > 1e-3
        signs = np.array([(x > 0).sum(), (x < 0).sum()])
        assert self._p_value(signs, np.full(2, x.size / 2)) > 1e-3

    @pytest.mark.parametrize("k", [3, 7, 8, 13, 28, 29, 30])
    def test_equals_block_oracle(self, k):
        # every block that two segments touch, each cut at both ends, one
        # negative, against the scalar block oracle
        b = fields.block_bits(scale_params(k).q)
        size = 1 << b
        lo, hi = [-size + 5, size // 2], [-3, size + size // 4]
        spec = FieldSpec(dimension=2, k_max=k)
        for seed in self.SEEDS[:8].tolist():
            for lagged in (False, True):
                row, c, x = _one_axis(spec, seed, k, 2, lo, hi, lagged)
                lag = lagged and fields.lag_namespace(k)
                shift = scale_params(k).d if lagged and not lag else 0
                want = []
                for block in range((lo[0] + shift) >> b, ((hi[1] - 1 + shift) >> b) + 1):
                    for pos, v in sorted(keyed_block(seed, k, 2, lag, block).items()):
                        j = block * size + pos - shift
                        for s, (a, z) in enumerate(zip(lo, hi)):
                            if a <= j < z:
                                start = sum(h - l for l, h in zip(lo[:s], hi[:s]))
                                want.append((0, j - a + start, v))
                assert list(zip(row.tolist(), c.tolist(), x.tolist())) == sorted(want)

    def test_repeated_positions_are_redrawn(self):
        # at k = 3 a block of 256 values with c nonzeros draws a position
        # twice with probability about c^2 / 512: some blocks of 40 seeds x
        # 2000 blocks must redraw, and every block still holds c distinct
        # positions, as the oracle's
        spec = FieldSpec(dimension=1, k_max=3)
        row, c, x = _one_axis(spec, self.SEEDS, 3, 1, [0], [2000 << 8])
        redrawn = 0
        for r, block in set(zip(row.tolist(), (c >> 8).tolist())):
            held = keyed_block(int(self.SEEDS[r]), 3, 1, False, block)
            first = [hash_words(int(self.SEEDS[r]), fields.TAG_FIELD, 3, 1,
                                fields._POSITION, block, t) >> 56 for t in range(len(held))]
            redrawn += len(set(first)) < len(held)
            mine = c[(row == r) & (c >> 8 == block)] & 255
            assert sorted(mine.tolist()) == sorted(held)
        assert redrawn > 0

    @pytest.mark.parametrize("k", [3, 8, 12, 29])
    def test_sub_window_is_restriction(self, k):
        # a window's nonzeros are the larger window's, restricted; several
        # segments read what one segment over their hull reads there
        size = 1 << fields.block_bits(scale_params(k).q)
        spec = FieldSpec(dimension=1, k_max=k)
        lo0, hi0 = -size // 2, size + size // 4
        for lagged in (False, True):
            row, c, x = _one_axis(spec, self.SEEDS, k, 1, [lo0], [hi0], lagged)
            whole = set(zip(row.tolist(), (c + lo0).tolist(), x.tolist()))
            lo = [lo0 + size // 8, -size // 5, size + 1]
            hi = [-size // 4, size // 7, hi0 - size // 9]
            row, c, x = _one_axis(spec, self.SEEDS, k, 1, lo, hi, lagged)
            starts = np.cumsum([0] + [h - l for l, h in zip(lo, hi)])
            seg = np.searchsorted(starts, c, side="right") - 1
            j = c - starts[seg] + np.array(lo)[seg]
            part = set(zip(row.tolist(), j.tolist(), x.tolist()))
            assert part == {(r, jj, v) for r, jj, v in whole
                            if any(a <= jj < z for a, z in zip(lo, hi))}
            assert part

    def test_count_table_computed_once_per_scale(self):
        # the count thresholds depend on (q_k, b_k) alone; repeated reads of
        # one scale reuse one read-only table
        fields._count_thresholds.cache_clear()
        spec = FieldSpec(dimension=1, k_max=5)
        for seed in self.SEEDS[:5].tolist():
            for k in (3, 4, 5):
                _one_axis(spec, seed, k, 1, [0], [1 << 12])
        info = fields._count_thresholds.cache_info()
        assert (info.misses, info.hits) == (3, 12)
        with pytest.raises(ValueError, match="read-only"):
            fields._count_thresholds(scale_params(3).q, 8)[0] = 0


class TestHashCount:
    def test_recur2_shape(self, monkeypatch):
        # recur2's benchmark shape: 900 seeds over (0, 600) at k_max 12.
        # One hash per value of every scale made 30.3 M hashes; with keyed
        # blocks from k = 3 on, scales 1 and 2 make almost all of 2.2 M
        hashed = []

        def counting(seed, words, *js):
            h = hash_words_vec(seed, words, *js)
            hashed.append(h.size)
            return h

        monkeypatch.setattr(fields, "hash_words_vec", counting)
        partial_sums_batch(FieldSpec(dimension=1, k_max=12, doubling=False),
                           np.arange(900, dtype=np.uint64), (0, 600))
        assert sum(hashed) < 3_000_000
        # the keyed blocks of every scale and role in a row chunk go through
        # one read, in one hash call per word layout and draw round (54
        # calls when each axis was read alone); the hashes are the same
        assert sum(hashed) == 2_206_420 and len(hashed) <= 44


class TestMultiAxisReader:
    # field_nonzeros over many axes at once against one per-axis read each
    # (tests/oracles.py:oracle_field_nonzeros), laid end to end

    SEEDS = np.array([0, 2**64 - 1, 12345, 2**63 + 7], dtype=np.uint64)

    @staticmethod
    def _mixed():
        """Dense, keyed and lag-namespace axes, on both coordinates and in
        both roles, over a negative segment and a positive one that cut the
        keyed blocks at both ends; an axis without segments, and one whose
        only segment is empty."""
        axes = []
        for k in (1, 2, 3, 5, 8, 9, 13, 29):
            size = 1 << max(8, block_bits(scale_params(k).q))
            for i, lagged in ((1, False), (2, True), (1, True)):
                axes.append((k, i, lagged, [-size // 2 + 5, 40], [-3, 40 + size // 4]))
        axes.insert(3, (4, 1, False, [], []))
        axes.insert(7, (3, 2, True, [17], [17]))
        return axes

    @staticmethod
    def _assert_equal(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("seeds", [[0], [2**64 - 1], SEEDS])
    def test_equals_per_axis_reads(self, seeds):
        spec = FieldSpec(dimension=2, k_max=29)
        got = field_nonzeros(spec, seeds, self._mixed())
        self._assert_equal(got, oracle_axes_nonzeros(spec, seeds, self._mixed()))
        held = set(got[0].tolist())
        assert not {3, 7} & held  # no segment, an empty one
        if len(seeds) > 1:
            assert {0, 8, 15} <= held  # dense, keyed, the lag namespace

    @pytest.mark.parametrize("block", [5, 37, 1000])
    def test_chunks_split_anywhere(self, monkeypatch, block):
        # chunks of (block, row) pairs and of dense values that cut axes,
        # blocks and rows at other points read the same values
        spec = FieldSpec(dimension=2, k_max=29)
        whole = field_nonzeros(spec, self.SEEDS, self._mixed())
        monkeypatch.setattr(fields, "_BLOCK_ELEMS", block)
        self._assert_equal(field_nonzeros(spec, self.SEEDS, self._mixed()), whole)

    def test_hulls_past_the_line_split(self):
        # six hulls of 2^62 values each pass the 2^64 of one uint64 line:
        # the axes go through in halves, with the same values
        spec = FieldSpec(dimension=2, k_max=8)
        axes = [(k, i, lagged, [-2**61, 2**61], [-2**61 + 3000, 2**61 + 3000])
                for k, lagged in ((3, False), (3, True), (4, False)) for i in (1, 2)]
        got = field_nonzeros(spec, self.SEEDS, axes)
        self._assert_equal(got, oracle_axes_nonzeros(spec, self.SEEDS, axes))
        assert got[0].size and set(got[0].tolist()) == set(range(6))

    def test_hashes_the_same_addresses(self, monkeypatch):
        # the batch hashes exactly the values the per-axis reads hash, in
        # fewer calls
        import oracles

        spec = FieldSpec(dimension=2, k_max=29)
        for module in (fields, oracles):
            hashed = []

            def counting(seed, words, *js, hashed=hashed):
                h = hash_words_vec(seed, words, *js)
                hashed.append(h.reshape(-1))
                return h

            monkeypatch.setattr(module, "hash_words_vec", counting)
            read = field_nonzeros if module is fields else oracle_axes_nonzeros
            read(spec, self.SEEDS, self._mixed())
            module.hashed = np.sort(np.concatenate(hashed)), len(hashed)
        assert np.array_equal(fields.hashed[0], oracles.hashed[0])
        assert fields.hashed[1] < oracles.hashed[1]

    def test_zero_and_empty(self):
        for spec, axes in ((FieldSpec(zero=True), self._mixed()), (FieldSpec(), [])):
            got = field_nonzeros(spec, self.SEEDS, axes)
            assert len(got) == 4 and all(a.size == 0 and a.dtype == np.int64 for a in got)
