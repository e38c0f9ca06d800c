import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import fields
from recurlab.fields import (
    ConditioningPlan,
    FieldSpec,
    ForcedWindow,
    conditioned_spec,
    default_k_max,
    field_values_vec,
    goal_event_plan,
    min_low_scale_increment,
    partial_sums,
    partial_sums_batch,
    scale_params,
    shift_base,
    tail_variance_bound,
)

from oracles import f_at, f_k_at, field_value, oracle_sums


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

    @given(st.integers(min_value=1, max_value=40))
    def test_invariants(self, k):
        sp = scale_params(k)
        assert sp.p == (2**k if k % 2 == 0 else 2**k + 1)
        assert sp.d == 2 ** (k * k)
        assert sp.alpha**2 <= 0.5 + 1e-15


def _point(k, i, j, value):
    """A single forced value: a window one value wide."""
    return ForcedWindow(k=k, i=i, lo=j, hi=j + 1, value=value)


class TestFieldValue:
    def test_override_dominates(self):
        spec = FieldSpec(seed=1, dimension=1, k_max=2, windows=(_point(1, 1, 0, 1),))
        assert field_value(spec, 1, 1, 0) == 1
        # the first of overlapping windows wins, one value wide or wider
        spec = FieldSpec(seed=1, dimension=1, k_max=2,
                         windows=(_point(1, 1, 4, 0), _point(2, 1, 5, 1),
                                  ForcedWindow(k=1, i=1, lo=0, hi=6, value=1),
                                  ForcedWindow(k=1, i=1, lo=3, hi=10, value=-1)))
        j = np.arange(-3, 12)
        vec = field_values_vec(spec, 1, 1, j)
        assert vec.tolist() == [field_value(spec, 1, 1, int(x)) for x in j]
        assert vec[3:13].tolist() == [1, 1, 1, 1, 0, 1, -1, -1, -1, -1]

    def test_deterministic(self):
        spec = FieldSpec(seed=99, dimension=2, k_max=4)
        vals = [field_value(spec, 3, 2, 17) for _ in range(5)]
        assert len(set(vals)) == 1

    def test_out_of_range_scale(self):
        spec = FieldSpec(seed=1, dimension=1, k_max=2)
        with pytest.raises(ValueError):
            field_value(spec, 3, 1, 0)
        with pytest.raises(ValueError):
            field_value(spec, 1, 2, 0)

    def test_marginal_law(self):
        # empirical nonzero frequency at k=2 vs alpha^2 = 1/32, 4 SE on 1e6 draws
        spec = FieldSpec(seed=2024, dimension=1, k_max=4)
        j = np.arange(10**6)
        vals = field_values_vec(spec, 2, 1, j)
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
        spec = FieldSpec(seed=7, dimension=2, k_max=3)
        j = np.arange(-20, 20)
        vec = field_values_vec(spec, 2, 1, j)
        assert all(vec[idx] == field_value(spec, 2, 1, int(jj)) for idx, jj in enumerate(j))

    def test_zero_spec(self):
        spec = FieldSpec(seed=7, dimension=1, k_max=3, zero=True)
        assert all(field_value(spec, 1, 1, j) == 0 for j in range(-5, 50))


class TestBlockFunction:
    def test_all_zero(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=1, zero=True)
        assert f_k_at(spec, 1, 1, 0) == 0

    def test_single_forced_at_zero(self):
        # k=1 (p=3, d=2): only the field at time 0 is 1, everything else 0
        spec = FieldSpec(seed=0, dimension=1, k_max=1, zero=True, windows=(_point(1, 1, 0, 1),))
        assert f_k_at(spec, 1, 1, 0) == 1

    def test_single_forced_at_two_cancels(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=1, zero=True, windows=(_point(1, 1, 2, 1),))
        assert f_k_at(spec, 1, 1, 0) == 0

    def test_bounded(self):
        spec = FieldSpec(seed=5, dimension=1, k_max=2)
        for t in range(-10, 30):
            for k in (1, 2):
                assert abs(f_k_at(spec, k, 1, t)) <= 2 * scale_params(k).p

    def test_f_at_doubling_and_independence(self):
        spec = FieldSpec(seed=0, dimension=2, k_max=1, zero=True, doubling=True,
                         windows=(_point(1, 1, 0, 1),))
        assert f_at(spec, 0) == (2, 0)
        # coordinate 1 unaffected by values forced on coordinate 2
        spec2 = FieldSpec(seed=11, dimension=2, k_max=2, windows=(_point(1, 2, 3, 1),))
        spec3 = FieldSpec(seed=11, dimension=2, k_max=2)
        for t in range(-3, 8):
            assert f_at(spec2, t)[0] == f_at(spec3, t)[0]


class TestPartialSums:
    def test_trivial_window(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=2)
        path = partial_sums(spec, (0, 0))
        assert path.values.shape == (1, 2)
        assert (path.at(0) == 0).all()

    def test_zero_field(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=3, zero=True)
        path = partial_sums(spec, (-4, 6))
        assert (path.values == 0).all()

    def test_matches_direct_sum(self):
        spec = FieldSpec(seed=42, dimension=2, k_max=3, doubling=True)
        path = partial_sums(spec, (-6, 10))
        for n in range(0, 11):
            direct = np.sum([f_at(spec, t) for t in range(n)], axis=0) if n else np.zeros(2)
            assert (path.at(n) == direct).all()
        for n in range(-6, 0):
            direct = -np.sum([f_at(spec, t) for t in range(n, 0)], axis=0)
            assert (path.at(n) == direct).all()

    def test_parity_under_doubling(self):
        spec = FieldSpec(seed=13, dimension=2, k_max=3, doubling=True)
        path = partial_sums(spec, (-5, 20))
        assert (path.values % 2 == 0).all()

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_cocycle_identity(self, n, m, seed):
        spec = FieldSpec(seed=seed, dimension=1, k_max=2, doubling=False)
        full = partial_sums(spec, (0, n + m))
        first = partial_sums(spec, (0, n))
        shifted = shift_base(spec, n)
        second = partial_sums(shifted, (0, m))
        assert (full.at(n + m) == first.at(n) + second.at(m)).all()
        assert (full.values == oracle_sums(spec, (0, n + m))).all()
        assert (second.values == oracle_sums(shifted, (0, m))).all()

    def test_sign_symmetry(self):
        # forcing every value the window reads to its negation negates the
        # whole path
        spec = FieldSpec(seed=77, dimension=1, k_max=2)
        a, b = -4, 12
        flipped = tuple(
            _point(k, 1, j, -field_value(spec, k, 1, j))
            for k in (1, 2)
            for base in (0, scale_params(k).d)
            for j in range(base + a, base + b + scale_params(k).p - 1))
        pos = partial_sums(spec, (a, b))
        neg = partial_sums(FieldSpec(seed=77, dimension=1, k_max=2,
                                     windows=flipped), (a, b))
        assert (pos.values == -neg.values).all()
        assert (pos.values != 0).any()

    def test_bad_window(self):
        spec = FieldSpec(seed=1, dimension=1, k_max=1)
        with pytest.raises(ValueError):
            partial_sums(spec, (3, 1))

    def test_batch_matches_single(self):
        seeds = np.array([5, 6, 7], dtype=np.uint64)
        batch = partial_sums_batch(seeds, (-3, 12), dimension=2, k_max=3, doubling=True)
        for idx, s in enumerate(seeds):
            spec = FieldSpec(seed=int(s), dimension=2, k_max=3, doubling=True)
            single = partial_sums(spec, (-3, 12))
            assert (batch[idx] == single.values).all()
            assert (single.values == oracle_sums(spec, (-3, 12))).all()

    def test_batch_chunks_match_whole_block(self, monkeypatch):
        # 7 seeds over (-3, 20): scale 1 reads 25 values per seed, so an
        # 80-value block holds 3 rows and the seeds run in chunks of 3, 3, 1
        seeds = np.arange(100, 107, dtype=np.uint64)
        whole = partial_sums_batch(seeds, (-3, 20), dimension=2, k_max=5, doubling=True)
        monkeypatch.setattr(fields, "_BLOCK_ELEMS", 80)
        chunked = partial_sums_batch(seeds, (-3, 20), dimension=2, k_max=5, doubling=True)
        assert (chunked == whole).all()


class TestHugeLagScales:
    # at k = 8 the lag 2^64 no longer fits the coordinate word; the lagged
    # window lives in its own address namespace and must stay independent
    # of the lead window rather than aliasing onto it

    def test_lag_values_not_aliased(self):
        spec = FieldSpec(seed=314, dimension=1, k_max=8)
        sp = scale_params(8)
        j = np.arange(4 * 10**5)
        lead = field_values_vec(spec, 8, 1, j)
        lag = field_values_vec(spec, 8, 1, j, lagged=True)
        assert (lead != lag).any() or (lead == 0).all()
        # joint nonzero frequency ~ q^2, far below the aliased value q
        both = np.mean((lead != 0) & (lag != 0))
        q = sp.q
        assert both < q / 2

    def test_scalar_matches_vec_in_lag_region(self):
        spec = FieldSpec(seed=9, dimension=1, k_max=8)
        sp = scale_params(8)
        vec = field_values_vec(spec, 8, 1, np.arange(-3, 10), lagged=True)
        for idx, t in enumerate(range(-3, 10)):
            assert vec[idx] == field_value(spec, 8, 1, t + sp.d)

    def test_small_scale_lagged_is_absolute(self):
        spec = FieldSpec(seed=9, dimension=1, k_max=3)
        sp = scale_params(3)
        vec = field_values_vec(spec, 3, 1, np.arange(0, 20), lagged=True)
        direct = field_values_vec(spec, 3, 1, sp.d + np.arange(0, 20))
        assert (vec == direct).all()

    def test_batch_matches_single_at_k8(self):
        seeds = np.array([21, 22], dtype=np.uint64)
        batch = partial_sums_batch(seeds, (0, 6), dimension=1, k_max=8)
        for idx, s in enumerate(seeds):
            spec = FieldSpec(seed=int(s), dimension=1, k_max=8, doubling=False)
            single = partial_sums(spec, (0, 6))
            assert (batch[idx] == single.values).all()
            assert (single.values == oracle_sums(spec, (0, 6))).all()

    def test_forced_lag_window_respected(self):
        sp = scale_params(8)
        win = ForcedWindow(k=8, i=1, lo=sp.d, hi=sp.d + 4, value=1)
        spec = FieldSpec(seed=0, dimension=1, k_max=8, windows=(win,))
        assert field_value(spec, 8, 1, sp.d + 2) == 1
        vec = field_values_vec(spec, 8, 1, np.arange(0, 6), lagged=True)
        assert vec[:4].tolist() == [1, 1, 1, 1]
        path = partial_sums(spec, (-2, 6))
        assert (path.values == oracle_sums(spec, (-2, 6))).all()


class TestShiftBase:
    def test_identity(self):
        spec = FieldSpec(seed=9, dimension=1, k_max=2)
        assert shift_base(spec, 0) is spec

    def test_composition(self):
        spec = FieldSpec(seed=9, dimension=1, k_max=2)
        s1 = shift_base(shift_base(spec, 3), -5)
        s2 = shift_base(spec, -2)
        for j in range(-8, 8):
            assert field_value(s1, 1, 1, j) == field_value(s2, 1, 1, j)

    def test_override_reindexed(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=1, zero=True, windows=(_point(1, 1, 5, 1),))
        shifted = shift_base(spec, 2)
        assert field_value(shifted, 1, 1, 3) == 1
        assert field_value(shifted, 1, 1, 5) == 0


class TestConditioning:
    def test_empty_plan_noop(self):
        spec = FieldSpec(seed=4, dimension=2, k_max=6)
        plan = ConditioningPlan(N=1, C=1, kappa=2, K=2, windows=())
        assert conditioned_spec(spec, plan).windows == spec.windows

    def test_goal_plan_small(self):
        plan = goal_event_plan(N=2, C=1)
        # kappa: smallest k with p_k > 4 -> k = 3 (p=9); K: 2 p_K < d_K holds at 3
        assert plan.kappa == 3
        assert plan.K == 3
        ones = [w for w in plan.windows if w.value == 1]
        assert ones and all(w.lo == 0 and w.hi == scale_params(w.k).p + 4 for w in ones)

    def test_plan_forces_window_conditions(self):
        plan = goal_event_plan(N=2, C=1)
        spec = conditioned_spec(FieldSpec(seed=10, dimension=2, k_max=3), plan)
        sp = scale_params(plan.K)
        for j in range(sp.p + 4):
            assert field_value(spec, plan.K, 1, j) == 1
            assert field_value(spec, plan.K, 1, sp.d + j) == 0

    def test_conflicting_plan_rejected(self):
        w1 = ForcedWindow(k=3, i=1, lo=0, hi=5, value=1)
        w2 = ForcedWindow(k=3, i=1, lo=3, hi=8, value=0)
        plan = ConditioningPlan(N=1, C=1, kappa=3, K=3, windows=(w1, w2))
        with pytest.raises(ValueError):
            plan.check_consistent()

    def test_spec_window_conflicting_with_plan_rejected(self):
        plan = goal_event_plan(N=2, C=1)
        agree = FieldSpec(seed=10, dimension=2, k_max=3,
                          windows=(_point(plan.K, 1, 0, 1),))
        assert conditioned_spec(agree, plan).windows[1:] == plan.windows
        clash = FieldSpec(seed=10, dimension=2, k_max=3,
                          windows=(_point(plan.K, 1, 0, 0),))
        with pytest.raises(ValueError, match="conflicting"):
            conditioned_spec(clash, plan)

    def test_monotone_event_on_conditioned_samples(self):
        # every conditioned sample has strictly increasing first-coordinate sums
        N, C = 2, -min_low_scale_increment(2) + 1
        plan = goal_event_plan(N=N, C=C)
        for seed in range(20):
            spec = conditioned_spec(
                FieldSpec(seed=seed, dimension=2, doubling=True, k_max=plan.K), plan
            )
            path = partial_sums(spec, (0, 2 * N))
            diffs = np.diff(path.values[:, 0])
            assert (diffs > 0).all()
            if seed < 3:
                assert (path.values == oracle_sums(spec, (0, 2 * N))).all()


class TestTruncation:
    def test_default_k_max(self):
        assert default_k_max(64) == 8
        assert default_k_max(10**9) == 32

    def test_tail_bound_decreases(self):
        assert tail_variance_bound(64, 10) < tail_variance_bound(64, 8)
        assert tail_variance_bound(64, 8) > 0
