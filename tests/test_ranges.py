import math
from dataclasses import replace

import numpy as np
import pytest

import recurlab.fields
import recurlab.ranges
from recurlab import PreconditionError
from recurlab.fields import FieldSpec, default_k_max, partial_sums_batch, scale_params
from recurlab.ranges import (
    BOUND_SCALES,
    FIT_FROM,
    K_LIMIT,
    P_CUBE,
    P_SQUARE,
    ComplementProfile,
    HorizonError,
    KNotReached,
    PermutationView,
    PolynomialSpec,
    certify_distinct,
    choose_k,
    complement_profile,
    _first_visits,
    goal_event_plan,
    pool_range_tables,
    shared_fresh_mask,
)
from recurlab.shiftspace import OmegaConfig

from oracles import (
    audit_injectivity,
    build_range,
    complement_point,
    min_low_scale_increment,
    oracle_certify,
    oracle_fresh,
    oracle_plan,
    oracle_sums,
    plan_windows,
    range_set,
)


class TestPolynomialSpec:
    def test_evaluation(self):
        assert P_SQUARE(7) == 49
        assert P_CUBE(5) == 125
        mixed = PolynomialSpec((2, 0, 1))
        assert mixed(3) == 2 * 3 + 27
        assert mixed(0) == 0  # constant term fixed to zero

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            PolynomialSpec((1, 0))

    def test_injectivity_check(self):
        # n^3 - 6n^2 + 11n collides on small n (p(1)=6=p(2)... actually p(1)=6, p(2)=6)
        bad = PolynomialSpec((11, -6, 1))
        assert bad(1) == bad(2) == 6
        with pytest.raises(ValueError):
            bad.check_injective(5)
        P_CUBE.check_injective(100)

    def test_negative_times_rejected(self):
        spec = FieldSpec(dimension=2, k_max=6)
        for coeffs, N in [((-1, 0, 0, 1), 10),  # n^4 - n, zero at 1
                          ((11, -7, 1), 4)]:  # injective: 5, 2, -3, -4
            with pytest.raises(ValueError, match=r"positive on \[1, "):
                build_range(spec, 0, PolynomialSpec(coeffs), N)


class TestRangeTable:
    def test_zero_fields_give_trivial_range(self):
        spec = FieldSpec(dimension=2, k_max=8, zero=True)
        table = build_range(spec, 0, P_CUBE, 25)
        assert table.fresh == ()
        assert range_set(table) == {(0, 0)}

    def test_endpoints_match_stepping(self):
        # the linear schedule makes the union schedule gap-free up to 36,
        # so the squares up to 36 read exact partial sums
        spec = FieldSpec(dimension=2, k_max=8, doubling=True)
        [[_, table]] = pool_range_tables(spec, [17], [PolynomialSpec((1,)), P_SQUARE], 36)
        path = oracle_sums(spec, 17, (0, 36))
        for n in range(1, 7):
            assert table.endpoint(n) == tuple(path[n * n])

    def test_fresh_strictly_increasing_and_counts(self):
        spec = FieldSpec(dimension=2, k_max=18, doubling=True)
        table = build_range(spec, 3, P_CUBE, 60)
        assert list(table.fresh) == sorted(set(table.fresh))
        zero_visited = any(
            tuple(int(x) for x in row) == (0, 0) for row in table.endpoints
        )
        assert len(range_set(table)) == len(table.fresh) + (1 if zero_visited else 0)

    def test_horizon_enforced(self):
        spec = FieldSpec(dimension=2, k_max=10)
        table = build_range(spec, 3, P_SQUARE, 5)
        with pytest.raises(HorizonError):
            table.endpoint(6)
        with pytest.raises(HorizonError):
            table.endpoint(0)

    def test_prefix_extends_with_horizon(self):
        # a single increasing schedule only appends times, so enlarging the
        # horizon reuses the same realization on the old prefix — as long
        # as the larger horizon doesn't cross a scale's lag boundary and
        # change that scale's evaluation layout (30^3 and 35^3 both sit
        # below the scale-4 lag 2^16)
        spec = FieldSpec(dimension=2, k_max=16, doubling=True)
        small = build_range(spec, 8, P_CUBE, 30)
        large = build_range(spec, 8, P_CUBE, 35)
        assert (small.endpoints == large.endpoints[:30]).all()
        assert small.fresh == tuple(n for n in large.fresh if n <= 30)

    def test_shared_realization_across_polys(self):
        # n^2 and n^3 agree at n=1; a joint build must give equal endpoints there
        spec = FieldSpec(dimension=2, k_max=16, doubling=True)
        [[t1, t2]] = pool_range_tables(spec, [12], [P_SQUARE, P_CUBE], 40)
        assert t1.endpoint(1) == t2.endpoint(1)


class TestCurlyK:
    def test_subset_of_both_fresh(self):
        spec = FieldSpec(dimension=2, k_max=18, doubling=True)
        ks = PermutationView.build(spec, 5, P_SQUARE, P_CUBE, 50).curly
        [[t1, t2]] = pool_range_tables(spec, [5], [P_SQUARE, P_CUBE], 50)
        assert set(ks) == set(t1.fresh) & set(t2.fresh)
        assert list(ks) == sorted(ks)


class TestComplementEnumeration:
    # the oracle's spiral is a source of points pi fixes for the tests

    def test_one_based_and_deterministic(self):
        first = [complement_point(i) for i in range(1, 9)]
        assert first == [complement_point(i) for i in range(1, 9)]
        assert all(v[0] % 2 or v[1] % 2 for v in first)
        with pytest.raises(ValueError):
            complement_point(0)

    def test_first_points_distinct_and_odd(self):
        pts = [complement_point(i) for i in range(1, 20_001)]
        assert len(set(pts)) == len(pts)
        assert all(x % 2 or y % 2 for x, y in pts)


@pytest.fixture(scope="module")
def view():
    spec = FieldSpec(dimension=2, k_max=21, doubling=True)
    return PermutationView.build(spec, 0, P_SQUARE, P_CUBE, 120)


class TestPermutationView:
    def test_origin_fixed(self, view):
        assert view.classify((0, 0)) == ("origin", None)
        assert view.pi_forward((0, 0)) == (0, 0)

    def test_table_points_map_across_schedules(self, view):
        for ordinal, v in enumerate(view.s2_points, start=1):
            kind, i = view.classify(v)
            assert (kind, i) == ("s2", ordinal)
            assert view.pi_forward(v) == view.s1_points[ordinal - 1]

    def test_other_points_fixed_via_enumeration(self, view):
        for v in [(1, 0), (3, 5), (-7, 2), (101, -44)]:
            assert view.classify(v)[0] == "other"
            assert view.pi_forward(v) == v

    def test_unresolved_raises(self, view):
        # an even point outside both tables could be a visit point beyond
        # the horizon, so the view refuses to guess
        v = (2, 2)
        while v in view.s2_ordinal or v in set(view.s1_points):
            v = (v[0] + 2, v[1])
        assert view.classify(v) == ("unresolved", None)
        with pytest.raises(HorizonError):
            view.pi_forward(v)
        with pytest.raises(HorizonError):
            view.twist_bit(OmegaConfig(seed=1, dimension=2), v)

    def test_injectivity_audit(self, view):
        pts = [(0, 0)] + list(view.s2_points[:60])
        pts += [complement_point(i) for i in range(1, 400)]
        assert audit_injectivity(view, pts) == 0

    def test_fresh_index_enumeration(self, view):
        # ordinal i enumerates the i-th shared fresh index k_i on both tables
        for ordinal, k in enumerate(view.curly, start=1):
            assert view.s1_points[ordinal - 1] == view.table1.endpoint(k)
            assert view.s2_points[ordinal - 1] == view.table2.endpoint(k)
            assert view.classify(view.table2.endpoint(k)) == ("s2", ordinal)

    def test_twist_is_complement_on_visit_points(self, view):
        cfg = OmegaConfig(seed=42, dimension=2)
        for ordinal, v in enumerate(view.s2_points[:20], start=1):
            assert view.twist_bit(cfg, v) == 1 - cfg.bit(view.s1_points[ordinal - 1])

    def test_origin_bit_contradiction_identity(self, view):
        # on shared fresh indices the twisted origin bit is exactly the
        # complement of the plain origin bit
        for seed in range(5):
            cfg = OmegaConfig(seed=seed, dimension=2)
            for n in view.curly[:25]:
                plain = cfg.bit(view.table1.endpoint(n))
                assert view.tilde_S_origin_bit(cfg, n) == 1 - plain

    def test_twist_bit_mean_fair(self, view):
        cfg = OmegaConfig(seed=7, dimension=2)
        pts = [complement_point(i) for i in range(1, 2001)]
        mean = np.mean([view.twist_bit(cfg, v) for v in pts])
        assert abs(mean - 0.5) < 4 * 0.5 / math.sqrt(2000)

    def test_requires_two_dimensions(self):
        spec = FieldSpec(dimension=1, k_max=8, doubling=False)
        with pytest.raises(ValueError):
            PermutationView.build(spec, 0, P_SQUARE, P_CUBE, 5)


def _fresh_of(row: np.ndarray) -> tuple:
    """The 1-based indices a mask row holds."""
    return tuple((np.flatnonzero(row) + 1).tolist())


class TestFirstVisits:
    # one lexsort over a whole pool must give each row the fresh indices
    # of the scalar scan, which walks the row's endpoints one at a time

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("N", [1, 40, 100])
    def test_pool_equals_scalar_scan(self, N, dimension):
        spec = FieldSpec(dimension=dimension, k_max=default_k_max(P_CUBE(N)))
        seeds = [3, 2**64 - 1, 11, 0]
        tables = pool_range_tables(spec, seeds, [P_SQUARE, P_CUBE], N)
        mask = shared_fresh_mask(spec, seeds, P_SQUARE, P_CUBE, N)
        assert mask.shape == (len(seeds), N)
        for (t1, t2), row in zip(tables, mask):
            assert t1.fresh == oracle_fresh(t1.endpoints)
            assert t2.fresh == oracle_fresh(t2.endpoints)
            assert set(_fresh_of(row)) == set(t1.fresh) & set(t2.fresh)

    def test_hand_made_endpoints(self):
        # row 0 returns to the origin (n = 2, 6), revisits its first point
        # (n = 3) and repeats a pair (n = 4, 5); row 1 starts at the origin,
        # holds a point and its swap, and ends at row 0's first point,
        # fresh again in its own row; row 2 never leaves the origin
        ends = np.array([
            [(2, 0), (0, 0), (2, 0), (4, 2), (4, 2), (0, 0), (2, 2)],
            [(0, 0), (0, 0), (-2, 4), (4, -2), (-2, 4), (0, 2), (2, 0)],
            [(0, 0)] * 7,
        ], dtype=np.int64)
        fresh = _first_visits(ends)
        assert [_fresh_of(row) for row in fresh] == [(1, 4, 7), (3, 4, 6, 7), ()]
        assert [_fresh_of(row) for row in fresh] == [oracle_fresh(e) for e in ends]
        line = np.array([[[2], [0], [2], [-2], [-2], [4]]], dtype=np.int64)
        assert _fresh_of(_first_visits(line)[0]) == (1, 4, 6) == oracle_fresh(line[0])


class TestViewPool:
    # a pool shares each axis's layout and reads every seed's field values
    # in one call; each row of its mask must still be the shared fresh
    # indices of the view its own seed builds alone

    SPEC = FieldSpec(dimension=2, k_max=default_k_max(60**3))
    SEEDS = [5, 2**63 + 1, 17, 2**64 - 1, 0]

    @pytest.fixture(scope="class")
    def pool(self):
        return shared_fresh_mask(self.SPEC, self.SEEDS, P_SQUARE, P_CUBE, 60)

    def test_each_view_equals_its_own_build(self, pool):
        assert pool.shape == (len(self.SEEDS), 60) and pool.dtype == bool
        tables = pool_range_tables(self.SPEC, self.SEEDS, [P_SQUARE, P_CUBE], 60)
        for seed, row, pooled in zip(self.SEEDS, pool, tables):
            alone = PermutationView.build(self.SPEC, seed, P_SQUARE, P_CUBE, 60)
            assert _fresh_of(row) == alone.curly
            for x, y in zip(pooled, (alone.table1, alone.table2)):
                assert np.array_equal(x.endpoints, y.endpoints)
                assert (x.endpoints.dtype, x.fresh) == (y.endpoints.dtype, y.fresh)

    def test_prefix_pool_equals_prefix(self, pool):
        three = shared_fresh_mask(self.SPEC, self.SEEDS[:3], P_SQUARE, P_CUBE, 60)
        assert np.array_equal(three, pool[:3])

    def test_hashing_blocks_do_not_change_views(self, pool, monkeypatch):
        # blocks of a few hundred values split every hashed axis into rows
        # and column blocks
        monkeypatch.setattr(recurlab.fields, "_BLOCK_ELEMS", 300)
        small = shared_fresh_mask(self.SPEC, self.SEEDS, P_SQUARE, P_CUBE, 60)
        assert np.array_equal(small, pool)

    def test_empty_pool(self):
        assert shared_fresh_mask(self.SPEC, [], P_SQUARE, P_CUBE, 60).shape == (0, 60)
        assert pool_range_tables(self.SPEC, [], [P_SQUARE, P_CUBE], 60) == []


class TestComplementProfile:
    def test_profile_and_choice(self):
        k_max = default_k_max(P_CUBE(60))
        spec = FieldSpec(dimension=2, k_max=k_max, doubling=True)
        pool = shared_fresh_mask(spec, range(900, 920), P_SQUARE, P_CUBE, 60)
        prof = complement_profile(pool)
        assert prof.samples == 20
        assert prof.q_hat.shape == (60,)
        assert ((0 <= prof.q_hat) & (prof.q_hat <= 1)).all()
        rep = choose_k(prof, margin=0.1)
        assert rep.k >= 3
        assert rep.total < 0.9
        assert rep.tail > 0  # analytic remainder beyond the horizon
        assert rep == choose_k(prof, margin=0.1)
        # q_n counts the views lacking n among their shared fresh indices
        curly = [PermutationView.build(spec, seed, P_SQUARE, P_CUBE, 60).curly
                 for seed in range(900, 920)]
        assert prof.q_hat.tolist() == [sum(n not in c for c in curly) / 20
                                       for n in range(1, 61)]

    def test_choose_k_can_fail(self):
        # a saturated profile admits no finite k: every head is N = 20
        prof = ComplementProfile(N=20, samples=5, q_hat=np.ones(20),
                                 envelope_c=5.0)
        with pytest.raises(KNotReached, match=f"no k <= {K_LIMIT}") as exc:
            choose_k(prof)
        assert list(exc.value.per_k) == list(range(3, K_LIMIT + 1))
        assert all(total > 20 for total in exc.value.per_k.values())

    def test_horizon_below_fit_rejected(self):
        spec = FieldSpec(dimension=2, k_max=10, doubling=True)
        pool = shared_fresh_mask(spec, [1], P_SQUARE, P_CUBE, FIT_FROM - 1)
        with pytest.raises(PreconditionError,
                           match="horizon N=7 is below 8, where the complement"):
            complement_profile(pool)
        pool = shared_fresh_mask(spec, [1], P_SQUARE, P_CUBE, FIT_FROM)
        assert complement_profile(pool).envelope_c >= 0


class TestGoalEventPlan:
    def test_equals_scalar_definitions(self):
        # kappa, M, K and k_max against one loop each, at 50 values of C
        # from the least the low band admits; the band's floor passes C
        for N in range(1, 61):
            M = min_low_scale_increment(N)
            for C in range(max(1, -M), max(1, -M) + 50):
                plan = goal_event_plan(N, C)
                assert plan == oracle_plan(N, C)
                y_floor = sum(scale_params(k).p for k in range(plan.K, plan.k_max + 1))
                assert y_floor > C
            assert goal_event_plan(N).C == -M + 1

    @pytest.mark.parametrize("N", [1, 8, 100])
    def test_c_past_the_bound_scales_rejected(self, N):
        # certification checks the factor bound at k = K + C ..
        # K + C + BOUND_SCALES - 1, and from k = 1023 on 2 (p_k + 2N) is no
        # finite double; the largest admitted C puts the last check at 1022
        # (from N = 128 on -M exceeds it, and no C is admitted)
        K = goal_event_plan(N).K
        top = 1022 - K - BOUND_SCALES + 1
        assert goal_event_plan(N, top).C == top
        for C in (top + 1, 2**62, 10**18, 10**1000):
            with pytest.raises(PreconditionError, match=f"C must be at most {top} at N={N}"):
                goal_event_plan(N, C)

    @pytest.mark.parametrize("N,C,message", [
        (0, None, "need N >= 1 and C >= 1"),
        (0, -3, "dominate the low-band worst case"),
        (8, 5, "dominate the low-band worst case"),
        (8, 63, "dominate the low-band worst case"),
        (1, 0, "need N >= 1 and C >= 1"),
    ])
    def test_rejections_in_order(self, N, C, message):
        # C < -M is checked first, then N >= 1 and C >= 1
        with pytest.raises(PreconditionError, match=message):
            goal_event_plan(N, C)


class TestCertification:
    def test_small_case_every_sample_passes(self):
        run = certify_distinct(seed0=100, N=1, C=1, samples=60)
        assert run.goal_failures == 0
        assert run.distinct_failures == 0
        assert run.M == 0 and run.C == 1
        assert run.y_floor > run.C
        assert run.log_event_probability < 0
        assert math.isfinite(run.log_event_probability)

    def test_default_window_and_bounds(self):
        run = certify_distinct(seed0=200, N=8, samples=40)
        assert run.C == -run.M + 1
        assert run.goal_failures == 0 and run.distinct_failures == 0
        # factor bound for every unforced high scale
        assert all(log_mdk >= bound for _, log_mdk, bound in run.bound_checks)
        assert run.bound_checks[0][0] == run.K + run.C

    @staticmethod
    def _flat_rows(monkeypatch, flat_seeds, N=2):
        # the seed-axis kernel as ranges binds it, returning minus the band
        # of the plan ranges builds for the seeds in flat_seeds, so that
        # their paths, band added, are constant
        kernel = recurlab.ranges.partial_sums_batch
        plan = goal_event_plan(N)
        y = sum(scale_params(k).p for k in range(plan.K, plan.k_max + 1))

        def patched(spec, seeds, window, scales):
            out = kernel(spec, seeds, window, scales)
            flat = np.isin(seeds, np.array(flat_seeds, dtype=np.uint64))
            out[flat] = 0
            out[flat, :, 0] = -2 * y * np.arange(window[1] + 1)
            return out

        monkeypatch.setattr(recurlab.ranges, "partial_sums_batch", patched)

    def test_goal_failures_counted_once_per_sample(self, monkeypatch):
        # a constant path fails the goal check (no increase) and the
        # distinct check in every sample; each sample must count once
        self._flat_rows(monkeypatch, flat_seeds=range(5))
        run = certify_distinct(seed0=0, N=2, samples=5)
        assert run.goal_failures == run.samples == 5
        assert run.distinct_failures == run.samples

    def test_failures_counted_per_row(self, monkeypatch):
        # only rows 1 and 3 of 5 are flat: a check reduced over the sample
        # axis instead of within each row cannot count exactly these two
        self._flat_rows(monkeypatch, flat_seeds=[41, 43])
        run = certify_distinct(seed0=40, N=2, samples=5)
        assert run.goal_failures == run.distinct_failures == 2
        assert run.y_floor > run.C

    @pytest.mark.parametrize("N", [1, 3, 8])
    def test_high_band_same_for_every_seed(self, N):
        # the floor is the plan's band sum because the plan forces every
        # value the high band reads: under the oracle's windows the band's
        # path is y_floor t for every seed, as for the zero field
        plan = goal_event_plan(N)
        windows = plan_windows(plan)
        y_floor = certify_distinct(seed0=0, N=N, samples=1).y_floor
        assert y_floor == sum(scale_params(k).p for k in range(plan.K, plan.k_max + 1))
        spec = FieldSpec(dimension=1, k_min=plan.kappa, k_max=plan.k_max, doubling=False)
        cases = [(spec, seed) for seed in (0, 1, 7, 2**63, 2**64 - 1)]
        for field, seed in cases + [(replace(spec, zero=True), 0)]:
            band = oracle_sums(field, seed, (0, 2 * N), windows)
            assert (band[:, 0] == y_floor * np.arange(2 * N + 1)).all()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(PreconditionError, match="samples"):
            certify_distinct(seed0=0, N=2, samples=samples)

    @pytest.mark.parametrize("seed0,N,C,samples", [
        (100, 1, 1, 30),
        (7, 3, None, 12),
        (200, 8, None, 20),
        # the top of the seed range the CLI admits
        (2**64 - 20, 8, None, 20),
        # a 33-value window (band 5..6, C = 65), and a band of four scales
        # up to k = 8, whose lag window has its own namespace
        (5, 16, None, 20),
        (0, 8, 400, 10),
    ])
    def test_equals_scalar_oracle(self, seed0, N, C, samples):
        assert certify_distinct(seed0, N, C, samples) == oracle_certify(seed0, N, C, samples)

    def test_seed_blocks_do_not_change_run(self, monkeypatch):
        # blocks of a few rows split the samples; the counts and the floor
        # must not depend on where the blocks fall
        whole = certify_distinct(seed0=3, N=2, samples=23)
        monkeypatch.setattr(recurlab.ranges, "_BLOCK_ELEMS", 20)
        assert certify_distinct(seed0=3, N=2, samples=23) == whole
        self._flat_rows(monkeypatch, flat_seeds=[3, 11, 25])
        run = certify_distinct(seed0=3, N=2, samples=23)
        assert run.goal_failures == run.distinct_failures == 3

    def test_rejects_insufficient_c(self):
        with pytest.raises(ValueError):
            certify_distinct(seed0=0, N=8, C=1, samples=1)

    def test_unconditioned_paths_fail_goal(self):
        # negative control: without the conditioning the monotone chain is
        # overwhelmingly unlikely across seeds
        bad = 0
        for seed in range(20):
            spec = FieldSpec(dimension=2, k_max=6, doubling=True)
            vals = partial_sums_batch(spec, [seed], (0, 16))[0]
            chain = [tuple(int(x) for x in row) for row in vals]
            if not all(chain[t] < chain[t + 1] for t in range(16)):
                bad += 1
        assert bad >= 15
