import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recurlab.ranges
from recurlab.fields import FieldSpec, PathSample, default_k_max, partial_sums
from recurlab.ranges import (
    HorizonError,
    P_CUBE,
    P_SQUARE,
    ComplementProfile,
    PermutationView,
    PolynomialSpec,
    build_range,
    build_range_tables,
    certify_distinct,
    choose_k,
    complement_index,
    complement_point,
    complement_profile,
)
from recurlab.shiftspace import OmegaConfig

from oracles import oracle_sums


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
        neg = PolynomialSpec((-1, 0, 0, 1))  # n^4 - n, zero at 1
        spec = FieldSpec(seed=0, dimension=2, k_max=6)
        with pytest.raises(ValueError):
            build_range(spec, neg, 10)


class TestRangeTable:
    def test_zero_fields_give_trivial_range(self):
        spec = FieldSpec(seed=0, dimension=2, k_max=8, zero=True)
        table = build_range(spec, P_CUBE, 25)
        assert table.fresh == ()
        assert table.range_set == {(0, 0)}

    def test_endpoints_match_stepping(self):
        # the linear schedule makes the union schedule gap-free up to 36,
        # and every scale is dense at k_max = 8, so the squares up to 36
        # read exact partial sums
        spec = FieldSpec(seed=17, dimension=2, k_max=8, doubling=True)
        _, table = build_range_tables(spec, [PolynomialSpec((1,)), P_SQUARE], 36)
        path = oracle_sums(spec, (0, 36))
        for n in range(1, 7):
            assert table.endpoint(n) == tuple(path[n * n])

    def test_fresh_strictly_increasing_and_counts(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=18, doubling=True)
        table = build_range(spec, P_CUBE, 60)
        assert list(table.fresh) == sorted(set(table.fresh))
        zero_visited = any(
            tuple(int(x) for x in row) == (0, 0) for row in table.endpoints
        )
        assert len(table.range_set) == len(table.fresh) + (1 if zero_visited else 0)

    def test_horizon_enforced(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=10)
        table = build_range(spec, P_SQUARE, 5)
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
        spec = FieldSpec(seed=8, dimension=2, k_max=16, doubling=True)
        small = build_range(spec, P_CUBE, 30)
        large = build_range(spec, P_CUBE, 35)
        assert (small.endpoints == large.endpoints[:30]).all()
        assert small.fresh == tuple(n for n in large.fresh if n <= 30)

    def test_shared_realization_across_polys(self):
        # n^2 and n^3 agree at n=1; a joint build must give equal endpoints there
        spec = FieldSpec(seed=12, dimension=2, k_max=16, doubling=True)
        t1, t2 = build_range_tables(spec, [P_SQUARE, P_CUBE], 40)
        assert t1.endpoint(1) == t2.endpoint(1)


class TestCurlyK:
    def test_subset_of_both_fresh(self):
        spec = FieldSpec(seed=5, dimension=2, k_max=18, doubling=True)
        ks = PermutationView.build(spec, P_SQUARE, P_CUBE, 50).curly
        t1, t2 = build_range_tables(spec, [P_SQUARE, P_CUBE], 50)
        assert set(ks) == set(t1.fresh) & set(t2.fresh)
        assert list(ks) == sorted(ks)


class TestComplementEnumeration:
    def test_one_based_and_deterministic(self):
        first = [complement_point(i) for i in range(1, 9)]
        assert first == [complement_point(i) for i in range(1, 9)]
        assert all(v[0] % 2 or v[1] % 2 for v in first)
        with pytest.raises(ValueError):
            complement_point(0)

    def test_index_inverts_point(self):
        for i in (1, 2, 8, 9, 17, 200, 1234, 20_000):
            assert complement_index(complement_point(i)) == i

    def test_pinned_enumeration(self):
        # sha256 of the first 20,000 points as int64 (x, y) pairs: pi maps
        # the complement through this order, so reports depend on it
        pts = np.array([complement_point(i) for i in range(1, 20_001)], dtype=np.int64)
        digest = hashlib.sha256(pts.tobytes()).hexdigest()
        assert digest == "cb4d28cc53dc85219c3ac6e4855ac8d6a25abdddc4422e60df9cff88537b95dc"

    def test_even_points_rejected(self):
        with pytest.raises(ValueError):
            complement_index((4, -2))
        with pytest.raises(ValueError):
            complement_index((0, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-30, max_value=30))
    def test_round_trip_on_odd_points(self, a, b):
        if a % 2 == 0 and b % 2 == 0:
            return
        i = complement_index((a, b))
        assert complement_point(i) == (a, b)


@pytest.fixture(scope="module")
def view():
    spec = FieldSpec(seed=0, dimension=2, k_max=21, doubling=True)
    return PermutationView.build(spec, P_SQUARE, P_CUBE, 120)


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
        assert view.audit_injectivity(pts) == 0

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
                assert view.tilde_S_origin_bit(cfg, n) == 1 - view.t_origin_bit(cfg, n)

    def test_twist_bit_mean_fair(self, view):
        cfg = OmegaConfig(seed=7, dimension=2)
        pts = [complement_point(i) for i in range(1, 2001)]
        mean = np.mean([view.twist_bit(cfg, v) for v in pts])
        assert abs(mean - 0.5) < 4 * 0.5 / math.sqrt(2000)

    def test_requires_two_dimensions(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=8, doubling=False)
        with pytest.raises(ValueError):
            PermutationView.build(spec, P_SQUARE, P_CUBE, 5)


class TestComplementProfile:
    def test_profile_and_choice(self):
        k_max = default_k_max(P_CUBE(60))
        pool = [PermutationView.build(
            FieldSpec(seed=900 + s, dimension=2, k_max=k_max, doubling=True),
            P_SQUARE, P_CUBE, 60) for s in range(20)]
        prof = complement_profile(pool)
        assert prof.samples == 20
        assert prof.q_hat.shape == (60,)
        assert ((0 <= prof.q_hat) & (prof.q_hat <= 1)).all()
        rep = choose_k(prof, margin=0.1)
        assert rep.k >= 3
        assert rep.total < 0.9
        assert rep.tail > 0  # analytic remainder beyond the horizon
        assert rep == choose_k(prof, margin=0.1)

    def test_choose_k_can_fail(self):
        # a saturated profile admits no finite k
        prof = ComplementProfile(N=20, samples=5, q_hat=np.ones(20),
                                 envelope_c=5.0)
        with pytest.raises(RuntimeError):
            choose_k(prof, k_limit=4)

    def test_horizon_below_fit_rejected(self):
        spec = FieldSpec(seed=1, dimension=2, k_max=10, doubling=True)
        pool = [PermutationView.build(spec, P_SQUARE, P_CUBE, 7)]
        with pytest.raises(ValueError, match="fit"):
            complement_profile(pool)
        assert complement_profile(pool, fit_from=7).envelope_c >= 0


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

    def test_goal_failures_counted_once_per_sample(self, monkeypatch):
        # a constant path fails both goal checks (no increase, floor <= C)
        # in every sample; each sample must still count once
        def flat(spec, window):
            return PathSample(spec=spec, window=window,
                              values=np.zeros((window[1] - window[0] + 1, 2),
                                              dtype=np.int64))

        monkeypatch.setattr(recurlab.ranges, "partial_sums", flat)
        run = certify_distinct(seed0=0, N=2, samples=5)
        assert run.y_floor == 0 <= run.C
        assert run.goal_failures == run.samples == 5

    def test_rejects_insufficient_c(self):
        with pytest.raises(ValueError):
            certify_distinct(seed0=0, N=8, C=1, samples=1)

    def test_unconditioned_paths_fail_goal(self):
        # negative control: without the conditioning the monotone chain is
        # overwhelmingly unlikely across seeds
        bad = 0
        for seed in range(20):
            spec = FieldSpec(seed=seed, dimension=2, k_max=6, doubling=True)
            vals = partial_sums(spec, (0, 16)).values
            chain = [tuple(int(x) for x in row) for row in vals]
            if not all(chain[t] < chain[t + 1] for t in range(16)):
                bad += 1
        assert bad >= 15
