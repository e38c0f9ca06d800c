import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from recurlab import experiments, gaussian
from recurlab.cli import _probe
from recurlab.experiments import (
    _child_seed,
    _extract,
    exp_gaussian,
    exp_section2,
    exp_section3,
    mixing_probe,
    range_view_pool,
)
from recurlab.fields import FieldSpec, default_k_max
from recurlab.gaussian import (
    power_density_model,
    sample_paths,
    triple_probabilities,
    white_noise_model,
)
from recurlab.ranges import (
    P_CUBE,
    P_SQUARE,
    PermutationView,
    choose_k,
    complement_profile,
)

from oracles import oracle_extract, oracle_section3


@pytest.fixture(scope="module")
def power03():
    # a power model fits its covariance table on construction (~1 s)
    return power_density_model(0.3)


@pytest.fixture(scope="module")
def pool():
    return range_view_pool(P_SQUARE, P_CUBE, N=100, size=25, seed0=0)


@pytest.fixture(scope="module")
def views():
    """The pool's first nine views, each built alone from its seed, as the
    scalar oracle reads them."""
    spec = FieldSpec(dimension=2, k_max=default_k_max(P_CUBE(100)), doubling=True)
    return [PermutationView.build(spec, _child_seed(0, 2, i), P_SQUARE, P_CUBE, 100)
            for i in range(9)]


def _lacking(pool, H=100):
    """The index of the first view of the pool that misses some n <= H: no
    sample of k = 1 tuples drawn from it alone is covered."""
    return next(r for r, row in enumerate(pool) if not row[:H].all())


def _joint(return_sets, H):
    """The (samples x H) joint-return matrix of per-sample return sets."""
    joint = np.zeros((len(return_sets), H), dtype=bool)
    for row, R in enumerate(return_sets):
        joint[row, [n - 1 for n in R]] = True
    return joint


class TestExtraction:
    def test_no_returns_is_trivial(self):
        ext = _extract(_joint([set(), set(), set()], H=50))
        assert ext.N == 0 and ext.M == 0
        assert ext.measure_D == 1.0 and ext.measure_A == 1.0
        assert ext.verdict == "ok"

    def test_basic_extraction(self):
        # one sample stops returning after 3, another after 7
        ext = _extract(_joint([{1, 3}, {2, 7}], H=50))
        assert ext.N == 3
        assert ext.M == 3
        assert ext.measure_D == 0.5
        assert ext.verdict == "ok"

    def test_saturated_returns_diverge(self):
        ext = _extract(_joint([set(range(1, 51))], H=50))
        assert ext.verdict == "diverged"

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3, 1.0])
    def test_equals_set_oracle(self, density):
        # returns at n and 2n, which a violation at M = n would pair
        joints = [_joint([R], H=50) for R in ({2, 5, 7}, {3, 6}, {4, 8})]
        rng = np.random.default_rng(17)
        for samples, H in ((1, 16), (7, 40), (40, 64)):
            joint = rng.random((samples, H)) < density
            joint[:, -1] &= rng.random(samples) < 0.5
            joints.append(joint)
        for joint in joints:
            sets = [set((np.flatnonzero(row) + 1).tolist()) for row in joint]
            ext = _extract(joint)
            # M, A and the violations are written from N and D; the
            # oracle derives them from the return sets
            assert ext == oracle_extract(sets, joint.shape[1])
            if ext.verdict == "ok":
                assert ext.M == ext.N and ext.measure_A == ext.measure_D
            assert ext.violations == 0


class TestSection2:
    def test_default_spec(self):
        spec = FieldSpec(dimension=1, k_max=13, doubling=False)
        bc, probe = exp_section2(spec, H=300, samples=150, seed0=1)
        assert bc.verdict == "ok"
        assert probe.violations == 0
        # exact decay inputs
        ns = np.arange(1, 301)
        assert (bc.a_n * ns**1.5 <= (bc.envelope_c / 2) ** 3 + 1e-12).all()
        assert np.all(np.diff(bc.partial_sums) >= 0)
        assert math.isfinite(bc.total)
        assert bc.extraction.N <= bc.H
        assert 0 <= bc.extraction.M <= max(bc.extraction.N, 0)

    def test_zero_fields_negative_control(self):
        spec = FieldSpec(dimension=1, k_max=4, zero=True)
        bc, _ = exp_section2(spec, H=40, samples=25)
        assert bc.verdict == "diverged"
        assert (bc.a_n == 0.125).all()

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            exp_section2(FieldSpec(dimension=2, k_max=6), H=40)
        with pytest.raises(ValueError):
            exp_section2(FieldSpec(dimension=1, k_max=6), H=4)

    @pytest.mark.parametrize("zero", [False, True])
    def test_sample_blocks_keep_the_report(self, monkeypatch, zero):
        # 3 * 61 path values per sample: two samples per block, the last
        # block holding one
        spec = FieldSpec(dimension=1, k_max=8, doubling=False, zero=zero)
        whole, _ = exp_section2(spec, H=60, samples=25, seed0=4)
        monkeypatch.setattr(experiments, "_PROBE_BLOCK_ELEMS", 2 * 3 * 61 + 1)
        blocked, _ = exp_section2(spec, H=60, samples=25, seed0=4)
        assert blocked.extraction == whole.extraction
        assert (blocked.tail, blocked.total) == (whole.tail, whole.total)

    def test_json_deterministic(self):
        spec = FieldSpec(dimension=1, k_max=8, doubling=False)
        a, _ = exp_section2(spec, H=60, samples=30, seed0=5)
        b, _ = exp_section2(spec, H=60, samples=30, seed0=5)
        assert (a.envelope_c, a.tail, a.extraction) == (b.envelope_c, b.tail, b.extraction)
        assert (a.a_n == b.a_n).all() and (a.partial_sums == b.partial_sums).all()


class TestSection3:
    def test_profile_and_k(self, pool):
        prof = complement_profile(pool)
        assert prof.q_hat.shape == (100,)
        rep = choose_k(prof)
        assert rep.k >= 3
        assert rep.total < 0.9

    def test_structural_emptiness(self, pool):
        rep = choose_k(complement_profile(pool))
        probe = exp_section3(pool, k=rep.k, H=100, samples=200, seed0=0)
        assert probe.violations == 0
        assert probe.identity_failures == 0
        assert probe.in_surrogate > 0
        assert probe.surrogate_measure > 0.5

    def test_rejects_horizon_beyond_pool(self, pool):
        with pytest.raises(ValueError):
            exp_section3(pool, k=3, H=101)

    def test_impossible_coverage_reports_profile(self, pool):
        r = _lacking(pool)
        with pytest.raises(RuntimeError) as exc:
            # k=1 tuples rarely cover every n; with few samples the
            # surrogate can be empty, which must fail loudly
            exp_section3(pool[r : r + 1], k=1, H=100, samples=2, seed0=9)
        assert "covered" in str(exc.value)

    def test_report_json(self, pool):
        probe = exp_section3(pool, k=3, H=50, samples=50, seed0=1)
        payload = json.loads(json.dumps(_probe(probe)))
        assert payload["violations"] == 0
        assert payload["surrogate_measure"] == probe.in_surrogate / 50


class TestSection3Oracle:
    # the probe over the pool's mask must equal the scalar loop over views
    # built one seed at a time, which reads every witness bit, field for
    # field

    @staticmethod
    def _assert_same(pool, views, k, samples, seed0, H=100):
        got = exp_section3(pool[: len(views)], k=k, H=H, samples=samples, seed0=seed0)
        want = oracle_section3(views, k=k, H=H, samples=samples, seed0=seed0)
        assert asdict(got) == asdict(want)
        assert all(type(v) is int for v in (got.in_surrogate, got.violations,
                                            got.identity_failures))
        return got

    def test_mask_rows_are_the_views(self, pool, views):
        for row, view in zip(pool, views):
            assert tuple((np.flatnonzero(row) + 1).tolist()) == view.curly

    @pytest.mark.parametrize("seed0", [0, 1, 7])
    @pytest.mark.parametrize("k", [3, 5])
    def test_equals_scalar_oracle(self, pool, views, seed0, k):
        got = self._assert_same(pool, views, k, 120, seed0)
        assert got.in_surrogate > 0

    def test_sample_blocks_keep_the_report(self, pool, views, monkeypatch):
        # one sample per block: uncovered's counts span the blocks
        monkeypatch.setattr(experiments, "_PROBE_BLOCK_ELEMS", 1)
        got = self._assert_same(pool, views[:4], 3, 60, 2)
        assert got.uncovered

    def test_uncovered_failure_matches_oracle(self, pool, views):
        r = _lacking(pool)
        with pytest.raises(RuntimeError) as got:
            exp_section3(pool[r : r + 1], k=1, H=100, samples=5, seed0=9)
        with pytest.raises(RuntimeError) as want:
            oracle_section3(views[r : r + 1], k=1, H=100, samples=5, seed0=9)
        assert str(got.value) == str(want.value)

    def test_identity_is_checked(self, pool, views, monkeypatch):
        # the probe writes no identity failure; the scalar oracle reads the
        # twisted bit through table2's endpoint, so a twist that stops
        # complementing shows up there and test_equals_scalar_oracle fails
        monkeypatch.setattr(PermutationView, "twist_bit",
                            lambda self, config, v: config.bit(self.pi_forward(v)))
        want = oracle_section3(views, k=3, H=50, samples=40, seed0=3)
        assert want.identity_failures > 0
        got = exp_section3(pool[:9], k=3, H=50, samples=40, seed0=3)
        assert asdict(got) != asdict(want)


class TestGaussianExperiment:
    def test_power_model_run(self, power03):
        rep = exp_gaussian(power03, k=2, H=32, samples=200, mc=20_000,
                           seed0=0)
        assert rep.verdict == "ok"
        assert rep.envelope_violations == 0
        assert math.isfinite(rep.summability_total)

    def test_white_noise_trivial(self):
        rep = exp_gaussian(white_noise_model(), k=2, H=16, samples=100, mc=5000)
        assert max(rep.estimates) == 0.0
        assert rep.extraction.N == 0
        assert rep.extraction.measure_D == 1.0
        assert rep.verdict == "ok"

    def test_hypothesis_violation(self, power03):
        with pytest.raises(ValueError):
            exp_gaussian(power03, k=1, H=8, samples=10, mc=100)

    def test_estimates_are_exact(self, power03):
        rep = exp_gaussian(power03, k=2, H=16, samples=50, mc=20_000)
        exact = triple_probabilities(power03.r_vector(16)[1:])
        assert rep.estimates == tuple(exact.tolist())
        assert 0.0 <= rep.mc_max_z <= experiments._MC_Z_LIMIT

    def test_monte_carlo_disagreement_fails(self, power03, monkeypatch):
        # a rule that reads twice the true probability is caught by the
        # Monte Carlo check, not by the envelopes
        monkeypatch.setattr(gaussian, "triple_probabilities",
                            lambda r: 2.0 * triple_probabilities(r))
        rep = exp_gaussian(power03, k=2, H=16, samples=50, mc=200_000)
        assert rep.envelope_violations == 0
        assert rep.mc_max_z > experiments._MC_Z_LIMIT
        assert rep.verdict == "mc-disagrees"

    def test_one_batch_of_kept_paths(self, power03, monkeypatch):
        # every sampled path is kept: one sample_paths call of samples * k rows
        rows = []

        def counted(r, size, seed):
            rows.append(size)
            return sample_paths(r, size, seed)

        monkeypatch.setattr(gaussian, "sample_paths", counted)
        exp_gaussian(power03, k=3, H=16, samples=40, mc=1000)
        assert rows == [120]

    def test_covariance_computed_once(self, power03, monkeypatch):
        # the exact rule, the Monte Carlo check, the paths and the twist all
        # read one array r(0..H)
        lags = []

        def counted(delta, ns):
            lags.append(int(ns.max()))
            return power_cov(delta, ns)

        power_cov = gaussian._power_cov
        monkeypatch.setattr(gaussian, "_power_cov", counted)
        exp_gaussian(power03, k=2, H=16, samples=20, mc=1000)
        assert lags == [16]


class TestMixingProbe:
    def test_default_spec_decays(self):
        spec = FieldSpec(dimension=2, k_max=14, doubling=True)
        rep = mixing_probe(spec, M=5, H=1024, samples=20_000, n_min=64)
        assert rep.decay_ok
        assert rep.correlation_ok
        assert all(0.0 <= b <= 1.0 for b in rep.box_probabilities)
        assert rep.box_probabilities[-1] < rep.box_probabilities[0]
        assert rep.II_bound == rep.box_probabilities[-1]

    def test_huge_box_captures_everything(self):
        spec = FieldSpec(dimension=2, k_max=6, doubling=True)
        rep = mixing_probe(spec, M=10**7, H=128, samples=2000, n_min=64)
        assert all(abs(b - 1.0) < 1e-9 for b in rep.box_probabilities)
        assert not rep.decay_ok

    def test_zero_fields_negative_control(self):
        spec = FieldSpec(dimension=2, k_max=6, zero=True)
        rep = mixing_probe(spec, M=5, H=256, samples=20_000, n_min=64)
        assert not rep.decay_ok
        # the walk never leaves the box: the correlation stays put and the
        # II bound saturates, so only the decay check can flag the failure
        assert rep.correlation > 0.2
        assert rep.II_bound == 1.0

    def test_cylinder_coincidence_on_zero_spec(self):
        # S_n = 0, so B2's site is B1's site and reads the same bit
        spec = FieldSpec(dimension=2, k_max=6, zero=True)
        one = (((0, 0), 1),)
        rep = mixing_probe(spec, M=5, H=128, samples=20_000, B1=one, B2=one,
                           n_min=64)
        assert abs(rep.joint_estimate - 0.5) < 4 * rep.se
        rep = mixing_probe(spec, M=5, H=128, samples=20_000, B1=one,
                           B2=(((0, 0), 0),), n_min=64)
        assert rep.joint_estimate == 0.0
        # a site listed twice in one cylinder reads one bit
        rep = mixing_probe(spec, M=5, H=128, samples=20_000, B1=one + one,
                           B2=one, n_min=64)
        assert abs(rep.joint_estimate - 0.5) < 4 * rep.se

    def test_input_validation(self):
        spec = FieldSpec(dimension=2, k_max=6, doubling=True)
        with pytest.raises(ValueError):
            mixing_probe(spec, M=2, H=128, samples=100,
                         B1=(((5, 0), 1),), n_min=64)
        with pytest.raises(ValueError):
            mixing_probe(spec, M=2, H=100, samples=100, n_min=64)
        # a one-point grid [64] cannot show box decay
        with pytest.raises(ValueError, match=r"2 \* n_min"):
            mixing_probe(spec, M=2, H=64, samples=100, n_min=64)
        with pytest.raises(ValueError):
            mixing_probe(FieldSpec(dimension=1, k_max=6), M=2, H=128,
                         samples=10, n_min=64)

    def test_report_json_round_trip(self):
        spec = FieldSpec(dimension=2, k_max=6, doubling=True)
        rep = mixing_probe(spec, M=4, H=128, samples=2000, n_min=64)
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["M"] == 4
        assert payload["n_grid"] == [64, 128]
        for key in ("alias_bounds", "pruned", "tail_variances"):
            assert len(payload[key]) == 2
