import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from recurlab.cli import _probe
from recurlab.experiments import (
    _extract,
    exp_gaussian,
    exp_section2,
    exp_section3,
    mixing_probe,
    range_view_pool,
)
from recurlab.fields import FieldSpec
from recurlab.gaussian import power_density_model, white_noise_model
from recurlab.ranges import P_CUBE, P_SQUARE, choose_k, complement_profile


@pytest.fixture(scope="module")
def power03():
    # a power model fits its covariance table on construction (~1 s)
    return power_density_model(0.3)


@pytest.fixture(scope="module")
def pool():
    return range_view_pool(P_SQUARE, P_CUBE, N=100, size=25, seed0=0)


class TestExtraction:
    def test_no_returns_is_trivial(self):
        ext = _extract([set(), set(), set()], H=50)
        assert ext.N == 0 and ext.M == 0
        assert ext.measure_D == 1.0 and ext.measure_A == 1.0
        assert ext.verdict == "ok"

    def test_basic_extraction(self):
        # one sample stops returning after 3, another after 7
        ext = _extract([{1, 3}, {2, 7}], H=50)
        assert ext.N == 3
        assert ext.M == 3
        assert ext.measure_D == 0.5
        assert ext.verdict == "ok"

    def test_saturated_returns_diverge(self):
        ext = _extract([set(range(1, 51))], H=50)
        assert ext.verdict == "diverged"

    def test_violation_detected(self):
        # a joint return at both n and n + M from inside A
        ext = _extract([{2, 5, 7}], H=50)
        assert ext.M == 7
        assert ext.violations == 0
        forged = _extract([{3, 6}], H=50)  # M = 6, and 3 + ... no pair
        assert forged.violations == 0
        paired = _extract([{4, 8}], H=50)  # M = 8; no n with n and n+8
        assert paired.violations == 0


class TestSection2:
    def test_default_spec(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=13, doubling=False)
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
        spec = FieldSpec(seed=0, dimension=1, k_max=4, zero=True)
        bc, _ = exp_section2(spec, H=40, samples=25)
        assert bc.verdict == "diverged"
        assert (bc.a_n == 0.125).all()

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            exp_section2(FieldSpec(seed=0, dimension=2, k_max=6), H=40)
        with pytest.raises(ValueError):
            exp_section2(FieldSpec(seed=0, dimension=1, k_max=6), H=4)

    def test_json_deterministic(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=8, doubling=False)
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
        with pytest.raises(RuntimeError) as exc:
            # k=1 tuples rarely cover every n; with few samples the
            # surrogate can be empty, which must fail loudly
            exp_section3(pool[:1], k=1, H=100, samples=2, seed0=9)
        assert "covered" in str(exc.value)

    def test_report_json(self, pool):
        probe = exp_section3(pool, k=3, H=50, samples=50, seed0=1)
        payload = json.loads(json.dumps(_probe(probe)))
        assert payload["violations"] == 0
        assert payload["surrogate_measure"] == probe.in_surrogate / 50


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


class TestMixingProbe:
    def test_default_spec_decays(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=14, doubling=True)
        rep = mixing_probe(spec, M=5, H=1024, samples=20_000, n_min=64)
        assert rep.decay_ok
        assert rep.correlation_ok
        assert all(0.0 <= b <= 1.0 for b in rep.box_probabilities)
        assert rep.box_probabilities[-1] < rep.box_probabilities[0]
        assert rep.II_bound == rep.box_probabilities[-1]

    def test_huge_box_captures_everything(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=6, doubling=True)
        rep = mixing_probe(spec, M=10**7, H=128, samples=2000, n_min=64)
        assert all(abs(b - 1.0) < 1e-9 for b in rep.box_probabilities)
        assert not rep.decay_ok

    def test_zero_fields_negative_control(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=6, zero=True)
        rep = mixing_probe(spec, M=5, H=256, samples=20_000, n_min=64)
        assert not rep.decay_ok
        # the walk never leaves the box: the correlation stays put and the
        # II bound saturates, so only the decay check can flag the failure
        assert rep.correlation > 0.2
        assert rep.II_bound == 1.0

    def test_input_validation(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=6, doubling=True)
        with pytest.raises(ValueError):
            mixing_probe(spec, M=2, H=128, samples=100,
                         B1=(((5, 0), 1),), n_min=64)
        with pytest.raises(ValueError):
            mixing_probe(spec, M=2, H=100, samples=100, n_min=64)
        # a one-point grid [64] cannot show box decay
        with pytest.raises(ValueError, match=r"2 \* n_min"):
            mixing_probe(spec, M=2, H=64, samples=100, n_min=64)
        with pytest.raises(ValueError):
            mixing_probe(FieldSpec(seed=1, dimension=1, k_max=6), M=2, H=128,
                         samples=10, n_min=64)

    def test_report_json_round_trip(self):
        spec = FieldSpec(seed=3, dimension=2, k_max=6, doubling=True)
        rep = mixing_probe(spec, M=4, H=128, samples=2000, n_min=64)
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["M"] == 4
        assert payload["n_grid"] == [64, 128]
        for key in ("alias_bounds", "pruned", "tail_variances"):
            assert len(payload[key]) == 2
