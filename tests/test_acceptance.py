"""Acceptance suite: the twelve suite-level checks, each with its stated
runtime budget measured around the test body."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from recurlab.cli import main
from recurlab.experiments import (
    exp_section2,
    exp_section3,
    mixing_probe,
    range_view_pool,
)
from recurlab.fields import FieldSpec, default_k_max, partial_sums_batch
from recurlab.gaussian import (
    power_density_model,
    sample_paths,
    triple_probability,
    power_summability,
    twisted_values,
    upper_tail,
    white_noise_model,
)
from recurlab.pmf import (
    lclt_deviation,
    peak_probability_sweep,
    walk_pmf,
)
from recurlab.ranges import (
    P_CUBE,
    P_SQUARE,
    PermutationView,
    build_range,
    certify_distinct,
    choose_k,
    complement_point,
    complement_profile,
)
from recurlab.shiftspace import OmegaConfig

from oracles import exact_walk_pmf
from test_pmf import _convolve_laws, _oracle_scale_law


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def pool500():
    start = time.monotonic()
    pool = range_view_pool(P_SQUARE, P_CUBE, N=500, size=120, seed0=0)
    return pool, time.monotonic() - start


def test_01_oracle_equivalence():
    with _Budget(10):
        for k_max in (1, 2):
            for n in (1, 2, 3, 4):
                oracle = _oracle_scale_law(1, n, Fraction(1, 4))
                if k_max == 2:
                    oracle = _convolve_laws(oracle,
                                            _oracle_scale_law(2, n, Fraction(1, 32)))
                spec = FieldSpec(seed=0, dimension=1, k_min=1, k_max=k_max,
                                 doubling=False)
                exact = exact_walk_pmf(spec, n)
                assert exact == oracle
                pmf, _ = walk_pmf(spec, n)
                for v, frac in exact.items():
                    assert abs(pmf.prob(v) - float(frac)) <= 1e-12
        # the pinned point value: one step of the smallest two-scale walk
        spec = FieldSpec(seed=0, dimension=1, k_min=1, k_max=1, doubling=False)
        assert exact_walk_pmf(spec, 1)[0] == Fraction(867, 2048)


def test_02_mc_oracle_agreement():
    with _Budget(60):
        n, size = 64, 100_000
        k_max = default_k_max(n)
        seeds = np.arange(size, dtype=np.uint64)
        paths = partial_sums_batch(seeds, (0, n), dimension=1, k_max=k_max)
        freq = float(np.mean(paths[:, n, 0] == 0))
        pmf, _ = walk_pmf(FieldSpec(seed=0, dimension=1, k_max=k_max,
                                    doubling=False), n)
        target = pmf.prob(0)
        se = math.sqrt(target * (1 - target) / size)
        assert abs(freq - target) < 4 * se


def test_03_lclt_sanity():
    with _Budget(30):
        grid = (256, 1024, 4096, 16384)
        k_max = default_k_max(max(grid))
        peaks = []
        for n in grid:
            pmf, _ = walk_pmf(FieldSpec(seed=0, dimension=1, k_max=k_max,
                                        doubling=False), n)
            rep = lclt_deviation(pmf, n)
            assert abs(rep.mass - 1.0) <= 1e-9
            assert rep.asymmetry == 0.0
            assert math.sqrt(n) * float(pmf.mass.max()) <= 1.0
            peaks.append(rep.peak)
        assert (max(peaks) - min(peaks)) / max(peaks) < 0.5


def test_04_decay_envelope():
    with _Budget(600):
        H = 2048
        p0 = peak_probability_sweep(H, default_k_max(H))
        ns = np.arange(1, H + 1)
        c = float(np.max(p0 * np.sqrt(ns)))
        a_n = (p0 / 2.0) ** 3
        assert (a_n * ns**1.5 <= (c / 2.0) ** 3 + 1e-12).all()
        assert c < 2.0  # the fitted constant stays modest
        from scipy.special import zeta
        total = float(a_n.sum()) + (c / 2.0) ** 3 * float(zeta(1.5, H + 1))
        assert math.isfinite(total)
        assert total < 1.0


def test_05_section2_emptiness():
    with _Budget(300):
        spec = FieldSpec(seed=0, dimension=1, k_max=default_k_max(2000),
                         doubling=False)
        bc, probe = exp_section2(spec, H=2000, samples=1000, seed0=0)
        assert bc.verdict == "ok"
        assert bc.extraction.measure_A > 0
        assert bc.extraction.violations == 0  # hard: no joint return from A
        assert probe.violations == 0


def test_06_range_density():
    with _Budget(300):
        hits = 0
        for seed in range(20):
            spec = FieldSpec(seed=seed, dimension=2,
                             k_max=default_k_max(1000**3), doubling=True)
            table = build_range(spec, P_CUBE, 1000)
            if len(table.range_set) / 1000 >= 0.85:
                hits += 1
        assert hits >= 15


def test_07_permutation_correctness():
    with _Budget(300):
        spec = FieldSpec(seed=0, dimension=2, k_max=default_k_max(500**3),
                         doubling=True)
        view = PermutationView.build(spec, P_SQUARE, P_CUBE, 500)
        assert view.pi_forward((0, 0)) == (0, 0)
        for ordinal, n in enumerate(view.curly, start=1):
            if n > 500:
                break
            assert view.pi_forward(view.table2.endpoint(n)) == view.table1.endpoint(n)
        pts = [(0, 0)] + list(view.s2_points[:100])
        pts += [complement_point(i) for i in range(1, 1001 - len(pts))]
        assert len(pts) == 1000
        assert view.audit_injectivity(pts) == 0
        cfg = OmegaConfig(seed=11, dimension=2)
        sample = [complement_point(i) for i in range(1, 10_001)]
        mean = float(np.mean([view.twist_bit(cfg, v) for v in sample]))
        assert abs(mean - 0.5) <= 4 * 0.5 / math.sqrt(10_000)


def test_08_section3_emptiness(pool500):
    pool, build_seconds = pool500
    with _Budget(600 - min(build_seconds, 540)):
        profile = complement_profile(pool)
        choice = choose_k(profile)
        assert choice.total < 1.0  # partial-sum target
        probe = exp_section3(pool, k=choice.k, H=500, samples=1000, seed0=0)
        assert probe.violations == 0
        assert probe.identity_failures == 0  # the contradiction identity
        assert probe.in_surrogate > 0


def test_09_certification():
    with _Budget(300):
        run = certify_distinct(seed0=0, N=8, samples=1000)
        assert run.C == -run.M + 1
        assert run.goal_failures == 0
        assert run.distinct_failures == 0
        assert all(log_mdk >= bound for _, log_mdk, bound in run.bound_checks)
        assert run.bound_checks[0][0] == run.K + run.C


def test_10_gaussian_identities():
    with _Budget(600):
        model = power_density_model(0.3)
        paths = sample_paths(model, 128, size=100_000, seed=0)
        ys = twisted_values(model, paths)
        for n, m in ((1, 3), (5, 9), (20, 50), (0, 7)):
            emp = float(np.mean(ys[:, n] * ys[:, m]))
            se = float(np.std(ys[:, n] * ys[:, m]) / math.sqrt(100_000))
            assert abs(emp - model.r(n - m)) <= 4 * se
        wn = white_noise_model()
        for n in (1, 5, 17):
            assert triple_probability(wn, n, samples=20_000).estimate == 0.0
        ests = []
        for n in range(1, 65):
            est = triple_probability(model, n, samples=100_000, seed=n)
            bound = min(upper_tail(1.0 / abs(model.r(n))), model.r(n) ** 2)
            assert est.estimate <= bound + 4 * est.se
            ests.append(est.estimate)
        rep = power_summability(ests, k=2, delta=0.3, C=model.C, H=64)
        assert 2 * 2 * 0.3 > 1
        assert math.isfinite(rep.total)


def test_11_mixing_probe(tmp_path):
    with _Budget(600):
        spec = FieldSpec(seed=0, dimension=2, k_max=default_k_max(4096),
                         doubling=True)
        rep = mixing_probe(spec, M=5, H=4096, samples=100_000, n_min=64)
        assert rep.box_probabilities[-1] < rep.box_probabilities[0]
        assert rep.correlation <= 4 * rep.se + rep.II_bound
        code = main(["mixing", "--param", "zero=true", "--horizon", "256",
                     "--samples", "2000", "--out", str(tmp_path)])
        assert code == 1


def test_12_reproducibility(tmp_path):
    with _Budget(60):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["recur2", "--horizon", "150", "--samples", "40",
                         "--seed", "5", "--out", str(out)]) == 0
            assert main(["lclt", "--param", "n_grid=64,128", "--seed", "5",
                         "--out", str(out)]) == 0
        for name in ("report.json", "decay.csv", "lclt.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
