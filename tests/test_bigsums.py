import math

import numpy as np
import pytest

from recurlab.bigsums import endpoint_batch_law, schedule_sums
from recurlab.fields import FieldSpec, default_k_max
from recurlab.pmf import grouped_law, walk_pmf

from oracles import oracle_sums


class TestExplicitAgreesWithStepping:
    # on a gap-free schedule where every scale is dense (p_k <= 256 at
    # k_max <= 8) no aggregate is drawn, so the schedule engine reproduces
    # the stepped sums of the scalar oracle exactly

    @pytest.mark.parametrize("dim,doubling", [(1, False), (2, True)])
    def test_consecutive_times(self, dim, doubling):
        spec = FieldSpec(seed=1234, dimension=dim, k_max=8, doubling=doubling)
        sums = schedule_sums(spec, list(range(1, 41)))
        assert (sums.values == oracle_sums(spec, (0, 40))[1:]).all()

    def test_sparse_request_consecutive_anchoring(self):
        # the times of interest are read from a gap-free schedule
        spec = FieldSpec(seed=77, dimension=1, k_max=8, doubling=False)
        sums = schedule_sums(spec, list(range(1, 37)))
        path = oracle_sums(spec, (0, 36))
        for t in (3, 17, 36):
            assert (sums.value_at(t) == path[t]).all()

    def test_auto_equals_explicit_without_chunks(self):
        spec = FieldSpec(seed=5, dimension=2, k_max=7, doubling=True)
        sums = schedule_sums(spec, list(range(1, 30)))
        assert (sums.values == oracle_sums(spec, (0, 29))[1:]).all()

    def test_crosses_small_lag(self):
        # scale 2 has lag 16; times straddling it exercise the shared axis
        spec = FieldSpec(seed=9, dimension=1, k_min=2, k_max=2, doubling=False)
        sums = schedule_sums(spec, list(range(1, 25)))
        assert (sums.values == oracle_sums(spec, (0, 24))[1:]).all()


class TestAutoMode:
    def test_deterministic(self):
        spec = FieldSpec(seed=31, dimension=2, k_max=12, doubling=True)
        times = [8, 27, 64, 125, 10**6]
        a = schedule_sums(spec, times)
        b = schedule_sums(spec, times)
        assert (a.values == b.values).all()
        assert a.times == (8, 27, 64, 125, 10**6)

    def test_zero_spec(self):
        spec = FieldSpec(seed=31, dimension=2, k_max=10, zero=True)
        sums = schedule_sums(spec, [10, 10**7])
        assert (sums.values == 0).all()

    def test_large_time_variance(self):
        # endpoint variance across seeds matches the analytic atom variance
        n = 50_000
        k_max = default_k_max(n)
        vals = []
        for seed in range(250):
            spec = FieldSpec(seed=seed, dimension=1, k_max=k_max, doubling=False)
            vals.append(schedule_sums(spec, [n]).values[0, 0])
        emp = np.var(np.array(vals, dtype=np.float64))
        ana = grouped_law(1, k_max, n).variance()
        assert 0.55 * ana < emp < 1.45 * ana  # ~4 SE of a variance at 250 draws

    def test_doubling_and_dimension_shape(self):
        spec = FieldSpec(seed=4, dimension=2, k_max=9, doubling=True)
        sums = schedule_sums(spec, [1000])
        assert sums.values.shape == (1, 2)
        assert (sums.values % 2 == 0).all()

    def test_tail_variance_reported(self):
        spec = FieldSpec(seed=4, dimension=1, k_max=6, doubling=False)
        sums = schedule_sums(spec, [500])
        assert sums.tail_variance > 0

    def test_rejects_bad_input(self):
        spec = FieldSpec(seed=4, dimension=1, k_max=4)
        with pytest.raises(ValueError):
            schedule_sums(spec, [])
        with pytest.raises(ValueError):
            schedule_sums(spec, [0, 5])
        forced = FieldSpec(seed=4, dimension=1, k_max=4, overrides=(((1, 1, 0), 1),))
        with pytest.raises(ValueError):
            schedule_sums(forced, [5])


class TestEndpointLawSampler:
    def test_matches_exact_pmf_at_zero(self):
        n, k_max, size = 64, 8, 40_000
        samples = endpoint_batch_law(seed=2, n=n, size=size, k_max=k_max)
        pmf, _ = walk_pmf(FieldSpec(seed=0, dimension=1, k_max=k_max, doubling=False), n)
        for j in (0, 1, 2, 5):
            target = pmf.prob(j)
            freq = float(np.mean(samples[:, 0] == j))
            se = max(np.sqrt(target * (1 - target) / size), 1e-6)
            assert abs(freq - target) < 5 * se, f"j={j}"

    def test_variance_check_helper(self):
        n, size, k_max = 256, 30_000, 10
        samples = endpoint_batch_law(seed=3, n=n, size=size, k_max=k_max)
        emp = float(samples[:, 0].astype(np.float64).var())
        law = grouped_law(1, k_max, n)
        ana = law.variance()
        # SE of the sample variance from the true fourth moment: the law has
        # large excess kurtosis (rare heavy atoms), so the Gaussian 2 sigma^4
        # formula would understate it badly
        v = law.values.astype(np.float64)
        kappa4 = float((law.counts * (law.qs - 3 * law.qs**2) * v**4).sum())
        se = math.sqrt(max(kappa4 + 2.0 * ana * ana, 0.0) / size)
        assert abs(emp - ana) < 4 * se

    def test_symmetry_and_mean(self):
        samples = endpoint_batch_law(seed=5, n=128, size=50_000, k_max=9)
        mean = samples[:, 0].mean()
        sd = samples[:, 0].std() / np.sqrt(samples.shape[0])
        assert abs(mean) < 5 * sd + 1e-9

    def test_doubling_parity_and_shape(self):
        samples = endpoint_batch_law(seed=5, n=32, size=100, k_max=6,
                                     dimension=2, doubling=True)
        assert samples.shape == (100, 2)
        assert (samples % 2 == 0).all()

    def test_streams_independent(self):
        a = endpoint_batch_law(seed=5, n=32, size=1000, k_max=6, stream=0)
        b = endpoint_batch_law(seed=5, n=32, size=1000, k_max=6, stream=1)
        assert (a != b).any()
