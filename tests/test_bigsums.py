import hashlib
import math

import numpy as np
import pytest

from recurlab import bigsums
from recurlab.bigsums import _AxisEval, endpoint_batch_law, schedule_sums
from recurlab.fields import FieldSpec, default_k_max, scale_params
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


SQUARES_AND_CUBES = sorted({n**e for n in range(1, 101) for e in (2, 3)})


def _digest(spec, times):
    return hashlib.sha256(schedule_sums(spec, times).values.tobytes()).hexdigest()


class TestPinnedRealizations:
    # sha256 of the endpoint tables, taken from the per-segment engine that
    # preceded the vectorized one; they pin every value, the keyed
    # aggregate draws and the sparse position sampler, so any change to the
    # order in which the axis streams are consumed shows up here

    # dim 2, k_max 22 over {n^2, n^3 : n <= 100}: the shared axis (k <= 4),
    # split axes, the lag namespace (k >= 8) and sparse scales (k >= 11)
    @pytest.mark.parametrize("seed,digest", [
        (0, "7bac6d180bea77a720031c5e36a7ac3fcf6955198a33212cd77eb73ae49ccba6"),
        (1, "a95014c250524e09f04613944f4cf4518815c93a9b0d514de12db2ef578e65bf"),
        (2, "aa4db5d9673b6908b863bae5a59759e09e26af0a11dcc40803bb3916fc63f615"),
    ])
    def test_square_and_cube_schedule(self, seed, digest):
        assert _digest(FieldSpec(seed=seed, dimension=2, k_max=22), SQUARES_AND_CUBES) == digest

    # the same with every scale on the sparse sampler and its redraw loop
    @pytest.mark.parametrize("seed,digest", [
        (0, "44a6fc09c97894063e4342e9a79e677a9f7b28a08b024283ec8bc533ecf879d0"),
        (1, "c34e18eb55658cd2fdf749b968c9edb080d7de9879849be0122cf7cc12dd4f57"),
        (2, "af373873029c67f606eecf7cb10db9bf00452db3847b5941730485292768d6ae"),
    ])
    def test_all_scales_sparse(self, seed, digest, monkeypatch):
        monkeypatch.setattr(bigsums, "DENSE_P_THRESHOLD", 1)
        assert _digest(FieldSpec(seed=seed, dimension=2, k_max=22), SQUARES_AND_CUBES) == digest

    # times up to 2^57, where absolute coordinates would overflow any
    # weighted sum taken on the axis itself
    @pytest.mark.parametrize("seed,digest", [
        (0, "2bf4d7ca6c2c41f41565d7f41c4122285f76cb7d1df4642334ca4b91122e20e6"),
        (1, "0e31db8348765ad5da7f2e44c82f887d40f902e038b8bd8c47992770618284d1"),
        (2, "4aa75077b5fef56de9c97737fe9f9186375eac167a912e094a32dccef716e34a"),
    ])
    def test_large_times(self, seed, digest):
        spec = FieldSpec(seed=seed, dimension=1, k_max=30, doubling=False)
        assert _digest(spec, [10, 10**7, 10**12, 2**57]) == digest

    @pytest.mark.parametrize("dense", [True, False])
    def test_query_off_anchors_rejected(self, dense):
        sp = scale_params(3)
        spec = FieldSpec(seed=1, dimension=1, k_max=3)
        axis = _AxisEval(spec, sp, 1, [0, 1000], lag=False, dense=dense)
        axis.running_sum([0, 1000, 1000 + sp.p - 2])
        axis.ramp([0, 1000])
        for offset in (sp.p - 1, 500, 1000 + sp.p - 1, -1):
            with pytest.raises(ValueError, match="not an anchor"):
                axis.running_sum([offset])
        with pytest.raises(ValueError, match="not an anchor"):
            axis.ramp([1])  # its window runs past the end of the segment


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
