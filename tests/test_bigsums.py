import hashlib

import numpy as np
import pytest

from recurlab import bigsums
from recurlab.bigsums import _AxisEval, pool_schedule_sums
from recurlab.fields import FieldSpec, ForcedWindow, default_k_max, scale_params
from recurlab.pmf import grouped_law

from oracles import oracle_sums


class TestExplicitAgreesWithStepping:
    # on a gap-free schedule where every scale is dense (p_k <= 256 at
    # k_max <= 8) no aggregate is drawn, so the schedule engine reproduces
    # the stepped sums of the scalar oracle exactly

    @pytest.mark.parametrize("dim,doubling", [(1, False), (2, True)])
    def test_consecutive_times(self, dim, doubling):
        spec = FieldSpec(seed=1234, dimension=dim, k_max=8, doubling=doubling)
        sums = pool_schedule_sums(spec, [spec.seed], list(range(1, 41)))[0]
        assert (sums == oracle_sums(spec, (0, 40))[1:]).all()

    def test_sparse_request_consecutive_anchoring(self):
        # the times of interest are read from a gap-free schedule
        spec = FieldSpec(seed=77, dimension=1, k_max=8, doubling=False)
        sums = pool_schedule_sums(spec, [spec.seed], list(range(1, 37)))[0]
        path = oracle_sums(spec, (0, 36))
        for t in (3, 17, 36):
            assert (sums[t - 1] == path[t]).all()

    def test_auto_equals_explicit_without_chunks(self):
        spec = FieldSpec(seed=5, dimension=2, k_max=7, doubling=True)
        sums = pool_schedule_sums(spec, [spec.seed], list(range(1, 30)))[0]
        assert (sums == oracle_sums(spec, (0, 29))[1:]).all()

    def test_crosses_small_lag(self):
        # scale 2 has lag 16; times straddling it exercise the shared axis
        spec = FieldSpec(seed=9, dimension=1, k_min=2, k_max=2, doubling=False)
        sums = pool_schedule_sums(spec, [spec.seed], list(range(1, 25)))[0]
        assert (sums == oracle_sums(spec, (0, 24))[1:]).all()


SQUARES_AND_CUBES = sorted({n**e for n in range(1, 101) for e in (2, 3)})


def _digest(spec, times):
    values = pool_schedule_sums(spec, [spec.seed], times)[0]
    return hashlib.sha256(values.tobytes()).hexdigest()


class TestPinnedRealizations:
    # sha256 of the endpoint tables; they pin every value, the keyed
    # aggregate draws and the sparse position sampler, so any change to the
    # order in which the axis streams are consumed shows up here. They were
    # re-pinned once, when each axis came to draw its gap aggregates in one
    # array call, a multinomial count of the gap's +1 and -1 values per
    # gap, in place of a binomial count and a binomial of its signs per gap
    # in a loop: the same law, consumed from the stream in another way

    # dim 2, k_max 22 over {n^2, n^3 : n <= 100}: the shared axis (k <= 4),
    # split axes, the lag namespace (k >= 8) and sparse scales (k >= 11)
    @pytest.mark.parametrize("seed,digest", [
        (0, "73280cab97f5fe08e32ecd034998ab62a99f9a3fc7371e8dbce076f05547a09a"),
        (1, "b744a2a24e1d776ecb9049f451b31833e25a3cff9e957a06118aab0ca2c19de6"),
        (2, "6bf302a4f1469172da4535a31e7ae28f5293a3ad796742254bf02082afbef590"),
    ])
    def test_square_and_cube_schedule(self, seed, digest):
        assert _digest(FieldSpec(seed=seed, dimension=2, k_max=22), SQUARES_AND_CUBES) == digest

    # the same with every scale on the sparse sampler and its redraw loop
    @pytest.mark.parametrize("seed,digest", [
        (0, "3a5cf5fea10178aa0993277f1758c5faa97cdbc87fa37d954c374013b7a6bce7"),
        (1, "ade0cce83d8a3dfeafffef0e2784a8eecfa0d7d8d806f9aa1ae432dc5e2f7598"),
        (2, "0850f5bea7bba60da32ea538c04992ff8c9552f521de1e01db7d044fae66fd16"),
    ])
    def test_all_scales_sparse(self, seed, digest, monkeypatch):
        monkeypatch.setattr(bigsums, "DENSE_P_THRESHOLD", 1)
        assert _digest(FieldSpec(seed=seed, dimension=2, k_max=22), SQUARES_AND_CUBES) == digest

    # times up to 2^57, where absolute coordinates would overflow any
    # weighted sum taken on the axis itself
    @pytest.mark.parametrize("seed,digest", [
        (0, "3bb6f6c785087625f473ad02f678a77e5caae90f8e34550b6ef9c5213f681a64"),
        (1, "cfee10f1f706c49842471237cbe946908b876a8f0358aff6b5f31c95400402b5"),
        (2, "0412f99eb20eff72a43d4b67f9590361b1b17c4380eb786dfeb15342c2e3d6d2"),
    ])
    def test_large_times(self, seed, digest):
        spec = FieldSpec(seed=seed, dimension=1, k_max=30, doubling=False)
        assert _digest(spec, [10, 10**7, 10**12, 2**57]) == digest

    @pytest.mark.parametrize("dense", [True, False])
    def test_query_off_anchors_rejected(self, dense):
        sp = scale_params(3)
        spec = FieldSpec(seed=1, dimension=1, k_max=3)
        axis = _AxisEval(spec, sp, 1, [0, 1000], lag=False, dense=dense,
                         seeds=[spec.seed])
        axis.running_sum([0, 1000, 1000 + sp.p - 2])
        axis.ramp([0, 1000])
        for offset in (sp.p - 1, 500, 1000 + sp.p - 1, -1):
            with pytest.raises(ValueError, match="not an anchor"):
                axis.running_sum([offset])
        with pytest.raises(ValueError, match="not an anchor"):
            axis.ramp([1])  # its window runs past the end of the segment


class TestPoolSchedule:
    # one schedule evaluation for a pool of seeds: row r must equal the
    # single-seed evaluation of seed r, value for value

    SEEDS = [0, 9, 2**63 + 4, 2**64 - 1]

    @pytest.mark.parametrize("spec,times", [
        (FieldSpec(seed=0, dimension=2, k_max=22), SQUARES_AND_CUBES),
        (FieldSpec(seed=0, dimension=1, k_max=30, doubling=False),
         [10, 10**7, 10**12, 2**57]),
        # block lengths near 2^60 leave room for one seed per key array,
        # so the pool goes through one seed at a time
        (FieldSpec(seed=0, dimension=1, k_min=55, k_max=60, doubling=False),
         [3, 1000, 10**9]),
    ])
    def test_rows_equal_single_seed_sums(self, spec, times):
        pooled = pool_schedule_sums(spec, self.SEEDS, times)
        assert pooled.shape == (len(self.SEEDS), len(set(times)), spec.dimension)
        for seed, row in zip(self.SEEDS, pooled):
            alone = pool_schedule_sums(spec, [seed], times)[0]
            assert np.array_equal(row, alone)

    def test_sparse_batch_draws_equal_per_segment_draws(self):
        # the sparse sampler draws the counts of many segments in one call
        # and rewinds the generator at the first nonempty one; the stream
        # must be consumed exactly as one scalar count per segment
        def per_segment(rng, q, start, lengths):
            cs, xs = [], []
            for st, length in zip(start.tolist(), lengths.tolist()):
                count = int(rng.binomial(length, q))
                if count == 0:
                    continue
                pos = set()
                while len(pos) < count:
                    pos.update(rng.integers(0, length, count - len(pos)).tolist())
                cs.extend(st + np.sort(np.fromiter(pos, dtype=np.int64, count=count)))
                xs.extend(rng.integers(0, 2, size=count) * 2 - 1)
            return cs, xs

        lengths = np.random.default_rng(0).integers(1, 400, size=300)
        start = np.cumsum(lengths) - lengths
        for q in (1e-6, 1e-3, 0.02, 0.3):
            rng, ref = np.random.default_rng(5), np.random.default_rng(5)
            c, x = bigsums._sparse_draws(rng, q, start, lengths)
            rc, rx = per_segment(ref, q, start, lengths)
            assert c.tolist() == rc and x.tolist() == rx
            # and leaves the stream where the scalar draws leave it
            assert rng.bit_generator.state == ref.bit_generator.state


class TestAutoMode:
    def test_deterministic(self):
        spec = FieldSpec(seed=31, dimension=2, k_max=12, doubling=True)
        a = pool_schedule_sums(spec, [spec.seed], [10**6, 8, 27, 64, 125, 64])
        b = pool_schedule_sums(spec, [spec.seed], [8, 27, 64, 125, 10**6])
        assert a.shape == (1, 5, 2)
        assert (a == b).all()

    def test_zero_spec(self):
        spec = FieldSpec(seed=31, dimension=2, k_max=10, zero=True)
        assert (pool_schedule_sums(spec, [spec.seed], [10, 10**7]) == 0).all()

    def test_large_time_variance(self):
        # endpoint variance across seeds matches the analytic atom variance
        n = 50_000
        k_max = default_k_max(n)
        vals = []
        for seed in range(250):
            spec = FieldSpec(seed=seed, dimension=1, k_max=k_max, doubling=False)
            vals.append(pool_schedule_sums(spec, [seed], [n])[0, 0, 0])
        emp = np.var(np.array(vals, dtype=np.float64))
        ana = grouped_law(1, k_max, n).variance()
        assert 0.55 * ana < emp < 1.45 * ana  # ~4 SE of a variance at 250 draws

    def test_doubling_and_dimension_shape(self):
        spec = FieldSpec(seed=4, dimension=2, k_max=9, doubling=True)
        sums = pool_schedule_sums(spec, [spec.seed], [1000])[0]
        assert sums.shape == (1, 2)
        assert (sums % 2 == 0).all()

    def test_rejects_bad_input(self):
        spec = FieldSpec(seed=4, dimension=1, k_max=4)
        with pytest.raises(ValueError):
            pool_schedule_sums(spec, [spec.seed], [])
        with pytest.raises(ValueError):
            pool_schedule_sums(spec, [spec.seed], [0, 5])
        forced = FieldSpec(seed=4, dimension=1, k_max=4,
                           windows=(ForcedWindow(k=1, i=1, lo=0, hi=1, value=1),))
        with pytest.raises(ValueError):
            pool_schedule_sums(forced, [forced.seed], [5])
