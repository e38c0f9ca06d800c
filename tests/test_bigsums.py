import hashlib

import numpy as np
import pytest

from recurlab.bigsums import _Axis, pool_schedule_sums
from recurlab.fields import (
    FieldSpec,
    block_bits,
    default_k_max,
    field_nonzeros,
    partial_sums_batch,
    scale_params,
)
from recurlab.pmf import grouped_law

from oracles import oracle_schedule_sums, oracle_sums


class TestExplicitAgreesWithStepping:
    # on a gap-free schedule no aggregate is drawn, so the schedule engine
    # reproduces the stepped sums of the scalar oracle exactly

    @pytest.mark.parametrize("dim,doubling", [(1, False), (2, True)])
    def test_consecutive_times(self, dim, doubling):
        spec = FieldSpec(dimension=dim, k_max=8, doubling=doubling)
        sums = pool_schedule_sums(spec, [1234], list(range(1, 41)))[0]
        assert (sums == oracle_sums(spec, 1234, (0, 40))[1:]).all()

    def test_sparse_request_consecutive_anchoring(self):
        # the times of interest are read from a gap-free schedule
        spec = FieldSpec(dimension=1, k_max=8, doubling=False)
        sums = pool_schedule_sums(spec, [77], list(range(1, 37)))[0]
        path = oracle_sums(spec, 77, (0, 36))
        for t in (3, 17, 36):
            assert (sums[t - 1] == path[t]).all()

    def test_auto_equals_explicit_without_chunks(self):
        spec = FieldSpec(dimension=2, k_max=7, doubling=True)
        sums = pool_schedule_sums(spec, [5], list(range(1, 30)))[0]
        assert (sums == oracle_sums(spec, 5, (0, 29))[1:]).all()

    @pytest.mark.parametrize("seed", [0, 8, 2**64 - 1])
    def test_gap_free_equals_window_sums(self, seed):
        # both engines read one field: every scale up to 14, keyed blocks
        # from k = 3 on, the lag namespace from k = 8 on
        spec = FieldSpec(dimension=2, k_max=14, doubling=True)
        sums = pool_schedule_sums(spec, [seed, 5], list(range(1, 301)))
        assert np.array_equal(sums, partial_sums_batch(spec, [seed, 5], (0, 300))[:, 1:])

    def test_crosses_small_lag(self):
        # scale 2 has lag 16; times straddling it exercise the shared axis
        spec = FieldSpec(dimension=1, k_min=2, k_max=2, doubling=False)
        sums = pool_schedule_sums(spec, [9], list(range(1, 25)))[0]
        assert (sums == oracle_sums(spec, 9, (0, 24))[1:]).all()


SQUARES_AND_CUBES = sorted({n**e for n in range(1, 101) for e in (2, 3)})


def _digest(spec, seed, times):
    values = pool_schedule_sums(spec, [seed], times)[0]
    return hashlib.sha256(values.tobytes()).hexdigest()


class TestPinnedRealizations:
    # sha256 of the endpoint tables; they pin every value and the keyed
    # aggregate draws, so any change to the order in which the axis streams
    # are consumed shows up here. They were re-pinned when each axis came
    # to draw its gap aggregates in one array call, a multinomial count of
    # the gap's +1 and -1 values per gap, in place of a binomial count and
    # a binomial of its signs per gap in a loop: the same law, consumed
    # from the stream in another way. They were re-pinned again when every
    # scale from k = 3 on came to be realized in keyed blocks, one count
    # hash per block and one hash per drawn position, in place of one hash
    # per value (k <= 10) or positions drawn from the axis stream (k > 10):
    # the same i.i.d. three-valued law, realized from other hashes

    # dim 2, k_max 22 over {n^2, n^3 : n <= 100}: the shared axis (k <= 4),
    # split axes, the lag namespace (k >= 8) and keyed blocks (k >= 3)
    @pytest.mark.parametrize("seed,digest", [
        (0, "9fc7ffb5c9e0415f83166c4c877987b05c72ebeafbb719bb5f1332e8d3c0f0b0"),
        (1, "82e323e688d590c9298e4d6c3c16a404b0bfc5d57027561f77bfbfed07641c87"),
        (2, "5ce85ae637387ad65ea9481b5daed64ca937f03dff32aa7eafe6a7ff929ff3fb"),
    ], ids=["0", "1", "2"])
    def test_square_and_cube_schedule(self, seed, digest):
        assert _digest(FieldSpec(dimension=2, k_max=22), seed, SQUARES_AND_CUBES) == digest

    # the keyed blocks themselves: field_nonzeros of scales 3..30 on both
    # axes of both coordinates, over two segments that cut blocks of 2^b
    # values (b = 62 from k = 28 on) at both ends, one of them negative
    @pytest.mark.parametrize("seed,digest", [
        (0, "03d1b8967b54dbb1fb19caaaef15b3229830cc28f1a8b86ab7a61d74f62512e6"),
        (1, "1885c9f77d3d3dbe27ff13d1a79a8f6b3ced430c7e31d8b71bf84bc3a5b11c3c"),
        (2**64 - 1, "cf98465679258d3b44b49c3c26e38317fdd9313e56c80c98e9c1a2f69385dbeb"),
    ], ids=["0", "1", "max"])
    def test_keyed_block_scales(self, seed, digest):
        h = hashlib.sha256()
        for k in range(3, 31):
            size = 1 << block_bits(scale_params(k).q)
            lo, hi = [-size + 5, size // 2], [-3, size + size // 4]
            for i in (1, 2):
                for lagged in (False, True):
                    for a in field_nonzeros(FieldSpec(), seed, [(k, i, lagged, lo, hi)])[1:]:
                        h.update(a.tobytes())
        assert h.hexdigest() == digest

    # times up to 2^57, where absolute coordinates would overflow any
    # weighted sum taken on the axis itself
    @pytest.mark.parametrize("seed,digest", [
        (0, "c0fcbd4fe1a7594f70402bf5f3e43d8ddcc31bb6cf7530c3c3664b3a071f6331"),
        (1, "058fe6f6bab18eb19bcc5e25a343ee7eed6f59511ab6b71b40584ef5df8a9b00"),
        (2, "b189da7228a3be8e177e88cd0129785ad3dc60330aee3abe3512a1fe16195ce2"),
    ], ids=["0", "1", "2"])
    def test_large_times(self, seed, digest):
        spec = FieldSpec(dimension=1, k_max=30, doubling=False)
        assert _digest(spec, seed, [10, 10**7, 10**12, 2**57]) == digest

    # k_max 62 at times up to 2^57 + 12345: a lead axis of scale 62 is
    # about 2^62 values long, so its packed width, alone, comes nearest to
    # int64, and the axes go through in several groups. Pinned when the
    # engine still read one axis at a time
    @pytest.mark.parametrize("seed,digest", [
        (0, "2a5b041e1b065a1f6cb9998d29f7a3f8ce00d30494b353d767a6e8d78382d42a"),
        (1, "26ac4e14a9eff56ce9f419b015721ed27f5559c0edc6c827856c5f86d41cf52f"),
        (2, "b4ed241b9c077d92a877b3fd7f32b96178f92c17f6a19e9971228b2a47bda6ed"),
    ], ids=["0", "1", "2"])
    def test_int64_key_groups(self, seed, digest):
        spec = FieldSpec(dimension=2, k_max=62)
        assert _digest(spec, seed, [5, 10**6, 2**56 + 3, 2**57 + 12345]) == digest

    @pytest.mark.parametrize("lag", [True, False])
    def test_query_off_anchors_rejected(self, lag):
        sp = scale_params(3)
        axis = _Axis(sp, 1, [0, 1000], lag=lag)
        axis.packed([0, 1000, 1000 + sp.p - 2], 1)  # running sums
        axis.packed([0, 1000], sp.p - 1)  # ramps
        for offset in (sp.p - 1, 500, 1000 + sp.p - 1, -1):
            with pytest.raises(ValueError, match="not an anchor"):
                axis.packed([offset], 1)
        with pytest.raises(ValueError, match="not an anchor"):
            axis.packed([1], sp.p - 1)  # its window runs past the end of the segment


class TestPoolSchedule:
    # one schedule evaluation for a pool of seeds: row r must equal the
    # single-seed evaluation of seed r, value for value

    SEEDS = [0, 9, 2**63 + 4, 2**64 - 1]

    @pytest.mark.parametrize("spec,times", [
        (FieldSpec(dimension=2, k_max=22), SQUARES_AND_CUBES),
        (FieldSpec(dimension=1, k_max=30, doubling=False),
         [10, 10**7, 10**12, 2**57]),
        # block lengths near 2^60 leave room for one seed per key array,
        # so the pool goes through one seed at a time
        (FieldSpec(dimension=1, k_min=55, k_max=60, doubling=False),
         [3, 1000, 10**9]),
    ])
    def test_rows_equal_single_seed_sums(self, spec, times):
        pooled = pool_schedule_sums(spec, self.SEEDS, times)
        assert pooled.shape == (len(self.SEEDS), len(set(times)), spec.dimension)
        for seed, row in zip(self.SEEDS, pooled):
            alone = pool_schedule_sums(spec, [seed], times)[0]
            assert np.array_equal(row, alone)


class TestScheduleTable:
    # the pool-wide table, one field read per group of rows, against the
    # per-axis engine (tests/oracles.py:oracle_schedule_sums), value for
    # value: the gap draws keep their stream per (seed, axis)

    @pytest.mark.parametrize("spec,times", [
        (FieldSpec(dimension=2, k_max=22), SQUARES_AND_CUBES),
        (FieldSpec(dimension=1, k_max=30, doubling=False), [10, 10**7, 10**12, 2**57]),
        (FieldSpec(dimension=1, k_min=55, k_max=60, doubling=False), [3, 1000, 10**9]),
        (FieldSpec(dimension=2, k_max=62), [3, 1000, 2**56, 2**57 + 12345]),
        (FieldSpec(dimension=2, k_min=2, k_max=9), list(range(1, 80)) + [500, 4096]),
    ], ids=["squares-cubes", "large-times", "high-scales", "k62", "dense-run"])
    def test_equals_per_axis_engine(self, spec, times):
        seeds = [0, 9, 2**63 + 4, 2**64 - 1]
        assert np.array_equal(pool_schedule_sums(spec, seeds, times),
                              oracle_schedule_sums(spec, seeds, times))

    def test_groups_split_the_pool_and_the_axes(self, monkeypatch):
        # at 64 values per block every axis goes through alone and every
        # row by itself: the same values as one group of each
        import recurlab.bigsums as bigsums

        spec = FieldSpec(dimension=2, k_max=14)
        seeds = list(range(11))
        whole = pool_schedule_sums(spec, seeds, SQUARES_AND_CUBES[:60])
        monkeypatch.setattr(bigsums, "_BLOCK_ELEMS", 64)
        assert np.array_equal(pool_schedule_sums(spec, seeds, SQUARES_AND_CUBES[:60]), whole)
        assert np.array_equal(whole, oracle_schedule_sums(spec, seeds, SQUARES_AND_CUBES[:60]))


class TestAutoMode:
    def test_deterministic(self):
        spec = FieldSpec(dimension=2, k_max=12, doubling=True)
        a = pool_schedule_sums(spec, [31], [10**6, 8, 27, 64, 125, 64])
        b = pool_schedule_sums(spec, [31], [8, 27, 64, 125, 10**6])
        assert a.shape == (1, 5, 2)
        assert (a == b).all()

    def test_zero_spec(self):
        spec = FieldSpec(dimension=2, k_max=10, zero=True)
        assert (pool_schedule_sums(spec, [31], [10, 10**7]) == 0).all()

    def test_large_time_variance(self):
        # endpoint variance across seeds matches the analytic atom variance
        n = 50_000
        k_max = default_k_max(n)
        vals = []
        spec = FieldSpec(dimension=1, k_max=k_max, doubling=False)
        for seed in range(250):
            vals.append(pool_schedule_sums(spec, [seed], [n])[0, 0, 0])
        emp = np.var(np.array(vals, dtype=np.float64))
        ana = grouped_law(1, k_max, n).variance()
        assert 0.55 * ana < emp < 1.45 * ana  # ~4 SE of a variance at 250 draws

    def test_doubling_and_dimension_shape(self):
        spec = FieldSpec(dimension=2, k_max=9, doubling=True)
        sums = pool_schedule_sums(spec, [4], [1000])[0]
        assert sums.shape == (1, 2)
        assert (sums % 2 == 0).all()

    def test_rejects_bad_input(self):
        spec = FieldSpec(dimension=1, k_max=4)
        with pytest.raises(ValueError):
            pool_schedule_sums(spec, [4], [])
        with pytest.raises(ValueError):
            pool_schedule_sums(spec, [4], [0, 5])
