import numpy as np

from recurlab import prf
from recurlab.prf import hash_words, hash_words_vec


class TestHashWordsVec:
    # the vectorized hash mixes in place, one block of prf._MIX_BLOCK values
    # at a time; every value must still equal the scalar hash

    def test_matches_scalar_across_block_edges(self):
        seeds = np.array([[0], [2**63 + 5], [2**64 - 1]], dtype=np.uint64)
        j = np.arange(-40_000, 60_000)
        h = hash_words_vec(seeds, (11, 7, 2), j)
        assert h.shape == (3, j.size) and h.dtype == np.uint64
        block = prf._MIX_BLOCK
        flat = {0, h.size - 1}
        flat |= {e + d for e in range(block, h.size, block) for d in (-1, 0, 1)}
        flat |= set(np.random.default_rng(0).integers(0, h.size, 200).tolist())
        for f in sorted(flat):
            r, c = divmod(f, j.size)
            assert int(h[r, c]) == hash_words(int(seeds[r, 0]), 11, 7, 2, int(j[c]))

    def test_scalar_and_empty_inputs(self):
        assert int(hash_words_vec(9, (), np.array(-3))) == hash_words(9, -3)
        assert hash_words_vec(9, (1,), np.arange(0)).shape == (0,)
        seed = np.array([4], dtype=np.uint64)
        hash_words_vec(seed, (1, 2), np.arange(5))
        assert seed.tolist() == [4]  # the caller's seed array is not mixed

    def test_several_array_words(self):
        # each trailing array word is absorbed in turn, broadcast against
        # the seed and the other words, as the scalar hash absorbs it
        rng = np.random.default_rng(1)
        seeds = rng.integers(0, 2**63, size=(4, 1, 1), dtype=np.uint64) * 2 + 1
        a = rng.integers(-2**62, 2**62, size=(1, 5, 1))
        b = np.array([-(2**62), -1, 0, 7, 2**62])
        h = hash_words_vec(seeds, (23, 0), a, b)
        assert h.shape == (4, 5, 5)
        for s, x, y in np.ndindex(h.shape):
            assert int(h[s, x, y]) == hash_words(
                int(seeds[s, 0, 0]), 23, 0, int(a[0, x, 0]), int(b[y]))
        assert int(hash_words_vec(3, (1,))) == hash_words(3, 1)
