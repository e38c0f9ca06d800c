"""Counter-based pseudorandom primitives.

Every random quantity in the simulator is a pure function of a 64-bit seed
and an integer address, so evaluation order never matters and revisiting an
address always returns the same value. The mixer is splitmix64-style
finalization applied to the absorbed address words.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_GOLD = 0x9E3779B97F4A7C15

# values per block of the vectorized mixer (512 KiB, which with its scratch
# block fits a 2 MiB L2 cache)
_MIX_BLOCK = 1 << 16


def _mix64(h: int) -> int:
    h &= _MASK
    h ^= h >> 30
    h = (h * _M1) & _MASK
    h ^= h >> 27
    h = (h * _M2) & _MASK
    h ^= h >> 31
    return h


def hash_words(seed: int, *words: int) -> int:
    """Absorb integer words into a 64-bit state; returns a mixed uint64."""
    h = _mix64((seed & _MASK) ^ _GOLD)
    for w in words:
        h = _mix64(h ^ ((w + _GOLD) & _MASK))
    return h


def _mix64_vec(h: np.ndarray) -> np.ndarray:
    """Finalize the C-contiguous uint64 array ``h`` in place and return it.

    The mixer makes eight passes over its input; taking them one block of
    _MIX_BLOCK values at a time keeps the block and its scratch in cache
    through all of them, where whole-array passes would stream a large
    array through memory eight times.
    """
    flat = h.reshape(-1)
    scratch = np.empty(min(flat.size, _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _MIX_BLOCK):
        b = flat[start : start + _MIX_BLOCK]
        tmp = scratch[: b.size]
        for shift, mult in ((30, _M1), (27, _M2)):
            b ^= np.right_shift(b, np.uint64(shift), out=tmp)
            b *= np.uint64(mult)
        b ^= np.right_shift(b, np.uint64(31), out=tmp)
    return h


def hash_words_vec(seed, words_fixed, *js: np.ndarray) -> np.ndarray:
    """Vectorized hash: fixed prefix words, then the array words ``js``.

    Element-wise equal to ``hash_words(seed, *words_fixed, *js)``. ``seed``
    and the arrays broadcast against each other; the prefix words are
    absorbed on the seed array before it broadcasts.
    """
    h = np.array(seed, dtype=np.uint64)  # a copy, mixed in place
    with np.errstate(over="ignore"):
        h ^= np.uint64(_GOLD)
        _mix64_vec(h)
        for w in words_fixed:
            h ^= np.uint64((w + _GOLD) & _MASK)
            _mix64_vec(h)
        for j in js:
            j = np.asarray(j).astype(np.int64, copy=False).view(np.uint64)
            # h ^ (j + GOLD) in one new array of the broadcast shape
            out = np.empty(np.broadcast_shapes(h.shape, j.shape), dtype=np.uint64)
            np.add(j, np.uint64(_GOLD), out=out)
            out ^= h
            h = _mix64_vec(out)
        return h


def derive_rng(seed: int, *words: int) -> np.random.Generator:
    """A numpy Generator deterministically keyed by (seed, words).

    Its key is hash_words(seed, *words, t) for t = 0..3; the four share the
    state after absorbing (seed, words), which is computed once.
    """
    h = hash_words(seed, *words)
    key = [_mix64(h ^ ((t + _GOLD) & _MASK)) for t in range(4)]
    return np.random.Generator(np.random.PCG64(key))
