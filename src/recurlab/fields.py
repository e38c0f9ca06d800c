"""Multi-scale three-valued random fields and their moving-block cocycle.

A field value at address (k, i, j) is +1 or -1 with probability alpha_k^2/2
each and 0 otherwise, independent across addresses. The scale-k block
function sums p_k consecutive values minus the same block lagged by d_k,
and the walk increment is the sum of the block functions over all scales up
to a truncation. ``FieldSpec`` is the law; every reader of a realization
takes the 64-bit seeds it realizes, and is deterministic given them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import PreconditionError
from .prf import hash_words_vec

# Address-word tags keep the field family, the omega configuration and any
# auxiliary streams in disjoint key spaces.
TAG_FIELD = 11
TAG_OMEGA = 23
TAG_BLOCK = 37

COORD_BOUND = 1 << 60

# field values per hashed block of field_nonzeros, plus temporaries its size
_BLOCK_ELEMS = 1 << 18

# scales with q_k <= 2^-KEYED_BITS (k >= 3) are realized in keyed blocks
KEYED_BITS = 8
# words of a keyed block's count and position hashes, apart from the lag word 1
_COUNT, _POSITION = 2, 3


def lag_namespace(k: int) -> bool:
    """Scales whose lag exceeds the coordinate bound key their lagged window
    in a separate address namespace (offset from d_k) instead of by absolute
    position, which would wrap modulo 2^64 and alias onto the lead window."""
    return k * k >= 60


@dataclass(frozen=True)
class ScaleParams:
    """Block length, lag and amplitude of one scale."""

    k: int
    p: int
    d: int
    alpha: float

    @property
    def q(self) -> float:
        """Probability that a single field value is nonzero."""
        return self.alpha * self.alpha


# the largest scale whose period p_k fits in an int64: p_62 = 2^62
K_MAX_LIMIT = 62


def scale_params(k: int) -> ScaleParams:
    if k <= 0:
        raise ValueError(f"scale index must be >= 1, got {k}")
    p = 2**k if k % 2 == 0 else 2**k + 1
    d = 2 ** (k * k)
    if k == 1:
        alpha = 0.5
    else:
        # log base 2: makes the per-step variance of the contributing band
        # total 2 (ln 2)^2.
        alpha = 1.0 / (p * math.sqrt(k * math.log2(k)))
    return ScaleParams(k=k, p=p, d=d, alpha=alpha)


@dataclass(frozen=True)
class FieldSpec:
    """Law of the multi-scale field: its coordinates, scales and doubling.
    A seed picks one realization of it."""

    dimension: int = 2
    k_min: int = 1
    k_max: int = 8
    doubling: bool = True
    zero: bool = False

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not (1 <= self.k_min <= self.k_max):
            raise PreconditionError("need 1 <= k_min <= k_max")
        if self.k_max > K_MAX_LIMIT:
            raise PreconditionError(
                f"k_max must be <= {K_MAX_LIMIT}, got {self.k_max}: the kernels "
                f"hold periods as int64, and p_63 = 2^63 + 1 overflows it")

    def scales(self) -> List[ScaleParams]:
        return [scale_params(k) for k in range(self.k_min, self.k_max + 1)]


def default_k_max(n_max: int) -> int:
    """Truncation scale for horizons up to n_max."""
    return max(1, math.ceil(math.log2(max(2, n_max)))) + 2


def tail_variance_bound(n: int, k_max: int) -> float:
    """Per-coordinate variance neglected by truncating scales above k_max.

    A scale with p_k > n contributes at most 2 n^2 alpha_k^2 p_k to the
    variance of S_n; summed over k > k_max the bound is a fast geometric
    tail, reported alongside every result that uses the truncation.
    """
    total = 0.0
    for k in range(k_max + 1, k_max + 64):
        sp = scale_params(k)
        term = 2.0 * n * n * sp.q * sp.p
        total += term
        if term < 1e-300:
            break
    return total


def _thresholds(q: float) -> Tuple[np.uint64, np.uint64]:
    """Hash thresholds of a field value with P(nonzero) = q: the value is
    nonzero iff h < the first and +1 iff h < the second.

    The uniform of a hash h is u = m 2^-53 with m = h >> 11, and u < x iff
    m < ceil(x 2^53) iff h < ceil(x 2^53) << 11: x 2^53 and m 2^-53 are
    exact, and the 11 low bits of h cannot carry it past a multiple of
    2^11. So comparing the raw hash is exactly u < q and u < q / 2, with no
    float conversion; q < 1 keeps both thresholds below 2^64.
    """
    return tuple(np.uint64(math.ceil(x * 2.0**53) << 11) for x in (q, q / 2))


def block_bits(q: float) -> int:
    """b = min(floor(log2(1 / q)), 62): a keyed block of 2^b values holds
    q 2^b <= 1 nonzero values on average."""
    return min(62, math.floor(-math.log2(q)))


@lru_cache(maxsize=128)
def _count_thresholds(q: float, b: int) -> np.ndarray:
    """Hash thresholds of a keyed block's Binomial(2^b, q) count, the number
    at or below its hash: F(c) = 1 - P(count > c), tails summed smallest pmf
    term first, compared as in ``_thresholds``. The count stops where the tail is
    below 2^-53, the uniforms' spacing (c <= 17), so its law is within a few 2^-53.
    One read-only table per scale's (q, b), computed on its first use."""
    pmf = [math.exp(2.0**b * math.log1p(-q))]
    for c in range(40):
        pmf.append(pmf[-1] * (2.0**b - c) / (c + 1) * q / (1.0 - q))
    tails = np.cumsum(pmf[::-1])[::-1][1:]  # tails[c] = P(count > c)
    table = np.array([math.ceil((1.0 - t) * 2.0**53) << 11
                      for t in tails[: np.argmax(tails < 2.0**-53)]], dtype=np.uint64)
    table.flags.writeable = False
    return table


def field_nonzeros(spec: FieldSpec, seeds, k: int, i: int, lo, hi,
                   lagged: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero field values of scale k, coordinate i over the sorted
    disjoint int64 segments [lo, hi) (offsets from d_k if ``lagged``) laid
    end to end: seed row, packed coordinate and value (+1 or -1), sorted by
    row and coordinate, a row per entry of ``seeds``.

    Scales with q_k > 2^-KEYED_BITS (k <= 2) hash each value, in (rows x
    coordinates) blocks of at most _BLOCK_ELEMS values. The others hash
    only the aligned keyed blocks of 2^b values, b = ``block_bits(q_k)``,
    that the segments touch: the hash of (seed, block) gives its
    Binomial(2^b, q_k) count (``_count_thresholds``), the t-th hash of
    (seed, block, t) a position (top b bits) and a sign (low bit), skipped
    if drawn before. So a block holds a uniform subset with fair signs.
    """
    sp = scale_params(k)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    if lagged and not lag_namespace(k):
        lo, hi, lagged = lo + sp.d, hi + sp.d, False
    start = np.cumsum(hi - lo) - (hi - lo)
    if spec.zero:
        return (np.zeros(0, dtype=np.int64),) * 3
    # scales whose lag needs its own namespace key it with one more word
    words = (TAG_FIELD, k, i, 1) if lagged else (TAG_FIELD, k, i)
    b = block_bits(sp.q)
    if b < KEYED_BITS:
        width = int(start[-1] + hi[-1] - lo[-1])
        js = np.repeat(lo - start, hi - lo) + np.arange(width)
        nonzero, plus = _thresholds(sp.q)
        step, cols = max(1, _BLOCK_ELEMS // width), min(width, _BLOCK_ELEMS)
        out = []
        for r0 in range(0, seeds.size, step):
            for c0 in range(0, width, cols):
                h = hash_words_vec(seeds[r0 : r0 + step, None], words, js[c0 : c0 + cols])
                r, c = np.nonzero(h < nonzero)
                out.append((r + r0, c + c0, np.where(h[r, c] < plus, 1, -1)))
        return tuple(np.concatenate(parts) for parts in zip(*out))
    spans = ((hi - 1) >> b) - (lo >> b) + 1
    blocks = np.arange(spans.sum()) + np.repeat((lo >> b) - np.cumsum(spans) + spans, spans)
    blocks = blocks[np.diff(blocks, prepend=blocks[0] - 1) != 0]
    count = np.searchsorted(_count_thresholds(sp.q, b), side="right",
                            v=hash_words_vec(seeds[:, None], words + (_COUNT,), blocks))
    row, blk = np.nonzero(count)
    need = count[row, blk]
    # the t-th draw of pair p = (row, block); a position the pair holds
    # already is dropped, and the pair draws again at the next t
    pair = pos = np.zeros(0, np.int64)
    h, drawn, missing = np.zeros(0, np.uint64), 0 * need, need
    while missing.any():
        new = np.repeat(np.arange(need.size), missing)
        t = drawn[new] + np.arange(new.size) - np.repeat(np.cumsum(missing) - missing, missing)
        drawn += missing
        pair = np.concatenate([pair, new])
        h = np.concatenate([h, hash_words_vec(seeds[row[new]], words + (_POSITION,),
                                              blocks[blk[new]], t)])
        pos = (h >> np.uint64(64 - b)).astype(np.int64)
        order = np.lexsort((pos, pair))  # stable: the earliest of equal draws first
        keep = np.empty(pair.size, dtype=bool)
        keep[order] = np.diff(np.stack([pair, pos])[:, order], prepend=-1).any(axis=0)
        pair, h, pos = pair[keep], h[keep], pos[keep]
        missing = need - np.bincount(pair, minlength=need.size)
    j = (blocks[blk[pair]] << b) + pos
    seg = np.searchsorted(lo, j, side="right") - 1
    inside = (seg >= 0) & (j < hi[seg])
    row, c, x = row[pair][inside], (j - lo[seg] + start[seg])[inside], h[inside] & np.uint64(1)
    order = np.lexsort((c, row))
    return row[order], c[order], 2 * x[order].astype(np.int64) - 1


def _scatter(diff: np.ndarray, row: np.ndarray, m: np.ndarray, v: np.ndarray,
             i: int, p: int) -> None:
    """Add a field value v at window position m to the increments
    t = max(0, m - p + 1) .. min(m, W - 1) of coordinate i in its rows of
    ``diff``, whose column 1 + t accumulates increment t: +v at the first,
    -v past the last unless that lies beyond the row."""
    W, dim = diff.shape[1] - 1, diff.shape[2]
    col = np.concatenate([np.maximum(m - p + 1, 0), m + 1]) + 1
    at = (np.concatenate([row, row]) * (W + 1) + col) * dim + i
    inside = col <= W
    np.add.at(diff.reshape(-1), at[inside], np.concatenate([v, -v])[inside])


def partial_sums_batch(spec: FieldSpec, seeds: np.ndarray, window: Tuple[int, int],
                       scales: Optional[Sequence[Sequence[ScaleParams]]] = None) -> np.ndarray:
    """S_t for t in [a, b] and every seed: shape (seeds, b - a + 1, dimension),
    int64, row r the realization of ``seeds[r]``.

    The window must satisfy a <= 0 <= b; S_t sums the increments over
    [0, t) for t >= 0 and minus those over [t, 0) for t < 0. ``scales``
    holds the scales each coordinate reads, one sequence per coordinate;
    by default every coordinate reads every scale of the spec.

    A scale's value v at position m of its window [a, b + p - 1) enters
    the increments t - a in [m - p + 1, m], negated on the lag axis. The
    window's nonzero values (``field_nonzeros``; under 0.3% from k = 3 on)
    are scattered, as +v and -v at the ends of their ranges, into a
    (seeds x (W + 1)) difference array, W = b - a, in row chunks expected
    to hold _BLOCK_ELEMS / 4 of them; two in-place cumulative sums make
    the increments, then the path.
    """
    a, b = window
    if a > b or not (a <= 0 <= b):
        raise ValueError(f"window [{a}, {b}] must satisfy a <= 0 <= b")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    W = b - a
    out = np.zeros((seeds.size, W + 1, spec.dimension), dtype=np.int64)
    mult = 2 if spec.doubling else 1
    if scales is None:
        scales = [spec.scales()] * spec.dimension
    for i, read in enumerate(scales):
        for sp in read:
            size = W + sp.p - 1
            rows = max(1, int(_BLOCK_ELEMS / (4 * size * sp.q)))
            for lagged, sign in ((False, mult), (True, -mult)):
                for r in range(0, seeds.size, rows):
                    row, m, x = field_nonzeros(spec, seeds[r : r + rows], sp.k, i + 1,
                                               [a], [a + size], lagged)
                    _scatter(out, row + r, m, sign * x, i, sp.p)
    np.cumsum(out, axis=1, out=out)
    np.cumsum(out, axis=1, out=out)
    if a:
        out -= out[:, [-a], :]
    return out
