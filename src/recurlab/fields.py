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
    """Block length and amplitude of one scale, and its lag."""

    k: int
    p: int
    alpha: float

    @property
    def q(self) -> float:
        """Probability that a single field value is nonzero."""
        return self.alpha * self.alpha

    @property
    def d(self) -> int:
        """The lag d_k = 2^(k k), computed where it is read: near k = 1000
        it is a number of a million bits."""
        return 2 ** (self.k * self.k)


# the largest scale whose period p_k fits in an int64: p_62 = 2^62
K_MAX_LIMIT = 62


def scale_params(k: int) -> ScaleParams:
    if k <= 0:
        raise ValueError(f"scale index must be >= 1, got {k}")
    p = 2**k if k % 2 == 0 else 2**k + 1
    if k == 1:
        alpha = 0.5
    else:
        # log base 2: makes the per-step variance of the contributing band
        # total 2 (ln 2)^2.
        alpha = 1.0 / (p * math.sqrt(k * math.log2(k)))
    return ScaleParams(k=k, p=p, alpha=alpha)


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


def field_nonzeros(spec: FieldSpec, seeds, axes) -> Tuple[np.ndarray, ...]:
    """The nonzero field values on ``axes``, a row per entry of ``seeds``.

    An axis (k, i, lagged, lo, hi) is scale k, coordinate i over the sorted
    disjoint int64 segments [lo, hi) (offsets from d_k if ``lagged``) laid
    end to end. Returns axis index, seed row, packed coordinate on the axis
    and value (+1 or -1), sorted by axis, row and coordinate.

    Scales with q_k > 2^-KEYED_BITS (k <= 2) hash each value, an axis at a
    time, in (rows x coordinates) blocks of at most _BLOCK_ELEMS values. The
    others hash only the aligned keyed blocks of 2^b values, b =
    ``block_bits(q_k)``, that the segments touch: the hash of (seed, block)
    gives its Binomial(2^b, q_k) count (``_count_thresholds``), the t-th hash
    of (seed, block, t) a position (top b bits) and a sign (low bit), skipped
    if drawn before. So a block holds a uniform subset with fair signs. The
    (block, row) pairs of every keyed axis go through together, with k and
    i as array words (``_keyed_nonzeros``).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    read = []
    for k, i, lagged, lo, hi in [] if spec.zero else axes:
        sp = scale_params(k)
        lo = np.asarray(lo, dtype=np.int64).reshape(-1)
        hi = np.asarray(hi, dtype=np.int64).reshape(-1)
        if lagged and not lag_namespace(k):
            lo, hi, lagged = lo + sp.d, hi + sp.d, False
        read.append((sp, i, lagged, lo, hi))
    keyed = [(a, *ax) for a, ax in enumerate(read)
             if block_bits(ax[0].q) >= KEYED_BITS and ax[3].size]
    # the keyed axes' hulls share one uint64 line; past it, halves
    if len(keyed) > 1 and sum(int(ax[5][-1]) - int(ax[4][0]) for ax in keyed) >= 1 << 64:
        half = len(axes) // 2
        first, second = (field_nonzeros(spec, seeds, part) for part in (axes[:half], axes[half:]))
        return tuple(np.concatenate(pair) for pair in zip(first, (second[0] + half,) + second[1:]))
    # the dense scales (k <= 2) never key the lag namespace
    dense = {a: _dense_nonzeros(seeds, (TAG_FIELD, sp.k, i), sp.q, lo, hi)
             for a, (sp, i, _, lo, hi) in enumerate(read) if block_bits(sp.q) < KEYED_BITS}
    axis, row, c, x = _keyed_nonzeros(seeds, keyed)
    order = np.lexsort((c, row, axis))
    axis, row, c, x = axis[order], row[order], c[order], x[order]
    # the axes in order, each its dense read or its run of the keyed one
    bounds = np.searchsorted(axis, np.arange(len(axes) + 1))
    parts = [(np.zeros(0, dtype=np.int64),) * 4]
    for a in range(len(axes)):
        if a in dense:
            parts += [(np.full(rows.size, a), rows, cs, xs) for rows, cs, xs in dense[a]]
        else:
            parts.append(tuple(v[bounds[a] : bounds[a + 1]] for v in (axis, row, c, x)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _dense_nonzeros(seeds: np.ndarray, words: Tuple[int, ...], q: float,
                    lo: np.ndarray, hi: np.ndarray) -> List[Tuple[np.ndarray, ...]]:
    """(seed row, packed coordinate, value) of one axis hashed per value,
    one triple per block, sorted by row and coordinate: the flat indices of
    each block's nonzero values, row-major, split by the block's width."""
    width = int((hi - lo).sum())
    start = np.cumsum(hi - lo) - (hi - lo)
    js = np.repeat(lo - start, hi - lo) + np.arange(width)
    nonzero, plus = _thresholds(q)
    step, cols = max(1, _BLOCK_ELEMS // max(width, 1)), max(1, min(width, _BLOCK_ELEMS))
    out = []
    for r0 in range(0, seeds.size, step):
        for c0 in range(0, width, cols):
            h = hash_words_vec(seeds[r0 : r0 + step, None], words, js[c0 : c0 + cols])
            f = np.flatnonzero(h < nonzero)
            r, c = np.divmod(f, h.shape[1])
            out.append((r + r0, c + c0, np.where(h.reshape(-1)[f] < plus, 1, -1)))
    return out


def _keyed_hash(seed, k, i, lagged: bool, word: int, *js) -> np.ndarray:
    """hash_words(seed, TAG_FIELD, k, i, [1,] word, *js) element by element,
    with the lag word 1 if ``lagged``: k and i are array words."""
    return hash_words_vec(seed, (TAG_FIELD,), k, i, *((1,) if lagged else ()), word, *js)


def _by_layout(blk: np.ndarray, cut: int):
    """(slice, lagged) of the runs of the sorted block indices ``blk``
    below ``cut``, without the lag word, and from it on, with it."""
    m = int(np.searchsorted(blk, cut))
    return [(s, lag) for s, lag in ((slice(0, m), False), (slice(m, blk.size), True))
            if s.stop > s.start]


def _keyed_segments(axes: Sequence[tuple]):
    """The layout of the keyed axes (a, sp, i, lagged, lo, hi), in order:
    per axis its hull [lo_0, hi_last) and the hull's base on a line that
    lays the hulls end to end; per segment its position on that line, its
    length and its packed start on its axis; and the distinct (axis, block)
    pairs the segments touch, in order.

    An axis's hull, a difference of int64 values, may pass 2^63 but not
    2^64: the line is uint64, and int64 differences are read as uint64. The
    int64 sums of lengths across axes may wrap too; their differences within
    an axis are exact.
    """
    bits = np.array([block_bits(ax[1].q) for ax in axes])
    nseg = np.array([ax[4].size for ax in axes])
    first = np.cumsum(nseg) - nseg
    lo, hi = np.concatenate([ax[4] for ax in axes]), np.concatenate([ax[5] for ax in axes])
    seg_axis = np.repeat(np.arange(len(axes)), nseg)
    length = hi - lo
    start = np.cumsum(length) - length
    start -= start[first][seg_axis]
    hull_lo, hull_hi = lo[first], hi[first + nseg - 1]
    hull = (hull_hi - hull_lo).view(np.uint64)
    base = np.cumsum(hull) - hull
    line = (lo - hull_lo[seg_axis]).view(np.uint64) + base[seg_axis]
    sb = bits[seg_axis]
    spans = ((hi - 1) >> sb) - (lo >> sb) + 1
    blocks = np.arange(spans.sum()) + np.repeat((lo >> sb) - np.cumsum(spans) + spans, spans)
    blk_axis = np.repeat(seg_axis, spans)
    fresh = np.ones(blocks.size, dtype=bool)
    fresh[1:] = (np.diff(blocks) != 0) | (np.diff(blk_axis) != 0)
    return (hull_lo, hull_hi, base), (line, length.view(np.uint64), start), \
        (blocks[fresh], blk_axis[fresh])


def _keyed_nonzeros(seeds: np.ndarray, axes: Sequence[tuple]) -> Tuple[np.ndarray, ...]:
    """(axis, seed row, packed coordinate, value) of the keyed axes (a, sp,
    i, lagged, lo, hi), unsorted.

    The (block, row) pairs go through in chunks of whole blocks, about
    _BLOCK_ELEMS / 4 pairs each. The axes without the lag word come first,
    so a chunk holds at most one run of each word layout. A block's count
    is the number of its scale's thresholds at or below its hash, all
    scales in one ``searchsorted``: the thresholds are multiples of 2^11
    below 2^64 (``_thresholds``), so t <= h iff t >> 11 <= h >> 11, and
    k 2^54 + (t >> 11) puts each scale's thresholds after those of smaller
    k. The drawn positions find their segments through one ``searchsorted``
    on the line of ``_keyed_segments``.
    """
    empty = (np.zeros(0, dtype=np.int64),) * 4
    if not axes:
        return empty
    axes = sorted(axes, key=lambda ax: ax[3])
    ids = np.array([ax[0] for ax in axes])
    ks = np.array([ax[1].k for ax in axes])
    cs = np.array([ax[2] for ax in axes])
    bits = np.array([block_bits(ax[1].q) for ax in axes])
    (hull_lo, hull_hi, base), (line, length, start), (blocks, blk_axis) = _keyed_segments(axes)
    cut = int(np.searchsorted(blk_axis, sum(not ax[3] for ax in axes)))
    sps = {ax[1].k: ax[1] for ax in axes}
    scales = sorted(sps)
    tables = [_count_thresholds(sps[k].q, block_bits(sps[k].q)) for k in scales]
    offset = np.zeros(scales[-1] + 1, dtype=np.int64)
    offset[scales] = np.cumsum([0] + [t.size for t in tables[:-1]])
    table = np.concatenate([np.uint64(k << 54) | (t >> np.uint64(11)) for k, t in zip(scales, tables)])
    out = [empty]
    step = max(1, _BLOCK_ELEMS // 4 // max(1, seeds.size))
    for b0 in range(0, blocks.size, step):
        gs = np.arange(b0, min(b0 + step, blocks.size))
        ga = blk_axis[gs, None]
        h = np.concatenate([_keyed_hash(seeds, ks[ga[s]], cs[ga[s]], lag, _COUNT, blocks[gs[s], None])
                            for s, lag in _by_layout(gs, cut)])
        key = (ks[ga].astype(np.uint64) << np.uint64(54)) | (h >> np.uint64(11))
        count = np.searchsorted(table, key, side="right") - offset[ks[ga]]
        g, row = np.divmod(np.flatnonzero(count), seeds.size)
        need, g = count[g, row], gs[g]
        # the t-th draw of pair p = (block, row); a position the pair holds
        # already is dropped, and the pair draws again at the next t. A
        # stable sort by pair puts each pair's need draws together, earliest
        # first, and each is checked against the need - 1 before it
        pair = pos = np.zeros(0, np.int64)
        h, drawn, missing = np.zeros(0, np.uint64), 0 * need, need
        shift = (64 - bits[blk_axis[g]]).astype(np.uint64)
        while missing.any():
            new = np.repeat(np.arange(need.size), missing)
            t = drawn[new] + np.arange(new.size) - np.repeat(np.cumsum(missing) - missing, missing)
            drawn += missing
            gn, rn = g[new], row[new]
            an = blk_axis[gn]
            h = np.concatenate([h] + [_keyed_hash(seeds[rn[s]], ks[an[s]], cs[an[s]], lag,
                                                  _POSITION, blocks[gn[s]], t[s])
                                      for s, lag in _by_layout(gn, cut)])
            order = np.argsort(np.concatenate([pair, new]), kind="stable")
            pair, h = np.concatenate([pair, new])[order], h[order]
            pos = (h >> shift[pair]).astype(np.int64)
            keep = np.ones(pair.size, dtype=bool)
            for back in range(1, int(need.max())):
                keep[back:] &= (pair[back:] != pair[:-back]) | (pos[back:] != pos[:-back])
            pair, h, pos = pair[keep], h[keep], pos[keep]
            missing = need - np.bincount(pair, minlength=need.size)
        a = blk_axis[g[pair]]
        j = (blocks[g[pair]] << bits[a]) + pos
        on = np.flatnonzero((j >= hull_lo[a]) & (j < hull_hi[a]))
        a = a[on]
        u = (j[on] - hull_lo[a]).view(np.uint64) + base[a]
        seg = np.searchsorted(line, u, side="right") - 1
        into = u - line[seg]
        inside = np.flatnonzero(into < length[seg])
        out.append((ids[a[inside]], row[pair[on[inside]]],
                    into[inside].view(np.int64) + start[seg[inside]],
                    2 * (h[on[inside]] & np.uint64(1)).astype(np.int64) - 1))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _scatter(diff: np.ndarray, row: np.ndarray, m: np.ndarray, v: np.ndarray,
             i: np.ndarray, p: np.ndarray) -> None:
    """Add each field value v at position m < W + p - 1 of its scale's
    window, block length p, W >= 1, to the increments t = max(0, m - p + 1) ..
    min(m, W - 1) of coordinate i in its rows of ``diff``, whose column
    1 + t accumulates increment t: +v at the first, -v past the last unless
    that lies beyond the row. Every argument after ``diff`` holds one entry
    per value."""
    W, dim = diff.shape[1] - 1, diff.shape[2]
    at = (row * (W + 1) + 1) * dim + i  # increment 0 of the value's row and coordinate
    np.add.at(diff.reshape(-1), at + np.maximum(m - p + 1, 0) * dim, v)
    past = np.flatnonzero(m < W - 1)
    np.add.at(diff.reshape(-1), at[past] + (m[past] + 1) * dim, -v[past])


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
    nonzero values of every window, both axes of each scale read
    (``field_nonzeros``; under 0.3% from k = 3 on), are read and scattered,
    as +v and -v at the ends of their ranges, into a (seeds x (W + 1))
    difference array, W = b - a, in row chunks expected to hold
    _BLOCK_ELEMS / 4 of them, one read and one scatter each; two in-place
    cumulative sums make the increments, then the path.
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
    read = [(i, sp, lagged) for i, ks in enumerate(scales) for sp in ks
            for lagged in (False, True)]
    axes = [(sp.k, i + 1, lagged, [a], [a + W + sp.p - 1]) for i, sp, lagged in read]
    coord = np.array([i for i, _, _ in read], dtype=np.int64)
    period = np.array([sp.p for _, sp, _ in read], dtype=np.int64)
    sign = np.array([-mult if lagged else mult for _, _, lagged in read], dtype=np.int64)
    # a window of one time has no increment to read
    if read and W:
        rows = max(1, int(_BLOCK_ELEMS / (4 * sum((W + sp.p - 1) * sp.q for _, sp, _ in read))))
        for r in range(0, seeds.size, rows):
            axis, row, m, x = field_nonzeros(spec, seeds[r : r + rows], axes)
            _scatter(out, row + r, m, sign[axis] * x, coord[axis], period[axis])
    np.cumsum(out, axis=1, out=out)
    np.cumsum(out, axis=1, out=out)
    if a:
        out -= out[:, [-a], :]
    return out
