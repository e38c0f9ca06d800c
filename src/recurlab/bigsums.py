"""Walk endpoints at polynomially large times without stepping.

The scale-k lead contribution to S_n equals p*C(n) + H(n) - H(0), where C
is the running sum of the field and H(t) a fixed (p-1)-long ramp anchored
at t; the lagged window obeys the same identity shifted by d_k. Given a
schedule of evaluation times, only the ramp windows around the anchors need
per-coordinate values; the gaps between them enter through plain sums,
which are exchangeable and can be drawn as keyed binomial aggregates. Large
scales fire so rarely that even their ramp windows are sampled sparsely by
position. Times up to ~10^9 then cost seconds instead of days.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from . import PreconditionError
from .prf import derive_rng
from .fields import (
    _BLOCK_ELEMS,
    COORD_BOUND,
    TAG_BLOCK,
    FieldSpec,
    ScaleParams,
    field_nonzeros,
    lag_namespace,
)

DENSE_P_THRESHOLD = 1024


def _sparse_draws(rng: np.random.Generator, q: float, start: np.ndarray,
                  lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Packed positions and values of the nonzero field values of sparsely
    sampled segments, drawn segment by segment from ``rng``: a binomial
    count, then for a nonempty segment distinct uniform positions and fair
    signs.

    Most segments are empty, so the counts of all remaining segments come
    from one array call, which draws element by element exactly as scalar
    calls would. At the first nonzero count the generator goes back to its
    state before that call and draws the counts only up to that segment,
    so the stream is consumed exactly as one count per segment, each
    nonempty segment's positions and signs right after its count.
    """
    cs, xs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    seg = 0
    while seg < lengths.size:
        state = rng.bit_generator.state
        hit = np.flatnonzero(rng.binomial(lengths[seg:], q))
        if hit.size == 0:
            break
        first = seg + int(hit[0])
        rng.bit_generator.state = state
        count = int(rng.binomial(lengths[seg : first + 1], q)[-1])
        length = int(lengths[first])
        pos: set = set()
        while len(pos) < count:
            pos.update(rng.integers(0, length, count - len(pos)).tolist())
        cs.append(int(start[first]) + np.sort(np.fromiter(pos, dtype=np.int64, count=count)))
        xs.append(rng.integers(0, 2, size=count) * 2 - 1)
        seg = first + 1
    return np.concatenate(cs), np.concatenate(xs)


class _AxisEval:
    """Field sums along one (scale, coordinate, window-role) axis, for every
    seed of a pool at once.

    Offsets count from 0 on the lead axis and from d_k on the lag axis
    (``lag=True``), whose addresses are those of ``field_nonzeros`` with
    ``lagged=True``. Every anchor opens a ramp window of length p - 1;
    overlapping or touching windows merge into segments, and the gaps
    between segments become aggregate chunks. The segments are laid end to
    end in packed coordinates; packing keeps c * x small for any offset.
    The seeds share the anchors, so the segments are laid out once. The
    known values of every seed are stored in one array sorted by (seed row,
    packed coordinate), under the key row * width + coordinate, with prefix
    sums of x and of c * x, so a query answers every seed through one
    ``searchsorted``, returning one row per seed.
    """

    def __init__(self, spec: FieldSpec, sp: ScaleParams, i: int,
                 anchors: Sequence[int], lag: bool, dense: bool,
                 seeds: Sequence[int]):
        self.p = sp.p
        q = sp.q
        seeds = [int(s) for s in seeds]
        # sorted and deduplicated by a mask: np.unique imports numpy.ma
        anchors = np.sort(np.asarray(anchors, dtype=np.int64))
        anchors = anchors[np.diff(anchors, prepend=anchors[:1] - 1) != 0]
        if anchors[0] != 0:
            raise ValueError("axis anchors must start at offset 0")
        w = sp.p - 1
        first = np.flatnonzero(np.diff(anchors, prepend=-w - 1) > w)
        self.lo = anchors[first]
        self.hi = np.append(anchors[first[1:] - 1], anchors[-1]) + w
        lengths = self.hi - self.lo
        self.start = np.cumsum(lengths) - lengths
        width = int(lengths.sum())
        rows, cs, xs = [], [], []
        if dense:
            # the seeds' values over the packed coordinates, hashed in
            # (rows x columns) blocks of at most _BLOCK_ELEMS values,
            # which come out in (row, coordinate) order
            js = np.repeat(self.lo - self.start, lengths) + np.arange(width)
            seed_col = np.array(seeds, dtype=np.uint64)[:, None]
            step = max(1, _BLOCK_ELEMS // width)
            cols = min(width, _BLOCK_ELEMS)
            for r0 in range(0, len(seeds), step):
                for c0 in range(0, width, cols):
                    block = js[c0 : c0 + cols]
                    at, x = field_nonzeros(spec, sp.k, i, block, lagged=lag,
                                           seed=seed_col[r0 : r0 + step])
                    r, c = np.divmod(at, block.size)
                    rows.append(r + r0)
                    cs.append(c + c0)
                    xs.append(x)
        # one keyed stream per (seed, axis); the sparse draws and then the
        # aggregate draws are consumed in axis order, so each seed's
        # realization is deterministic given the anchor set
        ns = lag and lag_namespace(sp.k)
        words = (TAG_BLOCK, sp.k, i, int(ns), sp.d if lag and not ns else 0)
        gaps = self.lo[1:] - self.hi[:-1]
        drawn = np.zeros((len(seeds), gaps.size + 1), dtype=np.int64)
        for row, seed in enumerate(seeds):
            rng = None
            if not dense:
                rng = derive_rng(seed, *words)
                c, x = _sparse_draws(rng, q, self.start, lengths)
                rows.append(np.full(c.size, row))
                cs.append(c)
                xs.append(x)
            if gaps.size:
                # aggregate sum over each gap: how many of its values are +1
                # and how many -1, one multinomial draw per gap in one call
                if rng is None:
                    rng = derive_rng(seed, *words)
                plus, minus, _ = rng.multinomial(gaps, [q / 2, q / 2, 1 - q]).T
                drawn[row, 1:] = plus - minus
        self.gaps_before = np.cumsum(drawn, axis=1)
        c, x = np.concatenate(cs), np.concatenate(xs)
        self.key = np.concatenate(rows) * width + c
        self.row_key = np.arange(len(seeds), dtype=np.int64)[:, None] * width
        self.s0 = np.concatenate([[0], np.cumsum(x)])
        self.s1 = np.concatenate([[0], np.cumsum(c * x)])
        # prefix of x before each seed's row
        self.s0_row = self.s0[np.searchsorted(self.key, self.row_key)]

    def _packed(self, offsets: Sequence[int], span: int):
        """Segment index and packed coordinate of each offset; every
        [offset, offset + span) must lie inside one segment."""
        off = np.asarray(offsets, dtype=np.int64)
        seg = np.searchsorted(self.lo, off, side="right") - 1
        ok = (seg >= 0) & (off + span <= self.hi[seg])
        if not ok.all():
            raise ValueError(f"offset {int(off[~ok][0])} is not an anchor of this axis")
        return seg, off - self.lo[seg] + self.start[seg]

    def running_sum(self, offsets: Sequence[int]) -> np.ndarray:
        """C(offset): sum of field values over [0, offset), one row per seed."""
        seg, c = self._packed(offsets, 1)
        at = np.searchsorted(self.key, self.row_key + c)
        return self.gaps_before[:, seg] + self.s0[at] - self.s0_row

    def ramp(self, offsets: Sequence[int]) -> np.ndarray:
        """H(offset): descending-weight sum over [offset, offset + p - 1),
        which is (c + p - 1) * sum(x) - sum(c * x) over the packed window;
        one row per seed."""
        _, c = self._packed(offsets, self.p - 1)
        left = np.searchsorted(self.key, self.row_key + c)
        right = np.searchsorted(self.key, self.row_key + (c + self.p - 1))
        return ((c + self.p - 1) * (self.s0[right] - self.s0[left])
                - (self.s1[right] - self.s1[left]))


def pool_schedule_sums(spec: FieldSpec, seeds: Sequence[int],
                       times: Sequence[int]) -> np.ndarray:
    """S_t at the sorted distinct ``times`` for every seed of a pool:
    shape (seeds, times, dimension), int64.

    Scales with p_k <= DENSE_P_THRESHOLD read every field value in their
    ramp windows; larger scales sample the nonzero positions of those
    windows sparsely. When the schedule has no gaps and every scale is
    dense, no aggregate is drawn and the result equals the exact partial
    sums. The realization depends on the schedule through the chunk
    partition, so results meant to share one field realization must come
    from a single call with the union of their times. Row r depends only
    on ``seeds[r]``, not on the rest of the pool.

    Every axis is laid out once for the whole pool; the pool goes through
    in groups small enough that an axis's (row, packed coordinate) keys
    stay within int64 (a packed axis is shorter than 2 (t + p) for the
    last time t and the largest block length p).
    """
    times = sorted({int(t) for t in times})
    if not times or times[0] < 1:
        raise ValueError("schedule times must be positive integers")
    if times[-1] >= COORD_BOUND // 4:
        raise PreconditionError("schedule exceeds the coordinate bound")
    if spec.windows:
        raise ValueError("the schedule engine needs an unconditioned spec")
    t = np.array(times, dtype=np.int64)
    seeds = [int(s) for s in seeds]
    values = np.zeros((len(seeds), t.size, spec.dimension), dtype=np.int64)
    if spec.zero:
        return values
    scales = spec.scales()
    group = max(1, (1 << 62) // (2 * (int(t[-1]) + scales[-1].p)))
    for g in range(0, len(seeds), group):
        chunk = seeds[g : g + group]
        for i in range(1, spec.dimension + 1):
            for sp in scales:
                values[g : g + group, :, i - 1] += _scale_endpoints(
                    spec, sp, i, t, sp.p <= DENSE_P_THRESHOLD, chunk)
    if spec.doubling:
        values *= 2
    return values


def _scale_endpoints(spec: FieldSpec, sp: ScaleParams, i: int,
                     t: np.ndarray, dense: bool,
                     seeds: Sequence[int]) -> np.ndarray:
    """Scale-k contribution to S_t at the sorted times ``t`` for every seed,
    shape (seeds, times): the lead block sums p * C + H from 0 to t minus
    the lagged ones from d_k."""
    p, d = sp.p, sp.d
    if d < t[-1] + p:
        # lag windows overlap the lead axis: one shared absolute axis
        axis = _AxisEval(spec, sp, i, np.concatenate([[0, d], t, t + d]),
                         lag=False, dense=dense, seeds=seeds)
        h0, hd = np.split(axis.ramp([0, d]), 2, axis=1)
        cd = axis.running_sum([d])
        lead = p * axis.running_sum(t) + axis.ramp(t) - h0
        lagged = p * (axis.running_sum(t + d) - cd) + axis.ramp(t + d) - hd
        return lead - lagged
    out = np.zeros((len(seeds), t.size), dtype=np.int64)
    for lag, sign in ((False, 1), (True, -1)):
        axis = _AxisEval(spec, sp, i, np.concatenate([[0], t]), lag=lag,
                         dense=dense, seeds=seeds)
        out += sign * (p * axis.running_sum(t) + axis.ramp(t) - axis.ramp([0]))
    return out

