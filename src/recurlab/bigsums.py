"""Walk endpoints at polynomially large times without stepping.

The scale-k lead contribution to S_n equals p*C(n) + H(n) - H(0), where C
is the running sum of the field and H(t) a fixed (p-1)-long ramp anchored
at t; the lagged window obeys the same identity shifted by d_k. Given a
schedule of evaluation times, only the ramp windows around the anchors need
per-coordinate values; the gaps between them enter through plain sums,
which are exchangeable and can be drawn as keyed multinomial aggregates,
and the windows' rare scales cost a hash per keyed block, not per value
(``fields.field_nonzeros``). Times up to ~10^9 then cost seconds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import PreconditionError
from .prf import derive_rng
from .fields import (
    COORD_BOUND,
    TAG_BLOCK,
    FieldSpec,
    ScaleParams,
    field_nonzeros,
    lag_namespace,
)


class _AxisEval:
    """Field sums along one (scale, coordinate, window-role) axis, for every
    seed of a pool at once.

    Offsets count from 0 on the lead axis and from d_k on the lag axis
    (``lag=True``), the addresses of ``field_nonzeros`` with ``lagged``.
    Every anchor opens a ramp window of length p - 1; overlapping or
    touching windows merge into segments, laid out once for all seeds, and
    the gaps between them become aggregate chunks. The nonzero values,
    keyed row * width + packed coordinate, carry prefix sums of x and of
    c * x, so a query answers every seed through one ``searchsorted``.
    """

    def __init__(self, spec: FieldSpec, sp: ScaleParams, i: int,
                 anchors: Sequence[int], lag: bool, seeds: Sequence[int]):
        self.p = sp.p
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
        rows, c, x = field_nonzeros(spec, seeds, sp.k, i, self.lo, self.hi, lag)
        # one keyed stream per (seed, axis) draws the aggregate sum over
        # each gap: how many of its values are +1 and how many -1, one
        # multinomial draw per gap in one call
        ns = lag and lag_namespace(sp.k)
        words = (TAG_BLOCK, sp.k, i, int(ns), sp.d if lag and not ns else 0)
        gaps = self.lo[1:] - self.hi[:-1]
        drawn = np.zeros((len(seeds), gaps.size + 1), dtype=np.int64)
        for row, seed in enumerate(seeds if gaps.size else []):
            plus, minus, _ = derive_rng(seed, *words).multinomial(
                gaps, [sp.q / 2, sp.q / 2, 1 - sp.q]).T
            drawn[row, 1:] = plus - minus
        self.gaps_before = np.cumsum(drawn, axis=1)
        self.key = rows * width + c
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

    The ramp windows read ``field_nonzeros``, as
    ``fields.partial_sums_batch`` does, so on a schedule without gaps, where
    no aggregate is drawn, the result equals the exact partial sums.
    Otherwise the realization depends on the schedule through the gap
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
                values[g : g + group, :, i - 1] += _scale_endpoints(spec, sp, i, t, chunk)
    if spec.doubling:
        values *= 2
    return values


def _scale_endpoints(spec: FieldSpec, sp: ScaleParams, i: int,
                     t: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """Scale-k contribution to S_t at the sorted times ``t`` for every seed,
    shape (seeds, times): the lead block sum from 0 to t minus the lagged
    one from d_k, each p * (C(b + t) - C(b)) + H(b + t) - H(b) on an axis
    from its base offset b."""
    p, d = sp.p, sp.d

    def window(axis: _AxisEval, b: int) -> np.ndarray:
        return (p * (axis.running_sum(b + t) - axis.running_sum([b]))
                + axis.ramp(b + t) - axis.ramp([b]))

    if d < t[-1] + p:
        # lag windows overlap the lead axis: one shared absolute axis
        axis = _AxisEval(spec, sp, i, np.concatenate([[0, d], t, t + d]),
                         lag=False, seeds=seeds)
        return window(axis, 0) - window(axis, d)
    lead, lag = (_AxisEval(spec, sp, i, np.concatenate([[0], t]), lag=lag, seeds=seeds)
                 for lag in (False, True))
    return window(lead, 0) - window(lag, 0)
