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

from typing import List, Sequence, Tuple

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

_KEY_MAX = int(np.iinfo(np.int64).max)


class _Axis:
    """The layout of one (scale, coordinate, window-role) axis: its window
    bases and signs, and its segments.

    Offsets count from 0 on the lead axis and from d_k on the lag axis
    (``lag=True``), the addresses of ``field_nonzeros`` with ``lagged``.
    Every anchor opens a ramp window of length p - 1; overlapping or
    touching windows merge into segments [lo, hi), packed end to end from
    ``start``, and the gaps between them become aggregate chunks.
    """

    def __init__(self, sp: ScaleParams, i: int, anchors: Sequence[int], lag: bool,
                 windows: Tuple[Tuple[int, int], ...] = ((0, 1),)):
        self.sp, self.i, self.lag, self.windows = sp, i, lag, windows
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
        self.width = int(lengths.sum())
        # one keyed stream per (seed, axis) draws the aggregate sum over
        # each gap: how many of its values are +1 and how many -1
        ns = lag and lag_namespace(sp.k)
        self.words = (TAG_BLOCK, sp.k, i, int(ns), sp.d if lag and not ns else 0)
        self.gaps = self.lo[1:] - self.hi[:-1]

    def packed(self, offsets: Sequence[int], span: int):
        """Segment index and packed coordinate of each offset; every
        [offset, offset + span) must lie inside one segment."""
        off = np.asarray(offsets, dtype=np.int64)
        seg = np.searchsorted(self.lo, off, side="right") - 1
        ok = (seg >= 0) & (off + span <= self.hi[seg])
        if not ok.all():
            raise ValueError(f"offset {int(off[~ok][0])} is not an anchor of this axis")
        return seg, off - self.lo[seg] + self.start[seg]


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

    Every axis of every scale and coordinate is laid out once. The axes go
    through in groups whose packed widths sum within int64, so that a
    packed coordinate on a group's axes laid end to end is an int64 key
    (``_queries``), and whose segments and queries hold at most
    _BLOCK_ELEMS values; the pool goes through in groups of rows expected
    to hold _BLOCK_ELEMS / 4 nonzero values, each one ``field_nonzeros``
    read of the group's axes (``_rows_sums``).
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
    axes: List[_Axis] = []
    for i in range(1, spec.dimension + 1):
        for sp in spec.scales():
            if sp.d < t[-1] + sp.p:
                # lag windows overlap the lead axis: one shared absolute axis
                axes.append(_Axis(sp, i, np.concatenate([[0, sp.d], t, t + sp.d]), False,
                                  ((0, 1), (sp.d, -1))))
            else:
                axes += [_Axis(sp, i, np.concatenate([[0], t]), lag, ((0, 1 - 2 * lag),))
                         for lag in (False, True)]
    # groups whose packed widths fit an int64 key and whose segments and
    # queries hold at most _BLOCK_ELEMS values (an axis alone may pass it)
    groups, width, size = [[]], 0, 0
    for axis in axes:
        cost = axis.lo.size + len(axis.windows) * (t.size + 1)
        if groups[-1] and (width + axis.width > _KEY_MAX or size + cost > _BLOCK_ELEMS):
            groups.append([])
            width = size = 0
        groups[-1].append(axis)
        width += axis.width
        size += cost
    for group in groups:
        layout = _queries(group, t, spec.dimension)
        rows = max(1, int(_BLOCK_ELEMS / (4 * sum(ax.width * ax.sp.q for ax in group))))
        for g in range(0, len(seeds), rows):
            values[g : g + rows] += _rows_sums(spec, group, seeds[g : g + rows], t.size, layout)
    if spec.doubling:
        values *= 2
    return values


def _queries(axes: Sequence[_Axis], t: np.ndarray, dimension: int):
    """The queries of ``axes`` at the times ``t``, the same for every row.

    Each window (axis, base b, sign) adds sign * (p * (C(b + t) - C(b)) +
    H(b + t) - H(b)) to its coordinate. Its T + 1 queries (the base, then
    base + t) each give a segment over all the axes, the key of its packed
    coordinate c on the axes laid end to end, the key of its ramp's end
    c + p - 1, and that end on its own axis; a window gives its block
    length and its sign, in the row of its coordinate.
    """
    T = t.size
    width = np.array([ax.width for ax in axes], dtype=np.int64)
    nseg = np.array([ax.lo.size for ax in axes])
    wins = [(a, base, sign) for a, ax in enumerate(axes) for base, sign in ax.windows]
    wa = np.array([a for a, _, _ in wins])
    seg, c = map(np.concatenate, zip(*[axes[a].packed(np.concatenate([[b], b + t]),
                                                      axes[a].sp.p - 1)
                                       for a, b, _ in wins]))
    seg += np.repeat((np.cumsum(nseg) - nseg)[wa], T + 1)
    p_w = np.array([axes[a].sp.p for a in wa], dtype=np.int64)[:, None]
    span = np.repeat(p_w - 1, T + 1)
    key = np.repeat((np.cumsum(width) - width)[wa], T + 1) + c
    signs = np.zeros((dimension, len(wins)), dtype=np.int64)
    signs[[axes[a].i - 1 for a in wa], np.arange(len(wins))] = [s for _, _, s in wins]
    return seg, key, key + span, p_w, c + span, signs


def _rows_sums(spec: FieldSpec, axes: Sequence[_Axis], seeds: Sequence[int],
               T: int, layout) -> np.ndarray:
    """The (seeds, T, dimension) contributions of ``axes`` for one group of
    rows, given the query ``layout`` of ``_queries``.

    The group's nonzero values, from one ``field_nonzeros`` read, form one
    table in row order, each row's keyed by packed coordinate, with prefix
    sums of x and c * x; a row answers all its running sums C and ramp ends
    with two ``searchsorted`` calls on its own keys. The gap aggregates
    enter C through one running sum of the row's gap draws over every
    axis's segments.
    """
    seg, key_lo, key_hi, p_w, end, signs = layout
    width = np.array([ax.width for ax in axes], dtype=np.int64)
    nseg = np.array([ax.lo.size for ax in axes])
    seg0 = np.cumsum(nseg) - nseg
    out = np.zeros((len(seeds), T, spec.dimension), dtype=np.int64)
    axis, row, cc, x = field_nonzeros(spec, seeds, [(ax.sp.k, ax.i, ax.lag, ax.lo, ax.hi)
                                                    for ax in axes])
    order = np.argsort(row, kind="stable")
    bounds = np.searchsorted(row[order], np.arange(len(seeds) + 1))
    key = ((np.cumsum(width) - width)[axis] + cc)[order]
    s0 = np.concatenate([[0], np.cumsum(x[order])])
    s1 = np.concatenate([[0], np.cumsum((cc * x)[order])])
    drawn = np.zeros(int(nseg.sum()), dtype=np.int64)
    gapped = [(a, ax) for a, ax in enumerate(axes) if ax.gaps.size]
    for r, seed in enumerate(seeds):
        for a, ax in gapped:
            q = ax.sp.q
            plus, minus, _ = derive_rng(seed, *ax.words).multinomial(
                ax.gaps, [q / 2, q / 2, 1 - q]).T
            drawn[seg0[a] + 1 : seg0[a] + nseg[a]] = plus - minus
        # a running sum over all segments: only differences within an axis
        # are read, and there the earlier axes' sums cancel
        gaps_before = np.cumsum(drawn)
        lo, hi = bounds[r], bounds[r + 1]
        left = np.searchsorted(key[lo:hi], key_lo)
        right = np.searchsorted(key[lo:hi], key_hi)
        r0, r1 = s0[lo : hi + 1], s1[lo : hi + 1]
        ahead = r0[left]
        # int64 products may wrap; the differences below are exact
        v = (p_w * (gaps_before[seg] + ahead).reshape(-1, T + 1)
             + (end * (r0[right] - ahead) - (r1[right] - r1[left])).reshape(-1, T + 1))
        out[r] = (signs @ (v[:, 1:] - v[:, :1])).T
    return out
