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

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .prf import derive_rng, uniform01_vec
from .fields import (
    COORD_BOUND,
    TAG_BLOCK,
    TAG_FIELD,
    TAG_SPARSE,
    FieldSpec,
    ScaleParams,
    lag_namespace,
    scale_params,
    tail_variance_bound,
)
from .pmf import grouped_law

DENSE_P_THRESHOLD = 1024

_TAG_LAW = 53  # keyed stream for law-level batch samplers


class _Segment:
    """Contiguous stretch of one scale's axis with known field values."""

    __slots__ = ("lo", "hi", "dense", "values", "prefix", "pos", "vals", "total")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def range_sum_before(self, offset: int) -> int:
        """Sum of values on [lo, offset)."""
        idx = offset - self.lo
        if self.dense:
            return int(self.prefix[idx])
        return int(self.vals[: np.searchsorted(self.pos, idx)].sum())

    def ramp(self, a: int, p: int) -> int:
        """Sum of (a + p - 1 - j) * X_j over j in [a, a + p - 1)."""
        start = a - self.lo
        if self.dense:
            window = self.values[start : start + p - 1]
            weights = np.arange(p - 1, 0, -1, dtype=np.int64)
            return int(window @ weights)
        left = np.searchsorted(self.pos, start)
        right = np.searchsorted(self.pos, start + p - 1)
        total = 0
        for idx in range(left, right):
            total += int(self.vals[idx]) * (p - 1 - (int(self.pos[idx]) - start))
        return total


class _AxisEval:
    """Field sums along one (scale, coordinate, window-role) axis.

    Offsets are relative to ``base`` (0 for the lead axis; d_k for the lag
    axis, which switches to its own address namespace when d_k exceeds the
    coordinate bound). Every anchor opens a ramp window of length p - 1;
    overlapping windows merge into segments, the gaps become aggregate
    chunks keyed by their endpoints.
    """

    def __init__(self, spec: FieldSpec, sp: ScaleParams, i: int,
                 anchors: Sequence[int], base: int, lagged: bool,
                 dense: bool):
        self.sp = sp
        anchors = sorted(set(anchors))
        if anchors[0] != 0:
            raise ValueError("axis anchors must start at offset 0")
        segments: List[_Segment] = []
        for a in anchors:
            lo, hi = a, a + sp.p - 1
            if segments and lo <= segments[-1].hi:
                segments[-1].hi = max(segments[-1].hi, hi)
            else:
                segments.append(_Segment(lo, hi))
        seed = spec.seed
        # one keyed stream per axis; aggregate draws consumed in axis order,
        # so the realization is deterministic given the anchor set
        rng = derive_rng(seed, TAG_BLOCK, sp.k, i, int(lagged), base) if not dense else None
        for seg in segments:
            length = seg.hi - seg.lo
            if dense:
                js = np.arange(seg.lo, seg.hi, dtype=np.int64)
                if lagged:
                    u = uniform01_vec(seed, (TAG_FIELD, sp.k, i, 1), js)
                else:
                    u = uniform01_vec(seed, (TAG_FIELD, sp.k, i), js + base)
                vals = np.where(u < sp.q / 2, 1, np.where(u < sp.q, -1, 0)).astype(np.int64)
                seg.dense = True
                seg.values = vals
                seg.prefix = np.concatenate([[0], np.cumsum(vals)])
                seg.total = int(seg.prefix[-1])
            else:
                count = int(rng.binomial(length, sp.q))
                pos: set = set()
                while len(pos) < count:
                    pos.update(int(x) for x in rng.integers(0, length, count - len(pos)))
                pos_arr = np.sort(np.fromiter(pos, dtype=np.int64, count=count))
                sgn = rng.integers(0, 2, size=count).astype(np.int64) * 2 - 1
                seg.dense = False
                seg.pos = pos_arr
                seg.vals = sgn
                seg.total = int(sgn.sum())
        # running sums up to each segment start (chunks drawn in axis order)
        self._segments = segments
        self._starts = [seg.lo for seg in segments]
        self._cum_before: List[int] = []
        running = 0
        prev_end = 0
        for seg in segments:
            gap = seg.lo - prev_end
            if gap > 0:
                if rng is None:
                    rng = derive_rng(seed, TAG_BLOCK, sp.k, i, int(lagged), base)
                fired = int(rng.binomial(gap, sp.q))
                running += 2 * int(rng.binomial(fired, 0.5)) - fired
            self._cum_before.append(running)
            running += seg.total
            prev_end = seg.hi

    def _segment_of(self, offset: int) -> Tuple[_Segment, int]:
        import bisect

        idx = bisect.bisect_right(self._starts, offset) - 1
        seg = self._segments[idx]
        if not (seg.lo <= offset < seg.hi):
            raise ValueError(f"offset {offset} is not an anchor of this axis")
        return seg, idx

    def running_sum(self, offset: int) -> int:
        """C(offset): sum of field values over [0, offset)."""
        if offset == 0:
            return 0
        seg, idx = self._segment_of(offset)
        return self._cum_before[idx] + seg.range_sum_before(offset)

    def ramp(self, offset: int) -> int:
        """H(offset): descending-weight sum over [offset, offset + p - 1)."""
        seg, _ = self._segment_of(offset)
        return seg.ramp(offset, self.sp.p)


@dataclass
class EndpointSums:
    """Values of S_t at the scheduled times, with truncation diagnostics."""

    times: Tuple[int, ...]
    values: np.ndarray  # (len(times), dimension), int64
    k_max: int
    tail_variance: float

    def value_at(self, t: int) -> np.ndarray:
        return self.values[self.times.index(t)]


def schedule_sums(spec: FieldSpec, times: Sequence[int]) -> EndpointSums:
    """Evaluate S_t for every t in ``times`` under ``spec``.

    Scales with p_k <= DENSE_P_THRESHOLD read every field value in their
    ramp windows; larger scales sample the nonzero positions of those
    windows sparsely. When the schedule has no gaps and every scale is
    dense, no aggregate is drawn and the result equals the exact partial
    sums. The realization depends on the schedule through the chunk
    partition, so results meant to share one field realization must be
    produced by a single call with the union of their times.
    """
    times = tuple(sorted(set(int(t) for t in times)))
    if not times or times[0] < 1:
        raise ValueError("schedule times must be positive integers")
    if times[-1] >= COORD_BOUND // 4:
        raise ValueError("schedule exceeds the coordinate bound")
    if spec.has_forcing() or spec.origin != 0:
        raise ValueError("schedule_sums needs an unconditioned, unshifted spec")
    dim = spec.dimension
    mult = 2 if spec.doubling else 1
    values = np.zeros((len(times), dim), dtype=np.int64)
    max_t = times[-1]
    for i in range(1, dim + 1):
        for sp in spec.scales():
            if spec.zero:
                continue
            values[:, i - 1] += _scale_endpoints(spec, sp, i, times, max_t,
                                                 sp.p <= DENSE_P_THRESHOLD)
    values *= mult
    return EndpointSums(times=times, values=values, k_max=spec.k_max,
                        tail_variance=tail_variance_bound(max_t, spec.k_max))


def _scale_endpoints(spec: FieldSpec, sp: ScaleParams, i: int,
                     times: Tuple[int, ...], max_t: int,
                     dense: bool) -> np.ndarray:
    p = sp.p
    if sp.d < max_t + p:
        # lag windows overlap the lead axis: one shared absolute axis
        anchors = {0, sp.d}
        anchors.update(times)
        anchors.update(t + sp.d for t in times)
        axis = _AxisEval(spec, sp, i, sorted(anchors), base=0, lagged=False,
                         dense=dense)
        h0 = axis.ramp(0)
        hd = axis.ramp(sp.d)
        cd = axis.running_sum(sp.d)
        out = []
        for t in times:
            lead = p * axis.running_sum(t) + axis.ramp(t) - h0
            lag = p * (axis.running_sum(t + sp.d) - cd) + axis.ramp(t + sp.d) - hd
            out.append(lead - lag)
        return np.array(out, dtype=np.int64)
    anchors = (0,) + times
    lead = _AxisEval(spec, sp, i, anchors, base=0, lagged=False, dense=dense)
    lag_ns = lag_namespace(sp.k)
    lag = _AxisEval(spec, sp, i, anchors, base=0 if lag_ns else sp.d,
                    lagged=lag_ns, dense=dense)
    h0_lead, h0_lag = lead.ramp(0), lag.ramp(0)
    out = []
    for t in times:
        lead_v = p * lead.running_sum(t) + lead.ramp(t) - h0_lead
        lag_v = p * lag.running_sum(t) + lag.ramp(t) - h0_lag
        out.append(lead_v - lag_v)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# law-level batch sampler


def endpoint_batch_law(seed: int, n: int, size: int, k_min: int = 1,
                       k_max: int = 8, dimension: int = 1,
                       doubling: bool = False, stream: int = 0) -> np.ndarray:
    """i.i.d. samples of S_n drawn from its law (not tied to a field path).

    Uses the grouped atom structure: per scale the number of firing atoms is
    binomial, their amplitudes are drawn by multiplicity and their signs are
    fair. Much faster than path simulation for large n; used for Monte Carlo
    where only the endpoint law matters.
    """
    if n < 0 or size < 1:
        raise ValueError("need n >= 0 and size >= 1")
    out = np.zeros((size, dimension), dtype=np.int64)
    if n == 0:
        return out
    mult = 2 if doubling else 1
    for i in range(dimension):
        rng = derive_rng(seed, _TAG_LAW, n, i, stream)
        for k in range(k_min, k_max + 1):
            sp = scale_params(k)
            law = grouped_law(k, k, n)
            total_atoms = int(law.counts.sum())
            fired = rng.binomial(total_atoms, sp.q, size=size)
            n_fired = int(fired.sum())
            if n_fired == 0:
                continue
            probs = law.counts / total_atoms
            amps = rng.choice(law.values, size=n_fired, p=probs)
            signs = rng.integers(0, 2, size=n_fired) * 2 - 1
            contrib = amps * signs
            idx = np.repeat(np.arange(size), fired)
            np.add.at(out[:, i], idx, contrib)
    return out * mult

