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
from typing import Sequence, Tuple

import numpy as np

from . import PreconditionError
from .prf import derive_rng
from .fields import (
    COORD_BOUND,
    TAG_BLOCK,
    FieldSpec,
    ScaleParams,
    field_values_vec,
    lag_namespace,
    scale_params,
    tail_variance_bound,
)
from .pmf import scale_groups

DENSE_P_THRESHOLD = 1024

_TAG_LAW = 53  # keyed stream for law-level batch samplers


class _AxisEval:
    """Field sums along one (scale, coordinate, window-role) axis.

    Offsets count from 0 on the lead axis and from d_k on the lag axis
    (``lag=True``), whose addresses are those of ``field_values_vec`` with
    ``lagged=True``. Every anchor opens a ramp window of length p - 1;
    overlapping or touching windows merge into segments, and the gaps
    between segments become aggregate chunks. The segments are laid end to
    end in packed coordinates, where the known values are stored sorted with
    prefix sums of x and of c * x; packing keeps c * x small for any offset.
    """

    def __init__(self, spec: FieldSpec, sp: ScaleParams, i: int,
                 anchors: Sequence[int], lag: bool, dense: bool):
        self.p = sp.p
        q = sp.q
        anchors = np.unique(np.asarray(anchors, dtype=np.int64))
        if anchors[0] != 0:
            raise ValueError("axis anchors must start at offset 0")
        w = sp.p - 1
        first = np.flatnonzero(np.diff(anchors, prepend=-w - 1) > w)
        self.lo = anchors[first]
        self.hi = np.append(anchors[first[1:] - 1], anchors[-1]) + w
        lengths = self.hi - self.lo
        self.start = np.cumsum(lengths) - lengths
        # one keyed stream per axis; the sparse draws and then the aggregate
        # draws are consumed in axis order, so the realization is
        # deterministic given the anchor set
        ns = lag and lag_namespace(sp.k)
        key = (spec.seed, TAG_BLOCK, sp.k, i, int(ns), sp.d if lag and not ns else 0)
        rng = None
        if dense:
            js = np.repeat(self.lo - self.start, lengths) + np.arange(int(lengths.sum()))
            vals = field_values_vec(spec, sp.k, i, js, lagged=lag)
            c = np.flatnonzero(vals)
            x = vals[c]
        else:
            rng = derive_rng(*key)
            cs, xs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
            for st, length in zip(self.start.tolist(), lengths.tolist()):
                count = int(rng.binomial(length, q))
                if count == 0:
                    continue
                pos: set = set()
                while len(pos) < count:
                    pos.update(rng.integers(0, length, count - len(pos)).tolist())
                cs.append(st + np.sort(np.fromiter(pos, dtype=np.int64, count=count)))
                xs.append(rng.integers(0, 2, size=count) * 2 - 1)
            c, x = np.concatenate(cs), np.concatenate(xs)
        self.c = c
        self.s0 = np.concatenate([[0], np.cumsum(x)])
        self.s1 = np.concatenate([[0], np.cumsum(c * x)])
        # aggregate sum over each gap: binomial count, then fair signs
        drawn = [0]
        gaps = (self.lo[1:] - self.hi[:-1]).tolist()
        if gaps and rng is None:
            rng = derive_rng(*key)
        for gap in gaps:
            fired = rng.binomial(gap, q)
            drawn.append(2 * rng.binomial(fired, 0.5) - fired)
        self.gaps_before = np.cumsum(drawn)

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
        """C(offset): sum of field values over [0, offset)."""
        seg, c = self._packed(offsets, 1)
        return self.gaps_before[seg] + self.s0[np.searchsorted(self.c, c)]

    def ramp(self, offsets: Sequence[int]) -> np.ndarray:
        """H(offset): descending-weight sum over [offset, offset + p - 1),
        which is (c + p - 1) * sum(x) - sum(c * x) over the packed window."""
        _, c = self._packed(offsets, self.p - 1)
        left = np.searchsorted(self.c, c)
        right = np.searchsorted(self.c, c + self.p - 1)
        return ((c + self.p - 1) * (self.s0[right] - self.s0[left])
                - (self.s1[right] - self.s1[left]))


@dataclass
class EndpointSums:
    """Values of S_t at the scheduled times, with truncation diagnostics."""

    times: Tuple[int, ...]
    values: np.ndarray  # (len(times), dimension), int64
    k_max: int
    tail_variance: float


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
        raise PreconditionError("schedule exceeds the coordinate bound")
    if spec.windows or spec.origin != 0:
        raise ValueError("schedule_sums needs an unconditioned, unshifted spec")
    dim = spec.dimension
    mult = 2 if spec.doubling else 1
    values = np.zeros((len(times), dim), dtype=np.int64)
    t = np.array(times, dtype=np.int64)
    for i in range(1, dim + 1):
        for sp in spec.scales():
            if spec.zero:
                continue
            values[:, i - 1] += _scale_endpoints(spec, sp, i, t,
                                                 sp.p <= DENSE_P_THRESHOLD)
    values *= mult
    return EndpointSums(times=times, values=values, k_max=spec.k_max,
                        tail_variance=tail_variance_bound(times[-1], spec.k_max))


def _scale_endpoints(spec: FieldSpec, sp: ScaleParams, i: int,
                     t: np.ndarray, dense: bool) -> np.ndarray:
    """Scale-k contribution to S_t at the sorted times ``t``: the lead
    block sums p * C + H from 0 to t minus the lagged ones from d_k."""
    p, d = sp.p, sp.d
    if d < t[-1] + p:
        # lag windows overlap the lead axis: one shared absolute axis
        axis = _AxisEval(spec, sp, i, np.concatenate([[0, d], t, t + d]),
                         lag=False, dense=dense)
        h0, hd = axis.ramp([0, d])
        cd = axis.running_sum([d])[0]
        lead = p * axis.running_sum(t) + axis.ramp(t) - h0
        lagged = p * (axis.running_sum(t + d) - cd) + axis.ramp(t + d) - hd
        return lead - lagged
    out = np.zeros(len(t), dtype=np.int64)
    for lag, sign in ((False, 1), (True, -1)):
        axis = _AxisEval(spec, sp, i, np.concatenate([[0], t]), lag=lag, dense=dense)
        out += sign * (p * axis.running_sum(t) + axis.ramp(t) - axis.ramp([0]))
    return out


# ---------------------------------------------------------------------------
# law-level batch sampler


def endpoint_batch_law(seed: int, n: int, size: int, k_min: int = 1,
                       k_max: int = 8, dimension: int = 1,
                       doubling: bool = False) -> np.ndarray:
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
        # the trailing 0 is a fixed key word; every draw depends on it
        rng = derive_rng(seed, _TAG_LAW, n, i, 0)
        for k in range(k_min, k_max + 1):
            values, counts = scale_groups(k, n)
            total_atoms = int(counts.sum())
            fired = rng.binomial(total_atoms, scale_params(k).q, size=size)
            n_fired = int(fired.sum())
            if n_fired == 0:
                continue
            amps = rng.choice(values, size=n_fired, p=counts / total_atoms)
            signs = rng.integers(0, 2, size=n_fired) * 2 - 1
            contrib = amps * signs
            idx = np.repeat(np.arange(size), fired)
            np.add.at(out[:, i], idx, contrib)
    return out * mult

