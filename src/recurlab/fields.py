"""Multi-scale three-valued random fields and their moving-block cocycle.

A field value at address (k, i, j) is +1 or -1 with probability alpha_k^2/2
each and 0 otherwise, independent across addresses. The scale-k block
function sums p_k consecutive values minus the same block lagged by d_k,
and the walk increment is the sum of the block functions over all scales up
to a truncation. Everything is deterministic given the 64-bit seed; forced
windows of coordinates (a single forced value is a window one value wide)
take precedence and realize exact conditioning on cylinder events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import PreconditionError
from .prf import hash_words_vec

# Address-word tags keep the field family, the omega configuration and any
# auxiliary streams in disjoint key spaces.
TAG_FIELD = 11
TAG_OMEGA = 23
TAG_BLOCK = 37

COORD_BOUND = 1 << 60

# field values per (seeds x window) block in the path-sum kernel; each
# block also holds a few hashing temporaries of its size
_BLOCK_ELEMS = 1 << 18


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
class ForcedWindow:
    """Force field values of scale k, coordinate i to ``value`` on [lo, hi)."""

    k: int
    i: int
    lo: int
    hi: int
    value: int


@dataclass(frozen=True)
class FieldSpec:
    """Addressable realization of the multi-scale field.

    ``windows`` force coordinate ranges to values in {-1, 0, +1}; where two
    overlap, the first wins. ``origin`` shifts the time axis: evaluation at
    j reads the base realization at j + origin.
    """

    seed: int
    dimension: int = 2
    k_min: int = 1
    k_max: int = 8
    doubling: bool = True
    origin: int = 0
    zero: bool = False
    windows: Tuple[ForcedWindow, ...] = ()

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not (1 <= self.k_min <= self.k_max):
            raise PreconditionError("need 1 <= k_min <= k_max")
        for w in self.windows:
            if w.value not in (-1, 0, 1):
                raise ValueError(f"forced value {w.value} not in {{-1,0,1}}")
            if w.lo >= w.hi:
                raise ValueError("empty forced window")

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


def _forcing(spec: FieldSpec, k: int, i: int, shift: int):
    """Forced intervals [lo, hi) of scale k, coordinate i, moved by -shift
    and clipped to int64, as (lo, hi, value) in the order to apply them.

    Applied in order, a later interval overwrites an earlier one, so the
    windows run last to first: the first matching window wins.
    """
    def clip(x):
        return min(max(x - shift, -(1 << 63)), (1 << 63) - 1)

    return [(clip(w.lo), clip(w.hi), w.value) for w in reversed(spec.windows)
            if w.k == k and w.i == i]


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


def field_values_vec(spec: FieldSpec, k: int, i: int, j: np.ndarray,
                     lagged: bool = False, seed=None) -> np.ndarray:
    """Field values of scale k, coordinate i over an int64 coordinate array.

    With ``lagged=True`` the entries of ``j`` are offsets from the lag d_k
    (required for scales whose lag exceeds the int64 coordinate range).
    ``seed`` replaces ``spec.seed`` and may be an array that broadcasts
    against ``j``; the result has the broadcast shape. Forced windows apply
    as interval masks over ``j``.
    """
    sp = scale_params(k)
    j = np.asarray(j, dtype=np.int64)
    if lagged and not lag_namespace(k):
        return field_values_vec(spec, k, i, j + sp.d, seed=seed)
    seed = spec.seed if seed is None else seed
    shape = np.broadcast_shapes(np.shape(seed), j.shape)
    if spec.zero:
        out = np.zeros(shape, dtype=np.int64)
    else:
        words = (TAG_FIELD, k, i, 1) if lagged else (TAG_FIELD, k, i)
        h = hash_words_vec(seed, words, j + spec.origin)
        nonzero, plus = _thresholds(sp.q)
        # 2 [h < plus] - [h < nonzero]: +1, -1 or 0
        out = np.empty(shape, dtype=np.int64)
        np.less(h, plus, out=out)
        out *= 2
        out -= h < nonzero
    for lo, hi, v in _forcing(spec, k, i, sp.d if lagged else 0):
        out = np.where((lo <= j) & (j < hi), v, out)
    return out


def shift_base(spec: FieldSpec, n: int) -> FieldSpec:
    """Time shift of the whole field: shifted(j) == original(j + n)."""
    if n == 0:
        return spec
    new_win = tuple(replace(w, lo=w.lo - n, hi=w.hi - n) for w in spec.windows)
    return replace(spec, origin=spec.origin + n, windows=new_win)


@dataclass(frozen=True)
class PathSample:
    """Bilateral partial sums S_t over an integer window [a, b]."""

    spec: FieldSpec
    window: Tuple[int, int]
    values: np.ndarray  # shape (b - a + 1, dimension), int64

    def at(self, t: int) -> np.ndarray:
        a, b = self.window
        if not (a <= t <= b):
            raise ValueError(f"time {t} outside window [{a}, {b}]")
        return self.values[t - a]


def _window_sums(spec: FieldSpec, seeds: np.ndarray,
                 window: Tuple[int, int]) -> np.ndarray:
    """S_t for t in [a, b] and every seed: shape (seeds, b - a + 1, dimension).

    Per scale, the field values over [a, b + p - 1) on the lead axis and on
    the lag axis each take one prefix sum; the block sum over [t, t + p) is
    then the difference of two prefix entries. The seeds go through in row
    chunks of at most _BLOCK_ELEMS values per block, which bounds the
    memory held besides the result.
    """
    a, b = window
    if a > b or not (a <= 0 <= b):
        raise ValueError(f"window [{a}, {b}] must satisfy a <= 0 <= b")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    incr = np.zeros((seeds.shape[0], b - a, spec.dimension), dtype=np.int64)
    for i in range(1, spec.dimension + 1):
        for sp in spec.scales():
            j = np.arange(a, b + sp.p - 1)
            rows = max(1, _BLOCK_ELEMS // j.size)
            for r in range(0, seeds.shape[0], rows):
                chunk = seeds[r : r + rows]
                prefix = np.zeros((chunk.shape[0], j.size + 1), dtype=np.int64)
                for lagged, sign in ((False, 1), (True, -1)):
                    np.cumsum(field_values_vec(spec, sp.k, i, j, lagged, seed=chunk),
                              axis=1, out=prefix[:, 1:])
                    incr[r : r + rows, :, i - 1] += sign * (prefix[:, sp.p:] - prefix[:, : b - a])
    if spec.doubling:
        incr *= 2
    cum = np.zeros((seeds.shape[0], b - a + 1, spec.dimension), dtype=np.int64)
    np.cumsum(incr, axis=1, out=cum[:, 1:])
    return cum - cum[:, [-a], :]


def partial_sums(spec: FieldSpec, window: Tuple[int, int]) -> PathSample:
    """Exact partial sums of one realization over ``window`` = [a, b] with
    a <= 0 <= b; S_t sums the increments over [0, t) for t >= 0 and minus
    those over [t, 0) for t < 0."""
    values = _window_sums(spec, [spec.seed], window)
    return PathSample(spec=spec, window=tuple(window), values=values[0])


def partial_sums_batch(
    seeds: np.ndarray,
    window: Tuple[int, int],
    dimension: int = 1,
    k_max: Optional[int] = None,
    doubling: bool = False,
    k_min: int = 1,
) -> np.ndarray:
    """Partial sums for many independent seeds at once.

    Returns an int64 array of shape (n_seeds, b - a + 1, dimension).
    Matches partial_sums(FieldSpec(seed=s, ...), window) for each seed s.
    """
    a, b = window
    if k_max is None:
        k_max = default_k_max(max(abs(a), abs(b), 2))
    spec = FieldSpec(seed=0, dimension=dimension, k_min=k_min, k_max=k_max,
                     doubling=doubling)
    return _window_sums(spec, seeds, window)


@dataclass(frozen=True)
class ConditioningPlan:
    """Forced cylinder realizing the monotone-increment event.

    Scales in [K, K+C) get their lead window forced to 1 and the lagged
    window forced to 0; other scales at or above kappa get both windows
    forced to 0. Only scales up to the spec truncation are materialized;
    higher scales are independent of everything evaluated at desk scale.
    """

    N: int
    C: int
    kappa: int
    K: int
    windows: Tuple[ForcedWindow, ...]

    def check_consistent(self) -> None:
        by_scale: Dict[Tuple[int, int], List[ForcedWindow]] = {}
        for w in self.windows:
            by_scale.setdefault((w.k, w.i), []).append(w)
        for key, ws in by_scale.items():
            for x in ws:
                for y in ws:
                    if x is y:
                        continue
                    lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
                    if lo < hi and x.value != y.value:
                        raise ValueError(
                            f"conflicting assignments on scale {key} over [{lo}, {hi})"
                        )


def goal_event_plan(N: int, C: int, k_max: Optional[int] = None) -> ConditioningPlan:
    """Build the conditioning plan forcing strictly increasing first-coordinate sums.

    kappa is the smallest scale with 2N < p_k; K the smallest scale >= kappa
    with 2 p_k < d_k. Raises if a forced scale would have colliding windows
    (requires p_k + 2N < 2 p_k <= d_k).
    """
    if N < 1 or C < 1:
        raise PreconditionError("need N >= 1 and C >= 1")
    kappa = 1
    while scale_params(kappa).p <= 2 * N:
        kappa += 1
    K = kappa
    while not (2 * scale_params(K).p < scale_params(K).d):
        K += 1
    if k_max is None:
        # smallest truncation whose forced band already exceeds C
        k_max = K
        total = 0
        while True:
            total += scale_params(k_max).p
            if total > C or k_max >= K + C - 1:
                break
            k_max += 1
    windows: List[ForcedWindow] = []
    for k in range(kappa, k_max + 1):
        sp = scale_params(k)
        span = sp.p + 2 * N
        if span >= 2 * sp.p:
            raise PreconditionError(
                f"conditioning collision at scale {k}: p_k + 2N = {span} >= 2 p_k"
            )
        if K <= k < K + C:
            windows.append(ForcedWindow(k=k, i=1, lo=0, hi=span, value=1))
            windows.append(ForcedWindow(k=k, i=1, lo=sp.d, hi=sp.d + span, value=0))
        else:
            windows.append(ForcedWindow(k=k, i=1, lo=0, hi=span, value=0))
            windows.append(ForcedWindow(k=k, i=1, lo=sp.d, hi=sp.d + span, value=0))
    plan = ConditioningPlan(N=N, C=C, kappa=kappa, K=K, windows=tuple(windows))
    plan.check_consistent()
    return plan


def conditioned_spec(spec: FieldSpec, plan: ConditioningPlan) -> FieldSpec:
    """Merge a conditioning plan into the spec.

    The forced coordinates are cylinder conditions on independent field
    values, so sampling the remaining coordinates unconditionally realizes
    the exact conditional law given the event. A forced window of the spec
    that disagrees with the plan is rejected.
    """
    replace(plan, windows=spec.windows + plan.windows).check_consistent()
    need_kmax = max((w.k for w in plan.windows), default=spec.k_max)
    out = spec
    if need_kmax > spec.k_max:
        out = replace(out, k_max=need_kmax)
    return replace(out, windows=out.windows + plan.windows)


def min_low_scale_increment(N: int, k_min: int = 1) -> int:
    """Worst-case lower bound M for the low-scale part of one increment.

    Scales with p_k <= 2N contribute at least -2 p_k each to
    S_{n+1} - S_n; the bound is attained only if every summand is extreme.
    """
    M = 0
    k = k_min
    while scale_params(k).p <= 2 * N:
        M -= 2 * scale_params(k).p
        k += 1
    return M
