"""Scalar reference implementations of the field, one PRF call per value
at scales 1 and 2 and one keyed block at a time from scale 3 on (its
binomial CDF from log-pmf terms, its positions one hash at a time), its
float comparison rule over whole arrays, the dense field values and
path sums (every value of a window, one prefix sum per scale and axis),
the dense product form of the walk's log characteristic function, the
walk's exact rational law at toy sizes (amplitudes are rational only for k <= 2), the power spectral
model's covariance by adaptive quadrature, one lag per call, the
circulant sampler's transform of all rows at once, the triple probability
by adaptive quadrature over scipy's ndtr and by Monte Carlo with one keyed
stream per lag, the
section-3 probe one sample, one n and one scalar bit at a time, the
distinct-window certification one sample at a time over scalar sums of
the goal event's cylinder laid out as forced windows of field values,
the surrogate extraction over per-sample sets of return times, and a
canonical outward spiral over the points with an odd coordinate
(``complement_point``), which the permutation fixes, as a source of test
points.

The library evaluates partial sums only through the scatter kernel over
nonzero field values in ``recurlab.fields``, the log characteristic
function only through the per-scale histogram FFT in ``recurlab.pmf``,
the power covariance and the triple probability only through fixed
Gauss-Legendre rules over all lags and the circulant paths only in row
blocks in ``recurlab.gaussian``, the section-3
probe only over a membership matrix with its bits hashed as arrays in
``recurlab.experiments``, the
extraction only over the joint-return matrix there, and the
certification only as reductions over rows of the seed-axis kernel
in ``recurlab.ranges``, with the cylinder's band in closed form.
These functions compute the same quantities straight from the definitions,
so that tests can check the kernels against an independent implementation.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from recurlab.experiments import Extraction, TripleProbeReport, _child_seed
from recurlab.fields import (
    _COUNT,
    _POSITION,
    TAG_FIELD,
    FieldSpec,
    _thresholds,
    lag_namespace,
    scale_params,
)
from recurlab.gaussian import upper_tail
from recurlab.pmf import GroupedLaw, scale_groups
from recurlab.prf import derive_rng, hash_words, hash_words_vec
from recurlab.ranges import (
    BOUND_SCALES,
    CertificationRun,
    ConditioningPlan,
    PermutationView,
    PolynomialSpec,
    RangeTable,
    _is_resolved_other,
    pool_range_tables,
)
from recurlab.shiftspace import OmegaConfig


def uniform01(seed: int, *words: int) -> float:
    """Deterministic uniform in [0, 1) addressed by (seed, words)."""
    return (hash_words(seed, *words) >> 11) * 2.0**-53


@dataclass(frozen=True)
class ForcedWindow:
    """Field values of scale k, coordinate i forced to ``value`` on [lo, hi)."""

    k: int
    i: int
    lo: int
    hi: int
    value: int


def plan_windows(plan: ConditioningPlan) -> Tuple[ForcedWindow, ...]:
    """The cylinder of a goal-event plan as forced windows of coordinate 1,
    per scale kappa..k_max its lead window [0, p_k + 2N), +1 on the band
    K <= k < K + C and 0 elsewhere, then its lag window [d_k, d_k + p_k + 2N),
    0."""
    windows = []
    for k in range(plan.kappa, plan.k_max + 1):
        sp = scale_params(k)
        span = sp.p + 2 * plan.N
        windows.append(ForcedWindow(k, 1, 0, span, int(plan.K <= k < plan.K + plan.C)))
        windows.append(ForcedWindow(k, 1, sp.d, sp.d + span, 0))
    return tuple(windows)


def _forced_value(windows: Sequence[ForcedWindow], k: int, i: int, j: int) -> Optional[int]:
    for w in windows:
        if w.k == k and w.i == i and w.lo <= j < w.hi:
            return w.value
    return None


def _keyed_bits(q: float) -> Optional[int]:
    """The block size exponent b of a keyed scale, the largest b <= 62 with
    q 2^b <= 1; None for a scale hashed value by value (b < 8)."""
    b = 0
    while b < 62 and q * 2.0 ** (b + 1) <= 1.0:
        b += 1
    return b if b >= 8 else None


@lru_cache(maxsize=None)
def _binomial_cdf(q: float, b: int) -> Tuple[float, ...]:
    """F(c) = P(count <= c) of Binomial(2^b, q) below the count's cap, the
    first c whose tail is under 2^-53: each pmf term from its logarithm
    (the falling factorial of 2^b, lgamma and log1p), each tail by fsum."""
    n = 2**b
    pmf = [math.exp(sum(math.log(n - m) for m in range(c)) - math.lgamma(c + 1)
                    + c * math.log(q) + (n - c) * math.log1p(-q)) for c in range(41)]
    tails = [math.fsum(pmf[c + 1 :]) for c in range(40)]
    cap = next(c for c, t in enumerate(tails) if t < 2.0**-53)
    return tuple(1.0 - t for t in tails[:cap])


@lru_cache(maxsize=None)
def keyed_block(seed: int, k: int, i: int, lag: bool, block: int) -> Dict[int, int]:
    """{position: value} of the nonzero values of a keyed block of scale k,
    coordinate i, one scalar hash at a time: the count inverts the uniform
    of the count hash through the binomial CDF, and the t-th position hash
    gives a position (top b bits) and a sign (low bit), skipped if the
    block holds that position already. ``lag`` keys the lag namespace."""
    q = scale_params(k).q
    b = _keyed_bits(q)
    words = (TAG_FIELD, k, i, 1) if lag else (TAG_FIELD, k, i)
    u = uniform01(seed, *words, _COUNT, block)
    count = sum(u >= f for f in _binomial_cdf(q, b))
    held: Dict[int, int] = {}
    t = 0
    while len(held) < count:
        h = hash_words(seed, *words, _POSITION, block, t)
        held.setdefault(h >> (64 - b), 1 if h & 1 else -1)
        t += 1
    return held


def field_value(spec: FieldSpec, seed: int, k: int, i: int, j: int,
                windows: Sequence[ForcedWindow] = ()) -> int:
    """The field value of ``seed`` at (scale k, coordinate i, time j) in
    {-1, 0, +1}; the first of ``windows`` that holds (k, i, j) forces it."""
    if not (spec.k_min <= k <= spec.k_max):
        raise ValueError(f"scale {k} outside [{spec.k_min}, {spec.k_max}]")
    if not (1 <= i <= spec.dimension):
        raise ValueError(f"coordinate index {i} exceeds dimension")
    v = _forced_value(windows, k, i, j)
    if v is not None:
        return v
    if spec.zero:
        return 0
    sp = scale_params(k)
    lag = lag_namespace(k) and j >= sp.d // 2
    if lag:
        j -= sp.d
    b = _keyed_bits(sp.q)
    if b is not None:
        return keyed_block(seed, k, i, lag, j >> b).get(j & ((1 << b) - 1), 0)
    u = uniform01(seed, *((TAG_FIELD, k, i, 1) if lag else (TAG_FIELD, k, i)), j)
    if u < sp.q / 2:
        return 1
    if u < sp.q:
        return -1
    return 0


def _keyed_values(spec: FieldSpec, seed, k: int, i: int, j: np.ndarray,
                  lagged: bool) -> np.ndarray:
    """Field values of a keyed scale over the coordinates ``j`` (offsets
    from d_k if ``lagged``) in the broadcast shape of ``seed`` and ``j``,
    from ``keyed_block`` over the blocks that ``j`` touches."""
    sp = scale_params(k)
    b = _keyed_bits(sp.q)
    lag = lagged and lag_namespace(k)
    if lagged and not lag:
        j = j + sp.d
    seeds = np.asarray(seed, dtype=np.uint64).reshape(-1)
    out = np.zeros((seeds.size, j.size), dtype=np.int64)
    for r, s in enumerate(seeds.tolist()):
        for block in np.unique(j >> b).tolist():
            for pos, v in keyed_block(s, k, i, lag, block).items():
                out[r, j == (block << b) + pos] = v
    return out.reshape(np.broadcast_shapes(np.shape(seed), j.shape))


def field_values_float(spec: FieldSpec, seed, k: int, i: int, j: np.ndarray,
                       lagged: bool = False) -> np.ndarray:
    """Field values over an array of coordinates, by the float rule of
    ``field_value``: the hash becomes the uniform u = (h >> 11) 2^-53, and
    the value is +1 at u < q / 2, -1 at q / 2 <= u < q, else 0; a keyed
    scale compares the uniform of its block's count hash with the binomial
    CDF (``keyed_block``). ``seed``, ``j`` and ``lagged`` are read as by
    ``field_values_vec``.
    """
    sp = scale_params(k)
    j = np.asarray(j, dtype=np.int64)
    if spec.zero:
        return np.zeros(np.broadcast_shapes(np.shape(seed), j.shape), dtype=np.int64)
    if _keyed_bits(sp.q) is not None:
        return _keyed_values(spec, seed, k, i, j, lagged)
    words = (TAG_FIELD, k, i)
    if lagged and lag_namespace(k):
        words = (TAG_FIELD, k, i, 1)
    elif lagged:
        j = j + sp.d
    h = hash_words_vec(seed, words, j)
    u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    out = np.zeros(u.shape, dtype=np.int64)
    out[u < sp.q] = -1
    out[u < sp.q / 2] = 1
    return out


def field_values_vec(spec: FieldSpec, seed, k: int, i: int, j: np.ndarray,
                     lagged: bool = False) -> np.ndarray:
    """Field values of scale k, coordinate i over an int64 coordinate array,
    every value formed densely: from the hash thresholds, or on a keyed
    scale from ``keyed_block``.

    With ``lagged=True`` the entries of ``j`` are offsets from the lag d_k
    (required for scales whose lag exceeds the int64 coordinate range).
    ``seed`` may be an array that broadcasts against ``j``; the result has
    the broadcast shape.
    """
    sp = scale_params(k)
    j = np.asarray(j, dtype=np.int64)
    shape = np.broadcast_shapes(np.shape(seed), j.shape)
    if spec.zero:
        out = np.zeros(shape, dtype=np.int64)
    elif _keyed_bits(sp.q) is not None:
        out = _keyed_values(spec, seed, k, i, j, lagged)
    else:
        jj = j + sp.d if lagged and not lag_namespace(k) else j
        words = (TAG_FIELD, k, i, 1) if lagged and lag_namespace(k) else (TAG_FIELD, k, i)
        h = hash_words_vec(seed, words, jj)
        nonzero, plus = _thresholds(sp.q)
        out = 2 * (h < plus).astype(np.int64) - (h < nonzero)
    return out


def oracle_window_sums(spec: FieldSpec, seeds, window: Tuple[int, int],
                       scales=None) -> np.ndarray:
    """``recurlab.fields.partial_sums_batch`` by dense prefix sums: per
    scale, the field values over [a, b + p - 1) on the lead axis and on the
    lag axis each take one prefix sum, and the block sum over [t, t + p) is
    the difference of two prefix entries. ``scales`` holds the scale indices k
    each coordinate reads (default: every scale of the spec)."""
    a, b = window
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    incr = np.zeros((seeds.shape[0], b - a, spec.dimension), dtype=np.int64)
    if scales is None:
        scales = [range(spec.k_min, spec.k_max + 1)] * spec.dimension
    for i in range(1, spec.dimension + 1):
        for sp in map(scale_params, scales[i - 1]):
            j = np.arange(a, b + sp.p - 1)
            prefix = np.zeros((seeds.shape[0], j.size + 1), dtype=np.int64)
            for lagged, sign in ((False, 1), (True, -1)):
                np.cumsum(field_values_vec(spec, seeds, sp.k, i, j, lagged),
                          axis=1, out=prefix[:, 1:])
                incr[:, :, i - 1] += sign * (prefix[:, sp.p:] - prefix[:, : b - a])
    if spec.doubling:
        incr *= 2
    cum = np.zeros((seeds.shape[0], b - a + 1, spec.dimension), dtype=np.int64)
    np.cumsum(incr, axis=1, out=cum[:, 1:])
    return cum - cum[:, [-a], :]


def f_k_at(spec: FieldSpec, seed: int, k: int, i: int, t: int,
           windows: Sequence[ForcedWindow] = ()) -> int:
    """Block function of scale k at time t: lead window minus lagged window."""
    sp = scale_params(k)
    total = 0
    for j in range(sp.p):
        total += field_value(spec, seed, k, i, t + j, windows)
        total -= field_value(spec, seed, k, i, t + sp.d + j, windows)
    return total


def f_at(spec: FieldSpec, seed: int, t: int,
         windows: Sequence[ForcedWindow] = ()) -> Tuple[int, ...]:
    """The walk increment at time t (one entry per coordinate)."""
    mult = 2 if spec.doubling else 1
    out = []
    for i in range(1, spec.dimension + 1):
        s = 0
        for k in range(spec.k_min, spec.k_max + 1):
            s += f_k_at(spec, seed, k, i, t, windows)
        out.append(mult * s)
    return tuple(out)


def oracle_sums(spec: FieldSpec, seed: int, window: Tuple[int, int],
                windows: Sequence[ForcedWindow] = ()) -> np.ndarray:
    """S_t of ``seed`` for t in [a, b] summed from f_at, with ``windows``
    forcing field values: shape (b - a + 1, dimension).

    S_t is the sum of f over [0, t) for t >= 0 and minus the sum over
    [t, 0) for t < 0.
    """
    a, b = window
    incr = np.array([f_at(spec, seed, t, windows) for t in range(a, b)],
                    dtype=np.int64).reshape(b - a, spec.dimension)
    cum = np.concatenate([np.zeros((1, spec.dimension), dtype=np.int64),
                          np.cumsum(incr, axis=0)])
    return cum - cum[-a]


def oracle_logphi(law: GroupedLaw, grid: int) -> np.ndarray:
    """log phi(2 pi t / grid), t = 0..grid // 2, as the dense sum of
    count * log(1 - q + q cos(v theta)) over every (group, grid point) pair.

    Each term is taken as log1p(-q (1 - cos)), whose rounding is relative to
    the term. Written as log(1 - q + q cos), rounding 1 - q to a double costs
    up to 1.1e-16 per atom whatever q is; at q ~ 1e-11 and 10^5 atoms that
    moves the mass by 5e-12 (k_max = 15, n = 64), above the tolerance the
    kernel is held to.
    """
    half = grid // 2
    theta = 2.0 * np.pi * np.arange(half + 1) / grid
    logphi = np.zeros(half + 1)
    block = max(1, (1 << 22) // (half + 1))
    for start in range(0, law.values.size, block):
        v = law.values[start : start + block].astype(np.float64)
        c = law.counts[start : start + block].astype(np.float64)
        q = law.qs[start : start + block]
        term = np.log1p(-q[:, None] * (1.0 - np.cos(v[:, None] * theta[None, :])))
        logphi += (c[:, None] * term).sum(axis=0)
    return logphi


def rational_q(k: int) -> Fraction:
    if k == 1:
        return Fraction(1, 4)
    if k == 2:
        return Fraction(1, 32)
    raise ValueError("amplitude is irrational for k >= 3; rational mode covers k <= 2")


def exact_scale_pmf(k: int, n: int, q: Optional[Fraction] = None) -> Dict[int, Fraction]:
    """Law of the scale-k contribution as exact rationals (atom-by-atom)."""
    if q is None:
        q = rational_q(k)
    if n == 0 or q == 0:
        return {0: Fraction(1)}
    law: Dict[int, Fraction] = {0: Fraction(1)}
    half = q / 2
    stay = 1 - q
    # the law of a sum of independent atoms does not depend on their order
    for c in np.repeat(*scale_groups(k, n)).tolist():
        new: Dict[int, Fraction] = {}
        for s, m in law.items():
            for dv, w in ((0, stay), (c, half), (-c, half)):
                key = s + dv
                new[key] = new.get(key, Fraction(0)) + m * w
        law = new
    return law


def exact_walk_pmf(spec: FieldSpec, n: int) -> Dict[int, Fraction]:
    """Exact rational law of one coordinate of S_n (k_max <= 2 only)."""
    law: Dict[int, Fraction] = {0: Fraction(1)}
    for k in range(spec.k_min, spec.k_max + 1):
        part = exact_scale_pmf(k, n)
        new: Dict[int, Fraction] = {}
        for a, ma in law.items():
            for b, mb in part.items():
                new[a + b] = new.get(a + b, Fraction(0)) + ma * mb
        law = new
    if spec.doubling:
        law = {2 * s: m for s, m in law.items()}
    return law


def oracle_power_r(delta: float, n: int) -> float:
    """Covariance of the normalized |t|^(delta-1) density at lag n.

    The substitution u = t^delta removes the endpoint singularity, leaving a
    bounded oscillatory integrand for adaptive quadrature. scipy.integrate
    is imported here, not at module level, so that importing the oracles
    does not load it.
    """
    from scipy.integrate import quad

    hi = math.pi**delta

    def integrand(u: float) -> float:
        return math.cos(n * u ** (1.0 / delta)) / delta

    val, err = quad(integrand, 0.0, hi, epsabs=1e-12, epsrel=1e-12, limit=2000)
    if err > 1e-10:
        raise RuntimeError(f"quadrature error {err:.2e} too large at n={n}")
    return 2.0 * val / (2.0 * hi / delta)


def oracle_circulant_paths(eigs: np.ndarray, N: int, size: int,
                           seed: int) -> np.ndarray:
    """The circulant sampler's paths X_0..X_N from the embedding's
    eigenvalues, its two draws scaled and transformed in one shot."""
    rng = np.random.default_rng(seed)
    M = len(eigs)
    coef = np.sqrt(eigs / M)
    a = rng.standard_normal((size, M))
    b = rng.standard_normal((size, M))
    return np.fft.fft(coef * (a + 1j * b), axis=1).real[:, : N + 1]


def oracle_triple(r: float) -> float:
    """P(X_0 > 1, X_n > 1, Y_n > 1) at correlation r by adaptive quadrature
    of phi(x) (2 Phi((r x - 1) / sqrt(1 - r^2)) - 1) over x > 1/r, with
    scipy's ndtr for Phi; 0 for r <= 0."""
    from scipy.integrate import quad
    from scipy.special import ndtr

    if r <= 0:
        return 0.0
    s = math.sqrt(1.0 - r * r)

    def integrand(x: float) -> float:
        return (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                * (2.0 * float(ndtr((r * x - 1.0) / s)) - 1.0))

    return quad(integrand, 1.0 / r, math.inf, epsabs=0.0, epsrel=1.5e-14,
                limit=500)[0]


_TAG_TRIPLE = 71  # keyed stream of triple_probability's draws


@dataclass(frozen=True)
class TripleEstimate:
    n: int
    estimate: float
    se: float
    samples: int
    env_tail: float  # exact-event bound: upper tail of 1/|r|, 0 when r <= 0
    env_markov: float  # Markov/Cauchy-Schwarz bound r(n)^2

    @property
    def envelope(self) -> float:
        return min(self.env_tail, self.env_markov)


def triple_probability(r: Sequence[float], n: int, samples: int,
                       seed: int = 0) -> TripleEstimate:
    """Monte Carlo estimate of P(X_0 > 1, X_n > 1, Y_n > 1) for the
    covariance r = r(0..N), N >= n, one keyed stream per lag.

    Only the pair (X_0, X_n) is needed: Y_n = 2 r(n) X_0 - X_n is a
    deterministic function of it. Both analytic envelopes from the decay
    argument are attached.
    """
    if n < 0 or samples < 1:
        raise ValueError("need n >= 0 and samples >= 1")
    rn = float(r[n])
    rng = derive_rng(seed, _TAG_TRIPLE, n)
    z0 = rng.standard_normal(samples)
    z1 = rng.standard_normal(samples)
    x0 = z0
    xn = rn * z0 + math.sqrt(max(1.0 - rn * rn, 0.0)) * z1
    yn = 2.0 * rn * x0 - xn
    hits = (x0 > 1.0) & (xn > 1.0) & (yn > 1.0)
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    env_tail = upper_tail(1.0 / abs(rn)) if rn > 0 else 0.0
    return TripleEstimate(n=n, estimate=p, se=se, samples=samples,
                          env_tail=env_tail, env_markov=rn * rn)


def _omega_seed_with_origin_bit(seed0: int, tag: Sequence[int], dimension: int,
                                want: int) -> int:
    origin = 0 if dimension == 1 else (0,) * dimension
    attempt = 0
    while True:
        w = _child_seed(seed0, *tag, attempt)
        if OmegaConfig(seed=w, dimension=dimension).bit(origin) == want:
            return w
        attempt += 1


def oracle_section3(pool: Sequence[PermutationView], k: int, H: int,
                    samples: int = 1000, seed0: int = 0) -> TripleProbeReport:
    """``recurlab.experiments.exp_section3`` one sample at a time, with the
    bits the probe does not read: the witness of each n is the first
    coordinate whose view has n among its shared fresh indices, and each
    bit is one scalar ``OmegaConfig.bit``: the plain origin bit at the
    endpoint S_{p1(n)} of the view's first table, the twisted one through
    ``tilde_S_origin_bit``. Each configuration is conditioned on
    omega(0) = 0 by re-hashing its seed until that bit is 0. The probe
    writes ``identity_failures`` and ``violations`` as 0, which the
    counts here must equal while the twist complements every witness
    bit."""
    if H > pool[0].N:
        raise ValueError("horizon exceeds the pool's range horizon")
    if k < 1:
        raise ValueError("need k >= 1")
    rng = np.random.default_rng(_child_seed(seed0, 3))
    curly_sets = [set(view.curly) for view in pool]
    in_surrogate = 0
    violations = 0
    identity_failures = 0
    uncovered: Dict[int, int] = {}
    for s in range(samples):
        idx = rng.integers(0, len(pool), size=k)
        configs = [OmegaConfig(
            seed=_omega_seed_with_origin_bit(seed0, (4, s, t), 2, want=0),
            dimension=2) for t in range(k)]
        witness = {}
        covered = True
        for n in range(1, H + 1):
            t = next((t for t in range(k) if n in curly_sets[idx[t]]), None)
            if t is None:
                covered = False
                uncovered[n] = uncovered.get(n, 0) + 1
            else:
                witness[n] = t
        if not covered:
            continue
        in_surrogate += 1
        for n in range(1, H + 1):
            t = witness[n]
            view = pool[idx[t]]
            cfg = configs[t]
            t_bit = cfg.bit(view.table1.endpoint(n))
            s_bit = view.tilde_S_origin_bit(cfg, n)
            if s_bit != 1 - t_bit:
                identity_failures += 1
            if t_bit == 0 and s_bit == 0:
                violations += 1
    # by n, as the probe's failure message lists them
    uncovered = dict(sorted(uncovered.items()))
    if in_surrogate == 0:
        raise RuntimeError(
            f"no sample covered [1, {H}]; per-n failures: {uncovered}")
    return TripleProbeReport(horizon=H, samples=samples,
                             in_surrogate=in_surrogate, violations=violations,
                             identity_failures=identity_failures,
                             uncovered=uncovered)


def min_low_scale_increment(N: int) -> int:
    """Worst-case lower bound M for the low-scale part of one increment:
    the scales with p_k <= 2N contribute at least -2 p_k each."""
    M = 0
    k = 1
    while scale_params(k).p <= 2 * N:
        M -= 2 * scale_params(k).p
        k += 1
    return M


def oracle_plan(N: int, C: int) -> ConditioningPlan:
    """``recurlab.ranges.goal_event_plan`` from its scalar definitions, one
    loop each: kappa the smallest scale with 2N < p_k, K the smallest scale
    >= kappa with 2 p_k < d_k, and k_max the smallest truncation whose band
    K..k_max sums past C, or K + C - 1."""
    kappa = 1
    while scale_params(kappa).p <= 2 * N:
        kappa += 1
    K = kappa
    while not (2 * scale_params(K).p < scale_params(K).d):
        K += 1
    k_max = K
    total = 0
    while True:
        total += scale_params(k_max).p
        if total > C or k_max >= K + C - 1:
            break
        k_max += 1
    return ConditioningPlan(N=N, C=C, M=min_low_scale_increment(N), kappa=kappa,
                            K=K, k_max=k_max)


def oracle_certify(seed0: int, N: int, C: Optional[int] = None,
                   samples: int = 1000) -> CertificationRun:
    """``recurlab.ranges.certify_distinct`` one sample at a time: each
    sample's window and high band are summed by ``oracle_sums`` under the
    forced windows (``plan_windows``) of the loop-built plan
    (``oracle_plan``) and checked as tuples, and the cylinder probability
    and factor bounds are taken straight from those windows."""
    M = min_low_scale_increment(N)
    if C is None:
        C = -M + 1
    plan = oracle_plan(N, C)
    windows = plan_windows(plan)
    plan_k_max = max(w.k for w in windows)
    goal_failures = 0
    distinct_failures = 0
    y_floor = None
    spec = FieldSpec(dimension=2, doubling=True, k_max=plan_k_max)
    high_spec = replace(spec, k_min=plan.kappa, doubling=False)
    for seed in range(seed0, seed0 + samples):
        chain = [tuple(int(x) for x in row)
                 for row in oracle_sums(spec, seed, (0, 2 * N), windows)]
        ok = all(chain[t] < chain[t + 1] for t in range(2 * N))
        if len(set(chain)) != 2 * N + 1:
            distinct_failures += 1
        high = oracle_sums(high_spec, seed, (0, 2 * N), windows)
        floor = int(np.diff(high[:, 0]).min())
        y_floor = floor if y_floor is None else min(y_floor, floor)
        if not ok or floor <= C:
            goal_failures += 1
    log_prob = 0.0
    for w in windows:
        q = scale_params(w.k).q
        log_prob += (w.hi - w.lo) * (math.log1p(-q) if w.value == 0 else math.log(q / 2.0))
    checks = tuple(
        (k, 2 * (scale_params(k).p + 2 * N) * math.log1p(-scale_params(k).q),
         -2.0 / scale_params(k).p)
        for k in range(plan.K + C, plan.K + C + BOUND_SCALES))
    return CertificationRun(
        N=N, C=C, M=M, kappa=plan.kappa, K=plan.K, plan_k_max=plan_k_max,
        samples=samples, goal_failures=goal_failures,
        distinct_failures=distinct_failures, y_floor=y_floor,
        log_event_probability=log_prob, bound_checks=checks)


def oracle_extract(return_sets: Sequence[set], H: int) -> Extraction:
    """``recurlab.experiments._extract`` over one set of joint-return times
    per sample, by Python loops over the samples and over n."""
    samples = len(return_sets)
    last = [max(R) if R else 0 for R in return_sets]
    N = min(last)
    if N >= H:
        return Extraction(H=H, samples=samples, N=N, M=0, measure_D=0.0,
                          measure_A=0.0, violations=0, verdict="diverged")
    D_idx = [i for i, l in enumerate(last) if l <= N]
    M = max((last[i] for i in D_idx), default=0)
    if M == 0:
        A_idx = D_idx
    else:
        A_idx = [i for i in D_idx if M in return_sets[i]]
    violations = 0
    for i in A_idx:
        R = return_sets[i]
        for n in range(1, H + 1):
            if n in R and (n + M) in R:
                violations += 1
    verdict = "ok" if violations == 0 else "violated"
    return Extraction(H=H, samples=samples, N=N, M=M,
                      measure_D=len(D_idx) / samples,
                      measure_A=len(A_idx) / samples,
                      violations=violations, verdict=verdict)


def build_range(spec: FieldSpec, seed: int, poly: PolynomialSpec, N: int) -> RangeTable:
    """The range table of ``seed`` alone: a pool of one seed and one
    polynomial of ``recurlab.ranges.pool_range_tables``."""
    return pool_range_tables(spec, [seed], [poly], N)[0][0]


def range_set(table: RangeTable) -> set:
    """The points a range table visits, the origin included if visited."""
    return set(map(tuple, table.endpoints.tolist()))


def audit_injectivity(view: PermutationView, points: Sequence[Tuple[int, int]]) -> int:
    """Number of image collisions of ``view.pi_forward`` over the queried
    points (0 expected)."""
    images = [view.pi_forward(v) for v in points]
    return len(images) - len(set(images))


def _resolved_ring(r: int) -> List[Tuple[int, int]]:
    """Resolved points of sup-norm r >= 1 in spiral order: up the right
    side, left along the top, down the left side, right along the bottom."""
    ring = ([(r, y) for y in range(-r + 1, r + 1)]
            + [(x, r) for x in range(r - 1, -r - 1, -1)]
            + [(-r, y) for y in range(r - 1, -r - 1, -1)]
            + [(x, -r) for x in range(-r + 1, r + 1)])
    return [v for v in ring if _is_resolved_other(v)]


def _resolved_inside(r: int) -> int:
    """Number of resolved points of sup-norm < r: the (2r-1)^2 box minus
    its points in 2Z^2."""
    return (2 * r - 1) ** 2 - (2 * ((r - 1) // 2) + 1) ** 2


def complement_point(i: int) -> Tuple[int, int]:
    """The i-th (1-based) point of the canonical complement enumeration."""
    if i < 1:
        raise ValueError("enumeration is 1-based")
    # about 3 r^2 points lie inside ring r; step from that guess to the ring
    r = max(1, math.isqrt(i // 3))
    while _resolved_inside(r) >= i:
        r -= 1
    while _resolved_inside(r + 1) < i:
        r += 1
    return _resolved_ring(r)[i - _resolved_inside(r) - 1]
