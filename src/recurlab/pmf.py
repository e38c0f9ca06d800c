"""Exact distribution of the walk via its linear atom structure.

The scale-k contribution to S_n is a signed integer combination of i.i.d.
three-valued atoms; grouping equal |coefficients| gives a compact product
form for the characteristic function, which is evaluated on a power-of-two
Fourier grid and inverted to the exact pmf (exact up to aliasing, which is
bounded and reported; Abate and Whitt, "The Fourier-series method for
inverting transforms of probability distributions", Queueing Systems 10,
1992). Each scale's log characteristic function comes from one real FFT of
its |coefficient| -> count histogram, laid on the grid at v mod grid, and
the cosine expansion of log(1 - q (1 - cos x)) truncated at the first
order whose remainder bound, summed over the scale's atoms, is below
SERIES_TOL; a scale with no more distinct values than the series has terms
takes the product directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fields import FieldSpec, ScaleParams, scale_params, tail_variance_bound

SIGMA2 = 2.0 * math.log(2) ** 2

PRUNE_EPS = 1e-16

# the error ledger's tolerances: a law whose aliasing bound exceeds
# ALIAS_TOL, or whose mass is off 1 by more than MASS_TOL, fails its gate
ALIAS_TOL = 1e-10
MASS_TOL = 1e-9

# largest total error the truncated log series may leave in one scale's log phi
SERIES_TOL = 1e-15

# grid values per row chunk of the peak sweep; each chunk also holds a few
# temporaries of its size
_SWEEP_ELEMS = 1 << 18


# ---------------------------------------------------------------------------
# atom groups


def scale_groups(k: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(values, counts): the |coefficient| and multiplicity of scale k's
    nonzero atoms in S_n, values ascending.

    Atom m enters the lead window with the trapezoid weight
    w(m) = #{(j, l): j in [0,n), l in [0,p), j + l = m} and the lag window
    d_k later with -w. When d_k >= n + p the two copies do not meet, so the
    groups are the heights 1..h, h = min(n, p), four times each, except the
    plateau h, which both copies hold |n - p| + 1 times. Otherwise they are
    read off the coefficient row of ``_overlap_counts``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sp = scale_params(k)
    if sp.d >= n + sp.p:
        h = min(n, sp.p)
        counts = np.full(h, 4, dtype=np.int64)
        counts[-1] = 2 * (abs(n - sp.p) + 1)
        return np.arange(1, h + 1, dtype=np.int64), counts
    counts = _overlap_counts(sp, np.array([n]))[0]
    vals = np.flatnonzero(counts[1:]) + 1
    return vals, counts[vals]


# ---------------------------------------------------------------------------
# pmf container


@dataclass
class IntegerPmf:
    """Probability mass on integers: mass[idx] is P(S = offset + idx)."""

    offset: int
    mass: np.ndarray
    pruned: float = 0.0

    @property
    def support(self) -> np.ndarray:
        return self.offset + np.arange(self.mass.size)

    def prob(self, j: int) -> float:
        idx = j - self.offset
        if 0 <= idx < self.mass.size:
            return float(self.mass[idx])
        return 0.0

    def total(self) -> float:
        return float(self.mass.sum())

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draws of S by inverse CDF: uniforms scaled by the total mass,
        located in the cumulative mass; a value of zero mass is never drawn."""
        cdf = np.cumsum(self.mass)
        at = np.searchsorted(cdf[:-1], rng.random(shape) * cdf[-1], side="right")
        return self.offset + at

    def interval_mass(self, lo: int, hi: int) -> float:
        """Mass of [lo, hi] inclusive."""
        a = max(lo - self.offset, 0)
        b = min(hi - self.offset + 1, self.mass.size)
        if a >= b:
            return 0.0
        return float(self.mass[a:b].sum())

    def stretch(self, factor: int) -> "IntegerPmf":
        """Law of factor * S (support reindexed, zeros interleaved)."""
        if factor == 1:
            return self
        out = np.zeros((self.mass.size - 1) * factor + 1, dtype=self.mass.dtype)
        out[::factor] = self.mass
        return IntegerPmf(offset=self.offset * factor, mass=out, pruned=self.pruned)

    def prune(self) -> "IntegerPmf":
        small = self.mass < PRUNE_EPS
        lost = float(self.mass[small].sum())
        mass = self.mass.copy()
        mass[small] = 0.0
        nz = np.nonzero(mass)[0]
        if nz.size == 0:
            return IntegerPmf(offset=0, mass=np.array([0.0]), pruned=self.pruned + lost)
        mass = mass[nz[0] : nz[-1] + 1]
        return IntegerPmf(offset=self.offset + int(nz[0]), mass=mass,
                          pruned=self.pruned + lost)

    def max_asymmetry(self) -> float:
        m = self.mass
        lo, hi = self.offset, self.offset + m.size - 1
        r = max(-lo, hi)
        full = np.zeros(2 * r + 1)
        full[lo + r : hi + r + 1] = m
        return float(np.abs(full - full[::-1]).max())


def point_mass(j: int = 0) -> IntegerPmf:
    return IntegerPmf(offset=j, mass=np.array([1.0]))


# ---------------------------------------------------------------------------
# characteristic-function inversion


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def _alias_bound(values: np.ndarray, counts: np.ndarray, qs: np.ndarray, half: int) -> float:
    """Conservative bound on the mass at |S| >= half.

    For each dyadic cut the atoms split into near (value <= cut) and far.
    Two estimates are combined:
      * union bound on any far atom firing, plus a Bernstein tail at half
        for the near sum (a refinement of the bounded-summand Hoeffding
        tail, which is too loose when the firing probability is tiny);
      * an expansion over the number m of far atoms that fire:
        P(m >= j) <= union^j / j! for independent indicators, each firing
        shifts the sum by at most max(values), and the near remainder is
        Bernstein-bounded at half - j*max(values).  This wins when every
        individual atom is small compared to half but the far union is
        not negligible.

    |S| never exceeds sum count * value, so when half exceeds that sum the
    grid holds the whole support and the bound is 0.
    """
    if half > int((counts * values).sum()):
        return 0.0
    best = 1.0
    top = int(values.max()) if values.size else 8
    cuts = [1 << b for b in range(3, max(4, top.bit_length() + 1))]
    for cut in cuts:
        far = values > cut
        union = float((counts[far] * qs[far]).sum())
        v2 = float((counts[~far] * qs[~far] * values[~far] ** 2).sum())

        def bern(t: float) -> float:
            if t <= 0:
                return 1.0
            if v2 <= 0:
                return 0.0
            return 2.0 * math.exp(-(t * t) / (2.0 * v2 + (2.0 / 3.0) * cut * t))

        best = min(best, union + bern(float(half)))
        expansion = 0.0
        weight = 1.0  # union^j / j!
        for j in range(5):
            expansion += weight * bern(float(half - j * top))
            weight *= union / (j + 1)
        best = min(best, expansion + weight)
    return best


@dataclass
class GroupedLaw:
    """All (|coefficient|, multiplicity, q) triples of a walk at horizon n,
    with the scale ``ks`` each group belongs to."""

    values: np.ndarray
    counts: np.ndarray
    qs: np.ndarray
    ks: np.ndarray

    def variance(self) -> float:
        return float((self.counts * self.qs * self.values.astype(np.float64) ** 2).sum())


def grouped_law(k_min: int, k_max: int, n: int) -> GroupedLaw:
    ks = range(k_min, k_max + 1)
    vals, cnts = zip(*(scale_groups(k, n) for k in ks))
    qs = [np.full(v.size, scale_params(k).q) for k, v in zip(ks, vals)]
    return GroupedLaw(values=np.concatenate(vals), counts=np.concatenate(cnts),
                      qs=np.concatenate(qs),
                      ks=np.repeat(np.array(ks), [v.size for v in vals]))


def _log_series(q: float, atoms: float) -> np.ndarray:
    """Cosine coefficients b_0..b_M of the truncated series
    log(1 - q + q cos x) ~ -sum_j b_j cos(j x).

    With y = q (1 - cos x) in [0, 2q], log(1 - y) = -sum_m y^m / m, and
    (1 - cos x)^m = 2^-m (C(2m, m) + 2 sum_{j=1..m} (-1)^j C(2m, m-j) cos jx).
    Cutting after order M leaves at most (2q)^(M+1) / ((M+1)(1 - 2q)) per
    atom; M is the first order at which ``atoms`` atoms leave less than
    SERIES_TOL in total.
    """
    M = 1
    while atoms * (2 * q) ** (M + 1) / ((M + 1) * (1 - 2 * q)) >= SERIES_TOL:
        M += 1
    b = np.zeros(M + 1)
    for m in range(1, M + 1):
        w = (q / 2) ** m / m
        b[0] += w * math.comb(2 * m, m)
        for j in range(1, m + 1):
            b[j] += 2 * w * (-1) ** j * math.comb(2 * m, m - j)
    return b


def _log_cf(law: GroupedLaw, grid: int) -> np.ndarray:
    """log phi(theta_t) at theta_t = 2 pi t / grid, t = 0..grid // 2.

    Per scale, log phi_k = sum_v c_v log(1 - q + q cos v theta). A scale
    with more distinct values than its log series has terms takes one real
    FFT of its count histogram laid at v mod grid,
    C_k(s) = sum_v c_v cos(2 pi v s / grid), and sums the series as
    -sum_j b_j C_k(j t mod grid); the others take the product directly.
    """
    half = grid // 2
    t = np.arange(half + 1)
    theta = 2.0 * np.pi * t / grid
    logphi = np.zeros(half + 1)
    # sorted(set()) rather than np.unique, which imports numpy.ma
    for k in sorted(set(law.ks.tolist())):
        at = law.ks == k
        values, counts, q = law.values[at], law.counts[at], float(law.qs[at][0])
        if not 2 * q < 1:
            raise ValueError(f"scale {k}: the log series needs 2q < 1, got q = {q}")
        b = _log_series(q, float(counts.sum()))
        if values.size <= b.size:
            # log1p keeps the rounding relative to q (1 - cos) <= 2q < 1
            for v, c in zip(values.tolist(), counts.tolist()):
                logphi += c * np.log1p(-q * (1.0 - np.cos(v * theta)))
            continue
        hist = np.bincount(values % grid, weights=counts, minlength=grid)
        C = np.fft.rfft(hist).real  # even in s, so C(s) = C(grid - s)
        for j, bj in enumerate(b.tolist()):
            s = j * t % grid
            logphi -= bj * C[np.minimum(s, grid - s)]
    return logphi


def _pmf_from_groups(law: GroupedLaw, grid: Optional[int] = None) -> Tuple[IntegerPmf, float]:
    """Invert the product characteristic function on a Fourier grid.

    Returns (pmf, alias_bound). The characteristic function of the symmetric
    law is real: phi(theta) = prod (1 - q + q cos(v theta))^count.
    """
    std = math.sqrt(max(law.variance(), 1.0))
    if grid is None:
        exact_width = int(2 * (law.counts * law.values).sum()) + 1
        grid = _next_pow2(min(exact_width + 8, max(4096, int(32 * std))))
        grid = max(grid, 64)
        # widen until the wrap-around (aliasing) bound is negligible, so the
        # computed mass is a probability to well under 1e-9
        cap = min(_next_pow2(exact_width + 8), 1 << 21)
        while grid < cap and _alias_bound(law.values, law.counts, law.qs,
                                          grid // 2) > ALIAS_TOL:
            grid *= 2
    half = grid // 2
    phi = np.exp(_log_cf(law, grid))
    dense = np.fft.irfft(phi, n=grid)
    # irfft output index t corresponds to S = t mod grid; recenter on [-half, half)
    mass = np.concatenate([dense[half:], dense[:half]])
    mass = np.maximum(mass, 0.0)
    # the law is exactly symmetric; average out FFT rounding so p(j) = p(-j)
    # holds bit-for-bit. The unpaired grid endpoint -half has no mirror at
    # +half, so its (aliasing-range) mass goes to the pruned ledger instead.
    mass[1:] = 0.5 * (mass[1:] + mass[1:][::-1])
    dropped = float(mass[0])
    mass[0] = 0.0
    pmf = IntegerPmf(offset=-half, mass=mass, pruned=dropped).prune()
    return pmf, _alias_bound(law.values, law.counts, law.qs, half)


@dataclass
class WalkLawReport:
    n: int
    k_min: int
    k_max: int
    alias_bound: float
    tail_variance: float


def walk_pmf(spec: FieldSpec, n: int,
             grid: Optional[int] = None) -> Tuple[IntegerPmf, WalkLawReport]:
    """Exact law of one coordinate of S_n under a 1-D ``spec``; returns
    (pmf, report). The coordinates of a 2-D walk are independent copies of
    this law.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if spec.dimension != 1:
        raise ValueError("walk_pmf takes a 1-D spec: the coordinates of a "
                         "2-D walk are independent copies of its law")
    if spec.zero or n == 0:
        base, alias = point_mass(0), 0.0
    else:
        law = grouped_law(spec.k_min, spec.k_max, n)
        base, alias = _pmf_from_groups(law, grid=grid)
    # tail_variance_bound(0, k) is 0.0, so only the zero spec needs a case
    tail = 0.0 if spec.zero else tail_variance_bound(n, spec.k_max)
    report = WalkLawReport(n=n, k_min=spec.k_min, k_max=spec.k_max,
                           alias_bound=alias, tail_variance=tail)
    if spec.doubling:
        base = base.stretch(2)
    return base, report


# ---------------------------------------------------------------------------
# fast sweep of the return probability p_n(0) over a whole range of n


def _overlap_counts(sp: ScaleParams, ns: np.ndarray) -> np.ndarray:
    """Group multiplicities of scale k at every n of the ascending ``ns``:
    counts[r, v] is the number of atoms of S_n, n = ns[r], whose
    coefficient has absolute value v, for v = 0..p (row r holds the groups
    of ``scale_groups(k, n)``; column 0 counts the zero coefficients up to
    the longest row). The coefficient rows, the lead window's trapezoid
    weight minus the same weight d_k later, are built for blocks of n at
    once, at most _SWEEP_ELEMS coefficients per block.
    """
    p, d = sp.p, sp.d
    width = d + int(ns[-1]) + p - 1
    m = np.arange(width, dtype=np.int64)
    counts = np.empty((ns.size, p + 1), dtype=np.int64)
    step = max(1, _SWEEP_ELEMS // width)
    for r0 in range(0, ns.size, step):
        n = ns[r0 : r0 + step, None].astype(np.int64)
        w = np.minimum(np.minimum(m + 1, n + p - 1 - m), np.minimum(n, p))
        np.maximum(w, 0, out=w)
        c = w.copy()
        c[:, d:] -= w[:, : width - d]
        # |c| <= p, so row r's values land in [r (p + 1), (r + 1) (p + 1))
        flat = np.abs(c) + (p + 1) * np.arange(n.shape[0])[:, None]
        counts[r0 : r0 + step] = np.bincount(
            flat.ravel(), minlength=n.shape[0] * (p + 1)).reshape(-1, p + 1)
    return counts


def peak_probability_sweep(n_max: int, k_max: int, k_min: int = 1,
                           grid: int = 4096) -> np.ndarray:
    """p_n(0) for n = 1..n_max in one pass (single coordinate, no doubling).

    Each scale gets one table T_k(s) = log1p(-q_k (1 - cos(2 pi s / grid)))
    over the residues s mod grid, so the term L_k(v) of value v at theta_t
    is the gather T_k(v t & (grid - 1)), with no transcendental call per
    (n, group). A split scale's groups are the heights 1..h, h = min(n, p),
    four times each, plus the plateau h twice |n - p| + 1 times
    (``scale_groups``), so its log characteristic function is
    4 A_k(h - 1) + 2 (|n - p| + 1) L_k(h), with A_k the running sum of L_k.

    The rows n go through in blocks, each at most _SWEEP_ELEMS grid values
    (which bounds the memory) and each inside one segment between
    consecutive p_k. In a segment the split scales with n <= p_k rise: their
    terms sum to 4 C(n) + 2 V(n t) - 2 n U(n t), with U = sum T_k and
    V = sum (p_k + 1) T_k over the rising scales and C(n) the running sum of
    U's gathers at 1..n - 1. C keeps each finished scale's A_k(p_k), so a
    plateaued scale adds only the affine term 2 (n - p_k - 1) L_k(p_k). A
    scale whose lag overlaps the lead window for some n <= n_max holds few
    groups (``_overlap_counts``), each of value v <= p_k. The block's group
    counts and plateau factors times the stacked rows L_k(v) and L_k(p_k)
    are one matmul. Every row thus costs two gathers, one cumulative sum
    and its share of one matmul, whatever the number of scales.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if not 1 <= k_min <= k_max:
        raise ValueError(f"need 1 <= k_min <= k_max, got k_min={k_min}, k_max={k_max}")
    if grid < 64 or grid & (grid - 1):
        raise ValueError(f"grid must be a power of two >= 64, got {grid}")
    half = grid // 2
    t = np.arange(half + 1, dtype=np.int64)
    weights = np.full(half + 1, 2.0 / grid)
    weights[0] = 1.0 / grid
    weights[-1] = 1.0 / grid

    def at(v: np.ndarray) -> np.ndarray:
        """Table index of each (v, t): v t mod grid, shape (v, t)."""
        s = np.multiply.outer(v, t)
        s &= grid - 1
        return s

    split, terms, counts = [], [], []
    for k in range(k_min, k_max + 1):
        sp = scale_params(k)
        folded = np.log1p(-sp.q * (1.0 - np.cos(2.0 * np.pi * t / grid)))
        table = np.concatenate([folded, folded[-2:0:-1]])  # T(s) = T(grid - s)
        # overlapping for some n <= n_max iff d < n_max + p
        if sp.d < n_max + sp.p:
            # |coefficients| <= min(n, p); the windows meet from n = d - p + 1
            # (scale_groups' closed form before), and stop changing from d + p - 1
            v, n = np.arange(1, sp.p + 1), np.arange(1, sp.d - sp.p + 1)[:, None]
            terms.append(table[at(v)])
            apart = np.where(v == np.minimum(n, sp.p), 2 * abs(n - sp.p) + 2, 4 * (v < n))
            meet = np.arange(max(1, sp.d - sp.p + 1), min(n_max, sp.d + sp.p - 1) + 1)
            counts.append(np.concatenate([apart, _overlap_counts(sp, meet)[:, 1:]]) * 1.0)
        else:
            split.append((sp.p, table))
            terms.append(table[at(np.array([sp.p]))])  # L_k(p_k)
    terms = np.concatenate(terms)

    rows = max(1, _SWEEP_ELEMS // (half + 1))
    starts = set(range(1, n_max + 1, rows)) | {p + 1 for p, _ in split if p < n_max}
    bounds = sorted(starts) + [n_max + 1]
    carry = np.zeros(half + 1)  # 4 C(n) at the block's first n
    out = np.empty(n_max)
    for n0, n1 in zip(bounds, bounds[1:]):
        ns = np.arange(n0, n1)
        # the rising scales' 4 U and 2 V: the factors ride in the tables
        rising = [(p, table) for p, table in split if p >= n0]
        four_u = sum((4.0 * table for _, table in rising), np.zeros(grid))
        two_v = sum((2.0 * (p + 1) * table for p, table in rising), np.zeros(grid))
        idx = at(ns)
        running = np.empty((ns.size + 1, half + 1))  # running[i] = 4 C(n0 + i)
        running[0] = carry
        # "clip" lets take write to ``out`` unbuffered; every index is in range
        np.take(four_u, idx, out=running[1:], mode="clip")
        # each row's multiplicity of every row of ``terms``
        over = [c[np.minimum(ns, len(c)) - 1] for c in counts]
        plateau = [2.0 * np.maximum(ns - p - 1, 0)[:, None] for p, _ in split]
        logphi = np.concatenate(over + plateau, axis=1) @ terms
        logphi += two_v[idx]
        logphi -= (0.5 * ns)[:, None] * running[1:]
        # row by row: np.cumsum along axis 0 is about three times slower
        for i in range(ns.size):
            np.add(running[i], running[i + 1], out=running[i + 1])
        logphi += running[:-1]
        carry = running[-1].copy()
        # numpy's pairwise row sums are closer to the exact sum than BLAS's
        # matrix-vector product, and unlike it do not depend on the
        # block's height
        np.exp(logphi, out=logphi)
        logphi *= weights
        out[ns - 1] = logphi.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# LCLT metrics


@dataclass
class LcltReport:
    n: int
    deviation: float
    peak: float
    scaling: float
    mass: float
    asymmetry: float


def lclt_deviation(pmf: IntegerPmf, n: int) -> LcltReport:
    """Sup over the stored support of sqrt(n) * |p_n(j) - gaussian(j)|."""
    scaling = math.sqrt(n) if n > 0 else 1.0
    js = pmf.support.astype(np.float64)
    denom = max(n, 1)
    gauss = np.exp(-(js**2) / (2 * denom * SIGMA2)) / math.sqrt(2 * math.pi * denom * SIGMA2)
    dev = float(np.abs(pmf.mass - gauss).max() * scaling)
    peak = scaling * pmf.prob(0)
    return LcltReport(n=n, deviation=dev, peak=peak,
                      scaling=scaling, mass=pmf.total(), asymmetry=pmf.max_asymmetry())
