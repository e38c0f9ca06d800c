"""Stationary Gaussian processes with prescribed covariance decay and the
projection-twisted companion process.

A spectral model is a probability measure on the circle known through its
covariance sequence r(n); the lab ships a polynomially-decaying family with
density proportional to |t|^(delta-1) (the decay mechanism only needs
|r(n)| <= C n^-delta, so an absolutely continuous stand-in suffices — no
singularity or zero-entropy claim is modeled) and a white-noise control.
The twisted process is the closed form Y_n = 2 r(n) X_0 - X_n, which keeps
the marginal law of the path while anti-correlating the non-projected part.
A model holds only its family, delta and C: ``r_vector(N)`` computes
r(0..N) on each call, and the sampler, the conditioning and the twist take
that array, so a run computes its covariance once.

The power family's r(n) comes from one fixed composite Gauss-Legendre rule
shared by every lag (``_power_cov``): with s = n t, r(n) is n^-delta times
a partial integral of s^(delta-1) cos s up to n pi, so one cumulative sum
over half-period panels gives every lag up to the largest L at a cost
linear in L. On [0, pi] the rule works in the variable u = s^delta, which
removes the density's endpoint singularity. Its error is estimated by a
second node count and must stay below 1e-10, or the fit raises
RuntimeError; it matches adaptive quadrature to 1e-13 up to lag 4096.

The triple probability P(X_0 > 1, X_n > 1, Y_n > 1) is exact up to a
second fixed Gauss-Legendre rule, vectorized over every lag
(``triple_probabilities``): for 0 < r(n) < 1 the event is an
equal-threshold bivariate-normal orthant, which Owen's T writes as one
integral in np.exp alone. Its error is estimated by a second node count
and must stay below 1e-10 relative, or it raises RuntimeError. Paths
conditioned on X_0 > 1 (``conditioned_paths``) shift unconditioned
circulant paths by their regression on X_0, so none is thrown away.

The normal tail (``upper_tail``) is ``math.erfc``, which feeds only the
exact-vs-envelope check (``triple_envelope``). Nothing here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import PreconditionError, power_tail
from .prf import derive_rng

PSD_TOL = 1e-8

# the power-model covariance rule (see _power_cov): Gauss-Legendre node
# counts per panel, the coarser one giving the error estimate; the geometric
# split of the first panel; values per block of the (panels x nodes) cosine
# matrix (4 MiB, 32768 half periods of the 16-node rule); the error gate
_GL_NODES = (12, 16)
_GRADE_RATIO = 0.2
_GRADE_LEVELS = 20
_COS_BLOCK = 1 << 19
_RULE_TOL = 1e-10

# complex values per block of the circulant sampler's scaled draws (1 MiB)
_FFT_BLOCK = 1 << 16

_TAG_X0 = 72  # keyed stream of conditioned_paths' X_0 draws

# the triple rule (see _triple_integral): nodes per panel of the coarser and
# the finer rule, and their equal panels; the range ends where the exponent
# reaches -40; below r = 1/40 the probability rounds to 0; values per block
# of the (r x nodes) array (2 MiB)
_TRIPLE_NODES = (8, 12)
_TRIPLE_PANELS = 16
_TRIPLE_DECAY = 40.0
_TRIPLE_R_MIN = 1.0 / 40.0
_TRIPLE_BLOCK = 1 << 18

# (correlation, pair) comparisons per block of triple_hit_counts
_MC_BLOCK = 1 << 18

class PsdError(ValueError):
    """The circulant embedding of r(0..N) has an eigenvalue below -PSD_TOL;
    carries that smallest eigenvalue and N."""

    def __init__(self, min_eigenvalue: float, N: int):
        self.min_eigenvalue = min_eigenvalue
        self.N = N
        super().__init__(f"min eigenvalue {min_eigenvalue:.3e} at N={N}")


def _power_rule(delta: float, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w with r(1) ~ sum w cos(t), one row per piece of
    [0, pi], shape (_GRADE_LEVELS + 1, nodes).

    r(1) is the cosine transform of the normalized density
    (delta / pi^delta) t^(delta-1) on [0, pi]. The interval, split
    geometrically toward 0, is mapped to u = t^delta, where the density is
    constant and the integrand cos(u^(1/delta)) is bounded; each piece
    carries ``nodes`` Gauss-Legendre nodes. The weights sum to 1, so
    r(0) = 1 up to rounding.
    """
    graded = math.pi * _GRADE_RATIO ** np.arange(_GRADE_LEVELS, -1, -1)
    u = np.concatenate([[0.0], graded]) ** delta
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = np.diff(u)[:, None] / 2.0
    un = u[:-1, None] + half * (x + 1.0)
    return un ** (1.0 / delta), half * (w / math.pi**delta)


def _panel_integrals(delta: float, nodes: int, L: int) -> np.ndarray:
    """(delta / pi^delta) times the integral of s^(delta-1) cos s over each
    of the consecutive panels that cover [0, L pi], ``nodes``
    Gauss-Legendre nodes each: the _GRADE_LEVELS + 1 pieces of [0, pi] from
    _power_rule, then one panel per half period [(j-1) pi, j pi],
    j = 2..L, in blocks of at most _COS_BLOCK values.
    """
    out = np.empty(_GRADE_LEVELS + L)
    t, tw = _power_rule(delta, nodes)
    out[: _GRADE_LEVELS + 1] = (np.cos(t) * tw).sum(axis=1)
    x, w = np.polynomial.legendre.leggauss(nodes)
    offsets = (x + 1.0) * (math.pi / 2.0)
    # delta / pi^delta times the panel's half length pi / 2
    w = w * (delta * math.pi ** (1.0 - delta) / 2.0)
    rows = max(1, _COS_BLOCK // nodes)
    for start in range(1, L, rows):
        stop = min(start + rows, L)
        s = np.arange(start, stop)[:, None] * math.pi + offsets
        c = np.cos(s)
        c *= s ** (delta - 1.0)
        c *= w
        # numpy's row sums, unlike a BLAS product, do not depend on the
        # block's shape, so a panel's value does not depend on its block
        out[_GRADE_LEVELS + start : _GRADE_LEVELS + stop] = c.sum(axis=1)
    return out


def _power_cov(delta: float, lags: np.ndarray) -> np.ndarray:
    """r(n) of the |t|^(delta-1) density at every lag n >= 1 of ``lags``.

    With s = n t, r(n) = n^-delta G(n), where G(n) is (delta / pi^delta)
    times the integral of s^(delta-1) cos s over [0, n pi]. One cumulative
    sum of _panel_integrals up to the largest lag L gives G at every lag,
    at a cost of (L + _GRADE_LEVELS) cosines per node of each rule. A
    panel's integral does not depend on L, so r(n) is the same whichever
    other lags are asked for. Both node counts of _GL_NODES are applied;
    their largest difference estimates the error of the coarser rule and
    must stay below _RULE_TOL. The finer rule's value is returned.

    |r(n)| <= r(1) n^-delta at every n >= 1 (up to the rule's error): with
    w(s) = s^(delta-1), pairing j pi + u with j pi + pi - u, u < pi/2, makes
    G's piece I_j over [j pi, (j + 1) pi] (-1)^j times the integral of
    cos u (w(j pi + u) - w(j pi + pi - u)). As w is convex and decreasing,
    that factor is positive and falls with j, so the I_j alternate from
    I_1 < 0 on and shrink: G(2) <= G(n) <= G(1), and G(2) > 0 as I_0 > -I_1.
    """
    lags = np.asarray(lags, dtype=np.int64)
    if lags.size == 0:
        return lags.astype(np.float64)
    L = int(lags.max())
    G = np.cumsum([_panel_integrals(delta, m, L) for m in _GL_NODES], axis=1)
    out = G[:, _GRADE_LEVELS + lags - 1] * lags ** -delta
    err = np.abs(out[0] - out[1])
    if err.max() > _RULE_TOL:
        i = int(np.argmax(err))
        raise RuntimeError(f"quadrature error {err[i]:.2e} too large at n={int(lags[i])}")
    return out[1]


@dataclass(frozen=True)
class SpectralModel:
    """Covariance sequence r with r(0) = 1 and |r(n)| <= C n^-delta.

    ``r_vector(N)`` computes r(0..N) from the family on each call, and
    ``r(n)`` reads the last entry of ``r_vector(|n|)``; a lag's value does
    not depend on which other lags are computed with it.
    """

    family: str
    delta: float
    C: float

    def r(self, n: int) -> float:
        return float(self.r_vector(abs(int(n)))[-1])

    def r_vector(self, N: int) -> np.ndarray:
        out = np.zeros(N + 1)
        out[0] = 1.0
        if self.family == "power":
            out[1:] = _power_cov(self.delta, np.arange(1, N + 1))
        elif self.family != "white":
            raise ValueError(f"unknown family {self.family!r}")
        return out


# lags 1..FIT_LAGS on which power_density_model fits C and the decay slope
FIT_LAGS = 512


def power_density_model(delta: float) -> SpectralModel:
    """Model with spectral density proportional to |t|^(delta-1).

    C is fitted as the smallest constant with |r(n)| <= C n^-delta on the
    probed range, and the fitted log-log decay slope is required to sit
    within 0.1 of -delta.
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    ns = np.arange(1, FIT_LAGS + 1)
    rs = _power_cov(delta, ns)
    C = float(np.max(np.abs(rs) * ns**delta))
    # the slope is fitted from lag 16 on
    slope = float(np.polyfit(np.log(ns[15:]), np.log(np.abs(rs[15:])), 1)[0])
    if abs(slope + delta) > 0.1:
        raise RuntimeError(f"fitted decay slope {slope:.3f} far from -{delta}")
    return SpectralModel(family="power", delta=delta, C=C)


def white_noise_model() -> SpectralModel:
    return SpectralModel(family="white", delta=1.0, C=0.0)


# ---------------------------------------------------------------------------
# sampling


def _circulant_eigs(r: np.ndarray) -> np.ndarray:
    """Eigenvalues of the minimal circulant embedding of r(0..N), clipped
    at 0; raises PsdError when one is below -PSD_TOL."""
    circ = np.concatenate([r, r[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    if eigs.min() < -PSD_TOL:
        raise PsdError(float(eigs.min()), len(r) - 1)
    return np.clip(eigs, 0.0, None)


def sample_paths(r: np.ndarray, size: int, seed: int) -> np.ndarray:
    """``size`` independent stationary paths X_0..X_N with covariance
    r = r(0..N), N = len(r) - 1, shape (size, N+1).

    Circulant embedding, exact when the embedding is nonnegative definite;
    an embedding with an eigenvalue below -PSD_TOL raises PsdError. The
    embedding's complex draws are scaled and transformed in blocks of at
    most _FFT_BLOCK values, whole rows each, and only the first N+1 real
    columns are kept. The real parts (size x M) are drawn whole; each
    block's imaginary parts are drawn with it, from the same stream, so the
    draws are the same as if the imaginary parts were drawn whole too.
    """
    rng = np.random.default_rng(seed)
    eigs = _circulant_eigs(r)
    M = len(eigs)
    coef = np.sqrt(eigs / M)
    a = rng.standard_normal((size, M))
    out = np.empty((size, len(r)))
    rows = max(1, _FFT_BLOCK // M)
    for start in range(0, size, rows):
        real = a[start : start + rows]
        z = coef * (real + 1j * rng.standard_normal(real.shape))
        out[start : start + rows] = np.fft.fft(z, axis=1).real[:, : len(r)]
    return out


def conditioned_paths(r: np.ndarray, size: int, seed: int) -> np.ndarray:
    """``size`` independent paths X_0..X_N with covariance r = r(0..N)
    conditioned on X_0 > 1, shape (size, N+1).

    X_0 is drawn from N(0, 1) given X_0 > 1 by rejection, from the keyed
    stream derive_rng(seed, _TAG_X0). Each row then takes one unconditioned
    path Z of sample_paths(r, size, seed) and sets
    X_n = Z_n - r(n) Z_0 + r(n) X_0. Since r(0) = 1, Z_n - r(n) Z_0 is
    independent of Z_0 and has the law of X_n - r(n) X_0 given X_0, so the
    rows are exact draws of the conditioned process.
    """
    rng = derive_rng(seed, _TAG_X0)
    x0 = np.empty(0)
    while x0.size < size:
        # P(Z > 1) = 0.159, so eight draws per missing value rarely fall short
        z = rng.standard_normal(8 * (size - x0.size))
        x0 = np.concatenate([x0, z[z > 1.0]])
    x0 = x0[:size]
    paths = sample_paths(r, size, seed)
    paths += r * (x0[:, None] - paths[:, :1])
    paths[:, 0] = x0  # exactly, not Z_0 + (X_0 - Z_0) rounded
    return paths


def twisted_values(r: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """Y_n = 2 r(n) X_0 - X_n applied along the last axis, whose length is
    that of r = r(0..N)."""
    return 2.0 * r * paths[..., :1] - paths


# ---------------------------------------------------------------------------
# triple probability and summability


def upper_tail(x: float) -> float:
    """Standard normal upper tail P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def triple_envelope(r: float) -> float:
    """The smaller of the decay argument's two bounds on the triple
    probability at correlation r: P(Z > 1/r), since the event needs
    X_0 > 1/r (0 when r <= 0), and r^2."""
    tail = upper_tail(1.0 / r) if r > 0 else 0.0
    return min(tail, r * r)


def _triple_integral(r: np.ndarray, nodes: int) -> np.ndarray:
    """I(r) = pi e^(1/(2 r^2)) P(X_0 > 1, X_n > 1, Y_n > 1) for each r of
    ``r`` in [_TRIPLE_R_MIN, 1), by one composite Gauss-Legendre rule with
    ``nodes`` nodes on each of _TRIPLE_PANELS equal panels, in blocks of at
    most _TRIPLE_BLOCK values.

    I is the integral over t >= 0 of e^(-a t - t^2/2) / (1 + (a + t)^2),
    a = sqrt(1 - r^2) / r, taken up to T = sqrt(a^2 + 2 D) - a, where the
    exponent reaches -D, D = _TRIPLE_DECAY. The exponent is convex with
    slope b = a + T at T, so the rest is at most e^-D / (b (1 + b^2)), and
    I is at least (1 - e^-D) / (b (1 + b^2)): the cut is below 5e-18 of I.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    unit = ((np.arange(_TRIPLE_PANELS)[:, None] + (x + 1.0) / 2.0) / _TRIPLE_PANELS).ravel()
    unit_w = np.tile(w / (2.0 * _TRIPLE_PANELS), _TRIPLE_PANELS)
    out = np.empty(r.size)
    rows = max(1, _TRIPLE_BLOCK // unit.size)
    for start in range(0, r.size, rows):
        rb = r[start : start + rows, None]
        a = np.sqrt(1.0 - rb * rb) / rb
        T = np.sqrt(a * a + 2.0 * _TRIPLE_DECAY) - a
        t = T * unit
        f = np.exp(-a * t - 0.5 * t * t) / (1.0 + (a + t) ** 2)
        f *= T * unit_w
        # numpy's row sums keep each r's value independent of its block
        out[start : start + rows] = f.sum(axis=1)
    return out


def triple_probabilities(r: np.ndarray) -> np.ndarray:
    """P(X_0 > 1, X_n > 1, Y_n > 1) at each correlation r = r(n) of ``r``.

    X_n = r X_0 + s Z and Y_n = 2 r X_0 - X_n = r X_0 - s Z, s = sqrt(1 - r^2),
    Z standard normal, are standard normals with correlation 2 r^2 - 1 that
    both exceed 1 only if r X_0 = (X_n + Y_n)/2 > 1. So P = 0 for r <= 0;
    for 0 < r < 1 that forces X_0 > 1, so P is the orthant
    P(X_n > 1, Y_n > 1) = P(Z > 1) - 2 T(1, a), a = s / r, with Owen's T
    (D. B. Owen, Ann. Math. Statist. 27, 1956): the integral over x > a of
    e^(-(1 + x^2)/2) / (1 + x^2) / pi. As 1 + a^2 = 1/r^2, x = a + t gives
    P = e^(-1/(2 r^2)) I(r) / pi with I from _triple_integral. Below
    r = _TRIPLE_R_MIN, P < P(Z > 40) < 1e-349 rounds to 0. Both node counts
    of _TRIPLE_NODES are applied; the relative difference of their I
    estimates the error of the coarser rule and must stay below _RULE_TOL,
    or RuntimeError is raised. The finer rule's value is returned. No libm
    special function is called, so P does not depend on one's last bits.
    """
    r = np.asarray(r, dtype=np.float64)
    if (r >= 1.0).any():
        raise ValueError("the triple probability needs r(n) < 1")
    out = np.zeros(r.shape)
    on = r >= _TRIPLE_R_MIN
    rs = r[on]
    coarse, fine = (_triple_integral(rs, nodes) for nodes in _TRIPLE_NODES)
    err = np.abs(coarse - fine) / fine
    if err.size and err.max() > _RULE_TOL:
        i = int(np.argmax(err))
        raise RuntimeError(f"triple rule error {err[i]:.2e} too large at r={rs[i]!r}")
    out[on] = np.exp(-0.5 / (rs * rs)) / math.pi * fine
    return out


def triple_hit_counts(r: np.ndarray, draws: int, seed: int) -> np.ndarray:
    """Monte Carlo counts of the triple event at each correlation of ``r``,
    all from one stream of ``draws`` standard normal pairs (Z_0, Z_1).

    X_0 = Z_0 and X_n = r Z_0 + s Z_1, s = sqrt(1 - r^2), so the event is
    Z_0 > 1 and s |Z_1| < r Z_0 - 1. Only the pairs with Z_0 > 1 are kept,
    sorted by Z_0. A hit needs fl(r Z_0) > 1, so r > 0 and Z_0 > 1/r: each
    correlation tests, with the event's own expression, only the pairs from
    the cut (1 - 2^-40) / r on, which stays below 1/r after rounding. The
    correlations are taken in order of their cuts, in blocks of at most
    _MC_BLOCK (correlation, pair) comparisons from the block's lowest cut on.
    """
    z0, z1 = np.random.default_rng(seed).standard_normal((2, draws))
    above = z0 > 1.0
    order = np.argsort(z0[above], kind="stable")
    z0, z1 = z0[above][order], np.abs(z1[above])[order]
    r = np.asarray(r, dtype=np.float64)
    s = np.sqrt(1.0 - r * r)
    cut = np.full(r.size, np.inf)
    np.divide(1.0 - 2.0**-40, r, out=cut, where=r > 0)
    first = np.searchsorted(z0, cut)
    live = np.flatnonzero(first < z0.size)
    live = live[np.argsort(first[live], kind="stable")]
    counts = np.zeros(r.size, dtype=np.int64)
    start = 0
    while start < live.size:
        lo = first[live[start]]
        lags = live[start : start + max(1, _MC_BLOCK // (z0.size - lo))]
        counts[lags] = np.count_nonzero(
            s[lags, None] * z1[lo:] < r[lags, None] * z0[lo:] - 1.0, axis=1)
        start += lags.size
    return counts


@dataclass(frozen=True)
class SummabilityReport:
    k: int
    delta: float
    C: float
    H: int
    head: float
    tail: float

    @property
    def total(self) -> float:
        return self.head + self.tail


def power_summability(estimates: Sequence[float], k: int, delta: float,
                      C: float, H: int) -> SummabilityReport:
    """Sum of k-th powers of the estimates plus a bound on the
    C^2k n^-2k*delta tail beyond H (``power_tail``); requires the
    summability hypothesis 2 k delta > 1."""
    if 2 * k * delta <= 1.0:
        raise ValueError(f"need 2 k delta > 1, got {2 * k * delta}")
    if len(estimates) > H:
        raise ValueError("more estimates than the stated horizon")
    head = float(np.sum(np.asarray(estimates, dtype=np.float64) ** k))
    tail = C ** (2 * k) * power_tail(2.0 * k * delta, H)
    return SummabilityReport(k=k, delta=delta, C=C, H=H, head=head, tail=tail)

