"""Stationary Gaussian processes with prescribed covariance decay and the
projection-twisted companion process.

A spectral model is a probability measure on the circle known through its
covariance sequence r(n); the lab ships a polynomially-decaying family with
density proportional to |t|^(delta-1) (the decay mechanism only needs
|r(n)| <= C n^-delta, so an absolutely continuous stand-in suffices — no
singularity or zero-entropy claim is modeled) and a white-noise control.
The twisted process is the closed form Y_n = 2 r(n) X_0 - X_n, which keeps
the marginal law of the path while anti-correlating the non-projected part.

The power family's r(n) comes from one fixed composite Gauss-Legendre rule
shared by every lag (``_power_cov``): with s = n t, r(n) is n^-delta times
a partial integral of s^(delta-1) cos s up to n pi, so one cumulative sum
over half-period panels gives every lag up to the largest L at a cost
linear in L. On [0, pi] the rule works in the variable u = s^delta, which
removes the density's endpoint singularity. Its error is estimated by a
second node count and must stay below 1e-10, or the fit raises
RuntimeError; it matches adaptive quadrature to 1e-13 up to lag 4096.

The Hurwitz zeta is a plain-Python port of cephes' zeta, with its
coefficients and order of operations, so it equals ``scipy.special.zeta``
bit for bit; the normal tail (``upper_tail``) is ``math.erfc``, which only
feeds the triple envelopes' 4-SE comparison. Nothing here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from . import PreconditionError
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

_TAG_TRIPLE = 71  # keyed stream of triple_probability's draws

# cephes' Euler-Maclaurin coefficients (2j)! / B_2j and stopping tolerance
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


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

    ``table`` holds r(0), r(1), ... as computed when the model was fitted;
    a lag beyond it is computed from the family on each call, and
    ``r_vector`` computes all the lags it is missing in one call.
    """

    family: str
    delta: float
    C: float
    params: Tuple[Tuple[str, float], ...] = ()
    table: Tuple[float, ...] = field(default=(), repr=False, compare=False)

    def r(self, n: int) -> float:
        n = abs(int(n))
        if n < len(self.table):
            return self.table[n]
        return float(self._beyond_table(np.array([n]))[0])

    def r_vector(self, N: int) -> np.ndarray:
        head = np.array(self.table[: N + 1], dtype=np.float64)
        if head.size == N + 1:
            return head
        return np.concatenate([head, self._beyond_table(np.arange(head.size, N + 1))])

    def _beyond_table(self, lags: np.ndarray) -> np.ndarray:
        out = (lags == 0).astype(np.float64)
        if self.family == "power":
            out[lags > 0] = _power_cov(self.delta, lags[lags > 0])
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
    return SpectralModel(family="power", delta=delta, C=C,
                         params=(("slope", slope), ("probe", float(FIT_LAGS))),
                         table=(1.0, *rs.tolist()))


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


def sample_paths(model: SpectralModel, N: int, size: int, seed: int) -> np.ndarray:
    """``size`` independent stationary paths X_0..X_N, shape (size, N+1).

    Circulant embedding, exact when the embedding is nonnegative definite;
    an embedding with an eigenvalue below -PSD_TOL raises PsdError. The
    embedding's complex draws are scaled and transformed in blocks of at
    most _FFT_BLOCK values, whole rows each, and only the first N+1 real
    columns are kept. The real parts (size x M) are drawn whole; each
    block's imaginary parts are drawn with it, from the same stream, so the
    draws are the same as if the imaginary parts were drawn whole too.
    """
    rng = np.random.default_rng(seed)
    eigs = _circulant_eigs(model.r_vector(N))
    M = len(eigs)
    coef = np.sqrt(eigs / M)
    a = rng.standard_normal((size, M))
    out = np.empty((size, N + 1))
    rows = max(1, _FFT_BLOCK // M)
    for start in range(0, size, rows):
        real = a[start : start + rows]
        z = coef * (real + 1j * rng.standard_normal(real.shape))
        out[start : start + rows] = np.fft.fft(z, axis=1).real[:, : N + 1]
    return out


def twisted_values(model: SpectralModel, paths: np.ndarray) -> np.ndarray:
    """Y_n = 2 r(n) X_0 - X_n applied along the last axis."""
    N = paths.shape[-1] - 1
    r = model.r_vector(N)
    return 2.0 * r * paths[..., :1] - paths


# ---------------------------------------------------------------------------
# triple probability and summability


def upper_tail(x: float) -> float:
    """Standard normal upper tail P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


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


def triple_probability(model: SpectralModel, n: int, samples: int,
                       seed: int = 0) -> TripleEstimate:
    """Monte Carlo estimate of P(X_0 > 1, X_n > 1, Y_n > 1).

    Only the pair (X_0, X_n) is needed: Y_n = 2 r(n) X_0 - X_n is a
    deterministic function of it. Both analytic envelopes from the decay
    argument are attached.
    """
    if n < 0 or samples < 1:
        raise ValueError("need n >= 0 and samples >= 1")
    rn = model.r(n)
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


def hurwitz_zeta(s: float, q: float) -> float:
    """sum_{n >= 0} (n + q)^-s for s > 1, q > 0, by cephes' operations in
    its order, so that it equals ``scipy.special.zeta`` bit for bit: past
    q = 1e8 two asymptotic terms; below, direct terms until the base
    exceeds 9 (at least nine), then up to twelve Euler-Maclaurin terms."""
    if not (s > 1.0 and q > 0):
        raise ValueError(f"hurwitz_zeta needs s > 1 and q > 0, got {s}, {q}")
    q = float(q)
    if q > 1e8:
        return (1 / (s - 1) + 1 / (2 * q)) * q ** (1 - s)
    total, a, b, i = q**-s, q, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-s
        total += b
        if abs(b / total) < _MACHEP:
            return total
    total += b * a / (s - 1.0)
    total -= 0.5 * b
    f = 1.0  # s (s + 1) ... (s + 2k), over the Euler-Maclaurin terms
    for k, coefficient in enumerate(_ZETA_A):
        f *= s + 2 * k
        b /= a
        t = f * b / coefficient
        total += t
        if abs(t / total) < _MACHEP:
            break
        f *= s + 2 * k + 1
        b /= a
    return total


def power_summability(estimates: Sequence[float], k: int, delta: float,
                      C: float, H: int) -> SummabilityReport:
    """Sum of k-th powers of the estimates plus the analytic C^2k n^-2k*delta
    tail beyond H; requires the summability hypothesis 2 k delta > 1."""
    if 2 * k * delta <= 1.0:
        raise ValueError(f"need 2 k delta > 1, got {2 * k * delta}")
    if len(estimates) > H:
        raise ValueError("more estimates than the stated horizon")
    head = float(np.sum(np.asarray(estimates, dtype=np.float64) ** k))
    s = 2.0 * k * delta
    # zeta(s, H+1) = sum_{n > H} n^-s
    tail = C ** (2 * k) * hurwitz_zeta(s, H + 1)
    return SummabilityReport(k=k, delta=delta, C=C, H=H, head=head, tail=tail)

