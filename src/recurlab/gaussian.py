"""Stationary Gaussian processes with prescribed covariance decay and the
projection-twisted companion process.

A spectral model is a probability measure on the circle known through its
covariance sequence r(n); the lab ships a polynomially-decaying family with
density proportional to |t|^(delta-1) (the decay mechanism only needs
|r(n)| <= C n^-delta, so an absolutely continuous stand-in suffices — no
singularity or zero-entropy claim is modeled) and a white-noise control.
The twisted process is the closed form Y_n = 2 r(n) X_0 - X_n, which keeps
the marginal law of the path while anti-correlating the non-projected part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr, zeta

PSD_TOL = 1e-8
MAX_JITTER = 1e-8


class PsdError(ValueError):
    """Toeplitz section dipped below the PSD tolerance."""

    def __init__(self, min_eigenvalue: float, N: int):
        self.min_eigenvalue = min_eigenvalue
        self.N = N
        super().__init__(f"min eigenvalue {min_eigenvalue:.3e} at N={N}")


def _power_r(delta: float, n: int) -> float:
    """Covariance of the normalized |t|^(delta-1) density at lag n.

    The substitution u = t^delta removes the endpoint singularity, leaving a
    bounded oscillatory integrand for adaptive quadrature. scipy.integrate
    is imported here, not at module level, because importing it costs a
    third of a second that commands which never fit a power model need not
    pay.
    """
    from scipy.integrate import quad

    hi = math.pi**delta

    def integrand(u: float) -> float:
        return math.cos(n * u ** (1.0 / delta)) / delta

    val, err = quad(integrand, 0.0, hi, epsabs=1e-12, epsrel=1e-12, limit=2000)
    if err > 1e-10:
        raise RuntimeError(f"quadrature error {err:.2e} too large at n={n}")
    return 2.0 * val / (2.0 * hi / delta)


@dataclass(frozen=True)
class SpectralModel:
    """Covariance sequence r with r(0) = 1 and |r(n)| <= C n^-delta.

    ``table`` holds r(0), r(1), ... as computed when the model was fitted;
    a power-family lag beyond it is computed by quadrature on each call.
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
        if n == 0:
            return 1.0
        if self.family == "white":
            return 0.0
        if self.family == "power":
            return _power_r(self.delta, n)
        raise ValueError(f"unknown family {self.family!r}")

    def r_vector(self, N: int) -> np.ndarray:
        return np.array([self.r(n) for n in range(N + 1)])


def power_density_model(delta: float, probe: int = 512) -> SpectralModel:
    """Model with spectral density proportional to |t|^(delta-1).

    C is fitted as the smallest constant with |r(n)| <= C n^-delta on the
    probed range, and the fitted log-log decay slope is required to sit
    within 0.1 of -delta.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    ns = np.arange(1, probe + 1)
    rs = np.array([_power_r(delta, int(n)) for n in ns])
    C = float(np.max(np.abs(rs) * ns**delta))
    lo = min(16, probe)
    slope = float(np.polyfit(np.log(ns[lo - 1:]), np.log(np.abs(rs[lo - 1:])), 1)[0])
    if abs(slope + delta) > 0.1:
        raise RuntimeError(f"fitted decay slope {slope:.3f} far from -{delta}")
    return SpectralModel(family="power", delta=delta, C=C,
                         params=(("slope", slope), ("probe", float(probe))),
                         table=(1.0, *rs.tolist()))


def white_noise_model() -> SpectralModel:
    return SpectralModel(family="white", delta=1.0, C=0.0)


# ---------------------------------------------------------------------------
# sampling


def _circulant_eigs(r: np.ndarray) -> Optional[np.ndarray]:
    N = len(r) - 1
    if N == 0:
        return None
    circ = np.concatenate([r, r[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    if eigs.min() < -PSD_TOL:
        return None
    return np.clip(eigs, 0.0, None)


def _cholesky_with_jitter(r: np.ndarray) -> np.ndarray:
    # imported here, as in _power_r: only this fallback needs scipy.linalg
    from scipy.linalg import eigvalsh, toeplitz

    T = toeplitz(r)
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(T + jitter * np.eye(len(r)))
        except np.linalg.LinAlgError:
            jitter = 1e-12 if jitter == 0.0 else jitter * 10.0
            if jitter > MAX_JITTER:
                raise PsdError(float(eigvalsh(T, subset_by_index=(0, 0))[0]),
                               len(r) - 1)


def sample_paths(model: SpectralModel, N: int, size: int, seed: int) -> np.ndarray:
    """``size`` independent stationary paths X_0..X_N, shape (size, N+1).

    Circulant embedding when the embedding is nonnegative definite (exact),
    dense square-root factorization with escalating diagonal jitter
    otherwise.
    """
    rng = np.random.default_rng(seed)
    r = model.r_vector(N)
    eigs = _circulant_eigs(r)
    if eigs is not None:
        M = len(eigs)
        coef = np.sqrt(eigs / M)
        z = rng.standard_normal((size, M)) + 1j * rng.standard_normal((size, M))
        return np.fft.fft(coef * z, axis=1).real[:, : N + 1]
    L = _cholesky_with_jitter(r)
    return rng.standard_normal((size, N + 1)) @ L.T


def twisted_values(model: SpectralModel, paths: np.ndarray) -> np.ndarray:
    """Y_n = 2 r(n) X_0 - X_n applied along the last axis."""
    N = paths.shape[-1] - 1
    r = model.r_vector(N)
    return 2.0 * r * paths[..., :1] - paths


# ---------------------------------------------------------------------------
# triple probability and summability


def upper_tail(x: float) -> float:
    """Standard normal upper tail P(Z > x)."""
    return float(1.0 - ndtr(x))


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
    rng = np.random.default_rng((seed << 20) ^ n)
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
    tail = float(C ** (2 * k) * zeta(s, H + 1))
    return SummabilityReport(k=k, delta=delta, C=C, H=H, head=head, tail=tail)

