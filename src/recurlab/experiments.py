"""Theorem-level experiments.

Four orchestrations over the lower-level engines:

* the 1-D equal-times experiment: exact summable decay of the triple
  intersection plus a Borel-Cantelli surrogate extraction of a
  non-recurrent set from Monte Carlo samples;
* the polynomial-times structural experiment: conditioned samples whose
  shared fresh indices cover the horizon, checked against the pointwise
  complement contradiction;
* the Gaussian analogue with its summability report;
* the mixing probe: exact box probabilities along a dyadic grid and a
  cylinder correlation decomposition.

Emptiness for every n is not decidable numerically. Each report gives
exact summability inputs and (where available) checks the pointwise
identity that makes the emptiness structural; horizon surrogates may
overestimate the extracted sets, so the chosen cut-offs are exposed in the
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import zeta

from . import PreconditionError
from .bigsums import endpoint_batch_law
from .fields import FieldSpec, default_k_max, partial_sums_batch
from .gaussian import (
    SpectralModel,
    power_summability,
    sample_paths,
    triple_probability,
    twisted_values,
)
from .pmf import MASS_TOL, peak_probability_sweep, walk_pmf
from .prf import hash_words
from .ranges import PermutationView, PolynomialSpec
from .shiftspace import OmegaConfig

_TAG_EXP = 67


def _child_seed(seed0: int, *words: int) -> int:
    return int(hash_words(seed0, _TAG_EXP, *words))


# ---------------------------------------------------------------------------
# shared Borel-Cantelli surrogate extraction


@dataclass
class Extraction:
    """Horizon surrogate of the D/M/A extraction from sampled return sets.

    N is the smallest horizon beyond which some sample never jointly
    returns, D the samples achieving it, M the largest joint-return time
    inside D, and A the D-samples returning at M. Violations count pairs
    (sample in A, n) with a joint return at both n and n + M, which is what
    a triple A-return at n would require.

    Neither A nor the violations are measured: every sample in D has
    max R = N, so M = N, every D-sample returns at M (measure_A ==
    measure_D), and n + M > max R for every n >= 1 leaves ``violations`` 0
    by construction. The field stays because ``bench/run.py::check_recur2``
    reads it, until the extraction measures it.
    """

    H: int
    samples: int
    N: int
    M: int
    measure_D: float
    measure_A: float
    violations: int
    verdict: str


def _extract(return_sets: List[set], H: int) -> Extraction:
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


# ---------------------------------------------------------------------------
# equal-times experiment (1-D walk, three tensor factors)


@dataclass
class BCReport:
    H: int
    a_n: np.ndarray  # a_n = (p_n(0)/2)^3, exact, index n-1
    partial_sums: np.ndarray
    envelope_c: float  # fitted c with p_n(0) <= c / sqrt(n)
    tail: float  # analytic (c / (2 sqrt n))^3 remainder beyond H
    extraction: Extraction

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) + self.tail

    @property
    def verdict(self) -> str:
        return self.extraction.verdict


@dataclass
class TripleProbeReport:
    horizon: int
    samples: int
    in_surrogate: int
    violations: int
    identity_failures: int
    uncovered: Dict[int, int]  # n -> samples lacking a witness there

    @property
    def surrogate_measure(self) -> float:
        return self.in_surrogate / self.samples


def _omega_seed_with_origin_bit(seed0: int, tag: Sequence[int], dimension: int,
                                want: int) -> int:
    origin = 0 if dimension == 1 else (0,) * dimension
    attempt = 0
    while True:
        w = _child_seed(seed0, *tag, attempt)
        if OmegaConfig(seed=w, dimension=dimension).bit(origin) == want:
            return w
        attempt += 1


def exp_section2(spec: FieldSpec, H: int = 2000, samples: int = 1000,
                 seed0: int = 0) -> Tuple[BCReport, TripleProbeReport]:
    """Equal-times triple-intersection decay and surrogate extraction.

    The intersection measure collapses exactly to (p_n(0)/2)^3, computed
    from the characteristic-function sweep; the Monte Carlo half samples
    triples of walk realizations conditioned on the origin bit being 1 and
    extracts the surrogate D/M/A sets from their joint zero times (a joint
    return needs all three walks back at 0, where the origin bits are
    already 1).
    """
    if H < 16:
        raise PreconditionError("need H >= 16")
    if spec.dimension != 1 or spec.windows or spec.origin != 0:
        raise ValueError("section-2 experiment needs a plain 1-D spec")
    if spec.zero:
        p0 = np.ones(H)
    else:
        p0 = peak_probability_sweep(H, spec.k_max, k_min=spec.k_min)
    a_n = (p0 / 2.0) ** 3
    partial = np.cumsum(a_n)
    ns = np.arange(1, H + 1)
    c = float(np.max(p0 * np.sqrt(ns)))
    tail = (c / 2.0) ** 3 * float(zeta(1.5, H + 1))

    if spec.zero:
        vals = np.zeros((samples, 3, H), dtype=np.int64)
    else:
        y_seeds = np.array([[_child_seed(seed0, 1, s, t) for t in range(3)]
                            for s in range(samples)], dtype=np.uint64)
        paths = partial_sums_batch(y_seeds.ravel(), (0, H), dimension=1,
                                   k_max=spec.k_max, k_min=spec.k_min,
                                   doubling=spec.doubling)
        vals = paths[:, 1:, 0].reshape(samples, 3, H)
    joint_zero = (vals == 0).all(axis=1)  # (samples, H); column n-1 is time n
    return_sets = [set((np.nonzero(row)[0] + 1).tolist()) for row in joint_zero]
    # the omega coordinates are conditioned on bit(0) = 1, and joint returns
    # only ever re-read the origin bit, so they need no further sampling
    extraction = _extract(return_sets, H)
    bc = BCReport(H=H, a_n=a_n, partial_sums=partial, envelope_c=c, tail=tail,
                  extraction=extraction)
    probe = TripleProbeReport(horizon=H, samples=samples,
                              in_surrogate=samples,
                              violations=extraction.violations,
                              identity_failures=0, uncovered={})
    return bc, probe


# ---------------------------------------------------------------------------
# polynomial-times structural experiment


def range_view_pool(p1: PolynomialSpec, p2: PolynomialSpec, N: int, size: int,
                    seed0: int = 0, k_max: Optional[int] = None,
                    ) -> List[PermutationView]:
    """Pool of independent permutation views, one field realization each.

    Building a view is the expensive step (one union schedule evaluation),
    so experiments draw sample tuples from a shared pool; the per-sample
    assertions are structural, not statistical, so reuse across tuples does
    not bias them.
    """
    if k_max is None:
        k_max = default_k_max(max(p1(N), p2(N)))
    pool = []
    for i in range(size):
        spec = FieldSpec(seed=_child_seed(seed0, 2, i), dimension=2,
                         k_max=k_max, doubling=True)
        pool.append(PermutationView.build(spec, p1, p2, N))
    return pool


def exp_section3(pool: Sequence[PermutationView], k: int, H: int,
                 samples: int = 1000, seed0: int = 0) -> TripleProbeReport:
    """Structural emptiness along polynomial times.

    Each sample is a k-tuple of (walk realization, configuration) pairs
    with every configuration's origin bit forced to 0. A sample lies in the
    surrogate base set when every n <= H has a witness coordinate whose
    shared fresh indices contain n. At each witness the twisted origin bit
    is the complement of the plain one, so the two returns can never both
    present a 0 origin bit; the run asserts both that identity and the
    resulting absence of joint returns.
    """
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
            t_bit = view.t_origin_bit(cfg, n)
            s_bit = view.tilde_S_origin_bit(cfg, n)
            if s_bit != 1 - t_bit:
                identity_failures += 1
            if t_bit == 0 and s_bit == 0:
                violations += 1
    if in_surrogate == 0:
        raise RuntimeError(
            f"no sample covered [1, {H}]; per-n failures: {uncovered}")
    return TripleProbeReport(horizon=H, samples=samples,
                             in_surrogate=in_surrogate, violations=violations,
                             identity_failures=identity_failures,
                             uncovered=uncovered)


# ---------------------------------------------------------------------------
# Gaussian experiment


@dataclass
class GaussianReport:
    k: int
    H: int
    estimates: Tuple[float, ...]
    envelope_violations: int
    summability_total: float
    extraction: Extraction

    @property
    def verdict(self) -> str:
        if self.envelope_violations:
            return "envelope-violated"
        return self.extraction.verdict


def exp_gaussian(model: SpectralModel, k: int, H: int = 64,
                 samples: int = 2000, mc: int = 100_000,
                 seed0: int = 0) -> GaussianReport:
    """Triple-probability decay, k-fold summability, and surrogate
    extraction for the twisted Gaussian pair."""
    if 2 * k * model.delta <= 1.0:
        raise PreconditionError("summability hypothesis 2 k delta > 1 fails")
    # the estimates, the paths and the twist all read r(0..H): tabulate it
    # once, so lags beyond the model's own table are computed in one call
    model = replace(model, table=tuple(model.r_vector(H)))
    ests = []
    env_viol = 0
    for n in range(1, H + 1):
        est = triple_probability(model, n, samples=mc, seed=_child_seed(seed0, 5, n))
        ests.append(est.estimate)
        if est.estimate > est.envelope + 4 * est.se:
            env_viol += 1
    summ = power_summability(ests, k=k, delta=model.delta, C=model.C, H=H)

    # ensembles of k independent twisted pairs conditioned on X_0 > 1
    rng_seed = _child_seed(seed0, 6)
    accepted = []
    batch_seed = 0
    while len(accepted) < samples * k:
        paths = sample_paths(model, H, size=max(4 * samples * k, 1000),
                             seed=_child_seed(rng_seed, batch_seed))
        keep = paths[paths[:, 0] > 1.0]
        accepted.extend(keep)
        batch_seed += 1
    paths = np.stack(accepted[: samples * k]).reshape(samples, k, H + 1)
    ys = twisted_values(model, paths)
    hits = (paths[:, :, 1:] > 1.0) & (ys[:, :, 1:] > 1.0)
    joint = hits.all(axis=1)  # (samples, H)
    return_sets = [set((np.nonzero(row)[0] + 1).tolist()) for row in joint]
    extraction = _extract(return_sets, H)
    return GaussianReport(k=k, H=H, estimates=tuple(ests),
                          envelope_violations=env_viol,
                          summability_total=summ.total, extraction=extraction)


# ---------------------------------------------------------------------------
# mixing probe


Cylinder = Tuple[Tuple[Tuple[int, int], int], ...]  # ((site, bit), ...)


def _cylinder_radius(cyl: Cylinder) -> int:
    return max((max(abs(u[0]), abs(u[1])) for u, _ in cyl), default=0)


def _eta(cyl: Cylinder) -> float:
    return 2.0 ** (-len({u for u, _ in cyl}))


@dataclass
class MixingReport:
    M: int
    n_grid: Tuple[int, ...]
    box_probabilities: Tuple[float, ...]  # exact m(|S_n|_inf <= 2M)
    # error ledger of one coordinate's law, per n of the grid
    alias_bounds: Tuple[float, ...]
    pruned: Tuple[float, ...]
    tail_variances: Tuple[float, ...]
    joint_estimate: float
    product_estimate: float
    correlation: float
    se: float
    II_bound: float  # m(E_n) at the probe time
    samples: int
    decay_ok: bool
    correlation_ok: bool


def mixing_probe(spec: FieldSpec, M: int, H: int = 4096,
                 samples: int = 100_000,
                 B1: Cylinder = (((0, 0), 1),), B2: Cylinder = (((0, 0), 1),),
                 n_min: int = 64, seed0: int = 0) -> MixingReport:
    """Exact box probabilities on a dyadic grid plus a cylinder correlation.

    The correlation splits over the event E_n that the walk stayed inside
    the doubled box: off E_n the two cylinder supports are disjoint, so
    the configuration factor is an exact product; on E_n the contribution
    is bounded by m(E_n). The probe checks the estimate at the largest n
    against 4 SE plus that bound.
    """
    if spec.dimension != 2:
        raise ValueError("mixing probe needs a 2-D walk")
    if M < 0:
        raise PreconditionError("M must be >= 0")
    for cyl in (B1, B2):
        if _cylinder_radius(cyl) > M:
            raise PreconditionError("cylinder radius exceeds M")
    grid = []
    n = n_min
    while n <= H:
        grid.append(n)
        n *= 2
    if len(grid) < 2 or grid[-1] != H:
        # box decay is read off a grid of at least two horizons
        raise PreconditionError("H must be n_min times a power of two, at least 2 * n_min")
    boxes, alias, pruned, tails = [], [], [], []
    for n in grid:
        # the two coordinates are independent copies of one law
        pmf, law = walk_pmf(replace(spec, dimension=1), n)
        m = pmf.interval_mass(-2 * M, 2 * M)
        boxes.append(m * m)
        alias.append(law.alias_bound)
        pruned.append(pmf.pruned)
        tails.append(law.tail_variance)
    # m * m is off by at most 2 (alias + pruned) plus rounding, which
    # MASS_TOL covers: a smaller drop between the ends is not decay
    slack = 2 * (alias[0] + pruned[0] + alias[-1] + pruned[-1]) + MASS_TOL
    decay_ok = boxes[0] - boxes[-1] > slack

    n_probe = grid[-1]
    if spec.zero:
        s_n = np.zeros((samples, 2), dtype=np.int64)
    else:
        s_n = endpoint_batch_law(seed=_child_seed(seed0, 7), n=n_probe,
                                 size=samples, k_min=spec.k_min,
                                 k_max=spec.k_max, dimension=2,
                                 doubling=spec.doubling)
    rng = np.random.default_rng(_child_seed(seed0, 8))
    joint_hits = 0
    for s in range(samples):
        bits: Dict[Tuple[int, int], int] = {}

        def bit_at(site):
            if site not in bits:
                bits[site] = int(rng.integers(0, 2))
            return bits[site]

        ok1 = all(bit_at(tuple(u)) == b for u, b in B1)
        shift = (int(s_n[s, 0]), int(s_n[s, 1]))
        ok2 = all(bit_at((u[0] + shift[0], u[1] + shift[1])) == b
                  for u, b in B2)
        if ok1 and ok2:
            joint_hits += 1
    joint = joint_hits / samples
    product = _eta(B1) * _eta(B2)
    corr = abs(joint - product)
    se = math.sqrt(max(joint * (1 - joint), 1.0 / samples) / samples)
    II_bound = boxes[-1]
    correlation_ok = corr <= 4 * se + II_bound
    return MixingReport(M=M, n_grid=tuple(grid),
                        box_probabilities=tuple(boxes),
                        alias_bounds=tuple(alias), pruned=tuple(pruned),
                        tail_variances=tuple(tails),
                        joint_estimate=joint, product_estimate=product,
                        correlation=corr, se=se, II_bound=II_bound,
                        samples=samples, decay_ok=decay_ok,
                        correlation_ok=correlation_ok)

