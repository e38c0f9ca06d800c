"""Theorem-level experiments.

Four orchestrations over the lower-level engines:

* the 1-D equal-times experiment: exact summable decay of the triple
  intersection plus a Borel-Cantelli surrogate extraction of a
  non-recurrent set from the sampled joint returns;
* the polynomial-times structural experiment: how many sampled k-tuples of
  range views have shared fresh indices covering the horizon, and which
  indices the others miss;
* the Gaussian analogue with its summability report;
* the mixing probe: exact box probabilities along a dyadic grid and a
  cylinder correlation decomposition.

Emptiness for every n is not decidable numerically. Each report gives
exact summability inputs and the sampled quantities its emptiness argument
rests on; the identities that make the emptiness structural hold by
construction and are checked by the tests, not at run time. Horizon
surrogates may overestimate the extracted sets, so the chosen cut-offs are
exposed in the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import PreconditionError
from .fields import FieldSpec, default_k_max, partial_sums_batch
from .gaussian import (
    SpectralModel,
    conditioned_paths,
    power_summability,
    power_tail,
    triple_envelope,
    triple_hit_counts,
    triple_probabilities,
    twisted_values,
)
from .pmf import MASS_TOL, peak_probability_sweep, walk_pmf
from .prf import hash_words, hash_words_vec
from .ranges import PermutationView, PolynomialSpec

_TAG_EXP = 67

# entries per block of the sampled probes: (sample, coordinate, n) in the
# section-3 probe, (seed, step) path values in the section-2 extraction
_PROBE_BLOCK_ELEMS = 1 << 20
_GAUSS_PATH_VALUES = 1 << 26  # path values in a gauss run, 17 bytes each


def _child_seed(seed0: int, *words: int) -> int:
    return int(hash_words(seed0, _TAG_EXP, *words))


# ---------------------------------------------------------------------------
# shared Borel-Cantelli surrogate extraction


@dataclass
class Extraction:
    """Horizon surrogate of the D/M/A extraction from sampled return sets.

    N is the smallest horizon beyond which some sample never jointly
    returns, and D the samples achieving it; measure_D is measured. M is
    the largest joint-return time inside D, A the D-samples returning at
    M, and violations the pairs (sample in A, n) with a joint return at
    both n and n + M, which is what a triple A-return at n would require.
    Those three are written, not measured: every sample in D has max R =
    N, so M = N, A = D (measure_A == measure_D), and n + M > max R for
    every n >= 1 leaves no violation. They stay in the reports because
    ``bench/run.py::check_recur2`` and the acceptance tests read them.
    """

    H: int
    samples: int
    N: int
    M: int
    measure_D: float
    measure_A: float
    violations: int
    verdict: str


def _extract(joint: np.ndarray) -> Extraction:
    """The extraction from a (samples x H) joint-return matrix, whose
    column n - 1 says that the sample returns jointly at time n."""
    samples, H = joint.shape
    # each sample's last return time, 0 where it never returns
    last = np.where(joint.any(axis=1), H - joint[:, ::-1].argmax(axis=1), 0)
    N = int(last.min())
    if N >= H:
        return Extraction(H=H, samples=samples, N=N, M=0, measure_D=0.0,
                          measure_A=0.0, violations=0, verdict="diverged")
    measure_D = int(np.count_nonzero(last == N)) / samples
    return Extraction(H=H, samples=samples, N=N, M=N, measure_D=measure_D,
                      measure_A=measure_D, violations=0, verdict="ok")


# ---------------------------------------------------------------------------
# equal-times experiment (1-D walk, three tensor factors)


@dataclass
class BCReport:
    H: int
    a_n: np.ndarray  # a_n = (p_n(0)/2)^3, exact, index n-1
    partial_sums: np.ndarray
    envelope_c: float  # fitted c with p_n(0) <= c / sqrt(n)
    tail: float  # power_tail bound on the (c / (2 sqrt n))^3 remainder beyond H
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
    violations: int  # 0 by construction in both probes, as is the next
    identity_failures: int
    uncovered: Dict[int, int]  # n -> samples lacking a witness there

    @property
    def surrogate_measure(self) -> float:
        return self.in_surrogate / self.samples


def exp_section2(spec: FieldSpec, H: int = 2000, samples: int = 1000,
                 seed0: int = 0) -> Tuple[BCReport, TripleProbeReport]:
    """Equal-times triple-intersection decay and surrogate extraction.

    The intersection measure collapses exactly to (p_n(0)/2)^3, computed
    from the characteristic-function sweep. The Monte Carlo half samples
    triples of walk paths and measures, from their joint zero times, the
    extraction's N and measure_D (``Extraction``). The configurations are
    conditioned on the origin bit being 1 and a joint return reads only
    that bit, so none is sampled: every sample lies in the probe's
    surrogate and the probe reports no violation.
    """
    if H < 16:
        raise PreconditionError("need H >= 16")
    if spec.dimension != 1:
        raise ValueError("section-2 experiment needs a 1-D spec")
    if spec.zero:
        p0 = np.ones(H)
    else:
        p0 = peak_probability_sweep(H, spec.k_max, k_min=spec.k_min)
    a_n = (p0 / 2.0) ** 3
    partial = np.cumsum(a_n)
    ns = np.arange(1, H + 1)
    c = float(np.max(p0 * np.sqrt(ns)))

    # entry (s, t) is _child_seed(seed0, 1, s, t); a path depends on its
    # seed alone, so the samples are taken in blocks of at most
    # _PROBE_BLOCK_ELEMS path values and only their joint returns are kept
    y_seeds = hash_words_vec(seed0, (_TAG_EXP, 1), *np.ogrid[:samples, :3])
    joint = np.empty((samples, H), dtype=bool)
    block = max(1, _PROBE_BLOCK_ELEMS // (3 * (H + 1)))
    for s0 in range(0, samples, block):
        paths = partial_sums_batch(spec, y_seeds[s0 : s0 + block].ravel(), (0, H))
        joint[s0 : s0 + block] = (paths[:, 1:, 0] == 0).reshape(-1, 3, H).all(axis=1)
    extraction = _extract(joint)
    tail = (c / 2.0) ** 3 * power_tail(1.5, H)
    bc = BCReport(H=H, a_n=a_n, partial_sums=partial, envelope_c=c, tail=tail,
                  extraction=extraction)
    probe = TripleProbeReport(horizon=H, samples=samples,
                              in_surrogate=samples, violations=0,
                              identity_failures=0, uncovered={})
    return bc, probe


# ---------------------------------------------------------------------------
# polynomial-times structural experiment


def range_view_pool(p1: PolynomialSpec, p2: PolynomialSpec, N: int, size: int,
                    seed0: int = 0, k_max: Optional[int] = None,
                    ) -> List[PermutationView]:
    """Pool of independent permutation views, one field realization each.

    Building the views is the expensive step, so experiments draw sample
    tuples from a shared pool; the per-sample assertions are structural,
    not statistical, so reuse across tuples does not bias them. The views
    share their schedule, so they come from one pool-wide evaluation
    (``PermutationView.build_pool``).
    """
    if k_max is None:
        k_max = default_k_max(max(p1(N), p2(N)))
    seeds = [_child_seed(seed0, 2, i) for i in range(size)]
    spec = FieldSpec(dimension=2, k_max=k_max, doubling=True)
    return PermutationView.build_pool(spec, seeds, p1, p2, N)


def exp_section3(pool: Sequence[PermutationView], k: int, H: int,
                 samples: int = 1000, seed0: int = 0) -> TripleProbeReport:
    """Structural emptiness along polynomial times.

    Each sample is a k-tuple of views drawn from the pool. It lies in the
    surrogate base set when every n <= H has a witness, a coordinate whose
    view holds n among its shared fresh indices; the report counts those
    samples and, per n, the samples lacking a witness there. The counts
    are read off a (views x H) membership matrix, with the samples taken in
    blocks of at most _PROBE_BLOCK_ELEMS (sample, coordinate, n) entries.

    ``violations`` and ``identity_failures`` are 0 by construction. At a
    witness, the twist sends the second schedule's point S_{p2(n)} onto
    the first's S_{p1(n)} and complements the bit there
    (``PermutationView.twist_bit``), so the twisted origin bit is the
    complement of the plain one and the two returns never both present a
    0 origin bit, whatever the configuration. ``tests/oracles.py``'s
    ``oracle_section3`` checks that identity one scalar bit at a time.
    """
    if H > pool[0].N:
        raise ValueError("horizon exceeds the pool's range horizon")
    if k < 1:
        raise ValueError("need k >= 1")
    rng = np.random.default_rng(_child_seed(seed0, 3))
    # one call per sample, so the stream is consumed as it always has been
    idx = np.array([rng.integers(0, len(pool), size=k) for _ in range(samples)],
                   dtype=np.int64).reshape(samples, k)
    member = np.zeros((len(pool), H), dtype=bool)
    for v, view in enumerate(pool):
        member[v, [n - 1 for n in view.curly if n <= H]] = True
    in_surrogate = 0
    missed = np.zeros(H, dtype=np.int64)
    block = max(1, _PROBE_BLOCK_ELEMS // (k * H))
    for s0 in range(0, samples, block):
        miss = ~member[idx[s0 : s0 + block]].any(axis=1)  # (samples, H)
        missed += miss.sum(axis=0)
        in_surrogate += int(np.count_nonzero(~miss.any(axis=1)))
    uncovered = {n + 1: int(missed[n]) for n in np.flatnonzero(missed).tolist()}
    if in_surrogate == 0:
        raise RuntimeError(
            f"no sample covered [1, {H}]; per-n failures: {uncovered}")
    return TripleProbeReport(horizon=H, samples=samples,
                             in_surrogate=in_surrogate, violations=0,
                             identity_failures=0, uncovered=uncovered)


# ---------------------------------------------------------------------------
# Gaussian experiment


# a lag whose Monte Carlo frequency lies more than this many standard
# errors from the exact probability fails the run; in the normal
# approximation a correct rule fails one of 64 lags with chance about 4e-5
_MC_Z_LIMIT = 5.0


@dataclass
class GaussianReport:
    k: int
    H: int
    estimates: Tuple[float, ...]  # exact P(X_0 > 1, X_n > 1, Y_n > 1), n = 1..H
    envelope_violations: int
    mc_max_z: float
    summability_total: float
    extraction: Extraction

    @property
    def verdict(self) -> str:
        if self.envelope_violations:
            return "envelope-violated"
        if self.mc_max_z > _MC_Z_LIMIT:
            return "mc-disagrees"
        return self.extraction.verdict


def exp_gaussian(model: SpectralModel, k: int, H: int = 64,
                 samples: int = 2000, mc: int = 100_000,
                 seed0: int = 0) -> GaussianReport:
    """Triple-probability decay, k-fold summability, and surrogate
    extraction for the twisted Gaussian pair.

    The triple probabilities are exact (``triple_probabilities``); each is
    checked against its analytic envelope and against one Monte Carlo
    stream of ``mc`` pairs shared by every lag. A lag's standard error takes
    the larger of the exact and the sampled binomial variances, and at
    least 1/mc: with the exact variance alone, one hit of an event far
    rarer than 1/mc would read as many standard errors.
    """
    if 2 * k * model.delta <= 1.0:
        raise PreconditionError("summability hypothesis 2 k delta > 1 fails")
    if samples * k * (H + 1) > _GAUSS_PATH_VALUES:
        raise PreconditionError(f"samples * k * (H + 1) = {samples * k * (H + 1)} "
                                f"path values exceed the bound {_GAUSS_PATH_VALUES}")
    # the probabilities, the paths and the twist all read r(0..H)
    r = model.r_vector(H)
    exact = triple_probabilities(r[1:])
    env_viol = sum(p > triple_envelope(rn)
                   for p, rn in zip(exact.tolist(), r[1:].tolist()))
    p_mc = triple_hit_counts(r[1:], mc, seed=_child_seed(seed0, 5)) / mc
    var = np.maximum(np.maximum(exact * (1.0 - exact), p_mc * (1.0 - p_mc)), 1.0 / mc)
    mc_max_z = float(np.max(np.abs(p_mc - exact) / np.sqrt(var / mc), initial=0.0))
    summ = power_summability(exact, k=k, delta=model.delta, C=model.C, H=H)

    # ensembles of k independent twisted pairs conditioned on X_0 > 1
    paths = conditioned_paths(r, size=samples * k,
                              seed=_child_seed(seed0, 6)).reshape(samples, k, H + 1)
    ys = twisted_values(r, paths)
    hits = (paths[:, :, 1:] > 1.0) & (ys[:, :, 1:] > 1.0)
    extraction = _extract(hits.all(axis=1))
    return GaussianReport(k=k, H=H, estimates=tuple(exact.tolist()),
                          envelope_violations=env_viol, mc_max_z=mc_max_z,
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
    against 4 SE plus that bound. Each coordinate of S_n is drawn from the
    exact law computed at that n, and each distinct site of a cylinder
    holds one fair bit.
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

    # pmf is one coordinate's law at the probe time n = H
    s_n = pmf.sample(np.random.default_rng(_child_seed(seed0, 7)), (samples, 2))
    rng = np.random.default_rng(_child_seed(seed0, 8))
    sites1, sites2 = (sorted({u for u, _ in cyl}) for cyl in (B1, B2))
    bits1 = rng.integers(0, 2, size=(samples, len(sites1)))
    bits2 = rng.integers(0, 2, size=(samples, len(sites2)))
    # a shifted B2 site that lands on a B1 site reads B1's bit
    for j, u in enumerate(sites2):
        for i, w in enumerate(sites1):
            same = (s_n == (w[0] - u[0], w[1] - u[1])).all(axis=1)
            bits2[same, j] = bits1[same, i]
    hits = np.ones(samples, dtype=bool)
    for cyl, sites, bits in ((B1, sites1, bits1), (B2, sites2, bits2)):
        for u, b in cyl:
            hits &= bits[:, sites.index(u)] == b
    joint = float(hits.mean())
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

