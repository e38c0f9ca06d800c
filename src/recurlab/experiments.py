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

from . import PreconditionError
from .fields import FieldSpec, default_k_max, partial_sums_batch
from .gaussian import (
    SpectralModel,
    hurwitz_zeta,
    power_summability,
    sample_paths,
    triple_probability,
    twisted_values,
)
from .pmf import MASS_TOL, peak_probability_sweep, walk_pmf
from .prf import hash_words, hash_words_vec
from .ranges import PermutationView, PolynomialSpec
from .shiftspace import OmegaConfig

_TAG_EXP = 67

# (sample, coordinate, n) entries per block of the section-3 probe
_PROBE_BLOCK_ELEMS = 1 << 20


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
    D = last <= N
    M = int(last[D].max())
    A = D & joint[:, M - 1] if M else D
    # pairs (sample in A, n) with joint returns at both n and n + M <= H
    violations = int(np.count_nonzero(joint[A, : H - M] & joint[A, M:]))
    verdict = "ok" if violations == 0 else "violated"
    return Extraction(H=H, samples=samples, N=N, M=M,
                      measure_D=int(D.sum()) / samples,
                      measure_A=int(A.sum()) / samples,
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
    if spec.dimension != 1 or spec.windows:
        raise ValueError("section-2 experiment needs a plain 1-D spec")
    if spec.zero:
        p0 = np.ones(H)
    else:
        p0 = peak_probability_sweep(H, spec.k_max, k_min=spec.k_min)
    a_n = (p0 / 2.0) ** 3
    partial = np.cumsum(a_n)
    ns = np.arange(1, H + 1)
    c = float(np.max(p0 * np.sqrt(ns)))

    if spec.zero:
        joint = np.ones((samples, H), dtype=bool)
    else:
        # entry (s, t) is _child_seed(seed0, 1, s, t)
        y_seeds = hash_words_vec(seed0, (_TAG_EXP, 1), *np.ogrid[:samples, :3])
        paths = partial_sums_batch(y_seeds.ravel(), (0, H), dimension=1,
                                   k_max=spec.k_max, k_min=spec.k_min,
                                   doubling=spec.doubling)
        joint = (paths[:, 1:, 0] == 0).reshape(samples, 3, H).all(axis=1)
    # the omega coordinates are conditioned on bit(0) = 1, and joint returns
    # only ever re-read the origin bit, so they need no further sampling
    extraction = _extract(joint)
    tail = (c / 2.0) ** 3 * hurwitz_zeta(1.5, H + 1)
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

    Building the views is the expensive step, so experiments draw sample
    tuples from a shared pool; the per-sample assertions are structural,
    not statistical, so reuse across tuples does not bias them. The views
    share their schedule, so they come from one pool-wide evaluation
    (``PermutationView.build_pool``).
    """
    if k_max is None:
        k_max = default_k_max(max(p1(N), p2(N)))
    seeds = [_child_seed(seed0, 2, i) for i in range(size)]
    spec = FieldSpec(seed=0, dimension=2, k_max=k_max, doubling=True)
    return PermutationView.build_pool(spec, seeds, p1, p2, N)


def _omega_seeds_with_origin_bit(seed0: int, samples: int, k: int,
                                 want: int) -> np.ndarray:
    """Configuration seeds of shape (samples, k): entry (s, t) is the first
    of _child_seed(seed0, 4, s, t, attempt), attempt = 0, 1, ..., whose
    two-dimensional configuration has origin bit ``want``. Every entry
    tries attempt 0; only the misses are hashed again."""
    s, t = (np.broadcast_to(a, (samples, k)) for a in np.ogrid[:samples, :k])
    attempt = np.zeros((samples, k), dtype=np.int64)
    seeds = hash_words_vec(seed0, (_TAG_EXP, 4), s, t, attempt)
    miss = OmegaConfig.bits(seeds, np.zeros((samples, k, 2), dtype=np.int64)) != want
    while miss.any():
        attempt[miss] += 1
        retry = hash_words_vec(seed0, (_TAG_EXP, 4), s[miss], t[miss], attempt[miss])
        seeds[miss] = retry
        miss[miss] = OmegaConfig.bits(retry, np.zeros((retry.size, 2), dtype=np.int64)) != want
    return seeds


def _witness_sites(view: PermutationView, H: int):
    """Arrays over the view's shared fresh indices n <= H: n, the site of
    the plain origin bit after p1(n) steps, and the site and complement
    flag that the twist reads for the origin bit after p2(n) steps, taken
    from table2's endpoint through the permutation."""
    ns = np.array([n for n in view.curly if n <= H], dtype=np.int64)
    twist = [view.twist_site(view.table2.endpoint(n)) for n in ns.tolist()]
    s_sites = np.array([site for site, _ in twist], dtype=np.int64).reshape(-1, 2)
    flips = np.array([flip for _, flip in twist], dtype=np.int64)
    return ns, view.table1.endpoints[ns - 1], s_sites, flips


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

    The witness of n is the first coordinate whose view holds n, read off
    a (views x H) membership matrix; the bits of every witness are hashed
    as arrays, with the samples taken in blocks of at most
    _PROBE_BLOCK_ELEMS (sample, coordinate, n) entries.
    """
    if H > pool[0].N:
        raise ValueError("horizon exceeds the pool's range horizon")
    if k < 1:
        raise ValueError("need k >= 1")
    rng = np.random.default_rng(_child_seed(seed0, 3))
    # one call per sample, so the stream is consumed as it always has been
    idx = np.array([rng.integers(0, len(pool), size=k) for _ in range(samples)],
                   dtype=np.int64).reshape(samples, k)
    omega = _omega_seeds_with_origin_bit(seed0, samples, k, want=0)
    member = np.zeros((len(pool), H), dtype=bool)
    t_site = np.zeros((len(pool), H, 2), dtype=np.int64)
    s_site = np.zeros((len(pool), H, 2), dtype=np.int64)
    s_flip = np.zeros((len(pool), H), dtype=np.int64)
    for v in np.unique(idx).tolist():
        ns, t_sites, s_sites, flips = _witness_sites(pool[v], H)
        member[v, ns - 1] = True
        t_site[v, ns - 1] = t_sites
        s_site[v, ns - 1] = s_sites
        s_flip[v, ns - 1] = flips
    in_surrogate = 0
    violations = 0
    identity_failures = 0
    uncovered: Dict[int, int] = {}
    missed = np.zeros(H, dtype=np.int64)
    block = max(1, _PROBE_BLOCK_ELEMS // (k * H))
    for s0 in range(0, samples, block):
        idx_b, omega_b = idx[s0 : s0 + block], omega[s0 : s0 + block]
        hit = member[idx_b]  # (samples, k, H)
        miss = ~hit.any(axis=1)
        # uncovered lists each n in the order of its first miss, by sample
        # and then by n
        new = miss.any(axis=0) & (missed == 0)
        first = miss.argmax(axis=0)
        for n in np.flatnonzero(new)[np.argsort(first[new], kind="stable")].tolist():
            uncovered[n + 1] = 0
        missed += miss.sum(axis=0)
        covered = ~miss.any(axis=1)
        in_surrogate += int(covered.sum())
        wit = hit[covered].argmax(axis=1)  # first witness coordinate, (covered, H)
        rows = np.arange(wit.shape[0])[:, None]
        view = idx_b[covered][rows, wit]
        seeds = omega_b[covered][rows, wit]
        col = np.arange(H)
        t_bit = OmegaConfig.bits(seeds, t_site[view, col])
        s_bit = s_flip[view, col] ^ OmegaConfig.bits(seeds, s_site[view, col])
        identity_failures += int(np.count_nonzero(s_bit != 1 - t_bit))
        violations += int(np.count_nonzero((t_bit == 0) & (s_bit == 0)))
    for n in uncovered:
        uncovered[n] = int(missed[n - 1])
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
        accepted.extend(paths[paths[:, 0] > 1.0])
        del paths  # free the batch before the next one is drawn
        batch_seed += 1
    paths = np.stack(accepted[: samples * k]).reshape(samples, k, H + 1)
    ys = twisted_values(model, paths)
    hits = (paths[:, :, 1:] > 1.0) & (ys[:, :, 1:] > 1.0)
    extraction = _extract(hits.all(axis=1))
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

