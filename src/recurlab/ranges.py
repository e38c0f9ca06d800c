"""Ranges along polynomial times, fresh indices, and the permutation twist.

The walk visited set along a polynomial schedule, its fresh (first-visit)
indices, the intersection over two schedules, and the permutation of Z^2
that sends the second-schedule visit points onto the first-schedule ones
and fixes every point with an odd coordinate.
Everything is horizon-bounded: membership questions that a finite table
cannot decide raise HorizonError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import PreconditionError
from .bigsums import pool_schedule_sums
from .fields import _BLOCK_ELEMS, FieldSpec, partial_sums_batch, scale_params
from .gaussian import power_tail
from .shiftspace import OmegaConfig


class HorizonError(RuntimeError):
    """A query needed information beyond the computed horizon."""


# ---------------------------------------------------------------------------
# polynomial schedules


@dataclass(frozen=True)
class PolynomialSpec:
    """p(n) = sum_j coeffs[j] * n^(j+1); the constant term is fixed to 0."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    def __call__(self, n: int) -> int:
        total = 0
        power = n
        for c in self.coeffs:
            total += c * power
            power *= n
        return total

    def check_injective(self, N: int) -> None:
        """Raise ValueError unless p maps [1, N] injectively into the
        positive integers, as schedule times must."""
        vals = [self(n) for n in range(1, N + 1)]
        if len(set(vals)) != len(vals):
            raise ValueError(f"polynomial not injective on [1, {N}]")
        if min(vals, default=1) < 1:
            raise ValueError(f"schedule values must be positive on [1, {N}]")


P_SQUARE = PolynomialSpec((0, 1))
P_CUBE = PolynomialSpec((0, 0, 1))


# ---------------------------------------------------------------------------
# range tables and fresh indices


@dataclass
class RangeTable:
    """Visited points and first-visit times of S along one polynomial."""

    poly: PolynomialSpec
    N: int
    endpoints: np.ndarray  # (N, dimension) int64; row n-1 is S_{p(n)}
    fresh: Tuple[int, ...]

    def endpoint(self, n: int) -> Tuple[int, ...]:
        if not (1 <= n <= self.N):
            raise HorizonError(f"index {n} beyond horizon {self.N}")
        return tuple(int(x) for x in self.endpoints[n - 1])


def pool_range_tables(spec: FieldSpec, seeds: Sequence[int],
                      polys: Sequence[PolynomialSpec],
                      N: int) -> List[List[RangeTable]]:
    """Range tables of several polynomials for every seed of a pool: entry
    r holds seed r's tables, one per polynomial.

    All endpoint times go into a single union schedule, evaluated once for
    the whole pool, so each seed's tables share one field realization
    (chunk aggregation draws depend on the schedule) and do not depend on
    the other seeds.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    for poly in polys:
        poly.check_injective(N)
    if not seeds:
        return []
    times = sorted({poly(n) for poly in polys for n in range(1, N + 1)})
    values = pool_schedule_sums(spec, seeds, times)
    rows = [np.searchsorted(times, [poly(n) for n in range(1, N + 1)])
            for poly in polys]
    return [[_range_table(poly, N, view[row]) for poly, row in zip(polys, rows)]
            for view in values]


def _range_table(poly: PolynomialSpec, N: int, endpoints: np.ndarray) -> RangeTable:
    """The table of one polynomial from its endpoints S_{p(1)}, ..., S_{p(N)}."""
    zero = (0,) * endpoints.shape[1]
    seen = set()
    fresh = []
    for n, v in enumerate(map(tuple, endpoints.tolist()), start=1):
        if v != zero and v not in seen:
            fresh.append(n)
        seen.add(v)
    return RangeTable(poly=poly, N=N, endpoints=endpoints, fresh=tuple(fresh))


# ---------------------------------------------------------------------------
# the permutation and its twist


def _is_resolved_other(v: Tuple[int, int]) -> bool:
    # any odd coordinate puts v provably outside the (doubled) visited sets
    return (v[0] % 2 != 0) or (v[1] % 2 != 0)


@dataclass
class PermutationView:
    """Horizon-bounded view of the permutation pi sending the second
    schedule's fresh visit points onto the first schedule's.

    Both visit tables are indexed by the shared fresh enumeration k_1 < k_2
    < ...; off the visit points pi may be any bijection, and this one is
    the identity on every point with an odd coordinate, which no (doubled)
    visit table can hold. Points in 2Z^2 absent from the tables may still
    be visit points beyond the horizon, so they are unresolved.
    """

    N: int
    curly: Tuple[int, ...]
    table1: RangeTable
    table2: RangeTable
    s1_points: Tuple[Tuple[int, int], ...]
    s2_points: Tuple[Tuple[int, int], ...]
    s2_ordinal: Dict[Tuple[int, int], int]

    @classmethod
    def build(cls, spec: FieldSpec, seed: int, p1: PolynomialSpec,
              p2: PolynomialSpec, N: int) -> "PermutationView":
        return cls.build_pool(spec, [seed], p1, p2, N)[0]

    @classmethod
    def build_pool(cls, spec: FieldSpec, seeds: Sequence[int],
                   p1: PolynomialSpec, p2: PolynomialSpec,
                   N: int) -> List["PermutationView"]:
        """One view per seed, from one pool-wide schedule evaluation: view
        r equals ``build(spec, seeds[r], p1, p2, N)``."""
        if spec.dimension != 2:
            raise ValueError("permutation view needs a 2-D walk")
        return [cls._from_tables(N, t1, t2)
                for t1, t2 in pool_range_tables(spec, seeds, [p1, p2], N)]

    @classmethod
    def _from_tables(cls, N: int, t1: RangeTable, t2: RangeTable) -> "PermutationView":
        # fresh indices are first visits, so their points are distinct
        curly = tuple(sorted(set(t1.fresh) & set(t2.fresh)))
        rows = np.array(curly, dtype=np.int64) - 1
        s1, s2 = (tuple(map(tuple, t.endpoints[rows].tolist())) for t in (t1, t2))
        ordinal = {v: i for i, v in enumerate(s2, start=1)}
        return cls(N=N, curly=curly, table1=t1, table2=t2, s1_points=s1,
                   s2_points=s2, s2_ordinal=ordinal)

    # -- classification -----------------------------------------------------

    def classify(self, v: Tuple[int, int]) -> Tuple[str, Optional[int]]:
        v = (int(v[0]), int(v[1]))
        if v == (0, 0):
            return ("origin", None)
        i = self.s2_ordinal.get(v)
        if i is not None:
            return ("s2", i)
        if _is_resolved_other(v):
            return ("other", None)
        return ("unresolved", None)

    # -- the permutation ----------------------------------------------------

    def pi_forward(self, v: Tuple[int, int]) -> Tuple[int, int]:
        kind, i = self.classify(v)
        if kind == "s2":
            return self.s1_points[i - 1]
        if kind in ("origin", "other"):
            return (int(v[0]), int(v[1]))
        raise HorizonError(f"{v} not resolved within horizon {self.N}")

    # -- the twist ----------------------------------------------------------

    def twist_bit(self, config: OmegaConfig, v: Tuple[int, int]) -> int:
        """The twisted configuration's bit at v: the base bit at pi(v),
        complemented at the second schedule's visit points."""
        site = self.pi_forward(v)  # raises HorizonError where unresolved
        return int((int(v[0]), int(v[1])) in self.s2_ordinal) ^ config.bit(site)

    def tilde_S_origin_bit(self, config: OmegaConfig, n: int) -> int:
        """Origin bit of the configuration after p2(n) steps of the twisted
        transformation: the outer inverse twist fixes the origin, leaving
        (Psi omega)(S_{p2(n)})."""
        return self.twist_bit(config, self.table2.endpoint(n))


# ---------------------------------------------------------------------------
# joint fresh-index statistics over independent realizations


@dataclass
class ComplementProfile:
    """Monte Carlo profile of q_n = P(n not fresh for both schedules)."""

    N: int
    samples: int
    q_hat: np.ndarray  # shape (N,), q_hat[n-1] estimates q_n
    envelope_c: float  # fitted c with q_n <= pi c / sqrt(n) on the sample


# first index of the envelope fit q_n <= pi c / sqrt(n); largest k tried
FIT_FROM = 8
K_LIMIT = 12


def complement_profile(pool: Sequence[PermutationView]) -> ComplementProfile:
    """Estimate q_n from the shared fresh indices of a pool of views, one
    independent field realization each, and fit the envelope over
    FIT_FROM <= n <= N; a horizon N below FIT_FROM raises
    PreconditionError."""
    N = pool[0].N
    if N < FIT_FROM:
        raise PreconditionError(f"horizon N={N} is below {FIT_FROM}, where the "
                                f"complement envelope fit starts")
    # each view's shared fresh indices are distinct and lie in [1, N]
    hits = np.concatenate([np.asarray(view.curly, dtype=np.int64) for view in pool])
    q_hat = (len(pool) - np.bincount(hits - 1, minlength=N)) / len(pool)
    ns = np.arange(FIT_FROM, N + 1)
    c = float(np.max(q_hat[FIT_FROM - 1:] * np.sqrt(ns) / math.pi))
    return ComplementProfile(N=N, samples=len(pool), q_hat=q_hat, envelope_c=c)


@dataclass
class ChooseKReport:
    k: int
    margin: float
    head: float  # sum of q_hat^k over the profiled range
    tail: float  # power_tail bound on the envelope's series beyond the profile
    total: float
    per_k: Dict[int, float]


class KNotReached(RuntimeError):
    """No k up to K_LIMIT keeps the joint-miss series below the target;
    ``per_k`` holds the total of every k tried."""

    def __init__(self, per_k: Dict[int, float]):
        self.per_k = per_k
        super().__init__(f"no k <= {K_LIMIT} reaches the target; totals {per_k}")


def choose_k(profile: ComplementProfile, margin: float = 0.1) -> ChooseKReport:
    """Smallest k >= 3 whose joint-miss series stays below 1 - margin.

    The product identity makes the k-fold joint miss probability q_n^k; the
    head is summed from the profile and the tail bounds the series of the
    fitted pi c / sqrt(n) envelope beyond the horizon (``power_tail``,
    finite for k >= 3). Raises KNotReached when no k <= K_LIMIT does.
    """
    per_k: Dict[int, float] = {}
    H = profile.N
    for k in range(3, K_LIMIT + 1):
        head = float(np.sum(profile.q_hat**k))
        tail = (math.pi * profile.envelope_c) ** k * power_tail(k / 2.0, H)
        total = head + tail
        per_k[k] = total
        if total < 1.0 - margin:
            return ChooseKReport(k=k, margin=margin, head=head, tail=tail,
                                 total=total, per_k=per_k)
    raise KNotReached(per_k)


# ---------------------------------------------------------------------------
# certification of the distinct-range window


@dataclass(frozen=True)
class ConditioningPlan:
    """Cylinder event realizing the monotone-increment event.

    For every scale kappa <= k <= k_max it fixes the first coordinate's
    lead window [0, p_k + 2N) and lag window [d_k, d_k + p_k + 2N): the
    lead window of the band K <= k <= k_max is +1 throughout, and every
    other value there is 0. Those are all the values of these scales that
    the path over (0, 2N) reads, so there the band adds exactly p_k per
    step and every other scale of the cylinder nothing. The scales below
    kappa add at least M per step; higher scales are independent of the
    window.
    """

    N: int
    C: int
    M: int
    kappa: int
    K: int
    k_max: int


def goal_event_plan(N: int, C: Optional[int] = None) -> ConditioningPlan:
    """The conditioning plan forcing strictly increasing first-coordinate sums.

    kappa is the smallest scale with 2N < p_k, and M = -2 sum_{k < kappa} p_k
    the least increment the scales below it can make; C defaults to -M + 1.
    K = max(kappa, 2) is the first scale from kappa on with 2 p_k < d_k,
    which holds exactly when k >= 2, and k_max the first whose band K..k_max
    sums past C. As p_k > 2N from kappa on, p_k + 2N < 2 p_k <= d_k: no
    lead window of the cylinder meets its lag window.
    """
    kappa, M = 1, 0
    while scale_params(kappa).p <= 2 * N:
        M -= 2 * scale_params(kappa).p
        kappa += 1
    if C is None:
        C = -M + 1
    if C < -M:
        raise PreconditionError("C must dominate the low-band worst case -M")
    if N < 1 or C < 1:
        raise PreconditionError("need N >= 1 and C >= 1")
    K = max(kappa, 2)
    k_max, total = K, scale_params(K).p
    while total <= C:
        k_max += 1
        total += scale_params(k_max).p
    return ConditioningPlan(N=N, C=C, M=M, kappa=kappa, K=K, k_max=k_max)


@dataclass
class CertificationRun:
    N: int
    C: int
    M: int
    kappa: int
    K: int
    plan_k_max: int
    samples: int
    goal_failures: int
    distinct_failures: int
    y_floor: int  # band increment per step, sum of p_k over K..k_max (undoubled)
    log_event_probability: float
    bound_checks: Tuple[Tuple[int, float, float], ...]  # (k, log m(D_k), -2/p_k)


# scales k = K + C, ..., K + C + BOUND_SCALES - 1 outside the cylinder, whose
# factor bound m(D_k) >= exp(-2/p_k) each certification checks
BOUND_SCALES = 40


def certify_distinct(seed0: int, N: int, C: Optional[int] = None,
                     samples: int = 1000) -> CertificationRun:
    """Sample the conditioned cylinder and certify the strict-increase window.

    The conditioning (``goal_event_plan``) forces a band of scales to
    contribute +p_k each step on the first coordinate while zeroing every
    other scale above the low band, so each increment is at least
    (band sum) + M > C + M >= 0 with M the worst-case low-band
    contribution. Checks, per sample: the lexicographic chain
    (0,0) < S_1 < ... < S_{2N} and the 2N+1 distinct window values. Also
    reports the exact cylinder log-probability and verifies the per-scale
    factor bound m(D_k) >= exp(-2/p_k) for the scales k >= K + C outside
    the cylinder.

    Sample s has seed seed0 + s. The plan fixes every value of its
    scales that the window (0, 2N) reads, so the first coordinate reads
    only the scales below kappa, and the band adds 2 y_floor to every
    step of every seed's path, y_floor the sum of p_k over K..k_max. The
    samples go through the seed-axis kernel in blocks of rows, and each
    check is a reduction over a row.
    """
    if samples < 1:
        raise PreconditionError("need samples >= 1")
    plan = goal_event_plan(N, C)
    spec = FieldSpec(dimension=2, doubling=True, k_max=plan.k_max)
    scales = spec.scales()
    y_floor = sum(sp.p for sp in scales[plan.K - 1:])
    band = 2 * y_floor * np.arange(2 * N + 1)
    goal_failures = 0
    distinct_failures = 0
    rows = max(1, _BLOCK_ELEMS // (2 * N + 1))
    for lo in range(seed0, seed0 + samples, rows):
        # a seed past 2^64 - 1 raises OverflowError here instead of wrapping
        seeds = np.array(range(lo, min(lo + rows, seed0 + samples)), dtype=np.uint64)
        path = partial_sums_batch(spec, seeds, (0, 2 * N),
                                  [scales[: plan.kappa - 1], scales])
        path[:, :, 0] += band
        d0, d1 = np.moveaxis(np.diff(path, axis=1), 2, 0)
        chain = ((d0 > 0) | ((d0 == 0) & (d1 > 0))).all(axis=1)
        # sorted lexicographically, a row's values are distinct iff no two
        # neighbours are equal
        order = np.lexsort((path[:, :, 1], path[:, :, 0]), axis=1)
        ranked = np.take_along_axis(path, order[:, :, None], axis=1)
        repeat = (np.diff(ranked, axis=1) == 0).all(axis=2).any(axis=1)
        distinct_failures += int(repeat.sum())
        goal_failures += int((~chain).sum())
    # exact cylinder probability (log space): per scale the lead window,
    # +1 on the band and 0 below it, then the lag window, 0
    log_prob = 0.0
    for sp in scales[plan.kappa - 1:]:
        span = sp.p + 2 * N
        log_prob += span * (math.log(sp.q / 2.0) if sp.k >= plan.K else math.log1p(-sp.q))
        log_prob += span * math.log1p(-sp.q)
    checks = []
    for k in range(plan.K + plan.C, plan.K + plan.C + BOUND_SCALES):
        sp = scale_params(k)
        log_mdk = 2 * (sp.p + 2 * N) * math.log1p(-sp.q)
        checks.append((k, log_mdk, -2.0 / sp.p))
    return CertificationRun(
        N=N, C=plan.C, M=plan.M, kappa=plan.kappa, K=plan.K, plan_k_max=plan.k_max,
        samples=samples, goal_failures=goal_failures,
        distinct_failures=distinct_failures, y_floor=y_floor,
        log_event_probability=log_prob, bound_checks=tuple(checks),
    )
