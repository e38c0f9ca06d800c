"""Ranges along polynomial times, fresh indices, and the permutation twist.

The walk visited set along a polynomial schedule, its fresh (first-visit)
indices, the intersection over two schedules, and the permutation of Z^2
that sends the second-schedule visit points onto the first-schedule ones
while enumerating the rest of the lattice in a canonical outward spiral.
Everything is horizon-bounded: membership questions that a finite table
cannot decide raise HorizonError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import PreconditionError
from .bigsums import schedule_sums
from .fields import (
    FieldSpec,
    conditioned_spec,
    goal_event_plan,
    min_low_scale_increment,
    partial_sums,
    scale_params,
)
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
        vals = [self(n) for n in range(1, N + 1)]
        if len(set(vals)) != len(vals):
            raise ValueError(f"polynomial not injective on [1, {N}]")


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
    range_set: frozenset

    def endpoint(self, n: int) -> Tuple[int, ...]:
        if not (1 <= n <= self.N):
            raise HorizonError(f"index {n} beyond horizon {self.N}")
        return tuple(int(x) for x in self.endpoints[n - 1])


def build_range_tables(spec: FieldSpec, polys: Sequence[PolynomialSpec],
                       N: int) -> List[RangeTable]:
    """Range tables for several polynomials over one shared field realization.

    All endpoint times go into a single union schedule, so the tables are
    mutually consistent (chunk aggregation draws depend on the schedule).
    """
    if N < 1:
        raise ValueError("need N >= 1")
    for poly in polys:
        poly.check_injective(N)
        if poly(1) < 1:
            raise ValueError("schedule values must be positive on [1, N]")
    times = sorted({poly(n) for poly in polys for n in range(1, N + 1)})
    sums = schedule_sums(spec, times)
    row = {t: idx for idx, t in enumerate(sums.times)}
    out = []
    for poly in polys:
        endpoints = np.stack([sums.values[row[poly(n)]] for n in range(1, N + 1)])
        zero = (0,) * spec.dimension
        seen = set()
        fresh = []
        for n in range(1, N + 1):
            v = tuple(int(x) for x in endpoints[n - 1])
            if v != zero and v not in seen:
                fresh.append(n)
            seen.add(v)
        out.append(RangeTable(poly=poly, N=N, endpoints=endpoints,
                              fresh=tuple(fresh), range_set=frozenset(seen)))
    return out


def build_range(spec: FieldSpec, poly: PolynomialSpec, N: int) -> RangeTable:
    return build_range_tables(spec, [poly], N)[0]


# ---------------------------------------------------------------------------
# canonical spiral enumeration of the lattice complement


def _is_resolved_other(v: Tuple[int, int]) -> bool:
    # any odd coordinate puts v provably outside the (doubled) visited sets
    return (v[0] % 2 != 0) or (v[1] % 2 != 0)


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


def complement_index(v: Tuple[int, int]) -> int:
    """Position (1-based) of v in the canonical complement enumeration."""
    if not _is_resolved_other(v):
        raise ValueError(f"{v} is not a resolved complement point")
    r = max(abs(v[0]), abs(v[1]))
    return _resolved_inside(r) + _resolved_ring(r).index(tuple(v)) + 1


# ---------------------------------------------------------------------------
# the permutation and its twist


@dataclass
class PermutationView:
    """Horizon-bounded view of the permutation pi sending the second
    schedule's fresh visit points onto the first schedule's.

    Both visit tables are indexed by the shared fresh enumeration k_1 < k_2
    < ...; the complements are enumerated in canonical spiral order over
    provably-unvisited points, which makes the two complement enumerations
    coincide (any enumeration is admissible, and this one keeps runs
    reproducible). Points in 2Z^2 absent from the tables may still be visit
    points beyond the horizon, so they are unresolved.
    """

    spec: FieldSpec
    p1: PolynomialSpec
    p2: PolynomialSpec
    N: int
    curly: Tuple[int, ...]
    table1: RangeTable
    table2: RangeTable
    s1_points: Tuple[Tuple[int, int], ...]
    s2_points: Tuple[Tuple[int, int], ...]
    s2_ordinal: Dict[Tuple[int, int], int]

    @classmethod
    def build(cls, spec: FieldSpec, p1: PolynomialSpec, p2: PolynomialSpec,
              N: int) -> "PermutationView":
        if spec.dimension != 2:
            raise ValueError("permutation view needs a 2-D walk")
        t1, t2 = build_range_tables(spec, [p1, p2], N)
        curly = tuple(sorted(set(t1.fresh) & set(t2.fresh)))
        s1 = tuple(t1.endpoint(n) for n in curly)
        s2 = tuple(t2.endpoint(n) for n in curly)
        if len(set(s1)) != len(s1) or len(set(s2)) != len(s2):
            raise RuntimeError("fresh visit points must be distinct")
        ordinal = {v: i for i, v in enumerate(s2, start=1)}
        return cls(spec=spec, p1=p1, p2=p2, N=N, curly=curly, table1=t1,
                   table2=t2, s1_points=s1, s2_points=s2, s2_ordinal=ordinal)

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
        if kind == "origin":
            return (0, 0)
        if kind == "s2":
            return self.s1_points[i - 1]
        if kind == "other":
            # position in the second complement enumeration, image in the
            # first; the canonical enumerations coincide so this is the
            # identity, computed through the enumeration for auditability
            return complement_point(complement_index(v))
        raise HorizonError(f"{v} not resolved within horizon {self.N}")

    def audit_injectivity(self, points: Sequence[Tuple[int, int]]) -> int:
        """Number of image collisions over the queried points (0 expected)."""
        images = [self.pi_forward(v) for v in points]
        return len(images) - len(set(images))

    # -- the twist ----------------------------------------------------------

    def twist_bit(self, config: OmegaConfig, v: Tuple[int, int]) -> int:
        kind, i = self.classify(v)
        if kind == "origin":
            return config.bit((0, 0))
        if kind == "s2":
            return 1 - config.bit(self.s1_points[i - 1])
        if kind == "other":
            return config.bit(self.pi_forward(v))
        raise HorizonError(f"{v} not resolved within horizon {self.N}")

    def t_origin_bit(self, config: OmegaConfig, n: int) -> int:
        """Origin bit of the configuration after p1(n) steps of the plain
        skew product: omega evaluated at S_{p1(n)}."""
        return config.bit(self.table1.endpoint(n))

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


# first index of the envelope fit q_n <= pi c / sqrt(n)
FIT_FROM = 8


def complement_profile(pool: Sequence[PermutationView],
                       fit_from: int = FIT_FROM) -> ComplementProfile:
    """Estimate q_n from the shared fresh indices of a pool of views, one
    independent field realization each, and fit the envelope over
    fit_from <= n <= N."""
    N = pool[0].N
    if N < fit_from:
        raise ValueError(f"profile horizon N={N} is below the envelope fit "
                         f"start {fit_from}")
    miss = np.zeros(N, dtype=np.int64)
    for view in pool:
        ks = set(view.curly)
        for n in range(1, N + 1):
            if n not in ks:
                miss[n - 1] += 1
    q_hat = miss / len(pool)
    ns = np.arange(fit_from, N + 1)
    c = float(np.max(q_hat[fit_from - 1:] * np.sqrt(ns) / math.pi))
    return ComplementProfile(N=N, samples=len(pool), q_hat=q_hat, envelope_c=c)


@dataclass
class ChooseKReport:
    k: int
    margin: float
    head: float  # sum of q_hat^k over the profiled range
    tail: float  # integrated envelope beyond the profile
    total: float
    per_k: Dict[int, float]


def choose_k(profile: ComplementProfile, margin: float = 0.1,
             k_limit: int = 12) -> ChooseKReport:
    """Smallest k >= 3 whose joint-miss series stays below 1 - margin.

    The product identity makes the k-fold joint miss probability q_n^k; the
    head is summed from the profile and the tail integrates the fitted
    pi c / sqrt(n) envelope beyond the horizon (finite for k >= 3).
    """
    per_k: Dict[int, float] = {}
    H = profile.N
    for k in range(3, k_limit + 1):
        head = float(np.sum(profile.q_hat**k))
        env = math.pi * profile.envelope_c
        # integral of (env / sqrt(n))^k from H to infinity
        tail = (env**k) * (H ** (1 - k / 2.0)) / (k / 2.0 - 1.0)
        total = head + tail
        per_k[k] = total
        if total < 1.0 - margin:
            return ChooseKReport(k=k, margin=margin, head=head, tail=tail,
                                 total=total, per_k=per_k)
    raise RuntimeError(f"no k <= {k_limit} reaches the target; totals {per_k}")


# ---------------------------------------------------------------------------
# certification of the distinct-range window


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
    y_floor: int  # minimal observed high-scale increment (undoubled)
    log_event_probability: float
    bound_checks: Tuple[Tuple[int, float, float], ...]  # (k, log m(D_k), -2/p_k)


# unforced scales k = K + C, ..., K + C + BOUND_SCALES - 1 whose factor bound
# m(D_k) >= exp(-2/p_k) each certification checks
BOUND_SCALES = 40


def _lex_less(a, b) -> bool:
    return (a[0], a[1]) < (b[0], b[1])


def certify_distinct(seed0: int, N: int, C: Optional[int] = None,
                     samples: int = 1000) -> CertificationRun:
    """Sample the conditioned cylinder and certify the strict-increase window.

    The conditioning forces a band of scales to contribute +p_k each step on
    the first coordinate while zeroing every other scale above the low band,
    so each increment is at least (band sum) + M > 0 with M the worst-case
    low-band contribution. Checks, per sample: the lexicographic chain
    (0,0) < S_1 < ... < S_{2N}, the 2N+1 distinct recentred window values,
    and the per-step high-scale floor. Also reports the exact cylinder
    log-probability and verifies the per-scale factor bound
    m(D_k) >= exp(-2/p_k) for unforced scales k >= K + C.
    """
    M = min_low_scale_increment(N)
    if C is None:
        C = -M + 1
    if C < -M:
        raise PreconditionError("C must dominate the low-band worst case -M")
    plan = goal_event_plan(N=N, C=C)
    plan_k_max = max(w.k for w in plan.windows)
    goal_failures = 0
    distinct_failures = 0
    y_floor = None
    for s in range(samples):
        base = FieldSpec(seed=seed0 + s, dimension=2, doubling=True,
                         k_max=plan_k_max)
        spec = conditioned_spec(base, plan)
        path = partial_sums(spec, (0, 2 * N))
        chain = [tuple(int(x) for x in path.at(t)) for t in range(0, 2 * N + 1)]
        ok = all(_lex_less(chain[t], chain[t + 1]) for t in range(2 * N))
        center = np.array(chain[N])
        window = {tuple(int(x) for x in (np.array(c) - center)) for c in chain}
        if len(window) != 2 * N + 1:
            distinct_failures += 1
        high = partial_sums(replace(spec, k_min=plan.kappa, doubling=False),
                            (0, 2 * N))
        incr = np.diff(high.values[:, 0])
        floor = int(incr.min())
        y_floor = floor if y_floor is None else min(y_floor, floor)
        # counted once per sample, so goal_failures <= samples
        if not ok or floor <= C:
            goal_failures += 1
    # exact cylinder probability (log space) over the forced scales
    log_prob = 0.0
    for w in plan.windows:
        sp = scale_params(w.k)
        span = w.hi - w.lo
        if w.value == 0:
            log_prob += span * math.log1p(-sp.q)
        else:
            log_prob += span * math.log(sp.q / 2.0)
    checks = []
    for k in range(plan.K + C, plan.K + C + BOUND_SCALES):
        sp = scale_params(k)
        log_mdk = 2 * (sp.p + 2 * N) * math.log1p(-sp.q)
        checks.append((k, log_mdk, -2.0 / sp.p))
    return CertificationRun(
        N=N, C=C, M=M, kappa=plan.kappa, K=plan.K, plan_k_max=plan_k_max,
        samples=samples, goal_failures=goal_failures,
        distinct_failures=distinct_failures, y_floor=int(y_floor),
        log_event_probability=log_prob, bound_checks=tuple(checks),
    )
