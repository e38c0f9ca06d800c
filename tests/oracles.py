"""Scalar reference implementations of the field, one PRF call per value,
the dense product form of the walk's log characteristic function, and the
walk's exact rational law at toy sizes (amplitudes are rational only for
k <= 2).

The library evaluates field values and partial sums only through the
vectorized kernel in ``recurlab.fields``, and the log characteristic
function only through the per-scale histogram FFT in ``recurlab.pmf``.
These functions compute the same quantities straight from the definitions,
so that tests can check the kernels against an independent implementation.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from recurlab.fields import TAG_FIELD, FieldSpec, lag_namespace, scale_params
from recurlab.pmf import GroupedLaw, scale_groups
from recurlab.prf import uniform01


def _forced_value(spec: FieldSpec, k: int, i: int, j: int) -> Optional[int]:
    for w in spec.windows:
        if w.k == k and w.i == i and w.lo <= j < w.hi:
            return w.value
    return None


def field_value(spec: FieldSpec, k: int, i: int, j: int) -> int:
    """The field value at (scale k, coordinate i, time j) in {-1, 0, +1}."""
    if not (spec.k_min <= k <= spec.k_max):
        raise ValueError(f"scale {k} outside [{spec.k_min}, {spec.k_max}]")
    if not (1 <= i <= spec.dimension):
        raise ValueError(f"coordinate index {i} exceeds dimension")
    v = _forced_value(spec, k, i, j)
    if v is not None:
        return v
    if spec.zero:
        return 0
    sp = scale_params(k)
    if lag_namespace(k) and j >= sp.d // 2:
        u = uniform01(spec.seed, TAG_FIELD, k, i, 1, j - sp.d + spec.origin)
    else:
        u = uniform01(spec.seed, TAG_FIELD, k, i, j + spec.origin)
    if u < sp.q / 2:
        return 1
    if u < sp.q:
        return -1
    return 0


def f_k_at(spec: FieldSpec, k: int, i: int, t: int) -> int:
    """Block function of scale k at time t: lead window minus lagged window."""
    sp = scale_params(k)
    total = 0
    for j in range(sp.p):
        total += field_value(spec, k, i, t + j)
        total -= field_value(spec, k, i, t + sp.d + j)
    return total


def f_at(spec: FieldSpec, t: int) -> Tuple[int, ...]:
    """The walk increment at time t (one entry per coordinate)."""
    mult = 2 if spec.doubling else 1
    out = []
    for i in range(1, spec.dimension + 1):
        s = 0
        for k in range(spec.k_min, spec.k_max + 1):
            s += f_k_at(spec, k, i, t)
        out.append(mult * s)
    return tuple(out)


def oracle_sums(spec: FieldSpec, window: Tuple[int, int]) -> np.ndarray:
    """S_t for t in [a, b] summed from f_at: shape (b - a + 1, dimension).

    S_t is the sum of f over [0, t) for t >= 0 and minus the sum over
    [t, 0) for t < 0.
    """
    a, b = window
    incr = np.array([f_at(spec, t) for t in range(a, b)],
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
