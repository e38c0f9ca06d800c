"""Scalar reference implementations of the field, one PRF call per value.

The library evaluates field values and partial sums only through the
vectorized kernel in ``recurlab.fields``. These functions compute the same
quantities straight from the definitions, one address at a time, so that
tests can check the kernel against an independent implementation.
"""

from typing import Optional, Tuple

import numpy as np

from recurlab.fields import TAG_FIELD, FieldSpec, lag_namespace, scale_params
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
