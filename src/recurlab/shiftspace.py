"""Lazy binary configurations and twisted shift dynamics.

A configuration omega in {0,1}^(Z^d) is realized lazily: each site bit is a
pure PRF function of the seed, so infinite configurations cost nothing and
revisiting a site is consistent. Transformed configurations are represented
as views (shift, flip, site permutation) that pull the requested address
back through the transformation stack instead of materializing anything.

The flip involution fixes the origin bit and complements every other site;
conjugating the unit shift by it gives the second ("twisted") transformation
in one dimension, for which a closed form of the m-th power is available
and checked against naive iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .fields import TAG_OMEGA
from .prf import hash_words, hash_words_vec

Site = Union[int, Tuple[int, ...]]


def _as_tuple(u: Site) -> Tuple[int, ...]:
    if isinstance(u, (int, np.integer)):
        return (int(u),)
    return tuple(int(x) for x in u)


@dataclass(frozen=True)
class OmegaConfig:
    """An i.i.d. fair-bit configuration addressed by lattice site."""

    seed: int
    dimension: int = 1
    stream: int = 0

    def bit(self, u: Site) -> int:
        coords = _as_tuple(u)
        if len(coords) != self.dimension:
            raise ValueError(f"site {u} has wrong dimension")
        return hash_words(self.seed, TAG_OMEGA, self.stream, *coords) & 1

    def bits_1d(self, u: np.ndarray) -> np.ndarray:
        """Vectorized bits along the line (dimension 1 only)."""
        if self.dimension != 1:
            raise ValueError("bits_1d needs a one-dimensional configuration")
        h = hash_words_vec(self.seed, (TAG_OMEGA, self.stream),
                           np.asarray(u, dtype=np.int64))
        return (h & np.uint64(1)).astype(np.int64)


class View:
    """A configuration obtained from another by an invertible site map
    and/or bitwise complement pattern; evaluated by address pullback."""

    def bit(self, u: Site) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class BaseView(View):
    config: OmegaConfig

    def bit(self, u: Site) -> int:
        return self.config.bit(u)


@dataclass(frozen=True)
class ShiftView(View):
    """(sigma_v rho)(u) = rho(u + v)."""

    inner: View
    v: Site

    def bit(self, u: Site) -> int:
        uu, vv = _as_tuple(u), _as_tuple(self.v)
        if len(uu) != len(vv):
            raise ValueError("shift vector dimension mismatch")
        return self.inner.bit(tuple(a + b for a, b in zip(uu, vv)))


@dataclass(frozen=True)
class FlipView(View):
    """(phi rho)(u) = rho(u) complemented away from the origin."""

    inner: View

    def bit(self, u: Site) -> int:
        origin = all(c == 0 for c in _as_tuple(u))
        return self.inner.bit(u) ^ (0 if origin else 1)


@dataclass(frozen=True)
class PermuteView(View):
    """(Psi_pi rho)(u) = rho(pi(u)) for a site bijection pi."""

    inner: View
    pi: Callable[[Site], Site]

    def bit(self, u: Site) -> int:
        return self.inner.bit(self.pi(u))


def tilde_T(view: View, step: Site) -> View:
    """Configuration part of the skew product: one application shifts by the
    walk increment; n applications shift by S_n."""
    return ShiftView(view, step)


def tilde_S_1d(view: View) -> View:
    """The twisted second transformation: unit shift conjugated by the flip
    (the flip is an involution, so conjugation needs no separate inverse)."""
    return FlipView(ShiftView(FlipView(view), 1))


def tilde_S_power_bit_1d(view: View, m: int, u: int) -> int:
    """Closed form of (tilde_S^m rho)(u) for integer m.

    Conjugation telescopes: the inner flips cancel pairwise, leaving
    rho(u + m) XOR [u + m != 0] XOR [u != 0].
    """
    return view.bit(u + m) ^ (0 if u + m == 0 else 1) ^ (0 if u == 0 else 1)


def iterate_tilde_S_1d(view: View, m: int) -> View:
    if m < 0:
        raise ValueError("naive iteration is forward-only")
    for _ in range(m):
        view = tilde_S_1d(view)
    return view

