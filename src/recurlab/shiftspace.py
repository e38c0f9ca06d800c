"""Lazy binary configurations.

A configuration omega in {0,1}^(Z^d) is realized lazily: each site bit is a
pure PRF function of the seed, so infinite configurations cost nothing and
revisiting a site is consistent. The transformed configurations of the
twisted dynamics are read through ``ranges.PermutationView``, which pulls
each requested address back to a site of the base configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

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

    def bit(self, u: Site) -> int:
        coords = _as_tuple(u)
        if len(coords) != self.dimension:
            raise ValueError(f"site {u} has wrong dimension")
        # the 0 after the tag is a fixed address word; every bit depends on it
        return hash_words(self.seed, TAG_OMEGA, 0, *coords) & 1

    def bits_1d(self, u: np.ndarray) -> np.ndarray:
        """Vectorized bits along the line (dimension 1 only)."""
        if self.dimension != 1:
            raise ValueError("bits_1d needs a one-dimensional configuration")
        return self.bits(self.seed, np.asarray(u, dtype=np.int64)[..., None])

    @staticmethod
    def bits(seeds, sites: np.ndarray) -> np.ndarray:
        """Bits of many configurations at once: entry e is
        ``OmegaConfig(seeds[e], d).bit(sites[e])``, where ``sites`` is an
        int64 array of shape (..., d) and ``seeds`` broadcasts against
        ``sites.shape[:-1]``."""
        sites = np.asarray(sites, dtype=np.int64)
        h = hash_words_vec(np.asarray(seeds, dtype=np.uint64), (TAG_OMEGA, 0),
                           *np.moveaxis(sites, -1, 0))
        return (h & np.uint64(1)).astype(np.int64)
