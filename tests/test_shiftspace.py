"""Configurations, and the twisted shift dynamics in one dimension.

The view stack below realizes transformed configurations (shift, flip,
site permutation) by pulling the requested address back through the
transformations instead of materializing anything. The flip involution
fixes the origin bit and complements every other site; conjugating the
unit shift by it gives the second ("twisted") transformation, whose m-th
power has a closed form that the tests check against naive iteration.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab.shiftspace import OmegaConfig, Site, _as_tuple


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


class TestOmegaConfig:
    def test_deterministic(self):
        cfg = OmegaConfig(seed=1, dimension=2)
        assert cfg.bit((3, -4)) == cfg.bit((3, -4))

    def test_fair_marginal(self):
        cfg = OmegaConfig(seed=7, dimension=1)
        bits = cfg.bits_1d(np.arange(10**6))
        se = 0.5 / 1000.0
        assert abs(bits.mean() - 0.5) < 4 * se

    def test_vec_matches_scalar(self):
        cfg = OmegaConfig(seed=3, dimension=1)
        u = np.arange(-50, 50)
        vec = cfg.bits_1d(u)
        assert all(vec[i] == cfg.bit(int(x)) for i, x in enumerate(u))

    def test_bits_match_scalar_on_2d_sites(self):
        # one seed per site, negative coordinates and +-2^62 included
        rng = np.random.default_rng(4)
        sites = rng.integers(-2**40, 2**40, size=(300, 2))
        sites[:8] = [[0, 0], [-1, 1], [2**62, -(2**62)], [-(2**62), 2**62],
                     [2**62, 2**62], [-(2**62), -(2**62)], [-3, -5], [1, 0]]
        seeds = rng.integers(0, 2**64, size=300, dtype=np.uint64)
        bits = OmegaConfig.bits(seeds, sites)
        assert bits.shape == (300,)
        for seed, site, b in zip(seeds.tolist(), sites.tolist(), bits.tolist()):
            assert b == OmegaConfig(seed=seed, dimension=2).bit(tuple(site))
        # a scalar seed broadcasts against every site
        one = OmegaConfig.bits(11, sites.reshape(30, 10, 2))
        cfg = OmegaConfig(seed=11, dimension=2)
        assert one.shape == (30, 10)
        assert one.ravel().tolist() == [cfg.bit(tuple(u)) for u in sites.tolist()]

    def test_dimension_checked(self):
        cfg = OmegaConfig(seed=3, dimension=2)
        with pytest.raises(ValueError):
            cfg.bit(5)
        with pytest.raises(ValueError):
            OmegaConfig(seed=3, dimension=2).bits_1d(np.arange(3))


class TestViews:
    def test_shift_pullback(self):
        cfg = OmegaConfig(seed=11, dimension=1)
        view = ShiftView(BaseView(cfg), 4)
        assert view.bit(3) == cfg.bit(7)

    def test_shift_2d(self):
        cfg = OmegaConfig(seed=11, dimension=2)
        view = ShiftView(BaseView(cfg), (2, -5))
        assert view.bit((1, 1)) == cfg.bit((3, -4))

    def test_flip_fixes_origin(self):
        for seed in range(8):
            cfg = OmegaConfig(seed=seed, dimension=1)
            assert FlipView(BaseView(cfg)).bit(0) == cfg.bit(0)
            assert FlipView(BaseView(cfg)).bit(5) == cfg.bit(5) ^ 1

    def test_flip_involution(self):
        cfg = OmegaConfig(seed=5, dimension=2)
        sites = [(0, 0), (1, 0), (-3, 7), (2, 2)]
        twice = FlipView(FlipView(BaseView(cfg)))
        assert all(twice.bit(u) == cfg.bit(u) for u in sites)

    def test_permute_view(self):
        cfg = OmegaConfig(seed=9, dimension=1)
        view = PermuteView(BaseView(cfg), lambda u: -u)
        assert view.bit(6) == cfg.bit(-6)
        assert view.bit(0) == cfg.bit(0)

    def test_shift_dimension_mismatch(self):
        cfg = OmegaConfig(seed=9, dimension=2)
        view = ShiftView(BaseView(cfg), 3)
        with pytest.raises(ValueError):
            view.bit((1, 2))


class TestTwistedDynamics:
    def test_tilde_T_composes_through_walk_sums(self):
        cfg = OmegaConfig(seed=21, dimension=1)
        # shifting by S_n then by S_m' equals shifting by their sum
        a = tilde_T(tilde_T(BaseView(cfg), 5), -2)
        b = tilde_T(BaseView(cfg), 3)
        assert all(a.bit(u) == b.bit(u) for u in range(-6, 6))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=-6, max_value=6),
           st.integers(min_value=0, max_value=2**31))
    def test_closed_form_matches_iteration(self, m, u, seed):
        view = BaseView(OmegaConfig(seed=seed, dimension=1))
        iterated = iterate_tilde_S_1d(view, m)
        assert iterated.bit(u) == tilde_S_power_bit_1d(view, m, u)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8),
           st.integers(min_value=-5, max_value=5))
    def test_power_additivity(self, a, b, u):
        view = BaseView(OmegaConfig(seed=99, dimension=1))
        # apply b, then a on the resulting configuration, vs a + b at once
        mid_bit = lambda w: tilde_S_power_bit_1d(view, b, w)  # noqa: E731

        class _Mid:
            def bit(self, w):
                return mid_bit(w)

        lhs = tilde_S_power_bit_1d(_Mid(), a, u)
        rhs = tilde_S_power_bit_1d(view, a + b, u)
        assert lhs == rhs

    def test_single_step_matches_definition(self):
        view = BaseView(OmegaConfig(seed=4, dimension=1))
        stepped = tilde_S_1d(view)
        for u in range(-4, 5):
            assert stepped.bit(u) == tilde_S_power_bit_1d(view, 1, u)
