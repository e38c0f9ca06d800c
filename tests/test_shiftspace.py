import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab.shiftspace import (
    BaseView,
    FlipView,
    OmegaConfig,
    PermuteView,
    ShiftView,
    iterate_tilde_S_1d,
    tilde_S_1d,
    tilde_S_power_bit_1d,
    tilde_T,
)


class TestOmegaConfig:
    def test_deterministic(self):
        cfg = OmegaConfig(seed=1, dimension=2)
        assert cfg.bit((3, -4)) == cfg.bit((3, -4))

    def test_streams_differ(self):
        a = OmegaConfig(seed=1, dimension=1, stream=0)
        b = OmegaConfig(seed=1, dimension=1, stream=1)
        assert any(a.bit(u) != b.bit(u) for u in range(64))

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
