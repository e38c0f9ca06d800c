import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_scale_pmf, exact_walk_pmf, oracle_logphi, rational_q
from recurlab import pmf as pmf_module
from recurlab.experiments import mixing_probe
from recurlab.fields import FieldSpec, ForcedWindow, default_k_max, scale_params
from recurlab.pmf import (
    SERIES_TOL,
    SIGMA2,
    GroupedLaw,
    IntegerPmf,
    grouped_law,
    lclt_deviation,
    peak_probability_sweep,
    point_mass,
    scale_groups,
    walk_pmf,
)

# ---------------------------------------------------------------------------
# brute-force oracle: enumerate every participating field value of one scale
# directly from the definition of the block function, with exact dyadic
# probabilities. Independent of the profile/grouping code paths under test.


def _oracle_scale_law(k, n, q):
    sp = scale_params(k)
    coords = sorted(
        {t + j for t in range(n) for j in range(sp.p)}
        | {t + sp.d + j for t in range(n) for j in range(sp.p)}
    )
    index = {m: i for i, m in enumerate(coords)}
    coeff = np.zeros(len(coords), dtype=np.int64)
    for t in range(n):
        for j in range(sp.p):
            coeff[index[t + j]] += 1
            coeff[index[t + sp.d + j]] -= 1
    m = len(coords)
    total = 3**m
    half = q / 2
    stay = 1 - q
    law = {}
    chunk = 200_000
    powers = 3 ** np.arange(m, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % 3 - 1
        sums = digits @ coeff
        nonzeros = np.abs(digits).sum(axis=1)
        # one int64 key per (sum, nonzero count) pair, since 0 <= nz <= m;
        # a 1-D unique sorts far faster than the row-wise unique(axis=0)
        keys, counts = np.unique(sums * (m + 1) + nonzeros, return_counts=True)
        for key, cnt in zip(keys, counts):
            s, nz = divmod(int(key), m + 1)
            prob = int(cnt) * half ** nz * stay ** (m - nz)
            law[s] = law.get(s, Fraction(0)) + prob
    return law


def _convolve_laws(a, b):
    out = {}
    for x, px in a.items():
        for y, py in b.items():
            out[x + y] = out.get(x + y, Fraction(0)) + px * py
    return out


def _brute_groups(k, n):
    """scale_groups from the definition: the trapezoid counts the pairs
    (j, l) in [0, n) x [0, p) with j + l = m, the lag window subtracts it d_k
    later (a gap of zeros between the two windows is left out), and
    np.unique groups the nonzero |coefficients|."""
    sp = scale_params(k)
    w = np.convolve(np.ones(n, dtype=np.int64), np.ones(sp.p, dtype=np.int64))
    shift = min(sp.d, w.size)
    c = np.zeros(w.size + shift, dtype=np.int64)
    c[: w.size] += w
    c[shift:] -= w
    vals, counts = np.unique(np.abs(c), return_counts=True)
    return vals[vals > 0], counts[vals > 0]


def _single_scale_pmf(k, n):
    spec = FieldSpec(seed=0, dimension=1, k_min=k, k_max=k, doubling=False)
    return walk_pmf(spec, n)[0]


def _assert_groups(k, n, values, counts):
    got_v, got_c = scale_groups(k, n)
    assert got_v.dtype == np.int64 and got_c.dtype == np.int64
    assert got_v.tolist() == list(values) and got_c.tolist() == list(counts)


class TestScaleGroups:
    def test_matches_brute_force(self):
        # both branches and the switch between them: a scale is split
        # once d_k >= n + p_k, which happens inside this range for k <= 4
        for k in range(1, 14):
            for n in list(range(1, 300)) + [511, 512, 513, 1024, 2048, 4096]:
                _assert_groups(k, n, *(x.tolist() for x in _brute_groups(k, n)))


class TestWeightProfile:
    """Split scales: the groups are the histogram of the trapezoid weight
    profile, once for the lead window and once for the lag window."""

    def test_small_trapezoid(self):
        _assert_groups(2, 3, [1, 2, 3], [4, 4, 4])  # [1, 2, 3, 3, 2, 1] twice

    def test_short_lead(self):
        _assert_groups(2, 1, [1], [8])  # [1, 1, 1, 1] twice
        _assert_groups(2, 2, [1, 2], [4, 6])  # [1, 2, 2, 2, 1] twice

    def test_invalid(self):
        with pytest.raises(ValueError):
            scale_groups(2, 0)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=600))
    def test_invariants(self, k, n):
        sp = scale_params(k)
        values, counts = scale_groups(k, n)
        assert (values > 0).all() and (np.diff(values) > 0).all()
        assert (counts > 0).all()
        if sp.d >= n + sp.p:
            assert (values * counts).sum() == 2 * n * sp.p
            assert counts.sum() == 2 * (n + sp.p - 1)
            assert values.tolist() == list(range(1, min(n, sp.p) + 1))
        else:
            assert (values * counts).sum() <= 2 * n * sp.p


class TestCoefficientProfile:
    """Overlapping scales: the lag window starts before the lead window
    ends, so atoms shared by both cancel in part."""

    def test_modes(self):
        # (1, 1) overlaps: d = 2 < 1 + 3, and [1, 1, 1] minus its shift by 2
        # is [1, 1, 0, -1, -1]
        _assert_groups(1, 1, [1], [4])
        # (2, 1) is split: d = 16 >= 1 + 4
        _assert_groups(2, 1, [1], [8])
        # (2, 13) takes the overlapping branch (16 < 13 + 4), but the lag
        # window starts right where the lead one ends, so nothing cancels
        _assert_groups(2, 13, [1, 2, 3, 4], [4, 4, 4, 20])

    def test_signed_sum_zero(self):
        # (1, 4): trapezoid [1, 2, 3, 3, 2, 1] minus its shift by d = 2 gives
        # [1, 2, 2, 1, -1, -2, -2, -1], which sums to zero
        values, counts = scale_groups(1, 4)
        assert values.tolist() == [1, 2] and counts.tolist() == [4, 4]
        assert counts.sum() == 4 + 3 - 1 + 2


class TestExactRational:
    def test_single_block_return_probability(self):
        law = exact_scale_pmf(1, 1)
        assert law[0] == Fraction(867, 2048)
        assert sum(law.values()) == 1

    def test_rational_q_values(self):
        assert rational_q(1) == Fraction(1, 4)
        assert rational_q(2) == Fraction(1, 32)
        with pytest.raises(ValueError):
            rational_q(3)

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_matches_enumeration_oracle(self, k, n):
        oracle = _oracle_scale_law(k, n, rational_q(k))
        law = exact_scale_pmf(k, n)
        assert law == oracle

    def test_symmetry(self):
        law = exact_scale_pmf(2, 2)
        assert all(law[s] == law[-s] for s in law)

    def test_walk_combines_scales(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=2, doubling=False)
        combined = exact_walk_pmf(spec, 2)
        oracle = _convolve_laws(_oracle_scale_law(1, 2, rational_q(1)),
                                _oracle_scale_law(2, 2, rational_q(2)))
        assert combined == oracle

    def test_walk_doubling_reindexes(self):
        base = FieldSpec(seed=0, dimension=1, k_max=2, doubling=False)
        doubled = FieldSpec(seed=0, dimension=1, k_max=2, doubling=True)
        lb = exact_walk_pmf(base, 2)
        ld = exact_walk_pmf(doubled, 2)
        assert ld == {2 * s: m for s, m in lb.items()}


class TestFloatAgainstExact:
    @pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (2, 1), (2, 3), (2, 14)])
    def test_scale_pmf(self, k, n):
        exact = exact_scale_pmf(k, n)
        pmf = _single_scale_pmf(k, n)
        for s, m in exact.items():
            assert pmf.prob(s) == pytest.approx(float(m), abs=1e-12)
        assert pmf.total() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_walk_pmf(self, n):
        spec = FieldSpec(seed=0, dimension=1, k_max=2, doubling=False)
        exact = exact_walk_pmf(spec, n)
        pmf, report = walk_pmf(spec, n)
        for s, m in exact.items():
            assert pmf.prob(s) == pytest.approx(float(m), abs=1e-12)
        assert report.alias_bound < 1e-6 or pmf.total() == pytest.approx(1.0, abs=1e-12)

    def test_walk_pmf_2d_doubling(self):
        # walk_pmf gives one coordinate's law; a 2-D walk's law is the
        # product of two independent copies of it
        with pytest.raises(ValueError, match="1-D"):
            walk_pmf(FieldSpec(seed=0, dimension=2, k_max=2, doubling=True), 2)
        spec = FieldSpec(seed=0, dimension=1, k_max=2, doubling=True)
        law, _ = walk_pmf(spec, 2)
        exact = exact_walk_pmf(spec, 2)
        assert law.prob(0) ** 2 == pytest.approx(float(exact[0]) ** 2, abs=1e-12)
        assert law.prob(1) == 0.0  # doubled walk lives on even sites


def _variance(pmf: IntegerPmf) -> float:
    js = pmf.support.astype(np.float64)
    mean = float(js @ pmf.mass)
    return float((js - mean) ** 2 @ pmf.mass)


class TestIntegerPmfOps:
    def test_point_mass(self):
        pm = point_mass(3)
        assert pm.prob(3) == 1.0 and pm.prob(0) == 0.0

    def test_stretch(self):
        pmf = IntegerPmf(offset=-1, mass=np.array([0.25, 0.5, 0.25]))
        st2 = pmf.stretch(2)
        assert st2.prob(-2) == 0.25 and st2.prob(0) == 0.5 and st2.prob(1) == 0.0

    def test_interval_mass(self):
        pmf = IntegerPmf(offset=-1, mass=np.array([0.2, 0.5, 0.3]))
        assert pmf.interval_mass(-1, 0) == pytest.approx(0.7)
        assert pmf.interval_mass(5, 9) == 0.0

    def test_prune_tracks_lost_mass(self):
        pmf = IntegerPmf(offset=0, mass=np.array([1e-20, 0.5, 0.5, 1e-20]))
        pruned = pmf.prune()
        assert pruned.mass.size == 2
        # pytest.approx keeps a 1e-12 absolute tolerance by default, which
        # would also pass pruned == 0
        assert pruned.pruned == pytest.approx(2e-20, rel=1e-12, abs=0)

    def test_variance_of_rademacher(self):
        # the variance helper that test_variance_identity relies on
        pmf = IntegerPmf(offset=-1, mass=np.array([0.5, 0.0, 0.5]))
        assert _variance(pmf) == pytest.approx(1.0)


class TestModerateSizeLaw:
    def test_mass_and_symmetry_n64(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=8, doubling=False)
        pmf, report = walk_pmf(spec, 64)
        assert pmf.total() == pytest.approx(1.0, abs=1e-9)
        assert pmf.max_asymmetry() < 1e-12
        assert report.alias_bound < 1.0

    def test_variance_identity(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=8, doubling=False)
        pmf, _ = walk_pmf(spec, 64)
        law = grouped_law(1, 8, 64)
        assert _variance(pmf) == pytest.approx(law.variance(), rel=1e-6)

    def test_variance_band_structure(self):
        # per-step variance sits in the right band: the limit 2 (ln 2)^2 is
        # approached only at ln-ln speed, so at n = 512 we check the bracket
        # and that short-lag (overlapping) scales contribute almost nothing
        law = grouped_law(1, 12, 512)
        per_step = law.variance() / 512
        assert 0.8 * SIGMA2 < per_step < 2.0 * SIGMA2
        deep_overlap = sum(
            grouped_law(k, k, 512).variance()
            for k in (1, 2)  # d_k << n: lead and lag windows nearly cancel
        )
        assert deep_overlap < 0.05 * law.variance()

    def test_zero_and_degenerate_specs(self):
        zero = FieldSpec(seed=0, dimension=1, k_max=3, zero=True)
        pmf, _ = walk_pmf(zero, 10)
        assert pmf.prob(0) == 1.0
        pmf0, _ = walk_pmf(FieldSpec(seed=0, dimension=1, k_max=3, doubling=False), 0)
        assert pmf0.prob(0) == 1.0

    def test_forced_spec_rejected(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=3,
                         windows=(ForcedWindow(k=1, i=1, lo=0, hi=1, value=1),))
        with pytest.raises(ValueError):
            walk_pmf(spec, 4)


# every k_max from 6 to 16 against the n at which the kernel's cases turn:
# n = 1, 2 put every scale on the direct product, and between n = 503 and
# 504 scale 3 (p = 9, d = 512) turns from split into overlapping
KERNEL_CASES = [(6, 1), (16, 2), (7, 7), (15, 64), (8, 503), (13, 503),
                (9, 504), (12, 504), (14, 1024), (10, 2048), (11, 4096)]


def _remainder(q, atoms, M):
    return atoms * (2 * q) ** (M + 1) / ((M + 1) * (1 - 2 * q))


def _on_one_support(a, b):
    lo = min(a.offset, b.offset)
    hi = max(a.offset + a.mass.size, b.offset + b.mass.size)
    out = np.zeros((2, hi - lo))
    for row, pmf in zip(out, (a, b)):
        row[pmf.offset - lo : pmf.offset - lo + pmf.mass.size] = pmf.mass
    return out


class TestLogCfKernel:
    # the histogram FFT against the dense product over every
    # (group, grid point) pair, which it replaces

    @pytest.mark.parametrize("k_max,n", KERNEL_CASES)
    @pytest.mark.parametrize("grid", [64, 4096])
    def test_log_cf_matches_dense(self, k_max, n, grid):
        # at grid 64 most coefficients exceed the grid and wrap around it
        law = grouped_law(1, k_max, n)
        got = pmf_module._log_cf(law, grid)
        assert np.abs(got - oracle_logphi(law, grid)).max() <= 1e-11

    @pytest.mark.parametrize("k_max,n", KERNEL_CASES)
    def test_pmf_matches_dense(self, k_max, n, monkeypatch):
        spec = FieldSpec(seed=0, dimension=1, k_max=k_max, doubling=False)
        new, report = walk_pmf(spec, n)
        monkeypatch.setattr(pmf_module, "_log_cf", oracle_logphi)
        old, dense_report = walk_pmf(spec, n)
        assert report == dense_report
        a, b = _on_one_support(new, old)
        assert np.abs(a - b).max() <= 1e-13

    @pytest.mark.parametrize("k", range(1, 17))
    @pytest.mark.parametrize("n", [1, 504, 16384])
    def test_series_order_meets_remainder_bound(self, k, n):
        q = scale_params(k).q
        atoms = float(scale_groups(k, n)[1].sum())
        b = pmf_module._log_series(q, atoms)
        M = b.size - 1
        assert _remainder(q, atoms, M) < SERIES_TOL
        # and M is the first order that does
        assert M == 1 or _remainder(q, atoms, M - 1) >= SERIES_TOL
        # the truncated cosine series is log(1 - q + q cos x) to that bound
        x = np.linspace(0.0, np.pi, 257)
        series = -np.cos(np.outer(x, np.arange(M + 1))) @ b
        exact = np.log1p(-q * (1.0 - np.cos(x)))
        rounding = 8 * np.finfo(float).eps
        assert np.abs(series - exact).max() <= SERIES_TOL / atoms + rounding

    def test_series_needs_two_q_below_one(self):
        law = GroupedLaw(values=np.array([1, 2, 3]), counts=np.array([4, 4, 2]),
                         qs=np.full(3, 0.5), ks=np.full(3, 5))
        with pytest.raises(ValueError, match="scale 5"):
            pmf_module._log_cf(law, 64)

    def test_walk_pmf_at_n_16384(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=default_k_max(16384),
                         doubling=False)
        pmf, report = walk_pmf(spec, 16384)
        assert abs(pmf.total() - 1.0) <= 1e-9
        assert pmf.max_asymmetry() == 0.0
        assert report.alias_bound <= 1e-10


class TestPeakSweep:
    def test_matches_full_inversion(self):
        sweep = peak_probability_sweep(12, k_max=4, grid=1024)
        for n in range(1, 13):
            spec = FieldSpec(seed=0, dimension=1, k_max=4, doubling=False)
            pmf, _ = walk_pmf(spec, n)
            assert sweep[n - 1] == pytest.approx(pmf.prob(0), abs=1e-10)

    def test_monotone_decay_trend(self):
        sweep = peak_probability_sweep(64, k_max=7)
        assert sweep[-1] < sweep[0]
        assert (sweep > 0).all() and (sweep <= 1).all()

    def test_matches_walk_pmf_to_1e_14(self):
        # the log tables keep log1p's rounding, relative to q (1 - cos); the
        # old log(1 - q + q cos) form was 3.8e-13 off here
        H, k_max, grid = 600, 12, 4096
        sweep = peak_probability_sweep(H, k_max=k_max, grid=grid)
        rows = pmf_module._SWEEP_ELEMS // (grid // 2 + 1)
        ns = {1, 2, H}
        ns |= {n for start in range(1, H + 1, rows) for n in (start - 1, start)}
        for k in range(1, k_max + 1):
            sp = scale_params(k)
            if sp.d >= H + sp.p:  # split over the whole sweep
                ns |= {sp.p - 1, sp.p, sp.p + 1}
        spec = FieldSpec(seed=0, dimension=1, k_max=k_max, doubling=False)
        for n in sorted(n for n in ns if 1 <= n <= H):
            exact = walk_pmf(spec, n)[0].prob(0)
            assert abs(sweep[n - 1] - exact) <= 1e-14 * exact, n


class TestLclt:
    def test_point_mass_deviation(self):
        report = lclt_deviation(point_mass(0), n=1)
        expected = 1.0 - 1.0 / math.sqrt(2 * math.pi * SIGMA2)
        assert report.deviation == pytest.approx(expected, abs=1e-12)
        assert report.deviation == pytest.approx(0.593, abs=1e-3)

    def test_moderate_n_peak(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=9, doubling=False)
        pmf, _ = walk_pmf(spec, 256)
        report = lclt_deviation(pmf, n=256)
        assert 0.2 < report.peak < 1.0
        assert report.deviation < 1.0
        assert report.mass == pytest.approx(1.0, abs=1e-9)


class TestBoxProbability:
    # the mass of the sup-norm box |j|_inf <= M under the 2-D walk is m * m,
    # with m the mass of one coordinate's law on [-M, M]

    def test_monotone_and_total(self):
        spec = FieldSpec(seed=0, dimension=1, k_max=7, doubling=True)
        law, _ = walk_pmf(spec, 32)
        vals = [law.interval_mass(-M, M) ** 2 for M in (0, 4, 16, 64, 10**6)]
        assert vals == sorted(vals)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_negative_box_rejected(self):
        spec = FieldSpec(seed=0, dimension=2, k_max=3, doubling=True)
        with pytest.raises(ValueError, match="M must be"):
            mixing_probe(spec, M=-1, H=128, samples=10, n_min=64)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=10))
def test_scale_pmf_is_probability(k, n):
    pmf = _single_scale_pmf(k, n)
    assert pmf.total() == pytest.approx(1.0, abs=1e-9)
    assert (pmf.mass >= 0).all()
    assert pmf.max_asymmetry() < 1e-12
