"""Pinned report bytes: every CLI command at a fixed seed must keep writing
exactly the files it wrote when these digests were taken.

``test_12_reproducibility`` compares two runs inside one process, so it
cannot see a change between versions of the code. These digests can: a
refactor that claims to keep every report byte-identical must pass them
unchanged. They hold for the versions in ``TAKEN_WITH`` (x86-64 Linux);
reports that hold floating-point results from FFTs and vectorized numpy
kernels (lclt, mixing, gauss) may differ in the last digits under other
numpy builds, and gauss draws from numpy ``Generator`` streams, whose
distributions numpy does not promise to keep across versions. NumPy 2.3
and later need Python 3.11, so an install on Python 3.10 resolves an older
numpy than these. A failing digest names both version sets. No report
depends on scipy: gauss's covariance r(0..H) is a fixed Gauss-Legendre
rule evaluated by numpy, its series tail is a closed form
(``gaussian.power_tail``), and its normal tail is ``math.erfc``, whose last
bits no report reads (``test_gauss_digests_ignore_normal_tail_last_bits``).

The lclt and mixing digests were re-pinned when the log characteristic
function moved from a dense product over every (group, grid point) pair to
a per-scale histogram FFT: their masses and box probabilities changed in
the last digits, and both reports gained the law's error ledger (aliasing
bound, pruned mass and truncation tail variance per n).

The recur2 digests (report.json and decay.csv) were re-pinned when the peak
sweep moved from log(1 - q + q cos) per (n, group) to per-scale log1p
tables: the old form rounded 1 - q to a double and was up to 3.8e-13
relative off the exact p_n(0), the new one is within 1e-14
(``test_pmf.py::TestPeakSweep``). At this seed the a_n, partial sums,
``envelope_c``, ``tail`` and ``total`` moved by at most 2.4e-13 relative.

They were re-pinned again when the sweep came to cost a fixed number of
array passes per row: one shared table pair for the rising split scales,
an affine term for the plateaued ones, one matmul for the overlapping ones,
and numpy's pairwise row sums in place of a BLAS matrix-vector product.
Only the order of the floating-point sums changed. On the sweep's own grid,
at every seventh n up to H = 600, it is within 7.8e-16 relative of
``walk_pmf`` (1.8e-15 before).
At this seed 106 of the 120 a_n moved, by at most 3.6e-15 relative;
``envelope_c`` moved by 2.2e-16, ``tail`` by 4.4e-16 and ``total`` by
4.4e-16 relative.

The gauss digest was re-pinned once, after two changes. The covariance
table moved from one adaptive quadrature per lag to one fixed
Gauss-Legendre rule over all lags; alone, that left gauss.json
byte-identical at seeds 0 and 3. Then ``triple_probability`` took its
draws from ``prf.derive_rng`` keyed by (seed, tag, n) instead of
``default_rng((seed << 20) ^ n)``, which changes the Monte Carlo estimates
themselves; all 30 seeds 0..29 of ``gauss --param mc=20000`` still report
verdict ``ok``.

Every JSON digest was re-pinned when the CLI came to accept only the keys
its runners read: each report's config lost ``emit_plot_data``, and
gauss.json also lost ``c`` and ``d`` from its config and its report. No
other byte moved: with those keys deleted, each new report equals the old
one at this seed. lclt.csv and gauss_decay.csv, which lclt and gauss now
always write, were pinned then; they equal what the old code wrote with
``--emit-plot-data``.

The recur3 digest was re-pinned when the schedule engine came to draw each
axis's gap aggregates in one array call, a multinomial count of every
gap's +1 and -1 values, in place of a loop of a binomial count and a
binomial of its signs per gap. The aggregates keep their law but consume
the keyed stream in another way, so the range tables and the pool's
complement profile moved (at this seed the probe's counts did not); the
probe still reports no violation and no identity failure. The pool-wide
dense axes and the array form of the probe that came with it left
recur3.json byte-identical.

The scatter path-sum kernel over nonzero field values and the plain-Python
Hurwitz zeta of recur2's and gauss's tails left every digest unchanged. So
did gauss's covariance rule shared by every lag (one cumulative sum over
half-period panels) and its sampler drawing the imaginary parts a block at
a time.

The gauss digests were re-pinned again when the triple probabilities
became exact: one fixed Gauss-Legendre rule over all lags replaced one
Monte Carlo stream per lag, the paths came to be conditioned on X_0 > 1
by a shift instead of by rejection, and ``mc`` came to size one Monte
Carlo stream shared by every lag, whose largest deviation from the exact
values the report holds as ``mc_max_z``. At this seed the estimates at
n = 1..4 moved from 0.008, 0.002, 0.001 and 0.0005 (2,000 draws each) to
0.0095867, 0.0019849, 0.00085634 and 0.00035682; ``summability_total``
moved from 0.33139123309415314 to 0.3314184896484828; ``measure_D`` stayed
1.0 and the verdict ``ok``; ``mc_max_z`` reads 2.11. All 30 seeds 0..29
of ``gauss --param mc=20000`` still report verdict ``ok``.

The mixing.json digest was re-pinned when the probe came to draw S_n by
inverse CDF from the exact law it computes at n = H, in place of an
approximate law sampler that drew the amplitudes of the fired atoms with
replacement, and to draw the configuration bits as arrays in place of a
per-sample loop. Both consume their keyed streams in another way, so only
``joint_estimate``, ``correlation`` and ``se`` moved; boxes.csv, which holds
the exact box probabilities, is unchanged.

The model came to hold no covariance table: each gauss run computes
r(0..H) once and passes that array to the sampler, the conditioning and
the twist. No digest moved. The case ``gauss-600`` was pinned before that
change, with the table still in place; it is the one case that reads lags
past 512, where the fitted table used to end. Nor did the aliasing bound
moving to 0 once the grid's half-width exceeds the largest |S_n|: at every
pinned n the half-width is within the support.

The recur2 report.json and recur3.json digests were re-pinned when every
field scale from k = 3 on came to be realized in keyed blocks: one hash of
(seed, block) for a block's binomial count and one hash per drawn
position, in place of one hash per value (and, in the schedule engine,
positions drawn from a stream per axis for k > 10). The law is the same
i.i.d. three-valued one; the values are other ones. At this seed recur2's
verdict stays ``ok`` with no violation, and ``measure_A`` and
``measure_D`` moved from 0.95 to 0.85 (40 samples); decay.csv, which holds
exact probabilities, is unchanged. recur3's ``choose_k`` now picks k = 3
(total 0.185) where it picked k = 4 (total 0.112); its probe still reports
no violation and no identity failure over 20 of 20 samples. certify-range
reads keyed blocks at its unforced scales 3 and 4, but its report holds
only failure counts, which stay 0, the floor of the forced band and exact
probabilities, so certify.json did not move; no other digest did. Building
the peak sweep's rows from scale_groups' closed form before the lag window
meets the lead window moved no bit of decay.csv either.

The gauss and gauss-600 digests were re-pinned when the triple rule came
to read the probability as an equal-threshold bivariate-normal orthant:
by Owen's T, one integral in np.exp alone replaced an outer rule whose
every node carried an inner rule for 2 Phi - 1. The exact values moved by
at most 8.9e-16 relative (``estimates`` and gauss_decay.csv), and
``mc_max_z``, which compares them with the Monte Carlo counts, in its last
digit; ``summability_total``, the measures and the verdict ``ok`` did not
move. No other digest moved.

No digest moved when the field lost its forced windows. certify-range's
first coordinate now reads only the scales below kappa, and the goal
event's band, every value of which the window reads is fixed, enters in
closed form as 2 y_floor t; its floor and log-probability come from the
plan. The cases ``certify-range-N1`` (kappa = 1, so the first coordinate
reads no scale) and ``certify-range-C400`` (a band of four scales, k = 5..8,
the last with its lag in its own namespace) were pinned before that change.
Nor did recur3.json move when the section-3 probe came to list
``uncovered`` by n instead of in the order of each n's first miss: the
reports sort their keys.

No digest moved when ``FieldSpec`` came to hold only the field's law, with
every reader taking its seeds, and the goal-event plan came to be computed
beside certify-range, with K = max(kappa, 2) and M from the kappa loop.
Nor did one move when the section-3 probe came to take each
configuration's first seed, whose origin bit no witness reads, in place of
re-hashing until that bit is 0: the probe's counts do not read the bits'
values at the origin. The cases ``recur3-auto`` (k chosen by the profile,
with a non-empty ``uncovered``) and ``recur2-zero`` (the zero field, which
exits 1 with verdict ``diverged``) were pinned before those changes.

The recur2, recur2-zero, recur3, recur3-auto, gauss and gauss-600 JSON
digests were re-pinned when every series tail the commands report came to
be one closed-form bound, ``gaussian.power_tail(s, H)`` =
(H + 1/2)^(1-s) / (s - 1) on sum_{n > H} n^-s (n^-s is at most its mean
over [n - 1/2, n + 1/2], as x^-s is convex), in place of the Hurwitz zeta
of recur2's and gauss's tails and of choose_k's integral from H. Against
zeta(s, H + 1), the tails moved by +3.7e-5 relative for gauss (s = 1.2,
H = 16), +2.8e-8 for gauss-600 and +2.2e-6 for recur2 and recur2-zero
(s = 1.5, H = 120), each within s (s - 1) / (24 H^2); ``summability_total``
and recur2's ``total`` moved with them. choose_k's tail fell by 0.62%
(recur3, H = 40) and 0.82% (recur3-auto, H = 30), since the integral from
H exceeds the sum by more; both still pick k = 3. No CSV digest moved, nor
did the certify, lclt or mixing digests. Taking recur2's paths in blocks
of at most 2^20 values moved no byte.

No digest moved when the section-2 and section-3 probes stopped
re-deriving what holds by construction: the extraction writes M = N,
``measure_A`` = ``measure_D`` and no violation, and the section-3 probe,
which no longer hashes a configuration bit, writes no violation and no
identity failure; its coverage counts come from the views' shared fresh
indices alone.
"""

import hashlib
import platform

import numpy as np
import pytest

from recurlab import gaussian
from recurlab.cli import main

# the versions every digest below was taken with
TAKEN_WITH = {"python": "3.11.7", "numpy": "2.4.6"}
RUNNING = {"python": platform.python_version(), "numpy": np.__version__}

GOLDEN = {
    "recur2": (
        ["recur2", "--horizon", "120", "--samples", "40"],
        {"report.json": "66f063fc14dcf85c5091903164316a5c5f758e21ac001293cd601e28ce1d49c1",
         "decay.csv": "4c5ae01cba9f5a69e071617348aca6339f74cd59d6cffc02c4e9bd349c9c8bce"},
    ),
    "recur3": (
        ["recur3", "--horizon", "40", "--samples", "20",
         "--param", "pool_size=7", "--param", "k=5"],
        {"recur3.json": "8ebb5925334e48d02f6993666a467bdbd9f84de982d722646d3e2491de132801"},
    ),
    "recur3-auto": (
        ["recur3", "--horizon", "30", "--samples", "60", "--param", "pool_size=8"],
        {"recur3.json": "14f6203ab2c78062efb43cdb51b9ee28b921323915bc93e3275da13c97f707c7"},
    ),
    "recur2-zero": (
        ["recur2", "--horizon", "120", "--samples", "40", "--param", "zero=true"],
        {"report.json": "4924fa38430acdb3f74bad7b388d2488368d2460ff3d64130fa83b6186eca9e3",
         "decay.csv": "ccacd0510c71e401c1c9dfc3173a3c20be9dd04828cd33836db41d4904c84d09"},
    ),
    "certify-range": (
        ["certify-range", "--samples", "10"],
        {"certify.json": "29ea2c0bd27c09b577de9af5dddda2d22832c4cc9981f7fbebb12e5734142859"},
    ),
    "certify-range-N1": (
        ["certify-range", "--samples", "10", "--param", "N=1"],
        {"certify.json": "f9cfbd1bbad856c7391fd21eba4e558d0e4a9b4c4ebe8fc61d52b999033e790e"},
    ),
    "certify-range-C400": (
        ["certify-range", "--samples", "10", "--param", "C=400"],
        {"certify.json": "0175e8b5afde09e6261d62df5c345142cb6a35f684fb1dbc9a8fe727b8c40b55"},
    ),
    "lclt": (
        ["lclt", "--param", "n_grid=64,128"],
        {"lclt.json": "fe9746b14e142bc9a793be0c2f40ed9659e3e0e82fe611801dcbd17964dda7b0",
         "lclt.csv": "d950ccd8d610f2898815f7663f01a1ab7c9e46f20ac9893e05c4bd57a9199ed6"},
    ),
    "mixing": (
        ["mixing", "--horizon", "128", "--samples", "2000"],
        {"mixing.json": "dc5c5466b0cbe36d986fcbaa6f5278ee4d9ce59ed1672b9f92bd7f4e0be40641",
         "boxes.csv": "fbf21187594081cca6440bfa67cec80d957ca8e0573817d11c1c67dcbf15fba5"},
    ),
    "gauss": (
        ["gauss", "--horizon", "16", "--samples", "100", "--param", "mc=2000"],
        {"gauss.json": "47d84157fb7580058798d2fa39765909b84556d3283e3e78da2f0725127de409",
         "gauss_decay.csv": "d85b2d79fae2fcbc8aed5b305dc7c0e18df516b5439c7885c414092e4d9fad0c"},
    ),
    "gauss-600": (
        ["gauss", "--horizon", "600", "--samples", "100", "--param", "mc=2000"],
        {"gauss.json": "2fe27ce171fc2f94d239af7d24cc73199ba99bec5c17804ef58ddd6940231a29",
         "gauss_decay.csv": "8d28b3ebed6706a8dbc4ec4bdc7dc9213fa30ff9f654050a201776cc8dfc0439"},
    ),
}


# the exit code of each case that does not pass its checks
EXIT = {"recur2-zero": 1}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digests(command, tmp_path):
    argv, digests = GOLDEN[command]
    assert main(argv + ["--seed", "3", "--out", str(tmp_path)]) == EXIT.get(command, 0)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, (
            f"{name}: digests taken with {TAKEN_WITH}, running {RUNNING}")


@pytest.mark.parametrize("scale", [1 + 1e-9, 1 - 1e-9])
def test_gauss_digests_ignore_normal_tail_last_bits(scale, monkeypatch, tmp_path):
    # the normal tail feeds only the envelope test estimate > envelope +
    # 4 SE, so a relative error far above any erfc's leaves gauss's bytes
    # as they are
    exact, calls = gaussian.upper_tail, []

    def scaled(x):
        calls.append(x)
        return exact(x) * scale

    monkeypatch.setattr(gaussian, "upper_tail", scaled)
    test_report_digests("gauss", tmp_path)
    assert calls  # the envelopes read the scaled tail
