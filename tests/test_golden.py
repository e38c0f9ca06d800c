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
depends on scipy: gauss's covariance table is a fixed Gauss-Legendre rule
evaluated by numpy, its zeta tail is a plain-Python port of cephes' zeta,
and its normal tail is ``math.erfc``, whose last bits no report reads
(``test_gauss_digests_ignore_normal_tail_last_bits``).

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

The mixing.json digest was re-pinned when the probe came to draw S_n by
inverse CDF from the exact law it computes at n = H, in place of an
approximate law sampler that drew the amplitudes of the fired atoms with
replacement, and to draw the configuration bits as arrays in place of a
per-sample loop. Both consume their keyed streams in another way, so only
``joint_estimate``, ``correlation`` and ``se`` moved; boxes.csv, which holds
the exact box probabilities, is unchanged.
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
        {"report.json": "ee595ce16b3f522693564eb29f515459dc17487df03395431f6afc1e01abc63f",
         "decay.csv": "4c5ae01cba9f5a69e071617348aca6339f74cd59d6cffc02c4e9bd349c9c8bce"},
    ),
    "recur3": (
        ["recur3", "--horizon", "40", "--samples", "20",
         "--param", "pool_size=7", "--param", "k=5"],
        {"recur3.json": "c1a7976408a4c915639855c4972a80471831a755533a5224a777a8043da4bcef"},
    ),
    "certify-range": (
        ["certify-range", "--samples", "10"],
        {"certify.json": "29ea2c0bd27c09b577de9af5dddda2d22832c4cc9981f7fbebb12e5734142859"},
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
        {"gauss.json": "d9783daadf61348551e0af727b78a160506bf50536ac907c260cc1fbda06a970",
         "gauss_decay.csv": "457bef55db748e4370ad0fc0d836b4ecbc76ca4c8a4c1ff415a4d6046728a3d7"},
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_digests(command, tmp_path):
    argv, digests = GOLDEN[command]
    assert main(argv + ["--seed", "3", "--out", str(tmp_path)]) == 0
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
