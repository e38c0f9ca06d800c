"""Pinned report bytes: every CLI command at a fixed seed must keep writing
exactly the files it wrote when these digests were taken.

``test_12_reproducibility`` compares two runs inside one process, so it
cannot see a change between versions of the code. These digests can: a
refactor that claims to keep every report byte-identical must pass them
unchanged. They were taken on x86-64 Linux with Python 3.11, numpy 2.4 and
scipy 1.17; reports that hold floating-point results from FFTs and
vectorized numpy kernels (lclt, mixing, gauss) may differ in the last
digits under other numpy builds. gauss no longer depends on QUADPACK: its
covariance table is a fixed Gauss-Legendre rule evaluated by numpy.

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
"""

import hashlib

import pytest

from recurlab.cli import main

GOLDEN = {
    "recur2": (
        ["recur2", "--horizon", "120", "--samples", "40"],
        {"report.json": "d963e570f464107e6dd1c8dd074cd9dc08d906e9c2851f77c54f4ed2cecdb302",
         "decay.csv": "ceec716e80da6a346205fd96a811a7baa61d531c42d348423c5194eceaf1862a"},
    ),
    "recur3": (
        ["recur3", "--horizon", "40", "--samples", "20",
         "--param", "pool_size=7", "--param", "k=5"],
        {"recur3.json": "819fa48f40c3dee63e82b4ce0348bf70d353c6aed3ab5a686a348646e9ef4c06"},
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
        {"mixing.json": "654c847da4909f65d2c34fd7fb1c5dfabd18fc365c8332dda1e9d50c161d6eaf",
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
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
