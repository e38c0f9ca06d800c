"""Pinned report bytes: every CLI command at a fixed seed must keep writing
exactly the files it wrote when these digests were taken.

``test_12_reproducibility`` compares two runs inside one process, so it
cannot see a change between versions of the code. These digests can: a
refactor that claims to keep every report byte-identical must pass them
unchanged. They were taken on x86-64 Linux with Python 3.11, numpy 2.4 and
scipy 1.17; reports that hold floating-point results from FFTs and
quadrature (lclt, mixing, gauss) may differ in the last digits under other
numpy or scipy builds.

The lclt and mixing digests were re-pinned when the log characteristic
function moved from a dense product over every (group, grid point) pair to
a per-scale histogram FFT: their masses and box probabilities changed in
the last digits, and both reports gained the law's error ledger (aliasing
bound, pruned mass and truncation tail variance per n).
"""

import hashlib

import pytest

from recurlab.cli import main

GOLDEN = {
    "recur2": (
        ["recur2", "--horizon", "120", "--samples", "40"],
        {"report.json": "6ea7e0ceba52156f7215d6d12302ed720414c78cffa57bf00cf05c2464d837bf",
         "decay.csv": "8ed1ce5e4e6922c6d0378e1d6c9e8561dcbfce6bc5438aa897672d4dfbc67e9a"},
    ),
    "recur3": (
        ["recur3", "--horizon", "40", "--samples", "20",
         "--param", "pool_size=7", "--param", "k=5"],
        {"recur3.json": "2d229e27b2bf11807c2676b5ec13a2297e0e238ca297af6c62ab0216421d8c82"},
    ),
    "certify-range": (
        ["certify-range", "--samples", "10"],
        {"certify.json": "1ff398ea7931aed3d0f6679cdad6a4d1ef41376332fb52585d5e483925780657"},
    ),
    "lclt": (
        ["lclt", "--param", "n_grid=64,128"],
        {"lclt.json": "ad6dc327eb1af3ef7dcda8bc4670802aeff1d6b52f0cde3ae60d419eef4cdb1c"},
    ),
    "mixing": (
        ["mixing", "--horizon", "128", "--samples", "2000"],
        {"mixing.json": "bcb65d7cd77b3c343927296a93141bdc09edc63a5b811ed4c957f63c6ae2048f",
         "boxes.csv": "fbf21187594081cca6440bfa67cec80d957ca8e0573817d11c1c67dcbf15fba5"},
    ),
    "gauss": (
        ["gauss", "--horizon", "16", "--samples", "100", "--param", "mc=2000"],
        {"gauss.json": "f9f756d46a7a12fd8dbeb14e2002e09927a4174bc0d2b7c1d9dec177fd753193"},
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
