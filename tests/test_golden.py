"""Pinned report bytes: every CLI command at a fixed seed must keep writing
exactly the files it wrote when these digests were taken.

``test_12_reproducibility`` compares two runs inside one process, so it
cannot see a change between versions of the code. These digests can: a
refactor that claims to keep every report byte-identical must pass them
unchanged. They were taken on x86-64 Linux with Python 3.11, numpy 2.4 and
scipy 1.17; reports that hold floating-point results from FFTs and
quadrature (lclt, mixing, gauss) may differ in the last digits under other
numpy or scipy builds.
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
        {"lclt.json": "e15ad75cc455711b361ccbeb03b9eea82f5044132f227cde6496e2ed2ef665b7"},
    ),
    "mixing": (
        ["mixing", "--horizon", "128", "--samples", "2000"],
        {"mixing.json": "a96f0330e21609782304982d76d67337beaf6ff83b7a7c0470d28c58779ac27f",
         "boxes.csv": "ccdd46cb8cc41adf3580043aaa6c113b1a54b87d03c8e827b5b16ed449c7ee8e"},
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
