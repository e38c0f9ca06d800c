import functools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import recurlab
from recurlab import PreconditionError, cli, experiments, pmf, ranges
from recurlab.cli import ConfigError, main, parse_config
from recurlab.experiments import TripleProbeReport
from recurlab.pmf import walk_pmf
from recurlab.ranges import ChooseKReport


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


def _src_env():
    """The environment of a fresh interpreter that imports this recurlab."""
    src = str(Path(recurlab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["recur2"])
        assert cfg["horizon"] == 2000
        assert cfg["seed"] == 0

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nhorizon = 64\n# comment\n")
        cfg = parse_config(["recur2", "--config", str(path), "--seed", "7"])
        assert cfg["seed"] == 7
        assert cfg["horizon"] == 64

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config(["recur2", "--config", "/nonexistent/run.cfg"])
        assert main(["recur2", "--config", "/nonexistent/run.cfg"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(["recur2", "--config", str(path)])
        assert "mystery" in str(exc.value)

    def test_type_mismatch_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("horizon = soon\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(["recur2", "--config", str(path)])
        assert "horizon" in str(exc.value)

    def test_delta_out_of_range(self):
        assert main(["gauss", "--param", "delta=1.5"]) == 2

    def test_recur3_small_k_rejected(self):
        assert main(["recur3", "--param", "k=1"]) == 2

    @pytest.mark.parametrize("margin", ["1.0", "-0.5", "2", "nan"])
    def test_recur3_margin_outside_unit_interval_rejected(self, tmp_path, capsys,
                                                          margin):
        with pytest.raises(ConfigError, match="margin must lie in"):
            parse_config(["recur3", "--param", f"margin={margin}"])
        assert run(tmp_path, "recur3", "--horizon", "20", "--param",
                   f"margin={margin}") == 2
        assert "margin must lie in [0, 1)" in capsys.readouterr().err
        assert parse_config(["recur3", "--param", "margin=0"])["margin"] == 0.0

    def test_recur3_short_horizon_rejected(self, tmp_path, capsys):
        # the complement envelope is fitted from n = 8 on, and
        # complement_profile rejects a shorter horizon; no report is written
        for horizon in ("5", "7"):
            assert run(tmp_path, "recur3", "--horizon", horizon) == 2
            err = capsys.readouterr().err
            assert f"horizon N={horizon} is below 8, where the complement" in err
        assert not list(tmp_path.iterdir())
        assert run(tmp_path, "recur3", "--horizon", "8", "--samples", "10",
                   "--param", "pool_size=5", "--param", "k=3") == 0
        assert (tmp_path / "recur3.json").exists()

    def test_param_flag(self):
        cfg = parse_config(["gauss", "--param", "delta=0.4", "--param", "k=2"])
        assert cfg["delta"] == 0.4

    def test_bad_command(self):
        assert main(["dance"]) == 2

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["lclt", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        # argparse prints the usage and exits 0; that is not a config error
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: recurlab") and "error" not in err

    def test_help_process_exit_codes(self):
        # as a process: help exits 0, a usage error still exits 2
        cmd = [sys.executable, "-m", "recurlab.cli"]
        ok = subprocess.run(cmd + ["--help"], env=_src_env(), capture_output=True,
                            text=True)
        assert ok.returncode == 0 and "usage: recurlab" in ok.stdout
        assert ok.stderr == ""
        bad = subprocess.run(cmd + ["lclt", "--bogus"], env=_src_env(),
                             capture_output=True, text=True)
        assert bad.returncode == 2
        assert "error: invalid command line" in bad.stderr

    @pytest.mark.parametrize("command,argv,message", [
        ("lclt", ["--horizon", "5"], "unknown key 'horizon' for lclt"),
        ("lclt", ["--samples", "3"], "unknown key 'samples' for lclt"),
        ("certify-range", ["--horizon", "99"],
         "unknown key 'horizon' for certify-range"),
        ("gauss", ["--param", "c=2"], "unknown key 'c' for gauss"),
        ("gauss", ["--param", "d=-3"], "unknown key 'd' for gauss"),
        ("recur2", ["--param", "emit_plot_data=true"],
         "unknown key 'emit_plot_data' for recur2"),
        ("lclt", ["--emit-plot-data"], "unrecognized arguments: --emit-plot-data"),
    ])
    def test_removed_key_rejected(self, tmp_path, capsys, command, argv, message):
        # a key that no runner reads is unknown, not echoed into the report
        assert run(tmp_path, command, *argv) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(cli._KEYS))
    def test_resolved_config_is_the_key_table(self, command):
        resolved = parse_config([command]).resolved()
        assert set(resolved) - {"command", "version"} == set(cli._KEYS[command]) - {"out"}


class TestDispatch:
    def test_lclt_small_grid(self, tmp_path):
        code = run(tmp_path, "lclt", "--param", "n_grid=64,256")
        assert code == 0
        payload = json.loads((tmp_path / "lclt.json").read_text())
        assert payload["pass"] is True
        assert payload["config"]["command"] == "lclt"
        assert (tmp_path / "lclt.csv").read_text().startswith("n,scaled_peak")

    def test_recur2_end_to_end(self, tmp_path):
        code = run(tmp_path, "recur2", "--horizon", "200", "--samples", "60")
        assert code == 0
        assert (tmp_path / "report.json").is_file()
        decay = (tmp_path / "decay.csv").read_text().splitlines()
        assert decay[0] == "n,a_n,partial_sum"
        assert len(decay) == 201

    def test_recur2_zero_negative_control(self, tmp_path):
        code = run(tmp_path, "recur2", "--horizon", "60", "--samples", "20",
                   "--param", "zero=true")
        assert code == 1

    def test_recur3_small(self, tmp_path):
        code = run(tmp_path, "recur3", "--horizon", "60", "--samples", "40",
                   "--param", "pool_size=12")
        assert code == 0
        payload = json.loads((tmp_path / "recur3.json").read_text())
        assert payload["probe"]["violations"] == 0
        assert payload["k"] >= 3

    @pytest.mark.parametrize("k", [5, 0])
    def test_recur3_target_out_of_reach_fails_the_check(self, tmp_path, k):
        # no k <= 12 keeps the series below 1 - margin: a failing check with
        # the per-k totals reported, not a fault; a pinned k is still probed
        code = run(tmp_path, "recur3", "--horizon", "20", "--samples", "10",
                   "--param", "pool_size=3", "--param", f"k={k}",
                   "--param", "margin=0.999999")
        assert code == 1
        payload = json.loads((tmp_path / "recur3.json").read_text())
        assert payload["pass"] is False
        assert payload["choose_k"]["k"] is None
        assert payload["choose_k"]["margin"] == 0.999999
        assert list(payload["choose_k"]["per_k"]) == sorted(map(str, range(3, 13)))
        assert min(payload["choose_k"]["per_k"].values()) >= 1e-6
        if k:
            assert payload["k"] == k
            assert payload["probe"]["samples"] == 10
        else:
            assert payload["k"] is None and payload["probe"] is None

    def test_gauss_white_control(self, tmp_path):
        code = run(tmp_path, "gauss", "--param", "white=true", "--horizon",
                   "16", "--samples", "50", "--param", "mc=2000")
        assert code == 0
        payload = json.loads((tmp_path / "gauss.json").read_text())
        assert max(payload["report"]["estimates"]) == 0.0
        decay = (tmp_path / "gauss_decay.csv").read_text().splitlines()
        assert decay[0] == "n,estimate"
        assert len(decay) == 17

    def test_mixing_negative_control_exits_1(self, tmp_path):
        code = run(tmp_path, "mixing", "--param", "zero=true", "--horizon",
                   "256", "--samples", "2000")
        assert code == 1

    def test_mixing_short_horizon_rejected(self, tmp_path, capsys):
        # below n_min (64) the dyadic grid of horizons is empty
        assert run(tmp_path, "mixing", "--horizon", "32") == 2
        assert "power of two" in capsys.readouterr().err

    def test_mixing_single_grid_point_rejected(self, tmp_path, capsys):
        # horizon = n_min leaves the one-point grid [64], which cannot show
        # box decay, so the run could only fail
        assert run(tmp_path, "mixing", "--horizon", "64", "--samples", "2000") == 2
        assert "at least 2 * n_min" in capsys.readouterr().err
        assert not (tmp_path / "mixing.json").exists()
        assert parse_config(["mixing", "--horizon", "128"])["horizon"] == 128

    def test_seed_outside_uint64_rejected(self, tmp_path, capsys):
        # field seeds are 64-bit words, and certify-range seeds its samples
        # with seed, seed + 1, ..., seed + samples - 1
        assert run(tmp_path, "certify-range", "--seed", "-1", "--samples", "3") == 2
        assert "seed" in capsys.readouterr().err
        assert run(tmp_path, "certify-range", "--seed", str(2**64 - 2),
                   "--samples", "3") == 2
        assert run(tmp_path, "recur2", "--seed", "-1") == 2
        assert run(tmp_path, "lclt", "--seed", str(2**64)) == 2
        assert not (tmp_path / "certify.json").exists()
        assert run(tmp_path, "certify-range", "--seed", str(2**64 - 3),
                   "--samples", "3", "--param", "N=1") == 0

    @pytest.mark.parametrize("argv,message", [
        (["recur2", "--horizon", "10"], "need H >= 16"),
        (["mixing", "--horizon", "192"], "H must be n_min times a power of two"),
        (["certify-range", "--param", "N=0"], "need N >= 1 and C >= 1"),
        (["certify-range", "--param", "C=1"], "C must dominate"),
        (["recur2", "--param", "k_max=-1"], "need 1 <= k_min <= k_max"),
        (["gauss", "--param", "white=true", "--param", "k=0"],
         "summability hypothesis 2 k delta > 1 fails"),
        (["lclt", "--param", "k_max=-2"], "need 1 <= k_min <= k_max"),
        # the default C = -M + 1 = 1029 puts the factor-bound scales past
        # a finite double
        (["certify-range", "--param", "N=128"], "C must be at most 974 at N=128"),
    ])
    def test_precondition_exits_2(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,report", [
        (["lclt", "--param", "n_grid=64"], "lclt.json"),
        (["mixing", "--horizon", "128", "--samples", "200"], "mixing.json"),
        (["recur2", "--horizon", "32", "--samples", "4"], "report.json"),
        (["recur3", "--horizon", "20", "--samples", "10", "--param",
          "pool_size=3", "--param", "k=3"], "recur3.json"),
    ])
    def test_k_max_past_int64_periods_exits_2(self, tmp_path, capsys, argv, report):
        # p_62 = 2^62 fits in an int64, p_63 = 2^63 + 1 does not: 63 is a
        # config error, not an engine fault
        assert run(tmp_path, *argv, "--param", "k_max=63") == 2
        assert "k_max must be <= 62, got 63" in capsys.readouterr().err
        assert not (tmp_path / report).exists()
        assert run(tmp_path, *argv, "--param", "k_max=62") == 0
        assert json.loads((tmp_path / report).read_text())["config"]["k_max"] == 62

    def test_gauss_path_size_exits_2_before_allocating(self, tmp_path, capsys):
        # 1000 samples of k = 500000000001 paths of 65 values would take
        # 582 TiB; the run stops at its size check, before r(0..H) or a path
        tracemalloc.start()
        try:
            code = run(tmp_path, "gauss", "--param", "delta=1e-12",
                       "--param", "k=500000000001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert ("samples * k * (H + 1) = 32500000000065000 path values exceed"
                in capsys.readouterr().err)
        assert peak < 1 << 22
        assert not (tmp_path / "gauss.json").exists()

    @pytest.mark.parametrize("argv,key,switch", [
        (["gauss", "--param", "white=true", "--param", "delta=0.4"], "delta", "white"),
        (["recur2", "--param", "zero=true", "--param", "k_max=9"], "k_max", "zero"),
        (["mixing", "--param", "zero=true", "--param", "k_max=9"], "k_max", "zero"),
    ])
    def test_key_disabled_by_switch_exits_2(self, tmp_path, capsys, argv, key,
                                            switch):
        # the white-noise model has no delta and a zero field no scales, so
        # setting the key next to its switch sets nothing
        with pytest.raises(PreconditionError, match=f"'{key}' is not read"):
            parse_config(argv)
        assert run(tmp_path, *argv) == 2
        assert f"'{key}' is not read when {switch} is true" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_disabled_key_in_config_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("white = true\ndelta = 0.3\n")
        with pytest.raises(PreconditionError, match="delta"):
            parse_config(["gauss", "--config", str(path)])

    def test_disabled_key_left_unset_keeps_its_default(self):
        # default runs are unchanged: the key stays in the resolved config
        assert parse_config(["gauss", "--param", "white=true"])["delta"] == 0.3
        assert parse_config(["recur2", "--param", "zero=true"])["k_max"] == 0
        assert parse_config(["gauss", "--param", "delta=0.4"])["delta"] == 0.4
        assert parse_config(["recur2", "--param", "k_max=9"])["k_max"] == 9

    @pytest.mark.parametrize("n_grid,message", [
        ("64,x", "bad value for 'n_grid': 'x'"),
        ("64,0", "n_grid entries must be positive, got 0"),
    ])
    def test_bad_n_grid_exits_2(self, tmp_path, capsys, n_grid, message):
        assert run(tmp_path, "lclt", "--param", f"n_grid={n_grid}") == 2
        assert message in capsys.readouterr().err

    def test_engine_fault_is_not_a_config_error(self, tmp_path, monkeypatch):
        # only a PreconditionError is a configuration error; any other
        # exception keeps its traceback and exits 1
        def fault(*args, **kwargs):
            raise ValueError("engine fault")
        monkeypatch.setattr(ranges, "certify_distinct", fault)
        with pytest.raises(ValueError, match="engine fault"):
            run(tmp_path, "certify-range", "--samples", "1")

    def test_lclt_reports_error_ledger(self, tmp_path):
        assert run(tmp_path, "lclt", "--param", "n_grid=64,256") == 0
        for entry in json.loads((tmp_path / "lclt.json").read_text())["grid"]:
            assert 0.0 <= entry["alias_bound"] <= 1e-10
            assert 0.0 <= entry["pruned"] < 1e-9
            assert entry["tail_variance"] > 0.0

    def test_small_n_has_no_aliasing(self, tmp_path):
        # at n = 1 and 2 the grid's half-width exceeds the largest |S_n|
        # (30 and 60), so the aliasing bound is 0 and the gate passes
        assert run(tmp_path, "lclt", "--param", "n_grid=1,2") == 0
        grid = json.loads((tmp_path / "lclt.json").read_text())["grid"]
        assert [entry["alias_bound"] for entry in grid] == [0.0, 0.0]
        assert run(tmp_path, "mixing", "--horizon", "2", "--samples", "2000",
                   "--param", "n_min=1", "--param", "M=0") == 0
        report = json.loads((tmp_path / "mixing.json").read_text())["report"]
        assert report["alias_bounds"] == [0.0, 0.0]

    @pytest.mark.parametrize("command,argv", [
        ("lclt", ["--param", "n_grid=256"]),
        ("mixing", ["--horizon", "128", "--samples", "200"]),
    ])
    def test_alias_bound_over_tolerance_fails(self, tmp_path, capsys,
                                              monkeypatch, command, argv):
        # a 64-point grid leaves far more than 1e-10 of wrap-around at these n
        coarse = functools.partial(walk_pmf, grid=64)
        monkeypatch.setattr(pmf, "walk_pmf", coarse)
        assert run(tmp_path, command, *argv) == 1
        err = capsys.readouterr().err
        assert "aliasing bound" in err
        assert ("n=256" if command == "lclt" else "n=64") in err
        name = "lclt.json" if command == "lclt" else "mixing.json"
        assert json.loads((tmp_path / name).read_text())["pass"] is False

    def test_mixing_small(self, tmp_path):
        code = run(tmp_path, "mixing", "--horizon", "512", "--samples",
                   "5000", "--param", "M=4")
        assert code == 0
        boxes = (tmp_path / "boxes.csv").read_text().splitlines()
        assert boxes[0] == "n,box_probability"

    def test_certify_small(self, tmp_path):
        code = run(tmp_path, "certify-range", "--param", "N=2", "--samples",
                   "40")
        assert code == 0
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["bounds_ok"] is True

    @pytest.mark.parametrize("C", [979, 2**62, 10**18])
    def test_certify_c_past_the_bound_scales_exits_2(self, tmp_path, capsys, C):
        # at N = 8 (K = 5) the factor bound is checked at k = C + 5 ..
        # C + 44, and from k = 1023 on 2 (p_k + 2N) overflows a double; the
        # run stops before it builds any of those scales
        start = time.monotonic()
        assert run(tmp_path, "certify-range", "--param", f"C={C}", "--samples", "2") == 2
        assert time.monotonic() - start < 1.0
        assert "C must be at most 978 at N=8" in capsys.readouterr().err
        assert not (tmp_path / "certify.json").exists()

    def test_certify_largest_c_exits_0(self, tmp_path):
        assert run(tmp_path, "certify-range", "--param", "C=978", "--samples", "2") == 0
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["bounds_ok"] is True
        assert payload["report"]["bound_checks"][-1][0] == 1022


class TestReportShape:
    def test_integer_keys_sort_as_strings(self, tmp_path, monkeypatch):
        # per_k and uncovered are keyed by integers; the report lists their
        # keys as sorted strings, so "10" comes before "9"
        per_k = {k: 1.0 / k for k in range(3, 12)}
        # an empty (views, N) mask: complement_profile and exp_section3 are
        # stubbed, so no view is read
        monkeypatch.setattr(experiments, "range_view_pool",
                            lambda *args, N, **kwargs: np.zeros((0, N), dtype=bool))
        monkeypatch.setattr(ranges, "complement_profile", lambda pool: None)
        monkeypatch.setattr(ranges, "choose_k", lambda profile, margin: ChooseKReport(
            k=11, margin=margin, head=0.5, tail=0.25, total=0.75, per_k=per_k))
        monkeypatch.setattr(
            experiments, "exp_section3", lambda pool, k, H, samples, seed0: TripleProbeReport(
                horizon=H, samples=samples, in_surrogate=samples, violations=0,
                identity_failures=0, uncovered={9: 1, 10: 2, 100: 3}))
        assert run(tmp_path, "recur3", "--horizon", "20", "--samples", "4") == 0
        payload = json.loads((tmp_path / "recur3.json").read_text())
        assert list(payload["choose_k"]["per_k"]) == [
            "10", "11", "3", "4", "5", "6", "7", "8", "9"]
        assert list(payload["probe"]["uncovered"]) == ["10", "100", "9"]
        assert payload["probe"]["uncovered"]["100"] == 3


class TestReproducibility:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["recur2", "--horizon", "80", "--samples", "25",
                         "--seed", "11", "--out", str(out)])
            assert code == 0
        for name in ("report.json", "decay.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_lclt_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["lclt", "--param", "n_grid=64", "--out", str(out)]) == 0
        assert (a / "lclt.json").read_bytes() == (b / "lclt.json").read_bytes()


class TestImportCost:
    @staticmethod
    def _loaded_after(statements, packages=("scipy",)):
        """Every module of ``packages`` a fresh interpreter holds after
        running ``statements``."""
        probe = (f"import sys\n{statements}\nprint(sorted(m for m in "
                 f"sys.modules if any(m == p or m.startswith(p + '.') "
                 f"for p in {packages!r})))")
        out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_leaves_heavy_scipy_out(self):
        # after import recurlab.cli, importing scipy.integrate and
        # scipy.linalg took 0.26-0.38 s (five runs, 2-vCPU x86-64 VM), and
        # scipy.special 0.25-0.3 s on its own; the package imports none
        assert self._loaded_after("import recurlab.cli") == "[]"

    @pytest.mark.parametrize("argv", [
        ["recur3", "--horizon", "20", "--samples", "10", "--param", "pool_size=3",
         "--param", "k=3"],
        ["lclt", "--param", "n_grid=64"],
        ["mixing", "--horizon", "128", "--samples", "200"],
        ["certify-range", "--samples", "2"],
        # its tail bound is closed form (recurlab.power_tail)
        ["recur2", "--horizon", "32", "--samples", "4"],
        # and the normal tail of the triple envelopes is math.erfc (upper_tail)
        ["gauss", "--horizon", "16", "--samples", "20", "--param", "mc=200"],
        ["gauss", "--horizon", "16", "--samples", "20", "--param", "mc=200",
         "--param", "white=true"],
    ])
    def test_runs_without_special_functions_leave_scipy_out(self, tmp_path, argv):
        run = f"from recurlab.cli import main; main({argv + ['--out', str(tmp_path)]!r})"
        # np.unique imports numpy.ma (10-14 ms under -X importtime); every
        # command deduplicates without it
        assert self._loaded_after(run, ("scipy", "numpy.ma")) == "[]"
        assert any(tmp_path.iterdir())

    # the recurlab modules a small run of each command loads besides the
    # package: the runner imports its engines and nothing else
    _ENGINES = {
        "lclt": (["lclt", "--param", "n_grid=64"], "cli pmf fields prf"),
        "certify-range": (["certify-range", "--samples", "2"],
                          "cli ranges bigsums fields prf"),
        "mixing": (["mixing", "--horizon", "128", "--samples", "200"],
                   "cli experiments pmf fields prf"),
        "gauss": (["gauss", "--horizon", "16", "--samples", "20", "--param",
                   "mc=200"], "cli experiments gaussian prf"),
        # power_tail, their only use of gaussian, is the package's own
        "recur2": (["recur2", "--horizon", "32", "--samples", "4"],
                   "cli experiments fields pmf prf"),
        "recur3": (["recur3", "--horizon", "20", "--samples", "10", "--param",
                    "pool_size=3", "--param", "k=3"],
                   "cli experiments ranges bigsums fields prf"),
    }

    @pytest.mark.parametrize("command", sorted(_ENGINES))
    def test_each_command_loads_only_its_engines(self, tmp_path, command):
        argv, modules = self._ENGINES[command]
        run = f"from recurlab.cli import main; main({argv + ['--out', str(tmp_path)]!r})"
        expected = sorted(["recurlab"] + [f"recurlab.{m}" for m in modules.split()])
        assert self._loaded_after(run, ("recurlab",)) == str(expected)
        assert any(tmp_path.iterdir())

    def test_cli_import_and_help_leave_numpy_out(self):
        # a cold run pays for numpy only in the runner that needs it
        assert self._loaded_after("import recurlab.cli", ("numpy",)) == "[]"
        help_run = ("import contextlib, io\nfrom recurlab.cli import main\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    try:\n        main(['--help'])\n"
                    "    except SystemExit as exc:\n        assert exc.code == 0")
        assert self._loaded_after(help_run, ("numpy", "recurlab")) == \
            "['recurlab', 'recurlab.cli']"

    def test_probe_sees_what_a_command_loads(self, tmp_path):
        # the control: the engines and numpy that lclt does load are seen
        argv = self._ENGINES["lclt"][0] + ["--out", str(tmp_path)]
        loaded = self._loaded_after(f"from recurlab.cli import main; main({argv!r})",
                                    ("numpy", "recurlab.pmf"))
        assert "'numpy'" in loaded and "'recurlab.pmf'" in loaded

    def test_probe_sees_a_numpy_ma_import(self):
        # the control: np.unique's import of numpy.ma is caught
        run = "import numpy as np; np.unique(np.arange(3))"
        assert "'numpy.ma'" in self._loaded_after(run, ("numpy.ma",))

    def test_probe_sees_a_scipy_special_import(self, tmp_path):
        # the control: a run that imports scipy.special itself is caught
        run = ("import scipy.special; from recurlab.cli import main; "
               "main(['gauss', '--horizon', '16', '--samples', '20', '--param', "
               f"'mc=200', '--out', {str(tmp_path)!r}])")
        assert "'scipy.special'" in self._loaded_after(run)

    def test_power_model_needs_no_integrate(self):
        # the covariance table is a fixed Gauss-Legendre rule, and the
        # circulant embedding samples it by numpy's FFT
        loaded = self._loaded_after(
            "from recurlab.gaussian import power_density_model, sample_paths; "
            "sample_paths(power_density_model(0.3).r_vector(64), size=4, seed=0)")
        assert loaded == "[]"
