import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recurlab
from recurlab import cli, experiments
from recurlab.cli import ConfigError, main, parse_config
from recurlab.experiments import TripleProbeReport
from recurlab.pmf import walk_pmf
from recurlab.ranges import ChooseKReport


def run(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


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

    def test_recur3_short_horizon_rejected(self, capsys):
        # the complement envelope is fitted from n = 8 on
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(["recur3", "--horizon", "5"])
        assert main(["recur3", "--horizon", "7"]) == 2
        assert "horizon" in capsys.readouterr().err
        assert parse_config(["recur3", "--horizon", "8"])["horizon"] == 8

    def test_param_flag(self):
        cfg = parse_config(["gauss", "--param", "delta=0.4", "--param", "k=2"])
        assert cfg["delta"] == 0.4

    def test_bad_command(self):
        assert main(["dance"]) == 2

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
        assert "2 * n_min = 128" in capsys.readouterr().err
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
        (["certify-range", "--param", "N=0"], "N must be >= 1"),
        (["certify-range", "--param", "C=1"], "C must dominate"),
        (["recur2", "--param", "k_max=-1"], "need 1 <= k_min <= k_max"),
        (["gauss", "--param", "white=true", "--param", "k=0"],
         "summability hypothesis 2 k delta > 1 fails"),
        (["lclt", "--param", "k_max=-2"], "need 1 <= k_min <= k_max"),
    ])
    def test_precondition_exits_2(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == 2
        assert message in capsys.readouterr().err

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
        monkeypatch.setattr(cli, "certify_distinct", fault)
        with pytest.raises(ValueError, match="engine fault"):
            run(tmp_path, "certify-range", "--samples", "1")

    def test_lclt_reports_error_ledger(self, tmp_path):
        assert run(tmp_path, "lclt", "--param", "n_grid=64,256") == 0
        for entry in json.loads((tmp_path / "lclt.json").read_text())["grid"]:
            assert 0.0 <= entry["alias_bound"] <= 1e-10
            assert 0.0 <= entry["pruned"] < 1e-9
            assert entry["tail_variance"] > 0.0

    @pytest.mark.parametrize("command,argv", [
        ("lclt", ["--param", "n_grid=256"]),
        ("mixing", ["--horizon", "128", "--samples", "200"]),
    ])
    def test_alias_bound_over_tolerance_fails(self, tmp_path, capsys,
                                              monkeypatch, command, argv):
        # a 64-point grid leaves far more than 1e-10 of wrap-around at these n
        coarse = functools.partial(walk_pmf, grid=64)
        monkeypatch.setattr(cli, "walk_pmf", coarse)
        monkeypatch.setattr(experiments, "walk_pmf", coarse)
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


class TestReportShape:
    def test_integer_keys_sort_as_strings(self, tmp_path, monkeypatch):
        # per_k and uncovered are keyed by integers; the report lists their
        # keys as sorted strings, so "10" comes before "9"
        per_k = {k: 1.0 / k for k in range(3, 12)}
        monkeypatch.setattr(cli, "range_view_pool", lambda *args, **kwargs: [])
        monkeypatch.setattr(cli, "complement_profile", lambda pool: None)
        monkeypatch.setattr(cli, "choose_k", lambda profile, margin: ChooseKReport(
            k=11, margin=margin, head=0.5, tail=0.25, total=0.75, per_k=per_k))
        monkeypatch.setattr(
            cli, "exp_section3", lambda pool, k, H, samples, seed0: TripleProbeReport(
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
    def _loaded_after(statements):
        """The heavy scipy modules a fresh interpreter holds after running
        ``statements``."""
        src = str(Path(recurlab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
        probe = (f"import sys; {statements}; print(sorted(m for m in "
                 "('scipy.integrate', 'scipy.linalg') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_leaves_heavy_scipy_out(self):
        # after import recurlab.cli, importing scipy.integrate and
        # scipy.linalg took 0.26-0.38 s (five runs, 2-vCPU x86-64 VM), and
        # scipy.linalg alone 0.05-0.07 s; only the sampler's Toeplitz
        # fallback uses scipy.linalg
        assert self._loaded_after("import recurlab.cli") == "[]"

    def test_power_model_needs_no_integrate(self):
        # the covariance table is a fixed Gauss-Legendre rule, and the
        # circulant embedding samples this model without the fallback
        loaded = self._loaded_after(
            "from recurlab.gaussian import power_density_model, sample_paths; "
            "sample_paths(power_density_model(0.3), 64, size=4, seed=0)")
        assert loaded == "[]"
