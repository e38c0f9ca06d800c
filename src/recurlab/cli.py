"""Command-line front end.

Commands: lclt | recur2 | recur3 | gauss | mixing | certify-range.
Configuration comes from a flat ``key = value`` file plus flags (flags win).
Exit codes: 0 all assertions passed (or --help printed the usage), 1 an
assertion or bound was violated (or an engine fault, with its traceback),
2 usage/config error: an unknown key, a bad value, a key that a mode switch
leaves unread, or an input outside an engine's validated range. Outputs are deterministic given the
config: JSON reports with sorted keys, CSV with fixed column order, and the
resolved config embedded in every file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from . import PreconditionError, __version__

if TYPE_CHECKING:
    from .experiments import Extraction, TripleProbeReport

# Each runner imports the engines it calls, so that a cold run of one
# command loads only its own modules (tests/test_cli.py::TestImportCost
# pins each set), and importing this module loads no numpy.


class ConfigError(Exception):
    pass


# command -> {key: (type, default)}: the keys each command's runner reads,
# and nothing else. ``out`` names the output directory and is left out of
# the resolved config.
_BASE = {"seed": (int, 0), "out": (str, ".")}

_KEYS: Dict[str, Dict[str, Tuple[type, object]]] = {
    "lclt": {**_BASE, "n_grid": (str, "256,1024,4096,16384"), "k_max": (int, 0)},
    "recur2": {**_BASE, "horizon": (int, 2000), "samples": (int, 1000),
               "k_max": (int, 0), "zero": (bool, False)},
    "recur3": {**_BASE, "horizon": (int, 500), "samples": (int, 1000),
               "k": (int, 0), "pool_size": (int, 150), "k_max": (int, 0),
               "margin": (float, 0.1)},
    "gauss": {**_BASE, "horizon": (int, 64), "samples": (int, 1000),
              "delta": (float, 0.3), "k": (int, 2), "mc": (int, 100_000),
              "white": (bool, False)},
    "mixing": {**_BASE, "horizon": (int, 4096), "samples": (int, 100_000),
               "M": (int, 5), "k_max": (int, 0), "zero": (bool, False),
               "n_min": (int, 64)},
    "certify-range": {**_BASE, "samples": (int, 1000), "N": (int, 8),
                      "C": (int, 0)},
}

# keys with a flag of their own; every key can be set by --param KEY=VALUE
_FLAGS = ("seed", "out", "samples", "horizon")

# command -> {mode switch: keys that the switch, when true, leaves unread}:
# the white-noise model has no delta, and a zero field no scales
_DISABLED_BY: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "gauss": {"white": ("delta",)},
    "recur2": {"zero": ("k_max",)},
    "mixing": {"zero": ("k_max",)},
}


def _parse_value(key: str, raw: str, typ: type):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {typ.__name__})")


class RunConfig:
    def __init__(self, command: str, values: Dict):
        self.command = command
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def resolved(self) -> Dict:
        # the output directory is where the report lands, not part of what
        # it reports; leaving it out keeps outputs byte-identical across
        # directories
        vals = {k: v for k, v in self.values.items() if k != "out"}
        return {"command": self.command, "version": __version__, **vals}


def parse_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(prog="recurlab", add_help=True)
    parser.add_argument("command", choices=sorted(_KEYS))
    for flag in ("config", *_FLAGS):
        parser.add_argument(f"--{flag}")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set a command-specific key")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help printed the usage: exit 0 with it
            raise
        raise ConfigError("invalid command line")

    keys = _KEYS[args.command]
    values: Dict = {key: default for key, (_, default) in keys.items()}
    explicit = set()

    def set_key(key: str, raw: str) -> None:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} for {args.command}")
        values[key] = _parse_value(key, raw, keys[key][0])
        explicit.add(key)

    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            set_key(key, raw)

    for flag in _FLAGS:
        if getattr(args, flag) is not None:
            set_key(flag, getattr(args, flag))
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        set_key(key.strip(), raw)

    _validate(args.command, values, explicit)
    return RunConfig(args.command, values)


def _validate(command: str, v: Dict, explicit: set) -> None:
    for switch, disabled in _DISABLED_BY.get(command, {}).items():
        for key in disabled:
            if v[switch] and key in explicit:
                raise PreconditionError(
                    f"{key!r} is not read when {switch} is true; leave it unset")
    for key in ("samples", "horizon", "mc", "pool_size", "n_min"):
        if key in v and v[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {v[key]}")
    if not 0 <= v["seed"] < 2**64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {v['seed']}")
    if command == "certify-range" and v["seed"] + v["samples"] > 2**64:
        raise ConfigError("certify-range seeds its samples with seed, seed + 1, "
                          "..., seed + samples - 1, which must stay below 2^64")
    if command == "recur3" and v["k"] != 0 and v["k"] < 3:
        raise ConfigError(f"k must be 0 (auto) or >= 3, got {v['k']}")
    if command == "recur3" and not 0.0 <= v["margin"] < 1.0:
        raise ConfigError(f"margin must lie in [0, 1), got {v['margin']}")


# ---------------------------------------------------------------------------
# output helpers


def _write(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _report(config: RunConfig, payload: Dict) -> str:
    return json.dumps({"config": config.resolved(), **payload},
                      sort_keys=True) + "\n"


def _str_keys(d: Dict) -> Dict:
    # converted before the sort_keys dump, integer keys sort as strings
    # ("10" before "9"), as they always have in the reports
    return {str(k): v for k, v in d.items()}


def _extraction(ext: Extraction, verdict: str) -> Dict:
    return {"N": ext.N, "M": ext.M, "measure_D": ext.measure_D,
            "measure_A": ext.measure_A, "violations": ext.violations,
            "verdict": verdict}


def _probe(probe: TripleProbeReport) -> Dict:
    return {**asdict(probe), "surrogate_measure": probe.surrogate_measure,
            "uncovered": _str_keys(probe.uncovered)}


def _alias_ok(grid, bounds) -> bool:
    """False when an aliasing bound exceeds ALIAS_TOL; names each such n."""
    from .pmf import ALIAS_TOL
    bad = [(n, b) for n, b in zip(grid, bounds) if b > ALIAS_TOL]
    for n, b in bad:
        print(f"n={n}: aliasing bound {b:.3g} exceeds {ALIAS_TOL:g}",
              file=sys.stderr)
    return not bad


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command runners (each writes its reports and returns the exit code)


def _run_lclt(cfg: RunConfig) -> int:
    from .fields import FieldSpec, default_k_max
    from .pmf import MASS_TOL, lclt_deviation, walk_pmf

    grid = [_parse_value("n_grid", tok, int) for tok in cfg["n_grid"].split(",")]
    if min(grid) < 1:
        raise ConfigError(f"n_grid entries must be positive, got {min(grid)}")
    k_max = cfg["k_max"] or default_k_max(max(grid))
    entries = []
    ok = True
    for n in grid:
        pmf, law = walk_pmf(FieldSpec(dimension=1, k_max=k_max, doubling=False), n)
        rep = lclt_deviation(pmf, n)
        entries.append({"n": n, "mass": rep.mass, "asymmetry": rep.asymmetry,
                        "peak": rep.peak, "deviation": rep.deviation,
                        "alias_bound": law.alias_bound, "pruned": pmf.pruned,
                        "tail_variance": law.tail_variance})
        if abs(rep.mass - 1.0) > MASS_TOL or rep.asymmetry > 0 or rep.peak > 1.0:
            ok = False
    if not _alias_ok(grid, [e["alias_bound"] for e in entries]):
        ok = False
    peaks = [e["peak"] for e in entries]
    variation = (max(peaks) - min(peaks)) / max(peaks)
    if variation >= 0.5:
        ok = False
    payload = {
        "k_max": k_max,
        "grid": entries,
        "peak_variation": variation,
        "pass": ok,
    }
    text = _report(cfg, payload)
    _write(cfg["out"], "lclt.json", text)
    rows = [(e["n"], e["peak"], e["deviation"]) for e in entries]
    _write(cfg["out"], "lclt.csv", _csv(["n", "scaled_peak", "deviation"], rows))
    return 0 if ok else 1


def _run_recur2(cfg: RunConfig) -> int:
    from .experiments import exp_section2
    from .fields import FieldSpec, default_k_max

    k_max = cfg["k_max"] or default_k_max(cfg["horizon"])
    spec = FieldSpec(dimension=1, k_max=k_max, doubling=False, zero=cfg["zero"])
    bc, probe = exp_section2(spec, H=cfg["horizon"], samples=cfg["samples"],
                             seed0=cfg["seed"])
    ok = bc.verdict == "ok"
    report = {"H": bc.H, "envelope_c": bc.envelope_c, "tail": bc.tail,
              "total": bc.total, **_extraction(bc.extraction, bc.verdict)}
    payload = {"report": report, "probe": _probe(probe), "pass": ok}
    _write(cfg["out"], "report.json", _report(cfg, payload))
    rows = [(n + 1, float(bc.a_n[n]), float(bc.partial_sums[n]))
            for n in range(bc.H)]
    _write(cfg["out"], "decay.csv", _csv(["n", "a_n", "partial_sum"], rows))
    return 0 if ok else 1


def _run_recur3(cfg: RunConfig) -> int:
    from .experiments import exp_section3, range_view_pool
    from .ranges import (P_CUBE, P_SQUARE, KNotReached, choose_k,
                         complement_profile)

    H = cfg["horizon"]
    pool = range_view_pool(P_SQUARE, P_CUBE, N=H, size=cfg["pool_size"],
                           seed0=cfg["seed"], k_max=cfg["k_max"] or None)
    try:
        choice = choose_k(complement_profile(pool), margin=cfg["margin"])
        chosen = {**asdict(choice), "per_k": _str_keys(choice.per_k)}
    except KNotReached as exc:
        # a measured outcome, not a fault: the totals are reported, the
        # check fails, and a pinned k is still probed
        chosen = {"k": None, "margin": cfg["margin"], "per_k": _str_keys(exc.per_k)}
    k = cfg["k"] or chosen["k"]
    probe = exp_section3(pool, k=k, H=H, samples=cfg["samples"],
                         seed0=cfg["seed"]) if k else None
    ok = chosen["k"] is not None
    payload = {"k": k, "choose_k": chosen,
               "probe": _probe(probe) if probe is not None else None, "pass": ok}
    _write(cfg["out"], "recur3.json", _report(cfg, payload))
    return 0 if ok else 1


def _run_gauss(cfg: RunConfig) -> int:
    from .experiments import exp_gaussian
    from .gaussian import power_density_model, white_noise_model

    model = white_noise_model() if cfg["white"] else power_density_model(cfg["delta"])
    rep = exp_gaussian(model, k=cfg["k"], H=cfg["horizon"],
                       samples=cfg["samples"], mc=cfg["mc"], seed0=cfg["seed"])
    ok = rep.verdict == "ok" and math.isfinite(rep.summability_total)
    report = {**asdict(rep), **_extraction(rep.extraction, rep.verdict)}
    del report["extraction"]
    payload = {"report": report, "pass": ok}
    _write(cfg["out"], "gauss.json", _report(cfg, payload))
    rows = [(n + 1, e) for n, e in enumerate(rep.estimates)]
    _write(cfg["out"], "gauss_decay.csv", _csv(["n", "estimate"], rows))
    return 0 if ok else 1


def _run_mixing(cfg: RunConfig) -> int:
    from .experiments import mixing_probe
    from .fields import FieldSpec, default_k_max

    k_max = cfg["k_max"] or default_k_max(cfg["horizon"])
    spec = FieldSpec(dimension=2, k_max=k_max, doubling=True, zero=cfg["zero"])
    rep = mixing_probe(spec, M=cfg["M"], H=cfg["horizon"],
                       samples=cfg["samples"], n_min=cfg["n_min"],
                       seed0=cfg["seed"])
    ok = (_alias_ok(rep.n_grid, rep.alias_bounds) and rep.decay_ok
          and rep.correlation_ok)
    payload = {"report": asdict(rep), "pass": ok}
    _write(cfg["out"], "mixing.json", _report(cfg, payload))
    rows = list(zip(rep.n_grid, rep.box_probabilities))
    _write(cfg["out"], "boxes.csv", _csv(["n", "box_probability"], rows))
    return 0 if ok else 1


def _run_certify(cfg: RunConfig) -> int:
    from .ranges import certify_distinct

    C = cfg["C"] or None
    run = certify_distinct(seed0=cfg["seed"], N=cfg["N"], C=C,
                           samples=cfg["samples"])
    bounds_ok = all(log_mdk >= bound for _, log_mdk, bound in run.bound_checks)
    ok = (run.goal_failures == 0 and run.distinct_failures == 0 and bounds_ok)
    payload = {"report": asdict(run), "bounds_ok": bounds_ok,
               "pass": ok}
    _write(cfg["out"], "certify.json", _report(cfg, payload))
    return 0 if ok else 1


_RUNNERS = {
    "lclt": _run_lclt,
    "recur2": _run_recur2,
    "recur3": _run_recur3,
    "gauss": _run_gauss,
    "mixing": _run_mixing,
    "certify-range": _run_certify,
}


def dispatch(config: RunConfig) -> int:
    try:
        return _RUNNERS[config.command](config)
    except PreconditionError as exc:
        # an input outside an engine's validated range is a config error;
        # any other exception is a fault and keeps its traceback
        raise ConfigError(str(exc))


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
        return dispatch(config)
    except (ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
