"""recurlab benchmark: cold-process CLI workloads with checked reports.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each workload is a fixed list of ``recurlab`` commands. One repetition runs
them one after another, each in a new interpreter, because a CLI user pays
the interpreter start, the imports and every in-process cache (the view
pool cache, the spectral-covariance cache, the spiral cache) cold on every
run. Repetitions run in a closed loop with one client until the next one
would end after ``--seconds`` (but at least ``MIN_REPS`` of them). Every
report is checked;
a command that exits nonzero, leaves a report out, reports ``"pass":
false``, fails a check below, or writes other bytes than the first
repetition at the same seed counts as failed.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (a new
interpreter plus ``import recurlab.cli``, sampled once before each
repetition) and ``wall_s`` (the sum of the commands' spawn-to-exit times),
each the median over the run in reference seconds (see ``REFERENCE``), and
``peak_rss_mb`` (the median over repetitions of the largest per-process
max RSS among the repetition's commands); the raw
seconds are printed and recorded beside them. With ``--trace 1`` every
workload's commands run once under ``tracer.py`` and the per-layer metrics
of ``layers.PER_LAYER`` are reported; ``trace.overhead_s`` is the named
workload's traced wall time minus its untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(machine, versions, per-command times, rusage and report digests) is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from layers import PER_LAYER, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

MIN_REPS = 3
# a command still running GRACE_S after the measuring time is killed and
# counts as failed, so a 55 s run ends inside three minutes
GRACE_S = 110.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

# The reference job: a new interpreter that imports numpy and scipy, as the
# CLI does, then runs a fixed pure-Python loop, vectorized 64-bit hashing
# and an FFT, the kinds of work the commands do. It never imports recurlab,
# so no change to the package moves it; only the speed of the host does.
# On a shared 2-vCPU VM a fixed loop ran 40% slower for minutes at a time,
# and set-up and command times moved with it. Each set-up sample is
# therefore divided by the reference time just before it, each repetition
# by the mean of the reference times just before and after it, and the
# ratio is scaled by REFERENCE_S: the reported setup_s and wall_s are
# "reference seconds", the time at the host speed at which the reference
# job takes REFERENCE_S. Over ten seeds the spread (quartile distance over
# median) of wall_s was 0.041 on vector-paths and 0.063 on laws-scalar in
# reference seconds, against 0.138 and 0.128 in raw seconds.
REFERENCE = """\
import numpy as np
from scipy.special import zeta
s = 0
for i in range(600_000):
    s += i * i
a = np.arange(1 << 20, dtype=np.uint64)
for _ in range(6):
    a = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (a >> np.uint64(29))
np.fft.rfft(np.linspace(0.0, 1.0, 1 << 19))
"""
# about the reference job's time on a 2-vCPU x86-64 VM at the host's fast
# speed, so that reference seconds read close to seconds there
REFERENCE_S = 0.6


# ---------------------------------------------------------------------------
# report checks: each returns a list of problems, empty when the report holds


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_lclt(out: Path) -> List[str]:
    rep = _load(out, "lclt.json")
    return [f"n={g['n']}: mass {g['mass']!r}, asymmetry {g['asymmetry']!r}"
            for g in rep["grid"]
            if abs(g["mass"] - 1.0) > 1e-9 or g["asymmetry"] != 0]


def check_mixing(out: Path) -> List[str]:
    rep = _load(out, "mixing.json")["report"]
    return [f"{key} is false" for key in ("decay_ok", "correlation_ok")
            if not rep[key]]


def check_recur2(out: Path) -> List[str]:
    rep = _load(out, "report.json")
    problems = []
    if rep["report"]["verdict"] != "ok":
        problems.append(f"verdict {rep['report']['verdict']!r}")
    if rep["report"]["violations"] or rep["probe"]["violations"]:
        problems.append("violations reported")
    rows = len((out / "decay.csv").read_text().splitlines()) - 1
    if rows != rep["config"]["horizon"]:
        problems.append(f"decay.csv has {rows} rows, horizon is "
                        f"{rep['config']['horizon']}")
    return problems


def check_recur3(out: Path) -> List[str]:
    probe = _load(out, "recur3.json")["probe"]
    problems = [f"{key} = {probe[key]}"
                for key in ("violations", "identity_failures") if probe[key]]
    if probe["in_surrogate"] <= 0:
        problems.append("no sample in the surrogate set")
    return problems


def check_certify(out: Path) -> List[str]:
    rep = _load(out, "certify.json")
    problems = [f"{key} = {rep['report'][key]}"
                for key in ("goal_failures", "distinct_failures")
                if rep["report"][key]]
    if not rep["bounds_ok"]:
        problems.append("bounds_ok is false")
    return problems


def check_gauss(out: Path) -> List[str]:
    verdict = _load(out, "gauss.json")["report"]["verdict"]
    return [] if verdict == "ok" else [f"verdict {verdict!r}"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    label: str  # names the per-command time, as in lclt_s
    argv: Tuple[str, ...]  # recurlab arguments, without --seed and --out
    report: str  # the JSON report with the "pass" field
    check: Callable[[Path], List[str]]


# Each workload stresses other layers, so that for each optimization the
# ROADMAP names one workload runs its mechanism and the other bypasses it:
# the batched path kernel and the schedule engine run only in vector-paths,
# CF inversion and the scalar path kernel only in laws-scalar. The four
# command groups are paired into two workloads, not run as four, because
# a shared host swings one command's time by up to 2x within seconds: a run
# of one or two commands repeated five times spread by 36% over five seeds,
# and two workloads leave each run twice the time and twice the commands.
# Sizes are cut from the CLI defaults so that a repetition, with its set-up
# sample and reference job, takes 8-12 s on two cores and a 55 s run
# repeats it four to seven times; the reasons are in BENCHMARK.json.
WORKLOADS: Dict[str, Tuple[Command, ...]] = {
    "vector-paths": (
        # batched path sums: vectorized PRF hashing plus the peak sweep
        Command("recur2", ("recur2", "--horizon", "600", "--samples", "300"),
                "report.json", check_recur2),
        # range-view pool built by the schedule engine, then scalar omega
        # bits; k is pinned because the k that choose_k picks varies with
        # the seed and the probe's cost grows with k. choose_k still runs
        # and fails when every view misses some n (n=1 is missed by 27% of
        # views): with 3 views that is one seed in 40, with 7 about one in
        # 10,000
        Command("recur3", ("recur3", "--horizon", "100", "--samples", "100",
                           "--param", "pool_size=7", "--param", "k=5"),
                "recur3.json", check_recur3),
    ),
    "laws-scalar": (
        # characteristic-function inversion only: no PRF and no path work
        Command("lclt", ("lclt", "--param", "n_grid=256,1024,2048"),
                "lclt.json", check_lclt),
        Command("mixing", ("mixing", "--horizon", "512", "--samples", "20000"),
                "mixing.json", check_mixing),
        # scalar per-element field values with forced windows, and the
        # Gaussian analogue
        Command("certify", ("certify-range", "--samples", "100"),
                "certify.json", check_certify),
        Command("gauss", ("gauss", "--param", "mc=20000"), "gauss.json",
                check_gauss),
    ),
}


# ---------------------------------------------------------------------------
# running one command in a new process


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def spawn(argv: List[str], env: Dict[str, str], stderr_path: Path,
          deadline: float) -> dict:
    """Run ``argv`` to completion, killing it at ``deadline``; wall time
    from spawn to exit and the child's own rusage from ``os.wait4``."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"pid": proc.pid, "exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024.0}


def run_command(cmd: Command, seed: int, env: Dict[str, str], deadline: float,
                out: Path, trace_file: Optional[Path] = None) -> dict:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    args = [*cmd.argv, "--seed", str(seed), "--out", str(out)]
    if trace_file is None:
        argv = [sys.executable, "-m", "recurlab.cli", *args]
    else:
        trace_file.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACER), str(trace_file), out.name, *args]
    rec = spawn(argv, env, out.parent / f"{out.name}.stderr", deadline)
    rec["label"] = cmd.label
    rec["trace_file"] = trace_file and str(trace_file)
    rec["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir())}
    rec["report_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    rec["problems"] = problems = []
    if rec["exit"] != 0:
        problems.append(f"exit code {rec['exit']}")
    if not (out / cmd.report).is_file():
        problems.append(f"{cmd.report} missing")
    else:
        try:
            if _load(out, cmd.report).get("pass") is not True:
                problems.append('"pass" is not true')
            problems.extend(cmd.check(out))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"report unreadable: {exc!r}")
    return rec


def run_rep(name: str, rep: int, seed: int, env: Dict[str, str],
            deadline: float, traced: bool = False) -> List[dict]:
    tag = "traced" if traced else "plain"
    recs = []
    for cmd in WORKLOADS[name]:
        out = OUT / "runs" / f"{name}-{tag}-{rep}-{cmd.label}"
        trace_file = OUT / "traces" / f"{out.name}.json" if traced else None
        recs.append(run_command(cmd, seed, env, deadline, out, trace_file))
    return recs


# ---------------------------------------------------------------------------
# statistics and the run record


def high_percentile(values: List[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, values: List[float], unit: str) -> str:
    hp = high_percentile(values)
    tail = (f"p{hp[0]:.0f} {hp[1]:.4f} {unit}" if hp else
            "no percentile with ten samples above it")
    return (f"{name:<14} median {statistics.median(values):.4f} {unit}  "
            f"{tail}  (n={len(values)})")


def loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "git_sha": git_sha()}


def check_isolation(recs: List[dict]) -> List[str]:
    """Every timed command ran in a process of its own, and this process
    never imported recurlab, so no in-process cache carried over."""
    problems = []
    pids = [r["pid"] for r in recs]
    if len(set(pids)) != len(pids) or os.getpid() in pids:
        problems.append("two timed commands shared a process")
    if "recurlab" in sys.modules:
        problems.append("the benchmark process imported recurlab")
    return problems


def check_determinism(reps: List[List[dict]]) -> None:
    """Mark a command failed when its reports differ from the first
    repetition's at the same seed."""
    for rep in reps[1:]:
        for first, rec in zip(reps[0], rep):
            if rec["digests"] != first["digests"]:
                rec["problems"].append(
                    "reports differ from the first repetition at this seed")


# ---------------------------------------------------------------------------
# the two kinds of run


def prepare(env: Dict[str, str]) -> None:
    """Refuse to run without the package sources in this checkout; import
    once so that bytecode is compiled before anything is timed."""
    if not (SRC / "recurlab" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'recurlab'} not found; run from a "
                         "checkout of the repository")
    for d in (OUT / "runs", OUT / "traces", OUT / "tmp"):
        d.mkdir(parents=True, exist_ok=True)
    probe = subprocess.run(
        [sys.executable, "-c", "import recurlab.cli; print(recurlab.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        raise SystemExit("error: recurlab.cli does not import from "
                         f"{SRC}:\n{probe.stderr}")


def reference(env: Dict[str, str], deadline: float) -> float:
    """Wall time of one run of the reference job, in seconds."""
    rec = spawn([sys.executable, "-c", REFERENCE], env,
                OUT / "runs" / "reference.stderr", deadline)
    if rec["exit"] != 0:
        raise SystemExit("error: the reference job failed")
    return rec["wall_s"]


def measure(name: str, seed: int, seconds: float, env) -> Tuple[dict, dict]:
    start = time.perf_counter()
    deadline = start + seconds + GRACE_S
    setup, rep_times = [], []
    # refs[i] runs just before repetition i and just after repetition i - 1
    refs = [reference(env, deadline)]
    reps: List[List[dict]] = []
    while True:
        # one set-up sample before each repetition, so that set-up and the
        # commands see the same share of the machine's slow and fast spells
        rep_start = time.perf_counter()
        rec = spawn([sys.executable, "-c", "import recurlab.cli"], env,
                    OUT / "runs" / "setup.stderr", deadline)
        if rec["exit"] != 0:
            raise SystemExit("error: import recurlab.cli failed")
        setup.append(rec["wall_s"])
        reps.append(run_rep(name, len(reps), seed, env, deadline))
        refs.append(reference(env, deadline))
        now = time.perf_counter()
        rep_times.append(now - rep_start)
        # start no repetition that would end after the measuring time
        next_end = now - start + statistics.median(rep_times)
        if len(reps) >= MIN_REPS and next_end > seconds:
            break
    check_determinism(reps)
    walls = [sum(r["wall_s"] for r in rep) for rep in reps]
    # the median, not the largest: recur2's max RSS at one seed takes one
    # of two or three values (233, 237 and, now and then, 262 MB) from one
    # process to the next, and the largest of a run follows the rare one
    rss = [max(r["max_rss_mb"] for r in rep) for rep in reps]
    setup_ref = [REFERENCE_S * t / refs[i] for i, t in enumerate(setup)]
    walls_ref = [REFERENCE_S * t / ((refs[i] + refs[i + 1]) / 2)
                 for i, t in enumerate(walls)]
    metrics = {"setup_s": statistics.median(setup_ref),
               "wall_s": statistics.median(walls_ref),
               "peak_rss_mb": statistics.median(rss)}
    lines = [describe("setup_s", setup_ref, "ref-s"),
             describe("wall_s", walls_ref, "ref-s"),
             describe("reference", refs, "s"),
             "as measured, in seconds:",
             describe("setup_s", setup, "s"), describe("wall_s", walls, "s")]
    for i, cmd in enumerate(WORKLOADS[name]):
        lines.append(describe(f"{cmd.label}_s", [rep[i]["wall_s"] for rep in reps], "s"))
        lines.append(describe(f"{cmd.label}_cpu_s", [rep[i]["cpu_s"] for rep in reps], "s"))
    lines.append(f"{'peak_rss_mb':<14} median {statistics.median(rss):.4f} MB  "
                 f"max {max(rss):.4f} MB  (n={len(rss)})")
    detail = {"setup_s": setup, "reference_s": refs, "reps": reps,
              "lines": lines}
    return metrics, detail


def trace(name: str, seed: int, seconds: float, env) -> Tuple[dict, dict]:
    deadline = time.perf_counter() + seconds + GRACE_S
    plain = run_rep(name, 0, seed, env, deadline)
    # the named workload is traced right after its untraced run, so that
    # both see the machine at the same speed and the overhead is their
    # difference
    order = [name, *(w for w in WORKLOADS if w != name)]
    traced = {w: run_rep(w, 0, seed, env, deadline, traced=True)
              for w in order}
    reps = [plain, traced[name]]
    check_determinism(reps)
    traces = []
    for rec in (r for recs in traced.values() for r in recs):
        path = Path(rec["trace_file"])
        if path.is_file():
            traces.append(json.loads(path.read_text()))
        else:
            rec["problems"].append("trace file missing")
    overhead = (sum(r["wall_s"] for r in traced[name])
                - sum(r["wall_s"] for r in plain))
    report_bytes = sum(r["report_bytes"] for recs in traced.values() for r in recs)
    metrics = layer_metrics(traces, report_bytes, overhead)
    lines = [f"{m:<36} {metrics[m]:.6g} {unit}  ({better} is better; moves {moves})"
             for m, unit, better, moves in PER_LAYER]
    detail = {"reps": [plain, *traced.values()], "lines": lines}
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    env = child_env()
    load_start = loadavg()
    if traced:
        metrics, detail = trace(name, seed, seconds, env)
        units = {m: unit for m, unit, _, _ in PER_LAYER}
    else:
        metrics, detail = measure(name, seed, seconds, env)
        units = dict(END_TO_END)
    recs = [r for rep in detail["reps"] for r in rep]
    run_problems = check_isolation(recs)
    failed = sum(1 for r in recs if r["problems"])
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    kind = ("untraced once, then every workload traced once" if traced
            else f"untraced, {len(detail['reps'])} repetitions")
    print(f"== {name}  seed {seed}  {kind}")
    for line in detail["lines"]:
        print("  " + line)
    print(f"  fail_ratio     {failed / len(recs):.4f} ratio "
          f"({failed} of {len(recs)} commands)")
    for r in recs:
        for problem in r["problems"]:
            print(f"  FAILED {r['label']} (pid {r['pid']}): {problem}")
    for problem in run_problems:
        print(f"  FAILED run: {problem}")
    for label, digests in {r["label"]: r["digests"] for r in recs}.items():
        for fname, digest in digests.items():
            print(f"  sha256 {label}/{fname} {digest[:16]}")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "machine": machine(),
              "loadavg_start": load_start, "loadavg_end": loadavg(),
              "setup_s": detail.get("setup_s"),
              "reference_s": detail.get("reference_s"), "commands": recs,
              "run_problems": run_problems, "result": result}
    path = OUT / f"record-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"  record {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare(child_env())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
