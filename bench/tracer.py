"""Run one ``recurlab`` CLI command with the package's public functions wrapped.

Usage: python3 bench/tracer.py TRACE_FILE TRACE_ID COMMAND [ARGS ...]

Every public function of every ``recurlab`` module, plus the methods listed
in ``METHODS``, is replaced by a wrapper that records a span (name, start,
end, parent) in memory; all spans of the command share TRACE_ID. The
wrapper is installed on every module that binds the function, so a
``from .pmf import walk_pmf`` in ``cli`` and ``experiments`` is traced as
well as ``pmf.walk_pmf`` itself. Per-element
functions in ``COUNT_ONLY`` are called up to millions of times per command,
so they are counted, not spanned. ``EXTRACTORS`` read work sizes and error
bounds from results and store them with the span. The spans and counters
are written to TRACE_FILE as JSON when the command exits; the process exit
code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MODULES = ("prf", "fields", "bigsums", "pmf", "shiftspace", "ranges",
           "gaussian", "experiments", "cli")

METHODS = {
    "shiftspace.OmegaConfig": ("bit", "bits_1d"),
    "ranges.PermutationView": ("build", "tilde_S_origin_bit"),
    "gaussian.SpectralModel": ("r", "r_vector"),
}

COUNT_ONLY = {
    "prf.hash_words", "prf.uniform01", "fields.field_value",
    "fields.lag_namespace", "fields.scale_params", "fields.f_k_at",
    "fields.f_at", "shiftspace.OmegaConfig.bit", "gaussian.SpectralModel.r",
    "gaussian.upper_tail", "ranges.complement_point",
    "ranges.complement_index", "ranges.PermutationView.tilde_S_origin_bit",
}


# name -> f(result) -> values stored with the span, read after the span has
# been closed so that the reading is not timed
EXTRACTORS = {
    "prf.hash_words_vec": lambda r: {"hashes": int(r.size)},
    "fields.partial_sums_batch": lambda r: {
        "seed_steps": int(r.shape[0]) * (int(r.shape[1]) - 1)},
    "bigsums.schedule_sums": lambda r: {"times": len(r.times)},
    "pmf.grouped_law": lambda r: {"groups": int(r.values.size)},
    "pmf.walk_pmf": lambda r: {"alias_bound": float(r[1].alias_bound),
                                     "tail_variance": float(r[1].tail_variance)},
    "pmf.peak_probability_sweep": lambda r: {"n": int(r.size)},
    "gaussian.triple_probability": lambda r: {"draws": int(r.samples)},
    "gaussian.sample_paths": lambda r: {
        "rows": int(r.shape[0]), "kept": int((r[:, 0] > 1.0).sum())},
    "experiments.exp_section3": lambda r: {
        "in_surrogate": int(r.in_surrogate), "samples": int(r.samples)},
}


class Recorder:
    """In-memory spans and counters of one traced command."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        # [name, start, end, parent index or -1, extracted values or None]
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()

    def span(self, name, fn):
        spans, stack = self.spans, self.stack
        extract = EXTRACTORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extract is not None:
                rec[4] = extract(result)
            return result
        return wrapper

    def count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name, fn):
        return (self.count if name in COUNT_ONLY else self.span)(name, fn)

    def dump(self, path: Path, exit_code: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "trace_id": self.trace_id, "exit": exit_code, "spans": self.spans,
            "counters": dict(self.counters)}))


def install(rec: Recorder) -> None:
    """Wrap every public function and listed method of the package."""
    mods = {name: importlib.import_module(f"recurlab.{name}") for name in MODULES}
    wrapped = {}  # id(original) -> wrapper
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped[id(obj)] = rec.wrap(f"{name}.{attr}", obj)
    for cls_path, methods in METHODS.items():
        mod_name, cls_name = cls_path.split(".")
        cls = getattr(mods[mod_name], cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(f"{cls_path}.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, rec.wrap(f"{cls_path}.{meth}", raw))
    # rebind every module attribute and module-level dict entry (such as the
    # CLI's runner table) that still points at an original
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if callable(val) and id(val) in wrapped:
                        obj[key] = wrapped[id(val)]


def main(argv) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trace_file, trace_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    rec = Recorder(trace_id)
    install(rec)
    cli = sys.modules["recurlab.cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        rec.dump(trace_file, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
