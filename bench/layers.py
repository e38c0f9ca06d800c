"""Per-layer metrics computed from the span files that ``tracer.py`` writes.

``PER_LAYER`` lists every metric with its unit, which direction is better,
and the end-to-end metric and workload it should move. A layer's self time
is its span time minus the time of its child spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

# (name, unit, better, end-to-end metric . workload it should move)
PER_LAYER = [
    ("prf.vec_calls", "count", "lower", "recur2_s.vector-paths, recur3_s.vector-paths"),
    ("prf.vec_hashes", "count", "lower", "recur2_s.vector-paths, recur3_s.vector-paths"),
    ("prf.vec_s", "s", "lower", "recur2_s.vector-paths, recur3_s.vector-paths"),
    ("prf.vec_hashes_per_s", "1/s", "higher", "recur2_s.vector-paths, recur3_s.vector-paths"),
    ("prf.scalar_calls", "count", "lower", "certify_s.laws-scalar, recur3_s.vector-paths"),
    ("prf.derive_rng_calls", "count", "lower", "recur3_s.vector-paths"),
    ("fields.partial_sums_batch_s", "s", "lower", "recur2_s, peak_rss_mb.vector-paths"),
    ("fields.partial_sums_batch_self_s", "s", "lower", "recur2_s, peak_rss_mb.vector-paths"),
    ("fields.seed_steps", "count", "lower", "recur2_s, peak_rss_mb.vector-paths"),
    ("fields.seed_steps_per_s", "1/s", "higher", "recur2_s, peak_rss_mb.vector-paths"),
    ("fields.partial_sums_calls", "count", "lower", "certify_s.laws-scalar"),
    ("fields.partial_sums_s", "s", "lower", "certify_s.laws-scalar"),
    ("fields.field_value_calls", "count", "lower", "certify_s.laws-scalar"),
    ("bigsums.schedule_sums_calls", "count", "lower", "recur3_s.vector-paths"),
    ("bigsums.schedule_sums_s", "s", "lower", "recur3_s.vector-paths"),
    ("bigsums.schedule_times", "count", "lower", "recur3_s.vector-paths"),
    ("bigsums.endpoints_per_s", "1/s", "higher", "recur3_s.vector-paths"),
    ("bigsums.endpoint_batch_law_s", "s", "lower", "mixing_s.laws-scalar"),
    ("pmf.walk_pmf_calls", "count", "lower", "lclt_s, mixing_s.laws-scalar"),
    ("pmf.walk_pmf_s", "s", "lower", "lclt_s, mixing_s.laws-scalar"),
    ("pmf.walk_pmf_max_s", "s", "lower", "lclt_s, mixing_s.laws-scalar"),
    ("pmf.groups", "count", "lower", "lclt_s, mixing_s.laws-scalar"),
    ("pmf.alias_bound_max", "1", "lower", "must not rise when lclt_s falls"),
    ("pmf.tail_variance_max", "1", "lower", "must not rise when lclt_s falls"),
    ("pmf.peak_sweep_s", "s", "lower", "recur2_s.vector-paths"),
    ("pmf.peak_sweep_n", "count", "lower", "recur2_s.vector-paths"),
    ("pmf.lclt_deviation_s", "s", "lower", "lclt_s.laws-scalar"),
    ("ranges.view_build_calls", "count", "lower", "recur3_s.vector-paths"),
    ("ranges.view_build_s", "s", "lower", "recur3_s.vector-paths"),
    ("ranges.view_build_p50_s", "s", "lower", "recur3_s.vector-paths"),
    ("ranges.view_build_max_s", "s", "lower", "recur3_s.vector-paths"),
    ("ranges.build_range_tables_self_s", "s", "lower", "recur3_s.vector-paths"),
    ("ranges.choose_k_s", "s", "lower", "recur3_s.vector-paths"),
    ("ranges.certify_distinct_self_s", "s", "lower", "certify_s.laws-scalar"),
    ("shiftspace.bit_calls", "count", "lower", "recur3_s.vector-paths"),
    ("gaussian.power_density_model_s", "s", "lower", "gauss_s.laws-scalar"),
    ("gaussian.triple_probability_calls", "count", "lower", "gauss_s.laws-scalar"),
    ("gaussian.triple_probability_s", "s", "lower", "gauss_s.laws-scalar"),
    ("gaussian.mc_draws", "count", "lower", "gauss_s.laws-scalar"),
    ("gaussian.sample_paths_s", "s", "lower", "gauss_s.laws-scalar"),
    ("gaussian.sample_paths_rows", "count", "lower", "gauss_s.laws-scalar"),
    ("experiments.exp_section2_self_s", "s", "lower", "recur2_s.vector-paths"),
    ("experiments.exp_section3_self_s", "s", "lower", "recur3_s.vector-paths"),
    ("experiments.section3_cover_ratio", "ratio", "higher", "recur3_s.vector-paths"),
    ("experiments.mixing_probe_self_s", "s", "lower", "mixing_s.laws-scalar"),
    ("experiments.exp_gaussian_self_s", "s", "lower", "gauss_s.laws-scalar"),
    ("experiments.gauss_accept_ratio", "ratio", "higher", "gauss_s.laws-scalar"),
    ("cli.self_s", "s", "lower", "every *_s"),
    ("cli.report_bytes", "bytes", "lower", "every *_s"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall of the workload"),
]


class Spans:
    """The spans and counters of several traced commands, indexed by name."""

    def __init__(self, traces: List[dict]):
        self.by_name: Dict[str, list] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        for trace in traces:
            spans = trace["spans"]
            child_time = [0.0] * len(spans)
            for name, start, end, parent, info in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for idx, (name, start, end, parent, info) in enumerate(spans):
                parent_name = spans[parent][0] if parent >= 0 else None
                self.by_name[name].append(
                    (end - start, end - start - child_time[idx], parent_name, info or {}))
            for name, count in trace["counters"].items():
                self.counters[name] += count

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str) -> float:
        return sum(s[0] for s in self.by_name[name])

    def self_time(self, *names: str) -> float:
        return sum(s[1] for name in names for s in self.by_name[name])

    def durations(self, name: str) -> List[float]:
        return [s[0] for s in self.by_name[name]]

    def info(self, name: str, key: str, parent: str = None) -> List[float]:
        return [s[3][key] for s in self.by_name[name]
                if parent is None or s[2] == parent]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: List[dict], report_bytes: int,
                  overhead_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric over the given traced commands."""
    sp = Spans(traces)
    builds = sp.durations("ranges.PermutationView.build")
    cli_spans = [name for name in sp.by_name if name.startswith("cli.")]
    vec_hashes = sum(sp.info("prf.hash_words_vec", "hashes"))
    seed_steps = sum(sp.info("fields.partial_sums_batch", "seed_steps"))
    sched_times = sum(sp.info("bigsums.schedule_sums", "times"))
    in_surrogate = sum(sp.info("experiments.exp_section3", "in_surrogate"))
    s3_samples = sum(sp.info("experiments.exp_section3", "samples"))
    kept = sum(sp.info("gaussian.sample_paths", "kept", "experiments.exp_gaussian"))
    drawn = sum(sp.info("gaussian.sample_paths", "rows", "experiments.exp_gaussian"))
    values = {
        "prf.vec_calls": sp.calls("prf.hash_words_vec"),
        "prf.vec_hashes": vec_hashes,
        "prf.vec_s": sp.total("prf.hash_words_vec"),
        "prf.vec_hashes_per_s": _ratio(vec_hashes, sp.total("prf.hash_words_vec")),
        "prf.scalar_calls": sp.counters["prf.hash_words"],
        "prf.derive_rng_calls": sp.calls("prf.derive_rng"),
        "fields.partial_sums_batch_s": sp.total("fields.partial_sums_batch"),
        "fields.partial_sums_batch_self_s": sp.self_time("fields.partial_sums_batch"),
        "fields.seed_steps": seed_steps,
        "fields.seed_steps_per_s": _ratio(seed_steps, sp.total("fields.partial_sums_batch")),
        "fields.partial_sums_calls": sp.calls("fields.partial_sums"),
        "fields.partial_sums_s": sp.total("fields.partial_sums"),
        "fields.field_value_calls": sp.counters["fields.field_value"],
        "bigsums.schedule_sums_calls": sp.calls("bigsums.schedule_sums"),
        "bigsums.schedule_sums_s": sp.total("bigsums.schedule_sums"),
        "bigsums.schedule_times": sched_times,
        "bigsums.endpoints_per_s": _ratio(sched_times, sp.total("bigsums.schedule_sums")),
        "bigsums.endpoint_batch_law_s": sp.total("bigsums.endpoint_batch_law"),
        "pmf.walk_pmf_calls": sp.calls("pmf.walk_pmf"),
        "pmf.walk_pmf_s": sp.total("pmf.walk_pmf"),
        "pmf.walk_pmf_max_s": max(sp.durations("pmf.walk_pmf"), default=0.0),
        # only the groups that a CF inversion runs over, not the per-scale
        # laws that the endpoint sampler also builds with grouped_law
        "pmf.groups": sum(sp.info("pmf.grouped_law", "groups", "pmf.walk_pmf")),
        "pmf.alias_bound_max": max(sp.info("pmf.walk_pmf", "alias_bound"), default=0.0),
        "pmf.tail_variance_max": max(sp.info("pmf.walk_pmf", "tail_variance"), default=0.0),
        "pmf.peak_sweep_s": sp.total("pmf.peak_probability_sweep"),
        "pmf.peak_sweep_n": sum(sp.info("pmf.peak_probability_sweep", "n")),
        "pmf.lclt_deviation_s": sp.total("pmf.lclt_deviation"),
        "ranges.view_build_calls": len(builds),
        "ranges.view_build_s": sum(builds),
        "ranges.view_build_p50_s": statistics.median(builds) if builds else 0.0,
        "ranges.view_build_max_s": max(builds, default=0.0),
        "ranges.build_range_tables_self_s": sp.self_time("ranges.build_range_tables"),
        "ranges.choose_k_s": sp.total("ranges.choose_k"),
        "ranges.certify_distinct_self_s": sp.self_time("ranges.certify_distinct"),
        "shiftspace.bit_calls": sp.counters["shiftspace.OmegaConfig.bit"],
        "gaussian.power_density_model_s": sp.total("gaussian.power_density_model"),
        "gaussian.triple_probability_calls": sp.calls("gaussian.triple_probability"),
        "gaussian.triple_probability_s": sp.total("gaussian.triple_probability"),
        "gaussian.mc_draws": sum(sp.info("gaussian.triple_probability", "draws")),
        "gaussian.sample_paths_s": sp.total("gaussian.sample_paths"),
        "gaussian.sample_paths_rows": sum(sp.info("gaussian.sample_paths", "rows")),
        "experiments.exp_section2_self_s": sp.self_time("experiments.exp_section2"),
        "experiments.exp_section3_self_s": sp.self_time("experiments.exp_section3"),
        "experiments.section3_cover_ratio": _ratio(in_surrogate, s3_samples),
        "experiments.mixing_probe_self_s": sp.self_time("experiments.mixing_probe"),
        "experiments.exp_gaussian_self_s": sp.self_time("experiments.exp_gaussian"),
        "experiments.gauss_accept_ratio": _ratio(kept, drawn),
        "cli.self_s": sp.self_time(*cli_spans),
        "cli.report_bytes": report_bytes,
        "trace.overhead_s": overhead_s,
    }
    if list(values) != [m[0] for m in PER_LAYER]:
        raise RuntimeError("layer_metrics and PER_LAYER list different metrics")
    return values
