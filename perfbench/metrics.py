"""Pure metric computations of the benchmark (no I/O), shared by run.py
and the benchmark's own tests."""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

# Layer spans recorded by the harness, named after the layer whose public
# entry point each one wraps (README.md lists the entry points). Each
# yields <span>_ms, <span>_calls and <span>_self_ms, except that
# runWorkload's self time is reported as its set-up cost.
LAYERS = [
    "cc.compile", "iasm.assemble", "analysis.analyze", "analysis.bound",
    "analysis.race_gate", "analysis.predict", "profile.generate",
    "profile.golden", "sim.workload", "core.run", "runner.sweep",
    "runner.load", "runner.store", "runner.render",
    # The harness's own spans: set-up, one pass, one generated program.
    "bench.setup", "bench.pass", "bench.job",
]
SELF_NAME = {"sim.workload": "sim.setup_ms"}

# Layers the traced pass must reach on each workload; a layer with no
# span there means a wrapper stopped intercepting its entry point.
EXPECTED_LAYERS = {
    "fig5c-cold": ["cc.compile", "runner.sweep", "analysis.predict",
                   "iasm.assemble", "analysis.analyze", "runner.load",
                   "sim.workload", "core.run", "profile.golden",
                   "runner.store", "runner.render"],
    "fuzz-seeded": ["cc.compile", "bench.job", "profile.generate",
                    "iasm.assemble", "analysis.analyze", "sim.workload",
                    "core.run", "profile.golden", "analysis.bound",
                    "analysis.race_gate"],
    "warm-resweep": ["cc.compile", "runner.sweep", "analysis.predict",
                     "iasm.assemble", "analysis.analyze", "runner.load",
                     "runner.render"],
}

# Exact simulated counts over MMT-FXR jobs, from the harness.
SIMULATED = [
    ("core.fetch.records_per_kinst", "1/kinst"),
    ("core.fetch.merge_frac", "frac"),
    ("core.fetch.detect_frac", "frac"),
    ("core.fetch.catchup_frac", "frac"),
    ("core.mmt.exec_merged_frac", "frac"),
    ("core.mmt.lvip_rollbacks_per_kinst", "1/kinst"),
    ("core.mmt.remerges", "count"),
    ("core.mmt.catchup_aborted", "count"),
    ("core.mmt.regmerge_port_starved", "count"),
    ("core.iq.wakeups_per_cycle", "1/cycle"),
    ("branch.mispredicts_per_kinst", "1/kinst"),
    ("mem.l1d_miss_rate", "frac"),
    ("mem.l2_miss_rate", "frac"),
    ("mem.tracecache_miss_rate", "frac"),
    ("mem.mshr_stalls", "count"),
    ("energy.pj_per_inst", "pJ/inst"),
    ("energy.overhead_frac", "frac"),
    ("sim.ipc", "inst/cycle"),
    ("sim.cycles_total", "cycles"),
]


def layer_metric_names(span):
    """(total, calls, self) metric names of one layer span."""
    return (f"{span}_ms", f"{span}_calls",
            SELF_NAME.get(span, f"{span}_self_ms"))


def per_layer_units():
    """Every per-layer metric name -> unit, in output order."""
    units = {}
    for span in LAYERS:
        total, calls, self_ = layer_metric_names(span)
        units[total] = "ms"
        units[calls] = "count"
        units[self_] = "ms"
    units["core.ns_per_sim_cycle"] = "ns/cycle"
    units["runner.pool_busy_frac"] = "frac"
    units["trace.overhead_frac"] = "frac"
    # Raw host time of the untraced passes, and the reference loop's time
    # that the end-to-end wall_ref divides it by.
    units["host.wall_s"] = "s"
    units["host.ref_loop_ms"] = "ms"
    for name, unit in SIMULATED:
        units[name] = unit
    return units


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def tail_percentile(samples, tail=10):
    """Highest whole percentile (nearest-rank) with at least `tail`
    samples ranked beyond it, as (percentile, value); None when there
    are too few samples for any."""
    n = len(samples)
    ordered = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= tail:
            return p, ordered[rank - 1]
    return None


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> duration minus the part its child spans cover. Time no
    child covers stays with the parent, so gaps show up as self time."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) -
            covered_ns(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def parse_spans(text):
    spans = []
    for line in text.splitlines():
        if not line:
            continue
        f = line.split("\t")
        spans.append({"id": int(f[0]), "parent": int(f[1]),
                      "job": int(f[2]), "thread": int(f[3]), "name": f[4],
                      "start": int(f[5]), "end": int(f[6]),
                      "count": int(f[7])})
    return spans


def layer_metrics(spans, traced_roots):
    """Per-layer totals from the traced run: spans under a traced pass
    root are averaged per pass, spans under the set-up root (mmtc's
    compile) count once per process."""
    by_id = {s["id"]: s for s in spans}
    passes = max(len(traced_roots), 1)

    def root_of(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s

    selfs = self_times(spans)
    out = {}
    for span in LAYERS:
        for name in layer_metric_names(span):
            out[name] = 0.0
    run_ns = run_cycles = 0
    for s in spans:
        root = root_of(s)
        if root["name"] == "bench.setup":
            weight = 1.0
        elif root["id"] in traced_roots:
            weight = 1.0 / passes
        else:
            continue
        if s["name"] not in LAYERS:
            continue
        total, calls, self_ = layer_metric_names(s["name"])
        out[total] += weight * (s["end"] - s["start"]) / 1e6
        out[calls] += weight
        out[self_] += weight * selfs[s["id"]] / 1e6
        if s["name"] == "core.run":
            run_ns += s["end"] - s["start"]
            run_cycles += s["count"]
    out["core.ns_per_sim_cycle"] = run_ns / run_cycles if run_cycles else 0.0
    return out

