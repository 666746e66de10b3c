#!/usr/bin/env python3
"""Benchmark of the MMT simulator: one command, three workloads.

    python3 perfbench/run.py --workload fig5c-cold --seed 1 --seconds 15 \\
        --trace 0

Run from the repository root. Builds the harness (perfbench/harness.cc,
linked against ../src) into .bench_build/, measures the workload for
--seconds, checks every output, prints every metric by name and unit,
and ends with one JSON line {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Exits 1 when any check failed, 2 when the harness cannot be built or
run. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ("fig5c-cold", "fuzz-seeded", "warm-resweep")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Set-up time is the median over this many fresh processes plus the
# measured one: the registries are per-process statics.
SETUP_PROBES = 10
# A run ends within 180 s; leave margin for the build check and set-up.
HARNESS_TIMEOUT_S = 170
PAPER_NOTE = ("MICRO 2010 Fig. 5(c), MMT-FXR at 4 threads; the model is "
              "validated only against this published geomean")

# warm-resweep simulates nothing: its cycles and speedup are read from the
# store. The result still carries them, but they are labelled as such.
NOT_SIMULATED = {
    "sim_kcycles_per_ref": "not applicable: stored cycles / pass time, "
                           "not a simulation rate",
    "speedup_fxr_geomean": "loaded from the store, not simulated",
}

# Host times are in units of the reference loop interleaved with each
# pass (harness.cc, referenceLoop): the host's speed drifts by tens of
# percent over seconds, and the ratio cancels much of it. The raw seconds
# are printed, and are per-layer metrics.
END_TO_END_UNITS = {
    "wall_ref": "ref",
    "sim_kcycles_per_ref": "kcycles/ref",
    "speedup_fxr_geomean": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once, then build incrementally; returns the binary path."""
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the "
             "repository root")
    bdir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        # The build type the repository's own build and CI use.
        cmd = ["cmake", "-S", src, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "mmt_perfbench")


def run_harness(binary, argv):
    """Run the harness; returns (launch time on CLOCK_MONOTONIC in ns,
    its JSON output)."""
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run([binary] + argv, stdout=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with status {proc.returncode}")
    out = argv[argv.index("--out") + 1]
    with open(out) as f:
        return t0, json.load(f)


def wall_refs(passes):
    return [p["wall_s"] / p["ref_s"] for p in passes]


def end_to_end(res, setup_samples):
    passes = res["passes"]
    return {
        "wall_ref": statistics.median(wall_refs(passes)),
        "sim_kcycles_per_ref": statistics.median(
            [p["sim_cycles"] / 1e3 / w
             for p, w in zip(passes, wall_refs(passes))]),
        "speedup_fxr_geomean": passes[0]["speedup"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }


def per_layer(res, spans):
    traced_roots = {p["root_span"] for p in res["traced_passes"]}
    out = metrics.layer_metrics(spans, traced_roots)
    out["runner.pool_busy_frac"] = statistics.median(
        [p["busy_s"] / (p["wall_s"] * p["workers"]) for p in res["passes"]])
    out["trace.overhead_frac"] = (
        statistics.median(wall_refs(res["traced_passes"])) /
        statistics.median(wall_refs(res["passes"])) - 1.0)
    out["host.wall_s"] = statistics.median(
        [p["wall_s"] for p in res["passes"]])
    out["host.ref_loop_ms"] = 1e3 * statistics.median(
        [p["ref_s"] for p in res["passes"]])
    out.update(res["simulated"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-entries", type=int, default=0,
                    help="corrupt this many warm-resweep store entries "
                         "after preparing them (tests the failure path)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    binary = build(root)
    work = os.path.join(root, ".bench_build", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--workdir", os.path.join(work, "harness")]
        prepared = {"attempted": 0, "failed": 0, "failures": []}
        if args.workload == "warm-resweep":
            # The store is an untimed fixture, prepared by a process of
            # its own so that it does not count in the measured
            # process's peak RSS.
            _, prepared = run_harness(binary, common + [
                "--prepare-only",
                "--corrupt-entries", str(args.corrupt_entries),
                "--out", os.path.join(work, "prepared.json")])
        setup = []
        for i in range(SETUP_PROBES):
            t0, probe = run_harness(
                binary, common + ["--setup-only",
                                  "--out", os.path.join(work, f"p{i}.json")])
            setup.append((probe["ready_ns"] - t0) / 1e9)
        argv = common + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--out", os.path.join(work, "result.json")]
        t0, res = run_harness(binary, argv)
        setup.append((res["ready_ns"] - t0) / 1e9)
        spans = []
        if args.trace:
            with open(os.path.join(work, "result.json.spans")) as f:
                spans = metrics.parse_spans(f.read())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = prepared["attempted"] + res["attempted"] + 1
    failed = prepared["failed"] + res["failed"]
    if len({p["speedup"]
            for p in res["passes"] + res["traced_passes"]}) != 1:
        failed += 1
        print("CHECK FAILED: simulated speedup differs between passes",
              file=sys.stderr)
    e2e = end_to_end(res, setup)
    layers = {}
    if args.trace:
        layers = per_layer(res, spans)
        for span in metrics.EXPECTED_LAYERS[args.workload]:
            attempted += 1
            if layers[metrics.layer_metric_names(span)[1]] == 0:
                failed += 1
                print(f"CHECK FAILED: no {span} span in the traced pass",
                      file=sys.stderr)

    walls = [p["wall_s"] for p in res["passes"]]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  passes: {len(walls)} untraced, "
          f"{len(res['traced_passes'])} traced")
    for label, samples, unit in (("wall_s", walls, "s"),
                                 ("wall_ref", wall_refs(res["passes"]),
                                  "ref")):
        tail = metrics.tail_percentile(samples)
        print(f"  {label}: median {statistics.median(samples):.6g} {unit} "
              f"over {len(samples)} passes; " +
              (f"p{tail[0]} = {tail[1]:.6g} {unit} (10 samples beyond it)"
               if tail else "too few for a percentile with 10 beyond"))
    print("  setup_s samples: " + " ".join(f"{v:.4f}" for v in setup))
    print(f"  checks: {attempted} attempted, {failed} failed, failed_frac "
          f"{failed / attempted:.6f}")
    for msg in prepared["failures"] + res["failures"]:
        print(f"  failure: {msg}")
    if res["paper_speedup"] is not None:
        err = e2e["speedup_fxr_geomean"] / res["paper_speedup"] - 1.0
        print(f"  speedup_fxr_geomean {e2e['speedup_fxr_geomean']:.4f} vs "
              f"paper {res['paper_speedup']:.2f} (error {err:+.1%}; "
              f"{PAPER_NOTE})")
    else:
        print("  speedup_fxr_geomean: generated programs have no published "
              "reference; unvalidated")

    if args.trace:
        units = metrics.per_layer_units()
        shown = {k: layers[k] for k in units}
    else:
        units = END_TO_END_UNITS
        shown = e2e
    for name, value in shown.items():
        note = ""
        if args.workload == "warm-resweep" and name in NOT_SIMULATED:
            note = f"; {NOT_SIMULATED[name]}"
        print(f"  {name} = {value:.6g} {units[name]}  "
              f"(seed {args.seed}{note})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in shown.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
