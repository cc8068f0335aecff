#!/usr/bin/env python3
"""Builds and runs one workload of the dckpt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the dckpt libraries
with the repository's own CMake project (tests, benches and examples off)
and then the perfbench runner, under .bench_build/. The runner runs the
workload in one process and prints its metrics; this script checks them
against BENCHMARK.json and prints, as the last line of standard output,
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Host evidence (nproc, CPU steal ticks, involuntary context switches) and,
for --trace 1, the self time per layer go to standard error and to a
report under .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
RUNNER = BUILD / "runner" / "perfbench_runner"

sys.path.insert(0, str(HERE))
import trace_summary  # noqa: E402

# Per-layer metric prefixes each workload measures. A per-layer metric of
# a layer the workload does not run reads 0.
COMMON_LAYERS = ("host.", "trace.")
WORKLOAD_LAYERS = {
    "campaign-paper": ("util.", "sim.campaign_ms", "sim.short_campaign_",
                       "sim.kernel.",
                       "sim.ns_per_kernel_event", "sim.trials_per_s_mt",
                       "sim.parallel_efficiency"),
    "runtime-full": ("runtime.", "ckpt."),
    "serve-mix": ("model.", "sim.service.", "sim.server.", "serve."),
}
WORKLOAD_LAYERS["campaign-extended"] = WORKLOAD_LAYERS["campaign-paper"]
WORKLOAD_LAYERS["runtime-dcp"] = WORKLOAD_LAYERS["runtime-full"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, log):
    with open(log, "a", encoding="utf-8") as handle:
        handle.write("$ " + " ".join(command) + "\n")
        handle.flush()
        done = subprocess.run(command, stdout=handle, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=840, check=False)
    if done.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed: {' '.join(command)}")


def build():
    """Configures once, then brings the libraries and runner up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no dckpt sources next to {HERE.name}/ (run from a checkout)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(os.cpu_count() or 1)
    libs = BUILD / "dckpt"
    if not (libs / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(ROOT), "-B", str(libs),
                    "-DCMAKE_BUILD_TYPE=Release", "-DDCKPT_BUILD_TESTS=OFF",
                    "-DDCKPT_BUILD_BENCH=OFF", "-DDCKPT_BUILD_EXAMPLES=OFF"],
                   log)
    run_logged(["cmake", "--build", str(libs), "-j", jobs], log)
    runner = BUILD / "runner"
    if not (runner / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(runner),
                    "-DCMAKE_BUILD_TYPE=Release", f"-DDCKPT_ROOT={ROOT}",
                    f"-DDCKPT_LIB_DIR={libs}"], log)
    run_logged(["cmake", "--build", str(runner), "-j", jobs], log)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(workload, trace, metrics):
    """Returns the metrics in declared order; fails on any mismatch."""
    declared = declared_metrics(trace)
    for name, metric in metrics.items():
        if name not in declared:
            fail(f"{workload} printed undeclared metric {name}")
        if metric["unit"] != declared[name]:
            fail(f"{name}: unit {metric['unit']} but BENCHMARK.json says "
                 f"{declared[name]}")
    out = {}
    for name, unit in declared.items():
        if name in metrics:
            value = metrics[name]["value"]
        elif trace and not name.startswith(WORKLOAD_LAYERS[workload]
                                           + COMMON_LAYERS):
            value = 0.0  # layer not run by this workload
        else:
            fail(f"{workload} did not report {name}")
        if not isinstance(value, (int, float)) or value != value:
            fail(f"{name} is not a number: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOAD_LAYERS:
        fail(f"unknown workload {args.workload}")
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json missing")

    build()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{stem}.jsonl"
    command = [str(RUNNER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spans-out", str(spans_path)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=3 * args.seconds + 60,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"runner exited with {done.returncode}")
    result = json.loads(lines[-1])
    metrics = check_metrics(args.workload, args.trace == 1, result["metrics"])

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": result["host"], **{k: result[k] for k in
                                          ("correct", "attempted", "failed")},
              "metrics": metrics}
    print("host: " + json.dumps(result["host"], sort_keys=True),
          file=sys.stderr)
    if args.trace:
        spans = trace_summary.load_spans(spans_path)
        summary = trace_summary.format_summary(spans, metrics)
        print(summary, file=sys.stderr)
        report["layer_self_ms"] = {
            layer: ns / 1e6 for layer, (ns, _) in
            trace_summary.layer_self_times(spans).items()}
    (OUT / f"report-{stem}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    correct = bool(result["correct"]) and result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
