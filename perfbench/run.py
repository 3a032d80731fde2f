#!/usr/bin/env python3
"""faaspart benchmark: three serving workloads, measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cluster-mps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload llm-disagg --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --ladder [--seed 1]

The script builds perfbench/ (the simulator libraries from src/ plus the
faasbench driver) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then spawns one faasbench process per workload run, so every run is a single
worker thread in its own process with a cold heap.

--trace 0 measures the end-to-end metrics. A workload is one runner point
replayed under a fixed set of sub-seeds derived from --seed; runs cycle over
the sub-seeds until --seconds have passed. Each metric is the median over a
sub-seed's runs, then the mean over the sub-seeds.

--trace 1 measures the per-layer metrics on the first sub-seed: rounds of an
untraced run, a metrics-only run and a fully traced run (plus, on
cluster-mps, a run without the endpoints' Recorder), interleaved until
--seconds have passed and judged on medians; a ledger run that reads the
layer counts and samples the operating point; and one probe per layer
driven at that operating point.

Every run is checked: each request settles exactly once, repeated runs of
one sub-seed agree exactly, instrumented runs reproduce the untraced outcome,
and one run per invocation is compared with runner::run_*_point for the same
point and seed. `attempted` counts the workload runs and probes made;
`failed` counts those that failed a check or did not finish.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it print every metric
by name with its unit.

--ladder runs cluster-mps at 4, 16 and 64 endpoints with load scaled to the
fleet and prints run_cpu_s, peak_rss_mb, sim.events_per_req and
sim.ns_per_event per rung, each the median of LADDER_REPS runs.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sub-seeds per run: enough independent replays that the across-seed spread of
# the modelled outcome (the scenario trace's bursts, the cluster's WAN-tier
# mix) averages out within one run.
WORKLOADS = {
    "cluster-mps": {"subseeds": 24, "gpu": True, "recorder": True, "wfq": True, "kv": False},
    "scenario-cpu": {"subseeds": 32, "gpu": False, "recorder": False, "wfq": True, "kv": False},
    "llm-disagg": {"subseeds": 8, "gpu": True, "recorder": False, "wfq": False, "kv": True},
}

END_TO_END = [
    ("setup_s", "s"),
    ("run_cpu_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_req_per_cpu_s", "req/s"),
    ("throughput_rps", "req/s"),
    ("goodput_rps", "req/s"),
    ("slo_attainment", "ratio"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_req", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.probe_ns_per_event", "ns"),
    ("gpu.kernels", "count"),
    ("gpu.kernels_per_req", "count"),
    ("gpu.busy_frac", "ratio"),
    ("sched.mps_throttle_s", "s"),
    ("sched.probe_submit_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.recorder_cpu_frac", "ratio"),
    ("trace.probe_record_ns", "ns"),
    ("faas.tasks", "count"),
    ("faas.attempts", "count"),
    ("faas.cold_starts", "count"),
    ("faas.cold_start_s", "s"),
    ("faas.live_records", "count"),
    ("core.weight_reloads", "count"),
    ("core.weight_hits", "count"),
    ("core.reconfigures", "count"),
    ("federation.submit_ns", "ns"),
    ("federation.dispatched", "count"),
    ("federation.shed", "count"),
    ("federation.sticky_hit_frac", "ratio"),
    ("federation.probe_wfq_ns", "ns"),
    ("federation.squeue_tail_frac", "ratio"),
    ("federation.wan_tail_frac", "ratio"),
    ("faas.equeue_tail_frac", "ratio"),
    ("faas.cold_tail_frac", "ratio"),
    ("gpu.exec_tail_frac", "ratio"),
    ("obs.coverage_min", "ratio"),
    ("serve.iterations", "count"),
    ("serve.prefill_tokens", "count"),
    ("serve.decode_tokens", "count"),
    ("serve.peak_batch", "count"),
    ("serve.preemptions", "count"),
    ("serve.handoffs", "count"),
    ("serve.peak_kv_pages", "count"),
    ("serve.log_events", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.ttft_p99_s", "s"),
    ("serve.tpot_p99_ms", "ms"),
    ("serve.probe_kv_ns", "ns"),
    ("scenario.synthesize_s", "s"),
    ("obs.metrics_overhead_frac", "ratio"),
    ("obs.tracing_overhead_frac", "ratio"),
    ("runner.fail_frac", "ratio"),
]

# Layer values timed on the host; everything else in the ledger is a
# deterministic count or a simulated quantity and must repeat exactly.
HOST_LAYER_KEYS = ("federation.submit_ns", "serve.submit_ns", "scenario.synthesize_s")

MIN_TRACE_ROUNDS = 3  # interleaved rounds of the timed tiers in per-layer mode
RUN_TIMEOUT_S = 150
LADDER_RUNGS = (4, 16, 64)
LADDER_REPS = 3


class CheckFailed(Exception):
    pass


# What a failed workload run or probe raises; each counts as a failed operation.
RUN_ERRORS = (CheckFailed, subprocess.TimeoutExpired, ValueError, IndexError, KeyError)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds faasbench; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "faasbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                if cmd[1] == "-S":  # a failed configure must not look configured
                    os.remove(os.path.join(build_dir, "CMakeCache.txt"))
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise SystemExit("faasbench: build failed (see %s)" % build_log)
    return os.path.join(build_dir, "faasbench")


def faasbench(binary, args):
    p = subprocess.run([binary] + args, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise CheckFailed("faasbench %s exited %d: %s" % (
            " ".join(args), p.returncode, p.stderr[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def subseeds(seed, count):
    return [(seed * 1000 + i + 1) % (1 << 63) for i in range(count)]


def check_run(r, reference=None):
    """Settled-once accounting, and exact agreement with a reference run."""
    o = r["outcome"]
    if o["offered"] < 1 or o["completed"] < 1:
        raise CheckFailed("seed %d: empty run" % r["seed"])
    if o["offered"] != o["completed"] + o["shed"] + o["failed"]:
        raise CheckFailed("seed %d: %d offered but %d settled" % (
            r["seed"], o["offered"], o["completed"] + o["shed"] + o["failed"]))
    if r.get("runner_match") is False:
        raise CheckFailed("seed %d: outcome differs from runner::run_*_point" % r["seed"])
    if reference is not None and not same_outcome(r, reference):
        raise CheckFailed("seed %d: outcome differs between runs" % r["seed"])


def same_outcome(a, b):
    return (a["outcome"], a["rendered"]) == (b["outcome"], b["rendered"])


def emit(correct, attempted, failed, metrics, units):
    for name, unit in units:
        print("%-28s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))


# -- end to end ----------------------------------------------------------------

def end_to_end(binary, workload, seed, seconds):
    seeds = subseeds(seed, WORKLOADS[workload]["subseeds"])
    runs = {s: [] for s in seeds}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    for i, s in enumerate(itertools.cycle(seeds)):
        attempted += 1
        args = ["run", "--workload", workload, "--seed", str(s)]
        try:
            r = faasbench(binary, args + (["--check"] if i == 0 else []))
            check_run(r, runs[s][0] if runs[s] else None)
            runs[s].append(r)
        except RUN_ERRORS as e:
            failed += 1
            log(str(e))
        now = time.monotonic()
        if now >= deadline and (all(runs.values()) or now >= deadline + RUN_TIMEOUT_S / 2):
            break

    per_seed = []
    for s in seeds:
        if not runs[s]:
            continue
        o = runs[s][0]["outcome"]
        host = {k: statistics.median(r["host"][k] for r in runs[s])
                for k in ("setup_s", "run_cpu_s", "wall_s", "peak_rss_mb")}
        per_seed.append(dict(
            host,
            sim_req_per_cpu_s=o["offered"] / host["run_cpu_s"],
            throughput_rps=o["completed"] / o["window_s"],
            goodput_rps=o["good"] / o["window_s"],
            slo_attainment=o["good"] / o["offered"],
            latency_p50_s=o["p50_s"],
            latency_p99_s=o["p99_s"],
        ))
    if not per_seed:
        return False, attempted, failed, {}
    metrics = {name: statistics.fmean([p[name] for p in per_seed]) for name, _ in END_TO_END}
    log("%s: %d runs over %d sub-seeds" % (workload, attempted, len(seeds)))
    return failed == 0, attempted, failed, metrics


# -- per layer -----------------------------------------------------------------

def per_layer(binary, workload, seed, seconds):
    spec = WORKLOADS[workload]
    s = subseeds(seed, 1)[0]
    base = ["run", "--workload", workload, "--seed", str(s)]
    timed = base + ["--time-calls"]
    modes = {
        "off": timed + ["--tel", "off"],
        "metrics": timed + ["--tel", "metrics"],
        "full": timed + ["--tel", "full"],
    }
    if spec["recorder"]:
        modes["norec"] = timed + ["--tel", "off", "--no-recorder"]
    # The ledger run is a full run that also samples the operating point and
    # keeps the engines' iteration logs; it is kept out of the timed tiers.
    modes_and_ledger = dict(modes, ledger=base + ["--tel", "full", "--ledger"])
    runs = {m: [] for m in modes_and_ledger}
    attempted = failed = 0

    def attempt(fn):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn()
        except RUN_ERRORS as e:
            failed += 1
            log(str(e))
            return None

    def one(mode, extra=()):
        r = faasbench(binary, modes_and_ledger[mode] + list(extra))
        check_run(r)
        if runs["off"]:  # every tier must reproduce the untraced outcome
            ref = runs["off"][0]
            if mode != "norec" and not same_outcome(r, ref):
                raise CheckFailed("%s run changed the outcome" % mode)
            if mode == "norec" and r["outcome"] != ref["outcome"]:
                raise CheckFailed("run without Recorder changed the outcome")
        if mode in ("full", "ledger") and runs[mode]:
            ref = runs[mode][0]["layers"]
            moved = [k for k in ref if k not in HOST_LAYER_KEYS and r["layers"][k] != ref[k]]
            if moved:
                raise CheckFailed("traced counts differ between runs: %s" % ", ".join(moved))
        runs[mode].append(r)

    # Rounds interleave the tiers so host drift hits each alike; how many run
    # depends only on the time budget, never on the figures measured. The
    # first untraced run is also checked against the runner, the first run
    # without Recorder against the runner with its GPU-util column blank.
    deadline = time.monotonic() + seconds
    rnd = 0
    while rnd < MIN_TRACE_ROUNDS or time.monotonic() < deadline:
        for mode in modes:
            extra = ["--check"] if rnd == 0 and mode in ("off", "norec") else []
            attempt(lambda: one(mode, extra))
        if rnd == 0:
            attempt(lambda: one("ledger"))
        rnd += 1
    attempt(lambda: one("ledger"))  # the ledger's counts must repeat exactly
    if not runs["off"] or not runs["full"] or not runs["ledger"]:
        return False, attempted, max(failed, 1), {}

    off = runs["off"][0]
    ledger = runs["ledger"][0]
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update({k: v for k, v in ledger["layers"].items() if k in layers})
    cpu = {m: statistics.median(r["host"]["run_cpu_s"] for r in runs[m])
           for m in modes if runs[m]}
    events = off["sim_events"]
    o = off["outcome"]
    layers["sim.events"] = events
    layers["sim.events_per_req"] = events / o["offered"]
    layers["sim.ns_per_event"] = 1e9 * cpu["off"] / events
    for key in HOST_LAYER_KEYS:
        if key in off["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in runs["off"])
    if "metrics" in cpu:
        layers["obs.metrics_overhead_frac"] = cpu["metrics"] / cpu["off"] - 1
    layers["obs.tracing_overhead_frac"] = cpu["full"] / cpu["off"] - 1
    if "norec" in cpu:
        layers["trace.recorder_cpu_frac"] = (cpu["off"] - cpu["norec"]) / cpu["off"]
    layers["runner.fail_frac"] = (o["shed"] + o["failed"]) / o["offered"]

    # Probes at the traced run's operating point.
    op = ledger["op_point"]

    def probe(kind, **params):
        args = ["probe", "--kind", kind]
        for k, v in params.items():
            args += ["--" + k, repr(float(v))]
        r = attempt(lambda: faasbench(binary, args))
        return r["ns_per_op"] if r else 0.0

    layers["sim.probe_ns_per_event"] = probe("sim", depth=op["sim_pending"])
    if spec["gpu"]:
        layers["sched.probe_submit_ns"] = probe("sched", concurrency=op["gpu_running"])
    if spec["recorder"]:
        layers["trace.probe_record_ns"] = probe("recorder")
    if spec["wfq"]:
        layers["federation.probe_wfq_ns"] = probe("wfq", flows=op["wfq_flows"],
                                                  depth=op["squeue_depth"])
    if spec["kv"]:
        layers["serve.probe_kv_ns"] = probe("kv", total_pages=op["kv_total_pages"],
                                            page_tokens=op["kv_page_tokens"], pages=op["kv_pages"])
    log("%s: operating point %s; run CPU medians %s" % (
        workload, json.dumps(op, sort_keys=True), json.dumps(cpu, sort_keys=True)))
    return failed == 0, attempted, failed, layers


# -- ladder ----------------------------------------------------------------------

def ladder(binary, seed):
    print("%-10s %12s %12s %20s %18s" % ("endpoints", "run_cpu_s", "peak_rss_mb",
                                          "sim.events_per_req", "sim.ns_per_event"))
    ok = True
    for n in LADDER_RUNGS:
        runs = []
        for i in range(LADDER_REPS):
            args = ["run", "--workload", "cluster-mps", "--endpoints", str(n),
                    "--seed", str(seed)]
            try:
                r = faasbench(binary, args + (["--check"] if i == 0 else []))
                check_run(r, runs[0] if runs else None)
                runs.append(r)
            except RUN_ERRORS as e:
                ok = False
                log(str(e))
        if not runs:
            continue
        cpu = statistics.median(r["host"]["run_cpu_s"] for r in runs)
        rss = statistics.median([r["host"]["peak_rss_mb"] for r in runs])
        events = runs[0]["sim_events"]
        print("%-10d %12.4f %12.1f %20.1f %18.1f" % (
            n, cpu, rss, events / runs[0]["outcome"]["offered"], 1e9 * cpu / events))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.ladder and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.ladder:
        return ladder(binary, args.seed)
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    correct, attempted, failed, metrics = measure(binary, args.workload, args.seed, args.seconds)
    if not metrics:
        raise SystemExit("faasbench: no run of %s succeeded" % args.workload)
    emit(correct, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
