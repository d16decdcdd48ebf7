#!/usr/bin/env python3
"""End-to-end benchmark of the collabqos stack.

    python3 perfbench/run.py --workload imagery|chatter|storm --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the collabqos libraries
from src/ plus the qosbench program) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs seeded sessions of the
workload, one session per process, until S seconds have passed:

  --trace 0  untraced sessions; prints the end-to-end metrics.
  --trace 1  traced sessions alternating with untraced ones; prints the
             per-layer metrics, the tracing overhead and the share of
             run time the layer split attributes.

Every session's delivery ledger must balance, and every session of a
run (traced or not) must produce the same delivered-set fingerprint and
sim-clock outcomes. For the seeds recorded in perfbench/expected.json
they must also equal the recorded values. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is nonzero when a check fails.

    python3 perfbench/run.py --record   rewrites perfbench/expected.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("imagery", "chatter", "storm")

SETUP_PROBES = 7           # set-up-only processes per run, for setup_s
MIN_SESSIONS = 3           # untraced sessions per run, at least
MIN_BEYOND_P95 = 10        # windows a session must time beyond its p95
SESSION_TIMEOUT_S = 60
RUN_CAP_S = 150            # stop starting sessions after this long
# Outcomes that must repeat bit-for-bit across sessions of one seed.
OUTCOME_KEYS = ("fingerprint", "objects", "attempted", "delivered",
                "sim_latency_ms_p50", "sim_latency_ms_p95")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s_per_wall_s": "ratio",
    "wall_us_per_delivery": "us",
    "window_ms_p50": "ms",
    "window_ms_p95": "ms",
    "peak_rss_mb": "MiB",
    "delivery_ratio": "ratio",
    "sim_latency_ms_p50": "sim-ms",
    "sim_latency_ms_p95": "sim-ms",
}


LAYERS = ("media", "sim", "net", "rtp", "serde", "pubsub", "core", "snmp",
          "observatory", "app")
PER_LAYER_UNITS = {
    "media.encode_ms": "ms",
    "media.sketch_ms": "ms",
    "media.decode_ms": "ms",
    "media.adapt_ms": "ms",
    "media.packets_accepted_mean": "packets",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "net.datagrams_sent": "count",
    "net.datagrams_delivered": "count",
    "net.datagrams_dropped": "count",
    "net.bytes_delivered": "bytes",
    "rtp.fragments_per_object": "count",
    "rtp.packetize_ns": "ns",
    "rtp.ingest_ns": "ns",
    "rtp.nacks_sent": "count",
    "rtp.retransmissions": "count",
    "rtp.repair_amplification": "ratio",
    "rtp.reassembly_evicted": "count",
    "rtp.corrupt_detected": "count",
    "serde.encode_ns": "ns",
    "serde.decode_ns": "ns",
    "serde.bytes_copied_per_delivery": "bytes",
    "pubsub.match_ns": "ns",
    "pubsub.cache_hit_ratio": "ratio",
    "pubsub.accepted": "count",
    "pubsub.rejected": "count",
    "pubsub.incomplete_dropped": "count",
    "pubsub.undecodable": "count",
    "core.decisions": "count",
    "core.decide_ns": "ns",
    "core.bs_downlink_unicasts": "count",
    "core.bs_suppressed_by_grade": "count",
    "wireless.power_iterations": "count",
    "snmp.requests": "count",
    "snmp.timeouts": "count",
    "snmp.retries": "count",
    "snmp.pdu_ns": "ns",
    "observatory.ticks": "count",
    "observatory.remote_walks": "count",
    "observatory.tick_us": "us",
    "observatory.alerts_raised": "count",
    "chaos.datagrams_dropped": "count",
    "chaos.datagrams_duplicated": "count",
    "chaos.datagrams_delayed": "count",
    "app.share_ms": "ms",
    "app.display_ms": "ms",
    "trace.transit_ms_p95": "sim-ms",
    "trace.reassemble_ms_p95": "sim-ms",
    "trace.spans_dropped": "count",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds qosbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("collabqos sources (src/) not found next to "
                           "perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "qosbench")


def run_session(exe, workload, seed, *flags):
    """One session in its own process; returns its JSON report."""
    command = [exe, "--workload", workload, "--seed", str(seed), *flags]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=SESSION_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 3) or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    report = json.loads(lines[-1])
    report["exit"] = done.returncode
    return report


def median(values):
    return statistics.median(values)


def check(sessions, workload, seed):
    """Returns a list of failed checks over one run's sessions."""
    problems = []
    for s in sessions:
        kind = "traced" if s["traced"] else "untraced"
        if s["exit"] != 0 or not s["ledger_ok"]:
            problems.append(
                f"{kind} session ledger: duplicates={s['duplicates']} "
                f"ineligible={s['ineligible']} publish_failures="
                f"{s['publish_failures']}")
        if s["delivered"] + s["failed"] != s["attempted"]:
            problems.append(f"{kind} session: delivered + failed != attempted")
        if s["windows_beyond_p95"] < MIN_BEYOND_P95:
            problems.append(f"{kind} session: only {s['windows_beyond_p95']} "
                            "windows beyond p95")
    first = sessions[0]
    for s in sessions[1:]:
        for key in OUTCOME_KEYS:
            if s[key] != first[key]:
                kind = "traced" if s["traced"] else "untraced"
                problems.append(f"{kind} session {key} {s[key]} differs from "
                                f"{first[key]}")
    recorded = load_expected()["outcomes"].get(workload, {}).get(str(seed))
    if recorded is not None:
        for key in OUTCOME_KEYS:
            if first[key] != recorded[key]:
                problems.append(f"{key} {first[key]} differs from the value "
                                f"recorded for seed {seed}: {recorded[key]}")
    return problems


def load_expected():
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(sessions, setups):
    first = sessions[0]
    values = {
        "setup_s": median(setups),
        "sim_s_per_wall_s": median(s["sim_s"] / s["run_s"] for s in sessions),
        "wall_us_per_delivery": median(
            s["run_s"] * 1e6 / max(1, s["delivered"]) for s in sessions),
        "window_ms_p50": median(s["window_ms_p50"] for s in sessions),
        "window_ms_p95": median(s["window_ms_p95"] for s in sessions),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in sessions),
        "delivery_ratio": first["delivered"] / max(1, first["attempted"]),
        "sim_latency_ms_p50": first["sim_latency_ms_p50"],
        "sim_latency_ms_p95": first["sim_latency_ms_p95"],
    }
    log(f"windows: {first['windows']} timed per session "
        f"({first['warmup_windows']} warm-up windows left out), "
        f"{min(s['windows_beyond_p95'] for s in sessions)}+ beyond p95; "
        f"{len(sessions)} sessions; {len(setups)} setup samples")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced, untraced):
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in traced[0]["layers"]:
            value = median(s["layers"][name] for s in traced)
            metrics[name] = {"value": value, "unit": unit}
    untraced_run = median(s["run_s"] for s in untraced)
    for layer in LAYERS:
        metrics[f"{layer}.host_share"] = {
            "value": median(s["layer_s"][layer] for s in traced) / untraced_run,
            "unit": "ratio"}
    metrics["trace.attributed_share"] = {
        "value": median(sum(s["layer_s"].values()) for s in traced) /
        untraced_run,
        "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {
        "value": median(s["run_s"] for s in traced) / untraced_run,
        "unit": "ratio"}
    missing = [name for name in PER_LAYER_UNITS if name not in metrics]
    if missing:
        raise KeyError(f"traced session lacks {missing}")
    return metrics


def measure(exe, workload, seed, seconds, traced_run):
    start = time.monotonic()
    sessions = []
    while True:
        traced = traced_run and len(sessions) % 2 == 0
        sessions.append(run_session(exe, workload, seed,
                                    *(["--trace"] if traced else [])))
        untraced = sum(1 for s in sessions if not s["traced"])
        elapsed = time.monotonic() - start
        if elapsed > RUN_CAP_S or (elapsed >= seconds and
                                   untraced >= MIN_SESSIONS):
            break
    setups = [s["setup_s"] for s in sessions if not s["traced"]]
    if not traced_run:
        for _ in range(SETUP_PROBES):
            setups.append(run_session(exe, workload, seed,
                                      "--setup-only")["setup_s"])
    return sessions, setups


def summary(sessions):
    s = sessions[0]
    log(f"{s['workload']} seed {s['seed']}: {len(sessions)} sessions; per "
        f"session {s['objects']} objects, {s['attempted']} eligible "
        f"(object, receiver) pairs, {s['delivered']} delivered "
        f"{s['by_modality']}, {s['failed']} failed; fingerprint "
        f"{s['fingerprint']}; thread CPU / wall "
        f"{median(x['run_cpu_s'] / x['run_s'] for x in sessions):.3f}")


def record(exe):
    expected = load_expected()
    outcomes = {}
    for workload in WORKLOADS:
        outcomes[workload] = {}
        for seed in (expected["default_seed"], expected["heldout_seed"]):
            report = run_session(exe, workload, seed)
            outcomes[workload][str(seed)] = {k: report[k] for k in OUTCOME_KEYS}
    expected["outcomes"] = outcomes
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2)
        handle.write("\n")
    log(f"recorded outcomes for seeds {expected['default_seed']} and "
        f"{expected['heldout_seed']} in {EXPECTED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    try:
        exe = build()
        if args.record:
            record(exe)
            return 0
        seed = args.seed if args.seed is not None else \
            load_expected()["default_seed"]
        sessions, setups = measure(exe, args.workload, seed, args.seconds,
                                   args.trace == 1)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as error:
        log(f"benchmark failed: {error}")
        return 2

    problems = check(sessions, args.workload, seed)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    summary(sessions)
    if args.trace == 1:
        metrics = per_layer([s for s in sessions if s["traced"]],
                            [s for s in sessions if not s["traced"]])
    else:
        metrics = end_to_end(sessions, setups)
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": sum(s["objects"] for s in sessions),
        "failed": sum(s["publish_failures"] for s in sessions),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
