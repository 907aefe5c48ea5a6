#!/usr/bin/env python3
"""End-to-end benchmark for ERMS: one workload, one seed, one result line.

    python3 perfbench/run.py --workload swim_read --seed 7 --seconds 20 --trace 0

Builds perfbench/ (and with it the repository's src/) into .bench_build/ on
first use, then runs the simulation binary once per *rep*, each in a fresh
process, until --seconds have passed:

* A run simulates a fixed set of SUBSEEDS sub-seeds derived from --seed. The
  simulated metrics (read latency quantiles, read success, storage per user
  byte) pool those sub-seeds, so they are deterministic for a seed and the
  seed-to-seed spread shrinks with the pool.
* Rounds repeat the sub-seeds; every rep after a sub-seed's first is a
  byte-for-byte determinism check of the digest (all simulated statistics).
* Host metrics (set-up time, throughput per host second, sim/wall, RSS) take
  each sub-seed's median rep and pool the sub-seeds: summed work over summed
  host time.
* --trace 1 pairs each sub-seed's untraced rep with a traced rep (observe on,
  host clocks around each layer's public calls); the digests must match, and
  the per-layer metrics are medians over the traced reps.

The last stdout line is {"correct", "attempted", "failed", "metrics"}, where
attempted/failed count reps (one rep = one simulated world). The line before
it is the full result record (hardware, command, commit, per-rep values,
medians and spreads), also written to .bench_build/results/ (--scale tiny:
.bench_build/tests/).
Exits non-zero, printing no result, when the build or any rep fails.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "erms_e2e")
BUILD_JOBS = 4
REP_TIMEOUT_S = 150

# Sub-seeds pooled per run, per workload: more where one world's tail
# statistics move most from seed to seed.
SUBSEEDS = {"swim_read": 4, "judge_replay": 1, "lifecycle": 8}

# End-to-end metrics computed from the simulation itself (pooled over the
# sub-seeds' worlds, exact for a seed); the rest are host measurements.
SIM_METRICS = ("read_p50_s", "read_p99_s", "read_ok_frac", "storage_per_user_byte")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build; output goes to stderr, never stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(BUILD_JOBS)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def subseed(seed, k):
    return seed * 256 + k


def run_rep(workload, sub, traced, scale):
    cmd = [BINARY, "--workload", workload, "--seed", str(sub),
           "--mode", "traced" if traced else "untraced", "--scale", scale]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rep timed out: " + " ".join(cmd))
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-2000:])
        fail("rep printed nothing (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    rec = json.loads(lines[-1])
    rec["exit_code"] = proc.returncode
    rec["wall_s"] = wall
    return rec


def first_digests(reps):
    """Map each seed to its first rep, and list every later rep of that seed
    (traced or not, any process) whose digest is not byte-identical."""
    first, mismatches = {}, []
    for r in reps:
        ref = first.setdefault(r["seed"], r)
        if r["digest"] != ref["digest"]:
            mismatches.append({"seed": r["seed"], "mode": r["mode"],
                               "failures": [{"check": "digest",
                                             "detail": "differs from the %s rep of this seed"
                                                       % ref["mode"]}]})
    return first, mismatches


def quantile(sorted_vals, q):
    """Nearest-rank quantile, the same rule the simulation binary uses."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(int(q * len(sorted_vals)), len(sorted_vals) - 1)]


def spread(values):
    """(median, q1, q3, (q3-q1)/median) with statistics.quantiles' rule."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    rel = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, rel


def pooled_sim_metrics(first_reps):
    """Simulated metrics over the union of the sub-seeds' worlds."""
    lat = sorted(x / 1e6 for r in first_reps for x in r["latencies_us"])
    attempted = sum(r["e2e"]["reads_attempted"] for r in first_reps)
    ok = sum(r["e2e"]["reads_ok"] for r in first_reps)
    used = sum(r["e2e"]["used_bytes"] for r in first_reps)
    logical = sum(r["e2e"]["logical_bytes"] for r in first_reps)
    return {
        "read_p50_s": quantile(lat, 0.50),
        "read_p99_s": quantile(lat, 0.99),
        "read_ok_frac": ok / max(1, attempted),
        "storage_per_user_byte": used / max(1, logical),
    }, len(lat)


def host_s(rep):
    return rep["e2e"]["setup_s"] + rep["e2e"]["run_s"]


def host_metrics(untraced, subs):
    """Host metrics over the run. For throughput, each sub-seed's median rep
    (by run time) stands for that world, and work summed over the worlds is
    divided by their summed host time, so every run weighs the same mix of
    worlds. Set-up time is the mean of the sub-seeds' median set-ups; peak
    RSS is the median over all reps."""
    med = {}
    for s in subs:
        reps = sorted((r["e2e"] for r in untraced if r["seed"] == s), key=lambda e: e["run_s"])
        med[s] = reps[(len(reps) - 1) // 2]
    e = list(med.values())
    run_s = sum(x["run_s"] for x in e)
    return {
        "setup_s": statistics.mean(
            statistics.median(r["e2e"]["setup_s"] for r in untraced if r["seed"] == s)
            for s in subs),
        "reads_per_s": sum(x["reads_attempted"] for x in e) / run_s,
        "audit_events_per_s": sum(x["audit_events"] for x in e) / run_s,
        "sim_over_wall": sum(x["horizon_sim_s"] for x in e) / sum(x["horizon_s"] for x in e),
        "peak_rss_mib": statistics.median(r["e2e"]["peak_rss_mib"] for r in untraced),
    }


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SUBSEEDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small worlds for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build()
    subs = [subseed(args.seed, k) for k in range(SUBSEEDS[args.workload])]
    modes = [False, True] if args.trace else [False]
    # Cycle through the sub-seeds (each as an untraced/traced pair with
    # --trace 1) until the time is up: every sub-seed at least once, plus one
    # repeat without tracing. Each repeat is a byte-for-byte determinism check
    # of the sub-seed's first digest.
    minimum = len(subs) + (0 if args.trace else 1)
    reps = []
    t0 = time.monotonic()
    i = 0
    while i < minimum or time.monotonic() - t0 < args.seconds:
        sub = subs[i % len(subs)]
        reps.extend(run_rep(args.workload, sub, m, args.scale) for m in modes)
        i += 1

    problems = []
    for r in reps:
        if r["exit_code"] != 0 or not r["checks_ok"]:
            problems.append({"seed": r["seed"], "mode": r["mode"], "exit_code": r["exit_code"],
                             "failures": r["failures"]})
    first, mismatches = first_digests(reps)
    problems.extend(mismatches)
    sim_values, samples = pooled_sim_metrics([first[s] for s in subs])
    untraced = [r for r in reps if r["mode"] == "untraced"]
    host = host_metrics(untraced, subs)

    metrics = {}
    summary = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        traced = [r for r in reps if r["mode"] == "traced"]
        per_layer = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        per_layer["obs.overhead_frac"] = [
            host_s(t) / host_s(u) - 1.0 for u, t in zip(reps[0::2], reps[1::2])]
        for name, values in per_layer.items():
            med, q1, q3, rel = spread(values)
            metrics[name] = {"value": med, "unit": units[name]}
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "n": len(values)}
    else:
        for m in bench["end_to_end"]:
            name, unit = m["name"], m["unit"]
            if name in SIM_METRICS:
                value = sim_values[name]
                summary[name] = {"value": value, "pooled_subseeds": len(subs),
                                 "samples": samples if name.startswith("read_p") else None}
            else:
                value = host[name]
                values = [r["e2e"][name] for r in untraced if name in r["e2e"]]
                summary[name] = {"value": value, "reps": len(untraced)}
                if values:
                    med, q1, q3, rel = spread(values)
                    summary[name].update({"rep_median": med, "rep_q1": q1, "rep_q3": q3,
                                          "rep_spread": rel})
            metrics[name] = {"value": value, "unit": unit}

    record = {
        "benchmark": "erms-e2e",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "run_seconds": args.seconds,
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "hardware_threads": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "subseeds": subs,
        "correct": not problems,
        "problems": problems,
        "summary": summary,
        "metrics": metrics,
        "digests": {str(s): first[s]["digest"] for s in subs},
        "reps": [{k: r[k] for k in ("seed", "mode", "wall_s", "e2e", "layers") if k in r}
                 for r in reps],
    }
    # Tiny worlds exist only for the benchmark's own tests; their records
    # stay apart from the real results.
    results = os.path.join(BUILD, "results" if args.scale == "full" else "tests")
    os.makedirs(results, exist_ok=True)
    name = "%s_seed%d_trace%d_%s.json" % (args.workload, args.seed, args.trace,
                                          time.strftime("%Y%m%dT%H%M%S"))
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": len(reps),
                      "failed": sum(1 for r in reps if r["exit_code"] != 0 or not r["checks_ok"]),
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
