"""hankelc benchmark: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload {transform,kernel,calculus,cli}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; hankelc is imported from its src/.  The
workload runs in a child process (BLAS limited to one thread there), one
request at a time, for at least S seconds in whole cycles of its
schedule.  Every request is timed on its own and checked against an
independent route outside the timed region (workloads.py, oracles.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a run whose schedule cycles are alternately untraced and traced
(tracer.py), plus verify, interpreter start-up and 3-D certificate
probes; per-subcommand CLI times come from the cli workload's own run.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
lines before it describe the machine, the tail percentile and failures.
A copy goes to .perfbench_run/ with the spans of a traced run.

`correct` is false when a well-formed request fails its gate.  Malformed
CLI specs that the program mishandles (a traceback instead of exit 2)
count as failed requests and lower ok_ratio, but leave `correct` true:
they measure input validation, which is an open defect of the program.

Metric names, units and directions are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracles import digits  # noqa: E402
WORKLOADS = ("transform", "kernel", "calculus", "cli")
TAIL_BEYOND = 10


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count()}
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    facts["ram_mb"] = round(int(line.split()[1]) / 1024)
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    try:
        facts["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        facts["commit"] = "unknown"
    return facts


def start_worker(env, workdir, args, mode):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--workdir", workdir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    return subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def wait_ready(proc, started):
    """Seconds from spawn until the worker reports its inputs are built."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        fail(f"worker did not start (exit {proc.returncode})")
    return time.perf_counter() - started


def run_worker(env, workdir, args, mode):
    started = time.perf_counter()
    proc = start_worker(env, workdir, args, mode)
    try:
        setup = wait_ready(proc, started)
        out, _ = proc.communicate(timeout=175)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n).  With n samples that is the
    (n - TAIL_BEYOND)-th smallest; with too few samples, the largest."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def group_rate(records):
    """Completed requests per second of timed wall time, with each
    request's time replaced by the median time of its group."""
    groups = {}
    for r in records:
        groups.setdefault(r["group"], []).append(r["seconds"])
    typical = {g: statistics.median(v) for g, v in groups.items()}
    seconds = sum(typical[r["group"]] for r in records)
    return sum(r["ok"] for r in records) / seconds if seconds > 0 else 0.0


def trimmed_rate(records):
    """Completed requests per second of timed wall time over the run's
    schedule cycles, leaving out the fastest and the slowest fifth."""
    cycles = {}
    for r in records:
        done, seconds = cycles.get(r["cycle"], (0, 0.0))
        cycles[r["cycle"]] = (done + r["ok"], seconds + r["seconds"])
    ranked = sorted(cycles.values(), key=lambda c: c[0] / c[1] if c[1] > 0 else 0.0)
    cut = len(ranked) // 5
    kept = ranked[cut:len(ranked) - cut]
    seconds = sum(c[1] for c in kept)
    return sum(c[0] for c in kept) / seconds if seconds > 0 else 0.0


def end_to_end(workload, records, setup_samples, peak_rss_kb):
    """ops_per_s is completed requests per second of timed wall time, made
    robust to slow spells of the shared machine: the in-process workloads
    leave out their fastest and slowest cycles; a cli run is a single
    cycle of 36 requests, so there each request counts at the median time
    of its group across the cycle's three rounds."""
    timed = [r for r in records if not r["traced"]]
    done = [r["seconds"] for r in timed if r["ok"]]
    rate = group_rate(timed) if workload == "cli" else trimmed_rate(timed)
    worst = max((r["disagreement"] for r in timed if r["disagreement"] is not None), default=0.0)
    tail_value, tail_pct, tail_n = tail(done) if done else (0.0, 0.0, 0)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(done) if done else 0.0, "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "error_digits": (digits(worst), "digits"),
        "ok_ratio": (len(done) / len(timed) if timed else 0.0, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    note = f"latency_tail_ms is p{tail_pct:.2f} of {tail_n} completed requests ({TAIL_BEYOND} beyond it)"
    return metrics, note


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hankelc", "__init__.py")):
        fail(f"no hankelc sources under {os.path.join(ROOT, 'src')}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    from worker import child_env

    env = child_env(ROOT)
    outdir = os.path.join(ROOT, ".perfbench_run")
    workdir = os.path.join(outdir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        facts = machine_facts()
        if args.trace:
            _, result = run_worker(env, workdir, args, "trace")
        else:
            setup, result = run_worker(env, workdir, args, "run")
            samples = result["setup_samples"] + ([setup] if args.workload != "cli" else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    correct = all(r["defect"] for r in failed)
    facts.update(result["libraries"], workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace)
    if args.trace:
        metrics = result["layer"]
        traced = [r["seconds"] for r in records if r["traced"]]
        plain = [r["seconds"] for r in records if not r["traced"]]
        overhead = 100.0 * (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        note = (f"trace.overhead_pct compares {len(traced)} traced with {len(plain)} "
                "untraced requests of the same schedule")
    else:
        metrics, note = end_to_end(args.workload, records, samples, result["peak_rss_kb"])
    print("machine " + json.dumps(facts, sort_keys=True))
    print(note)
    for r in failed:
        defect = f" (malformed spec: {r['defect']})" if r["defect"] else ""
        print(f"failed: {r['slot']}{defect} {r['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    line = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"machine": facts, "note": note, "result": line}, fh, indent=1)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
