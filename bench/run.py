"""The ulrichcert benchmark: one command, one workload per run.

    python3 bench/run.py --workload certify-batch --seed 1 --seconds 20 --trace 0

It starts the workload process several times to measure set-up, runs the
closed loop in the last one, checks every answer, and prints a summary line
followed by one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of a traced pass. See README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402

WORKLOADS = ("certify-batch", "point-ideals", "recipe-sweep", "cli-cold")

# The tail percentile of each workload is fixed, so that runs of two commits
# are compared at the same percentile even when one completes more ops. Each
# is the highest ladder percentile that leaves at least ten samples beyond it
# in a 55 s run even on a machine half as fast as the one that defined the
# benchmark (which ran about 380 point-ideals, 240 cli-cold, 350
# certify-batch and 10000 recipe-sweep ops in 55 s).
TAIL_PERCENTILE = {"certify-batch": 90, "point-ideals": 90, "recipe-sweep": 99,
                   "cli-cold": 90}
LADDER = (50, 75, 90, 95, 99, 99.9)

SETUP_RUNS = 5           # set-up is measured this many times; the median counts
READY_TIMEOUT_S = 60


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond it."""
    best = None
    for pct in LADDER:
        if round(n * (100 - pct) / 100, 9) >= 10:
            best = pct
    return best


def percentile(samples, pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(samples)
    pos = (len(data) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(samples, pct: float):
    """(value at pct, number of samples strictly beyond it)."""
    value = percentile(samples, pct)
    return value, sum(1 for s in samples if s > value)


def _start_worker(args):
    """Spawn a workload process; return (process, seconds until it is ready)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(READY_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, ready


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args):
    """Set up SETUP_RUNS times, run the loop in the last process.

    An uncounted first start warms the file cache and writes bytecode.
    """
    setups = []
    for i in range(SETUP_RUNS + 1):
        proc, ready = _start_worker(args)
        if i < SETUP_RUNS:
            try:
                proc.communicate("quit\n", timeout=READY_TIMEOUT_S)
            finally:
                _stop(proc)
            if i:
                setups.append(ready)
            continue
        setups.append(ready)
        try:
            out, _ = proc.communicate("go\n", timeout=args.seconds * 2 + 60)
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        report = {"untraced": [], "traced": []}
        for line in out.splitlines():
            tag, value = json.loads(line)
            if tag == "report":
                report.update(value)
            else:
                report[tag].append(value)
        return report, setups


def metrics(report, setups, failed):
    """End-to-end metrics of the untraced pass."""
    lat_ms = [r[3] / 1e6 for r in report["untraced"]]
    pct = TAIL_PERCENTILE[report["workload"]]
    tail_ms, beyond = tail(lat_ms, pct)
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(lat_ms) / (report["op_time_ns"] / 1e9), "1/s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
    }
    summary = (f"{report['workload']} seed {report['seed']}: {len(lat_ms)} ops in "
               f"{report['rounds']} rounds, p50 {out['op_p50_ms'][0]:.2f} ms, "
               f"p{pct:g} {tail_ms:.2f} ms ({beyond} samples beyond), "
               f"{out['ops_per_s'][0]:.2f} ops/s, setup {out['setup_s'][0]:.3f} s, "
               f"peak RSS {out['peak_rss_mb'][0]:.1f} MB, "
               f"failed {failed}/{len(report['untraced'])}")
    rule = tail_percentile(len(lat_ms))
    if rule is None or rule < pct:
        summary += (f"; only {beyond} samples lie beyond p{pct:g}, "
                    f"the ten-sample rule would allow p{rule}")
    return out, summary


def layer_metrics(report):
    layers = dict(report["layers"])
    untraced = statistics.median(r[3] for r in report["untraced"])
    traced = statistics.median(r[3] for r in report["traced"])
    layers["harness.trace_overhead"] = traced / untraced
    units = {}
    for name in layers:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith(("_share", "_overhead")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    summary = (f"{report['workload']} seed {report['seed']} traced: "
               f"{len(report['traced'])} ops, traced op {layers['harness.traced_op_ms']:.2f} ms, "
               f"uncovered {layers['harness.uncovered_ms']:.3f} ms, overhead "
               f"{layers['harness.trace_overhead']:.3f}; spans in {report['trace_path']}")
    return {k: (v, units[k]) for k, v in layers.items()}, summary


def failures(records, checker):
    """(op, reason) for every record whose answer is wrong."""
    failed = []
    for op, answer, error, _ in records:
        reason = checker.check(op, answer, error)
        if reason is not None:
            failed.append((op, reason))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ulrichcert", "__init__.py")):
        print(f"no ulrichcert sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    checker = check.Checker()
    try:
        report, setups = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = report["untraced"] + report["traced"]
    failed = failures(records, checker)
    for op, reason in failed[:5]:
        print(f"FAILED {json.dumps(op)}: {reason}", file=sys.stderr)

    if args.trace:
        values, summary = layer_metrics(report)
    else:
        values, summary = metrics(report, setups, len(failed))
    print(summary)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
