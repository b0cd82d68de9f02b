"""heckelift benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a heckelift checkout.  Workloads: characters,
class-groups, qseries, cli-cold (see README.md).  With --trace 0 it
prints the end-to-end metrics, with --trace 1 the per-layer metrics of
the traced run.  Every line but the last is for people; the last is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 when every process ran, whether or not the answers were right.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("characters", "class-groups", "qseries", "cli-cold")
# set-up is measured in this many fresh processes, the timed ones included
SETUP_SAMPLES = 5
RUN_PROCESSES = 3
# tail percentile per workload: the highest of 50, 80, 90, 95, 99, 99.9
# with at least ten samples beyond it in a 20 s run at the seed commit
TAIL_PCT = {"characters": 99.0, "class-groups": 95.0, "qseries": 90.0, "cli-cold": 80.0}
# rounds of the traced run: a fixed number, so that counts repeat exactly
TRACE_ROUNDS = {"characters": 60, "class-groups": 8, "qseries": 2, "cli-cold": 1}
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("ok_frac", "1"), ("peak_rss_mb", "MB"),
)
# per-layer metrics: calls and self time of these spans
LIBRARY_SPANS = (
    "exactnum.is_prime", "exactnum.factorize", "exactnum.primitive_root",
    "abchar.simultaneous_artin_lift", "abchar.unit_group", "serrepq.local_compat",
    "heckequad.class_group", "qseries.QExpansion.mul",
)
# self time only of these
SELF_ONLY = (
    "abchar.reduce_mod", "heckeq.decide_prop_q", "heckeq.check_necessary",
    "heckeq.twist_to_unramified", "heckeq.extract_invariants", "heckequad.counting_bound",
    "heckequad.criterion_decide", "qseries.eisenstein", "qseries.sturm_congruence",
    "qseries.weight24_example", "qseries.hasse_invariant_check", "exactnum.bernoulli",
    "cli.validate", "cli.handler", "cli.emit",
)
# mean inclusive time by the size class of the operation
SIZE_MEANS = (
    ("heckeq.decide_prop_q", ("small", "large")),
    ("heckequad.class_group", ("D1e3", "D1e4", "D1e5")),
    ("qseries.delta", ("n64", "n256", "n512")),
)
COUNTERS = (
    ("exactnum.QmodZ.constructed", "count"),
    ("heckequad.forms_total", "count"),
    ("qseries.coeff_products", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for name in LIBRARY_SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.self_s", "s") for name in SELF_ONLY]
    for name, tags in SIZE_MEANS:
        out += [(f"{name}.mean_ms.{tag}", "ms") for tag in tags]
    out += list(COUNTERS)
    out += [("cli.import_s", "s"), ("cli.import_jsonschema_s", "s"), ("trace.overhead_frac", "1")]
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str, **opts) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    for key, val in opts.items():
        cmd += [f"--{key}", str(val)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for {workload} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    # the timed rounds are split over RUN_PROCESSES fresh processes, one
    # after another: a process's heap layout moves its speed by ~10%
    parts = [worker(workload, seed, "run", seconds=seconds / RUN_PROCESSES, part=k)
             for k in range(RUN_PROCESSES)]
    setups = [worker(workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - RUN_PROCESSES)]
    setups += [p["setup_s"] for p in parts]
    lat = sorted(t for p in parts for t in p["sorted_s"])
    res = {key: sum(p[key] for p in parts)
           for key in ("attempted", "failed", "rounds", "busy_s", "raw_busy_s")}
    res["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in parts)
    kernel_ms = statistics.median(p["kernel_median_s"] for p in parts) * 1e3
    pct = TAIL_PCT[workload]
    beyond = len(lat) * (100 - pct) / 100
    if beyond < 10:
        print(f"warning: only {beyond:.1f} samples beyond p{pct:g}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / res["busy_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": percentile(lat, pct) * 1e3,
        "ok_frac": 1 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"{workload}: {len(lat)} timed operations in {res['rounds']} rounds over "
          f"{RUN_PROCESSES} processes, tail = p{pct:g} ({beyond:.0f} samples beyond it), "
          f"fail_frac = {res['failed'] / res['attempted']:.6g}")
    print(f"  set-up samples {', '.join(f'{s:.4f}' for s in setups)} s; speed kernel median "
          f"{kernel_ms:.3f} ms, operation times scaled to 5 ms "
          f"(raw busy {res['raw_busy_s']:.3f} s, scaled {res['busy_s']:.3f} s)")
    return res, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    rounds = TRACE_ROUNDS[workload]
    plain = worker(workload, seed, "plain", rounds=rounds)
    spans_run = worker(workload, seed, "traced", rounds=rounds)
    count = worker(workload, seed, "count", rounds=rounds)
    runs = [plain, spans_run, count]
    stats = spans_run["trace"]["stats"]
    tagged = {(n, t): (c, s) for n, t, c, s in spans_run["trace"]["tagged"]}
    values = {}
    for name in LIBRARY_SPANS:
        calls, _, self_s = stats.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = stats.get(name, (0, 0.0, 0.0))[2]
    for name, tags in SIZE_MEANS:
        for tag in tags:
            calls, total = tagged.get((name, tag), (0, 0.0))
            values[f"{name}.mean_ms.{tag}"] = total / calls * 1e3 if calls else 0.0
    values["exactnum.QmodZ.constructed"] = count["trace"]["counters"].get(
        "exactnum.QmodZ.constructed", 0)
    for name in ("qseries.coeff_products", "heckequad.forms_total"):
        values[name] = spans_run["trace"]["counters"].get(name, 0)
    values["cli.import_s"] = values["cli.import_jsonschema_s"] = 0.0
    if workload == "cli-cold":
        imp = worker(workload, seed, "importtime", rounds=rounds)
        runs.append(imp)
        values["cli.import_s"] = statistics.median(imp["import_s"])
        values["cli.import_jsonschema_s"] = statistics.median(imp["import_jsonschema_s"])
    values["trace.overhead_frac"] = spans_run["busy_s"] / plain["busy_s"] - 1
    print(f"{workload}: traced run of {rounds} round(s), {spans_run['ops']} operations; "
          f"untraced {plain['busy_s']:.4f} s, traced {spans_run['busy_s']:.4f} s")
    return runs, {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind: subprocess.run kills the worker it waits for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (Path.cwd() / "src" / "heckelift" / "__init__.py").is_file():
        print("run.py: run from the root of a heckelift checkout (no src/heckelift here)",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, metrics = traced(args.workload, args.seed)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds)
            runs = [run]
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
