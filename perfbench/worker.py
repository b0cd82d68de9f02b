"""One benchmark process: set up a workload, then run it in one mode.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --t0 T [--seconds S --part K] [--rounds R]

Run from the root of a heckelift checkout; heckelift is imported from its
src/ directory.  T is the parent's time.perf_counter() just before it
started this process (a system-wide monotonic clock on Linux), so the
set-up time includes interpreter start-up and imports.  Modes:

  setup       set up, report the set-up time and exit
  run         run the rounds that take about S seconds at the seed commit,
              the K-th such block of rounds of the workload
  plain       run R rounds untraced (the base of the tracing overhead)
  traced      run R rounds with spans (calls, self times, size means)
  count       run R rounds counting QmodZ constructions
  importtime  cli-cold only: R rounds under `python -X importtime`

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# The host's speed wanders by tens of percent over seconds, whatever runs.
# Between operations the worker times a fixed kernel that uses no
# heckelift code, at most every SPEED_EVERY_S, and scales each operation
# time by NOMINAL_S over the median kernel time within SPEED_WINDOW_S of
# it: reported times are times on a machine where the kernel takes 5 ms.
# Set-up time is scaled by three kernel timings taken right after it.
SPEED_EVERY_S = 0.2
SPEED_WINDOW_S = 1.0
NOMINAL_S = 0.005
# A timed run does workload.rounds_per_s * S rounds (whole periods), about
# S seconds at the seed commit; one that takes MAX_STRETCH * S seconds
# stops at the next period end.
MAX_STRETCH = 3


def int_kernel() -> int:
    """About 5 ms of Fraction sums, tuple-keyed dicts, big-int products and
    a small-int loop: the speed reference of class-groups and cli-cold."""
    acc = Fraction(0)
    d = {}
    for i in range(1, 200):
        acc += Fraction(i, i * i + 1)
        d[i, i % 7] = acc.numerator % 1000
    a, m = 3**2000, 7**2100
    for _ in range(20):
        a = a * a % m
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    return x + len(d) + a % 5


def fraction_kernel() -> Fraction:
    """About 5 ms of schoolbook products of Fraction lists: the speed
    reference of characters and qseries, whose time is object churn."""
    a = [Fraction(i * i % 97 - 48) for i in range(47)]
    out = [Fraction(0)] * 47
    for i in range(47):
        for j in range(47 - i):
            out[i + j] += a[i] * a[j]
    return out[-1]


# the kernel whose timings tracked the host's speed best for the workload's
# own operations, tried over 5 s windows of a noisy stretch
KERNELS = {"characters": fraction_kernel, "qseries": fraction_kernel,
           "class-groups": int_kernel, "cli-cold": int_kernel}


class Speed:
    """Kernel timings through a run, to put operation times on one scale."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, force: bool = False) -> None:
        t = perf_counter()
        if force or not self.times or t - self.times[-1] >= SPEED_EVERY_S:
            self.kernel()
            self.times.append(t)
            self.kernel_s.append(perf_counter() - t)

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + SPEED_WINDOW_S)
        if hi - lo < 3:  # too few near t: the nearest ones
            i = bisect.bisect_left(self.times, t)
            lo, hi = max(0, i - 2), min(len(self.times), i + 2)
        return NOMINAL_S / statistics.median(self.kernel_s[lo:hi])


def _load_heckelift(root: Path) -> None:
    src = root / "src"
    if not (src / "heckelift" / "__init__.py").is_file():
        sys.exit(f"worker: no heckelift sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import heckelift

    if Path(heckelift.__file__).resolve().parent != (src / "heckelift").resolve():
        sys.exit(f"worker: imported heckelift from {heckelift.__file__}, not from {src}")


def make_workload(name: str, seed: int, root: Path):
    if name == "cli-cold":
        from clicold import CliCold

        return CliCold(seed, root)
    from workloads import WORKLOADS

    return WORKLOADS[name](seed)


def run_ops(workload, ops, lat: list, tracer=None, speed=None) -> int:
    """Run and check ops, appending (start, wall time) of each call;
    returns the number of wrong answers and exceptions."""
    failed = 0
    for op in ops:
        if speed is not None:
            speed.sample()
        if tracer is not None:
            tracer.tag = op.tag
            tracer.active = True
        t = perf_counter()
        try:
            got = workload.run(op)
        except Exception as exc:  # a raising call is a failed operation
            got = exc
        dt = perf_counter() - t
        if tracer is not None:
            tracer.active = False
        lat.append((t, dt))
        if isinstance(got, Exception) or not workload.check(op, got):
            failed += 1
            print(f"worker: wrong answer from {op.kind} {op.tag}: {str(got)[:200]}",
                  file=sys.stderr)
    return failed


def measure(workload, args) -> dict:
    cli = args.workload == "cli-cold"
    warm = workload.warmup()
    failed = run_ops(workload, warm, [])
    setup_s = perf_counter() - args.t0
    speed = Speed(KERNELS[args.workload])
    for _ in range(3):
        speed.sample(force=True)
    out = {"setup_s": setup_s * speed.scale(perf_counter()), "raw_setup_s": setup_s}
    if args.mode == "setup":
        return out

    tracer = None
    if cli:
        workload.set_mode(args.mode)
    elif args.mode in ("traced", "count"):
        import spans

        tracer = spans.Tracer()
        if args.mode == "count":
            tracer.count_qmodz()
        else:
            tracer.install()

    rounds, first = args.rounds, 0
    if args.mode == "run":
        # the same work in every run: the whole periods of rounds that take
        # about S seconds at the seed commit, so that no metric hangs on how
        # many rounds a fast or slow stretch of the host allowed
        periods = round(args.seconds * workload.rounds_per_s / workload.period)
        rounds = workload.period * max(1, periods)
        first = args.part * rounds
    lat: list[tuple[float, float]] = []
    start = perf_counter()
    r = 0
    while r < rounds:
        failed += run_ops(workload, workload.round(first + r), lat, tracer, speed)
        r += 1
        if r % workload.period == 0 and perf_counter() - start > MAX_STRETCH * args.seconds > 0:
            print(f"worker: stopped after {r} of {rounds} rounds, at {MAX_STRETCH} x "
                  f"{args.seconds} s", file=sys.stderr)
            break
    speed.sample(force=True)

    scaled = sorted(dt * speed.scale(t) for t, dt in lat)
    out.update(attempted=len(warm) + len(lat), failed=failed, ops=len(lat), rounds=r,
               busy_s=sum(scaled), raw_busy_s=sum(dt for _, dt in lat),
               kernel_median_s=statistics.median(speed.kernel_s))
    if args.mode == "run":
        usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        out.update(sorted_s=scaled, peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024)
    if tracer is not None:
        out["trace"] = tracer.dump()
    if cli:
        out.update(workload.collect())
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "plain", "traced", "count", "importtime"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()

    # on SIGTERM, unwind: close() removes the cli-cold scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for the worker, its CLI children and the speed kernel, so
    # the kernel sees the same contention as the operations
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    _load_heckelift(root)
    workload = make_workload(args.workload, args.seed, root)
    try:
        out = measure(workload, args)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
