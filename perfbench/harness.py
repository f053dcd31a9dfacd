"""The closed loop shared by all workloads, and the run's stamp.

One caller issues one request at a time and waits for it. Requests come
in cycles whose composition is fixed by the workload; only the values
depend on the seed. The loop always finishes the cycle it is in, so
every run measures whole cycles and its percentiles do not depend on
where the clock ran out. Each result is checked after its timed span.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


@dataclass
class Request:
    kind: str
    r: int
    exact: str | None  # "int", "fraction", or None for floating work
    args: tuple = ()
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    latencies: list[float]  # in request order, cycle after cycle
    attempted: int
    failed: int
    cycles: int
    wall_s: float
    failures: list[str]

    @property
    def slowest(self) -> list[float]:
        """Each request slot's slowest latency across the run's cycles.

        The shared 2-vCPU host this was tuned on changes speed by 1.5-2x
        in stretches of seconds to a minute, so a 30 s run may fall wholly
        in a fast or a slow stretch. Over ten seeds the slowest of a slot's
        samples varied least between runs (IQR/median 0.04-0.18); the mean
        and the median varied 2-4x as much, because they move with how much
        of a run was fast. A change that makes a request slower moves the
        slowest sample with it.
        """
        per_cycle = self.attempted // self.cycles
        return [max(self.latencies[s::per_cycle]) for s in range(per_cycle)]

    @property
    def ops_per_s(self) -> float:
        """Requests per second of one caller, over a cycle of each slot's slowest latency."""
        slowest = self.slowest
        return len(slowest) / sum(slowest)


def child_env() -> dict:
    """Environment for child interpreters: the package from src, bytecode cached."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd: list[str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


def fill_bytecode_cache() -> None:
    """Import the package once in a child, so timed children start with bytecode cached."""
    run_child([sys.executable, "-c", "import ramfourier.cli"])


def measure(workload, seconds: float, tracer=None, profile=None) -> Outcome:
    """Run whole cycles of the workload until `seconds` of wall time have passed."""
    latencies, failures = [], []
    failed = 0
    cycle = 0
    start = perf_counter()
    while True:
        for req in workload.requests(cycle):
            root = -1
            if tracer is not None:
                tracer.request = len(latencies)
                root = tracer.enter("bench.request", req.r, req.kind)
            t0 = perf_counter()
            try:
                result = workload.execute(req)
            except Exception as exc:  # a raising request is a failed request
                result = exc
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.exit(root)
                workload.absorb(result, latency, len(latencies), profile)
            latencies.append(latency)
            problem = check(workload, req, result)
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{req.kind} r={req.r}: {problem}")
        cycle += 1
        if perf_counter() - start >= seconds:
            break
    return Outcome(latencies, len(latencies), failed, cycle, perf_counter() - start, failures)


def check(workload, req: Request, result) -> str | None:
    """None when the result is correct, else what was wrong."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        return workload.check(req, result)
    except Exception as exc:  # an unreadable result is a wrong result
        return f"check failed on the result: {type(exc).__name__}: {exc}"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(outcome: Outcome, setup: list[float], rss_kb: int) -> dict:
    """Latency percentiles are over each request slot's slowest latency."""
    slowest = outcome.slowest
    return {
        "ops_per_s": (outcome.ops_per_s, "1/s"),
        "latency_p50_ms": (1000.0 * percentile(slowest, 50), "ms"),
        "latency_p90_ms": (1000.0 * percentile(slowest, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the shared machine's speed right now."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "executable": os.path.basename(sys.executable),
        "reference_loop_s": reference_loop_s(),
    }


def distribution(values: list) -> dict:
    """Min, median, max and counts of the values."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
        "counts": {str(k): counts[k] for k in sorted(counts)},
    }


def properties(requests: list[Request]) -> dict:
    """Input properties of one cycle, which every cycle repeats."""
    shapes = [oracle.shape(req.r) for req in requests if req.r > 0]
    classes = [s["class"] for s in shapes]
    kinds = [req.kind for req in requests]
    return {
        "requests_per_cycle": len(requests),
        "distinct_moduli": len({s["r"] for s in shapes}),
        "fraction_share": sum(req.exact == "fraction" for req in requests) / len(requests),
        "class_share": {c: classes.count(c) / len(classes) for c in sorted(set(classes))},
        "kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
        **{key: distribution([s[key] for s in shapes]) for key in ("r", "tau", "omega", "sum_a_plus_1")},
    }
