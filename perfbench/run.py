"""ramfourier benchmark: one closed-loop workload per run, checked results.

Usage, from the repository root:

    python3 perfbench/run.py --workload even-exact|periodic-float|cli-cold \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
first runs untraced for half the time, then traced for the other half,
and reports the per-layer metrics, the per-size breakdown and the
tracing overhead against the untraced half. Human-readable lines go to
stdout first; the last line is one JSON object with the metrics. Full
results are written under .perfbench-out/. The package is imported from
src/; without it the benchmark exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import harness
import oracle
import tracer
from harness import OUT, SRC

WORKLOADS = ("even-exact", "periodic-float", "cli-cold")
# Fresh processes timed for setup_s; its median is reported.
SETUP_SAMPLES = {"even-exact": 5, "periodic-float": 3, "cli-cold": 7}


def load_library() -> None:
    package = SRC / "ramfourier"
    if not (package / "__init__.py").is_file():
        print(f"error: no ramfourier package at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ramfourier
    import ramfourier.cli  # noqa: F401  (loaded so the tracer can wrap it)

    if Path(ramfourier.__file__).resolve().parent != package.resolve():
        print(f"error: ramfourier imported from {ramfourier.__file__}", file=sys.stderr)
        sys.exit(2)


def make_workload(name: str, seed: int):
    if name == "cli-cold":
        from cli_cold import CliCold

        return CliCold(seed)
    from inprocess import EvenExact, PeriodicFloat

    return (EvenExact if name == "even-exact" else PeriodicFloat)(seed)


def breakdown(spans: list, profile: tracer.Profile) -> dict:
    """Mean even and periodic self time per request, by the request's modulus shape."""
    modulus = {s[4]: s[5] for s in spans if s[0] == "bench.request"}
    groups = defaultdict(list)
    for req, layers in profile.layer_by_request.items():
        r = modulus.get(req, -1)
        if r < 1:
            continue
        shape = oracle.shape(r)
        for layer, keys in (("even", ("tau", "omega")), ("periodic", ("class", "r"))):
            if layers.get(layer, 0.0) > 0.0:
                for key in keys:
                    groups[(layer, key, shape[key])].append(1000.0 * layers[layer])
    out = defaultdict(dict)
    for (layer, key, value), ms in sorted(groups.items(), key=lambda kv: str(kv[0])):
        out[f"{layer}_self_ms_by_{key}"][str(value)] = {
            "mean": statistics.fmean(ms),
            "requests": len(ms),
        }
    return dict(out)


def traced_run(workload, args, base) -> tuple[dict, harness.Outcome, dict]:
    tr, profile = tracer.Tracer(), tracer.Profile()
    is_cli = args.workload == "cli-cold"
    if is_cli:
        workload.trace_dir = OUT / f"{args.workload}-spans"
        shutil.rmtree(workload.trace_dir, ignore_errors=True)
        workload.trace_dir.mkdir(parents=True)
    else:
        tr.install()
        hits0, misses0 = tracer.cache_counts()
    workload.max_err = 0.0
    try:
        out = harness.measure(workload, args.seconds / 2, tr, profile)
    finally:
        tr.uninstall()
    profile.add(tr.spans)
    if not is_cli:
        hits1, misses1 = tracer.cache_counts()
        profile.cache_hits, profile.cache_misses = hits1 - hits0, misses1 - misses0
    tr.dump(str(OUT / f"{args.workload}-seed{args.seed}-spans.json"))
    metrics = profile.metrics(out.attempted, workload.max_err)
    overhead = {
        "untraced_ops_per_s": base.ops_per_s,
        "untraced_requests": base.attempted,
        "traced_ops_per_s": out.ops_per_s,
        "traced_requests": out.attempted,
        "traced_over_untraced": out.ops_per_s / base.ops_per_s,
    }
    extra = {"tracing_overhead": overhead, "breakdown": breakdown(tr.spans, profile)}
    return metrics, out, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_library()
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    report = {"stamp": harness.stamp(args), "inputs": harness.properties(workload.requests(0))}
    print("# stamp " + json.dumps(report["stamp"]))
    print("# inputs " + json.dumps(report["inputs"]))

    harness.fill_bytecode_cache()
    if args.trace == 0:
        setup = workload.setup_samples(SETUP_SAMPLES[args.workload])
        workload.warm()
        outcome = harness.measure(workload, args.seconds)
        rss = harness.peak_rss_kb(children=args.workload == "cli-cold")
        metrics = harness.end_to_end(outcome, setup, rss)
        report["setup_samples_s"] = setup
        runs = [outcome]
    else:
        workload.warm()
        base = harness.measure(workload, args.seconds / 2)
        per_layer, outcome, extra = traced_run(workload, args, base)
        metrics = {k: (v, tracer.UNITS[k]) for k, v in per_layer.items()}
        report.update(extra)
        runs = [base, outcome]
        print("# tracing overhead " + json.dumps(extra["tracing_overhead"]))
        for key, groups in extra["breakdown"].items():
            print(f"# {key} " + json.dumps(groups))

    report["reference_loop_s_at_end"] = harness.reference_loop_s()
    print(f"# reference loop {report['stamp']['reference_loop_s']:.4f} s at start, "
          f"{report['reference_loop_s_at_end']:.4f} s at end")
    attempted = sum(o.attempted for o in runs)
    failed = sum(o.failed for o in runs)
    slowest = outcome.slowest
    p90 = harness.percentile(slowest, 90)
    tail = sum(v > p90 for v in slowest)
    print(f"# requests {outcome.attempted} in {outcome.cycles} cycles of {len(slowest)} slots, "
          f"{tail} slots ({tail * outcome.cycles} requests) beyond p90, wall {outcome.wall_s:.1f} s")
    for failure in [f for o in runs for f in o.failures]:
        print("# FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")

    report.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted=attempted,
        failed=failed,
        failures=[f for o in runs for f in o.failures],
        latencies_s=outcome.latencies,
        requests_per_cycle=outcome.attempted // outcome.cycles,
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
