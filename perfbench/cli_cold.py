"""cli-cold: one fresh `python -m ramfourier.cli` process per request.

Every request pays interpreter start-up, import, file parse and format,
factorization and the kernel table build cold, which the in-process
workloads amortise away. Inputs are written before the timed span and
outputs are checked by value, through the benchmark's own parser, so a
change of float formatting that keeps the values is not a failure.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from time import perf_counter

import oracle
from harness import OUT, Request, run_child

EVEN_R = 720720
PERIODIC_R = 1024
VERIFY_RMAX = 60
SUITES = ("orthogonality", "symmetry", "bridge", "cauchy-kernel")
# Two tiny `csum n r` calls after each of the 9 heavy requests measure
# start-up alone. They make a cycle 27 requests, 18 of them tiny, so the
# 50th percentile is a tiny call and the 90th lies among the heavy ones.
TINY_PER_HEAVY = 2


class CliCold:
    name = "cli-cold"

    def __init__(self, seed: int):
        self.seed = seed
        self.max_err = 0.0
        self.trace_dir = None  # set for the traced run
        self.inputs = OUT / "cli-inputs"
        self._tables = {}
        self._traced = 0

    def warm(self) -> None:
        """Nothing to warm in this process: every request starts a fresh one."""

    def setup_samples(self, n: int) -> list[float]:
        """Wall time of fresh processes that import ramfourier.cli and exit."""
        samples = []
        for _ in range(n):
            t0 = perf_counter()
            done = run_child([sys.executable, "-c", "import ramfourier.cli"])
            samples.append(perf_counter() - t0)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        return samples

    def _write(self, name: str, text: str) -> str:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def requests(self, cycle: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")
        self.inputs.mkdir(parents=True, exist_ok=True)
        divs = oracle.divisors_sorted(EVEN_R)

        def even(frac: bool) -> dict:
            if frac:
                return {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divs}
            return {d: rng.randint(-9, 9) for d in divs}

        def periodic() -> list[float]:
            return [rng.uniform(-1, 1) for _ in range(PERIODIC_R)]

        f_int, f_frac, s_int, s_frac, a, b = (even(frac) for frac in (0, 1, 0, 1, 1, 1))
        w = self._write
        p, q = periodic(), periodic()
        p_path, q_path = w("p.txt", oracle.format_periodic(p)), w("q.txt", oracle.format_periodic(q))
        heavy = [
            Request("table", EVEN_R, "int", ("csum", "--table", str(EVEN_R))),
            Request(
                "rft", EVEN_R, "int",
                ("transform", "--kind", "rft", w("f_int.txt", oracle.format_even(EVEN_R, f_int, "text"))),
                {"f": f_int, "fmt": "text"},
            ),
            Request(
                "rft", EVEN_R, "fraction",
                ("transform", "--kind", "rft", "--format", "json",
                 w("f_frac.json", oracle.format_even(EVEN_R, f_frac, "json"))),
                {"f": f_frac, "fmt": "json"},
            ),
            Request(
                "irft", EVEN_R, "int",
                ("transform", "--kind", "rft", "--direction", "inverse",
                 w("s_int.json", oracle.format_even(EVEN_R, s_int, "json"))),
                {"f": s_int, "fmt": "text"},
            ),
            Request(
                "irft", EVEN_R, "fraction",
                ("transform", "--kind", "rft", "--direction", "inverse",
                 w("s_frac.txt", oracle.format_even(EVEN_R, s_frac, "text"))),
                {"f": s_frac, "fmt": "text"},
            ),
            Request(
                "cauchy-even", EVEN_R, "fraction",
                ("cauchy", w("a_frac.txt", oracle.format_even(EVEN_R, a, "text")),
                 w("b_frac.txt", oracle.format_even(EVEN_R, b, "text"))),
                {"f": a, "g": b, "fmt": "text"},
            ),
            Request(
                "dft", PERIODIC_R, None,
                ("transform", "--kind", "dft", p_path),
                {"f": p, "fmt": "text"},
            ),
            Request(
                "cauchy-spectral", PERIODIC_R, None,
                ("cauchy", "--method", "spectral", "--check", "--format", "json", p_path, q_path),
                {"f": p, "g": q, "fmt": "json"},
            ),
            Request("verify", 0, None, ("verify", "--suite", "all", "--rmax", str(VERIFY_RMAX))),
        ]
        out = []
        for req in heavy:
            out.append(req)
            for _ in range(TINY_PER_HEAVY):
                n, r = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
                out.append(Request("csum", r, "int", ("csum", str(n), str(r)), {"n": n}))
        return out

    def execute(self, req: Request):
        if self.trace_dir is None:
            return run_child([sys.executable, "-m", "ramfourier.cli", *req.args])
        spans = str(self.trace_dir / f"request{self._traced}.json")
        self._traced += 1
        boot = str(OUT.parent / "perfbench" / "cli_boot.py")
        done = run_child([sys.executable, boot, spans, *req.args])
        done.spans_file = spans
        return done

    def absorb(self, result, latency, index, profile) -> None:
        """Fold a traced child's spans into the profile; start-up is the rest of its wall time."""
        path = getattr(result, "spans_file", None)
        if path is None or not os.path.exists(path):
            return  # the child died before writing spans; its check counts the failure
        with open(path, encoding="utf-8") as fh:
            payload = json.loads(fh.readline())
            bookkeeping = json.loads(fh.readline())["bookkeeping_s"]
        spans = payload["spans"]
        profile.add(spans, request=index)
        main = sum(t1 - t0 for name, t0, t1, parent, *_ in spans if name == "cli.main")
        profile.self_s["cli.startup_ms"] += latency - main - bookkeeping
        profile.cache_hits += payload["cache"][0]
        profile.cache_misses += payload["cache"][1]

    def check(self, req: Request, done) -> str | None:
        if done.returncode != 0:
            return f"exit status {done.returncode}: {done.stderr.strip()[-200:]}"
        out, data = done.stdout, req.data
        if req.kind == "csum":
            want = oracle.csum(data["n"], req.r)
            return None if int(out) == want else f"got {out.strip()}, want {want}"
        if req.kind == "table":
            return self._check_table(req.r, out)
        if req.kind == "verify":
            return _check_verify(out)
        r, rep, got = oracle.parse_function(out, data["fmt"])
        if r != req.r:
            return f"modulus {r}, want {req.r}"
        if req.kind in ("rft", "irft", "cauchy-even"):
            if rep != "even":
                return f"representation {rep}, want even"
            if req.kind == "rft":
                want = oracle.rft(r, data["f"])
            elif req.kind == "irft":
                want = oracle.irft(r, data["f"])
            else:
                want = oracle.cauchy_even(r, data["f"], data["g"])
            return oracle.exact_mismatch(got, want)
        if req.kind == "dft":
            want = oracle.dft(data["f"])
        else:
            want = oracle.cyclic_conv(data["f"], data["g"])
        err, ok = oracle.float_error(got, want, rel=oracle.TEXT_REL_TOL)
        self.max_err = max(self.max_err, err)
        return None if ok else f"max abs error {err:.3g}"

    def _check_table(self, r: int, out: str) -> str | None:
        if r not in self._tables:
            self._tables[r] = oracle.table(r)
        want_divs, want_rows = self._tables[r]
        divs, rows = oracle.parse_table(out)
        if divs != want_divs:
            return "table columns are not the divisors of r"
        if rows != want_rows:
            bad = next(e for e in want_rows if rows.get(e) != want_rows[e])
            return f"table row e={bad} differs"
        return None


def _check_verify(out: str) -> str | None:
    lines = out.splitlines()
    want = {f"{s} r={r}: pass" for s in SUITES for r in range(1, VERIFY_RMAX + 1)}
    missing = want - set(lines[:-1])
    if missing:
        return f"{len(missing)} suite results missing or failed, e.g. {sorted(missing)[0]}"
    if lines[-1] != f"all {len(want)} checks passed":
        return f"summary line {lines[-1]!r}"
    return None
