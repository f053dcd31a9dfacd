"""Spans around ramfourier's coarse public entry points, for the traced run.

Tracer.install() replaces the entry points below in every loaded
ramfourier module, so calls from one library module into another are
caught too. Per-entry helpers such as mobius, euler_phi and
RamanujanTable.value stay unwrapped: a wrapper there would cost more
than the table build it sits inside. Spans stay in memory as
[name, start, end, parent, request, modulus, info] and are written out
when the run ends. Nothing here changes what the library computes.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, attribute, span name)
ENTRY_POINTS = (
    ("ramfourier.arith", "factorize", "arith.factorize"),
    ("ramfourier.arith", "divisors", "arith.divisors"),
    ("ramfourier.ramanujan", "RamanujanTable", "ramanujan.table"),
    ("ramfourier.even", "rft", "even.transform"),
    ("ramfourier.even", "rft_divisor_form", "even.transform"),
    ("ramfourier.even", "irft", "even.transform"),
    ("ramfourier.even", "cauchy_product_even", "even.cauchy"),
    ("ramfourier.even", "inner_product_even", "even.inner"),
    ("ramfourier.even", "verify_orthogonality", "even.verify"),
    ("ramfourier.even", "verify_symmetry", "even.verify"),
    ("ramfourier.even", "verify_rft_dft_bridge", "even.verify"),
    ("ramfourier.even", "verify_cauchy_kernel_even", "even.verify"),
    ("ramfourier.periodic", "dft", "periodic.dft"),
    ("ramfourier.periodic", "idft", "periodic.dft"),
    ("ramfourier.periodic", "cauchy_product_spectral", "periodic.cauchy"),
    ("ramfourier.periodic", "cauchy_product", "periodic.cauchy"),
    ("ramfourier.funcfile", "load_function", "funcfile.parse"),
    ("ramfourier.funcfile", "format_function", "funcfile.format"),
    ("ramfourier.cli", "main", "cli.main"),
)

# Read through their public cache_info(), never wrapped per call.
CACHED = ("factorize", "divisors", "mobius", "euler_phi")


def cache_counts() -> tuple[int, int]:
    """Summed (hits, misses) of the arith caches."""
    arith = sys.modules["ramfourier.arith"]
    hits = misses = 0
    for name in CACHED:
        fn = getattr(arith, name, None)
        # Under the tracer the name holds a wrapper around the cached function.
        info = getattr(fn, "cache_info", None) or getattr(
            getattr(fn, "__wrapped__", None), "cache_info", None
        )
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def _modulus(args) -> int:
    if not args:
        return -1
    a = args[0]
    if isinstance(a, int):
        return a
    return getattr(a, "r", -1)


def _exactness(obj) -> str:
    """'int' when every value of an even function or spectrum is an int."""
    vals = getattr(obj, "values", None)
    if vals is None:
        vals = getattr(obj, "coeffs", ())
    if isinstance(vals, dict):
        vals = vals.values()
    return "int" if all(type(v) is int for v in vals) else "fraction"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.request = -1

    def enter(self, name: str, r: int = -1, info=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request, r, info])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit
        spans = self.spans

        def traced(*args, **kwargs):
            info = None
            if name == "even.transform" and args:
                info = _exactness(args[0])
            elif name == "funcfile.parse" and args:
                info = os.path.getsize(args[0])
            idx = enter(name, _modulus(args), info)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if name == "funcfile.format":
                spans[idx][6] = len(result.encode())
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "ramfourier" or n.startswith("ramfourier."))
        ]
        for home, attr, name in ENTRY_POINTS:
            orig = getattr(sys.modules.get(home), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._saved.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._saved):
            setattr(m, key, orig)
        self._saved.clear()

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh, separators=(",", ":"))


# Per-layer metric keys, from span name and info.
def _metric_key(name: str, info) -> str | None:
    if name == "even.transform":
        return "even.transform_int_ms" if info == "int" else "even.transform_fraction_ms"
    return {
        "cli.main": "cli.self_ms",
        "funcfile.parse": "funcfile.parse_ms",
        "funcfile.format": "funcfile.format_ms",
        "arith.factorize": "arith.factorize_ms",
        "arith.divisors": "arith.divisors_ms",
        "ramanujan.table": "ramanujan.table_build_ms",
        "even.cauchy": "even.cauchy_ms",
        "even.verify": "even.verify_ms",
        "periodic.dft": "periodic.dft_ms",
        "periodic.cauchy": "periodic.cauchy_ms",
    }.get(name)


class Profile:
    """Self times and counts accumulated from spans, per layer and per request."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.layer_by_request = defaultdict(lambda: defaultdict(float))
        self.cache_hits = 0
        self.cache_misses = 0

    def add(self, spans, request=None) -> None:
        """Fold in spans whose parent indices point into the same list."""
        child = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, req, r, info) in enumerate(spans):
            own = t1 - t0 - child[i]
            key = _metric_key(name, info)
            if key:
                self.self_s[key] += own
            self.counts[name] += 1
            if name == "funcfile.parse":
                self.counts["funcfile.bytes_in"] += info or 0
            elif name == "funcfile.format":
                self.counts["funcfile.bytes_out"] += info or 0
            req = req if request is None else request
            self.layer_by_request[req][name.split(".")[0]] += own

    def metrics(self, n_requests: int, max_abs_err: float) -> dict:
        n = max(n_requests, 1)
        ms = {k: 1000.0 * self.self_s[k] / n for k in PER_LAYER_MS}
        looked_up = self.cache_hits + self.cache_misses
        return {
            **ms,
            "funcfile.bytes_in": self.counts["funcfile.bytes_in"] / n,
            "funcfile.bytes_out": self.counts["funcfile.bytes_out"] / n,
            "arith.factorize_calls": self.counts["arith.factorize"] / n,
            "arith.cache_hit_ratio": self.cache_hits / looked_up if looked_up else 0.0,
            "ramanujan.table_builds": self.counts["ramanujan.table"] / n,
            "periodic.max_abs_err": max_abs_err,
        }


PER_LAYER_MS = (
    "cli.startup_ms",
    "cli.self_ms",
    "funcfile.parse_ms",
    "funcfile.format_ms",
    "arith.factorize_ms",
    "arith.divisors_ms",
    "ramanujan.table_build_ms",
    "even.transform_int_ms",
    "even.transform_fraction_ms",
    "even.cauchy_ms",
    "even.verify_ms",
    "periodic.dft_ms",
    "periodic.cauchy_ms",
)
UNITS = {
    **{k: "ms" for k in PER_LAYER_MS},
    "funcfile.bytes_in": "bytes",
    "funcfile.bytes_out": "bytes",
    "arith.factorize_calls": "count",
    "arith.cache_hit_ratio": "ratio",
    "ramanujan.table_builds": "count",
    "periodic.max_abs_err": "abs",
}
