"""The two in-process workloads, driven through ramfourier's public API.

even-exact: random even functions over a fixed pool of moduli with tau(r)
from 60 to 512, half int and half Fraction, through the divisor-form
transform, its inverse, the Cauchy product, the grouped transform and
the inner product. Caches are warm. Results must equal the oracle's
exactly.

periodic-float: random complex periodic functions at 24 distinct moduli
from 128 to 1024 (powers of two, smooth composites and primes) through
dft, idft and the spectral Cauchy product. Results must lie within the
library's 1e-9 bound of a direct stdlib sum.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import oracle
import probe
from harness import Request, run_child

# tau 60 .. 512. 30030 and 884736 share tau = 64 with very different
# shapes (six primes against 2^15 3^3), as do the highly composite
# 720720 / 4324320 and the primorials 510510 / 223092870 at larger tau.
EVEN_OPS = ("cauchy_product_even", "rft_divisor_form", "irft", "inner_product_even", "rft")
# Value type of each (modulus, operation) slot, in EVEN_OPS order: f for
# Fraction, i for int; 18 of the 35 slots are Fraction. Fraction work
# costs 5-10x int work, so beyond tau 128 only the cheap inner product
# takes Fraction values; that keeps a cycle at 2-3 seconds and a 30 s run
# at ten cycles or more on two vCPUs. Every operation sees both types.
EVEN_SLOTS = {
    5040: "fffff",
    30030: "ffifi",
    884736: "ffifi",
    510510: "fifff",
    720720: "iiifi",
    4324320: "iiifi",
    223092870: "iiifi",
}
EVEN_MODULI = tuple(EVEN_SLOTS)

# 24 distinct moduli, one request each per cycle: 4 powers of two, 9
# primes and 11 smooth composites. The Cauchy product, which costs about
# three transforms, runs only up to 512 so that a cycle stays near two
# seconds; dft at 1021 and 1024 sets the tail, prime against smooth.
PERIODIC_SLOTS = (
    (128, "dft"), (131, "idft"), (144, "cauchy_product_spectral"), (180, "dft"),
    (199, "cauchy_product_spectral"), (240, "idft"), (256, "cauchy_product_spectral"),
    (257, "dft"), (270, "idft"), (331, "cauchy_product_spectral"), (360, "dft"),
    (401, "idft"), (432, "cauchy_product_spectral"), (480, "dft"),
    (509, "cauchy_product_spectral"), (512, "idft"), (600, "dft"), (641, "idft"),
    (720, "dft"), (769, "dft"), (840, "idft"), (1000, "idft"), (1021, "dft"), (1024, "dft"),
)
PERIODIC_MODULI = tuple(r for r, _ in PERIODIC_SLOTS)


def as_map(values, r: int) -> dict:
    """Divisor -> value, whether the library stores a dict or a divisor-aligned tuple."""
    if isinstance(values, dict):
        return values
    return dict(zip(oracle.divisors_sorted(r), values))


class InProcess:
    probe_kind = ""
    moduli: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.max_err = 0.0

    def warm(self) -> None:
        import ramfourier

        getattr(probe, "warm_" + self.probe_kind)(ramfourier, self.moduli)

    def setup_samples(self, n: int) -> list[float]:
        cmd = [sys.executable, probe.__file__, self.probe_kind, *map(str, self.moduli)]
        samples = []
        for _ in range(n):
            done = run_child(cmd)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
            samples.append(float(done.stdout.split()[-1]))
        return samples

    def execute(self, req: Request):
        import ramfourier

        return getattr(ramfourier, req.kind)(*req.args)

    def absorb(self, result, latency, index, profile) -> None:
        """In-process spans stay in the tracer until the run ends."""


class EvenExact(InProcess):
    name = "even-exact"
    probe_kind = "even"
    moduli = EVEN_MODULI

    def requests(self, cycle: int) -> list[Request]:
        from ramfourier import EvenFunction, EvenSpectrum

        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")
        out = []
        for r, types in EVEN_SLOTS.items():
            divs = oracle.divisors_sorted(r)
            for op, letter in zip(EVEN_OPS, types):
                exact = "fraction" if letter == "f" else "int"

                def rand() -> dict:
                    if exact == "int":
                        return {d: rng.randint(-9, 9) for d in divs}
                    return {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divs}

                if op in ("cauchy_product_even", "inner_product_even"):
                    f, g = rand(), rand()
                    args = (EvenFunction(r, f), EvenFunction(r, g))
                else:
                    f, g = rand(), None
                    cls = EvenSpectrum if op == "irft" else EvenFunction
                    args = (cls(r, f),)
                out.append(Request(op, r, exact, args, {"f": f, "g": g}))
        return out

    def check(self, req: Request, result) -> str | None:
        r, f, g = req.r, req.data["f"], req.data["g"]
        if req.kind in ("rft_divisor_form", "rft"):
            return oracle.exact_mismatch(as_map(result.coeffs, r), oracle.rft(r, f))
        if req.kind == "irft":
            return oracle.exact_mismatch(as_map(result.values, r), oracle.irft(r, f))
        if req.kind == "cauchy_product_even":
            return oracle.exact_mismatch(as_map(result.values, r), oracle.cauchy_even(r, f, g))
        return oracle.exact_mismatch({0: result}, {0: oracle.inner_even(r, f, g)})


class PeriodicFloat(InProcess):
    name = "periodic-float"
    probe_kind = "periodic"
    moduli = PERIODIC_MODULI

    def requests(self, cycle: int) -> list[Request]:
        from ramfourier import PeriodicSpectrum, ResidueFunction

        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")

        def rand(r: int) -> tuple:
            return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r))

        out = []
        for r, op in PERIODIC_SLOTS:
            f = rand(r)
            if op == "cauchy_product_spectral":
                g = rand(r)
                args = (ResidueFunction(r, f), ResidueFunction(r, g))
            else:
                g = None
                args = ((PeriodicSpectrum if op == "idft" else ResidueFunction)(r, f),)
            out.append(Request(op, r, None, args, {"f": f, "g": g}))
        return out

    def check(self, req: Request, result) -> str | None:
        f, g = req.data["f"], req.data["g"]
        if req.kind == "dft":
            got, want = result.coeffs, oracle.dft(f)
        elif req.kind == "idft":
            got, want = result.values, oracle.idft(f)
        else:
            got, want = result.values, oracle.cyclic_conv(f, g)
        err, ok = oracle.float_error(got, want)
        self.max_err = max(self.max_err, err)
        return None if ok else f"max abs error {err:.3g} above {oracle.FLOAT_TOL:g}"
