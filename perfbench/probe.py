"""One fresh-process set-up of an in-process workload, timed.

Set-up is `import ramfourier` plus one warm-up operation per distinct
modulus, which fills the library's caches and kernel tables. Only `sys`
and `time` are imported before the clock starts, so the import is timed
as a user would pay it. Prints the seconds taken.

Usage, with src on PYTHONPATH:  python probe.py even|periodic R [R ...]
"""

import sys
import time


def warm_even(rf, moduli) -> None:
    for r in moduli:
        rf.rft(rf.EvenFunction(r, {d: 1 for d in rf.divisors(r)}))


def warm_periodic(rf, moduli) -> None:
    for r in moduli:
        rf.dft(rf.ResidueFunction(r, (1.0,) * r))


if __name__ == "__main__":
    kind, moduli = sys.argv[1], [int(a) for a in sys.argv[2:]]
    start = time.perf_counter()
    import ramfourier

    (warm_even if kind == "even" else warm_periodic)(ramfourier, moduli)
    print(time.perf_counter() - start)
