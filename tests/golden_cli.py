"""The golden CLI corpus: the commands, their inputs, and a regenerator.

`golden_cli.json` holds one entry per command, a list of argv, exit
code, stdout and stderr, as `cli.main` gives them in process. `test_golden_cli.py`
replays every entry. The corpus covers `csum` and `csum --table`,
`transform` and `cauchy` on every fixture and fixture pair in every
kind, direction, method and format (`cauchy` with and without
`--check`), `verify --rmax 12` in both formats, usage errors, and the
refusals of values past the float range that CI runs through the
console script.

Arguments name files as "{fx}/<name>" (tests/fixtures) or
"{tmp}/<name>" (one of INPUTS, written to a scratch directory first),
and the same placeholders stand for those directories in stderr. An
argparse-level error keeps no stderr (null), because argparse's own
wording differs across Python versions.

Regenerate after a change that alters output on purpose, and list the
changed entries in CHANGES.md:

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden_cli.json"

# The float-range refusal inputs, as CI writes them.
INPUTS = {
    "huge_periodic.txt": "2 periodic\n1\n" + "7" * 4000 + "\n",
    "long_fraction.txt": "2 periodic\n1\n1/" + "7" * 5000 + "\n",
    "huge_even.txt": "1 even\n1 " + "7" * 2500 + "\n",
    "small_periodic.txt": "2 periodic\n1\n2\n",
    "huge_modulus_even.txt": "7" * 4000 + " even\n1 1\n",
    "huge_modulus_even.json": '{"modulus": ' + "7" * 4000
    + ', "representation": "even", "values": [{"divisor": 1, "value": 1}]}',
    "huge_modulus_periodic.txt": "7" * 4000 + " periodic\n1\n",
    "mixed_even.txt": "2 even\n1 1.5\n2 " + "7" * 2500 + "\n",
    "mixed_periodic.txt": "3 periodic\n1.5\n1.5\n" + "7" * 2500 + "\n",
    "float_even.txt": "1 even\n1 1.5\n",
    "square_past_float.txt": "1 periodic\n" + str(10**200) + "\n",
}

# The text form is the default, so its runs carry no --format.
FORMATS = ([], ["--format", "json"])


def _refusals() -> list[list[str]]:
    t = "{tmp}/"
    out = [["transform", "--kind", "dft", t + name]
           for name in ("huge_periodic.txt", "long_fraction.txt", "huge_even.txt")]
    out += [["cauchy", "--method", "spectral", t + "huge_even.txt", t + "huge_even.txt", *c]
            for c in ([], ["--check"])]
    out += [["transform", "--kind", "rft", t + name]
            for name in ("huge_modulus_even.txt", "huge_modulus_even.json",
                         "huge_modulus_periodic.txt")]
    out += [["csum", "1", "7" * 4000]]
    out += [["cauchy", "--method", "spectral", t + "small_periodic.txt", t + "huge_periodic.txt"]]
    out += [["transform", "--kind", "rft", "--direction", direction, t + name]
            for name in ("mixed_even.txt", "mixed_periodic.txt")
            for direction in ("forward", "inverse")]
    for method in ("auto", "naive", "even"):
        out += [["cauchy", "--method", method, t + "mixed_even.txt", t + "mixed_even.txt"],
                ["cauchy", "--method", method, t + "float_even.txt", t + "huge_even.txt"]]
    out += [["cauchy", t + "mixed_periodic.txt", t + "mixed_periodic.txt"],
            ["cauchy", "--check", t + "mixed_even.txt", t + "mixed_even.txt"]]
    out += [["cauchy", "--method", method, "--check",
             t + "square_past_float.txt", t + "square_past_float.txt"]
            for method in ("naive", "spectral")]
    out += [["transform", "--kind", "dft", t + "missing.txt"]]
    return out


def commands() -> list[list[str]]:
    """Every argv of the corpus, in its order."""
    fixtures = ["{fx}/" + p.name for p in sorted(FIXTURES.iterdir())]
    out = [["csum", n, r, *fmt]
           for n, r in (("2", "4"), ("1", "1"), ("0", "12"), ("-3", "12"), ("5", "30"),
                        ("1", "0"), ("7", "-4"))
           for fmt in FORMATS]
    out += [["csum", "--table", r, *fmt]
            for r in ("1", "4", "12", "30", "36") for fmt in FORMATS]
    out += [["csum", "2"], ["csum", "1", "2", "3"], ["csum", "--table", "4", "6"]]
    out += [["transform", "--kind", kind, "--direction", direction, *fmt, path]
            for path in fixtures
            for kind in ("dft", "rft")
            for direction in ("forward", "inverse")
            for fmt in FORMATS]
    out += [["cauchy", "--method", method, *fmt, f, g, *check]
            for f in fixtures
            for g in fixtures
            for method in ("auto", "naive", "spectral", "even")
            for fmt in FORMATS
            for check in ([], ["--check"])]
    out += [["cauchy", "--method", method, "--check", "--tolerance", "0", f, f]
            for f in fixtures for method in ("naive", "spectral", "even")]
    out += [["verify", "--rmax", "12", *fmt] for fmt in FORMATS]
    out += [["verify", "--suite", "bridge", "--rmax", "12", "--tolerance", "0", *fmt]
            for fmt in FORMATS]
    out += [["verify", "--rmax", "0"], ["verify", "--rmax", "61"]]
    out += _refusals()
    # argparse-level errors: their stderr is argparse's and is not kept.
    out += [[], ["csum"], ["frobnicate"], ["transform", "{fx}/const4.txt"],
            ["transform", "--kind", "fft", "{fx}/const4.txt"],
            ["verify", "--rmax", "x"], ["verify", "--rmax", "12", "--suite", "nope"],
            ["csum", "1", "2", "--tolerance", "nan"], ["csum", "1", "2", "--tolerance", "-1"],
            ["csum", "1", "2", "--tolerance", "inf"], ["csum", "1", "2", "--format", "xml"]]
    return out


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (directory / name).write_text(text)


def run(argv: list[str], tmp: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run of `cli.main`,
    with the two directories put back as placeholders in stderr."""
    from ramfourier import cli

    real = [a.replace("{fx}", str(FIXTURES)).replace("{tmp}", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(real)
    text = err.getvalue().replace(str(tmp), "{tmp}").replace(str(FIXTURES), "{fx}")
    return code, out.getvalue(), text


def _usage_error(argv: list[str]) -> bool:
    from ramfourier import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def load() -> list[list]:
    """The entries, each [argv, exit code, stdout, stderr or None]."""
    return json.loads(GOLDEN.read_text())


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        write_inputs(tmp)
        entries = []
        for argv in commands():
            code, out, err = run(argv, tmp)
            entries.append([argv, code, out, None if _usage_error(argv) else err])
    # One entry per line, so a diff names the commands whose output moved.
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
