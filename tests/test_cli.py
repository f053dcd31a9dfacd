"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import ramfourier.cli as cli
from ramfourier import divisors, parse_function_text
from ramfourier.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# Exact values past the float range, which the floating routes refuse
# with exit 2 and a message under ERR_MAX bytes.
HUGE_PERIODIC = f"2 periodic\n1\n{'7' * 4000}\n"
HUGE_EVEN = f"1 even\n1 {'7' * 2500}\n"
ERR_MAX = 300

TABLE4 = (
    "C(r/e,d)  d=1  d=2  d=4\n"
    "e=1         1    1    2\n"
    "e=2         1    1   -2\n"
    "e=4         1   -1    0\n"
)


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCsum:
    def test_single_value(self, capsys):
        code, out, _ = run(["csum", "2", "4"], capsys)
        assert code == 0 and out == "-2\n"
        code, out, _ = run(["csum", "1", "1"], capsys)
        assert code == 0 and out == "1\n"

    def test_table_golden(self, capsys):
        code, out, _ = run(["csum", "--table", "4"], capsys)
        assert code == 0 and out == TABLE4

    def test_json(self, capsys):
        code, out, _ = run(["csum", "2", "4", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 2, "r": 4, "value": -2}
        code, out, _ = run(["csum", "--table", "4", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload == {
            "r": 4,
            "divisors": [1, 2, 4],
            "table": [[1, 1, 2], [1, 1, -2], [1, -1, 0]],
        }

    def test_bad_arguments(self, capsys):
        code, _, err = run(["csum", "2"], capsys)
        assert code == 2 and "error" in err
        code, _, err = run(["csum", "1", "2", "3"], capsys)
        assert code == 2 and "error" in err
        code, _, err = run(["csum", "x", "4"], capsys)
        assert code == 2
        code, _, err = run(["csum", "2", "0"], capsys)
        assert code == 2 and "error" in err


class TestTransform:
    def test_rft_forward_golden(self, capsys):
        code, out, _ = run(["transform", "--kind", "rft", FIXTURES / "gcd4.txt"], capsys)
        assert code == 0
        assert out == "4 even\n1 8\n2 4\n4 2\n"

    def test_rft_accepts_json_input(self, capsys):
        code, out, _ = run(["transform", "--kind", "rft", FIXTURES / "gcd4.json"], capsys)
        assert code == 0
        assert out == "4 even\n1 8\n2 4\n4 2\n"

    def test_rft_roundtrip_is_byte_identical(self, capsys, tmp_path):
        original = (FIXTURES / "rational6.txt").read_text()
        code, forward, _ = run(
            ["transform", "--kind", "rft", FIXTURES / "rational6.txt"], capsys
        )
        assert code == 0
        intermediate = tmp_path / "spectrum.txt"
        intermediate.write_text(forward)
        code, back, _ = run(
            ["transform", "--kind", "rft", "--direction", "inverse", intermediate], capsys
        )
        assert code == 0
        assert back == original

    def test_dft_forward_constant(self, capsys):
        code, out, _ = run(["transform", "--kind", "dft", FIXTURES / "const4.txt"], capsys)
        assert code == 0
        spectrum = parse_function_text(out)
        expected = (0, 0, 0, 4)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(spectrum.values, expected))

    def test_dft_roundtrip(self, capsys, tmp_path):
        code, forward, _ = run(["transform", "--kind", "dft", FIXTURES / "const4.txt"], capsys)
        intermediate = tmp_path / "spectrum.txt"
        intermediate.write_text(forward)
        code, back, _ = run(
            ["transform", "--kind", "dft", "--direction", "inverse", intermediate], capsys
        )
        assert code == 0
        f = parse_function_text(back)
        assert all(abs(v - 1) <= 1e-9 for v in f.values)

    def test_dft_accepts_even_representation(self, capsys):
        code, out, _ = run(["transform", "--kind", "dft", FIXTURES / "gcd4.txt"], capsys)
        assert code == 0
        spectrum = parse_function_text(out)
        expected = (2, 4, 2, 8)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(spectrum.values, expected))

    def test_rft_rejects_uneven_input(self, capsys, tmp_path):
        bad = tmp_path / "uneven.txt"
        bad.write_text("3 periodic\n1\n2\n3\n")
        code, _, err = run(["transform", "--kind", "rft", bad], capsys)
        assert code == 2
        assert "f(2)" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        cases = [
            ("3 periodic\n1\nnot-a-number\n3\n", "line 3"),
            ("1_2 even\n1 1\n2 2\n3 3\n4 4\n6 6\n12 12\n", "line 1: bad modulus"),
            ("2 periodic\n1\n1_0\n", "line 3: bad value"),
        ]
        for text, where in cases:
            bad.write_text(text)
            code, out, err = run(["transform", "--kind", "rft", bad], capsys)
            assert code == 2 and out == "" and where in err

    def test_non_finite_values(self, capsys, tmp_path):
        for value in ("nan", "1e400"):
            bad = tmp_path / "nonfinite.txt"
            bad.write_text(f"2 periodic\n1\n{value}\n")
            code, out, err = run(["transform", "--kind", "dft", bad], capsys)
            assert code == 2 and out == ""
            assert "line 3" in err and "non-finite" in err

    def test_overflowing_output_is_refused(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("2 periodic\n1e308\n1e308\n")
        for fmt in ("text", "json"):
            code, out, err = run(["transform", "--kind", "dft", big, "--format", fmt], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "non-finite value inf+0j at index 2" in err

    def test_overflowing_output_is_refused_at_fft_lengths(self, capsys, tmp_path):
        # 17 runs through Bluestein's chirp-z, 12 through mixed radix 2 and 3.
        big = tmp_path / "big.txt"
        for r in (17, 12):
            big.write_text(f"{r} periodic\n" + "1e308\n" * r)
            for fmt in ("text", "json"):
                code, out, err = run(["transform", "--kind", "dft", big, "--format", fmt], capsys)
                assert code == 2 and out == ""
                assert err.startswith("error: cannot write non-finite value ")

    def test_unreadable_files_exit_2(self, capsys, tmp_path):
        # Past 4300 digits CPython refuses to convert an int from text.
        long = "7" * 5000
        files = {
            "long.txt": (f"2 periodic\n1\n{long}\n".encode(), "line 3: integer of 5000"),
            "long_fraction.txt": (
                f"2 periodic\n1\n1/{long}\n".encode(),
                "line 3: integer of 5000 digits exceeds the 4300-digit limit\n",
            ),
            "long.json": (
                b'{"modulus": 2, "representation": "periodic", "values": [1, %s]}'
                % long.encode(),
                "field values[1]: integer of 5000",
            ),
            "latin1.txt": (b"\xff\xfe2 periodic\n", "line 1: not UTF-8 text at byte offset 0"),
        }
        for name, (data, message) in files.items():
            path = tmp_path / name
            path.write_bytes(data)
            for kind in ("dft", "rft"):
                code, out, err = run(["transform", "--kind", kind, path], capsys)
                assert (code, out) == (2, "") and err.startswith(f"error: {message}")
                assert len(err.encode()) < ERR_MAX

    def test_values_past_the_float_range_exit_2(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        for text, direction, message in (
            (HUGE_PERIODIC, "forward", "value at residue 2 is outside the floating-point range"),
            (HUGE_PERIODIC, "inverse", "coefficient at k = 2 is outside the floating-point range"),
            (HUGE_EVEN, "forward", "value at residue 1 is outside the floating-point range"),
        ):
            path.write_text(text)
            argv = ["transform", "--kind", "dft", "--direction", direction, path]
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "") and err.startswith(f"error: {message}")
            assert len(err.encode()) < ERR_MAX

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(["transform", "--kind", "rft", tmp_path / "nope.txt"], capsys)
        assert code == 2 and "error" in err

    def test_json_output_parses_back(self, capsys):
        code, out, _ = run(
            ["transform", "--kind", "rft", FIXTURES / "gcd4.txt", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["modulus"] == 4 and payload["representation"] == "even"
        assert payload["values"] == [
            {"divisor": 1, "value": 8},
            {"divisor": 2, "value": 4},
            {"divisor": 4, "value": 2},
        ]


class TestCauchy:
    def test_indicator_translation(self, capsys):
        code, out, _ = run(
            ["cauchy", FIXTURES / "ind1_mod4.txt", FIXTURES / "ind2_mod4.txt"], capsys
        )
        assert code == 0
        assert out == "4 periodic\n0\n0\n1\n0\n"

    def test_ramanujan_row_squared(self, capsys):
        code, out, _ = run(
            ["cauchy", FIXTURES / "c2row4.txt", FIXTURES / "c2row4.txt"], capsys
        )
        assert code == 0
        assert out == "4 periodic\n-4\n4\n-4\n4\n"

    def test_even_inputs_check_is_exact(self, capsys):
        code, out, _ = run(
            ["cauchy", FIXTURES / "rational6.txt", FIXTURES / "rational6.txt", "--check"],
            capsys,
        )
        assert code == 0
        first, rest = out.split("\n", 1)
        assert first.startswith("# max discrepancy: 0 ")
        assert rest.startswith("6 even\n")
        parse_function_text(rest)  # output stays a valid function file

    def test_spectral_matches_naive_within_default_tolerance(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("3 periodic\n1\n2\n4\n")
        b.write_text("3 periodic\n1\n0\n5\n")
        code, out, _ = run(["cauchy", a, b, "--method", "spectral", "--check"], capsys)
        assert code == 0
        assert out.startswith("# max discrepancy: ")

    def test_zero_tolerance_check_fails(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("3 periodic\n1\n2\n4\n")
        b.write_text("3 periodic\n1\n0\n5\n")
        code, out, _ = run(
            ["cauchy", a, b, "--method", "spectral", "--check", "--tolerance", "0"],
            capsys,
        )
        assert code == 1
        assert out.startswith("# max discrepancy: ")

    def test_overflowing_output_is_refused(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("2 periodic\n1e308\n1e308\n")
        for extra in ([], ["--check"], ["--format", "json"]):
            code, out, err = run(["cauchy", big, big, "--method", "spectral"] + extra, capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "non-finite value nan+nanj" in err

    def test_long_integer_output_is_refused(self, capsys, tmp_path):
        # The product of two 2500-digit values has 5000 digits, past the
        # int-to-text limit, so the writer refuses it by divisor.
        half = tmp_path / "half.txt"
        half.write_text(f"1 even\n1 {'7' * 2500}\n")
        for extra, where in (
            ([], "divisor 1"),
            (["--format", "json"], "divisor 1"),
            (["--method", "naive"], "index 1"),
        ):
            code, out, err = run(["cauchy", half, half] + extra, capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write value at {where}: ")

    def test_values_past_the_float_range_exit_2(self, capsys, tmp_path):
        even, periodic = tmp_path / "even.txt", tmp_path / "periodic.txt"
        even.write_text(HUGE_EVEN)
        periodic.write_text(HUGE_PERIODIC)
        for path, extra, residue in (
            (even, [], 1),
            (periodic, [], 2),
            (periodic, ["--check"], 2),
        ):
            argv = ["cauchy", path, path, "--method", "spectral", *extra]
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err == f"error: value at residue {residue} is outside the floating-point range\n"

    def test_tolerance_must_be_finite_and_non_negative(self, capsys):
        pair = [FIXTURES / "gcd4.txt", FIXTURES / "const4.txt"]
        commands = (
            ["cauchy", *pair, "--method", "spectral", "--check"],
            ["verify", "--suite", "bridge", "--rmax", "4"],
            ["transform", "--kind", "rft", FIXTURES / "gcd4.txt"],
        )
        for tol in ("nan", "inf", "-inf", "-1", "-0.5"):
            for argv in commands:
                code, out, err = run([*argv, f"--tolerance={tol}"], capsys)
                assert (code, out) == (2, "")
                assert f"--tolerance: must be finite and >= 0, got '{tol}'" in err

    def test_mixed_representations_expand_to_periodic(self, capsys):
        # gcd(., 4) convolved with the constant 1: every value is sum of f.
        code, out, _ = run(
            ["cauchy", FIXTURES / "gcd4.txt", FIXTURES / "const4.txt"], capsys
        )
        assert code == 0
        assert out == "4 periodic\n8\n8\n8\n8\n"

    def test_even_method_requires_even_inputs(self, capsys):
        code, _, err = run(
            ["cauchy", FIXTURES / "gcd4.txt", FIXTURES / "const4.txt", "--method", "even"],
            capsys,
        )
        assert code == 2 and "even" in err

    def test_even_route_never_expands(self, capsys, monkeypatch):
        # Only the residue-domain routes and --check read the expansions.
        pair = [FIXTURES / "rational6.txt", FIXTURES / "rational6.txt"]
        variants = ([], ["--method", "even"], ["--format", "json"])
        want = [run(["cauchy", *pair, *extra], capsys) for extra in variants]

        def refuse(e):
            raise AssertionError("the even route expanded its input")

        monkeypatch.setattr(cli, "to_periodic", refuse)
        for extra, expected in zip(variants, want):
            assert run(["cauchy", *pair, *extra], capsys) == expected
        assert expected[0] == 0 and expected[1].startswith("{")

    def test_modulus_mismatch(self, capsys):
        code, _, err = run(
            ["cauchy", FIXTURES / "const4.txt", FIXTURES / "rational6.txt"], capsys
        )
        assert code == 2 and "modulus mismatch" in err

    def test_modulus_mismatch_exits_before_expanding(self, capsys, monkeypatch, tmp_path):
        paths = []
        for r in (720720, 360360):
            path = tmp_path / f"even{r}.txt"
            path.write_text(f"{r} even\n" + "".join(f"{d} 1\n" for d in divisors(r)))
            paths.append(path)

        def refuse(e):
            raise AssertionError("a mismatched input was expanded")

        monkeypatch.setattr(cli, "to_periodic", refuse)
        code, out, err = run(["cauchy", *paths, "--method", "naive"], capsys)
        assert (code, out) == (2, "") and "modulus mismatch: 720720 != 360360" in err

    def test_json_check_fields(self, capsys):
        code, out, _ = run(
            [
                "cauchy",
                FIXTURES / "rational6.txt",
                FIXTURES / "rational6.txt",
                "--check",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_discrepancy"] == "0"
        assert payload["check_passed"] is True


class TestVerify:
    def test_orthogonality_sweep(self, capsys):
        code, out, _ = run(["verify", "--suite", "orthogonality", "--rmax", "20"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "orthogonality r=1: pass"
        assert lines[-1] == "all 20 checks passed"
        assert sum(1 for line in lines if line.endswith(": pass")) == 20

    def test_all_suites_degenerate_modulus(self, capsys):
        code, out, _ = run(["verify", "--suite", "all", "--rmax", "1"], capsys)
        assert code == 0
        assert "all 4 checks passed" in out

    def test_symmetry_sweep(self, capsys):
        code, out, _ = run(["verify", "--suite", "symmetry", "--rmax", "30"], capsys)
        assert code == 0 and "all 30 checks passed" in out

    def test_cauchy_kernel_cap_is_explicit(self, capsys):
        code, _, err = run(["verify", "--suite", "cauchy-kernel", "--rmax", "100"], capsys)
        assert code == 2 and "capped at r <= 60" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run(["verify", "--suite", "parity", "--rmax", "5"], capsys)
        assert code == 2

    def test_rmax_must_be_positive(self, capsys):
        code, _, err = run(["verify", "--suite", "symmetry", "--rmax", "0"], capsys)
        assert code == 2

    def test_zero_tolerance_bridge_fails_with_counterexample(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "bridge", "--rmax", "2", "--tolerance", "0"], capsys
        )
        assert code == 1
        assert "FAIL" in out and "counterexample" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "orthogonality", "--rmax", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["results"]) == 5
        assert all(item["passed"] for item in payload["results"])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
