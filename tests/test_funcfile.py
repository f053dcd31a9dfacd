"""Tests for the function file format: parsing, printing, closure."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramfourier import (
    EvenFunction,
    EvenSpectrum,
    FormatError,
    PeriodicSpectrum,
    ResidueFunction,
    format_function,
    format_scalar,
    irft,
    load_function,
    parse_function_json,
    parse_function_text,
    parse_scalar,
    rft_divisor_form,
)

FIXTURES = Path(__file__).parent / "fixtures"

# CPython refuses int <-> str conversions past 4300 digits by default.
LONG = "7" * 5000

# Reader messages quote a long token by a prefix and its length, so each
# error case below stays under this many characters.
MESSAGE_MAX = 120


class TestScalars:
    def test_parse_kinds(self):
        assert parse_scalar("5") == 5 and isinstance(parse_scalar("5"), int)
        assert parse_scalar("-17") == -17
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-3/4") == Fraction(-3, 4)
        assert parse_scalar("1.25") == 1.25 and isinstance(parse_scalar("1.25"), float)
        assert parse_scalar("2e-3") == 0.002
        assert parse_scalar("1.5+2j") == 1.5 + 2j
        assert parse_scalar("1.5-2j") == 1.5 - 2j

    def test_canonical_printing(self):
        assert format_scalar(5) == "5"
        assert format_scalar(Fraction(6, 8)) == "3/4"
        assert format_scalar(Fraction(8, 2)) == "4"
        assert format_scalar(Fraction(1, -2)) == "-1/2"
        assert format_scalar(0.5) == "0.5"
        assert format_scalar(1.5 + 2j) == "1.5+2j"
        assert format_scalar(1.5 - 2j) == "1.5-2j"

    def test_print_parse_roundtrip(self):
        for v in (0, -3, Fraction(22, 7), Fraction(-1, 9), 0.125, -2.5e-4, 1 + 1j, -0.5 - 0.25j):
            assert parse_scalar(format_scalar(v)) == v

    @given(
        st.one_of(
            st.integers(),
            st.fractions(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.complex_numbers(allow_nan=False, allow_infinity=False),
        )
    )
    def test_print_parse_roundtrip_property(self, v):
        back = parse_scalar(format_scalar(v))
        assert back == v
        if isinstance(v, Fraction) and v.denominator == 1:
            assert type(back) is int
        else:
            assert type(back) is type(v)

    def test_floats_print_their_shortest_roundtrip_text(self):
        assert format_scalar(0.1 + 0.2) == "0.30000000000000004"
        assert parse_scalar(format_scalar(0.1 + 0.2)) == 0.1 + 0.2
        assert format_scalar(3.0) == "3.0"
        assert format_scalar(complex(0.1 + 0.2, -1e-20)) == "0.30000000000000004-1e-20j"

    def test_bad_tokens(self):
        for token in ("", "3/4.5", "1/0", "abc", "1+j2"):
            with pytest.raises(FormatError):
                parse_scalar(token)

    @pytest.mark.parametrize(
        "token", ["1_0", "-1_000", "1_0.5", "1e1_0", "1_0/3", "1/1_0", "1_0+2j", "\u0661\u0662",
                  "\uff11\uff12", "1.\uff15", "\u00bd", "3/\u0664"]
    )
    def test_only_ascii_numbers(self, token):
        # int(), float(), Fraction() and complex() would read all of these.
        with pytest.raises(FormatError, match="bad value"):
            parse_scalar(token)

    def test_long_tokens_are_quoted_by_prefix_and_length(self):
        with pytest.raises(FormatError) as info:
            parse_scalar("x" * 100)
        assert str(info.value) == f"bad value {'x' * 40!r}... (100 characters)"
        with pytest.raises(FormatError, match=r"^bad fraction '1/2/3'$"):
            parse_scalar("1/2/3")

    def test_non_finite_tokens(self):
        for token in ("nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
                      "nan+1j", "1+infj", "1e400+1j", "1-1e400j"):
            with pytest.raises(FormatError, match="non-finite"):
                parse_scalar(token)


class TestTextParsing:
    def test_periodic(self):
        f = parse_function_text("3 periodic\n1\n1/2\n-4\n")
        assert f == ResidueFunction(3, (1, Fraction(1, 2), -4))

    def test_even(self):
        f = parse_function_text("4 even\n1 1\n2 2\n4 4\n")
        assert f == EvenFunction(4, {1: 1, 2: 2, 4: 4})

    def test_comments_and_blank_lines(self):
        text = "# gcd function\n\n4 even\n1 1  # unit divisor\n2 2\n\n4 4\n"
        assert parse_function_text(text) == EvenFunction(4, {1: 1, 2: 2, 4: 4})

    def test_errors_name_lines(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_function_text("3 periodic\n1\nx\n2\n")
        with pytest.raises(FormatError, match="line 1"):
            parse_function_text("3 sideways\n1\n2\n3\n")
        with pytest.raises(FormatError, match="duplicate divisor"):
            parse_function_text("4 even\n1 1\n2 2\n2 3\n")
        with pytest.raises(FormatError, match="missing divisors"):
            parse_function_text("4 even\n1 1\n2 2\n")
        with pytest.raises(FormatError, match="does not divide"):
            parse_function_text("4 even\n1 1\n2 2\n3 0\n4 4\n")
        with pytest.raises(FormatError):
            parse_function_text("4 periodic\n1\n2\n3\n")  # wrong count
        with pytest.raises(FormatError):
            parse_function_text("")


TEXT_ERRORS = {
    "non-divisor": ("4 even\n1 1\n2 2\n3 0\n4 4\n", 4, "3 does not divide 4"),
    "duplicate": ("4 even\n1 1\n# comment\n\n2 2\n2 3\n4 4\n", 6, "duplicate divisor 2"),
    "missing": ("# header follows\n4 even\n4 4\n1 1\n", 2, "missing divisors [2]"),
    "wrong count": ("\n3 periodic\n1\n2\n", 2, "expected 3 values, found 2"),
    "modulus spelling": ("1_2 even\n", 1, "bad modulus '1_2'"),
    "divisor spelling": ("4 even\n1 1\n2 2\n\uff14 4\n", 4, "bad divisor '\uff14'"),
    "value spelling": ("2 periodic\n1\n1_0\n", 3, "bad value '1_0'"),
    "long value": (f"2 periodic\n1\n{LONG}\n", 3, "integer of 5000 digits exceeds"),
    "long divisor": (f"1 even\n{LONG} 1\n", 2, "integer of 5000 digits exceeds"),
    "long modulus": (f"{LONG} even\n1 1\n", 1, "integer of 5000 digits exceeds"),
    "long fraction": (f"2 periodic\n1\n1/{LONG}\n", 3, "integer of 5000 digits exceeds the"),
    "long garbage": (f"2 periodic\n1\nx{LONG}\n", 3, "bad value 'x777"),
    "long non-finite": (f"2 periodic\n1\n{LONG}.5\n", 3, "non-finite value '777"),
    "long bad modulus": (f"x{LONG} even\n1 1\n", 1, "bad modulus 'x777"),
}


@pytest.mark.parametrize("case", sorted(TEXT_ERRORS))
def test_text_errors_name_their_line(case):
    text, line, message = TEXT_ERRORS[case]
    with pytest.raises(FormatError) as info:
        parse_function_text(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {message}")
    assert len(str(info.value)) < MESSAGE_MAX


def _json(representation, values):
    return json.dumps({"modulus": 4, "representation": representation, "values": values})


def _pairs(*divisors):
    return [{"divisor": d, "value": 1} for d in divisors]


JSON_ERRORS = {
    "non-divisor": (_json("even", _pairs(1, 3, 2, 4)), "values[1].divisor", "3 does not divide 4"),
    "duplicate": (_json("even", _pairs(1, 2, 4, 2)), "values[3].divisor", "duplicate divisor 2"),
    "missing": (_json("even", _pairs(4, 1)), "values", "missing divisors [2]"),
    "wrong count": (_json("periodic", [1, 2, 3]), "values", "expected 4 values, found 3"),
    "value spelling": (_json("periodic", [1, 2, "1_0", 4]), "values[2]", "bad value '1_0'"),
    # json.dumps cannot write LONG either, so it is spliced into the text.
    "long value": (
        _json("periodic", [1, 2, "LONG", 4]).replace('"LONG"', LONG),
        "values[2]",
        "integer of 5000 digits exceeds",
    ),
    "long divisor": (
        _json("even", [{"divisor": "LONG", "value": 1}]).replace('"LONG"', LONG),
        "values[0].divisor",
        "expected an integer",
    ),
    "long fraction": (_json("periodic", [1, f"1/{LONG}", 3, 4]), "values[1]", "integer of 5000"),
    "long garbage": (_json("periodic", [1, 2, 3, f"x{LONG}"]), "values[3]", "bad value 'x777"),
    "long non-finite": (_json("periodic", [f"{LONG}.5", 2, 3, 4]), "values[0]", "non-finite"),
}


@pytest.mark.parametrize("case", sorted(JSON_ERRORS))
def test_json_errors_name_their_field(case):
    text, field, message = JSON_ERRORS[case]
    with pytest.raises(FormatError) as info:
        parse_function_json(text)
    assert str(info.value).startswith(f"field {field}: {message}")
    assert len(str(info.value)) < MESSAGE_MAX


class TestJsonParsing:
    def test_periodic_numbers_and_strings(self):
        f = parse_function_json(
            '{"modulus": 3, "representation": "periodic", "values": [1, "1/2", 0.25]}'
        )
        assert f == ResidueFunction(3, (1, Fraction(1, 2), 0.25))

    def test_even_fixture(self):
        f = load_function(FIXTURES / "gcd4.json")
        assert f == EvenFunction(4, {1: 1, 2: 2, 4: 4})

    def test_errors_name_fields(self):
        with pytest.raises(FormatError, match="modulus"):
            parse_function_json('{"modulus": 0, "representation": "even", "values": []}')
        with pytest.raises(FormatError, match="representation"):
            parse_function_json('{"modulus": 2, "representation": "ring", "values": []}')
        with pytest.raises(FormatError, match=r"values\[1\]"):
            parse_function_json(
                '{"modulus": 2, "representation": "periodic", "values": [1, "x"]}'
            )
        with pytest.raises(FormatError, match="missing field"):
            parse_function_json('{"modulus": 2, "values": []}')
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_function_json("{")

    def test_non_finite_numbers(self):
        for number in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(FormatError, match=r"values\[1\]: non-finite"):
                parse_function_json(
                    '{"modulus": 2, "representation": "periodic", "values": [1, %s]}'
                    % number
                )


def test_non_utf8_file_names_its_line(tmp_path):
    for name in ("latin1.txt", "latin1.json"):
        path = tmp_path / name
        path.write_bytes(b"2 periodic\n1\n\xff\xfe\n")
        with pytest.raises(FormatError) as info:
            load_function(path)
        assert info.value.line == 3
        assert str(info.value) == "line 3: not UTF-8 text at byte offset 13"


class TestFormatClosure:
    def test_text_roundtrip(self):
        objects = [
            ResidueFunction(3, (1, Fraction(1, 2), -4)),
            EvenFunction(6, {1: Fraction(1, 3), 2: Fraction(-2, 5), 3: 7, 6: 0}),
            ResidueFunction(2, (0.5, 1.25 + 2j)),
        ]
        for obj in objects:
            assert parse_function_text(format_function(obj)) == obj

    def test_json_roundtrip(self):
        objects = [
            ResidueFunction(3, (1, Fraction(1, 2), -4)),
            EvenFunction(4, {1: 1, 2: Fraction(2, 7), 4: 4}),
        ]
        for obj in objects:
            assert parse_function_json(format_function(obj, "json")) == obj

    def test_spectra_serialize_under_matching_representation(self):
        periodic = format_function(PeriodicSpectrum(2, (1 + 0j, 0j)))
        assert periodic.startswith("2 periodic\n")
        even = format_function(EvenSpectrum(4, {1: 8, 2: 4, 4: 2}))
        assert even == "4 even\n1 8\n2 4\n4 2\n"

    def test_long_integers_are_refused_at_their_position(self):
        huge = 10**5000
        cases = [
            (ResidueFunction(3, (1, huge, 2)), "at index 2"),
            (EvenFunction(4, {1: 1, 2: Fraction(1, huge), 4: 4}), "at divisor 2"),
            (EvenSpectrum(4, {1: huge, 2: 4, 4: 2}), "at divisor 1"),
        ]
        for obj, where in cases:
            for fmt in ("text", "json"):
                with pytest.raises(FormatError) as info:
                    format_function(obj, fmt)
                assert str(info.value).startswith(f"cannot write value {where}: ")

    def test_fixture_files_are_canonical(self):
        for name in ("gcd4.txt", "const4.txt", "rational6.txt"):
            text = (FIXTURES / name).read_text()
            assert format_function(parse_function_text(text)) == text

    def test_rational_identity_transform_roundtrip(self):
        # Parse, run the transform pair, and print: canonical text returns.
        text = (FIXTURES / "rational6.txt").read_text()
        f = parse_function_text(text)
        back = irft(rft_divisor_form(f))
        assert format_function(back) == text
