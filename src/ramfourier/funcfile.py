"""Reading and writing function files.

Text form, one value per line:

    <modulus> <periodic|even>      header
    <value>                        periodic: r lines, residues 1..r
    <divisor> <value>              even: one line per divisor of r

Blank lines and '#' comments are ignored on input. Scalars are integers
("-3"), reduced fractions ("3/4"), decimal floats ("1.25", "2e-3"), or
complex values ("1.5+2j", trailing j, no spaces), written in ASCII
without '_' separators. A ".json" path is accepted on input with the
same fields:

    {"modulus": 4, "representation": "periodic", "values": [...]}

where even values are {"divisor": d, "value": v} objects and each value
is a number or a scalar string.

The readers check syntax; the value objects check that the values fit
the modulus. Every error names its line (text) or field (JSON), and
quotes a long token by its first characters and its length.

Writers emit canonical scalars: fractions reduced with positive
denominator, integers without "/1", floats as their shortest round-trip
text, complex as "<re>+<im>j" with each part likewise. Output parses
back to equal data, so files can be piped through repeated invocations.
Non-finite values (nan, inf, or a literal such as 1e400 that overflows)
are rejected on input, and on output too, so the writers never emit a
file the readers refuse.
"""

from __future__ import annotations

import cmath
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .errors import CapacityError, DomainError, FormatError, _int_text
from .even import EvenFunction
from .periodic import ResidueFunction, Scalar, _non_finite

__all__ = [
    "format_scalar",
    "parse_scalar",
    "parse_function_text",
    "parse_function_json",
    "load_function",
    "format_function",
]

_INT_RE = re.compile(r"[+-]?[0-9]+")

# Messages quote at most this many characters of an offending token.
_QUOTE_MAX = 40

_CLASSES = {"periodic": ResidueFunction, "even": EvenFunction}


def format_scalar(v: Scalar) -> str:
    """Canonical text for one scalar value."""
    if isinstance(v, int):
        return str(int(v))  # a bool as the int it equals, which parses back
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        imag = _complex_part(v.imag)
        return f"{_complex_part(v.real)}{'' if imag[0] == '-' else '+'}{imag}j"
    raise TypeError(f"unsupported scalar type {type(v).__name__}")


def _complex_part(x: float) -> str:
    # Shortest round-trip text without a trailing ".0", as repr(complex) does.
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


def _int(token: str) -> int:
    # int() refuses more digits than CPython's int-to-text limit.
    try:
        return int(token)
    except ValueError:
        digits, limit = len(token.lstrip("+-")), sys.get_int_max_str_digits()
        message = f"integer of {digits} digits exceeds the {limit}-digit limit"
        raise FormatError(message) from None


def _quote(token: str) -> str:
    """token quoted for a message; a long one as a prefix and its length."""
    if len(token) <= _QUOTE_MAX:
        return repr(token)
    return f"{token[:_QUOTE_MAX]!r}... ({len(token)} characters)"


def parse_scalar(token: str) -> Scalar:
    """Parse one scalar token: int, fraction, float, or complex."""
    token = token.strip()
    if not token:
        raise FormatError("empty value")
    # int(), float(), Fraction() and complex() also take '_' and non-ASCII digits.
    if "_" in token or not token.isascii():
        raise FormatError(f"bad value {_quote(token)}: numbers are ASCII without '_'")
    if _INT_RE.fullmatch(token):
        return _int(token)
    if "/" in token:
        num, _, den = token.partition("/")
        if not (_INT_RE.fullmatch(num) and den.isdigit()):
            raise FormatError(f"bad fraction {_quote(token)}")
        numerator, denominator = _int(num), _int(den)
        if not denominator:
            raise FormatError(f"bad fraction {_quote(token)}: zero denominator")
        return Fraction(numerator, denominator)
    if "j" in token or "J" in token:
        try:
            value = complex(token)
        except ValueError:
            raise FormatError(f"bad complex value {_quote(token)}") from None
    else:
        try:
            value = float(token)
        except ValueError:
            raise FormatError(f"bad value {_quote(token)}") from None
    if not cmath.isfinite(value):
        raise FormatError(f"non-finite value {_quote(token)}")
    return value


def _parse_header(fields: list[str]) -> tuple[int, str]:
    if len(fields) != 2:
        raise FormatError("header must be '<modulus> <periodic|even>'")
    if not _INT_RE.fullmatch(fields[0]):
        raise FormatError(f"bad modulus {_quote(fields[0])}")
    modulus = _int(fields[0])
    if modulus < 1:
        raise FormatError(f"modulus must be >= 1, got {_int_text(modulus)}")
    representation = fields[1].lower()
    if representation not in _CLASSES:
        raise FormatError(f"representation must be 'periodic' or 'even', got {_quote(fields[1])}")
    return modulus, representation


def parse_function_text(text: str) -> ResidueFunction | EvenFunction:
    """Parse the text form into a ResidueFunction or an EvenFunction."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append((lineno, line))
    if not entries:
        raise FormatError("missing header line")
    head_no = entries[0][0]
    items = []
    for lineno, line in entries:
        parts = line.split()
        try:
            if lineno == head_no:
                modulus, representation = _parse_header(parts)
            elif representation == "periodic":
                if len(parts) != 1:
                    raise FormatError("periodic lines hold a single value")
                items.append(parse_scalar(line))
            else:
                if len(parts) != 2:
                    raise FormatError("even lines are '<divisor> <value>'")
                if not _INT_RE.fullmatch(parts[0]):
                    raise FormatError(f"bad divisor {_quote(parts[0])}")
                items.append((_int(parts[0]), parse_scalar(parts[1])))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno) from None
    try:
        return _CLASSES[representation](modulus, items)
    except CapacityError as exc:  # a cap on the modulus
        raise FormatError(str(exc), line=head_no) from None
    except DomainError as exc:
        line = head_no if exc.index is None else entries[exc.index + 1][0]
        raise FormatError(str(exc), line=line) from None


def _json_scalar(v, where: str) -> Scalar:
    if isinstance(v, bool):
        raise FormatError(f"field {where}: booleans are not scalars")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        # json.loads yields nan and inf for NaN, Infinity and 1e400.
        if not cmath.isfinite(v):
            raise FormatError(f"field {where}: non-finite value {v!r}")
        return v
    if isinstance(v, str):
        try:
            return parse_scalar(v)
        except FormatError as exc:
            raise FormatError(f"field {where}: {exc}") from None
    raise FormatError(f"field {where}: expected a number or scalar string")


def _json_int(token: str) -> int | str:
    # Past the int-to-text limit the token stays a string, which the
    # field checks below then refuse under its field name.
    try:
        return int(token)
    except ValueError:
        return token


def parse_function_json(text: str) -> ResidueFunction | EvenFunction:
    """Parse the JSON mirror of the text form."""
    try:
        payload = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("top level must be an object")
    for field in ("modulus", "representation", "values"):
        if field not in payload:
            raise FormatError(f"missing field {field!r}")
    modulus = payload["modulus"]
    if isinstance(modulus, bool) or not isinstance(modulus, int) or modulus < 1:
        raise FormatError("field 'modulus' must be a positive integer")
    representation = payload["representation"]
    if representation not in ("periodic", "even"):
        raise FormatError("field 'representation' must be 'periodic' or 'even'")
    raw_values = payload["values"]
    if not isinstance(raw_values, list):
        raise FormatError("field 'values' must be an array")

    if representation == "periodic":
        items = [_json_scalar(v, f"values[{i}]") for i, v in enumerate(raw_values)]
    else:
        items = []
        for i, item in enumerate(raw_values):
            where = f"values[{i}]"
            if not isinstance(item, dict) or set(item) != {"divisor", "value"}:
                raise FormatError(f"field {where}: expected {{'divisor', 'value'}}")
            d = item["divisor"]
            if isinstance(d, bool) or not isinstance(d, int):
                raise FormatError(f"field {where}.divisor: expected an integer")
            items.append((d, _json_scalar(item["value"], f"{where}.value")))
    try:
        return _CLASSES[representation](modulus, items)
    except CapacityError as exc:  # a cap on the modulus
        raise FormatError(f"field modulus: {exc}") from None
    except DomainError as exc:
        where = "values" if exc.index is None else f"values[{exc.index}].divisor"
        raise FormatError(f"field {where}: {exc}") from None


def load_function(path: str | Path) -> ResidueFunction | EvenFunction:
    """Read a function file; '.json' selects the JSON parser."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8 text at byte offset {exc.start}", line=line) from None
    if path.suffix.lower() == ".json":
        return parse_function_json(text)
    return parse_function_text(text)


def _entries(obj) -> tuple[int, str, Iterable[int], Iterable[Scalar], list[str]]:
    """Modulus, representation, the keys (index or divisor), their values,
    and each value's text. The entries are a value object's last field,
    as `periodic._route` reads it: a tuple at residues 1..r, or a dict
    keyed by divisor. A value the readers could not take back raises
    FormatError naming its key."""
    if not hasattr(obj, "_label"):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    values = obj._fields()[-1]
    if isinstance(values, dict):
        representation, where, keys, values = "even", "divisor", values.keys(), values.values()
    else:
        representation, where, keys = "periodic", "index", range(1, obj.r + 1)
    return obj.r, representation, keys, values, [_cell(v, where, k) for k, v in zip(keys, values)]


def _json_payload(obj) -> dict:
    """The JSON form of a function or spectrum, before json.dumps."""
    r, representation, keys, values, cells = _entries(obj)
    # ints, floats and integral fractions are native JSON, and a bool goes
    # as the int it equals (JSON's true is no scalar); the rest go as text.
    values = [
        v.numerator if isinstance(v, (bool, Fraction)) and v.denominator == 1 else v
        for v in values
    ]
    items = [c if isinstance(v, (Fraction, complex)) else v for v, c in zip(values, cells)]
    if representation == "even":
        items = [{"divisor": d, "value": item} for d, item in zip(keys, items)]
    return {"modulus": r, "representation": representation, "values": items}


def format_function(obj, fmt: str = "text") -> str:
    """Serialize a function or spectrum in the file format.

    Spectra print under the representation of their index set: a
    PeriodicSpectrum as a periodic file (k = 1..r), an EvenSpectrum as
    an even file (one line per divisor). A non-finite float or complex
    value, or an integer past CPython's int-to-text limit, raises
    FormatError naming its index or divisor, because the readers could
    not take it back.
    """
    if fmt == "json":
        return json.dumps(_json_payload(obj), indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    r, representation, keys, _, cells = _entries(obj)
    if representation == "even":
        cells = [f"{d} {cell}" for d, cell in zip(keys, cells)]
    return "\n".join([f"{r} {representation}", *cells]) + "\n"


def _cell(v: Scalar, where: str, key: int) -> str:
    if _non_finite(v):
        raise FormatError(f"cannot write non-finite value {format_scalar(v)} at {where} {key}")
    try:
        return format_scalar(v)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"cannot write value at {where} {key}: over {limit} digits"
        raise FormatError(message) from None
