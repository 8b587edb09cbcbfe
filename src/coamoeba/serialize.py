"""JSON/CSV serialization shared by the library surface and the CLI.

Configurations travel as {"role": "A"|"B", "matrix": [["1", ...], ...],
"labels": [...]} with entries as decimal strings (arbitrary precision).
An entry read is a JSON integer or a string of the ASCII digits 0-9 with an
optional leading minus; anything else (a float, a boolean, "+1", " 1",
"1_0", a non-ASCII digit) is refused.
Angles are emitted twice: as IEEE doubles in radians for plotting, and as
exact rational-multiple-of-pi strings like "3/4*pi" where exactness is
available.  All emitters sort keys and use fixed formatting so outputs are
byte-identical across runs.

It opens no input and writes no JSON file: ``load_config`` parses, and
``provenance`` hashes, the bytes that ``cli.main`` read, and ``cli.main``
writes the text of ``dump_json``.  The one file it opens is the CSV point
cloud that ``write_csv_cloud`` writes.

``dump_json`` writes exactly the bytes of ``json.dumps(payload, indent=2,
sort_keys=True)`` without the stdlib's pure-Python indenting encoder: strings
go through the C ``encode_basestring_ascii``, and the text of a list of
strings is built once per list object and depth.  A payload holding any
other type, or a non-string key, is handed to ``json.dumps`` whole, so its
bytes and errors are the stdlib's.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from . import intlinalg as la
from .configuration import PointConfiguration, VectorConfiguration
from .cycles import CoamoebaCycle, Polygon, Prism
from .errors import InputError


def pi_string(value: Fraction) -> str:
    """Exact angle as a rational multiple of pi: "0", "pi", "-3/4*pi", "2*pi"."""
    value = Fraction(value)
    if value == 0:
        return "0"
    num, den = value.numerator, value.denominator
    if den == 1:
        return "pi" if num == 1 else ("-pi" if num == -1 else f"{num}*pi")
    return f"{num}/{den}*pi"


def parse_pi_string(text: str) -> Fraction:
    """Inverse of pi_string; also accepts bare rationals as multiples of pi.
    Spaces may stand at the ends and around "*" and "/", nowhere else."""
    text = re.sub(r"\s*([*/])\s*", r"\1", text.strip())
    if text in ("pi", "+pi", "-pi"):
        return Fraction(text.replace("pi", "1"))
    return Fraction(text.removesuffix("*pi"))


def angle_json(value: Fraction) -> dict:
    return {"radians": float(value) * math.pi, "exact": pi_string(value)}


def matrices_to_json(m) -> list[list[str]]:
    """Arbitrary-precision-safe JSON form: decimal strings."""
    return [[str(int(x)) for x in row] for row in m]


def polygon_json(poly: Polygon) -> dict:
    return {
        "vertices": [[angle_json(x), angle_json(y)] for x, y in poly.vertices],
        "area_pi2": str(poly.area()),
        "simple": poly.is_simple(),
    }


def cycle_json(cycle: CoamoebaCycle) -> dict:
    return {
        "zonotope": polygon_json(cycle.zonotope),
        "plus": polygon_json(cycle.plus),
        "minus": polygon_json(cycle.minus),
        "degree": cycle.degree,
        "arg_shift": [pi_string(Fraction(s)) for s in cycle.arg_shift_pi],
        "simple_boundary": cycle.simple_boundary,
    }


def prism_json(prism: Prism, labels) -> dict:
    return {
        "hyperplane": sorted(labels[i] for i in prism.hyperplane_flat.forms),
        "projection": matrices_to_json(prism.projection),
        "base": cycle_json(prism.base),
    }


def config_to_json(config) -> dict:
    role = "A" if isinstance(config, PointConfiguration) else "B"
    return {
        "role": role,
        "matrix": matrices_to_json(config.matrix),
        "labels": list(config.labels),
    }


def _entry(x) -> int:
    """A matrix entry: a JSON integer, or a string of ASCII digits with an
    optional leading minus."""
    if type(x) is int or type(x) is str and x.isascii() and x.removeprefix("-").isdigit():
        return int(x)
    raise InputError(f"matrix entry {x!r} is not a decimal integer")


def config_from_json(data):
    try:
        role = data["role"]
        kind = {"A": PointConfiguration, "B": VectorConfiguration}.get(role)
        if kind is None:
            raise InputError(f"unknown configuration role {role!r}")
        labels = tuple(str(x) for x in data["labels"])
        if repeated := sorted({x for i, x in enumerate(labels) if x in labels[:i]}):
            raise InputError(f"labels must be distinct, repeated: {', '.join(repeated)}")
        if type(data["matrix"]) is not list or any(type(r) is not list for r in data["matrix"]):
            raise InputError("the matrix must be a list of rows, each a list of entries")
        return kind(la.as_matrix([map(_entry, row) for row in data["matrix"]]), labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed configuration JSON: {exc}") from exc


def load_config(data: bytes, source) -> PointConfiguration | VectorConfiguration:
    """The configuration in the UTF-8 JSON ``data``, read from ``source``."""
    try:
        parsed = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"{source} is not valid JSON: {exc}") from exc
    return config_from_json(parsed)


def provenance(version: str, inputs: dict[str, bytes], parameters: dict) -> dict:
    """The version, the SHA-256 of each input's bytes, and the parameters."""
    return {
        "version": version,
        "input_sha256": {name: hashlib.sha256(data).hexdigest() for name, data in inputs.items()},
        "parameters": parameters,
    }


_ESCAPE = json.encoder.encode_basestring_ascii


class _Unhandled(Exception):
    """The payload holds a value that only ``json.dumps`` writes."""


def _json_text(value, indent: str, memo: dict) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at ``indent``."""
    kind = type(value)
    if kind is str:
        return _ESCAPE(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        key = (id(value), indent)
        text = memo.get(key)
        if text is not None:
            return text
        if all(type(x) is str for x in value):
            memo[key] = text = _block("[]", map(_ESCAPE, value), indent)
            return text
        inner = indent + "  "
        return _block("[]", [_json_text(x, inner, memo) for x in value], indent)
    if kind is dict:
        if not value:
            return "{}"
        if any(type(k) is not str for k in value):
            raise _Unhandled
        inner = indent + "  "
        items = [f"{_ESCAPE(k)}: {_json_text(value[k], inner, memo)}" for k in sorted(value)]
        return _block("{}", items, indent)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise _Unhandled


def _block(brackets: str, items, indent: str) -> str:
    """``items`` one per line, two spaces right of ``indent``, inside ``brackets``."""
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def dump_json(payload: dict) -> str:
    try:
        return _json_text(payload, "", {}) + "\n"
    except (_Unhandled, RecursionError):  # a cycle recurses; json.dumps reports it as such
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_csv_cloud(path, points) -> None:
    """Point cloud as CSV with header theta1..thetad, radians."""
    d = points.shape[1] if len(points) else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"theta{i+1}" for i in range(d)) + "\n")
        for row in points:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
