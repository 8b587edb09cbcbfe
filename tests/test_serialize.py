"""serialize.dump_json against the stdlib's json.dumps(indent=2, sort_keys=True)."""

import argparse
import json
import math
import random
from fractions import Fraction

import pytest

from coamoeba import cli
from coamoeba import serialize as io
from oracles import random_zero_sum_matroid

_PIECES = [
    "", "a", "b1", "é", "θ", "日本", "\U0001f600", '"', "\\", "/", "\t", "\n", "\r",
    "\b", "\f", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "\ufeff",
]
_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1, 1 / 3,
    -2.5, 1.7976931348623157e308, 123456789.0,
]
_INTS = [0, 1, -1, 2**31, -(2**63), 2**64, 10**40, -(10**40) - 7]


def _string(rng):
    text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 4)))
    if rng.random() < 0.2:
        text += chr(rng.randint(0, 0x10FFFF))
    return text


def _scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return rng.choice(_INTS) if rng.random() < 0.5 else rng.randint(-1000, 1000)
    if kind == 2:
        return rng.choice(_FLOATS) if rng.random() < 0.7 else rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return None
    return rng.choice([[], (), {}])


def _value(rng, depth, shared):
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return _scalar(rng)
    if roll < 0.45:
        return shared
    size = rng.randint(0, 5)
    if roll < 0.6:
        return [_string(rng) for _ in range(size)]  # the emitter's one-join case
    if roll < 0.8:
        items = [_value(rng, depth + 1, shared) for _ in range(size)]
        return items if rng.random() < 0.8 else tuple(items)
    return {_string(rng): _value(rng, depth + 1, shared) for _ in range(size)}


def _payload(rng):
    shared = [_string(rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        shared.append(rng.choice(_INTS))
    # the same list object at depths 1 and 3 at least, and maybe elsewhere
    payload = {
        "shared": shared,
        "nested": {"deeper": [shared, _value(rng, 2, shared)]},
        "rest": _value(rng, 0, shared),
    }
    roll = rng.random()
    if roll < 0.03:
        payload["rest"] = [Fraction(1, 3)]
    elif roll < 0.06:
        payload["nested"][7] = "int key beside str keys"
    elif roll < 0.09:
        payload = {3: shared, 1: [2.5, None]}  # int keys only: the stdlib writes them
    return payload


def _outcome(fn, payload):
    try:
        return fn(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _stdlib(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_dump_json_matches_stdlib_on_random_payloads():
    rng = random.Random(20261018)
    fallbacks = 0
    for _ in range(2500):
        payload = _payload(rng)
        want = _outcome(_stdlib, payload)
        assert _outcome(io.dump_json, payload) == want, payload
        fallbacks += isinstance(want, tuple)
    assert fallbacks > 0  # the TypeError path was exercised


@pytest.mark.parametrize(
    "payload",
    [
        {"x": Fraction(1, 2)},
        {1: "a", "b": 2},
        {True: 1, None: 2},
        {"f": [1.5, {"g": 2**70}]},
        {"e": [], "d": {}, "t": ()},
    ],
    ids=["fraction", "mixed-keys", "bool-none-keys", "nested-numbers", "empty"],
)
def test_dump_json_fallback_and_edge_cases(payload):
    assert _outcome(io.dump_json, payload) == _outcome(_stdlib, payload)


def test_dump_json_cycle_raises_like_stdlib():
    loop: list = ["a"]
    loop.append(loop)
    payload = {"loop": loop}
    assert _outcome(io.dump_json, payload) == _outcome(_stdlib, payload)


_LABELS = ["a", "é", 'q"']
_NUMBERS = [3, -1, 10**20]
_CONE = {"rays": _LABELS, "flags": [[_LABELS], []]}


@pytest.mark.parametrize(
    "payload",
    [
        {"top": _LABELS, "deep": {"x": [[_LABELS, [_LABELS]]]}, "mid": [_LABELS]},
        {"twice": [_LABELS, "b", _LABELS, [_LABELS, _LABELS]]},
        {"ints": [_NUMBERS, [_NUMBERS, 7], _NUMBERS], "more": _NUMBERS},
        {"t": (_LABELS, (), [], {}, ("x", (1, None))), "l": [(), [], {}, _LABELS]},
        {"cones": [_CONE, {"c": [_CONE, _CONE]}, _CONE], "n": 3},
    ],
    ids=["two-indents", "same-child-twice", "shared-ints", "tuples-and-empties", "dict-items"],
)
def test_dump_json_shares_texts_only_at_one_indent(payload):
    # the emitter keeps each list item's text per indent; a list object met
    # again must be written at its own indent
    assert io.dump_json(payload) == _stdlib(payload)


def test_dump_json_fine_cones_payload():
    rng = random.Random("serialize/n7d5")
    m = random_zero_sum_matroid(rng, 7, 5)
    while not m.is_connected():
        m = random_zero_sum_matroid(rng, 7, 5)
    data = io.dump_json(io.config_to_json(m.config)).encode()
    payload, _ = cli._cmd_fine_cones(argparse.Namespace(config="n7d5"), {"config": data})
    assert sum(len(cone["flags"]) for cone in payload["maximal_cones"]) > 100
    assert io.dump_json(payload) == _stdlib(payload)


def test_parse_pi_string_spaces():
    # spaces at the ends and around "*" and "/" are allowed, inside a number not
    assert io.parse_pi_string("3/4 * pi") == Fraction(3, 4)
    assert io.parse_pi_string(" -3/4*pi ") == Fraction(-3, 4)
    assert io.parse_pi_string("3 / 4") == Fraction(3, 4)
    # a sign leads "pi" as it leads a multiple of pi, with no space after it
    assert io.parse_pi_string("+pi") == io.parse_pi_string("pi") == 1
    assert io.parse_pi_string("+1/2*pi") == Fraction(1, 2)
    for text in ("1 2", "1 2*pi", "- pi", "- 3/4*pi", "+ pi", "++pi"):
        with pytest.raises(ValueError):
            io.parse_pi_string(text)
