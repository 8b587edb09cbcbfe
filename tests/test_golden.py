"""Golden outputs: every subcommand's bytes on the catalog configurations.

Inputs live in ``tests/golden/inputs/`` and each case's stdout in
``tests/golden/<case>.json``; ``sample`` cases also pin their CSV cloud.
The comparison is byte for byte and ignores only ``provenance.version``.
The stdout of each script in ``demos/`` is pinned byte for byte in
``tests/golden/demos/<demo>.txt``.  After an intended output change,
regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io as stdio
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coamoeba import serialize as io
from coamoeba.catalog import (
    hyperplane_a,
    line_b,
    plane_b,
    sixline_a,
    sixline_b,
    sixline_discriminant,
)
from coamoeba.cli import main
from coamoeba.configuration import VectorConfiguration
from coamoeba.matroid import Matroid
from coamoeba.polynomial import SparsePoly, parse
from oracles import random_zero_sum_matroid, write_polynomial_file

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

CONFIGS = {
    "line_a": hyperplane_a(2),
    "plane_a": hyperplane_a(3),
    "sixline_a": sixline_a(),
    "line_b": line_b(),
    "plane_b": plane_b(),
    "sixline_b": sixline_b(),
    # the four-vector planar configuration of acceptance criterion 7
    "fourvec_b": VectorConfiguration.from_rows([[3, 0], [0, 1], [-1, -2], [-2, 1]]),
    # two parallel pairs: disconnected and defective
    "cross_b": VectorConfiguration.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]]),
    # connected, with labels that JSON must escape: non-ASCII, quote, backslash, tab
    "escaped_b": VectorConfiguration.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [-2, -2, -1]],
        labels=("é", "θ", 'say "hi"', "back\\slash", "tab\there"),
    ),
    # seeded random connected zero-sum configurations at the fan benchmark's
    # sizes: 62 flats at d = 4 and 100 flats at d = 5
    "n7d4_b": random_zero_sum_matroid(random.Random("n7d4/2"), 7, 4).config,
    "n7d5_b": random_zero_sum_matroid(random.Random("n7d5/0"), 7, 5).config,
    # a wider rung: 476 bases, 255 flats and 1132 complete flags, so the
    # matroid's ints over basis indices reach 1904 bits
    "n12d4_b": random_zero_sum_matroid(random.Random("n12d4/0"), 12, 4).config,
}


def _shift_leading(f: SparsePoly, delta: Fraction) -> SparsePoly:
    terms = dict(f.terms)
    terms[f.terms[0][0]] += delta
    return SparsePoly.from_dict(f.variables, terms)


POLYS = {
    "sixline_d": sixline_discriminant(),
    "plane_d": parse("x+y+z+1", ("x", "y", "z")),
    # a wrong discriminant with a rational coefficient: verify reports an erratum
    "sixline_wrong": _shift_leading(sixline_discriminant(), Fraction(1, 3)),
}

_B2 = ("line_b", "fourvec_b")
_B3 = ("plane_b", "sixline_b")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for a in ("line_a", "plane_a", "sixline_a"):
        cases[f"gale_{a}"] = ["gale", "{%s}" % a]
        cases[f"validate_{a}"] = ["validate", "{%s}" % a]
    for cmd in ("matroid-info", "bergman-rays", "fine-cones", "tdiscr-rays", "nondefective"):
        for b in _B2 + _B3:
            cases[f"{cmd}_{b}"] = [cmd, "{%s}" % b]
    for b in _B2:
        cases[f"coamoeba2_{b}"] = ["coamoeba2", "{%s}" % b]
        cases[f"member_{b}_exact"] = ["member", "{%s}" % b, "--theta", "1/3*pi,-1/2*pi"]
        cases[f"member_{b}_float"] = ["member", "{%s}" % b, "--theta", "0.4,2.9"]
    for b in _B3:
        cases[f"pls3_{b}"] = ["pls3", "{%s}" % b]
        cases[f"member_{b}"] = ["member", "{%s}" % b, "--theta", "pi,1/2*pi,-1/3*pi"]
        cases[f"psi_{b}_exact"] = ["psi", "{%s}" % b, "--point", "2,-3,5/7", "--exact"]
        cases[f"psi_{b}_complex"] = ["psi", "{%s}" % b, "--point", "1+2j,-0.5,3j"]
    for cmd in ("matroid-info", "nondefective"):
        cases[f"{cmd}_cross_b"] = [cmd, "{cross_b}"]
    for cmd in ("matroid-info", "fine-cones"):
        cases[f"{cmd}_escaped_b"] = [cmd, "{escaped_b}"]
    for cmd in ("matroid-info", "fine-cones", "tdiscr-rays", "nondefective"):
        for b in ("n7d4_b", "n7d5_b", "n12d4_b"):
            cases[f"{cmd}_{b}"] = [cmd, "{%s}" % b]
    cases["psi_line_b_exact"] = ["psi", "{line_b}", "--point", "3,-1/2", "--exact"]
    cases["gauss_sixline_d"] = ["gauss", "{sixline_d}", "--point", "3/25,-9/5,-1/25"]
    cases["initial-form_sixline_d_101"] = ["initial-form", "{sixline_d}", "-w", "1,0,1"]
    cases["initial-form_sixline_d_0m12"] = ["initial-form", "{sixline_d}", "-w", "0,-1,2"]
    # 2100 line samples cross the first sampling-chunk boundary
    for b, n in (("line_b", "2100"), ("sixline_b", "40")):
        cases[f"sample_{b}"] = [
            "sample", "{%s}" % b, "-n", n, "--seed", "4", "-o", f"sample_{b}.csv"
        ]
    cases["verify_sixline_b"] = [
        "verify", "{sixline_b}", "--poly", "{sixline_d}", "-n", "6", "--samples", "300",
        "--seed", "3",
    ]
    cases["verify_sixline_b_wrong"] = [
        "verify", "{sixline_b}", "--poly", "{sixline_wrong}", "-n", "6", "--samples", "300",
        "--seed", "3",
    ]
    # the verify benchmark's sizes: 100 grid points, 400 samples
    cases["verify_sixline_b_n100"] = [
        "verify", "{sixline_b}", "--poly", "{sixline_d}", "-n", "100", "--samples", "400",
        "--seed", "3",
    ]
    cases["verify_plane_b"] = [
        "verify", "{plane_b}", "--poly", "{plane_d}", "-n", "6", "--samples", "300"
    ]
    return cases


CASES = _cases()
_VERSION = re.compile(r'^(    "version": )".*"$', re.M)


def _mask_version(text: str) -> str:
    return _VERSION.sub(r'\1"*"', text)


def write_inputs() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, config in CONFIGS.items():
        (INPUTS / f"{name}.json").write_text(io.dump_json(io.config_to_json(config)))
    for name, poly in POLYS.items():
        write_polynomial_file(INPUTS / f"{name}.txt", poly)


def _input_path(name: str) -> str:
    suffix = ".txt" if name in POLYS else ".json"
    return str(INPUTS / f"{name}{suffix}")


def run_case(name: str) -> str:
    """Run one case in the current directory; return its stdout."""
    names = {key: _input_path(key) for key in (*CONFIGS, *POLYS)}
    argv = [arg.format(**names) for arg in CASES[name]]
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: exit {code}")
    return out.getvalue()


def _csv_name(name: str) -> str | None:
    argv = CASES[name]
    return argv[argv.index("-o") + 1] if "-o" in argv else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(name)
    want = (GOLDEN / f"{name}.json").read_text()
    assert _mask_version(got) == _mask_version(want)
    csv = _csv_name(name)
    if csv:
        assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()


def test_fine_cones_builds_no_bases(tmp_path, monkeypatch):
    # no payload reads a cone's max_bases, so fine-cones never builds them
    def refuse(self, bits):
        raise AssertionError("Matroid._bases_of called")

    monkeypatch.setattr(Matroid, "_bases_of", refuse)
    monkeypatch.chdir(tmp_path)
    got = run_case("fine-cones_n7d5_b")
    assert _mask_version(got) == _mask_version((GOLDEN / "fine-cones_n7d5_b.json").read_text())


def test_golden_files_match_cases():
    written = {p.stem for p in GOLDEN.glob("*.json")}
    assert written == set(CASES)


_JSON_FILES = sorted([*GOLDEN.glob("*.json"), *INPUTS.glob("*.json")])


@pytest.mark.parametrize("path", _JSON_FILES, ids=lambda p: p.relative_to(GOLDEN).as_posix())
def test_golden_is_stdlib_json(path):
    """Every golden is in the stdlib's format, whatever emitter wrote it."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def run_demo(script: Path) -> bytes:
    """A demo's stdout, run as its own process on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, check=True
    ).stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_output(script):
    assert run_demo(script) == (GOLDEN / "demos" / f"{script.stem}.txt").read_bytes()


def test_demo_goldens_match_demos():
    assert {p.stem for p in (GOLDEN / "demos").glob("*.txt")} == {p.stem for p in DEMOS}


def regenerate() -> None:
    write_inputs()
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    cwd = os.getcwd()
    os.chdir(GOLDEN)  # sample cases write their CSV next to the JSON
    try:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(run_case(name))
    finally:
        os.chdir(cwd)
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for script in DEMOS:
        (GOLDEN / "demos" / f"{script.stem}.txt").write_bytes(run_demo(script))


if __name__ == "__main__":
    regenerate()
    print(f"wrote {len(CASES)} golden outputs to {GOLDEN}", file=sys.stderr)
