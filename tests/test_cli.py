"""Command-line surface: subcommands, exit codes, golden-file stability."""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coamoeba import serialize as io
from coamoeba.catalog import plane_b, sixline_a, sixline_b, sixline_discriminant
from coamoeba.cli import build_parser, main
from oracles import write_polynomial_file


@pytest.fixture()
def paths(tmp_path):
    a_path = tmp_path / "a6.json"
    b_path = tmp_path / "b6.json"
    d_path = tmp_path / "d6.txt"
    a_path.write_text(io.dump_json(io.config_to_json(sixline_a())))
    b_path.write_text(io.dump_json(io.config_to_json(sixline_b())))
    write_polynomial_file(d_path, sixline_discriminant())
    return {"a": str(a_path), "b": str(b_path), "d": str(d_path), "dir": tmp_path}


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_gale_writes_dual(paths, capsys):
    out = str(paths["dir"] / "dual.json")
    assert main(["gale", paths["a"], "-o", out]) == 0
    data = json.loads(Path(out).read_text())
    assert data["matrix"] == io.config_to_json(sixline_b())["matrix"]
    assert "provenance" in data and data["provenance"]["version"]


def test_validate(paths, capsys):
    code, data = run_json(["validate", paths["a"]], capsys)
    assert code == 0
    assert data["spans"] is True and data["u"] == [1, 0, 0] and data["pyramid"] is False


def test_matroid_info(paths, capsys):
    code, data = run_json(["matroid-info", paths["b"]], capsys)
    assert code == 0
    assert data["rank"] == 3 and data["n_bases"] == 18
    assert len(data["flats_by_corank"]["1"]) == 6
    assert len(data["flats_by_corank"]["2"]) == 11
    assert len(data["flacets"]) == 8


def test_matroid_info_disconnected_has_null_flacets(capsys, tmp_path):
    from coamoeba.configuration import VectorConfiguration

    cfg = VectorConfiguration.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]])
    path = tmp_path / "split.json"
    path.write_text(io.dump_json(io.config_to_json(cfg)))
    code, data = run_json(["matroid-info", str(path)], capsys)
    assert code == 0
    assert data["connected"] is False and data["flacets"] is None
    assert data["n_bases"] == 4


def test_bergman_and_cones(paths, capsys):
    code, data = run_json(["bergman-rays", paths["b"]], capsys)
    assert code == 0 and len(data["rays"]) == 8
    code, data = run_json(["fine-cones", paths["b"]], capsys)
    assert code == 0 and data["n_maximal_cones"] == 15


def test_tdiscr_rays(paths, capsys):
    code, data = run_json(["tdiscr-rays", paths["b"]], capsys)
    assert code == 0
    dirs = {tuple(r["direction"]) for r in data["rays"]}
    assert (1, 0, 1) in dirs and (2, 3, 0) in dirs
    assert sum(1 for r in data["rays"] if r["type"] == "type2") == 1


def test_nondefective(paths, capsys):
    code, data = run_json(["nondefective", paths["b"]], capsys)
    assert code == 0 and data["nondefective"] is True


def test_psi_exact(paths, capsys):
    code, data = run_json(
        ["psi", paths["b"], "--point", "1,1,1", "--exact"], capsys
    )
    assert code == 0
    assert data["psi"] == ["3/25", "-9/5", "-1/25"]


def test_parser_keeps_no_state_between_calls(paths, capsys):
    code, data = run_json(["psi", paths["b"], "--point", "1,1,1", "--exact"], capsys)
    assert code == 0 and data["psi"] == ["3/25", "-9/5", "-1/25"]
    assert main(["psi", paths["b"], "--exact"]) == 64
    capsys.readouterr()
    code, data = run_json(["psi", paths["b"], "--point", "1,1,1"], capsys)
    assert code == 0
    assert data["provenance"]["parameters"]["exact"] is False
    assert all(isinstance(v, list) and len(v) == 2 for v in data["psi"])


def test_gauss(paths, capsys):
    code, data = run_json(
        ["gauss", paths["d"], "--point", "3/25,-9/5,-1/25"], capsys
    )
    assert code == 0
    assert data["gauss"] == ["1", "1", "1"]


def test_initial_form(paths, capsys):
    code, data = run_json(["initial-form", paths["d"], "-w", "1,0,1"], capsys)
    assert code == 0
    assert data["initial_form"] == "16*q^3*r^2 + 16*p^2*q^2 + 16*q^2*r^2 + 16*p^2*q"


def test_coamoeba2_and_member(paths, capsys, tmp_path):
    fh = tmp_path / "fh.json"
    from coamoeba.configuration import VectorConfiguration

    cfg = VectorConfiguration.from_rows([[3, 0], [0, 1], [-1, -2], [-2, 1]])
    fh.write_text(io.dump_json(io.config_to_json(cfg)))
    code, data = run_json(["coamoeba2", str(fh)], capsys)
    assert code == 0 and data["degree"] == 6
    assert data["plus"]["vertices"][0][0]["exact"] == "3*pi"

    code, data = run_json(["member", str(fh), "--theta", "pi,pi"], capsys)
    assert code == 0 and data["inside"] is True


def test_member_3d(paths, capsys):
    code, data = run_json(["member", paths["b"], "--theta", "pi,pi,pi"], capsys)
    assert code == 0 and data["inside"] is True and data["witness"]


def test_pls3(paths, capsys):
    code, data = run_json(["pls3", paths["b"]], capsys)
    assert code == 0 and data["n_prisms"] == 6


def test_sample_csv(paths, capsys, tmp_path):
    out = tmp_path / "cloud.csv"
    code = main(["sample", paths["b"], "-n", "10", "--seed", "4", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta1,theta2,theta3"
    assert len(lines) == 11


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("case", ["gauss_from_stdin", "sample_over_its_config"])
def test_input_sha256_is_of_the_bytes_parsed(case, tmp_path):
    # the digest once came from a second read of the path after the command ran:
    # empty for a pipe, and the CSV's when sample's -o overwrote the config
    if case == "gauss_from_stdin":
        parsed = b"x y\nx+y+1\n"
        name, argv = "poly", ["gauss", "/dev/stdin", "--point", "1,2"]
    else:
        config = tmp_path / "plane.json"
        config.write_text(io.dump_json(io.config_to_json(plane_b())))
        parsed = config.read_bytes()
        name, argv = "config", ["sample", str(config), "-n", "3", "-o", str(config)]
    run = subprocess.run(
        [sys.executable, "-m", "coamoeba.cli", *argv],
        input=parsed,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        check=True,
        timeout=120,
    )
    digests = json.loads(run.stdout)["provenance"]["input_sha256"]
    assert digests == {name: hashlib.sha256(parsed).hexdigest()}


def test_unknown_subcommand_exits_64(capsys):
    assert main(["bogus"]) == 64


def test_missing_file_exits_2(capsys):
    assert main(["matroid-info", "/nonexistent/b.json"]) == 2
    capsys.readouterr()


def test_invalid_input_exits_2(paths, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # columns span only an index-2 sublattice, so gale must refuse
    bad.write_text(
        io.dump_json(
            {"role": "A", "matrix": [["1", "1"], ["0", "2"]], "labels": ["a1", "a2"]}
        )
    )
    assert main(["gale", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["bergman-rays", "fine-cones", "tdiscr-rays"])
def test_disconnected_configuration_exits_2(command, capsys):
    # two parallel pairs: disconnected, so it has no Bergman fan or rays
    cross = Path(__file__).parent / "golden" / "inputs" / "cross_b.json"
    assert main([command, str(cross)]) == 2
    assert "connected" in capsys.readouterr().err


def test_golden_stability(paths, capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["matroid-info", paths["b"], "-o", str(out1)]) == 0
    assert main(["matroid-info", paths["b"], "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_member_3d_rejects_two_angles(paths, capsys):
    assert main(["member", paths["b"], "--theta", "1,2"]) == 2
    assert "expected 3 angles" in capsys.readouterr().err


def test_member_3d_rejects_five_angles(paths, capsys):
    assert main(["member", paths["b"], "--theta", "1,2,3,4,5"]) == 2
    assert "expected 3 angles" in capsys.readouterr().err


def test_bad_point_or_theta_exits_2(paths, capsys):
    assert main(["psi", paths["b"], "--point", "1,x", "--exact"]) == 2
    assert main(["psi", paths["b"], "--point", "1,2,x"]) == 2
    assert main(["member", paths["b"], "--theta", "1,x*pi,2"]) == 2
    assert main(["member", paths["b"], "--theta", "1/0,1,2"]) == 2
    assert main(["gauss", paths["d"], "--point", "1/0,1,1"]) == 2
    assert main(["psi", paths["b"], "--point", "1,2", "--exact"]) == 2
    assert main(["psi", paths["b"], "--point", "1,2"]) == 2
    assert main(["gauss", paths["d"], "--point", "1,2"]) == 2
    for point in ("nan,1,1", "inf,1,1"):
        assert main(["psi", paths["b"], "--point", point]) == 2
    for theta in ("1 2*pi,0,0", "1 2,0,0", "- pi,0,0", "+ pi,0,0"):  # a space inside a number
        assert main(["member", paths["b"], "--theta", theta]) == 2
    assert capsys.readouterr().out == ""


def test_signed_theta_and_point(capsys, tmp_path):
    plane = tmp_path / "plane_b.json"
    plane.write_text(io.dump_json(io.config_to_json(plane_b())))
    code, want = run_json(["member", str(plane), "--theta", "pi,0,0"], capsys)
    assert code == 0
    code, got = run_json(["member", str(plane), "--theta", "+pi,0,0"], capsys)
    assert code == 0 and got["inside"] == want["inside"]
    # a value that starts with "-" is joined to its option by "=", as README says
    assert main(["member", str(plane), "--theta=-pi,0,0"]) == 0
    assert main(["psi", str(plane), "--point=-1,2,3", "--exact"]) == 0
    assert main(["member", str(plane), "--theta", "-pi,0,0"]) == 64
    capsys.readouterr()


def test_member_3d_names_the_input_angles(paths, capsys, tmp_path):
    plane = tmp_path / "plane_b.json"
    plane.write_text(io.dump_json(io.config_to_json(plane_b())))
    cases = [
        # bare rationals are multiples of pi: 1e308 * pi is no float
        (paths["b"], "1e308,1e308,1e308", "angles must be finite, got (inf, inf, inf)"),
        (paths["b"], "1e400,0,0", "angles 1e400,0,0 overflow in radians"),
        (paths["b"], "nan,0,1", "angles must be finite, got (nan, 0.0, 1.0)"),
        (str(plane), "4e307,0,-4e307", "overflow in the chart of a prism"),
    ]
    for config, theta, message in cases:
        assert main(["member", config, "--theta", theta]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert message in err


@pytest.mark.parametrize("variables", ["p q", "p q r s"])
def test_verify_rejects_wrong_variable_count(paths, capsys, tmp_path, variables):
    poly = tmp_path / "poly.txt"
    poly.write_text(f"{variables}\n{variables.replace(' ', '*')} + 1\n")
    argv = ["verify", paths["b"], "--poly", str(poly), "-n", "3", "--samples", "5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert "point length must match the number of variables" in err


def test_repeated_variable_names_exit_2(paths, capsys, tmp_path):
    # both columns of "x x" once read the one name x: gauss printed ["1", "1"]
    poly, line = tmp_path / "repeated.txt", tmp_path / "line.json"
    poly.write_text("x x\nx+1\n")
    line.write_text(_config_text("B", [[1, 0], [0, 1], [-1, -1]]))
    for argv in (
        ["gauss", str(poly), "--point", "1,2"],
        ["initial-form", str(poly), "-w", "1,0"],
        ["verify", str(line), "--poly", str(poly), "-n", "3", "--samples", "5"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "repeated variable name 'x'" in err, argv


def test_psi_at_huge_and_tiny_points(paths, capsys):
    # psi is degree-0: 1e200 and 1e-200 times (1, 2, 3) have the image of (1, 2, 3)
    assert main(["psi", paths["b"], "--point", "1,2,3"]) == 0
    want = json.loads(capsys.readouterr().out)["psi"]
    for point in ("1e200,2e200,3e200", "1e-200,2e-200,3e-200"):
        assert main(["psi", paths["b"], "--point", point]) == 0
        got = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["psi"]
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert abs(complex(*a) - complex(*b)) <= 1e-12 * abs(complex(*b))


def test_bad_tol_exits_64(paths, capsys):
    for tol in ("nan", "inf", "-1"):
        assert main(["member", paths["b"], "--theta", "1,1,1", "--tol", tol]) == 64
        assert main(["verify", paths["b"], "-n", "1", "--tol", tol]) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '["role", "B"]',
        '{"role": "C", "matrix": [["1"]], "labels": ["b1"]}',
        '{"role": "B", "matrix": [["1", "0"], ["1"]], "labels": ["b1", "b2"]}',
        '{"role": "B", "matrix": [["1", "0"], ["0", "1"]], "labels": ["b1"]}',
    ],
)
def test_malformed_config_exits_2(text, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["matroid-info", str(bad)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "command, role, rows",
    [("matroid-info", "B", [[1, 0], [0, 1], [-1, -1]]), ("gale", "A", [[1, 1, 1], [0, 1, 2]])],
)
def test_repeated_labels_exit_2(command, role, rows, capsys, tmp_path):
    # the flacets of B would list ["a"] twice, and no reader could tell them apart
    bad = tmp_path / "repeated.json"
    bad.write_text(_config_text(role, rows, labels=["a", "a", "c"]))
    assert main([command, str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "repeated: a" in err and "Traceback" not in err


# -- fuzz: malformed inputs never escape as tracebacks ------------------------------


def _config_text(role, rows, labels=None):
    if labels is None:
        count = len(rows[0]) if role == "A" and rows else len(rows)
        labels = [f"v{i + 1}" for i in range(count)]
    matrix = [[str(x) for x in row] for row in rows]
    return json.dumps({"role": role, "matrix": matrix, "labels": labels})


MALFORMED_CONFIGS = {
    "empty_file": "",
    "not_json": "{oops",
    "json_list": "[1, 2]",
    "json_null": "null",
    "no_matrix": '{"role": "B", "labels": []}',
    "float_entries": '{"role": "B", "matrix": [["1.5"], ["-1.5"]], "labels": ["a", "b"]}',
    "nested_entries": '{"role": "B", "matrix": [[[1], 0], [0, 1]], "labels": ["a", "b"]}',
    "labels_not_list": '{"role": "B", "matrix": [["1"], ["-1"]], "labels": 3}',
    "empty_b": _config_text("B", []),
    "empty_rows": _config_text("B", [[], []]),
    "zero_row": _config_text("B", [[1, 0], [0, 0], [-1, 0]]),
    "nonzero_sum": _config_text("B", [[1, 0], [0, 1], [1, 1]]),
    "rank_deficient": _config_text("B", [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]),
    "d1": _config_text("B", [[1], [2], [-3]]),
    "single_zero": _config_text("B", [[0, 0]]),
    "parallel": _config_text("B", [[1, 0], [2, 0], [-3, 0], [0, 1], [0, -1]]),
    "defective_d3": _config_text(
        "B", [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    ),
    "d4": _config_text("B", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]]),
    "a_not_spanning": _config_text("A", [[1, 1], [0, 2]]),
    "a_one_point": _config_text("A", [[1]]),
    "a_zero": _config_text("A", [[0, 0], [0, 0]]),
    "a_for_b": _config_text("A", [[1, 1, 1], [0, 1, 2]]),
    "b_for_a": _config_text("B", [[1, 0], [0, 1], [-1, -1]]),
}

# every subcommand, with "{config}" standing for the malformed file
SUBCOMMANDS = {
    "gale": [],
    "validate": [],
    "matroid-info": [],
    "bergman-rays": [],
    "fine-cones": [],
    "tdiscr-rays": [],
    "nondefective": [],
    "psi": ["--point", "1,2,3"],
    "coamoeba2": [],
    "pls3": [],
    "member": ["--theta", "1,2,3"],
    "sample": ["-n", "3", "-o", "{dir}/cloud.csv"],
    "verify": ["-n", "3", "--samples", "5"],
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _exit_code(argv, capsys):
    """main's exit code; fails on any exception or traceback text, and on a
    successful run whose stdout is not strict JSON (no NaN or Infinity)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse --help prints text, not JSON
        code, out_is_json = exc.code, False
    else:
        out_is_json = code == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err, (argv, err)
    if out_is_json:
        json.loads(out, parse_constant=_reject_constant)
    return code


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS) + ["gauss", "initial-form"])
def test_fuzz_malformed_files(command, capsys, tmp_path):
    files = {"missing": str(tmp_path / "missing.json")}
    for name, text in MALFORMED_CONFIGS.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    files["binary"] = str(tmp_path / "binary.json")
    if command in SUBCOMMANDS:
        extra = [a.replace("{dir}", str(tmp_path)) for a in SUBCOMMANDS[command]]
        argvs = [[command, path, *extra] for path in files.values()]
    else:  # polynomial-file commands: every file above is a malformed polynomial
        option = ["--point", "1,2"] if command == "gauss" else ["-w", "1,0"]
        argvs = [[command, path, *option] for path in files.values()]
    for argv in argvs:
        assert _exit_code(argv, capsys) in (0, 2, 64), argv


MALFORMED_POLYS = [
    "", "x y\n", "x y\nx++*y)\n", "x y\nx+z\n", "x y\nx^(1/2)+y\n", "x x\nx+1\n",
    "x y\nx + 1/0*y\n",
]


def test_fuzz_malformed_options(paths, capsys, tmp_path):
    line, plane = tmp_path / "line.json", tmp_path / "plane.json"
    line.write_text(_config_text("B", [[1, 0], [0, 1], [-1, -1]]))
    plane.write_text(_config_text("B", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]))
    poly2 = tmp_path / "poly2.txt"
    poly2.write_text("x y\nx+y+1\n")
    line, plane, poly2, b6 = str(line), str(plane), str(poly2), paths["b"]
    argvs = [
        [], ["--help"], ["bogus"], ["gale"], ["member", plane], ["psi", plane],
        ["psi", plane, "--point", ""], ["psi", plane, "--point", "0,0,0", "--exact"],
        ["psi", plane, "--point", "nan,1,1"], ["psi", plane, "--point", "1,,2"],
        ["psi", plane, "--point", "inf,1,1"], ["psi", plane, "--point", "1e308,1e308,1e308"],
        ["psi", b6, "--point", "1e200,2e200,3e200"], ["psi", b6, "--point", "1e-200,2e-200,3e-200"],
        ["gauss", poly2, "--point", "0,0"], ["gauss", poly2, "--point", "1e400,1"],
        ["initial-form", poly2, "-w", ""], ["initial-form", poly2, "-w", "1"],
        ["initial-form", poly2, "-w", "1,2,3"], ["initial-form", poly2, "-w", "nan,1"],
        ["member", plane, "--theta", ""], ["member", plane, "--theta", "nan,1,1"],
        ["member", plane, "--theta", "inf,1,1"], ["member", plane, "--theta", "1e308,1e308,1e308"],
        ["member", line, "--theta", "nan,1"], ["member", line, "--theta", "inf,1"],
        ["member", line, "--theta", "1/0*pi,1"], ["member", plane, "--theta", "1,1,1", "--tol", "x"],
        ["member", plane, "--theta", "1,1,1", "--tol", "nan"],
        ["member", line, "--theta", "1,1", "--tol", "inf"],
        ["member", line, "--theta", "1,1", "--tol", "-1e-9"],
        ["verify", plane, "-n", "3", "--samples", "5", "--tol", "nan"],
        ["verify", plane, "-n", "3", "--samples", "5", "--tol", "-inf"],
        ["sample", plane, "-n", "-5", "-o", f"{tmp_path}/c.csv"], ["sample", plane, "-n", "1.5"],
        ["sample", plane, "-n", "3"], ["sample", plane, "-n", "3", "-o", str(tmp_path)],
        ["sample", plane, "-n", "3", "--seed", "-1", "-o", f"{tmp_path}/c.csv"],
        ["gale", paths["a"], "-o", str(tmp_path)],
        ["gale", paths["a"], "-o", f"{tmp_path}/missing/dir.json"],
        ["verify", b6, "-n", "-3"], ["verify", plane, "--samples", "-5"],
        ["verify", plane, "--seed", "-1"], ["verify", plane, "-n", "x"],
    ]
    for i, text in enumerate(MALFORMED_POLYS):
        poly = tmp_path / f"bad{i}.txt"
        poly.write_text(text)
        argvs.append(["gauss", str(poly), "--point", "1,2"])
        argvs.append(["initial-form", str(poly), "-w", "1,0"])
        argvs.append(["verify", plane, "--poly", str(poly), "-n", "3", "--samples", "5"])
    for argv in argvs:
        assert _exit_code(argv, capsys) in (0, 2, 64), argv


# -- refusals: entry syntax, polynomial numbers and size bounds exit 2 --------------


class _CallTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise _CallTimeout in this thread once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise _CallTimeout(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


BIG = 10**30
# psi's exponents are B's entries: (10^4 + 5)^(10^4) passes the 4300-digit str limit
SPIKE4 = [[10**4, 0, 0], [0, 1, 0], [0, 0, 1], [-(10**4), -1, -1]]
# shells about 10^30 pi wide, so a window spans ~10^30 translates
WIDE = [[1, 0], [0, 1], [-BIG, 1], [BIG - 1, -2]]
# a shell 10^17 pi long and under 2 pi high: a window of ~10^17 x-translates
# by none in y still makes a tuple of the x-range
LONG = [[-3, -1], [-3, 0], [-97518173814199982, 0], [97518173814199988, 1]]
DIGITS = "7" * 5000  # past Python's 4300-digit limit on reading an int
NINES = "9" * 4200  # under it, and under the 14000-bit bound
POINT, WEIGHT, THETA = ["--point", "2,1"], ["-w", "0,1"], ["--theta"]
SAMPLES = ["--samples", "10"]
# entries past the float range (about 1.8e308), in the plane and in space
HUGE = 10**400
HUGE2 = [[1, 0], [0, 1], [-HUGE, 1], [HUGE - 1, -2]]
HUGE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-HUGE, 1, 0], [HUGE - 1, -2, -1]]
# entries that are floats, but the cycle's vertices in radians are not
RADIANS2 = [[1, 0], [0, 1], [-5 * 10**307, 1], [5 * 10**307 - 1, -2]]
FLOATS = "float range"

# (command, configuration rows, polynomial file, options, text the error names)
REFUSED = {
    "psi_exponents": ("psi", SPIKE4, None, ["--point", "1,2,3", "--exact"], "14000"),
    "member_exact_window": ("member", WIDE, None, THETA + ["0,0"], "100000"),
    "member_pi_window": ("member", WIDE, None, THETA + ["1/3*pi,0"], "100000"),
    "member_float_window": ("member", WIDE, None, THETA + ["0.5,0.25"], "100000"),
    "member_long_window": ("member", LONG, None, THETA + ["8/5*pi,4/5*pi"], "100000"),
    "gauss_x20000": ("gauss", None, "x y\nx^20000 + y\n", POINT, "14000"),
    "verify_residue": ("verify", "sixline", f"p q r\n{NINES}*p^400*q + 1\n", SAMPLES, "14000"),
    "gauss_digits": ("gauss", None, f"x y\n{DIGITS}*x + y\n", POINT, "digits"),
    "gauss_exponent_digits": ("gauss", None, f"x y\nx^{DIGITS} + y\n", POINT, "digits"),
    "initial_form_digits": ("initial-form", None, f"x y\nx + 1/{DIGITS}\n", WEIGHT, "digits"),
    "initial_form_square": ("initial-form", None, f"x y\n{NINES}*{NINES}*x + y\n", WEIGHT, "14000"),
    "verify_digits": ("verify", "sixline", f"p q r\n{DIGITS}*p + 1\n", SAMPLES, "digits"),
    "gauss_arabic_indic_digit": ("gauss", None, "x y\n٣x + y\n", POINT, "'٣'"),
    "coamoeba2_floats": ("coamoeba2", HUGE2, None, [], FLOATS),
    "coamoeba2_radians": ("coamoeba2", RADIANS2, None, [], FLOATS),
    "member_pi_floats": ("member", HUGE2, None, THETA + ["1/3*pi,0"], FLOATS),
    "member_float_floats": ("member", HUGE2, None, THETA + ["0.4,2.9"], FLOATS),
    "pls3_floats": ("pls3", HUGE3, None, [], FLOATS),
    "member3_floats": ("member", HUGE3, None, THETA + ["pi,0,0"], FLOATS),
    "verify_floats": ("verify", HUGE3, None, ["-n", "5", "--samples", "10"], FLOATS),
    "sample_floats": ("sample", HUGE3, None, ["-n", "5", "-o", os.devnull], FLOATS),
    "psi_floats": ("psi", HUGE3, None, ["--point", "1,2,3"], FLOATS),
}
# reproducers run only in the fuzz test, after the cases above: without the
# size bounds psi never returns on the first and verify builds a 20001-power
# table per grid point on the second
SPIKE30 = [[BIG, 0, 0], [0, 1, 0], [0, 0, 1], [-BIG, -1, -1]]
FOUND = [
    ("psi", SPIKE30, None, ["--point", "1,2,3", "--exact"]),
    ("verify", "sixline", "p q r\np^20000*q + 1\n", SAMPLES),
]


def _refusal_argv(tmp_path, command, rows, poly, options):
    config = tmp_path / "b.json"
    if rows == "sixline":
        config.write_text(io.dump_json(io.config_to_json(sixline_b())))
    elif rows is not None:
        config.write_text(_config_text("B", rows))
    if poly is None:
        return [command, str(config), *options]
    (tmp_path / "f.txt").write_text(poly)
    if command == "verify":
        return [command, str(config), "--poly", str(tmp_path / "f.txt"), *options]
    return [command, str(tmp_path / "f.txt"), *options]


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_size_and_digit_refusals_exit_2(case, capsys, tmp_path):
    command, rows, poly, options, named = REFUSED[case]
    argv = _refusal_argv(tmp_path, command, rows, poly, options)
    with deadline(10):
        assert _exit_code(argv, capsys) == 2
    main(argv)
    assert named in capsys.readouterr().err


def test_entries_past_the_float_range_leave_exact_commands_alone(capsys, tmp_path):
    # tdiscr-rays reads B exactly, and psi --exact meets its bit bound first
    argv = _refusal_argv(tmp_path, "tdiscr-rays", HUGE3, None, [])
    assert _exit_code(argv, capsys) == 0
    argv = _refusal_argv(tmp_path, "psi", HUGE3, None, ["--point", "1,2,3", "--exact"])
    assert _exit_code(argv, capsys) == 2
    main(argv)
    assert "14000" in capsys.readouterr().err


@pytest.mark.parametrize("power", [400, 4299])
def test_psi_exact_refusal_is_one_short_line(power, capsys, tmp_path):
    # psi's bit estimate is stated by its bit length: at 10^4299 the estimate
    # has more digits than Python converts to a string, at 10^400 about 400
    big = 10**power
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-big, 1, 0], [big - 1, -2, -1]]
    argv = _refusal_argv(tmp_path, "psi", rows, None, ["--point", "1,2,3", "--exact"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "14000" in err and len(err.splitlines()) == 1 and len(err) < 120, err


@pytest.mark.parametrize(
    "entry",[1.7, True, False, None, [1], "1_0", "٣", " -3", "-3 ", "+3", "1.0", "0x3", ""]
)
def test_entries_must_be_ascii_decimal(entry, capsys, tmp_path):
    path = tmp_path / "b.json"
    matrix = [[entry, "0"], ["0", "1"], ["-1", "-1"]]
    path.write_text(json.dumps({"role": "B", "matrix": matrix, "labels": ["a", "b", "c"]}))
    assert _exit_code(["matroid-info", str(path)], capsys) == 2
    for ok in (-3, "-3", "12"):  # JSON integers and signed ASCII digit strings are read
        matrix[0][0], matrix[2][0] = ok, str(-int(ok))
        path.write_text(json.dumps({"role": "B", "matrix": matrix, "labels": ["a", "b", "c"]}))
        assert _exit_code(["nondefective", str(path)], capsys) == 0


# -- generative fuzz: seeded random inputs to every subcommand -----------------------


def _fuzz_int(rng):
    """Mostly small, sometimes up to 30 digits, sometimes next to +-10^30."""
    r = rng.random()
    if r < 0.9:
        return rng.randint(-3, 3)
    if r < 0.96:
        return rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30))
    return rng.choice((-1, 1)) * BIG + rng.randint(-2, 2)


def _fuzz_config(rng, role, d):
    """Configuration JSON text: n <= 7, d <= 4, B rows mostly summing to zero,
    now and then a malformed entry, label list or role."""
    if rng.random() < 0.05:
        role = "A" if role == "B" else "B"
    n = rng.randint(min(d + 1, 7), 7) if rng.random() < 0.9 else rng.randint(1, 7)
    if role == "A":
        rows = [[1] * n] + [[_fuzz_int(rng) for _ in range(n)] for _ in range(d - 1)]
    else:
        rows = [[_fuzz_int(rng) for _ in range(d)] for _ in range(n)]
        if n > 1 and rng.random() < 0.9:
            rows[-1] = [-sum(col) for col in zip(*rows[:-1])]
    labels = [f"v{i}" for i in range(n)]
    matrix = [[x if rng.random() < 0.1 else str(x) for x in row] for row in rows]
    r = rng.random()
    if r < 0.04:
        matrix[0][0] = rng.choice([1.5, True, None, "1_0", "٣", " 1", "+1", "1e3", [0]])
    elif r < 0.06:
        labels = labels[:-1] if rng.random() < 0.5 else labels[:1] * len(labels)
    elif r < 0.07:
        role = rng.choice(["C", None, 3])
    return json.dumps({"role": role, "matrix": matrix, "labels": labels})


def _fuzz_number(rng, exact=True):
    r = rng.random()
    if r < 0.6:
        return str(rng.randint(-7, 7))
    if r < 0.85:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if r < 0.95:
        return str(_fuzz_int(rng))
    return rng.choice(["0", "1/0", "x", "1e400", "nan", "٣"] + ([] if exact else ["0.5"]))


def _fuzz_poly(rng, names):
    """Polynomial file text: a few terms with small, 20000 or 10^30 exponents
    and coefficients up to 40 digits."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        big, small = str(10 ** rng.randint(1, 40)), f"1/{abs(_fuzz_int(rng)) or 1}"
        coeff = rng.choice(["", "3", "2/7", big, small])
        powers = [
            f"{v}^{rng.choice([1, 1, 2, 3, 20000, BIG])}" for v in names if rng.random() < 0.6
        ]
        terms.append("*".join([c for c in [coeff] if c] + powers) or "1")
    return " ".join(names) + "\n" + rng.choice([" + ", " - "]).join(terms) + "\n"


# (role, dimensions) each subcommand reads
FUZZ_SHAPES = {
    "gale": ("A", (2, 3, 4)),
    "validate": ("A", (1, 2, 3, 4)),
    "coamoeba2": ("B", (2,)),
    "member": ("B", (2, 3)),
    "pls3": ("B", (3,)),
    "sample": ("B", (2, 3)),
    "verify": ("B", (2, 3)),
}


def _fuzz_argv(rng, tmp_path):
    """A random subcommand on random inputs, which it writes under tmp_path."""
    command = rng.choice(FUZZ_COMMANDS)
    role, dims = FUZZ_SHAPES.get(command, ("B", (1, 2, 3, 4)))
    d = rng.choice(dims)
    if rng.random() < 0.05:
        d = rng.randint(1, 4)
    config, poly = tmp_path / "config.json", tmp_path / "f.txt"
    config.write_text(_fuzz_config(rng, role, d))
    if command in ("gauss", "initial-form"):
        names = ["x", "y", "z", "w"][: rng.randint(1, 4)]
        poly.write_text(_fuzz_poly(rng, names))
        values = ",".join(_fuzz_number(rng) for _ in range(len(names) + (rng.random() < 0.05)))
        return [command, str(poly), f"{'--point' if command == 'gauss' else '-w'}={values}"]
    argv = [command, str(config)]
    if command == "psi":
        exact = rng.random() < 0.6
        point = ",".join(_fuzz_number(rng, exact) for _ in range(d + (rng.random() < 0.05)))
        argv += [f"--point={point}"] + (["--exact"] if exact else [])
    elif command == "member":
        theta = [
            f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}*pi"
            if rng.random() < 0.5
            else repr(rng.uniform(-4, 4))
            for _ in range(d)
        ]
        argv += [f"--theta={','.join(theta)}"]
    elif command == "sample":
        argv += ["-n", str(rng.randint(0, 20)), "--seed", str(rng.randint(0, 3))]
        argv += ["-o", str(tmp_path / "c.csv")]
    elif command == "verify":
        argv += ["-n", str(rng.randint(0, 8)), "--samples", str(rng.randint(0, 40))]
        if rng.random() < 0.5:
            poly.write_text(_fuzz_poly(rng, ["p", "q", "r"][:d]))
            argv += ["--poly", str(poly)]
    return argv


FUZZ_COMMANDS = sorted(SUBCOMMANDS) + ["gauss", "initial-form"]


def test_fuzz_generated_inputs(capsys, tmp_path):
    # every subcommand on seeded random inputs, after every refusal above: each
    # call answers within its deadline with exit 0, 2 or 64, no traceback, and
    # strict JSON on exit 0
    rng = random.Random(26)
    fixed = [REFUSED[case][:4] for case in sorted(REFUSED)] + FOUND
    cases = [functools.partial(_refusal_argv, tmp_path, *case) for case in fixed]
    cases += [functools.partial(_fuzz_argv, rng, tmp_path)] * 8000
    seen = Counter()
    for make in cases:
        argv = make()  # writes the inputs it names
        with deadline(5):
            code = _exit_code(argv, capsys)
        assert code in (0, 2, 64), argv
        seen[argv[0], code] += 1
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(FUZZ_COMMANDS)  # all 15
    assert all(seen[command, 0] and seen[command, 2] for command in FUZZ_COMMANDS), seen
