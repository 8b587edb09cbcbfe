"""Command-line surface: subcommands, exit codes, golden-file stability."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coamoeba import serialize as io
from coamoeba.catalog import plane_b, sixline_a, sixline_b, sixline_discriminant
from coamoeba.cli import main
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
