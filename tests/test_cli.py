"""Command-line surface: subcommands, exit codes, golden-file stability."""

import json

import pytest

from coamoeba import serialize as io
from coamoeba.catalog import sixline_a, sixline_b, sixline_discriminant
from coamoeba.cli import main
from coamoeba.polynomial import write_polynomial_file


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
    data = json.loads(open(out).read())
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
