"""Command-line driver: one subcommand per library capability.

``main`` alone opens input files and writes JSON.  It reads each input named
on the command line once, as bytes, and hands them to the subcommand; it then
writes the payload the subcommand returns, with a provenance block that
hashes those same bytes, to ``-o`` or to stdout (``sample``'s ``-o`` is its
CSV point cloud).  Exit codes: 0 success, 2 invalid input, 1 internal
invariant violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from . import __version__
from . import serialize as io
from .catalog import sixline_discriminant
from .configuration import PointConfiguration, VectorConfiguration, gale_dual, validate_a
from .cycles import build_cycle, contains2, contains2_exact, contains_pls3, prisms_d3
from .discriminant import (
    HornKapranovMap,
    log_gauss,
    nondefective,
    psi_complex,
    psi_exact,
    tdiscr_fan_d3,
    tdiscr_rays,
)
from .errors import InputError, InvariantError
from .harness import certify_discriminant, conjecture_experiment_d3, sample_coamoeba
from .matroid import Matroid
from .polynomial import format_poly, initial_form, read_polynomial_file
from .tropical import bergman_rays, maximal_cones

USAGE_EXIT = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_list(text: str, convert) -> tuple:
    """Comma-separated literals read by ``convert``; InputError if one fails."""
    try:
        return tuple(convert(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {text!r}: {exc}") from exc


def _parse_rationals(text: str) -> tuple[Fraction, ...]:
    return _parse_list(text, Fraction)


def _parse_angles(text: str):
    """Angles as exact multiples of pi ("a/b*pi" strings or bare rationals)
    when ``parse_pi_string`` reads every part, otherwise floats (radians)."""
    try:
        return _parse_list(text, io.parse_pi_string), True
    except InputError:
        return _parse_list(text, float), False


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load(args, inputs, kind):
    """The configuration read from ``args.config``; InputError unless it is a ``kind``."""
    config = io.load_config(inputs["config"], args.config)
    if not isinstance(config, kind):
        role = "an A (point)" if kind is PointConfiguration else "a B (vector)"
        raise InputError(f"expected {role} configuration")
    return config


def _matroid_from(args, inputs) -> Matroid:
    return Matroid(_load(args, inputs, VectorConfiguration))


def _count(text: str) -> int:
    """argparse type for sizes and seeds: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative float."""
    value = float(text)  # argparse reports a ValueError as a usage error
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _flat_labels(m: Matroid, flat) -> list[str]:
    return sorted(m.config.labels[i] for i in flat.forms)


def _labels_by_flat(m: Matroid) -> dict:
    """Every flat's sorted labels, one list per flat for the payload to share."""
    return {flat: _flat_labels(m, flat) for flat in m.flats()}


# -- subcommand implementations ---------------------------------------------------
# each takes the parsed arguments and the bytes of its inputs, and returns its
# JSON payload and the effective parameters for the provenance block


def _cmd_gale(args, inputs):
    config = _load(args, inputs, PointConfiguration)
    b = gale_dual(config)
    return io.config_to_json(b), {}


def _cmd_validate(args, inputs):
    config = _load(args, inputs, PointConfiguration)
    report = validate_a(config)
    payload = {
        "spans": report.spans,
        "u": list(report.u) if report.u is not None else None,
        "pyramid": report.pyramid,
    }
    return payload, {}


def _cmd_matroid_info(args, inputs):
    m = _matroid_from(args, inputs)
    labels = _labels_by_flat(m)
    by_corank = {str(k): [labels[f] for f in m.flats_of_corank(k)] for k in range(m.rank + 1)}
    payload = {
        "rank": m.rank,
        "n_bases": m.n_bases,
        "connected": m.is_connected(),
        "parallel_classes": by_corank["1"],  # the rank-one flats
        "flats_by_corank": by_corank,
        "flacets": [labels[f] for f in m.flacets()] if m.is_connected() else None,
    }
    return payload, {}


def _cmd_bergman_rays(args, inputs):
    m = _matroid_from(args, inputs)
    labels = _labels_by_flat(m)
    payload = {
        "rays": [
            {"flat": labels[flat], "indicator": [str(x) for x in w]}
            for flat, w in bergman_rays(m)
        ]
    }
    return payload, {}


def _cmd_fine_cones(args, inputs):
    m = _matroid_from(args, inputs)
    labels = _labels_by_flat(m)
    cones = []
    for cone in maximal_cones(m):
        cones.append(
            {
                "spanning_rays": [labels[f] for f in cone.spanning_flacets],
                "flags": [[labels[f] for f in flag.flats] for flag in cone.flags],
            }
        )
    payload = {"maximal_cones": cones, "n_maximal_cones": len(cones)}
    return payload, {}


def _cmd_tdiscr_rays(args, inputs):
    m = _matroid_from(args, inputs)
    rays = tdiscr_fan_d3(m) if m.config.d == 3 else tdiscr_rays(m)
    labels = _labels_by_flat(m)
    payload = {
        "rays": [
            {
                "direction": list(r.direction),
                "type": r.kind,
                "flat": labels[r.flat] if r.flat else None,
                "essential": r.essential,
            }
            for r in rays
        ]
    }
    return payload, {}


def _cmd_nondefective(args, inputs):
    m = _matroid_from(args, inputs)
    return {"nondefective": nondefective(m)}, {}


def _cmd_psi(args, inputs):
    config = _load(args, inputs, VectorConfiguration)
    h = HornKapranovMap(config)
    point = _parse_list(args.point, Fraction if args.exact else complex)
    if args.exact:
        image = psi_exact(h, point)
        payload = {"point": [str(p) for p in point], "psi": [str(v) for v in image]}
    else:
        image = psi_complex(h, point)
        payload = {
            "point": [f"{p.real}+{p.imag}j" for p in point],
            "psi": [[v.real, v.imag] for v in image],
        }
    return payload, {"exact": args.exact}


def _cmd_gauss(args, inputs):
    f = read_polynomial_file(inputs["poly"], args.poly)
    point = _parse_rationals(args.point)
    image = log_gauss(f, point)
    return {"point": [str(p) for p in point], "gauss": [str(v) for v in image]}, {}


def _cmd_initial_form(args, inputs):
    f = read_polynomial_file(inputs["poly"], args.poly)
    w = _parse_rationals(args.weight)
    payload = {"weight": [str(x) for x in w], "initial_form": format_poly(initial_form(f, w))}
    return payload, {"weight": args.weight}


def _cmd_coamoeba2(args, inputs):
    config = _load(args, inputs, VectorConfiguration)
    cycle = build_cycle(config)
    return io.cycle_json(cycle), {}


def _cmd_pls3(args, inputs):
    m = _matroid_from(args, inputs)
    prisms = prisms_d3(m)
    payload = {
        "prisms": [io.prism_json(p, m.config.labels) for p in prisms],
        "n_prisms": len(prisms),
    }
    return payload, {}


def _cmd_member(args, inputs):
    config = _load(args, inputs, VectorConfiguration)
    theta, exact = _parse_angles(args.theta)
    if config.d == 2:
        cycle = build_cycle(config)
        if exact:
            inside = contains2_exact(cycle, theta)
        else:
            inside = contains2(cycle, theta, tol=args.tol)
        payload = {"inside": inside, "dimension": 2}
    elif config.d == 3:
        m = Matroid(config)
        prisms = prisms_d3(m)
        try:
            radians = tuple(float(t) * math.pi if exact else float(t) for t in theta)
        except OverflowError:
            raise InputError(f"angles {args.theta} overflow in radians") from None
        inside, witness = contains_pls3(prisms, radians, tol=args.tol)
        payload = {
            "inside": inside,
            "dimension": 3,
            "witness": _flat_labels(m, witness.hyperplane_flat) if witness else None,
        }
    else:
        raise InputError("member queries support d = 2 or d = 3 only")
    return payload, {"theta": args.theta, "tol": args.tol}


def _cmd_sample(args, inputs):
    m = _matroid_from(args, inputs)
    if not args.cloud:
        raise InputError("sample requires -o/--output for the CSV point cloud")
    points = sample_coamoeba(m, args.n, args.seed)
    io.write_csv_cloud(args.cloud, points)
    report = {"written": args.cloud, "n_points": int(points.shape[0])}
    return report, {"n": args.n, "seed": args.seed, "output": args.cloud}


def _cmd_verify(args, inputs):
    m = _matroid_from(args, inputs)
    f = (
        read_polynomial_file(inputs["poly"], args.poly)
        if "poly" in inputs
        else sixline_discriminant()
    )
    payload = {}
    if m.config.d == 3:
        # first, so that a defective B is refused before the slower certification
        report = conjecture_experiment_d3(m, args.samples, tol=args.tol, seed=args.seed)
        payload["prism_experiment"] = {
            **vars(report),
            "coverage_per_prism": [
                {"flat": _flat_labels(m, flat), "samples": k}
                for flat, k in report.coverage_per_prism
            ],
        }
    payload["certification"] = certify_discriminant(f, m, args.n)
    return payload, {"n": args.n, "samples": args.samples, "tol": args.tol, "seed": args.seed}


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="coamoeba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, source, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write JSON here instead of stdout")
        p.add_argument(source)
        return p

    add("gale", _cmd_gale, "config", "Gale dual of a point configuration")
    add("validate", _cmd_validate, "config", "spanning/affine/pyramid report for A")
    add("matroid-info", _cmd_matroid_info, "config", "rank, bases, flats, flacets")
    add("bergman-rays", _cmd_bergman_rays, "config", "flacet indicator rays")
    add("fine-cones", _cmd_fine_cones, "config", "maximal cones with their flags")
    add("tdiscr-rays", _cmd_tdiscr_rays, "config", "tropical discriminant rays")
    add("nondefective", _cmd_nondefective, "config", "non-splitting flag existence")

    p = add("psi", _cmd_psi, "config", "Horn-Kapranov parameterization at a point")
    p.add_argument("--point", required=True, help="coordinates (negative first: --point=-1,2,3)")
    p.add_argument("--exact", action="store_true", help="exact rational evaluation")

    p = add("gauss", _cmd_gauss, "poly", "logarithmic Gauss map of a polynomial")
    p.add_argument("--point", required=True, help="rationals (negative first: --point=-1/2,3)")

    p = add("initial-form", _cmd_initial_form, "poly", "min-convention initial form")
    p.add_argument("-w", "--weight", required=True, help="weight (negative first: -w=-1,0,1)")

    add("coamoeba2", _cmd_coamoeba2, "config", "2D coamoeba cycle of a planar B")
    add("pls3", _cmd_pls3, "config", "prism decomposition for d = 3")

    p = add("member", _cmd_member, "config", "membership of an angle tuple")
    p.add_argument(
        "--theta", required=True, help="radians or a/b*pi (negative first: --theta=-pi,0,0)"
    )
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    # sample's -o names the CSV point cloud, so sample has no JSON output path
    p = sub.add_parser("sample", help="sample the coamoeba to CSV")
    p.set_defaults(fn=_cmd_sample, output=None)
    p.add_argument(
        "-o",
        "--output",
        dest="cloud",
        help="write the CSV point cloud here (required); the JSON report goes to stdout",
    )
    p.add_argument("config")
    p.add_argument("-n", type=_count, default=1000)
    p.add_argument("--seed", type=_count, default=0)

    p = add("verify", _cmd_verify, "config", "residue + Gauss roundtrip + prism experiment")
    p.add_argument("--poly", help="polynomial file; six-line discriminant by default")
    p.add_argument("-n", type=_count, default=20, help="exact grid points")
    p.add_argument("--samples", type=_count, default=2000)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--seed", type=_count, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        # each input is read once, so its parser and its hash see the same bytes
        inputs = {
            name: _read(path)
            for name in ("config", "poly")
            if (path := getattr(args, name, None)) is not None
        }
        payload, parameters = args.fn(args, inputs)
        payload["provenance"] = io.provenance(__version__, inputs, parameters)
        text = io.dump_json(payload)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
