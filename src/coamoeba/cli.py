"""Command-line driver: one subcommand per library capability.

Every run writes machine-readable JSON (or CSV for point clouds) carrying a
provenance block with input hashes, the package version, and the effective
parameters.  Exit codes: 0 success, 2 invalid input, 1 internal invariant
violation, 64 usage error.
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
    """Angles as comma-separated floats (radians) or exact "a/b*pi" strings."""
    parts = [p.strip() for p in text.split(",")]
    exact = all(("pi" in p) or _is_rational(p) for p in parts)
    return _parse_list(text, io.parse_pi_string if exact else float), exact


def _is_rational(text: str) -> bool:
    try:
        Fraction(text)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _emit(args, payload: dict, inputs: dict, parameters: dict) -> None:
    payload["provenance"] = io.provenance(__version__, inputs, parameters)
    text = io.dump_json(payload, getattr(args, "output", None))
    if not getattr(args, "output", None):
        sys.stdout.write(text)


def _load(path, kind):
    """The configuration at ``path``; InputError unless it is a ``kind``."""
    config = io.load_config(path)
    if not isinstance(config, kind):
        role = "an A (point)" if kind is PointConfiguration else "a B (vector)"
        raise InputError(f"expected {role} configuration")
    return config


def _matroid_from(args) -> tuple[Matroid, dict]:
    return Matroid(_load(args.config, VectorConfiguration)), {"config": args.config}


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
    return sorted(m.labels_of(flat.forms))


def _labels_by_flat(m: Matroid) -> dict:
    """Every flat's sorted labels, one list per flat for the payload to share."""
    return {flat: _flat_labels(m, flat) for flat in m.flats()}


# -- subcommand implementations ---------------------------------------------------


def _cmd_gale(args):
    config = _load(args.config, PointConfiguration)
    b = gale_dual(config)
    _emit(args, io.config_to_json(b), {"config": args.config}, {})


def _cmd_validate(args):
    config = _load(args.config, PointConfiguration)
    report = validate_a(config)
    payload = {
        "spans": report.spans,
        "u": list(report.u) if report.u is not None else None,
        "pyramid": report.pyramid,
    }
    _emit(args, payload, {"config": args.config}, {})


def _cmd_matroid_info(args):
    m, inputs = _matroid_from(args)
    labels = _labels_by_flat(m)
    by_corank: dict[str, list] = {}
    for flat, flat_labels in labels.items():
        by_corank.setdefault(str(flat.corank), []).append(flat_labels)
    payload = {
        "rank": m.rank,
        "n_bases": m.n_bases,
        "connected": m.is_connected(),
        "parallel_classes": [sorted(m.labels_of(c)) for c in m.parallel_classes],
        "flats_by_corank": by_corank,
        "flacets": [labels[f] for f in m.flacets()] if m.is_connected() else None,
    }
    _emit(args, payload, inputs, {})


def _cmd_bergman_rays(args):
    m, inputs = _matroid_from(args)
    labels = _labels_by_flat(m)
    payload = {
        "rays": [
            {"flat": labels[flat], "indicator": [str(x) for x in w]}
            for flat, w in bergman_rays(m)
        ]
    }
    _emit(args, payload, inputs, {})


def _cmd_fine_cones(args):
    m, inputs = _matroid_from(args)
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
    _emit(args, payload, inputs, {})


def _cmd_tdiscr_rays(args):
    m, inputs = _matroid_from(args)
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
    _emit(args, payload, inputs, {})


def _cmd_nondefective(args):
    m, inputs = _matroid_from(args)
    payload = {"nondefective": nondefective(m)}
    _emit(args, payload, inputs, {})


def _cmd_psi(args):
    config = _load(args.config, VectorConfiguration)
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
    _emit(args, payload, {"config": args.config}, {"exact": args.exact})


def _cmd_gauss(args):
    f = read_polynomial_file(args.poly)
    point = _parse_rationals(args.point)
    image = log_gauss(f, point)
    payload = {"point": [str(p) for p in point], "gauss": [str(v) for v in image]}
    _emit(args, payload, {"poly": args.poly}, {})


def _cmd_initial_form(args):
    f = read_polynomial_file(args.poly)
    w = _parse_rationals(args.weight)
    payload = {"weight": [str(x) for x in w], "initial_form": format_poly(initial_form(f, w))}
    _emit(args, payload, {"poly": args.poly}, {"weight": args.weight})


def _cmd_coamoeba2(args):
    config = _load(args.config, VectorConfiguration)
    cycle = build_cycle(config)
    _emit(args, io.cycle_json(cycle), {"config": args.config}, {})


def _cmd_pls3(args):
    m, inputs = _matroid_from(args)
    prisms = prisms_d3(m)
    payload = {
        "prisms": [io.prism_json(p, m.config.labels) for p in prisms],
        "n_prisms": len(prisms),
    }
    _emit(args, payload, inputs, {})


def _cmd_member(args):
    config = _load(args.config, VectorConfiguration)
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
            "witness": sorted(m.labels_of(witness.hyperplane_flat.forms))
            if witness
            else None,
        }
    else:
        raise InputError("member queries support d = 2 or d = 3 only")
    _emit(args, payload, {"config": args.config}, {"theta": args.theta, "tol": args.tol})


def _cmd_sample(args):
    m, inputs = _matroid_from(args)
    if not args.output:
        raise InputError("sample requires -o/--output for the CSV point cloud")
    points = sample_coamoeba(m, args.n, args.seed)
    io.write_csv_cloud(args.output, points)
    meta = {
        "n": args.n,
        "seed": args.seed,
        "output": args.output,
    }
    report = {"written": args.output, "n_points": int(points.shape[0])}
    report["provenance"] = io.provenance(__version__, inputs, meta)
    sys.stdout.write(io.dump_json(report))


def _cmd_verify(args):
    m, inputs = _matroid_from(args)
    f = (
        read_polynomial_file(args.poly)
        if args.poly
        else sixline_discriminant()
    )
    payload = {}
    if m.config.d == 3:
        # first, so that a defective B is refused before the slower certification
        report = conjecture_experiment_d3(m, args.samples, tol=args.tol, seed=args.seed)
        payload["prism_experiment"] = {
            "n_samples": report.n_samples,
            "n_valid": report.n_valid,
            "inside_fraction": report.inside_fraction,
            "max_boundary_distance": report.max_boundary_distance,
            "seed": report.seed,
            "tolerance": report.tolerance,
            "coverage_per_prism": [
                {"flat": _flat_labels(m, flat), "samples": k}
                for flat, k in report.coverage_per_prism
            ],
        }
    payload["certification"] = certify_discriminant(f, m, args.n)
    if args.poly:
        inputs["poly"] = args.poly
    _emit(
        args,
        payload,
        inputs,
        {"n": args.n, "samples": args.samples, "tol": args.tol, "seed": args.seed},
    )


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="coamoeba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write JSON here instead of stdout")
        return p

    p = add("gale", _cmd_gale, help="Gale dual of a point configuration")
    p.add_argument("config")

    p = add("validate", _cmd_validate, help="spanning/affine/pyramid report for A")
    p.add_argument("config")

    p = add("matroid-info", _cmd_matroid_info, help="rank, bases, flats, flacets")
    p.add_argument("config")

    p = add("bergman-rays", _cmd_bergman_rays, help="flacet indicator rays")
    p.add_argument("config")

    p = add("fine-cones", _cmd_fine_cones, help="maximal cones with their flags")
    p.add_argument("config")

    p = add("tdiscr-rays", _cmd_tdiscr_rays, help="tropical discriminant rays")
    p.add_argument("config")

    p = add("nondefective", _cmd_nondefective, help="non-splitting flag existence")
    p.add_argument("config")

    p = add("psi", _cmd_psi, help="Horn-Kapranov parameterization at a point")
    p.add_argument("config")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--exact", action="store_true", help="exact rational evaluation")

    p = add("gauss", _cmd_gauss, help="logarithmic Gauss map of a polynomial")
    p.add_argument("poly")
    p.add_argument("--point", required=True, help="comma-separated rationals")

    p = add("initial-form", _cmd_initial_form, help="min-convention initial form")
    p.add_argument("poly")
    p.add_argument("-w", "--weight", required=True, help="comma-separated weight")

    p = add("coamoeba2", _cmd_coamoeba2, help="2D coamoeba cycle of a planar B")
    p.add_argument("config")

    p = add("pls3", _cmd_pls3, help="prism decomposition for d = 3")
    p.add_argument("config")

    p = add("member", _cmd_member, help="membership of an angle tuple")
    p.add_argument("config")
    p.add_argument("--theta", required=True, help="angles: radians or a/b*pi")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = add("sample", _cmd_sample, help="sample the coamoeba to CSV")
    p.add_argument("config")
    p.add_argument("-n", type=_count, default=1000)
    p.add_argument("--seed", type=_count, default=0)

    p = add("verify", _cmd_verify, help="residue + Gauss roundtrip + prism experiment")
    p.add_argument("config")
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
        args.fn(args)
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
