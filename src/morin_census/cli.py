"""Command-line surface: generate, gate, classify, certify, count, survey.

Every subcommand reads arguments (and, where applicable, a map file produced
by ``gen``) and emits a single JSON document on stdout -- or a human-readable
summary with ``--format text``, which carries no stability promise.  Exit
codes: 0 success, 1 usage error (malformed degrees, unreadable map file,
point length mismatch, a count, bound or tolerance outside its range), 2
computation error; either failure mode prints a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

from .census import IntegralityError, census
from .maps import (UsageError, eligibility_gate, load_map, map_to_dict, random_map,
                   validate_degrees)
from .morin import DEFAULT_KMAX, DEFAULT_TOL, classify
from .polynomials import COMPLEX, RATIONAL, is_exact_point
from .properness import properness_verdict
from .sampler import survey

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):                       # argparse defaults to exit 2
        raise UsageError(message)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(part) for part in text.split(","))
        return validate_degrees(degrees)
    except (ValueError, TypeError) as err:
        raise UsageError(f"bad degree list {text!r}: {err}") from err


def _parse_point(text: str, n: int) -> tuple:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"point has {len(parts)} entries, map needs {n}")
    values = []
    for part in parts:
        try:
            values.append(Fraction(part))
        except ValueError:
            try:
                values.append(complex(part))
            except ValueError as err:
                raise UsageError(f"bad point entry {part!r}") from err
            if not cmath.isfinite(values[-1]):
                raise UsageError(f"point entry {part!r} is not finite")
    if is_exact_point(values):
        return tuple(values)
    return tuple(complex(v) for v in values)


def _load(path: str):
    try:
        return load_map(path)
    except OSError as err:
        raise UsageError(f"cannot read map file {path}: {err}") from err
    except (KeyError, ValueError) as err:
        raise UsageError(f"malformed map file {path}: {err}") from err


def _emit(doc: dict, text: str | None, args) -> None:
    if args.format == "json":
        rendered = json.dumps(doc, indent=2) + "\n"
    else:
        rendered = (text if text is not None else json.dumps(doc, indent=2)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _build_parser() -> _Parser:
    parser = _Parser(prog="morin-census",
                     description="Singularities of homogeneous polynomial maps: "
                                 "classification, properness, counts, surveys.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *used):
        """--format and --out everywhere; --seed and --tol where `used` names them."""
        if "seed" in used:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")
        if "tol" in used:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help="relative tolerance in (0, 1) of the float classification rule")

    p = sub.add_parser("gen", help="generate a random homogeneous map")
    p.add_argument("--degrees", required=True)
    p.add_argument("--kind", choices=(RATIONAL, COMPLEX), default=RATIONAL)
    p.add_argument("--bound", type=int, default=10,
                   help="coefficient bound for the rational kind")
    common(p, "seed")

    p = sub.add_parser("gate", help="finite-determinacy eligibility of a degree tuple")
    p.add_argument("--degrees", required=True)
    common(p)

    p = sub.add_parser("classify", help="singularity class of a map at a point")
    p.add_argument("--map", required=True, dest="map_path")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
    common(p, "tol")

    p = sub.add_parser("proper", help="properness certificate / falsifier")
    p.add_argument("--map", required=True, dest="map_path")
    common(p)

    p = sub.add_parser("census", help="closed-form singularity counts (n = 4)")
    p.add_argument("--degrees", required=True)
    common(p)

    p = sub.add_parser("survey", help="classify line-sampled critical points")
    p.add_argument("--degrees", required=True)
    p.add_argument("--maps", type=int, default=10)
    p.add_argument("--lines", type=int, default=20)
    common(p, "seed", "tol")

    return parser


def _run_gen(args) -> None:
    degrees = _parse_degrees(args.degrees)
    F = random_map(degrees, seed=args.seed, kind=args.kind, bound=args.bound)
    doc = map_to_dict(F)
    lines = [f"map: n={F.n} degrees={list(F.degrees)} kind={F.kind}"]
    lines += [f"  f{k + 1} = {f.to_text()}" for k, f in enumerate(F.components)]
    _emit(doc, "\n".join(lines), args)


def _four_degrees(args) -> tuple[int, ...]:
    degrees = _parse_degrees(args.degrees)
    if len(degrees) != 4:
        raise UsageError(f"this subcommand needs exactly 4 degrees, got {len(degrees)}")
    return degrees


def _run_gate(args) -> None:
    verdict = eligibility_gate(_four_degrees(args))
    text = f"{verdict.tag}" + (f": {verdict.witness}" if verdict.witness else "")
    _emit(verdict.to_dict(), text, args)


def _run_classify(args) -> None:
    F = _load(args.map_path)
    point = _parse_point(args.point, F.n)
    result = classify(F, point, k_max=args.kmax, tol=args.tol)
    _emit(result.to_dict(), f"class {result.label} at point {args.point}", args)


def _run_proper(args) -> None:
    F = _load(args.map_path)
    verdict = properness_verdict(F)
    _emit(verdict.to_dict(), f"{verdict.verdict}: {verdict.certificate}", args)


def _run_census(args) -> None:
    report = census(_four_degrees(args))
    text_lines = [f"degrees {list(report.degrees)}: {report.eligibility.tag}",
                  f"  c = {list(report.c)}"]
    text_lines += [f"  #{name} = {value}" for name, value in report.counts.items()]
    _emit(report.to_dict(), "\n".join(text_lines), args)


def _run_survey(args) -> None:
    report = survey(_parse_degrees(args.degrees), maps=args.maps,
                    lines=args.lines, seed=args.seed, tol=args.tol)
    text = (f"degrees {list(report.degrees)}: {report.points_found} points, "
            f"histogram {report.histogram}, outside menu {report.outside_menu}, "
            f"unstable {report.unstable}")
    _emit(report.to_dict(), text, args)


_RUNNERS = {
    "gen": _run_gen,
    "gate": _run_gate,
    "classify": _run_classify,
    "proper": _run_proper,
    "census": _run_census,
    "survey": _run_survey,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _RUNNERS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (IntegralityError, ArithmeticError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
