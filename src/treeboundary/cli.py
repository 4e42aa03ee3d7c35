"""Command-line surface: one subcommand per operation, deterministic output.

Each branch of ``_run`` only computes a payload and its text lines; one tail
prints them.  Every printed number that grows with the input first passes one
digit gate, ``_printable``, which refuses it before it is computed when it has
more digits than Python converts to a string.

Exit codes: 0 on success, 2 on validation errors (including bad flags),
3 when a resource bound is exceeded, a number too long to print among them.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import cache

from .action import act_cylinder, act_point, image_size, rn_table
from .cylinders import BoundaryPoint, Cylinder, CylinderUnion, Word
from .fullgroup import build_swap, transitivity_check, verify_swap
from .ratios import classify, find_witness, realized_rn_values
from .sampling import sample
from .words import (
    DEFAULT_CELL_LIMIT,
    Presentation,
    ResourceLimitError,
    clip,
    cuntz_krieger_matrix,
    sphere,
    sphere_size,
)


def _integer(text: str) -> int:
    """An integer flag's value; one too long to print is refused before ``int()`` reads it."""
    _printable(f"integer {clip(text)}", len(text) - 1, 10)
    return int(text)


_integer.__name__ = "int"  # argparse names the type in its message: "invalid int value"


def _add_presentation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s", type=_integer, required=True, help="number of order-two generators")
    parser.add_argument("--t", type=_integer, required=True, help="number of infinite-order generators")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--max-cells", type=_integer, default=DEFAULT_CELL_LIMIT,
                        help="refuse enumerations above this many cells")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(prog="treeboundary",
                                  description="exact boundary arithmetic on homogeneous trees")
    sub = top.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="word arithmetic and tree enumeration")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    g_sphere = gsub.add_parser("sphere", help="all reduced words of one length")
    _add_presentation(g_sphere)
    g_sphere.add_argument("--m", type=_integer, required=True)
    g_sphere.add_argument("--count", action="store_true", help="print only the number of words")
    g_ck = gsub.add_parser("ck-matrix", help="allowed-successor 0/1 matrix over the letters")
    _add_presentation(g_ck)

    measure = sub.add_parser("measure", help="exact measure of a cylinder or union")
    _add_presentation(measure)
    measure.add_argument("--word", help="base word of a cylinder")
    measure.add_argument("--union", help="JSON array of base words")

    act = sub.add_parser("act", help="apply a group element to a cylinder or point")
    _add_presentation(act)
    act.add_argument("--g", required=True, help="acting element")
    act.add_argument("--word", help="base word of a cylinder to move")
    act.add_argument("--point", help="boundary point 'prefix | cycle' to move")

    rn = sub.add_parser("rn", help="exact scaling table of an element")
    _add_presentation(rn)
    rn.add_argument("--g", required=True)
    rn.add_argument("--depth", type=_integer, required=True)

    kmap = sub.add_parser("kmap", help="cylinder swap automorphisms")
    ksub = kmap.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (("build", "materialize the piece table"),
                           ("verify", "verify the piece table"),
                           ("apply", "evaluate at a boundary point")):
        kp = ksub.add_parser(name, help=helptext)
        _add_presentation(kp)
        kp.add_argument("--x", required=True)
        kp.add_argument("--y", required=True)
        kp.add_argument("--max-step", type=_integer, default=4)
        if name == "apply":
            kp.add_argument("--point", required=True)

    ergodic = sub.add_parser("ergodic", help="transitivity of the swap group on a cell level")
    esub = ergodic.add_subparsers(dest="subcommand", required=True)
    e_check = esub.add_parser("check")
    _add_presentation(e_check)
    e_check.add_argument("--m", type=_integer, required=True)

    ratio = sub.add_parser("ratio", help="realized scaling values and witnesses")
    rsub = ratio.add_subparsers(dest="subcommand", required=True)
    r_values = rsub.add_parser("values")
    _add_presentation(r_values)
    r_values.add_argument("--max-len", type=_integer, required=True)
    r_values.add_argument("--depth", type=_integer, required=True)
    r_witness = rsub.add_parser("witness")
    _add_presentation(r_witness)
    r_witness.add_argument("--lambda", dest="lam", required=True, help="target value, e.g. 2 or 1/2")
    r_witness.add_argument("--E", dest="ambient", default='["e"]',
                           help="JSON array of base words (default: whole boundary)")

    cls = sub.add_parser("classify", help="type label with evidence bundle")
    _add_presentation(cls)

    smp = sub.add_parser("sample", help="draw boundary truncations under the measure")
    _add_presentation(smp)
    smp.add_argument("--depth", type=_integer, required=True)
    smp.add_argument("--n-samples", type=_integer, required=True)
    smp.add_argument("--seed", type=_integer, default=0)

    return top


def _printable(field: str, k: int, n: int, scale: int = 1) -> None:
    """The one digit gate: refuse to print ``field``, a number of at least ``scale * n**k``,
    when that gives it more digits than Python converts to a string.  The power is compared on
    its logarithm, unbuilt, unless it lies within a factor of n of the limit; then exactly."""
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0, as before Python 3.10.7: no limit
    at = (digits * math.log2(10) - math.log2(scale)) / math.log2(n)  # the k of 10**digits
    if digits and (k >= at + 1 or (k > at - 1 and k >= 0 and scale * n**k >= 10**digits)):
        raise ResourceLimitError(f"{field} has too many digits to print")


_DIGITS = r"\d+(?:_\d+)*"  # a decimal with an exponent, for which Fraction() builds 10**|exponent|
_SCIENTIFIC = re.compile(rf"\s*[-+]?(?=\.?\d)(?P<whole>(?:{_DIGITS})?)(?:\.(?P<part>(?:{_DIGITS})?))?"
                         rf"e(?P<exponent>[-+]?{_DIGITS})\s*", re.IGNORECASE)


def _fraction(literal: str) -> Fraction:
    """The ``--lambda`` literal as a fraction; one too long to print is refused, unbuilt if it can be."""
    _printable("--lambda", len(literal) - 1, 10)  # no number Fraction() reads is longer
    if shape := _SCIENTIFIC.fullmatch(literal):
        whole, part, exponent = (text.replace("_", "") for text in shape.groups(""))
        if not (significant := (whole + part).lstrip("0")):
            return Fraction(0)
        e = len(significant) + int(exponent) - len(part)  # 10**(e-1) <= |value| < 10**e, so its
        _printable("--lambda", abs(e) - 1, 10)  # numerator or denominator is at least 10**(|e|-1)
    try:
        value = Fraction(literal)
    except ZeroDivisionError:
        raise ValueError(f"--lambda {clip(literal)} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {clip(literal)!r}") from None
    _printable("--lambda", 0, 10, value.denominator)
    return value


def _run(args: argparse.Namespace) -> None:
    p = Presentation(args.s, args.t)
    fmt, text_lines = args.format, None

    if args.command == "group" and args.subcommand == "sphere" and args.count:
        _printable(f"sphere of length {clip(args.m)}", args.m - 1, p.branching, p.degree)
        payload = sphere_size(p, args.m)
        text_lines = [str(payload)]
    elif args.command == "group" and args.subcommand == "sphere":
        payload = text_lines = [str(w) for w in sphere(p, args.m, args.max_cells)]
    elif args.command == "group":  # ck-matrix
        if p.degree ** 2 > args.max_cells:
            raise ResourceLimitError(f"the matrix would hold more than {clip(args.max_cells)} entries")
        matrix = cuntz_krieger_matrix(p)
        payload = {"letters": list(p.tokens), "matrix": matrix}
        text_lines = [" ".join(map(str, row)) for row in matrix]
    elif args.command == "measure":
        if (args.word is None) == (args.union is None):
            raise ValueError("give exactly one of --word or --union")
        union = CylinderUnion.parse(p, [args.word] if args.union is None else json.loads(args.union))
        _printable("measure", union.depth - 1, p.branching, p.degree)
        payload = str(union.measure)
        text_lines = [payload]
    elif args.command == "act":
        g = Word.parse(args.g, p)
        if (args.word is None) == (args.point is None):
            raise ValueError("give exactly one of --word or --point")
        if args.word is not None:
            w = Word.parse(args.word, p)
            if image_size(g, w) > args.max_cells:
                raise ResourceLimitError(f"the image would hold more than {clip(args.max_cells)} cylinders")
            payload = act_cylinder(g, Cylinder(w)).bases()
            text_lines = [", ".join(payload)]
        else:
            payload = str(act_point(g, BoundaryPoint.parse(args.point, p)))
            text_lines = [payload]
    elif args.command == "rn":
        payload = rn_table(Word.parse(args.g, p), args.depth, args.max_cells).to_json()
        text_lines = [f"{r['cell']}: {r['value']}" for r in payload]
    elif args.command == "kmap":
        k = build_swap(Word.parse(args.x, p), Word.parse(args.y, p), args.max_step)
        if args.subcommand != "apply" and k.table_letters > args.max_cells:
            raise ResourceLimitError(f"the piece table would hold more than {clip(args.max_cells)} letters")
        if args.subcommand == "build" and not k.closed:  # the residual's measure, before the piece table
            _printable("residual_measure", k.m + k.step_count - 1, p.branching, p.degree)
        if args.subcommand == "apply":
            payload = str(k.apply(BoundaryPoint.parse(args.point, p)))
            text_lines = [payload]
        else:
            payload = (k if args.subcommand == "build" else verify_swap(k)).to_json()
    elif args.command == "ergodic":
        ok = transitivity_check(p, args.m, limit=args.max_cells)
        payload, text_lines = {"m": args.m, "transitive": ok}, [str(ok).lower()]
    elif args.command == "ratio" and args.subcommand == "values":
        _printable(f"{p.branching}**{clip(args.max_len)}", args.max_len, p.branching)
        payload = text_lines = [str(v) for v in sorted(realized_rn_values(p, args.max_len, args.depth))]
    elif args.command == "ratio":
        ambient = CylinderUnion.parse(p, json.loads(args.ambient))
        witness = find_witness(_fraction(args.lam), ambient, p)
        if witness.rn_check_count > args.max_cells:
            raise ResourceLimitError(f"rn_checks would list more than {clip(args.max_cells)} cells")
        if witness.stage_letter_count > args.max_cells:
            raise ResourceLimitError(f"stages would list more than {clip(args.max_cells)} letters")
        payload = witness.to_json()
    elif args.command == "classify":
        payload = classify(p).to_json()
    else:  # sample
        batch = sample(p, args.depth, args.n_samples, args.seed, args.max_cells)
        # csv is streamed: a batch may hold 10**7 draws
        payload, text_lines = (None, batch.csv_lines()) if fmt == "csv" else (batch.summary_json(), None)

    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif text_lines is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.writelines(f"{line}\n" for line in text_lines)


def main(argv: list[str] | None = None) -> int:
    try:
        _run(build_parser().parse_args(argv))
    except ResourceLimitError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
