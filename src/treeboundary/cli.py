"""Command-line surface: one subcommand per operation, deterministic output.

Exit codes: 0 on success, 2 on validation errors (including bad flags),
3 when a resource bound is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .action import act_cylinder, act_point, rn_table
from .cylinders import BoundaryPoint, Cylinder, CylinderUnion, Word
from .fullgroup import build_swap, transitivity_check, verify_swap
from .ratios import classify, find_witness, realized_rn_values
from .sampling import sample
from .words import (
    DEFAULT_CELL_LIMIT,
    Presentation,
    ResourceLimitError,
    cuntz_krieger_matrix,
    sphere,
    sphere_size,
)


def _add_presentation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s", type=int, required=True, help="number of order-two generators")
    parser.add_argument("--t", type=int, required=True, help="number of infinite-order generators")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--max-cells", type=int, default=DEFAULT_CELL_LIMIT,
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
    g_sphere.add_argument("--m", type=int, required=True)
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
    rn.add_argument("--depth", type=int, required=True)

    kmap = sub.add_parser("kmap", help="cylinder swap automorphisms")
    ksub = kmap.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (("build", "materialize the piece table"),
                           ("verify", "verify the piece table"),
                           ("apply", "evaluate at a boundary point")):
        kp = ksub.add_parser(name, help=helptext)
        _add_presentation(kp)
        kp.add_argument("--x", required=True)
        kp.add_argument("--y", required=True)
        kp.add_argument("--max-step", type=int, default=4)
        if name == "apply":
            kp.add_argument("--point", required=True)

    ergodic = sub.add_parser("ergodic", help="transitivity of the swap group on a cell level")
    esub = ergodic.add_subparsers(dest="subcommand", required=True)
    e_check = esub.add_parser("check")
    _add_presentation(e_check)
    e_check.add_argument("--m", type=int, required=True)

    ratio = sub.add_parser("ratio", help="realized scaling values and witnesses")
    rsub = ratio.add_subparsers(dest="subcommand", required=True)
    r_values = rsub.add_parser("values")
    _add_presentation(r_values)
    r_values.add_argument("--max-len", type=int, required=True)
    r_values.add_argument("--depth", type=int, required=True)
    r_witness = rsub.add_parser("witness")
    _add_presentation(r_witness)
    r_witness.add_argument("--lambda", dest="lam", required=True, help="target value, e.g. 2 or 1/2")
    r_witness.add_argument("--E", dest="ambient", default='["e"]',
                           help="JSON array of base words (default: whole boundary)")

    cls = sub.add_parser("classify", help="type label with evidence bundle")
    _add_presentation(cls)

    smp = sub.add_parser("sample", help="draw boundary truncations under the measure")
    _add_presentation(smp)
    smp.add_argument("--depth", type=int, required=True)
    smp.add_argument("--n-samples", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)

    return top


def _emit(payload, fmt: str, text_lines=None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _printable(m: int, power, refusal: str) -> int:
    """``power()``, an integer of at least ``2**m``, unless it has more digits
    than Python converts to a string: then ``refusal`` is raised.  ``2**m`` has
    more than ``3m/10`` digits, so a long ``m`` is refused without the power."""
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0, as before Python 3.10.7: no limit
    if digits and 3 * m >= 10 * digits:
        raise ResourceLimitError(refusal)
    value = power()
    if digits and value >= 10 ** digits:
        raise ResourceLimitError(refusal)
    return value


def _run(args: argparse.Namespace) -> int:
    p = Presentation(args.s, args.t)
    fmt = args.format

    if args.command == "group" and args.subcommand == "sphere":
        if args.count:
            print(_printable(args.m, lambda: sphere_size(p, args.m),
                             f"sphere of length {args.m} has too many words to print"))
            return 0
        words = sphere(p, args.m, args.max_cells)
        _emit([str(w) for w in words], fmt, text_lines=[str(w) for w in words])
        return 0

    if args.command == "group" and args.subcommand == "ck-matrix":
        matrix = cuntz_krieger_matrix(p)
        payload = {"letters": list(p.tokens), "matrix": matrix}
        _emit(payload, fmt, text_lines=[" ".join(map(str, row)) for row in matrix])
        return 0

    if args.command == "measure":
        if (args.word is None) == (args.union is None):
            raise ValueError("give exactly one of --word or --union")
        if args.word is not None:
            value = Cylinder(Word.parse(args.word, p)).measure
        else:
            value = CylinderUnion.parse(p, json.loads(args.union)).measure
        _emit(str(value), fmt, text_lines=[str(value)])
        return 0

    if args.command == "act":
        g = Word.parse(args.g, p)
        if (args.word is None) == (args.point is None):
            raise ValueError("give exactly one of --word or --point")
        if args.word is not None:
            image = act_cylinder(g, Cylinder(Word.parse(args.word, p)))
            _emit(image.bases(), fmt, text_lines=[", ".join(image.bases())])
        else:
            moved = act_point(g, BoundaryPoint.parse(args.point, p))
            _emit(str(moved), fmt, text_lines=[str(moved)])
        return 0

    if args.command == "rn":
        table = rn_table(Word.parse(args.g, p), args.depth, args.max_cells)
        rows = table.to_json()
        _emit(rows, fmt, text_lines=[f"{r['cell']}: {r['value']}" for r in rows])
        return 0

    if args.command == "kmap":
        x, y = Word.parse(args.x, p), Word.parse(args.y, p)
        k = build_swap(x, y, args.max_step)
        if args.subcommand != "apply" and k.table_letters > args.max_cells:
            raise ResourceLimitError(f"the piece table would hold more than {args.max_cells} letters")
        if args.subcommand == "build":
            _emit(k.to_json(), fmt)
        elif args.subcommand == "verify":
            _emit(verify_swap(k).to_json(), fmt)
        else:
            result = k.apply(BoundaryPoint.parse(args.point, p))
            _emit(str(result), fmt, text_lines=[str(result)])
        return 0

    if args.command == "ergodic":
        ok = transitivity_check(p, args.m, limit=args.max_cells)
        _emit({"m": args.m, "transitive": ok}, fmt, text_lines=[str(ok).lower()])
        return 0

    if args.command == "ratio" and args.subcommand == "values":
        _printable(args.max_len, lambda: p.branching ** args.max_len,
                   f"{p.branching}**{args.max_len} has too many digits to print")
        values = realized_rn_values(p, args.max_len, args.depth)
        ordered = [str(v) for v in sorted(values)]
        _emit(ordered, fmt, text_lines=ordered)
        return 0

    if args.command == "ratio" and args.subcommand == "witness":
        ambient = CylinderUnion.parse(p, json.loads(args.ambient))
        try:
            lam = Fraction(args.lam)
        except ZeroDivisionError:
            raise ValueError(f"--lambda {args.lam} has a zero denominator") from None
        witness = find_witness(lam, ambient, p)
        if witness.rn_check_count > args.max_cells:
            raise ResourceLimitError(f"rn_checks would list more than {args.max_cells} cells")
        _emit(witness.to_json(), fmt)
        return 0

    if args.command == "classify":
        _emit(classify(p).to_json(), fmt)
        return 0

    if args.command == "sample":
        batch = sample(p, args.depth, args.n_samples, args.seed, args.max_cells)
        if fmt == "csv":
            batch.write_csv(sys.stdout)
        else:
            _emit(batch.summary_json(), fmt)
        return 0

    raise ValueError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ResourceLimitError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
