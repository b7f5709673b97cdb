"""Command-line interface.

Subcommands: fgl (catalog inspection and axiom checks), genus (projective and
Chern-number genus tables), witten (q-expansion), series (exp/log/sqrt/revert
on JSON series), verify (the one-shot identity verifier).  Output is always
canonical JSON on stdout, so there is no --json flag.  Exit codes: 0 all
checks pass, 1 a check failed, 2 usage error.  A usage error, argparse's
included, is one `error: <message>` line on stderr and nothing on stdout:
handlers raise ValueError, LookupError or ArithmeticError, and main alone
turns them into exit 2.  --presentation selects the presentation of `gamma`
only.  GENUSFORGE_ORDER overrides the default truncation order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from genusforge import fgl, genus, verify
from genusforge.series import Series1, exp_series, log_series, sqrt_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Series are dense: an order beyond this would exhaust memory or never
# finish, so it is a usage error.
MAX_ORDER = 1000


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad command-line input.  argparse reports an ArgumentTypeError's own
    message, and main catches it as a ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def size(text) -> int:
    """An integer size or order, at most MAX_ORDER.  (argparse names a
    non-integer after this function: "invalid size value".)"""
    value = int(text)
    if value > MAX_ORDER:
        raise UsageError(f"{value} exceeds the maximum {MAX_ORDER}")
    return value


def _order(args, fallback: int) -> int:
    """--order, else GENUSFORGE_ORDER (bounded as --order is), else fallback."""
    if args.order is not None:
        return args.order
    env = os.environ.get("GENUSFORGE_ORDER")
    return size(env) if env else fallback


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _rational(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_params(items) -> "dict[str, Fraction]":
    params = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"bad --param {item!r}; expected name=p/q")
        name, value = item.split("=", 1)
        params[name.strip()] = _rational(value)
    return params


def _parse_chern(text: str) -> "dict[tuple[int, ...], Fraction]":
    """Parse a table like "c1^2=9,c2=3" into {partition: value}.

    Classes and exponents are positive, an entry's weight is bounded by
    MAX_ORDER before its parts are listed, and no partition is given twice
    (c1*c1 and c1^2 are the same one).
    """
    table: "dict[tuple[int, ...], Fraction]" = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(f"bad chern entry {entry!r}")
        mono, value = entry.split("=", 1)
        parts: "list[int]" = []
        for factor in mono.replace("*", " ").split():
            factor = factor.strip()
            if "^" in factor:
                base, exp = factor.split("^", 1)
                exp = int(exp)
            else:
                base, exp = factor, 1
            index = int(base[1:]) if base.startswith("c") and base[1:].isdigit() else 0
            if index < 1:
                raise ValueError(f"bad chern class {factor!r}")
            if exp < 1:
                raise ValueError(f"exponent in {factor!r} must be >= 1")
            if sum(parts) + index * exp > MAX_ORDER:
                raise ValueError(f"chern entry {entry!r} has weight above {MAX_ORDER}")
            parts.extend([index] * exp)
        key = tuple(sorted(parts, reverse=True))
        if key in table:
            raise ValueError(f"chern entry {entry!r} repeats the partition {key}")
        table[key] = _rational(value)
    return table


# -- subcommand handlers -------------------------------------------------------
# Each returns the JSON object to print and whether its checks passed.


def _fgl_list(args):
    return {"laws": list(fgl.CATALOG), "demo_laws": list(fgl.DEMO_LAWS)}, True


def _fgl_series(args):
    return fgl.catalog(args.law, _order(args, 10), _parse_params(args.param)).to_obj(), True


def _fgl_check(args):
    order = _order(args, 10)
    law = fgl.catalog(args.law, order, _parse_params(args.param))
    report = fgl.check_axioms(law)
    return {"law": law.name, "order": order, "report": report.to_obj()}, report.passed


def _fgl_iso(args):
    order = _order(args, 10)
    src, dst = fgl.catalog(args.src, order), fgl.catalog(args.dst, order)
    phi = fgl.canonical_strict_iso(src, dst)
    result = fgl.verify_iso(phi, src, dst)
    obj = {
        "from": src.name,
        "to": dst.name,
        "order": order,
        "phi": phi.to_obj(),
        "verify": result.to_obj(),
    }
    return obj, result.passed


def _genus_table(args):
    return genus.genus_table(args.series, args.max_n, args.presentation), True


def _genus_cpn(args):
    if args.n is None:
        return _genus_table(args)
    g = genus.genus_series(args.series, args.n, args.presentation)
    row = {"n": args.n, "value": genus.genus_cpn(g, args.n).to_obj()}
    return {"series": g.name, "rows": [row]}, True


def _genus_chern(args):
    # The descriptor checks the table, so a bad one is rejected before the
    # series, the costly part, is built.
    descriptor = genus.ManifoldDescriptor.from_chern(args.dim, _parse_chern(args.chern))
    g = genus.genus_series(args.series, args.dim, args.presentation)
    value = genus.genus_of(g, descriptor).to_obj()
    return {"series": g.name, "dim": args.dim, "value": value}, True


def _witten(args):
    w = genus.witten_series(args.x_order, args.q_order)
    obj = {
        "x_order": w.x_order,
        "q_order": w.q_order,
        "what": "log" if args.log else "series",
        "coeffs": (w.log_H if args.log else w.H).to_obj(),
    }
    return obj, True


def _series(args):
    # Malformed JSON raises TypeError, AttributeError or RecursionError from
    # deep inside from_obj; only here are those bad input and not a bug.
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as handle:
                text = handle.read()
        obj = json.loads(text)
        size(obj["order"])
        f = Series1.from_obj(obj)
    except (OSError, TypeError, AttributeError, RecursionError,
            ValueError, LookupError, ArithmeticError) as exc:
        raise ValueError(f"bad series input: {exc}") from None
    return args.op(f).to_obj(), True


def _verify(args):
    report = verify.run_suite(args.suite, _order(args, 12))
    return report, report["status"] == "PASS"


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genusforge",
        description="Exact computer algebra for formal group laws and Hirzebruch genera.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fgl = sub.add_parser("fgl", help="formal group law catalog")
    fgl_sub = p_fgl.add_subparsers(dest="fgl_cmd", required=True)
    fgl_sub.add_parser("list").set_defaults(run=_fgl_list)
    for name, run in (("series", _fgl_series), ("check", _fgl_check)):
        p = fgl_sub.add_parser(name)
        p.add_argument("--law", required=True)
        p.add_argument("--order", type=size)
        p.add_argument("--param", action="append", metavar="NAME=P/Q")
        p.set_defaults(run=run)
    p = fgl_sub.add_parser("iso")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--order", type=size)
    p.set_defaults(run=_fgl_iso)

    p_genus = sub.add_parser("genus", help="genus tables")
    genus_sub = p_genus.add_subparsers(dest="genus_cmd", required=True)
    for name, run in (("cpn", _genus_cpn), ("table", _genus_table), ("chern", _genus_chern)):
        p = genus_sub.add_parser(name)
        p.add_argument("--series", required=True)
        p.add_argument("--presentation", choices=("raw", "normalized"))
        p.set_defaults(run=run)
        if name == "cpn":
            n_or_max_n = p.add_mutually_exclusive_group(required=True)
            n_or_max_n.add_argument("--n", type=size)
            n_or_max_n.add_argument("--max-n", dest="max_n", type=size)
        elif name == "table":
            p.add_argument("--max-n", dest="max_n", type=size, required=True)
        else:
            p.add_argument("--dim", type=size, required=True)
            p.add_argument("--chern", required=True)

    p = sub.add_parser("witten", help="Witten q-expansion")
    p.add_argument("--x-order", dest="x_order", type=size, default=10)
    p.add_argument("--q-order", dest="q_order", type=size, default=8)
    p.add_argument("--log", action="store_true", help="emit log of the series")
    p.set_defaults(run=_witten)

    p_series = sub.add_parser("series", help="series utilities on JSON input")
    series_sub = p_series.add_subparsers(dest="series_cmd", required=True)
    # revert is looked up when it runs, so a wrapper installed on
    # Series1.revert after import (the benchmark's tracer) is the one called.
    ops = (("exp", exp_series), ("log", log_series), ("sqrt", sqrt_series),
           ("revert", lambda f: f.revert()))
    for name, op in ops:
        p = series_sub.add_parser(name)
        p.add_argument("--input", default="-", help="path to Series1 JSON (default stdin)")
        p.set_defaults(run=_series, op=op)

    p = sub.add_parser("verify", help="run the identity verifier")
    p.add_argument("--suite", default="all")
    p.add_argument("--order", type=size)
    p.set_defaults(run=_verify)

    return parser


_PARSER = build_parser()
# A message may quote raw input (argparse's "unrecognized arguments" does),
# so every character str.splitlines breaks at is escaped to keep it one line.
_ESCAPE_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        obj, passed = args.run(args)
        _emit(obj)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, LookupError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {str(exc).translate(_ESCAPE_LINE_BREAKS)}\n")
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
