"""Command-line interface.

Subcommands: fgl (catalog inspection and axiom checks), genus (projective and
Chern-number genus tables), witten (q-expansion), series (exp/log/sqrt/revert
on JSON series), verify (the one-shot identity verifier).  All output is
canonical JSON on stdout; diagnostics go to stderr.  Exit codes: 0 all checks
pass, 1 a check failed, 2 usage error.  GENUSFORGE_ORDER overrides the
default truncation order.
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


def _default_order(fallback: int) -> int:
    env = os.environ.get("GENUSFORGE_ORDER")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise SystemExit(_fail_usage(f"bad GENUSFORGE_ORDER {env!r}; expected an integer"))
        return value
    return fallback


def _order(args, fallback: int) -> int:
    """--order, else GENUSFORGE_ORDER, else fallback; at most MAX_ORDER."""
    order = args.order if args.order is not None else _default_order(fallback)
    if order > MAX_ORDER:
        raise SystemExit(_fail_usage(f"order {order} exceeds the maximum {MAX_ORDER}"))
    return order


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _fail_usage(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


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
    """Parse a table like "c1^2=9,c2=3" into {partition: value}."""
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
            if not base.startswith("c") or not base[1:].isdigit():
                raise ValueError(f"bad chern class {factor!r}")
            parts.extend([int(base[1:])] * exp)
        table[tuple(sorted(parts, reverse=True))] = _rational(value)
    return table


# -- subcommand handlers -------------------------------------------------------


def _cmd_fgl(args) -> int:
    if args.fgl_cmd == "list":
        _emit(
            {
                "laws": list(fgl.CATALOG),
                "demo_laws": list(fgl.DEMO_LAWS),
            }
        )
        return EXIT_OK
    order = _order(args, 10)
    try:
        params = _parse_params(getattr(args, "param", None))
    except ValueError as exc:
        return _fail_usage(str(exc))
    if args.fgl_cmd == "series":
        try:
            law = fgl.catalog(args.law, order, params)
        except (fgl.UnknownLawError, ValueError) as exc:
            return _fail_usage(str(exc))
        _emit(law.to_obj())
        return EXIT_OK
    if args.fgl_cmd == "check":
        try:
            law = fgl.catalog(args.law, order, params)
        except (fgl.UnknownLawError, ValueError) as exc:
            return _fail_usage(str(exc))
        report = fgl.check_axioms(law)
        _emit({"law": law.name, "order": order, "report": report.to_obj()})
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED
    if args.fgl_cmd == "iso":
        try:
            src = fgl.catalog(args.src, order)
            dst = fgl.catalog(args.dst, order)
        except (fgl.UnknownLawError, ValueError) as exc:
            return _fail_usage(str(exc))
        phi = fgl.canonical_strict_iso(src, dst)
        result = fgl.verify_iso(phi, src, dst)
        _emit(
            {
                "from": src.name,
                "to": dst.name,
                "order": order,
                "phi": phi.to_obj(),
                "verify": result.to_obj(),
            }
        )
        return EXIT_OK if result.passed else EXIT_CHECK_FAILED
    return _fail_usage(f"unknown fgl subcommand {args.fgl_cmd!r}")


def _cmd_genus(args) -> int:
    presentation = args.presentation
    if args.genus_cmd == "cpn":
        if (args.n is None) == (args.max_n is None):
            return _fail_usage("cpn requires exactly one of --n or --max-n")
        try:
            if args.n is not None:
                if args.n < 0:
                    return _fail_usage("--n must be >= 0")
                g = genus.genus_series(args.series, max(args.n, 2), presentation)
                table = {
                    "series": g.name,
                    "rows": [{"n": args.n, "value": genus.genus_cpn(g, args.n).to_obj()}],
                }
            else:
                table = genus.genus_table(args.series, args.max_n, presentation)
        except (KeyError, ValueError) as exc:
            return _fail_usage(str(exc))
        _emit(table)
        return EXIT_OK
    if args.genus_cmd == "table":
        if args.max_n is None:
            return _fail_usage("table requires --max-n")
        try:
            _emit(genus.genus_table(args.series, args.max_n, presentation))
        except (KeyError, ValueError) as exc:
            return _fail_usage(str(exc))
        return EXIT_OK
    if args.genus_cmd == "chern":
        if args.dim is None or not args.chern:
            return _fail_usage("chern requires --dim and --chern")
        try:
            chern = _parse_chern(args.chern)
            g = genus.genus_series(args.series, max(args.dim, 2), presentation)
            descriptor = genus.ManifoldDescriptor.from_chern(args.dim, chern)
            value = genus.genus_of(g, descriptor)
        except (KeyError, ValueError) as exc:
            return _fail_usage(str(exc))
        _emit({"series": g.name, "dim": args.dim, "value": value.to_obj()})
        return EXIT_OK
    return _fail_usage(f"unknown genus subcommand {args.genus_cmd!r}")


def _cmd_witten(args) -> int:
    try:
        w = genus.witten_series(args.x_order, args.q_order)
    except ValueError as exc:
        return _fail_usage(str(exc))
    series = w.log_H if args.log else w.H
    _emit(
        {
            "x_order": w.x_order,
            "q_order": w.q_order,
            "what": "log" if args.log else "series",
            "coeffs": series.to_obj(),
        }
    )
    return EXIT_OK


def _cmd_series(args) -> int:
    try:
        text = sys.stdin.read() if args.input in (None, "-") else open(args.input).read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail_usage(f"cannot read series input: {exc}")
    try:
        obj = json.loads(text)
        if int(obj["order"]) > MAX_ORDER:
            raise ValueError(f"order {obj['order']} exceeds the maximum {MAX_ORDER}")
        f = Series1.from_obj(obj)
    except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError, RecursionError) as exc:
        return _fail_usage(f"bad series JSON: {exc}")
    ops = {
        "exp": exp_series,
        "log": log_series,
        "sqrt": sqrt_series,
        "revert": lambda s: s.revert(),
    }
    try:
        result = ops[args.series_cmd](f)
    except ArithmeticError as exc:
        return _fail_usage(str(exc))
    _emit(result.to_obj())
    return EXIT_OK


def _cmd_verify(args) -> int:
    order = _order(args, 12)
    if order < 2:
        return _fail_usage("order must be >= 2")
    if args.suite not in verify.SUITES:
        return _fail_usage(f"unknown suite {args.suite!r}")
    report = verify.run_suite(args.suite, order)
    _emit(report)
    return EXIT_OK if report["status"] == "PASS" else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genusforge",
        description="Exact computer algebra for formal group laws and Hirzebruch genera.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fgl = sub.add_parser("fgl", help="formal group law catalog")
    fgl_sub = p_fgl.add_subparsers(dest="fgl_cmd", required=True)
    for name in ("list", "series", "check"):
        p = fgl_sub.add_parser(name)
        # output is always canonical JSON; the flag is accepted for symmetry
        p.add_argument("--json", action="store_true")
        if name != "list":
            p.add_argument("--law", required=True)
            p.add_argument("--order", type=int, default=None)
            p.add_argument("--param", action="append", metavar="NAME=P/Q")
    p_iso = fgl_sub.add_parser("iso")
    p_iso.add_argument("--from", dest="src", required=True)
    p_iso.add_argument("--to", dest="dst", required=True)
    p_iso.add_argument("--order", type=int, default=None)
    p_iso.add_argument("--json", action="store_true")

    p_genus = sub.add_parser("genus", help="genus tables")
    genus_sub = p_genus.add_subparsers(dest="genus_cmd", required=True)
    for name in ("cpn", "chern", "table"):
        p = genus_sub.add_parser(name)
        p.add_argument("--series", required=True)
        p.add_argument("--presentation", choices=("raw", "normalized"), default=None)
        if name in ("cpn", "table"):
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--max-n", dest="max_n", type=int, default=None)
        if name == "chern":
            p.add_argument("--dim", type=int, default=None)
            p.add_argument("--chern", default=None)

    p_witten = sub.add_parser("witten", help="Witten q-expansion")
    p_witten.add_argument("--x-order", dest="x_order", type=int, default=10)
    p_witten.add_argument("--q-order", dest="q_order", type=int, default=8)
    p_witten.add_argument("--log", action="store_true", help="emit log of the series")

    p_series = sub.add_parser("series", help="series utilities on JSON input")
    series_sub = p_series.add_subparsers(dest="series_cmd", required=True)
    for name in ("exp", "log", "sqrt", "revert"):
        p = series_sub.add_parser(name)
        p.add_argument("--input", default=None, help="path to Series1 JSON (default stdin)")

    p_verify = sub.add_parser("verify", help="run the identity verifier")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--order", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fgl": _cmd_fgl,
        "genus": _cmd_genus,
        "witten": _cmd_witten,
        "series": _cmd_series,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
