"""Command-line interface.

Subcommands: fgl (catalog inspection and axiom checks), genus (projective and
Chern-number genus tables), witten (q-expansion), series (exp/log/sqrt/revert
on JSON series), verify (the one-shot identity verifier).  Output is always
canonical JSON on stdout, so there is no --json flag.  Exit codes: 0 all
checks pass, 1 a check failed, 2 usage error, 130 interrupted (SIGINT).  A
process (run) ends as soon as its output is flushed, without interpreter
teardown; a closed stdout exits 0 and any other write error 2.  A usage error,
argparse's included, a write error or an interrupt is one `error: <message>`
line on stderr and nothing on stdout: handlers raise ValueError, LookupError
or ArithmeticError, and main alone turns them into exit 2.  So is a request
too large to finish (MemoryError, RecursionError: exit 2).  A witten request
builds its series by one route and checks nothing; verify --suite witten
compares the product route with the Eisenstein route.  --presentation
selects the presentation of `gamma` only.  GENUSFORGE_ORDER overrides the
default truncation order.  A request is parsed once, by its command's own
parser, built on first use; the full parser is built only to report an
incomplete command path or print the top-level help.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from genusforge import fgl, genus, verify
from genusforge.ring import _fraction, _json_int
from genusforge.series import Series1, exp_series, log_series, sqrt_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Series are dense: an order beyond this would exhaust memory or never
# finish, so it is a usage error.
MAX_ORDER = 1000


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad command-line input.  argparse reports an ArgumentTypeError's own
    message, and main catches it as a ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        # argparse's own drops a write error; this one lets run report it.
        if message:
            (file or sys.stderr).write(message)


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
    sys.stdout.write(_ENCODER.encode(obj) + "\n")


def _rational(text: str) -> "int | Fraction":
    """A rational literal: a plain ASCII integer as an int, anything else as
    ring._fraction reads it, a zero denominator named as a usage error."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    try:
        return _fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_params(items) -> "dict[str, int | Fraction]":
    params = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"bad --param {item!r}; expected name=p/q")
        name, value = item.split("=", 1)
        name = name.strip()
        if name in params:
            raise ValueError(f"--param {item!r} repeats the name {name!r}")
        params[name] = _rational(value)
    return params


# A factor c<index>[^<exponent>]: the index as the ring reads a family
# member's, the exponent in ASCII digits (a sign only to refuse it by name).
_CHERN_FACTOR = re.compile(r"c([1-9][0-9]*)(?:\^(-?)([0-9]+))?")


def _bounded(digits: str) -> int:
    """ASCII digits read as an int, any value above MAX_ORDER as MAX_ORDER + 1:
    digits longer than MAX_ORDER's never reach int, whose digit limit would
    refuse them with its own message."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(MAX_ORDER)) else MAX_ORDER + 1


@lru_cache(maxsize=256)
def _monomial(text: str) -> "tuple[int, ...] | None":
    """The partition that a monomial such as "c1^2*c2" names, parts in
    decreasing order (c1*c1 and c1^2 are the same one), or None when its
    weight exceeds MAX_ORDER.  Factors are read in order, so the first bad
    one is named and the weight bound is met before the parts are listed.
    Memoised by the text (the 256 most recent), since the tables of one
    dimension share their monomials; an error is raised again each time."""
    parts: "list[int]" = []
    weight = 0
    for factor in text.replace("*", " ").split():
        m = _CHERN_FACTOR.fullmatch(factor)
        if m is None:
            raise ValueError(f"bad chern class {factor!r}")
        index, exp = _bounded(m[1]), _bounded(m[3]) if m[3] else 1
        if m[2] or exp < 1:
            raise ValueError(f"exponent in {factor!r} must be >= 1")
        weight += index * exp
        if weight > MAX_ORDER:
            return None
        parts.extend([index] * exp)
    return tuple(sorted(parts, reverse=True))


def _parse_chern(text: str) -> "dict[tuple[int, ...], int | Fraction]":
    """Parse a table like "c1^2=9,c2=3" into {partition: value}.

    Classes and exponents are positive, an entry's weight is bounded by
    MAX_ORDER, and no partition is given twice.
    """
    table: "dict[tuple[int, ...], int | Fraction]" = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(f"bad chern entry {entry!r}")
        mono, value = entry.split("=", 1)
        key = _monomial(mono)
        if key is None:
            raise ValueError(f"chern entry {entry!r} has weight above {MAX_ORDER}")
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
    # series, the costly part, is built.  _parse_chern gives from_chern's keys,
    # and genus_of pairs its int and Fraction values as they stand.
    chern = tuple(sorted(_parse_chern(args.chern).items()))
    descriptor = genus.ManifoldDescriptor(chern_dim=args.dim, chern=chern)
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
        size(_json_int(obj["order"], "order"))
        f = Series1.from_obj(obj)
    except (OSError, TypeError, AttributeError, RecursionError,
            ValueError, LookupError, ArithmeticError) as exc:
        raise ValueError(f"bad series input: {exc}") from None
    return args.op(f).to_obj(), True


def _verify(args):
    report = verify.run_suite(args.suite, _order(args, 12))
    return report, report["status"] == "PASS"


# -- parser ---------------------------------------------------------------------

# Each command path and its handler, in the order the full parser lists them.
_LEAVES = {
    ("fgl", "list"): _fgl_list,
    ("fgl", "series"): _fgl_series,
    ("fgl", "check"): _fgl_check,
    ("fgl", "iso"): _fgl_iso,
    ("genus", "cpn"): _genus_cpn,
    ("genus", "table"): _genus_table,
    ("genus", "chern"): _genus_chern,
    ("witten",): _witten,
    **{("series", name): _series for name in ("exp", "log", "sqrt", "revert")},
    ("verify",): _verify,
}
_HELP = {
    "fgl": "formal group law catalog",
    "genus": "genus tables",
    "witten": "Witten q-expansion",
    "series": "series utilities on JSON input",
    "verify": "run the identity verifier",
}
# revert is looked up when it runs, so a wrapper installed on Series1.revert
# after import (the benchmark's tracer) is the one called.
_SERIES_OPS = {"exp": exp_series, "log": log_series, "sqrt": sqrt_series,
               "revert": lambda f: f.revert()}


def _arguments(p: argparse.ArgumentParser, path) -> argparse.ArgumentParser:
    """p, the parser of a command path such as ("genus", "chern"), given its
    arguments and its handler."""
    command, name = path[0], path[-1]
    if command == "fgl" and name in ("series", "check"):
        p.add_argument("--law", required=True)
        p.add_argument("--order", type=size)
        p.add_argument("--param", action="append", metavar="NAME=P/Q")
    elif command == "fgl" and name == "iso":
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="dst", required=True)
        p.add_argument("--order", type=size)
    elif command == "genus":
        p.add_argument("--series", required=True)
        p.add_argument("--presentation", choices=("raw", "normalized"))
        if name == "cpn":
            n_or_max_n = p.add_mutually_exclusive_group(required=True)
            n_or_max_n.add_argument("--n", type=size)
            n_or_max_n.add_argument("--max-n", dest="max_n", type=size)
        elif name == "table":
            p.add_argument("--max-n", dest="max_n", type=size, required=True)
        else:
            p.add_argument("--dim", type=size, required=True)
            p.add_argument("--chern", required=True)
    elif command == "witten":
        p.add_argument("--x-order", dest="x_order", type=size, default=10)
        p.add_argument("--q-order", dest="q_order", type=size, default=8)
        p.add_argument("--log", action="store_true", help="emit log of the series")
    elif command == "series":
        p.add_argument("--input", default="-", help="path to Series1 JSON (default stdin)")
        p.set_defaults(op=_SERIES_OPS[name])
    elif command == "verify":
        p.add_argument("--suite", default="all")
        p.add_argument("--order", type=size)
    p.set_defaults(run=_LEAVES[path])
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full parser, of every command path; a leaf parser it nests is the
    one _leaf builds alone."""
    parser = _Parser(
        prog="genusforge",
        description="Exact computer algebra for formal group laws and Hirzebruch genera.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path in _LEAVES:
        command = path[0]
        if len(path) == 1:
            _arguments(sub.add_parser(command, help=_HELP[command]), path)
            continue
        if command not in groups:
            group = sub.add_parser(command, help=_HELP[command])
            groups[command] = group.add_subparsers(dest=f"{command}_cmd", required=True)
        _arguments(groups[command].add_parser(path[1]), path)
    return parser


@lru_cache(maxsize=None)
def _leaf(path) -> argparse.ArgumentParser:
    """The parser of one command path, built on its first use."""
    return _arguments(_Parser(prog=" ".join(("genusforge", *path))), path)


# A message may quote raw input (argparse's "unrecognized arguments" does),
# so every character str.splitlines breaks at is escaped to keep it one line.
_ESCAPE_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _parse(argv):
    """argv parsed by the parser of its command path, else by the full one."""
    for depth in (1, 2):
        path = tuple(argv[:depth])
        if path in _LEAVES:
            return _leaf(path).parse_args(argv[depth:])
    return build_parser().parse_args(argv)


def _fail(code: int, message: str) -> int:
    sys.stderr.write(f"error: {message.translate(_ESCAPE_LINE_BREAKS)}\n")
    return code


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        obj, passed = args.run(args)
        _emit(obj)
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        return _fail(EXIT_INTERRUPTED, "interrupted")
    except (MemoryError, RecursionError) as exc:
        return _fail(EXIT_USAGE, f"request too large: {str(exc) or type(exc).__name__}")
    except (ValueError, LookupError, ArithmeticError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def run():
    """The process entry point: main's code, or that of the SystemExit that
    ends --help, once stdout and stderr are flushed.  The package has no
    atexit handler or thread, so ending without teardown loses nothing."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_OK
    except OSError as exc:
        code = _fail(EXIT_USAGE, str(exc))
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
