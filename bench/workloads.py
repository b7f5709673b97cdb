"""Inputs of the benchmark, built without importing genusforge.

verify_all runs one fixed command.  cli_requests replays a seeded block of
CLI requests drawn from a finite request catalog, so that every request has
an output digest frozen from the seed commit in references.json.  Every round
of a run repeats the same operations.  The traced verify_all run also climbs
a budgeted gamma_raw ladder for the highest order built within a budget.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# The verify order is 6, not the ROADMAP's 12: one order-12 verify takes
# about 55 s on a 2-vCPU shared VM (Intel Xeon, 2.0 GHz), longer than a whole
# benchmark run may last, and an order-6 verify (1.4-2.5 s there) fits twenty
# repetitions into a 40-s run.
VERIFY_ORDER = 6
VERIFY_ARGV = ("verify", "--suite", "all", "--order", str(VERIFY_ORDER))
# The ROADMAP's behaviour contract, checked by `freeze.py --contract`.
CONTRACT_ARGV = ("verify", "--suite", "all", "--order", "12")
CONTRACT_SHA256 = "e3aafc0ea673ed2c0156c5d31f3fd781fd9eee3d1eb47980fe465cc4414bae03"

# The budgeted ladder builds gamma_raw at LADDER_START, LADDER_START + 1, ...,
# each step (catalog + check_axioms) in a child process, until a step's
# probe-rescaled time (cpu.scaled) exceeds STEP_BUDGET_S.  On a 2-vCPU shared VM (Intel Xeon, 2.0 GHz) the seed commit
# takes about 4 s at order 11 and 12 s at order 12, so the budget sits 1.6x
# above the one and 1.8x below the other.
LADDER_LAW = "gamma_raw"
LADDER_START = 8
STEP_BUDGET_S = 6.5
LADDER_MAX_ORDER = 40

# Wall time of one round of the seed commit on that VM; a run does
# round(seconds / NOMINAL_ROUND_S) rounds, so its amount of work, its sample
# count and its tail percentile do not depend on the speed of the machine.
NOMINAL_ROUND_S = {"verify_all": 2.0, "cli_requests": 6.0}
WORKLOADS = tuple(NOMINAL_ROUND_S)
DEFAULT_SEED = 1
HELD_OUT_SEED = 20110108

# Fixed seed of the request catalog; the run seed only picks from it.
_CATALOG_SEED = 1101_1647


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


# -- budgeted ladder --------------------------------------------------------------


def step_key(law: str, order: int) -> str:
    return f"{law}/{order}"


# -- cli_requests -----------------------------------------------------------------


def partitions(d: int, largest: "int | None" = None) -> "list[tuple[int, ...]]":
    """Partitions of d as non-increasing tuples."""
    largest = d if largest is None else largest
    if d == 0:
        return [()]
    out = []
    for first in range(min(d, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(d - first, first))
    return out


def cpn_chern_numbers(n: int) -> "dict[tuple[int, ...], int]":
    """Chern numbers of CP^n: c(T) = (1 + x)^(n+1), so c_lambda = prod C(n+1, l)."""
    return {lam: math.prod(math.comb(n + 1, k) for k in lam) for lam in partitions(n)}


def chern_text(table: "dict[tuple[int, ...], int]") -> str:
    return ",".join(
        "*".join(f"c{k}" for k in lam) + f"={value}" for lam, value in table.items()
    )


def _random_table(rng: random.Random, d: int) -> "dict[tuple[int, ...], int]":
    return {lam: rng.randint(-9, 9) for lam in partitions(d)}


def _series_json(rng: random.Random, order: int, constant: int) -> str:
    """A Series1 in the CLI's JSON form with small rational coefficients."""
    coeffs = [constant, rng.choice((1, -1, 2, 3))]
    for _ in range(2, order + 1):
        num = rng.randint(-5, 5)
        coeffs.append((num, rng.randint(1, 4)) if num else 0)
    terms = []
    for c in coeffs:
        num, den = c if isinstance(c, tuple) else (c, 1)
        terms.append(
            {"terms": [{"den": str(den), "exps": {}, "num": str(num)}]} if num else {"terms": []}
        )
    return json.dumps({"order": order, "coeffs": terms}, sort_keys=True, separators=(",", ":"))


# Series of the median: rational or one-parameter coefficients.
_LIGHT_SERIES = ("todd", "ahat", "hyperbolic", "kontsevich", "multiplicative_t", "jacobi")
_TABLES = ("cpn", "r0", "r1")
# Request kinds with their copies per block.  A kind fixes the cost of a
# request; the seed picks its variant (Chern table, series input, q-order)
# and the order of the block.  Light kinds cost 1-50 ms, medium ones
# 10-300 ms and heavy ones (dim 5 over the zeta and e rings) about 350 ms,
# all cold.  With twelve heavy requests the p90 of the 108-request block,
# its 11th slowest request, lies inside the heavy class.  Dim-6 requests over
# those rings (1.3-2.8 s) are left out: one operation that long averages
# over the host's speed changes and cannot be timed steadily.
_MEDIUM = (
    ("chern", "kontsevich", 5),
    ("chern", "multiplicative_t", 5),
    ("chern", "chi_rescaled", 5),
    ("chern", "todd", 6),
    ("chern", "ahat", 6),
    ("chern", "hyperbolic", 6),
    ("chern", "jacobi", 6),
    ("chern", "gamma", 4),
    ("chern", "gamma_normalized", 4),
    ("chern", "universal_additive", 4),
    ("chern", "chi_rescaled", 4),
    ("cpn", "universal_additive", 8),
    ("table", "kontsevich", 8),
    ("witten", 10, 8),
)
_HEAVY = (
    ("chern", "gamma", 5),
    ("chern", "gamma_normalized", 5),
    ("chern", "universal_additive", 5),
)
HEAVY_COPIES = 4


class Request:
    """One CLI invocation: argv and stdin text, plus what checks it needs."""

    __slots__ = ("key", "argv", "stdin", "cpn")

    def __init__(self, key: str, argv, stdin: str = "", cpn=None):
        self.key = key
        self.argv = tuple(argv)
        self.stdin = stdin
        # (series, presentation, n) when the answer must equal genus(CP^n)
        self.cpn = cpn

    def input_digest(self) -> str:
        return digest([list(self.argv), self.stdin])


def _chern_request(series: str, dim: int, table: str, tables) -> Request:
    presentation = None
    name = series
    if series == "gamma_normalized":
        name, presentation = "gamma", "normalized"
    argv = ["genus", "chern", "--series", name, "--dim", str(dim)]
    if presentation:
        argv += ["--presentation", presentation]
    argv += ["--chern", chern_text(tables[(table, dim)])]
    cpn = (name, presentation, dim) if table == "cpn" else None
    return Request(f"chern/{series}/{dim}/{table}", argv, cpn=cpn)


def _kind_request(kind: tuple, table: str, tables) -> Request:
    if kind[0] == "chern":
        return _chern_request(kind[1], kind[2], table, tables)
    if kind[0] == "cpn":
        return Request(f"cpn/{kind[1]}/{kind[2]}", ["genus", "cpn", "--series", kind[1], "--n", str(kind[2])])
    if kind[0] == "table":
        return Request(
            f"table/{kind[1]}/{kind[2]}", ["genus", "table", "--series", kind[1], "--max-n", str(kind[2])]
        )
    if kind[0] == "witten":
        return Request(
            f"witten/{kind[1]}/{kind[2]}/log",
            ["witten", "--x-order", str(kind[1]), "--q-order", str(kind[2]), "--log"],
        )
    raise ValueError(f"unknown request kind {kind!r}")


def request_catalog() -> "dict[str, dict[str, list[Request]]]":
    """Every request the stream can contain: {class: {kind: variants}}."""
    rng = random.Random(_CATALOG_SEED)
    tables = {}
    for d in range(1, 7):
        tables[("cpn", d)] = cpn_chern_numbers(d)
        for t in _TABLES[1:]:
            tables[(t, d)] = _random_table(rng, d)

    def chern_kind(series, dim):
        return [_chern_request(series, dim, t, tables) for t in _TABLES]

    light: "dict[str, list[Request]]" = {}
    for series in _LIGHT_SERIES:
        for dim in range(1, 5):
            light[f"chern/{series}/{dim}"] = chern_kind(series, dim)
    for series in ("todd", "ahat", "hyperbolic", "kontsevich", "multiplicative_t"):
        for n in (2, 4, 6, 8):
            light[f"cpn/{series}/{n}"] = [_kind_request(("cpn", series, n), "", tables)]
    for series in ("todd", "ahat", "hyperbolic", "multiplicative_t"):
        for n in (3, 6):
            light[f"table/{series}/{n}"] = [_kind_request(("table", series, n), "", tables)]
    for x_order in (4, 6, 8):
        for log in ((), ("--log",)):
            suffix = "/log" if log else ""
            light[f"witten/{x_order}{suffix}"] = [
                Request(f"witten/{x_order}/{q}{suffix}",
                        ["witten", "--x-order", str(x_order), "--q-order", str(q), *log])
                for q in (2, 4)
            ]
    for op, constant in (("exp", 0), ("revert", 0), ("log", 1), ("sqrt", 1)):
        for order in (6, 10):
            light[f"series/{op}/{order}"] = [
                Request(f"series/{op}/{order}/{i}", ["series", op], stdin=_series_json(rng, order, constant))
                for i in range(4)
            ]
    for law in ("additive", "multiplicative", "multiplicative_t", "kontsevich", "jacobi"):
        for order in (6, 10):
            argv = ["fgl", "series", "--law", law, "--order", str(order)]
            light[f"fgl/{law}/{order}"] = [Request(f"fgl/{law}/{order}", argv)]
    for order in (6, 10):
        argv = ["fgl", "series", "--law", "jacobi", "--order", str(order),
                "--param", "delta=1/3", "--param", "epsilon=2"]
        light[f"fgl/jacobi-1_3-2/{order}"] = [Request(f"fgl/jacobi-1_3-2/{order}", argv)]
    for src, dst in (("kontsevich", "multiplicative"), ("hyperbolic", "additive"),
                     ("multiplicative", "additive"), ("kontsevich", "additive")):
        argv = ["fgl", "iso", "--from", src, "--to", dst, "--order", "8"]
        light[f"iso/{src}/{dst}"] = [Request(f"iso/{src}/{dst}/8", argv)]

    def kinds(specs):
        return {
            "/".join(map(str, kind)): (chern_kind(kind[1], kind[2]) if kind[0] == "chern"
                                       else [_kind_request(kind, "", tables)])
            for kind in specs
        }

    return {"light": light, "medium": kinds(_MEDIUM), "heavy": kinds(_HEAVY)}


def all_requests(catalog) -> "dict[str, Request]":
    return {r.key: r for cls in catalog.values() for variants in cls.values() for r in variants}


def request_block(seed: int, catalog=None) -> "list[Request]":
    """The seeded block a cli_requests run repeats: one request of every
    kind (HEAVY_COPIES of every heavy kind), each a seeded variant, in
    seeded order."""
    catalog = request_catalog() if catalog is None else catalog
    rng = random.Random(seed)
    block = []
    for cls, kinds in catalog.items():
        copies = HEAVY_COPIES if cls == "heavy" else 1
        for variants in kinds.values():
            block.extend(rng.choice(variants) for _ in range(copies))
    rng.shuffle(block)
    return block
