"""Spans and counters around genusforge's public functions.

The wrappers are installed from outside the package: every namespace of a
loaded genusforge module that holds a traced function gets the wrapper, so a
name imported into another module (compose1_2 in fgl, catalog in genus) is
traced there too.  Ring multiply and add are too frequent for one span each:
they are counted and timed in aggregate, and their time is charged to the
enclosing span as covered by children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (layer, metric stem, module, attribute); the attribute may be "Class.method".
SPANNED = (
    ("series", "s1_mul", "genusforge.series", "Series1.__mul__"),
    ("series", "s1_mul", "genusforge.series", "Series1.__rmul__"),
    ("series", "s2_mul", "genusforge.series", "Series2.__mul__"),
    ("series", "s2_mul", "genusforge.series", "Series2.__rmul__"),
    ("series", "revert", "genusforge.series", "Series1.revert"),
    ("series", "compose1_2", "genusforge.series", "compose1_2"),
    ("series", "bivariate_from_exp", "genusforge.series", "bivariate_from_exp"),
    ("fgl", "catalog", "genusforge.fgl", "catalog"),
    ("fgl", "check_axioms", "genusforge.fgl", "check_axioms"),
    ("symfun", "alphabet_product", "genusforge.symfun", "series_product_over_alphabet"),
    ("symfun", "truncate_roots", "genusforge.symfun", "truncate_roots"),
    ("symfun", "multiplicative_sequence", "genusforge.symfun", "multiplicative_sequence"),
    ("symfun", "symmetric_in_elementary", "genusforge.symfun", "symmetric_in_elementary"),
    ("genus", "genus_series", "genusforge.genus", "genus_series"),
    ("genus", "genus_of", "genusforge.genus", "genus_of"),
    ("genus", "msp_agreement", "genusforge.genus", "msp_agreement_check"),
    ("genus", "witten_series", "genusforge.genus", "witten_series"),
    ("cli", "main", "genusforge.cli", "main"),
    ("cli", "emit", "genusforge.cli", "_emit"),
)
LAYERS = ("ring", "series", "fgl", "symfun", "genus", "verify", "cli")
VERIFY_SUITES = ("fgl", "gamma", "iso", "witten", "universal")

# Per-layer metrics in the order they are reported, with their units.
METRICS = (
    ("ring.mul_calls", "count"),
    ("ring.term_products", "count"),
    ("ring.add_calls", "count"),
    ("ring.mul_s", "s"),
    ("ring.add_s", "s"),
    ("ring.peak_terms", "count"),
    ("ring.max_den_bits", "bits"),
    ("ring.monomial_cache_hit_ratio", "ratio"),
    ("series.s1_mul_calls", "count"),
    ("series.s1_mul_s", "s"),
    ("series.s2_mul_calls", "count"),
    ("series.s2_mul_s", "s"),
    ("series.revert_calls", "count"),
    ("series.revert_s", "s"),
    ("series.compose1_2_s", "s"),
    ("series.bivariate_from_exp_s", "s"),
    ("fgl.catalog_calls", "count"),
    ("fgl.catalog_distinct", "count"),
    ("fgl.catalog_reuse_ratio", "ratio"),
    ("fgl.catalog_s", "s"),
    ("fgl.check_axioms_s", "s"),
    ("symfun.alphabet_product_calls", "count"),
    ("symfun.alphabet_product_s", "s"),
    ("symfun.truncate_roots_kept_ratio", "ratio"),
    ("symfun.multiplicative_sequence_s", "s"),
    ("symfun.symmetric_in_elementary_s", "s"),
    ("genus.genus_series_s", "s"),
    ("genus.genus_of_s", "s"),
    ("genus.msp_agreement_s", "s"),
    ("genus.witten_series_s", "s"),
) + tuple((f"verify.suite_{s}_s", "s") for s in VERIFY_SUITES) + (
    ("cli.main_s", "s"),
    ("cli.emit_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS)


def _terms(x):
    """The coefficient values of a RingElement, or None for a plain scalar."""
    terms = getattr(x, "_terms", None)
    if isinstance(terms, dict):
        return terms.values()
    if hasattr(x, "terms"):
        return [c for _, c in x.terms()]
    return None


def _size(x) -> int:
    terms = _terms(x)
    return 1 if terms is None else len(terms)


class Tracer:
    """Collects spans [name, start, end, parent, leaf_s] and ring counters.

    leaf_s is the time of aggregated ring operations made directly under the
    span; it counts as covered by children when self time is computed.
    """

    def __init__(self):
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self.ring = defaultdict(float)
        self.peak_terms = 0
        self.max_den_bits = 0
        self.catalog_keys: "set" = set()
        self.roots_in = 0
        self.roots_out = 0
        self._undo: "list[tuple[object, str, object]]" = []
        self._cache_start = None

    # -- recording ------------------------------------------------------------

    def wrap_span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_ring(self, kind: str, fn):
        spans, stack, clock, ring = self.spans, self._stack, time.perf_counter, self.ring
        calls, seconds = f"{kind}_calls", f"{kind}_s"
        is_mul = kind == "mul"

        def traced(a, b):
            t0 = clock()
            out = fn(a, b)
            dt = clock() - t0
            if out is NotImplemented:
                return out
            if stack:
                spans[stack[-1]][4] += dt
            ring[calls] += 1
            ring[seconds] += dt
            if is_mul:
                ring["term_products"] += _size(a) * _size(b)
            terms = _terms(out)
            if terms is not None:
                if len(terms) > self.peak_terms:
                    self.peak_terms = len(terms)
                if is_mul:
                    for c in terms:
                        bits = getattr(c, "denominator", 1).bit_length()
                        if bits > self.max_den_bits:
                            self.max_den_bits = bits
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "genusforge" and not modname.startswith("genusforge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from genusforge import ring, verify

        cls = ring.RingElement
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap_ring("mul" if "mul" in attr else "add", original))

        observers = {"catalog": self._observe_catalog, "truncate_roots": self._observe_roots}
        for layer, stem, modname, attr in SPANNED:
            module = importlib.import_module(modname)
            name = f"{layer}.{stem}"
            if "." in attr:
                owner, method = attr.split(".")
                owner = getattr(module, owner)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self.wrap_span(name, original))
            else:
                original = getattr(module, attr)
                self._replace(original, self.wrap_span(name, original, observers.get(stem)))

        builders = getattr(verify, "_SUITE_BUILDERS", {})
        for suite, fn in list(builders.items()):
            builders[suite] = self.wrap_span(f"verify.suite_{suite}", fn)
            self._undo.append((builders, suite, fn))

        cache_info = getattr(getattr(ring, "_mul_monomials", None), "cache_info", None)
        self._cache_start = cache_info() if cache_info else None

    def uninstall(self) -> None:
        from genusforge import ring

        cache_info = getattr(getattr(ring, "_mul_monomials", None), "cache_info", None)
        if self._cache_start is not None and cache_info is not None:
            end = cache_info()
            self.ring["cache_hits"] = end.hits - self._cache_start.hits
            self.ring["cache_misses"] = end.misses - self._cache_start.misses
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def _observe_catalog(self, args, kwargs, result) -> None:
        name = args[0] if args else kwargs.get("name")
        order = args[1] if len(args) > 1 else kwargs.get("order")
        params = args[2] if len(args) > 2 else kwargs.get("params")
        key = tuple(sorted((k, str(v)) for k, v in (params or {}).items()))
        self.catalog_keys.add((name, order, key))

    def _observe_roots(self, args, kwargs, result) -> None:
        self.roots_in += _size(args[0] if args else kwargs.get("f"))
        self.roots_out += _size(result)

    # -- summary --------------------------------------------------------------

    def metrics(self) -> "dict[str, float]":
        spans = self.spans
        counts = defaultdict(int)
        inclusive = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            counts[name] += 1
            if not _has_ancestor_named(spans, parent, name):
                inclusive[name] += end - start
        layer_self = defaultdict(float)
        for (name, *_), own in zip(spans, self_times(spans)):
            layer_self[name.split(".")[0]] += own
        layer_self["ring"] += self.ring["mul_s"] + self.ring["add_s"]

        ring = self.ring
        lookups = ring["cache_hits"] + ring["cache_misses"]
        catalog_calls = counts["fgl.catalog"]
        out = {
            "ring.mul_calls": int(ring["mul_calls"]),
            "ring.term_products": int(ring["term_products"]),
            "ring.add_calls": int(ring["add_calls"]),
            "ring.mul_s": ring["mul_s"],
            "ring.add_s": ring["add_s"],
            "ring.peak_terms": self.peak_terms,
            "ring.max_den_bits": self.max_den_bits,
            "ring.monomial_cache_hit_ratio": ring["cache_hits"] / lookups if lookups else 0.0,
            "series.s1_mul_calls": counts["series.s1_mul"],
            "series.s1_mul_s": inclusive["series.s1_mul"],
            "series.s2_mul_calls": counts["series.s2_mul"],
            "series.s2_mul_s": inclusive["series.s2_mul"],
            "series.revert_calls": counts["series.revert"],
            "series.revert_s": inclusive["series.revert"],
            "series.compose1_2_s": inclusive["series.compose1_2"],
            "series.bivariate_from_exp_s": inclusive["series.bivariate_from_exp"],
            "fgl.catalog_calls": catalog_calls,
            "fgl.catalog_distinct": len(self.catalog_keys),
            "fgl.catalog_reuse_ratio": len(self.catalog_keys) / catalog_calls if catalog_calls else 0.0,
            "fgl.catalog_s": inclusive["fgl.catalog"],
            "fgl.check_axioms_s": inclusive["fgl.check_axioms"],
            "symfun.alphabet_product_calls": counts["symfun.alphabet_product"],
            "symfun.alphabet_product_s": inclusive["symfun.alphabet_product"],
            "symfun.truncate_roots_kept_ratio": self.roots_out / self.roots_in if self.roots_in else 0.0,
            "symfun.multiplicative_sequence_s": inclusive["symfun.multiplicative_sequence"],
            "symfun.symmetric_in_elementary_s": inclusive["symfun.symmetric_in_elementary"],
            "genus.genus_series_s": inclusive["genus.genus_series"],
            "genus.genus_of_s": inclusive["genus.genus_of"],
            "genus.msp_agreement_s": inclusive["genus.msp_agreement"],
            "genus.witten_series_s": inclusive["genus.witten_series"],
        }
        for suite in VERIFY_SUITES:
            out[f"verify.suite_{suite}_s"] = inclusive[f"verify.suite_{suite}"]
        out["cli.main_s"] = inclusive["cli.main"]
        out["cli.emit_s"] = inclusive["cli.emit"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out


def _has_ancestor_named(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans) -> "list[float]":
    """Each span's duration minus the part of it covered by its child spans
    (their union, clipped to the span) and by its aggregated leaf time."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, leaf) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - leaf)
    return out
