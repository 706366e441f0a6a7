"""Per-layer tracing of gluekit from outside the package.

``Tracer.installed()`` replaces each listed public function with a wrapper
in every gluekit module namespace that binds it; ``topglue``, ``sheafglue``,
``ringedglue`` and ``generators`` bind names with ``from .indexcat import``
and ``from .fintop import``, so patching only the defining module would miss
their calls.  A wrapper records a span (function, start, end, parent span,
document) and adds the span's self time: its duration minus the time its
child spans cover.  Extra work counts are computed from call arguments,
return values and ``cache_info()`` only, so they repeat exactly on a seed.
"""

from __future__ import annotations

import array
import gzip
import inspect
import json
import sys
import time
from contextlib import contextmanager

# layer (gluekit module) -> public functions wrapped in a span
LAYERS = {
    "cli": ("run_pipeline",),
    "jsonio": ("parse_document",),
    "indexcat": ("generator_path", "check_generator_relations"),
    "fintop": ("make_space", "coproduct", "quotient_final", "is_continuous"),
    "generators": ("random_cone",),
    "topglue": (
        "functor_from_data",
        "validate_functor",
        "standard_representative",
        "verify_glued",
        "is_cone",
        "mediating_morphism",
        "count_mediating_functions",
    ),
    "intlinalg": ("snf", "mat_mul", "solve", "kernel_basis"),
    "abgroups": ("kernel", "equalizer", "factor_through", "compose_hom", "same_hom"),
    "presheaves": ("make_presheaf", "is_sheaf", "sheaf_condition_on_cover"),
    "sheafglue": (
        "sheaf_functor_from_data",
        "build_limit_sheaf",
        "verify_sheaf_glued",
        "check_sheaf_cone",
    ),
    "rings": ("make_ring", "is_ring_hom", "is_local_ring"),
    "ringedglue": (
        "validate_ringed_functor",
        "glue_ringed",
        "ring_sheaf_failures",
        "verify_ringed_glued",
    ),
}

# called millions of times: counted, never wrapped in a span
COUNTED = ("indexcat.single",)

# metric name -> (unit, better) for the counts beyond calls and self time
EXTRA_METRICS = {
    "indexcat.single.calls": ("count", "lower"),
    "indexcat.generator_path.hit_ratio": ("ratio", "higher"),
    "fintop.quotient_final.masks": ("count", "lower"),
    "topglue.verify_glued.final_masks": ("count", "lower"),
    "topglue.count_mediating_functions.enumerated": ("count", "lower"),
    "topglue.count_mediating_functions.useful_ratio": ("ratio", "higher"),
    "intlinalg.snf.hit_ratio": ("ratio", "higher"),
    "intlinalg.snf.cache_entries": ("count", "lower"),
    "intlinalg.snf.max_digits": ("digits", "lower"),
    "presheaves.covers_per_sheaf_check": ("covers/check", "lower"),
    "ringedglue.glue_ringed.combos": ("count", "lower"),
    "ringedglue.glue_ringed.kept_ratio": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# the functions or layers whose self time each workload was chosen to stress
LEADERS = {
    "top_cones": ("topglue.count_mediating_functions", "topglue.is_cone"),
    "top_chain": ("topglue.verify_glued", "fintop.quotient_final"),
    "sheaf_rank3": ("intlinalg",),
    "ringed_zmod": ("ringedglue", "rings"),
}


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for name in function_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update(EXTRA_METRICS)
    return out


def gluekit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gluekit" or name.startswith("gluekit."))]


def clear_caches() -> None:
    """Empty every lru_cache in gluekit, as a fresh ``glue`` process has them."""
    for mod in gluekit_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def section_tuples(g, opens, legs) -> dict:
    """Per open of the glued space, the section tuples glue_ringed tries:
    the product of the chart ring orders over the open's preimages."""
    sizes = {}
    for v in opens:
        size = 1
        for i in range(g.n):
            size *= g.charts[i].ring(legs[i].preimage_of(v)).order
        sizes[v] = size
    return sizes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _max_digits(matrices) -> int:
    return max((len(str(abs(x))) for m in matrices for row in m for x in row), default=0)


class Tracer:
    """Spans and counts for the wrapped gluekit functions; one per run."""

    def __init__(self):
        self.names = function_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(
            ("single", "quotient_masks", "final_masks", "enumerated", "combos", "kept",
             "snf_max_digits", "snf_hits", "snf_misses", "snf_entries",
             "path_hits", "path_misses"), 0)
        self.doc = 0  # index of the document being verified; advanced from outside
        self.span_fn = array.array("i")
        self.span_parent = array.array("i")
        self.span_doc = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._originals = {}
        self._snf_misses = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, fid: int, fn, hook):
        stack, clock = self._stack, time.perf_counter
        fns, parents, docs = self.span_fn, self.span_parent, self.span_doc
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1][0] if stack else -1)
            docs.append(self.doc)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                calls[fid] += 1
                self_s[fid] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                # the hook's own time is hidden from the parent's self time
                h0 = clock()
                hook(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["single"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counts from arguments and results -------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def bound(name):
            sig = inspect.signature(self._originals[name])

            def bind(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                return b.arguments
            return bind

        def quotient_final(args, kwargs, result):
            counts["quotient_masks"] += 1 << result[0].n

        verify_glued_args = bound("topglue.verify_glued")

        def verify_glued(args, kwargs, result):
            counts["final_masks"] += 1 << verify_glued_args(args, kwargs)["q"].n

        count_args = bound("topglue.count_mediating_functions")

        def count_mediating(args, kwargs, result):
            a = count_args(args, kwargs)
            napex, points = a["cone"].apex.n, a["glued"].space.n
            total = napex ** points if points else 1
            if 0 < total <= a["exhaustive_limit"] and napex > 0:
                counts["enumerated"] += total

        snf = self._originals["intlinalg.snf"]

        def snf_hook(args, kwargs, result):
            misses = snf.cache_info().misses
            if misses != self._snf_misses:  # computed, not served from the cache
                self._snf_misses = misses
                u, _, v = result
                counts["snf_max_digits"] = max(counts["snf_max_digits"], _max_digits((u, v)))

        glue_args = bound("ringedglue.glue_ringed")

        def glue_ringed(args, kwargs, result):
            g = glue_args(args, kwargs)["g"]
            sizes = section_tuples(g, result.space.top.opens, result.top_legs)
            counts["combos"] += sum(sizes.values())
            counts["kept"] += sum(len(result.members[v]) for v in sizes)

        return {
            "fintop.quotient_final": quotient_final,
            "topglue.verify_glued": verify_glued,
            "topglue.count_mediating_functions": count_mediating,
            "intlinalg.snf": snf_hook,
            "ringedglue.glue_ringed": glue_ringed,
        }

    @contextmanager
    def installed(self):
        """Patch every binding of the listed functions for the duration.

        The caller empties the gluekit caches first (``clear_caches``), so
        the cache statistics read at the end belong to this use alone."""
        mods = {m.__name__: m for m in gluekit_modules()}
        for name in self.names + list(COUNTED):
            layer, fn = name.split(".")
            self._originals[name] = getattr(mods[f"gluekit.{layer}"], fn)
        hooks = self._hooks()
        self._snf_misses = self._originals["intlinalg.snf"].cache_info().misses
        replacement = {id(self._originals[n]): self._span(fid, self._originals[n], hooks.get(n))
                       for fid, n in enumerate(self.names)}
        for name in COUNTED:
            replacement[id(self._originals[name])] = self._count(self._originals[name])
        patched = []
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacement:
                    setattr(mod, attr, replacement[id(value)])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)
            for key, name in (("path", "indexcat.generator_path"), ("snf", "intlinalg.snf")):
                info = self._originals[name].cache_info()
                self.counts[f"{key}_hits"] += info.hits
                self.counts[f"{key}_misses"] += info.misses
            self.counts["snf_entries"] = max(
                self.counts["snf_entries"], self._originals["intlinalg.snf"].cache_info().currsize)

    # -- results --------------------------------------------------------

    def function_self_s(self) -> dict[str, float]:
        return dict(zip(self.names, self.self_s))

    def lead(self, group) -> tuple[float, str, float]:
        """Share of traced self time taken by ``group`` (function names, or
        layer names), and the largest share of any other function (or layer)
        outside it: the group leads when its share is the larger."""
        by_layer = "." not in group[0]
        shares: dict[str, float] = {}
        for name, s in self.function_self_s().items():
            unit = name.split(".")[0] if by_layer else name
            shares[unit] = shares.get(unit, 0.0) + s
        total = sum(shares.values())
        picked = sum(shares[u] for u in group)
        rival = max((u for u in shares if u not in group), key=shares.get)
        return _ratio(picked, total), rival, _ratio(shares[rival], total)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac."""
        c = self.counts
        calls = dict(zip(self.names, self.calls))
        own = self.function_self_s()
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for name, s in own.items() if name.split(".")[0] == layer)
        out.update({
            "indexcat.single.calls": c["single"],
            "indexcat.generator_path.hit_ratio": _ratio(c["path_hits"], c["path_hits"] + c["path_misses"]),
            "fintop.quotient_final.masks": c["quotient_masks"],
            "topglue.verify_glued.final_masks": c["final_masks"],
            "topglue.count_mediating_functions.enumerated": c["enumerated"],
            "topglue.count_mediating_functions.useful_ratio": _ratio(
                calls["topglue.count_mediating_functions"], c["enumerated"]),
            "intlinalg.snf.hit_ratio": _ratio(c["snf_hits"], c["snf_hits"] + c["snf_misses"]),
            "intlinalg.snf.cache_entries": c["snf_entries"],
            "intlinalg.snf.max_digits": c["snf_max_digits"],
            "presheaves.covers_per_sheaf_check": _ratio(
                calls["presheaves.sheaf_condition_on_cover"], calls["presheaves.is_sheaf"]),
            "ringedglue.glue_ringed.combos": c["combos"],
            "ringedglue.glue_ringed.kept_ratio": _ratio(c["kept"], c["combos"]),
        })
        return out

    def write_spans(self, path: str, doc_names: list[str]) -> None:
        """All spans, column by column, as gzip-compressed JSON."""
        columns = {
            "fn": self.span_fn.tolist(),
            "parent": self.span_parent.tolist(),
            "doc": self.span_doc.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "docs": doc_names, "spans": columns}, fh)
