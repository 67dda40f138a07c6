"""Span tracing of ncgeode from outside the package.

The tracer wraps public callables of the package after import.  Every call
through a wrapper records one span: a name, a start and end time, the span
that was open when it began and the time the wrapper spent around the call.
Spans stay in memory (flat arrays) until the session writes them out; self
times, totals and call counts are derived from the arrays afterwards, never
while the session runs.

A span's own interval covers only the wrapped call.  The wrapper's
bookkeeping and its counter hooks run outside that interval but inside the
wrapper's outer interval, and a parent's self time subtracts its children's
outer intervals.  So that cost lands in no span's ``self_s``; it shows only
in the traced session time, and so in ``trace.overhead_s``.

A wrapped name is replaced in every ``ncgeode`` module namespace that bound
the same object, because ``from .ncsf import series_mul`` copies the binding
into the importing module.  A method is replaced under every class attribute
that holds the same function, so ``PolyT.__rmul__ = __mul__`` aliases are
covered.  ``lru_cache`` wrappers keep ``cache_info`` and ``cache_clear``
reachable through the trace wrapper, so hit ratios can still be read.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span store plus named work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.exceptions = 0
        self.active = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = -1,
                 outer: float | None = None) -> int:
        """Append a finished span directly; used to build synthetic traces.

        ``outer`` is the duration of the wrapper around the call, by default
        the span's own duration.
        """
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.outer.append(end - start if outer is None else outer)
        return idx

    # -- derived statistics ------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``.

        Self time is a span's duration minus the outer durations of its
        direct children; one thread means children never overlap each other.
        ``total_s`` sums only the outermost span of each recursive nest, so
        a recursive callable is not counted twice.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.outer[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if not self._has_ancestor_named(i, nid):
                total_s[nid] += dur
        return {name: {"calls": calls[k], "self_s": self_s[k], "total_s": total_s[k]}
                for k, name in enumerate(self.names)}

    def _has_ancestor_named(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span a line, in call order.

        ``parent`` is the line index (from 0) of the enclosing span, or -1.
        """
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({"name": self.names[self.name[i]],
                                     "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i]}) + "\n")


def make_wrapper(tracer: Tracer, name, fn, before=None, after=None):
    """Wrap ``fn`` so each call records a span.

    ``name`` is a span name, or a function of the call arguments returning
    one.  ``before(tracer, args)`` and ``after(tracer, args, result)`` update
    work counters; they run outside the span's own interval.
    """
    fixed = None if callable(name) else tracer.name_id(name)
    clock = time.perf_counter
    names, parents, starts, ends, outers, stack = (
        tracer.name, tracer.parent, tracer.start, tracer.end, tracer.outer, tracer.stack)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        entered = clock()
        if before is not None:
            before(tracer, args)
        idx = len(names)
        names.append(fixed if fixed is not None else tracer.name_id(name(args, kwargs)))
        parents.append(stack[-1])
        starts.append(0.0)
        ends.append(0.0)
        outers.append(0.0)
        stack.append(idx)
        starts[idx] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            ends[idx] = clock()
            stack.pop()
            tracer.exceptions += 1
            outers[idx] = clock() - entered
            raise
        ends[idx] = clock()
        stack.pop()
        if after is not None:
            after(tracer, args, result)
        outers[idx] = clock() - entered
        return result

    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


class Patch:
    """Installed wrappers, remembered so they can be undone."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def wrap_function(patch: Patch, tracer: Tracer, modules, module, attr, name,
                  before=None, after=None):
    """Wrap ``module.attr`` and rebind it in every namespace of ``modules``."""
    original = getattr(module, attr)
    wrapper = make_wrapper(tracer, name, original, before, after)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                patch.set(mod, key, wrapper)
    return wrapper


def wrap_method(patch: Patch, tracer: Tracer, cls, attr, name,
                before=None, after=None):
    """Wrap ``cls.attr`` under every attribute name that aliases it."""
    original = cls.__dict__[attr]
    wrapper = make_wrapper(tracer, name, original, before, after)
    for key, value in list(vars(cls).items()):
        if value is original:
            patch.set(cls, key, wrapper)
    return wrapper


# ---------------------------------------------------------------------------
# what is traced in ncgeode


def _polyt_products(tracer, args):
    # PolyT.__mul__ skips zero coefficients of its left factor
    a, b = args
    if hasattr(b, "coeffs"):
        products = sum(1 for c in a.coeffs if c) * len(b.coeffs)
    else:
        products = len(a.coeffs)
    tracer.counters["coeffring.PolyT.mul.coeff_products"] += products


def _series_pairs(tracer, args):
    u, v = args
    order = min(u.order, v.order)
    pairs = 0
    for da in range(order + 1):
        na = len(u.components[da])
        if na:
            for db in range(order + 1 - da):
                pairs += na * len(v.components[db])
    tracer.counters["ncsf.series_mul.pairs"] += pairs


def _series_terms_out(tracer, args, result):
    tracer.counters["ncsf.series_mul.terms_out"] += sum(len(c) for c in result.components)


def _g_e_route(args, kwargs):
    route = args[1] if len(args) > 1 else kwargs.get("route", "delta")
    return f"schroeder.g_e.{route}"


# (module, callable, span name, before hook, after hook); a dotted callable
# names a method.  The span name is the metric prefix in BENCHMARK.json.
TARGETS = [
    ("coeffring", "PolyT.__mul__", "coeffring.PolyT.mul", _polyt_products, None),
    ("coeffring", "PolyT.__add__", "coeffring.PolyT.add", None, None),
    ("coeffring", "PolyT.scale_div", "coeffring.PolyT.scale_div", None, None),
    ("coeffring", "binomial_polynomial", "coeffring.binomial_polynomial", None, None),
    ("coeffring", "EPoly.__mul__", "coeffring.EPoly.mul", None, None),
    ("coeffring", "EPoly.__add__", "coeffring.EPoly.add", None, None),
    ("coeffring", "elementary_of_multiple", "coeffring.elementary_of_multiple", None, None),
    ("combinat", "plane_tree_codes_with_nodes", "combinat.plane_tree_codes_with_nodes", None, None),
    ("combinat", "coarsenings", "combinat.coarsenings", None, None),
    ("ncsf", "NcsfSeries.__init__", "ncsf.NcsfSeries.init", None, None),
    ("ncsf", "series_mul", "ncsf.series_mul", _series_pairs, _series_terms_out),
    ("ncsf", "series_inverse", "ncsf.series_inverse", None, None),
    ("ncsf", "right_divide", "ncsf.right_divide", None, None),
    ("ncsf", "convert_basis", "ncsf.convert_basis", None, None),
    ("ncsf", "negate_alphabet", "ncsf.negate_alphabet", None, None),
    ("ncsf", "lagrange_transform", "ncsf.lagrange_transform", None, None),
    ("ncsf", "series_power_binomial", "ncsf.series_power_binomial", None, None),
    ("ncsf", "annihilate", "ncsf.annihilate", None, None),
    ("lagrange", "solve_g", "lagrange.solve_g", None, None),
    ("lagrange", "delta_coefficient", "lagrange.delta_coefficient", None, None),
    ("lagrange", "g_t", "lagrange.g_t", None, None),
    ("lagrange", "gamma_t", "lagrange.gamma_t", None, None),
    ("lagrange", "h_t", "lagrange.h_t", None, None),
    ("lagrange", "eta_t", "lagrange.eta_t", None, None),
    ("schroeder", "solve_xy_system", "schroeder.solve_xy_system", None, None),
    ("schroeder", "delta_e_coefficient", "schroeder.delta_e_coefficient", None, None),
    ("schroeder", "enumerate_schroeder", "schroeder.enumerate_schroeder", None, None),
    ("schroeder", "right_branch_partition", "schroeder.right_branch_partition", None, None),
    ("schroeder", "root_children", "schroeder.root_children", None, None),
    ("schroeder", "g_e", _g_e_route, None, None),
    ("gfseries", "closed_form", "gfseries.closed_form", None, None),
    ("gfseries", "specialize_ncsf", "gfseries.specialize_ncsf", None, None),
    ("render", "series_to_json_dict", "render.series_to_json_dict", None, None),
    ("render", "series_to_text", "render.series_to_text", None, None),
    ("verify", "paper_suite", "verify.paper_suite", None, None),
    ("verify", "identities_suite", "verify.identities_suite", None, None),
    ("verify", "oeis_suite", "verify.oeis_suite", None, None),
    ("cli", "main", "cli.main", None, None),
]

# Span names whose ``hit_ratio`` metric is read from ``cache_info``.
CACHED = {
    "coeffring.elementary_of_multiple": ("coeffring", "elementary_of_multiple"),
    "lagrange.solve_g": ("lagrange", "solve_g"),
    "lagrange.delta_coefficient": ("lagrange", "delta_coefficient"),
    "schroeder.delta_e_coefficient": ("schroeder", "delta_e_coefficient"),
}


def install_ncgeode(tracer: Tracer) -> Patch:
    """Wrap every target of ``TARGETS`` in the imported ncgeode package."""
    import importlib
    for modname in {target[0] for target in TARGETS}:
        importlib.import_module(f"ncgeode.{modname}")
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "ncgeode" or key.startswith("ncgeode.")]
    patch = Patch()
    for modname, attr, name, before, after in TARGETS:
        module = sys.modules[f"ncgeode.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            wrap_method(patch, tracer, getattr(module, cls_name), meth, name, before, after)
        else:
            wrap_function(patch, tracer, modules, module, attr, name, before, after)
    return patch


def cache_counts() -> dict[str, tuple[int, int]]:
    """Current (hits, misses) of each cached target."""
    out = {}
    for name, (modname, attr) in CACHED.items():
        info = getattr(sys.modules[f"ncgeode.{modname}"], attr).cache_info()
        out[name] = (info.hits, info.misses)
    return out


# Work counters filled by the hooks, read as metrics under the same names.
COUNTERS = ("coeffring.PolyT.mul.coeff_products", "ncsf.series_mul.pairs",
            "ncsf.series_mul.terms_out")
SPAN_NAMES = frozenset(
    [name for _, _, name, _, _ in TARGETS if not callable(name)]
    + [f"schroeder.g_e.{route}" for route in ("delta", "system", "trees")])


def layer_metrics(tracer: Tracer, summary, caches_before, caches_after,
                  names) -> dict[str, float]:
    """The value of each per-layer metric in ``names``.

    A name is ``<span name>.<stat>`` with a stat of ``calls``, ``self_s``,
    ``total_s`` or (for a cached target) ``hit_ratio``, or one of
    ``COUNTERS``.  ``summary`` is ``tracer.summary()``; a span name that
    never occurred reads 0.  An unknown name raises ``KeyError``.
    """
    out: dict[str, float] = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if metric in COUNTERS:
            out[metric] = tracer.counters.get(metric, 0)
        elif stat == "hit_ratio" and span in CACHED:
            hits = caches_after[span][0] - caches_before[span][0]
            misses = caches_after[span][1] - caches_before[span][1]
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        elif stat in ("calls", "self_s", "total_s") and span in SPAN_NAMES:
            out[metric] = summary.get(span, {}).get(stat, 0)
        else:
            raise KeyError(f"no per-layer metric {metric!r}")
    return out


def layer_shares(summary: dict[str, dict[str, float]], wall: float) -> dict[str, float]:
    """Self time grouped by layer, as a share of the traced session time.

    ``PolyT`` and ``EPoly`` are reported apart from the rest of ``coeffring``;
    ``untraced`` is the session time in no span's self time: outside every
    top-level span, or in the wrappers and hooks around traced calls.
    """
    groups: dict[str, float] = defaultdict(float)
    for name, stats in summary.items():
        parts = name.split(".")
        key = ".".join(parts[:2]) if parts[1] in ("PolyT", "EPoly") else parts[0]
        groups[key] += stats["self_s"]
    groups["untraced"] = max(wall - sum(groups.values()), 0.0)
    return {k: v / wall for k, v in sorted(groups.items())} if wall > 0 else {}
