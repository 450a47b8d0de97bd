"""Per-layer spans and counts, recorded around the public functions of tropdiff.

Nothing here changes tropdiff's source.  install() wraps the functions and
methods listed in TARGETS and rebinds every name under which a tropdiff module
holds them.  Several modules import names directly (vertexpoly imports
covered, translation imports residue, trop_frac and substitution_poly, cli
imports the translation functions), and a call through such a name would miss
a wrapper installed only in the defining module.

Each wrapped call records a span: its name, start, end, the span that was
open when it started, and the problem it belongs to.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
child spans cover, so a layer's self time excludes the layers it calls.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable

# The package's modules are its layers; errors holds only exception types.
LAYERS = (
    "cli",
    "jsonio",
    "parsing",
    "translation",
    "diffpoly",
    "weights",
    "series",
    "orders",
    "vertexpoly",
    "feasibility",
)

_ARITH = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__pow__", "__neg__")

# (module, class or None, attribute, span name); a None span name counts calls
# without recording spans, for constructors too frequent to time one by one.
TARGETS = [
    ("cli", None, "main", "cli.main"),
    ("jsonio", None, "problem_from", "jsonio.problem_from"),
    ("jsonio", None, "vertexfraction_json", "jsonio.encode"),
    ("jsonio", None, "diffpoly_json", "jsonio.encode"),
    ("parsing", None, "parse_rational", "parsing.parse_rational"),
    ("translation", None, "tropw", "translation.tropw"),
    ("translation", None, "translate", "translation.translate"),
    ("translation", None, "initial_form", "translation.initial_form"),
    ("translation", None, "initial_generators", "translation.initial_generators"),
    ("diffpoly", "DiffPoly", "derive", "diffpoly.derive"),
    ("diffpoly", None, "prolong", "diffpoly.prolong"),
    ("weights", "BooleanWeight", "vertices", "weights.vertices"),
    ("weights", None, "substitution_poly", "weights.substitution_poly"),
    ("series", "QPoly", "__init__", None),
    ("series", "QPoly", "__mul__", "series.QPoly.mul"),
    *(("series", "RationalFunction", name, "series.RationalFunction.arith") for name in _ARITH),
    ("series", None, "trop_frac", "series.trop_frac"),
    ("series", None, "residue", "series.residue"),
    ("orders", "MonomialOrder", "min", "orders.min"),
    ("vertexpoly", "VertexPoly", "__init__", "vertexpoly.VertexPoly"),
    ("feasibility", None, "covered", "feasibility.covered"),
]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.problem_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.problem = -1
        self.counts: Counter[str] = Counter()
        self.weights: set = set()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, func: Callable, observe: Callable | None = None) -> Callable:
        """func, recording a span per call; observe(args, result) runs after it."""
        sid = self._id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.problem_of.append(self.problem)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.start[idx] = start
                self.end[idx] = end
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- observers: counts measured where the work happens --------------------

    def _covered(self, args, hit):
        self.counts["covered.points_in"] += len(args[0])
        self.counts["covered.hits"] += bool(hit)

    def _vertexpoly(self, args, _):
        vp, m, points = args
        if m == 2:
            self.counts["VertexPoly.calls_m2"] += 1
        elif m >= 3:
            self.counts["VertexPoly.calls_m3p"] += 1
        self.counts["VertexPoly.points_in"] += len(points)
        self.counts["VertexPoly.points_out"] += len(vp.points)

    def _vertices(self, args, _):
        weight = args[0]
        self.weights.add(weight)
        if weight.kind == "cofinite":
            self.counts["vertices.box_points"] += math.prod(
                max(p[k] for p in weight.data) + 2 for k in range(weight.m)
            )

    def _initial_form(self, _, form):
        self.counts["initial_form.nonzero"] += not form.is_zero

    def _initial_generators(self, _, kept):
        self.counts["dedup.kept"] += len(kept)

    def wrapper_for(self, module: str, cls: str | None, attr: str, name: str | None, func):
        if name is None:
            return self.counted(f"{module}.{cls}.{attr}", func)
        observe = {
            "feasibility.covered": self._covered,
            "vertexpoly.VertexPoly": self._vertexpoly,
            "weights.vertices": self._vertices,
            "translation.initial_form": self._initial_form,
            "translation.initial_generators": self._initial_generators,
        }.get(name)
        wrapped = self.spanned(name, func, observe)
        if name == "vertexpoly.VertexPoly":
            return _sized_points(wrapped)
        return wrapped

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        n = len(self.start)
        covered_by_children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered_by_children[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - covered_by_children[i]
        return dict(calls), dict(self_s)

    def write_spans(self, path) -> None:
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("problem\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.problem_of[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n"
                )


def _sized_points(init: Callable) -> Callable:
    """Hand VertexPoly.__init__ a sized collection, so its size can be counted."""

    def wrapper(self, m, points=()):
        if not hasattr(points, "__len__"):
            points = tuple(points)
        return init(self, m, points)

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target under every name tropdiff holds it by; returns the undo."""
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if name == "tropdiff" or name.startswith("tropdiff.")
    ]
    wrappers: dict[int, tuple[Any, Callable]] = {}
    owners: list[Any] = list(modules)
    for module, cls, attr, name in TARGETS:
        owner = sys.modules[f"tropdiff.{module}"]
        if cls is not None:
            owner = getattr(owner, cls)
            if owner not in owners:
                owners.append(owner)
        func = vars(owner)[attr]
        if id(func) not in wrappers:
            wrappers[id(func)] = (func, tracer.wrapper_for(module, cls, attr, name, func))
    undo: list[tuple[Any, str, Any]] = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
                undo.append((owner, attr, value))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(first: Tracer, self_s: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from the first traced pass, self times as given."""
    calls, _ = first.self_times()
    c = first.counts

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "feasibility.covered",
        "weights.vertices",
        "weights.substitution_poly",
        "series.QPoly.mul",
        "series.RationalFunction.arith",
        "series.trop_frac",
        "series.residue",
        "orders.min",
        "diffpoly.derive",
        "diffpoly.prolong",
        "translation.tropw",
        "translation.translate",
        "translation.initial_form",
        "translation.initial_generators",
        "parsing.parse_rational",
        "jsonio.problem_from",
        "jsonio.encode",
        "cli.main",
    ):
        out[f"{name}.calls"] = (n(name), "count")
        out[f"{name}.self_s"] = (s(name), "s")
    out["feasibility.covered.points_in"] = (c["covered.points_in"], "count")
    out["feasibility.covered.hit_ratio"] = (
        _ratio(c["covered.hits"], n("feasibility.covered")), "1"
    )
    out["vertexpoly.VertexPoly.calls_m2"] = (c["VertexPoly.calls_m2"], "count")
    out["vertexpoly.VertexPoly.calls_m3p"] = (c["VertexPoly.calls_m3p"], "count")
    out["vertexpoly.VertexPoly.self_s"] = (s("vertexpoly.VertexPoly"), "s")
    out["vertexpoly.VertexPoly.points_in"] = (c["VertexPoly.points_in"], "count")
    out["vertexpoly.VertexPoly.keep_ratio"] = (
        _ratio(c["VertexPoly.points_out"], c["VertexPoly.points_in"]), "1"
    )
    out["weights.vertices.box_points"] = (c["vertices.box_points"], "count")
    out["weights.vertices.distinct_ratio"] = (
        _ratio(len(first.weights), n("weights.vertices")), "1"
    )
    out["series.QPoly.calls"] = (c["series.QPoly.__init__"], "count")
    out["translation.dedup.kept_ratio"] = (
        _ratio(c["dedup.kept"], c["initial_form.nonzero"]), "1"
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0), "s"
        )
    return out
