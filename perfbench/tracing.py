"""Span tracing around the public functions of each slantkit layer.

Spans are recorded from the benchmark's own code: every traced function is
replaced, for the duration of the traced pass, by a wrapper that appends
`[id, parent id, name, start, end]` to an in-memory list. Functions that
other modules import by name (`from .linalg import mgs_columns`) are
replaced in every module that holds a binding to them, so calls through
`distribution`, `duality` and `classifier` are seen too. The originals are
put back when the pass ends.

A span's self time is its duration minus the durations of its direct
children; the code under test is single-threaded, so children never overlap
and the self times of one command's spans sum to the duration of its root
`cli.main` span.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("slantkit.cli", "main", "cli.main"),
    ("slantkit.specfile", "load_manifold_spec", "specfile.load"),
    ("slantkit.structure", "validate_structure", "structure.validate"),
    ("slantkit.distribution", "check_f_invariance", "distribution.invariance"),
    ("slantkit.linalg", "mgs_columns", "linalg.mgs"),
    ("slantkit.linalg", "complement_columns", "linalg.complement"),
    ("slantkit.linalg", "sym_eigen", "linalg.eigen"),
    ("slantkit.linalg", "projector_matrix", "linalg.projector"),
    ("slantkit.classifier", "classify", "classifier.classify"),
    ("slantkit.classifier", "discover", "classifier.discover"),
    ("slantkit.classifier", "component_slant", "classifier.component_slant"),
    ("slantkit.duality", "build_dual", "duality.build_dual"),
    ("slantkit.duality", "dual_roundtrip_check", "duality.roundtrip"),
    ("slantkit.duality", "dual_report", "duality.dual_report"),
    ("slantkit.verifier", "run_identity_suite", "verifier.suite"),
    ("slantkit.verifier", "nabla_f2", "verifier.nabla_f2"),
    ("slantkit.verifier", "eigenvalue_directional_derivative", "verifier.dlambda"),
    ("slantkit.verifier", "connection_criterion_report", "verifier.connection"),
    ("slantkit.report", "make_run_report", "report.make"),
    ("slantkit.report", "render_markdown", "report.render"),
    ("slantkit.report", "report_json", "report.json"),
)

# (module, class, method, span name).
METHODS = (
    ("slantkit.structure", "StructureField", "phi_at", "expr.phi_at"),
    ("slantkit.structure", "StructureField", "metric_at", "expr.metric_at"),
    ("slantkit.structure", "StructureField", "xi_at", "expr.xi_at"),
    ("slantkit.expr", "VectorFieldExpr", "at", "expr.field_at"),
    ("slantkit.distribution", "Decomposition", "frame_at", "distribution.frame_at"),
    ("slantkit.distribution", "PointFrame", "__init__", "distribution.frame_build"),
    ("slantkit.distribution", "PointFrame", "f2_ambient", "distribution.f2_ambient"),
    ("slantkit.distribution", "PointFrame", "inner", "verifier.inner"),
    ("slantkit.distribution", "PointFrame", "norm", "verifier.norm"),
    ("slantkit.distribution", "PointFrame", "cos_angle", "verifier.cos_angle"),
    ("slantkit.verifier", "PointContext", "__init__", "verifier.context"),
)


class Tracer:
    """Records spans and computed counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.last_spec = None
        self._f2_keys: set = set()
        self._undo: list = []
        self._registry = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if hook is not None:
                hook(args, result)
            return result
        return traced

    def _hooks(self):
        c = self.counters

        def phi_entries(args, _):
            c["expr.entries"] += args[0].n ** 2

        def metric_entries(args, _):
            if args[0].metric_exprs is not None:
                c["expr.entries"] += args[0].n ** 2

        def field_entries(args, _):
            c["expr.entries"] += args[0].n

        def inner_flops(args, _):
            frame, u = args[0], args[1]
            n = frame.g.shape[0]
            t = 1
            for d in u.shape[1:]:
                t *= d
            c["verifier.inner_flops"] += 2 * n * n * t

        def f2_key(args, _):
            self._f2_keys.add(tuple(args[0].x.tolist()))

        def keep_spec(_, spec):
            self.last_spec = spec

        return {"expr.phi_at": phi_entries, "expr.metric_at": metric_entries,
                "expr.field_at": field_entries, "verifier.inner": inner_flops,
                "distribution.f2_ambient": f2_key, "specfile.load": keep_spec}

    # -- install / remove ----------------------------------------------------

    def install(self):
        """Patch every traced function, method and registry evaluator."""
        hooks = self._hooks()
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "slantkit" or key.startswith("slantkit."))]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, hooks.get(name)))
        registry = sys.modules["slantkit.verifier"].REGISTRY
        self._registry = (registry, list(registry))
        registry[:] = [dataclasses.replace(case, evaluator=self._wrap("verifier.case",
                                                                      case.evaluator))
                       for case in registry]

    def remove(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        registry, saved = self._registry
        registry[:] = saved

    def command_done(self):
        """Close per-command bookkeeping: resident frames and distinct
        displaced frames (both are scoped to one command's decomposition)."""
        spec = self.last_spec
        dec = getattr(spec, "decomposition", None)
        resident = len(dec._frames) if dec is not None else 0
        self.counters["distribution.frames_resident"] = max(
            self.counters["distribution.frames_resident"], resident)
        self.counters["distribution.f2_distinct"] += len(self._f2_keys)
        self._f2_keys.clear()
        self.last_spec = None

    # -- derived numbers -----------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[4] - s[3]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the recorded spans.

    `_calls` count spans, `_s` sums span durations (children included),
    `self_s` sums self times.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    calls: Counter = Counter()
    total: Counter = Counter()
    selft: Counter = Counter()
    expr_outer = 0
    for s, st in zip(spans, selfs):
        name = s[2]
        calls[name] += 1
        total[name] += s[4] - s[3]
        selft[name] += st
        if name.startswith("expr.") and (s[1] < 0 or not spans[s[1]][2].startswith("expr.")):
            expr_outer += 1
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    expr_self = sum(v for k, v in selft.items() if k.startswith("expr."))
    m = {
        "specfile.load_s": (ratio(total["specfile.load"], calls["specfile.load"]), "s"),
        "expr.field_calls": (expr_outer, "count"),
        "expr.entries": (c["expr.entries"], "count"),
        "expr.s": (expr_self, "s"),
        "structure.validate_self_s": (selft["structure.validate"], "s"),
        "distribution.frame_at_calls": (calls["distribution.frame_at"], "count"),
        "distribution.frames_built": (calls["distribution.frame_build"], "count"),
        "distribution.frame_hit_ratio": (
            1.0 - ratio(calls["distribution.frame_build"], calls["distribution.frame_at"]),
            "ratio"),
        "distribution.frames_resident": (c["distribution.frames_resident"], "count"),
        "distribution.frame_build_self_s": (selft["distribution.frame_build"], "s"),
        "distribution.invariance_s": (total["distribution.invariance"], "s"),
        "linalg.mgs_calls": (calls["linalg.mgs"], "count"),
        "linalg.mgs_s": (total["linalg.mgs"], "s"),
        "linalg.complement_calls": (calls["linalg.complement"], "count"),
        "linalg.complement_s": (total["linalg.complement"], "s"),
        "linalg.eigen_calls": (calls["linalg.eigen"], "count"),
        "linalg.eigen_s": (total["linalg.eigen"], "s"),
        "linalg.projector_calls": (calls["linalg.projector"], "count"),
        "classifier.component_slant_calls": (calls["classifier.component_slant"], "count"),
        "classifier.component_slant_s": (total["classifier.component_slant"], "s"),
        "classifier.classify_self_s": (selft["classifier.classify"], "s"),
        "classifier.discover_self_s": (selft["classifier.discover"], "s"),
        "duality.build_dual_calls": (calls["duality.build_dual"], "count"),
        "duality.build_dual_s": (total["duality.build_dual"], "s"),
        "duality.roundtrip_s": (total["duality.roundtrip"], "s"),
        "verifier.context_s": (total["verifier.context"], "s"),
        "verifier.cases_s": (total["verifier.case"], "s"),
        "verifier.inner_calls": (calls["verifier.inner"], "count"),
        "verifier.inner_s": (total["verifier.inner"], "s"),
        "verifier.inner_flops": (c["verifier.inner_flops"], "flop"),
        "verifier.nabla_f2_calls": (calls["verifier.nabla_f2"], "count"),
        "verifier.nabla_f2_s": (total["verifier.nabla_f2"], "s"),
        "verifier.dlambda_calls": (calls["verifier.dlambda"], "count"),
        "verifier.dlambda_s": (total["verifier.dlambda"], "s"),
        "verifier.f2_ambient_useful_ratio": (
            ratio(c["distribution.f2_distinct"], calls["distribution.f2_ambient"]), "ratio"),
        "report.render_s": (total["report.render"] + total["report.json"]
                            + total["report.make"], "s"),
        "cli.self_s": (selft["cli.main"], "s"),
    }
    return m
