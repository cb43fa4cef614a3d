"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions and the public model
methods of every module of ``accr`` (the layers), and rebinds each copy
that another module imported by name (``levi_civita`` in ``structure``,
``sasaki`` and ``conformal``; ``run_all`` in ``cli``; the builtin
constructors held in ``corpus.BUILTINS``).  Each call records a span
(name, parent span, start, end) in flat in-memory arrays; ``take()`` hands
back one pass's spans and counters, and ``uninstall()`` restores every
original binding.

Two entry points are wrapped although they are private, because no public
function marks the boundary: ``verify._gather_residuals``, whose second
call per model is the half-step error-estimate pass, and the
``PointFields`` cached properties, where the structure tensors are
computed.  ``verify.report_to_json`` is left unwrapped so that the
canonical JSON counts toward its caller, the ``cli`` layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "verify", "modelspec", "corpus", "sasaki", "conformal",
          "structure", "connection", "models", "frame_algebra")
UNWRAPPED = {("verify", "report_to_json")}


class Tracer:
    def __init__(self):
        self.names: list = []          # span name id -> "layer.qualname"
        self._ids: dict = {}
        self.buf = array("q")          # 4 slots per span: name id, parent, t0, t1
        self.stack = [-1]
        self.counts = Counter()
        self._restore: list = []       # (owner, attribute, original)
        self._chart_fns: dict = {}     # id(fn) -> (fn, wrapper)

    # ------------------------------------------------------------ spans

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        buf, stack = self.buf, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(buf) >> 2
            buf.extend((nid, stack[-1], perf_counter_ns(), 0))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                buf[4 * idx + 3] = perf_counter_ns()

        return traced

    def take(self):
        """Spans and counters recorded since the last call, then reset."""
        spans, counts = self.buf[:], self.counts.copy()
        del self.buf[:]
        self.counts.clear()
        return spans, counts

    # ---------------------------------------------------------- binding

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        modules = {name: importlib.import_module(f"accr.{name}") for name in LAYERS}
        everywhere = list(modules.values()) + [importlib.import_module("accr")]
        hooks = self._hooks(modules)
        special = self._special(modules)

        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or (layer, attr) in UNWRAPPED:
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    make = special.get((layer, attr))
                    wrapper = make(value) if make else self.wrap(
                        f"{layer}.{attr}", value, hooks.get((layer, attr)))
                    self._rebind_everywhere(value, wrapper, everywhere)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value, hooks)

        builtins = modules["corpus"].BUILTINS
        for key, (fn, desc) in list(builtins.items()):
            self._restore.append((builtins, key, (fn, desc)))
            builtins[key] = (getattr(modules["corpus"], fn.__name__), desc)

        gather = modules["verify"]._gather_residuals
        self._set(modules["verify"], "_gather_residuals", self._gather_wrapper(gather))
        self._wrap_point_fields(modules["structure"].PointFields)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _wrap_class(self, layer, cls, hooks):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self._set(cls, attr, self.wrap(name, value, hooks.get((layer, attr))))

    def _wrap_point_fields(self, cls):
        count = self.counts

        def init_hook(args, kwargs):
            count["structure.point_fields"] += 1

        self._set(cls, "__init__", self.wrap("structure.PointFields.__init__",
                                             cls.__init__, init_hook))
        for attr, value in list(vars(cls).items()):
            if isinstance(value, functools.cached_property):
                traced = self.wrap(f"structure.PointFields.{attr}", value.func)
                prop = functools.cached_property(traced)
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)

    # ------------------------------------------------ per-layer counters

    def _hooks(self, modules):
        count = self.counts
        transformed = modules["conformal"].TransformedModel

        def stencil(args, kwargs):
            x = args[1] if len(args) > 1 else kwargs["x"]
            count["models.stencil_evals"] += 4 * len(x) if len(x) else 1

        def koszul(args, kwargs):
            model = args[0] if args else kwargs["model"]
            if isinstance(model, transformed):
                count["conformal.koszul_solves"] += 1

        return {("models", "coordinate_derivatives"): stencil,
                ("connection", "levi_civita"): koszul}

    def _chart_fn(self, fn):
        """One counted wrapper per built-in chart callable, shared by the
        chart model and the CorpusModel that both hold it."""
        if fn is None:
            return None
        hit = self._chart_fns.get(id(fn))
        if hit is None:
            count = self.counts

            def hook(args, kwargs):
                count["corpus.chart_fn.calls"] += 1

            hit = self._chart_fns[id(fn)] = (fn, self.wrap("corpus.chart_fn", fn, hook))
        return hit[1]

    def _special(self, modules):
        corpus = modules["corpus"]

        def chart_model(orig):
            sig = inspect.signature(orig)

            def counted(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                for key in ("metric_fields", "frame", "metric_derivs"):
                    if key in bound.arguments:
                        bound.arguments[key] = self._chart_fn(bound.arguments[key])
                return orig(*bound.args, **bound.kwargs)

            return self.wrap("models.chart_model", functools.wraps(orig)(counted))

        def constructor(orig):
            def built(*args, **kwargs):
                cm = orig(*args, **kwargs)
                cm.coframe_fn = self._chart_fn(cm.coframe_fn)
                cm.coord_metric_fn = self._chart_fn(cm.coord_metric_fn)
                for key in ("base_ric_at", "base_r_at"):
                    fn = getattr(cm, key)
                    if fn is not None:
                        setattr(cm, key, self.wrap("corpus.base_curvature", fn))
                return cm

            return self.wrap(f"corpus.{orig.__name__}", functools.wraps(orig)(built))

        special = {("corpus", name): constructor for name in
                   (fn.__name__ for fn, _ in corpus.BUILTINS.values())}
        # corpus builds its charts through the copy of chart_model it imported
        special[("models", "chart_model")] = chart_model
        return special

    def _gather_wrapper(self, orig):
        full = self.wrap("verify._gather_residuals", orig)
        half = self.wrap("verify.error_estimate", orig)

        def gather(cm, cfg):
            # run_model_checks halves the model's step for the second pass
            return (half if cm.model.fd_step != cfg.fd_step else full)(cm, cfg)

        return gather


def summarise(names, spans, counts, points_base) -> dict:
    """Per-layer metrics of one pass, {name: (value, unit)}: call counts,
    counters, counts per sample point of ``points_base`` and times.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    table = np.frombuffer(spans, dtype=np.int64).reshape(-1, 4)
    nid, parent = table[:, 0], table[:, 1]
    dur = table[:, 3] - table[:, 2]
    self_ns = dur.copy()
    child = parent >= 0
    np.subtract.at(self_ns, parent[child], dur[child])
    calls = np.bincount(nid, minlength=len(names))
    incl = np.bincount(nid, weights=dur, minlength=len(names))
    by_name = np.bincount(nid, weights=self_ns, minlength=len(names))
    layer_self = Counter()
    for k, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += by_name[k]

    def method_calls(layer, method):
        return int(sum(calls[k] for k, name in enumerate(names)
                       if name.startswith(layer + ".") and name.endswith("." + method)))

    def incl_s(name):
        return float(sum(incl[k] for k, n in enumerate(names) if n == name)) / 1e9

    counts_out = {
        "models.metric_at.calls": method_calls("models", "metric_at"),
        "models.metric_derivs_at.calls": method_calls("models", "metric_derivs_at"),
        "models.commutators_at.calls": method_calls("models", "commutators_at"),
        "models.frame_derivative.calls": method_calls("models", "frame_derivative"),
        "models.stencil_evals": counts["models.stencil_evals"],
        "corpus.chart_fn.calls": counts["corpus.chart_fn.calls"],
        "connection.koszul_solves": method_calls("connection", "levi_civita"),
        "connection.riemann.calls": method_calls("connection", "riemann"),
        "structure.point_fields": counts["structure.point_fields"],
        "conformal.koszul_solves": counts["conformal.koszul_solves"],
        "trace.spans": len(table),
    }
    out = {k: (v, "count") for k, v in counts_out.items()}
    for key, calls_key in (("models.metric_at.per_point", "models.metric_at.calls"),
                           ("connection.koszul_per_point", "connection.koszul_solves")):
        out[key] = (counts_out[calls_key] / points_base, "calls/point")
    out["corpus.crossrep_s"] = (incl_s("corpus.cross_representation_check"), "s")
    out["sasaki.cone_s"] = (incl_s("sasaki.cone_holomorphic_residual"), "s")
    out["verify.error_estimate_s"] = (incl_s("verify.error_estimate"), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
    return out
