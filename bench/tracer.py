"""Span and counter tracing of polyharm, installed from outside the package.

``Tracer.install`` replaces the public functions of the traced modules with
wrappers and ``Tracer.restore`` puts every original object back.  Nothing
under ``src/`` is edited.  A function imported by name into another module
(``from .simplicial import check_admissible``) is a second reference to the
same object, so every module attribute that is the original object gets the
wrapper; calls made through either name are recorded under the defining
module's name.

Span wrappers record ``(name, start, end, parent, op_id)`` in an in-memory
list.  Per-simplex and per-point functions are called thousands of times per
op, so they only bump a counter: their time stays in the self time of the
span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("simplicial", "riemannian", "maps", "target", "energy",
                  "harmonic", "morphism", "meshes", "fileio", "cli")

# hot per-simplex / per-sample functions: counted, never spanned
COUNT_ONLY = frozenset({
    "riemannian.simplex_volume", "riemannian.ellipticity_constant",
    "riemannian.gradient_inner", "maps.differential",
    "maps.compose_gradients", "target.complex_structure", "target.to_complex",
    "target.to_real", "target.christoffel_fd",
    "target.cauchy_riemann_residual", "target.anti_cauchy_riemann_residual",
})

# module-level names that are not wrapped: ``target.christoffel`` only
# forwards to the ChartedTarget method of the same metric name, and
# ``cli.main`` exits the interpreter
SKIP = frozenset({"target.christoffel", "cli.main"})

# methods: (module, class, attribute, metric name, spanned?)
METHODS = (
    ("riemannian", "PiecewiseMetric", "from_embedding",
     "riemannian.from_embedding", True),
    ("riemannian", "PiecewiseMetric", "from_arrays",
     "riemannian.from_arrays", True),
    ("maps", "PLMap", "differential", "maps.PLMap.differential", False),
    ("target", "ChartedTarget", "christoffel", "target.christoffel", False),
    ("target", "ChartedTarget", "metric_at", "target.metric_at", False),
)


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._patches = []       # (owner, attribute, original object)
        # taken from arguments and return values by the _OBSERVERS
        self.nnz = []            # S.nnz per assemble_stiffness call
        self.graph_edges = []    # per intrinsic_distance call
        self.admissible_sizes = {}   # span index -> T of the checked complex
        self.residuals = defaultdict(list)  # solve span index -> [res.inf]

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"polyharm.{m}")
                   for m in TRACED_MODULES}
        # every loaded package module may hold a by-name import
        holders = [importlib.import_module(f"polyharm.{m}")
                   for m in TRACED_MODULES + ("examples",)]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = (self._counter(name, obj) if name in COUNT_ONLY
                           else self._span(name, obj))
                for holder in holders:
                    for h_attr, h_obj in list(vars(holder).items()):
                        if h_obj is obj:
                            self._patch(holder, h_attr, wrapper)
        for short, cls_name, attr, name, spanned in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                fn = raw.__func__
                wrapped = classmethod(self._span(name, fn) if spanned
                                      else self._counter(name, fn))
            else:
                wrapped = (self._span(name, raw) if spanned
                           else self._counter(name, raw))
            self._patch(cls, attr, wrapped)
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, attr, new):
        # read the raw attribute so a classmethod is restored as itself
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, None, None, parent, self.op_id))
            stack.append(idx)
            counts[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result
        return wrapper

    # -- derived numbers ---------------------------------------------------

    def self_times(self):
        """Per span index: duration minus the durations of direct children."""
        own = [end - start for (_, start, end, _, _) in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_table(self):
        """name -> {"calls"} for every counted name, plus "self_s" for
        every spanned one (a counter has no time of its own)."""
        table = {name: {"calls": n} for name, n in self.counts.items()}
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["self_s"] = row.get("self_s", 0.0) + own
        return table

    def picard_stats(self):
        """Residual calls per curved-target solve and the share of
        iterations whose residual rose above the previous one; empty when
        no curved-target solve ran."""
        if not self.residuals:
            return {}
        iters = [len(v) for v in self.residuals.values()]
        rises = sum(sum(b > a for a, b in zip(v, v[1:]))
                    for v in self.residuals.values())
        return {
            "harmonic.picard_iters_mean": sum(iters) / len(iters),
            "harmonic.picard_iters_max": max(iters),
            "harmonic.residual_increase_frac": rises / sum(iters),
        }

    def admissible_exponent(self):
        """Least-squares slope of log(self time) against log(T) over the
        check_admissible calls, or None with fewer than two sizes."""
        own = self.self_times()
        pts = [(math.log(t), math.log(own[i]))
               for i, t in self.admissible_sizes.items() if own[i] > 0]
        if len({x for x, _ in pts}) < 2:
            return None
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        return sum((x - mx) * (y - my) for x, y in pts) / sxx

    def spans_payload(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for (n, s, e, p, o) in self.spans]


# -- return-value observers ------------------------------------------------

def _obs_assemble(tracer, idx, args, kwargs, result):
    tracer.nnz.append(int(result.S.nnz))


def _obs_distance(tracer, idx, args, kwargs, result):
    tracer.graph_edges.append(int(result.graph_edges))


def _obs_admissible(tracer, idx, args, kwargs, result):
    complex_ = args[0] if args else kwargs["complex_"]
    tracer.admissible_sizes[idx] = len(complex_.top_simplices)


def _obs_residual(tracer, idx, args, kwargs, result):
    # residual calls made directly by a curved-target solve are its
    # Picard iterations; the parent is the span still open on the stack
    if not tracer._stack:
        return
    parent = tracer._stack[-1]
    target = args[1] if len(args) > 1 else kwargs.get("target")
    if (target is not None and not target.is_flat
            and tracer.spans[parent][0] == "harmonic.solve_harmonic_map"):
        tracer.residuals[parent].append(result.inf)


_OBSERVERS = {
    "harmonic.assemble_stiffness": _obs_assemble,
    "riemannian.intrinsic_distance": _obs_distance,
    "simplicial.check_admissible": _obs_admissible,
    "harmonic.weak_harmonic_residual": _obs_residual,
}
