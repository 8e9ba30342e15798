"""Spans and counters at the boundaries of the bottlenecklab modules.

The tracer wraps every public function of every package module and
rebinds the wrapper wherever the original is reachable by name: the
defining module, every module that imported it with ``from .x import f``,
module-level dicts such as ``model.REGISTRY``, and any extra modules the
caller passes (the benchmark's own). Wrapping only the defining module
would miss, for example, ``cli``'s call to ``verify_bottleneck_theorem``.

A span is recorded only when a call crosses into another module (or comes
from outside the package); calls inside one module run unwrapped in
effect, so the spans mark layer boundaries. A layer's self time is the
duration of its spans minus the time covered by their child spans.
Constructors and methods of the package's classes are not wrapped: their
time counts to the calling layer.
"""

import functools
import hashlib
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "numerics",
    "pauli",
    "subspace",
    "channel",
    "markov",
    "model",
    "sampler",
    "bottleneck",
    "stability",
    "cli",
)
PACKAGE = "bottlenecklab"


class _Span:
    """An open span: its layer and the time its finished children took."""

    __slots__ = ("layer", "child_s")

    def __init__(self, layer):
        self.layer = layer
        self.child_s = 0.0


def _arrays(obj):
    """Dense arrays held by an argument or result (DensityMatrix -> .mat)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            if isinstance(item, np.ndarray) or hasattr(item, "mat"):
                yield from _arrays(item)
    elif isinstance(getattr(obj, "mat", None), np.ndarray):
        yield obj.mat


class Tracer:
    """Installs wrappers, records spans in memory, and summarises a pass."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self._originals = {}  # id(original) -> (original, wrapper)
        self._bindings = []  # (namespace, key, original) to restore
        self._stack = []
        self.reset()
        self._hooks = {
            ("pauli", "enumerate_paulis"): self._count_strings,
            ("numerics", "orthonormal_column_basis"): self._count_keep,
            ("subspace", "partition_from_radius"): self._count_partition,
            ("channel", "apply_channel"): self._count_apply,
            ("channel", "evolve_sequence"): self._count_evolve,
            ("model", "gibbs_state"): self._count_gibbs,
        }

    def reset(self):
        """Forget the spans and counters of earlier passes."""
        self.spans = []  # (layer, name, parent_layer, start, end, self_s)
        self.counts = Counter()
        self.partition_inputs = set()
        self.max_dim = 0
        self.dense_bytes = 0

    # --- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for ns in self._namespaces(extra_modules):
            for key, val in list(ns.items()):
                hit = self._originals.get(id(val))
                if hit is not None:
                    ns[key] = hit[1]
                    self._bindings.append((ns, key, val))
        self._check_installed(extra_modules)

    def _namespaces(self, extra_modules):
        """Module namespaces and the module-level dicts inside them."""
        for mod in [*self.modules.values(), *extra_modules]:
            yield vars(mod)
            for key, val in list(vars(mod).items()):
                if isinstance(val, dict) and not key.startswith("__"):
                    yield val

    def _check_installed(self, extra_modules):
        """Raise if any namespace still reaches an unwrapped public function."""
        for ns in self._namespaces(extra_modules):
            for key, val in ns.items():
                if id(val) in self._originals:
                    raise RuntimeError(f"{key!r} is not traced")

    def uninstall(self):
        for ns, key, original in reversed(self._bindings):
            ns[key] = original
        self._bindings.clear()
        self._originals.clear()

    def _wrap(self, layer, name, fn):
        hook = self._hooks.get((layer, name))
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.layer == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(parent.layer, args, kwargs, result)
                return result
            span = _Span(layer)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - start
                self.spans.append(
                    (
                        layer,
                        name,
                        parent.layer if parent is not None else None,
                        start,
                        end,
                        end - start - span.child_s,
                    )
                )
            self.counts[f"{layer}.calls"] += 1
            if hook is not None:
                hook(parent.layer if parent is not None else None, args, kwargs, result)
            if layer == "numerics":
                self._count_dense(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # --- counters ----------------------------------------------------------

    def _count_gibbs(self, parent, args, kwargs, result):
        self.counts["model.gibbs_calls"] += 1

    def _count_strings(self, parent, args, kwargs, result):
        self.counts["pauli.strings"] += len(result)

    def _count_keep(self, parent, args, kwargs, result):
        if parent != "subspace":
            return
        vectors = args[0] if args else kwargs["vectors"]
        stacked = vectors.shape[1] if isinstance(vectors, np.ndarray) else len(vectors)
        self.counts["subspace.columns_stacked"] += stacked
        self.counts["subspace.columns_kept"] += result.shape[1]

    def _count_partition(self, parent, args, kwargs, result):
        V = args[0] if args else kwargs["V"]
        r = args[1] if len(args) > 1 else kwargs["r"]
        digest = hashlib.sha1(np.ascontiguousarray(V.basis).tobytes()).hexdigest()
        self.partition_inputs.add((V.n, digest, r))
        self.counts["subspace.partition_builds"] += 1

    def _count_apply(self, parent, args, kwargs, result):
        C = args[0] if args else kwargs["C"]
        self.counts["channel.kraus_products"] += len(C.kraus)

    def _count_evolve(self, parent, args, kwargs, result):
        channels = args[0] if args else kwargs["channels"]
        T = args[3] if len(args) > 3 else kwargs["T"]
        per_cycle, rest = divmod(T, len(channels))
        sizes = [len(C.kraus) for C in channels]
        self.counts["channel.kraus_products"] += per_cycle * sum(sizes) + sum(sizes[:rest])

    def _count_dense(self, args, kwargs, result):
        for obj in (*args, *kwargs.values(), result):
            for arr in _arrays(obj):
                self.dense_bytes += arr.nbytes
                if arr.ndim:
                    self.max_dim = max(self.max_dim, max(arr.shape))

    # --- summary -----------------------------------------------------------

    def summary(self, wall_s, points):
        """Per-layer metrics of the pass recorded since the last reset.

        Returns name -> (value, unit). ``trace.coverage`` is the share of
        the pass's wall time inside outermost spans.
        """
        self_s = defaultdict(float)
        top_s = 0.0
        under_subspace = 0.0
        for layer, _, parent, start, end, own in self.spans:
            self_s[layer] += own
            if parent is None:
                top_s += end - start
            elif layer == "numerics" and parent == "subspace":
                under_subspace += own
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        stacked = c["subspace.columns_stacked"]
        out.update(
            {
                "numerics.under_subspace.self_s": (under_subspace, "s"),
                "numerics.max_dim": (self.max_dim, "rows"),
                "numerics.dense_bytes": (self.dense_bytes, "computed_bytes"),
                "pauli.strings": (c["pauli.strings"], "count"),
                "subspace.keep_ratio": (
                    c["subspace.columns_kept"] / stacked if stacked else 0.0,
                    "ratio",
                ),
                "subspace.partition_builds": (c["subspace.partition_builds"], "count"),
                "subspace.partition_distinct": (len(self.partition_inputs), "count"),
                "model.gibbs_calls_per_point": (c["model.gibbs_calls"] / points, "calls/point"),
                "channel.kraus_products": (c["channel.kraus_products"], "count"),
                "trace.coverage": (top_s / wall_s, "ratio"),
            }
        )
        return out

    def per_function(self):
        """(layer.function) -> [calls, self seconds], for the run record."""
        table = defaultdict(lambda: [0, 0.0])
        for layer, name, _, _, _, own in self.spans:
            row = table[f"{layer}.{name}"]
            row[0] += 1
            row[1] += own
        return dict(sorted(table.items()))
