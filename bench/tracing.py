"""Spans around the benchmark's calls into unichain's public functions.

Spans wrap the benchmark's own calls into a layer (a module of the
package) and, while a CLI command is replayed in-process, the calls
``unichain.cli`` makes into the layers; they are kept in memory until
the run ends.  A span is the list ``[name, start_s, end_s, parent, op, n,
failed]``; ``parent`` is the index of the enclosing span, ``op`` the
operation id and ``n`` the matrix order of that operation.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import types

import numpy as np

#: The public functions timed in each layer.
LAYERS = {
    "matrix_core": (
        "haar_random",
        "matrix_to_json_dict",
        "matrix_from_json_dict",
        "unitarity_defect",
    ),
    "recursive_param": (
        "decompose",
        "reorder_chain",
        "gauge_fix",
        "compose",
        "decomposition_to_json_dict",
        "decomposition_from_json_dict",
    ),
    "symmetric": ("compose_symmetric",),
    "invariants": (
        "plaquette_table",
        "triangle_areas",
        "panel_lattice",
        "reduce_sextet",
        "panel_relation_residuals",
        "basis_solve_n4",
        "closed_forms_n4",
        "zero_texture_analysis",
    ),
}

#: Layers whose self time is reported; ``cli`` spans wrap whole commands.
MODULES = (*LAYERS, "cli")

NAME, START, END, PARENT, OP, N, FAILED = range(7)


class Tracer:
    """Collects spans in memory for one traced phase."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._n = None

    @contextlib.contextmanager
    def span(self, name: str, op=None, n=None):
        """Record one span; *op* and *n* start a new operation (a root span)."""
        if op is not None:
            self._op, self._n = op, n
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None,
               self._op, self._n, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class Layers:
    """unichain's timed public functions as attributes, wrapped in spans when traced."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"unichain.{module}")
            for name in names:
                fn = getattr(mod, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(f"{module}.{name}", fn))

    def span(self, name: str, op=None, n=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, op, n)

    @contextlib.contextmanager
    def calls_from(self, owner: types.ModuleType):
        """While the block runs, *owner*'s calls into the layers are timed too.

        *owner* reaches the layers through module attributes (``cli`` calls
        ``rp.decompose``); each such attribute is swapped for a view of the
        module whose timed functions are this object's wrappers, and put
        back afterwards.  The spans then record exactly the calls *owner*
        makes, and the library's calls between its own modules stay untimed.
        """
        swapped = {}
        for attr, mod in list(vars(owner).items()) if self.tracer is not None else ():
            layer = getattr(mod, "__name__", "").removeprefix("unichain.")
            if isinstance(mod, types.ModuleType) and layer in LAYERS:
                swapped[attr] = mod
                setattr(owner, attr, _View(mod, {name: getattr(self, name) for name in LAYERS[layer]}))
        try:
            yield
        finally:
            for attr, mod in swapped.items():
                setattr(owner, attr, mod)


class _View:
    """A module with some functions replaced; every other name reads through."""

    def __init__(self, module: types.ModuleType, functions: dict):
        self._module = module
        self.__dict__.update(functions)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _self_times(spans) -> tuple:
    """Per-span self time and the index of each span's root."""
    dur = np.array([s[END] - s[START] for s in spans])
    own = dur.copy()
    roots = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is None:
            roots.append(i)
        else:
            own[p] -= dur[i]
            roots.append(roots[p])
    return dur, own, roots


def summarize(spans) -> tuple:
    """Per-layer metrics, the per-n breakdown, and module self time.

    Module self time and share count only spans inside operations (roots
    named ``op.*``); share is a module's self time over the summed
    duration of all operations.  Per-function numbers count every call.
    """
    dur, own, roots = _self_times(spans) if spans else (np.zeros(0), np.zeros(0), [])
    op_total = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] is None and s[NAME].startswith("op."))
    metrics, per_n = {}, {}

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    for module, names in LAYERS.items():
        for fn in names:
            idx = by_name.get(f"{module}.{fn}", [])
            d = dur[idx] if idx else np.zeros(0)
            fails = sum(spans[i][FAILED] for i in idx)
            key = f"{module}.{fn}"
            metrics[f"{key}.calls"] = (len(idx), "count")
            metrics[f"{key}.busy_s"] = (float(d.sum()), "s")
            metrics[f"{key}.p50_us"] = (float(np.median(d)) * 1e6 if idx else 0.0, "us")
            metrics[f"{key}.fail"] = (int(fails), "count")
            if fn == "decompose":
                ok = (len(idx) - fails) / len(idx) if idx else 0.0
                metrics[f"{key}.ok_ratio"] = (ok, "ratio")
            rows = {}
            for i in idx:
                rows.setdefault(spans[i][N], []).append(i)
            if rows:
                per_n[key] = {
                    str(n): {
                        "calls": len(ii),
                        "busy_s": float(dur[ii].sum()),
                        "p50_us": float(np.median(dur[ii])) * 1e6,
                        "fail": int(sum(spans[i][FAILED] for i in ii)),
                    }
                    for n, ii in sorted(rows.items())
                }

    layer_self = {m: 0.0 for m in MODULES}
    layer_self_n = {}
    for i, s in enumerate(spans):
        module = s[NAME].split(".", 1)[0]
        if module in layer_self and spans[roots[i]][NAME].startswith("op."):
            layer_self[module] += own[i]
            per = layer_self_n.setdefault(module, {})
            per[str(s[N])] = per.get(str(s[N]), 0.0) + float(own[i])
    layers = {}
    for m in MODULES:
        share = layer_self[m] / op_total if op_total else 0.0
        metrics[f"{m}.self_s"] = (float(layer_self[m]), "s")
        metrics[f"{m}.share"] = (float(share), "ratio")
        layers[m] = {"self_s": float(layer_self[m]), "share": float(share),
                     "self_s_by_n": layer_self_n.get(m, {})}
    layers["op_total_s"] = float(op_total)
    return metrics, per_n, layers
