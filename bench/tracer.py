"""In-memory span tracer for the dstable layers, applied from outside.

Every function named in a layer module's ``__all__`` is replaced, in every
``dstable`` module that binds it, by a wrapper that records one span per
call: name, start, end, parent span and op id. Classes are not wrapped, so
the cost of a constructor lands in its caller's self time. Spans stay in
flat arrays while the run lasts; :meth:`Tracer.summary` turns them into
per-layer numbers and :meth:`Tracer.dump` writes them out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("params", "genfun", "pmf", "sampler", "cli")
ROOT = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.layer_of: list[str] = ["bench"]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.errors: Counter[str] = Counter()
        self.tables = 0
        self.tables_met = 0
        self.masses_computed = 0
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"dstable.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    wrapped[id(fn)] = (fn, self._wrap(layer, f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "dstable" and not modname.startswith("dstable."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._open(0)

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = {"pmf.ds_pmf": self._count_table}.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:  # outside an op: checks and set-up
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                parent = tracer.span_parent[idx]
                if parent < 0 or tracer.layer_of[tracer.span_name[parent]] != layer:
                    tracer.errors[layer] += 1  # the exception leaves the layer here
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _count_table(self, table) -> None:
        self.tables += 1
        self.tables_met += bool(table.tail_bound_met)
        self.masses_computed += len(table)

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return name, parent, dur

    def summary(self) -> dict[str, float]:
        """Calls, self time, inclusive time per span name and per layer."""
        name, parent, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        out: dict[str, float] = {}
        for layer in ("bench",) + LAYERS:
            ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
            out[f"{layer}.calls"] = int(calls[ids].sum())
            out[f"{layer}.self_s"] = float(own[ids].sum())
        for i, n in enumerate(self.names):
            out[f"calls:{n}"] = int(calls[i])
            out[f"incl_s:{n}"] = float(incl[i])
        return out

    def dump(self, path) -> None:
        name, parent, dur = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
