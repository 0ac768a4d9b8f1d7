"""In-memory span tracer that wraps causalkit's public functions from outside.

The package imports its helpers by name (``from .tensor import
product_trace``), so a wrapper set on ``causalkit.tensor`` alone would miss
every call made from ``games``, ``duality`` or ``processes``. ``Tracer.patch``
therefore replaces each public function at every place it is looked up: every
``causalkit`` module attribute and every module-level registry dict that holds
it. Leaving the ``with`` block restores the originals.

Spans are kept in flat arrays (name id, parent, start, end), so a traced
manifest with ~160k ``win_set`` calls costs a few MB, and are written out once
with :meth:`Tracer.save`. A span's self time is its duration minus the time
its direct children cover; children of one span never overlap because the
package is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("tensor", "processes", "instruments", "games", "duality", "classical", "sampling", "cli")
# Operators crossing these layers' boundaries feed ``tensor.max_side``.
SIZED_LAYERS = ("tensor", "processes")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.max_side = 0
        self.operand_bytes = 0

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def _see(self, values) -> None:
        for v in values:
            if isinstance(v, (list, tuple)):
                self._see(v)
            elif isinstance(v, self._process_type):
                self.max_side = max(self.max_side, v.op.total_dim)
            elif isinstance(v, self._operator_type):
                self.max_side = max(self.max_side, v.total_dim)

    def _wrap(self, qualname: str, fn, sized: bool):
        tracer = self
        is_product_trace = qualname == "tensor.product_trace"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_product_trace:
                ops = [*args, *kwargs.values()][:2]
                tracer.operand_bytes += sum(op.matrix.nbytes for side in ops for op in side)
            idx = tracer.begin(qualname)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if sized:
                tracer._see((*args, *kwargs.values(), out))
            return out

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Route every lookup of a public causalkit function through a span."""
        from causalkit import LabeledOperator, ProcessMatrix

        self._operator_type, self._process_type = LabeledOperator, ProcessMatrix
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"causalkit.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj, layer in SIZED_LAYERS)
        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "causalkit" and not modname.startswith("causalkit."):
                continue
            for owner in [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]:
                for key, obj in list(owner.items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        undo.append((owner, key, obj))
                        owner[key] = wrappers[obj]
        try:
            yield
        finally:
            for owner, key, obj in undo:
                owner[key] = obj

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        if not self.start:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - covered, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names or [""]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
