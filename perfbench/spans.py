"""In-memory span tracer that wraps the public functions of cavity2deg's
layers from outside the package.

``Tracer.install`` replaces every public function of ``core``,
``singlemode``, ``response``, ``eft``, ``manymode`` and ``cli`` with a
timing wrapper.  The wrapper goes into every namespace that holds the
function: the defining module, modules that imported it by name, the package
and module-level dicts such as the CLI's dispatch table.  Calls between
layers are therefore caught too.  Three methods are wrapped as well:
``OccupancyGrid.disk``, ``EftConfig.__init__`` and ``OutputRecord.render``.
``uninstall`` puts every original back.

A span records its name, start, end, parent span and task id.  Spans stay in
memory until ``save`` writes them out.  A few wrappers also count work from
the return value: Jacobi sweeps, disk boundary cells and rendered bytes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("core", "singlemode", "response", "eft", "manymode", "cli")
COUNTS = ("manymode.diagonalize_w.sweeps", "manymode.jacobi.rotations_computed",
          "manymode.jacobi.flops_computed", "singlemode.disk.boundary_cells",
          "cli.render.bytes")


def _diagonalize_counts(tracer, args, kwargs, nm) -> None:
    n = nm.omega_sq.size
    rotations = nm.sweeps * n * (n - 1) // 2
    tracer.counts["manymode.diagonalize_w.sweeps"] += nm.sweeps
    tracer.counts["manymode.jacobi.rotations_computed"] += rotations
    # each rotation updates two rows, two columns and two vector columns of
    # length n at 3 flops per element
    tracer.counts["manymode.jacobi.flops_computed"] += rotations * 18 * n


def _disk_counts(signature, tracer, args, kwargs, grid) -> None:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    fill = bound.arguments["fill"]
    tracer.counts["singlemode.disk.boundary_cells"] += int(
        np.count_nonzero((grid.f > 0.0) & (grid.f < fill)))


def _render_counts(tracer, args, kwargs, text) -> None:
    tracer.counts["cli.render.bytes"] += len(text.encode("utf-8"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._task_id = -1
        self._last_error = None
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_task(self, task_id: int) -> None:
        """Open the root span of one task; layer spans nest under it."""
        self._task_id = task_id
        self._open(self._id("task"))

    def end_task(self) -> None:
        self._close()
        self._task_id = -1

    def _open(self, name_id: int) -> None:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self._task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter()

    def _wrap(self, name: str, fn, hook=None):
        name_id = self._id(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close()
                # count each exception once, in the innermost layer it left
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            self._close()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cavity2deg" or n.startswith("cavity2deg.")]
        hooks = {"manymode.diagonalize_w": _diagonalize_counts}
        for layer in LAYERS:
            module = sys.modules[f"cavity2deg.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    self._replace_everywhere(modules, fn,
                                             self._wrap(name, fn, hooks.get(name)))
        singlemode, eft, cli = (sys.modules[f"cavity2deg.{n}"]
                                for n in ("singlemode", "eft", "cli"))
        disk = singlemode.OccupancyGrid.__dict__["disk"].__func__
        disk_hook = functools.partial(_disk_counts, inspect.signature(disk))
        self._set(singlemode.OccupancyGrid, "disk", classmethod(
            self._wrap("singlemode.disk", disk, disk_hook)))
        self._set(eft.EftConfig, "__init__",
                  self._wrap("eft.EftConfig", eft.EftConfig.__init__))
        self._set(cli.OutputRecord, "render",
                  self._wrap("cli.render", cli.OutputRecord.render, _render_counts))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "parent": np.array(self.parent, dtype=np.int32),
                "task": np.array(self.task, dtype=np.int32)}

    def self_times(self) -> dict:
        """Per span name: (total self seconds, calls, top-level calls).

        Self time is the span's duration minus the durations of its direct
        children; a top-level call is one whose parent is in another layer.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        layers = [n.split(".", 1)[0] for n in self.names]
        layer_of = np.array([layers.index(x) for x in layers])
        name = a["name"]
        span_layer = layer_of[name]
        parent_layer = np.where(has_parent, span_layer[np.maximum(a["parent"], 0)], -1)
        top = span_layer != parent_layer
        out = {}
        for i, n in enumerate(self.names):
            sel = name == i
            out[n] = (float(own[sel].sum()), int(sel.sum()), int((sel & top).sum()))
        return out

    def save(self, path) -> None:
        """Write every span as columns of an .npz file, names as JSON."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())
