"""Host-time spans around the calls into each ``repro`` layer.

The benchmark never edits the program: :class:`SpanRecorder` wraps the
functions and the public methods of the classes every layer package
exports (its ``__all__``) from the outside, and restores the originals
afterwards.  A call from one layer into another opens a span; a call that
stays inside the same layer does not.  A span's *self time* is its
duration minus the spans it caused in other layers, so the self times of
all layers plus ``other`` (time outside every layer span) add up to the
traced wall time.

Besides layer spans the recorder times a few named *operations* inside a
layer (``OPERATIONS``), inclusive of everything they call, and counts them.

Spans are kept in memory in flat arrays while the run is measured and are
written out only by :meth:`SpanRecorder.write` after it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: The ``src/repro`` packages that are timed, in reporting order.
LAYERS = (
    "dram",
    "flash",
    "ftl",
    "nvme",
    "host",
    "ext4",
    "attack",
    "mitigations",
    "serve",
    "payload",
    "utrr",
    "engine",
)

#: Time outside every layer span: the benchmark's glue, and repro's
#: top-level modules when the benchmark calls them directly.
OTHER = "other"

#: Named operations: metric prefix -> (module, "Class.method" or function).
#: Private helpers are listed where they are the operation's only door.
OPERATIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "mitigations.encrypt": (("repro.mitigations.encryption", "encrypt_block"),),
    "ext4.crc32c": (("repro.ext4.crc32c", "crc32c"),),
    "dram.ecc": (
        ("repro.dram.module", "DramModule._read_ecc"),
        ("repro.dram.module", "DramModule._update_check_bytes"),
    ),
    "dram.replay": (("repro.dram.module", "DramModule.activate_burst"),),
    "dram.rw": (
        ("repro.dram.module", "DramModule.read"),
        ("repro.dram.module", "DramModule.write"),
        ("repro.dram.module", "DramModule.read_batch"),
        ("repro.dram.module", "DramModule.write_batch"),
    ),
    "dram.hammer": (
        ("repro.dram.module", "DramModule.hammer"),
        ("repro.dram.module", "DramModule.access_batch"),
    ),
    "ftl.gc": (("repro.ftl.gc", "GreedyGarbageCollector.collect"),),
}

#: Spans kept for :meth:`SpanRecorder.write`; self times stay exact past it.
MAX_KEPT_SPANS = 1_000_000


def _own_function(fn, module) -> bool:
    """True for a plain function written in ``module``'s source file
    (not a generated dataclass method, not a generator)."""
    code = getattr(fn, "__code__", None)
    if code is None or code.co_filename != getattr(module, "__file__", None):
        return False
    return not (inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn))


def _import_layer(layer: str):
    """Import a layer package and all its modules (so every copy of an
    exported function is loaded before the copies are rebound)."""
    package = importlib.import_module("repro." + layer)
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)
    return package


class SpanRecorder:
    """Collects layer spans while installed; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names = [OTHER] + list(LAYERS)
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.op_s: Dict[str, float] = {op: 0.0 for op in OPERATIONS}
        self.op_calls: Dict[str, int] = {op: 0 for op in OPERATIONS}
        self._op_open: Dict[str, bool] = {op: False for op in OPERATIONS}
        # One frame per open span: [layer index, time covered by children].
        self._stack: List[list] = []
        self._root_start = 0.0
        self._patches: List[Tuple[object, str, object]] = []
        self.span_layer = array("b")
        self.span_parent = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped_spans = 0

    # -- measurement ----------------------------------------------------

    def start(self) -> None:
        """Open the root frame; everything until :meth:`stop` is timed."""
        self._stack = [[0, 0.0]]
        self._root_start = self.clock()

    def stop(self) -> None:
        """Close the root frame, charging uncovered time to ``other``."""
        frame = self._stack.pop()
        elapsed = self.clock() - self._root_start
        self.self_s[0] += elapsed - frame[1]

    def _span(self, layer: int, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            parent = stack[-1]
            parent[1] += duration
            if len(self.span_start) < MAX_KEPT_SPANS:
                self.span_layer.append(layer)
                self.span_parent.append(parent[0])
                self.span_start.append(start)
                self.span_end.append(end)
            else:
                self.dropped_spans += 1

    def _layer_wrapper(self, fn, layer: int):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return recorder._span(layer, fn, args, kwargs)

        return wrapper

    def _op_wrapper(self, fn, op: str):
        recorder = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder._op_open[op] or not recorder._stack:
                return fn(*args, **kwargs)
            recorder._op_open[op] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.op_s[op] += clock() - start
                recorder.op_calls[op] += 1
                recorder._op_open[op] = False

        return wrapper

    # -- installation ---------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every function and class method each layer package exports."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrapped_functions: Dict[int, tuple] = {}
        for index, layer in enumerate(LAYERS, start=1):
            package = _import_layer(layer)
            for name in getattr(package, "__all__", ()):
                value = getattr(package, name)
                module_name = str(getattr(value, "__module__", ""))
                if not (module_name == package.__name__
                        or module_name.startswith(package.__name__ + ".")):
                    continue  # a constant, or re-exported from elsewhere
                module = sys.modules[module_name]
                if inspect.isclass(value):
                    self._wrap_class(value, module, index)
                elif inspect.isfunction(value) and _own_function(value, module):
                    wrapped_functions[id(value)] = (value, self._layer_wrapper(value, index))
        self._wrap_operations(wrapped_functions)
        # ``from x import f`` copies a function into other modules'
        # namespaces, so every copy in a loaded repro module is rebound.
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                hit = wrapped_functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])

    def _wrap_class(self, cls, module, layer: int) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if _own_function(fn, module):
                    self._patch(cls, name, type(raw)(self._layer_wrapper(fn, layer)))
            elif inspect.isfunction(raw) and _own_function(raw, module):
                self._patch(cls, name, self._layer_wrapper(raw, layer))

    def _wrap_operations(self, wrapped_functions: Dict[int, tuple]) -> None:
        for op, targets in OPERATIONS.items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                    current = owner.__dict__[attr]
                    self._patch(owner, attr, self._op_wrapper(current, op))
                    continue
                original = module.__dict__[path]
                hit = wrapped_functions.get(id(original))
                inner = hit[1] if hit is not None else original
                wrapper = self._op_wrapper(inner, op)
                wrapped_functions[id(original)] = (original, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------

    @property
    def kept_spans(self) -> int:
        return len(self.span_start)

    def layer_self_s(self) -> Dict[str, float]:
        return dict(zip(self.names, self.self_s))

    def layer_calls(self) -> Dict[str, int]:
        return dict(zip(self.names, self.calls))

    def write(self, path: Path) -> None:
        """Write the kept spans as one ``.npz`` file: ``layer`` and
        ``parent`` (indexes into ``names``), ``start`` and ``end`` (host
        seconds)."""
        import numpy

        path.parent.mkdir(parents=True, exist_ok=True)
        numpy.savez(
            path,
            names=numpy.array(self.names),
            layer=numpy.frombuffer(self.span_layer, dtype=numpy.int8),
            parent=numpy.frombuffer(self.span_parent, dtype=numpy.int8),
            start=numpy.frombuffer(self.span_start, dtype=numpy.float64),
            end=numpy.frombuffer(self.span_end, dtype=numpy.float64),
        )
