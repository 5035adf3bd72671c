"""The layer-cost ledger: in-memory spans at every layer boundary.

A traced benchmark run installs a :class:`Ledger`, which replaces every
function and method defined in a layer's modules with a thin wrapper.
The wrapper opens a span only when the call crosses a layer boundary
(the innermost open span belongs to another layer); a call that stays
inside its own layer passes straight through, so the cost of tracing
is paid once per boundary crossing, not once per call.

Each span charges its *self time* (its duration minus the time its
child spans cover) to its layer and to the crossing function.  Time at
the root, inside no span, is the explicit ``other`` bucket, so the
layer self times plus ``other`` add up to the traced wall time by
construction; :meth:`Ledger.end` checks that they do and that every
span was closed.

Generator functions (the simulated processes of the methodology and
agent layers) are wrapped so that every resumption is a span: their
work runs when the simulator steps them, not when they are created.

Wrapped are the public functions and methods of each layer, plus the
private ones a layer hands out as callbacks (a ``self._name`` or
``_name`` reference that is not a call, such as a simulator event or
an RPC handler): those run when another layer invokes them.  Other
private helpers are only called from inside their own layer, so
wrapping them would add cost and no information.

The ledger is a pure observer.  It never changes what a call returns
or raises, and it keeps no per-call record: spans are folded into
per-layer and per-function totals as they close.  After a ``fork``
the child restores the original functions, so worker processes run
untraced and only the parent's spans are counted.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import pkgutil
import re
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

__all__ = ["LAYERS", "READ_NAMES", "SELF_LAYERS", "Ledger", "UnitLedger"]

#: Module prefix -> layer, most specific prefix first.  Modules not
#: listed (core.trace, analysis, scenario, relations, ...) are not
#: layers: their time is charged to whichever layer called them.
LAYERS = (
    ("repro.core.anomalies", "core.anomalies"),
    ("repro.core.windows", "core.windows"),
    ("repro.replication", "replication"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.webapi", "webapi"),
    ("repro.services", "services"),
    ("repro.methodology", "methodology"),
    ("repro.agents", "methodology"),
    ("repro.clocksync", "methodology"),
    ("repro.obs", "obs"),
    ("repro.stream", "stream"),
    ("repro.world.bus", "world.bus"),
    ("repro.world.model", "world.model"),
    ("repro.world.buffers", "world.buffers"),
    ("repro.world", "world.engine"),
    ("repro.fleet.digest", "fleet.digest"),
    ("repro.fleet.store", "fleet.store"),
    ("repro.serve.store", "serve.store"),
    ("repro.serve.scheduler", "serve.pool"),
    ("repro.serve", "serve.api"),
    ("repro.api", "serve.api"),
    ("repro.io", "io"),
)

OTHER = "other"

#: Every self-time bucket the ledger reports, ``other`` last.
SELF_LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYERS)) \
    + (OTHER,)

#: Functions counted on every call, boundary or not:
#: (module, qualname) -> count name.
COUNTED = {
    ("repro.net.network", "Network.rpc"): "net.rpcs",
    ("repro.clocksync.cristian", "estimate_clock_delta"):
        "clocksync.syncs",
    ("repro.stream.engine", "StreamEngine.observe"): "stream.ops",
}

#: Classes whose instances are collected while a unit runs, so their
#: own work counters can be read when it ends: (module, class) -> key.
COLLECTED = {
    ("repro.sim.event_loop", "Simulator"): "simulators",
    ("repro.net.network", "Network"): "networks",
    ("repro.webapi.endpoint", "ServiceEndpoint"): "endpoints",
}

#: Method-name prefixes that make a crossing into the replication
#: layer a read or a write.
READ_NAMES = ("read",)
WRITE_NAMES = ("write", "accept_write")

#: A private name referenced without being called: a callback.
CALLBACK_REFERENCE = re.compile(r"\b(_[A-Za-z]\w*)\b(?!\s*\()")


def _method(qualified_name: str) -> str:
    return qualified_name.rsplit(".", 1)[-1]


def layer_of(module_name: str) -> str | None:
    for prefix, layer in LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _layer_modules() -> list[types.ModuleType]:
    """Import every module of every layer (lazy imports included)."""
    modules = []
    for prefix, _ in LAYERS:
        module = importlib.import_module(prefix)
        modules.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.walk_packages(module.__path__,
                                              prefix + "."):
                modules.append(importlib.import_module(info.name))
    unique = {module.__name__: module for module in modules}
    return [unique[name] for name in sorted(unique)]


def _traced_name(name: str, callbacks: set[str]) -> bool:
    """Public names, ``__call__``, and private names used as callbacks."""
    if name.startswith("__"):
        return name == "__call__"
    return not name.startswith("_") or name in callbacks


@dataclass
class UnitLedger:
    """The ledger of one traced unit of work."""

    wall_s: float
    #: Layer -> self seconds, ``other`` included.
    self_s: dict[str, float]
    #: Deterministic layer counts (see ``Ledger._counts``).
    counts: dict[str, int]
    #: Crossing function -> its layer, crossings and self seconds.
    functions: dict[str, dict]

    def accounting_error(self) -> float:
        """|sum of self times (other included) - traced wall|."""
        return abs(sum(self.self_s.values()) - self.wall_s)

    def crossing_self_s(self, layer: str,
                        methods: tuple[str, ...]) -> float:
        """Self seconds of the crossings into ``layer`` whose method
        name starts with one of ``methods``."""
        return sum(entry["self_s"] for name, entry in self.functions.items()
                   if entry["layer"] == layer
                   and _method(name).startswith(methods))


class Ledger:
    """Boundary spans folded into per-layer self time and counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.function_self_s: defaultdict[tuple, float] = \
            defaultdict(float)
        self.crossings: Counter = Counter()
        self.counted: Counter = Counter()
        self.instances: dict[str, list] = {
            key: [] for key in COLLECTED.values()
        }
        #: Open spans, innermost last: [layer, child seconds].
        self._stack: list[list] = [[OTHER, 0.0]]
        self._patches: list[tuple[object, str, object]] = []
        self._start = 0.0

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Wrap every function and method of every layer module."""
        replaced: dict[int, object] = {}
        for module in _layer_modules():
            layer = layer_of(module.__name__)
            callbacks = set(CALLBACK_REFERENCE.findall(
                inspect.getsource(module)))
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and \
                        value.__module__ == module.__name__ and \
                        _traced_name(name, callbacks):
                    wrapped = self._wrap(value, layer, module.__name__)
                    replaced[id(value)] = (value, wrapped)
                elif isinstance(value, type) and \
                        value.__module__ == module.__name__:
                    self._wrap_class(value, layer, module.__name__,
                                     callbacks)
        # Re-point every ``from x import f`` binding at the wrapper.
        for module in list(sys.modules.values()):
            if module is None or \
                    not getattr(module, "__name__", "").startswith(
                        "repro"):
                continue
            for name, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        """Restore every original function and method."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, layer: str, module: str,
                    callbacks: set[str]) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        collected = COLLECTED.get((module, cls.__name__))
        if collected is not None:
            self._patch(cls, "__init__", self._collecting(
                self._wrap(vars(cls)["__init__"], layer, module),
                collected))
        for name, value in list(vars(cls).items()):
            if not _traced_name(name, callbacks):
                continue
            if isinstance(value, types.FunctionType):
                self._patch(cls, name, self._wrap(value, layer, module))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if isinstance(inner, types.FunctionType):
                    self._patch(cls, name, type(value)(
                        self._wrap(inner, layer, module)))

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer: str, module: str):
        key = (layer, f"{module}.{fn.__qualname__}")
        count_name = COUNTED.get((module, fn.__qualname__))
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key, count_name)
        stack = self._stack
        clock = time.perf_counter
        crossings = self.crossings
        counted = self.counted
        layer_self = self.self_s
        function_self = self.function_self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_name is not None:
                counted[count_name] += 1
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            crossings[key] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                layer_self[layer] += own
                function_self[key] += own
                stack[-1][1] += elapsed

        return traced

    def _wrap_generator(self, fn, layer: str, key: tuple,
                        count_name: str | None):
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_name is not None:
                ledger.counted[count_name] += 1
            return _TracedGenerator(fn(*args, **kwargs), ledger,
                                    layer, key)

        return traced

    def _collecting(self, init, key: str):
        instances = self.instances[key]

        @functools.wraps(init)
        def collecting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return collecting_init

    # -- one traced unit ------------------------------------------------

    def begin(self) -> None:
        """Reset every tally and open the root span."""
        self.self_s.clear()
        self.function_self_s.clear()
        self.crossings.clear()
        self.counted.clear()
        for collected in self.instances.values():
            collected.clear()
        self._stack[:] = [[OTHER, 0.0]]
        self._start = time.perf_counter()

    def end(self) -> UnitLedger:
        """Close the root span and fold the unit's tallies.

        Raises ``RuntimeError`` when a span was left open — the
        accounting would then be wrong.
        """
        wall = time.perf_counter() - self._start
        if len(self._stack) != 1:
            raise RuntimeError(
                f"{len(self._stack) - 1} span(s) left open at unit end")
        self_s = {layer: self.self_s.get(layer, 0.0)
                  for layer in SELF_LAYERS if layer != OTHER}
        self_s[OTHER] = wall - self._stack[0][1]
        functions = {
            name: {"layer": layer, "crossings": self.crossings[layer, name],
                   "self_s": seconds}
            for (layer, name), seconds in sorted(
                self.function_self_s.items())
        }
        unit = UnitLedger(wall, self_s, self._counts(), functions)
        for collected in self.instances.values():
            collected.clear()
        return unit

    def _counts(self) -> dict[str, int]:
        reads = writes = obs_calls = 0
        for (layer, name), count in self.crossings.items():
            method = _method(name)
            if layer == "replication":
                if method.startswith(READ_NAMES):
                    reads += count
                elif method.startswith(WRITE_NAMES):
                    writes += count
            elif layer == "obs":
                obs_calls += count
        endpoints = self.instances["endpoints"]
        return {
            "sim.events": sum(sim.events_processed
                              for sim in self.instances["simulators"]),
            "net.rpcs": self.counted["net.rpcs"],
            "net.messages": sum(net.messages_sent
                                for net in self.instances["networks"]),
            "webapi.requests": sum(ep.stats.requests_total
                                   for ep in endpoints),
            "webapi.rate_limited": sum(ep.stats.rate_limited
                                       for ep in endpoints),
            "replication.reads": reads,
            "replication.writes": writes,
            "clocksync.syncs": self.counted["clocksync.syncs"],
            "obs.calls": obs_calls,
            "stream.ops": self.counted["stream.ops"],
        }


class _TracedGenerator:
    """A generator whose every resumption is a span of its layer."""

    __slots__ = ("_gen", "_ledger", "_layer", "_key")

    def __init__(self, gen, ledger: Ledger, layer: str,
                 key: tuple) -> None:
        self._gen = gen
        self._ledger = ledger
        self._layer = layer
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._gen.close()

    def _resume(self, step, *args):
        ledger = self._ledger
        stack = ledger._stack
        layer = self._layer
        if stack[-1][0] is layer:
            return step(*args)
        ledger.crossings[self._key] += 1
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return step(*args)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            own = elapsed - frame[1]
            ledger.self_s[layer] += own
            ledger.function_self_s[self._key] += own
            stack[-1][1] += elapsed
