"""Per-layer spans taken from outside the program.

:class:`Tracer` wraps every public function (no leading underscore) defined
in each layer module of ``qchain``, plus a few named methods, and rebinds
each wrapped name in every ``qchain`` module that imported it (for example
``sim.observer_hamiltonian``).  Private aliases such as
``_kernels._rk4_impl`` keep the original, so a public entry point's self
time includes the private helpers it calls.  Each wrapper records calls,
total time, self time and exceptions raised.  Self time is total time minus
the time spent in wrapped child calls, so the self times of all spans add up
to the time spent inside the outermost wrapped calls.

A layer module or method that no longer exists is recorded in ``absent`` and
skipped.  Metric names use ``kernels`` for the ``_kernels`` module, because a
metric name must start with a letter.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "qchain"

LAYERS = ("cli", "observer", "network", "analysis", "core", "sim", "_kernels")

METHODS = (
    "core.ConservativeFlow.__init__",
    "core.ConservativeFlow.propagate",
    "core.ConservativeFlow.matrix",
)


def layer_name(module: str) -> str:
    return module.lstrip("_")


class Tracer:
    """Wraps the package's public functions while installed.

    ``stats[name]`` is ``[calls, total_s, self_s, exceptions]``.
    ``samples_evaluated`` sums ``times.size`` over values returned by
    ``sim.simulate``.
    """

    def __init__(self, layers=LAYERS, methods=METHODS):
        self.layers = tuple(layers)
        self.methods = tuple(methods)
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self.samples_evaluated = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        count_samples = name == "sim.simulate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                total = clock() - t0
                child = stack.pop()
                st[0] += 1
                st[1] += total
                st[2] += total - child
                if stack:
                    stack[-1] += total
            if count_samples:
                self.samples_evaluated += int(result.times.size)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = {}
        for layer in self.layers:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(layer_name(layer))
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer_name(layer)}.{attr}", obj)
        for path in self.methods:
            layer, cls_name, meth = path.split(".")
            cls = getattr(modules.get(layer), cls_name, None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if not inspect.isfunction(fn):
                self.absent.append(f"{layer_name(layer)}.{cls_name}.{meth}")
                continue
            self._set(cls, meth, self._wrap(f"{layer_name(layer)}.{cls_name}.{meth}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if (wrapper is not None and wrapper.__wrapped__ is obj
                        and not attr.startswith("_")):
                    self._set(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
