"""Outside-in span recorder for the ssdlab layers.

The tracer wraps public functions of the package's modules from the
benchmark's side; the package source is never edited. Each wrapper is
rebound in every loaded ``ssdlab`` module namespace that holds the
original function, because modules call each other through their own
globals (``toyfsm`` and ``objective`` reach ``retained_support`` and
``temper`` that way). Spans are aggregated in memory per key: calls,
inclusive time, self time (inclusive minus the time of traced callees,
kept on a call stack) and optional work units.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable

# The package's modules, which are the layers. `errors` holds only
# exception classes, costs nothing at run time and is not a layer.
LAYERS = ("categorical", "decode", "objective", "sensitivity", "toyfsm", "cli")

CONSTRUCTOR = "Categorical.__post_init__"

# A probe maps (args, kwargs, result) to (bin label, work units).
Probe = Callable[[tuple, dict, object], "tuple[str, float]"]


def public_functions(module) -> dict[str, Callable]:
    """Functions defined in the module whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Installs wrappers, aggregates spans and restores the originals.

    stats maps (layer, function, bin) to [calls, inclusive_s, self_s, units].
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str, str], list] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable, probe: Probe | None):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                label, units = probe(args, kwargs, result) if probe else ("", 0.0)
                rec = stats.get((layer, name, label))
                if rec is None:
                    rec = stats[(layer, name, label)] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                rec[3] += units

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets: dict[tuple[str, str], Probe | None]) -> None:
        """Wrap each (layer, function) target; absent functions are recorded, not fatal.

        A target named CONSTRUCTOR wraps Categorical.__post_init__ at class
        level, so every validated construction is one call.
        """
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "ssdlab" or key.startswith("ssdlab."))
        ]
        for (layer, name), probe in targets.items():
            if name == CONSTRUCTOR:
                cls = getattr(sys.modules.get("ssdlab.categorical"), "Categorical", None)
                original = vars(cls).get("__post_init__") if cls else None
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                setattr(cls, "__post_init__", self._wrap(layer, name, original, probe))
                self._undo.append((cls, "__post_init__", original))
                continue
            home = sys.modules.get(f"ssdlab.{layer}")
            original = public_functions(home).get(name) if home else None
            if original is None:
                self.missing.append(f"{layer}.{name}")
                continue
            wrapper = self._wrap(layer, name, original, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def remove(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def total(self, layer: str, name: str | None = None, label: str | None = None):
        """Sum [calls, inclusive_s, self_s, units] over matching keys."""
        out = [0, 0.0, 0.0, 0.0]
        for (lay, fn, lab), rec in self.stats.items():
            if lay == layer and (name is None or fn == name) and (
                label is None or lab == label
            ):
                for i in range(4):
                    out[i] += rec[i]
        return out


def all_public_targets() -> dict[tuple[str, str], Probe | None]:
    """Every public function of every layer, plus Categorical construction."""
    targets: dict[tuple[str, str], Probe | None] = {}
    for layer in LAYERS:
        module = sys.modules.get(f"ssdlab.{layer}")
        if module is None:
            continue
        for name in public_functions(module):
            targets[(layer, name)] = None
    targets[("categorical", CONSTRUCTOR)] = None
    return targets
