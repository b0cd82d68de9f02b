"""Spans around heckelift's public functions, installed from outside.

install() replaces every public function of the library modules, in every
heckelift module namespace that holds it, by a wrapper that times the call.
Spans are aggregated in memory as they close: per name the call count,
inclusive time and self time (inclusive time minus the time of the spans
it encloses), and per (name, tag) the inclusive time, where the tag is the
size class of the operation in progress.  Nothing is recorded while the
tracer is inactive, so input generation and answer checks stay out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LIBRARY_MODULES = ("exactnum", "abchar", "heckeq", "heckequad", "qseries", "serrepq")
# class methods traced besides the module-level functions
METHODS = {"qseries": {"QExpansion": {"__mul__": "mul"}}}


def _coeff_products(args, result) -> int:
    """Coefficient products schoolbook multiplication performs for a * b:
    each nonzero a_i meets the n - i coefficients of b that fit, where n is
    the common precision.  Computed from the operands, not counted inside."""
    a, b = args
    if not hasattr(b, "coeffs"):
        return 0
    n = min(len(a.coeffs), len(b.coeffs))
    return sum(n - i for i, c in enumerate(a.coeffs[:n])
               if not (c.is_zero() if hasattr(c, "is_zero") else c == 0))


# span name -> (counter, count(args, result)) for the work counts
COUNTERS = {
    "qseries.QExpansion.mul": ("qseries.coeff_products", _coeff_products),
    "heckequad.class_group": ("heckequad.forms_total", lambda args, result: result.h),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.tag = None
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive s, self s]
        self.tagged: dict[tuple, list] = {}  # (name, tag) -> [calls, inclusive s]
        self.counters: dict[str, int] = {}
        self._children: list[float] = []  # per open span: time of closed children

    def wrap(self, name: str, fn):
        """fn timed as span `name`, feeding its counter if COUNTERS has one."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counter, count = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.counters[counter] = self.counters.get(counter, 0) + count(args, result)
                return result
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if children:
                    children[-1] += dt
                tagged = self.tagged.setdefault((name, self.tag), [0, 0.0])
                tagged[0] += 1
                tagged[1] += dt

        return span

    def install(self) -> None:
        """Wrap the public functions of the library modules in place."""
        replaced = {}
        for short in LIBRARY_MODULES:
            mod = importlib.import_module(f"heckelift.{short}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj) and not isinstance(obj, type) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{short}.{name}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for attr, label in methods.items():
                    setattr(cls, attr, self.wrap(f"{short}.{cls_name}.{label}", getattr(cls, attr)))
        namespaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "heckelift"]
        for ns in namespaces:
            for key, val in list(ns.items()):
                if id(val) in replaced:
                    ns[key] = replaced[id(val)]

    def count_qmodz(self) -> None:
        """Count QmodZ constructions; a pass of its own, the hook is costly."""
        from heckelift.exactnum import QmodZ

        init = QmodZ.__init__

        def counted(obj, *args):
            if self.active:
                self.counters["exactnum.QmodZ.constructed"] = (
                    self.counters.get("exactnum.QmodZ.constructed", 0) + 1)
            init(obj, *args)

        QmodZ.__init__ = counted

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "tagged": [[name, tag, *v] for (name, tag), v in self.tagged.items()],
            "counters": self.counters,
        }


def merge(into: dict, dump: dict) -> None:
    """Add one dump() into an accumulated one."""
    for name, v in dump["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += v[i]
    tagged = {(n, t): v for n, t, *v in into["tagged"]}
    for n, t, calls, total in dump["tagged"]:
        acc = tagged.setdefault((n, t), [0, 0.0])
        acc[0] += calls
        acc[1] += total
    into["tagged"] = [[n, t, *v] for (n, t), v in tagged.items()]
    for k, v in dump["counters"].items():
        into["counters"][k] = into["counters"].get(k, 0) + v
