"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public names (``__all__``) of every obkit
layer module.  A function, a public method and the ``__init__`` and
``__matmul__`` of a public class get a span: calls and self time, which
is the span's time minus the time of the spans it caused.  Every other
dunder (``__hash__``, ``__eq__``, ``__mul__``, ...) only counts calls,
because it is called too often to time without drowning the result.

Every wrapper is also patched into each module that imported the
original by name (``from .chi import verify_cocycle``), so calls made
through those names are traced too.  Spans are summed in memory per
name, not kept one by one.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

LAYERS = ("restricted_json", "scenario", "words", "groups", "intlinalg", "groupring",
          "gmodules", "wh1", "chi", "obstruction", "cli")

TIMED_DUNDERS = ("__init__", "__matmul__")
# The guards of frozen dataclasses: they only raise, so there is nothing
# to count.
SKIPPED_DUNDERS = ("__setattr__", "__delattr__")


class Tracer:
    """Call counts and self time by name, plus a few counts that need
    the arguments or result of a call."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.cocycles: set[int] = set()
        self._stack: list[list[float]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counts that need arguments ---------------------------------------

    def _after_verify_cocycle(self, args, result):
        # Read the quotient's fields directly: calling into obkit here
        # would add spans of the tracer's own making.
        cocycle = args[0]
        torsion = [m for f in cocycle.quotient.target.factors for m in f.torsion]
        order = 1
        for m in torsion:
            order *= m
        if result is None:
            quads = order ** 4
        else:
            # Position of the violated quadruple in enumeration order.
            quads = 1
            for i, q in enumerate(result):
                exps = q.syllables[0][1] if q.syllables else (0,) * len(torsion)
                rank = 0
                for e, m in zip(exps, torsion):
                    rank = rank * m + e
                quads += rank * order ** (3 - i)
        self.counts["chi.verify_cocycle.quads"] += quads
        self.cocycles.add(id(cocycle))

    def _after_smith_normal_form(self, args, result):
        m = args[0]
        key = "intlinalg.smith_normal_form.max_cells"
        self.counts[key] = max(self.counts[key], m.rows * m.cols)

    _after = {
        "chi.verify_cocycle": _after_verify_cocycle,
        "intlinalg.smith_normal_form": _after_smith_normal_form,
    }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public name of every layer."""
        modules = {layer: importlib.import_module(f"obkit.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for public in getattr(module, "__all__", ()):
                obj = module.__dict__.get(public)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = (obj, self.span(f"{layer}.{public}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(f"{layer}.{public}", obj)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            dunder = attr.startswith("__") and attr.endswith("__")
            if dunder and attr in SKIPPED_DUNDERS:
                continue
            if not dunder and attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                wrap = self.span if not dunder or attr in TIMED_DUNDERS else self.counter
                setattr(cls, attr, wrap(name, raw))

    # -- per job -----------------------------------------------------------

    def take_job(self) -> dict:
        """What the finished job recorded; the tracer starts afresh.  The
        cocycle ids are forgotten here because ids may be reused later."""
        job = {"calls": self.calls.copy(), "self_s": self.self_s.copy(),
               "counts": self.counts.copy(), "cocycles": len(self.cocycles)}
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.cocycles.clear()
        return job


def static_counts(root: Path) -> dict:
    """Non-blank lines of src/obkit and the total size of its __all__ lists."""
    lines = 0
    names = 0
    for path in sorted((root / "src" / "obkit").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += sum(1 for line in text.splitlines() if line.strip())
        for node in ast.parse(text).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    and isinstance(node.value, (ast.List, ast.Tuple))):
                names += len(node.value.elts)
    return {"code.src_lines": lines, "code.public_names": names}
