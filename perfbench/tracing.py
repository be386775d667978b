"""Spans around the calls into each quadcsp module, for the traced run.

The wrappers are installed on module attributes at run time, from here
only; nothing under ``src/`` knows about them.  Each call becomes a span
(name, start, end, parent, instance).  Spans stay in memory until the run
ends, are written out as JSON lines, and are reduced to per-layer totals
and self times (a span's duration minus that of its direct children).
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

#: (module, attribute, span name).  The first three are the benchmark's
#: own entry points; the rest are the names those entry points reach.
TRACED = (
    ("quadcsp.core", "parse_constraints", "core.parse_constraints"),
    ("quadcsp.solver", "solve", "solver.solve"),
    ("quadcsp.cli", "main", "cli.main"),
    ("quadcsp.solver", "load", "matrix2d.load"),
    ("quadcsp.solver", "close", "closure.close"),
    ("quadcsp.solver", "extract_witness", "solver.extract_witness"),
    ("quadcsp.solver", "fm_tight_bound", "fmoracle.fm_tight_bound"),
    ("quadcsp.solver", "fm_solution", "fmoracle.fm_solution"),
    ("quadcsp.cli", "load", "matrix2d.load"),
    ("quadcsp.cli", "close", "closure.close"),
    ("quadcsp.cli", "to_json_obj", "matrix2d.to_json_obj"),
    ("quadcsp.cli", "enumerate_simple_hcycles", "lindep.enumerate_simple_hcycles"),
    ("quadcsp.cli", "parse_constraints", "core.parse_constraints"),
)

_FM = ("fmoracle.fm_tight_bound", "fmoracle.fm_solution")


class Span:
    __slots__ = (
        "name", "parent", "instance", "start", "end", "child_s", "error",
        "sweeps", "confirmed",
    )

    def __init__(self, name: str, parent: "Span | None", instance: int):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.child_s = 0.0
        self.error = False
        self.sweeps = 0
        self.confirmed = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def parent_name(self) -> str | None:
        return None if self.parent is None else self.parent.name


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self.top_closes: list = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        from quadcsp.closure import sweep_cap

        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.instance)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
                if parent is not None:
                    parent.child_s += span.end - span.start
            if name == "closure.close":
                span.sweeps = result.sweeps_used
                span.confirmed = result.feasible and (
                    result.sweeps_used < sweep_cap(result.matrix.n)
                )
                if span.parent_name != "solver.extract_witness":
                    self.top_closes.append(result)
            return result

        return traced

    def write(self, path) -> None:
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                record = {
                    "id": k,
                    "name": s.name,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "instance": s.instance,
                    "start": s.start,
                    "end": s.end,
                    "error": s.error,
                }
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[Span], scales: list[float]) -> dict[str, float]:
    """Per-layer totals over all spans of a traced run; span times are
    multiplied by their instance's speed scale (see speed.py)."""

    def total(names, parent=None, exclude_parent=None, self_time=False):
        out = 0.0
        for s in spans:
            if s.name not in names:
                continue
            if parent is not None and s.parent_name != parent:
                continue
            if exclude_parent is not None and s.parent_name == exclude_parent:
                continue
            seconds = s.seconds - s.child_s if self_time else s.seconds
            out += seconds * scales[s.instance]
        return out

    def count(names, parent=None, error=None):
        return sum(
            1
            for s in spans
            if s.name in names
            and (parent is None or s.parent_name == parent)
            and (error is None or s.error == error)
        )

    closes = [s for s in spans if s.name == "closure.close"]
    sweeps = sum(s.sweeps for s in closes)
    close_s = total(("closure.close",))
    witness = "solver.extract_witness"
    return {
        "closure.close_s": close_s,
        "closure.close_calls": len(closes),
        "closure.sweeps": sweeps,
        "closure.sweep_s": close_s / sweeps if sweeps else 0.0,
        "closure.first_close_s": total(("closure.close",), exclude_parent=witness),
        "closure.pin_close_s": total(("closure.close",), parent=witness),
        "closure.confirm_sweep_share": (
            sum(s.confirmed for s in closes) / sweeps if sweeps else 0.0
        ),
        "solver.extract_witness_s": total((witness,)),
        "solver.self_s": total(("solver.solve", witness), self_time=True),
        "solver.pins": count(("closure.close",), parent=witness),
        "solver.oracle_fallbacks": count(_FM, parent=witness),
        "solver.fallback_failures": count(_FM, parent=witness, error=True),
        "fmoracle.fallback_s": total(_FM),
        "fmoracle.calls": count(_FM),
        "lindep.enumerate_s": total(("lindep.enumerate_simple_hcycles",)),
        "lindep.calls": count(("lindep.enumerate_simple_hcycles",)),
        "cli.main_s": total(("cli.main",)),
        "cli.self_s": total(("cli.main",), self_time=True),
        "matrix2d.to_json_s": total(("matrix2d.to_json_obj",)),
        "core.parse_s": total(("core.parse_constraints",)),
        "matrix2d.load_s": total(("matrix2d.load",)),
    }


def instance_profile(spans: list[Span]) -> dict[int, dict]:
    """Per instance: top-level close sweeps and whether a pin fell back
    to the oracle."""
    out: dict[int, dict] = {}
    for s in spans:
        rec = out.setdefault(s.instance, {"max_sweeps": 0, "fallback": False})
        if s.name == "closure.close" and s.parent_name != "solver.extract_witness":
            rec["max_sweeps"] = max(rec["max_sweeps"], s.sweeps)
        if s.name in _FM and s.parent_name == "solver.extract_witness":
            rec["fallback"] = True
    return out
