"""In-memory spans around the calls into each `stmg` module.

The tracer replaces a function in the module that calls it, so a span
is recorded under the name its caller uses (``stmg.cycles.jacobi_sweep``
is the smoother as the cycles see it).  Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass


def _rows(args, kwargs, result):
    return result.size // result.shape[-1]


def _sweeps(args, kwargs, result):
    return args[3].sweeps


def _batch(args, kwargs, result):
    return len(args[0])


#: (module whose global is replaced, attribute, span name, count of work)
WRAPPED = [
    ("stmg.heat", "assemble_operator", "heat.assemble_operator", None),
    ("stmg.heat", "assemble_rhs", "heat.assemble_rhs", None),
    ("stmg.heat", "direct_solve", "heat.direct_solve", None),
    ("stmg.heat", "thomas_solve", "core.thomas_solve", _rows),
    ("stmg.cycles", "run_cycle", "cycles.run_cycle", None),
    ("stmg.cycles", "assemble_operator", "heat.assemble_operator", None),
    ("stmg.cycles", "apply_operator", "heat.apply_operator", None),
    ("stmg.cycles", "direct_solve", "heat.direct_solve", None),
    ("stmg.cycles", "jacobi_sweep", "smoother.jacobi_sweep", _sweeps),
    ("stmg.cycles", "restrict", "transfer.restrict", None),
    ("stmg.cycles", "prolong", "transfer.prolong", None),
    ("stmg.smoother", "apply_operator", "heat.apply_operator", None),
    ("stmg.smoother", "thomas_solve", "core.thomas_solve", _rows),
    ("stmg.lfa", "rho_bar_details", "lfa.rho_bar_details", None),
    ("stmg.lfa", "omega_opt_numeric", "lfa.omega_opt_numeric", None),
    ("stmg.lfa", "low_mode_action", "lfa.low_mode_action", None),
    ("stmg.lfa", "spectral_radius_over_groups", "lfa.spectral_radius_over_groups", None),
    ("stmg.lfa", "spectral_radius_batch", "lfa.spectral_radius_batch", _batch),
]


@dataclass
class Span:
    name: str
    phase: str
    round: int
    start: float
    end: float = 0.0
    child: float = 0.0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class NullTracer:
    """Tracing off: phases cost one context manager per solve or LFA call."""

    round = 0

    def phase(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Records a span per wrapped call, tagged with the benchmark phase and round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._phase = ""
        self._stack: list[Span] = []
        self._saved = []
        self.missing: list[str] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        outer, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = outer

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            span = Span(name, self._phase, self.round, 0.0)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.duration
                self.spans.append(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def never_called(self) -> list[str]:
        """Layers (module prefixes of span names) with a wrapped function never called."""
        called = {s.name for s in self.spans}
        absent = {name for _, attr, name, _ in WRAPPED if name not in called}
        layers = sorted({name.split(".")[0] for name in absent})
        return [f"{layer} ({', '.join(sorted(n for n in absent if n.startswith(layer + '.')))})"
                for layer in layers] + [f"missing {m}" for m in self.missing]

    def totals(self):
        """(round, phase, name) -> [calls, duration, self time, count]."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for s in self.spans:
            t = out[(s.round, s.phase, s.name)]
            t[0] += 1
            t[1] += s.duration
            t[2] += s.self_time
            t[3] += s.count
        return out

    def write(self, path):
        rows = [[s.name, s.phase, s.round, s.start, s.end, s.child, s.count]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "phase", "round", "start", "end",
                                   "child_time", "count"], "spans": rows}, fh)
