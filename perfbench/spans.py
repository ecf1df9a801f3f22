"""In-memory spans around calls into robustcoord's modules.

The traced run rebinds public functions in the modules that call them (for
example ``robustcoord.cli.design`` and ``robustcoord.baselines.design``), so
the real call graph runs unchanged and every call into a layer opens a span.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.

A span records its name, start and end (``perf_counter``), the CPU time of
its thread, its parent span and the pass it belongs to, plus per-call counts
in ``attrs``. Calls made from ``sweep``'s worker threads take the innermost
open span of the main thread as their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    cpu: float  # CPU seconds of the calling thread inside the span
    parent: int | None
    pass_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def cover(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - cover(children.get(sp.id, []), sp.start, sp.end)
        for sp in spans
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span. ``before(kwargs)`` may add arguments and
        returns a context for ``after(attrs, result, context)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            ctx = before(kwargs) if before else None
            attrs: dict = {}
            stack.append(sid)
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, c1 - c0, parent, self.pass_id, attrs))
            if after:
                after(attrs, result, ctx)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def _design_before(kwargs):
    from robustcoord.designer import OpCounter

    counter = kwargs.get("counter")
    if counter is None:
        counter = kwargs["counter"] = OpCounter()
    return counter, counter.ops


def _design_after(attrs, tp, ctx):
    counter, ops0 = ctx
    attrs["ops"] = counter.ops - ops0
    attrs["welfare"] = tp.expected_welfare


def _solve_after(attrs, sol, _):
    attrs["status"] = sol.status
    attrs["value"] = sol.value
    attrs["mass_residual"] = float(abs(sol.eq_residuals).max())
    attrs["min_slack"] = float(sol.ineq_slacks.min())


# span name, defining module, attribute, modules whose binding is replaced,
# and the optional before/after hooks that record counts
TARGETS = [
    ("cli.main", "robustcoord.cli", "main", ["robustcoord.cli"], None, None),
    ("scenarios.load", "robustcoord.scenarios", "load_scenario", ["robustcoord.cli"], None, None),
    (
        "designer.design", "robustcoord.designer", "design",
        ["robustcoord.cli", "robustcoord.baselines"], _design_before, _design_after,
    ),
    (
        "designer.to_sequential_policy", "robustcoord.designer", "to_sequential_policy",
        ["robustcoord.cli", "robustcoord.equilibrium"], None, None,
    ),
    (
        "seqpolicy.check_policy", "robustcoord.seqpolicy", "check_policy",
        ["robustcoord.cli", "robustcoord.equilibrium"], None, None,
    ),
    (
        "equilibrium.evaluate_policy_realized", "robustcoord.equilibrium",
        "evaluate_policy_realized", ["robustcoord.cli"], None, None,
    ),
    (
        "equilibrium.smallest_equilibrium", "robustcoord.equilibrium", "smallest_equilibrium",
        ["robustcoord.equilibrium", "robustcoord.baselines"], None,
        lambda attrs, out, _: attrs.update(br_rounds=len(out.rounds) - 1),
    ),
    ("baselines.compare", "robustcoord.baselines", "compare", ["robustcoord.cli", "robustcoord.baselines"], None, None),
    ("baselines.design_bce_optimistic", "robustcoord.baselines", "design_bce_optimistic", ["robustcoord.baselines"], None, None),
    ("baselines.evaluate_bce_realized", "robustcoord.baselines", "evaluate_bce_realized", ["robustcoord.baselines"], None, None),
    (
        "baselines.sweep", "robustcoord.baselines", "sweep", ["robustcoord.cli"], None,
        lambda attrs, out, _: attrs.update(points=len(out)),
    ),
    (
        "lp.build_lp", "robustcoord.lp", "build_lp", ["robustcoord.cli"], None,
        lambda attrs, out, _: attrs.update(n_vars=out.n_vars),
    ),
    ("lp.solve", "robustcoord.lp", "solve", ["robustcoord.cli"], None, _solve_after),
    (
        "simplex.solve_min", "robustcoord.simplex", "solve_min", ["robustcoord.lp"], None,
        lambda attrs, out, _: attrs.update(pivots=out.iterations),
    ),
]


def install(tracer: Tracer):
    """Rebind every target to a traced wrapper; returns the undo function."""
    saved = []
    for name, home, attr, users, before, after in TARGETS:
        original = getattr(importlib.import_module(home), attr)
        wrapped = tracer.wrap(name, original, before, after)
        for user in users:
            mod = importlib.import_module(user)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)

    def uninstall() -> None:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)

    return uninstall
