"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public entry points of each lnjam module with
timing wrappers, in every module namespace that holds them: functions such
as ``apply_slot_limits`` or ``split_by_slot_class`` are imported by name into
several modules, and ``lnjam.cli`` imports most of the others, so patching
only the defining module would miss those calls. Methods are patched on
their class. ``uninstall`` puts every original back.

A span's self time is its duration minus the time covered by the spans it
encloses. Helpers called inside a traced function (``score_node``,
``connected_components``, ``can_extend_route`` ...) are not wrapped, so
their time counts as the caller's self time. Spans are kept in memory as
per-name aggregates; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# Traced entry points, by layer. Each maps a span name to the attribute that
# holds the function in its defining module ("Class.method" for methods).
SPANS = {
    "topology": {
        "parse_snapshot": "parse_snapshot",
        "build_graph": "build_graph",
        "apply_slot_limits": "apply_slot_limits",
        "parameter_histogram": "parameter_histogram",
        "serialize_snapshot": "serialize_snapshot",
        # Both derive a new graph from an old one; one span name for both.
        "graph_rebuilds": ("NetworkGraph.subgraph", "NetworkGraph.without_channels"),
    },
    "inference": {
        "tag_nodes": "tag_nodes",
        "split_by_slot_class": "split_by_slot_class",
    },
    "planner": {
        "plan_network_attack": "plan_network_attack",
        "choose_routes": "choose_routes",
        "lock_period_sweep": "lock_period_sweep",
        "route_length_sweep": "route_length_sweep",
        "upper_bound_capacity": "upper_bound_capacity",
    },
    "partition": {
        "plan_disconnection": "plan_disconnection",
        "edge_betweenness": "edge_betweenness",
        "fiedler_cut": "fiedler_cut",
        "kernighan_lin_cut": "kernighan_lin_cut",
        "connected_pairs_fraction": "connected_pairs_fraction",
    },
    "isolation": {
        "plan_isolation": "plan_isolation",
        "isolation_cost_curve": "isolation_cost_curve",
    },
    "cost": {
        "price_plan": "price_plan",
        "estimate_costs": "estimate_costs",
        "hop_amounts_msat": "hop_amounts_msat",
    },
    "simulator": {
        "execute_plan": "execute_plan",
        "run_scenario": "run_scenario",
        "from_graph": "SimNetwork.from_graph",
        "send_payment": "SimNetwork.send_payment",
    },
    "cli": {
        "main": "main",
    },
}

# Counted but not timed: called thousands of times per network build, where
# a timed span would cost more than the call itself.
COUNTED = {"simulator.open_channel.calls": ("simulator", "SimNetwork.open_channel")}

# Spans whose returned plan is the user-visible result; their routes count as
# kept unless an enclosing planning span will report them itself.
_PLANNING_SPANS = ("planner.plan_network_attack", "partition.plan_disconnection")


class SpanStats:
    __slots__ = ("calls", "self_time", "failed")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.failed = 0


class Tracer:
    """Aggregates spans by name; ``active`` gates recording without unpatching."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self.active = False
        self._stack: list[list] = []  # [name, child_time]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _enclosed_by(self, names) -> bool:
        return any(frame[0] in names for frame in self._stack[:-1])

    def _on_return(self, name: str, result) -> None:
        if name == "planner.choose_routes":
            self.count("planner.routes_built", len(result))
        elif name in _PLANNING_SPANS and not self._enclosed_by(_PLANNING_SPANS):
            plan = result[1] if isinstance(result, tuple) else result
            self.count("planner.routes_kept", len(plan.routes))

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "topology.parse_snapshot" and args:
                tracer.count("topology.parse_snapshot.bytes", _input_size(args[0]))
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                tracer._on_return(name, result)
                return result
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                stats = tracer.stats.get(name)
                if stats is None:
                    stats = tracer.stats[name] = SpanStats()
                stats.calls += 1
                stats.self_time += elapsed - frame[1]
                stats.failed += failed

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced entry point."""
        replacements: dict[int, object] = {}
        for layer, spans in SPANS.items():
            for span, attrs in spans.items():
                for attr in (attrs,) if isinstance(attrs, str) else attrs:
                    self._wrap(f"{layer}.{span}", layer, attr, replacements, self._span)
        for name, (layer, attr) in COUNTED.items():
            self._wrap(name, layer, attr, replacements, self._counter)
        # Rebind every name that holds an original, in its defining module
        # and wherever it was imported by name.
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "lnjam"]
        for module in modules:
            for key, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and wrapped is not value:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapped)

    def _wrap(self, name, layer, attr, replacements, make) -> None:
        module = importlib.import_module(f"lnjam.{layer}")
        if "." not in attr:
            original = getattr(module, attr)
            replacements[id(original)] = make(name, original)
            return
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(name, raw.__func__))
        else:
            wrapped = make(name, raw)
        self._restore.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def _input_size(raw) -> int:
    if isinstance(raw, (str, bytes)):
        return len(raw)
    try:
        return os.fstat(raw.fileno()).st_size
    except (AttributeError, OSError):
        return 0
