"""Command-line front end: snapshot in, figure-ready CSV/JSON out.

Wires ingestion, implementation tagging, attack planning, costing, and
simulation behind one entry point. Every output starts with a ``#``
metadata header (tool version plus a config echo); the body below it is
byte-identical across runs on identical inputs.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 infeasible configuration (including a spectral cut whose eigensolve
fails), 4 assertion or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .cost import BTC_USD_RATE, USD_PER_CHANNEL_OPEN, estimate_costs, price_plan
from .inference import announced_policies, score_node, tag_nodes
from .isolation import IsolationPlan, isolation_cost_curve, plan_isolation
from .partition import DisconnectionMethod, NonConvergenceError, plan_disconnection
from .planner import (
    AttackPlan,
    InfeasibleConfigError,
    MixedSlotClassError,
    PlannerConfig,
    WeightMode,
    lock_period_sweep,
    plan_network_attack,
    route_length_sweep,
)
from .simulator import ScenarioParseError, builtin_scenario, execute_plan, run_scenario
from .topology import (
    HISTOGRAM_PARAMETERS,
    MAINNET_DEFAULTS,
    ImplLabel,
    NetworkGraph,
    SnapshotParseError,
    build_graph,
    parameter_histogram,
    parse_snapshot,
    serialize_snapshot,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_ASSERTION = 4

# Short aliases accepted anywhere a policy parameter is named.
PARAM_ALIASES = {
    "cltv_delta": "cltv_expiry_delta",
    "min_htlc": "htlc_minimum_msat",
    "fee_base": "fee_base_msat",
    "fee_rate": "fee_proportional_millionths",
}

_IMPLS = {label.value: label for label in ImplLabel}


class InputError(Exception):
    """Unreadable or semantically invalid input (exit code 2)."""


def _load_snapshot(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_snapshot(fh)
    except FileNotFoundError:
        raise InputError(f"snapshot not found: {path}")


def _load_graph_and_labels(path: str):
    snapshot = _load_snapshot(path)
    graph = build_graph(snapshot)
    labels = tag_nodes(snapshot)
    return snapshot, graph, labels


def _meta(args: argparse.Namespace, **extra) -> list[str]:
    lines = [f"# lnjam {__version__}", f"# command: {args.command}"]
    for key in sorted(extra):
        lines.append(f"# {key}: {extra[key]}")
    return lines


def _emit(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _csv_text(header_lines: list[str], columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(meta: dict, body: dict) -> str:
    return json.dumps({"meta": meta, **body}, indent=2, sort_keys=True) + "\n"


def _planner_config(args: argparse.Namespace) -> PlannerConfig:
    try:
        return PlannerConfig(
            tau_min=args.tau_min,
            max_route_channels=args.max_route_channels,
            weight_mode=WeightMode(args.weight),
        )
    except ValueError as exc:
        raise InfeasibleConfigError(str(exc))


def _write_plan(path: str | None, plan) -> None:
    if path:
        _emit(path, json.dumps(plan.to_json_dict(), indent=2, sort_keys=True) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args.snapshot)
    graph = build_graph(snapshot)
    logger.info(
        "parsed %d nodes, %d channels (%d usable for routing)",
        len(snapshot.nodes),
        len(snapshot.channels),
        len(graph),
    )
    _emit(args.output, serialize_snapshot(snapshot))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args.snapshot)
    parameter = PARAM_ALIASES.get(args.param, args.param)
    histogram = parameter_histogram(snapshot, parameter)
    header = _meta(
        args,
        parameter=parameter,
        population="directed policies, both directions of each routable channel",
    )
    rows = [[value, f"{share:.6f}"] for value, share in histogram]
    _emit(args.output, _csv_text(header, ["value", "share"], rows))
    return EXIT_OK


def cmd_tag(args: argparse.Namespace) -> int:
    snapshot = _load_snapshot(args.snapshot)
    labels = tag_nodes(snapshot)
    policies = announced_policies(snapshot)
    rows = []
    counts = {label: 0 for label in ImplLabel}
    with_policy = {label: 0 for label in ImplLabel}
    n_with_policy = 0
    for node_id in sorted(labels):
        label = labels[node_id]
        scores = score_node(policies[node_id], MAINNET_DEFAULTS)
        counts[label] += 1
        if policies[node_id]:
            with_policy[label] += 1
            n_with_policy += 1
        rows.append([node_id, label.value, f"{scores[label]:.6f}"])
    total = len(labels)

    def shares(table, denom):
        return ", ".join(
            f"{label.value}={table[label] / denom:.4f}" if denom else f"{label.value}=0"
            for label in ImplLabel
        )

    header = _meta(
        args,
        share_all_nodes=shares(counts, total),
        share_nodes_with_policies=shares(with_policy, n_with_policy),
    )
    _emit(args.output, _csv_text(header, ["node_id", "implementation", "score"], rows))
    return EXIT_OK


def cmd_attack_network(args: argparse.Namespace) -> int:
    _, graph, labels = _load_graph_and_labels(args.snapshot)
    config = _planner_config(args)

    if args.sweep_days:
        plans = lock_period_sweep(
            graph, labels, args.sweep_days, config=config, budget_channels=args.budget
        )
        rows = [
            [f"{d:g}", plan.tau_min, plan.attacker_channels,
             f"{plan.locked_capacity_fraction:.6f}"]
            for d, plan in plans
        ]
        header = _meta(args, budget=args.budget, sweep="lock-period-days")
        _emit(
            args.output,
            _csv_text(header, ["days", "tau_min", "attacker_channels", "locked_fraction"], rows),
        )
        return EXIT_OK

    if args.sweep_route_limit:
        plans = route_length_sweep(
            graph, labels, args.sweep_route_limit, config=config, budget_channels=args.budget
        )
        rows = [
            [limit, plan.attacker_channels, f"{plan.locked_capacity_fraction:.6f}"]
            for limit, plan in plans
        ]
        header = _meta(args, budget=args.budget, sweep="max-route-hops", tau_min=args.tau_min)
        _emit(
            args.output,
            _csv_text(header, ["max_route_hops", "attacker_channels", "locked_fraction"], rows),
        )
        return EXIT_OK

    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS, config, args.budget)
    rows = [
        [
            row["cumulative_attacker_channels"],
            row["n_channels"],
            row["lock_duration"],
            row["capacity_sat"],
            f"{row['cumulative_capacity_fraction']:.6f}",
        ]
        for row in plan.cumulative_rows()
    ]
    header = _meta(args, budget=args.budget, tau_min=args.tau_min, weight=args.weight)
    _emit(
        args.output,
        _csv_text(
            header,
            [
                "attacker_channels",
                "route_channels",
                "lock_duration",
                "route_capacity_sat",
                "locked_fraction",
            ],
            rows,
        ),
    )
    _write_plan(args.plan_out, plan)
    return EXIT_OK


def cmd_attack_connectivity(args: argparse.Namespace) -> int:
    _, graph, labels = _load_graph_and_labels(args.snapshot)
    config = _planner_config(args)
    report, plan = plan_disconnection(
        graph, labels, MAINNET_DEFAULTS, config, DisconnectionMethod(args.method), args.budget
    )
    rows = [[n, f"{fraction:.6f}"] for n, fraction in report.curve]
    header = _meta(args, method=args.method, budget=args.budget, tau_min=args.tau_min)
    _emit(
        args.output,
        _csv_text(header, ["attacker_channels", "connected_pairs_fraction"], rows),
    )
    _write_plan(args.plan_out, plan)
    return EXIT_OK


def cmd_attack_node(args: argparse.Namespace) -> int:
    _, graph, labels = _load_graph_and_labels(args.snapshot)
    if args.victim not in labels:
        raise InputError(f"victim node {args.victim!r} not in snapshot")
    plan = plan_isolation(graph, labels, victim=args.victim, tau_min=args.tau_min)
    meta = {"tool": f"lnjam {__version__}", "command": args.command, "victim": args.victim}
    body = {
        "plan": plan.to_json_dict(),
        "summary": {
            "victim_degree": len(plan.per_channel),
            "total_payments": plan.total_payments,
            "total_attacker_slots": plan.total_attacker_slots,
            "attacker_channels_needed": plan.attacker_channels_needed,
            "unparalyzable_channels": list(plan.unparalyzable),
        },
    }
    _emit(args.output, _json_text(meta, body))
    return EXIT_OK


def cmd_isolation_curves(args: argparse.Namespace) -> int:
    degrees = range(1, args.max_degree + 1)
    rows = []
    for name, label in _IMPLS.items():
        if args.impl not in ("all", name):
            continue
        for degree, channels in isolation_cost_curve(label, degrees, tau_min=args.tau_min):
            rows.append([name, degree, "inf" if math.isinf(channels) else channels])
    header = _meta(args, tau_min=args.tau_min, impl=args.impl)
    _emit(
        args.output,
        _csv_text(header, ["implementation", "victim_degree", "attacker_channels"], rows),
    )
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    _, graph, labels = _load_graph_and_labels(args.snapshot)
    config = _planner_config(args)
    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS, config, args.budget)
    price_plan(plan, graph, labels)
    report = estimate_costs(
        plan,
        usd_per_open=args.usd_per_open,
        batch_discount=args.batch_discount,
        btc_usd_rate=args.btc_usd,
    )
    meta = {
        "tool": f"lnjam {__version__}",
        "command": args.command,
        "budget": args.budget,
        "tau_min": args.tau_min,
    }
    _emit(args.output, _json_text(meta, {"cost": report.to_json_dict()}))
    _write_plan(args.plan_out, plan)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if Path(args.scenario).is_file():
        script = Path(args.scenario).read_text(encoding="utf-8")
        name = Path(args.scenario).name
    else:
        try:
            script = builtin_scenario(args.scenario)
        except FileNotFoundError as exc:
            raise InputError(str(exc))
        name = args.scenario
    result = run_scenario(script, reject_duplicate_hash=args.reject_duplicate_hash)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for event in result.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {name}: {len(result.steps)} steps")
    for step in result.failed_steps:
        print(f"  line {step.line_no}: {step.command}: {step.detail}")
    return EXIT_OK if result.passed else EXIT_ASSERTION


def _check_plan_channels(plan: AttackPlan | IsolationPlan, graph: NetworkGraph) -> None:
    """Raise InputError unless every route is a walk with a positive slot
    class, and every channel the plan names is in the graph and joins the
    two nodes the plan says it does."""
    if isinstance(plan, AttackPlan):
        for i, route in enumerate(plan.routes, start=1):
            hops = route.hops
            if route.slot_class < 1 or not hops or any(
                a.to_node != b.from_node for a, b in zip(hops, hops[1:])
            ):
                raise InputError(f"route {i} is not a walk of hops with a positive slot_class")
        joins = [(h.channel_id, h.from_node, h.to_node) for r in plan.routes for h in r.hops]
    else:
        joins = [(c.channel_id, plan.victim, c.neighbor) for c in plan.per_channel]
    for cid, node, other in joins:
        if cid not in graph:
            raise InputError(f"plan names channel {cid!r}, which is not in the snapshot")
        ch = graph.channel(cid)
        if {node, other} != {ch.endpoint_a, ch.endpoint_b}:
            raise InputError(
                f"channel {cid!r} joins {ch.endpoint_a} and {ch.endpoint_b},"
                f" not {node} and {other}"
            )


def cmd_verify_plan(args: argparse.Namespace) -> int:
    _, graph, labels = _load_graph_and_labels(args.snapshot)
    try:
        with open(args.plan, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"plan not found: {args.plan}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed plan JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("plan JSON must be an object")
    # attack-node writes its plan under "plan", next to a summary.
    if isinstance(doc.get("plan"), dict):
        doc = doc["plan"]
    kind = doc.get("kind")
    if kind not in ("network-attack", "isolation"):
        raise InputError(f"unknown plan kind {kind!r}")
    try:
        plan_type = AttackPlan if kind == "network-attack" else IsolationPlan
        plan = plan_type.from_json_dict(doc)
        _check_plan_channels(plan, graph)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} plan: {exc!r}")
    report = execute_plan(plan, graph, labels)
    meta = {"tool": f"lnjam {__version__}", "command": args.command, "plan": args.plan}
    _emit(args.output, _json_text(meta, {"verification": report.to_json_dict()}))
    return EXIT_OK if report.ok else EXIT_ASSERTION


# -- parser ------------------------------------------------------------------


def _comma_list(item_type):
    """argparse type: a comma-separated list of ``item_type`` values."""

    def parse(text: str) -> list:
        try:
            return [item_type(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {item_type.__name__}: {text!r}"
            )

    return parse


def _add_planner_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=None,
                     help="attacker channel budget (default: unlimited)")
    sub.add_argument("--tau-min", type=int, default=432,
                     help="minimum lock duration in blocks (default 432, three days)")
    sub.add_argument("--max-route-channels", type=int, default=18,
                     help="victim channels per route (default 18)")
    sub.add_argument("--weight", choices=[m.value for m in WeightMode], default="capacity",
                     help="channel weight driving greedy selection")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnjam",
        description="Plan, price, and verify HTLC slot-exhaustion attacks "
        "on payment channel network snapshots.",
    )
    parser.add_argument("--version", action="version", version=f"lnjam {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="parse and normalize a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("stats", help="histogram one policy parameter")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--param", required=True,
                   choices=sorted(HISTOGRAM_PARAMETERS) + sorted(PARAM_ALIASES))
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("tag", help="infer each node's implementation")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_tag)

    p = subs.add_parser("attack-network", help="plan a capacity-lockup attack")
    p.add_argument("--snapshot", required=True)
    _add_planner_flags(p)
    sweep_or_plan = p.add_mutually_exclusive_group()
    sweep_or_plan.add_argument("--sweep-days", type=_comma_list(float), default=None,
                               help="comma-separated lock periods in days; one plan per value")
    sweep_or_plan.add_argument("--sweep-route-limit", type=_comma_list(int), default=None,
                               help="comma-separated max route hops; one plan per value")
    sweep_or_plan.add_argument("--plan-out", default=None, help="also write the plan JSON here")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_attack_network)

    p = subs.add_parser("attack-connectivity", help="plan a partition attack")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--method", choices=sorted(m.value for m in DisconnectionMethod),
                   default="betweenness")
    _add_planner_flags(p)
    p.add_argument("--output", default="-")
    p.add_argument("--plan-out", default=None)
    p.set_defaults(func=cmd_attack_connectivity)

    p = subs.add_parser("attack-node", help="plan a single-node isolation")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--victim", required=True)
    p.add_argument("--tau-min", type=int, default=432)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_attack_node)

    p = subs.add_parser("isolation-curves",
                        help="closed-form isolation cost vs victim degree")
    p.add_argument("--impl", choices=sorted(_IMPLS) + ["all"], default="all")
    p.add_argument("--max-degree", type=int, default=60)
    p.add_argument("--tau-min", type=int, default=432)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_isolation_curves)

    p = subs.add_parser("cost", help="price a capacity-lockup attack")
    p.add_argument("--snapshot", required=True)
    _add_planner_flags(p)
    p.add_argument("--usd-per-open", type=float, default=USD_PER_CHANNEL_OPEN)
    p.add_argument("--batch-discount", type=float, default=1.0)
    p.add_argument("--btc-usd", type=float, default=BTC_USD_RATE)
    p.add_argument("--output", default="-")
    p.add_argument("--plan-out", default=None)
    p.set_defaults(func=cmd_cost)

    p = subs.add_parser("simulate", help="run a scenario script")
    p.add_argument("--scenario", required=True,
                   help="path to a .scn file or a builtin name (experiment1..4)")
    p.add_argument("--log", default=None, help="write the JSON-lines event log here")
    p.add_argument("--reject-duplicate-hash", action="store_true",
                   help="enable the duplicate-payment-hash mitigation")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("verify-plan", help="replay a plan JSON on the simulator")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_verify_plan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage problems.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (InputError, OSError, SnapshotParseError, ScenarioParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleConfigError, MixedSlotClassError, NonConvergenceError, ValueError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
