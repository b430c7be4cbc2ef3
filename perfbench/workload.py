"""Run one benchmark workload in this process and write its measurements.

``run.py`` starts this file in a fresh, single-threaded interpreter per run,
so peak RSS belongs to the workload alone (the snapshot is generated before).
Each workload is a closed loop with one client: every operation starts when
the previous one has returned. A *pass* is the workload's whole sequence of
operations; passes repeat until the next one would overrun ``--seconds``
(at least one runs). Outputs are checked after each pass, outside the timed
region, and every pass must produce the same output digests.

Usage (normally through run.py)::

    python3 perfbench/workload.py --workload replay --snapshot graph.json \
        --workdir DIR --seconds 30 --trace 0 --seed 1 --out result.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
# Modules, not names: the tracer patches module attributes, and a name
# imported here would bypass it.
from lnjam import cli, cost, inference, isolation, partition, planner, simulator, topology

import checks
import netgen
from tracer import Tracer

VICTIMS = 100
SWEEP_ROUTE_LIMITS = "20,12"
SWEEP_DAYS = "1,7"
PARTITION_BUDGET = 20
PARTITION_METHODS = ("betweenness", "spectral", "kl")
# Plain (single-region) graph for the spectral-convergence probe.
PROBE_SIZE = (300, 4)

# Set-up: untimed warm-up loads first, then timed loads, at least the
# minimum and for about SETUP_SECONDS, up to the maximum.
SETUP_WARMUP_LOADS = 2
SETUP_MIN_LOADS = 7
SETUP_MAX_LOADS = 41
SETUP_SECONDS = 2.5


def load(path: str):
    """The set-up every workload pays: read, parse, build, tag, attach slot limits."""
    with open(path, encoding="utf-8") as fh:
        snapshot = topology.parse_snapshot(fh.read())
    graph = topology.build_graph(snapshot)
    labels = inference.tag_nodes(snapshot)
    return topology.apply_slot_limits(graph, labels), labels


class Pass:
    """What one pass measured, produced and got wrong."""

    def __init__(self):
        self.wall = 0.0
        self.op_s: list[float] = []  # one closed-loop operation each
        self.attempted = 0  # operations, as failed_ratio counts them
        self.ok = 0
        self.errors = 0  # operations that raised or exited non-zero
        self.work = 0  # items behind the throughput figure
        self.work_s = 0.0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.detail: dict[str, float] = {}
        self.bytes_written = 0


# -- replay -----------------------------------------------------------------


def payment_attempts(report) -> int:
    """Payments a replay attempted: the held payments that went through, the
    one that stopped each failed route or channel, and the probes. (The
    isolation replay's single liquidity-shift payment per channel is left
    out.)"""
    stopped = sum(" payment " in failure for failure in report.failures)
    return report.payments_sent + stopped + report.probes_attempted


def replay_pass(snapshot_path: str, checked_graph, workdir: Path) -> Pass:
    """Library use, as the README shows it: plan, price, replay, then isolate
    the highest-degree nodes one at a time."""
    out = Pass()
    start = time.perf_counter()
    with open(snapshot_path, encoding="utf-8") as fh:
        snapshot = topology.parse_snapshot(fh.read())
    graph, labels = topology.build_graph(snapshot), inference.tag_nodes(snapshot)
    plan = cost.price_plan(planner.plan_network_attack(graph, labels), graph, labels)
    costs = cost.estimate_costs(plan)
    t = time.perf_counter()
    report = simulator.execute_plan(plan, graph, labels)
    verify_s = time.perf_counter() - t
    victims = sorted(graph.nodes, key=lambda n: (-graph.degree(n), n))[:VICTIMS]
    isolations = []
    isolation_verify_s = 0.0
    for victim in victims:
        t = time.perf_counter()
        iso = isolation.plan_isolation(graph, labels, victim=victim)
        t_verify = time.perf_counter()
        iso_report = simulator.execute_plan(iso, graph, labels)
        end = time.perf_counter()
        out.op_s.append(end - t)
        isolation_verify_s += end - t_verify
        isolations.append((iso, iso_report))
    out.wall = time.perf_counter() - start

    locked_routes = {i for i, _ in report.route_lock_durations}
    failed_routes = len(plan.routes) - len(locked_routes)
    out.attempted = len(plan.routes) + len(victims)
    out.ok = len(locked_routes) + sum(r.ok for _, r in isolations)
    # Throughput covers both payment shapes: every replay of the pass, the
    # network plan's and each victim's.
    network_attempts = payment_attempts(report)
    out.work = network_attempts + sum(payment_attempts(r) for _, r in isolations)
    out.work_s = verify_s + isolation_verify_s
    out.detail = {
        "network_verify_s": verify_s,
        "payments_per_s": network_attempts / verify_s,
    }

    out.problems += checks.check_network_plan(plan, checked_graph)
    costs_doc = costs.to_json_dict()
    out.problems += checks.check_costs(plan, costs_doc)
    if any(i < 1 or i > len(plan.routes) for i in locked_routes):
        out.problems.append("route_lock_durations names a route the plan lacks")
    if sum(" payment " in failure for failure in report.failures) != failed_routes:
        out.problems.append("payment failures do not match the routes left unlocked")
    for iso, _ in isolations:
        out.problems += checks.check_isolation(iso, checked_graph)
    out.digests = {
        "network_plan.json": checks.digest(checks.plan_json(plan)),
        "cost.json": checks.digest(json.dumps(costs_doc, sort_keys=True)),
        "network_verification.json": checks.digest(
            json.dumps(report.to_json_dict(), sort_keys=True)),
        "isolation_plans.json": checks.digest(
            "".join(checks.plan_json(iso) for iso, _ in isolations)
        ),
        "isolation_verifications.json": checks.digest(
            "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for _, r in isolations)
        ),
    }
    return out


# -- CLI workloads ----------------------------------------------------------


def _run_cli(out: Pass, argv: list[str], outputs: list[Path]) -> bool:
    """One closed-loop CLI command; records its latency and output size."""
    for path in outputs:
        path.unlink(missing_ok=True)
    t = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    out.op_s.append(time.perf_counter() - t)
    out.attempted += 1
    if code != 0:
        out.errors += 1
        out.problems.append(f"{argv[0]} {' '.join(argv[3:])}: exit {code}")
        return False
    out.bytes_written += sum(p.stat().st_size for p in outputs)
    return True


def _check_budget68(f) -> tuple[list[str], dict]:
    text = f["budget68_plan.json"].read_text(encoding="utf-8")
    plan = planner.AttackPlan.from_json_dict(json.loads(text))
    problems = checks.check_network_plan(plan, f["graph"], budget=68)
    curve = f["budget68.csv"].read_text(encoding="utf-8")
    rows = checks.csv_rows(curve)
    if [int(r["attacker_channels"]) for r in rows] != list(range(2, 2 * len(plan.routes) + 1, 2)):
        problems.append("budget-68 curve rows do not match the plan's routes")
    return problems, {
        "budget68_plan.json": checks.digest(text),
        "budget68.csv": checks.digest(checks.csv_body(curve)),
    }


def _check_sweep(name: str, column: str, points: str):
    def check(f) -> tuple[list[str], dict]:
        text = f[name].read_text(encoding="utf-8")
        rows = checks.csv_rows(text)
        problems = []
        if [r[column] for r in rows] != points.split(","):
            problems.append(f"{name}: rows {[r[column] for r in rows]} != {points}")
        if any(not 0 < int(r["attacker_channels"]) <= 200 for r in rows):
            problems.append(f"{name}: attacker channels outside (0, 200]")
        return problems, {name: checks.digest(checks.csv_body(text))}

    return check


def _check_cost(f) -> tuple[list[str], dict]:
    text = f["cost.json"].read_text(encoding="utf-8")
    doc = json.loads(text)["cost"]
    locked = sum(r["slot_class"] * r["payment_amount_msat"] for r in doc["per_route"])
    problems = []
    if doc["locked_liquidity_msat"] != locked:
        problems.append("cost: locked liquidity != sum of slot_class x amount")
    if not 0 < len(doc["per_route"]) <= 100:
        problems.append(f"cost: {len(doc['per_route'])} routes for a budget of 200 channels")
    return problems, {"cost.json": checks.digest(checks.json_body(text))}


def sweep_pass(snapshot_path: str, checked_graph, workdir: Path) -> Pass:
    """Budgeted planning and mitigation sweeps through the CLI; each command
    reloads the snapshot, as it does for a CLI user."""
    out = Pass()
    s = snapshot_path
    f = {name: workdir / name for name in (
        "budget68.csv", "budget68_plan.json", "route_limits.csv", "days.csv", "cost.json")}
    # (plans computed, argv, files written, output check)
    commands = [
        (1, ["attack-network", "--snapshot", s, "--budget", "68",
             "--output", str(f["budget68.csv"]), "--plan-out", str(f["budget68_plan.json"])],
         [f["budget68.csv"], f["budget68_plan.json"]], _check_budget68),
        (len(SWEEP_ROUTE_LIMITS.split(",")),
         ["attack-network", "--snapshot", s, "--budget", "200",
          "--sweep-route-limit", SWEEP_ROUTE_LIMITS, "--output", str(f["route_limits.csv"])],
         [f["route_limits.csv"]],
         _check_sweep("route_limits.csv", "max_route_hops", SWEEP_ROUTE_LIMITS)),
        (len(SWEEP_DAYS.split(",")),
         ["attack-network", "--snapshot", s, "--budget", "200",
          "--sweep-days", SWEEP_DAYS, "--output", str(f["days.csv"])],
         [f["days.csv"]], _check_sweep("days.csv", "days", SWEEP_DAYS)),
        (1, ["cost", "--snapshot", s, "--budget", "200", "--output", str(f["cost.json"])],
         [f["cost.json"]], _check_cost),
    ]
    start = time.perf_counter()
    done = [_run_cli(out, argv, outputs) for _, argv, outputs, _ in commands]
    out.wall = time.perf_counter() - start
    out.work_s = sum(out.op_s)

    f["graph"] = checked_graph
    for (plans, _, _, check), ok in zip(commands, done):
        if not ok:
            continue
        problems, digests = check(f)
        out.problems += problems
        out.digests.update(digests)
        out.ok += not problems
        out.work += plans
    return out


def partition_pass(snapshot_path: str, checked_graph, workdir: Path) -> Pass:
    """The three disconnection strategies at one budget, through the CLI."""
    out = Pass()
    budget = PARTITION_BUDGET
    results = []
    start = time.perf_counter()
    for method in PARTITION_METHODS:
        csv_path = workdir / f"{method}.csv"
        plan_path = workdir / f"{method}_plan.json"
        argv = ["attack-connectivity", "--snapshot", snapshot_path, "--budget", str(budget),
                "--method", method, "--output", str(csv_path), "--plan-out", str(plan_path)]
        results.append((method, csv_path, plan_path, _run_cli(out, argv, [csv_path, plan_path])))
    out.wall = time.perf_counter() - start
    out.work_s = sum(out.op_s)

    for (method, csv_path, plan_path, ok), seconds in zip(results, out.op_s):
        out.detail[f"connectivity_s.{method}"] = seconds
        out.detail[f"curve_end.{method}"] = float("nan")
        if not ok:
            continue
        problems = []
        text = csv_path.read_text(encoding="utf-8")
        rows = checks.csv_rows(text)
        problems += checks.check_curve(rows, budget)
        plan_text = plan_path.read_text(encoding="utf-8")
        plan = planner.AttackPlan.from_json_dict(json.loads(plan_text))
        problems += checks.check_network_plan(plan, checked_graph, budget=budget)
        if len(rows) != len(plan.routes) + 1:
            problems.append(f"{method}: {len(rows)} curve points for {len(plan.routes)} routes")
        out.problems += [f"{method}: {p}" for p in problems]
        out.ok += not problems
        out.work += len(rows)
        out.detail[f"curve_end.{method}"] = float(rows[-1]["connected_pairs_fraction"])
        out.digests[f"{method}.csv"] = checks.digest(checks.csv_body(text))
        out.digests[f"{method}_plan.json"] = checks.digest(plan_text)
    return out


PASSES = {"replay": replay_pass, "sweep": sweep_pass, "partition": partition_pass}


def measure_setup(snapshot_path: str):
    """Time repeated loads of the snapshot.

    The first load of a fresh interpreter runs while its heap is still
    growing and is slower, by 10 to 20 % on a 1k-node snapshot, so the
    warm-up loads are not timed.
    """
    for _ in range(SETUP_WARMUP_LOADS):
        graph, _ = load(snapshot_path)
    del graph
    times = []
    began = time.perf_counter()
    while len(times) < SETUP_MIN_LOADS or (
        len(times) < SETUP_MAX_LOADS and time.perf_counter() - began < SETUP_SECONDS
    ):
        gc.collect()
        t = time.perf_counter()
        graph, _ = load(snapshot_path)
        times.append(time.perf_counter() - t)
    return times, graph


def fiedler_probe(seed: int) -> str:
    """Untimed: spectral bisection of the single-region graph of this seed.

    The partition workload uses a two-region graph because the power
    iteration in ``fiedler_cut`` fails to converge on some plain
    preferential-attachment graphs (NOTES.md, known defects). This probe
    keeps that defect visible in every partition run.
    """
    nodes, per_node = PROBE_SIZE
    doc = netgen.generate(nodes, per_node, seed)
    graph = topology.build_graph(topology.parse_snapshot(json.dumps(doc)))
    t = time.perf_counter()
    try:
        cut = partition.fiedler_cut(graph)
    except partition.NonConvergenceError as exc:
        return f"did not converge in {time.perf_counter() - t:.2f} s ({exc})"
    return f"converged in {time.perf_counter() - t:.2f} s, cut of {cut.cut_size} channels"


def run(workload: str, snapshot_path: str, workdir: Path, seconds: float, trace: bool,
        seed: int) -> dict:
    setup_times, graph = measure_setup(snapshot_path)
    result = {"setup_times": setup_times, "nodes": graph.node_count, "channels": len(graph)}
    problems = []
    tracer = Tracer()
    if trace:
        tracer.install()
    passes: list[Pass] = []
    began = time.perf_counter()
    while True:
        gc.collect()
        tracer.active = trace
        p = PASSES[workload](snapshot_path, graph, workdir)
        tracer.active = False
        passes.append(p)
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(q.wall for q in passes) > seconds:
            break
    tracer.uninstall()
    # Read before the untimed checks below, which lnjam itself never runs.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "partition":
        # lnjam's betweenness against networkx on this very graph.
        problems += checks.check_betweenness(graph, partition.edge_betweenness(graph))
        if not trace:
            result["fiedler_probe"] = fiedler_probe(seed)

    for i, p in enumerate(passes):
        problems += p.problems
        if p.digests != passes[0].digests:
            problems.append(f"pass {i + 1} output digests differ from pass 1")
    result.update(
        passes=[
            {k: v for k, v in vars(p).items() if k not in ("problems", "digests")}
            for p in passes
        ],
        digests=passes[0].digests,
        problems=problems,
    )
    if trace:
        result["spans"] = {
            name: {"calls": s.calls, "s": s.self_time, "failed": s.failed}
            for name, s in tracer.stats.items()
        }
        result["counters"] = tracer.counters
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, required=True, help="for the partition probe")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.snapshot, Path(args.workdir), args.seconds,
                 bool(args.trace), args.seed)
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
