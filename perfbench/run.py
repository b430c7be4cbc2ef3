"""lnjam benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

The snapshot is generated from ``--seed`` into ``.perfbench_work/`` first,
then the workload runs in a fresh single-threaded interpreter (see
workload.py). With ``--trace 1`` it runs twice, once untraced and once with
every public entry point of every lnjam module timed, and reports per-layer
metrics, the tracing overhead, and whether outputs matched. The last line
of standard output is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 2, with no result, when the checkout has no lnjam source to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import netgen  # noqa: E402
from tracer import COUNTED, SPANS  # noqa: E402

# Scratch space inside the checkout: snapshot, CLI outputs, child results.
WORK_ROOT = ".perfbench_work"

# Generated snapshot per workload: nodes, channels opened per new node,
# regions, and the share of channels opened across regions (NOTES.md).
SIZES = {
    "replay": (1000, 4, 1, 1.0),
    "sweep": (2500, 5, 1, 1.0),
    "partition": (300, 4, 2, 0.2),
}

# Spans that must fire on a workload, and spans that must not.
EXPECTED_SPANS = {
    "replay": (
        "simulator.send_payment", "simulator.from_graph", "simulator.execute_plan",
        "simulator.open_channel.calls", "planner.plan_network_attack", "planner.choose_routes",
        "inference.split_by_slot_class", "cost.hop_amounts_msat", "cost.price_plan",
        "cost.estimate_costs", "isolation.plan_isolation", "topology.parse_snapshot",
        "topology.build_graph", "topology.apply_slot_limits", "topology.graph_rebuilds",
        "inference.tag_nodes",
    ),
    "sweep": (
        "planner.plan_network_attack", "planner.choose_routes", "inference.split_by_slot_class",
        "cost.hop_amounts_msat", "cost.price_plan", "cost.estimate_costs", "cli.main",
        "topology.parse_snapshot", "topology.build_graph", "topology.apply_slot_limits",
        "topology.graph_rebuilds", "inference.tag_nodes",
    ),
    "partition": (
        "partition.edge_betweenness", "partition.fiedler_cut", "partition.kernighan_lin_cut",
        "partition.connected_pairs_fraction", "topology.graph_rebuilds",
        "planner.plan_network_attack", "planner.choose_routes", "cli.main",
        "topology.parse_snapshot", "topology.build_graph", "topology.apply_slot_limits",
        "inference.tag_nodes", "inference.split_by_slot_class",
    ),
}
_SIMULATOR = ("simulator.send_payment", "simulator.from_graph", "simulator.execute_plan",
              "simulator.open_channel.calls")
SILENT_SPANS = {"sweep": _SIMULATOR, "partition": _SIMULATOR}

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A workload process measures for --seconds, may overrun by one pass and
# pays set-up and checks on top; a traced run starts two. Whatever that
# gives, the whole run ends within RUN_LIMIT_S, child processes included.
RUN_LIMIT_S = 175.0


def run_deadline(seconds: float, trace: int) -> float:
    """Seconds a run may take before its workload process is killed."""
    return min(RUN_LIMIT_S, (1 + trace) * (3 * seconds + 20))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _run_child(workload, seed, snapshot, workdir, seconds, trace, deadline) -> dict:
    out = workdir / f"result-trace{trace}.json"
    log = workdir / f"child-trace{trace}.log"
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--snapshot", str(snapshot), "--workdir", str(workdir),
           "--seconds", str(seconds), "--trace", str(trace), "--seed", str(seed),
           "--out", str(out)]
    with open(log, "w", encoding="utf-8") as log_fh:
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT, env=env)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} did not finish before the run deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        raise BenchError(f"{workload} exited {code}:\n" + "\n".join(tail))
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(workload: str, result: dict) -> tuple[dict, dict]:
    """Contract metrics, plus the workload's own named figures for the log."""
    passes = result["passes"]
    ops = [s for p in passes for s in p["op_s"]]
    attempted = sum(p["attempted"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    # Means over the run, not medians or minima of its passes: the host's
    # speed drifts over minutes, and a mean over all the run's work is the
    # steadiest figure across runs (NOTES.md, "The machine's speed").
    throughput = sum(p["work"] for p in passes) / sum(p["work_s"] for p in passes)
    metrics = {
        "wall_s": (statistics.fmean(p["wall"] for p in passes), "s"),
        "setup_s": (statistics.median(result["setup_times"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
        "throughput": (throughput, "1/s"),
        "op_s.mean": (statistics.fmean(ops), "s"),
    }
    # Printed, not gated: they swing with machine noise by more than the
    # widest bound allows (NOTES.md).
    named = {
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.p90": (statistics.quantiles(ops, n=10, method="inclusive")[8], "s"),
        "failed_ratio": (1 - ok / attempted, "ratio"),
    }

    def detail(key):
        return statistics.fmean(p["detail"][key] for p in passes)

    if workload == "replay":
        named["payments_per_s"] = (detail("payments_per_s"), "1/s")
        named["network_verify_s"] = (detail("network_verify_s"), "s")
        named["victim_s.p50"] = named["op_s.p50"]
        named["victim_s.p90"] = named["op_s.p90"]
    elif workload == "sweep":
        named["plans_per_min"] = (60 * throughput, "1/min")
    else:
        for method in ("betweenness", "spectral", "kl"):
            named[f"connectivity_s.{method}"] = (detail(f"connectivity_s.{method}"), "s")
            named[f"curve_end.{method}"] = (detail(f"curve_end.{method}"), "ratio")
    return metrics, named


def per_layer(traced: dict, untraced_wall: float) -> dict:
    """Per-pass figures of every span and counter that fired."""
    n = len(traced["passes"])
    spans, counters = traced["spans"], traced["counters"]
    values = {name: count / n for name, count in counters.items()}
    for name, stats in spans.items():
        values[f"{name}.s"] = stats["s"] / n
        values[f"{name}.calls"] = stats["calls"] / n
        values[f"{name}.failed"] = stats["failed"] / n
    sends = spans.get("simulator.send_payment", {"calls": 0, "failed": 0})
    values["simulator.payments_ok_ratio"] = (
        (sends["calls"] - sends["failed"]) / sends["calls"] if sends["calls"] else 0.0)
    built = counters.get("planner.routes_built", 0)
    kept = counters.get("planner.routes_kept", 0)
    values["planner.routes_kept_ratio"] = kept / built if built else 0.0
    values["cli.bytes_written"] = statistics.median(p["bytes_written"] for p in traced["passes"])
    values["trace.wall_s"] = statistics.fmean(p["wall"] for p in traced["passes"])
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    return values


def _traced_name(metric: str) -> bool:
    """Does this per-layer metric belong to a traced span or counter?"""
    known = {f"{layer}.{span}" for layer, spans in SPANS.items() for span in spans}
    known |= {name.rsplit(".", 1)[0] for name in COUNTED}
    return metric.rsplit(".", 1)[0] in known or metric.startswith("planner.routes_")


def trace_problems(workload: str, base: dict, traced: dict) -> list[str]:
    problems = list(traced["problems"])
    if traced["digests"] != base["digests"]:
        problems.append("output digests differ between traced and untraced runs")
    calls = {name: stats["calls"] for name, stats in traced["spans"].items()}
    calls.update(traced["counters"])
    problems += [f"span {s} never fired on {workload}"
                 for s in EXPECTED_SPANS[workload] if not calls.get(s, 0)]
    problems += [f"span {s} fired on {workload}"
                 for s in SILENT_SPANS.get(workload, ()) if calls.get(s, 0)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lnjam benchmark")
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + run_deadline(args.seconds, args.trace)

    if not Path("src/lnjam/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of an lnjam checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = Path(WORK_ROOT) / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        snapshot = workdir / "snapshot.json"
        nodes, per_node, regions, cross_share = SIZES[args.workload]
        facts = netgen.write_snapshot(
            str(snapshot), nodes, per_node, args.seed, regions, cross_share)
        base = _run_child(args.workload, args.seed, snapshot, workdir, args.seconds, 0, deadline)
        traced = None
        if args.trace:
            traced = _run_child(args.workload, args.seed, snapshot, workdir, args.seconds, 1,
                                deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            Path(WORK_ROOT).rmdir()
        except OSError:
            pass  # another run still uses it

    problems = list(base["problems"])
    metrics, named = end_to_end(args.workload, base)
    if traced is None:
        values = {name: value for name, (value, _) in metrics.items()}
        wanted = spec["end_to_end"]
    else:
        problems += trace_problems(args.workload, base, traced)
        values = per_layer(traced, metrics["wall_s"][0])
        wanted = spec["per_layer"]
    report = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values and not (traced is not None and _traced_name(name)):
            print(f"error: metric {name} is not measured", file=sys.stderr)
            return 1
        # A traced span that did not fire on this workload reads 0.
        report[name] = {"value": values.get(name, 0.0), "unit": entry["unit"]}

    env = {
        "python": base["env"]["python"],
        "numpy": base["env"]["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": base["env"]["threads"],
        "seed": args.seed,
        "workload": args.workload,
        "snapshot": facts,
        "graph": {"nodes": base["nodes"], "usable_channels": base["channels"]},
        "passes": len(base["passes"]),
        "setup_loads": len(base["setup_times"]),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print("digests " + json.dumps(base["digests"], sort_keys=True))
    if "fiedler_probe" in base:
        print("known defect probe: fiedler_cut on the single-region graph: "
              + base["fiedler_probe"])
    for problem in problems[:20]:
        print(f"problem: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in base["passes"]),
        "failed": sum(p["errors"] for p in base["passes"]),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
