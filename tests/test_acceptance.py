"""Release criteria for the toolkit, one test per numbered criterion.

Every test emits a single "[criterion N] PASS" or "[criterion N] FAIL"
line with capture disabled, so the verdicts show up in piped logs. A
failing criterion still fails the test, with the collected problems in
the assertion message. Runtime budgets are enforced with the same
mechanism: blowing the budget flips the verdict.

The graph families used here are frozen by seed. Changing a seed, a size
expression, or a budget list changes what is being certified.
"""

from __future__ import annotations

import math
import time

import pytest

from lnjam.cost import (
    BTC_USD_RATE,
    USD_PER_CHANNEL_OPEN,
    estimate_costs,
    hop_amounts_msat,
    price_plan,
)
from lnjam.inference import announced_policies, score_node, tag_nodes
from lnjam.isolation import plan_isolation
from lnjam.partition import (
    DisconnectionMethod,
    edge_betweenness,
    fiedler_cut,
    kernighan_lin_cut,
    plan_disconnection,
)
from lnjam.planner import (
    PlannerConfig,
    plan_network_attack,
    route_length_sweep,
    upper_bound_capacity,
)
from lnjam.simulator import builtin_scenario, execute_plan, run_scenario
from lnjam.topology import MAINNET_DEFAULTS, ImplLabel, build_graph

import netgen
from test_partition import _seed_cut_size, brute_force_betweenness

TAU_MIN = 432
MAX_ROUTE_CHANNELS = 18
LOCKTIME_BUDGET = 2016 - TAU_MIN
BARBELL_SPLIT_FRACTION = 60 / 132


@pytest.fixture
def verdict(capsys):
    """Report one "[criterion N] PASS|FAIL" line, then fail on problems.

    The line is emitted with capture disabled so it lands in the real
    pytest output stream, one line per criterion, pass or fail.
    """

    def emit(criterion: int, failures: list[str], elapsed: float | None = None,
             budget_s: float | None = None) -> None:
        if elapsed is not None and budget_s is not None and elapsed >= budget_s:
            failures.append(f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
        outcome = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"[criterion {criterion}] {outcome}", flush=True)
        assert not failures, f"criterion {criterion}: " + "; ".join(failures[:8])

    return emit


def _random_case(n_nodes: int, extra: int, seed: int, impl_names=netgen.IMPL_NAMES):
    snapshot = netgen.random_snapshot(n_nodes, extra, seed=seed, impl_names=impl_names)
    return build_graph(snapshot), tag_nodes(snapshot)


# -- criterion 1: bundled scenario suite -------------------------------------


def test_criterion_1_builtin_scenarios_pass_exactly(verdict):
    """The four bundled experiments replay without a single failed step.

    The scripts themselves assert the load-bearing integers: the 484th
    payment on a 483-slot path failing with SlotFull, the snaked pending
    counts 468 -> 482 -> 483 with 428 spare attacker slots, the 30-slot
    bottleneck with 453 slots of headroom, and the force-close versus
    clean-fail split. Budget: 5 s.
    """
    started = time.perf_counter()
    failures: list[str] = []
    for name in ("experiment1", "experiment2", "experiment3", "experiment4"):
        result = run_scenario(builtin_scenario(name))
        if not result.steps:
            failures.append(f"{name} executed no steps")
        for step in result.failed_steps:
            failures.append(f"{name} line {step.line_no}: {step.detail or step.command}")
        if not result.passed and not result.failed_steps:
            failures.append(f"{name} reported failure without a failed step")
    verdict(1, failures, time.perf_counter() - started, 5.0)


# -- criterion 2: planner properties on random graphs ------------------------


def test_criterion_2_planner_properties_on_200_random_graphs(verdict):
    """Route invariants and the capacity bound on 200 seeded graphs.

    Graph sizes sweep 12 to 500 nodes; node deltas come from the three
    implementation defaults (14, 40, 144). For every plan: the routes are
    channel-disjoint and, with the uncovered set, partition the channel
    set exactly; each route stays within 18 channels and keeps at least
    tau_min of lock; the cumulative locked fraction never beats
    upper_bound_capacity at any attacker-channel budget. Budget: 60 s.
    """
    started = time.perf_counter()
    failures: list[str] = []
    for i in range(200):
        n_nodes = 12 + (i * 61) % 489
        extra = 6 + (i * 7) % 40
        graph, labels = _random_case(n_nodes, extra, seed=3000 + i)
        plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS)
        tag = f"graph {i} (seed {3000 + i}, {n_nodes} nodes)"
        if not plan.routes:
            failures.append(f"{tag}: empty plan")
            continue
        seen: set[str] = set()
        duplicated = False
        for route in plan.routes:
            if route.n_channels > MAX_ROUTE_CHANNELS:
                failures.append(f"{tag}: route with {route.n_channels} channels")
            if route.lock_duration < TAU_MIN:
                failures.append(f"{tag}: lock_duration {route.lock_duration}")
            if route.timeout_sum > LOCKTIME_BUDGET:
                failures.append(f"{tag}: timeout_sum {route.timeout_sum}")
            for cid in route.channel_ids:
                duplicated = duplicated or cid in seen
                seen.add(cid)
        if duplicated:
            failures.append(f"{tag}: channel appears in two routes")
        if plan.uncovered_channel_ids:
            failures.append(f"{tag}: {len(plan.uncovered_channel_ids)} channels uncovered")
        if seen | set(plan.uncovered_channel_ids) != set(graph.channel_ids):
            failures.append(f"{tag}: routes do not partition the channel set")
        for row in plan.cumulative_rows():
            bound = upper_bound_capacity(graph, row["cumulative_attacker_channels"])
            if row["cumulative_capacity_fraction"] > bound + 1e-12:
                failures.append(
                    f"{tag}: fraction {row['cumulative_capacity_fraction']:.6f} beats "
                    f"bound {bound:.6f} at {row['cumulative_attacker_channels']} channels"
                )
                break
        if len(failures) > 12:
            break
    verdict(2, failures, time.perf_counter() - started, 60.0)


# -- criterion 3: end-to-end plan verification --------------------------------


def test_criterion_3_plans_verify_in_the_simulator(verdict):
    """Planned attacks hold up when replayed against simulated networks.

    20 network plans: every targeted channel sits exactly at its slot
    limit and a probe through it fails with SlotFull. 20 isolation plans:
    every channel adjacent to the victim is saturated and probed shut, so
    the victim is unreachable. Budget: 120 s.
    """
    started = time.perf_counter()
    failures: list[str] = []
    for i in range(20):
        impls = netgen.IMPL_NAMES if i % 2 else ("lnd",)
        graph, labels = _random_case(25 + i % 16, 10 + i % 12, seed=4000 + i, impl_names=impls)
        plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS)
        report = execute_plan(plan, graph, labels)
        if not report.ok:
            failures.append(f"network seed {4000 + i}: {report.failures[:2]}")
        elif report.channels_locked != report.channels_targeted:
            failures.append(
                f"network seed {4000 + i}: locked {report.channels_locked}"
                f"/{report.channels_targeted}"
            )
        elif report.probes_blocked != report.probes_attempted:
            failures.append(f"network seed {4000 + i}: a probe slipped through")

    for i in range(20):
        impls = netgen.IMPL_NAMES if i % 3 else ("lnd",)
        graph, labels = _random_case(18 + i, 8 + i % 10, seed=5000 + i, impl_names=impls)
        victim = max(graph.nodes, key=lambda node: (graph.degree(node), node))
        plan = plan_isolation(graph, labels, victim=victim)
        report = execute_plan(plan, graph, labels)
        if not report.ok:
            failures.append(f"victim seed {5000 + i}: {report.failures[:2]}")
        elif report.probes_attempted != graph.degree(victim):
            failures.append(f"victim seed {5000 + i}: not every adjacent channel probed")
        elif report.probes_blocked != report.probes_attempted:
            failures.append(f"victim seed {5000 + i}: still reachable")
    verdict(3, failures, time.perf_counter() - started, 120.0)


# -- criterion 4: betweenness against brute force -----------------------------


def test_criterion_4_betweenness_matches_brute_force(verdict):
    """edge_betweenness equals all-pairs shortest-path counting, 1e-9.

    100 random graphs of 4 to 12 nodes, compared channel by channel
    against the independent brute-force oracle. Budget: 30 s.
    """
    started = time.perf_counter()
    failures: list[str] = []
    for i in range(100):
        graph, _ = _random_case(4 + i % 9, i % 7, seed=6000 + i)
        fast = edge_betweenness(graph)
        slow = brute_force_betweenness(graph)
        if set(fast) != set(slow):
            failures.append(f"graph {i}: differing channel sets")
            continue
        worst = max(abs(fast[cid] - slow[cid]) for cid in fast)
        if worst > 1e-9:
            failures.append(f"graph {i} (seed {6000 + i}): max deviation {worst:.3e}")
        if len(failures) > 8:
            break
    verdict(4, failures, time.perf_counter() - started, 30.0)


# -- criterion 5: partition methods -------------------------------------------


def test_criterion_5_partition_methods_find_the_bridge(verdict, barbell):
    """All three methods sever the barbell; KL never worsens its seed.

    The explicit cuts must be exactly the bridge with six nodes a side,
    and each method's 2-channel plan must drop the connected-pairs
    fraction to 60/132 within 1e-9. Budget: 30 s.
    """
    started = time.perf_counter()
    failures: list[str] = []
    _, graph, labels = barbell

    for name, cut in (("fiedler", fiedler_cut(graph)), ("kl", kernighan_lin_cut(graph))):
        if cut.cut_channel_ids != ("bridge",):
            failures.append(f"{name} cut {cut.cut_channel_ids}")
        if not (len(cut.side_a) == len(cut.side_b) == 6):
            failures.append(f"{name} sides {len(cut.side_a)}/{len(cut.side_b)}")

    config = PlannerConfig(max_route_channels=1)
    for method in DisconnectionMethod:
        report, plan = plan_disconnection(
            graph, labels, MAINNET_DEFAULTS, config, method, budget_channels=2
        )
        if len(plan.routes) != 1 or plan.routes[0].channel_ids != ("bridge",):
            failures.append(f"{method.value}: did not lock the bridge")
            continue
        channels, fraction = report.curve[-1]
        if channels != 2 or abs(fraction - BARBELL_SPLIT_FRACTION) > 1e-9:
            failures.append(f"{method.value}: curve ends at ({channels}, {fraction:.6f})")

    for seed in range(12):
        snapshot = netgen.random_snapshot(8 + seed, 4 + seed % 5, seed=500 + seed)
        random_graph = build_graph(snapshot)
        cut = kernighan_lin_cut(random_graph)
        if cut.cut_size > _seed_cut_size(random_graph):
            failures.append(f"seed {500 + seed}: KL worsened the seed cut")
    verdict(5, failures, time.perf_counter() - started, 30.0)


# -- criterion 6: isolation arithmetic ----------------------------------------


def test_criterion_6_lnd_victim_isolation_arithmetic(verdict):
    """An all-default LND victim channel costs exactly 27 payments.

    26 payments at the 18-traversal ceiling plus one 15-traversal trim
    fill all 483 slots, consuming 55 attacker-side slots per channel.
    Tolerance: exact.
    """
    failures: list[str] = []
    snapshot = netgen.star_snapshot(7, impl="lnd")
    graph, labels = build_graph(snapshot), tag_nodes(snapshot)
    plan = plan_isolation(graph, labels, victim="hub")

    if plan.entry_budget != 483:
        failures.append(f"entry budget {plan.entry_budget}")
    if len(plan.per_channel) != 7:
        failures.append(f"{len(plan.per_channel)} channels planned")
    for iso in plan.per_channel:
        traversals = [p.traversals for p in iso.payments]
        if traversals != [18] * 26 + [15]:
            failures.append(f"{iso.channel_id}: traversals {traversals[:4]}...")
        if len(iso.payments) != 27:
            failures.append(f"{iso.channel_id}: {len(iso.payments)} payments")
        if iso.attacker_slots != 55:
            failures.append(f"{iso.channel_id}: {iso.attacker_slots} attacker slots")
    if plan.total_payments != 27 * 7:
        failures.append(f"total payments {plan.total_payments}")
    verdict(6, failures)


# -- criterion 7: defaults table and self-tagging ------------------------------


EXPECTED_DEFAULTS = {
    ImplLabel.LND: {
        "cltv_expiry_delta": 40,
        "min_final_cltv_expiry": 40,
        "locktime_max": 2016,
        "max_concurrent_htlcs": 483,
        "dust_limit_sat": 573,
        "htlc_minimum_msat": 1000,
        "fee_base_msat": 1000,
        "fee_proportional_millionths": 1,
    },
    ImplLabel.CLIGHTNING: {
        "cltv_expiry_delta": 14,
        "min_final_cltv_expiry": 10,
        "locktime_max": 2016,
        "max_concurrent_htlcs": 30,
        "dust_limit_sat": 546,
        "htlc_minimum_msat": 1000,
        "fee_base_msat": 1000,
        "fee_proportional_millionths": 10,
    },
    ImplLabel.ECLAIR: {
        "cltv_expiry_delta": 144,
        "min_final_cltv_expiry": 9,
        "locktime_max": 2016,
        "max_concurrent_htlcs": 30,
        "dust_limit_sat": 546,
        "htlc_minimum_msat": 1,
        "fee_base_msat": 1000,
        "fee_proportional_millionths": 100,
    },
}


def test_criterion_7_defaults_table_and_self_tagging(verdict):
    """The shipped defaults match field for field; self-tagging is clean.

    A node announcing nothing but one implementation's defaults must be
    tagged with that implementation at score 1.0. Tolerance: exact.
    """
    failures: list[str] = []
    for label, expected in EXPECTED_DEFAULTS.items():
        defaults = MAINNET_DEFAULTS[label]
        for field, value in expected.items():
            actual = getattr(defaults, field)
            if actual != value:
                failures.append(f"{label.value}.{field} is {actual}, expected {value}")

    for k, name in enumerate(("lnd", "clightning", "eclair")):
        label = ImplLabel(name)
        snapshot = netgen.random_snapshot(10, 6, seed=7000 + k, impl_names=(name,))
        tagged = tag_nodes(snapshot)
        mistagged = [n for n, got in tagged.items() if got is not label]
        if mistagged:
            failures.append(f"{name}: {len(mistagged)} nodes tagged wrong")
        for node, policies in announced_policies(snapshot).items():
            score = score_node(policies)[label]
            if score != pytest.approx(1.0):
                failures.append(f"{name} node {node}: self score {score}")
                break
    verdict(7, failures)


# -- criterion 8: mitigation sweep monotonicity --------------------------------


def test_criterion_8_locked_capacity_monotone_in_route_length(verdict):
    """Tighter route-length caps never help the attacker on this family.

    30 seeded graphs, budgets of 4, 8, 12, 20 and unlimited attacker
    channels, route-length limits 3, 6, 10 and 20 hops: the locked
    capacity fraction must be non-decreasing in the limit for every
    graph and budget. The sweep must also show real growth somewhere,
    so the check cannot pass vacuously. Budget: 60 s.
    """
    started = time.perf_counter()
    failures: list[str] = []
    biggest_gain = 0.0
    for s in range(30):
        impls = netgen.IMPL_NAMES if s % 2 else ("lnd",)
        graph, labels = _random_case(20 + s % 30, 14 + s % 9, seed=900 + s, impl_names=impls)
        for budget in (4, 8, 12, 20, None):
            sweep = route_length_sweep(graph, labels, [3, 6, 10, 20], budget_channels=budget)
            fractions = [plan.locked_capacity_fraction for _, plan in sweep]
            for lo, hi in zip(fractions, fractions[1:]):
                if lo > hi + 1e-12:
                    failures.append(
                        f"seed {900 + s} budget {budget}: {lo:.6f} -> {hi:.6f}"
                    )
                    break
            biggest_gain = max(biggest_gain, fractions[-1] - fractions[0])
    if biggest_gain < 0.3:
        failures.append(f"sweep never moved more than {biggest_gain:.3f}")
    verdict(8, failures, time.perf_counter() - started, 60.0)


# -- criterion 9: cost separation ----------------------------------------------


def _fee(policy, amount_msat: int) -> int:
    """Advertised forwarding fee, proportional part rounded up."""
    return policy.fee_base_msat + -(-amount_msat * policy.fee_proportional_millionths // 1_000_000)


def test_criterion_9_costs_separate_and_residuals_hold(verdict):
    """On-chain fees price channels only; locked liquidity is refundable.

    On-chain cost is exactly 2.2 USD per attacker channel and ignores the
    exchange rate; locked liquidity is slot_class payments per route and
    ignores the channel-open price. On 100+ routes the delivered amount
    sits exactly at the dust or htlc-minimum floor and every upstream hop
    adds exactly its advertised fee. Tolerance: exact.
    """
    failures: list[str] = []
    routes_checked = 0
    for i in range(40):
        graph, labels = _random_case(20 + i, 10 + i % 14, seed=8000 + i)
        plan = price_plan(plan_network_attack(graph, labels, MAINNET_DEFAULTS), graph, labels)
        if not plan.routes:
            continue
        report = estimate_costs(plan)
        if not math.isclose(report.onchain_fees_usd, 2.2 * plan.attacker_channels, rel_tol=1e-12):
            failures.append(f"seed {8000 + i}: onchain {report.onchain_fees_usd}")
        locked = sum(r.slot_class * r.payment_amount_msat for r in plan.routes)
        if report.locked_liquidity_msat != locked:
            failures.append(f"seed {8000 + i}: locked msat {report.locked_liquidity_msat}")

        repriced = estimate_costs(plan, btc_usd_rate=2 * BTC_USD_RATE)
        if (
            repriced.onchain_fees_usd != report.onchain_fees_usd
            or repriced.locked_liquidity_msat != report.locked_liquidity_msat
            or not math.isclose(
                repriced.locked_liquidity_usd, 2 * report.locked_liquidity_usd, rel_tol=1e-12
            )
        ):
            failures.append(f"seed {8000 + i}: exchange rate leaked into on-chain fees")
        cheaper = estimate_costs(plan, usd_per_open=USD_PER_CHANNEL_OPEN / 2)
        if (
            cheaper.locked_liquidity_msat != report.locked_liquidity_msat
            or not math.isclose(
                cheaper.onchain_fees_usd, report.onchain_fees_usd / 2, rel_tol=1e-12
            )
        ):
            failures.append(f"seed {8000 + i}: channel-open price leaked into liquidity")

        for route in plan.routes:
            amounts = hop_amounts_msat(route, graph, labels)
            policies = [
                graph.channel(h.channel_id).policy_from(h.from_node) for h in route.hops
            ]
            floor = max(
                max(MAINNET_DEFAULTS[labels[n]].dust_limit_sat
                    for n in route.node_sequence) * 1000,
                max(p.htlc_minimum_msat for p in policies),
            )
            if amounts[-1] != floor or min(amounts) < floor:
                failures.append(f"seed {8000 + i}: residual below the {floor} floor")
                break
            if any(
                amounts[j] != amounts[j + 1] + _fee(policies[j], amounts[j + 1])
                for j in range(len(policies))
            ):
                failures.append(f"seed {8000 + i}: a hop fee is off")
                break
            routes_checked += 1
        if routes_checked >= 120 or len(failures) > 8:
            break
    if routes_checked < 100:
        failures.append(f"only {routes_checked} routes checked")
    verdict(9, failures)
