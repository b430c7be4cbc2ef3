"""Greedy route selection under the locktime budget."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lnjam import partition, planner
from lnjam.partition import edge_betweenness
from lnjam.planner import (
    AttackPlan,
    InfeasibleConfigError,
    MixedSlotClassError,
    PlannerConfig,
    WeightMode,
    can_extend_route,
    choose_routes,
    lock_period_sweep,
    plan_network_attack,
    route_length_sweep,
    upper_bound_capacity,
)
from lnjam.topology import (
    LOCKTIME_MAX,
    MAINNET_DEFAULTS,
    ImplLabel,
    apply_slot_limits,
    build_graph,
    parse_snapshot,
)
from lnjam.inference import split_by_slot_class, tag_nodes

import netgen

LND = netgen.DEFAULTS_BY_NAME["lnd"]


def _lnd_graph(snapshot):
    """Slot-limited graph treating every node as LND, whatever it announces."""
    graph = build_graph(snapshot)
    labels = {n: ImplLabel.LND for n in graph.nodes}
    return apply_slot_limits(graph, labels, MAINNET_DEFAULTS), labels


def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(tau_min=0)
    with pytest.raises(ValueError):
        PlannerConfig(tau_min=2016)
    with pytest.raises(ValueError):
        PlannerConfig(max_route_channels=0)
    with pytest.raises(ValueError):
        PlannerConfig(max_route_channels=19)


def test_can_extend_route_budget_boundary():
    config = PlannerConfig(tau_min=432)
    assert can_extend_route(84, 1500, config)
    assert not can_extend_route(85, 1500, config)


def test_two_channel_line_becomes_one_route():
    snapshot = netgen.line_snapshot([40, 40], capacities=[10_000_000, 5_000_000])
    graph, _ = _lnd_graph(snapshot)
    routes = choose_routes(graph)
    assert len(routes) == 1
    assert routes[0].channel_ids == ("e00", "e01")
    assert routes[0].timeout_sum == 80
    assert routes[0].lock_duration == 1936
    assert routes[0].node_sequence == ("n00", "n01", "n02")
    assert routes[0].slot_class == 483


def test_seed_orients_toward_cheaper_first_hop():
    """The walk starts on the side whose first traversal charges less."""
    raw = netgen.snapshot_json(
        ["x", "y", "z"],
        [
            netgen.channel_json(
                "c1", "x", "y", 10_000_000,
                netgen.policy_json(LND, time_lock_delta=144),
                netgen.policy_json(LND, time_lock_delta=40),
            ),
            netgen.channel_json(
                "c2", "y", "z", 5_000_000,
                netgen.policy_json(LND), netgen.policy_json(LND),
            ),
        ],
    )
    graph, _ = _lnd_graph(parse_snapshot(raw))
    routes = choose_routes(graph)
    # c1 seeds first (heavier) and is walked y -> x, charging 40 not 144.
    assert routes[0].channel_ids == ("c1",)
    assert routes[0].hops[0].from_node == "y"
    assert routes[0].timeout_sum == 40
    # x is a dead end, so c2 forms its own route.
    assert routes[1].channel_ids == ("c2",)


def test_seed_weight_ties_go_to_the_cheaper_channel():
    # Equal capacities: c2 seeds first for its smaller delta, though c1
    # sorts first by id.
    raw = netgen.snapshot_json(
        ["a", "b", "c", "d"],
        [
            netgen.channel_json(
                "c1", "a", "b", 5_000_000,
                netgen.policy_json(LND, time_lock_delta=144),
                netgen.policy_json(LND, time_lock_delta=144),
            ),
            netgen.channel_json(
                "c2", "c", "d", 5_000_000,
                netgen.policy_json(LND), netgen.policy_json(LND),
            ),
        ],
    )
    graph, _ = _lnd_graph(parse_snapshot(raw))
    assert [r.channel_ids for r in choose_routes(graph)] == [("c2",), ("c1",)]


def test_extension_prefers_cheaper_delta_on_weight_ties():
    raw = netgen.snapshot_json(
        ["a", "h", "b", "c"],
        [
            netgen.channel_json(
                "c0", "a", "h", 10_000_000,
                netgen.policy_json(LND), netgen.policy_json(LND),
            ),
            netgen.channel_json(
                "c1", "h", "b", 5_000_000,
                netgen.policy_json(LND, time_lock_delta=144),
                netgen.policy_json(LND, time_lock_delta=144),
            ),
            netgen.channel_json(
                "c2", "h", "c", 5_000_000,
                netgen.policy_json(LND), netgen.policy_json(LND),
            ),
        ],
    )
    graph, _ = _lnd_graph(parse_snapshot(raw))
    routes = choose_routes(graph)
    assert routes[0].channel_ids == ("c0", "c2")
    assert routes[1].channel_ids == ("c1",)


def test_route_length_cap_splits_long_lines():
    caps = [25_000_000 - i * 100_000 for i in range(25)]
    snapshot = netgen.line_snapshot([14] * 25, capacities=caps)
    graph, _ = _lnd_graph(snapshot)
    routes = choose_routes(graph)
    assert [r.n_channels for r in routes] == [18, 7]
    covered = [cid for r in routes for cid in r.channel_ids]
    assert sorted(covered) == sorted(graph.channel_ids)
    assert len(set(covered)) == len(covered)


def test_locktime_budget_caps_route_at_exact_boundary():
    """Eleven 144-blocks hops spend the whole 1584-block budget."""
    caps = [20_000_000 - i * 100_000 for i in range(14)]
    snapshot = netgen.line_snapshot([144] * 14, capacities=caps)
    graph, _ = _lnd_graph(snapshot)
    routes = choose_routes(graph, PlannerConfig(tau_min=432))
    assert routes[0].n_channels == 11
    assert routes[0].timeout_sum == 1584
    assert routes[0].lock_duration == 432


def test_channels_beyond_budget_are_left_uncovered():
    snapshot = netgen.line_snapshot([40, 1600], capacities=[5_000_000, 9_000_000])
    graph, labels = _lnd_graph(snapshot)
    plan = plan_network_attack(build_graph(snapshot), labels, MAINNET_DEFAULTS)
    assert [r.channel_ids for r in plan.routes] == [("e00",)]
    assert plan.uncovered_channel_ids == ("e01",)


def test_mixed_slot_classes_are_rejected():
    snapshot = netgen.random_snapshot(10, 4, seed=23, impl_names=("lnd", "clightning"))
    labels = tag_nodes(snapshot)
    graph = apply_slot_limits(build_graph(snapshot), labels, MAINNET_DEFAULTS)
    classes = {ch.slot_limit for ch in graph.channels()}
    assert classes == {30, 483}
    with pytest.raises(MixedSlotClassError):
        choose_routes(graph)
    with pytest.raises(MixedSlotClassError):
        choose_routes(build_graph(snapshot))  # limits never applied


def test_plan_covers_mixed_graph_via_class_split(mixed_mesh):
    snapshot, graph, labels = mixed_mesh
    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS)
    covered = [cid for r in plan.routes for cid in r.channel_ids]
    assert sorted(covered) == sorted(build_graph(snapshot).channel_ids)
    assert plan.uncovered_channel_ids == ()
    assert {r.slot_class for r in plan.routes} <= {30, 483}
    for route in plan.routes:
        assert route.lock_duration >= 432
        assert route.n_channels <= 18


def test_custom_defaults_table_plans_every_slot_class():
    # C-Lightning raised to 100 slots: LND-LND channels keep 483, channels
    # with a C-Lightning end and no Eclair end get 100, Eclair caps at 30.
    clightning = replace(MAINNET_DEFAULTS[ImplLabel.CLIGHTNING], max_concurrent_htlcs=100)
    table = {**MAINNET_DEFAULTS, ImplLabel.CLIGHTNING: clightning}
    snapshot = netgen.random_snapshot(30, 20, seed=42, impl_names=netgen.IMPL_NAMES)
    labels = tag_nodes(snapshot)
    limited = apply_slot_limits(build_graph(snapshot), labels, table)
    assert {ch.slot_limit for ch in limited.channels()} == {483, 100, 30}
    plan = plan_network_attack(build_graph(snapshot), labels, table)
    assert plan.uncovered_channel_ids == ()
    for route in plan.routes:
        for cid in route.channel_ids:
            assert limited.channel(cid).slot_limit == route.slot_class


def test_budget_keeps_heaviest_routes():
    snapshot = netgen.random_snapshot(30, 20, seed=31)
    labels = tag_nodes(snapshot)
    graph = build_graph(snapshot)
    full = plan_network_attack(graph, labels, MAINNET_DEFAULTS)
    capped = plan_network_attack(graph, labels, MAINNET_DEFAULTS, budget_channels=6)
    assert capped.attacker_channels <= 6
    assert len(capped.routes) == 3
    assert [r.channel_ids for r in capped.routes] == [
        r.channel_ids for r in full.routes[:3]
    ]
    assert set(capped.uncovered_channel_ids) >= set(full.uncovered_channel_ids)
    with pytest.raises(InfeasibleConfigError):
        plan_network_attack(graph, labels, MAINNET_DEFAULTS, budget_channels=1)


def test_upper_bound_dominates_greedy_lockup():
    snapshot = netgen.random_snapshot(60, 45, seed=41)
    labels = tag_nodes(snapshot)
    graph = build_graph(snapshot)
    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS)
    for row in plan.cumulative_rows():
        bound = upper_bound_capacity(graph, row["cumulative_attacker_channels"])
        assert row["cumulative_capacity_fraction"] <= bound + 1e-12


def test_upper_bound_exact_on_tiny_graph():
    raw = netgen.snapshot_json(
        ["a", "b", "c"],
        [
            netgen.channel_json("c1", "a", "b", 10_000_000,
                                netgen.policy_json(LND), netgen.policy_json(LND)),
            netgen.channel_json("c2", "b", "c", 14_000_000,
                                netgen.policy_json(LND), netgen.policy_json(LND)),
        ],
    )
    graph = build_graph(parse_snapshot(raw))
    assert upper_bound_capacity(graph, 2, max_route_channels=1) == pytest.approx(14 / 24)
    assert upper_bound_capacity(graph, 4, max_route_channels=1) == pytest.approx(1.0)


def test_lock_period_sweep_tightens_tau(lnd_mesh):
    _, graph, labels = lnd_mesh
    sweeps = lock_period_sweep(graph, labels, [1.0, 3.0, 7.0])
    taus = [plan.tau_min for _, plan in sweeps]
    assert taus == [144, 432, 1008]
    with pytest.raises(InfeasibleConfigError):
        lock_period_sweep(graph, labels, [14.0])
    with pytest.raises(InfeasibleConfigError):
        lock_period_sweep(graph, labels, [0.0])


def test_route_length_sweep_bounds(lnd_mesh):
    _, graph, labels = lnd_mesh
    sweeps = route_length_sweep(graph, labels, [3, 20])
    assert [plan.routes[0].n_channels <= limit - 2 for limit, plan in sweeps] == [True, True]
    with pytest.raises(InfeasibleConfigError):
        route_length_sweep(graph, labels, [2])
    with pytest.raises(InfeasibleConfigError):
        route_length_sweep(graph, labels, [21])


@pytest.mark.parametrize("sweep, points, message", [
    (lock_period_sweep, [1.0, 7.0, 20.0], "lock period of 20.0 days is outside (0, 14)"),
    (lock_period_sweep, [1.0, 13.999], "tau_min must be in (0, 2016), got 2016"),
    (route_length_sweep, [20, 12, 2], "route length limit 2 outside [3, 20]"),
], ids=["days", "tau-min", "route-length"])
def test_sweeps_check_every_point_before_planning_any(
    monkeypatch, lnd_mesh, sweep, points, message
):
    _, graph, labels = lnd_mesh

    def refuse(*args, **kwargs):
        raise AssertionError("a point was planned before every point was checked")

    monkeypatch.setattr(planner, "plan_network_attack", refuse)
    with pytest.raises(InfeasibleConfigError) as excinfo:
        sweep(graph, labels, points)
    assert str(excinfo.value) == message


def test_betweenness_weight_mode_targets_bridges(barbell):
    _, graph, labels = barbell
    config = PlannerConfig(weight_mode=WeightMode.BETWEENNESS, max_route_channels=1)
    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS, config)
    assert plan.routes[0].channel_ids == ("bridge",)


def test_plan_json_round_trip(lnd_mesh):
    _, graph, labels = lnd_mesh
    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS, budget_channels=8)
    doc = plan.to_json_dict()
    again = AttackPlan.from_json_dict(doc)
    assert again.tau_min == plan.tau_min
    assert again.total_capacity_sat == plan.total_capacity_sat
    assert [r.channel_ids for r in again.routes] == [r.channel_ids for r in plan.routes]
    assert [r.lock_duration for r in again.routes] == [r.lock_duration for r in plan.routes]
    assert again.uncovered_channel_ids == plan.uncovered_channel_ids


@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(2, 40),
    extra=st.integers(0, 60),
    mixed=st.booleans(),
    tied=st.booleans(),
    budget=st.integers(2, 40),
    max_route_channels=st.integers(1, 18),
    tau_min=st.integers(1, LOCKTIME_MAX - 1),
)
def test_budgeted_plan_is_the_truncated_full_plan(
    seed, n_nodes, extra, mixed, tied, budget, max_route_channels, tau_min
):
    # Tied capacities leave the stop rule only its strict comparison and
    # the ranking only its first-channel tie-break. Mixed implementations
    # vary min_delta within a slot class, so tied seeds then come in another
    # order than channel ids; that is the case the strictness is for, so
    # tied graphs are always mixed.
    snapshot = netgen.random_snapshot(
        n_nodes,
        extra,
        seed,
        impl_names=netgen.IMPL_NAMES if mixed or tied else ("lnd",),
        capacity_range=(5_000_000, 5_000_001) if tied else (2_000_000, 20_000_000),
    )
    labels = tag_nodes(snapshot)
    graph = build_graph(snapshot)
    config = PlannerConfig(tau_min=tau_min, max_route_channels=max_route_channels)
    full = plan_network_attack(graph, labels, MAINNET_DEFAULTS, config)
    capped = plan_network_attack(graph, labels, MAINNET_DEFAULTS, config, budget)
    truncated = AttackPlan.covering(graph, full.routes[: budget // 2], tau_min)
    assert capped.to_json_dict() == truncated.to_json_dict()


def test_budgeted_capacity_plan_stops_early(lnd_mesh):
    _, graph, labels = lnd_mesh
    graph = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    full = choose_routes(graph)
    capped = choose_routes(graph, keep=2)
    assert len(capped) < len(full)
    assert [r.channel_ids for r in capped] == [r.channel_ids for r in full[: len(capped)]]
    with pytest.raises(InfeasibleConfigError):
        choose_routes(graph, keep=0)


@pytest.mark.parametrize("fixture", ["barbell", "mixed_mesh"])
def test_budgeted_betweenness_plan_keeps_the_heaviest_first_routes(fixture, request):
    # Each slot class builds its first k greedy routes, each weighed on the
    # residual graph without the class's earlier routes; the plan keeps the
    # k heaviest of them.
    _, graph, labels = request.getfixturevalue(fixture)
    config = PlannerConfig(weight_mode=WeightMode.BETWEENNESS)
    limited = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    per_class = [choose_routes(sub, config) for sub in split_by_slot_class(limited)]
    for budget in (2, 5, 8):
        k = budget // 2
        first = sorted(
            (r for routes in per_class for r in routes[:k]),
            key=lambda r: (-r.weight, r.hops[0].channel_id),
        )
        expected = AttackPlan.covering(limited, first[:k], config.tau_min)
        capped = plan_network_attack(graph, labels, MAINNET_DEFAULTS, config, budget)
        assert capped.to_json_dict() == expected.to_json_dict()


@pytest.mark.parametrize("fixture", ["barbell", "mixed_mesh"])
def test_budgeted_betweenness_plan_weighs_at_most_k_routes_per_class(
    fixture, request, monkeypatch
):
    _, graph, labels = request.getfixturevalue(fixture)
    config = PlannerConfig(weight_mode=WeightMode.BETWEENNESS)
    classes = len(split_by_slot_class(apply_slot_limits(graph, labels, MAINNET_DEFAULTS)))
    calls = []

    def counted(residual):
        calls.append(len(residual))
        return edge_betweenness(residual)

    # The planner imports edge_betweenness from the module at each call.
    monkeypatch.setattr(partition, "edge_betweenness", counted)
    for budget in (2, 5, 8):
        calls.clear()
        plan_network_attack(graph, labels, MAINNET_DEFAULTS, config, budget)
        assert 0 < len(calls) <= classes * (budget // 2)
