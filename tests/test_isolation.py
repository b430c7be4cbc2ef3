"""Single-victim isolation: traversal bounds, payment counts, cost curves."""

import math

import pytest

from lnjam.isolation import (
    IsolationPlan,
    isolation_cost_curve,
    max_traversals,
    max_traversals_for_deltas,
    plan_isolation,
)
from lnjam.inference import tag_nodes
from lnjam.planner import plan_network_attack
from lnjam.simulator import SimNetwork, execute_plan
from lnjam.topology import (
    MAINNET_DEFAULTS,
    GraphChannel,
    ImplLabel,
    NetworkGraph,
    apply_slot_limits,
    build_graph,
    parse_snapshot,
)

import netgen


def _star(degree, impl="lnd", neighbor_impl=None):
    snapshot = netgen.star_snapshot(degree, impl, neighbor_impl or impl)
    graph = build_graph(snapshot)
    labels = tag_nodes(snapshot)
    return apply_slot_limits(graph, labels, MAINNET_DEFAULTS), labels


# -- traversal bound ----------------------------------------------------------


def test_traversal_bound_hits_the_onion_cap():
    # 1584 / 40 would allow 39 crossings; the route length cap stops at 18.
    assert max_traversals_for_deltas(40, 40, tau_min=432) == 18


def test_traversal_bound_exhausts_locktime_budget_exactly():
    # Eclair deltas: 11 * 144 = 1584 consumes the whole 2016 - 432 budget.
    assert max_traversals_for_deltas(144, 144, tau_min=432) == 11
    assert max_traversals_for_deltas(144, 144, tau_min=433) == 10


def test_traversal_bound_alternates_directions():
    # Victim side charges first, so which delta leads changes the count:
    # 40,144,... reaches 1512 after 17; 144,40,... would hit 1616 at 17.
    assert max_traversals_for_deltas(40, 144, tau_min=432) == 17
    assert max_traversals_for_deltas(144, 40, tau_min=432) == 16


def test_oversized_delta_is_unparalyzable():
    assert max_traversals_for_deltas(1600, 1600, tau_min=432) == 0


def test_max_traversals_reads_the_victim_direction():
    policy_v = netgen.policy_json(netgen.DEFAULTS_BY_NAME["lnd"])
    policy_n = netgen.policy_json(netgen.DEFAULTS_BY_NAME["eclair"])
    snapshot = netgen.snapshot_json(
        ["victim", "peer"],
        [netgen.channel_json("t0", "victim", "peer", 5_000_000, policy_v, policy_n)],
    )
    graph = build_graph(parse_snapshot(snapshot))
    assert max_traversals(graph.channel("t0"), "victim", tau_min=432) == 17


# -- per-victim plans ---------------------------------------------------------


def test_lnd_victim_needs_27_payments_and_55_slots_per_channel():
    graph, labels = _star(7)
    plan = plan_isolation(graph, labels, victim="hub")
    assert len(plan.per_channel) == 7
    for ch in plan.per_channel:
        assert ch.max_traversals == 18
        assert len(ch.payments) == 27
        assert [p.traversals for p in ch.payments] == [18] * 26 + [15]
        assert ch.attacker_slots == 55
        assert sum(p.traversals for p in ch.payments) == 483
    assert plan.entry_budget == 483
    assert plan.total_payments == 27 * 7
    assert plan.attacker_channels_needed == math.ceil(55 * 7 / 483)


def test_lnd_payment_lock_durations():
    graph, labels = _star(1)
    plan = plan_isolation(graph, labels, victim="hub")
    payments = plan.per_channel[0].payments
    assert payments[0].timeout_sum == 18 * 40
    assert payments[0].lock_duration == 2016 - 720
    assert payments[-1].timeout_sum == 15 * 40
    assert payments[-1].lock_duration == 2016 - 600
    assert plan.min_lock_duration == 1296
    assert payments[0].ends_at_victim
    assert not payments[-1].ends_at_victim


def test_clightning_victim_is_cheap():
    graph, labels = _star(4, impl="clightning")
    plan = plan_isolation(graph, labels, victim="hub")
    for ch in plan.per_channel:
        assert ch.slot_limit == 30
        assert ch.max_traversals == 18
        assert [p.traversals for p in ch.payments] == [18, 12]
        assert ch.attacker_slots == 4
    assert plan.entry_budget == 30
    assert plan.attacker_channels_needed == 1


def test_eclair_victim_packs_11_traversals():
    graph, labels = _star(5, impl="eclair")
    plan = plan_isolation(graph, labels, victim="hub")
    for ch in plan.per_channel:
        assert ch.max_traversals == 11
        assert [p.traversals for p in ch.payments] == [11, 11, 8]
        assert ch.attacker_slots == 6
    assert plan.attacker_channels_needed == 1
    graph6, labels6 = _star(6, impl="eclair")
    assert plan_isolation(graph6, labels6, victim="hub").attacker_channels_needed == 2


def test_unparalyzable_channel_stays_in_plan():
    lnd = netgen.DEFAULTS_BY_NAME["lnd"]
    wide = netgen.policy_json(lnd, time_lock_delta=1600)
    normal = netgen.policy_json(lnd)
    snapshot = netgen.snapshot_json(
        ["hub", "p1", "p2"],
        [
            netgen.channel_json("c1", "hub", "p1", 5_000_000, wide, wide),
            netgen.channel_json("c2", "hub", "p2", 5_000_000, normal, normal),
        ],
    )
    graph = build_graph(parse_snapshot(snapshot))
    labels = {n: ImplLabel.LND for n in ["hub", "p1", "p2"]}
    plan = plan_isolation(graph, labels, victim="hub")
    assert plan.unparalyzable == ("c1",)
    assert [c.channel_id for c in plan.per_channel if c.paralyzable] == ["c2"]
    assert plan.total_payments == 27


def test_degree_zero_victim_yields_empty_plan():
    graph, labels = _star(2)
    labels = dict(labels, loner=ImplLabel.LND)
    plan = plan_isolation(graph, labels, victim="loner")
    assert plan.per_channel == []
    assert plan.attacker_channels_needed == 0
    assert plan.min_lock_duration is None


def test_unknown_victim_rejected():
    graph, labels = _star(2)
    with pytest.raises(ValueError, match="not found"):
        plan_isolation(graph, labels, victim="nobody")
    with pytest.raises(ValueError, match="tau_min"):
        plan_isolation(graph, labels, victim="hub", tau_min=0)


def test_isolation_plan_json_round_trip():
    graph, labels = _star(3)
    plan = plan_isolation(graph, labels, victim="hub")
    doc = plan.to_json_dict()
    back = IsolationPlan.from_json_dict(doc)
    assert back.victim == plan.victim
    assert back.entry_budget == plan.entry_budget
    assert back.per_channel == plan.per_channel
    with pytest.raises(ValueError, match="kind"):
        IsolationPlan.from_json_dict({"kind": "network-attack"})


# -- cost curves --------------------------------------------------------------


def test_lnd_cost_curve_steps_at_degree_nine():
    curve = dict(isolation_cost_curve(ImplLabel.LND, range(0, 12)))
    assert curve[0] == 0
    assert curve[1] == 1
    assert curve[8] == 1
    assert curve[9] == 2
    assert curve[11] == 2


def test_eclair_cost_curve_steps_at_degree_six():
    curve = dict(isolation_cost_curve(ImplLabel.ECLAIR, range(1, 7)))
    assert curve[5] == 1
    assert curve[6] == 2


def test_cost_curve_marks_infeasible_degrees():
    curve = dict(isolation_cost_curve(ImplLabel.ECLAIR, [0, 1, 3], tau_min=1900))
    assert curve[0] == 0
    assert curve[1] == math.inf
    assert curve[3] == math.inf
    with pytest.raises(ValueError, match="negative"):
        isolation_cost_curve(ImplLabel.LND, [-1])


def test_attached_slot_limits_change_no_plan_or_replay(mixed_mesh):
    # Slot limits derived per channel match the ones apply_slot_limits attaches.
    _, graph, labels = mixed_mesh
    limited = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    victims = sorted(graph.nodes, key=lambda n: (-graph.degree(n), n))[:3]
    for victim in victims:
        plans = [plan_isolation(g, labels, victim=victim) for g in (graph, limited)]
        assert plans[0].to_json_dict() == plans[1].to_json_dict()
        reports = [execute_plan(plans[0], g, labels) for g in (graph, limited)]
        assert reports[0].to_json_dict() == reports[1].to_json_dict()


def test_replay_builds_only_the_plans_channels(mixed_mesh, monkeypatch):
    # A component the plan never touches changes no report and is never built.
    _, graph, labels = mixed_mesh
    policy = next(graph.channels()).policy_a_to_b
    island = [
        GraphChannel(f"island{i}", f"far{i}", f"far{i + 1}", 5_000_000, policy, policy)
        for i in range(3)
    ]
    wider = NetworkGraph([*graph.channels(), *island])
    wider_labels = {**labels, **{f"far{i}": ImplLabel.LND for i in range(4)}}
    built = []
    from_graph = SimNetwork.from_graph

    def spy(g, *args):
        built.append(set(g.channel_ids))
        return from_graph(g, *args)

    monkeypatch.setattr(SimNetwork, "from_graph", spy)
    victim = max(graph.nodes, key=graph.degree)
    isolation_plan = plan_isolation(graph, labels, victim=victim)
    network_plan = plan_network_attack(graph, labels, budget_channels=6)
    for plan, targeted in (
        (isolation_plan, set(graph.channels_of(victim))),
        (network_plan, {h.channel_id for r in network_plan.routes for h in r.hops}),
    ):
        reports = [
            execute_plan(plan, g, lab).to_json_dict()
            for g, lab in ((graph, labels), (wider, wider_labels))
        ]
        assert reports[0] == reports[1]
        assert built == [targeted, targeted]
        built.clear()
    assert len(set(graph.channels_of(victim))) == graph.degree(victim)
