"""HTLC simulator: validation order, settlement, force-closes, scenarios."""

import pytest

from lnjam.simulator import (
    ChannelState,
    FailureReason,
    PaymentError,
    PaymentStatus,
    ScenarioParseError,
    SimNetwork,
    SimulatorError,
    builtin_scenario,
    run_scenario,
)
from lnjam.cost import route_amounts
from lnjam.topology import ChannelPolicy


def _policy(delta=40, min_htlc=1000, base=0, rate=0):
    return ChannelPolicy(
        cltv_expiry_delta=delta,
        htlc_minimum_msat=min_htlc,
        fee_base_msat=base,
        fee_proportional_millionths=rate,
    )


def _line_net(n_channels, capacity_sat=1_000_000, slot_limit=483, policy=None, **kw):
    """a0 -c0- a1 -c1- a2 ...; every left node funds its channel."""
    net = SimNetwork(**kw)
    policy = policy or _policy()
    for i in range(n_channels):
        net.open_channel(
            f"c{i}", f"a{i}", f"a{i+1}", capacity_sat,
            funder=f"a{i}",
            policy_a_to_b=policy, policy_b_to_a=policy,
            slot_limit=slot_limit,
        )
    return net


def _total_msat(net, node):
    return sum(
        ch.balances.get(node, 0) for ch in net.channels.values()
    )


def _assert_conserved(net):
    for ch in net.channels.values():
        assert ch.conserves_capacity(), ch.channel_id


# -- amounts and fees ---------------------------------------------------------


def test_route_amounts_accumulate_fees_backward():
    fee_policy = _policy(base=1000, rate=1)
    amounts = route_amounts([fee_policy, fee_policy, fee_policy], 573_000)
    # The first hop charges no fee: the sender pays it by definition.
    assert amounts == [575_002, 574_001, 573_000]
    assert route_amounts([fee_policy], 42) == [42]


def test_middle_node_earns_exactly_its_fee():
    net = _line_net(2, policy=_policy(base=500, rate=0))
    before = _total_msat(net, "a1")
    net.send_payment("p", "a0", ["c0", "c1"], 100_000)
    assert net.payments["p"].status is PaymentStatus.FULFILLED
    assert _total_msat(net, "a1") == before + 500
    assert _total_msat(net, "a2") == 100_000
    _assert_conserved(net)


# -- channel opening ----------------------------------------------------------


def test_open_channel_rejects_bad_arguments():
    net = SimNetwork()
    net.open_channel("c", "a", "b", 1000)
    with pytest.raises(SimulatorError, match="duplicate"):
        net.open_channel("c", "x", "y", 1000)
    with pytest.raises(SimulatorError, match="positive"):
        net.open_channel("c2", "a", "b", 0)
    with pytest.raises(SimulatorError, match="differ"):
        net.open_channel("c3", "a", "a", 1000)
    with pytest.raises(SimulatorError, match="endpoint"):
        net.open_channel("c4", "a", "b", 1000, funder="z")
    with pytest.raises(SimulatorError, match="sum to capacity"):
        net.open_channel("c5", "a", "b", 1000, balances=(1, 2))


def test_funder_starts_with_all_capacity():
    net = SimNetwork()
    net.open_channel("c", "a", "b", 1000, funder="b")
    assert net.channels["c"].balances == {"a": 0, "b": 1_000_000}
    net.open_channel("d", "a", "b", 1000, balances=(400_000, 600_000))
    assert net.channels["d"].balances == {"a": 400_000, "b": 600_000}


# -- validation order ---------------------------------------------------------


def test_route_length_is_checked_before_resolution():
    net = _line_net(1)
    with pytest.raises(PaymentError) as exc:
        net.send_payment("p", "a0", ["nope"] * 21, 5000)
    assert exc.value.reason is FailureReason.ROUTE_TOO_LONG
    with pytest.raises(SimulatorError, match="unknown channel"):
        net.send_payment("p", "a0", ["nope"] * 20, 5000)


def test_api_misuse_is_not_a_payment_failure():
    net = _line_net(1)
    net.send_payment("p", "a0", ["c0"], 5000)
    with pytest.raises(SimulatorError, match="duplicate payment"):
        net.send_payment("p", "a0", ["c0"], 5000)
    with pytest.raises(SimulatorError, match="positive"):
        net.send_payment("q", "a0", ["c0"], 0)
    with pytest.raises(SimulatorError, match="empty route"):
        net.send_payment("r", "a0", [], 5000)


def test_minimum_and_dust_failures():
    net = _line_net(1)
    with pytest.raises(PaymentError) as exc:
        net.send_payment("p", "a0", ["c0"], 999)
    assert exc.value.reason is FailureReason.AMOUNT_BELOW_MINIMUM
    dusty = SimNetwork()
    dusty.open_channel(
        "c", "a", "b", 1000, dust_limit_sat=600,
        policy_a_to_b=_policy(min_htlc=1), policy_b_to_a=_policy(min_htlc=1),
    )
    with pytest.raises(PaymentError) as exc:
        dusty.send_payment("p", "a", ["c"], 500_000)
    assert exc.value.reason is FailureReason.BELOW_DUST
    dusty.send_payment("ok", "a", ["c"], 600_000)


def test_locktime_ceiling_counts_forwarding_hops_and_final():
    # Forwarding charges skip the first hop; 40 + final 9 needs 49 blocks.
    net = _line_net(2, locktime_max=48)
    with pytest.raises(PaymentError) as exc:
        net.send_payment("p", "a0", ["c0", "c1"], 5000)
    assert exc.value.reason is FailureReason.LOCKTIME_EXCEEDED
    net.send_payment("q", "a0", ["c0", "c1"], 5000, final_expiry=8)


def test_slot_limit_is_shared_and_cumulative():
    net = _line_net(1, slot_limit=1)
    net.send_payment("p1", "a0", ["c0"], 5000, hold=True)
    with pytest.raises(PaymentError) as exc:
        net.send_payment("p2", "a1", ["c0"], 5000, hold=True)
    assert exc.value.reason is FailureReason.SLOT_FULL
    # A single payment crossing the channel twice needs two slots at once.
    fresh = _line_net(1, slot_limit=1)
    with pytest.raises(PaymentError) as exc:
        fresh.send_payment("p", "a0", ["c0", "c0"], 5000, hold=True)
    assert exc.value.reason is FailureReason.SLOT_FULL


def test_slot_check_outranks_balance_check():
    # The sender's side is broke AND the slot is taken; the slot wins, which
    # is what lets a blocked probe prove jamming rather than mere depletion.
    net = _line_net(1, capacity_sat=10, slot_limit=1)
    net.send_payment("p1", "a0", ["c0"], 10_000, hold=True)
    with pytest.raises(PaymentError) as exc:
        net.send_payment("p2", "a0", ["c0"], 10_000, hold=True)
    assert exc.value.reason is FailureReason.SLOT_FULL


def test_insufficient_balance_accumulates_per_side():
    net = _line_net(1, capacity_sat=10)
    with pytest.raises(PaymentError) as exc:
        net.send_payment("p", "a0", ["c0"], 11_000)
    assert exc.value.reason is FailureReason.INSUFFICIENT_BALANCE
    # A route crossing a0 -> a1 twice escrows from a0 twice: each crossing
    # fits alone, together they exceed a0's 12000 msat side.
    wide = SimNetwork()
    wide.open_channel(
        "c0", "a0", "a1", 20, slot_limit=10, balances=(12_000, 8_000),
        policy_a_to_b=_policy(), policy_b_to_a=_policy(),
    )
    with pytest.raises(PaymentError) as exc:
        wide.send_payment("p", "a0", ["c0", "c0", "c0"], 6500, hold=True)
    assert exc.value.reason is FailureReason.INSUFFICIENT_BALANCE
    wide.send_payment("q", "a0", ["c0", "c0", "c0"], 6000, hold=True)


def test_duplicate_hash_mitigation_toggle():
    strict = _line_net(1, reject_duplicate_hash=True)
    strict.send_payment("p1", "a0", ["c0"], 5000, hold=True, payment_hash="H")
    with pytest.raises(PaymentError) as exc:
        strict.send_payment("p2", "a0", ["c0"], 5000, hold=True, payment_hash="H")
    assert exc.value.reason is FailureReason.DUPLICATE_HASH
    strict.send_payment("p3", "a0", ["c0"], 5000, hold=True, payment_hash="I")
    lax = _line_net(1)
    lax.send_payment("p1", "a0", ["c0"], 5000, hold=True, payment_hash="H")
    lax.send_payment("p2", "a0", ["c0"], 5000, hold=True, payment_hash="H")


# -- holds, expiries, and time ------------------------------------------------


def test_hold_takes_the_whole_locktime_budget():
    net = _line_net(2)
    net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True)
    first = next(iter(net.channels["c0"].pending.values()))
    second = next(iter(net.channels["c1"].pending.values()))
    assert first.expiry_height == 2016
    assert second.expiry_height == 2016 - 40
    assert net.payments["p"].status is PaymentStatus.PENDING
    _assert_conserved(net)


def test_expiries_decrease_strictly_along_the_route():
    net = _line_net(5, policy=_policy(delta=14))
    net.send_payment("p", "a0", ["c0", "c1", "c2", "c3", "c4"], 5000, hold=True)
    expiries = [
        next(iter(net.channels[f"c{i}"].pending.values())).expiry_height
        for i in range(5)
    ]
    assert expiries == sorted(expiries, reverse=True)
    assert len(set(expiries)) == 5


def test_force_close_happens_strictly_after_expiry():
    net = _line_net(2, locktime_max=10)
    net.send_payment("p", "a0", ["c0"], 5000, hold=True)
    assert net.advance_blocks(10) == []
    assert net.channels["c0"].state is ChannelState.OPEN
    assert net.advance_blocks(1) == ["c0"]
    assert net.channels["c0"].state is ChannelState.FORCE_CLOSED
    # Only the channel holding the expired HTLC closes.
    assert net.channels["c1"].state is ChannelState.OPEN
    with pytest.raises(ValueError):
        net.advance_blocks(0)


def test_fail_restores_balances_exactly():
    net = _line_net(3, policy=_policy(base=777, rate=13))
    snapshot = {cid: dict(ch.balances) for cid, ch in net.channels.items()}
    net.send_payment("p", "a0", ["c0", "c1", "c2"], 123_457, hold=True)
    assert any(ch.pending for ch in net.channels.values())
    net.fail_payment("p")
    assert {cid: dict(ch.balances) for cid, ch in net.channels.items()} == snapshot
    assert all(not ch.pending for ch in net.channels.values())
    assert net.payments["p"].status is PaymentStatus.FAILED


def test_fail_leaves_frozen_htlcs_on_closed_channels():
    # Downstream expiry is lower, so only c1 closes; failing afterwards
    # restores c0 but the on-chain HTLC stays escrowed on c1.
    net = _line_net(2, locktime_max=12, policy=_policy(delta=5))
    net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True, final_expiry=2)
    assert net.advance_blocks(8) == ["c1"]
    net.fail_payment("p")
    assert net.channels["c0"].pending == {}
    assert net.channels["c0"].balances["a0"] == 1_000_000_000
    assert len(net.channels["c1"].pending) == 1
    _assert_conserved(net)


def test_fulfill_blocked_by_a_closed_hop():
    net = _line_net(2, locktime_max=12, policy=_policy(delta=5))
    net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True, final_expiry=2)
    net.advance_blocks(8)
    with pytest.raises(SimulatorError, match="force-closed"):
        net.fulfill_payment("p")


def test_payment_lifecycle_misuse():
    net = _line_net(1)
    with pytest.raises(SimulatorError, match="unknown payment"):
        net.fulfill_payment("ghost")
    net.send_payment("p", "a0", ["c0"], 5000, hold=True)
    net.fulfill_payment("p")
    with pytest.raises(SimulatorError, match="already fulfilled"):
        net.fulfill_payment("p")
    with pytest.raises(SimulatorError, match="already fulfilled"):
        net.fail_payment("p")


def test_fulfill_pays_the_recipient():
    net = _line_net(2)
    net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True)
    assert _total_msat(net, "a2") == 0
    net.fulfill_payment("p")
    assert _total_msat(net, "a2") == 5000
    assert all(not ch.pending for ch in net.channels.values())
    _assert_conserved(net)


def test_conservation_survives_mixed_activity():
    net = _line_net(4, policy=_policy(delta=20, base=100, rate=50), locktime_max=100)
    net.send_payment("hold1", "a0", ["c0", "c1", "c2"], 44_000, hold=True)
    net.send_payment("plain", "a3", ["c3"], 17_000)
    net.send_payment("hold2", "a2", ["c2", "c3"], 9_000, hold=True)
    _assert_conserved(net)
    net.fail_payment("hold1")
    net.advance_blocks(101)
    _assert_conserved(net)


def test_event_log_is_deterministic():
    def run():
        net = _line_net(2, locktime_max=12, policy=_policy(delta=5))
        net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True, final_expiry=2)
        net.advance_blocks(8)
        net.fail_payment("p")
        return net.events

    first, second = run(), run()
    assert first == second
    assert {"event": "force_close", "height": 8, "channel": "c1"} in first


# -- from_graph ---------------------------------------------------------------


def test_from_graph_splits_balances_and_sets_dust():
    import netgen
    from lnjam.inference import tag_nodes
    from lnjam.topology import build_graph

    snapshot = netgen.star_snapshot(3, "lnd", "clightning")
    graph = build_graph(snapshot)
    labels = tag_nodes(snapshot)
    net = SimNetwork.from_graph(graph, labels)
    for cid in graph.channel_ids:
        ch = net.channels[cid]
        capacity_msat = ch.capacity_sat * 1000
        assert sum(ch.balances.values()) == capacity_msat
        assert max(ch.balances.values()) - min(ch.balances.values()) <= 1
        assert ch.dust_limit_sat == 573
        assert ch.slot_limit == 30


# -- scenario scripts ---------------------------------------------------------


def test_scenario_happy_path():
    result = run_scenario(
        """
        # tiny two-channel network; dust=0 admits small test amounts
        open c1 A B 1000000 dust=0
        open c2 B C 1000000 dust=0
        pay p1 5000 A c1,c2 hold
        assert_pending c1 1
        assert_pending c2 1
        fulfill p1
        assert_pending c1 0
        assert_open c1
        """
    )
    assert result.passed
    assert [s.ok for s in result.steps] == [True] * 8
    assert result.failed_steps == []


def test_scenario_assert_fails_checks_the_reason():
    script = """
    open c1 A B 1000000 slots=1
    pay p1 600000 A c1 hold
    assert_fails SlotFull pay p2 600000 A c1 hold
    assert_fails InsufficientBalance pay p3 600000 A c1 hold
    """
    result = run_scenario(script)
    assert not result.passed
    (bad,) = result.failed_steps
    assert bad.line_no == 5
    assert "failed with SlotFull" in bad.detail


def test_scenario_route_sugar_and_repeat():
    result = run_scenario(
        """
        open c1 A B 1000000 dust=0
        open c2 B C 1000000 dust=0 funder=C
        # Give B spendable balance on both channels for the return crossings.
        pay shift1 50000 A c1
        pay shift2 50000 C c2
        repeat 3 pay loop{i} 2000 A c1,c2*2,c1 hold
        assert_pending c1 6
        assert_pending c2 6
        """
    )
    assert result.passed
    assert {"loop1", "loop2", "loop3"} <= set(result.network.payments)


def test_scenario_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioParseError) as exc:
        run_scenario("open c1 A B 1000\nfrobnicate c1")
    assert exc.value.line_no == 2
    with pytest.raises(ScenarioParseError, match="repeat count"):
        run_scenario("repeat banana pay p 1 A c1")
    with pytest.raises(ScenarioParseError, match="empty route"):
        run_scenario("pay p1 5000 A ,")
    with pytest.raises(ScenarioParseError, match="key=value"):
        run_scenario("open c1 A B 1000 shiny")


def test_scenario_failures_do_not_abort_the_run():
    result = run_scenario(
        """
        open c1 A B 1000
        pay p1 5000000000 A c1
        assert_open c1
        """
    )
    assert not result.passed
    assert [s.ok for s in result.steps] == [True, False, True]


def test_builtin_scenarios_load_and_pass():
    assert run_scenario(builtin_scenario("experiment1")).passed
    with pytest.raises(FileNotFoundError):
        builtin_scenario("experiment99")
