"""HTLC simulator: validation order, settlement, force-closes, scenarios."""

import random

import pytest
from hypothesis import given, strategies as st

from lnjam.simulator import (
    ChannelState,
    FailureReason,
    PaymentError,
    PaymentStatus,
    ScenarioParseError,
    SimNetwork,
    SimulatorError,
    builtin_scenario,
    execute_plan,
    run_scenario,
)
from lnjam.cost import route_amounts
from lnjam.inference import tag_nodes
from lnjam.isolation import plan_isolation
from lnjam.planner import plan_network_attack
from lnjam.topology import (
    ChannelPolicy,
    ImplLabel,
    UnlabeledNodeError,
    apply_slot_limits,
    build_graph,
    parse_snapshot,
)

import netgen


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
    (first,) = net.channels["c0"].htlcs()
    (second,) = net.channels["c1"].htlcs()
    assert first.expiry_height == 2016
    assert second.expiry_height == 2016 - 40
    assert net.payments["p"].status is PaymentStatus.PENDING
    _assert_conserved(net)


def test_expiries_decrease_strictly_along_the_route():
    net = _line_net(5, policy=_policy(delta=14))
    net.send_payment("p", "a0", ["c0", "c1", "c2", "c3", "c4"], 5000, hold=True)
    expiries = [
        h.expiry_height for i in range(5) for h in net.channels[f"c{i}"].htlcs()
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
    assert any(ch.htlcs() for ch in net.channels.values())
    net.fail_payment("p")
    assert {cid: dict(ch.balances) for cid, ch in net.channels.items()} == snapshot
    assert all(not ch.htlcs() for ch in net.channels.values())
    assert net.payments["p"].status is PaymentStatus.FAILED


def test_fail_leaves_frozen_htlcs_on_closed_channels():
    # Downstream expiry is lower, so only c1 closes; failing afterwards
    # restores c0 but the on-chain HTLC stays escrowed on c1.
    net = _line_net(2, locktime_max=12, policy=_policy(delta=5))
    net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True, final_expiry=2)
    assert net.advance_blocks(8) == ["c1"]
    net.fail_payment("p")
    assert net.channels["c0"].htlcs() == []
    assert net.channels["c0"].balances["a0"] == 1_000_000_000
    assert len(net.channels["c1"].htlcs()) == 1
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
    assert all(not ch.htlcs() for ch in net.channels.values())
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
        net = _line_net(2, locktime_max=12, policy=_policy(delta=5), events=[])
        net.send_payment("p", "a0", ["c0", "c1"], 5000, hold=True, final_expiry=2)
        net.advance_blocks(8)
        net.fail_payment("p")
        return net.events

    first, second = run(), run()
    assert first == second
    assert {"event": "force_close", "height": 8, "channel": "c1"} in first


# -- invariants under random activity ------------------------------------------

# A four-node network with mixed slot limits, fees, deltas and dust limits:
# (id, a, b, capacity_sat, slot_limit, dust_limit_sat, policy).
_MESH = [
    ("m0", "n0", "n1", 300, 2, 0, _policy(delta=20, min_htlc=1000, base=10, rate=100)),
    ("m1", "n1", "n2", 2000, 3, 1, _policy(delta=15, min_htlc=1, base=0, rate=5000)),
    ("m2", "n2", "n3", 500, 5, 0, _policy(delta=30, min_htlc=3000, base=250, rate=0)),
    ("m3", "n3", "n0", 1000, 483, 5, _policy(delta=9, min_htlc=1, base=1, rate=1)),
    ("m4", "n0", "n2", 800, 1, 0, _policy(delta=25, min_htlc=1000, base=7, rate=30)),
]

_route = st.tuples(st.integers(0, 3), st.lists(st.integers(0, 5), min_size=1, max_size=6))
_action = st.one_of(
    st.tuples(st.just("send"), _route, st.integers(1000, 400_000), st.booleans()),
    st.tuples(st.just("send_then_fail"), _route, st.integers(1000, 400_000)),
    st.tuples(st.just("hold_batch"), _route, st.integers(1000, 400_000), st.integers(1, 6)),
    st.tuples(st.sampled_from(["fulfill", "fail"]), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.integers(1, 60)),
)


def _mesh_network():
    net = SimNetwork(locktime_max=60)
    for cid, a, b, capacity, slots, dust, policy in _MESH:
        half = capacity * 1000 // 2
        net.open_channel(
            cid, a, b, capacity, policy_a_to_b=policy, policy_b_to_a=policy,
            slot_limit=slots, dust_limit_sat=dust, balances=(half, capacity * 1000 - half),
        )
    return net


def _walk(net, sender, picks):
    """A channel walk from ``sender``: each pick chooses among the channels
    at the current node."""
    path, node = [], f"n{sender}"
    for pick in picks:
        here = sorted(c.channel_id for c in net.channels.values() if node in (c.node_a, c.node_b))
        channel = net.channels[here[pick % len(here)]]
        path.append(channel.channel_id)
        node = channel.other_endpoint(node)
    return path


def _ledger(net):
    return {
        cid: (dict(ch.balances), {h.htlc_id for h in ch.htlcs()})
        for cid, ch in net.channels.items()
    }


def _value(htlc):
    """An HTLC by value: the copies a held run expands to are new objects."""
    return (htlc.channel.channel_id, htlc.from_node, htlc.to_node, htlc.payment_hash,
            htlc.amount_msat, htlc.expiry_height, htlc.htlc_id)


@given(actions=st.lists(_action, min_size=10, max_size=40))
def test_random_activity_keeps_the_simulator_invariants(actions):
    net = _mesh_network()
    # HTLCs of failed payments left on force-closed channels, which keep them.
    stranded = set()
    for step, action in enumerate(actions):
        verb = action[0]
        if verb in ("send", "send_then_fail"):
            (sender, picks), amount = action[1], action[2]
            hold = verb == "send_then_fail" or action[3]
            before = _ledger(net)
            try:
                net.send_payment(f"p{step}", f"n{sender}", _walk(net, sender, picks), amount, hold)
            except PaymentError:
                assert _ledger(net) == before  # a refused payment changes nothing
            else:
                if verb == "send_then_fail":
                    net.fail_payment(f"p{step}")
                    assert _ledger(net) == before
        elif verb == "hold_batch":
            (sender, picks), amount, count = action[1:]
            ids = [f"p{step}b{n}" for n in range(count)]
            net.hold_payments(ids, f"n{sender}", _walk(net, sender, picks), amount)
        elif verb == "advance":
            net.advance_blocks(action[1])
        else:
            ids = [k for k, p in net.payments.items() if p.status is PaymentStatus.PENDING]
            if not ids:
                continue
            state = net.payments[ids[action[1] % len(ids)]]
            try:
                getattr(net, f"{verb}_payment")(state.payment_id)
            except SimulatorError:
                continue
            if verb == "fail":
                stranded |= _stranded(state)
        _assert_invariants(net, stranded)

    # Failing every payment still pending leaves only the stranded HTLCs, and
    # each channel's balances are its opening ones moved by the payments that
    # settled, less what the stranded HTLCs escrow.
    for payment_id in [k for k, p in net.payments.items() if p.status is PaymentStatus.PENDING]:
        state = net.payments[payment_id]
        net.fail_payment(payment_id)
        stranded |= _stranded(state)
    _assert_invariants(net, stranded)
    expected = {cid: dict(ch.balances) for cid, ch in _mesh_network().channels.items()}
    for p in net.payments.values():
        for h in p.hops if p.status is PaymentStatus.FULFILLED else ():
            expected[h.channel.channel_id][h.from_node] -= h.amount_msat
            expected[h.channel.channel_id][h.to_node] += h.amount_msat
    for cid, from_node, _, _, amount, _, _ in stranded:
        expected[cid][from_node] -= amount
    assert {cid: ch.balances for cid, ch in net.channels.items()} == expected
    for ch in net.channels.values():
        assert ch.state is ChannelState.FORCE_CLOSED or ch.runs == {}, ch.channel_id


def _stranded(state):
    """A failed payment's HTLCs left on force-closed channels, which keep them."""
    return {_value(h) for h in state.hops if h.channel.state is ChannelState.FORCE_CLOSED}


def _assert_invariants(net, stranded):
    held = [_value(h) for ch in net.channels.values() for h in ch.htlcs()]
    for ch in net.channels.values():
        assert ch.conserves_capacity(), ch.channel_id
        assert ch.slots_used() == len(ch.htlcs()) <= ch.slot_limit, ch.channel_id
        assert all(h.channel is ch for h in ch.htlcs())
        assert all(run.first_id == k for k, run in ch.runs.items())
        # A run none of whose members is left would still count in
        # ``min_expiry`` and force-close its channel.
        assert all(run.members() for run in ch.runs.values()), ch.channel_id
    # Every pending HTLC is one of its pending payment's hops, or stranded.
    live = {
        _value(h)
        for p in net.payments.values()
        if p.status is PaymentStatus.PENDING
        for h in p.hops
    }
    assert len(set(held)) == len(held)
    assert set(held) == live | stranded


# -- batched held payments ----------------------------------------------------


def _snapshot(net):
    """Everything a payment can change, by value and in order."""
    return (
        {cid: dict(ch.balances) for cid, ch in net.channels.items()},
        {cid: [_value(h) for h in ch.htlcs()] for cid, ch in net.channels.items()},
        {cid: ch.state for cid, ch in net.channels.items()},
        [(pid, p.status, p.hold, [_value(h) for h in p.hops]) for pid, p in net.payments.items()],
        net.events,
        net._next_htlc_id,
    )


def _hold_one_by_one(net, payment_ids, sender, path, amount):
    for n, payment_id in enumerate(payment_ids):
        try:
            net.send_payment(payment_id, sender, path, amount, hold=True)
        except PaymentError as exc:
            return n, exc
    return len(payment_ids), None


def _resolve_members(net, payment_ids, after):
    """Apply each ``after`` action to the batch's payments: ``("advance",
    n)`` mines n blocks; ``("fail", n)`` or ``("fulfill", n)`` resolves the
    n-th (modulo) of the batch's payments that went in. Returns what each
    action returned or the ``SimulatorError`` message it raised."""
    members = [p for p in payment_ids if p in net.payments]
    results = []
    for verb, n in after:
        try:
            if verb == "advance":
                results.append(net.advance_blocks(n))
            elif members:
                results.append(getattr(net, f"{verb}_payment")(members[n % len(members)]))
        except SimulatorError as exc:
            results.append(str(exc))
    return results


def _assert_batch_matches_loop(build, payment_ids, sender, path, amount, after=()):
    """``hold_payments`` and the ``send_payment`` loop, each on a fresh
    ``build()``, stop at the same payment for the same reason and message,
    take the ``after`` actions alike and leave the same state behind.
    Returns the batch's outcome."""
    results = []
    for run in (SimNetwork.hold_payments, _hold_one_by_one):
        net = build()
        try:
            sent, error = run(net, payment_ids, sender, path, amount)
        except SimulatorError as exc:
            outcome = ("misuse", str(exc))
        else:
            outcome = (sent, None) if error is None else (sent, error.reason, str(error))
        results.append((outcome, _resolve_members(net, payment_ids, after), _snapshot(net)))
    assert results[0] == results[1]
    return results[0][0]


def _weave(slots=483, target_sat=100, entry_slots=483, dust=0, before=(), closed=False, **kw):
    """atk -e- V -c- N -x- atk: an isolation replay's entry and exit channels
    around the target ``c``, whose sides hold half of ``target_sat`` each."""
    net = SimNetwork(events=[], **kw)
    free = _policy(delta=1, min_htlc=1)
    for cid, a, b in (("e", "atk", "V"), ("x", "N", "atk")):
        net.open_channel(cid, a, b, 10**6, policy_a_to_b=free, policy_b_to_a=free,
                         slot_limit=entry_slots, balances=(5 * 10**8, 5 * 10**8))
    half = target_sat * 500
    net.open_channel("c", "V", "N", target_sat, policy_a_to_b=_policy(delta=10),
                     policy_b_to_a=_policy(delta=10), slot_limit=slots, dust_limit_sat=dust,
                     balances=(half, half))
    for payment_id, payment_hash in before:
        net.send_payment(payment_id, "V", ["c"], 1000, hold=True, payment_hash=payment_hash)
    if closed:
        net.send_payment("old", "V", ["c"], 1000, hold=True)
        net.advance_blocks(net.locktime_max + 1)
    return net


_IDS = [f"b{n}" for n in range(6)]
_BOUNCE = ["e", "c", "c", "e"]  # entry channel = exit channel
# b0 goes through send_payment; b1..b5 are one run.
_FIRST, _MIDDLE, _LAST = 1, 3, 5


@pytest.mark.parametrize("build, payment_ids, path, amount, expected, after", [
    # A channel repeated in the path: four traversals take 4 of c's 10 slots.
    (dict(slots=10), _IDS, ["e", "c", "c", "c", "c", "e"], 2000, (2, FailureReason.SLOT_FULL), ()),
    (dict(slots=7), _IDS, ["e", "c", "c", "c", "x"], 2000, (2, FailureReason.SLOT_FULL), ()),
    # The entry channel, which is also the exit, binds first.
    (dict(entry_slots=5), _IDS, _BOUNCE, 2000, (2, FailureReason.SLOT_FULL), ()),
    # Each side of c escrows 2000 msat per payment out of 5000.
    (dict(target_sat=10), _IDS, _BOUNCE, 2000, (2, FailureReason.INSUFFICIENT_BALANCE), ()),
    # Both bounds stop the third payment; the slot check runs first.
    (dict(target_sat=10, slots=4), _IDS, _BOUNCE, 2000, (2, FailureReason.SLOT_FULL), ()),
    (dict(), _IDS, _BOUNCE, 2000, (6, None), ()),
    (dict(), [], _BOUNCE, 2000, (0, None), ()),
    # The first payment is refused by a check that holds for the whole batch.
    (dict(dust=3), _IDS, _BOUNCE, 2000, (0, FailureReason.BELOW_DUST), ()),
    (dict(), _IDS, _BOUNCE, 999, (0, FailureReason.AMOUNT_BELOW_MINIMUM), ()),
    (dict(locktime_max=29), _IDS, _BOUNCE, 2000, (0, FailureReason.LOCKTIME_EXCEEDED), ()),
    (dict(locktime_max=30, closed=True), _IDS, _BOUNCE, 2000,
     (0, FailureReason.CHANNEL_CLOSED), ()),
    # Every hash is checked: the third payment's is already pending on c.
    (dict(reject_duplicate_hash=True, before=[("old", "h:b2")]), _IDS, _BOUNCE, 2000,
     (2, FailureReason.DUPLICATE_HASH), ()),
    (dict(before=[("old", "h:b2")]), _IDS, _BOUNCE, 2000, (6, None), ()),
    # A reused payment id is misuse, raised after the payments before it.
    (dict(), ["b0", "b1", "b0"], _BOUNCE, 2000, ("misuse", "duplicate payment id b0"), ()),
    (dict(before=[("b3", None)]), _IDS, _BOUNCE, 2000, ("misuse", "duplicate payment id b3"), ()),
    (dict(), ["b0", "b1", "b2", "b1"], _BOUNCE, 2000, ("misuse", "duplicate payment id b1"), ()),
    # Resolving members splits their run; resolving one twice is misuse.
    (dict(), _IDS, _BOUNCE, 2000, (6, None), [("fail", _FIRST), ("fail", _FIRST)]),
    (dict(), _IDS, _BOUNCE, 2000, (6, None), [("fail", _MIDDLE), ("fulfill", _MIDDLE - 1)]),
    (dict(), _IDS, _BOUNCE, 2000, (6, None), [("fail", _LAST), ("fail", 0)]),
    (dict(), _IDS, ["e", "c", "c", "c", "c", "e"], 2000, (6, None),
     [("fulfill", _MIDDLE), ("fulfill", _LAST), ("fail", _MIDDLE + 1)]),
    # At height 1996 only e has expired: its hops stay stranded, c's are released.
    (dict(), _IDS, _BOUNCE, 2000, (6, None),
     [("advance", 1996), ("fail", _MIDDLE), ("fulfill", _FIRST), ("advance", 20),
      ("fail", _LAST)]),
    # Once b0 has settled, only the run's expiry can close e.
    (dict(), _IDS, _BOUNCE, 2000, (6, None), [("fulfill", 0), ("advance", 1996)]),
], ids=[
    "weave", "odd-weave", "entry-is-exit", "balance", "slot-and-balance", "all-fit", "no-ids",
    "dust", "minimum", "locktime", "closed", "duplicate-hash", "hash-unchecked", "reused-id",
    "taken-id", "repeat-in-run", "fail-first", "fail-middle", "fail-last", "fulfill-weave",
    "fail-after-close", "close-over-run",
])
def test_hold_payments_matches_the_send_payment_loop(
    build, payment_ids, path, amount, expected, after
):
    outcome = _assert_batch_matches_loop(
        lambda: _weave(**build), payment_ids, "atk", path, amount, after
    )
    assert outcome[:2] == expected


_batch_case = st.fixed_dictionaries({
    "slots": st.lists(st.integers(1, 8) | st.just(483), min_size=len(_MESH), max_size=len(_MESH)),
    "capacities": st.lists(st.integers(50, 2000), min_size=len(_MESH), max_size=len(_MESH)),
    "shares": st.lists(st.integers(10, 90), min_size=len(_MESH), max_size=len(_MESH)),
    "reject_duplicate_hash": st.booleans(),
    "locktime_max": st.sampled_from([2016, 60]),
    "before": st.lists(st.tuples(_route, st.integers(1000, 20_000)), max_size=6),
    "advance": st.integers(0, 60),
    "route": _route,
    "amount": st.integers(3000, 60_000),
    "count": st.integers(1, 30),
    "after": st.lists(
        st.tuples(st.sampled_from(["fail", "fulfill"]), st.integers(0, 29))
        | st.tuples(st.just("advance"), st.integers(1, 60)),
        max_size=8,
    ),
})


def _batch_mesh(case):
    """``_MESH`` with drawn slot limits, capacities and balance shares, a few
    held payments already pending, and maybe some blocks mined."""
    net = SimNetwork(
        locktime_max=case["locktime_max"], reject_duplicate_hash=case["reject_duplicate_hash"],
        events=[],
    )
    for (cid, a, b, _, _, dust, policy), slots, capacity, share in zip(
        _MESH, case["slots"], case["capacities"], case["shares"]
    ):
        msat = capacity * 1000
        net.open_channel(
            cid, a, b, capacity, policy_a_to_b=policy, policy_b_to_a=policy, slot_limit=slots,
            dust_limit_sat=dust, balances=(msat * share // 100, msat - msat * share // 100),
        )
    for n, ((sender, picks), amount) in enumerate(case["before"]):
        # Hashes the batch's own payments will carry, for the duplicate-hash check.
        try:
            net.send_payment(f"old{n}", f"n{sender}", _walk(net, sender, picks), amount,
                             hold=True, payment_hash=f"h:b{n}")
        except PaymentError:
            pass
    if case["advance"]:
        net.advance_blocks(case["advance"])
    return net


@given(case=_batch_case)
def test_hold_payments_matches_the_loop_on_random_networks(case):
    sender, picks = case["route"]
    path = _walk(_batch_mesh(case), sender, picks)
    payment_ids = [f"b{n}" for n in range(case["count"])]
    _assert_batch_matches_loop(
        lambda: _batch_mesh(case), payment_ids, f"n{sender}", path, case["amount"], case["after"]
    )


def test_held_copies_take_one_record_per_hop():
    # One run per hop, however many copies.
    records = []
    for count in (4, 400):
        net = _line_net(3)
        assert net.hold_payments([f"p{n}" for n in range(count)], "a0", ["c0", "c1", "c2"],
                                 5000) == (count, None)
        assert [ch.slots_used() for ch in net.channels.values()] == [count] * 3
        records.append([len(ch.runs) for ch in net.channels.values()])
        assert net.events is None  # a network given no sink keeps no log
    assert records[0] == records[1] == [1, 1, 1]


def test_resolved_members_keep_their_places_in_the_run():
    # Failing the first, then the last, of a 3-hop run of 5 leaves every
    # member in the run's one record, the three between them on the HTLC ids
    # they had, and the state the loop leaves.
    ids, path = [f"p{n}" for n in range(5)], ["c0", "c1", "c2"]
    batch, loop = _line_net(3, events=[]), _line_net(3, events=[])
    assert batch.hold_payments(ids, "a0", path, 5000) == (5, None)
    assert _hold_one_by_one(loop, ids, "a0", path, 5000) == (5, None)
    record = batch._payments["p2"]
    htlc_ids = {p: [h.htlc_id for h in batch.payments[p].hops] for p in ids[1:4]}
    for net in (batch, loop):
        net.fail_payment("p0")
        net.fail_payment("p4")
    assert all(batch._payments[p] is record for p in ids)
    assert record.payment_ids == ids
    assert {p: [h.htlc_id for h in batch.payments[p].hops] for p in ids[1:4]} == htlc_ids
    assert _snapshot(batch) == _snapshot(loop)
    _assert_invariants(batch, set())


def test_a_long_run_resolves_its_members_in_any_order():
    # 8,000 members of one run, all but the last 100 of a scrambled order
    # fulfilled or failed, then those 100 failed too.
    n, path = 8000, ["c0", "c1"]
    ids = [f"p{k}" for k in range(n)]
    net = _line_net(2, slot_limit=n)
    assert net.hold_payments(ids, "a0", path, 5000) == (n, None)
    htlc_ids = {p: [h.htlc_id for h in net.payments[p].hops] for p in ids}
    order = random.Random(1).sample(ids, n)
    expected = dict.fromkeys(ids, PaymentStatus.PENDING)
    for step, payment_id in enumerate(order[:-100]):
        if step % 3:
            net.fulfill_payment(payment_id)
            expected[payment_id] = PaymentStatus.FULFILLED
        else:
            net.fail_payment(payment_id)
            expected[payment_id] = PaymentStatus.FAILED
    assert {p: state.status for p, state in net.payments.items()} == expected
    for j, channel in enumerate(net.channels.values()):
        left = sorted(htlc_ids[p][j] for p in order[-100:])
        assert [h.htlc_id for h in channel.htlcs()] == left
        assert channel.slots_used() == 100
    _assert_invariants(net, set())
    for payment_id in order[-100:]:
        net.fail_payment(payment_id)
    assert all(ch.runs == {} and ch.slots_used() == 0 for ch in net.channels.values())
    _assert_conserved(net)


def test_slot_counts_follow_every_change():
    net = _line_net(3)
    path = ["c0", "c1", "c2"]

    def assert_slots(expected):
        assert [ch.slots_used() for ch in net.channels.values()] == expected
        assert all(ch.slots_used() == len(ch.htlcs()) for ch in net.channels.values())

    net.send_payment("plain", "a0", path, 5000)
    assert_slots([0, 0, 0])
    net.send_payment("solo", "a0", path, 5000, hold=True)
    assert_slots([1, 1, 1])
    assert net.hold_payments(["b0", "b1", "b2", "b3"], "a0", path, 5000) == (4, None)
    assert_slots([5, 5, 5])
    net.fulfill_payment("b1")
    assert_slots([4, 4, 4])
    net.fail_payment("b0")
    assert_slots([3, 3, 3])
    # Only c2's HTLCs, 80 blocks below the held ones' locktime, have expired.
    assert net.advance_blocks(net.locktime_max - 80 + 1) == ["c2"]
    net.fail_payment("solo")
    assert_slots([2, 2, 3])
    net.fail_payment("b3")
    assert_slots([1, 1, 3])


# -- from_graph ---------------------------------------------------------------


def test_from_graph_splits_balances_and_sets_dust():
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


# -- plan replay --------------------------------------------------------------


def test_isolation_replay_funds_fee_heavy_channels():
    # V-N charges 30 % both ways: every bounce across it costs the attacker
    # far more than the dust floor it carries.
    heavy = netgen.policy_json(
        netgen.DEFAULTS_BY_NAME["lnd"],
        time_lock_delta=40, min_htlc=1000, fee_base_msat=1000, fee_rate_milli_msat=300_000,
    )
    light = netgen.policy_json(netgen.DEFAULTS_BY_NAME["lnd"], fee_rate_milli_msat=1)
    snapshot = parse_snapshot(netgen.snapshot_json(["V", "N", "X"], [
        netgen.channel_json("c1", "V", "N", 16_000_000, heavy, heavy),
        netgen.channel_json("c2", "N", "X", 16_000_000, light, light),
    ]))
    graph = build_graph(snapshot)
    labels = {n: ImplLabel.LND for n in graph.nodes}
    report = execute_plan(plan_isolation(graph, labels, victim="V"), graph, labels)
    assert report.failures == []
    assert report.ok
    assert (report.channels_locked, report.channels_targeted) == (1, 1)


def test_replay_sends_only_held_payments_and_probes(monkeypatch, small_channel_mesh):
    _, graph, labels = small_channel_mesh
    calls = []
    send, hold = SimNetwork.send_payment, SimNetwork.hold_payments

    def counting_send(self, payment_id, *args, **kwargs):
        calls.append(payment_id)
        return send(self, payment_id, *args, **kwargs)

    def counting_hold(self, payment_ids, *args):
        # Also count the payments a batch commits without a send_payment call.
        sent, error = hold(self, payment_ids, *args)
        attempted = set(calls)
        calls.extend(p for p in payment_ids[:sent] if p not in attempted)
        return sent, error

    monkeypatch.setattr(SimNetwork, "send_payment", counting_send)
    monkeypatch.setattr(SimNetwork, "hold_payments", counting_hold)
    victims = sorted(graph.nodes, key=lambda n: (-graph.degree(n), n))[:10]
    plans = [plan_network_attack(graph, labels)]
    plans += [plan_isolation(graph, labels, victim=v) for v in victims]
    for plan in plans:
        calls.clear()
        report = execute_plan(plan, graph, labels)
        stopped = sum(" payment " in failure for failure in report.failures)
        assert len(calls) == report.payments_sent + stopped + report.probes_attempted
        assert len(calls) == len(set(calls))


def test_replay_names_a_node_missing_from_the_labels(lnd_mesh):
    # The slot limits are attached already; the dust limits still need labels.
    _, graph, labels = lnd_mesh
    limited = apply_slot_limits(graph, labels)
    plan = plan_network_attack(limited, labels)
    node = plan.routes[0].hops[0].from_node
    partial = {n: label for n, label in labels.items() if n != node}
    with pytest.raises(UnlabeledNodeError) as exc:
        execute_plan(plan, limited, partial)
    assert exc.value.node_id == node


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
    # A missing field or a non-integer integer field is malformed input on
    # every verb, never a traceback or a recorded step.
    for line, message in [
        ("assert_pending c1", "assert_pending needs"),
        ("assert_open", "assert_open needs"),
        ("assert_closed", "assert_closed needs"),
        ("fail", "fail needs"),
        ("fulfill", "fulfill needs"),
        ("advance", "advance needs"),
        ("advance x", "blocks must be an integer, got 'x'"),
        ("open c2 A B x", "capacity_sat must be an integer"),
        ("open c2 A B 1000 slots=x", "slots must be an integer"),
        ("open c2 A B 1000 delta_ab=x", "delta_ab must be an integer"),
        ("pay p1 abc A c1", "amount_msat must be an integer"),
        ("pay p1 5000 A c1 final=z", "final must be an integer"),
        ("assert_fails pay p1 abc A c1", "amount_msat must be an integer"),
        # The expected reason is one of the FailureReason values.
        ("assert_fails SlotFul pay p2 5000 A c1", "unknown failure reason 'SlotFul'"),
        # An option the runner does not read, or a count out of range.
        ("open c2 A B 1000000 slot=1", "unknown open option 'slot'"),
        ("repeat -3 pay p{i} 5000 A c1", "repeat count must be at least 1, got -3"),
        ("repeat 0 pay p{i} 5000 A c1", "repeat count must be at least 1, got 0"),
        ("pay p1 5000 A c1*0,c1", r"repeat count in 'c1\*0' is outside \[1, 20\]"),
        ("pay p1 5000 A c1*-2,c1", r"repeat count in 'c1\*-2' is outside"),
        ("pay p1 5000 A c1*21", r"repeat count in 'c1\*21' is outside"),
        ("pay p1 5000 A c1*x", r"repeat count in 'c1\*x' must be an integer, got 'x'"),
        ("pay p1 5000 A c1*1000000000000000000", "is outside"),
    ]:
        with pytest.raises(ScenarioParseError, match=message) as exc:
            run_scenario(f"open c1 A B 1000000\n{line}")
        assert exc.value.line_no == 2, line
    # Semantic failures stay recorded steps.
    result = run_scenario("advance 0\nfail p9\nassert_pending c9 1")
    assert [(s.command, s.ok) for s in result.steps] == [
        ("advance", False), ("fail", False), ("assert_pending c9", False)
    ]


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
