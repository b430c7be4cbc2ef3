"""Snapshot parsing, graph construction, and policy bookkeeping."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lnjam.topology import (
    MAINNET_DEFAULTS,
    MAX_CLTV_DELTA,
    ChannelPolicy,
    ImplLabel,
    NetworkGraph,
    SnapshotParseError,
    UnlabeledNodeError,
    apply_slot_limits,
    build_graph,
    channel_dust_limit,
    channel_slot_limit,
    parameter_histogram,
    parse_snapshot,
    serialize_snapshot,
)

import netgen

LND = netgen.DEFAULTS_BY_NAME["lnd"]
CL = netgen.DEFAULTS_BY_NAME["clightning"]


def test_parse_well_formed_snapshot():
    snapshot = netgen.random_snapshot(12, 6, seed=1)
    assert len(snapshot.nodes) == 12
    assert len(snapshot.channels) == 16
    assert snapshot.skipped_records == 0


def test_policy_direction_follows_announcing_endpoint():
    """node1's policy governs traffic from node1 toward node2."""
    raw = netgen.snapshot_json(
        ["alpha", "beta"],
        [
            netgen.channel_json(
                "c1",
                "alpha",
                "beta",
                1_000_000,
                netgen.policy_json(LND, time_lock_delta=40),
                netgen.policy_json(LND, time_lock_delta=144),
            )
        ],
    )
    graph = build_graph(parse_snapshot(raw))
    ch = graph.channel("c1")
    assert ch.policy_from("alpha").cltv_expiry_delta == 40
    assert ch.policy_from("beta").cltv_expiry_delta == 144
    assert ch.delta_from("alpha") == 40
    assert ch.min_delta == 40


def test_malformed_records_are_skipped_not_fatal():
    good = netgen.channel_json(
        "ok", "x", "y", 500_000, netgen.policy_json(LND), netgen.policy_json(LND)
    )
    bad = [
        netgen.channel_json("selfloop", "x", "x", 500_000),
        netgen.channel_json("badcap", "x", "y", 0),
        netgen.channel_json("ghost", "x", "nobody", 500_000),
        netgen.channel_json("ok", "y", "x", 500_000),  # duplicate id
        netgen.channel_json(
            "badpolicy", "x", "y", 500_000,
            netgen.policy_json(LND, time_lock_delta=-5),
        ),
    ]
    doc = json.loads(netgen.snapshot_json(["x", "y"], [good] + bad))
    doc["nodes"].append({})  # node without pub_key
    snapshot = parse_snapshot(json.dumps(doc))
    assert [c.channel_id for c in snapshot.channels] == ["ok"]
    assert snapshot.skipped_records == 6


def _two_channel_snapshot(good_policy, bad_policy, good_capacity=500_000, bad_capacity=500_000):
    """Channel "good" announces ``good_policy`` both ways, then channel "bad"
    announces ``bad_policy`` from x."""
    good = netgen.channel_json("good", "x", "y", 500_000, good_policy, good_policy)
    bad = netgen.channel_json("bad", "x", "y", 500_000, bad_policy, netgen.policy_json(LND))
    good["capacity"], bad["capacity"] = good_capacity, bad_capacity
    return parse_snapshot(netgen.snapshot_json(["x", "y"], [good, bad]))


# Where a bad value compares and hashes equal to the good one beside it (40.0
# and 40, True and 1, 0 and False), a parser that keyed its policies on bare
# values would reuse the good policy.
@pytest.mark.parametrize("field, good, bad", [
    ("time_lock_delta", 40, 40.9),
    ("time_lock_delta", 40, 40.0),
    ("time_lock_delta", 1, True),
    ("time_lock_delta", "40", " 40"),
    ("time_lock_delta", "40", "+40"),
    ("time_lock_delta", "40", "4_0"),
    ("time_lock_delta", "40", "\u0664\u0660"),  # Arabic-Indic digits
    ("min_htlc", 2, 2.5),
    ("fee_base_msat", "1000", 1000.0),
    ("fee_rate_milli_msat", 0, False),
    ("disabled", False, "false"),
    ("disabled", False, 0),
    ("disabled", True, 1),
    ("disabled", False, None),
])
def test_malformed_policy_fields_skip_the_record(field, good, bad):
    good_policy, bad_policy = netgen.policy_json(LND), netgen.policy_json(LND)
    good_policy[field], bad_policy[field] = good, bad
    snapshot = _two_channel_snapshot(good_policy, bad_policy)
    assert [c.channel_id for c in snapshot.channels] == ["good"]
    assert snapshot.skipped_records == 1


@pytest.mark.parametrize("bad", [None, 12.0, True, "", {"a": 1}, -12])
def test_malformed_channel_id_skips_the_record(bad):
    policy = netgen.policy_json(LND)
    channels = [
        netgen.channel_json("good", "x", "y", 500_000, policy, policy),
        netgen.channel_json(bad, "x", "y", 500_000, policy, policy),
    ]
    snapshot = parse_snapshot(netgen.snapshot_json(["x", "y"], channels))
    assert [c.channel_id for c in snapshot.channels] == ["good"]
    assert snapshot.skipped_records == 1


def test_an_integer_channel_id_reads_as_its_decimal_string():
    policy = netgen.policy_json(LND)
    channels = [
        netgen.channel_json(cid, "x", "y", 500_000, policy, policy) for cid in (12, "12", 0)
    ]
    snapshot = parse_snapshot(netgen.snapshot_json(["x", "y"], channels))
    # "12" repeats the id that 12 reads as.
    assert [c.channel_id for c in snapshot.channels] == ["12", "0"]
    assert snapshot.skipped_records == 1


@pytest.mark.parametrize("bad", [None, 7, 7.0, False, ["z"]])
def test_malformed_alias_skips_the_node(bad):
    doc = json.loads(netgen.snapshot_json(["x", "y", "z"], []))
    doc["nodes"][0]["alias"] = "alpha"
    doc["nodes"][2]["alias"] = bad
    snapshot = parse_snapshot(json.dumps(doc))
    assert [(n.node_id, n.alias) for n in snapshot.nodes] == [("x", "alpha"), ("y", "")]
    assert snapshot.skipped_records == 1


@pytest.mark.parametrize("bad", [1000.7, 1000.0, True, "1e3", "-1000", None])
def test_malformed_capacity_skips_the_record(bad):
    policy = netgen.policy_json(LND)
    snapshot = _two_channel_snapshot(policy, policy, good_capacity=1000, bad_capacity=bad)
    assert [c.channel_id for c in snapshot.channels] == ["good"]
    assert snapshot.skipped_records == 1


def test_integer_fields_take_integers_and_digit_strings():
    as_ints = {"time_lock_delta": 40, "min_htlc": 1000, "fee_base_msat": 0,
               "fee_rate_milli_msat": 1}
    as_strings = {key: f"{value:04d}" for key, value in as_ints.items()}
    channels = [
        netgen.channel_json("a", "x", "y", 1000, as_ints, {**as_strings, "disabled": False}),
        netgen.channel_json("b", "x", "y", 1000, as_strings, as_ints),
    ]
    channels[1]["capacity"] = 1000
    snapshot = parse_snapshot(netgen.snapshot_json(["x", "y"], channels))
    assert snapshot.skipped_records == 0
    expected = ChannelPolicy(40, 1000, 0, 1)
    for ch in snapshot.channels:
        assert ch.capacity_sat == 1000
        assert ch.policy_a_to_b == ch.policy_b_to_a == expected


def test_equal_announcements_share_one_policy():
    lnd, cl = netgen.policy_json(LND), netgen.policy_json(CL)
    lnd_off = netgen.policy_json(LND, disabled=True)
    channels = [
        netgen.channel_json("c1", "x", "y", 500_000, lnd, cl),
        netgen.channel_json("c2", "y", "z", 500_000, dict(lnd), dict(lnd)),
        netgen.channel_json("c3", "x", "z", 500_000, dict(cl), lnd_off),
    ]
    c1, c2, c3 = parse_snapshot(netgen.snapshot_json(["x", "y", "z"], channels)).channels
    assert c1.policy_a_to_b is c2.policy_a_to_b is c2.policy_b_to_a
    assert c1.policy_b_to_a is c3.policy_a_to_b
    assert c1.policy_a_to_b is not c1.policy_b_to_a
    assert c3.policy_b_to_a.disabled and not c1.policy_a_to_b.disabled
    assert c3.policy_b_to_a is not c1.policy_a_to_b
    assert replace(c3.policy_b_to_a, disabled=False) == c1.policy_a_to_b


def test_an_invalid_policy_skips_every_record_that_carries_it():
    bad = netgen.policy_json(LND, time_lock_delta=MAX_CLTV_DELTA)
    good = netgen.policy_json(LND)
    channels = [
        netgen.channel_json("b1", "x", "y", 500_000, bad, good),
        netgen.channel_json("ok", "x", "y", 500_000, good, good),
        netgen.channel_json("b2", "y", "x", 500_000, good, dict(bad)),
    ]
    snapshot = parse_snapshot(netgen.snapshot_json(["x", "y"], channels))
    assert [c.channel_id for c in snapshot.channels] == ["ok"]
    assert snapshot.skipped_records == 2


def test_parse_rejects_non_object_payload():
    with pytest.raises(SnapshotParseError):
        parse_snapshot("[1, 2, 3]")


def test_serialize_round_trip_preserves_content():
    snapshot = netgen.random_snapshot(15, 9, seed=3, impl_names=netgen.IMPL_NAMES)
    again = parse_snapshot(serialize_snapshot(snapshot))
    assert again.node_ids == snapshot.node_ids
    assert len(again.channels) == len(snapshot.channels)
    for before, after in zip(snapshot.channels, again.channels):
        assert before.channel_id == after.channel_id
        assert before.capacity_sat == after.capacity_sat
        assert before.policy_a_to_b == after.policy_a_to_b
        assert before.policy_b_to_a == after.policy_b_to_a
    assert again == snapshot
    # One policy object per distinct announcement: here one per implementation.
    policies = [p for ch in again.channels for p in (ch.policy_a_to_b, ch.policy_b_to_a)]
    assert len({id(p) for p in policies}) == len(set(policies)) == 3


def test_timestamp_survives_round_trip():
    raw = netgen.snapshot_json(["x", "y"], [], timestamp="2020-09-21")
    snapshot = parse_snapshot(raw)
    assert snapshot.timestamp is not None
    assert snapshot.timestamp.isoformat() == "2020-09-21"
    assert parse_snapshot(serialize_snapshot(snapshot)).timestamp == snapshot.timestamp


def test_build_graph_drops_disabled_and_unannounced_channels():
    channels = [
        netgen.channel_json(
            "live", "x", "y", 500_000, netgen.policy_json(LND), netgen.policy_json(LND)
        ),
        netgen.channel_json("halfmute", "x", "y", 500_000, netgen.policy_json(LND), None),
        netgen.channel_json(
            "off", "x", "y", 500_000,
            netgen.policy_json(LND, disabled=True), netgen.policy_json(LND),
        ),
    ]
    graph = build_graph(parse_snapshot(netgen.snapshot_json(["x", "y"], channels)))
    assert graph.channel_ids == ("live",)
    assert graph.dropped_missing_policy == 1
    assert graph.dropped_disabled == 1


def test_build_graph_keeps_the_snapshot_records():
    lnd, off = netgen.policy_json(LND), netgen.policy_json(LND, disabled=True)
    channels = [
        netgen.channel_json("c3", "x", "y", 700_000, lnd, lnd),
        netgen.channel_json("c1", "y", "z", 500_000, lnd, None),
        netgen.channel_json("c4", "x", "z", 600_000, off, lnd),
        netgen.channel_json("c2", "z", "x", 800_000, lnd, lnd),
        netgen.channel_json("c5", "y", "x", 900_000, None, None),
        netgen.channel_json("c0", "y", "z", 400_000, lnd, off),
    ]
    snapshot = parse_snapshot(netgen.snapshot_json(["x", "y", "z"], channels))
    records = {ch.channel_id: ch for ch in snapshot.channels}
    graph = build_graph(snapshot)
    assert graph.channel_ids == ("c2", "c3")
    for ch in graph.channels():
        assert ch is records[ch.channel_id]
        assert ch.slot_limit is None
    assert graph.dropped_missing_policy == 2
    assert graph.dropped_disabled == 2


def test_graph_accessors_and_subgraph():
    snapshot = netgen.random_snapshot(10, 5, seed=5)
    graph = build_graph(snapshot)
    assert graph.node_count == 10
    assert sum(graph.degree(n) for n in graph.nodes) == 2 * len(graph)
    total = sum(ch.capacity_sat for ch in graph.channels())
    assert graph.total_capacity_sat == total
    keep = graph.channel_ids[:4]
    sub = graph.subgraph(keep)
    assert sub.channel_ids == tuple(sorted(keep))
    assert len(graph.without_channels(keep)) == len(graph) - 4


def test_slot_limits_need_both_endpoints_lnd():
    raw = netgen.snapshot_json(
        ["l1", "l2", "c1"],
        [
            netgen.channel_json(
                "big", "l1", "l2", 500_000, netgen.policy_json(LND), netgen.policy_json(LND)
            ),
            netgen.channel_json(
                "small", "l1", "c1", 500_000, netgen.policy_json(LND), netgen.policy_json(CL)
            ),
        ],
    )
    graph = build_graph(parse_snapshot(raw))
    labels = {"l1": ImplLabel.LND, "l2": ImplLabel.LND, "c1": ImplLabel.CLIGHTNING}
    limited = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    assert limited.channel("big").slot_limit == 483
    assert limited.channel("small").slot_limit == 30
    with pytest.raises(UnlabeledNodeError):
        apply_slot_limits(graph, {"l1": ImplLabel.LND}, MAINNET_DEFAULTS)


def _first_limit_error(graph, labels, table):
    """The error a channel-order walk over the channels without a limit
    meets first: an unlabeled endpoint, a before b, then a label missing from
    the table, a's before b's."""
    for ch in graph.channels():
        if ch.slot_limit is None:
            ends = (ch.endpoint_a, ch.endpoint_b)
            for node in ends:
                if node not in labels:
                    return UnlabeledNodeError(node)
            for node in ends:
                if labels[node] not in table:
                    return KeyError(labels[node])
    return None


@given(
    seed=st.integers(0, 10_000),
    n_nodes=st.integers(4, 30),
    extra=st.integers(0, 40),
    label_seed=st.integers(0, 10_000),
    limits=st.permutations([483, 30, 7]),
    preset=st.sets(st.integers(0, 70), max_size=4),
    fault=st.sampled_from(["none", "unlabeled", "missing_from_table"]),
    unlabeled=st.sets(st.integers(0, 29), min_size=1, max_size=12),
    missing=st.sets(st.sampled_from(list(ImplLabel)), min_size=1, max_size=2),
)
def test_slot_limits_are_the_per_channel_rule(
    seed, n_nodes, extra, label_seed, limits, preset, fault, unlabeled, missing
):
    source = build_graph(netgen.random_snapshot(n_nodes, extra, seed))
    graph = NetworkGraph(
        replace(ch, slot_limit=100 + i) if i in preset else ch
        for i, ch in enumerate(source.channels())
    )
    rng = random.Random(label_seed)
    labels = {node: rng.choice(list(ImplLabel)) for node in graph.nodes}
    table = {
        label: replace(MAINNET_DEFAULTS[label], max_concurrent_htlcs=limit)
        for label, limit in zip(MAINNET_DEFAULTS, limits)
    }
    if fault == "unlabeled":
        for k in unlabeled:
            labels.pop(graph.nodes[k % len(graph.nodes)], None)
    elif fault == "missing_from_table":
        for label in missing:
            del table[label]

    expected_error = _first_limit_error(graph, labels, table)
    if expected_error is not None:
        with pytest.raises(type(expected_error)) as exc:
            apply_slot_limits(graph, labels, table)
        assert exc.type is type(expected_error)
        assert exc.value.args == expected_error.args
        assert getattr(exc.value, "node_id", None) == getattr(expected_error, "node_id", None)
        return

    limited = apply_slot_limits(graph, labels, table)
    # Every channel now carries a limit, so nothing is looked up.
    assert apply_slot_limits(limited, {}, {}) is limited
    assert limited.channel_ids == graph.channel_ids
    for ch in graph.channels():
        got = limited.channel(ch.channel_id)
        assert got.slot_limit == channel_slot_limit(ch, labels, table)
        if ch.slot_limit is not None:
            assert got.slot_limit == ch.slot_limit
        assert replace(got, slot_limit=ch.slot_limit) == ch
    assert limited.nodes == graph.nodes
    for node in graph.nodes:
        assert limited.channels_of(node) == graph.channels_of(node)
        assert limited.degree(node) == graph.degree(node)
    assert (limited.dropped_disabled, limited.dropped_missing_policy) == (
        graph.dropped_disabled, graph.dropped_missing_policy
    )


def test_channel_rules_read_both_endpoints_through_the_table():
    lnd, cl = netgen.policy_json(LND), netgen.policy_json(CL)
    channel = netgen.channel_json("x", "l1", "c1", 500_000, lnd, cl)
    ch = build_graph(parse_snapshot(netgen.snapshot_json(["l1", "c1"], [channel]))).channel("x")
    labels = {"l1": ImplLabel.LND, "c1": ImplLabel.CLIGHTNING}
    assert channel_dust_limit(ch, labels) == 573
    assert channel_slot_limit(ch, labels) == 30
    lnd_only = {ImplLabel.LND: MAINNET_DEFAULTS[ImplLabel.LND]}
    for rule in (channel_dust_limit, channel_slot_limit):
        with pytest.raises(UnlabeledNodeError) as exc:
            rule(ch, {"l1": ImplLabel.LND})
        assert exc.value.node_id == "c1"
        with pytest.raises(KeyError) as exc:
            rule(ch, labels, lnd_only)
        assert exc.type is KeyError and exc.value.args == (ImplLabel.CLIGHTNING,)
        # Both ends missing: endpoint a is named first.
        with pytest.raises(UnlabeledNodeError) as exc:
            rule(ch, {})
        assert exc.value.node_id == "l1"
        with pytest.raises(KeyError) as exc:
            rule(ch, labels, {})
        assert exc.type is KeyError and exc.value.args == (ImplLabel.LND,)


def test_histogram_folds_rare_values_into_other():
    lnd_policy = netgen.policy_json(LND)
    channels = [
        netgen.channel_json(f"c{i:02d}", "x", "y", 500_000, lnd_policy, lnd_policy)
        for i in range(16)
    ]
    channels.append(
        netgen.channel_json(
            "odd", "x", "y", 500_000,
            netgen.policy_json(LND), netgen.policy_json(LND, time_lock_delta=7),
        )
    )
    snapshot = parse_snapshot(netgen.snapshot_json(["x", "y"], channels))
    histogram = parameter_histogram(snapshot, "cltv_expiry_delta")
    assert histogram[0] == (40, pytest.approx(33 / 34))
    assert histogram[-1] == ("other", pytest.approx(1 / 34))
    assert sum(share for _, share in histogram) == pytest.approx(1.0)


def test_histogram_rejects_unknown_parameter():
    snapshot = netgen.random_snapshot(4, 1, seed=2)
    with pytest.raises(ValueError):
        parameter_histogram(snapshot, "no_such_field")


def test_policy_validation():
    with pytest.raises(ValueError):
        ChannelPolicy(
            cltv_expiry_delta=-1,
            htlc_minimum_msat=0,
            fee_base_msat=0,
            fee_proportional_millionths=0,
        )
    with pytest.raises(ValueError):
        ChannelPolicy(
            cltv_expiry_delta=500_000_001,
            htlc_minimum_msat=0,
            fee_base_msat=0,
            fee_proportional_millionths=0,
        )
