"""Snapshot parsing, graph construction, and policy bookkeeping."""

import json

import pytest

from lnjam.topology import (
    MAINNET_DEFAULTS,
    ChannelPolicy,
    ImplLabel,
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
