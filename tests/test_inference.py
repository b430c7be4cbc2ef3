"""Implementation tagging from announced channel policies."""

import pytest

from lnjam.inference import (
    CLTV_DELTA_WEIGHT,
    FEE_RATE_WEIGHT,
    HTLC_MINIMUM_WEIGHT,
    announced_policies,
    score_node,
    split_by_slot_class,
    tag_nodes,
)
from lnjam.topology import (
    MAINNET_DEFAULTS,
    ChannelPolicy,
    ImplLabel,
    apply_slot_limits,
    build_graph,
    parse_snapshot,
)

import netgen


def _default_policy(label: ImplLabel) -> ChannelPolicy:
    d = MAINNET_DEFAULTS.for_label(label)
    return ChannelPolicy(
        cltv_expiry_delta=d.cltv_expiry_delta,
        htlc_minimum_msat=d.htlc_minimum_msat,
        fee_base_msat=d.fee_base_msat,
        fee_proportional_millionths=d.fee_proportional_millionths,
    )


@pytest.mark.parametrize("label", list(ImplLabel))
def test_all_default_policies_score_one_for_own_implementation(label):
    scores = score_node([_default_policy(label)] * 3)
    assert scores[label] == pytest.approx(1.0)
    for other, value in scores.items():
        if other is not label:
            assert value < 1.0


def test_score_weights_split_by_parameter():
    """A policy matching only LND's delta earns exactly the delta weight."""
    policy = ChannelPolicy(
        cltv_expiry_delta=40, htlc_minimum_msat=7, fee_base_msat=0,
        fee_proportional_millionths=99,
    )
    scores = score_node([policy])
    assert scores[ImplLabel.LND] == pytest.approx(0.75)
    assert scores[ImplLabel.ECLAIR] == pytest.approx(0.0)


def test_score_is_mean_over_policies():
    lnd = _default_policy(ImplLabel.LND)
    eclair = _default_policy(ImplLabel.ECLAIR)
    scores = score_node([lnd, eclair])
    assert scores[ImplLabel.LND] == pytest.approx(0.5)
    assert scores[ImplLabel.ECLAIR] == pytest.approx(0.5)


def test_no_policies_scores_zero_and_tags_most_common_impl():
    assert set(score_node([]).values()) == {0.0}
    snapshot = parse_snapshot(netgen.snapshot_json(["loner"], []))
    assert tag_nodes(snapshot) == {"loner": ImplLabel.LND}


def test_tie_break_order_is_lnd_then_clightning_then_eclair():
    # Equal LND/Eclair evidence resolves to LND.
    snapshot = parse_snapshot(
        netgen.snapshot_json(
            ["n1", "n2", "n3"],
            [
                netgen.channel_json(
                    "c1", "n1", "n2", 500_000,
                    netgen.policy_json(netgen.DEFAULTS_BY_NAME["lnd"]),
                    netgen.policy_json(netgen.DEFAULTS_BY_NAME["lnd"]),
                ),
                netgen.channel_json(
                    "c2", "n1", "n3", 500_000,
                    netgen.policy_json(netgen.DEFAULTS_BY_NAME["eclair"]),
                    netgen.policy_json(netgen.DEFAULTS_BY_NAME["eclair"]),
                ),
            ],
        )
    )
    assert tag_nodes(snapshot)["n1"] is ImplLabel.LND


def test_disabled_directions_still_count_as_evidence():
    snapshot = parse_snapshot(
        netgen.snapshot_json(
            ["n1", "n2"],
            [
                netgen.channel_json(
                    "c1", "n1", "n2", 500_000,
                    netgen.policy_json(netgen.DEFAULTS_BY_NAME["eclair"], disabled=True),
                    netgen.policy_json(netgen.DEFAULTS_BY_NAME["lnd"]),
                )
            ],
        )
    )
    policies = announced_policies(snapshot)
    assert len(policies["n1"]) == 1
    assert tag_nodes(snapshot)["n1"] is ImplLabel.ECLAIR


def test_synthetic_mix_is_tagged_exactly(mixed_mesh):
    snapshot, _, labels = mixed_mesh
    policies = announced_policies(snapshot)
    for node, label in labels.items():
        if policies[node]:
            assert score_node(policies[node])[label] == pytest.approx(1.0)


def test_weights_must_sum_to_one():
    assert CLTV_DELTA_WEIGHT == pytest.approx(0.75)
    assert CLTV_DELTA_WEIGHT + HTLC_MINIMUM_WEIGHT + FEE_RATE_WEIGHT == pytest.approx(1.0)


def test_split_by_slot_class(mixed_mesh):
    snapshot, graph, labels = mixed_mesh
    graph = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    big, small = split_by_slot_class(graph)
    assert len(big) + len(small) == len(graph)
    for ch in big.channels():
        assert labels[ch.endpoint_a] is ImplLabel.LND
        assert labels[ch.endpoint_b] is ImplLabel.LND
    for ch in small.channels():
        assert not (
            labels[ch.endpoint_a] is ImplLabel.LND
            and labels[ch.endpoint_b] is ImplLabel.LND
        )
