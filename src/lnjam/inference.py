"""Guessing which implementation a node runs from its announced policies.

Nodes rarely change shipped defaults, so matching a node's announced
cltv_expiry_delta, htlc_minimum_msat and fee_proportional_millionths against
each implementation's defaults separates the population well. The weights
reflect how discriminative each parameter is (delta values barely overlap
between implementations; fee rates overlap more).
"""

from __future__ import annotations

import logging
from collections import defaultdict
from typing import Iterable

from .topology import (
    MAINNET_DEFAULTS,
    ChannelPolicy,
    DefaultsTable,
    ImplLabel,
    NetworkGraph,
    Snapshot,
)

logger = logging.getLogger(__name__)

# Tie-breaks favour the most common implementation first.
_LABEL_PRIORITY = (ImplLabel.LND, ImplLabel.CLIGHTNING, ImplLabel.ECLAIR)


# Per-parameter match weights; they sum to 1.
CLTV_DELTA_WEIGHT = 0.75
HTLC_MINIMUM_WEIGHT = 0.2
FEE_RATE_WEIGHT = 0.05


def score_node(
    policies: Iterable[ChannelPolicy],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> dict[ImplLabel, float]:
    """Score one node's announced policies against each implementation.

    Each policy contributes the weight of every parameter that equals the
    implementation's default; the score is the mean contribution over all
    policies. No policies at all yields 0 for every label.
    """
    policies = list(policies)
    scores: dict[ImplLabel, float] = {}
    for label, d in defaults.items():
        if not policies:
            scores[label] = 0.0
            continue
        total = 0.0
        for p in policies:
            if p.cltv_expiry_delta == d.cltv_expiry_delta:
                total += CLTV_DELTA_WEIGHT
            if p.htlc_minimum_msat == d.htlc_minimum_msat:
                total += HTLC_MINIMUM_WEIGHT
            if p.fee_proportional_millionths == d.fee_proportional_millionths:
                total += FEE_RATE_WEIGHT
        scores[label] = total / len(policies)
    return scores


def announced_policies(snapshot: Snapshot) -> dict[str, list[ChannelPolicy]]:
    """Collect every policy each node announces, keyed by node id.

    Disabled directions still count: a disabled channel discloses its
    configuration all the same. Nodes with no disclosed policy map to [].
    """
    by_node: dict[str, list[ChannelPolicy]] = {n: [] for n in snapshot.node_ids}
    for ch in snapshot.channels:
        if ch.policy_a_to_b is not None:
            by_node[ch.endpoint_a].append(ch.policy_a_to_b)
        if ch.policy_b_to_a is not None:
            by_node[ch.endpoint_b].append(ch.policy_b_to_a)
    return by_node


def tag_nodes(
    snapshot: Snapshot,
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> dict[str, ImplLabel]:
    """Assign every node the implementation with the highest score.

    Ties (including the no-policies case, where all scores are 0) go to the
    most widespread implementation: LND, then C-Lightning, then Eclair.
    """
    labels: dict[str, ImplLabel] = {}
    for node_id, policies in announced_policies(snapshot).items():
        scores = score_node(policies, defaults)
        best = _LABEL_PRIORITY[0]
        for label in _LABEL_PRIORITY[1:]:
            if scores[label] > scores[best]:
                best = label
        labels[node_id] = best
    counts = {label: 0 for label in _LABEL_PRIORITY}
    for label in labels.values():
        counts[label] += 1
    logger.info(
        "tagged %d nodes: %s",
        len(labels),
        ", ".join(f"{label.value}={n}" for label, n in counts.items()),
    )
    return labels


def split_by_slot_class(graph: NetworkGraph) -> list[NetworkGraph]:
    """Split channels by their attached ``slot_limit``, largest class first.

    Each returned subgraph holds every channel of one slot limit, so a
    route planned inside it needs a single payment count; together they
    partition the input graph.
    """
    classes: dict[int, list[str]] = defaultdict(list)
    for ch in graph.channels():
        classes[ch.slot_limit].append(ch.channel_id)
    return [graph.subgraph(classes[limit]) for limit in sorted(classes, reverse=True)]
