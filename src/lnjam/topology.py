"""Channel-graph ingestion for Lightning-style payment networks.

Parses ``describegraph``-shaped JSON snapshots into typed records, builds an
undirected multigraph of usable channels (both directions disclosed, neither
disabled), and attaches per-channel HTLC slot limits derived from the
implementations the two endpoints are believed to run.

Monetary fields follow the snapshot conventions: channel capacity in satoshi,
policy amounts in millisatoshi.
"""

from __future__ import annotations

import datetime
import json
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Iterator, Mapping

logger = logging.getLogger(__name__)

MSAT_PER_SAT = 1000

# BOLT 7 caps cltv_expiry_delta well below this; anything larger is garbage data.
MAX_CLTV_DELTA = 5 * 10**8

# Ceiling on a payment's total locktime, blocks (two weeks).
LOCKTIME_MAX = 2016

# Share of a channel's capacity assumed on its endpoint_a side. Snapshots
# don't reveal balances, so replay splits every channel evenly.
BALANCE_SPLIT = 0.5

# Policy fields a histogram can be computed over.
HISTOGRAM_PARAMETERS = (
    "cltv_expiry_delta",
    "htlc_minimum_msat",
    "fee_base_msat",
    "fee_proportional_millionths",
)

# Values rarer than this share of the population get folded into "other".
HISTOGRAM_TAIL_SHARE = 0.03


class SnapshotParseError(Exception):
    """Raised when snapshot JSON is structurally unusable."""


class UnlabeledNodeError(Exception):
    """Raised when a slot-limit pass meets a node with no implementation label."""

    def __init__(self, node_id: str):
        super().__init__(f"no implementation label for node {node_id}")
        self.node_id = node_id


class ImplLabel(Enum):
    """Implementations distinguished by their shipped defaults."""

    LND = "lnd"
    CLIGHTNING = "clightning"
    ECLAIR = "eclair"


@dataclass(frozen=True)
class ImplDefaults:
    """Default parameter set shipped by one implementation."""

    cltv_expiry_delta: int
    min_final_cltv_expiry: int
    locktime_max: int
    max_concurrent_htlcs: int
    dust_limit_sat: int
    htlc_minimum_msat: int
    fee_base_msat: int
    fee_proportional_millionths: int


@dataclass(frozen=True)
class DefaultsTable:
    """Per-implementation defaults, keyed by :class:`ImplLabel`."""

    lnd: ImplDefaults
    clightning: ImplDefaults
    eclair: ImplDefaults

    def for_label(self, label: ImplLabel) -> ImplDefaults:
        if label is ImplLabel.LND:
            return self.lnd
        if label is ImplLabel.CLIGHTNING:
            return self.clightning
        if label is ImplLabel.ECLAIR:
            return self.eclair
        raise KeyError(label)

    def items(self) -> Iterator[tuple[ImplLabel, ImplDefaults]]:
        yield ImplLabel.LND, self.lnd
        yield ImplLabel.CLIGHTNING, self.clightning
        yield ImplLabel.ECLAIR, self.eclair


#: Defaults shipped by the three mainnet implementations (release lines current
#: at the 2020-09-21 reference snapshot).
MAINNET_DEFAULTS = DefaultsTable(
    lnd=ImplDefaults(
        cltv_expiry_delta=40,
        min_final_cltv_expiry=40,
        locktime_max=2016,
        max_concurrent_htlcs=483,
        dust_limit_sat=573,
        htlc_minimum_msat=1000,
        fee_base_msat=1000,
        fee_proportional_millionths=1,
    ),
    clightning=ImplDefaults(
        cltv_expiry_delta=14,
        min_final_cltv_expiry=10,
        locktime_max=2016,
        max_concurrent_htlcs=30,
        dust_limit_sat=546,
        htlc_minimum_msat=1000,
        fee_base_msat=1000,
        fee_proportional_millionths=10,
    ),
    eclair=ImplDefaults(
        cltv_expiry_delta=144,
        min_final_cltv_expiry=9,
        locktime_max=2016,
        max_concurrent_htlcs=30,
        dust_limit_sat=546,
        htlc_minimum_msat=1,
        fee_base_msat=1000,
        fee_proportional_millionths=100,
    ),
)


@dataclass(frozen=True)
class ChannelPolicy:
    """One direction's announced forwarding policy.

    Attributes:
        cltv_expiry_delta: blocks the announcing node subtracts when forwarding.
        htlc_minimum_msat: smallest HTLC the direction accepts.
        fee_base_msat: flat forwarding fee.
        fee_proportional_millionths: proportional fee per million msat.
        disabled: direction advertised as unusable.
    """

    cltv_expiry_delta: int
    htlc_minimum_msat: int
    fee_base_msat: int
    fee_proportional_millionths: int
    disabled: bool = False

    def __post_init__(self):
        for field in (
            "cltv_expiry_delta",
            "htlc_minimum_msat",
            "fee_base_msat",
            "fee_proportional_millionths",
        ):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{field} must be a non-negative integer, got {value!r}")
        if self.cltv_expiry_delta >= MAX_CLTV_DELTA:
            raise ValueError(f"cltv_expiry_delta {self.cltv_expiry_delta} out of range")

    def fee_msat(self, amount_msat: int) -> int:
        """Fee for forwarding ``amount_msat``; the proportional part rounds up."""
        proportional = -(-amount_msat * self.fee_proportional_millionths // 1_000_000)
        return self.fee_base_msat + proportional


@dataclass(frozen=True)
class NodeRecord:
    node_id: str
    alias: str = ""


@dataclass(frozen=True)
class ChannelRecord:
    """A channel as announced, before usability filtering.

    ``policy_a_to_b`` is the policy announced by ``endpoint_a`` and governs
    traversals from a to b; likewise for ``policy_b_to_a``. Either may be
    None when the snapshot has no announcement for that direction.
    """

    channel_id: str
    endpoint_a: str
    endpoint_b: str
    capacity_sat: int
    policy_a_to_b: ChannelPolicy | None = None
    policy_b_to_a: ChannelPolicy | None = None


@dataclass(frozen=True)
class Snapshot:
    """A parsed snapshot: nodes, announced channels, parse bookkeeping."""

    nodes: tuple[NodeRecord, ...]
    channels: tuple[ChannelRecord, ...]
    timestamp: datetime.date | None = None
    skipped_records: int = 0

    def __post_init__(self):
        node_ids = {n.node_id for n in self.nodes}
        if len(node_ids) != len(self.nodes):
            raise ValueError("duplicate node ids in snapshot")
        seen: set[str] = set()
        for ch in self.channels:
            if ch.channel_id in seen:
                raise ValueError(f"duplicate channel id {ch.channel_id}")
            seen.add(ch.channel_id)
            for end in (ch.endpoint_a, ch.endpoint_b):
                if end not in node_ids:
                    raise ValueError(f"channel {ch.channel_id} references unknown node {end}")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.node_id for n in self.nodes)


@dataclass(frozen=True)
class GraphChannel:
    """A usable channel inside a :class:`NetworkGraph` (both policies known)."""

    channel_id: str
    endpoint_a: str
    endpoint_b: str
    capacity_sat: int
    policy_a_to_b: ChannelPolicy
    policy_b_to_a: ChannelPolicy
    slot_limit: int | None = None

    def other_endpoint(self, node_id: str) -> str:
        if node_id == self.endpoint_a:
            return self.endpoint_b
        if node_id == self.endpoint_b:
            return self.endpoint_a
        raise KeyError(f"{node_id} is not an endpoint of {self.channel_id}")

    def policy_from(self, node_id: str) -> ChannelPolicy:
        """Policy governing a traversal leaving ``node_id`` over this channel."""
        if node_id == self.endpoint_a:
            return self.policy_a_to_b
        if node_id == self.endpoint_b:
            return self.policy_b_to_a
        raise KeyError(f"{node_id} is not an endpoint of {self.channel_id}")

    def delta_from(self, node_id: str) -> int:
        return self.policy_from(node_id).cltv_expiry_delta

    @property
    def min_delta(self) -> int:
        return min(self.policy_a_to_b.cltv_expiry_delta, self.policy_b_to_a.cltv_expiry_delta)


class NetworkGraph:
    """Undirected multigraph of usable channels.

    Immutable after construction; derived graphs (subgraphs, slot-limit
    variants) are new instances. Node set is exactly the set of channel
    endpoints, so isolated nodes vanish here.
    """

    def __init__(
        self,
        channels: Iterable[GraphChannel],
        dropped_disabled: int = 0,
        dropped_missing_policy: int = 0,
    ):
        self._channels: dict[str, GraphChannel] = {}
        adjacency: dict[str, list[str]] = defaultdict(list)
        for ch in sorted(channels, key=lambda c: c.channel_id):
            if ch.channel_id in self._channels:
                raise ValueError(f"duplicate channel id {ch.channel_id}")
            self._channels[ch.channel_id] = ch
            adjacency[ch.endpoint_a].append(ch.channel_id)
            adjacency[ch.endpoint_b].append(ch.channel_id)
        self._adjacency: dict[str, tuple[str, ...]] = {
            node: tuple(cids) for node, cids in adjacency.items()
        }
        self.dropped_disabled = dropped_disabled
        self.dropped_missing_policy = dropped_missing_policy

    def __len__(self) -> int:
        return len(self._channels)

    def __contains__(self, channel_id: str) -> bool:
        return channel_id in self._channels

    @property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(self._channels)

    def channels(self) -> Iterator[GraphChannel]:
        return iter(self._channels.values())

    def channel(self, channel_id: str) -> GraphChannel:
        return self._channels[channel_id]

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._adjacency))

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    def degree(self, node_id: str) -> int:
        return len(self._adjacency.get(node_id, ()))

    def channels_of(self, node_id: str) -> tuple[str, ...]:
        return self._adjacency.get(node_id, ())

    @property
    def total_capacity_sat(self) -> int:
        return sum(ch.capacity_sat for ch in self._channels.values())

    def subgraph(self, channel_ids: Iterable[str]) -> "NetworkGraph":
        return NetworkGraph(self._channels[cid] for cid in set(channel_ids))

    def without_channels(self, channel_ids: Iterable[str]) -> "NetworkGraph":
        gone = set(channel_ids)
        return NetworkGraph(ch for cid, ch in self._channels.items() if cid not in gone)


def _parse_policy(raw, channel_id: str) -> ChannelPolicy | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError(f"policy of {channel_id} is not an object")
    return ChannelPolicy(
        cltv_expiry_delta=int(raw["time_lock_delta"]),
        htlc_minimum_msat=int(raw["min_htlc"]),
        fee_base_msat=int(raw["fee_base_msat"]),
        fee_proportional_millionths=int(raw["fee_rate_milli_msat"]),
        disabled=bool(raw.get("disabled", False)),
    )


def parse_snapshot(raw: str | bytes | IO) -> Snapshot:
    """Parse a ``describegraph``-style JSON snapshot.

    Records with malformed or missing required fields are skipped and counted
    in ``Snapshot.skipped_records``; unknown fields are ignored. Structural
    problems (not JSON, missing top-level arrays) raise
    :class:`SnapshotParseError`.
    """
    if hasattr(raw, "read"):
        raw = raw.read()
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotParseError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotParseError("snapshot top level must be a JSON object")
    raw_nodes = doc.get("nodes", [])
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise SnapshotParseError("'nodes' and 'edges' must be arrays")

    skipped = 0
    nodes: list[NodeRecord] = []
    seen_nodes: set[str] = set()
    for entry in raw_nodes:
        try:
            node_id = entry["pub_key"]
            if not isinstance(node_id, str) or not node_id or node_id in seen_nodes:
                raise ValueError
            nodes.append(NodeRecord(node_id=node_id, alias=str(entry.get("alias", ""))))
            seen_nodes.add(node_id)
        except (TypeError, KeyError, ValueError):
            skipped += 1

    channels: list[ChannelRecord] = []
    seen_channels: set[str] = set()
    for entry in raw_edges:
        try:
            channel_id = str(entry["channel_id"])
            node1 = entry["node1_pub"]
            node2 = entry["node2_pub"]
            capacity = int(entry["capacity"])
            if channel_id in seen_channels or node1 == node2 or capacity <= 0:
                raise ValueError
            if node1 not in seen_nodes or node2 not in seen_nodes:
                raise ValueError
            channels.append(
                ChannelRecord(
                    channel_id=channel_id,
                    endpoint_a=node1,
                    endpoint_b=node2,
                    capacity_sat=capacity,
                    policy_a_to_b=_parse_policy(entry.get("node1_policy"), channel_id),
                    policy_b_to_a=_parse_policy(entry.get("node2_policy"), channel_id),
                )
            )
            seen_channels.add(channel_id)
        except (TypeError, KeyError, ValueError):
            skipped += 1

    timestamp = None
    if isinstance(doc.get("timestamp"), str):
        try:
            timestamp = datetime.date.fromisoformat(doc["timestamp"])
        except ValueError:
            skipped += 1

    if skipped:
        logger.info("skipped %d malformed snapshot records", skipped)
    return Snapshot(
        nodes=tuple(nodes),
        channels=tuple(channels),
        timestamp=timestamp,
        skipped_records=skipped,
    )


def _policy_to_json(policy: ChannelPolicy | None):
    if policy is None:
        return None
    return {
        "time_lock_delta": policy.cltv_expiry_delta,
        "min_htlc": str(policy.htlc_minimum_msat),
        "fee_base_msat": str(policy.fee_base_msat),
        "fee_rate_milli_msat": str(policy.fee_proportional_millionths),
        "disabled": policy.disabled,
    }


def serialize_snapshot(snapshot: Snapshot) -> str:
    """Serialize back to the input JSON shape. Round-trips through parse."""
    doc = {
        "nodes": [{"pub_key": n.node_id, "alias": n.alias} for n in snapshot.nodes],
        "edges": [
            {
                "channel_id": ch.channel_id,
                "node1_pub": ch.endpoint_a,
                "node2_pub": ch.endpoint_b,
                "capacity": str(ch.capacity_sat),
                "node1_policy": _policy_to_json(ch.policy_a_to_b),
                "node2_policy": _policy_to_json(ch.policy_b_to_a),
            }
            for ch in snapshot.channels
        ],
    }
    if snapshot.timestamp is not None:
        doc["timestamp"] = snapshot.timestamp.isoformat()
    return json.dumps(doc, indent=1)


def build_graph(snapshot: Snapshot) -> NetworkGraph:
    """Build the usable-channel graph.

    Excludes channels with either direction undisclosed (null policy) or
    either direction disabled; the counts of both exclusions are kept on the
    returned graph for reporting.
    """
    usable: list[GraphChannel] = []
    dropped_disabled = 0
    dropped_missing = 0
    for ch in snapshot.channels:
        if ch.policy_a_to_b is None or ch.policy_b_to_a is None:
            dropped_missing += 1
            continue
        if ch.policy_a_to_b.disabled or ch.policy_b_to_a.disabled:
            dropped_disabled += 1
            continue
        usable.append(
            GraphChannel(
                channel_id=ch.channel_id,
                endpoint_a=ch.endpoint_a,
                endpoint_b=ch.endpoint_b,
                capacity_sat=ch.capacity_sat,
                policy_a_to_b=ch.policy_a_to_b,
                policy_b_to_a=ch.policy_b_to_a,
            )
        )
    graph = NetworkGraph(
        usable, dropped_disabled=dropped_disabled, dropped_missing_policy=dropped_missing
    )
    logger.info(
        "graph: %d channels kept, %d disabled, %d missing a policy",
        len(graph),
        dropped_disabled,
        dropped_missing,
    )
    return graph


def channel_slot_limit(
    channel: GraphChannel,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> int:
    """HTLC slot limit of one channel.

    The limit already attached to the channel, if any. Otherwise the smaller
    of the two endpoints' default max_concurrent_htlcs: whichever side
    tolerates fewer pending HTLCs caps the channel. Raises
    :class:`UnlabeledNodeError` for an endpoint absent from ``labels``.
    """
    if channel.slot_limit is not None:
        return channel.slot_limit
    try:
        label_a, label_b = labels[channel.endpoint_a], labels[channel.endpoint_b]
    except KeyError as exc:
        raise UnlabeledNodeError(exc.args[0]) from None
    return min(
        defaults.for_label(label_a).max_concurrent_htlcs,
        defaults.for_label(label_b).max_concurrent_htlcs,
    )


def apply_slot_limits(
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> NetworkGraph:
    """Attach :func:`channel_slot_limit` to every channel.

    Channels that already carry a limit keep it: to limit a graph under
    another defaults table, start again from :func:`build_graph` output.
    A graph whose channels all carry one is returned as it is.
    """
    if all(ch.slot_limit is not None for ch in graph.channels()):
        return graph
    return NetworkGraph(
        (
            replace(ch, slot_limit=channel_slot_limit(ch, labels, defaults))
            for ch in graph.channels()
        ),
        dropped_disabled=graph.dropped_disabled,
        dropped_missing_policy=graph.dropped_missing_policy,
    )


def parameter_histogram(
    snapshot: Snapshot, parameter: str
) -> list[tuple[int | str, float]]:
    """Histogram of one policy parameter over directed channel policies.

    The population is both directions of every channel that
    :func:`build_graph` would keep. Values whose share falls below
    ``HISTOGRAM_TAIL_SHARE`` are folded into a final ``("other", share)``
    bucket. Shares sum to 1.

    Returns:
        List of (value, share) sorted by share descending (ties by value),
        with the "other" bucket, if any, last.
    """
    if parameter not in HISTOGRAM_PARAMETERS:
        raise ValueError(f"unknown parameter {parameter!r}; expected one of {HISTOGRAM_PARAMETERS}")
    counts: Counter[int] = Counter()
    for ch in build_graph(snapshot).channels():
        counts[getattr(ch.policy_a_to_b, parameter)] += 1
        counts[getattr(ch.policy_b_to_a, parameter)] += 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("snapshot has no usable channel policies")
    head = []
    tail = 0
    for value, count in counts.items():
        share = count / total
        if share < HISTOGRAM_TAIL_SHARE:
            tail += count
        else:
            head.append((value, share))
    head.sort(key=lambda item: (-item[1], item[0]))
    result: list[tuple[int | str, float]] = head
    if tail:
        result.append(("other", tail / total))
    return result
