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
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
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


#: Per-implementation defaults. Order matters: tagging ties go to the label
#: listed first.
DefaultsTable = Mapping[ImplLabel, ImplDefaults]


#: Defaults shipped by the three mainnet implementations (release lines current
#: at the 2020-09-21 reference snapshot).
MAINNET_DEFAULTS: DefaultsTable = MappingProxyType({
    ImplLabel.LND: ImplDefaults(
        cltv_expiry_delta=40,
        min_final_cltv_expiry=40,
        locktime_max=2016,
        max_concurrent_htlcs=483,
        dust_limit_sat=573,
        htlc_minimum_msat=1000,
        fee_base_msat=1000,
        fee_proportional_millionths=1,
    ),
    ImplLabel.CLIGHTNING: ImplDefaults(
        cltv_expiry_delta=14,
        min_final_cltv_expiry=10,
        locktime_max=2016,
        max_concurrent_htlcs=30,
        dust_limit_sat=546,
        htlc_minimum_msat=1000,
        fee_base_msat=1000,
        fee_proportional_millionths=10,
    ),
    ImplLabel.ECLAIR: ImplDefaults(
        cltv_expiry_delta=144,
        min_final_cltv_expiry=9,
        locktime_max=2016,
        max_concurrent_htlcs=30,
        dust_limit_sat=546,
        htlc_minimum_msat=1,
        fee_base_msat=1000,
        fee_proportional_millionths=100,
    ),
})


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
class Snapshot:
    """A parsed snapshot: nodes, announced channels, parse bookkeeping."""

    nodes: tuple[NodeRecord, ...]
    channels: tuple[GraphChannel, ...]
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
    """One channel, as a snapshot announces it and as a graph holds it.

    ``policy_a_to_b`` is the policy announced by ``endpoint_a`` and governs
    traversals from a to b; likewise for ``policy_b_to_a``. In a
    :class:`Snapshot` either may be None, when the snapshot has no
    announcement for that direction, and ``slot_limit`` is None. A
    :class:`NetworkGraph` holds only channels with both policies, neither of
    them disabled: :func:`build_graph` keeps those records as they are, and
    :func:`apply_slot_limits` attaches ``slot_limit``.
    """

    channel_id: str
    endpoint_a: str
    endpoint_b: str
    capacity_sat: int
    policy_a_to_b: ChannelPolicy | None
    policy_b_to_a: ChannelPolicy | None
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

    def _with_channels(self, channels: dict[str, GraphChannel]) -> "NetworkGraph":
        """This graph with its channels swapped for ``channels``, which hold
        the same ids in the same order: the order and the adjacency are
        reused, not rebuilt."""
        graph = object.__new__(NetworkGraph)
        graph.__dict__.update(self.__dict__, _channels=channels)
        return graph


def _int_field(value) -> int:
    """A snapshot integer: a JSON integer that is not a bool, or a string of
    ASCII digits. Anything else raises ``ValueError``."""
    if type(value) is int:
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        return int(value)
    raise ValueError(f"expected an integer or a string of digits, got {value!r}")


def _channel_id(value) -> str:
    """A snapshot channel id: a non-empty JSON string, or a non-negative JSON
    integer that is not a bool, kept as its decimal string. Anything else
    raises ``ValueError``."""
    if type(value) is str and value:
        return value
    if type(value) is int and value >= 0:
        return str(value)
    raise ValueError(f"expected a non-empty string or integer channel id, got {value!r}")


def _parse_policy(
    raw, channel_id: str, interned: dict[tuple, ChannelPolicy]
) -> ChannelPolicy | None:
    """The policy ``raw`` announces, built and validated once per distinct
    announcement in ``interned``. A policy that fails validation is never
    stored, so every record that carries it fails."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError(f"policy of {channel_id} is not an object")
    delta, minimum = raw["time_lock_delta"], raw["min_htlc"]
    base, rate = raw["fee_base_msat"], raw["fee_rate_milli_msat"]
    disabled = raw.get("disabled", False)
    # (type, value) pairs: True == 1 == 1.0, so bare values would let a
    # malformed field reuse the policy built for a valid one.
    key = (
        type(delta), delta, type(minimum), minimum, type(base), base,
        type(rate), rate, type(disabled), disabled,
    )
    policy = interned.get(key)
    if policy is None:
        if type(disabled) is not bool:
            raise ValueError(f"disabled of {channel_id} is not a boolean")
        policy = interned[key] = ChannelPolicy(
            cltv_expiry_delta=_int_field(delta),
            htlc_minimum_msat=_int_field(minimum),
            fee_base_msat=_int_field(base),
            fee_proportional_millionths=_int_field(rate),
            disabled=disabled,
        )
    return policy


def parse_snapshot(raw: str | bytes | IO) -> Snapshot:
    """Parse a ``describegraph``-style JSON snapshot.

    Records with malformed or missing required fields are skipped and counted
    in ``Snapshot.skipped_records``; unknown fields are ignored. An integer
    field takes a JSON integer or a string of ASCII digits, ``disabled`` a
    JSON boolean, a node's optional ``alias`` a JSON string. A channel id
    takes a non-empty JSON string or a non-negative JSON integer, which is
    kept as its decimal string. Structural problems (not JSON, missing
    top-level arrays) raise :class:`SnapshotParseError`. Records announcing
    equal policies share one :class:`ChannelPolicy`.
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
            alias = entry.get("alias", "")
            if not isinstance(node_id, str) or not node_id or node_id in seen_nodes:
                raise ValueError
            if type(alias) is not str:
                raise ValueError
            nodes.append(NodeRecord(node_id=node_id, alias=alias))
            seen_nodes.add(node_id)
        except (TypeError, KeyError, ValueError):
            skipped += 1

    channels: list[GraphChannel] = []
    seen_channels: set[str] = set()
    policies: dict[tuple, ChannelPolicy] = {}
    for entry in raw_edges:
        try:
            channel_id = _channel_id(entry["channel_id"])
            node1 = entry["node1_pub"]
            node2 = entry["node2_pub"]
            capacity = _int_field(entry["capacity"])
            if channel_id in seen_channels or node1 == node2 or capacity <= 0:
                raise ValueError
            if node1 not in seen_nodes or node2 not in seen_nodes:
                raise ValueError
            channels.append(
                GraphChannel(
                    channel_id=channel_id,
                    endpoint_a=node1,
                    endpoint_b=node2,
                    capacity_sat=capacity,
                    policy_a_to_b=_parse_policy(entry.get("node1_policy"), channel_id, policies),
                    policy_b_to_a=_parse_policy(entry.get("node2_policy"), channel_id, policies),
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
    """Build the usable-channel graph from the snapshot's own records.

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
        elif ch.policy_a_to_b.disabled or ch.policy_b_to_a.disabled:
            dropped_disabled += 1
        else:
            usable.append(ch)
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


def _endpoint_labels(
    channel: GraphChannel, labels: Mapping[str, ImplLabel]
) -> tuple[ImplLabel, ImplLabel]:
    """Both endpoints' labels. Raises :class:`UnlabeledNodeError` for an
    endpoint absent from ``labels``."""
    try:
        return labels[channel.endpoint_a], labels[channel.endpoint_b]
    except KeyError as exc:
        raise UnlabeledNodeError(exc.args[0]) from None


def _endpoint_defaults(
    channel: GraphChannel, labels: Mapping[str, ImplLabel], defaults: DefaultsTable
) -> tuple[ImplDefaults, ImplDefaults]:
    """The defaults of both endpoints' implementations. Raises as
    :func:`_endpoint_labels` does, and ``KeyError(label)`` for a label absent
    from ``defaults``."""
    label_a, label_b = _endpoint_labels(channel, labels)
    return defaults[label_a], defaults[label_b]


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
    a, b = _endpoint_defaults(channel, labels, defaults)
    return min(a.max_concurrent_htlcs, b.max_concurrent_htlcs)


def channel_dust_limit(
    channel: GraphChannel,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> int:
    """Dust limit of one channel, sat: the larger of the two endpoints'
    defaults. Raises as :func:`channel_slot_limit` does."""
    a, b = _endpoint_defaults(channel, labels, defaults)
    return max(a.dust_limit_sat, b.dust_limit_sat)


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
    # The limit depends only on the two endpoints' labels.
    pair_limits: dict[tuple[ImplLabel, ImplLabel], int] = {}
    limited: dict[str, GraphChannel] = {}
    for ch in graph.channels():
        limit = ch.slot_limit
        if limit is None:
            pair = _endpoint_labels(ch, labels)
            limit = pair_limits.get(pair)
            if limit is None:
                limit = pair_limits[pair] = channel_slot_limit(ch, labels, defaults)
        limited[ch.channel_id] = GraphChannel(
            ch.channel_id, ch.endpoint_a, ch.endpoint_b, ch.capacity_sat,
            ch.policy_a_to_b, ch.policy_b_to_a, limit,
        )
    return graph._with_channels(limited)


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
