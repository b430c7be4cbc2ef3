"""Deterministic HTLC network simulator.

Models channels as shared-slot HTLC state machines: a payment adds one
pending HTLC per hop, escrowed from the side it leaves, with block-height
expiries cascading downward by each hop's forwarding delta. Held payments
stay pending until fulfilled, failed, or their expiry forces the holding
channel shut. Non-held payments settle immediately.

A line-oriented scenario format drives the simulator for regression scripts;
``execute_plan`` bridges planner output into a simulated network and checks
that every targeted channel really ends up at its slot limit.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable, Mapping, Sequence

from . import cost as cost_mod
from .isolation import ATTACKER_SLOT_LIMIT, IsolationPlan
from .planner import MAX_ROUTE_HOPS, AttackPlan
from .topology import (
    BALANCE_SPLIT,
    LOCKTIME_MAX,
    MAINNET_DEFAULTS,
    MSAT_PER_SAT,
    ChannelPolicy,
    DefaultsTable,
    ImplLabel,
    NetworkGraph,
    channel_slot_limit,
)

logger = logging.getLogger(__name__)

# Final-hop expiry granted to ordinary (non-held) payments.
FINAL_EXPIRY_DEFAULT = 9

ATTACKER_NODE = "attacker"


class SimulatorError(Exception):
    """API misuse: unknown handles, duplicate ids, malformed routes."""


class FailureReason(Enum):
    SLOT_FULL = "SlotFull"
    ROUTE_TOO_LONG = "RouteTooLong"
    LOCKTIME_EXCEEDED = "LocktimeExceeded"
    INSUFFICIENT_BALANCE = "InsufficientBalance"
    AMOUNT_BELOW_MINIMUM = "AmountBelowMinimum"
    BELOW_DUST = "BelowDust"
    # Not part of the canonical failure set: routing over a force-closed
    # channel, and the duplicate-hash mitigation toggle.
    CHANNEL_CLOSED = "ChannelClosed"
    DUPLICATE_HASH = "DuplicateHash"


class PaymentError(Exception):
    def __init__(self, reason: FailureReason, message: str):
        super().__init__(f"{reason.value}: {message}")
        self.reason = reason


class ChannelState(Enum):
    OPEN = "open"
    FORCE_CLOSED = "force_closed"


class PaymentStatus(Enum):
    PENDING = "pending"
    FULFILLED = "fulfilled"
    FAILED = "failed"


@dataclass
class PendingHtlc:
    htlc_id: int
    payment_id: str
    payment_hash: str
    amount_msat: int
    expiry_height: int
    from_node: str
    to_node: str
    hop_index: int


@dataclass
class SimChannel:
    """One channel: balances per side, shared-slot pending HTLC set."""

    channel_id: str
    node_a: str
    node_b: str
    capacity_sat: int
    balances: dict[str, int]
    policy_a_to_b: ChannelPolicy
    policy_b_to_a: ChannelPolicy
    slot_limit: int
    dust_limit_sat: int
    state: ChannelState = ChannelState.OPEN
    pending: dict[int, PendingHtlc] = field(default_factory=dict)

    @property
    def pending_count(self) -> int:
        return len(self.pending)

    def other_endpoint(self, node: str) -> str:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise SimulatorError(f"{node} is not an endpoint of {self.channel_id}")

    def policy_from(self, node: str) -> ChannelPolicy:
        if node == self.node_a:
            return self.policy_a_to_b
        if node == self.node_b:
            return self.policy_b_to_a
        raise SimulatorError(f"{node} is not an endpoint of {self.channel_id}")

    def conserves_capacity(self) -> bool:
        total = sum(self.balances.values()) + sum(
            h.amount_msat for h in self.pending.values()
        )
        return total == self.capacity_sat * MSAT_PER_SAT


@dataclass(eq=False)
class _Hop:
    channel: SimChannel
    from_node: str
    to_node: str
    amount_msat: int = 0
    expiry_height: int = 0
    htlc_id: int = -1


@dataclass
class PaymentState:
    payment_id: str
    payment_hash: str
    hops: list[_Hop]
    hold: bool
    status: PaymentStatus = PaymentStatus.PENDING


class SimNetwork:
    """A deterministic network of simulated channels."""

    def __init__(
        self,
        locktime_max: int = LOCKTIME_MAX,
        reject_duplicate_hash: bool = False,
    ):
        self.locktime_max = locktime_max
        self.reject_duplicate_hash = reject_duplicate_hash
        self.block_height = 0
        self.channels: dict[str, SimChannel] = {}
        self.payments: dict[str, PaymentState] = {}
        self.events: list[dict] = []
        self._next_htlc_id = 1

    # -- construction ------------------------------------------------------

    def open_channel(
        self,
        channel_id: str,
        node_a: str,
        node_b: str,
        capacity_sat: int,
        funder: str | None = None,
        policy_a_to_b: ChannelPolicy | None = None,
        policy_b_to_a: ChannelPolicy | None = None,
        slot_limit: int = ATTACKER_SLOT_LIMIT,
        dust_limit_sat: int = 0,
        balances: tuple[int, int] | None = None,
    ) -> str:
        """Open a channel; the funder side starts with the whole capacity.

        ``balances`` (msat for node_a, node_b) overrides the funder rule for
        snapshot instantiation, where real splits are unknown.
        """
        if capacity_sat <= 0:
            raise SimulatorError(f"capacity must be positive, got {capacity_sat}")
        if channel_id in self.channels:
            raise SimulatorError(f"duplicate channel id {channel_id}")
        if node_a == node_b:
            raise SimulatorError("channel endpoints must differ")
        default_policy = ChannelPolicy(
            cltv_expiry_delta=40,
            htlc_minimum_msat=1000,
            fee_base_msat=0,
            fee_proportional_millionths=0,
        )
        capacity_msat = capacity_sat * MSAT_PER_SAT
        if balances is not None:
            bal_a, bal_b = balances
            if bal_a < 0 or bal_b < 0 or bal_a + bal_b != capacity_msat:
                raise SimulatorError("balances must be non-negative and sum to capacity")
        else:
            funder = funder if funder is not None else node_a
            if funder not in (node_a, node_b):
                raise SimulatorError(f"funder {funder} is not an endpoint")
            bal_a = capacity_msat if funder == node_a else 0
            bal_b = capacity_msat - bal_a
        channel = SimChannel(
            channel_id=channel_id,
            node_a=node_a,
            node_b=node_b,
            capacity_sat=capacity_sat,
            balances={node_a: bal_a, node_b: bal_b},
            policy_a_to_b=policy_a_to_b or default_policy,
            policy_b_to_a=policy_b_to_a or default_policy,
            slot_limit=slot_limit,
            dust_limit_sat=dust_limit_sat,
        )
        self.channels[channel_id] = channel
        self._log("open", channel=channel_id, a=node_a, b=node_b, capacity_sat=capacity_sat)
        return channel_id

    @classmethod
    def from_graph(
        cls,
        graph: NetworkGraph,
        labels: Mapping[str, ImplLabel],
        defaults: DefaultsTable = MAINNET_DEFAULTS,
    ) -> "SimNetwork":
        """Instantiate every graph channel; balances split by
        ``BALANCE_SPLIT``, dust and any slot limit not attached yet from the
        endpoints' implementation defaults."""
        net = cls()
        for ch in graph.channels():
            slot_limit = channel_slot_limit(ch, labels, defaults)
            dust = max(
                defaults.for_label(labels[ch.endpoint_a]).dust_limit_sat,
                defaults.for_label(labels[ch.endpoint_b]).dust_limit_sat,
            )
            capacity_msat = ch.capacity_sat * MSAT_PER_SAT
            bal_a = int(capacity_msat * BALANCE_SPLIT)
            net.open_channel(
                ch.channel_id,
                ch.endpoint_a,
                ch.endpoint_b,
                ch.capacity_sat,
                policy_a_to_b=ch.policy_a_to_b,
                policy_b_to_a=ch.policy_b_to_a,
                slot_limit=slot_limit,
                dust_limit_sat=dust,
                balances=(bal_a, capacity_msat - bal_a),
            )
        return net

    # -- payments ----------------------------------------------------------

    def _resolve_route(self, sender: str, channel_path: Sequence[str]) -> list[_Hop]:
        hops: list[_Hop] = []
        current = sender
        for cid in channel_path:
            channel = self.channels.get(cid)
            if channel is None:
                raise SimulatorError(f"unknown channel {cid}")
            if channel.state is not ChannelState.OPEN:
                raise PaymentError(FailureReason.CHANNEL_CLOSED, f"channel {cid} is closed")
            nxt = channel.other_endpoint(current)
            hops.append(_Hop(channel=channel, from_node=current, to_node=nxt))
            current = nxt
        return hops

    def send_payment(
        self,
        payment_id: str,
        sender: str,
        channel_path: Sequence[str],
        amount_msat: int,
        hold: bool = False,
        final_expiry: int | None = None,
        payment_hash: str | None = None,
    ) -> str:
        """Send ``amount_msat`` (delivered amount) along a channel walk.

        Fees accumulate backward, so each upstream HTLC carries the
        downstream amount plus the forwarding fee of the hop it feeds.
        Held payments take the maximum total locktime; ordinary payments
        use the sum of forwarding deltas plus the final expiry, and settle
        immediately on success.
        """
        if payment_id in self.payments:
            raise SimulatorError(f"duplicate payment id {payment_id}")
        if amount_msat <= 0:
            raise SimulatorError(f"amount must be positive, got {amount_msat}")
        if not channel_path:
            raise SimulatorError("empty route")
        if len(channel_path) > MAX_ROUTE_HOPS:
            raise PaymentError(
                FailureReason.ROUTE_TOO_LONG,
                f"{len(channel_path)} hops exceed the {MAX_ROUTE_HOPS}-hop limit",
            )
        hops = self._resolve_route(sender, channel_path)
        policies = [h.channel.policy_from(h.from_node) for h in hops]
        amounts = cost_mod.route_amounts(policies, amount_msat)
        for hop, amount in zip(hops, amounts):
            hop.amount_msat = amount

        for hop, policy in zip(hops, policies):
            if hop.amount_msat < policy.htlc_minimum_msat:
                raise PaymentError(
                    FailureReason.AMOUNT_BELOW_MINIMUM,
                    f"{hop.amount_msat} msat under minimum {policy.htlc_minimum_msat}"
                    f" on {hop.channel.channel_id}",
                )
            if hop.amount_msat < hop.channel.dust_limit_sat * MSAT_PER_SAT:
                raise PaymentError(
                    FailureReason.BELOW_DUST,
                    f"{hop.amount_msat} msat under dust limit on {hop.channel.channel_id}",
                )

        forwarding_charges = sum(p.cltv_expiry_delta for p in policies[1:])
        final_delta = FINAL_EXPIRY_DEFAULT if final_expiry is None else final_expiry
        required = forwarding_charges + final_delta
        if required > self.locktime_max:
            raise PaymentError(
                FailureReason.LOCKTIME_EXCEEDED,
                f"route needs {required} blocks, ceiling is {self.locktime_max}",
            )
        total_locktime = self.locktime_max if hold else required
        expiry = self.block_height + total_locktime
        for i, hop in enumerate(hops):
            if i > 0:
                expiry -= policies[i].cltv_expiry_delta
            hop.expiry_height = expiry

        adds: Counter[str] = Counter()
        for hop in hops:
            adds[hop.channel.channel_id] += 1
            if hop.channel.pending_count + adds[hop.channel.channel_id] > hop.channel.slot_limit:
                raise PaymentError(
                    FailureReason.SLOT_FULL,
                    f"channel {hop.channel.channel_id} at its"
                    f" {hop.channel.slot_limit}-HTLC limit",
                )

        escrow: Counter[tuple[str, str]] = Counter()
        for hop in hops:
            key = (hop.channel.channel_id, hop.from_node)
            escrow[key] += hop.amount_msat
            if escrow[key] > hop.channel.balances[hop.from_node]:
                raise PaymentError(
                    FailureReason.INSUFFICIENT_BALANCE,
                    f"{hop.from_node} lacks {escrow[key]} msat on {hop.channel.channel_id}",
                )

        payment_hash = payment_hash if payment_hash is not None else f"h:{payment_id}"
        if self.reject_duplicate_hash:
            for hop in hops:
                if any(
                    h.payment_hash == payment_hash for h in hop.channel.pending.values()
                ):
                    raise PaymentError(
                        FailureReason.DUPLICATE_HASH,
                        f"hash already pending on {hop.channel.channel_id}",
                    )

        # All checks passed: commit the HTLCs.
        for i, hop in enumerate(hops):
            hop.htlc_id = self._next_htlc_id
            self._next_htlc_id += 1
            hop.channel.balances[hop.from_node] -= hop.amount_msat
            hop.channel.pending[hop.htlc_id] = PendingHtlc(
                htlc_id=hop.htlc_id,
                payment_id=payment_id,
                payment_hash=payment_hash,
                amount_msat=hop.amount_msat,
                expiry_height=hop.expiry_height,
                from_node=hop.from_node,
                to_node=hop.to_node,
                hop_index=i,
            )
        state = PaymentState(
            payment_id=payment_id, payment_hash=payment_hash, hops=hops, hold=hold
        )
        self.payments[payment_id] = state
        self._log(
            "send",
            payment=payment_id,
            sender=sender,
            hops=len(hops),
            amount_msat=amount_msat,
            hold=hold,
        )
        if not hold:
            self._settle(state)
        return payment_id

    def _settle(self, state: PaymentState) -> None:
        for hop in reversed(state.hops):
            del hop.channel.pending[hop.htlc_id]
            hop.channel.balances[hop.to_node] += hop.amount_msat
        state.status = PaymentStatus.FULFILLED
        self._log("fulfill", payment=state.payment_id)

    def fulfill_payment(self, payment_id: str) -> None:
        """Recipient reveals the preimage: HTLCs settle recipient→sender."""
        state = self._pending_payment(payment_id)
        for hop in state.hops:
            if hop.channel.state is not ChannelState.OPEN:
                raise SimulatorError(
                    f"cannot fulfill {payment_id}: {hop.channel.channel_id} force-closed"
                )
        self._settle(state)

    def fail_payment(self, payment_id: str) -> None:
        """Cancel a pending payment, restoring escrowed balances exactly.

        HTLCs stranded on force-closed channels stay there (they settle
        on-chain, outside this model); all others are released.
        """
        state = self._pending_payment(payment_id)
        for hop in reversed(state.hops):
            if hop.channel.state is ChannelState.OPEN and hop.htlc_id in hop.channel.pending:
                del hop.channel.pending[hop.htlc_id]
                hop.channel.balances[hop.from_node] += hop.amount_msat
        state.status = PaymentStatus.FAILED
        self._log("fail", payment=payment_id)

    def _pending_payment(self, payment_id: str) -> PaymentState:
        state = self.payments.get(payment_id)
        if state is None:
            raise SimulatorError(f"unknown payment {payment_id}")
        if state.status is not PaymentStatus.PENDING:
            raise SimulatorError(f"payment {payment_id} already {state.status.value}")
        return state

    # -- time --------------------------------------------------------------

    def advance_blocks(self, n: int) -> list[str]:
        """Mine ``n`` blocks; channels holding an expired HTLC force-close.

        An HTLC with ``expiry_height`` strictly below the new height is
        expired: its holder has missed the window and the counterparty
        claims on-chain, closing that channel only.
        """
        if n < 1:
            raise ValueError(f"advance requires n >= 1, got {n}")
        self.block_height += n
        closed = []
        for cid in sorted(self.channels):
            channel = self.channels[cid]
            if channel.state is not ChannelState.OPEN:
                continue
            if any(h.expiry_height < self.block_height for h in channel.pending.values()):
                channel.state = ChannelState.FORCE_CLOSED
                closed.append(cid)
                self._log("force_close", channel=cid, height=self.block_height)
        self._log("advance", blocks=n, height=self.block_height)
        return closed

    def _log(self, event: str, **detail) -> None:
        entry = {"event": event, "height": self.block_height}
        entry.update(detail)
        self.events.append(entry)


# -- plan execution ---------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of replaying a plan against a simulated network."""

    plan_kind: str
    ok: bool
    failures: list[str]
    channels_targeted: int
    channels_locked: int
    probes_attempted: int
    probes_blocked: int
    payments_sent: int
    attacker_channels_opened: int
    min_lock_duration: int | None
    route_lock_durations: list[tuple[int, int]]

    def to_json_dict(self) -> dict:
        return asdict(self)


# The attacker's own channels charge nothing leaving the attacker; the peer
# side forwards back to the attacker with a one-block delta.
_FROM_ATTACKER = ChannelPolicy(
    cltv_expiry_delta=0, htlc_minimum_msat=0, fee_base_msat=0, fee_proportional_millionths=0
)
_TO_ATTACKER = ChannelPolicy(
    cltv_expiry_delta=1, htlc_minimum_msat=0, fee_base_msat=0, fee_proportional_millionths=0
)


def _open_attacker_channel(
    net: SimNetwork, channel_id: str, peer: str, capacity_sat: int, slot_limit: int, entry: bool
) -> str:
    """Open an entry channel (attacker → peer) or an exit channel (peer →
    attacker); the side the payments leave from funds it."""
    node_a, node_b = (ATTACKER_NODE, peer) if entry else (peer, ATTACKER_NODE)
    return net.open_channel(
        channel_id,
        node_a,
        node_b,
        capacity_sat,
        funder=node_a,
        policy_a_to_b=_FROM_ATTACKER if entry else _TO_ATTACKER,
        policy_b_to_a=_TO_ATTACKER if entry else _FROM_ATTACKER,
        slot_limit=slot_limit,
    )


def _try_send(
    net: SimNetwork,
    payment_id: str,
    sender: str,
    path: Sequence[str],
    amount_msat: int,
    hold: bool = False,
) -> FailureReason | None:
    """Send one payment; the reason it failed, or None if it went through."""
    try:
        net.send_payment(payment_id, sender, path, amount_msat, hold=hold)
    except PaymentError as exc:
        return exc.reason
    return None


def _attack_network(
    net: SimNetwork,
    plan: AttackPlan,
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable,
) -> tuple[list[str], list[tuple[int, int]]]:
    """Send ``slot_class`` held payments along each route, between an entry
    and an exit channel of its own: the failures, and each locked route's
    lock duration."""
    failures: list[str] = []
    locks: list[tuple[int, int]] = []
    for i, route in enumerate(plan.routes, start=1):
        amounts = cost_mod.hop_amounts_msat(route, graph, labels, defaults)
        sender_total, delivered = amounts[0], amounts[-1]
        # Entry bankrolls every payment at the sender amount; the exit side
        # only needs the floor amount forwarded back to the attacker.
        capacity_sat = (route.slot_class * sender_total * 2) // MSAT_PER_SAT + 100_000
        start, head = route.hops[0].from_node, route.hops[-1].to_node
        entry = _open_attacker_channel(
            net, f"atk-e{i}", start, capacity_sat, ATTACKER_SLOT_LIMIT, entry=True
        )
        exit_ = _open_attacker_channel(
            net, f"atk-x{i}", head, capacity_sat, ATTACKER_SLOT_LIMIT, entry=False
        )
        path = [entry, *route.channel_ids, exit_]
        for j in range(route.slot_class):
            reason = _try_send(net, f"r{i}p{j}", ATTACKER_NODE, path, delivered, hold=True)
            if reason is not None:
                failures.append(f"route {i} payment {j + 1}: {reason.value}")
                break
        else:
            lock = min(
                min(h.expiry_height for h in net.channels[cid].pending.values())
                for cid in route.channel_ids
            ) - net.block_height
            locks.append((i, lock))
    return failures, locks


def _attack_isolation(
    net: SimNetwork, plan: IsolationPlan
) -> tuple[list[str], list[tuple[int, int]]]:
    """Bounce each channel's held payments across it from an entry channel
    at the victim: the failures, and each touched channel's lock duration."""
    failures: list[str] = []
    locks: list[tuple[int, int]] = []
    victim = plan.victim
    for idx, iso in enumerate(plan.per_channel, start=1):
        if not iso.paralyzable:
            failures.append(f"channel {iso.channel_id} unparalyzable at this tau_min")
            continue
        target = net.channels[iso.channel_id]
        policy_out = target.policy_from(victim)
        policy_back = target.policy_from(iso.neighbor)
        floor = max(
            target.dust_limit_sat * MSAT_PER_SAT,
            policy_out.htlc_minimum_msat,
            policy_back.htlc_minimum_msat,
            1,
        )
        # Generous entry funding: every payment's sender-side amount is under
        # floor plus per-traversal fees; the victim side additionally needs
        # the shifted balance that funds circular exits.
        worst = floor + sum(
            p.fee_msat(2 * floor) for p in (policy_out, policy_back)
        ) * (iso.max_traversals + 2)
        even_exits = sum(p.ends_at_victim for p in iso.payments)
        odd_payments = len(iso.payments) - even_exits
        shift = even_exits * 2 * worst + 10 * floor
        entry_cap_sat = max(
            (shift + (len(iso.payments) + 2) * worst) // MSAT_PER_SAT + 100_000,
            1_000_000,
        )
        entry = _open_attacker_channel(
            net, f"atk-v{idx}", victim, entry_cap_sat, plan.entry_budget, entry=True
        )
        # Shift liquidity to the victim side so circular exits can escrow.
        if even_exits:
            net.send_payment(f"shift{idx}", ATTACKER_NODE, [entry], shift)
        exit_neighbor = None
        if odd_payments:
            exit_cap_sat = max(odd_payments * 2 * worst // MSAT_PER_SAT + 100_000, 1_000_000)
            exit_neighbor = _open_attacker_channel(
                net, f"atk-n{idx}", iso.neighbor, exit_cap_sat, ATTACKER_SLOT_LIMIT, entry=False
            )
        for j, payment in enumerate(iso.payments):
            exit_ = entry if payment.ends_at_victim else exit_neighbor
            path = [entry, *[iso.channel_id] * payment.traversals, exit_]
            reason = _try_send(net, f"iso{idx}p{j}", ATTACKER_NODE, path, floor, hold=True)
            if reason is not None:
                failures.append(f"channel {iso.channel_id} payment {j + 1}: {reason.value}")
                break
        if target.pending:
            lock = min(h.expiry_height for h in target.pending.values()) - net.block_height
            locks.append((idx, lock))
    return failures, locks


def _check_and_report(
    net: SimNetwork,
    plan_kind: str,
    targeted: Sequence[str],
    failures: list[str],
    locks: list[tuple[int, int]],
) -> VerificationReport:
    """Check that each targeted channel sits at its slot limit and that a
    probe through it fails with SlotFull; report every miss in ``failures``.

    ``net`` holds the targeted channels plus those the attacker opened, and
    every held payment in it is one the plan sent.
    """
    payments_sent = sum(p.hold for p in net.payments.values())
    attacker_channels = len(net.channels) - len(set(targeted))
    locked = 0
    probes_blocked = 0
    for n, cid in enumerate(targeted):
        channel = net.channels[cid]
        if channel.pending_count == channel.slot_limit:
            locked += 1
        else:
            failures.append(
                f"channel {cid}: {channel.pending_count}/{channel.slot_limit} slots"
            )
        policy = channel.policy_from(channel.node_a)
        amount = max(channel.dust_limit_sat * MSAT_PER_SAT, policy.htlc_minimum_msat, 1)
        reason = _try_send(net, f"probe{n}", channel.node_a, [cid], amount)
        if reason is FailureReason.SLOT_FULL:
            probes_blocked += 1
        else:
            failures.append(f"probe through {cid} was not blocked ({reason})")
    return VerificationReport(
        plan_kind=plan_kind,
        ok=not failures,
        failures=failures,
        channels_targeted=len(targeted),
        channels_locked=locked,
        probes_attempted=len(targeted),
        probes_blocked=probes_blocked,
        payments_sent=payments_sent,
        attacker_channels_opened=attacker_channels,
        min_lock_duration=min((lock for _, lock in locks), default=None),
        route_lock_durations=locks,
    )


def execute_plan(
    plan: AttackPlan | IsolationPlan,
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> VerificationReport:
    """Replay a plan on a simulated instantiation of the channels it targets.

    Opens the attacker's channels, sends every held payment, then checks
    that each targeted channel sits exactly at its slot limit and that a
    probe payment through it fails with SlotFull. No other channel would
    carry a payment or a probe, so none is built.
    """
    if isinstance(plan, AttackPlan):
        kind = "network-attack"
        targeted = sorted({h.channel_id for r in plan.routes for h in r.hops})
    elif isinstance(plan, IsolationPlan):
        kind = "isolation"
        targeted = [iso.channel_id for iso in plan.per_channel]
    else:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    net = SimNetwork.from_graph(graph.subgraph(targeted), labels, defaults)
    if isinstance(plan, AttackPlan):
        failures, locks = _attack_network(net, plan, graph, labels, defaults)
    else:
        failures, locks = _attack_isolation(net, plan)
    report = _check_and_report(net, kind, targeted, failures, locks)
    if not report.ok:
        logger.warning(
            "plan verification found %d problem(s): %s",
            len(report.failures),
            "; ".join(report.failures[:3]),
        )
    return report


# -- scenario runner --------------------------------------------------------


@dataclass
class ScenarioStep:
    line_no: int
    command: str
    ok: bool
    detail: str = ""


@dataclass
class ScenarioResult:
    passed: bool
    steps: list[ScenarioStep]
    network: SimNetwork

    @property
    def events(self) -> list[dict]:
        return self.network.events

    @property
    def failed_steps(self) -> list[ScenarioStep]:
        return [s for s in self.steps if not s.ok]


class ScenarioParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_kv(tokens: Iterable[str], line_no: int) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioParseError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key] = value
    return out


def _expand_route(token: str, line_no: int) -> list[str]:
    """Route syntax: comma-separated channel ids, each optionally `id*N`."""
    path: list[str] = []
    for part in token.split(","):
        if "*" in part:
            cid, _, count = part.partition("*")
            try:
                path.extend([cid] * int(count))
            except ValueError:
                raise ScenarioParseError(line_no, f"bad repeat count in {part!r}")
        elif part:
            path.append(part)
    if not path:
        raise ScenarioParseError(line_no, "empty route")
    return path


class _ScenarioRunner:
    """Executes one scenario script against a fresh network."""

    def __init__(self, net: SimNetwork):
        self.net = net
        self.steps: list[ScenarioStep] = []

    def run(self, script: str) -> ScenarioResult:
        for line_no, raw in enumerate(script.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            self._execute(line, line_no)
        passed = all(s.ok for s in self.steps)
        return ScenarioResult(passed=passed, steps=self.steps, network=self.net)

    def _execute(self, line: str, line_no: int) -> None:
        tokens = line.split()
        verb = tokens[0]
        if verb == "repeat":
            if len(tokens) < 3:
                raise ScenarioParseError(line_no, "repeat needs a count and a command")
            try:
                count = int(tokens[1])
            except ValueError:
                raise ScenarioParseError(line_no, f"bad repeat count {tokens[1]!r}")
            template = " ".join(tokens[2:])
            for i in range(1, count + 1):
                self._execute(template.replace("{i}", str(i)), line_no)
            return
        handler = getattr(self, f"_cmd_{verb}", None)
        if handler is None:
            raise ScenarioParseError(line_no, f"unknown command {verb!r}")
        handler(tokens[1:], line_no)

    def _record(self, line_no: int, command: str, ok: bool, detail: str = "") -> None:
        self.steps.append(ScenarioStep(line_no=line_no, command=command, ok=ok, detail=detail))

    # Command implementations. Mutating commands record a failing step on
    # unexpected errors instead of aborting, so later assertions still run.

    def _cmd_open(self, args: list[str], line_no: int) -> None:
        if len(args) < 4:
            raise ScenarioParseError(line_no, "open needs: id a b capacity_sat [opts]")
        cid, node_a, node_b = args[0], args[1], args[2]
        capacity = int(args[3])
        opts = _parse_kv(args[4:], line_no)
        delta_ab = int(opts.get("delta_ab", opts.get("delta", 40)))
        delta_ba = int(opts.get("delta_ba", opts.get("delta", 40)))
        min_htlc = int(opts.get("min_htlc", 1000))
        fee_base = int(opts.get("fee_base", 0))
        fee_rate = int(opts.get("fee_rate", 0))

        def policy(delta: int) -> ChannelPolicy:
            return ChannelPolicy(
                cltv_expiry_delta=delta,
                htlc_minimum_msat=min_htlc,
                fee_base_msat=fee_base,
                fee_proportional_millionths=fee_rate,
            )

        try:
            self.net.open_channel(
                cid,
                node_a,
                node_b,
                capacity,
                funder=opts.get("funder", node_a),
                policy_a_to_b=policy(delta_ab),
                policy_b_to_a=policy(delta_ba),
                slot_limit=int(opts.get("slots", ATTACKER_SLOT_LIMIT)),
                dust_limit_sat=int(opts.get("dust", 546)),
            )
            self._record(line_no, f"open {cid}", True)
        except SimulatorError as exc:
            self._record(line_no, f"open {cid}", False, str(exc))

    def _send(self, args: list[str], line_no: int) -> tuple[str, Exception | None]:
        """Parse and send one ``pay`` command: (payment id, the error it raised)."""
        if len(args) < 4:
            raise ScenarioParseError(
                line_no, "pay needs: id amount_msat sender route [hold] [final=N]"
            )
        payment_id, amount, sender = args[0], int(args[1]), args[2]
        path = _expand_route(args[3], line_no)
        kwargs: dict = {"hold": False, "final_expiry": None, "payment_hash": None}
        for tok in args[4:]:
            if tok == "hold":
                kwargs["hold"] = True
            elif tok.startswith("final="):
                kwargs["final_expiry"] = int(tok.split("=", 1)[1])
            elif tok.startswith("hash="):
                kwargs["payment_hash"] = tok.split("=", 1)[1]
            else:
                raise ScenarioParseError(line_no, f"unknown pay option {tok!r}")
        try:
            self.net.send_payment(payment_id, sender, path, amount, **kwargs)
        except (PaymentError, SimulatorError) as exc:
            return payment_id, exc
        return payment_id, None

    def _cmd_pay(self, args: list[str], line_no: int, verb: str = "pay") -> None:
        payment_id, error = self._send(args, line_no)
        detail = "" if error is None else str(error)
        self._record(line_no, f"{verb} {payment_id}", error is None, detail)

    def _cmd_fulfill(self, args: list[str], line_no: int) -> None:
        try:
            self.net.fulfill_payment(args[0])
            self._record(line_no, f"fulfill {args[0]}", True)
        except (IndexError, SimulatorError) as exc:
            self._record(line_no, "fulfill", False, str(exc))

    def _cmd_fail(self, args: list[str], line_no: int) -> None:
        try:
            self.net.fail_payment(args[0])
            self._record(line_no, f"fail {args[0]}", True)
        except (IndexError, SimulatorError) as exc:
            self._record(line_no, "fail", False, str(exc))

    def _cmd_advance(self, args: list[str], line_no: int) -> None:
        try:
            self.net.advance_blocks(int(args[0]))
            self._record(line_no, f"advance {args[0]}", True)
        except (IndexError, ValueError) as exc:
            self._record(line_no, "advance", False, str(exc))

    def _cmd_assert_pending(self, args: list[str], line_no: int) -> None:
        cid, expected = args[0], int(args[1])
        channel = self.net.channels.get(cid)
        if channel is None:
            self._record(line_no, f"assert_pending {cid}", False, "unknown channel")
            return
        actual = channel.pending_count
        self._record(
            line_no,
            f"assert_pending {cid} {expected}",
            actual == expected,
            "" if actual == expected else f"actual {actual}",
        )

    def _assert_state(self, cid: str, want: ChannelState, line_no: int) -> None:
        channel = self.net.channels.get(cid)
        label = f"assert_{want.value} {cid}"
        if channel is None:
            self._record(line_no, label, False, "unknown channel")
            return
        self._record(
            line_no,
            label,
            channel.state is want,
            "" if channel.state is want else f"state {channel.state.value}",
        )

    def _cmd_assert_closed(self, args: list[str], line_no: int) -> None:
        self._assert_state(args[0], ChannelState.FORCE_CLOSED, line_no)

    def _cmd_assert_open(self, args: list[str], line_no: int) -> None:
        self._assert_state(args[0], ChannelState.OPEN, line_no)

    def _cmd_assert_fails(self, args: list[str], line_no: int) -> None:
        reason = None
        if args and args[0] != "pay":
            reason = args[0]
            args = args[1:]
        if not args or args[0] != "pay":
            raise ScenarioParseError(line_no, "assert_fails expects a pay command")
        payment_id, error = self._send(args[1:], line_no)
        if error is None:
            ok, detail = False, "payment succeeded"
        elif not isinstance(error, PaymentError):
            ok, detail = False, f"misuse: {error}"
        elif reason is None or error.reason.value == reason:
            ok, detail = True, ""
        else:
            ok, detail = False, f"failed with {error.reason.value}, expected {reason}"
        self._record(line_no, f"assert_fails {payment_id}", ok, detail)

    def _cmd_assert_succeeds(self, args: list[str], line_no: int) -> None:
        if not args or args[0] != "pay":
            raise ScenarioParseError(line_no, "assert_succeeds expects a pay command")
        self._cmd_pay(args[1:], line_no, verb="assert_succeeds")


def run_scenario(script: str, reject_duplicate_hash: bool = False) -> ScenarioResult:
    """Replay a scenario script on a fresh network.

    Scripts are line-oriented: ``open``, ``pay`` (``hold`` keyword for
    withheld payments), ``fulfill``, ``fail``, ``advance``,
    ``assert_pending``, ``assert_fails [Reason]``, ``assert_succeeds``,
    ``assert_closed``, ``assert_open``; ``#`` starts a comment and
    ``repeat N <cmd>`` expands ``{i}`` for i = 1..N. Route tokens are
    comma-separated channel ids with an optional ``*N`` repeat suffix.
    """
    net = SimNetwork(reject_duplicate_hash=reject_duplicate_hash)
    return _ScenarioRunner(net).run(script)


def builtin_scenario(name: str) -> str:
    """Load a packaged scenario by name (e.g. ``experiment2``)."""
    resource = resources.files("lnjam.scenarios").joinpath(f"{name}.scn")
    if not resource.is_file():
        raise FileNotFoundError(f"no builtin scenario named {name!r}")
    return resource.read_text(encoding="utf-8")
