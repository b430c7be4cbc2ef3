"""Deterministic HTLC network simulator.

Models channels as shared-slot HTLC state machines: a payment adds one
pending HTLC per hop, escrowed from the side it leaves, with block-height
expiries cascading downward by each hop's forwarding delta. Held payments
stay pending until fulfilled, failed, or their expiry forces the holding
channel shut. Non-held payments settle immediately. Pending HTLCs are
stored as runs: payments alike but for their ids share one record per hop.
A payment sent alone is a run of one, and a batch of held payments extends
its first payment's run. A run keeps its shape: a fulfilled or failed
member only leaves it.

A line-oriented scenario format drives the simulator for regression scripts;
``execute_plan`` bridges planner output into a simulated network and checks
that every targeted channel really ends up at its slot limit.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import partialmethod
from importlib import resources
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

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
    channel_dust_limit,
    channel_slot_limit,
)

logger = logging.getLogger(__name__)

# Final-hop expiry granted to ordinary (non-held) payments.
FINAL_EXPIRY_DEFAULT = 9

ATTACKER_NODE = "attacker"

# Policy of either direction of a channel opened without one.
DEFAULT_POLICY = ChannelPolicy(
    cltv_expiry_delta=40, htlc_minimum_msat=1000, fee_base_msat=0, fee_proportional_millionths=0
)


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
class SimChannel:
    """One channel: balances per side, shared-slot pending HTLC set.

    The pending HTLCs are the members of the runs in ``runs``, keyed by each
    run's first HTLC id; ``htlcs()`` lists them one by one. ``slots_taken``
    counts them, kept as HTLCs are added and removed rather than recounted.
    """

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
    runs: dict[int, HtlcRun] = field(default_factory=dict)
    slots_taken: int = field(default=0, init=False)

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

    def slots_used(self) -> int:
        """How many HTLC slots the pending HTLCs take, a count kept as they
        are added and removed."""
        return self.slots_taken

    def min_expiry(self) -> int | None:
        """The lowest expiry height of a pending HTLC; None if there is none."""
        return min((run.expiry_height for run in self.runs.values()), default=None)

    def htlcs(self) -> list[Htlc]:
        """Every pending HTLC in HTLC-id order, as if each payment had been
        sent alone."""
        copies = (run.htlc(k) for run in self.runs.values() for k in run.members())
        return sorted(copies, key=attrgetter("htlc_id"))

    def conserves_capacity(self) -> bool:
        escrow = sum(run.amount_msat * len(run.members()) for run in self.runs.values())
        return sum(self.balances.values()) + escrow == self.capacity_sat * MSAT_PER_SAT


@dataclass(frozen=True, slots=True)
class Htlc:
    """One pending HTLC, a value built from its run by ``HtlcRun.htlc``."""

    channel: SimChannel
    from_node: str
    to_node: str
    payment_hash: str
    amount_msat: int
    expiry_height: int
    htlc_id: int


@dataclass(eq=False, slots=True)
class HtlcRun:
    """One hop of a run of payments alike but for their ids, pending on
    ``channel``: member ``k`` is payment ``payment_ids[k]``, whose HTLC here
    has id ``first_id + k * stride`` and hash ``payment_hash``, or
    ``h:<payment id>`` when that is None. Every hop of a run shares one
    ``payment_ids`` list with the run's ``PaymentRun``. Bit ``k`` of ``gone``
    is set once member ``k`` has left this hop."""

    channel: SimChannel
    from_node: str
    to_node: str
    payment_ids: list[str]
    stride: int
    payment_hash: str | None = None
    amount_msat: int = 0
    expiry_height: int = 0
    first_id: int = -1
    gone: int = 0

    def members(self) -> list[int]:
        """The offsets of the members still pending on this hop."""
        return [k for k in range(len(self.payment_ids)) if not self.gone >> k & 1]

    def htlc(self, k: int) -> Htlc:
        """Member ``k``'s HTLC."""
        payment_hash = self.payment_hash
        if payment_hash is None:
            payment_hash = f"h:{self.payment_ids[k]}"
        return Htlc(self.channel, self.from_node, self.to_node, payment_hash,
                    self.amount_msat, self.expiry_height, self.first_id + k * self.stride)


@dataclass(frozen=True, slots=True)
class PaymentState:
    """One payment's state, a value built from its run by ``PaymentRun.member``."""

    payment_id: str
    hops: tuple[Htlc, ...]
    hold: bool
    status: PaymentStatus


@dataclass(eq=False, slots=True)
class PaymentRun:
    """The payments of one run, alike but for their ids: ``hops[j]`` holds
    every member's HTLC on hop ``j``. A payment sent alone is a run of one.
    Members keep their offsets in ``payment_ids`` for good; bit ``k`` of
    ``fulfilled`` or ``failed`` is set once member ``k`` is resolved."""

    payment_ids: list[str]
    hops: list[HtlcRun]
    hold: bool
    fulfilled: int = 0
    failed: int = 0
    offsets: dict[str, int] | None = None

    def offset(self, payment_id: str) -> int:
        """Where the member sits in the run, from a map built on the first lookup."""
        if self.offsets is None:
            self.offsets = {pid: k for k, pid in enumerate(self.payment_ids)}
        return self.offsets[payment_id]

    def status(self, k: int) -> PaymentStatus:
        """Member ``k``'s status."""
        if self.fulfilled >> k & 1:
            return PaymentStatus.FULFILLED
        return PaymentStatus.FAILED if self.failed >> k & 1 else PaymentStatus.PENDING

    def member(self, payment_id: str) -> PaymentState:
        """A member's state, its HTLCs built from the run's."""
        k = self.offset(payment_id)
        hops = tuple(hop.htlc(k) for hop in self.hops)
        return PaymentState(payment_id, hops, self.hold, self.status(k))


class Payments(Mapping[str, PaymentState]):
    """Every payment's state by id, built when looked up from the
    ``PaymentRun`` that ``SimNetwork`` keeps for it."""

    def __init__(self, records: dict[str, PaymentRun]):
        self._records = records

    def __getitem__(self, payment_id: str) -> PaymentState:
        return self._records[payment_id].member(payment_id)

    def __contains__(self, payment_id: object) -> bool:
        return payment_id in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


class SimNetwork:
    """A deterministic network of simulated channels.

    ``events``, if given, is the list every event is appended to; without
    one the network keeps no log.
    """

    def __init__(
        self,
        locktime_max: int = LOCKTIME_MAX,
        reject_duplicate_hash: bool = False,
        events: list[dict] | None = None,
    ):
        self.locktime_max = locktime_max
        self.reject_duplicate_hash = reject_duplicate_hash
        self.block_height = 0
        self.channels: dict[str, SimChannel] = {}
        self._payments: dict[str, PaymentRun] = {}
        self.payments = Payments(self._payments)
        self.events = events
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
            policy_a_to_b=policy_a_to_b or DEFAULT_POLICY,
            policy_b_to_a=policy_b_to_a or DEFAULT_POLICY,
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
            capacity_msat = ch.capacity_sat * MSAT_PER_SAT
            bal_a = int(capacity_msat * BALANCE_SPLIT)
            net.open_channel(
                ch.channel_id,
                ch.endpoint_a,
                ch.endpoint_b,
                ch.capacity_sat,
                policy_a_to_b=ch.policy_a_to_b,
                policy_b_to_a=ch.policy_b_to_a,
                slot_limit=channel_slot_limit(ch, labels, defaults),
                dust_limit_sat=channel_dust_limit(ch, labels, defaults),
                balances=(bal_a, capacity_msat - bal_a),
            )
        return net

    # -- payments ----------------------------------------------------------

    def _resolve_route(
        self, sender: str, channel_path: Sequence[str], payment_id: str, payment_hash: str | None
    ) -> list[HtlcRun]:
        """The payment's hops, a run of one with no amounts, expiries or ids yet."""
        payment_ids, hops = [payment_id], []
        current = sender
        for cid in channel_path:
            channel = self.channels.get(cid)
            if channel is None:
                raise SimulatorError(f"unknown channel {cid}")
            if channel.state is not ChannelState.OPEN:
                raise PaymentError(FailureReason.CHANNEL_CLOSED, f"channel {cid} is closed")
            nxt = channel.other_endpoint(current)
            hops.append(HtlcRun(channel, current, nxt, payment_ids, len(channel_path), payment_hash))
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
        immediately on success. The payment goes in as a run of one.
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
        hops = self._resolve_route(sender, channel_path, payment_id, payment_hash)
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

        adds: dict[str, int] = {}
        for hop in hops:
            channel = hop.channel
            added = adds[channel.channel_id] = adds.get(channel.channel_id, 0) + 1
            if channel.slots_taken + added > channel.slot_limit:
                raise PaymentError(
                    FailureReason.SLOT_FULL,
                    f"channel {channel.channel_id} at its {channel.slot_limit}-HTLC limit",
                )

        escrow: dict[tuple[str, str], int] = {}
        for hop in hops:
            key = (hop.channel.channel_id, hop.from_node)
            owed = escrow[key] = escrow.get(key, 0) + hop.amount_msat
            if owed > hop.channel.balances[hop.from_node]:
                raise PaymentError(
                    FailureReason.INSUFFICIENT_BALANCE,
                    f"{hop.from_node} lacks {owed} msat on {hop.channel.channel_id}",
                )

        if self.reject_duplicate_hash:
            wanted = hops[0].htlc(0).payment_hash
            for hop in hops:
                if any(h.payment_hash == wanted for h in hop.channel.htlcs()):
                    raise PaymentError(
                        FailureReason.DUPLICATE_HASH,
                        f"hash already pending on {hop.channel.channel_id}",
                    )

        for hop in hops:
            hop.first_id = self._next_htlc_id
            self._next_htlc_id += 1
            hop.channel.balances[hop.from_node] -= hop.amount_msat
            hop.channel.runs[hop.first_id] = hop
            hop.channel.slots_taken += 1
        run = PaymentRun(hops[0].payment_ids, hops, hold)
        self._payments[payment_id] = run
        self._log(
            "send",
            payment=payment_id,
            sender=sender,
            hops=len(hops),
            amount_msat=amount_msat,
            hold=hold,
        )
        if not hold:
            self._release(run, 0, PaymentStatus.FULFILLED)
        return payment_id

    def hold_payments(
        self,
        payment_ids: Sequence[str],
        sender: str,
        channel_path: Sequence[str],
        amount_msat: int,
    ) -> tuple[int, PaymentError | None]:
        """Send one held payment per id, all alike, until one is refused:
        how many went through, and the refusal.

        Equivalent to ``send_payment(payment_id, sender, channel_path,
        amount_msat, hold=True)`` for each id in turn, stopping at the first
        ``PaymentError``: same HTLCs, ids, balances and events. A batch
        starts with ``send_payment``, so every check runs on its first
        payment. Nothing else changes the network inside the batch, so the
        payments after it that fit are as many as the tightest hop admits:
        its free slots over the slots one payment takes there, or its side's
        balance over the escrow one payment takes there. Those join the
        first payment's run, and the next payment starts a new batch, whose
        ``send_payment`` refuses it as the loop would.
        """
        sent = 0
        while sent < len(payment_ids):
            try:
                self.send_payment(payment_ids[sent], sender, channel_path, amount_msat, hold=True)
            except PaymentError as exc:
                return sent, exc
            run = self._payments[payment_ids[sent]]
            sent += 1
            for payment_id in payment_ids[sent : sent + self._copies_that_fit(run.hops)]:
                if payment_id in self._payments:
                    break  # the next batch's send_payment rejects the reused id
                self._payments[payment_id] = run
                run.payment_ids.append(payment_id)
            # HTLC ids are numbered as if each copy in turn took one per hop.
            copies, stride = len(run.payment_ids) - 1, len(run.hops)
            for hop in run.hops:
                hop.channel.balances[hop.from_node] -= hop.amount_msat * copies
                hop.channel.slots_taken += copies
            self._next_htlc_id += copies * stride
            sent += copies
            if self.events is not None:
                for payment_id in run.payment_ids[1:]:
                    self._log("send", payment=payment_id, sender=sender, hops=stride,
                              amount_msat=amount_msat, hold=True)
        return sent, None

    def _copies_that_fit(self, hops: list[HtlcRun]) -> int:
        """How many more payments with these hops pass the slot and balance
        checks; none when each payment's hash must be checked."""
        if self.reject_duplicate_hash:
            return 0
        slots: dict[str, int] = {}
        escrow: dict[tuple[str, str], int] = {}
        for h in hops:
            cid = h.channel.channel_id
            slots[cid] = slots.get(cid, 0) + 1
            escrow[cid, h.from_node] = escrow.get((cid, h.from_node), 0) + h.amount_msat
        return min(
            min(
                (h.channel.slot_limit - h.channel.slots_taken) // slots[h.channel.channel_id],
                h.channel.balances[h.from_node] // escrow[h.channel.channel_id, h.from_node],
            )
            for h in hops
        )

    def fulfill_payment(self, payment_id: str) -> None:
        """Recipient reveals the preimage: HTLCs settle recipient→sender."""
        run, k = self._pending_payment(payment_id)
        for hop in run.hops:
            if hop.channel.state is not ChannelState.OPEN:
                raise SimulatorError(
                    f"cannot fulfill {payment_id}: {hop.channel.channel_id} force-closed"
                )
        self._release(run, k, PaymentStatus.FULFILLED)

    def fail_payment(self, payment_id: str) -> None:
        """Cancel a pending payment, restoring escrowed balances exactly.

        HTLCs stranded on force-closed channels stay there (they settle
        on-chain, outside this model); all others leave their runs.
        """
        run, k = self._pending_payment(payment_id)
        self._release(run, k, PaymentStatus.FAILED)

    def _pending_payment(self, payment_id: str) -> tuple[PaymentRun, int]:
        """A pending payment's run, and its offset there."""
        run = self._payments.get(payment_id)
        if run is None:
            raise SimulatorError(f"unknown payment {payment_id}")
        k = run.offset(payment_id)
        status = run.status(k)
        if status is not PaymentStatus.PENDING:
            raise SimulatorError(f"payment {payment_id} already {status.value}")
        return run, k

    def _release(self, run: PaymentRun, k: int, status: PaymentStatus) -> None:
        """Resolve member ``k`` recipient→sender: it leaves each hop on an open
        channel, paying the hop's recipient if fulfilled and refunding its
        sender if failed. A hop's run leaves its channel with its last member."""
        fulfilled = status is PaymentStatus.FULFILLED
        bit, everyone = 1 << k, (1 << len(run.payment_ids)) - 1
        for hop in reversed(run.hops):
            if hop.channel.state is ChannelState.OPEN:
                hop.gone |= bit
                if hop.gone == everyone:
                    del hop.channel.runs[hop.first_id]
                hop.channel.slots_taken -= 1
                hop.channel.balances[hop.to_node if fulfilled else hop.from_node] += hop.amount_msat
        if fulfilled:
            run.fulfilled |= bit
        else:
            run.failed |= bit
        self._log("fulfill" if fulfilled else "fail", payment=run.payment_ids[k])

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
            expiry = channel.min_expiry()
            if expiry is not None and expiry < self.block_height:
                channel.state = ChannelState.FORCE_CLOSED
                closed.append(cid)
                self._log("force_close", channel=cid, height=self.block_height)
        self._log("advance", blocks=n, height=self.block_height)
        return closed

    def _log(self, event: str, **detail) -> None:
        if self.events is None:
            return
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


# Every attacker channel holds all the bitcoin there will ever be, half on
# each side, so a replay can fail only on the victims' channels. What the
# attack really locks is priced by ``cost``.
ATTACKER_FUNDING_SAT = 21_000_000 * cost_mod.SAT_PER_BTC

# The attacker's own channels charge nothing leaving the attacker; the peer
# side forwards back to the attacker with a one-block delta.
_FROM_ATTACKER = ChannelPolicy(
    cltv_expiry_delta=0, htlc_minimum_msat=0, fee_base_msat=0, fee_proportional_millionths=0
)
_TO_ATTACKER = ChannelPolicy(
    cltv_expiry_delta=1, htlc_minimum_msat=0, fee_base_msat=0, fee_proportional_millionths=0
)


def _open_attacker_channel(net: SimNetwork, channel_id: str, peer: str, slot_limit: int) -> str:
    """Open (attacker, ``peer``) with ATTACKER_FUNDING_SAT split evenly, so
    payments can enter the network through it and leave it back to the
    attacker."""
    half_msat = ATTACKER_FUNDING_SAT * MSAT_PER_SAT // 2
    return net.open_channel(
        channel_id,
        ATTACKER_NODE,
        peer,
        ATTACKER_FUNDING_SAT,
        policy_a_to_b=_FROM_ATTACKER,
        policy_b_to_a=_TO_ATTACKER,
        slot_limit=slot_limit,
        balances=(half_msat, half_msat),
    )


def _try_send(
    net: SimNetwork, payment_id: str, sender: str, path: Sequence[str], amount_msat: int
) -> FailureReason | None:
    """Send one payment; the reason it failed, or None if it went through."""
    try:
        net.send_payment(payment_id, sender, path, amount_msat)
    except PaymentError as exc:
        return exc.reason
    return None


def _attack_network(net: SimNetwork, plan: AttackPlan) -> tuple[list[str], list[tuple[int, int]]]:
    """Send ``slot_class`` held payments along each route, between an entry
    and an exit channel of its own, each delivering the route's floor: the
    failures, and each locked route's lock duration."""
    failures: list[str] = []
    locks: list[tuple[int, int]] = []
    for i, route in enumerate(plan.routes, start=1):
        channels = [net.channels[h.channel_id] for h in route.hops]
        delivered = cost_mod.floor_msat(
            max(ch.dust_limit_sat for ch in channels),
            [ch.policy_from(h.from_node) for ch, h in zip(channels, route.hops)],
        )
        start, head = route.hops[0].from_node, route.hops[-1].to_node
        entry = _open_attacker_channel(net, f"atk-e{i}", start, ATTACKER_SLOT_LIMIT)
        exit_ = _open_attacker_channel(net, f"atk-x{i}", head, ATTACKER_SLOT_LIMIT)
        path = [entry, *route.channel_ids, exit_]
        ids = [f"r{i}p{j}" for j in range(route.slot_class)]
        sent, error = net.hold_payments(ids, ATTACKER_NODE, path, delivered)
        if error is not None:
            failures.append(f"route {i} payment {sent + 1}: {error.reason.value}")
        else:
            lock = min(
                net.channels[cid].min_expiry() for cid in route.channel_ids
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
        floor = cost_mod.floor_msat(
            target.dust_limit_sat, (target.policy_from(victim), target.policy_from(iso.neighbor))
        )
        entry = _open_attacker_channel(net, f"atk-v{idx}", victim, plan.entry_budget)
        exit_neighbor = None
        if not all(p.ends_at_victim for p in iso.payments):
            exit_neighbor = _open_attacker_channel(
                net, f"atk-n{idx}", iso.neighbor, ATTACKER_SLOT_LIMIT
            )
        # One batch per run of payments that cross the channel equally often.
        done = 0
        for _, run in groupby(iso.payments, key=lambda p: p.traversals):
            payments = list(run)
            exit_ = entry if payments[0].ends_at_victim else exit_neighbor
            path = [entry, *[iso.channel_id] * payments[0].traversals, exit_]
            ids = [f"iso{idx}p{j}" for j in range(done, done + len(payments))]
            sent, error = net.hold_payments(ids, ATTACKER_NODE, path, floor)
            done += sent
            if error is not None:
                reason = error.reason.value
                failures.append(f"channel {iso.channel_id} payment {done + 1}: {reason}")
                break
        expiry = target.min_expiry()
        if expiry is not None:
            locks.append((idx, expiry - net.block_height))
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
    payments_sent = sum(p.hold for p in net._payments.values())
    attacker_channels = len(net.channels) - len(set(targeted))
    locked = 0
    probes_blocked = 0
    for n, cid in enumerate(targeted):
        channel = net.channels[cid]
        used = channel.slots_used()
        if used == channel.slot_limit:
            locked += 1
        else:
            failures.append(f"channel {cid}: {used}/{channel.slot_limit} slots")
        policy = channel.policy_from(channel.node_a)
        amount = cost_mod.floor_msat(channel.dust_limit_sat, [policy])
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
        failures, locks = _attack_network(net, plan)
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


def _require(args: Sequence[str], count: int, usage: str, line_no: int) -> None:
    """Raise unless a command has at least ``count`` fields; ``usage`` says which."""
    if len(args) < count:
        raise ScenarioParseError(line_no, usage)


def _parse_int(token: str, name: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioParseError(line_no, f"{name} must be an integer, got {token!r}") from None


def _expand_route(token: str, line_no: int) -> list[str]:
    """Route syntax: comma-separated channel ids, each optionally `id*N`
    with N from 1 to MAX_ROUTE_HOPS."""
    path: list[str] = []
    for part in token.split(","):
        if "*" in part:
            cid, _, count = part.partition("*")
            name = f"repeat count in {part!r}"
            repeat = _parse_int(count, name, line_no)
            if not 1 <= repeat <= MAX_ROUTE_HOPS:
                raise ScenarioParseError(line_no, f"{name} is outside [1, {MAX_ROUTE_HOPS}]")
            path.extend([cid] * repeat)
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
            count = _parse_int(tokens[1], "repeat count", line_no)
            if count < 1:
                raise ScenarioParseError(line_no, f"repeat count must be at least 1, got {count}")
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
        _require(args, 4, "open needs: id a b capacity_sat [opts]", line_no)
        cid, node_a, node_b = args[0], args[1], args[2]
        capacity = _parse_int(args[3], "capacity_sat", line_no)
        opts = _parse_kv(args[4:], line_no)
        read = {"funder"}

        def option(key: str, default: int) -> int:
            read.add(key)
            return _parse_int(opts[key], key, line_no) if key in opts else default

        d = DEFAULT_POLICY
        delta = option("delta", d.cltv_expiry_delta)
        delta_ab, delta_ba = option("delta_ab", delta), option("delta_ba", delta)
        min_htlc = option("min_htlc", d.htlc_minimum_msat)
        fee_base = option("fee_base", d.fee_base_msat)
        fee_rate = option("fee_rate", d.fee_proportional_millionths)
        slot_limit = option("slots", ATTACKER_SLOT_LIMIT)
        dust_limit_sat = option("dust", 546)
        unknown = sorted(opts.keys() - read)
        if unknown:
            raise ScenarioParseError(line_no, f"unknown open option {unknown[0]!r}")

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
                slot_limit=slot_limit,
                dust_limit_sat=dust_limit_sat,
            )
            self._record(line_no, f"open {cid}", True)
        except SimulatorError as exc:
            self._record(line_no, f"open {cid}", False, str(exc))

    def _send(self, args: list[str], line_no: int) -> tuple[str, Exception | None]:
        """Parse and send one ``pay`` command: (payment id, the error it raised)."""
        _require(args, 4, "pay needs: id amount_msat sender route [hold] [final=N]", line_no)
        payment_id, sender = args[0], args[2]
        amount = _parse_int(args[1], "amount_msat", line_no)
        path = _expand_route(args[3], line_no)
        kwargs: dict = {"hold": False, "final_expiry": None, "payment_hash": None}
        for tok in args[4:]:
            if tok == "hold":
                kwargs["hold"] = True
            elif tok.startswith("final="):
                kwargs["final_expiry"] = _parse_int(tok.split("=", 1)[1], "final", line_no)
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

    def _resolve(self, verb: str, args: list[str], line_no: int) -> None:
        """``fulfill`` or ``fail`` one pending payment."""
        _require(args, 1, f"{verb} needs: payment_id", line_no)
        try:
            getattr(self.net, f"{verb}_payment")(args[0])
            self._record(line_no, f"{verb} {args[0]}", True)
        except SimulatorError as exc:
            self._record(line_no, verb, False, str(exc))

    _cmd_fulfill = partialmethod(_resolve, "fulfill")
    _cmd_fail = partialmethod(_resolve, "fail")

    def _cmd_advance(self, args: list[str], line_no: int) -> None:
        _require(args, 1, "advance needs: blocks", line_no)
        blocks = _parse_int(args[0], "blocks", line_no)
        try:
            self.net.advance_blocks(blocks)
            self._record(line_no, f"advance {args[0]}", True)
        except ValueError as exc:
            self._record(line_no, "advance", False, str(exc))

    def _cmd_assert_pending(self, args: list[str], line_no: int) -> None:
        _require(args, 2, "assert_pending needs: channel_id count", line_no)
        cid, expected = args[0], _parse_int(args[1], "count", line_no)
        channel = self.net.channels.get(cid)
        if channel is None:
            self._record(line_no, f"assert_pending {cid}", False, "unknown channel")
            return
        actual = channel.slots_used()
        self._record(
            line_no,
            f"assert_pending {cid} {expected}",
            actual == expected,
            "" if actual == expected else f"actual {actual}",
        )

    def _assert_state(self, verb: str, want: ChannelState, args: list[str], line_no: int) -> None:
        """``assert_open`` or ``assert_closed``: one channel's state."""
        _require(args, 1, f"{verb} needs: channel_id", line_no)
        cid = args[0]
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

    _cmd_assert_closed = partialmethod(_assert_state, "assert_closed", ChannelState.FORCE_CLOSED)
    _cmd_assert_open = partialmethod(_assert_state, "assert_open", ChannelState.OPEN)

    def _cmd_assert_fails(self, args: list[str], line_no: int) -> None:
        reason = None
        if args and args[0] != "pay":
            try:
                reason = FailureReason(args[0])
            except ValueError:
                raise ScenarioParseError(line_no, f"unknown failure reason {args[0]!r}") from None
            args = args[1:]
        if not args or args[0] != "pay":
            raise ScenarioParseError(line_no, "assert_fails expects a pay command")
        payment_id, error = self._send(args[1:], line_no)
        if error is None:
            ok, detail = False, "payment succeeded"
        elif not isinstance(error, PaymentError):
            ok, detail = False, f"misuse: {error}"
        elif reason is None or error.reason is reason:
            ok, detail = True, ""
        else:
            ok, detail = False, f"failed with {error.reason.value}, expected {reason.value}"
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
    ``repeat N <cmd>`` expands ``{i}`` for i = 1..N, N at least 1. Route
    tokens are comma-separated channel ids with an optional ``*N`` repeat
    suffix, N from 1 to MAX_ROUTE_HOPS. Any other count, or an ``open``
    option the runner does not read, raises ``ScenarioParseError``.
    """
    net = SimNetwork(reject_duplicate_hash=reject_duplicate_hash, events=[])
    return _ScenarioRunner(net).run(script)


def builtin_scenario(name: str) -> str:
    """Load a packaged scenario by name (e.g. ``experiment2``)."""
    resource = resources.files("lnjam.scenarios").joinpath(f"{name}.scn")
    if not resource.is_file():
        raise FileNotFoundError(f"no builtin scenario named {name!r}")
    return resource.read_text(encoding="utf-8")
