"""Barter mechanisms: the constraints a transfer log must obey.

The paper studies a spectrum of mechanisms (Section 3), each constraining
which client-to-client transfers are allowed. Uploads *by the server* are
always exempt — the server is the content source and wants nothing back.

Each mechanism here plays two roles:

* an **online gate** for the randomized engines: ``allows(src, dst)``
  consults state accumulated so far (e.g. a credit ledger) to decide if an
  upload may be scheduled;
* an **offline checker** for the verifier: ``check_tick(tick, transfers)``
  is called once per tick with the client-to-client transfers of that tick
  and must raise :class:`~repro.core.errors.ScheduleViolation` on any
  breach. Simultaneity-based mechanisms (strict and triangular barter) can
  only be judged per-tick, which is why the verifier feeds whole ticks.

Balances are judged *at tick start*: a tick's transfers are simultaneous,
so an exchange ``a <-> b`` within one tick is symmetric and leaves both
balances unchanged — this matches the paper's synchronous model.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from .errors import ConfigError, ScheduleViolation
from .ledger import CreditLedger
from .log import Transfer
from .model import SERVER

__all__ = [
    "Mechanism",
    "Cooperative",
    "StrictBarter",
    "CreditLimitedBarter",
    "TriangularBarter",
]


class Mechanism:
    """Base class; behaves as fully cooperative (no constraints)."""

    #: Human-readable mechanism name (used in run metadata and reports).
    name = "mechanism"

    def reset(self) -> None:
        """Clear accumulated state before a new run/verification pass."""

    def allows(self, src: int, dst: int) -> bool:
        """Online gate: may ``src`` upload one block to ``dst`` this tick?

        Server uploads are always allowed.
        """
        return True

    def check_tick(self, tick: int, transfers: Sequence[Transfer]) -> None:
        """Offline check of one tick's *client-to-client* transfers.

        Implementations must raise :class:`ScheduleViolation` on a breach
        and update any cross-tick state (ledgers) otherwise.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Cooperative(Mechanism):
    """No constraint: every node uploads freely (Section 2)."""

    name = "cooperative"


class StrictBarter(Mechanism):
    """Strict barter (Section 3.1).

    A client transfers a block to another client only if it simultaneously
    receives a block from that same client in return. Per tick, the
    client-to-client transfers must therefore decompose into symmetric
    pairs: for every ``a -> b`` transfer there is exactly one matching
    ``b -> a`` transfer in the same tick.
    """

    name = "strict-barter"

    def allows(self, src: int, dst: int) -> bool:
        # Scheduling simultaneous exchanges needs pairwise matching, which a
        # per-upload gate cannot express; engines must propose paired
        # exchanges (see randomized.exchange) and verification is per-tick.
        return src == SERVER

    def check_tick(self, tick: int, transfers: Sequence[Transfer]) -> None:
        sends: dict[tuple[int, int], int] = defaultdict(int)
        for t in transfers:
            sends[(t.src, t.dst)] += 1
        for (a, b), count in sends.items():
            reverse = sends.get((b, a), 0)
            if count != reverse:
                raise ScheduleViolation(
                    f"strict barter violated: {a} sent {count} block(s) to {b} "
                    f"but received {reverse} in return",
                    tick=tick,
                    rule="strict-barter",
                )


class CreditLimitedBarter(Mechanism):
    """Credit-limited barter (Section 3.2).

    Node ``a`` uploads to ``b`` only while the net flow ``a -> b`` stays
    within the credit limit ``s``. Two intra-tick semantics are supported:

    * strict (default): every transfer is judged against the balance at
      tick start — a simultaneous return does not create headroom;
    * ``intra_tick_netting=True``: transfers within a tick offset each
      other before judging (the paper's "credit for uploads is granted at
      the end of the upload" reading, under which the binomial pipeline's
      simultaneous exchanges stay within ``s = 1`` forever — the
      tightness claim of Section 3.2.2).

    The randomized engine's online gate always uses the strict semantics
    (an uploader cannot know what it will receive later in the tick).

    ``tier_multipliers`` is the paid-tier differentiated-service policy
    for heterogeneous swarms (:mod:`repro.core.bandwidth`): a mapping of
    tier name to an integer multiplier >= 1 applied to the credit limit
    *extended to receivers of that tier* — paying for a tier buys a node
    more unreciprocated credit from its peers, relaxing the barter
    constraint toward it. The mapping is resolved into per-node limits
    via :meth:`bind_tiers` once the run's tier assignment is realized
    (the kernel does this when both a credit mechanism and a
    ``BandwidthClasses`` spec are attached); the online gate and the
    offline checker judge against the same per-node limits.
    """

    name = "credit-limited"

    def __init__(
        self,
        credit_limit: int,
        intra_tick_netting: bool = False,
        tier_multipliers: dict[str, int] | None = None,
    ) -> None:
        if credit_limit < 1:
            raise ConfigError(
                f"credit limit must be >= 1 (0 would forbid all first blocks); "
                f"got {credit_limit}"
            )
        self.credit_limit = credit_limit
        self.intra_tick_netting = intra_tick_netting
        self.tier_multipliers = dict(tier_multipliers or {})
        for tier, mult in self.tier_multipliers.items():
            if int(mult) != mult or mult < 1:
                raise ConfigError(
                    f"tier {tier!r} credit multiplier must be an integer "
                    f">= 1, got {mult!r}"
                )
        self._node_limits: dict[int, int] = {}
        self.ledger = CreditLedger()

    def reset(self) -> None:
        self.ledger = CreditLedger()

    def bind_tiers(self, model) -> None:
        """Resolve ``tier_multipliers`` into per-node limits against a
        realized :class:`~repro.core.bandwidth.HeterogeneousModel`.

        No-op without multipliers. With multipliers, the model must carry
        a tier assignment covering every multiplied tier name.
        """
        self._node_limits = {}
        if not self.tier_multipliers:
            return
        tier_name = getattr(model, "tier_name", None)
        if tier_name is None or not getattr(model, "tier_of", ()):
            raise ConfigError(
                "credit tier multipliers need a realized tier assignment; "
                "attach a BandwidthClasses spec to the run"
            )
        unknown = set(self.tier_multipliers) - set(model.tier_names)
        if unknown:
            raise ConfigError(
                f"credit multipliers name unknown tiers {sorted(unknown)}; "
                f"spec tiers are {list(model.tier_names)}"
            )
        for node in range(1, model.n):
            mult = self.tier_multipliers.get(tier_name(node))
            if mult is not None:
                self._node_limits[node] = self.credit_limit * int(mult)

    def limit_for(self, dst: int) -> int:
        """Credit limit peers extend to ``dst`` (tier-multiplied)."""
        return self._node_limits.get(dst, self.credit_limit)

    def allows(self, src: int, dst: int) -> bool:
        # ``ledger.within_limit(src, dst, limit_for(dst))`` flattened to one
        # lookup on the canonical pair: this gate sits on the randomized
        # engine's hottest loop.
        if src == SERVER:
            return True
        if src < dst:
            net = self.ledger._net.get((src, dst), 0)
        elif src > dst:
            net = -self.ledger._net.get((dst, src), 0)
        else:
            raise ConfigError(f"a node cannot barter with itself (node {src})")
        return net < self._node_limits.get(dst, self.credit_limit)

    def note_send(self, src: int, dst: int) -> None:
        """Engines call this when they commit an upload."""
        if src != SERVER and dst != SERVER:
            self.ledger.record_send(src, dst)

    def check_tick(self, tick: int, transfers: Sequence[Transfer]) -> None:
        sends: dict[tuple[int, int], int] = defaultdict(int)
        for t in transfers:
            sends[(t.src, t.dst)] += 1
        for (a, b), count in sends.items():
            balance = self.ledger.balance(a, b)
            offset = sends.get((b, a), 0) if self.intra_tick_netting else 0
            limit = self.limit_for(b)
            if balance + count - offset > limit:
                raise ScheduleViolation(
                    f"credit limit exceeded: {a} -> {b} balance {balance} "
                    f"plus {count} new send(s)"
                    f"{f' minus {offset} returned' if offset else ''} "
                    f"breaches limit {limit}",
                    tick=tick,
                    rule="credit-limit",
                )
        for (a, b), count in sends.items():
            self.ledger.record_send(a, b, count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.tier_multipliers:
            mults = ", ".join(
                f"{t}x{m}" for t, m in sorted(self.tier_multipliers.items())
            )
            return f"CreditLimitedBarter(s={self.credit_limit}, tiers=[{mults}])"
        return f"CreditLimitedBarter(s={self.credit_limit})"


class TriangularBarter(Mechanism):
    """Triangular barter with a credit limit (Section 3.3).

    Credit may be used transitively around short simultaneous cycles:
    ``a`` uploads to ``b`` while ``b`` uploads to ``c`` and ``c`` uploads
    to ``a``. We formalise the combination with a credit limit ``s`` as:
    within each tick, cancel transfers along directed cycles of length at
    most ``max_cycle`` (2-cycles are plain exchanges, 3-cycles are
    triangles); the *residual* one-way transfers are charged to a pairwise
    ledger which must stay within ``s``, judged at tick start.

    ``coalitions`` optionally merges groups of physical nodes into one
    economic unit — the paper's doubled hypercube vertices act as one
    logical node, and transfers inside a coalition are free.
    """

    name = "triangular-barter"

    def __init__(
        self,
        credit_limit: int = 1,
        max_cycle: int = 3,
        coalitions: Sequence[Sequence[int]] = (),
    ) -> None:
        if credit_limit < 1:
            raise ConfigError(f"credit limit must be >= 1, got {credit_limit}")
        if max_cycle not in (2, 3):
            raise ConfigError(
                f"cycles of length 2 or 3 are supported, got {max_cycle}"
            )
        self.credit_limit = credit_limit
        self.max_cycle = max_cycle
        self._unit: dict[int, int] = {}
        for group in coalitions:
            members = list(group)
            for member in members:
                if member in self._unit:
                    raise ConfigError(f"node {member} appears in two coalitions")
                self._unit[member] = members[0]
        self.ledger = CreditLedger()

    def reset(self) -> None:
        self.ledger = CreditLedger()

    def unit(self, node: int) -> int:
        """Economic unit a node belongs to (itself if not in a coalition)."""
        return self._unit.get(node, node)

    def allows(self, src: int, dst: int) -> bool:
        if src == SERVER:
            return True
        a, b = self.unit(src), self.unit(dst)
        if a == b:
            return True
        return self.ledger.within_limit(a, b, self.credit_limit)

    def check_tick(self, tick: int, transfers: Sequence[Transfer]) -> None:
        sends: dict[tuple[int, int], int] = defaultdict(int)
        for t in transfers:
            a, b = self.unit(t.src), self.unit(t.dst)
            if a != b:
                sends[(a, b)] += 1

        self._cancel_two_cycles(sends)
        if self.max_cycle >= 3:
            self._cancel_three_cycles(sends)

        for (a, b), count in sends.items():
            if count <= 0:
                continue
            balance = self.ledger.balance(a, b)
            if balance + count > self.credit_limit:
                raise ScheduleViolation(
                    f"triangular barter violated: residual flow {a} -> {b} "
                    f"of {count} on balance {balance} breaches credit limit "
                    f"{self.credit_limit}",
                    tick=tick,
                    rule="triangular-barter",
                )
        for (a, b), count in sends.items():
            if count > 0:
                self.ledger.record_send(a, b, count)

    @staticmethod
    def _cancel_two_cycles(sends: dict[tuple[int, int], int]) -> None:
        for (a, b) in list(sends):
            if a < b and (b, a) in sends:
                cancel = min(sends[(a, b)], sends[(b, a)])
                sends[(a, b)] -= cancel
                sends[(b, a)] -= cancel

    @staticmethod
    def _cancel_three_cycles(sends: dict[tuple[int, int], int]) -> None:
        # Greedy cancellation: enough for the structured schedules we verify;
        # a maximum cycle packing is NP-hard in general and unnecessary here.
        out: dict[int, set[int]] = defaultdict(set)
        for (a, b), count in sends.items():
            if count > 0:
                out[a].add(b)
        changed = True
        while changed:
            changed = False
            for (a, b), count in list(sends.items()):
                if count <= 0:
                    continue
                for c in list(out.get(b, ())):
                    if sends.get((b, c), 0) > 0 and sends.get((c, a), 0) > 0:
                        cancel = min(
                            sends[(a, b)], sends[(b, c)], sends[(c, a)]
                        )
                        sends[(a, b)] -= cancel
                        sends[(b, c)] -= cancel
                        sends[(c, a)] -= cancel
                        changed = True
                        break

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TriangularBarter(s={self.credit_limit}, "
            f"max_cycle={self.max_cycle}, coalitions={len(set(self._unit.values()))})"
        )
