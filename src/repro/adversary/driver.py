"""Per-run adversary realisation: the stateful half of an AdversaryPlan.

One :class:`AdversaryDriver` serves one run of one engine. Like the
fault injector it owns its own :class:`random.Random` stream, separate
from the engine's, so the *decision sequence* of a run (who uploads what
to whom) is never perturbed by merely asking adversary questions — and a
given ``(plan, seed)`` pair always realises the same adversary sets and
per-attempt verdicts for the same sequence of queries. Plans that need
no randomness at all (explicit free-riders only) are realised without
any RNG, so they cost zero draws from every stream.

Engines integrate through three hooks, all driven by the kernel's
attempt pipeline:

* :meth:`free_riders_at` — the set of clients refusing to upload this
  tick (empty outside the plan's activation window); policies exclude
  them from uploader selection exactly like the historical ``selfish``
  set;
* :meth:`refuses` — whether the receiver has blacklisted the sender
  (strike-based defense); a refused attempt costs nothing and is not
  logged — the pair simply no longer talks;
* :meth:`judge` — per committed attempt, whether the delivery is
  ``"polluted"`` (corrupted block, caught by the receiver's integrity
  check) or ``"phantom"`` (advertised but never sent). Either verdict
  burns the attempt's bandwidth and credit, accrues a strike against
  the sender, and delivers nothing.
"""

from __future__ import annotations

import random

from ..checkpoint import rng_state_from_json, rng_state_to_json
from ..core.errors import ConfigError
from .plan import AdversaryPlan

__all__ = ["AdversaryDriver", "POLLUTED", "PHANTOM"]

#: :meth:`AdversaryDriver.judge` verdicts (``None`` means clean).
POLLUTED = "polluted"
PHANTOM = "phantom"

_EMPTY: frozenset[int] = frozenset()


class AdversaryDriver:
    """Stateful adversary stream for one run; see module docstring.

    Attributes (telemetry, read by engines for run metadata)
    ----------
    attempts:
        Attempts judged while the plan was active.
    polluted, phantoms:
        Bad deliveries issued, by kind.
    blocked:
        Attempts silently refused because the pair is blacklisted.
    bans:
        Blacklist entries issued by the strike defense.
    """

    __slots__ = (
        "plan",
        "rng",
        "n",
        "free_riders",
        "polluters",
        "liars",
        "attempts",
        "polluted",
        "phantoms",
        "blocked",
        "bans",
        "ban_log",
        "_strikes",
        "_banned",
        # Hot-path caches (judge/refuses run once per attempted
        # transfer; plan attribute chains add up at engine scale).
        "_pollution_rate",
        "_lie_rate",
        "_active_from",
        "_active_until",
        "_strike_threshold",
    )

    def __init__(
        self, plan: AdversaryPlan, n: int, rng: random.Random | int | None
    ) -> None:
        if plan.is_null:
            raise ConfigError(
                "a null AdversaryPlan declares nothing; engines should not "
                "build a driver for it"
            )
        if plan.needs_rng and rng is None:
            raise ConfigError(
                f"plan {plan!r} needs randomness but no rng was given"
            )
        self.plan = plan
        self.n = n
        self.rng = (
            rng if rng is None or isinstance(rng, random.Random)
            else random.Random(rng)
        )
        for name in ("free_riders", "polluters", "liars"):
            for v in getattr(plan, name):
                if v >= n:
                    raise ConfigError(
                        f"{name} id {v} out of range for a swarm of {n} nodes"
                    )
        # Realised adversary sets: explicit ids plus a sampled fraction
        # of the remaining client population. Sampling order is fixed
        # (riders, polluters, liars) so the draw sequence is a pure
        # function of (plan, seed).
        self.free_riders = self._realize(plan.free_riders, plan.free_rider_fraction)
        self.polluters = self._realize(plan.polluters, plan.polluter_fraction)
        self.liars = self._realize(plan.liars, plan.liar_fraction)
        self.attempts = 0
        self.polluted = 0
        self.phantoms = 0
        self.blocked = 0
        self.bans = 0
        # Receiver defense: (dst, src) -> bad deliveries seen; a pair
        # reaching the threshold lands in the blacklist and the event
        # history (tick, dst, src) — which verify_log replays.
        self._strikes: dict[tuple[int, int], int] = {}
        self._banned: set[tuple[int, int]] = set()
        self.ban_log: list[tuple[int, int, int]] = []
        self._pollution_rate = plan.pollution_rate
        self._lie_rate = plan.lie_rate
        self._active_from = plan.active_from
        self._active_until = plan.active_until
        self._strike_threshold = plan.strike_threshold

    def _realize(self, explicit: tuple[int, ...], fraction: float) -> frozenset[int]:
        ids = set(explicit)
        if fraction > 0.0:
            pool = [v for v in range(1, self.n) if v not in ids]
            extra = min(round(fraction * (self.n - 1)), len(pool))
            if extra:
                ids.update(self.rng.sample(pool, extra))
        return frozenset(ids)

    # -- activation --------------------------------------------------------

    def active(self, tick: int) -> bool:
        """Whether the plan's activation window covers ``tick``."""
        return self._active_from <= tick and (
            self._active_until is None or tick <= self._active_until
        )

    def free_riders_at(self, tick: int) -> frozenset[int]:
        """Clients refusing to upload this tick (empty when inactive)."""
        return self.free_riders if self.active(tick) else _EMPTY

    # -- attempt pipeline --------------------------------------------------

    def refuses(self, src: int, dst: int) -> bool:
        """Whether ``dst`` has blacklisted ``src``; counts the refusal."""
        if (src, dst) in self._banned:
            self.blocked += 1
            return True
        return False

    def blacklisted(self, src: int, dst: int) -> bool:
        """Whether ``dst`` has blacklisted ``src``, without counting a
        refusal (for engines that plan around bans before attempting)."""
        return (src, dst) in self._banned

    def judge(self, tick: int, src: int, dst: int) -> str | None:
        """Judge one committed attempt; a non-``None`` verdict means the
        attempt consumed its capacity (and credit) but delivered nothing
        the receiver keeps.

        Pollution is judged before lying (a node declared as both rolls
        pollution first); each roll happens only for declared adversaries
        so the draw sequence never depends on honest traffic.
        """
        if not self.active(tick):
            return None
        self.attempts += 1
        if src in self.polluters and self.rng.random() < self._pollution_rate:
            self.polluted += 1
            self._strike(tick, src, dst)
            return POLLUTED
        if src in self.liars and self.rng.random() < self._lie_rate:
            self.phantoms += 1
            self._strike(tick, src, dst)
            return PHANTOM
        return None

    def _strike(self, tick: int, src: int, dst: int) -> None:
        threshold = self._strike_threshold
        if threshold <= 0:
            return
        key = (dst, src)
        count = self._strikes.get(key, 0) + 1
        self._strikes[key] = count
        if count == threshold:
            self._banned.add((src, dst))
            self.bans += 1
            self.ban_log.append((tick, dst, src))

    # -- engine reasoning --------------------------------------------------

    def zero_attempt_conclusive(self, tick: int) -> bool:
        """Whether a tick with *zero attempted transfers* proves deadlock.

        Pollution and lying only spoil attempts — they never create new
        eligibility — and bans only remove pairs, permanently. The one
        adversarial way a stuck swarm can revive is free-riders whose
        activation window *ends*: the blocks they hoarded become
        uploadable again. That is exactly the exception.
        """
        return not (
            self.free_riders
            and self._active_until is not None
            and self._active_from <= tick <= self._active_until
        )

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Snapshot the adversary stream for a tick-boundary checkpoint.

        Everything per-run and mutable: the RNG state (absent for
        deterministic plans, which hold none), the telemetry counters and
        the defense state (strikes, blacklist, ban history). The realised
        adversary sets are construction-time (replayed seed draws rebuild
        them identically) and are not captured.
        """
        state: dict[str, object] = {
            "attempts": self.attempts,
            "polluted": self.polluted,
            "phantoms": self.phantoms,
            "blocked": self.blocked,
            "bans": self.bans,
            "strikes": [
                [dst, src, count]
                for (dst, src), count in sorted(self._strikes.items())
            ],
            "banned": [[src, dst] for src, dst in sorted(self._banned)],
            "ban_log": [list(event) for event in self.ban_log],
        }
        if self.rng is not None:
            state["rng"] = rng_state_to_json(self.rng.getstate())
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`capture_state` output in place."""
        if self.rng is not None:
            self.rng.setstate(rng_state_from_json(state["rng"]))
        self.attempts = state["attempts"]
        self.polluted = state["polluted"]
        self.phantoms = state["phantoms"]
        self.blocked = state["blocked"]
        self.bans = state["bans"]
        self._strikes = {
            (dst, src): count for dst, src, count in state["strikes"]
        }
        self._banned = {(src, dst) for src, dst in state["banned"]}
        self.ban_log = [
            (tick, dst, src) for tick, dst, src in state["ban_log"]
        ]

    # -- run metadata ------------------------------------------------------

    def telemetry(self) -> dict[str, int]:
        """Counters for run metadata."""
        return {
            "adversary_attempts": self.attempts,
            "polluted_transfers": self.polluted,
            "phantom_transfers": self.phantoms,
            "blocked_attempts": self.blocked,
            "bans": self.bans,
        }

    def realized(self) -> dict[str, list[int]]:
        """The sampled adversary sets, JSON-shaped, for run metadata.

        The robustness analysis reads these back (free-rider vs
        contributor completion gap needs to know who actually rode).
        """
        out: dict[str, list[int]] = {}
        if self.free_riders:
            out["free_riders"] = sorted(self.free_riders)
        if self.polluters:
            out["polluters"] = sorted(self.polluters)
        if self.liars:
            out["liars"] = sorted(self.liars)
        return out

    def events(self) -> dict[str, list[list[int]]]:
        """Ban event history, JSON-shaped, for run metadata.

        :func:`repro.core.verify.verify_log` re-derives the bans
        independently (``strike_threshold=``) rather than trusting this
        list; it is metadata for analysis (time-to-isolate).
        """
        if not self.ban_log:
            return {}
        return {"ban_events": [list(e) for e in self.ban_log]}
