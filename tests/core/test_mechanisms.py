"""Tests for barter mechanisms (strict, credit-limited, triangular)."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError, ScheduleViolation
from repro.core.log import Transfer
from repro.core.mechanisms import (
    Cooperative,
    CreditLimitedBarter,
    StrictBarter,
    TriangularBarter,
)


def tick(entries):
    """Client-to-client transfers of a single tick."""
    return [Transfer(1, src, dst, block) for src, dst, block in entries]


class TestCooperative:
    def test_allows_everything(self):
        m = Cooperative()
        assert m.allows(1, 2)
        m.check_tick(1, tick([(1, 2, 0), (3, 4, 1)]))  # no exception


class TestStrictBarter:
    def test_paired_exchange_passes(self):
        m = StrictBarter()
        m.check_tick(1, tick([(1, 2, 0), (2, 1, 1)]))

    def test_one_way_transfer_fails(self):
        m = StrictBarter()
        with pytest.raises(ScheduleViolation) as e:
            m.check_tick(1, tick([(1, 2, 0)]))
        assert e.value.rule == "strict-barter"

    def test_unbalanced_counts_fail(self):
        m = StrictBarter()
        with pytest.raises(ScheduleViolation):
            m.check_tick(1, tick([(1, 2, 0), (1, 2, 1), (2, 1, 0)]))

    def test_multiple_pairs_pass(self):
        m = StrictBarter()
        m.check_tick(1, tick([(1, 2, 0), (2, 1, 1), (3, 4, 2), (4, 3, 3)]))

    def test_triangle_fails_strict(self):
        m = StrictBarter()
        with pytest.raises(ScheduleViolation):
            m.check_tick(1, tick([(1, 2, 0), (2, 3, 1), (3, 1, 2)]))

    def test_online_gate_only_server(self):
        m = StrictBarter()
        assert m.allows(0, 5)
        assert not m.allows(5, 6)


class TestCreditLimitedBarter:
    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigError):
            CreditLimitedBarter(0)

    def test_first_block_free_within_limit(self):
        m = CreditLimitedBarter(1)
        m.check_tick(1, tick([(1, 2, 0)]))
        assert m.ledger.balance(1, 2) == 1

    def test_limit_breach_detected(self):
        m = CreditLimitedBarter(1)
        m.check_tick(1, tick([(1, 2, 0)]))
        with pytest.raises(ScheduleViolation) as e:
            m.check_tick(2, tick([(1, 2, 1)]))
        assert e.value.rule == "credit-limit"

    def test_simultaneous_exchange_keeps_balance(self):
        m = CreditLimitedBarter(1)
        m.check_tick(1, tick([(1, 2, 0), (2, 1, 1)]))  # both start at balance 0
        assert m.ledger.balance(1, 2) == 0
        m.check_tick(2, tick([(1, 2, 2), (2, 1, 3)]))  # can repeat forever
        assert m.ledger.balance(1, 2) == 0

    def test_simultaneous_judged_at_tick_start(self):
        # Balance at start is 1 (= limit): even a simultaneous return does
        # not authorize another send this tick.
        m = CreditLimitedBarter(1)
        m.check_tick(1, tick([(1, 2, 0)]))
        with pytest.raises(ScheduleViolation):
            m.check_tick(2, tick([(1, 2, 1), (2, 1, 2)]))

    def test_repayment_then_send_ok(self):
        m = CreditLimitedBarter(1)
        m.check_tick(1, tick([(1, 2, 0)]))
        m.check_tick(2, tick([(2, 1, 1)]))  # balance back to 0
        m.check_tick(3, tick([(1, 2, 2)]))  # fine again

    def test_online_gate(self):
        m = CreditLimitedBarter(1)
        assert m.allows(1, 2)
        m.note_send(1, 2)
        assert not m.allows(1, 2)
        assert m.allows(2, 1)
        assert m.allows(0, 2)  # server exempt

    def test_online_gate_matches_ledger(self):
        # The gate reads the ledger's canonical pair directly; it must
        # agree with the public within_limit for both directions and any
        # balance, and refuse a self-pair like the ledger does.
        m = CreditLimitedBarter(2)
        for src, dst in [(1, 2), (2, 1), (1, 2), (3, 1), (1, 2), (2, 3)]:
            m.note_send(src, dst)
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    if a != b:
                        assert m.allows(a, b) == m.ledger.within_limit(a, b, 2)
        with pytest.raises(ConfigError, match="itself"):
            m.allows(4, 4)

    def test_note_send_ignores_server(self):
        m = CreditLimitedBarter(1)
        m.note_send(0, 2)
        assert m.ledger.balance(0, 2) == 0

    def test_reset_clears_ledger(self):
        m = CreditLimitedBarter(1)
        m.note_send(1, 2)
        m.reset()
        assert m.allows(1, 2)

    def test_netting_allows_exchange_at_limit(self):
        m = CreditLimitedBarter(1, intra_tick_netting=True)
        m.check_tick(1, tick([(1, 2, 0)]))  # balance 1 = limit
        # Strict semantics would reject; netting lets the exchange through.
        m.check_tick(2, tick([(1, 2, 1), (2, 1, 2)]))
        assert m.ledger.balance(1, 2) == 1

    def test_netting_still_catches_oneway_overrun(self):
        m = CreditLimitedBarter(1, intra_tick_netting=True)
        m.check_tick(1, tick([(1, 2, 0)]))
        with pytest.raises(ScheduleViolation):
            m.check_tick(2, tick([(1, 2, 1)]))

    def test_higher_limit(self):
        m = CreditLimitedBarter(3)
        for t in range(1, 4):
            m.check_tick(t, tick([(1, 2, t)]))
        with pytest.raises(ScheduleViolation):
            m.check_tick(4, tick([(1, 2, 9)]))


class TestTierCreditMultipliers:
    """Paid-tier differentiated service: per-receiver credit limits."""

    def _model(self):
        from repro.core.bandwidth import BandwidthClasses, BandwidthTier

        spec = BandwidthClasses(
            tiers=(
                BandwidthTier("fast", 0.5, upload=1, download=2),
                BandwidthTier("dsl", 0.5, upload=1, download=1),
            )
        )
        return spec.realize(10, seed=3)

    def test_rejects_bad_multipliers(self):
        with pytest.raises(ConfigError):
            CreditLimitedBarter(1, tier_multipliers={"fast": 0})
        with pytest.raises(ConfigError):
            CreditLimitedBarter(1, tier_multipliers={"fast": 1.5})

    def test_bind_requires_realized_tiers(self):
        from repro.core.model import BandwidthModel

        m = CreditLimitedBarter(1, tier_multipliers={"fast": 3})
        with pytest.raises(ConfigError):
            m.bind_tiers(BandwidthModel.symmetric())

    def test_bind_rejects_unknown_tier_names(self):
        m = CreditLimitedBarter(1, tier_multipliers={"fiber": 2})
        with pytest.raises(ConfigError, match="fiber"):
            m.bind_tiers(self._model())

    def test_limits_follow_tier_assignment(self):
        model = self._model()
        m = CreditLimitedBarter(2, tier_multipliers={"fast": 3})
        m.bind_tiers(model)
        for node in range(1, model.n):
            expected = 6 if model.tier_name(node) == "fast" else 2
            assert m.limit_for(node) == expected

    def test_bind_without_multipliers_is_noop(self):
        m = CreditLimitedBarter(2)
        from repro.core.model import BandwidthModel

        m.bind_tiers(BandwidthModel.symmetric())  # no error
        assert m.limit_for(5) == 2

    def test_paid_receiver_gets_more_unreciprocated_credit(self):
        model = self._model()
        paid = next(
            v for v in range(1, model.n) if model.tier_name(v) == "fast"
        )
        unpaid = next(
            v for v in range(1, model.n) if model.tier_name(v) == "dsl"
        )
        m = CreditLimitedBarter(1, tier_multipliers={"fast": 2})
        m.bind_tiers(model)
        src = next(v for v in range(1, model.n) if v not in (paid, unpaid))
        # Two one-way sends toward the paid tier pass...
        m.check_tick(1, tick([(src, paid, 0)]))
        m.check_tick(2, tick([(src, paid, 1)]))
        # ...but the unpaid tier still caps at the base limit.
        m.check_tick(3, tick([(src, unpaid, 0)]))
        with pytest.raises(ScheduleViolation):
            m.check_tick(4, tick([(src, unpaid, 1)]))

    def test_online_gate_matches_offline_checker(self):
        model = self._model()
        paid = next(
            v for v in range(1, model.n) if model.tier_name(v) == "fast"
        )
        m = CreditLimitedBarter(1, tier_multipliers={"fast": 2})
        m.bind_tiers(model)
        src = next(v for v in range(1, model.n) if v != paid)
        assert m.allows(src, paid)
        m.note_send(src, paid)
        assert m.allows(src, paid)  # limit 2, one outstanding
        m.note_send(src, paid)
        assert not m.allows(src, paid)

    def test_repr_names_multipliers(self):
        m = CreditLimitedBarter(2, tier_multipliers={"fast": 3})
        assert "fastx3" in repr(m)


class TestTriangularBarter:
    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            TriangularBarter(0)
        with pytest.raises(ConfigError):
            TriangularBarter(1, max_cycle=4)
        with pytest.raises(ConfigError):
            TriangularBarter(coalitions=[(1, 2), (2, 3)])

    def test_two_cycle_cancels(self):
        m = TriangularBarter(1)
        for t in range(1, 5):  # repeated exchanges never accumulate credit
            m.check_tick(t, tick([(1, 2, t), (2, 1, t + 10)]))
        assert m.ledger.balance(1, 2) == 0

    def test_three_cycle_cancels(self):
        m = TriangularBarter(1)
        for t in range(1, 5):
            m.check_tick(t, tick([(1, 2, 0), (2, 3, 1), (3, 1, 2)]))
        assert m.ledger.balance(1, 2) == 0

    def test_three_cycle_rejected_when_max_cycle_2(self):
        m = TriangularBarter(1, max_cycle=2)
        m.check_tick(1, tick([(1, 2, 0), (2, 3, 1), (3, 1, 2)]))
        with pytest.raises(ScheduleViolation):
            m.check_tick(2, tick([(1, 2, 3), (2, 3, 4), (3, 1, 5)]))

    def test_residual_charged_to_credit(self):
        m = TriangularBarter(1)
        m.check_tick(1, tick([(1, 2, 0)]))  # one-way: uses the credit line
        with pytest.raises(ScheduleViolation):
            m.check_tick(2, tick([(1, 2, 1)]))

    def test_coalition_internal_transfers_free(self):
        m = TriangularBarter(1, coalitions=[(1, 2)])
        for t in range(1, 5):
            m.check_tick(t, tick([(1, 2, t)]))
        assert m.ledger.balance(1, 2) == 0

    def test_coalition_external_exchange_counts_as_unit(self):
        # 1 and 2 form a unit; 1 sends to 3 while 3 sends to 2: a 2-cycle
        # at the unit level, so no credit accumulates across many ticks.
        m = TriangularBarter(1, coalitions=[(1, 2)])
        for t in range(1, 6):
            m.check_tick(t, tick([(1, 3, t), (3, 2, t + 10)]))
        assert m.ledger.balance(m.unit(1), 3) == 0

    def test_unit_mapping(self):
        m = TriangularBarter(1, coalitions=[(4, 7)])
        assert m.unit(4) == m.unit(7) == 4
        assert m.unit(5) == 5

    def test_online_gate(self):
        m = TriangularBarter(1)
        assert m.allows(0, 1)  # server exempt
        assert m.allows(1, 2)
        m.ledger.record_send(1, 2)
        assert not m.allows(1, 2)
