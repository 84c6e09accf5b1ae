"""Per-node download capacities in :func:`repro.coding.verify.verify_coding_log`.

Under bandwidth tiers the realised model gives each node its own
download capacity; the vector-level verifier must check each node
against its own, as :func:`repro.core.verify.verify_log` does, not
against the model's scalar ``download`` view.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.coding import NetworkCodingEngine, verify_coding_log
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.errors import ScheduleViolation
from repro.core.log import TransferLog
from repro.core.model import SERVER

N, K = 24, 12

# Every client downloads at least 2 per tick, so the scalar view is 2
# while the server keeps the base capacity of 1.
TIERS = BandwidthClasses(
    (
        BandwidthTier("fast", 0.3, upload=1, download=4),
        BandwidthTier("cable", 0.7, upload=1, download=2),
    )
)


def _tiered_run():
    engine = NetworkCodingEngine(N, K, rng=5, bandwidth=TIERS)
    return engine.run(), engine.kernel.model


def test_tiered_run_verifies_against_its_realised_model():
    result, model = _tiered_run()
    assert result.completed
    # Non-vacuous: some node took more than the tightest client cap in a
    # tick, which only its own tier allows.
    peaks = [
        max(Counter(t.dst for t in rows).values())
        for rows in result.log.by_tick().values()
    ]
    assert max(peaks) > model.download
    report = verify_coding_log(result, N, K, model)
    assert report["transfers"] == len(result.log)


def test_row_over_one_nodes_cap_is_rejected():
    result, model = _tiered_run()
    assert model.download_capacity(SERVER) == 1 < model.download == 2
    # Redirect two client uploads of one tick to the server: two
    # downloads fit the scalar cap but not the server's own.
    rows = result.log.rows("transfers")
    tick = next(
        t
        for t, group in result.log.by_tick().items()
        if sum(row.src != SERVER for row in group) >= 2
    )
    moved = 0
    for row in rows:
        if row[0] == tick and row[1] != SERVER and moved < 2:
            row[2] = SERVER
            moved += 1
    log = TransferLog()
    log.extend_batch(rows, result.log.rows("failures"))
    mutant = replace(result, log=log)
    with pytest.raises(ScheduleViolation) as err:
        verify_coding_log(mutant, N, K, model, require_completion=False)
    assert err.value.rule == "download-capacity"
    assert err.value.tick == tick
