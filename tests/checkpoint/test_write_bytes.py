"""Checkpoint and summary-batch files are encoded in one ``json.dumps``.

``json.dump`` streams through the pure-Python encoder; the writers
encode once with the C encoder and write the text at once. The bytes on
disk must be exactly what both encoders produce for the same options,
and the digest and load round trips must be unchanged.
"""

from __future__ import annotations

import io
import json

from repro.campaign import BatchEngineRun, derive_seed
from repro.campaign.summaries import SummaryBatch
from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults import FaultPlan
from repro.sim.registry import create_engine


def _payloads() -> list[dict]:
    """Boundary documents of an async run with crashes and loss: big
    ints (masks, RNG words), floats (event times) and nested lists."""
    payloads: dict[int, dict] = {}
    engine = create_engine(
        "async",
        12,
        6,
        rng=7,
        faults=FaultPlan(loss_rate=0.1, crash_rate=0.05, rejoin_delay=2),
        max_ticks=400,
    )
    engine.kernel.arm_checkpoints(
        1, sink=lambda p: payloads.setdefault(p["tick"], p)
    )
    engine.run()
    return [payloads[tick] for tick in sorted(payloads)]


def test_checkpoint_bytes_match_both_encoders(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    for payload in _payloads():
        save_checkpoint(path, payload)
        raw = path.read_bytes()
        document = dict(payload, format=CHECKPOINT_FORMAT)
        document["digest"] = checkpoint_digest(document)
        streamed = io.StringIO()
        json.dump(document, streamed, separators=(",", ":"), allow_nan=False)
        assert raw == streamed.getvalue().encode("utf-8")
        assert raw == json.dumps(
            document, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        loaded = load_checkpoint(path)
        assert loaded["digest"] == document["digest"]
        assert loaded == json.loads(json.dumps(document))
    assert not list(tmp_path.glob("*.tmp.*")), "tmp file left behind"


def test_summary_batch_bytes_match_both_encoders(tmp_path) -> None:
    factory = BatchEngineRun.configure("randomized", 16, 8)
    batch = factory(None, [derive_seed(5, None, i) for i in range(3)])
    batch.meta["in_flight"] = None
    path = str(tmp_path / "progress.json")
    batch.save(path)
    with open(path, "rb") as handle:
        raw = handle.read()
    streamed = io.StringIO()
    json.dump(batch.to_doc(), streamed, sort_keys=True)
    assert raw == streamed.getvalue().encode("utf-8")
    assert raw == json.dumps(batch.to_doc(), sort_keys=True).encode("utf-8")
    loaded = SummaryBatch.load(path)
    assert loaded.to_doc() == batch.to_doc()
    assert not list(tmp_path.glob("*.tmp.*")), "tmp file left behind"
