"""Deterministic checkpoint/restore for tick-kernel runs.

A checkpoint is a JSON document capturing *everything* a
:class:`~repro.sim.kernel.TickKernel` run needs to continue
bit-identically from a tick boundary: the swarm masks and derived pools,
the decision RNG state, the fault injector's stream and latches
(scheduled rejoins, dark links, retained state), the membership
runtime's timeline position, the credit ledger, both
:class:`~repro.core.log.TransferLog` streams (when kept), and whatever
per-engine state the policy declares through
:meth:`~repro.sim.policy.TickPolicy.capture_state`.

Format and integrity
--------------------
Documents carry ``"format": "repro/checkpoint/v1"`` (same envelope
convention as :mod:`repro.core.serde`) and a ``"digest"`` field: the
SHA-256 of the canonical (sorted-keys, compact-separator) JSON encoding
of the document *without* the digest field. :func:`load_checkpoint`
refuses torn or bit-rotted files loudly instead of resuming from garbage.

What is captured
----------------
Only state that survives a tick boundary. Intra-tick scratch (the
download ledger, the per-tick receiver pool, buffered credit sends) is
dead at a boundary and is reset, not serialized. Structures derivable
from captured state (per-block holder counts, the packed array mirror)
are recomputed on restore. Checkpoints are tick-boundary-only:
:meth:`~repro.sim.kernel.TickKernel.checkpoint` raises
:class:`~repro.core.errors.ConfigError` mid-tick.

Resuming
--------
:func:`resume_engine` rebuilds the engine via a caller-supplied factory
with the *same construction arguments* (construction replays the seeding
draws for the injector and workload streams; restore then overwrites
every RNG with its captured state) and restores the checkpoint into its
kernel. A config fingerprint (n, k, policy name, horizon, log retention)
is validated so a checkpoint is never restored into a differently-shaped
run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable

from ..core.errors import CheckpointError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "rng_state_to_json",
    "rng_state_from_json",
    "checkpoint_digest",
    "save_checkpoint",
    "load_checkpoint",
    "resume_engine",
]

#: Format tag written into every checkpoint document.
CHECKPOINT_FORMAT = "repro/checkpoint/v1"


# -- RNG state serde ---------------------------------------------------------

def rng_state_to_json(state: tuple) -> list:
    """Encode a ``random.Random.getstate()`` tuple as a JSON-shaped list.

    The Mersenne Twister state is ``(version, (int, ... 625), gauss_next)``;
    Python's JSON round-trips arbitrary-precision ints and floats (repr-
    based) exactly, so the encoding is lossless.
    """
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data: list) -> tuple:
    """Decode :func:`rng_state_to_json` back into a ``setstate()`` tuple."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


def restore_rng(rng: random.Random, data: list) -> None:
    """Restore one ``random.Random`` in place from its captured state."""
    rng.setstate(rng_state_from_json(data))


# -- envelope ----------------------------------------------------------------

def checkpoint_digest(document: dict) -> str:
    """SHA-256 over the canonical JSON encoding, digest field excluded."""
    body = {key: value for key, value in document.items() if key != "digest"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(path: str | os.PathLike, payload: dict) -> None:
    """Write ``payload`` (a ``kernel.checkpoint()`` document) atomically.

    The envelope (format tag + integrity digest) is added here; the file
    appears under its final name only once fully written and flushed, so
    a worker killed mid-write leaves the *previous* checkpoint intact.
    """
    document = dict(payload)
    document["format"] = CHECKPOINT_FORMAT
    document["digest"] = checkpoint_digest(document)
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    # One ``dumps`` and one write: ``json.dump`` streams through the
    # pure-Python encoder, ``dumps`` runs the C one (same bytes).
    text = json.dumps(document, separators=(",", ":"), allow_nan=False)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Read, format-check and digest-verify one checkpoint document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON (torn write?): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"checkpoint {path!r} is not a JSON object")
    fmt = document.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format {fmt!r}; "
            f"this build reads {CHECKPOINT_FORMAT!r}"
        )
    digest = document.get("digest")
    expected = checkpoint_digest(document)
    if digest != expected:
        raise CheckpointError(
            f"checkpoint {path!r} failed integrity verification "
            f"(digest {digest!r} != {expected!r}); refusing to resume "
            f"from a corrupt snapshot"
        )
    return document


# -- resume ------------------------------------------------------------------

def resume_engine(path: str | os.PathLike, factory: Callable[[], object]):
    """Rebuild an engine from ``factory`` and restore the checkpoint at
    ``path`` into it.

    ``factory()`` must construct the engine with the *same arguments*
    (including the seed) as the checkpointed run — construction replays
    the derived-stream seeding draws, restore then overwrites every RNG
    state — and return either a kernel or any engine facade exposing a
    ``.kernel`` attribute (all six registry engines do). Returns the
    restored engine, positioned at the checkpoint's tick boundary; call
    ``.run()`` / ``.kernel.run()`` to continue.
    """
    document = load_checkpoint(path)
    engine = factory()
    kernel = getattr(engine, "kernel", engine)
    kernel.restore_checkpoint(document)
    return engine
