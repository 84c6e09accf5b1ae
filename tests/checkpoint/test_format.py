"""The checkpoint file format and its invariants.

Property-style coverage of the two foundations everything else stands
on: (1) every RNG stream in the system — the kernel's decision stream,
the fault injector's derived stream, the workload compiler's child
stream — round-trips through the JSON serde with its full draw sequence
intact; (2) the envelope (format tag + SHA-256 digest, atomic writes)
refuses torn, tampered and foreign files loudly. Plus the boundary
contract: checkpoints are tick-boundary-only.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    checkpoint_digest,
    load_checkpoint,
    restore_rng,
    rng_state_from_json,
    rng_state_to_json,
    save_checkpoint,
)
from repro.core.errors import ConfigError
from repro.randomized.engine import RandomizedEngine


class TestRngRoundTrip:
    """getstate() -> JSON -> setstate() must preserve the draw sequence."""

    def _roundtrip(self, rng: random.Random) -> random.Random:
        data = json.loads(json.dumps(rng_state_to_json(rng.getstate())))
        twin = random.Random()
        twin.setstate(rng_state_from_json(data))
        return twin

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**62 + 3])
    @pytest.mark.parametrize("warmup", [0, 1, 17, 625, 1000])
    def test_uniform_streams(self, seed: int, warmup: int) -> None:
        rng = random.Random(seed)
        for _ in range(warmup):
            rng.random()
        twin = self._roundtrip(rng)
        assert [rng.getrandbits(63) for _ in range(50)] == [
            twin.getrandbits(63) for _ in range(50)
        ]
        assert [rng.random() for _ in range(50)] == [
            twin.random() for _ in range(50)
        ]

    def test_gauss_carry_is_preserved(self) -> None:
        # gauss() draws in pairs and caches the second value in
        # gauss_next — the one piece of RNG state outside the Mersenne
        # word array. A checkpoint between the pair must carry it.
        rng = random.Random(7)
        rng.gauss(0.0, 1.0)  # leaves the paired value cached
        twin = self._roundtrip(rng)
        assert [rng.gauss(0.0, 1.0) for _ in range(9)] == [
            twin.gauss(0.0, 1.0) for _ in range(9)
        ]

    def test_derived_child_streams(self) -> None:
        """The construction-replay discipline: the injector's and the
        workload compiler's streams are seeded with draws from the
        decision stream, so a round-tripped parent reproduces exactly
        the same children."""
        parent = random.Random(11)
        twin = self._roundtrip(parent)
        for _ in range(3):
            child = random.Random(parent.getrandbits(63))
            twin_child = random.Random(twin.getrandbits(63))
            assert [child.random() for _ in range(20)] == [
                twin_child.random() for _ in range(20)
            ]

    def test_restore_rng_mutates_in_place(self) -> None:
        # restore_rng must act on the *same* object (the injector keeps
        # a bound-method cache of its rng; replacing the object would
        # silently orphan it).
        rng = random.Random(3)
        reference = random.Random(3)
        data = rng_state_to_json(reference.getstate())
        expected = [reference.random() for _ in range(10)]
        rng.random()  # advance past the captured point
        held = rng.random  # simulates the injector's cached bound method
        restore_rng(rng, json.loads(json.dumps(data)))
        assert [held() for _ in range(10)] == expected


class TestEnvelope:
    def _payload(self) -> dict:
        return {"tick": 3, "rng": [3, [1, 2, 3], None], "masks": [7, 0, 1]}

    def test_save_load_roundtrip(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self._payload())
        document = load_checkpoint(path)
        assert document["format"] == CHECKPOINT_FORMAT
        for key, value in self._payload().items():
            assert document[key] == value
        assert not list(tmp_path.glob("*.tmp.*")), "tmp file left behind"

    def test_digest_ignores_itself(self) -> None:
        document = dict(self._payload(), format=CHECKPOINT_FORMAT)
        digest = checkpoint_digest(document)
        assert checkpoint_digest(dict(document, digest=digest)) == digest

    def test_rejects_tampered_payload(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self._payload())
        document = json.loads(path.read_text(encoding="utf-8"))
        document["tick"] = 4  # bit-rot / hand edit
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_rejects_torn_json(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self._payload())
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        with pytest.raises(CheckpointError, match="torn write"):
            load_checkpoint(path)

    def test_rejects_unknown_format(self, tmp_path) -> None:
        path = tmp_path / "run.ckpt"
        document = {"format": "repro/checkpoint/v999", "tick": 1}
        document["digest"] = checkpoint_digest(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CheckpointError, match="v999"):
            load_checkpoint(path)

    def test_rejects_missing_file(self, tmp_path) -> None:
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_overwrite_is_atomic_under_kill(self, tmp_path) -> None:
        # A writer killed mid-save must leave the previous checkpoint
        # intact: the new document only appears via os.replace. Simulate
        # the kill by writing the tmp file and never renaming it.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self._payload())
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write('{"half": ')
        assert load_checkpoint(path)["tick"] == 3


class TestRestoreBoundary:
    @pytest.mark.parametrize("stream", ["transfers", "failures"])
    def test_log_values_outside_int32_are_config_errors(self, stream) -> None:
        # A checkpoint document is external JSON: a log row that does not
        # fit the int32 columns must fail naming its stream and row.
        engine = RandomizedEngine(8, 4, rng=1)
        for _ in range(3):
            engine.kernel.step()
        document = json.loads(json.dumps(engine.kernel.checkpoint()))
        rows = document["log"][stream]
        rows.append([3, 0, 2**31, 0])
        fresh = RandomizedEngine(8, 4, rng=1).kernel
        with pytest.raises(
            ConfigError, match=rf"{stream} row {len(rows) - 1} \[3, 0, 2147483648, 0\]"
        ):
            fresh.restore_checkpoint(document)


class TestTickBoundaryOnly:
    def test_checkpoint_refused_mid_tick(self) -> None:
        engine = RandomizedEngine(8, 4, rng=1)
        kernel = engine.kernel
        seen: dict[str, bool] = {}
        original = kernel.policy.run_tick

        def probing_run_tick(snapshot):
            with pytest.raises(ConfigError, match="tick-boundary-only"):
                kernel.checkpoint()
            seen["refused"] = True
            return original(snapshot)

        kernel.policy.run_tick = probing_run_tick
        kernel.step()
        assert seen["refused"]
        # And at the boundary it works again.
        payload = kernel.checkpoint()
        assert payload["tick"] == 1

    def test_arm_checkpoints_validation(self, tmp_path) -> None:
        kernel = RandomizedEngine(8, 4, rng=1).kernel
        with pytest.raises(ConfigError, match=">= 1"):
            kernel.arm_checkpoints(0, sink=lambda p: None)
        with pytest.raises(ConfigError, match="exactly one"):
            kernel.arm_checkpoints(1)
        with pytest.raises(ConfigError, match="exactly one"):
            kernel.arm_checkpoints(
                1, path=str(tmp_path / "x.ckpt"), sink=lambda p: None
            )
