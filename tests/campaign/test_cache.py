"""Tests for the content-addressed result cache."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.campaign.cache import (
    ResultCache,
    cache_key,
    default_salt,
    fn_fingerprint,
)
from repro.campaign.model import Job
from repro.core.log import RunResult, TransferLog


@dataclass(frozen=True)
class ParamFactory:
    """Stand-in for a run factory carrying scale-dependent parameters."""

    k: int

    def __call__(self, point: object, seed: int) -> RunResult:
        raise NotImplementedError


def make_result(n: int = 4, k: int = 2, completion: int | None = 7) -> RunResult:
    completions = {c: completion for c in range(1, n)} if completion else {}
    return RunResult(
        n=n,
        k=k,
        completion_time=completion,
        client_completions=completions,
        log=TransferLog(),
        meta={"algorithm": "test", "seed": 123},
    )


def make_job(point: object = 10, replicate: int = 0, seed: int = 42) -> Job:
    return Job(
        experiment="exp", point=point, replicate=replicate, seed=seed, fn=None
    )


class TestCacheKey:
    def test_stable(self):
        assert cache_key("fig3", 100, 7) == cache_key("fig3", 100, 7)

    def test_sensitive_to_every_component(self):
        base = cache_key("fig3", 100, 7, replicate=0, salt="s")
        assert cache_key("fig4", 100, 7, replicate=0, salt="s") != base
        assert cache_key("fig3", 101, 7, replicate=0, salt="s") != base
        assert cache_key("fig3", 100, 8, replicate=0, salt="s") != base
        assert cache_key("fig3", 100, 7, replicate=1, salt="s") != base
        assert cache_key("fig3", 100, 7, replicate=0, salt="t") != base

    def test_point_types_disambiguated(self):
        # repr() keys: the int 1 and the string "1" must not collide.
        assert cache_key("e", 1, 0) != cache_key("e", "1", 0)

    def test_factory_params_differentiate_keys(self):
        # Figure 3's point is n alone — k lives inside the factory, and
        # scales reuse the same points with different k. The factory's
        # parameters must therefore be part of the key.
        base = cache_key("fig3", 100, 7, fn=ParamFactory(k=250))
        assert cache_key("fig3", 100, 7, fn=ParamFactory(k=1000)) != base
        assert cache_key("fig3", 100, 7, fn=ParamFactory(k=250)) == base

    def test_fig3_scales_never_collide(self):
        # The concrete regression: fig3 sweeps share points across scales
        # (n=100 exists at lite/xl/full) while k differs per scale, so a
        # shared cache dir must key each scale's runs separately.
        from repro.experiments.figures import _CooperativeVsN
        from repro.experiments.scale import SCALES

        keys = {
            cache_key("fig3", 100, 7, fn=_CooperativeVsN(s.fig3_k))
            for s in SCALES.values()
        }
        assert len(keys) == len({s.fig3_k for s in SCALES.values()})

    def test_default_salt_includes_code_version(self):
        assert default_salt().startswith("v")


class TestPinnedCacheKeys:
    """Literal keys for registry-engine factories, one per scenario axis.

    A campaign cache stays valid only while these bytes do: a change to a
    factory's fields, a spec's repr or the default salt must come with a
    ``CODE_VERSION`` bump and a deliberate update here.
    """

    @staticmethod
    def _factories():
        from repro.adversary import AdversaryPlan
        from repro.campaign.factories import BatchEngineRun, EngineRun
        from repro.core.bandwidth import BandwidthClasses, BandwidthTier
        from repro.faults import FaultPlan
        from repro.telemetry import TelemetrySpec
        from repro.workloads import WorkloadSpec

        cable = BandwidthTier("cable", 0.5, upload=2, download=4)
        return {
            "plain": EngineRun.configure("randomized", 16, 8),
            "faults": EngineRun.configure(
                "exchange", 16, 8,
                faults=FaultPlan(loss_rate=0.1, crash_rate=0.01, rejoin_delay=3),
            ),
            "workload": EngineRun.configure(
                "churn", 16, 8,
                workload=WorkloadSpec(initial_fraction=0.5, arrival_rate=0.3),
            ),
            "adversary": EngineRun.configure(
                "bittorrent", 16, 8,
                adversary=AdversaryPlan(free_rider_fraction=0.25),
            ),
            "bandwidth+telemetry": EngineRun.configure(
                "async", 16, 8,
                bandwidth=BandwidthClasses(tiers=(cable,)),
                telemetry=TelemetrySpec(),
            ),
            "batch": BatchEngineRun.configure(
                "randomized", 16, 8, backend="array"
            ),
        }

    KEYS = {
        "plain": "4bfaf96cd5ecb233e2cb72178d3eed755d7b727c6e540a58b4cac85a309ff90f",
        "faults": "9aac23b5ab462c477724e71d3d05f23c2f310d8faed110e9d1d21c991134cb4e",
        "workload": "ad9aa0b3c99bac408a77d8b1c982d44b9810b0fd26ab624ec1ec057f31f90a37",
        "adversary": "1afce6540006b4ff87b10734cbd18c7d4db840a9216d76c9e4e657e8d8d97cff",
        "bandwidth+telemetry": (
            "839107ae48654ba55550d9d668280aab75eb160fdafa7e19473fd773c015f18b"
        ),
        "batch": "86c9c38453024282a61253ac3acb4fc8583cff220f3d7a608725f097e939cb00",
    }

    def test_keys_are_pinned(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SALT", raising=False)
        keys = {
            name: cache_key("exp", 10, 42, replicate=1, fn=fn)
            for name, fn in self._factories().items()
        }
        assert keys == self.KEYS


class TestFnFingerprint:
    def test_dataclass_factory_spells_out_params(self):
        fp = fn_fingerprint(ParamFactory(k=250))
        assert "ParamFactory(k=250)" in fp
        assert fp != fn_fingerprint(ParamFactory(k=1000))

    def test_stable_across_calls(self):
        assert fn_fingerprint(ParamFactory(k=3)) == fn_fingerprint(
            ParamFactory(k=3)
        )

    def test_plain_function_keyed_by_qualified_name(self):
        fp = fn_fingerprint(make_result)
        assert fp.endswith("make_result")
        assert "0x" not in fp

    def test_default_object_repr_never_leaks_addresses(self):
        # A callable without a dataclass repr would embed a memory
        # address; the fingerprint must fall back to the type name.
        class Opaque:
            def __call__(self, point: object, seed: int) -> None: ...

        fp = fn_fingerprint(Opaque())
        assert "0x" not in fp
        assert "Opaque" in fp

    def test_none_is_empty(self):
        assert fn_fingerprint(None) == ""


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(make_job()) is None

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, make_result())
        restored = cache.get(job)
        assert restored is not None
        assert restored.n == 4
        assert restored.k == 2
        assert restored.completion_time == 7
        assert restored.completed
        assert restored.client_completions == {1: 7, 2: 7, 3: 7}
        assert restored.mean_completion == 7.0
        assert restored.meta["algorithm"] == "test"

    def test_timeout_result_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, make_result(completion=None))
        restored = cache.get(job)
        assert restored is not None
        assert not restored.completed
        assert restored.completion_time is None

    def test_persists_across_instances(self, tmp_path):
        job = make_job()
        ResultCache(tmp_path).put(job, make_result())
        reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(job) is not None

    def test_salt_change_invalidates(self, tmp_path):
        job = make_job()
        ResultCache(tmp_path, salt="a").put(job, make_result())
        assert ResultCache(tmp_path, salt="a").get(job) is not None
        assert ResultCache(tmp_path, salt="b").get(job) is None

    def test_factory_params_invalidate(self, tmp_path):
        # Same experiment/point/seed at two scales (k baked into the
        # factory): a shared cache dir must treat them as distinct tasks.
        cache = ResultCache(tmp_path)
        lite = Job(
            experiment="fig3", point=100, replicate=0, seed=7,
            fn=ParamFactory(k=250),
        )
        full = Job(
            experiment="fig3", point=100, replicate=0, seed=7,
            fn=ParamFactory(k=1000),
        )
        cache.put(lite, make_result())
        assert cache.get(lite) is not None
        assert cache.get(full) is None

    def test_tolerates_truncated_tail(self, tmp_path):
        # An interrupted (or SIGKILLed) run leaves a half-written final
        # line; everything before it must still load, and the torn tail
        # must be surfaced as a warning, not silently dropped.
        cache = ResultCache(tmp_path)
        job = make_job()
        cache.put(job, make_result())
        with cache.path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "deadbeef", "result": {"n"')
        with pytest.warns(UserWarning, match="truncated record"):
            reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(job) is not None

    def test_warns_on_mid_file_garbage_with_line_number(self, tmp_path):
        # Append-then-flush guarantees only the *final* line can be torn
        # by a crash; a bad line earlier in the file is corruption and is
        # reported with its position while intact records still load.
        cache = ResultCache(tmp_path)
        first, second = make_job(point=1), make_job(point=2)
        cache.put(first, make_result())
        lines = cache.path.read_text(encoding="utf-8")
        cache.path.write_text(lines + "not json\n", encoding="utf-8")
        cache.put(second, make_result())
        with pytest.warns(UserWarning, match="line 2 is not valid JSON"):
            reopened = ResultCache(tmp_path)
        assert len(reopened) == 2
        assert reopened.get(first) is not None
        assert reopened.get(second) is not None

    def test_unpicklable_meta_stringified(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = make_job()
        result = make_result()
        result.meta["policy"] = object()
        cache.put(job, result)
        restored = cache.get(job)
        assert isinstance(restored.meta["policy"], str)


class TestWorkloadFingerprint:
    """EngineRun's workload field must reach the cache fingerprint: a
    cached closed-batch result must never be served for an open-system
    sweep of the same engine (and vice versa)."""

    def _factories(self):
        from repro.campaign.factories import EngineRun
        from repro.workloads import WorkloadSpec

        closed = EngineRun.configure("randomized", 8, 4)
        spec = WorkloadSpec(initial_fraction=0.5, arrival_rate=0.3)
        open_ = EngineRun.configure("randomized", 8, 4, workload=spec)
        return closed, open_, spec

    def test_fingerprints_differ(self):
        closed, open_, _ = self._factories()
        assert fn_fingerprint(closed) != fn_fingerprint(open_)

    def test_cache_keys_differ(self):
        closed, open_, _ = self._factories()
        assert cache_key("exp", 10, 42, fn=closed, salt="s") != cache_key(
            "exp", 10, 42, fn=open_, salt="s"
        )

    def test_spec_parameters_enter_the_fingerprint(self):
        from repro.campaign.factories import EngineRun
        from repro.workloads import WorkloadSpec

        a = EngineRun.configure(
            "randomized", 8, 4, workload=WorkloadSpec(arrival_rate=0.3)
        )
        b = EngineRun.configure(
            "randomized", 8, 4, workload=WorkloadSpec(arrival_rate=0.4)
        )
        assert fn_fingerprint(a) != fn_fingerprint(b)

    def test_workload_passed_through_to_the_engine(self):
        _, open_, spec = self._factories()
        result = open_({}, 5)
        assert result.meta["workload"] == spec.describe()
        assert "joined_at" in result.meta
