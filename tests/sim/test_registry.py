"""Cross-engine conformance suite for the :mod:`repro.sim` registry.

Every registered engine must honor one contract: constructed by name with
the same kernel options, returning a :class:`~repro.core.log.RunResult`
with the uniform ``None | deadlock | stall | max-ticks`` abort verdict,
seed-stable output, a working progress callback, honored fault plans
(crashes included), and capabilities that are exactly its policy class's
declarations. The suite is parametrized over the registry itself, so
adding an engine automatically subjects it to the contract.

Log verification is tiered by what an engine's log *means*:

* block-semantic engines (randomized, churn, exchange, bittorrent) log
  real block transfers, so :func:`repro.core.verify.verify_log` replays
  them against the full model;
* ``coding`` logs the *pivot* of each coefficient vector — two deliveries
  of the same pivot to one node are legal (different vectors), so the
  model's usefulness rule does not apply and the log gets
  well-formedness checks instead;
* ``async`` logs continuous-time transfers quantised to unit windows —
  several may land in one tick without violating the continuous model,
  so capacity rules do not apply either.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.core.log import RunResult
from repro.core.verify import verify_log
from repro.experiments.runner import main
from repro.faults import FaultPlan
from repro.sim import (
    ENGINES,
    TickPolicy,
    create_engine,
    default_backend,
    engine_names,
    registry,
    run_engine,
)
from repro.sim.policy import ADVERSARY_SUPPORT_LEVELS, BANDWIDTH_SUPPORT_LEVELS

from .capture_golden import result_fingerprint

# One small-but-nontrivial configuration per registry entry. ``churn``
# exercises its scheduling surface; everything else runs plain.
CASES: dict[str, dict] = {
    "randomized": {"n": 16, "k": 6},
    "churn": {"n": 16, "k": 6, "arrivals": {3: 2}, "departures": {5: 8}},
    "exchange": {"n": 16, "k": 6},
    "bittorrent": {"n": 16, "k": 6},
    "coding": {"n": 12, "k": 5},
    "async": {"n": 12, "k": 5},
}

# Engines whose logged entries are literal block transfers under the
# paper's capacity model (see module docstring for the exclusions).
BLOCK_SEMANTIC = ("randomized", "churn", "exchange", "bittorrent")

SEED = 2024


def _case(name: str) -> tuple[int, int, dict]:
    kwargs = dict(CASES[name])
    return kwargs.pop("n"), kwargs.pop("k"), kwargs


def test_every_engine_has_a_case() -> None:
    assert sorted(CASES) == sorted(engine_names())


def test_unknown_engine_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown engine"):
        create_engine("riffle", 8, 4)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_returns_uniform_runresult(name: str) -> None:
    n, k, kwargs = _case(name)
    result = run_engine(name, n, k, rng=SEED, **kwargs)
    assert isinstance(result, RunResult)
    assert result.completed
    assert result.meta["abort"] is None
    assert result.meta["deadlocked"] is False
    assert result.meta["algorithm"]
    assert len(result.log), "a completed run must have logged transfers"


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_max_ticks_abort_is_uniform(name: str) -> None:
    n, k, kwargs = _case(name)
    result = run_engine(name, n, k, rng=SEED, max_ticks=2, **kwargs)
    assert not result.completed
    assert result.completion_time is None
    assert result.meta["abort"] == "max-ticks"
    assert result.meta["deadlocked"] is False


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_seed_stable_twice(name: str) -> None:
    n, k, kwargs = _case(name)
    first = result_fingerprint(run_engine(name, n, k, rng=SEED, **kwargs))
    second = result_fingerprint(run_engine(name, n, k, rng=SEED, **kwargs))
    assert first == second


@pytest.mark.parametrize("name", BLOCK_SEMANTIC)
def test_block_semantic_logs_verify(name: str) -> None:
    n, k, kwargs = _case(name)
    result = run_engine(name, n, k, rng=SEED, **kwargs)
    verify_log(
        result.log,
        n,
        k,
        # Churn departures leave absent clients legitimately incomplete.
        require_completion=(name != "churn"),
    )


@pytest.mark.parametrize("name", ("coding", "async"))
def test_non_block_logs_are_well_formed(name: str) -> None:
    n, k, kwargs = _case(name)
    result = run_engine(name, n, k, rng=SEED, **kwargs)
    last = 0
    for t in result.log:
        assert t.tick >= max(1, last)  # ordered, one-indexed ticks
        last = t.tick
        assert t.src != t.dst
        assert 0 <= t.src < n and 0 <= t.dst < n
        assert 0 <= t.block < k


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_progress_callback(name: str) -> None:
    n, k, kwargs = _case(name)
    calls: list[tuple[int, int]] = []
    result = run_engine(
        name, n, k, rng=SEED, progress=lambda t, made: calls.append((t, made)), **kwargs
    )
    assert calls
    ticks = [t for t, _ in calls]
    assert ticks == sorted(ticks)
    # Every delivery is announced through the callback, no more, no less.
    assert sum(made for _, made in calls) == len(result.log)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_loss_plan_accepted_everywhere(name: str) -> None:
    n, k, kwargs = _case(name)
    plan = FaultPlan(loss_rate=0.2)
    result = run_engine(name, n, k, rng=SEED, faults=plan, **kwargs)
    assert isinstance(result, RunResult)
    assert result.log.failures, "a lossy run at this seed records failed attempts"
    assert "failed_transfers" in result.meta


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_crash_plan_honored_or_rejected(name: str) -> None:
    """Every engine carries node crashes: a crash plan runs, never drops."""
    n, k, kwargs = _case(name)
    plan = FaultPlan(crash_rate=0.01, rejoin_delay=3, rejoin_retention=0.5)
    result = run_engine(name, n, k, rng=SEED, faults=plan, **kwargs)
    assert isinstance(result, RunResult)
    assert result.meta["faults"] == plan.describe()


# -- capabilities: declared once, on the policy class -----------------------

# The whole capability table, pinned in one place (docs/API.md has the
# per-axis parity tables): (array backend, adversary_support,
# bandwidth_support).
PARITY = {
    "randomized": (True, "full", "full"),
    "churn": (True, "full", "full"),
    "exchange": (True, "full", "download"),
    "bittorrent": (False, "full", "full"),
    "coding": (False, "free-riders", "download"),
    "async": (False, "full", "full"),
}


def test_parity_table() -> None:
    assert {
        name: (s.array_backend, s.adversary_support, s.bandwidth_support)
        for name, s in ENGINES.items()
    } == PARITY


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_spec_capabilities_are_the_policy_declarations(name: str) -> None:
    spec = ENGINES[name]
    cls = spec.policy_class
    assert issubclass(cls, TickPolicy)
    assert spec.array_backend is cls.supports_array
    assert spec.adversary_support == cls.adversary_support
    assert spec.bandwidth_support == cls.bandwidth_support
    assert cls.adversary_support in ADVERSARY_SUPPORT_LEVELS
    assert cls.bandwidth_support in BANDWIDTH_SUPPORT_LEVELS


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_spec_names_the_policy_the_engine_runs(name: str) -> None:
    n, k, kwargs = _case(name)
    engine = create_engine(name, n, k, rng=SEED, **kwargs)
    assert type(engine.kernel.policy) is ENGINES[name].policy_class


def test_engines_listing_shows_derived_columns(capsys) -> None:
    assert main(["engines"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["engine", "array", "adversary", "bandwidth"]
    assert set(rule) == {"-"}
    listed = {row.split()[0]: tuple(row.split()[1:4]) for row in rows}
    assert listed == {
        name: ("yes" if array else "no", adversary, bandwidth)
        for name, (array, adversary, bandwidth) in PARITY.items()
    }


# -- ambient backend ---------------------------------------------------------


@pytest.mark.parametrize("name", ["randomized", "bittorrent"])
def test_bad_repro_backend_is_refused_on_use(monkeypatch, name: str) -> None:
    """A misspelt ``REPRO_BACKEND`` must fail loudly on every engine, not
    fall back to the loop (bittorrent) or blame an unnamed backend."""
    monkeypatch.setattr(registry, "_DEFAULT_BACKEND", "arary")
    with pytest.raises(ConfigError, match="REPRO_BACKEND='arary'.*'loop' or 'array'"):
        default_backend()
    n, k, kwargs = _case(name)
    with pytest.raises(ConfigError, match="REPRO_BACKEND"):
        run_engine(name, n, k, rng=SEED, **kwargs)
    # An explicit backend never consults the ambient default.
    assert run_engine(name, n, k, rng=SEED, backend="loop", **kwargs).completed
