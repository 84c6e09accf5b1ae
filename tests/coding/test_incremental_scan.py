"""Differential oracle for the coding engine's incremental destination scan.

:meth:`CodingTickPolicy._pick_destination` tests span containment from a
per-pair innovation cursor instead of reducing every sender row against
every receiver each tick, and reads a node's start-of-tick span as a
prefix of its append-only rows instead of a per-tick sorted copy. The
reference policy here is the scan as it was before: a pivot-descending
``Gf2Basis`` snapshot of every node per tick, and a full
``has_innovative_for`` test per candidate. Every run below must be
byte-identical between the two: all log streams, the verdict and the
whole ``meta`` (which carries the coefficient-vector streams).

The matrix crosses both fields and both overlay kinds with each way a
basis object is replaced or a node's eligibility changes outside the
monotone within-tick rules: crash and rejoin, arrivals and naps, a
free-riding adversary and per-node download tiers. A cursor that
survives a replaced basis, or trusts a stale failure rank, diverges
here.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.adversary import AdversaryPlan
from repro.coding.engine import CodingTickPolicy, NetworkCodingEngine
from repro.coding.gf2 import Gf2Basis
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.model import SERVER
from repro.core.serde import log_to_dict
from repro.faults import FaultPlan
from repro.overlays.graph import CompleteGraph
from repro.overlays.random_regular import random_regular_graph
from repro.workloads import AvailabilityProfile, WorkloadSpec

N, K, DEGREE = 20, 8, 4
MAX_TICKS = 400

FIELDS = ("binary", "ideal")
OVERLAYS = ("complete", "sparse")
SCENARIOS = ("none", "faults", "workload", "adversary", "bandwidth")


class _ReferencePolicy(CodingTickPolicy):
    """The coding tick as it was before the innovation cursors."""

    def run_tick(self, snapshot):
        kernel = self.kernel
        rng = kernel.rng
        k = kernel.k
        dl_left = kernel.download_ledger
        attempt = kernel.attempt
        bases = self.bases
        snapshots = [list(b.basis_rows()) for b in bases]
        server_ok = kernel.server_available()
        riders = (
            kernel.adversary.free_riders_at(kernel.tick)
            if kernel.adversary is not None
            else frozenset()
        )
        uploaders = [
            v
            for v in range(kernel.n)
            if snapshots[v] and (v != SERVER or server_ok) and v not in riders
        ]
        rng.shuffle(uploaders)
        server_rounds = kernel.model.server_upload
        for src in uploaders:
            rounds = server_rounds if src == SERVER else 1
            src_basis = Gf2Basis(k, snapshots[src])
            for _ in range(rounds):
                dst = self._reference_pick(src, src_basis, dl_left)
                if dst is None:
                    break
                vector = src_basis.random_member(rng)
                if self.field == "ideal":
                    while bases[dst].contains(vector):
                        vector = src_basis.random_member(rng)
                self._vector = vector
                delivered = attempt(src, dst, vector.bit_length() - 1)
                if kernel.keep_log:
                    if delivered:
                        self.coding_vectors.append(vector)
                    else:
                        self.coding_failed_vectors.append(vector)

    def _reference_pick(self, src, src_basis, dl_left):
        kernel = self.kernel
        bases = self.bases
        if isinstance(kernel.graph, CompleteGraph):
            pool = [v for v in range(kernel.n) if not bases[v].is_full()]
        else:
            pool = list(kernel.graph.neighbors(src))
        absent = kernel.absent
        pool = [
            v
            for v in pool
            if v != src
            and v not in absent
            and (dl_left is None or dl_left[v] > 0)
            and not bases[v].is_full()
            and src_basis.has_innovative_for(bases[v])
        ]
        if not pool:
            return None
        return pool[kernel.rng.randrange(len(pool))]


class _ReferenceEngine(NetworkCodingEngine):
    _tick_policy_cls = _ReferencePolicy


def _scenario(name: str) -> dict:
    if name == "none":
        return {}
    if name == "faults":
        return {
            "faults": FaultPlan(
                loss_rate=0.1,
                crash_rate=0.03,
                rejoin_delay=3,
                rejoin_retention=0.5,
                max_crashes=6,
            )
        }
    if name == "workload":
        return {
            "workload": WorkloadSpec(
                initial_fraction=0.5,
                arrival_rate=0.6,
                arrival_stop=20,
                availability=(AvailabilityProfile("nap", 0.4, 8, 0.6),),
            )
        }
    if name == "adversary":
        return {
            "adversary": AdversaryPlan(
                free_riders=(3, 7), active_from=2, active_until=25
            )
        }
    if name == "bandwidth":
        tiers = (
            BandwidthTier("fast", 0.3, upload=1, download=3),
            BandwidthTier("slow", 0.7, upload=1, download=1),
        )
        return {"bandwidth": BandwidthClasses(tiers)}
    raise ValueError(name)


def _build(reference: bool, field: str, overlay: str, scenario: str, seed: int):
    options = {"field": field, "rng": seed, "max_ticks": MAX_TICKS}
    if overlay == "sparse":
        options["overlay"] = random_regular_graph(N, DEGREE, rng=seed)
    options.update(_scenario(scenario))
    cls = _ReferenceEngine if reference else NetworkCodingEngine
    return cls(N, K, **options)


def _fingerprint(result) -> str:
    return json.dumps(
        {
            "log": log_to_dict(result.log, result.n, result.k),
            "completion_time": result.completion_time,
            "abort": result.abort,
            "meta": result.meta,
        },
        sort_keys=True,
        default=repr,
    )


@pytest.mark.parametrize(
    "field,overlay,scenario", list(itertools.product(FIELDS, OVERLAYS, SCENARIOS))
)
@pytest.mark.parametrize("seed", (3, 17))
def test_incremental_scan_matches_reference(field, overlay, scenario, seed):
    expected = _build(True, field, overlay, scenario, seed).run()
    actual = _build(False, field, overlay, scenario, seed).run()
    assert _fingerprint(actual) == _fingerprint(expected)


def _count_reductions(engine, monkeypatch) -> int:
    residue = Gf2Basis.residue
    count = 0

    def counting(self, vector):
        nonlocal count
        count += 1
        return residue(self, vector)

    with monkeypatch.context() as patch:
        patch.setattr(Gf2Basis, "residue", counting)
        engine.run()
    return count


def test_cursors_skip_reductions(monkeypatch):
    """The matrix above is only evidence if the cursors actually answer:
    a plain run needs well under half the reference's reductions."""
    actual, expected = (
        _count_reductions(_build(ref, "binary", "complete", "none", 3), monkeypatch)
        for ref in (False, True)
    )
    assert 0 < actual < expected / 2
