"""Bandwidth class specs, their realization, and engine support levels."""

from __future__ import annotations

import pytest

from repro.core.bandwidth import (
    BandwidthClasses,
    BandwidthTier,
    HeterogeneousModel,
)
from repro.core.errors import ConfigError
from repro.core.model import SERVER, BandwidthModel

_BROADBAND = BandwidthClasses(
    tiers=(
        BandwidthTier("fast", 0.25, upload=2, download=4),
        BandwidthTier("cable", 0.50, upload=1, download=2),
        BandwidthTier("dsl", 0.25, upload=1, download=1),
    )
)


class TestTierValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ConfigError):
            BandwidthTier("", 0.5)

    @pytest.mark.parametrize("share", [0.0, -0.1, 1.5])
    def test_rejects_bad_share(self, share):
        with pytest.raises(ConfigError):
            BandwidthTier("fast", share)

    def test_rejects_sub_baseline_upload(self):
        with pytest.raises(ConfigError):
            BandwidthTier("slow", 0.5, upload=0)

    def test_rejects_download_below_upload(self):
        with pytest.raises(ConfigError):
            BandwidthTier("odd", 0.5, upload=3, download=2)

    def test_unbounded_download_allowed(self):
        tier = BandwidthTier("fiber", 0.2, upload=4, download=None)
        assert tier.download is None


class TestSpecValidation:
    def test_null_spec(self):
        spec = BandwidthClasses()
        assert spec.is_null
        assert spec.describe() == "uniform"
        with pytest.raises(ConfigError):
            spec.realize(10, seed=1)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigError):
            BandwidthClasses(
                tiers=(BandwidthTier("a", 0.3), BandwidthTier("a", 0.3))
            )

    def test_rejects_shares_over_one(self):
        with pytest.raises(ConfigError):
            BandwidthClasses(
                tiers=(BandwidthTier("a", 0.7), BandwidthTier("b", 0.7))
            )

    def test_reserved_default_name(self):
        # "default" may not shadow the implicit remainder tier...
        with pytest.raises(ConfigError):
            BandwidthClasses(tiers=(BandwidthTier("default", 0.5),))
        # ...but is fine when the explicit shares cover everyone.
        BandwidthClasses(
            tiers=(BandwidthTier("default", 0.5), BandwidthTier("fast", 0.5))
        )

    def test_spec_is_hashable_with_stable_repr(self):
        assert hash(_BROADBAND) == hash(
            BandwidthClasses(tiers=tuple(_BROADBAND.tiers))
        )
        assert repr(_BROADBAND) == repr(
            BandwidthClasses(tiers=tuple(_BROADBAND.tiers))
        )

    def test_describe_mentions_every_tier(self):
        text = _BROADBAND.describe()
        for tier in _BROADBAND.tiers:
            assert tier.name in text
        assert "inf" in BandwidthClasses(
            tiers=(BandwidthTier("fiber", 1.0, upload=2, download=None),)
        ).describe()


class TestRealize:
    def test_deterministic_under_pinned_seed(self):
        a = _BROADBAND.realize(64, seed=5)
        b = _BROADBAND.realize(64, seed=5)
        assert a == b
        assert a != _BROADBAND.realize(64, seed=6)

    def test_tier_fractions_converge_to_shares(self):
        # Over many nodes and seeds the sampled populations must track
        # the configured shares; 3-sigma binomial tolerance per tier.
        n, seeds = 400, range(8)
        totals = {t.name: 0 for t in _BROADBAND.tiers}
        for seed in seeds:
            counts = _BROADBAND.realize(n, seed=seed).tier_counts()
            for name in totals:
                totals[name] += counts[name]
        clients = (n - 1) * len(seeds)
        for t in _BROADBAND.tiers:
            got = totals[t.name] / clients
            sigma = (t.share * (1 - t.share) / clients) ** 0.5
            assert abs(got - t.share) < 3 * sigma + 1e-9, t.name

    def test_one_draw_per_client_in_node_order(self):
        # The realization consumes exactly n-1 child-stream draws, so a
        # smaller swarm is a prefix of a larger one at the same seed.
        small = _BROADBAND.realize(10, seed=3)
        large = _BROADBAND.realize(30, seed=3)
        assert large.tier_of[:10] == small.tier_of

    def test_server_keeps_base_capacities(self):
        base = BandwidthModel(download=3, server_upload=4)
        model = _BROADBAND.realize(20, seed=1, base=base)
        assert model.upload_capacity(SERVER) == 4
        assert model.download_capacity(SERVER) == 3
        assert model.tier_name(SERVER) == "server"

    def test_remainder_lands_in_default_tier(self):
        spec = BandwidthClasses(
            tiers=(BandwidthTier("fast", 0.3, upload=2, download=4),)
        )
        base = BandwidthModel(download=2)
        model = spec.realize(50, seed=9, base=base)
        counts = model.tier_counts()
        assert set(counts) == {"fast", "default"}
        assert sum(counts.values()) == 49
        default_node = next(
            v for v in range(1, 50) if model.tier_name(v) == "default"
        )
        assert model.upload_capacity(default_node) == 1
        assert model.download_capacity(default_node) == 2

    def test_full_share_spec_has_no_default_tier(self):
        model = _BROADBAND.realize(40, seed=2)
        assert set(model.tier_counts()) == {"fast", "cable", "dsl"}

    def test_realized_capacities_match_tiers(self):
        model = _BROADBAND.realize(40, seed=4)
        by_name = {t.name: t for t in _BROADBAND.tiers}
        for v in range(1, 40):
            tier = by_name[model.tier_name(v)]
            assert model.upload_capacity(v) == tier.upload
            assert model.download_capacity(v) == tier.download


class TestHeterogeneousModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HeterogeneousModel(uploads=(1, 1), downloads=(1,))
        with pytest.raises(ConfigError):
            HeterogeneousModel(
                uploads=(1, 1), downloads=(1, 1), server_upload=0
            )
        with pytest.raises(ConfigError):
            HeterogeneousModel(uploads=(1, 0), downloads=(1, 1))
        with pytest.raises(ConfigError):
            HeterogeneousModel(uploads=(1, 3), downloads=(1, 2))

    def test_scalar_download_view(self):
        common = HeterogeneousModel(uploads=(1, 1, 1), downloads=(1, 2, 2))
        assert common.download == 2
        mixed = HeterogeneousModel(uploads=(1, 1, 1), downloads=(1, 2, None))
        assert mixed.download == 2  # tightest finite wins
        assert not mixed.unbounded_download
        free = HeterogeneousModel(uploads=(1, 1, 1), downloads=(1, None, None))
        assert free.download is None
        assert free.unbounded_download

    def test_is_uniform(self):
        assert HeterogeneousModel(uploads=(1, 1, 1), downloads=(1, 2, 2)).is_uniform
        assert not HeterogeneousModel(
            uploads=(1, 2, 1), downloads=(1, 2, 2)
        ).is_uniform
        assert not HeterogeneousModel(
            uploads=(1, 1, 1), downloads=(1, 1, 2)
        ).is_uniform

    def test_allows_download_is_conservative(self):
        mixed = HeterogeneousModel(uploads=(1, 1, 1), downloads=(1, 2, 4))
        assert mixed.allows_download(1)
        assert not mixed.allows_download(2)  # scalar gate uses min


class TestEngineSupportLevels:
    def test_registry_declares_parity_table(self):
        # The bandwidth column of the one pinned capability table.
        from repro.sim import ENGINES

        from ..sim.test_registry import PARITY

        assert {name: s.bandwidth_support for name, s in ENGINES.items()} == {
            name: bandwidth for name, (_, _, bandwidth) in PARITY.items()
        }

    def test_download_level_rejects_upload_tiers(self):
        from repro.randomized.exchange import ExchangeEngine

        with pytest.raises(ConfigError, match="upload"):
            ExchangeEngine(12, 6, rng=1, bandwidth=_BROADBAND)

    def test_download_level_accepts_download_only_tiers(self):
        from repro.randomized.exchange import ExchangeEngine

        spec = BandwidthClasses(
            tiers=(BandwidthTier("cable", 0.5, upload=1, download=2),)
        )
        result = ExchangeEngine(12, 6, rng=1, bandwidth=spec).run()
        assert result.meta["bandwidth"] == spec.describe()

    def test_async_rejects_explicit_rates_with_tiers(self):
        from repro.sim.registry import create_engine

        with pytest.raises(ConfigError):
            create_engine(
                "async",
                8,
                4,
                rng=1,
                bandwidth=_BROADBAND,
                upload_rates=[1.0] * 8,
            )

    def test_null_spec_accepted_everywhere(self):
        from repro.sim.registry import create_engine

        null = BandwidthClasses()
        for name in ("randomized", "exchange", "coding"):
            result = create_engine(name, 8, 4, rng=1, bandwidth=null).run()
            assert "bandwidth" not in result.meta
