"""The shared ConfigBase protocol across the whole config family."""

import pytest

from repro.runtime.cache import CacheConfig
from repro.runtime.config import RuntimeConfig
from repro.runtime.configbase import ConfigBase
from repro.runtime.placement import NetworkConfig, PlacementConfig
from repro.runtime.plan import BatchConfig
from repro.runtime.shard import ShardConfig
from repro.simulation.network import HopProfile

SECTION_TYPES = (
    CacheConfig,
    BatchConfig,
    ShardConfig,
    PlacementConfig,
    NetworkConfig,
)


class TestProtocolAdoption:
    @pytest.mark.parametrize("config_type", SECTION_TYPES)
    def test_every_section_speaks_configbase(self, config_type):
        assert issubclass(config_type, ConfigBase)
        assert issubclass(RuntimeConfig, ConfigBase)


class TestValidatedReplace:
    def test_replace_reruns_full_validation(self):
        # Regression: ``dataclasses.replace`` alone would assemble a
        # duplicate-hop NetworkConfig that construction rejects.
        link = NetworkConfig(hops={"wan": HopProfile(latency=2.0)})
        twice = (
            ("wan", HopProfile(latency=2.0)),
            ("wan", HopProfile(latency=1.0)),
        )
        with pytest.raises(ValueError):
            NetworkConfig(hops=twice)
        with pytest.raises(ValueError):
            link.replace(hops=twice)

    def test_runtime_config_replace_revalidates_sections(self):
        base = RuntimeConfig()
        with pytest.raises(TypeError, match="CacheConfig"):
            base.replace(cache="on")
        with pytest.raises(ValueError, match="error_policy"):
            base.replace(error_policy="pray")

    def test_replace_keeps_untouched_fields(self):
        base = RuntimeConfig(cache=CacheConfig(enabled=True, ttl_seconds=4))
        bumped = base.replace(cache=base.cache.replace(ttl_seconds=8))
        assert bumped.cache.ttl_seconds == 8
        assert bumped.cache.enabled
        assert base.cache.ttl_seconds == 4


class TestIdempotentPostInit:
    @pytest.mark.parametrize("config_type", SECTION_TYPES)
    def test_validate_is_idempotent(self, config_type):
        config = config_type()
        config.validate()
        config.validate()
        assert config == config_type()


class TestRemovedSettings:
    """A setting with one value in use is a constant, not a field:
    passing one of these names is a construction error, not a silently
    ignored keyword."""

    @pytest.mark.parametrize(
        "config_type, name, value",
        [
            (RuntimeConfig, "sweep", None),
            (RuntimeConfig, "mapreduce_executor", None),
            (CacheConfig, "coalesce", False),
            (CacheConfig, "invalidate_on_publish", False),
            (CacheConfig, "shard_attribute", "zone"),
            (CacheConfig, "memoize_contexts", False),
            (CacheConfig, "context_ttl_seconds", 1.0),
            (PlacementConfig, "enabled", True),
            (PlacementConfig, "default_tier", "edge"),
            (PlacementConfig, "access_hop", "lan"),
            (PlacementConfig, "wan_hop", "backhaul"),
            (NetworkConfig, "latency", 1.0),
            (NetworkConfig, "jitter", 1.0),
            (NetworkConfig, "loss", 0.1),
        ],
    )
    def test_a_removed_setting_is_rejected(self, config_type, name, value):
        with pytest.raises(TypeError, match=name):
            config_type(**{name: value})
