"""Regression: ``_consts`` caches must be invalidated on config change.

The exchange engine caches per-channel derived constants (request cap,
demand budget, link floors).  Changing a channel's rate mid-campaign
without calling ``invalidate_channel_consts`` leaves the engine
allocating against stale demand; these tests pin both the hazard (the
cache really is stale until invalidated) and the fix.
"""

import dataclasses

from repro.simulator import SystemConfig, UUSeeSystem
from repro.traces import InMemoryTraceStore


def build_system() -> UUSeeSystem:
    config = SystemConfig(seed=11, base_concurrency=60.0, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=3 * 600.0)  # populate peers across channels
    return system


def bump_rate(catalogue, channel_id: int, factor: float) -> float:
    """Swap a channel for a higher-rate copy, as a live reconfig would."""
    old = catalogue.get(channel_id)
    new = dataclasses.replace(old, rate_kbps=old.rate_kbps * factor)
    catalogue._by_id[channel_id] = new
    index = next(
        i for i, c in enumerate(catalogue._channels)
        if c.channel_id == channel_id
    )
    catalogue._channels[index] = new
    return new.rate_kbps


class TestInvalidateChannelConsts:
    def test_cache_is_stale_until_invalidated(self):
        system = build_system()
        ex = system.exchange
        old_rate = ex._consts(0).rate_kbps
        new_rate = bump_rate(ex.catalogue, 0, 2.0)

        # The hazard: the cache still serves the pre-change constants.
        assert ex._consts(0).rate_kbps == old_rate

        ex.invalidate_channel_consts(0)
        consts = ex._consts(0)
        assert consts.rate_kbps == new_rate
        assert consts.demand == ex.config.demand_kbps(new_rate)
        assert consts.request_cap == ex.config.request_cap_kbps(new_rate)

    def test_single_channel_invalidation_spares_others(self):
        system = build_system()
        ex = system.exchange
        other = ex._consts(1)
        bump_rate(ex.catalogue, 0, 2.0)
        ex.invalidate_channel_consts(0)
        assert ex._consts(1) is other  # untouched channel keeps its cache

    def test_invalidate_all(self):
        system = build_system()
        ex = system.exchange
        ex._consts(0), ex._consts(1)
        new0 = bump_rate(ex.catalogue, 0, 2.0)
        new1 = bump_rate(ex.catalogue, 1, 3.0)
        ex.invalidate_channel_consts(None)
        assert ex._consts(0).rate_kbps == new0
        assert ex._consts(1).rate_kbps == new1

