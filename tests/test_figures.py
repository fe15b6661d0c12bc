"""Tests for the shared figure-series builders."""

import hashlib

import pytest

from repro.platform import PlatformConfig
from repro.platform.figures import (
    SCHEMES,
    WORKLOAD_ORDER,
    fig5_mapping_location,
    fig8_mee_schemes,
    fig11_schemes,
    fig11_summary,
    fig12_13_channel_sweep,
    fig14_latency_sweep,
    fig15_capability_sweep,
    fig16_dram_sweep,
    fig17_pairs,
    fig18_quad,
    table1_write_ratios,
    table6_extra_traffic,
)
from repro.platform.schemes import _mee_overhead_memo
from repro.workloads import workload_by_name

SUBSET = ("filter", "tpch-q1", "tpcc")


@pytest.fixture(scope="module")
def profiles():
    return {n: workload_by_name(n).run() for n in SUBSET}


@pytest.fixture(scope="module")
def config():
    return PlatformConfig()


class TestSeriesBuilders:
    def test_table1(self, profiles):
        ratios = table1_write_ratios(profiles)
        assert set(ratios) == set(SUBSET)
        assert ratios["tpcc"] > ratios["tpch-q1"]

    def test_fig5(self, profiles, config):
        series = fig5_mapping_location(profiles, config)
        for protected, secure in series.values():
            assert secure > protected

    def test_fig8(self, profiles, config):
        series = fig8_mee_schemes(profiles, config)
        for times in series.values():
            assert times["none"] <= times["hybrid"] <= times["sc64"]

    def test_fig11_and_summary(self, profiles, config):
        results = fig11_schemes(profiles, config)
        for per_scheme in results.values():
            assert set(per_scheme) == set(SCHEMES)
        summary = fig11_summary(results)
        assert summary["speedup_vs_host"] > 1.0
        assert summary["overhead_vs_isc"] >= 0.0

    def test_fig12_13(self, profiles, config):
        sweep = fig12_13_channel_sweep(profiles, config, channels=(4, 16))
        for name in SUBSET:
            assert sweep[16][name][0] > sweep[4][name][0]  # speedup grows

    def test_fig14(self, profiles, config):
        sweep = fig14_latency_sweep(profiles, config, latencies_us=(10, 110))
        for name in SUBSET:
            assert sweep[110][name] <= sweep[10][name] * 1.05

    def test_fig16(self, profiles, config):
        sweep = fig16_dram_sweep(profiles, config)
        for name in SUBSET:
            assert sweep[2][name][0] >= sweep[4][name][0]  # ISC slower at 2GB

    def test_fig17(self, profiles, config):
        pairs = fig17_pairs(profiles, config, anchor="tpcc",
                            partners=["filter"])
        results = pairs["filter"]
        assert len(results) == 2
        assert all(r.stats["slowdown"] >= 1.0 for r in results)

    def test_fig18(self, profiles, config):
        results = fig18_quad(profiles, config,
                             quad=("tpcc", "filter", "tpch-q1", "tpcc"))
        assert len(results) == 4

    def test_table6(self, profiles, config):
        traffic = table6_extra_traffic(profiles, config, sample=20_000)
        enc, ver = traffic["tpcc"]
        assert enc > 0 and ver > 0
        assert sum(traffic["tpcc"]) > sum(traffic["tpch-q1"])

    def test_figures_share_the_fig5_replays(self, config):
        # fresh traces, so no earlier test has filled the memo for them
        fresh = {n: workload_by_name(n).run() for n in ("filter", "tpcc")}
        start = _mee_overhead_memo.cache_info().misses
        fig5_mapping_location(fresh, config)
        after_fig5 = _mee_overhead_memo.cache_info().misses
        assert after_fig5 == start + len(fresh)
        fig8_mee_schemes(fresh, config)
        # none and sc64 replay; hybrid at exposure 1.0 reuses fig5's replay
        after_fig8 = _mee_overhead_memo.cache_info().misses
        assert after_fig8 == after_fig5 + 2 * len(fresh)
        fig16_dram_sweep(fresh, config)
        table6_extra_traffic(fresh, config)
        assert _mee_overhead_memo.cache_info().misses == after_fig8

    def test_unknown_workloads_appended(self, config):
        extra = {"filter": workload_by_name("filter").run()}
        ratios = table1_write_ratios(extra)
        assert list(ratios) == ["filter"]


# sha256 over all eleven seed-7 series, in the order and encoding below;
# any change to a figure value, however small, changes it
GOLDEN_SEED7_SERIES_SHA256 = (
    "eb5a8122b1b4bc81cdc625c7f92d05fad253490714707503bf67a24a9e09f375"
)


def _series_value(value):
    if hasattr(value, "fingerprint"):
        return value.fingerprint()
    if isinstance(value, dict):
        return sorted((repr(k), _series_value(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_series_value(v) for v in value]
    return value


def series_digest(seed: int) -> str:
    """Digest every paper series at ``seed``: repr of (name, value) parts,
    NUL-separated, with ``RunResult``s reduced to their ``fingerprint()``."""
    profiles = {n: workload_by_name(n, seed=seed).run() for n in WORKLOAD_ORDER}
    cfg = PlatformConfig()
    series = {
        "table1": table1_write_ratios(profiles),
        "fig5": fig5_mapping_location(profiles, cfg),
        "fig8": fig8_mee_schemes(profiles, cfg),
        "fig11": fig11_schemes(profiles, cfg),
        "fig12_13": fig12_13_channel_sweep(profiles, cfg),
        "fig14": fig14_latency_sweep(profiles, cfg),
        "fig15": fig15_capability_sweep(profiles, cfg),
        "fig16": fig16_dram_sweep(profiles, cfg),
        "fig17": fig17_pairs(profiles, cfg),
        "fig18": fig18_quad(profiles, cfg),
        "table6": table6_extra_traffic(profiles, cfg),
    }
    h = hashlib.sha256()
    for name, value in series.items():
        for part in (name, _series_value(value)):
            h.update(repr(part).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_seed7_series_are_pinned():
    assert series_digest(7) == GOLDEN_SEED7_SERIES_SHA256
