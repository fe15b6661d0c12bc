"""Multi-tenant IceClave: concurrent in-storage TEEs (§6.8).

Each collocated instance runs on its own controller core (the solo
baseline uses one core too, matching the paper's "running each in-storage
application independently"); interference comes from the shared substrate:

- **flash channels** — only when the tenants' aggregate bandwidth demand
  exceeds the internal bandwidth do load phases stretch;
- **protected-region mapping cache** — shared, but the tenants' sequential
  scans of disjoint LPA ranges only ever miss compulsorily, so sharing adds
  no misses here (the paper measures up to 8.7% more; not modelled);
- **SSD DRAM bandwidth** — concurrent memory traffic inflates each
  instance's stall time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.ftl.mapping import ENTRY_BYTES
from repro.platform.config import PlatformConfig
from repro.platform.metrics import RunResult
from repro.platform.schemes import IceClavePlatform
from repro.workloads.base import WorkloadProfile

MEMORY_INTERFERENCE_PER_TENANT = 0.09  # stall inflation per collocated tenant


class MultiTenantIceClave:
    """Runs several workload profiles concurrently under IceClave."""

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        base = config or PlatformConfig()
        # one controller core per tenant, solo and collocated alike
        self.config = replace(base, isc_cores=1)
        self._single = IceClavePlatform(self.config)

    def run_solo(self, profile: WorkloadProfile) -> RunResult:
        """The single-instance baseline Figures 17/18 normalize against."""
        return self._single.run(profile)

    def run(self, profiles: List[WorkloadProfile]) -> List[RunResult]:
        """Returns one RunResult per instance, with contention applied."""
        if not profiles:
            raise ValueError("need at least one instance")
        solos = [self._single.run(p) for p in profiles]
        if len(profiles) == 1:
            return solos

        n = len(profiles)
        miss_rates = self._shared_mapping_cache_miss_rates(profiles)

        # aggregate internal-bandwidth demand: each tenant spends
        # load_j/total_j of its runtime pulling from flash at full rate
        demand = sum(r.components["load"] / r.total_time for r in solos)
        load_stretch = max(1.0, demand)

        results: List[RunResult] = []
        for i, (profile, solo) in enumerate(zip(profiles, solos)):
            load = solo.components["load"] * load_stretch
            compute = solo.components["compute"] * (
                1.0 + MEMORY_INTERFERENCE_PER_TENANT * (n - 1)
            )
            solo_rate = max(solo.stats.get("translation_miss_rate", 0.0), 1e-9)
            miss_factor = max(1.0, miss_rates[i] / solo_rate)
            security = solo.components["security"] * miss_factor

            exposure = self.config.pipeline_exposure
            total = max(load, compute) + exposure * min(load, compute) + security
            results.append(
                RunResult(
                    workload=profile.name,
                    scheme=f"iceclave-x{n}",
                    total_time=total,
                    components={
                        "load": load,
                        "compute": compute,
                        "security": security,
                    },
                    stats={
                        "solo_time": solo.total_time,
                        "slowdown": total / solo.total_time,
                        "shared_miss_rate": miss_rates[i],
                        "bandwidth_demand": demand,
                    },
                )
            )
        return results

    def _shared_mapping_cache_miss_rates(
        self, profiles: List[WorkloadProfile]
    ) -> List[float]:
        """Per-tenant miss rate of the one shared protected-region cache.

        The tenants' datasets sit side by side on the SSD in disjoint LPA
        ranges, and each tenant scans its own range in strictly increasing
        translation pages, so no page is ever re-referenced. Under that
        precondition every translation-page access is a compulsory miss,
        whatever the interleaving or the cache capacity. One such access
        covers ``entries_per_page`` LPAs, of which only the first misses,
        so every tenant's rate is ``1 / entries_per_page`` (1/512).
        """
        spacing = self.config.iceclave.page_bytes // ENTRY_BYTES
        return [1.0 / spacing for _ in profiles]
