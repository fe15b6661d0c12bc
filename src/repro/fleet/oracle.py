"""Fleet crash-point oracle: kill the fleet mid-rebuild, restore, finish.

Extends the `repro.recovery` differential oracle to the fleet fabric with
the same one-pass sweep (:func:`repro.recovery.oracle.sweep_crash_points`):
one golden uninterrupted replication-on run fixes the target fingerprint,
one cutter fleet checkpoints itself through disk at every crash point and
must itself finish on the golden fingerprint, and then every saved file is
restored into a fresh fleet, finished, and must reproduce the fingerprint
byte for byte. With a rebuild batch of 1 the repair queue stays populated
for many requests after a device kill, so a healthy sweep necessarily lands
crash points *inside* a rebuild — the report counts them (``mid_rebuild``,
noted on the cutter at the cut) so the test can assert the interesting case
was actually exercised.

The corruption probe (one flipped byte must be rejected before any state
reaches the simulator) runs once per sweep, same as the chaos oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.fleet.checkpoint import (
    FLEET_SNAPSHOT_KIND,
    restore_fleet_runner,
    snapshot_fleet_runner,
)
from repro.fleet.lab import FleetRunner
from repro.recovery.oracle import SweepVerdicts, crash_points, sweep_crash_points


@dataclass(frozen=True)
class FleetOraclePoint:
    """One fleet crash point's verdict."""

    seed: int
    crash_op: int
    mid_rebuild: bool  # the repair queue was non-empty at the cut
    matched: bool
    golden_digest: str
    resumed_digest: str


@dataclass
class FleetOracleReport(SweepVerdicts):
    """Outcome of a fleet crash-point sweep."""

    requests: int
    devices: int
    replication: int
    points: List[FleetOraclePoint] = field(default_factory=list)
    corruption_rejected: bool = False
    cutter_diverged: List[int] = field(default_factory=list)

    @property
    def mid_rebuild_points(self) -> int:
        return sum(1 for p in self.points if p.mid_rebuild)

    def format(self) -> str:
        seeds = sorted({p.seed for p in self.points})
        lines = [
            f"fleet oracle: {len(self.points)} crash points over "
            f"{len(seeds)} seeds, {self.requests} requests,"
            f" {self.devices} devices, replication={self.replication}",
            f"  byte-identical  : {self.passed}/{len(self.points)}",
            f"  mid-rebuild cuts: {self.mid_rebuild_points}",
        ]
        return "\n".join(lines + self.verdict_lines())


def _build(seed: int, requests: int, devices: int, replication: int) -> FleetRunner:
    # rebuild_batch=1 stretches each rebuild across many requests so the
    # crash-point sweep reliably cuts mid-rebuild
    return FleetRunner(
        seed,
        requests,
        devices=devices,
        replication=replication,
        hedge=True,
        working_set=min(48, requests),
        rebuild_batch=1,
    )


def run_fleet_oracle(
    base_seed: int = 42,
    seeds: int = 2,
    points: int = 7,
    requests: int = 400,
    devices: int = 6,
    replication: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetOracleReport:
    """Sweep ``points`` crash points across ``seeds`` consecutive seeds."""
    report = FleetOracleReport(
        requests=requests, devices=devices, replication=replication
    )

    def judged(verdict: FleetOraclePoint) -> None:
        if progress is not None:
            status = "ok" if verdict.matched else "MISMATCH"
            tag = " mid-rebuild" if verdict.mid_rebuild else ""
            progress(f"seed={verdict.seed} crash_op={verdict.crash_op}{tag}: {status}")

    sweep_crash_points(
        report,
        lambda seed: _build(seed, requests, devices, replication),
        snapshot_fleet_runner,
        restore_fleet_runner,
        FLEET_SNAPSHOT_KIND,
        range(base_seed, base_seed + seeds),
        requests,
        crash_points(requests, points),
        point=FleetOraclePoint,
        note=lambda runner: runner.rebuild.pending > 0,
        on_point=judged,
    )
    return report


__all__ = [
    "FleetOraclePoint",
    "FleetOracleReport",
    "run_fleet_oracle",
]
