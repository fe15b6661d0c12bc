"""Crash-point differential oracle: prove restore is byte-identical.

For each seed the oracle runs one *golden* uninterrupted chaos campaign and
records its report fingerprint. Then one *cutter* campaign walks the crash
points in order: at every crash point T it stops, checkpoints itself to disk
and carries on, so the whole sweep costs one extra run instead of one
prefix replay per point. The cutter then finishes, and its final
fingerprint must equal the golden one too — proof that taking a checkpoint
has no side effects on the run it was taken from.

Each saved file is then resumed on its own: it is loaded (content
fingerprint verified), a brand-new runner is restored from it, run to
completion and its final fingerprint must equal the golden one —
byte-identical, event log and all. The cutter is discarded before any
resume starts, so only the file reaches the resumed runner (the hard
kill). Any state a component forgot to serialize, any RNG draw that happens
in a different order, any derived structure rebuilt wrong shows up as a
mismatch at some crash point.

The oracle also proves the *negative* path: a snapshot file with one
flipped byte must be rejected by the content fingerprint before any state
reaches the simulator.

:func:`sweep_crash_points` is the sweep itself, over any runner with
``run_until``/``finalize``/``run`` and a snapshot/restore pair; the fleet
oracle (:mod:`repro.fleet.oracle`) uses it too.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.faults.chaos import ChaosRunner
from repro.faults.plan import FaultPlanConfig
from repro.recovery.checkpoint import (
    CHAOS_SNAPSHOT_KIND,
    restore_chaos_runner,
    snapshot_chaos_runner,
)
from repro.recovery.snapshot import (
    Snapshot,
    SnapshotCorruptError,
    load_snapshot,
    save_snapshot,
)
from repro.sim.stats import RecoveryStats


@dataclass(frozen=True)
class OraclePoint:
    """One crash point's verdict."""

    seed: int
    crash_op: int
    matched: bool
    golden_digest: str
    resumed_digest: str


class SweepVerdicts:
    """The verdicts every crash-point oracle report keeps.

    A report holds ``points`` (each with ``seed``, ``crash_op``, ``matched``
    and the golden and resumed digests), ``corruption_rejected`` and
    ``cutter_diverged`` (the seeds whose cutter did not finish on the golden
    fingerprint); :func:`sweep_crash_points` fills all three.
    """

    points: List[Any]
    corruption_rejected: bool
    cutter_diverged: List[int]

    @property
    def passed(self) -> int:
        return sum(1 for p in self.points if p.matched)

    @property
    def failed(self) -> int:
        return len(self.points) - self.passed

    @property
    def all_passed(self) -> bool:
        return (self.failed == 0 and self.corruption_rejected and bool(self.points)
                and not self.cutter_diverged)

    def verdict_lines(self) -> List[str]:
        """The report lines after each oracle's own header."""
        lines = [
            "  corrupt snapshot: "
            + ("rejected (content fingerprint)" if self.corruption_rejected
               else "NOT REJECTED"),
        ]
        if self.cutter_diverged:
            lines.append(
                "  CUTTER DIVERGED seeds="
                + ",".join(str(seed) for seed in self.cutter_diverged)
                + ": checkpointing changed the run it was taken from"
            )
        for point in self.points:
            if not point.matched:
                lines.append(
                    f"  MISMATCH seed={point.seed} crash_op={point.crash_op}: "
                    f"{point.resumed_digest[:16]} != {point.golden_digest[:16]}"
                )
        return lines


@dataclass
class OracleReport(SweepVerdicts):
    """Outcome of a full crash-point sweep."""

    workload: str
    write_ratio: float
    ops: int
    points: List[OraclePoint] = field(default_factory=list)
    corruption_rejected: bool = False
    cutter_diverged: List[int] = field(default_factory=list)

    def format(self) -> str:
        seeds = sorted({p.seed for p in self.points})
        lines = [
            f"oracle {self.workload}: {len(self.points)} crash points over "
            f"{len(seeds)} seeds, {self.ops} ops each",
            f"  byte-identical  : {self.passed}/{len(self.points)}",
        ]
        return "\n".join(lines + self.verdict_lines())


def crash_points(ops: int, count: int) -> List[int]:
    """``count`` evenly spaced interior operation indices in (0, ops)."""
    if ops < 2 or count < 1:
        raise ValueError("need ops >= 2 and count >= 1")
    step = ops / (count + 1)
    return sorted({min(ops - 1, max(1, round(step * (i + 1)))) for i in range(count)})


def _digest(fingerprint: str) -> str:
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


def _probe_corruption(path: str, kind: str) -> bool:
    """Flip one byte of a saved snapshot; loading must refuse it."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01
    corrupt_path = path + ".corrupt"
    with open(corrupt_path, "wb") as fh:
        fh.write(bytes(blob))
    try:
        load_snapshot(corrupt_path, expect_kind=kind)
    except SnapshotCorruptError:
        return True
    finally:
        os.unlink(corrupt_path)
    return False


def sweep_crash_points(
    report: SweepVerdicts,
    build: Callable[[int], Any],
    snapshot: Callable[[Any], Snapshot],
    restore: Callable[[Snapshot], Any],
    kind: str,
    seeds: Iterable[int],
    end: int,
    cuts: Sequence[int],
    point: Callable[..., Any],
    note: Callable[[Any], Any] = lambda runner: None,
    on_point: Optional[Callable[[Any], None]] = None,
) -> None:
    """Golden run, one cutter over ``cuts``, then one resume per saved file.

    ``build(seed)`` makes a fresh runner that ``end`` operations finish.
    Each verdict becomes ``point(seed, crash_op, noted, matched,
    golden_digest, resumed_digest)``, where ``noted`` is what ``note`` said
    about the cutter at the cut; it is appended to ``report.points`` and
    handed to ``on_point`` as soon as it is known, in sweep order.
    """
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        for seed in seeds:
            golden_fp = build(seed).run().fingerprint()
            golden_digest = _digest(golden_fp)
            cutter = build(seed)
            saved = []
            for crash_op in cuts:
                cutter.run_until(crash_op)
                noted = note(cutter)
                path = os.path.join(tmp, f"seed{seed}-op{crash_op}.snap")
                save_snapshot(snapshot(cutter), path)
                saved.append((crash_op, noted, path))
            cutter.run_until(end)
            if cutter.finalize().fingerprint() != golden_fp:
                report.cutter_diverged.append(seed)
            del cutter  # the hard kill: only the files survive
            for crash_op, noted, path in saved:
                loaded = load_snapshot(path, expect_kind=kind)
                if not report.corruption_rejected:
                    report.corruption_rejected = _probe_corruption(path, kind)
                resumed = restore(loaded)
                resumed.run_until(end)
                resumed_fp = resumed.finalize().fingerprint()
                verdict = point(seed, crash_op, noted, resumed_fp == golden_fp,
                                golden_digest, _digest(resumed_fp))
                report.points.append(verdict)
                if on_point is not None:
                    on_point(verdict)


def run_oracle(
    workload: str,
    write_ratio: float,
    base_seed: int = 42,
    seeds: int = 3,
    points: int = 9,
    ops: int = 1200,
    plan_config: Optional[FaultPlanConfig] = None,
    stats: Optional[RecoveryStats] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> OracleReport:
    """Sweep ``points`` crash points across ``seeds`` consecutive seeds."""
    report = OracleReport(workload=workload, write_ratio=write_ratio, ops=ops)
    stats = stats if stats is not None else RecoveryStats()

    def build(seed: int) -> ChaosRunner:
        return ChaosRunner(workload, write_ratio, seed=seed, ops=ops, plan_config=plan_config)

    def judged(verdict: OraclePoint) -> None:
        stats.snapshots_taken += 1
        stats.restores += 1
        if verdict.matched:
            stats.oracle_points_passed += 1
        if progress is not None:
            status = "ok" if verdict.matched else "MISMATCH"
            progress(f"seed={verdict.seed} crash_op={verdict.crash_op}: {status}")

    sweep_crash_points(
        report,
        build,
        snapshot_chaos_runner,
        lambda loaded: restore_chaos_runner(loaded, plan_config=plan_config),
        CHAOS_SNAPSHOT_KIND,
        range(base_seed, base_seed + seeds),
        ops,
        crash_points(ops, points),
        point=lambda seed, crash_op, _noted, *verdict: OraclePoint(seed, crash_op, *verdict),
        on_point=judged,
    )
    return report


__all__ = [
    "OraclePoint",
    "OracleReport",
    "SweepVerdicts",
    "crash_points",
    "run_oracle",
    "sweep_crash_points",
]
