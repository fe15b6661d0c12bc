"""The benchmark's workloads: one pass of fixed work each, plus its checks.

A workload is a ``setup(seed)`` that imports what the pass needs and builds
its seeded inputs, and a ``run(inputs, meter)`` that does the fixed work
through the layers' public functions. ``run`` returns a :class:`PassResult`
whose digest covers every simulated output, so two passes of one seed must
produce the same digest.

An op is one checked unit (a platform run, a chaos campaign, an oracle crash
point or a lab arm). :class:`OpMeter` counts the ops attempted and failed
and times each checked call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from patch import Nesting, patch

# chaos profiles: Table 1 write ratios as the repo measures them at seed 7.
# The chaos stream floors the write share at 35% and the profile name is only
# a label, so tpcc runs 35% writes and wordcount 48%. A read-leaning profile
# (tpch-q1, 0.0001) would run the same 35% stream as tpcc.
CHAOS_PROFILES = (("tpcc", 0.0960), ("wordcount", 0.4799))
CHAOS_OPS = 4500
ORACLE_PROFILE = ("tpcc", 0.0960)
ORACLE_OPS = 1200
ORACLE_POINTS = 6

SERVE_TENANTS = 1000
SERVE_REQUESTS = 4000
FLEET_REQUESTS = 2000
RESILIENCE_OPS = 2000

DEFAULT_SEEDS = {"paper-figures": 7, "crash-recovery": 42, "service-labs": 7}


@dataclass
class PassResult:
    units: int  # work units behind ops_per_s
    digest: str
    sim: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)  # traced-run extras


class OpMeter:
    """Counts checked ops, their failures, and checked-call latencies."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.latencies: List[float] = []
        self._op_id = -1

    def begin(self) -> None:
        """Start the next op: spans opened from here on carry its id."""
        self._op_id += 1
        if self.tracer is not None:
            self.tracer.op = self._op_id

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]

    def call(self, label: str, fn: Callable, *args, **kwargs) -> Any:
        """Time one checked call; an exception becomes a failed op."""
        self.begin()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the pass goes on; the op is reported failed
            self.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        finally:
            self.latencies.append(time.perf_counter() - start)


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts: Any) -> None:
        for part in parts:
            self._h.update(repr(part).encode())
            self._h.update(b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- paper-figures ---------------------------------------------------------------


def _paper_setup(seed: int) -> Dict[str, Any]:
    from repro.platform import PlatformConfig, figures
    from repro.workloads import workload_by_name

    return {
        "figures": figures,
        "config": PlatformConfig(),
        "workloads": {n: workload_by_name(n, seed=seed) for n in figures.WORKLOAD_ORDER},
    }


def _meter_platform_runs(meter: OpMeter) -> None:
    """Make every outermost scheme ``run`` a checked op (a platform run)."""
    from repro.platform import schemes

    nesting = Nesting()

    def before(_args: tuple) -> Optional[float]:
        if not nesting.enter("platform.run"):
            return None  # super().run inside the op
        meter.begin()
        return time.perf_counter()

    def after(start: Optional[float], args: tuple, result: Any, exc) -> None:
        nesting.leave("platform.run")
        if start is None:
            return
        meter.latencies.append(time.perf_counter() - start)
        platform, profile = args
        if exc is not None:
            problems = [f"raised {exc!r}"]
        elif math.isfinite(result.total_time) and result.total_time > 0:
            problems = []
        else:
            problems = [f"total_time {result.total_time!r}"]
        meter.record(f"{platform.name}/{profile.name}", problems)

    for cls in schemes.SCHEMES.values():
        patch(cls, "run", before, after)


def _series_value(value: Any) -> Any:
    if hasattr(value, "fingerprint"):
        return value.fingerprint()
    if isinstance(value, dict):
        return sorted((repr(k), _series_value(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_series_value(v) for v in value]
    return value


def _paper_series(inputs: Dict[str, Any], profiles: Dict[str, Any]) -> Dict[str, Any]:
    f, cfg = inputs["figures"], inputs["config"]
    return {
        "table1": f.table1_write_ratios(profiles),
        "fig5": f.fig5_mapping_location(profiles, cfg),
        "fig8": f.fig8_mee_schemes(profiles, cfg),
        "fig11": f.fig11_schemes(profiles, cfg),
        "fig12_13": f.fig12_13_channel_sweep(profiles, cfg),
        "fig14": f.fig14_latency_sweep(profiles, cfg),
        "fig15": f.fig15_capability_sweep(profiles, cfg),
        "fig16": f.fig16_dram_sweep(profiles, cfg),
        "fig17": f.fig17_pairs(profiles, cfg),
        "fig18": f.fig18_quad(profiles, cfg),
        "table6": f.table6_extra_traffic(profiles, cfg),
    }


def _paper_sim(figures, fig11) -> Dict[str, float]:
    summary = figures.fig11_summary(fig11)
    return {
        "sim_overhead_vs_isc_pct": 100.0 * summary["overhead_vs_isc"],
        "sim_speedup_vs_host": summary["speedup_vs_host"],
    }


def _paper_run(inputs: Dict[str, Any], meter: OpMeter) -> PassResult:
    _meter_platform_runs(meter)
    profiles = {n: w.run() for n, w in inputs["workloads"].items()}
    series = _paper_series(inputs, profiles)
    digest = Digest()
    for name, value in series.items():
        digest.add(name, _series_value(value))
    return PassResult(
        units=meter.attempted,
        digest=digest.hexdigest(),
        sim=_paper_sim(inputs["figures"], series["fig11"]),
    )


# -- crash-recovery --------------------------------------------------------------


def _crash_setup(seed: int) -> Dict[str, Any]:
    from repro.faults import run_chaos
    from repro.recovery import run_oracle

    return {
        "run_chaos": run_chaos,
        "run_oracle": run_oracle,
        "campaigns": [(name, ratio, seed + i, CHAOS_OPS)
                      for i, (name, ratio) in enumerate(CHAOS_PROFILES)],
        "oracle": ORACLE_PROFILE + (seed, ORACLE_OPS, ORACLE_POINTS),
    }


def _crash_run(inputs: Dict[str, Any], meter: OpMeter) -> PassResult:
    digest = Digest()
    units = 0
    for name, ratio, seed, ops in inputs["campaigns"]:
        label = f"chaos {name} seed={seed}"
        report = meter.call(label, inputs["run_chaos"], name, ratio, seed=seed, ops=ops)
        if report is None:
            continue
        units += ops
        meter.record(label, [] if report.invariant_violations == 0 else
                     [f"{report.invariant_violations} invariant violations"])
        digest.add(report.fingerprint())

    name, ratio, seed, ops, points = inputs["oracle"]
    # each crash point is its own op: stamp latencies and op ids as points finish
    marks = [time.perf_counter()]

    def point_done(_line: str) -> None:
        now = time.perf_counter()
        meter.latencies.append(now - marks[-1])
        marks.append(now)
        meter.begin()

    meter.begin()
    try:
        report = inputs["run_oracle"](name, ratio, base_seed=seed, seeds=1,
                                      points=points, ops=ops, progress=point_done)
    except Exception as exc:
        meter.record(f"oracle {name} seed={seed}", [f"raised {exc!r}"])
        return PassResult(units=units, digest=digest.hexdigest())
    for point in report.points:
        meter.record(f"oracle {name} seed={point.seed} crash_op={point.crash_op}",
                     [] if point.matched else ["resumed run diverged from golden"])
        digest.add(point.crash_op, point.golden_digest, point.resumed_digest)
    meter.record(f"oracle {name} corrupt-snapshot probe",
                 [] if report.corruption_rejected else ["corrupt snapshot was accepted"])
    # golden run plus, per point, the prefix up to the cut and the resumed rest
    units += ops * (1 + len(report.points))
    return PassResult(units=units, digest=digest.hexdigest())


# -- service-labs ----------------------------------------------------------------


def _labs_setup(seed: int) -> Dict[str, Any]:
    from repro.fleet import run_fleet
    from repro.resilience import run_resilience
    from repro.serve import run_serve_lab

    return {
        "seed": seed,
        "run_serve_lab": run_serve_lab,
        "run_fleet": run_fleet,
        "run_resilience": run_resilience,
    }


def _serve_sim(report) -> Dict[str, float]:
    return {
        "sim_availability_pct": 100.0 * report.attested.availability,
        "sim_read_p99_us": 1e6 * report.attested.p99_read_s,
    }


def _lab(meter: OpMeter, name: str, fn: Callable) -> Callable:
    """The lab entry point, inside a ``<name>`` span when the pass is traced."""
    if meter.tracer is None:
        return fn

    def traced(*args, **kwargs):
        with meter.tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _labs_run(inputs: Dict[str, Any], meter: OpMeter) -> PassResult:
    seed = inputs["seed"]
    digest = Digest()
    result = PassResult(units=0, digest="")
    run_serve_lab = _lab(meter, "serve.lab", inputs["run_serve_lab"])
    serve = meter.call("serve-lab", run_serve_lab, seed=seed, tenants=SERVE_TENANTS,
                       requests=SERVE_REQUESTS)
    if serve is not None:
        for arm in (serve.baseline, serve.attested):
            gate_held = arm.sessions_refused == arm.tampered_attempted > 0
            meter.record(f"serve-lab policies={arm.policies}", [] if gate_held else [
                f"refused {arm.sessions_refused} of {arm.tampered_attempted} "
                f"tampered handshakes ({serve.tampered} planted)"])
            result.units += arm.requests
        digest.add(serve.fingerprint())
        result.sim = _serve_sim(serve)

    run_fleet = _lab(meter, "fleet.lab", inputs["run_fleet"])
    fleet = meter.call("fleet-lab", run_fleet, seed, FLEET_REQUESTS)
    if fleet is not None:
        meter.record("fleet-lab replication=off", [])
        meter.record("fleet-lab replication=on", [] if fleet.on.keys_lost == 0 else
                     [f"replicated arm lost {fleet.on.keys_lost} keys"])
        result.units += fleet.off.requests + fleet.on.requests
        result.counters["fleet.hedged_reads"] = fleet.off.hedged_reads + fleet.on.hedged_reads
        result.counters["fleet.hedge_wins"] = fleet.off.hedge_wins + fleet.on.hedge_wins
        digest.add(fleet.fingerprint())

    run_resilience = _lab(meter, "resilience.lab", inputs["run_resilience"])
    resilience = meter.call("resilience-lab", run_resilience, seed=seed, ops=RESILIENCE_OPS)
    if resilience is not None:
        for arm in (resilience.baseline, resilience.resilient):
            meter.record(f"resilience-lab policies={arm.policies}", [])
            result.counters["resilience.retries"] = (
                result.counters.get("resilience.retries", 0) + arm.counters.get("retries", 0))
        result.units += 2 * resilience.ops
        digest.add(resilience.fingerprint())

    result.digest = digest.hexdigest()
    return result


# -- design: the simulated end-to-end metrics ----------------------------------------

# the seeds the repository was developed on; the design metrics use them on
# every run, so they read the same on every run until the model changes
DESIGN_SEED = 7


def design_metrics() -> Dict[str, float]:
    """The modelled design's headline numbers, outside any timed pass.

    Every workload reports these. The paper-figures and service-labs passes
    compute the same values for their own seed, and must agree exactly when
    that seed is :data:`DESIGN_SEED`.
    """
    paper = _paper_setup(DESIGN_SEED)
    figures, config = paper["figures"], paper["config"]
    profiles = {n: w.run() for n, w in paper["workloads"].items()}
    sim = _paper_sim(figures, figures.fig11_schemes(profiles, config))
    labs = _labs_setup(DESIGN_SEED)
    sim.update(_serve_sim(labs["run_serve_lab"](seed=DESIGN_SEED, tenants=SERVE_TENANTS,
                                                requests=SERVE_REQUESTS)))
    return sim


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Dict[str, Any]]
    run: Callable[[Dict[str, Any], OpMeter], PassResult]
    units: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-figures", _paper_setup, _paper_run, "platform runs"),
        Workload("crash-recovery", _crash_setup, _crash_run, "chaos I/O ops incl. oracle replays"),
        Workload("service-labs", _labs_setup, _labs_run, "simulated requests across all arms"),
    )
}
