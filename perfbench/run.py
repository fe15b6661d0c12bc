#!/usr/bin/env python3
"""The repository benchmark: cold-process passes of three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-figures --seed 7 --seconds 40 --trace 0

Each pass runs ``perfbench/child.py`` in a fresh interpreter (one process at
a time), so set-up time covers interpreter start, imports and input
generation. Before each timed pass, ``perfbench/reference.py`` measures the
machine's current speed, and the pass's times are scaled to a machine on
which that reference takes ``reference.NOMINAL_S``. A run makes timed
passes until ``--seconds`` have gone by, then
one design pass that computes the simulated metrics. Every pass is checked,
and its simulated outputs must match the first pass's. The last line of
standard output
is one JSON object with the metrics named in ``BENCHMARK.json``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The exit code is 0 only when every check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from passes import DEFAULT_SEEDS, DESIGN_SEED, WORKLOADS  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"

# the paper's values beside the simulated metrics (IceClave, MICRO 2021)
PAPER_VALUES = {
    "sim_overhead_vs_isc_pct": "7.6",
    "sim_speedup_vs_host": "2.31",
    "sim_availability_pct": "n/a",
    "sim_read_p99_us": "n/a",
}

# import-time attribution: -X importtime self time of these module trees
IMPORT_TREES = {
    "import.numpy_s": "numpy",
    "import.flash_s": "repro.flash",
    "import.ftl_s": "repro.ftl",
    "import.core_s": "repro.core",
    "import.platform_s": "repro.platform",
    "import.recovery_s": "repro.recovery",
    "import.analysis_s": "repro.analysis",
    "import.serve_s": "repro.serve",
    "import.fleet_s": "repro.fleet",
}


class BenchError(Exception):
    """A pass could not run: the benchmark exits nonzero with no result."""


def import_self_times(stderr: str) -> Dict[str, float]:
    """Sum ``-X importtime`` self times (µs) per module tree, in seconds."""
    out = {name: 0.0 for name in IMPORT_TREES}
    out["import.total_s"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        seconds = int(fields[0]) / 1e6
        module = fields[2].strip()
        out["import.total_s"] += seconds
        for name, tree in IMPORT_TREES.items():
            if module == tree or module.startswith(tree + "."):
                out[name] += seconds
    return out


class Passes:
    """Spawns and collects the child passes of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        root = os.getcwd()
        tmp = os.path.join(root, OUT_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = tmp  # the crash-point oracle's snapshot files
        # one process, one thread: no BLAS worker threads beside the pass
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.child = os.path.join(HERE, "child.py")
        self.reference = os.path.join(HERE, "reference.py")

    def _exec(self, cmd: List[str]) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out after {CHILD_TIMEOUT_S}s: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-15:])
            raise BenchError(f"exited {proc.returncode}: {' '.join(cmd)}\n{tail}")
        return proc

    def _spawn(self, flags: List[str], importtime: bool = False) -> Dict[str, Any]:
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [self.child, "--seed", str(self.seed)] + flags
        spawn = time.monotonic()
        proc = self._exec(cmd)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawn
        if importtime:
            result["imports"] = import_self_times(proc.stderr)
        return result

    def run(self, trace: bool = False, spans_out: str = "",
            importtime: bool = False) -> Dict[str, Any]:
        flags = ["--workload", self.workload]
        if trace:
            flags.append("--trace")
        if spans_out:
            flags += ["--spans-out", spans_out]
        return self._spawn(flags, importtime=importtime)

    def design(self) -> Dict[str, float]:
        return self._spawn(["--design"])["sim"]

    def timed(self) -> Dict[str, Any]:
        """A reference run, then a pass whose times it scales."""
        reference_s = json.loads(self._exec([sys.executable, self.reference]).stdout)
        result = self.run()
        result["speed"] = NOMINAL_S / reference_s
        return result


def repeat_for(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` at least MIN_PASSES times, then while one more call of
    median length still ends within ``seconds`` of the start."""
    end = time.monotonic() + seconds
    durations: List[float] = []
    while True:
        start = time.monotonic()
        step()
        durations.append(time.monotonic() - start)
        if len(durations) >= MIN_PASSES and (
                time.monotonic() + statistics.median(durations) > end):
            return


def high_percentile(samples: List[float]) -> Optional[tuple]:
    """The highest nearest-rank percentile with at least 10 samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def describe(samples: List[float], scale: float = 1.0, unit: str = "s") -> str:
    text = f"median {statistics.median(samples) * scale:.4f} {unit}"
    high = high_percentile(samples)
    if high is None:
        text += ", no percentile with 10 samples above it"
    else:
        text += f", p{high[0]:.1f} {high[1] * scale:.4f} {unit}"
    return text + f" (n={len(samples)})"


class Verdict:
    """Op counts and problems across every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add_pass(self, result: Dict[str, Any], ref: Dict[str, Any], label: str) -> None:
        self.attempted += result["attempted"]
        self.problems += result["failures"]
        diverged = [key for key in ("digest", "sim") if result[key] != ref[key]]
        if diverged:
            # a pass whose simulated outputs differ fails every op it ran
            self.failed += result["attempted"]
            self.problems.append(f"{label}: {' and '.join(diverged)} differ from the first pass")
        else:
            self.failed += result["failed"]

    def check(self, label: str, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


def end_to_end(passes: List[Dict[str, Any]], design: Dict[str, float]) -> Dict[str, float]:
    values = {
        "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "ops_per_s": statistics.median(p["units"] / (p["wall_s"] * p["speed"]) for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    values.update(design)
    return values


def print_end_to_end(workload: str, seed: int, passes, values, units, verdict) -> None:
    print(f"perfbench {workload} seed={seed}: {len(passes)} timed cold passes,"
          f" work per pass: {passes[0]['units']} {WORKLOADS[workload].units}")
    for name in ("setup_s", "wall_s"):
        print(f"  {name:<12} {describe([p[name] * p['speed'] for p in passes])};"
              f" unscaled median {statistics.median(p[name] for p in passes):.4f} s")
    print(f"  speed        median {statistics.median(p['speed'] for p in passes):.3f}x"
          " the nominal reference machine")
    latencies = [x for p in passes for x in p["latencies"]]
    print(f"  op latency   {describe(latencies, 1e3, 'ms')}")
    for name, value in values.items():
        note = ""
        if name in PAPER_VALUES:
            note = f"   (design seed {DESIGN_SEED}; paper: {PAPER_VALUES[name]}"
            if name in passes[0]["sim"]:
                note += f"; seed {seed}: {passes[0]['sim'][name]:.6g}"
            note += ")"
        print(f"  {name:<24} {value:.6g} {units[name]}{note}")
    rate = verdict.failed / verdict.attempted
    print(f"  error_rate   {rate:g} ({verdict.failed} failed / {verdict.attempted} attempted)")


def print_trace_table(layers: Dict[str, float]) -> None:
    wall = layers["trace.wall_s"]
    selfs = sorted(((k[:-len(".self_s")], v) for k, v in layers.items()
                    if k.endswith(".self_s")), key=lambda kv: -kv[1])
    names = {name for name, _ in selfs}
    print(f"  {'layer':<22} {'self_s':>9} {'share':>7}  calls")
    for name, value in selfs + [("(unattributed)", layers["trace.unattributed_s"])]:
        calls = [f"{k[len(name) + 1:]}={int(v)}" for k, v in layers.items()
                 if k.startswith(name + ".") and k.endswith("calls")
                 and k.rsplit(".", 1)[0] not in names]
        print(f"  {name:<22} {value:9.4f} {100 * value / wall:6.1f}%  {' '.join(calls)}")
    print(f"  {'traced wall':<22} {wall:9.4f}  overhead {layers['trace.overhead_pct']:.1f}%"
          " over the untraced wall")


def traced_run(runner: Passes, seconds: float, verdict: Verdict,
               counts: List[str]) -> Dict[str, float]:
    """Alternate untraced (import-timed) and traced passes; fold them."""
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    spans = os.path.join(OUT_DIR, f"{runner.workload}-seed{runner.seed}-spans.json")

    def pair() -> None:
        plain.append(runner.run(importtime=True))
        traced.append(runner.run(trace=True, spans_out="" if traced else spans))

    repeat_for(seconds, pair)
    for index, result in enumerate(plain + traced):
        verdict.add_pass(result, plain[0], f"pass {index + 1}")
    for result in traced[1:]:
        same = all(result["layers"][k] == traced[0]["layers"][k] for k in counts)
        verdict.check("traced pass", same, "layer counts differ between traced passes")
    for index, result in enumerate(traced):
        layers = result["layers"]
        parts = [v for k, v in layers.items() if k.endswith(".self_s")]
        parts.append(layers["trace.unattributed_s"])
        # a negative part means spans that leave their parent or overlap a
        # sibling; a sum off the wall means top-level spans that overlap or
        # lie outside the timed pass
        verdict.check(f"traced pass {index + 1}", min(parts) > -1e-9
                      and abs(sum(parts) - layers["trace.wall_s"]) < 1e-6,
                      "self times and trace.unattributed_s are not a partition of the"
                      " traced wall time")
    # report one whole pass, the median by wall time, so its self times and
    # trace.unattributed_s add up to its traced wall time
    layers = dict(sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]["layers"])
    for name in IMPORT_TREES.keys() | {"import.total_s"}:
        layers[name] = statistics.median(p["imports"][name] for p in plain)
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    layers["trace.overhead_pct"] = 100.0 * (layers["trace.wall_s"] - untraced_wall) / untraced_wall
    print(f"perfbench {runner.workload} seed={runner.seed}: traced run,"
          f" {len(traced)} traced + {len(plain)} untraced passes; spans in {spans}")
    print_trace_table(layers)
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 7 for the figure and lab"
                             " workloads, 42 for crash-recovery)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    runner = Passes(args.workload, seed)
    verdict = Verdict()
    try:
        if args.trace:
            counts = [m["name"] for m in section if m["unit"] == "count"]
            values = traced_run(runner, args.seconds, verdict, counts)
        else:
            timed: List[Dict[str, Any]] = []
            repeat_for(args.seconds, lambda: timed.append(runner.timed()))
            for index, result in enumerate(timed):
                verdict.add_pass(result, timed[0], f"pass {index + 1}")
            design = runner.design()
            if seed == DESIGN_SEED:
                agree = all(design[k] == v for k, v in timed[0]["sim"].items())
                verdict.check("design pass", agree,
                              f"simulated metrics {design} differ from the workload's")
            values = end_to_end(timed, design)
            print_end_to_end(args.workload, seed, timed, values, units, verdict)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = sorted(set(units) - set(values))
    unlisted = sorted(set(values) - set(units))
    if missing or unlisted:
        print(f"error: no value for {missing}; not in BENCHMARK.json: {unlisted}",
              file=sys.stderr)
        return 1
    for problem in verdict.problems[:20]:
        print(f"  FAIL {problem}")
    correct = not verdict.problems and verdict.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
