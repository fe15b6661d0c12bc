"""Span tracer for the benchmark's traced run.

The tracer wraps public functions at the attribute their callers look up
(a class attribute for methods, a module global for internal calls) and
records one span per call: name, start, end, parent span and op id. Spans
stay in memory; :meth:`Tracer.dump` writes them as JSON when the run ends.

A layer's self time is the summed duration of its spans minus the part
their child spans cover. Every span name is reported as exactly one
``<name>.self_s`` metric, and ``trace.unattributed_s`` is the pass's wall
time outside the union of the top-level spans. The two add up to the traced
wall time only when every span lies inside the pass and inside its parent
and overlaps no sibling; ``run.py`` checks that they do. The metric names
come from the wrapped boundaries themselves: a span name, a ``calls`` key
or a count that a hook declares with ``_emits``.

Hot leaves (``CounterCache.access``, ``MappingCache.access``, the engine's
per-event dispatch) are not wrapped. Their counts come from the layers'
own statistics on the instances a pass created.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from patch import Nesting, patch

# a span record: [name, start, end, parent index, op id]
Span = List[Any]
Hook = Callable[["Tracer", tuple, Any, Optional[BaseException]], None]

# span names the workloads open themselves around the lab entry points
LAB_SPANS = ("serve.lab", "resilience.lab", "fleet.lab")


class Tracer:
    """In-memory spans plus counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self.nesting = Nesting()
        self.op: Optional[int] = None
        # every <name>.self_s and count metric the wrapped boundaries report
        self.span_names: Set[str] = set(LAB_SPANS)
        self.count_names: Set[str] = set()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def open(self, name: str) -> Span:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def close(self, record: Span) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-name span duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child_time[index]
        return out

    def covered(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` that at least one top-level span covers."""
        total, reach = 0.0, start
        for lo, hi in sorted((s, e) for _n, s, e, parent, _op in self.spans if parent < 0):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                total += hi - lo
                reach = hi
        return total

    def inclusive_time(self, name: str) -> float:
        """Duration of the outermost spans called ``name``."""
        spans = self.spans
        total = 0.0
        for name_, start, end, parent, _op in spans:
            if name_ == name and (parent < 0 or spans[parent][0] != name):
                total += end - start
        return total

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counters": dict(sorted(self.counters.items())),
                },
                fh,
            )


class Wrap:
    """Trace ``module[.Class].attr``: a span per call, a call count, a hook."""

    def __init__(self, target: str, name: Optional[str] = None,
                 calls: Optional[str] = None, hook: Optional[Hook] = None) -> None:
        self.target = target
        self.name = name  # None: no span
        self.calls = calls  # a re-entered call (super().run) counts once
        self.hook = hook

    def _owner(self) -> Tuple[Any, str]:
        path, attr = self.target.rsplit(".", 1)
        try:
            return importlib.import_module(path), attr
        except ImportError:
            module_path, cls = path.rsplit(".", 1)
            return getattr(importlib.import_module(module_path), cls), attr

    def apply(self, tracer: Tracer) -> None:
        name, calls, hook = self.name, self.calls, self.hook
        nesting, counters = tracer.nesting, tracer.counters
        if name is not None:
            tracer.span_names.add(name)
        tracer.count_names.update(([calls] if calls else []) + list(getattr(hook, "emits", ())))

        def before(_args: tuple) -> Optional[Span]:
            if calls is not None and nesting.enter(calls):
                counters[calls] += 1
            return tracer.open(name) if name is not None else None

        def after(record: Optional[Span], args: tuple, result: Any, exc) -> None:
            if record is not None:
                tracer.close(record)
            if calls is not None:
                nesting.leave(calls)
            if hook is not None:
                hook(tracer, args, result, exc)

        patch(*self._owner(), before, after)


# -- hooks: counts read off arguments, results and exceptions -----------------------


def _emits(*names: str) -> Callable[[Hook], Hook]:
    """Declare the count metrics a hook reports, zero when it never fires."""
    def mark(hook: Hook) -> Hook:
        hook.emits = names  # type: ignore[attr-defined]
        return hook
    return mark


def _keep_instance(key: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, _result: Any, exc) -> None:
        if exc is None:
            tracer.instances[key].append(args[0])
    return hook


@_emits("crypto.aes.blocks")
def _aes_blocks(tracer: Tracer, args: tuple, _result: Any, _exc) -> None:
    tracer.count("crypto.aes.blocks", -(-args[2] // 16))  # otp(self, seed, nbytes)


@_emits("core.fmee.write_line.calls")
def _lines_written(tracer: Tracer, args: tuple, _result: Any, _exc) -> None:
    tracer.count("core.fmee.write_line.calls", len(args[1]))  # write_lines(self, items)


@_emits("flash.ecc.retries", "flash.ecc.uncorrectable")
def _ecc_recover(tracer: Tracer, _args: tuple, result: Any, exc) -> None:
    if exc is None:
        tracer.count("flash.ecc.retries", result.retries)
    else:
        tracer.count("flash.ecc.uncorrectable")


@_emits("ftl.gc.relocated_pages")
def _gc_relocated(tracer: Tracer, _args: tuple, result: Any, exc) -> None:
    if exc is None:
        tracer.count("ftl.gc.relocated_pages", result.pages_relocated)


@_emits("core.integrity_errors")
def _integrity_error(tracer: Tracer, _args: tuple, _result: Any, exc) -> None:
    from repro.core.exceptions import IntegrityError

    if isinstance(exc, IntegrityError):
        tracer.count("core.integrity_errors")


@_emits("recovery.snapshot_bytes")
def _snapshot_bytes(tracer: Tracer, args: tuple, _result: Any, exc) -> None:
    if exc is None:
        tracer.count("recovery.snapshot_bytes", os.path.getsize(args[1]))


@_emits("faults.injected")
def _injected(tracer: Tracer, _args: tuple, result: Any, exc) -> None:
    if exc is None:
        tracer.count("faults.injected", len(result))


@_emits("serve.handshake.refused")
def _handshake(tracer: Tracer, _args: tuple, result: Any, exc) -> None:
    if exc is None and result is None:
        tracer.count("serve.handshake.refused")


def _admit(tracer: Tracer, _args: tuple, result: Any, exc) -> None:
    if exc is None and not result:
        tracer.count("resilience.shed")  # feeds resilience.shed_ratio


def _workload_runs() -> List[Wrap]:
    from repro.workloads.base import ALL_WORKLOADS, Workload

    owners = []
    for cls in ALL_WORKLOADS.values():
        for klass in cls.__mro__:
            if klass is not Workload and "run" in vars(klass) and klass not in owners:
                owners.append(klass)
    return [
        Wrap(f"{k.__module__}.{k.__qualname__}.run", "workloads.run", "workloads.run.calls")
        for k in owners
    ]


def layer_wraps() -> List[Wrap]:
    """Every wrapped boundary, grouped by the layer metrics of README.md."""
    platform_runs = [
        Wrap(f"repro.platform.schemes.{cls}.run", "platform.run", "platform.run.calls")
        for cls in ("HostPlatform", "HostSgxPlatform", "IscPlatform", "IceClavePlatform")
    ]
    return _workload_runs() + platform_runs + [
        Wrap("repro.platform.multitenant.MultiTenantIceClave.run", "platform.multitenant"),
        # timing MEE and the caches whose own stats give the hot-leaf counts
        Wrap("repro.core.mee.MemoryEncryptionEngine.replay", "core.mee.replay",
             "core.mee.replay.calls"),
        Wrap("repro.core.counter_cache.CounterCache.__init__",
             hook=_keep_instance("counter_cache")),
        Wrap("repro.ftl.mapping_cache.MappingCache.__init__",
             hook=_keep_instance("mapping_cache")),
        # event kernel
        Wrap("repro.sim.engine.Engine.__init__", hook=_keep_instance("engine")),
        Wrap("repro.sim.engine.Engine.run", "sim.engine.run", "sim.engine.run.calls"),
        Wrap("repro.sim.engine.Engine.run_until", "sim.engine.run", "sim.engine.run.calls"),
        # flash: timing device, functional chip, ECC
        Wrap("repro.flash.ssd.FlashDevice.read", "flash.device"),
        Wrap("repro.flash.ssd.FlashDevice.write", "flash.device"),
        Wrap("repro.flash.ssd.FlashDevice.erase", "flash.device"),
        Wrap("repro.flash.chip.FlashChip.program", "flash.chip", "flash.chip.program.calls"),
        Wrap("repro.flash.chip.FlashChip.read", "flash.chip", "flash.chip.read.calls"),
        Wrap("repro.flash.chip.FlashChip.erase", "flash.chip", "flash.chip.erase.calls"),
        Wrap("repro.flash.ecc.ReadRetryPolicy.recover", hook=_ecc_recover),
        # functional FTL
        Wrap("repro.ftl.ftl.Ftl.write", "ftl", "ftl.write.calls"),
        Wrap("repro.ftl.ftl.Ftl.read", "ftl", "ftl.read.calls"),
        Wrap("repro.ftl.gc.GarbageCollector.collect_plane", "ftl.gc", "ftl.gc.calls",
             hook=_gc_relocated),
        Wrap("repro.ftl.ftl.Ftl.recover_from_power_loss", "ftl.power_loss",
             "ftl.power_loss.calls"),
        # crypto
        Wrap("repro.crypto.aes.AES128.otp", "crypto.aes", hook=_aes_blocks),
        Wrap("repro.crypto.mac.Mac.digest", "crypto.mac", "crypto.mac.calls"),
        # functional MEE and its Merkle tree
        Wrap("repro.core.mee.FunctionalMee.write_line", "core.fmee",
             "core.fmee.write_line.calls"),
        Wrap("repro.core.mee.FunctionalMee.write_lines", "core.fmee", hook=_lines_written),
        Wrap("repro.core.mee.FunctionalMee.read_line", "core.fmee",
             "core.fmee.read_line.calls", hook=_integrity_error),
        Wrap("repro.core.integrity.BonsaiMerkleTree.update", "core.merkle",
             "core.merkle.update.calls"),
        Wrap("repro.core.integrity.BonsaiMerkleTree.update_batch", "core.merkle",
             "core.merkle.update.calls"),
        Wrap("repro.core.integrity.BonsaiMerkleTree.verify", "core.merkle",
             "core.merkle.verify.calls"),
        # crash-point oracle: snapshot codec and restore, at the oracle's globals
        Wrap("repro.recovery.oracle.snapshot_chaos_runner", "recovery.codec"),
        Wrap("repro.recovery.oracle.save_snapshot", "recovery.codec", "recovery.save.calls",
             hook=_snapshot_bytes),
        Wrap("repro.recovery.oracle.load_snapshot", "recovery.codec", "recovery.load.calls"),
        Wrap("repro.recovery.snapshot.canonical_fingerprint", "recovery.codec"),
        Wrap("repro.recovery.oracle.restore_chaos_runner", "recovery.restore"),
        # chaos runner
        Wrap("repro.faults.chaos.ChaosRunner.step", "faults.chaos", "faults.chaos.step.calls"),
        Wrap("repro.faults.injector.FaultInjector.fire", hook=_injected),
        # serve: front-end, sessions, wire codec
        Wrap("repro.serve.service.OffloadService.handle", "serve.handle", "serve.handle.calls"),
        Wrap("repro.serve.session.SecureChannel.seal", "serve.session",
             "serve.session.seal.calls"),
        Wrap("repro.serve.session.SecureChannel.open", "serve.session",
             "serve.session.open.calls"),
        Wrap("repro.serve.lab.try_handshake", "serve.session", "serve.handshake.calls",
             hook=_handshake),
        Wrap("repro.serve.wire.Request.encode", "serve.wire"),
        Wrap("repro.serve.wire.Request.decode", "serve.wire"),
        Wrap("repro.serve.wire.Reply.encode", "serve.wire"),
        Wrap("repro.serve.wire.Reply.decode", "serve.wire"),
        # resilience admission and fleet routing
        Wrap("repro.resilience.admission.AdmissionController.admit",
             calls="resilience.admit.calls", hook=_admit),
        Wrap("repro.fleet.router.ShardRouter.read", "fleet.router", "fleet.router.read.calls"),
        Wrap("repro.fleet.router.ShardRouter.write", "fleet.router",
             "fleet.router.write.calls"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, start: float, end: float,
                  memo_stats: Dict[str, Dict[str, int]],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Fold one traced pass, timed from ``start`` to ``end``, into the
    per-layer metrics (times in seconds)."""
    selfs = tracer.self_times()
    unknown = set(selfs) - tracer.span_names
    if unknown:
        raise ValueError(f"spans without a self-time metric: {sorted(unknown)}")
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in sorted(tracer.span_names)}
    out.update({name: float(tracer.counters.get(name, 0))
                for name in sorted(tracer.count_names)})

    counter_caches = tracer.instances["counter_cache"]
    cc_hits = sum(c.hits for c in counter_caches)
    out["core.mee.counter_cache_hit_ratio"] = _ratio(
        cc_hits, cc_hits + sum(c.misses for c in counter_caches))
    mapping_caches = tracer.instances["mapping_cache"]
    out["ftl.mapping_cache.accesses"] = float(sum(c.accesses for c in mapping_caches))
    out["ftl.mapping_cache.hit_ratio"] = _ratio(
        sum(c.hits for c in mapping_caches), out["ftl.mapping_cache.accesses"])
    events = float(sum(e.events_fired for e in tracer.instances["engine"]))
    out["sim.events"] = events
    out["sim.events_per_s"] = _ratio(events, tracer.inclusive_time("sim.engine.run"))
    platform_memos = [s for name, s in memo_stats.items() if name.startswith("platform.")]
    memo_hits = sum(s["hits"] for s in platform_memos)
    out["platform.memo_hit_ratio"] = _ratio(
        memo_hits, memo_hits + sum(s["misses"] for s in platform_memos))
    writes = out["ftl.write.calls"]
    out["ftl.write_amplification"] = _ratio(writes + out["ftl.gc.relocated_pages"], writes)
    out["crypto.aes.bytes_per_s"] = _ratio(16 * out["crypto.aes.blocks"],
                                           out["crypto.aes.self_s"])
    out["resilience.shed_ratio"] = _ratio(tracer.counters.get("resilience.shed", 0),
                                          out["resilience.admit.calls"])
    out["resilience.retries"] = float(extra.get("resilience.retries", 0))
    out["fleet.hedge_win_ratio"] = _ratio(extra.get("fleet.hedge_wins", 0),
                                          extra.get("fleet.hedged_reads", 0))
    # time inside no top-level span, from the spans' union: if spans overlap,
    # or start before the pass, the self times no longer add up to the wall
    out["trace.wall_s"] = end - start
    out["trace.unattributed_s"] = (end - start) - tracer.covered(start, end)
    return out
