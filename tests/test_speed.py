"""Tests for the simulator's fast paths.

Every fast path must be *fingerprint-identical* to the plain code it
replaces, so most tests here are differential: run the fast
implementation and the reference implementation side by side and require
exact equality — bitwise for floats, not approximate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as repro_main
from repro.core.exceptions import IntegrityError
from repro.core.integrity import BonsaiMerkleTree
from repro.core.mee import FunctionalMee
from repro.flash.chip import FlashChip
from repro.flash.geometry import small_geometry
from repro.flash.ssd import FlashDevice
from repro.flash.storm import (
    StormUnsupported,
    run_read_storm,
    run_read_storm_events,
)
from repro.flash.timing import FlashTiming
from repro.perf.bench import compare_benches, format_compare
from repro.platform import schemes
from repro.platform.config import PlatformConfig
from repro.recovery.monitors import MonitorSuite
from repro.sim.engine import Engine
from repro.sim.slab import Slab

KEY = bytes(range(16))
MAC_KEY = bytes(range(16, 32))


class TestEventRecycling:
    def test_cancel_recycle_pools_after_skip(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("dead"))
        engine.schedule(2.0, lambda: fired.append("live"))
        assert engine.cancel(event, recycle=True)
        engine.run()
        assert fired == ["live"]
        assert engine.pooled_events == 1

    def test_recycled_handle_is_reused(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.cancel(event, recycle=True)
        engine.run()  # reclaims the handle while skipping the dead entry
        assert engine.pooled_events == 1
        fired = []
        again = engine.schedule(1.0, lambda: fired.append("new"))
        assert again is event  # same object, reinitialized
        assert engine.pooled_events == 0
        engine.run()
        assert fired == ["new"]

    def test_recycled_handle_never_fires_stale_callback(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("stale"))
        engine.cancel(event, recycle=True)
        engine.run()
        engine.schedule(1.0, lambda: fired.append("fresh"))
        engine.run()
        assert fired == ["fresh"]

    def test_plain_cancel_does_not_pool(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        engine.cancel(event)
        engine.run()
        assert engine.pooled_events == 0
        assert event.cancelled

    def test_absorb_requires_quiescence(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            engine.absorb(2.0, 1, 1)
        engine.run()
        engine.absorb(5.0, 3, 3)
        assert engine.now == 5.0
        assert engine.events_fired == 4


def _storm_pair(n, window, channels=4):
    """Run the same storm through the batched kernel and the event engine."""
    devices = []
    for _ in range(2):
        engine = Engine()
        geometry = small_geometry(channels=channels)
        devices.append(FlashDevice(engine, geometry, FlashTiming()))
    fast, ref = devices
    ppas = list(range(min(n, fast.geometry.total_pages)))
    fast_events = run_read_storm(fast, ppas, window=window)
    ref_events = run_read_storm_events(ref, ppas, window=window)
    return fast, ref, fast_events, ref_events


def _assert_devices_identical(fast, ref):
    assert fast.engine.now == ref.engine.now  # bitwise float equality
    assert fast.engine.events_fired == ref.engine.events_fired
    assert fast.engine._seq == ref.engine._seq
    assert fast._page_reads.value == ref._page_reads.value
    for fast_res, ref_res in zip(
        list(fast.dies) + list(fast.channels), list(ref.dies) + list(ref.channels)
    ):
        assert fast_res.jobs_completed == ref_res.jobs_completed
        assert fast_res.total_service_time == ref_res.total_service_time
        assert fast_res.total_wait_time == ref_res.total_wait_time
        assert fast_res.max_queue_depth == ref_res.max_queue_depth
        assert not fast_res.busy and not fast_res.queue_depth


class TestStormKernel:
    @pytest.mark.parametrize(
        "n,window", [(1, 64), (5, 1), (63, 64), (64, 64), (500, 7), (2000, 64)]
    )
    def test_python_kernel_bit_identical_to_event_path(self, n, window):
        fast, ref, fast_events, ref_events = _storm_pair(n, window)
        assert fast_events == ref_events
        _assert_devices_identical(fast, ref)

    @pytest.mark.parametrize("armed", ["chip", "monitor"])
    def test_read_storm_falls_back_and_matches_event_path(self, armed):
        """An unsupported device takes the event path, with identical results."""
        engine = Engine()
        geometry = small_geometry(channels=4)
        device = FlashDevice(engine, geometry, FlashTiming())
        if armed == "chip":
            device.chip = FlashChip(geometry)
        else:
            suite = MonitorSuite()
            suite.attach_engine(engine)
        with pytest.raises(StormUnsupported):
            run_read_storm(device, [0, 1, 2])
        ref = FlashDevice(Engine(), small_geometry(channels=4), FlashTiming())
        events = device.read_storm(range(300), window=16)
        assert events == run_read_storm_events(ref, range(300), window=16) == 600
        _assert_devices_identical(device, ref)
        if armed == "monitor":
            assert suite.stats.invariant_checks == 600

    def test_busy_device_rejected(self):
        engine = Engine()
        device = FlashDevice(engine, small_geometry(channels=4), FlashTiming())
        device.read(0)  # leaves work queued on the engine
        with pytest.raises(StormUnsupported):
            run_read_storm(device, [1, 2])

    def test_empty_storm_is_a_noop(self):
        engine = Engine()
        device = FlashDevice(engine, small_geometry(channels=4), FlashTiming())
        assert device.read_storm([]) == 0
        assert engine.now == 0.0

    def test_storm_composes_with_later_event_reads(self):
        """A storm then normal reads equals all-normal reads, bit for bit."""
        fast, ref, _, _ = _storm_pair(100, 64)
        fast.read(3)
        ref.read(3)
        fast.engine.run()
        ref.engine.run()
        _assert_devices_identical(fast, ref)


# every flash configuration the Figure 12/13 and Figure 14 sweeps measure
_SWEEP_POINTS = {
    **{f"ch{ch}": PlatformConfig().with_channels(ch) for ch in (4, 8, 16, 32)},
    **{
        f"rd{us}us": PlatformConfig().with_flash_read_latency(us * 1e-6)
        for us in (10, 30, 50, 70, 90, 110)
    },
}


class TestThroughputPin:
    """``flash_read_throughput`` on the storm kernel equals the event path."""

    @pytest.mark.parametrize("point", sorted(_SWEEP_POINTS))
    def test_throughput_bit_equal_to_event_path(self, point, monkeypatch):
        config = _SWEEP_POINTS[point]
        kernel_windows = []

        def counted_kernel(device, ppas, window=64):
            kernel_windows.append(window)
            return run_read_storm(device, ppas, window)

        monkeypatch.setattr(schemes, "_throughput_cache", {})
        monkeypatch.setattr("repro.flash.ssd.run_read_storm", counted_kernel)
        fast = schemes.flash_read_throughput(config)
        # the kernel ran (no silent fallback) with the configured window
        assert kernel_windows == [config.queue_depth_per_channel * config.channels]

        monkeypatch.setattr(schemes, "_throughput_cache", {})
        monkeypatch.setattr(
            FlashDevice,
            "read_storm",
            lambda self, ppas, window=64: run_read_storm_events(self, list(ppas), window),
        )
        assert schemes.flash_read_throughput(config) == fast  # bitwise float equality


leaf_bytes = st.binary(min_size=1, max_size=12)
batches = st.lists(
    st.lists(st.tuples(st.integers(0, 63), leaf_bytes), min_size=0, max_size=20),
    min_size=1,
    max_size=6,
)


class TestMerkleIncremental:
    @given(batches)
    @settings(max_examples=40, deadline=None)
    def test_update_batch_identical_to_sequential_updates(self, update_batches):
        """S3: random batched updates produce the same tree as per-leaf ones."""
        leaves = [bytes([i]) * 4 for i in range(64)]
        batched = BonsaiMerkleTree(MAC_KEY)
        sequential = BonsaiMerkleTree(MAC_KEY)
        batched.build(list(leaves))
        sequential.build(list(leaves))
        latest = dict(enumerate(leaves))
        for batch in update_batches:
            batched.update_batch(batch)
            for index, leaf in batch:
                sequential.update(index, leaf)
                latest[index] = leaf
            assert batched.root == sequential.root
            assert batched.dram_nodes == sequential.dram_nodes
            assert batched.updates == sequential.updates
            for index in (0, 31, 63):
                assert batched.verify(index, latest[index]) == sequential.verify(
                    index, latest[index]
                )

    def test_batch_saves_node_writes_on_shared_paths(self):
        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        # 8 sibling leaves share every interior node on their paths
        writes = tree.update_batch([(i, bytes([0x80 + i])) for i in range(8)])
        assert writes == 8 + tree.depth  # one parent chain, not eight

    def test_tamper_detected_after_batched_update(self):
        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        tree.update_batch([(i, bytes([0x40 + i])) for i in range(16)])
        # node (1, 0) sits on leaf 9's sibling set; verify recomputes leaf
        # 9's own path but trusts stored siblings, so this must be caught
        tree.corrupt_node(1, 0)
        with pytest.raises(IntegrityError):
            tree.verify(9, bytes([0x49]))

    def test_replayed_leaf_detected_after_batched_update(self):
        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        tree.update_batch([(5, b"new-epoch")])
        with pytest.raises(IntegrityError):
            tree.verify(5, bytes([5]))  # stale (replayed) leaf value

    def test_memo_stays_bounded(self):
        from repro.core import integrity

        tree = BonsaiMerkleTree(MAC_KEY)
        tree.build([bytes([i]) for i in range(64)])
        for round_no in range(50):
            tree.update_batch([(i, bytes([round_no, i])) for i in range(0, 64, 3)])
        assert len(tree._memo) <= integrity._MEMO_MAX


class TestWriteLinesBatch:
    def test_write_lines_identical_to_write_line_loop(self):
        items = [
            (page, line, bytes([page, line, rep]) * 3)
            for rep in range(2)
            for page in (0, 1, 3)
            for line in (0, 2, 5)
        ]
        batched = FunctionalMee(4, KEY, MAC_KEY)
        sequential = FunctionalMee(4, KEY, MAC_KEY)
        batched.write_lines(list(items))
        for page, line, plaintext in items:
            sequential.write_line(page, line, plaintext)
        assert batched.snapshot_state() == sequential.snapshot_state()
        for page, line, _ in items:
            assert batched.read_line(page, line) == sequential.read_line(page, line)


class TestNvmeSlab:
    def _queue_pair(self):
        from repro.host.nvme import NvmeQueuePair
        from repro.host.pcie import PcieLink

        engine = Engine()
        return engine, NvmeQueuePair(engine, PcieLink())

    def test_drain_recycles_records_and_keeps_aggregates(self):
        engine, qp = self._queue_pair()
        for _ in range(8):
            qp.submit("read", 4096)
        engine.run()
        assert qp.completed_count == 8
        assert qp.completed_bytes == 8 * 4096
        throughput = qp.throughput_bytes_per_s()
        assert qp.drain_completed() == 8
        assert qp.completed == []
        assert qp.completed_count == 8
        assert qp.throughput_bytes_per_s() == throughput
        for _ in range(4):
            qp.submit("write", 512)
        engine.run()
        assert qp.slab_stats["reused"] >= 4
        assert qp.completed_count == 12
        assert qp.completed_bytes == 8 * 4096 + 4 * 512

    def test_timeout_handles_are_recycled(self):
        engine, qp = self._queue_pair()
        for _ in range(16):
            qp.submit("read", 4096, timeout=10.0)
        engine.run()
        assert qp.timeouts == 0
        # cancelled timers were reclaimed into the engine's event pool
        assert engine.pooled_events > 0

    def test_snapshot_roundtrip_preserves_aggregates(self):
        engine, qp = self._queue_pair()
        for _ in range(3):
            qp.submit("read", 1024)
        engine.run()
        qp.drain_completed()
        state = qp.snapshot_state()
        _, fresh = self._queue_pair()
        fresh.restore_state(state)
        assert fresh.completed_count == 3
        assert fresh.completed_bytes == 3 * 1024


class TestSlab:
    def test_acquire_release_reuses_objects(self):
        slab = Slab(list, max_size=2)
        a = slab.acquire()
        slab.release(a)
        assert slab.acquire() is a
        assert slab.stats()["reused"] == 1

    def test_release_beyond_cap_drops(self):
        slab = Slab(list, max_size=1)
        slab.release([])
        slab.release([])
        assert len(slab) == 1


class TestBenchCompare:
    def _payload(self, wall, cal, mode="quick", rate=None):
        return {
            "schema": 1,
            "mode": mode,
            "calibration_s": cal,
            "benchmarks": [
                {
                    "name": "kernel-flash-read",
                    "wall_s": wall,
                    "events": 4000,
                    "events_per_s": rate,
                }
            ],
        }

    def test_speedup_is_calibration_normalized(self):
        baseline = self._payload(2.0, 0.1, rate=1000.0)
        current = self._payload(1.0, 0.2, rate=5000.0)  # machine is 2x slower
        comparison = compare_benches(baseline, current)
        case = comparison["cases"][0]
        assert case["speedup"] == pytest.approx(4.0)
        assert case["event_rate_ratio"] == pytest.approx(5.0)
        assert "kernel-flash-read" in format_compare(comparison)

    def test_mode_mismatch_suppresses_wall_speedups(self):
        comparison = compare_benches(
            self._payload(2.0, 0.1, mode="quick"), self._payload(1.0, 0.1, mode="full")
        )
        assert not comparison["comparable_modes"]
        assert comparison["cases"][0]["speedup"] is None
        assert "WARNING" in format_compare(comparison)

    def test_cli_compare_runs_without_measuring(self, tmp_path, capsys):
        import json

        a = tmp_path / "BENCH_0.json"
        b = tmp_path / "BENCH_1.json"
        a.write_text(json.dumps(self._payload(2.0, 0.1)))
        b.write_text(json.dumps(self._payload(1.0, 0.1)))
        out = tmp_path / "cmp.json"
        rc = repro_main(
            ["bench", "--compare", str(a), str(b), "--compare-json", str(out)]
        )
        assert rc == 0
        assert "kernel-flash-read" in capsys.readouterr().out
        written = json.loads(out.read_text())
        assert written["cases"][0]["speedup"] == pytest.approx(2.0)


class TestProfilerAllocs:
    def test_top_allocs_table_in_report(self):
        from repro.perf.profiler import profile_run

        report = profile_run("filter", scheme="host", top=5, top_allocs=5)
        assert "allocation sites" in report.alloc_table
        assert "allocation sites" in report.format()

    def test_cli_flag(self, capsys):
        rc = repro_main(["profile", "filter", "--scheme", "host", "--top-allocs", "3"])
        assert rc == 0
        assert "allocation sites" in capsys.readouterr().out
