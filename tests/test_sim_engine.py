"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Engine, Resource


class TestEngine:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = Engine()
        fired = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        engine.schedule(5.5, lambda: None)
        engine.run()
        assert engine.now == pytest.approx(5.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_cancel_prevents_firing(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        engine.cancel(event)
        engine.run()
        assert fired == []

    def test_run_until_stops_early(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == pytest.approx(5.0)
        engine.run()
        assert fired == [1, 2]

    def test_run_until_is_run_with_until(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        engine.run_until(5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 2]

    def test_events_scheduled_during_run_fire(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule(1.0, lambda: fired.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == ["outer", "inner"]
        assert engine.now == pytest.approx(2.0)

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        times = []
        engine.schedule(2.0, lambda: engine.schedule_at(7.0, lambda: times.append(engine.now)))
        engine.run()
        assert times == [pytest.approx(7.0)]

    def test_reset_clears_state(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending == 0

    def test_max_events_bound(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_clock_is_monotonic_for_any_delays(self, delays):
        engine = Engine()
        observed = []
        for delay in delays:
            engine.schedule(delay, lambda: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


class TestResource:
    def test_single_server_serializes(self):
        engine = Engine()
        res = Resource(engine, "r", servers=1)
        done = []
        res.acquire(2.0, on_done=lambda: done.append(engine.now))
        res.acquire(2.0, on_done=lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(2.0), pytest.approx(4.0)]

    def test_multi_server_parallelizes(self):
        engine = Engine()
        res = Resource(engine, "r", servers=2)
        done = []
        for _ in range(2):
            res.acquire(2.0, on_done=lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_fifo_ordering(self):
        engine = Engine()
        res = Resource(engine, "r", servers=1)
        order = []
        for tag in "abcd":
            res.acquire(1.0, on_done=lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c", "d"]

    def test_utilization_full_when_saturated(self):
        engine = Engine()
        res = Resource(engine, "r", servers=1)
        for _ in range(4):
            res.acquire(1.0)
        engine.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_mean_wait_accounts_queueing(self):
        engine = Engine()
        res = Resource(engine, "r", servers=1)
        res.acquire(1.0)
        res.acquire(1.0)  # waits 1s
        engine.run()
        assert res.mean_wait() == pytest.approx(0.5)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            Resource(Engine(), "r", servers=0)

    def test_rejects_negative_service_time(self):
        with pytest.raises(ValueError):
            Resource(Engine(), "r").acquire(-1.0)

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30),
    )
    def test_completion_time_bounds(self, servers, service_times):
        """Makespan lies between total/servers and total work (FIFO bound)."""
        engine = Engine()
        res = Resource(engine, "r", servers=servers)
        for t in service_times:
            res.acquire(t)
        end = engine.run()
        total = sum(service_times)
        assert end <= total + 1e-9
        assert end >= total / servers - 1e-9
        assert res.jobs_completed == len(service_times)
