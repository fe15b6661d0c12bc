"""Exact kernel for windowed page-read storms.

A windowed read storm drives one closed loop: ``window`` reads are
outstanding; each channel completion issues the next page. Under constant
service times this storm has special structure —

- every die job takes ``t_RD`` and every channel job takes ``t_xfer``, so
  completion events *within each class* are generated in nondecreasing
  time order;
- therefore the engine's heap degenerates into two FIFOs (die completions,
  channel completions) merged by ``(time, seq)``.

The kernel below emulates the event engine on those two FIFOs without any
heap operations — and without approximation. Every observable the event
path would have produced is reproduced **bit for bit**: the final clock,
events fired, sequence numbers consumed, and each :class:`Resource`'s
``jobs_completed`` / ``total_service_time`` / ``total_wait_time`` /
``max_queue_depth`` (float accumulators are advanced by the same additions
in the same per-resource order; ``x + 0.0`` no-ops are elided, which is
bitwise neutral for the non-negative accumulators involved). The test
suite pins this equivalence differentially against the real engine.

Its production caller is :func:`repro.platform.schemes.flash_read_throughput`,
through :meth:`FlashDevice.read_storm`, so every figure sweep runs it. When a
precondition fails (functional chip attached, engine busy, invariant
monitor armed), :class:`StormUnsupported` sends the caller to
:func:`run_read_storm_events`, the per-event reference path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.sim.resource import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flash.ssd import FlashDevice


class StormUnsupported(RuntimeError):
    """The exact storm kernel cannot run here; use the event path."""


def _check_supported(device: "FlashDevice", window: int) -> None:
    engine = device.engine
    if window < 1:
        raise ValueError("window must be >= 1")
    if device.chip is not None:
        raise StormUnsupported("functional chip attached: reads carry data work")
    if engine.running:
        raise StormUnsupported("engine is mid-run; the kernel needs a quiescent point")
    if engine.pending:
        raise StormUnsupported("engine queue is not empty")
    if engine.invariant_monitor is not None:
        raise StormUnsupported("invariant monitor armed: per-event hooks required")
    if device.timing.read_latency <= 0.0 or device._page_transfer_time <= 0.0:
        raise StormUnsupported("degenerate service times break FIFO event order")
    for res in device.dies:
        if type(res) is not Resource or res.busy or res.queue_depth:
            raise StormUnsupported("die resources must be plain and idle")
    for res in device.channels:
        if type(res) is not Resource or res.busy or res.queue_depth:
            raise StormUnsupported("channel resources must be plain and idle")


def run_read_storm(device: "FlashDevice", ppas: Sequence[int], window: int = 64) -> int:
    """Run a windowed closed-loop read storm to completion, exactly.

    Returns the number of engine events the equivalent per-event run would
    have fired (two per page: die completion + channel completion). Raises
    :class:`StormUnsupported` when the exactness preconditions do not hold;
    callers fall back to :func:`run_read_storm_events`.
    """
    _check_supported(device, window)
    ppa_list = list(ppas)
    n = len(ppa_list)
    if n == 0:
        return 0
    geometry = device.geometry
    chan_arr, die_arr = geometry.channel_and_die_arrays(ppa_list)
    dies = device.dies
    channels = device.channels
    ndies = len(dies)
    nchans = len(channels)
    t_rd = device.timing.read_latency
    t_xfer = device._page_transfer_time
    now0 = device.engine.now

    # per-resource accumulators, seeded from current stats so the kernel's
    # additions continue the exact float sequences the event path would
    die_wait = [r.total_wait_time for r in dies]
    chan_wait = [r.total_wait_time for r in channels]
    die_serv = [r.total_service_time for r in dies]
    chan_serv = [r.total_service_time for r in channels]
    die_jobs = [r.jobs_completed for r in dies]
    chan_jobs = [r.jobs_completed for r in channels]
    die_maxq = [r.max_queue_depth for r in dies]
    chan_maxq = [r.max_queue_depth for r in channels]

    now = _python_kernel(
        n, window, t_rd, t_xfer, die_arr, chan_arr, ndies, nchans, now0,
        die_wait, chan_wait, die_serv, chan_serv,
        die_jobs, chan_jobs, die_maxq, chan_maxq,
    )

    events = 2 * n
    device.engine.absorb(now, events, events)
    for i, res in enumerate(dies):
        res.total_wait_time = die_wait[i]
        res.total_service_time = die_serv[i]
        res.jobs_completed = die_jobs[i]
        res.max_queue_depth = die_maxq[i]
    for i, res in enumerate(channels):
        res.total_wait_time = chan_wait[i]
        res.total_service_time = chan_serv[i]
        res.jobs_completed = chan_jobs[i]
        res.max_queue_depth = chan_maxq[i]
    device._page_reads.add(n)
    return events


def run_read_storm_events(device: "FlashDevice", ppas: Sequence[int], window: int = 64) -> int:
    """The same storm through the real event engine (reference path).

    Drives the engine to completion; requires a non-running engine. Returns
    the number of events fired for the storm.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    ppa_list = list(ppas)
    engine = device.engine
    before = engine.events_fired
    state = {"next": 0}

    def issue_one() -> None:
        i = state["next"]
        if i >= len(ppa_list):
            return
        state["next"] = i + 1
        device.read(ppa_list[i], on_done=issue_one)

    for _ in range(min(window, len(ppa_list))):
        issue_one()
    engine.run()
    return engine.events_fired - before


# -- the two-FIFO merge loop ---------------------------------------------------


def _python_kernel(
    n: int,
    window: int,
    t_rd: float,
    t_xfer: float,
    die_arr: List[int],
    chan_arr: List[int],
    ndies: int,
    nchans: int,
    now0: float,
    die_wait: List[float],
    chan_wait: List[float],
    die_serv: List[float],
    chan_serv: List[float],
    die_jobs: List[int],
    chan_jobs: List[int],
    die_maxq: List[int],
    chan_maxq: List[int],
) -> float:
    die_busy = [False] * ndies
    chan_busy = [False] * nchans
    die_q: List[deque] = [deque() for _ in range(ndies)]
    chan_q: List[deque] = [deque() for _ in range(nchans)]
    # the two completion FIFOs: (time, seq, read index). Entries are
    # appended in nondecreasing (time, seq) order — constant service times
    # make each lane sorted by construction.
    dq: deque = deque()
    cq: deque = deque()
    dq_append = dq.append
    cq_append = cq.append
    dq_pop = dq.popleft
    cq_pop = cq.popleft
    seq = 0

    # prime the window: reads 0..W-1 all issue at now0
    first = min(window, n)
    for k in range(first):
        d = die_arr[k]
        if die_busy[d]:
            q = die_q[d]
            q.append((k, now0))
            if len(q) > die_maxq[d]:
                die_maxq[d] = len(q)
        else:
            die_busy[d] = True
            seq += 1
            dq_append((now0 + t_rd, seq, k))
    issued = first
    now = now0
    inf = (float("inf"), 0, 0)
    dhead = dq[0] if dq else inf
    chead = inf
    while True:
        if dhead <= chead:
            if dhead is inf:
                break
            # die completion: mirrors Resource._finish on the die, then
            # FlashDevice.read's after_sense acquiring the channel
            dq_pop()
            now, _s, i = dhead
            d = die_arr[i]
            die_jobs[d] += 1
            die_serv[d] += t_rd
            q = die_q[d]
            if q:
                j, enq = q.popleft()
                die_wait[d] += now - enq
                seq += 1
                dq_append((now + t_rd, seq, j))
            else:
                die_busy[d] = False
            c = chan_arr[i]
            if chan_busy[c]:
                q2 = chan_q[c]
                q2.append((i, now))
                lq = len(q2)
                if lq > chan_maxq[c]:
                    chan_maxq[c] = lq
            else:
                chan_busy[c] = True
                seq += 1
                cq_append((now + t_xfer, seq, i))
                if chead is inf:
                    chead = cq[0]
            dhead = dq[0] if dq else inf
        else:
            # channel completion: Resource._finish on the channel, then the
            # closed loop's on_done issuing the next read
            cq_pop()
            now, _s, i = chead
            c = chan_arr[i]
            chan_jobs[c] += 1
            chan_serv[c] += t_xfer
            q2 = chan_q[c]
            if q2:
                j, enq = q2.popleft()
                chan_wait[c] += now - enq
                seq += 1
                cq_append((now + t_xfer, seq, j))
            else:
                chan_busy[c] = False
            if issued < n:
                k = issued
                issued += 1
                d = die_arr[k]
                if die_busy[d]:
                    q = die_q[d]
                    q.append((k, now))
                    lq = len(q)
                    if lq > die_maxq[d]:
                        die_maxq[d] = lq
                else:
                    die_busy[d] = True
                    seq += 1
                    dq_append((now + t_rd, seq, k))
                    if dhead is inf:
                        dhead = dq[0]
            chead = cq[0] if cq else inf
    return now


__all__: Tuple[str, ...] = (
    "StormUnsupported",
    "run_read_storm",
    "run_read_storm_events",
)
