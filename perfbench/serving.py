"""The serving stack as production runs it, and the open-loop load generator.

The service is configured the way the project README documents
production: ``ResilientReranker(deadline_ms=50, slo_monitor=serving_slo())``
behind ``RerankService`` with the slate cache on, windowed telemetry on,
batches of up to 16 and a 2 ms coalescing window.

Traffic is an open loop: independent users send on a Poisson schedule
made before the phase starts, from one process and one event loop.  Each
request is timed from the instant it was *due*, so a stall that delays
later sends is charged to them, and the generator reports how late it ran.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from repro.obs import windows as obs_windows
from repro.obs.slo import serving_slo
from repro.resilience.degrade import ResilientReranker
from repro.serve import RerankService, ServiceOverloaded, ServingTenant, SlateCache

DEADLINE_MS = 50.0  # per-stage deadline, and the serving_slo threshold
MAX_BATCH = 16
MAX_WAIT_MS = 2.0
CACHE_CAPACITY = 8192
CACHE_TTL_S = 60.0
MAX_PENDING = 4096

LATENCY_LIMIT_MS = 50.0  # max_rps: p99 must stay within this
BACKLOG_LIMIT_MS = 50.0  # ... and the last request must finish this soon
STEP_FLOOR = 1.05  # the search's smallest step between probe rates

# Request index of the coroutine serving it; read by the tracer.
REQUEST_ID: ContextVar = ContextVar("perfbench_request", default=None)


def build_service(reranker, world, histories) -> RerankService:
    resilient = ResilientReranker(
        reranker, deadline_ms=DEADLINE_MS, slo_monitor=serving_slo()
    )
    tenant = ServingTenant(resilient, world.catalog, world.population, list(histories))
    return RerankService(
        tenant,
        cache=SlateCache(capacity=CACHE_CAPACITY, ttl_s=CACHE_TTL_S),
        max_batch_size=MAX_BATCH,
        max_wait_ms=MAX_WAIT_MS,
        max_pending=MAX_PENDING,
    )


@dataclass
class Served:
    """One request's outcome, as the client saw it."""

    index: int  # event index in its schedule
    ref: object
    user: int
    due: float
    sent: float
    done: float
    source: str
    permutation: np.ndarray | None
    version_at_send: int
    version_at_done: int

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


@dataclass
class PhaseResult:
    served: "list[Served]" = field(default_factory=list)
    late_ms: "list[float]" = field(default_factory=list)
    writes: int = 0
    shed: int = 0
    errors: int = 0
    drain_ms: float = 0.0

    def latencies(self) -> np.ndarray:
        return np.array([s.latency_ms for s in self.served if s.source != "shed"])

    def quantile(self, q: float) -> float:
        values = self.latencies()
        return float(np.quantile(values, q)) if values.size else math.inf

    @classmethod
    def merge(cls, results: "list[PhaseResult]") -> "PhaseResult":
        merged = cls()
        for result in results:
            merged.served += result.served
            merged.late_ms += result.late_ms
            merged.writes += result.writes
            merged.shed += result.shed
            merged.errors += result.errors
            merged.drain_ms = max(merged.drain_ms, result.drain_ms)
        return merged

    def meets_limit(self) -> bool:
        return (
            self.shed == 0
            and self.errors == 0
            and self.quantile(0.99) <= LATENCY_LIMIT_MS
            and self.drain_ms <= BACKLOG_LIMIT_MS
        )


class HistoryBook:
    """The benchmark's own record of every history write, per user.

    ``version(user)`` counts the writes applied so far; ``history(user, v)``
    rebuilds the history the user had at version ``v`` from the initial
    rows, independently of the service's copy.
    """

    def __init__(self, base_histories) -> None:
        self._base = base_histories
        self._appended: "dict[int, list[np.ndarray]]" = {}

    def version(self, user: int) -> int:
        return len(self._appended.get(user, ()))

    def append(self, user: int, items: np.ndarray) -> None:
        self._appended.setdefault(user, []).append(np.asarray(items, np.int64))

    def history(self, user: int, version: int) -> np.ndarray:
        parts = [np.asarray(self._base[user], np.int64)]
        parts += self._appended.get(user, [])[:version]
        return np.concatenate(parts)


class OpenLoop:
    """Sends a schedule open-loop through a started service.

    Requests and history writes both go out at their scheduled times; the
    schedule, not the service, decides when a write lands.
    """

    def __init__(self, service: RerankService, book: HistoryBook, on_send=None) -> None:
        self.service = service
        self.book = book
        self.on_send = on_send  # tracer hook: (index, ServeRequest) -> None

    async def _one(self, index, event, due, sent, result: PhaseResult) -> None:
        user = event.user
        REQUEST_ID.set(index)
        version = self.book.version(user)
        permutation, source = None, "shed"
        try:
            outcome = await self.service.rerank(event.request)
            permutation, source = outcome.permutation, outcome.source
        except ServiceOverloaded:
            result.shed += 1
        except Exception:  # noqa: BLE001 - the checker fails "error" records
            result.errors += 1
            source = "error"
        done = time.perf_counter()
        result.served.append(
            Served(index, event.ref, user, due, sent, done, source, permutation,
                   version, self.book.version(user))
        )

    async def run(self, events) -> PhaseResult:
        result = PhaseResult()
        loop = asyncio.get_running_loop()
        tasks = []
        start = time.perf_counter() + 0.002
        for index, event in enumerate(events):
            due = start + event.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            result.late_ms.append(1000.0 * (sent - due))
            if event.request is None:
                self.service.update_history(event.user, event.write_items)
                self.book.append(event.user, event.write_items)
                result.writes += 1
                continue
            if self.on_send is not None:
                self.on_send(index, event.request)
            tasks.append(loop.create_task(self._one(index, event, due, sent, result)))
        last_due = start + (events[-1].t if events else 0.0)
        await asyncio.gather(*tasks)
        result.drain_ms = max(0.0, 1000.0 * (time.perf_counter() - last_due))
        return result


async def _spin(stop: asyncio.Event) -> None:
    """Keep the event loop polling instead of blocking between events.

    On a virtual machine an idle vCPU can take tens of milliseconds to
    wake, which would charge the host's scheduler to the program's tail
    latency at low offered rates.  Yielding in a loop keeps the loop
    polling, so timers (send times, batch windows) fire on time; ready
    work always runs before the spinner's next turn.
    """
    while not stop.is_set():
        await asyncio.sleep(0)


def run_phase(service: RerankService, book: HistoryBook, events, on_send=None) -> PhaseResult:
    """One open-loop phase on a fresh event loop, dispatcher running."""
    outcome: "list[PhaseResult]" = []

    # The result leaves through ``outcome``, not as the task's return value:
    # asyncio.run formats the main task's repr after it finishes, which
    # includes a repr of its result, and printing every slate array of a
    # phase took about 0.35 s per phase.
    async def main() -> None:
        stop = asyncio.Event()
        spinner = asyncio.get_running_loop().create_task(_spin(stop))
        await service.start()
        try:
            outcome.append(await OpenLoop(service, book, on_send).run(events))
        finally:
            await service.stop()
            stop.set()
            await spinner

    obs_windows.enable_windowed()
    try:
        asyncio.run(main())
    finally:
        obs_windows.disable_windowed()
    return outcome[0]


def find_max_rps(probe, start: float, probes: int, after_probe=None,
                 factor: float = 1.5) -> "tuple[float, list]":
    """The rate at which half the probes pass, from an up-down staircase.

    Rates rise from ``start`` by ``factor`` while probes pass; after each
    change of direction the step shrinks to its square root, down to
    ``STEP_FLOOR``, and from then on every pass steps up and every failure
    steps down, so the rates offered oscillate about the rate that passes
    half the time.  The result is the geometric mean of the rates probed
    at the smallest step.  On a shared virtual machine the host's load
    moves the process between speeds for stretches of seconds, and now and
    then stalls it long enough to fail a probe at any rate: a bisection
    takes each probe's verdict as final, so one stalled or lucky probe
    moves its result by a whole bracket, while here it moves one probe of
    the average by one small step.
    ``after_probe()``, if given, is called after each probe.
    Returns the estimate and every (rate, passed) probe.
    """
    history, settled = [], []
    rate, step, rising = start, factor, True
    for _ in range(probes):
        passed = probe(rate)
        history.append((rate, passed))
        if step <= STEP_FLOOR:
            settled.append(rate)
        if passed != rising:
            rising = passed
            step = max(STEP_FLOOR, math.sqrt(step))
        rate = rate * step if passed else rate / step
        if after_probe is not None:
            after_probe()
    # Too few probes to reach the smallest step: the last rate probed.
    rates = settled or [history[-1][0]]
    return math.exp(sum(math.log(r) for r in rates) / len(rates)), history
