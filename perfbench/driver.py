"""Closed-loop client driver over one long-lived ``repro.serve.Engine``.

One thread plays every client.  Between two engine steps each idle
client sends its next request; a client is idle again once its request
finishes, fails or is aborted by the client.  Because submissions,
aborts and scrapes happen at step boundaries and depend only on the
step outputs, the step schedule is the same in every run with one seed;
only the time per step varies.

Latencies are taken from the engine's ``TokenDelta`` stamps: TTFT from
the handle's submit time to its first token, ITL across every gap
between two tokens of one request (including requests later aborted,
whose gaps the client saw).  Each client's first request is its ramp:
all clients send at once when the loop starts, so those requests measure
queue position in the opening burst rather than steady state, and their
latencies are not sampled.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
from repro.serve import Engine, RequestHandle, SamplingParams, StepOutputs

from workloads import RequestSpec, Workload

#: Every SAMPLE_MOD-th finished request (by finish order, offset by the
#: seed) is kept for the bitwise oracle comparison, up to SAMPLE_CAP.
SAMPLE_MOD = 7
SAMPLE_CAP = 6

#: Throughput is taken per segment of this many steps; the reported rate
#: is the median segment, so a burst of host interference shorter than
#: half the run does not move it.
SEGMENT_STEPS = 50


def scrape(engine: Engine) -> None:
    """What a monitoring agent pulls: the summary and the exposition."""
    engine.metrics()
    engine.telemetry.prometheus()


class StepObserver(Protocol):
    def submitted(self, handle: RequestHandle) -> None: ...

    def before_step(self) -> None: ...

    def after_step(self, engine: Engine, outputs: StepOutputs) -> None: ...


@dataclass
class _InFlight:
    client: int
    handle: RequestHandle
    spec: RequestSpec
    sampled: bool
    received: int = 0
    last_time: float = 0.0


@dataclass
class Window:
    """Exact counts of the first ``window_steps`` steps."""

    steps: int
    new_tokens: int
    prefix_hit_tokens: int
    dram_bytes: float

    @property
    def dram_bytes_per_token(self) -> float:
        return self.dram_bytes / self.new_tokens


@dataclass
class LoopResult:
    wall_s: float = 0.0
    segment_rates: list[float] = field(default_factory=list)
    steps: int = 0
    tokens: int = 0
    prompt_tokens: int = 0
    prefix_hit_tokens: int = 0
    preemptions: int = 0
    sent: int = 0
    finished: int = 0
    aborted: int = 0
    cut: int = 0
    failed: int = 0
    ttft_s: list[float] = field(default_factory=list)
    itl_s: list[float] = field(default_factory=list)
    window: Window | None = None
    #: ru_maxrss when the count window closed (fixed work for one seed).
    window_peak_rss_mb: float = 0.0
    samples: list[tuple[np.ndarray, int, np.ndarray]] = field(default_factory=list)


class ClosedLoop:
    """Drives ``workload.clients`` closed-loop clients on ``engine``."""

    def __init__(
        self,
        engine: Engine,
        workload: Workload,
        domain: int,
        seed: int,
        observer: StepObserver | None = None,
    ) -> None:
        self.engine = engine
        self.workload = workload
        self.seed = seed
        self.observer = observer
        self.streams = [
            workload.client_stream(domain, seed, client)
            for client in range(workload.clients)
        ]
        self.inflight: dict[int, _InFlight] = {}
        self.idle = list(range(workload.clients))
        self.result = LoopResult()

    def run(self, min_steps: int, seconds: float) -> LoopResult:
        """Step until both ``min_steps`` steps and ``seconds`` have passed.

        Requests still in flight at the end are aborted by their
        clients (counted as ``cut``), so every measured step runs at the
        workload's full concurrency and nothing is left in the engine.
        """
        engine, workload, result = self.engine, self.workload, self.result
        paused = 0.0
        started = mark = time.perf_counter()
        mark_tokens = 0
        while True:
            for client in self.idle:
                self._send(client)
            self.idle = []
            if self.observer is not None:
                self.observer.before_step()
            outputs = engine.step()
            report = outputs.report
            result.steps += 1
            result.prefix_hit_tokens += report.prefix_hit_tokens
            result.preemptions += report.preemptions
            self._collect(outputs)
            if workload.scrape_every and result.steps % workload.scrape_every == 0:
                scrape(engine)
            if self.observer is not None:
                self.observer.after_step(engine, outputs)
            if result.steps % SEGMENT_STEPS == 0:
                now = time.perf_counter()
                rate = (result.tokens - mark_tokens) / (now - mark)
                result.segment_rates.append(rate)
                mark, mark_tokens = now, result.tokens
            if result.steps == workload.window_steps:
                begin = time.perf_counter()
                summary = engine.metrics()
                result.window = Window(
                    steps=summary.steps,
                    new_tokens=summary.total_new_tokens,
                    prefix_hit_tokens=summary.prefix_hit_tokens,
                    dram_bytes=summary.traffic.total_bytes,
                )
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                result.window_peak_rss_mb = peak_kb / 1024.0
                mark = time.perf_counter()
                paused += mark - begin
            if result.steps >= min_steps and time.perf_counter() - started >= seconds:
                break
        result.wall_s = time.perf_counter() - started - paused
        for record in list(self.inflight.values()):
            record.handle.abort()
            result.cut += 1
        self.inflight.clear()
        return result

    def _send(self, client: int) -> None:
        spec = next(self.streams[client])
        handle = self.engine.submit(
            spec.prompt, SamplingParams(max_new_tokens=spec.max_new_tokens)
        )
        self.result.sent += 1
        self.result.prompt_tokens += int(spec.prompt.shape[0])
        self.inflight[handle.request_id] = _InFlight(
            client, handle, spec, sampled=self.result.sent > self.workload.clients
        )
        if self.observer is not None:
            self.observer.submitted(handle)

    def _collect(self, outputs: StepOutputs) -> None:
        result = self.result
        done: list[_InFlight] = []
        for delta in outputs.deltas:
            record = self.inflight[delta.request_id]
            if record.sampled and delta.index == 0:
                result.ttft_s.append(delta.time - record.handle.arrival_time)
            elif record.sampled:
                result.itl_s.append(delta.time - record.last_time)
            record.last_time = delta.time
            record.received += 1
            result.tokens += 1
            if delta.finished:
                done.append(record)
            elif (
                record.spec.abort_after is not None
                and record.received >= record.spec.abort_after
            ):
                record.handle.abort()
                result.aborted += 1
                done.append(record)
        for record in done:
            self._retire(record)
        # A failed request emits no delta; it shows only in its status.
        for record in list(self.inflight.values()):
            if record.handle.failed:
                result.failed += 1
                self._retire(record)

    def _retire(self, record: _InFlight) -> None:
        result = self.result
        handle = record.handle
        del self.inflight[handle.request_id]
        self.idle.append(record.client)
        if not handle.finished:
            return
        completed = handle.result()
        result.finished += 1
        if (
            len(result.samples) < SAMPLE_CAP
            and (result.finished + self.seed) % SAMPLE_MOD == 0
        ):
            spec = record.spec
            result.samples.append(
                (spec.prompt, spec.max_new_tokens, completed.continuation())
            )
