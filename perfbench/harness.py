"""Timing, tracing and failure accounting for the dcnbench benchmark.

A workload is a set-up step plus a fixed list of operations (``Op``). One
pass runs every operation once; the runner repeats passes until the time
budget is spent and reports the host time per pass and, per operation, the
mean host time over the passes, all scaled to a reference host speed (see
``SpeedProbe``). Each
``Op.key`` is ``<module>.<subject>.<call>``; the module part names the
dcnbench layer the operation calls into.

Outputs of the first pass go through the oracles. Every later pass repeats
the same calls on the same inputs, so its outputs must have the same digest;
they then inherit the first pass's check results, and a different digest is
a failure of its own ("nondeterministic"). A raised exception fails the
operation in whatever pass it happens, and its time still counts toward the
operation's timing.

With tracing on, every public call into the package is wrapped in a span
(id, parent, name, start, end, exception type). Spans stay in memory and are
written out when the run ends. Traced and untraced passes alternate, so one
traced run also measures the tracing overhead.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

CLOCK = time.perf_counter
TRACED_PASSES = 2  # bounds the spans a traced run holds in memory
MAX_SETUPS = 1000


class CheckError(Exception):
    """An output failed its oracle. ``check`` names the oracle."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        super().__init__(f"{check}: {detail}" if detail else check)


@dataclass
class Op:
    """One timed unit of work.

    ``run(tracer)`` makes the calls into the layer, each through
    ``tracer.wrap(key, fn)``, and returns their outputs. ``digest(result)``
    is a cheap, JSON-able summary of the seeded outputs. ``check(result,
    fail)`` applies the oracles, calling ``fail(tag)`` once per failed output
    or raising ``CheckError``. ``calls`` is how many operations one ``run``
    attempts.
    """

    key: str
    run: Callable[["Tracer"], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any, Callable[..., None]], None]
    calls: int = 1


def call_op(key: str, fn: Callable, args: tuple, digest, check, **kwargs) -> Op:
    """An operation that is a single call ``fn(*args, **kwargs)``."""
    return Op(key, lambda tracer: tracer.wrap(key, fn)(*args, **kwargs), digest, check)


class Tracer:
    """Span recorder. When disabled, ``wrap`` returns the function itself."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack = [0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        if not self.enabled:
            return fn
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            error = None
            start = CLOCK()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                spans.append((len(spans) + 1, stack[-1], name, start, CLOCK(), error))

        return traced

    def open(self, name: str) -> list:
        """Start a parent span; end it with ``close``."""
        span = [len(self.spans) + 1, self._stack[-1], name, CLOCK(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        self._stack.pop()
        span[4] = CLOCK()

    def leaf_time(self, since: int) -> dict[str, float]:
        """Summed duration of the leaf spans (the public calls) recorded
        from index ``since`` on, keyed by span name."""
        recent = self.spans[since:]
        parents = {s[1] for s in recent}
        out: dict[str, float] = defaultdict(float)
        for s in recent:
            if s[0] not in parents:
                out[s[2]] += s[4] - s[3]
        return out


class SpeedProbe:
    """Measures how fast this process's core runs while operations execute.

    Two tenants sharing a physical core slow each other down by up to a
    factor of two, in spells of one to ten seconds, so raw host times of the
    same work swing by tens of percent between runs. While ``active``, a
    wall-clock timer interrupts the process every ``INTERVAL`` seconds and
    times a small fixed task (breadth-first search, the package's own kind of
    work). ``factor`` turns raw seconds into seconds at the reference speed,
    at which the task takes ``REFERENCE_S``: work done at speed ``1/s(t)``
    over a raw interval is the interval times the mean of ``1/s(t)``, and
    each sample gives ``REFERENCE_S / task_time = 1/s(t)``.
    """

    INTERVAL = 0.05
    MIN_SAMPLES = 5
    REFERENCE_S = 0.00025  # the task on an uncontended 2-vCPU Intel Xeon core
    NODES = 1000

    def __init__(self) -> None:
        steps = (1, 7, 61, 409)
        n = self.NODES
        self.adjacency = [
            tuple(sorted({(v + d) % n for d in steps} | {(v - d) % n for d in steps}))
            for v in range(n)
        ]
        self.samples: list[float] = []
        self.active = False

    def _task(self) -> int:
        dist = [-1] * self.NODES
        dist[0] = 0
        frontier = [0]
        adjacency = self.adjacency
        while frontier:
            nxt = []
            for v in frontier:
                dv = dist[v] + 1
                for nb in adjacency[v]:
                    if dist[nb] < 0:
                        dist[nb] = dv
                        nxt.append(nb)
            frontier = nxt
        return len(nxt)

    def _sample(self, signum, frame) -> None:
        if self.active:
            start = CLOCK()
            self._task()
            self.samples.append(CLOCK() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, since: int = 0) -> float:
        """Reference-speed seconds per raw second, over the samples taken
        from index ``since`` on; over all samples when that interval holds
        fewer than ``MIN_SAMPLES`` (1.0 when there are none at all)."""
        recent = self.samples[since:]
        if len(recent) < self.MIN_SAMPLES:
            recent = self.samples
        if not recent:
            return 1.0
        return self.REFERENCE_S * statistics.fmean(1.0 / r for r in recent)


class Recorder:
    """Collects per-operation timings, failures and digests over passes."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.tracer = Tracer()
        self.probe = SpeedProbe()
        self.setup_s: list[float] = []  # raw seconds per repetition
        self.setup_factor = 1.0
        self.setup_calls: dict[str, list[float]] = defaultdict(list)
        self.op_s: dict[str, list[float]] = defaultdict(list)  # untraced, reference speed
        self.raw_op_s: dict[str, list[float]] = defaultdict(list)
        self.call_s: dict[str, list[float]] = defaultdict(list)  # traced leaf spans
        self.pass_totals: dict[bool, list[float]] = {False: [], True: []}  # by traced
        self.traced_spans = 0
        self.pass_factors: list[float] = []
        self.failures: dict[str, Counter] = defaultdict(Counter)
        self.attempted = 0
        self.digest: dict[str, Any] = {}
        self.checked: dict[str, Counter] = {}  # first-pass check failures

    @property
    def failed(self) -> int:
        return sum(sum(c.values()) for c in self.failures.values())

    # -- set-up -----------------------------------------------------------

    def timed(self, key: str, fn: Callable, *args, **kwargs) -> Any:
        """Time one set-up call into the package (a builder, a provider)."""
        call = self.tracer.wrap(key, fn)
        start = CLOCK()
        result = call(*args, **kwargs)
        self.setup_calls[key].append(CLOCK() - start)
        return result

    def set_up(self, setup: Callable[["Recorder"], Any], min_reps: int, min_s: float) -> Any:
        """Run ``setup`` at least ``min_reps`` times and until ``min_s``
        seconds have gone into it; return the last state."""
        self.tracer.enabled = self.tracing
        since = len(self.probe.samples)
        state = None
        while len(self.setup_s) < min_reps or (
            sum(self.setup_s) < min_s and len(self.setup_s) < MAX_SETUPS
        ):
            state = None  # free the previous build before timing the next
            gc.collect()
            self.probe.active = True
            start = CLOCK()
            state = setup(self)
            self.setup_s.append(CLOCK() - start)
            self.probe.active = False
        self.setup_factor = self.probe.factor(since)
        self.tracer.enabled = False
        return state

    # -- passes -----------------------------------------------------------

    def run_pass(self, ops: list[Op], traced: bool) -> None:
        tracer = self.tracer
        tracer.enabled = traced
        since = len(tracer.spans)
        pass_span = tracer.open("pass") if traced else None
        gc.collect()
        probe = self.probe
        first_sample = len(probe.samples)
        raw = {}
        for op in ops:
            self.attempted += op.calls
            op_span = tracer.open(op.key) if traced else None
            probe.active = True
            start = CLOCK()
            try:
                result = op.run(tracer)
            except Exception as exc:
                result = exc.with_traceback(None)  # drop the failed call's frames
            elapsed = CLOCK() - start
            probe.active = False
            if op_span is not None:
                tracer.close(op_span)
            raw[op.key] = elapsed
            self._account(op, result)
        factor = probe.factor(first_sample)
        if not traced:
            for key, elapsed in raw.items():
                self.raw_op_s[key].append(elapsed)
                self.op_s[key].append(elapsed * factor)
        self.pass_totals[traced].append(sum(raw.values()) * factor)
        self.pass_factors.append(factor)
        if pass_span is not None:
            tracer.close(pass_span)
            self.traced_spans += len(tracer.spans) - since
            for name, seconds in tracer.leaf_time(since).items():
                self.call_s[name].append(seconds * factor)
        tracer.enabled = False

    def _account(self, op: Op, result: Any) -> None:
        failures = self.failures[op.key]
        if isinstance(result, Exception):
            failures[type(result).__name__] += op.calls
            self.digest.setdefault(op.key, f"error:{type(result).__name__}")
            return
        digest = op.digest(result)
        if op.key not in self.checked:
            found: Counter = Counter()

            def fail(tag: str, count: int = 1) -> None:
                found[tag] += count

            try:
                op.check(result, fail)
            except CheckError as exc:
                found[exc.check] += op.calls - sum(found.values())
            self.checked[op.key] = found
            self.digest[op.key] = digest
        elif digest != self.digest[op.key]:
            failures["nondeterministic"] += op.calls
            return
        failures.update(self.checked[op.key])

    def measure(self, ops: list[Op], seconds: float) -> None:
        """Repeat passes until ``seconds`` have gone. When tracing, passes
        alternate untraced and traced until ``TRACED_PASSES`` traced passes
        have run; later passes run untraced."""
        start = CLOCK()
        index = 0
        while index < (2 if self.tracing else 1) or CLOCK() - start < seconds:
            traced = self.tracing and index % 2 == 1 and len(self.pass_totals[True]) < TRACED_PASSES
            self.run_pass(ops, traced)
            index += 1

    # -- results ----------------------------------------------------------

    def mean_op_s(self, key: str) -> float:
        """Mean host seconds of an operation over the untraced passes, at the
        reference speed."""
        samples = self.op_s.get(key)
        return statistics.fmean(samples) if samples else 0.0

    def pass_s(self) -> float:
        """Host seconds per pass, at the reference speed: the lower quartile
        over the untraced passes. Contention only ever slows a pass down, and
        the speed probe does not see all of it, so the low end of the passes
        is the steadier figure."""
        totals = self.pass_totals[False]
        if len(totals) < 2:
            return totals[0] if totals else 0.0
        return statistics.quantiles(totals, n=4, method="inclusive")[0]

    def layer_s(self, key: str) -> float:
        """Median host seconds, at the reference speed, in the public calls
        named ``key``: per traced pass from the spans, or per repetition for
        set-up calls."""
        if self.call_s.get(key):
            return statistics.median(self.call_s[key])
        samples = self.setup_calls.get(key)
        return statistics.median(samples) * self.setup_factor if samples else 0.0

    def failure_table(self) -> dict[str, dict[str, int]]:
        return {key: dict(tags) for key, tags in sorted(self.failures.items()) if tags}
