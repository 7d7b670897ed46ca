"""Disabled-registry fast path: allocation-free and within budget.

The whole premise of leaving instrumentation permanently in the hot
layers is that a disabled registry costs one predictable branch per
call.  These tests pin that down two ways: structurally (the disabled
``span``/``timer`` return the *shared* null singleton — no per-call
allocation) and by wall clock (a generous per-call budget relative to a
bare loop, median-of-trials to damp scheduler noise).
"""

import time

from repro import obs
from repro.obs import NULL_SPAN, Registry

#: Calls per timing trial.
N = 50_000

#: Trials; the median damps one-off scheduler hiccups.
TRIALS = 5

#: Budget: a disabled call may cost at most this many times a bare
#: loop iteration.  The real ratio is single-digit; the slack keeps
#: CI machines with noisy clocks from flaking.
MAX_RATIO = 60.0


def _median_time(fn) -> float:
    samples = []
    for _ in range(TRIALS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[TRIALS // 2]


class TestDisabledAllocations:
    def test_span_returns_shared_singleton(self):
        registry = Registry()
        assert registry.span("a") is NULL_SPAN
        assert registry.timer("b") is NULL_SPAN

    def test_disabled_calls_leave_no_trace(self):
        registry = Registry()
        registry.incr("x")
        registry.gauge("g", 1.0)
        registry.histogram("h", 2.0)
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}


class TestDisabledOverheadBudget:
    def test_incr_within_budget_of_bare_loop(self):
        registry = Registry()
        incr = registry.incr

        def bare():
            x = 0
            for _ in range(N):
                x += 1
            return x

        def instrumented():
            x = 0
            for _ in range(N):
                x += 1
                incr("hot.counter")
            return x

        bare_s = _median_time(bare)
        instr_s = _median_time(instrumented)
        per_iter = max(bare_s / N, 1e-9)
        overhead_per_call = (instr_s - bare_s) / N
        assert overhead_per_call < MAX_RATIO * per_iter, (
            f"disabled incr costs {overhead_per_call * 1e9:.1f} ns/call vs "
            f"{per_iter * 1e9:.1f} ns bare iteration "
            f"(budget {MAX_RATIO:.0f}x)"
        )

    def test_disabled_span_within_budget_of_bare_loop(self):
        registry = Registry()
        span = registry.span

        def bare():
            x = 0
            for _ in range(N):
                x += 1
            return x

        def instrumented():
            x = 0
            for _ in range(N):
                x += 1
                with span("hot.span"):
                    pass
            return x

        bare_s = _median_time(bare)
        instr_s = _median_time(instrumented)
        per_iter = max(bare_s / N, 1e-9)
        overhead_per_call = (instr_s - bare_s) / N
        assert overhead_per_call < MAX_RATIO * per_iter, (
            f"disabled span costs {overhead_per_call * 1e9:.1f} ns/call vs "
            f"{per_iter * 1e9:.1f} ns bare iteration "
            f"(budget {MAX_RATIO:.0f}x)"
        )

    def test_disabled_histogram_within_budget_of_bare_loop(self):
        # The transient and TSP hooks record through histogram;
        # disabled, they must stay one-branch cheap.
        registry = Registry()
        histogram = registry.histogram

        def bare():
            x = 0.0
            for _ in range(N):
                x += 1.0
            return x

        def instrumented():
            x = 0.0
            for _ in range(N):
                x += 1.0
                histogram("hot.hist", x)
            return x

        bare_s = _median_time(bare)
        instr_s = _median_time(instrumented)
        per_iter = max(bare_s / N, 1e-9)
        overhead_per_call = (instr_s - bare_s) / N
        assert overhead_per_call < MAX_RATIO * per_iter, (
            f"disabled histogram costs {overhead_per_call * 1e9:.1f} ns/call "
            f"vs {per_iter * 1e9:.1f} ns bare iteration "
            f"(budget {MAX_RATIO:.0f}x)"
        )

    def test_module_level_incr_disabled_budget(self):
        was_enabled = obs.enabled()
        obs.disable()

        def bare():
            x = 0
            for _ in range(N):
                x += 1
            return x

        def instrumented():
            x = 0
            for _ in range(N):
                x += 1
                obs.incr("hot.counter")
            return x

        try:
            bare_s = _median_time(bare)
            instr_s = _median_time(instrumented)
        finally:
            if was_enabled:
                obs.enable()
        per_iter = max(bare_s / N, 1e-9)
        overhead_per_call = (instr_s - bare_s) / N
        assert overhead_per_call < MAX_RATIO * per_iter


class TestEnabledSpanBudget:
    def test_enabled_span_within_budget_of_bare_loop(self):
        registry = Registry(enabled=True)
        span = registry.span
        n = N // 10

        def bare():
            x = 0
            for _ in range(n):
                x += 1
            return x

        def instrumented():
            x = 0
            for _ in range(n):
                x += 1
                with span("hot.span"):
                    pass
            return x

        bare_s = _median_time(bare)
        instr_s = _median_time(instrumented)
        per_iter = max(bare_s / n, 1e-9)
        overhead_per_call = (instr_s - bare_s) / n
        # Enabled spans do real bookkeeping; the budget is accordingly
        # looser.
        assert overhead_per_call < 60 * MAX_RATIO * per_iter
