"""Self-time arithmetic of the span tracer on synthetic coroutine trees.

A fake clock advances only where a test says work happens, so every
expected figure is exact.
"""
import asyncio
import types

import pytest

from tracer import IDLE, ROOT, Tracer, idle_timing, totals


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spin(self, seconds):
        self.now += seconds


def run_loop(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def by_name(tracer):
    return {s.name: s for s in tracer.spans}


def test_suspended_parent_is_not_busy():
    clock = FakeClock()
    tracer = Tracer(clock)

    async def inner(gate):
        clock.spin(2.0)
        await gate  # suspended while another task lets 10 s pass
        clock.spin(3.0)
        return "inner-result"

    async def outer(gate):
        clock.spin(1.0)
        result = await traced_inner(gate)
        clock.spin(4.0)
        return result

    traced_inner = tracer.wrap_async(inner, "inner")
    traced_outer = tracer.wrap_async(outer, "outer")

    async def untraced_sleeper(gate):
        await asyncio.sleep(0)
        clock.spin(10.0)
        gate.set_result(None)

    async def main():
        gate = asyncio.get_running_loop().create_future()
        results = await asyncio.gather(traced_outer(gate), untraced_sleeper(gate))
        return results[0]

    with tracer.run(0):
        assert run_loop(main()) == "inner-result"

    t = totals(tracer.spans)
    assert t["inner"] == {"calls": 1, "busy": 5.0, "self": 5.0, "sim": 0.0}
    assert t["outer"]["busy"] == 10.0
    assert t["outer"]["self"] == 5.0  # busy minus the child's busy
    spans = by_name(tracer)
    assert spans["inner"].parent == spans["outer"].id
    assert spans[ROOT].self_time == 10.0  # the sleep belongs to nobody traced
    assert spans[ROOT].busy == 20.0
    assert sum(s.self_time for s in tracer.spans) == spans[ROOT].busy


def test_task_spawned_child_is_not_subtracted_from_its_creator():
    clock = FakeClock()
    tracer = Tracer(clock)

    async def child():
        clock.spin(7.0)

    async def parent():
        clock.spin(1.0)
        task = asyncio.create_task(traced_child())
        clock.spin(1.0)
        await task

    traced_child = tracer.wrap_async(child, "child")
    traced_parent = tracer.wrap_async(parent, "parent")
    with tracer.run(0):
        run_loop(traced_parent())

    spans = by_name(tracer)
    # The child ran in its own task, outside the parent's resumes, but the
    # parent created it, so the parent is its causal parent.
    assert spans["child"].parent == spans["parent"].id
    assert spans["parent"].busy == 2.0 and spans["parent"].self_time == 2.0
    assert spans["child"].busy == 7.0 and spans["child"].self_time == 7.0
    assert sum(s.self_time for s in tracer.spans) == spans[ROOT].busy == 9.0


def test_sync_span_inside_coroutine_and_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock)

    def encode(x):
        clock.spin(0.5)
        return x * 2

    def broken():
        clock.spin(0.25)
        raise ValueError("boom")

    traced_encode = tracer.wrap_sync(encode, "encode")
    traced_broken = tracer.wrap_sync(broken, "broken")

    async def work():
        clock.spin(1.0)
        assert traced_encode(21) == 42
        with pytest.raises(ValueError):
            traced_broken()
        await asyncio.sleep(0)
        clock.spin(1.0)

    traced_work = tracer.wrap_async(work, "work")
    with tracer.run(3):
        run_loop(traced_work())

    spans = by_name(tracer)
    assert spans["work"].busy == 2.75
    assert spans["work"].self_time == 2.0
    assert spans["encode"].parent == spans["work"].id
    assert spans["broken"].busy == 0.25
    assert {s.run for s in tracer.spans} == {3}


def test_cancelled_coroutine_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    async def waits_forever():
        clock.spin(1.0)
        await asyncio.get_running_loop().create_future()

    traced = tracer.wrap_async(waits_forever, "waiter")

    async def main():
        task = asyncio.create_task(traced())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    with tracer.run(0):
        run_loop(main())
    spans = by_name(tracer)
    assert spans["waiter"].busy == 1.0
    assert sum(s.self_time for s in tracer.spans) == spans[ROOT].busy


def test_selector_wait_is_idle_not_busy():
    tracer = Tracer()

    async def sleeper():
        await asyncio.sleep(0.05)

    traced = tracer.wrap_async(sleeper, "sleeper")
    with tracer.run(0), idle_timing(tracer):
        loop = asyncio.new_event_loop()  # what gplmt's real-clock run does
        try:
            loop.run_until_complete(traced())
        finally:
            loop.close()

    t = totals(tracer.spans)
    assert t[IDLE]["busy"] >= 0.04
    assert t["sleeper"]["busy"] < 0.04
    root = by_name(tracer)[ROOT]
    assert root.idle == pytest.approx(t[IDLE]["busy"])
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(root.busy)


def test_installed_patches_are_restored():
    tracer = Tracer()
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    wrapper = tracer.wrap_sync(original, "f")
    with tracer.installed([(module, "f", wrapper)]):
        assert module.f is wrapper
    assert module.f is original



def test_traced_dry_run_accounts_for_its_wall_time(tmp_path):
    import contextlib

    from gplmt import scheduler, telemetry, transport

    import generate
    import layers
    import workloads

    original_exec = transport.Session.exec
    runner = workloads.RealClockRunner(generate.deep(2, 20, "deep", (0.05, 0.05), loss_share=0.0),
                                       tmp_path)
    runner.prepare()  # the virtual run, with a run directory
    tracer = Tracer()

    @contextlib.contextmanager
    def scope():
        with tracer.installed(layers.trace_patches(tracer)), idle_timing(tracer), tracer.run(0):
            yield

    rep_dir = tmp_path / "rep"
    rep_dir.mkdir()
    rep = runner.rep(rep_dir, scope)
    assert transport.Session.exec is original_exec
    assert scheduler.render_report is telemetry.render_report

    kinds = {}
    for event in rep.events:
        kinds[event[1]] = kinds.get(event[1], 0) + 1
    metrics = layers.layer_metrics(tracer, 0, rep, kinds)
    assert metrics["unaccounted"] < 1e-9
    assert metrics["scheduler.node_executions"] == 40  # 20 nodes: the step and the teardown
    assert metrics["telemetry.records"] == len(rep.events)
    assert metrics["telemetry.render_report_calls"] == 2
    assert metrics["transport.exec_calls"] == kinds["TaskStart"] - metrics["transport.fetch_calls"]
    assert metrics["trace.idle_s"] > 0  # the real clock waits for scripted durations
    assert 0 < metrics["scheduler.run_s"] < metrics["trace.wall_s"] - metrics["trace.idle_s"] + 1e-9
