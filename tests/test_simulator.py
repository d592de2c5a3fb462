"""Unit tests for the discrete-event simulator (events, machine, engine, executor, trace)."""

from __future__ import annotations

import pytest

from repro.core.instance import Instance
from repro.core.rls import rls
from repro.core.sbo import sbo
from repro.core.schedule import Schedule
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import Event, EventKind, EventQueue
from repro.simulator.executor import simulate_schedule
from repro.simulator.machine import MemoryOverflowError, Processor
from repro.simulator.trace import TraceRecord, render_gantt
from repro.workloads.independent import uniform_instance


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(Event(time=3.0, kind=EventKind.TASK_START, task_id="c"))
        q.push(Event(time=1.0, kind=EventKind.TASK_START, task_id="a"))
        q.push(Event(time=2.0, kind=EventKind.TASK_START, task_id="b"))
        assert [q.pop().task_id for _ in range(3)] == ["a", "b", "c"]

    def test_finish_before_start_at_same_time(self):
        q = EventQueue()
        q.push(Event(time=5.0, kind=EventKind.TASK_START, task_id="start"))
        q.push(Event(time=5.0, kind=EventKind.TASK_FINISH, task_id="finish"))
        assert q.pop().task_id == "finish"

    def test_fifo_for_equal_keys(self):
        q = EventQueue()
        q.push(Event(time=1.0, kind=EventKind.TASK_START, task_id="first"))
        q.push(Event(time=1.0, kind=EventKind.TASK_START, task_id="second"))
        assert q.pop().task_id == "first"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(time=-1.0, kind=EventKind.TASK_START))

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            EventQueue().pop()
        with pytest.raises(IndexError):
            EventQueue().peek()

    def test_len_bool_iter(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(Event(time=0.0, kind=EventKind.CUSTOM))
        q.push(Event(time=1.0, kind=EventKind.CUSTOM))
        assert bool(q) and len(q) == 2
        assert len(list(iter(q))) == 2
        assert len(q) == 0  # iteration drains


class TestProcessor:
    def test_memory_accounting(self):
        proc = Processor(id=0, memory_capacity=10.0)
        proc.reserve_memory("a", 6.0)
        assert proc.memory_used == 6.0
        assert proc.can_store(4.0)
        assert not proc.can_store(4.1)
        with pytest.raises(MemoryOverflowError):
            proc.reserve_memory("b", 5.0)

    def test_unlimited_memory(self):
        proc = Processor(id=0)
        proc.reserve_memory("a", 1e9)
        assert proc.memory_used == 1e9

    def test_negative_memory_rejected(self):
        with pytest.raises(ValueError):
            Processor(id=0).reserve_memory("a", -1.0)

    def test_execution_exclusivity(self):
        proc = Processor(id=0)
        finish = proc.execute("a", start=0.0, duration=5.0)
        assert finish == 5.0
        with pytest.raises(RuntimeError):
            proc.execute("b", start=3.0, duration=1.0)
        assert proc.execute("b", start=5.0, duration=1.0) == 6.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Processor(id=0).execute("a", 0.0, -1.0)

    def test_utilisation(self):
        proc = Processor(id=0)
        proc.execute("a", 0.0, 4.0)
        assert proc.utilisation(8.0) == 0.5
        assert proc.utilisation(0.0) == 0.0


class TestEngine:
    def test_simple_run(self):
        engine = SimulationEngine(m=2)
        engine.submit_task("a", 0, start=0.0, duration=3.0, storage=1.0)
        engine.submit_task("b", 1, start=0.0, duration=2.0, storage=2.0)
        makespan = engine.run()
        assert makespan == 3.0
        assert engine.completion_times == {"a": 3.0, "b": 2.0}
        assert engine.memory_per_processor == [1.0, 2.0]

    def test_strict_overlap_raises(self):
        engine = SimulationEngine(m=1, strict=True)
        engine.submit_task("a", 0, 0.0, 5.0, 0.0)
        engine.submit_task("b", 0, 2.0, 1.0, 0.0)
        with pytest.raises(RuntimeError):
            engine.run()

    def test_non_strict_postpones(self):
        engine = SimulationEngine(m=1, strict=False)
        engine.submit_task("a", 0, 0.0, 5.0, 0.0)
        engine.submit_task("b", 0, 2.0, 1.0, 0.0)
        engine.run()
        assert engine.completion_times["b"] == 6.0

    def test_capacity_enforced(self):
        engine = SimulationEngine(m=1, memory_capacity=5.0)
        engine.submit_task("a", 0, 0.0, 1.0, 4.0)
        engine.submit_task("b", 0, 1.0, 1.0, 2.0)
        with pytest.raises(MemoryOverflowError):
            engine.run()

    def test_invalid_processor(self):
        engine = SimulationEngine(m=1)
        with pytest.raises(ValueError):
            engine.submit_task("a", 3, 0.0, 1.0, 0.0)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            SimulationEngine(m=0)

    def test_finish_callback(self):
        engine = SimulationEngine(m=1)
        finished = []
        engine.on_task_finish(lambda ev: finished.append(ev.task_id))
        engine.submit_task("a", 0, 0.0, 1.0, 0.0)
        engine.run()
        assert finished == ["a"]


class TestSimulateSchedule:
    def test_independent_schedule_agrees(self, medium_instance):
        sched = sbo(medium_instance, delta=1.0).schedule
        report = simulate_schedule(sched)
        assert report.ok
        assert report.cmax == pytest.approx(sched.cmax)
        assert report.mmax == pytest.approx(sched.mmax)
        assert report.sum_ci == pytest.approx(sched.sum_ci)
        assert len(report.trace) == medium_instance.n

    def test_dag_schedule_agrees(self, diamond_dag):
        result = rls(diamond_dag, delta=3.0)
        report = simulate_schedule(result.schedule)
        assert report.ok
        assert report.cmax == pytest.approx(result.cmax)
        assert report.mmax == pytest.approx(result.mmax)

    def test_capacity_violation_reported(self, medium_instance):
        sched = Schedule(medium_instance, {t.id: 0 for t in medium_instance.tasks})
        report = simulate_schedule(sched, memory_capacity=1.0)
        assert not report.ok
        assert report.violations

    def test_precedence_violation_reported(self, diamond_dag):
        bad = Schedule(
            diamond_dag,
            {"a": 0, "b": 1, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 0.0, "c": 4.0, "d": 8.0},
        )
        report = simulate_schedule(bad)
        assert not report.ok
        assert any("precedence" in v for v in report.violations)

    def test_overlap_reported_not_raised(self, diamond_dag):
        bad = Schedule(
            diamond_dag,
            {"a": 0, "b": 0, "c": 1, "d": 0},
            start_times={"a": 0.0, "b": 1.0, "c": 2.0, "d": 6.0},
        )
        report = simulate_schedule(bad)
        assert not report.ok

    def test_utilisation_and_loads(self, medium_instance):
        sched = sbo(medium_instance, delta=1.0).schedule
        report = simulate_schedule(sched)
        assert len(report.utilisation) == medium_instance.m
        assert all(0.0 <= u <= 1.0 for u in report.utilisation)
        assert sum(report.load_per_processor) == pytest.approx(medium_instance.total_p)

    def test_empty_schedule(self):
        inst = Instance.from_lists(p=[], s=[], m=2)
        report = simulate_schedule(Schedule(inst, {}))
        assert report.ok and report.cmax == 0.0

    def test_random_instances_roundtrip(self):
        for seed in range(3):
            inst = uniform_instance(30, 4, seed=seed)
            sched = sbo(inst, delta=2.0).schedule
            report = simulate_schedule(sched)
            assert report.ok
            assert report.mmax == pytest.approx(sched.mmax)


class TestGantt:
    def test_render_from_schedule(self, medium_instance):
        sched = sbo(medium_instance, delta=1.0).schedule
        text = render_gantt(sched, width=40)
        lines = text.splitlines()
        assert len(lines) == medium_instance.m + 1
        assert all(line.startswith("P") for line in lines[:-1])
        assert "mem=" in lines[0]

    def test_render_from_records(self):
        records = [
            TraceRecord(task_id="a", processor=0, start=0.0, finish=2.0, storage=1.0),
            TraceRecord(task_id="b", processor=1, start=0.0, finish=4.0, storage=2.0),
        ]
        text = render_gantt(records, width=20, show_memory=False)
        assert "P0" in text and "P1" in text and "mem=" not in text

    def test_render_width_validation(self, medium_instance):
        sched = sbo(medium_instance, delta=1.0).schedule
        with pytest.raises(ValueError):
            render_gantt(sched, width=5)

    def test_render_dag_schedule(self, diamond_dag):
        result = rls(diamond_dag, delta=3.0)
        text = render_gantt(result.schedule, width=30)
        assert "P0" in text and "P1" in text

    def test_trace_record_duration(self):
        rec = TraceRecord(task_id="x", processor=0, start=1.0, finish=3.5, storage=0.0)
        assert rec.duration == 2.5
