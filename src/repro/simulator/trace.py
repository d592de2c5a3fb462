"""Execution traces and ASCII Gantt rendering.

Figures 1 and 2 of the paper are Gantt charts with memory labels; the
:func:`render_gantt` helper reproduces them as text so examples and
benchmark output can show the schedules directly in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

from repro.core.schedule import Schedule

__all__ = ["TraceRecord", "render_gantt"]


@dataclass(frozen=True)
class TraceRecord:
    """One executed task occurrence in a simulation trace."""

    task_id: object
    processor: int
    start: float
    finish: float
    storage: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


def _records_from_schedule(schedule: Schedule) -> List[TraceRecord]:
    starts, finishes = schedule.start_times, schedule.completion_times()
    records = [
        TraceRecord(
            task_id=task.id,
            processor=schedule.processor_of(task.id),
            start=starts[task.id],
            finish=finishes[task.id],
            storage=task.s,
        )
        for task in schedule.instance.tasks
    ]
    return sorted(records, key=lambda r: (r.processor, r.start, str(r.task_id)))


def render_gantt(
    schedule_or_records: Union[Schedule, Sequence[TraceRecord]],
    width: int = 60,
    show_memory: bool = True,
) -> str:
    """Render a schedule (or trace) as an ASCII Gantt chart.

    Each processor gets one row; task blocks are scaled to ``width``
    characters over the makespan, and a per-processor memory total is shown
    on the right when ``show_memory`` is set (mirroring the labels of
    Figures 1 and 2).
    """
    if isinstance(schedule_or_records, Schedule):
        records = _records_from_schedule(schedule_or_records)
        m = schedule_or_records.instance.m
    else:
        records = sorted(schedule_or_records, key=lambda r: (r.processor, r.start, str(r.task_id)))
        m = (max((r.processor for r in records), default=-1)) + 1
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    makespan = max((r.finish for r in records), default=0.0)
    lines: List[str] = []
    scale = (width / makespan) if makespan > 0 else 0.0
    for proc in range(m):
        row = [" "] * width
        mem = 0.0
        for rec in records:
            if rec.processor != proc:
                continue
            mem += rec.storage
            start_col = int(rec.start * scale)
            end_col = max(start_col + 1, int(rec.finish * scale))
            end_col = min(end_col, width)
            label = str(rec.task_id)
            for col in range(start_col, end_col):
                offset = col - start_col
                row[col] = label[offset] if offset < len(label) else "="
        line = f"P{proc} |{''.join(row)}|"
        if show_memory:
            line += f"  mem={mem:g}"
        lines.append(line)
    footer = f"     0{' ' * (width - len(f'{makespan:g}') - 1)}{makespan:g}"
    lines.append(footer)
    return "\n".join(lines)
