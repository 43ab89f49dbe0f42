"""Pieces shared by every workload: statistics, the closed loop, spans, tallies.

Statistics use the standard library only, so an edit to the measured
program cannot change how it is measured.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter, perf_counter_ns


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


class Tally:
    """Operations attempted and failed, with failures counted by class.

    One operation fails once however many of its checks fail; each failing
    check or error class is still counted in `by_class`.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_class: Counter[str] = Counter()

    def op(self, faults: list[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            self.by_class.update(faults)


class Record:
    """One timed operation: its input slot, when it ended (ns), how long, what came back."""

    __slots__ = ("slot", "t", "ms", "out", "error")

    def __init__(self, slot: int, t: int, ms: float, out, error: str | None) -> None:
        self.slot = slot
        self.t = t
        self.ms = ms
        self.out = out
        self.error = error


def call(op, slot: int) -> Record:
    """Time one operation; an exception becomes the record's error class.

    The benchmark must keep running when the program raises, so every
    exception is caught here and reported as a failed operation.
    """
    start = perf_counter_ns()
    try:
        out = op(slot)
        error = None
    except Exception as exc:  # noqa: BLE001 - counted, never fatal
        out = None
        error = type(exc).__name__
    end = perf_counter_ns()
    return Record(slot, end, (end - start) / 1e6, out, error)


def closed_loop(n_slots: int, seconds: float, op, clock=None,
                every_s: float = 0.0) -> list[Record]:
    """One caller, no think time: run `op` over slots 0..n-1 in order, cycling.

    Stops once `seconds` have passed and every slot has run at least once,
    so the first pass is always complete and its outputs are the same for
    every run with the same inputs.  With a `clock`, a reference chunk runs
    before the first operation, after each `every_s` seconds of operations
    and after the last.
    """
    records: list[Record] = []
    start = perf_counter()
    if clock is not None:
        clock.tick()
    since_tick = 0.0
    slot = 0
    while True:
        rec = call(op, slot)
        records.append(rec)
        since_tick += rec.ms / 1000.0
        if clock is not None and since_tick >= every_s:
            clock.tick()
            since_tick = 0.0
        slot += 1
        if slot == n_slots:
            slot = 0
        if len(records) >= n_slots and perf_counter() - start >= seconds:
            break
    if clock is not None and since_tick:
        clock.tick()
    return records


def scaled_ms(records: list[Record], clock) -> list[float]:
    """Each operation's time at reference speed; as measured without a clock."""
    if clock is None:
        return [r.ms for r in records]
    return [r.ms * clock.scale(r.t) for r in records]


def per_slot_medians(records: list[Record], ms: list[float], n_slots: int) -> list[float]:
    """The median time of each input slot over the run's passes.

    Each slot counts once however many passes reached it, so a run that
    stops part-way through a pass still weighs every input the same.
    """
    by_slot: list[list[float]] = [[] for _ in range(n_slots)]
    for rec, v in zip(records, ms):
        by_slot[rec.slot].append(v)
    return [statistics.median(v) for v in by_slot]


def timing_metrics(ms: list[float]) -> dict[str, float]:
    """Throughput over the summed operation times, and their p50 and p90."""
    return {
        "samples_per_s": 1000.0 * len(ms) / sum(ms),
        "sample_ms_p50": p50(ms),
        "sample_ms_p90": p90(ms),
    }


def repeat_faults(records: list[Record], n_slots: int) -> dict[int, list[str]]:
    """Faults of operations whose output differs from their slot's first output."""
    faults: dict[int, list[str]] = {}
    for i in range(n_slots, len(records)):
        rec, ref = records[i], records[i % n_slots]
        if rec.error != ref.error or (rec.error is None and rec.out != ref.out):
            faults[i] = ["check:nondeterministic"]
    return faults


class NoTracer:
    """Stand-in for `Tracer` on the untraced path: calls straight through."""

    def open(self, name, parent, sample):
        return None

    def close(self, span) -> None:
        pass

    def call(self, name, parent, sample, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory: name, start and end (ns), parent span, sample id."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: int | None, sample: int) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent, sample])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = perf_counter_ns()

    def call(self, name: str, parent: int | None, sample: int, fn, *args, **kwargs):
        span = self.open(name, parent, sample)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def durations_ms(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append((end - start) / 1e6)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, sample) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "sample": sample}) + "\n")


def stage_metrics(prefix: str, stages: list[str], durations: dict[str, list[float]],
                  busy_total_ms: float, with_p90: bool) -> dict[str, float]:
    """p50 (and p90) ms per stage, and the stage's share of the busy time."""
    out: dict[str, float] = {}
    for stage in stages:
        vals = durations.get(f"{prefix}.{stage}", [])
        out[f"{prefix}.{stage}.ms_p50"] = p50(vals) if vals else 0.0
        if with_p90:
            out[f"{prefix}.{stage}.ms_p90"] = p90(vals) if vals else 0.0
        out[f"{prefix}.{stage}.busy_share"] = sum(vals) / busy_total_ms
    return out
