"""Spans recorded around calls into each layer, kept in memory until the end.

A span is (name, start, end, parent, step): ``parent`` is the index of the
enclosing span or -1, and ``step`` the id of the env step that caused it
(-1 outside the timed loop). Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

import adapter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # five float64 fields per span, flat: name id, start, end, parent, step
        self.records = array("d")
        self._stack: list[int] = []
        self.step = -1

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        records, stack, clock = self.records, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            at = len(records)
            records.extend((nid, 0.0, 0.0, stack[-1] if stack else -1, -1))
            stack.append(at // 5)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records[at + 1] = t0
                records[at + 2] = t1
                records[at + 4] = self.step

        return traced

    def install(self):
        """Wrap every adapter call and package-internal call; returns a
        function that puts the originals back."""
        targets = [(adapter, attr, span) for attr, span in adapter.LAYER_CALLS.items()]
        targets += adapter.INTERNAL_CALLS
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        for owner, attr, span in targets:
            setattr(owner, attr, self.wrap(span, owner.__dict__[attr]))

        def restore():
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

        return restore

    def arrays(self):
        recs = np.frombuffer(self.records, dtype=float).reshape(-1, 5)
        name = recs[:, 0].astype(int)
        dur = recs[:, 2] - recs[:, 1]
        parent = recs[:, 3].astype(int)
        step = recs[:, 4].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - child, parent, step

    def write(self, path: Path) -> None:
        """All spans as an .npz: ``spans`` rows (name id, start, end, parent,
        step) and the ``names`` the ids index."""
        np.savez(path, spans=np.frombuffer(self.records).reshape(-1, 5), names=np.array(self.names))


def layer_metrics(tracer: Tracer, span_names, step_times: dict[int, float]) -> dict:
    """Per span: median self time per call (us), calls per traced step and
    self time as a share of traced step time. ``bench.driver`` is the
    harness's own glue: each traced step's time minus its top-level spans.

    ``step_times`` maps each traced step id to its wall time in seconds.
    A span seen only outside the timed loop (a checkpoint load in set-up or
    at run end) reports the median of those one-off calls, with zero calls
    per step and zero share.
    """
    out: dict[str, float] = {}
    name, dur, self_t, parent, step = tracer.arrays()
    traced_steps = len(step_times)
    total = sum(step_times.values())
    for span in span_names:
        mine = name == tracer._ids.get(span, -1)
        in_steps = self_t[mine & (step >= 0)]
        per_call = in_steps if len(in_steps) else self_t[mine]
        out[f"{span}.self_us_p50"] = float(np.median(per_call)) * 1e6 if len(per_call) else 0.0
        out[f"{span}.calls_per_step"] = len(in_steps) / traced_steps
        out[f"{span}.share"] = float(in_steps.sum()) / total
    top = (parent < 0) & (step >= 0)
    covered = np.bincount(step[top], weights=dur[top], minlength=max(step_times) + 1)
    ids = np.fromiter(step_times, dtype=int)
    driver = np.fromiter(step_times.values(), dtype=float) - covered[ids]
    out["bench.driver.self_us_p50"] = float(np.median(driver)) * 1e6
    out["bench.driver.calls_per_step"] = 1.0
    out["bench.driver.share"] = float(driver.sum()) / total
    return out
