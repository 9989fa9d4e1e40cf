"""Per-layer metrics from the spans of one traced CLI command.

A span is (id, name, start, end, parent id, thread id, ok, info) as written
by child.Tracer.  Self time is a span's duration minus the part of its
interval covered by the union of its children's intervals (children from the
refinement pool's two threads can overlap).
"""

import statistics
from collections import defaultdict

from child import FIELDS_TRACED

# Counts that must repeat exactly across traced runs of one seed.
COUNTS = ("steps", "step_attempts", "step_rejected", "picard_iters", "rhs_calls",
          "guard_clamps", "point_steps")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("model.rhs.calls", "count", "lower"),
        ("model.rhs.ms_per_call", "ms", "lower"),
        ("model.rhs.self_s", "s", "lower"),
        ("model.rhs.calls_per_step", "calls/step", "lower"),
        ("model.rhs.mpts_per_s", "Mpts/s", "higher"),
    ]
    + [
        (f"fields.{fn}.{metric}", unit, "lower")
        for fn in FIELDS_TRACED
        for metric, unit in (("calls", "count"), ("ms_per_call", "ms"), ("self_s", "s"))
    ]
    + [
        ("fields.self_s", "s", "lower"),
        ("timestepper.step.ms_p50", "ms", "lower"),
        ("timestepper.step.ms_p99", "ms", "lower"),
        ("timestepper.step_attempts", "count", "lower"),
        ("timestepper.step_rejected", "count", "lower"),
        ("timestepper.accept_ratio", "ratio", "higher"),
        ("timestepper.dt_min", "model-time", "higher"),
        ("timestepper.dt_median", "model-time", "higher"),
        ("timestepper.dt_max", "model-time", "higher"),
        ("timestepper.guard_clamps", "count", "lower"),
        ("timestepper.cfl_dt.ms_per_call", "ms", "lower"),
        ("timestepper.cfl_dt.self_s", "s", "lower"),
        ("timestepper.picard_iters_per_step", "iters/step", "lower"),
        ("timestepper.operator_apply.ms_per_call", "ms", "lower"),
        ("timestepper.run.s", "s", "lower"),
        ("timestepper.run.concurrency", "ratio", "higher"),
        ("config.load_config.ms", "ms", "lower"),
        ("config.build_problem.ms", "ms", "lower"),
        ("diagnostics.record.calls", "count", "lower"),
        ("diagnostics.record.ms_per_call", "ms", "lower"),
        ("diagnostics.decay_fit.ms", "ms", "lower"),
        ("snapshot.write_snapshot.calls", "count", "lower"),
        ("snapshot.write_snapshot.ms_per_call", "ms", "lower"),
        ("snapshot.mb_written", "MB", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class SpanTable:
    def __init__(self, spans):
        children = defaultdict(list)
        for sid, _, t0, t1, parent, *_ in spans:
            if parent is not None:
                children[parent].append((t0, t1))
        self.by_name = defaultdict(list)
        self.self_s = defaultdict(float)
        for span in spans:
            sid, name, t0, t1 = span[:4]
            self.by_name[name].append(span)
            self.self_s[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)

    def calls(self, name):
        return len(self.by_name[name])

    def total_s(self, name):
        return sum(s[3] - s[2] for s in self.by_name[name])

    def ms_per_call(self, name):
        n = self.calls(name)
        return 1e3 * self.total_s(name) / n if n else 0.0


def counts(table: SpanTable) -> dict:
    accepted = [s for s in table.by_name["timestepper.step"] if s[6]]
    return {
        "steps": len(accepted),
        "step_attempts": table.calls("timestepper.step"),
        "step_rejected": table.calls("timestepper.step") - len(accepted),
        "picard_iters": table.calls("timestepper.operator_apply"),
        "rhs_calls": table.calls("model.rhs"),
        "guard_clamps": sum(s[7][2] for s in accepted),
        "point_steps": sum(s[7][0] for s in accepted),
    }


def layer_metrics(spans) -> dict:
    """Every per-layer metric except trace.overhead, plus the exact counts under COUNTS."""
    t = SpanTable(spans)
    c = counts(t)
    steps = c["steps"]
    out = dict(c)

    rhs_s = t.total_s("model.rhs")
    rhs_points = sum(s[7] for s in t.by_name["model.rhs"] if s[6])
    out.update({
        "model.rhs.calls": c["rhs_calls"],
        "model.rhs.ms_per_call": t.ms_per_call("model.rhs"),
        "model.rhs.self_s": t.self_s["model.rhs"],
        "model.rhs.calls_per_step": c["rhs_calls"] / steps if steps else 0.0,
        "model.rhs.mpts_per_s": rhs_points / rhs_s / 1e6 if rhs_s else 0.0,
    })
    for fn in FIELDS_TRACED:
        name = f"fields.{fn}"
        out[f"{name}.calls"] = t.calls(name)
        out[f"{name}.ms_per_call"] = t.ms_per_call(name)
        out[f"{name}.self_s"] = t.self_s[name]
    out["fields.self_s"] = sum(t.self_s[f"fields.{fn}"] for fn in FIELDS_TRACED)

    step_ms = [1e3 * (s[3] - s[2]) for s in t.by_name["timestepper.step"]]
    dts = [s[7][1] for s in t.by_name["timestepper.step"] if s[6]]
    runs = [(s[2], s[3]) for s in t.by_name["timestepper.run"]]
    run_s = sum(b - a for a, b in runs)
    run_union = _covered(runs, min(a for a, _ in runs), max(b for _, b in runs)) if runs else 0.0
    out.update({
        "timestepper.step.ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "timestepper.step.ms_p99": (
            statistics.quantiles(step_ms, n=100)[98] if len(step_ms) > 1 else sum(step_ms)
        ),
        "timestepper.step_attempts": c["step_attempts"],
        "timestepper.step_rejected": c["step_rejected"],
        "timestepper.accept_ratio": steps / c["step_attempts"] if c["step_attempts"] else 0.0,
        "timestepper.dt_min": min(dts, default=0.0),
        "timestepper.dt_median": statistics.median(dts) if dts else 0.0,
        "timestepper.dt_max": max(dts, default=0.0),
        "timestepper.guard_clamps": c["guard_clamps"],
        "timestepper.cfl_dt.ms_per_call": t.ms_per_call("timestepper.cfl_dt"),
        "timestepper.cfl_dt.self_s": t.self_s["timestepper.cfl_dt"],
        "timestepper.picard_iters_per_step": c["picard_iters"] / steps if steps else 0.0,
        "timestepper.operator_apply.ms_per_call": t.ms_per_call("timestepper.operator_apply"),
        "timestepper.run.s": run_s,
        "timestepper.run.concurrency": run_s / run_union if run_union else 0.0,
        "config.load_config.ms": 1e3 * t.total_s("config.load_config"),
        "config.build_problem.ms": 1e3 * t.total_s("config.build_problem"),
        "diagnostics.record.calls": t.calls("diagnostics.record"),
        "diagnostics.record.ms_per_call": t.ms_per_call("diagnostics.record"),
        "diagnostics.decay_fit.ms": 1e3 * t.total_s("diagnostics.decay_fit"),
        "snapshot.write_snapshot.calls": t.calls("snapshot.write_snapshot"),
        "snapshot.write_snapshot.ms_per_call": t.ms_per_call("snapshot.write_snapshot"),
        "snapshot.mb_written": sum(s[7] for s in t.by_name["snapshot.write_snapshot"] if s[6]) / 1e6,
        "cli.main.self_s": t.self_s["cli.main"],
    })
    return out
