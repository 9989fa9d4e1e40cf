"""kolmobox benchmark: wall time to t_end of one CLI workload, or its per-layer trace.

Run from the root of a kolmobox source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs closed-loop (the next starts when the previous exits), in
a fresh interpreter with OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1 and the
checkout's `src/` as the only PYTHONPATH entry.  Each command's outputs are
checked; see README.md in this directory for the workloads and metrics.

--trace 0 prints the end-to-end metrics, timings as means over the run: one
traced warm-up command (which also counts the exact steps), then untraced
commands, each followed by two set-up probes.  --trace 1 prints the per-layer
metrics: an untraced warm-up, then traced and untraced commands alternately.
Either way the run, warm-up included, ends by --seconds.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it are a readable table and one JSON
report with the quartiles, sample counts, series digest and run metadata.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNTS, PER_LAYER, layer_metrics
from workloads import WORKLOADS, decay_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

PROBES_PER_COMMAND = 2  # set-up probes are interleaved with the timed commands
MIN_TIMED = 3
MIN_TRACED_PAIRS = 2
HARD_LIMIT_S = 165.0  # the whole benchmark must exit within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "KOLMO_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps", "count"),
    ("mpts_per_s", "Mpts/s"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    env = dict(os.environ)
    env.pop("KOLMO_THREADS", None)  # the CLI then sizes its pool by os.cpu_count()
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest():
    """sha256 over the package sources, naming the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Bench:
    """One benchmark run of one workload and seed; counts attempts and failures."""

    def __init__(self, workload, seed, work):
        self.w = workload
        self.work = work
        self.config = work / "workload.cfg"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        self.env = child_env()
        self.start = time.perf_counter()
        self.ids = itertools.count()
        self.attempted = 0
        self.failures = []  # (attempt label, [reasons])
        self.digest = None
        self.rel_err_exact = None
        self.numpy = None

    def elapsed(self):
        return time.perf_counter() - self.start

    def out_of_time(self):
        return self.elapsed() > HARD_LIMIT_S - 10.0

    def _spawn(self, args):
        """Run child.py with `args`; returns (exit code or None, wall seconds, result or None)."""
        k = next(self.ids)
        result = self.work / f"result{k}.json"
        log = self.work / f"log{k}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), args[0], str(result), *args[1:]]
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            try:
                code = proc.wait(timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.returncode is None:  # timed out, or this process was interrupted
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        payload = None
        if result.exists():
            try:
                payload = json.loads(result.read_text(encoding="utf-8"))
            except ValueError:
                payload = None
            result.unlink()
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-5:]
            print(f"perfbench: {args[0]} exited with {code}: " + " | ".join(tail), file=sys.stderr)
        log.unlink()
        return code, wall, payload

    def _record(self, label, reasons):
        self.attempted += 1
        if reasons:
            self.failures.append((label, reasons))
            print(f"perfbench: {label} failed: {'; '.join(reasons)}", file=sys.stderr)

    def _payload_reasons(self, code, payload):
        if code != 0:
            return [f"exit code {code}"]
        if payload is None:
            return ["no result file"]
        if not Path(payload["kolmobox"]).resolve().is_relative_to(SRC):
            return [f"imported kolmobox from {payload['kolmobox']}, not {SRC}"]
        self.numpy = payload["numpy"]
        return []

    def setup_probe(self):
        """setup_s of one fresh interpreter, or None if the probe failed."""
        code, _, payload = self._spawn(["setup", str(self.config)])
        reasons = self._payload_reasons(code, payload)
        self._record("setup probe", reasons)
        return None if reasons else payload["setup_s"]

    def command(self, trace):
        """Run the workload's CLI command once; returns the child's result, or None on failure."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        code, wall, payload = self._spawn(
            ["cli", "1" if trace else "0", self.w.command,
             "--config", str(self.config), "--out", str(out)]
        )
        reasons = self._payload_reasons(code, payload)
        if not reasons:
            reasons = self._check_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        self._record("traced command" if trace else "command", reasons)
        if reasons:
            return None
        payload["wall_s"] = wall
        return payload

    def _check_outputs(self, out):
        """Correctness of one command's outputs; returns the reasons it failed."""
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"summary.json unreadable: {exc}"]
        if summary.get("overall") is not True:
            return ["summary.json overall is not true"]
        try:
            raw = (out / "series.ndjson").read_bytes()
            records = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        except (OSError, ValueError) as exc:
            return [f"series.ndjson missing or unparsable: {exc}"]
        if len(records) != self.w.samples:
            return [f"series.ndjson has {len(records)} records, expected {self.w.samples}"]
        last = records[-1]
        if abs(last["t"] - self.w.t_end) > 1e-12 * self.w.t_end:
            return [f"last sample at t = {last['t']!r}, expected t_end = {self.w.t_end!r}"]
        reasons = []
        if self.w.command == "run":
            snaps = len(list(out.glob("snap_*.kbox")))
            if snaps != self.w.samples:
                reasons.append(f"{snaps} snapshots, expected {self.w.samples}")
        if self.w.command == "decay":
            om, kk = decay_reference(self.w.t_end, float(self.w.setting("alpha2")))
            errs = [
                abs(last["min_omega"] - om) / om,
                abs(last["max_omega"] - om) / om,
                abs(last["min_k"] - kk) / kk,
                abs(last["E_turb"] - kk) / kk,  # the box has unit volume
            ]
            if not all(math.isfinite(e) for e in errs):  # max() would skip a NaN
                reasons.append(f"rel_err_exact is not finite: {errs}")
            self.rel_err_exact = max(errs)
        digest = hashlib.sha256(raw).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            reasons.append(f"series.ndjson digest {digest[:12]} differs from {self.digest[:12]}")
        return reasons

    def check_counts(self, results):
        """Exact counts must repeat across the traced commands of one seed."""
        first = {k: results[0]["layers"][k] for k in COUNTS}
        for r in results[1:]:
            diff = [k for k in COUNTS if r["layers"][k] != first[k]]
            if diff:
                self.failures.append(("traced command", [f"counts differ across traced runs: {diff}"]))
        return first

    def measure_end_to_end(self, seconds):
        warm = self.command(trace=True)
        work = layer_metrics(warm["spans"]) if warm else None
        walls, rss, setups = [], [], []
        t0 = time.perf_counter()
        for n in itertools.count(1):
            r = self.command(trace=False)
            if r:
                walls.append(r["wall_s"])
                rss.append(r["maxrss_kb"] * 1024 / 1e6)
            setups += [s for s in (self.setup_probe() for _ in range(PROBES_PER_COMMAND)) if s]
            per_loop = (time.perf_counter() - t0) / n
            if self.out_of_time() or (n >= MIN_TIMED and self.elapsed() + per_loop > seconds):
                break
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        # Means, not medians: the host's slow phases outlast a command, so a
        # run's median jumps between the fast and the slow mode, while its mean
        # moves only with the share of the run that a slow phase covers.
        metrics = {k: statistics.fmean(v) for k, v in samples.items() if v}
        if work and "wall_s" in metrics and "setup_s" in metrics:
            metrics["steps"] = work["steps"]
            metrics["mpts_per_s"] = work["point_steps"] / 1e6 / (
                metrics["wall_s"] - metrics["setup_s"]
            )
        return metrics, samples, ({k: work[k] for k in COUNTS} if work else {})

    def measure_layers(self, seconds):
        self.command(trace=False)  # warm-up: bytecode, file cache, reference digest
        traced, plain = [], []
        t0 = time.perf_counter()
        for n in itertools.count(1):
            t = self.command(trace=True)
            u = self.command(trace=False)
            if t:
                t["layers"] = layer_metrics(t.pop("spans"))
                traced.append(t)
            if u:
                plain.append(u)
            per_loop = (time.perf_counter() - t0) / n
            if self.out_of_time() or (n >= MIN_TRACED_PAIRS and self.elapsed() + per_loop > seconds):
                break
        if not traced or not plain:
            return {}, {}, {}
        exact = self.check_counts(traced)
        names = [name for name, _, _ in PER_LAYER if name != "trace.overhead"]
        metrics = {k: statistics.median(t["layers"][k] for t in traced) for k in names}
        samples = {"traced_wall_s": [t["wall_s"] for t in traced],
                   "untraced_wall_s": [u["wall_s"] for u in plain]}
        metrics["trace.overhead"] = (
            statistics.median(samples["traced_wall_s"])
            / statistics.median(samples["untraced_wall_s"]) - 1.0
        )
        return metrics, samples, exact


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kolmobox" / "__init__.py").is_file():
        print(f"perfbench: no kolmobox sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = loadavg()
    try:
        bench = Bench(workload, abs(args.seed), work)
        if args.trace:
            metrics, samples, exact = bench.measure_layers(args.seconds)
            spec = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            metrics, samples, exact = bench.measure_end_to_end(args.seconds)
            spec = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name, _ in spec if name not in metrics]
    if missing:
        print(f"perfbench: not measured: {missing}", file=sys.stderr)
    failed = len(bench.failures)
    env = child_env()
    report = {
        "workload": workload.name,
        "command": workload.command,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            k: {"mean": statistics.fmean(v), "median": statistics.median(v),
                "q1": quartiles(v)[0], "q3": quartiles(v)[1], "n": len(v)}
            for k, v in samples.items() if v
        },
        "exact_counts": exact,
        "fail_frac": failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "rel_err_exact": bench.rel_err_exact,
        "series_sha256": bench.digest,
        "metadata": {
            "commit": git_commit(),
            "src_sha256": src_digest(),
            "python": platform.python_version(),
            "numpy": bench.numpy,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {k: env.get(k) for k in THREAD_ENV},
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
        },
    }

    print(f"perfbench {workload.name} ({workload.command}) seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in spec:
        line = f"  {name:42s} {metrics.get(name, float('nan')):>14.6g} {unit}"
        if name in report["samples"]:
            s = report["samples"][name]
            line += f"   (median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        print(line)
    print(f"  {'fail_frac':42s} {report['fail_frac']:>14.6g}   ({failed} of {bench.attempted})")
    if bench.rel_err_exact is not None:
        print(f"  {'rel_err_exact':42s} {bench.rel_err_exact:>14.6g}")
    print(f"  series.ndjson sha256 {bench.digest}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
