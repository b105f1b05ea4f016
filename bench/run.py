"""The ubckit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process drives the load: it runs one
child at a time (a closed loop with one client), each operation a fresh
``python -m ubckit`` process timed from spawn to exit, and checks every
output against ``reference.json``.  Fresh processes are required: the
program's process-global Betti cache would serve an in-process repeat, which
CLI users never see.

Every timed child runs between two runs of the calibration kernel
bench/calibrate.py, and its wall time is reported scaled to a host on which
the kernel takes CALIBRATION_S seconds; the raw times are printed beside.

--trace 0 repeats the workload's operation list until S seconds are used
and reports the end-to-end metrics: wall_s (sum over the operations of the
median scaled wall time), setup_s (median over several probes of a fresh
interpreter that imports ubckit.cli and loads every input file) and
peak_rss_mb (the largest median max-RSS of an operation).

--trace 1 alternates an untraced pass with a pass that runs every operation
under bench/tracer.py, checks that the traced stdout and exit code equal the
untraced ones, and reports the per-layer metrics, the untraced wall time per
subcommand, and the tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Inputs come from bench/workloads.py and depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from check import load_reference, problems

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 9
# Every timed child is scaled by the calibration kernel runs of its pass: the
# metric is the time on a host where bench/calibrate.py takes CALIBRATION_S
# seconds.
CALIBRATION_S = 0.2
RUN_LIMIT_S = 170  # a run ends within this, whatever --seconds says
COMMANDS = ("invariants", "classify", "verify", "sweep", "gen")
SETUP_PROBE = """\
import sys
import ubckit.cli
from ubckit import FacetFileError, load_complex
for path in sys.argv[1:]:
    try:
        load_complex(path)
    except FacetFileError:
        pass
"""


class Child:
    """Runs one child process at a time, timing it from spawn to exit."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def run(self, cmd):
        """(wall seconds, exit code, max RSS in MB, stdout bytes); the exit
        code is None when the child was killed at the run's deadline."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - t0, 0.1), lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        if stderr and code not in (0, 1, 2, 64):
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return wall, None if killed.is_set() else code, usage.ru_maxrss / 1024, out_path.read_bytes()


def expand(args, in_dir, out_dir):
    return [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in args]


class Run:
    def __init__(self, workload, root, work):
        self.workload = workload
        self.ops = workloads.operations(workload)
        self.reference = load_reference()
        self.in_dir = work / "in"
        self.out_dir = work / "out"
        self.out_dir.mkdir()
        self.child = Child(root, work, time.perf_counter() + RUN_LIMIT_S)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.timed_out = False

    def setup(self, seed):
        """Write the inputs, warm the bytecode cache, and time SETUP_PROBES
        fresh interpreters that import the CLI and load every input."""
        py = sys.executable
        _, code, _, _ = self.child.run([py, str(BENCH / "workloads.py"), self.workload, str(seed),
                                        str(self.in_dir)])
        if code != 0:
            raise SystemExit("bench: writing the inputs failed")
        inputs = sorted({str(self.in_dir / f) for op in self.ops for f in op["inputs"]})
        probe = [py, "-c", SETUP_PROBE, *inputs]

        def run_probe(_):
            wall, code, _, _ = self.child.run(probe)
            if code != 0:
                raise SystemExit("bench: the set-up probe failed: ubckit does not import or load")
            return {"wall": wall}

        self.calibrate()
        run_probe(None)
        probes = self.calibrated(run_probe, range(SETUP_PROBES))
        return statistics.median(p["scaled"] for p in probes)

    def calibrate(self):
        wall, code, _, _ = self.child.run([sys.executable, "-I", str(BENCH / "calibrate.py")])
        if code is None:
            self.timed_out = True
        elif code != 0:
            raise SystemExit("bench: the calibration kernel failed")
        return wall

    def calibrated(self, run_one, items):
        """run_one(item) for each item, with a calibration run before the
        first item and after each; adds "cal" and "scaled" to each result.

        "cal" is the median of all these calibration runs: a pass takes
        seconds, the host's speed states last for minutes, and the median
        damps the jitter of a single short run."""
        results, cals = [], [self.calibrate()]
        for item in items:
            if self.timed_out:
                break
            results.append(run_one(item))
            cals.append(self.calibrate())
        cal = statistics.median(cals)
        for result in results:
            result["cal"] = cal
            result["scaled"] = result["wall"] * CALIBRATION_S / cal
        return results

    def run_op(self, op, traced, spans_file=None):
        cmd = [sys.executable, "-m", "ubckit"]
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_file)]
        wall, code, rss, stdout = self.child.run(cmd + expand(op["args"], self.in_dir, self.out_dir))
        self.attempted += 1
        if code is None:
            self.timed_out = True
            found = [f"{op['id']}: killed at the run's time limit"]
        else:
            found = problems(op, code, stdout.decode(errors="replace"), self.out_dir, self.reference)
        self.failures.extend(found)
        self.failed += bool(found)
        return {"wall": wall, "exit": code, "rss": rss, "stdout": stdout, "ok": not found}

    def run_pass(self, traced=False):
        dumps = []
        spans_file = self.child.work / "spans.bin"

        def run_one(op):
            result = self.run_op(op, traced, spans_file)
            if traced and spans_file.exists():
                import tracer

                dumps.append(tracer.load(spans_file))
                spans_file.unlink()
            return result

        return self.calibrated(run_one, self.ops), dumps

    def repeat(self, seconds, body):
        """Call body() until the next call would end past ``seconds``."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            body()
            now = time.perf_counter()
            if self.timed_out or now + (now - t0) > start + seconds:
                return


def per_op_medians(passes, ops, key):
    return [statistics.median(p[i][key] for p in passes if i < len(p)) for i in range(len(ops))
            if any(i < len(p) for p in passes)]


def by_command(ops, walls):
    totals = {f"{c}_s": 0.0 for c in COMMANDS}
    for op, wall in zip(ops, walls):
        totals[f"{op['args'][0]}_s"] += wall
    return totals


def measure_untraced(run, seconds):
    passes = []
    run.repeat(seconds, lambda: passes.append(run.run_pass()[0]))
    walls = per_op_medians(passes, run.ops, "scaled")
    raw = per_op_medians(passes, run.ops, "wall")
    rss = per_op_medians(passes, run.ops, "rss")
    cal = statistics.median([r["cal"] for p in passes for r in p] or [0.0])
    print(f"  {'operation':<48} {'scaled':>8}   {'raw':>8}   max RSS   (median of {len(passes)} passes)")
    for op, wall, seconds, mb in zip(run.ops, walls, raw, rss):
        print(f"  {op['id']:<48} {wall:8.3f} s {seconds:8.3f} s {mb:6.1f} MB")
    for name, total in by_command(run.ops, walls).items():
        if total:
            print(f"  {name:<48} {total:8.3f} s")
    print(f"  calibration kernel {cal:.4f} s; raw wall {sum(raw):.3f} s")
    return {"wall_s": (sum(walls), "s"), "peak_rss_mb": (max(rss, default=0.0), "MB")}


def measure_traced(run, seconds):
    import tracer

    plain, traced, layers = [], [], []

    def pair():
        results, _ = run.run_pass()
        plain.append(results)
        results, dumps = run.run_pass(traced=True)
        traced.append(results)
        totals = tracer.Totals()
        for dump in dumps:
            totals.add(dump)
        layers.append(totals.metrics())
        for op, a, b in zip(run.ops, plain[-1], results):
            if (a["exit"], a["stdout"]) != (b["exit"], b["stdout"]) and b["ok"]:
                run.failures.append(f"{op['id']}: traced output differs from untraced output")
                run.failed += 1

    run.repeat(seconds, pair)
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[name][0] for layer in layers)
        elif any(layer[name][0] != value for layer in layers):
            print(f"bench: {name} differs between traced passes", file=sys.stderr)
        metrics[name] = (value, unit)
    plain_walls = per_op_medians(plain, run.ops, "scaled")
    traced_walls = per_op_medians(traced, run.ops, "scaled")
    for name, total in by_command(run.ops, plain_walls).items():
        metrics[name] = (total, "s")
    metrics["trace.untraced_wall_s"] = (sum(plain_walls), "s")
    metrics["trace.traced_wall_s"] = (sum(traced_walls), "s")
    metrics["trace.overhead_s"] = (sum(traced_walls) - sum(plain_walls), "s")
    print(f"  pairs of passes {len(layers)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ubckit" / "__init__.py").is_file():
        sys.exit("bench: no src/ubckit here; run from the root of a ubckit checkout")
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=root / ".bench_work"))
    try:
        run = Run(opts.workload, root, work)
        setup_s = run.setup(opts.seed)
        print(f"workload {opts.workload}, seed {opts.seed}, trace {opts.trace}: setup_s {setup_s:.3f}")
        if opts.trace:
            metrics = measure_traced(run, opts.seconds)
        else:
            metrics = measure_untraced(run, opts.seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = run.failed
    for msg in run.failures[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value if isinstance(value, int) else f'{value:.6g}':>12} {unit}")
    print(f"  failed_ratio {failed / max(run.attempted, 1):.6g} ({failed} of {run.attempted})")
    print(json.dumps({
        "correct": failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
