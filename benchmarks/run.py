"""The omlab benchmark: three closed-loop workloads with one client each.

    python3 benchmarks/run.py --workload check-large --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and uses ``src/`` as the program.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same operations in-process, untraced and traced in turn, and
reports per-layer counts and self times.  Every operation's outcome is checked
against an independent answer and, for seeds recorded in ``golden/``,
against the outputs of the seed commit.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("check-large", "rank3-construct", "pool-sweep")
SETUP_REPS = 9
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def child_env(hash_seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("OMLAB_CAPS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def env_stamp() -> dict:
    """Where and on what the numbers were taken."""
    stamp = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    stamp["commit"] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            stamp["commit"] = commit.stdout.strip() or None
        except OSError:
            pass
    stamp["src_digest"] = workloads.digest(*(p.read_bytes() for p in sorted((SRC / "omlab").glob("*.py"))))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            stamp["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        stamp["cpu"] = None
    return stamp


def timed_process(argv, env, cwd) -> float:
    # capture output: with pipes the wait ends at end of file, not on the
    # polling sleeps (up to 50 ms) that a bare wait with a timeout uses
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True, timeout=CHILD_TIMEOUT_S, capture_output=True)
    return time.perf_counter() - start


def read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def load_golden(golden_dir: Path, workload: str, seed: int) -> list | None:
    path = golden_dir / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(read_text(path)).get(str(seed))


def record_golden(golden_dir: Path, workload: str, seed: int, prints: list) -> None:
    golden_dir.mkdir(parents=True, exist_ok=True)
    path = golden_dir / f"{workload}.json"
    table = json.loads(read_text(path)) if path.is_file() else {}
    table[str(seed)] = prints
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items(), key=lambda kv: int(kv[0]))]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")


class Run:
    """One benchmark run: operations attempted, failures, and their first messages."""

    def __init__(self, golden: list | None):
        self.golden = golden
        self.attempted = self.failed = 0
        self.passes = self.samples = 0
        self.messages: list[str] = []
        self.first_prints: list | None = None
        self.per_op: list[tuple[str, dict]] = []

    def judge(self, ids, errors, prints) -> None:
        """Count one pass: an operation fails on a wrong answer or a golden mismatch.

        ``prints`` holds each operation's output digest, in operation order.
        """
        if self.first_prints is None:
            self.first_prints = prints
        golden = self.golden
        if golden is not None and len(golden) != len(prints):
            self.failed += 1
            self.messages.append("golden has a different number of operations")
            golden = None
        for i, (op_id, error) in enumerate(zip(ids, errors)):
            if error is None and golden is not None and golden[i] != prints[i]:
                error = "output differs from the golden recorded at the seed commit"
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{op_id}: {error}")


# -- the CLI workloads, one process per operation ------------------------------------------


def cli_pass(ops, workdir: Path, env) -> tuple[float, list[float], list[dict]]:
    times, results = [], []
    first = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "omlab", *op["argv"]],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        results.append({"rc": proc.returncode, "stdout": proc.stdout})
    wall = time.perf_counter() - first
    for op, res in zip(ops, results):
        res["files"] = {name: read_text(workdir / name) for name in op["writes"] if (workdir / name).is_file()}
    return wall, times, results


def judge_cli(run: Run, ops, results, fixtures) -> None:
    errors, prints = workloads.verify_cli(ops, results, fixtures)
    run.judge([op["id"] for op in ops], errors, prints)


def load_plan(workdir: Path) -> tuple[list[dict], dict[str, str]]:
    plan = json.loads(read_text(workdir / "plan.json"))
    return plan["ops"], {name: read_text(workdir / name) for name in plan["files"]}


# -- runs ---------------------------------------------------------------------------------------


def worker_argv(mode: str, args, workdir: Path) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), mode, args.workload, str(args.seed), str(workdir)]


def start_worker(args, workdir: Path, env, traced: bool) -> tuple[float, dict]:
    """Run the in-process worker; returns its set-up time and its passes."""
    argv = worker_argv("run", args, workdir) + [str(args.seconds), "1" if traced else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return setup, json.loads(out.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(args, run: Run, workdir: Path, env) -> dict:
    """End-to-end metrics, tracing off."""
    setup_argv = worker_argv("setup", args, workdir)
    if args.workload == "pool-sweep":
        setups = [timed_process(setup_argv, env, ROOT) for _ in range(SETUP_REPS - 1)]
        setup, data = start_worker(args, workdir, env, traced=False)
        setups.append(setup)
        passes = data["passes"]
        for p in passes:
            run.judge(p["names"], p["errors"], p["fingerprints"])
    else:
        setups = [timed_process(setup_argv, env, ROOT) for _ in range(SETUP_REPS)]
        ops, fixtures = load_plan(workdir)
        passes = []
        started = time.perf_counter()
        while True:
            wall, times, results = cli_pass(ops, workdir, env)
            passes.append({"wall": wall, "op_s": times})
            judge_cli(run, ops, results, fixtures)
            if time.perf_counter() - started + statistics.median(p["wall"] for p in passes) > args.seconds:
                break
    # each operation's median over the passes, so the percentiles weigh every
    # operation once whatever the number of passes that fit in the run
    op_s = [statistics.median(times) for times in zip(*(p["op_s"] for p in passes))]
    run.samples = len(op_s)
    run.passes = len(passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "verdict_p50_ms": statistics.median(op_s) * 1000,
        "verdict_p90_ms": percentile(op_s, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_frac": 1 - run.failed / max(run.attempted, 1),
    }


def traced_run(args, run: Run, workdir: Path, env) -> dict:
    """Per-layer metrics from in-process passes, untraced and traced in turn."""
    probe = "import time; t = time.perf_counter(); import omlab; print(time.perf_counter() - t)"
    imports = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=workdir, env=env, capture_output=True,
                              text=True, check=True, timeout=CHILD_TIMEOUT_S)
        imports.append(float(proc.stdout))
    _, data = start_worker(args, workdir, env, traced=True)
    passes = data["passes"]
    if args.workload == "pool-sweep":
        for p in passes:
            run.judge(p["names"], p["errors"], p["fingerprints"])
    else:
        ops, fixtures = load_plan(workdir)
        for p in passes:
            judge_cli(run, ops, p["results"], fixtures)
        first = next(p for p in passes if p["traced"])
        run.per_op = [(op["id"], res["self_s"]) for op, res in zip(ops, first["results"])]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = [{k: (row["calls"], row["work"], row["fails"]) for k, row in p["stats"].items()} for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        run.failed += 1
        run.messages.append("per-layer counts differ between traced passes")
    metrics = {}
    units = tracer.metric_units()
    for name in units:
        prefix, _, stat = name.rpartition(".")
        if prefix in traced[0]["stats"]:
            values = [p["stats"][prefix][stat] for p in traced]
            metrics[name] = statistics.median(values) if stat == "self_s" else values[0]
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.coverage_frac"] = statistics.median(p["covered_s"] / sum(p["op_s"]) for p in traced)
    untraced_wall = statistics.median(p["wall"] for p in plain)
    metrics["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / untraced_wall - 1
    run.samples = len(traced)
    run.passes = len(passes)
    return metrics


# -- report ---------------------------------------------------------------------------------------


def print_report(args, run: Run, metrics: dict, units: dict) -> None:
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  passes: {run.passes}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed"
          f" (failed_frac = {run.failed / max(run.attempted, 1):.6f} of {run.attempted})")
    print(f"golden: {'compared' if run.golden is not None else 'not recorded for this seed'}")
    for msg in run.messages:
        print(f"FAILED {msg}")
    if not args.trace:
        print(f"verdict samples: {run.samples} operations (each the median over the passes)")
        for name, value in metrics.items():
            print(f"  {name:<16} {value:14.6f} {units[name]}")
        return
    rows = []
    for prefix, _, _, work, _, work_unit in tracer.TARGETS:
        calls, self_s = metrics[f"{prefix}.calls"], metrics[f"{prefix}.self_s"]
        w = metrics.get(f"{prefix}.work")
        per = f"{self_s / w * 1e9:10.1f} ns/{work_unit}" if w else ""
        fails = metrics.get(f"{prefix}.fails")
        rows.append((self_s, f"  {prefix:<40} {self_s:10.4f} s {calls:8d} calls"
                     + (f" {w:12d} {work_unit}" if w is not None else "")
                     + (f" {fails:4d} fails" if fails is not None else "") + f" {per}"))
    for _, line in sorted(rows, key=lambda r: -r[0]):
        print(line)
    for name in ("cli.import_s", "trace.coverage_frac", "trace.overhead_frac"):
        print(f"  {name:<40} {metrics[name]:10.4f} {units[name]}")
    if run.per_op:
        print("largest layers per operation (self time, first traced pass):")
        before: dict[str, float] = {}
        for op_id, after in run.per_op:
            delta = sorted(((after[k] - before.get(k, 0.0), k) for k in after), reverse=True)[:3]
            print(f"  {op_id:<58} " + "  ".join(f"{k.split('.', 1)[1]} {s:.3f}s" for s, k in delta))
            before = after


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hash-seed", type=int, default=0, help="PYTHONHASHSEED of every child")
    parser.add_argument("--golden-dir", type=Path, default=BENCH / "golden")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's outputs as the golden for this seed")
    args = parser.parse_args(argv)
    if not (SRC / "omlab" / "__init__.py").is_file():
        print(f"error: no omlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "omlab"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    env = child_env(args.hash_seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    stamp = env_stamp()
    run = Run(None if args.record_golden else load_golden(args.golden_dir, args.workload, args.seed))
    try:
        metrics = (traced_run if args.trace else timed_run)(args, run, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    units = tracer.metric_units() if args.trace else END_TO_END
    print("env: " + json.dumps(stamp))
    print_report(args, run, metrics, units)
    if args.record_golden:
        if run.failed:
            print("error: not recording a golden from a run with failures", file=sys.stderr)
            return 1
        record_golden(args.golden_dir, args.workload, args.seed, run.first_prints)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
