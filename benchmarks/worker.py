"""In-process side of the benchmark: fixture set-up and in-process passes.

Started by run.py as a fresh interpreter, so its set-up time includes
interpreter start and ``import omlab``:

    worker.py setup <workload> <seed> <workdir>
    worker.py run <workload> <seed> <workdir> <seconds> <trace>

``setup`` writes the workload's fixtures and exits.  ``run`` sets up, prints
``ready``, then runs passes of the fixed operation list until ``seconds`` is
spent (pool-sweep untraced, or any workload untraced and traced in turn)
and prints one JSON line with per-pass results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time

import workloads


def read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write_cli_fixtures(workload: str, seed: int, workdir: str) -> list[dict]:
    import omlab  # noqa: F401  (set-up pays for the import even when no fixture needs it)

    files, ops = workloads.cli_setup(workload, seed)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump({"files": sorted(files), "ops": ops}, fh)
    return ops


def _cli_pass(ops: list[dict], tracer=None) -> tuple[float, list[float], list[dict]]:
    from omlab import cli

    times, results = [], []
    first = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op["argv"]))
        except Exception as exc:  # an operation that raised counts as failed, the pass goes on
            rc = f"raised {exc!r}"
        times.append(time.perf_counter() - start)
        results.append({"rc": rc, "stdout": out.getvalue()})
        if tracer is not None:
            # cumulative self time per layer after each operation, for the per-operation table
            results[-1]["self_s"] = {k: row["self_s"] for k, row in tracer.stats.items()}
    return time.perf_counter() - first, times, results


def _pool_pass(pool) -> tuple[float, list[float], list[dict]]:
    times, results = [], []
    first = time.perf_counter()
    for spec in pool:
        start = time.perf_counter()
        try:
            results.append(workloads.sweep_instance(spec))
        except Exception as exc:  # an operation that raised counts as failed, the pass goes on
            results.append(exc)
        times.append(time.perf_counter() - start)
    return time.perf_counter() - first, times, results


def _judge(spec, result) -> str | None:
    if isinstance(result, Exception):
        return f"raised {result!r}"
    try:
        return workloads.check_instance(spec, result)
    except Exception as exc:  # an outcome the checks cannot read is a wrong outcome
        return f"unreadable outcome ({exc!r})"


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    pool = ops = None
    if workload == "pool-sweep":
        pool = workloads.build_pool(seed)
    else:
        ops = write_cli_fixtures(workload, seed, workdir)
    if mode == "setup":
        return 0
    seconds, traced = float(argv[4]), argv[5] == "1"
    print("ready", flush=True)
    os.chdir(workdir)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
    passes = []
    started = time.perf_counter()
    while True:
        for trace_this in ((False, True) if traced else (False,)):
            if trace_this:
                tracer.reset()
                tracer.install()
            try:
                if pool is not None:
                    wall, times, results = _pool_pass(pool)
                else:
                    wall, times, results = _cli_pass(ops, tracer if trace_this else None)
            finally:
                if trace_this:
                    tracer.uninstall()
            record = {"traced": trace_this, "wall": wall, "op_s": times}
            if trace_this:
                record["stats"] = {k: dict(v) for k, v in tracer.stats.items()}
                record["covered_s"] = tracer.covered_s
            if pool is not None:
                record["errors"] = [_judge(s, r) for s, r in zip(pool, results)]
                record["names"] = [s.name for s in pool]
                record["fingerprints"] = [
                    repr(r) if isinstance(r, Exception) else workloads.instance_fingerprint(r) for r in results
                ]
                # free this pass's pairs before the next pass, so that peak memory
                # does not depend on how many passes fit in the run
                results = None
            else:
                for op, res in zip(ops, results):
                    res["files"] = {name: read_text(name) for name in op["writes"] if os.path.isfile(name)}
                record["results"] = results
            passes.append(record)
        pass_s = statistics.median(p["wall"] for p in passes) * (2 if traced else 1)
        if time.perf_counter() - started + pass_s > seconds:
            break
    print(json.dumps({"passes": passes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
