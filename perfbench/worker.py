"""One benchmark pass in a fresh interpreter; prints one JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        [--trace-out PATH] [--setup-only]
    python3 perfbench/worker.py --calibrate LOOPS

``--spawned`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so ``setup_s`` covers interpreter start, the import
of ``minorrel`` and building the tasks.  ``wall_s`` runs from the first task
start to the last task end.  Tasks run serially through minorrel.tasks.run
with the results cache disabled; a task that raises is recorded, not fatal.
With ``--trace-out`` the layer functions are wrapped (see tracer.py), the
per-layer aggregates go into the record and the spans into the file.
``--calibrate LOOPS`` times calibrate.py's fixed loop LOOPS times instead,
without importing ``minorrel``.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, task_key

ROOT = Path(__file__).resolve().parent.parent


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--calibrate", type=int, metavar="LOOPS")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--spawned", type=float)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.calibrate:
        import calibrate

        times = []
        for _ in range(args.calibrate):
            calib_s, checksum = calibrate.timed()
            if checksum != calibrate.CHECKSUM:
                raise SystemExit(f"calibration loop returned {checksum}, not {calibrate.CHECKSUM}")
            times.append(calib_s)
        print(json.dumps({"calib_s": times}))
        return

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import minorrel.tasks as tasks
    from minorrel import modlinalg

    if not Path(tasks.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"minorrel imported from {tasks.__file__}, not from {src}")
    if os.environ.get(tasks.RESULTS_DIR_ENV):
        raise SystemExit(f"{tasks.RESULTS_DIR_ENV} must be unset for a cold run")
    todo = [
        tasks.VerificationTask(sid, dict(params), seed=args.seed)
        for sid, params in WORKLOADS[args.workload]
    ]
    setup_s = monotonic() - args.spawned
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return

    # any cache traffic goes through these two names in tasks
    cache = {"reads": 0, "writes": 0}

    def counted(fn, kind):
        def inner(*a, **kw):
            cache[kind] += 1
            return fn(*a, **kw)
        return inner

    tasks.parse_report = counted(tasks.parse_report, "reads")
    tasks.emit = counted(tasks.emit, "writes")

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        record["wrapped_in"] = tracer.install()

    results = []
    t0 = time.perf_counter()
    for i, task in enumerate(todo):
        if tracer:
            tracer.run_id = i
        entry = {"key": task_key(task.statement, task.params)}
        try:
            rep = tasks.run(task)
            entry.update(predicted=rep.predicted, witnessed=rep.witnessed, verdict=rep.verdict)
        except Exception as exc:  # recorded as a failed task
            entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
    wall_s = time.perf_counter() - t0

    record.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        primes=random.Random(args.seed).sample(modlinalg.PRIMES, 2),
        cache=cache,
        tasks=json.loads(json.dumps(results, sort_keys=True)),
    )
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        record["spans"] = len(tracer.spans)
        tracer.write(args.trace_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
