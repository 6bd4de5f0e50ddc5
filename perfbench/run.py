"""Benchmark for minorrel: wall time per workload, layer self times by tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden [--seed N]

Run from the root of a source checkout; nothing is installed or built.  Each
pass is a fresh interpreter (worker.py) that imports ``minorrel`` from
``src/`` and calls ``minorrel.tasks.run`` on the workload's tasks, serially,
with the results cache disabled: a closed loop with one client.  Passes
repeat until ``--seconds`` would be exceeded by the next one, with at least
two untraced passes (one untraced and one traced pass with ``--trace 1``).

``--trace 0`` reports the end-to-end metrics: medians of ``wall_s`` and
``peak_rss_mb`` over the passes, and of ``setup_s`` over the passes plus a
few set-up-only probes.  The host's speed moves in phases of about a minute,
so a fixed loop (calibrate.py) is timed before the first pass and after each
one, and both times are rescaled by ``REFERENCE_S / mean(loop times)``: they
read as seconds on a host where the loop takes ``REFERENCE_S``.  The times as
measured are kept in the result file.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see tracer.py); their self times are not rescaled.

Every task's predicted, witnessed and verdict must equal golden.json, which
was recorded with ``--record-golden``.  A task that raises, is skipped for
capacity or differs from its golden answer counts as failed; so do the tasks
of a pass that read or wrote a cached report, or whose traced outputs differ
from the untraced ones.  Facts about the run (Python version, cores, load,
seed, commit, sample counts) and every sample go to
``.perfbench_out/result-<workload>-seed<n>-trace<t>.json``; the spans of
the last traced pass go to ``.perfbench_out/spans-<workload>.jsonl``.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS, task_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "minorrel"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 9
# a run must end within 180 s; a pass still running at this point is killed
DEADLINE_S = 170
# dict and set order depends on the string hash seed, and with it the order
# of work; fixing it keeps passes comparable across benchmark seeds
HASH_SEED = "0"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_FIELDS = (
    ("polyring.poly_mul", ("calls", "terms", "self_s")),
    ("modlinalg.rank_mod", ("calls", "rows", "nnz", "self_s")),
    ("modlinalg.nullspace_mod", ("calls", "rows", "nnz", "self_s", "kernel_ratio")),
    ("witness.relation_dims", ("self_s",)),
    ("witness.veronese_presentation_dims", ("self_s",)),
    ("witness.subspace_variety_gens", ("self_s",)),
    ("witness.koszul_h1_blocks", ("self_s",)),
    ("rees.ReesEngine.kernel_block", ("calls", "self_s")),
    ("rees.ReesEngine.min_gens", ("calls", "self_s")),
    ("bott.verify_lemma_4_4", ("self_s",)),
    ("bott.tor_geometric", ("self_s",)),
    ("bott.bott_projective", ("calls", "self_s")),
    ("symfunc.schur_multiply", ("calls", "self_s")),
    ("symfunc.plethysm_schur", ("calls", "self_s")),
    ("birep.predicted_character", ("self_s",)),
    ("birep.dim_at", ("self_s",)),
    ("tasks.run", ("self_s",)),
)
FIELD_UNITS = {
    "calls": "count",
    "terms": "count",
    "rows": "count",
    "nnz": "count",
    "self_s": "s",
    "kernel_ratio": "ratio",
}
PER_LAYER = {
    f"{layer}.{field}": FIELD_UNITS[field]
    for layer, fields in LAYER_FIELDS
    for field in fields
}
PER_LAYER["trace_overhead_ratio"] = "ratio"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_DEADLINE = monotonic() + DEADLINE_S


def spawn(workload, seed, trace_out=None, setup_only=False):
    """Run one worker pass to completion and return its record."""
    args = ["--workload", workload, "--seed", str(seed)]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    if setup_only:
        args.append("--setup-only")
    return run_worker(args + ["--spawned", repr(monotonic())], workload)


def calibration(loops):
    """Seconds each of ``loops`` calibration loops takes now, in a fresh interpreter."""
    return run_worker(["--calibrate", str(loops)], "calibration")["calib_s"]


def run_worker(args, label):
    timeout = _DEADLINE - monotonic()
    env = {k: v for k, v in os.environ.items() if k not in ("MINORREL_RESULTS_DIR", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = HASH_SEED
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 0.1)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label} run passed its {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def pass_failures(record, golden, expected_keys, untraced=None):
    """{task key: reason} for the failed tasks of one pass.

    A traced pass is also compared task by task with an untraced one.
    """
    keys = [entry["key"] for entry in record["tasks"]]
    if keys != expected_keys:
        return {key: f"pass ran {keys}" for key in expected_keys}
    if record["cache"] != {"reads": 0, "writes": 0}:
        return {key: f"cached report touched {record['cache']}" for key in keys}
    out = {}
    for i, entry in enumerate(record["tasks"]):
        key = entry["key"]
        if "error" in entry:
            out[key] = entry["error"]
        elif entry["verdict"] == "skipped-capacity":
            out[key] = "skipped-capacity"
        elif {k: entry[k] for k in ("predicted", "witnessed", "verdict")} != golden.get(key):
            out[key] = "differs from golden answer"
        elif untraced and entry != untraced["tasks"][i]:
            out[key] = "traced output differs from untraced"
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args):
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "pythonhashseed": HASH_SEED,
    }


def measure(workload, seed, seconds, trace):
    """Set-up probes, then rounds of passes until the time is used.

    Without tracing, the calibration loop runs before the first pass and
    after every pass, for about a quarter of the pass's time.
    """
    spawn(workload, seed, setup_only=True)  # warm-up: byte-compiles src/ once
    probes = [spawn(workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    calibs = [] if trace else calibration(calibrate.SLOT_LOOPS)
    min_rounds = 1 if trace else 2
    start = monotonic()
    while True:
        plain.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, trace_out=OUT_DIR / f"spans-{workload}.jsonl"))
        else:
            calibs += calibration(calibrate.slot_loops(plain[-1]["wall_s"]))
        rounds = len(plain)
        elapsed = monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return probes, plain, traced, calibs


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced passes: counts and median self times."""
    out = {}
    for layer, fields in LAYER_FIELDS:
        aggs = [rec["layers"][layer] for rec in traced]
        for field in fields:
            if field == "self_s":
                value = statistics.median(a["self_s"] for a in aggs)
            elif field == "kernel_ratio":
                calls = aggs[0]["calls"]
                value = aggs[0]["kernel_found"] / calls if calls else 0.0
            else:
                value = aggs[0][field]
            out[f"{layer}.{field}"] = value
    out["trace_overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in plain
    )
    return out


def bench(args):
    golden = json.loads(GOLDEN.read_text())["tasks"]
    expected = [task_key(sid, params) for sid, params in WORKLOADS[args.workload]]
    ctx = context(args)
    OUT_DIR.mkdir(exist_ok=True)
    probes, plain, traced, calibs = measure(args.workload, args.seed, args.seconds, args.trace)

    failures = []
    for label, recs, untraced in (("pass", plain, None), ("traced pass", traced, plain[0])):
        for i, rec in enumerate(recs):
            for key, reason in pass_failures(rec, golden, expected, untraced).items():
                failures.append(f"{label} {i}: {key}: {reason}")
    traced_match = all(rec["tasks"] == plain[0]["tasks"] for rec in traced)
    attempted = len(expected) * len(plain + traced)

    # times as measured; the end-to-end metrics rescale them
    samples = {
        "measured_wall_s": [r["wall_s"] for r in plain],
        "measured_setup_s": [r["setup_s"] for r in probes + plain + traced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if args.trace:
        values = layer_metrics(traced, plain)
        units = PER_LAYER
        samples["traced_wall_s"] = [r["wall_s"] for r in traced]
    else:
        samples["calib_s"] = calibs
        # a loop is short and noisy; the mean averages over them as a pass does
        speed = calibrate.REFERENCE_S / statistics.mean(calibs)
        ctx["speed_factor"] = speed
        values = {
            "wall_s": statistics.median(samples["measured_wall_s"]) * speed,
            "setup_s": statistics.median(samples["measured_setup_s"]) * speed,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        units = END_TO_END
    ctx.update(
        primes=plain[0]["primes"],
        passes=len(plain),
        traced_passes=len(traced),
        setup_samples=len(samples["measured_setup_s"]),
        calibrations=len(calibs),
        attempted=attempted,
        failed=len(failures),
        fail_ratio=len(failures) / attempted,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "context": ctx,
        "samples": {name: summary(vals) | {"values": vals} for name, vals in samples.items()},
        "failures": failures,
        "result": result,
    }
    if args.trace:
        record["layers_per_pass"] = [r["layers"] for r in traced]
        record["wrapped_in"] = traced[0]["wrapped_in"]
        record["traced_matches_untraced"] = traced_match
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("context " + json.dumps(ctx))
    for name, vals in samples.items():
        s = summary(vals)
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
    for failure in failures:
        print("FAILED " + failure)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {ctx['fail_ratio']:.6g} ratio ({len(failures)} of {attempted} tasks)")
    print(json.dumps(result))


def record_golden(seed):
    """Write golden.json from one untraced pass of every workload."""
    tasks, primes = {}, None
    for workload in WORKLOADS:
        rec = spawn(workload, seed)
        primes = rec["primes"]
        for entry in rec["tasks"]:
            if "error" in entry or entry["verdict"] == "skipped-capacity":
                raise BenchError(f"cannot record a golden answer for {entry}")
            tasks[entry["key"]] = {k: entry[k] for k in ("predicted", "witnessed", "verdict")}
    data = {"recorded_with": {"seed": seed, "primes": primes, "source_sha256": source_digest()},
            "tasks": tasks}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tasks)} golden answers to {GOLDEN}")


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running pass
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "tasks.py").is_file():
        print(f"no minorrel sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            record_golden(args.seed)
        elif args.workload is None:
            ap.error("--workload is required")
        else:
            bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
