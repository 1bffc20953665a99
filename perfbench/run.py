"""
Certification benchmark for rank3etf: time to an exact verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop, single-threaded caller
drives the library's public API with one verdict in flight; there is no
rate or latency limit because a caller waits for each verdict before
asking for the next.  Workloads, metric names, units and bounds are read
from BENCHMARK.json; perfbench/GLOSSARY.md says what each one measures.

Every run happens in a fresh child interpreter (child.py) with a clean
environment, one child at a time.  With --trace 0 the last line of output
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run; the lines before it give a readable report and the provenance.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5  # set-up is timed in these fresh interpreters and the run's own
DEADLINE_S = 170  # the whole invocation must end within 180 s

# verdicts are invariant under the seed's relabeling, but cost may not be:
# compare two commits on the same seed
DEFAULT_SEED = 1


class BenchError(Exception):
    "the benchmark cannot produce a result"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def child_env():
    "the caller's environment without the knobs that change what is measured"
    env = dict(os.environ)
    for var in ("ETF_RANK3_MAX_VERTICES", "PYTHONOPTIMIZE", "PYTHONPATH"):
        env.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def pin_to_last_cpu():
    """
    Keep every child on one CPU, the last one allowed: a single-threaded run
    then never migrates, and it stays off CPU 0, which takes most device
    interrupts on a small VM.  Children inherit the affinity.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(args, env, deadline):
    "run child.py to completion (one child at a time); its JSON result"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), repr(time.monotonic())] + args
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("child exceeded the deadline: %s" % " ".join(args))
    if proc.returncode != 0:
        raise BenchError("child exited with %d: %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing: %s" % " ".join(args))
    return json.loads(lines[-1])


def git_commit():
    "HEAD of the checkout, or None; git may not look above the checkout"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def source_digest():
    "sha256 over the library's source files, for checkouts that are not git"
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(res, setup_samples):
    walls = [p["wall_s"] for p in res["passes"]]
    slowest = [p["slowest_item_s"] for p in res["passes"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "slowest_item_s": statistics.median(slowest),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    q1, q3 = quartiles(walls)
    worst = max(res["passes"], key=lambda p: p["slowest_item_s"])
    notes = {
        "wall_s": "quartiles %.4f..%.4f over %d passes" % (q1, q3, len(walls)),
        "slowest_item_s": "%d passes; slowest verdict %s" % (len(slowest), worst["slowest_item"]),
        "setup_s": "median of %d fresh interpreters" % len(setup_samples),
        "peak_rss_mb": "ru_maxrss of the workload's child",
    }
    return metrics, notes


def per_layer(res, names):
    tr = res["trace"]
    metrics = {}
    for name in names:
        if name == "trace.unattributed_s":
            metrics[name] = tr["unattributed_s"]
        elif name == "trace.overhead_s":
            metrics[name] = tr["traced_wall_s"] - tr["untraced_wall_s"]
        else:
            layer, _, kind = name.rpartition(".")
            # a layer the workload never calls reads 0
            got = tr["layers"].get(layer, {"self_s": 0.0, "calls": 0,
                                            "calls_total": 0, "found_total": 0})
            if kind == "self_s":
                metrics[name] = got["self_s"]
            elif kind == "calls":
                metrics[name] = got["calls"]
            elif kind == "hit_share":
                total = got["calls_total"]
                metrics[name] = got["found_total"] / total if total else 0.0
            else:
                raise BenchError("unknown per-layer metric %r" % name)
    notes = {"trace.overhead_s": "traced %.4f s - untraced %.4f s per pass"
             % (tr["traced_wall_s"], tr["untraced_wall_s"])}
    return metrics, notes


def main(argv):
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(argv, list(why))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "rank3etf")):
        raise BenchError("no library source at src/rank3etf")
    provenance = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu": pin_to_last_cpu(),
    }
    env = child_env()
    setup_samples = []
    if not args.trace:
        run_child(["probe"], env, deadline)  # warms the bytecode and file caches
        for _ in range(SETUP_PROBES):
            setup_samples.append(run_child(["probe"], env, deadline)["setup_s"])
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
    res = run_child(
        ["run", args.workload, str(args.seed), str(args.seconds), str(args.trace), spans_file],
        env, deadline,
    )
    setup_samples.append(res["setup_s"])
    provenance["numpy"] = res["numpy"]
    attempted = sum(p["verdicts"] for p in res["passes"])
    failed = sum(p["failed"] for p in res["passes"])
    failures = [f for p in res["passes"] for f in p["failures"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, notes = per_layer(res, list(units))
        provenance["spans_file"] = os.path.relpath(spans_file, ROOT)
    else:
        measured, notes = end_to_end(res, setup_samples)
        missing = set(units) - set(measured)
        if missing:
            raise BenchError("BENCHMARK.json names metrics not measured: %s" % sorted(missing))
        metrics = {name: measured[name] for name in units}
    print("workload %s  seed %d  passes %d" % (args.workload, args.seed, len(res["passes"])))
    print("  %-52s %14.6f %-6s %d of %d verdicts" % (
        "fail_share", failed / attempted, "ratio", failed, attempted))
    for f in failures[:20]:
        print("  FAILED " + f)
    for name, value in metrics.items():
        print("  %-52s %14.6f %-6s %s" % (name, value, units[name], notes.get(name, "")))
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(1)
