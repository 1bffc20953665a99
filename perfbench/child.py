"""
One workload run in a fresh interpreter, started by run.py.

    child.py SPAWNED_AT probe
    child.py SPAWNED_AT run WORKLOAD SEED SECONDS TRACE SPANS_FILE

SPAWNED_AT is the parent's time.monotonic() just before the spawn (the
clock is system-wide), so the set-up time below covers interpreter start
and `import rank3etf`, numpy included.  The child prints one JSON object.

A run repeats whole passes over the workload's verdicts within SECONDS.  It
always makes one pass, never cuts one, and starts another only if a pass as
long as the last would still end in time.  So table3, whose first pass is
cold (its GF(4) builds fill library caches), makes one pass at any likely
host speed, not sometimes one and sometimes two.  With TRACE 1 the run
makes untraced passes for half the time, then installs the tracer and makes
traced passes for the other half, so the tracing overhead is measured within
the run.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[1])
import rank3etf  # noqa: E402  (the import is what set-up time measures)

SETUP_S = time.monotonic() - SPAWNED_AT

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402

from tracer import SEGMENT, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Clock:
    "accumulates the time a verdict spends inside program calls"

    def __init__(self, tracer):
        self.elapsed = 0.0
        self._tracer = tracer

    def __enter__(self):
        if self._tracer:
            self._tracer.begin()
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._t0
        if self._tracer:
            self._tracer.end()
        return False


def run_pass(one_pass, tracer):
    items = one_pass()
    wall, slowest, failed, failures = 0.0, (-1.0, ""), 0, []
    for label, verdict in items:
        clock = Clock(tracer)
        try:
            problems = verdict(clock)
        except Exception as exc:  # a verdict that raises counts as failed
            problems = ["raised %s: %s" % (type(exc).__name__, exc)]
        wall += clock.elapsed
        slowest = max(slowest, (clock.elapsed, label))
        failed += bool(problems)
        failures += ["%s: %s" % (label, p) for p in problems]
    return {
        "wall_s": wall,
        "slowest_item_s": slowest[0],
        "slowest_item": slowest[1],
        "verdicts": len(items),
        "failed": failed,
        "failures": failures,
    }


def run_phase(one_pass, seconds, tracer=None, spans=None):
    "whole passes while the next, as long as the last, still ends within seconds"
    passes = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        p = run_pass(one_pass, tracer)
        if tracer:
            recorded = tracer.take()
            p["layers"] = layer_totals(recorded)
            spans.append(recorded)
        passes.append(p)
        now = time.monotonic()
        if now - t0 + (now - start) > seconds:
            return passes


def trace_summary(untraced, traced):
    "per-layer medians over the traced passes, and what tracing itself cost"
    names = sorted({n for p in traced for n in p["layers"]} - {SEGMENT})
    layers = {}
    for name in names:
        per_pass = [p["layers"].get(name, (0.0, 0, 0)) for p in traced]
        layers[name] = {
            "self_s": statistics.median(x[0] for x in per_pass),
            "calls": statistics.median(x[1] for x in per_pass),
            "calls_total": sum(x[1] for x in per_pass),
            "found_total": sum(x[2] for x in per_pass),
        }
    return {
        "layers": layers,
        "traced_wall_s": statistics.median(p["wall_s"] for p in traced),
        "untraced_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "unattributed_s": statistics.median(
            p["layers"].get(SEGMENT, (0.0,))[0] for p in traced
        ),
    }


def main(argv):
    if sys.flags.optimize:
        # -O strips the library's asserts, the Welch and Gram checks among
        # them, so the run would measure a different program
        print("refusing to run: sys.flags.optimize is set", file=sys.stderr)
        return 3
    if argv[0] == "probe":
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    _, workload, seed, seconds, trace, spans_file = argv
    seconds, trace = float(seconds), trace == "1"
    one_pass = WORKLOADS[workload](random.Random("%s:%s" % (workload, seed)))
    out = {
        "setup_s": SETUP_S,
        "numpy": numpy.__version__,
    }
    if not trace:
        passes = run_phase(one_pass, seconds)
    else:
        untraced = run_phase(one_pass, seconds / 2)
        tracer, spans = Tracer(), []
        tracer.install()
        traced = run_phase(one_pass, seconds / 2, tracer, spans)
        tracer.uninstall()
        out["trace"] = trace_summary(untraced, traced)
        with open(spans_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "returned"],
                       "passes": spans}, fh)
        passes = untraced + traced
    out["passes"] = [{k: v for k, v in p.items() if k != "layers"} for p in passes]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
