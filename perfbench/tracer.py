"""
Per-layer spans recorded from outside the program.

install() wraps every public function, and every public method of a public
class, defined in the traced modules, and rebinds each rank3etf.* module
attribute or class attribute that is the original object.  Names imported
with `from .matrices import mat_rank` are module attributes too, so calls
between modules are caught.  Only calls made inside a timed segment of the
harness are recorded, so input generation and oracle checks leave no spans.

A span is (name, start, end, parent index, returned-not-None).  A layer's
self time is its span's duration minus the durations of its child spans;
calls are single-threaded, so children never overlap.  Segments are root
spans named SEGMENT, so their self time is the part of the timed wall time
that no wrapped function accounts for.
"""

import functools
import inspect
import sys
from time import perf_counter

# qext (scalar arithmetic), fields (used only inside builds), tables and cli
# (dispatch) and bounds (a guard) get no spans: wrapping qext's per-entry
# operations from outside would distort the run it measures.
TRACED_MODULES = (
    "matrices", "quadspaces", "graphs", "iso", "families", "frames", "twographs",
)

# per-element accessors called inside the hot loops of other layers; a span
# each would cost more than the work it records
SKIPPED = frozenset((
    "graphs.Graph.adj",
    "graphs.Graph.degree",
    "matrices.ExactMatrix.row",
    "quadspaces.QuadraticSpace.q_of",
    "quadspaces.QuadraticSpace.polar",
    "quadspaces.QuadraticSpace.pack",
    "quadspaces.QuadraticSpace.unpack",
    "twographs.TwoGraph.contains",
    "twographs.TwoGraph.pair_degree",
))

PACKAGE = "rank3etf"
SEGMENT = "bench.timed"


def _traceable(obj):
    # a generator function returns before its work is done
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def self_times(spans):
    "self duration of each span: its duration minus its children's"
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans):
    "{name: [self seconds, calls, calls that returned a value]} over spans"
    out = {}
    for s, own in zip(spans, self_times(spans)):
        acc = out.setdefault(s[0], [0.0, 0, 0])
        acc[0] += own
        acc[1] += 1
        acc[2] += s[4]
    return out


class Tracer:
    "records spans of wrapped library calls made inside timed segments"

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = False
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, result is not None)

        return traced

    def install(self):
        "wrap the traced modules' public callables and rebind every reference"
        replace = {}  # id(original) -> (original, wrapper); keeps ids unique
        for short in TRACED_MODULES:
            mod = sys.modules["%s.%s" % (PACKAGE, short)]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traceable(obj):
                    name = "%s.%s" % (short, obj.__qualname__)
                    if name not in SKIPPED:
                        replace[id(obj)] = (obj, self._wrap(obj, name))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, short)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._rebind(mod, attr, obj, replace[id(obj)][1])

    def _wrap_methods(self, cls, short):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            static = isinstance(obj, staticmethod)
            fn = obj.__func__ if static else obj
            if not _traceable(fn):
                continue
            name = "%s.%s" % (short, fn.__qualname__)
            if name in SKIPPED:
                continue
            wrapped = self._wrap(fn, name)
            self._rebind(cls, attr, obj, staticmethod(wrapped) if static else wrapped)

    def _rebind(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def begin(self):
        "open a timed segment: a root span inside which calls are recorded"
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._active = True
        self._seg_start = perf_counter()

    def end(self):
        t1 = perf_counter()
        self._active = False
        idx = self._stack.pop()
        self.spans[idx] = (SEGMENT, self._seg_start, t1, -1, False)

    def take(self):
        "the spans recorded so far; the recorder starts empty again"
        out = list(self.spans)
        self.spans.clear()
        return out
