"""In-memory span tracer that wraps kflow's layer-boundary bindings.

A span has a name, a start, an end, a parent span and the id of the
operation it belongs to.  Spans live in flat ``array`` columns so that a
traced mass sweep (hundreds of thousands of scalar shape-operator calls)
stays small, and they are written out once, when the run ends.

Tracing is switched on by replacing module attributes (the bindings through
which one layer calls another, e.g. ``kflow.flow.compute_geometry``) with
wrappers, and switched off by restoring the originals.  No kflow file is
modified.
"""

import importlib
import json
import os
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (module, attribute, span name).  A dotted module path ending in a class
# name patches a method on that class.  Several bindings may share a span
# name when one function is reachable through several modules.
BINDINGS = (
    ("kflow.background", "hermite_eval", "background.hermite_eval"),
    ("kflow.background", "build_warp_table", "background.build_warp_table"),
    ("kflow.background.WarpTable", "r_from_rho", "background.r_from_rho"),
    ("kflow.basegrid", "make_grid", "basegrid.make_grid"),
    ("kflow.surface", "differentiate", "basegrid.differentiate"),
    ("kflow.surface", "compute_geometry", "surface.compute_geometry"),
    ("kflow.flow", "compute_geometry", "surface.compute_geometry"),
    ("kflow.surface", "random_star_shaped", "surface.random_star_shaped"),
    ("kflow.surface", "slice_surface", "surface.slice_surface"),
    ("kflow.flow", "run_flow", "flow.run_flow"),
    ("kflow.flow", "monotonicity_report", "flow.monotonicity_report"),
    ("kflow.plots", "emit_plots", "plots.emit_plots"),
    ("kflow.mass", "kottler_pair_graph", "mass.kottler_pair_graph"),
    ("kflow.mass", "mass_profile_graph", "mass.mass_profile_graph"),
    ("kflow.mass", "mass_limit", "mass.mass_limit"),
    ("kflow.mass", "mass_identity_check", "mass.mass_identity_check"),
    ("kflow.mass", "radial_shape_operator", "mass.radial_shape_operator"),
    ("kflow.mass", "penrose_deficit", "mass.penrose_deficit"),
)


def _resolve(path):
    """Module or class object for a dotted path; None when it does not exist."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Span recorder.  ``install`` patches the bindings, ``uninstall`` restores them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.op_id = -1
        self._saved = []
        self.absent = sorted(
            {span for mod, attr, span in BINDINGS if not hasattr(_resolve(mod), attr)}
        )

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def install(self):
        for mod, attr, span in BINDINGS:
            owner = _resolve(mod)
            if owner is None or not hasattr(owner, attr):
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span (duration, self time, root index) lists.

        Parents are recorded before their children, so one forward pass
        finds each span's root and adds its duration to its parent's.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        return dur, [d - c for d, c in zip(dur, child)], root

    def write(self, path):
        """Write the spans: a JSON header plus the raw columns, back to back."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [
                ["name", self.name.typecode],
                ["parent", self.parent.typecode],
                ["op", self.op.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "byteorder": "native",
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        with open(path + ".bin", "wb") as fh:
            for col in (self.name, self.parent, self.op, self.start, self.end):
                col.tofile(fh)


class NullTracer:
    """Stand-in for untraced solutions: its spans record nothing."""

    op_id = -1

    def span(self, name):
        return nullcontext()
