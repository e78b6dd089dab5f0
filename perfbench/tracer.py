"""In-memory span tracer for the ksflow layers, installed from outside `src/`.

`Tracer.install()` wraps every public function defined in the layer modules
(kernels, solver, grids, diagnostics, report, lifted.*, probes), a few methods
that carry layer work, and `solve_banded` as bound in `ksflow.solver`.  A
wrapped function is replaced at every place it is looked up: module globals
(so `from ... import` copies and intra-module calls are covered) and values
of module-level dicts (`harness._MONITOR_DISPATCH`, `lifted.suites.SUITES`).

Each call records a span (name, parent, start, end) in memory; the layer
metrics are derived from the spans and from counts read off arguments and
return values.  A name that no longer exists makes the metrics that need it
absent instead of crashing.  Two metrics show a missed patch site:
`trace.coverage` is the share of the run that the named per-layer time
metrics account for, so time that moves into a function no metric names (a
renamed or new one) or out of the layers lowers it; `trace.unpatched_refs`
counts references to an original layer function that survive installation
(in a tuple, a closure, a default argument), through which calls escape the
tracer.
"""

from __future__ import annotations

import functools
import gc
from array import array
import importlib
import inspect
import os
import pkgutil
import sys
import time
import weakref

LAYER_PACKAGES = (
    "ksflow.kernels",
    "ksflow.solver",
    "ksflow.grids",
    "ksflow.diagnostics",
    "ksflow.report",
    "ksflow.lifted",
    "ksflow.probes",
)

# (module, class, method): layer work that lives in methods, not functions
METHODS = (
    ("ksflow.grids", "RadialField", "__init__"),
    ("ksflow.lifted.gaussians", "Mixture6", "eval"),
    ("ksflow.lifted.gaussians", "Mixture6", "sample"),
)

# (module, name): foreign functions as bound in a layer module
FOREIGN = (("ksflow.solver", "solve_banded"),)

# the monitors `harness.simulate` dispatches to
MONITORS = tuple(f"diagnostics.{name}" for name in (
    "mass_conservation_check",
    "fisher_monotonicity_check",
    "entropy_monotonicity_check",
    "energy_identity_residual",
    "ellipticity_monitor",
    "h_bound_monitor",
    "maxpoint_growth_check",
    "moment_growth_check",
    "l3_bound_check",
    "linf_envelope",
))

FRAMES = ("lifted.frames.vf_eval", "lifted.frames.vf_jacobian",
          "lifted.frames.vf_divergence")
REPORT_WRITERS = ("report.write_csv", "report.write_run_report")
SUITE_KEYS = ("dissipation",)

# the spans whose time the named per-layer time metrics report: the own time
# of OWN_TIMED spans, the whole time (children included) of INCL_TIMED spans
OWN_TIMED = ("kernels.radial_convolve", "solver.step", "solver.run",
             "grids.RadialField.__init__", "lifted.gaussians.Mixture6.sample",
             "lifted.gaussians.Mixture6.eval", "lifted.functionals.estimate_many",
             *FRAMES)
OWN_TIMED_PREFIXES = ("lifted.operators.", "probes.")
INCL_TIMED = ("kernels.kernel_matrix", "solver.solve_banded", "grids.write_checkpoint",
              "diagnostics.snapshot_row", *MONITORS, *REPORT_WRITERS)


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('ksflow.')}.{qualname}"


def _in_layers(module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in LAYER_PACKAGES)


# ---------------------------------------------------------------------------
# observers: counts read from arguments and return values
# ---------------------------------------------------------------------------

def _observe_kernel_matrix(tr, args, result, dur):
    # a build is a call that returns an array not returned before; the cache
    # hands back the same object on a hit
    key = id(result)
    ref = tr.matrices.get(key)
    if ref is not None and ref() is result:
        return
    tr.matrices[key] = weakref.ref(result)
    tr.count("kernels.builds")
    tr.count("kernels.build_s", dur)
    tr.count("kernels.matrix_bytes", result.nbytes)


def _observe_step(tr, args, result, dur):
    report = result[1]
    tr.count("solver.halvings", report.halvings)
    tr.count("solver.clips", report.clips)
    tr.count("solver.substeps", 1 << report.halvings)


def _observe_report(tr, args, result, dur):
    tr.count("report.bytes", os.path.getsize(args[0]))


def _observe_sample(tr, args, result, dur):
    tr.count("lifted.samples", len(result))


def _observe_eval(tr, args, result, dur):
    if result[2] is not None:
        tr.count("lifted.hessian_evals", len(result[0]))


def _observe_probe(tr, args, result, dur):
    tr.count("probes.evaluations", len(result.rows))


OBSERVERS = {
    "kernels.kernel_matrix": _observe_kernel_matrix,
    "solver.step": _observe_step,
    "report.write_csv": _observe_report,
    "report.write_run_report": _observe_report,
    "lifted.gaussians.Mixture6.sample": _observe_sample,
    "lifted.gaussians.Mixture6.eval": _observe_eval,
    "probes.probe_inequality": _observe_probe,
}

# counters fed by each observer, absent when its span is absent or broken
COUNTER_SOURCES = {
    "kernels.builds": "kernels.kernel_matrix",
    "kernels.build_s": "kernels.kernel_matrix",
    "kernels.matrix_bytes": "kernels.kernel_matrix",
    "solver.halvings": "solver.step",
    "solver.clips": "solver.step",
    "solver.substeps": "solver.step",
    "report.bytes": "report.write_csv",
    "lifted.samples": "lifted.gaussians.Mixture6.sample",
    "lifted.hessian_evals": "lifted.gaussians.Mixture6.eval",
    "probes.evaluations": "probes.probe_inequality",
}


class Absent(Exception):
    """A metric's source span or counter was not found or could not be read."""


class Tracer:
    def __init__(self):
        # spans in flat arrays: untracked by the garbage collector, so a run
        # with 10^5 spans does not slow every collection
        self.span_names = []     # name index -> span name
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []          # [span index, child time] of open spans
        self.stats = {}          # name -> [calls, inclusive s, self s]
        self.counters = {}
        self.matrices = {}       # id -> weakref to a built matrix (hit detection)
        self.sites = {}          # span name -> number of patched binding sites
        self.broken = set()      # span names whose observer raised
        self.unpatched_refs = 0
        self.monitors_s = 0.0
        self.monitor_kernel_s = 0.0
        self._monitor_depth = 0
        self.suite_spans = {}    # suite key -> span name

    def dump_spans(self) -> dict:
        return {"names": self.span_names, "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(), "start": self.span_start.tolist(),
                "end": self.span_end.tolist(), "stats": self.stats,
                "counters": self.counters}

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layer functions in every loaded ksflow module."""
        import ksflow

        for info in pkgutil.walk_packages(ksflow.__path__, "ksflow."):
            importlib.import_module(info.name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "ksflow" or name.startswith("ksflow.")) and m is not None]

        targets = []  # (span name, original function)
        for mod in modules:
            if not _in_layers(mod.__name__):
                continue
            for attr, val in sorted(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.append((span_name(mod.__name__, attr), val))
        for modname, attr in FOREIGN:
            val = getattr(sys.modules.get(modname), attr, None)
            if callable(val):
                targets.append((span_name(modname, attr), val))

        wrappers = []
        for name, orig in targets:
            wrappers.append(self._wrap(name, orig))
            self.sites[name] = self._rebind(modules, orig, wrappers[-1])

        for modname, clsname, meth in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(orig):
                name = span_name(modname, f"{clsname}.{meth}")
                wrappers.append(self._wrap(name, orig))
                setattr(cls, meth, wrappers[-1])
                self.sites[name] = 1
        del targets  # its (name, function) pairs would count as references
        self.unpatched_refs = self._unpatched(wrappers)

        suites = getattr(sys.modules.get("ksflow.lifted.suites"), "SUITES", {})
        for key, fn in suites.items():
            wrapped = getattr(fn, "__wrapped__", None)
            if wrapped is not None:
                self.suite_spans[key] = span_name(wrapped.__module__, wrapped.__name__)

    @staticmethod
    def _rebind(modules, orig, wrapper) -> int:
        sites = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    sites += 1
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            val[key] = wrapper
                            sites += 1
        return sites

    @staticmethod
    def _unpatched(wrappers) -> int:
        """References to the wrapped ksflow originals outside the wrappers
        themselves (the foreign `solve_banded` is referenced by its own package)."""
        originals = [w.__wrapped__ for w in wrappers if _in_layers(w.__module__)]
        ours = {id(originals)}
        for w in wrappers:
            ours.add(id(w.__dict__))  # holds __wrapped__
            ours.update(id(cell) for cell in w.__closure__)
        gc.collect()
        return sum(1 for ref in gc.get_referrers(*originals)
                   if id(ref) not in ours and not inspect.isframe(ref))

    def _wrap(self, name, fn):
        tracer = self
        name_id = len(self.span_names)
        self.span_names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        observe = OBSERVERS.get(name)
        is_monitor = name in MONITORS
        is_kernels = name.startswith("kernels.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else None
            names.append(name_id)
            parents.append(parent[0] if parent else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            if is_monitor:
                tracer._monitor_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                starts[index] = start
                ends[index] = end
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                if parent is not None:
                    parent[1] += dur
                if is_monitor:
                    tracer._monitor_depth -= 1
                    if tracer._monitor_depth == 0:
                        tracer.monitors_s += dur
                elif is_kernels and tracer._monitor_depth:
                    tracer.monitor_kernel_s += own
            if observe is not None and name not in tracer.broken:
                try:
                    observe(tracer, args, result, dur)
                except Exception:  # a changed signature makes the counts absent
                    tracer.broken.add(name)
            return result

        return traced

    # -- metrics ------------------------------------------------------------

    def _stat(self, name, field):
        if name not in self.sites:
            raise Absent(name)
        return self.stats[name][field]

    def calls(self, name):
        return self._stat(name, 0)

    def incl(self, name):
        return self._stat(name, 1)

    def own(self, name):
        return self._stat(name, 2)

    def own_prefix(self, prefix):
        names = [n for n in self.sites if n.startswith(prefix)]
        if not names:
            raise Absent(prefix)
        return sum(self.stats[n][2] for n in names)

    def counter(self, name):
        source = COUNTER_SOURCES[name]
        if source not in self.sites or source in self.broken:
            raise Absent(name)
        return self.counters.get(name, 0)

    def named_time_s(self) -> float:
        """Time the named per-layer time metrics account for, each instant once."""
        names = self.span_names
        own_timed = [n in OWN_TIMED or n.startswith(OWN_TIMED_PREFIXES) for n in names]
        incl_timed = [n in INCL_TIMED for n in names]
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [end - start for start, end in zip(starts, ends)]
        for i, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[i] - starts[i]
        inside = [False] * len(own)  # the span or an ancestor is INCL_TIMED
        total = 0.0
        for i, name in enumerate(self.span_name):
            parent = parents[i]
            inside[i] = incl_timed[name] or (parent >= 0 and inside[parent])
            if inside[i] or own_timed[name]:
                total += own[i]
        return total

    def suite_s(self, key):
        if key not in self.suite_spans:
            raise Absent(key)
        return self.incl(self.suite_spans[key])

    def layer_metrics(self, wall_s: float) -> dict:
        """name -> (value, unit), or (None, unit) when absent."""
        out = {}
        for name, unit, fn in PER_LAYER:
            try:
                out[name] = (float(fn(self, wall_s)), unit)
            except Absent:
                out[name] = (None, unit)
        return out


def _hit_ratio(tr, _):
    calls = tr.calls("kernels.kernel_matrix")
    return (calls - tr.counter("kernels.builds")) / calls if calls else 0.0


def _monitors(tr, _):
    if not any(m in tr.sites for m in MONITORS):
        raise Absent("monitors")
    return tr.monitors_s


def _monitor_kernels(tr, wall):
    _monitors(tr, wall)
    return tr.monitor_kernel_s


def _samples_per_s(tr, _):
    busy = sum(tr.suite_s(k) for k in SUITE_KEYS)
    return tr.counter("lifted.samples") / busy if busy > 0 else 0.0


#: (name, unit, fn(tracer, traced wall_s)); trace.overhead_s is added by run.py
PER_LAYER = (
    ("kernels.build_s", "s", lambda t, w: t.counter("kernels.build_s")),
    ("kernels.builds", "count", lambda t, w: t.counter("kernels.builds")),
    ("kernels.cache_hit_ratio", "1", _hit_ratio),
    ("kernels.matrix_mib", "MiB", lambda t, w: t.counter("kernels.matrix_bytes") / 2**20),
    ("kernels.apply_s", "s", lambda t, w: t.own("kernels.radial_convolve")),
    ("kernels.applies", "count", lambda t, w: t.calls("kernels.radial_convolve")),
    ("solver.step_s", "s", lambda t, w: t.own("solver.step")),
    ("solver.diffusion_solve_s", "s", lambda t, w: t.incl("solver.solve_banded")),
    ("solver.overhead_s", "s", lambda t, w: t.own("solver.run")),
    ("solver.steps", "count", lambda t, w: t.calls("solver.step")),
    ("solver.substeps", "count", lambda t, w: t.counter("solver.substeps")),
    ("solver.halvings", "count", lambda t, w: t.counter("solver.halvings")),
    ("solver.clips", "count", lambda t, w: t.counter("solver.clips")),
    ("grids.field_inits", "count", lambda t, w: t.calls("grids.RadialField.__init__")),
    ("grids.field_init_s", "s", lambda t, w: t.own("grids.RadialField.__init__")),
    ("grids.checkpoint_write_s", "s", lambda t, w: t.incl("grids.write_checkpoint")),
    ("diagnostics.snapshot_s", "s", lambda t, w: t.incl("diagnostics.snapshot_row")),
    ("diagnostics.snapshots", "count", lambda t, w: t.calls("diagnostics.snapshot_row")),
    ("diagnostics.monitors_s", "s", _monitors),
    ("diagnostics.monitor_kernel_s", "s", _monitor_kernels),
    ("report.write_s", "s", lambda t, w: sum(t.incl(n) for n in REPORT_WRITERS)),
    ("report.bytes", "bytes", lambda t, w: t.counter("report.bytes")),
    ("lifted.sample_s", "s", lambda t, w: t.own("lifted.gaussians.Mixture6.sample")),
    ("lifted.samples", "count", lambda t, w: t.counter("lifted.samples")),
    ("lifted.eval_s", "s", lambda t, w: t.own("lifted.gaussians.Mixture6.eval")),
    ("lifted.hessian_evals", "count", lambda t, w: t.counter("lifted.hessian_evals")),
    ("lifted.frames_s", "s", lambda t, w: sum(t.own(n) for n in FRAMES)),
    ("lifted.operators_s", "s", lambda t, w: t.own_prefix("lifted.operators.")),
    ("lifted.integrand_s", "s", lambda t, w: t.own("lifted.functionals.estimate_many")),
    ("lifted.samples_per_s", "1/s", _samples_per_s),
    ("lifted.suite.dissipation_s", "s", lambda t, w: t.suite_s("dissipation")),
    ("probes.probe_s", "s", lambda t, w: t.own_prefix("probes.")),
    ("probes.evaluations", "count", lambda t, w: t.counter("probes.evaluations")),
    ("trace.coverage", "1", lambda t, w: t.named_time_s() / w if w > 0 else 0.0),
    ("trace.unpatched_refs", "count", lambda t, w: t.unpatched_refs),
)
