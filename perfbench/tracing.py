"""Spans and work counts around the public entry points of each layer.

The wrappers live here, in the benchmark, not in the library: ``install``
rebinds every name through which a layer function is looked up (the
defining module, each module that bound it with ``from ... import``, and
class attributes for methods) and ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, item)``.  Spans are recorded only
while ``Tracer.item`` is set, so inputs generated or checked outside an
item leave no trace.  ``Tracer.end`` reduces the item's spans to calls and
self time per span name and drops them, which keeps memory flat over a
long traced run.
"""

import functools
import sys
import time
from collections import Counter, namedtuple

import numpy as np

Span = namedtuple("Span", "name start end parent item")


def self_times(spans):
    """Duration of each span minus the union of its children's intervals.

    ``spans`` is a sequence of :class:`Span` whose ``parent`` is the index
    of the parent span or -1.  Child intervals are clipped to the parent
    and merged before they are subtracted, so overlapping children are not
    counted twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        ivals = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                       for c in children[i])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# -- what each wrapped call adds to the work counts ---------------------------


def _points(counts, args, kwargs, result):
    counts["functions.values_at.points"] += int(np.size(args[1]))


def _rows(counts, args, kwargs, result):
    counts["spaces.eval_many.rows"] += int(np.shape(result)[0])


def _drive(counts, args, kwargs, result):
    counts["integrals.levels"] += int(result.levels)
    counts["integrals.converged"] += int(bool(result.converged))


def _semivariation_levels(counts, args, kwargs, result):
    counts["semivariation.semivariation.levels"] += int(result.levels)


def _generators(counts, args, kwargs, result):
    counts["semivariation.e_set.generators"] += int(result.shape[0])


def _hull(counts, args, kwargs, result):
    gens = args[1] if len(args) > 1 else kwargs["generators"]
    counts["representation.hull_membership.generators"] += int(
        np.shape(gens)[0])
    counts["representation.hull_membership.members"] += int(result.member)


# (span name, module, attribute path, count hook).  ``integrals._drive`` is
# the one boundary every refinement drive passes, including the two that
# ``per_partes`` starts without going through ``integrate_g_dx`` or
# ``integrate_x_dg``.
TARGETS = (
    ("functions.values_at", "stieltjes.functions",
     "PiecewiseFunction.values_at", _points),
    ("functions.jump_points", "stieltjes.functions",
     "PiecewiseFunction.jump_points", None),
    ("functions.sup_abs", "stieltjes.functions", "PiecewiseFunction.sup_abs",
     None),
    ("functions.random_spline", "stieltjes.functions", "random_spline", None),
    ("functions.dual_compose", "stieltjes.functions", "dual_compose", None),
    ("spaces.eval_many", "stieltjes.spaces", "Seminorm.eval_many", _rows),
    ("spaces.sample_dual_ball", "stieltjes.spaces", "sample_dual_ball", None),
    ("integrals.integrate_g_dx", "stieltjes.integrals", "integrate_g_dx",
     None),
    ("integrals.integrate_x_dg", "stieltjes.integrals", "integrate_x_dg",
     None),
    ("integrals.per_partes", "stieltjes.integrals", "per_partes", None),
    ("integrals.drive", "stieltjes.integrals", "_drive", _drive),
    ("integrals.exact_step_integral", "stieltjes.integrals",
     "exact_step_integral", None),
    ("semivariation.semivariation", "stieltjes.semivariation",
     "semivariation", _semivariation_levels),
    ("semivariation.e_set", "stieltjes.semivariation", "e_set", _generators),
    ("semivariation.wcs_check", "stieltjes.semivariation", "wcs_check", None),
    ("representation.hull_membership", "stieltjes.representation",
     "hull_membership", _hull),
    ("representation.decompose", "stieltjes.representation", "decompose",
     None),
    ("representation.apply", "stieltjes.representation", "apply", None),
    ("representation.roundtrip", "stieltjes.representation", "roundtrip",
     None),
    ("cli.load_problem", "stieltjes.cli", "load_problem", None),
    ("cli.run_task", "stieltjes.cli", "run_task", None),
    ("cli.emit", "stieltjes.cli", "emit", None),
)

class Tracer:
    """Records the spans and work counts of the current item."""

    def __init__(self):
        self.item = None
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self._patched = []

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent,
                                         tracer.item)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target that is importable; return the names wrapped."""
        wrapped = []
        for name, modname, path, hook in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            owner = module
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                for mod in list(sys.modules.values()):
                    if (mod is not None and mod is not owner
                            and getattr(mod, "__name__", "").startswith(
                                "stieltjes")):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
            wrapped.append(name)
        return wrapped

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin(self, item):
        self.item = item
        self.spans = []
        self._stack = []
        self.counts = Counter()

    def end(self):
        """Stop recording; return the item's calls, work counts and self
        time, the first and last keyed by span name."""
        self.item = None
        calls, selfs = Counter(), Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            selfs[span.name] += own
        self.spans = []
        return calls, self.counts, selfs


# Span name -> the figures reported for it: its call count, its self time.
SPAN_METRICS = {
    "functions.values_at": ("calls", "self_s"),
    "functions.jump_points": ("calls", "self_s"),
    "functions.random_spline": ("calls", "self_s"),
    "functions.sup_abs": ("calls", "self_s"),
    "functions.dual_compose": ("calls",),
    "integrals.exact_step_integral": ("calls", "self_s"),
    "spaces.eval_many": ("calls", "self_s"),
    "spaces.sample_dual_ball": ("self_s",),
    "semivariation.semivariation": ("calls", "self_s"),
    "semivariation.e_set": ("calls", "self_s"),
    "semivariation.wcs_check": ("calls", "self_s"),
    "representation.hull_membership": ("calls", "self_s"),
    "representation.decompose": ("calls", "self_s"),
    "representation.apply": ("calls", "self_s"),
    "representation.roundtrip": ("self_s",),
    "cli.load_problem": ("self_s",),
    "cli.run_task": ("self_s",),
    "cli.emit": ("self_s",),
}

# Work counts the hooks above add up, reported as they are.
WORK_COUNTS = ("functions.values_at.points", "integrals.levels",
               "spaces.eval_many.rows", "semivariation.semivariation.levels",
               "semivariation.e_set.generators",
               "representation.hull_membership.generators")


def layer_metrics(calls, counts, self_s):
    """Per-layer metric values, as ``{name: (value, unit)}``, from summed
    calls, work counts and self time.

    Every name is always present; a layer the workload does not reach
    reports zero calls and zero seconds.
    """
    out = {}
    for span, figures in SPAN_METRICS.items():
        if "calls" in figures:
            out[span + ".calls"] = (calls[span], "count")
        if "self_s" in figures:
            out[span + ".self_s"] = (self_s[span], "s")
    for name in WORK_COUNTS:
        out[name] = (counts[name], "count")
    drives = calls["integrals.drive"]
    hulls = calls["representation.hull_membership"]
    out["integrals.drives"] = (drives, "count")
    out["integrals.converged_frac"] = (
        counts["integrals.converged"] / drives if drives else 0.0, "ratio")
    out["integrals.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("integrals.")), "s")
    out["representation.hull_membership.member_frac"] = (
        counts["representation.hull_membership.members"] / hulls
        if hulls else 0.0, "ratio")
    return out
