"""Batch front end: declarative problem files in, machine-readable reports out.

A problem file is a JSON document (schema shipped as
``problem_schema.json``) holding a space model, named piecewise-polynomial
functions, one task tag and its parameters.  ``run_task`` dispatches to the
library and wraps the outcome in a :class:`RunReport`; ``emit`` renders a
report either as a stable structured record or as tab-separated tables:
its convergence traces, suitable for plotting, or, for a report without
traces, its payload as key/value rows.  Payloads hold the library's
values as they come, which ``json.dumps`` encodes through one hook.

Problem files are validated by ``_violations``, a small interpreter of the
keywords that ``problem_schema.json`` uses (``$ref``, ``oneOf``, ``type``,
``enum``, ``required``, ``properties``, ``additionalProperties``, ``items``,
``minItems``, ``maxItems``, ``minimum``, ``maximum``, ``exclusiveMinimum``)
with JSON semantics: a bool is never a number, an integral float is an
integer, and NaN or an infinity is no number at all.

Exit codes: 0 success, 2 schema violation (with the offending location)
or an output path that cannot be written, 3 task-level numerical error
(nonexistence, enumeration caps, incompatible operands).  Nothing is
written to the output target on an error path.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .errors import ArgumentError, EnumerationLimitError, ExistenceError, \
    SchemaError
from .functions import PiecewiseFunction
from .integrals import integrate_g_dx, integrate_x_dg, per_partes
from .representation import StieltjesOperator, additivity_check, \
    measure_from_function, measure_of_interval, roundtrip, \
    weakly_compact_image_check
from .semivariation import e_set, semivariation, wcs_check
from .spaces import Seminorm, SpaceModel

__all__ = ["RunReport", "load_problem", "run_task", "emit", "main"]

_SCHEMA = None


@dataclass
class RunReport:
    """Task echo, result payload, diagnostics and convergence traces.

    ``traces`` is a list of ``{"label", "columns", "rows"}`` records; the
    wall time is kept for interactive use but excluded from every emitted
    format so that identical problem files produce identical bytes.
    """

    task: str
    payload: dict
    diagnostics: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    wall_time: float = 0.0


# -- problem file loading ---------------------------------------------------


def _schema():
    global _SCHEMA
    if _SCHEMA is None:
        text = resources.files("stieltjes").joinpath(
            "problem_schema.json").read_text(encoding="utf-8")
        _SCHEMA = json.loads(text)
    return _SCHEMA


def _is_type(value, name):
    """JSON types: a bool is no number, an integral float is an integer,
    and NaN and the infinities (which ``json.loads`` accepts) are no
    numbers at all."""
    if name in ("number", "integer"):
        if isinstance(value, float):
            return math.isfinite(value) and (name == "number"
                                             or value.is_integer())
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, {"object": dict, "array": list,
                              "string": str}[name])


def _violations(doc, schema, loc=()):
    """Yield ``(origin, path, message)`` for each way ``doc`` breaks
    ``schema``: where the keyword was checked, where it is reported.

    Interprets the keywords listed in the module docstring; ``$schema``,
    ``title`` and ``description`` are annotations.  A ``oneOf`` that does
    not match exactly once is one violation, reported at its deepest
    branch violation when that lies below the ``oneOf`` (a complex scalar
    with a bad ``im`` reports ``im``), which is the depth jsonschema's
    ``best_match`` descends to; every other violation is reported where
    it arises.
    """
    if "$ref" in schema:
        target = _schema()
        for part in schema["$ref"].split("/")[1:]:
            target = target[part]
        yield from _violations(doc, target, loc)
    if "oneOf" in schema:
        branches = [list(_violations(doc, s, loc)) for s in schema["oneOf"]]
        matched = branches.count([])
        if matched != 1:
            _, path, message = max((v for b in branches for v in b),
                                   key=lambda v: len(v[1]),
                                   default=(loc, loc, ""))
            if len(path) == len(loc):
                path, message = loc, (f"{doc!r} matches {matched} of the "
                                      "oneOf alternatives, not exactly one")
            yield loc, path, message
    if "type" in schema and not _is_type(doc, schema["type"]):
        yield loc, loc, f"{doc!r} is not of type {schema['type']!r}"
        return
    if "enum" in schema and doc not in schema["enum"]:
        yield loc, loc, f"{doc!r} is not one of {schema['enum']!r}"
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                yield loc, loc, f"{key!r} is a required property"
        props = schema.get("properties", {})
        for key, value in doc.items():
            sub = props.get(key, schema.get("additionalProperties", True))
            if sub is False:
                yield loc, loc, f"additional property {key!r} is not allowed"
            elif sub is not True:
                yield from _violations(value, sub, loc + (key,))
    elif isinstance(doc, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not low <= len(doc) <= high:
            yield loc, loc, f"{len(doc)} items, expected {low} to {high}"
        if "items" in schema:
            for i, value in enumerate(doc):
                yield from _violations(value, schema["items"], loc + (i,))
    elif _is_type(doc, "number"):
        low, high = schema.get("minimum", -math.inf), \
            schema.get("maximum", math.inf)
        if not low <= doc <= high:
            yield loc, loc, f"{doc!r} is outside [{low}, {high}]"
        if doc <= schema.get("exclusiveMinimum", -math.inf):
            yield loc, loc, (f"{doc!r} is not greater than "
                             f"{schema['exclusiveMinimum']!r}")


def load_problem(path):
    """Read and validate a problem file, returning the problem dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}", str(path))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", str(path))
    # The violation that arises shallowest is reported, as jsonschema's
    # best_match does: of siblings at one depth the one with the larger
    # path, and at one path a plain keyword before a oneOf.  A tie decides
    # the depth when one side is a oneOf that reports a deeper branch.
    found = max(_violations(doc, _schema()),
                key=lambda v: (-len(v[0]), v[0], v[0] == v[1]), default=None)
    if found is not None:
        _, path, message = found
        raise SchemaError(message, ".".join(map(str, path)) or "<root>")
    return doc


def _scalar_value(node):
    if isinstance(node, dict):
        return complex(node["re"], node["im"])
    return float(node)


def _num_array(node, loc):
    def walk(n):
        if isinstance(n, list):
            return [walk(v) for v in n]
        return _scalar_value(n)

    try:
        arr = np.asarray(walk(node))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"ragged or non-numeric array ({exc})", loc)
    if arr.dtype == object:
        raise SchemaError("ragged numeric array", loc)
    return arr


def _build_function(name, desc):
    loc = f"functions.{name}"
    dom = desc["domain"]
    bps = np.asarray(desc["breakpoints"], dtype=float)
    if bps[0] != dom[0] or bps[-1] != dom[1]:
        raise SchemaError("breakpoints must start and end at the domain "
                          "endpoints", loc + ".breakpoints")
    coeffs = _num_array(desc["coefficients"], loc + ".coefficients")
    values = None
    if "values" in desc:
        values = _num_array(desc["values"], loc + ".values")
    try:
        return PiecewiseFunction(bps, coeffs, values)
    except ArgumentError as exc:
        raise SchemaError(str(exc), loc)


def _build_seminorm(desc, loc):
    kind = desc["kind"]
    need = {"weighted-sup": "weights", "weighted-one": "weights",
            "quadratic": "matrix", "max": "parts"}[kind]
    if need not in desc:
        raise SchemaError(f"kind {kind!r} requires the field {need!r}", loc)
    try:
        if kind == "weighted-sup":
            return Seminorm.weighted_sup(np.asarray(desc["weights"], float))
        if kind == "weighted-one":
            return Seminorm.weighted_one(np.asarray(desc["weights"], float))
        if kind == "quadratic":
            return Seminorm.quadratic(
                _num_array(desc["matrix"], loc + ".matrix"))
        parts = [_build_seminorm(p, f"{loc}.parts.{i}")
                 for i, p in enumerate(desc["parts"])]
        return Seminorm.max_of(*parts)
    except ArgumentError as exc:
        raise SchemaError(str(exc), loc)


def _build_space(desc):
    sems = tuple(_build_seminorm(s, f"space.seminorms.{i}")
                 for i, s in enumerate(desc["seminorms"]))
    try:
        return SpaceModel(int(desc["dimension"]), desc["field"], sems)
    except ArgumentError as exc:
        raise SchemaError(str(exc), "space")


def _resolve(funcs, params, key):
    name = params[key]
    if name not in funcs:
        raise SchemaError(f"unknown function {name!r}", f"parameters.{key}")
    return funcs[name]


# -- task dispatch ----------------------------------------------------------


def _components(value):
    """Flatten a scalar/vector, real/complex value into named columns."""
    arr = np.atleast_1d(np.asarray(value))
    cx = np.iscomplexobj(arr)
    names, comps = [], []
    for i, z in enumerate(arr):
        tag = "value" if arr.size == 1 else f"value_{i}"
        if cx:
            names += [tag + "_re", tag + "_im"]
            comps += [float(z.real), float(z.imag)]
        else:
            names += [tag]
            comps += [float(z)]
    return names, comps


def _integral_trace(label, result):
    """One row per refinement level; a drive always records a level."""
    rows = []
    for rec in result.trace:
        names, comps = _components(rec.value)
        estimates = [float(e) for e in np.atleast_1d(rec.estimates)]
        rows.append([rec.level, float(rec.mesh)] + comps + estimates)
    columns = (["level", "mesh"] + names
               + [f"estimate_{j}" for j in range(len(estimates))])
    return {"label": label, "columns": columns, "rows": rows}


def _drive_options(space, params):
    """Keyword arguments shared by every refinement drive of a task."""
    return {"seminorms": space.seminorms if space is not None else None,
            "tol": params.get("tolerance", 1e-8),
            "max_levels": params.get("max_levels", 20)}


def _run_integrate(integrate, funcs, space, params):
    f = _resolve(funcs, params, "integrand")
    x = _resolve(funcs, params, "integrator")
    res = integrate(f, x, **_drive_options(space, params))
    return ({"value": res.value, "converged": res.converged,
             "levels": res.levels},
            {"error_estimates": res.error_estimates},
            [_integral_trace("integral", res)])


def _run_perpartes(funcs, space, params):
    x = _resolve(funcs, params, "integrand")
    g = _resolve(funcs, params, "integrator")
    res = per_partes(x, g, **_drive_options(space, params))
    payload = {"x_dg": res.x_dg.value, "g_dx": res.g_dx.value,
               "boundary": res.boundary, "max_gap": res.max_gap,
               "converged": res.converged}
    diagnostics = {"gaps": res.gaps,
                   "estimates_x_dg": res.x_dg.error_estimates,
                   "estimates_g_dx": res.g_dx.error_estimates}
    traces = [_integral_trace("x-dg", res.x_dg),
              _integral_trace("g-dx", res.g_dx)]
    return payload, diagnostics, traces


def _run_semivariation(funcs, space, params):
    x = _resolve(funcs, params, "function")
    sel = params.get("seminorm", 0)
    if sel >= len(space.seminorms):
        raise SchemaError(f"seminorm index {sel} out of range "
                          f"(family has {len(space.seminorms)})",
                          "parameters.seminorm")
    mesh0 = float(np.max(np.diff(x.breakpoints)))
    reports, traces = [], []
    for i, p in enumerate(space.seminorms):
        rep = semivariation(x, p, tol=params.get("tolerance", 1e-8),
                            max_levels=params.get("max_levels", 20),
                            phase_count=params.get("phase_count", 16))
        reports.append(rep)
        rows = [[lvl, mesh0 / (1 << lvl), float(v)]
                for lvl, v in enumerate(rep.trace)]
        traces.append({"label": f"seminorm-{i}",
                       "columns": ["level", "mesh", "value"], "rows": rows})
    main_rep = reports[sel]
    payload = {"value": main_rep.value, "exact": main_rep.exact,
               "lower_bound_only": main_rep.lower_bound_only,
               "converged": main_rep.converged, "levels": main_rep.levels,
               "seminorm_index": sel}
    diagnostics = {"values": [r.value for r in reports],
                   "exact": [r.exact for r in reports]}
    return payload, diagnostics, traces


def _run_eset(funcs, space, params):
    x = _resolve(funcs, params, "function")
    if not x.is_step and "resolution" not in params:
        raise SchemaError("non-step functions need a grid resolution",
                          "parameters.resolution")
    pts = e_set(x, params.get("resolution"))
    payload = {"count": int(pts.shape[0]), "exact": bool(x.is_step),
               "points": pts}
    return payload, {}, []


def _run_wcs_check(funcs, space, params):
    x = _resolve(funcs, params, "function")
    ok, bounds = wcs_check(x, space.seminorms,
                           resolution=params.get("resolution", 12))
    return {"bounded": bool(ok)}, {"bounds": bounds}, []


def _run_represent_apply(funcs, space, params):
    x = _resolve(funcs, params, "integrator")
    g = _resolve(funcs, params, "argument")
    T = StieltjesOperator(space, x)
    value = T.apply(g, tol=params.get("tolerance", 1e-8))
    return ({"value": value}, {"wcs_bounds": T.wcs_bounds}, [])


def _run_image_check(funcs, space, params):
    x = _resolve(funcs, params, "integrator")
    T = StieltjesOperator(space, x)
    rep = weakly_compact_image_check(
        T, sample_count=params.get("sample_count", 10),
        seed=params.get("seed", 0), tol=params.get("tolerance", 1e-9))
    return asdict(rep), {"wcs_bounds": T.wcs_bounds}, []


def _run_roundtrip(funcs, space, params):
    x = _resolve(funcs, params, "integrator")
    sems = space.seminorms if space is not None else None
    rep = roundtrip(x, probe_count=params.get("probe_count", 20),
                    tol=params.get("tolerance", 1e-8),
                    dual_count=params.get("dual_count", 20),
                    function_count=params.get("function_count", 20),
                    seed=params.get("seed", 0), seminorms=sems)
    return asdict(rep), {}, []


def _run_measure(funcs, space, params):
    x = _resolve(funcs, params, "integrator")
    m = measure_from_function(x)
    c, d = params["interval"]
    payload = {"interval": [float(c), float(d)],
               "value": measure_of_interval(m, c, d)}
    if "cuts" in params:
        payload["additivity_gap"] = additivity_check(
            m, np.asarray(params["cuts"], dtype=float))
    return payload, {}, []


# task -> (runner, required parameters, needs a space descriptor).  The
# lambdas look the integration entry points up when they run, so that
# rebinding a module-level name (as tracing does) takes effect.
_TASKS = {
    "integrate-gdx": (lambda *args: _run_integrate(integrate_g_dx, *args),
                      ("integrand", "integrator"), False),
    "integrate-xdg": (lambda *args: _run_integrate(integrate_x_dg, *args),
                      ("integrand", "integrator"), False),
    "perpartes": (_run_perpartes, ("integrand", "integrator"), False),
    "semivariation": (_run_semivariation, ("function",), True),
    "eset": (_run_eset, ("function",), False),
    "wcs-check": (_run_wcs_check, ("function",), True),
    "represent-apply": (_run_represent_apply, ("integrator", "argument"),
                        True),
    "image-check": (_run_image_check, ("integrator",), True),
    "roundtrip": (_run_roundtrip, ("integrator",), False),
    "measure": (_run_measure, ("integrator", "interval"), False),
}


def run_task(problem):
    """Dispatch a validated problem dict and return the :class:`RunReport`."""
    t0 = time.perf_counter()
    task = problem["task"]
    # a schema integer may be written as an integral float such as 5.0
    props = _schema()["$defs"]["parameters"]["properties"]
    params = {key: int(value) if props.get(key, {}).get("type") == "integer"
              else value
              for key, value in problem.get("parameters", {}).items()}
    runner, required, needs_space = _TASKS[task]
    for key in required:
        if key not in params:
            raise SchemaError(f"task {task!r} requires the parameter "
                              f"{key!r}", f"parameters.{key}")
    if needs_space and "space" not in problem:
        raise SchemaError(f"task {task!r} requires a space descriptor",
                          "space")
    space = _build_space(problem["space"]) if "space" in problem else None
    funcs = {name: _build_function(name, desc)
             for name, desc in problem["functions"].items()}
    payload, diagnostics, traces = runner(funcs, space, params)
    return RunReport(task=task, payload=payload, diagnostics=diagnostics,
                     traces=traces, wall_time=time.perf_counter() - t0)


# -- emission ---------------------------------------------------------------


def _encode(obj):
    """The ``default`` hook of both ``json.dumps`` calls of :func:`emit`:
    arrays as nested lists, complex numbers as ``{"re", "im"}`` records,
    other numpy scalars as Python scalars, and a ``TypeError`` for the
    rest."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    return json.JSONEncoder().default(obj)


def _cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit(report, format="structured"):
    """Render a report as bytes; wall time is excluded from both formats.

    Values go to ``json.dumps`` as they are, with ``_encode`` as its
    ``default`` hook; table cells of a trace are written by ``_cell``.
    """
    if format == "structured":
        doc = {"task": report.task, "payload": report.payload,
               "diagnostics": report.diagnostics, "traces": report.traces}
        return (json.dumps(doc, sort_keys=True, indent=2, default=_encode)
                + "\n").encode()
    if format != "table":
        raise ArgumentError(f"unknown format {format!r}")
    if report.traces:
        blocks = [[tr["columns"]] + [[_cell(v) for v in row]
                                     for row in tr["rows"]]
                  for tr in report.traces]
    else:
        # a report without traces lists its payload, one key a row
        blocks = [[["key", "value"]] + [
            [key, json.dumps(report.payload[key], sort_keys=True,
                             separators=(",", ":"), default=_encode)]
            for key in sorted(report.payload)]]
    return ("\n\n".join("\n".join(map("\t".join, rows)) for rows in blocks)
            + "\n").encode()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stieltjes",
        description="Run one declarative problem file and emit its report.")
    parser.add_argument("--input", required=True,
                        help="path of the JSON problem file")
    parser.add_argument("--format", choices=("structured", "table"),
                        default="structured",
                        help="structured record, or trace tables (the "
                        "payload as key/value rows when there is no trace)")
    parser.add_argument("--output", default="stdout",
                        help="output path, or 'stdout' (the default)")
    args = parser.parse_args(argv)
    try:
        report = run_task(load_problem(args.input))
        data = emit(report, args.format)
    except SchemaError as exc:
        print(f"schema violation at {exc.location or '<root>'}: {exc}",
              file=sys.stderr)
        return 2
    except (ExistenceError, EnumerationLimitError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.output == "stdout":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            with open(args.output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"error: cannot write {args.output}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
