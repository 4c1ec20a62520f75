"""Semivariation of vector-valued functions relative to a seminorm.

For a function x: [a, b] -> E and a seminorm p, the semivariation is

    sup p( sum_j alpha_j (x(t_j) - x(t_{j-1})) )

over all finite partitions and all coefficient choices with |alpha_j| <= 1
(signs for a real space, unimodular scalars for a complex one).  A finite
semivariation certifies that the increment-sum set E(a, b) of the function
is bounded, which in this finite-dimensional model is exactly the weak
compactness property that the operator representation relies on.

By duality it is also the sup of Var<u, x(.)> over the polar ball of p
(Diestel & Uhl, *Vector Measures*, §I.1), which for weighted-sup and real
weighted-one seminorms, and their maxima, is a maximum over the ball's
finitely many extreme points.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgumentError, EnumerationLimitError
from .functions import _variations, bisect, dual_compose
from .spaces import polar_gauge

__all__ = [
    "SemivariationReport",
    "semivariation_on_partition",
    "semivariation",
    "e_set",
    "wcs_check",
    "dual_variation_bound",
]

# enumeration refuses more than this many nonzero increments (2^20 patterns)
MAX_ENUM_INCREMENTS = 20
# combined cap on phase-grid combinations
MAX_COMBINATIONS = 1 << 20
# the sign vertices of a real weighted-one polar ball are listed up to here
_MAX_VERTEX_DIM = 16

_CHUNK = 1 << 16


@dataclass
class SemivariationReport:
    """Result of :func:`semivariation`.

    ``value`` is exact when ``exact`` is set; ``lower_bound_only`` marks
    values obtained from a phase grid, a local search or the partitions
    of a bisection loop, which can only certify a lower bound.  ``trace``
    records the (nondecreasing) partition values per refinement level and
    ``partition_points`` / ``coefficients`` describe the attaining
    configuration of the last level; both are None for a non-step x
    under a polyhedral seminorm, whose value comes from no partition.
    """

    value: float
    exact: bool
    lower_bound_only: bool
    converged: bool
    levels: int
    trace: list = field(default_factory=list)
    partition_points: np.ndarray | None = None
    coefficients: np.ndarray | None = None
    seminorm_index: int | None = None


def _increment_rows(x, points):
    vals = x.values_at(points)
    rows = np.diff(vals, axis=0)
    return rows if x.dim is not None else rows[:, np.newaxis]


def _check_pair(x, p):
    dim = 1 if x.dim is None else x.dim
    if p.dimension != dim:
        raise ArgumentError(
            f"seminorm dimension {p.dimension} != value dimension {dim}"
        )


def _digit_chunks(base, width):
    """Digits of 0, 1, ..., base**width - 1, _CHUNK numbers at a time.

    Row r of the sequence holds the ``width`` base-``base`` digits of r,
    least significant first, so the rows follow itertools.product order
    with each tuple reversed.
    """
    total = base ** width
    radix = base ** np.arange(width, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield (idx[:, np.newaxis] // radix) % base


def _pattern_rows(table, n):
    """Every coefficient row (1, table[d_1], ..., table[d_{n-1}]), chunked.

    The first coefficient stays 1: multiplying every coefficient by one
    sign or phase leaves the seminorm unchanged.
    """
    for digits in _digit_chunks(table.size, n - 1):
        rows = np.ones((digits.shape[0], n), dtype=table.dtype)
        rows[:, 1:] = table[digits]
        yield rows


_SIGNS = np.array([1.0, -1.0])


def _phases(phase_count):
    return np.exp(2j * np.pi * np.arange(phase_count) / phase_count)


def _pattern_enumeration(deltas, p, table):
    """Sup of p(alpha @ deltas) over the coefficient rows drawn from
    ``table`` (signs: exact; a phase grid: a lower bound); deltas is
    (n, dim) with nonzero rows."""
    n = deltas.shape[0]
    if n == 0:
        return 0.0, np.ones(0, dtype=table.dtype)
    best_val, best_alpha = -1.0, None
    for alpha in _pattern_rows(table, n):
        vals = p.eval_many(alpha @ deltas)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_alpha = float(vals[k]), alpha[k].copy()
    return best_val, best_alpha


def _phase_grid_fits(n, phase_count):
    return phase_count ** max(n - 1, 0) <= MAX_COMBINATIONS


def _nonzero_rows(deltas):
    """The nonzero increment rows, their mask, and the map that spreads
    coefficients for them over all rows (coefficient 1 on a zero row)."""
    nonzero = np.max(np.abs(deltas), axis=1) > 0.0

    def expand(alpha):
        out = np.ones(deltas.shape[0], dtype=alpha.dtype)
        out[nonzero] = alpha
        return out

    return deltas[nonzero], nonzero, expand


def _aligning(z, fallback=1.0):
    """Unimodular coefficients conj(z)/|z| that turn each entry of z onto
    the positive real axis; ``fallback`` where z vanishes."""
    az = np.abs(z)
    return np.where(az > 0, np.conj(z) / np.where(az > 0, az, 1), fallback)


def _alternating_max(deltas, p, complex_field, starts, iters=80):
    """Coordinate-sign / phase ascent from several starts (lower bound)."""
    dtype = complex if complex_field else float
    best_val, best_alpha = -1.0, np.ones(deltas.shape[0], dtype=dtype)
    for alpha0 in starts:
        alpha = np.asarray(alpha0, dtype=dtype).copy()
        val = p(alpha @ deltas)
        for _ in range(iters):
            u = p._dual_at(alpha @ deltas)
            if u is None:
                break
            alpha_new = _aligning(deltas @ np.conj(u), alpha)
            if not complex_field:
                alpha_new = alpha_new.real
            new_val = p(alpha_new @ deltas)
            if new_val <= val + 1e-15:
                alpha, val = alpha_new, max(val, new_val)
                break
            alpha, val = alpha_new, new_val
        if val > best_val:
            best_val, best_alpha = val, alpha
    return best_val, best_alpha


def _starts_for(deltas, complex_field, warm):
    starts = [np.ones(deltas.shape[0], dtype=complex if complex_field
                      else float)]
    if warm is not None and warm.shape[0] == deltas.shape[0]:
        starts.insert(0, warm)
    aligned = _aligning(deltas.T)  # one start per coordinate
    return starts + list(aligned if complex_field else aligned.real)


def _partition_best(deltas, p, complex_field, phase_count, warm=None):
    """Best coefficients for fixed increments under a quadratic or a
    weighted-one seminorm whose polar ball has no vertex rows.

    Returns (value, coefficients, exact, lower_bound_only) where the
    coefficients cover every increment row of ``deltas``.
    """
    active, nonzero, expand = _nonzero_rows(deltas)
    if active.shape[0] == 0:
        return (0.0, expand(np.ones(0, dtype=complex if complex_field
                                    else float)), True, False)

    if not complex_field:
        if active.shape[0] <= MAX_ENUM_INCREMENTS:
            val, alpha = _pattern_enumeration(active, p, _SIGNS)
            return val, expand(alpha), True, False
    elif _phase_grid_fits(active.shape[0], phase_count):
        val, alpha = _pattern_enumeration(active, p, _phases(phase_count))
        return val, expand(alpha), False, True

    warm_active = warm[nonzero] \
        if warm is not None and warm.shape[0] == deltas.shape[0] else None
    starts = _starts_for(active, complex_field, warm_active)
    val, alpha = _alternating_max(active, p, complex_field, starts)
    return val, expand(alpha), False, True


def _vertex_rows(p, complex_field):
    """The extreme points of the polar ball of p, up to phase, as rows:
    w_i e_i for weighted-sup, the sign vectors times w for a real
    weighted-one seminorm of dimension up to _MAX_VERTEX_DIM; None for
    the other kinds."""
    if p.kind == "weighted-sup":
        return np.diag(p.weights)
    if p.kind == "weighted-one" and not complex_field \
            and p.dimension <= _MAX_VERTEX_DIM:
        return np.concatenate(list(_pattern_rows(_SIGNS, p.dimension))) \
            * p.weights
    return None


def _vertex_variation(x, rows):
    """max over the rows u of ``rows`` of Var<u, x(.)>, and the index of a
    best row.  A step function's variation is the sum of its jump moduli,
    so one product with its increments covers every row; the compositions
    of any other x share one extreme-value pass."""
    if x.is_step:
        deltas = _increment_rows(x, x.breakpoints)
        variations = np.sum(np.abs(deltas @ rows.conj().T), axis=0)
    else:
        variations = _variations([x * np.conj(u[0]) if x.dim is None
                                  else dual_compose(x, u) for u in rows])
    k = int(np.argmax(variations))
    return float(variations[k]), k


def semivariation_on_partition(x, partition, p, phase_count=16):
    """Brute-force semivariation of x over one fixed partition.

    Real coefficients are enumerated over all sign patterns, complex ones
    over a ``phase_count``-point unimodular grid (a lower bound).  Raises
    :class:`EnumerationLimitError` when more than 20 nonzero increments
    (real) or 2^20 grid combinations (complex) would be needed.

    Returns ``(value, coefficients)`` with one coefficient per cell.
    """
    _check_pair(x, p)
    pts = partition.points if hasattr(partition, "points") \
        else np.asarray(partition, dtype=float)
    if pts[0] != x.a or pts[-1] != x.b:
        raise ArgumentError("partition does not cover the function domain")
    if pts.size - 1 > MAX_ENUM_INCREMENTS:
        raise EnumerationLimitError(
            f"{pts.size - 1} cells exceed the enumeration cap of "
            f"{MAX_ENUM_INCREMENTS}; use semivariation() instead"
        )
    deltas = _increment_rows(x, pts)
    active, _, expand = _nonzero_rows(deltas)
    if not np.iscomplexobj(deltas):
        val, alpha = _pattern_enumeration(active, p, _SIGNS)
        return val, expand(alpha)
    if not _phase_grid_fits(active.shape[0], phase_count):
        raise EnumerationLimitError(
            "phase grid would exceed the combination cap; "
            "use semivariation() for the search fallback"
        )
    val, alpha = _pattern_enumeration(active, p, _phases(phase_count))
    return val, expand(alpha)


def semivariation(x, p, tol=1e-8, max_levels=20, phase_count=16):
    """Semivariation of x relative to p.

    Under a weighted-sup seminorm, or a real weighted-one seminorm of
    dimension up to 16, it is the largest exact variation of <u, x(.)>
    over the extreme points u of the polar ball, in one level; a complex
    non-step x has its arcs integrated by quadrature and is not flagged
    exact.  A ``max`` seminorm reports its best part, exact only when
    every part is.  Otherwise pure step functions are handled in a single
    step on the breakpoint partition (each jump isolated in its own
    cell), and the breakpoint partition of any other x is bisected until
    two consecutive levels agree within ``tol``.  A partition value is a
    lower bound of the sup over all partitions, so such a result is
    flagged ``lower_bound_only``, and its ``converged`` says only that
    two levels agreed, not that the sup is reached.  Step functions with
    more than 20 jumps are refused.
    """
    _check_pair(x, p)
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    if p.kind == "max":
        reports = [semivariation(x, part, tol, max_levels, phase_count)
                   for part in p.parts]
        return replace(
            max(reports, key=lambda r: r.value),
            exact=all(r.exact for r in reports),
            lower_bound_only=any(r.lower_bound_only for r in reports),
            converged=all(r.converged for r in reports))
    complex_field = np.iscomplexobj(x.coeffs) or np.iscomplexobj(x.values)
    pts = x.breakpoints.copy()
    if x.is_step:
        deltas = _increment_rows(x, pts)
        if np.count_nonzero(np.max(np.abs(deltas), axis=1)) \
                > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"step function has more than {MAX_ENUM_INCREMENTS} jumps"
            )
    rows = _vertex_rows(p, complex_field)
    if rows is not None:
        val, k = _vertex_variation(x, rows)
        step = x.is_step
        return SemivariationReport(
            value=val, exact=step or not complex_field,
            lower_bound_only=False, converged=True, levels=1, trace=[val],
            partition_points=pts if step else None,
            coefficients=_aligning(deltas @ rows[k].conj()) if step
            else None)
    if x.is_step:
        val, alpha, exact, lb = _partition_best(deltas, p, complex_field,
                                                phase_count)
        return SemivariationReport(
            value=val, exact=exact, lower_bound_only=lb, converged=True,
            levels=1, trace=[val], partition_points=pts, coefficients=alpha)

    trace = []
    warm = None
    alpha = None
    converged = False
    for level in range(max_levels):
        deltas = _increment_rows(x, pts)
        val, alpha, _, _ = _partition_best(
            deltas, p, complex_field, phase_count, warm)
        trace.append(val)
        if level > 0 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        if level < max_levels - 1:
            warm = np.repeat(alpha, 2)
            pts = bisect(pts)
    # refinement values are genuine lower bounds of the sup; the limit is
    # only approached, so the result is never flagged exact here
    return SemivariationReport(
        value=trace[-1], exact=False, lower_bound_only=True,
        converged=converged, levels=len(trace), trace=trace,
        partition_points=pts, coefficients=alpha)


def e_set(x, resolution=None):
    """Increment-sum set E(a, b) of x: all sums of x-increments over
    disjoint subintervals.

    Any set of cells of a partition is a union of disjoint intervals, so
    the set is the subset sums of n increments: the jumps of a pure step
    function, each isolated in its own interval (exact), or otherwise the
    cell increments of a uniform grid of ``resolution`` points (capped at
    20).  More than 20 jumps raise :class:`EnumerationLimitError` with the
    advice to pass a grid resolution; a step function ignores it.

    Returns the distinct sums as an array whose row 0 is the empty sum 0.
    """
    if x.is_step:
        increments = [j for _, j in x.jump_points(atol=0.0)]
        if len(increments) > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"{len(increments)} jumps exceed the subset-sum cap; pass a "
                "resolution to use grid mode"
            )
    else:
        if resolution is None:
            raise ArgumentError("a grid resolution is required for non-step "
                                "functions")
        resolution = int(resolution)
        if resolution < 1:
            raise ArgumentError("resolution must be at least 1")
        if resolution > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"resolution {resolution} exceeds the cap "
                f"of {MAX_ENUM_INCREMENTS}"
            )
        increments = np.diff(
            x.values_at(np.linspace(x.a, x.b, resolution)), axis=0)
    shape, dtype = x.values.shape[1:], x.values.dtype
    n = len(increments)
    increments = np.asarray(increments, dtype=dtype).reshape(
        n, x.values[0].size)
    sums = np.concatenate([bits.astype(dtype) @ increments
                           for bits in _digit_chunks(2, n)])
    return _dedupe(sums.reshape((-1,) + shape))


def _dedupe(rows):
    """The distinct rows in order of first appearance, keyed by their
    entries rounded to 12 decimals of the largest entry's modulus."""
    flat = rows.reshape(rows.shape[0], -1)
    scale = float(np.max(np.abs(flat), initial=0.0))
    if np.iscomplexobj(flat):
        # divide the parts: numpy divides a complex by multiplying with
        # 1 / scale, which overflows when the scale is subnormal
        flat = np.concatenate([flat.real, flat.imag], axis=1)
    keys = np.round(flat / (scale or 1.0), 12)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return rows[np.sort(idx)]


def wcs_check(x, seminorms, resolution=12):
    """Boundedness of the increment-sum set under each seminorm.

    In this finite-dimensional model the set is always bounded; the
    interesting output is the per-seminorm sup over ``e_set(x,
    resolution)``: the exact subset-sum set for step functions, a grid
    sample otherwise.  Returns ``(True, bounds)``.
    """
    pts = e_set(x, resolution)
    rows = pts.reshape(pts.shape[0], -1)
    bounds = np.array([float(np.max(p.eval_many(rows))) for p in seminorms])
    return True, bounds


def dual_variation_bound(x, bounding_set, duals):
    """Largest scalar variation of <dual, x(.)> over admissible duals.

    Every dual must satisfy ``polar_gauge(bounding_set, dual) <= 1`` up to
    a 1e-9 slack; a violator is reported by its index and gauge value.
    """
    for i, d in enumerate(duals):
        g = polar_gauge(bounding_set, d)
        if g > 1.0 + 1e-9:
            raise ArgumentError(
                f"dual {i} violates the polar constraint "
                f"(gauge {g:.6f} > 1)"
            )
    return _vertex_variation(x, np.asarray(duals))[0] if len(duals) else 0.0
