"""Semivariation of vector-valued functions relative to a seminorm.

For a function x: [a, b] -> E and a seminorm p, the semivariation is

    sup p( sum_j alpha_j (x(t_j) - x(t_{j-1})) )

over all finite partitions and all coefficient choices with |alpha_j| <= 1
(signs for a real space, unimodular scalars for a complex one).  A finite
semivariation certifies that the increment-sum set E(a, b) of the function
is bounded, which in this finite-dimensional model is exactly the weak
compactness property that the operator representation relies on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, EnumerationLimitError
from .functions import bisect, dual_compose, scalar_variation
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
# sign patterns for the weighted-one closed form are enumerated up to here
_MAX_VERTEX_DIM = 16

_CHUNK = 1 << 16


@dataclass
class SemivariationReport:
    """Result of the semivariation refinement driver.

    ``value`` is exact when ``exact`` is set; ``lower_bound_only`` marks
    values obtained from a phase grid or a local search, which can only
    certify a lower bound.  ``trace`` records the (nondecreasing) partition
    values per refinement level and ``partition_points`` /
    ``coefficients`` describe the attaining configuration of the last
    level.
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


def _alternating_max(deltas, p, complex_field, starts, iters=80):
    """Coordinate-sign / phase ascent from several starts (lower bound)."""
    dtype = complex if complex_field else float
    best_val, best_alpha = -1.0, np.ones(deltas.shape[0], dtype=dtype)
    for alpha0 in starts:
        alpha = np.asarray(alpha0, dtype=dtype).copy()
        val = float(p.eval_many((alpha @ deltas)[np.newaxis])[0])
        for _ in range(iters):
            v = alpha @ deltas
            u = p._dual_at(v)
            if u is None:
                break
            z = deltas @ np.conj(u)
            az = np.abs(z)
            alpha_new = np.where(az > 0, np.conj(z) / np.where(az > 0, az, 1),
                                 alpha)
            if not complex_field:
                alpha_new = alpha_new.real
            new_val = float(p.eval_many((alpha_new @ deltas)[np.newaxis])[0])
            if new_val <= val + 1e-15:
                alpha, val = alpha_new, max(val, new_val)
                break
            alpha, val = alpha_new, new_val
        if val > best_val:
            best_val, best_alpha = val, alpha
    return best_val, best_alpha


def _weighted_sup_exact(deltas, p, complex_field):
    """Closed form: coordinates decouple, each maximised independently."""
    scores = p.weights * np.sum(np.abs(deltas), axis=0)
    i = int(np.argmax(scores))
    col = deltas[:, i]
    az = np.abs(col)
    alpha = np.where(az > 0, np.conj(col) / np.where(az > 0, az, 1), 1.0)
    if not complex_field:
        alpha = alpha.real
    return float(scores[i]), alpha


def _weighted_one_exact(deltas, p):
    """Real closed form via the 2^dim sign vertices of the dual box."""
    best_val, best_alpha = -1.0, None
    for signs in _pattern_rows(_SIGNS, deltas.shape[1]):
        inner = deltas @ (signs * p.weights).T  # (n, patterns)
        vals = np.sum(np.abs(inner), axis=0)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_alpha = np.sign(inner[:, k])
            best_alpha[best_alpha == 0] = 1.0
    return best_val, best_alpha


def _starts_for(deltas, complex_field, warm):
    starts = [np.ones(deltas.shape[0], dtype=complex if complex_field
                      else float)]
    if warm is not None and warm.shape[0] == deltas.shape[0]:
        starts.insert(0, warm)
    for i in range(deltas.shape[1]):
        z = deltas[:, i]
        az = np.abs(z)
        s = np.where(az > 0, np.conj(z) / np.where(az > 0, az, 1), 1.0)
        starts.append(s if complex_field else s.real)
    return starts


def _partition_best(deltas, p, complex_field, phase_count, warm=None):
    """Best coefficients for fixed increments.

    Returns (value, coefficients, exact, lower_bound_only) where the
    coefficients cover every increment row of ``deltas``.
    """
    if p.kind == "max":
        best = (-1.0, None, True, False)
        for part in p.parts:
            cand = _partition_best(deltas, part, complex_field, phase_count,
                                   warm)
            if cand[0] > best[0]:
                best = cand
        return best

    active, nonzero, expand = _nonzero_rows(deltas)
    if active.shape[0] == 0:
        return (0.0, expand(np.ones(0, dtype=complex if complex_field
                                    else float)), True, False)

    if p.kind == "weighted-sup":
        val, alpha = _weighted_sup_exact(active, p, complex_field)
        return val, expand(alpha), True, False

    if not complex_field:
        if p.kind == "weighted-one" and deltas.shape[1] <= _MAX_VERTEX_DIM:
            val, alpha = _weighted_one_exact(active, p)
            return val, expand(alpha), True, False
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
    """Semivariation of x relative to p by partition refinement.

    Pure step functions are handled in a single exact step on the
    breakpoint partition (each jump isolated in its own cell).  Otherwise
    the breakpoint partition is bisected until two consecutive levels agree
    within ``tol``; values are nondecreasing across levels.
    """
    _check_pair(x, p)
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    complex_field = np.iscomplexobj(x.coeffs) or np.iscomplexobj(x.values)
    pts = x.breakpoints.copy()
    if x.is_step:
        deltas = _increment_rows(x, pts)
        if np.count_nonzero(np.max(np.abs(deltas), axis=1)) \
                > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"step function has more than {MAX_ENUM_INCREMENTS} jumps"
            )
        val, alpha, exact, lb = _partition_best(deltas, p, complex_field,
                                                phase_count)
        return SemivariationReport(
            value=val, exact=exact, lower_bound_only=lb, converged=True,
            levels=1, trace=[val], partition_points=pts, coefficients=alpha)

    trace = []
    warm = None
    exact = lb = False
    alpha = None
    converged = False
    for level in range(max_levels):
        deltas = _increment_rows(x, pts)
        val, alpha, exact, lb = _partition_best(
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
        value=trace[-1], exact=False, lower_bound_only=lb,
        converged=converged, levels=len(trace), trace=trace,
        partition_points=pts, coefficients=alpha)


def e_set(x, resolution=None):
    """Increment-sum set of x: all sums of x-increments over disjoint
    subintervals with strictly increasing endpoints.

    For a pure step function the set is computed exactly as all subset
    sums of the jumps (each subset is isolated by disjoint intervals);
    more than 20 jumps raise :class:`EnumerationLimitError` with the
    advice to pass a grid resolution instead.  Otherwise endpoints are
    drawn from a uniform grid of ``resolution`` points (capped at 20) and
    every admissible selection is accumulated.

    Returns an array of distinct vectors; 0 (the empty selection) is
    always a member.
    """
    shape = x.values.shape[1:]
    dtype = x.values.dtype
    if x.is_step:
        jumps = [j for _, j in x.jump_points(atol=0.0)]
        m = len(jumps)
        if m > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"{m} jumps exceed the subset-sum cap; pass a resolution "
                "to use grid mode"
            )
        if m == 0:
            return np.zeros((1,) + shape, dtype=dtype)
        jump_arr = np.reshape(jumps, (m, -1))
        bits = np.concatenate(list(_digit_chunks(2, m)))
        sums = (bits.astype(dtype) @ jump_arr).reshape((1 << m,) + shape)
        return _dedupe(sums)

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
    grid = np.linspace(x.a, x.b, resolution)
    vals = x.values_at(grid).reshape(resolution, -1)
    closed = np.zeros((1, vals.shape[1]), dtype=dtype)
    open_ = np.zeros((0, vals.shape[1]), dtype=dtype)
    for v in vals:
        new_closed = np.concatenate([closed, open_ + v], axis=0)
        new_open = np.concatenate([open_, closed - v], axis=0)
        closed, open_ = _dedupe(new_closed), _dedupe(new_open)
        if closed.shape[0] + open_.shape[0] > MAX_COMBINATIONS:
            raise EnumerationLimitError("increment-sum set grew past the "
                                        "combination cap")
    return closed.reshape((-1,) + shape)


def _dedupe(rows):
    flat = rows.reshape(rows.shape[0], -1)
    keys = np.round(flat, 12)
    if np.iscomplexobj(keys):
        keys = np.concatenate([keys.real, keys.imag], axis=1)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return rows[np.sort(idx)]


def wcs_check(x, seminorms, resolution=12):
    """Boundedness of the increment-sum set under each seminorm.

    In this finite-dimensional model the set is always bounded; the
    interesting output is the per-seminorm sup, computed over the exact
    subset-sum set for step functions and over a grid sample otherwise.
    Returns ``(True, bounds)``.
    """
    pts = e_set(x) if x.is_step else e_set(x, resolution)
    rows = pts.reshape(pts.shape[0], -1)
    bounds = np.array([float(np.max(p.eval_many(rows))) for p in seminorms])
    return True, bounds


def dual_variation_bound(x, bounding_set, duals):
    """Largest scalar variation of <dual, x(.)> over admissible duals.

    Every dual must satisfy ``polar_gauge(bounding_set, dual) <= 1`` up to
    a 1e-9 slack; a violator is reported by its index and gauge value.
    """
    best = 0.0
    for i, d in enumerate(duals):
        g = polar_gauge(bounding_set, d)
        if g > 1.0 + 1e-9:
            raise ArgumentError(
                f"dual {i} violates the polar constraint "
                f"(gauge {g:.6f} > 1)"
            )
        best = max(best, scalar_variation(dual_compose(x, np.asarray(d))))
    return best
