"""Semivariation of vector-valued functions relative to a seminorm.

For a function x: [a, b] -> E and a seminorm p, the semivariation is

    sup p( sum_j alpha_j (x(t_j) - x(t_{j-1})) )

over all finite partitions and all coefficient choices with |alpha_j| <= 1
(signs for a real space, unimodular scalars for a complex one).  A finite
semivariation certifies that the increment-sum set E(a, b) of the function
is bounded, which in this finite-dimensional model is exactly the weak
compactness property that the operator representation relies on.

By duality it is also the sup of Var<u, x(.)> over the polar ball of p
(Diestel & Uhl, *Vector Measures*, §I.1): a maximum over the ball's
vertices for weighted-sup and real weighted-one seminorms, and otherwise
bracketed by a phase grid or a branch and bound over the unit sphere.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgumentError, EnumerationLimitError
from .functions import TaggedPartition, _variations, dual_compose
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
# cap on phase-grid combinations, polar-ball vertex rows and live cells of
# the sphere search
MAX_COMBINATIONS = 1 << 20

_CHUNK = 1 << 16


@dataclass
class SemivariationReport:
    """Result of :func:`semivariation`.

    The sup lies in [``value``, ``upper``].  ``exact``: ``value`` is the
    sup itself, up to rounding.  ``lower_bound_only``: ``value`` comes
    from a phase grid or a sphere search and is attained by a polar-ball
    direction; ``upper`` is the certified other end.  ``converged``:
    ``upper - value <= tol``.  ``trace`` holds the (nondecreasing) best
    value at the end of each level.  For a step x, ``coefficients`` on the
    cells of ``partition_points`` (its breakpoints) attain at least
    ``value``; both are None for any other x.
    """

    value: float
    upper: float
    exact: bool
    lower_bound_only: bool
    converged: bool
    levels: int
    trace: list = field(default_factory=list)
    partition_points: np.ndarray | None = None
    coefficients: np.ndarray | None = None
    seminorm_index: int | None = None


def _increment_rows(x, points):
    rows = np.diff(x.values_at(points), axis=0)
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


def _nonzero_rows(deltas):
    """The nonzero increment rows, and the map that spreads coefficients
    for them over all rows (coefficient 1 on a zero row)."""
    nonzero = np.max(np.abs(deltas), axis=1) > 0.0

    def expand(alpha):
        out = np.ones(deltas.shape[0], dtype=alpha.dtype)
        out[nonzero] = alpha
        return out

    return deltas[nonzero], expand


def _aligning(z, fallback=1.0):
    """Unimodular coefficients conj(z)/|z| that turn each entry of z onto
    the positive real axis; ``fallback`` where z vanishes."""
    az = np.abs(z)
    return np.where(az > 0, np.conj(z) / np.where(az > 0, az, 1), fallback)


def _vertex_variation(x, rows):
    """Var<u, x(.)> for each row u of ``rows``, _CHUNK rows at a time: a
    step x's jump moduli, by one product with its increments, or one
    extreme-value pass over the compositions of any other x."""
    deltas = x._jumps.reshape(x.piece_count, -1) if x.is_step else None
    out = [np.zeros(0)]
    for lo in range(0, rows.shape[0], _CHUNK):
        chunk = rows[lo:lo + _CHUNK]
        if deltas is not None:
            out.append(np.sum(np.abs(deltas @ chunk.conj().T), axis=0))
        else:
            out.append(_variations([x * np.conj(u[0]) if x.dim is None
                                    else dual_compose(x, u) for u in chunk]))
    return np.concatenate(out)


def _polar_vertex_max(x, p, complex_field, phase_count):
    """Largest Var<u, x(.)> over the polar-ball vertices u of a weighted-sup
    (w_i e_i) or real weighted-one (w times the signs) seminorm, the upper
    end of the sup, and a best u.  Complex weighted-one takes w times a
    ``phase_count`` phase grid and the norming dual of x(b) - x(a): the
    grid's hull holds cos(pi/m) times the polydisc."""
    table = _phases(phase_count) if complex_field else _SIGNS
    count = table.size ** (p.dimension - 1)
    grid = complex_field and p.kind == "weighted-one" and count > 1
    if p.kind == "weighted-one" and count > MAX_COMBINATIONS:
        raise EnumerationLimitError(
            f"{count} polar-ball vertices exceed the cap of "
            f"{MAX_COMBINATIONS}")
    seed = np.conj(_aligning(x.values[-1] - x.values[0])).reshape(1, -1)
    chunks = [np.diag(p.weights)] if p.kind == "weighted-sup" else (
        rows * p.weights for part in ([seed] if grid else [],
                                      _pattern_rows(table, p.dimension))
        for rows in part)
    best, best_row = -1.0, None
    for rows in chunks:
        variations = _vertex_variation(x, rows)
        k = int(np.argmax(variations))
        if variations[k] > best:
            best, best_row = float(variations[k]), rows[k]
    if not grid:
        return best, best, best_row
    return best, (best / float(np.cos(np.pi / phase_count))
                  if phase_count > 2 else np.inf), best_row


def _sphere_search(x, p, complex_field, tol, max_levels):
    """Branch and bound for the sup of f(w) = Var<R w, x(.)> over unit w,
    R = M^(1/2): {R w : |w| <= 1} is the polar ball of p = |R .|.  A phase
    factor leaves f unchanged, so a complex w is (o_0, o_1 + i o_2, ...)
    with o a unit vector of R^(2d - 1).

    Cells are spherical simplices, first the orthant simplices of the
    cross-polytope with vertex e_1 (f is even).  As f is convex and
    positively homogeneous, it is at most max f(v_i) / h on a cell, h the
    distance from 0 to the affine hull of its vertices v_i.  Each round
    splits every live cell at the normalised midpoint of its longest edge
    and drops the cells within ``tol`` of the best value, which R v seeds
    (R^2 v / p(v) norms v = x(b) - x(a)).  A level ends when the longest
    live edge has halved; the search stops when no cell is live, after
    ``max_levels`` levels (the first holds the starting cells), or with
    more than MAX_COMBINATIONS live cells.  Returns (value, upper, best
    dual u, trace of the best value of each level)."""
    lam, vec = np.linalg.eigh(p.matrix)
    root = (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.conj().T
    seed, basis = root @ np.reshape(x.values[-1] - x.values[0], -1), root.T
    if complex_field or np.iscomplexobj(root):
        # o @ basis = w @ R^T for w = (o_0, o_1 + i o_2, ...)
        basis = np.vstack([basis[:1], np.repeat(basis[1:], 2, axis=0)
                           * np.tile([1.0, 1j], seed.size - 1)[:, None]])
        seed = seed.astype(complex) * _aligning(seed[:1])
        seed = np.concatenate([seed[:1].real, seed[1:].view(float)])
    n, norm = seed.size, float(np.linalg.norm(seed))
    seed = seed / norm if norm > 0.0 else np.eye(n)[0]
    dirs = np.vstack([np.eye(n), -np.eye(n), seed])
    vals = _vertex_variation(x, dirs @ basis)
    cells = np.arange(n) + n * (np.concatenate(
        list(_pattern_rows(_SIGNS, n))) < 0)
    dropped, trace, start = -np.inf, [], None
    # split edges by key, sorted, and their midpoints; -1 matches no key
    split = split_mid = np.full(1, -1)
    step, diagonal = max(1, (1 << 20) // (n * n)), np.arange(n)
    while True:
        bound = np.max(vals[cells], axis=1)
        pos, edge = np.zeros((bound.size, 2), int), np.zeros_like(bound)
        for lo in range(0, bound.size, step):  # chunks of 2^20 entries
            v = dirs[cells[lo:lo + step]]
            # the hull is {z : a.z = 1} with V a = 1, at distance 1 / |a|
            a = np.linalg.solve(v, np.ones(v.shape[:2] + (1,)))[:, :, 0]
            bound[lo:lo + step] *= np.linalg.norm(a, axis=1)
            gram = v @ np.swapaxes(v, 1, 2)
            gram[:, diagonal, diagonal] = np.inf
            gram = gram.reshape(gram.shape[0], -1)
            flat = np.argmin(gram, axis=1)
            pos[lo:lo + step] = np.stack(divmod(flat, n), axis=1)
            edge[lo:lo + step] = np.sqrt(np.maximum(
                2.0 - 2.0 * gram[np.arange(flat.size), flat], 0.0))
        best = float(np.max(vals))
        live = bound > best + tol
        dropped = max(dropped, float(np.max(bound[~live], initial=-np.inf)))
        cells, pos, edge = cells[live], pos[live], edge[live]
        longest = float(np.max(edge, initial=0.0))
        stop = not 0 < cells.shape[0] <= MAX_COMBINATIONS
        if stop or start is None or longest <= start / 2:
            trace.append(best)
            start = longest
        if stop or len(trace) >= max_levels:
            break
        rows = np.arange(cells.shape[0])
        ends = np.sort(cells[rows[:, np.newaxis], pos], axis=1)
        keys, inverse = np.unique((ends[:, 0] << 32) | ends[:, 1],
                                  return_inverse=True)
        # an edge shared by several cells is split once, in any round
        at = np.minimum(np.searchsorted(split, keys), split.size - 1)
        seen = split[at] == keys
        fresh = keys[~seen]
        mid = np.where(seen, split_mid[at],
                       dirs.shape[0] + np.cumsum(~seen) - 1)
        mids = dirs[fresh >> 32] + dirs[fresh & 0xFFFFFFFF]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        dirs = np.vstack([dirs, mids])
        vals = np.concatenate([vals, _vertex_variation(x, mids @ basis)])
        order = np.argsort(np.concatenate([split, fresh]))
        split = np.concatenate([split, fresh])[order]
        split_mid = np.concatenate([split_mid, mid[~seen]])[order]
        left, right = cells.copy(), cells.copy()
        left[rows, pos[:, 0]] = right[rows, pos[:, 1]] = mid[inverse]
        cells = np.vstack([left, right])
    upper = max(best, dropped, float(np.max(bound[live], initial=-np.inf)))
    return best, upper, dirs[np.argmax(vals)] @ basis, trace


def semivariation_on_partition(x, partition, p, phase_count=16):
    """Brute-force semivariation of x over one fixed partition.

    Real coefficients are enumerated over all sign patterns, complex ones
    over a ``phase_count``-point unimodular grid (a lower bound).  Raises
    :class:`EnumerationLimitError` when more than 20 nonzero increments
    (real) or 2^20 grid combinations (complex) would be needed.

    Returns ``(value, coefficients)`` with one coefficient per cell.
    """
    _check_pair(x, p)
    # raw points are checked as a TaggedPartition's are
    pts = (partition if isinstance(partition, TaggedPartition)
           else TaggedPartition.from_points(partition)).points
    if pts[0] != x.a or pts[-1] != x.b:
        raise ArgumentError("partition does not cover the function domain")
    if pts.size - 1 > MAX_ENUM_INCREMENTS:
        raise EnumerationLimitError(
            f"{pts.size - 1} cells exceed the enumeration cap of "
            f"{MAX_ENUM_INCREMENTS}; use semivariation() instead"
        )
    deltas = _increment_rows(x, pts)
    active, expand = _nonzero_rows(deltas)
    if not np.iscomplexobj(deltas):
        val, alpha = _pattern_enumeration(active, p, _SIGNS)
        return val, expand(alpha)
    if phase_count ** max(active.shape[0] - 1, 0) > MAX_COMBINATIONS:
        raise EnumerationLimitError(
            "phase grid would exceed the combination cap; "
            "use semivariation() instead"
        )
    val, alpha = _pattern_enumeration(active, p, _phases(phase_count))
    return val, expand(alpha)


def semivariation(x, p, tol=1e-8, max_levels=20, phase_count=16):
    """Semivariation of x relative to p, the sup of Var<u, x(.)> over the
    polar ball of p, by one method per seminorm kind:

    * weighted-sup and real weighted-one: the largest variation over the
      ball's vertices (up to 2^20 sign rows), exact except that a complex
      non-step x has its arcs integrated by quadrature.
    * complex weighted-one, dimension > 1: the same over a ``phase_count``
      phase grid, a lower bound G with ``upper`` G / cos(pi/m).
    * quadratic on a real step function: every sign pattern of its jumps,
      exact; more than 20 jumps are refused.
    * other quadratic cases: a branch and bound over the unit sphere of at
      most ``max_levels`` levels (:func:`_sphere_search`).
    * max: the best report of its parts, exact only when every part is,
      with the largest ``upper``.

    The grid and the search include the norming dual of x(b) - x(a), so
    the value is at least p(x(b) - x(a)).
    """
    _check_pair(x, p)
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    if p.kind == "max":
        reports = [semivariation(x, part, tol, max_levels, phase_count)
                   for part in p.parts]
        best = max(reports, key=lambda r: r.value)
        upper = max(r.upper for r in reports)
        return replace(
            best, upper=upper, exact=all(r.exact for r in reports),
            lower_bound_only=any(r.lower_bound_only for r in reports),
            converged=upper - best.value <= tol)
    complex_field = np.iscomplexobj(x.coeffs) or np.iscomplexobj(x.values)
    deltas = x._jumps.reshape(x.piece_count, -1) if x.is_step else None
    if p.kind != "quadratic":
        val, upper, u = _polar_vertex_max(x, p, complex_field, phase_count)
        trace, lower_bound_only = [val], upper > val
    elif x.is_step and not complex_field:
        active, _ = _nonzero_rows(deltas)
        if active.shape[0] > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"{active.shape[0]} jumps exceed the sign-enumeration cap "
                f"of {MAX_ENUM_INCREMENTS}")
        val, alpha = _pattern_enumeration(active, p, _SIGNS)
        # the norming dual of the best sum has the signs alpha on the jumps
        upper, u, trace = val, p.matrix @ (alpha @ active), [val]
        lower_bound_only = False
    else:
        val, upper, u, trace = _sphere_search(x, p, complex_field, tol,
                                              max_levels)
        lower_bound_only = True
    return SemivariationReport(
        value=val, upper=upper, lower_bound_only=lower_bound_only,
        exact=not lower_bound_only and (x.is_step or not complex_field),
        converged=upper - val <= tol, levels=len(trace), trace=trace,
        partition_points=x.breakpoints.copy() if x.is_step else None,
        coefficients=_aligning(deltas @ u.conj()) if x.is_step else None)


def e_set(x, resolution=None):
    """Increment-sum set E(a, b) of x: all sums of x-increments over
    disjoint subintervals.

    Any set of cells of a partition is a union of disjoint intervals, so
    the set is the subset sums of n increments: the jumps of a pure step
    function, each isolated in its own interval (exact), or otherwise the
    cell increments of a uniform grid of ``resolution`` points (capped at
    20).  A step function ignores ``resolution``, and more than 20 jumps
    raise :class:`EnumerationLimitError`.

    Returns the distinct sums as an array whose row 0 is the empty sum 0.
    """
    if x.is_step:
        increments, _ = _nonzero_rows(x._jumps.reshape(x.piece_count, -1))
        if increments.shape[0] > MAX_ENUM_INCREMENTS:
            raise EnumerationLimitError(
                f"{increments.shape[0]} jumps exceed the subset-sum cap of "
                f"{MAX_ENUM_INCREMENTS}")
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
        increments = _increment_rows(x, np.linspace(x.a, x.b, resolution))
    sums = np.concatenate([bits.astype(increments.dtype) @ increments
                           for bits in _digit_chunks(2, increments.shape[0])])
    return _dedupe(sums.reshape((-1,) + x.values.shape[1:]))


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
    return float(np.max(_vertex_variation(x, np.asarray(duals)), initial=0.0))
