"""Riemann-Stieltjes integrals of scalar functions against vector-valued
integrators and vice versa.

Both directions are mesh limits of tagged-partition sums

    sum_i f(s_i) [mu(t_i) - mu(t_{i-1})]

with the scalar factor playing the role of f in one direction and of mu in
the other.  The refinement driver starts from the union of both functions'
breakpoints plus a coarse uniform grid and bisects.  Tags are placed at
midpoints except on cells that end at a jump of the integrator, which are
tagged at their right endpoint; with that choice every jump contributes
exactly and the remaining per-cell error is second order in the cell
width, so a certified per-seminorm error estimate can be summed from
per-piece derivative envelopes.  Integrals against a common-jump pair do
not exist and are refused.

The driver is incremental.  Because the initial grid holds every
breakpoint of both functions, each cell lies inside one piece of each, so
the per-cell piece indices are looked up once and inherited by both
children at every bisection.  Each level's midpoints are its tags and the
next level's new points: the integrator is evaluated only there and its
earlier values are kept, and since every jump time is an initial point a
left child never ends at a jump.  Tags at jump ends, which are right
endpoints, go through ``values_at`` for its right-hand-piece and t = b
conventions.  A cell only a few ulps wide can have its midpoint on an end;
the driver then looks the next partition up afresh, which gives the same
bits as a from-scratch level.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ExistenceError
from .functions import PiecewiseFunction, _interleave, _polyder
from .spaces import Seminorm

__all__ = [
    "LevelRecord",
    "IntegralResult",
    "PerPartesResult",
    "rs_sum_S",
    "rs_sum_s",
    "integrate_g_dx",
    "integrate_x_dg",
    "per_partes",
    "exact_step_integral",
]

_INITIAL_UNIFORM_CELLS = 8


@dataclass
class LevelRecord:
    """One refinement level: partition mesh, the sum, and the certified
    per-seminorm error estimates."""

    level: int
    mesh: float
    value: object
    estimates: np.ndarray


@dataclass
class IntegralResult:
    value: object
    error_estimates: np.ndarray
    levels: int
    converged: bool
    trace: list = field(default_factory=list)


@dataclass
class PerPartesResult:
    """Both one-sided integrals plus the boundary term x(b)g(b) - x(a)g(a).

    ``gaps`` holds the per-seminorm defect of the identity
    integral(x dg) + integral(g dx) = boundary.
    """

    x_dg: IntegralResult
    g_dx: IntegralResult
    boundary: object
    gaps: np.ndarray

    @property
    def lhs(self):
        return self.x_dg.value

    @property
    def rhs(self):
        return self.g_dx.value

    @property
    def max_gap(self):
        return float(np.max(self.gaps))

    @property
    def converged(self):
        return self.x_dg.converged and self.g_dx.converged


def _ensure_compatible(f, mu):
    if f.domain != mu.domain:
        raise ArgumentError(
            f"domains differ: {f.domain} vs {mu.domain}"
        )
    if f.dim is not None and mu.dim is not None:
        raise ArgumentError("at most one factor may be vector-valued")


def _require_existence(f, mu):
    """Refuse a pair with a common jump; return the jump times of mu."""
    tm = mu._jump_times
    common = sorted(set(f._jump_times).intersection(tm))
    if common:
        pts = ", ".join(f"{t:.12g}" for t in common)
        raise ExistenceError(
            f"both functions jump at t = {pts}; the Stieltjes integral "
            "does not exist"
        )
    return np.array(tm)


def _default_seminorms(f, mu):
    dim = f.dim or mu.dim or 1
    return (Seminorm.weighted_sup(np.ones(dim)),)


def _sem_values(seminorms, v):
    return np.array([p(v) for p in seminorms])


def _envelopes(func, seminorms):
    """Per-piece sups of first and second derivative size, per seminorm.

    Scalar pieces use the exact polynomial sup of \\|q'\\| and \\|q''\\|;
    vector pieces use the triangle-inequality envelope
    sum_k p(c_k) h^k, which upper-bounds sup p over the piece.
    """
    if func.dim is None:
        return tuple(np.outer(sups, np.ones(len(seminorms)))
                     for sups in func._derivative_sups)
    widths = np.diff(func.breakpoints)
    first = _polyder(func.coeffs)
    return tuple(np.array([[p.eval_many(c) @ h ** np.arange(c.shape[0])
                            for p in seminorms]
                           for c, h in zip(der, widths)])
                 for der in (first, _polyder(first)))


def _product_sum(fv, dmu):
    """sum_i fv_i dmu_i, where either factor may carry a coordinate axis."""
    if fv.ndim < dmu.ndim:
        fv = fv[:, np.newaxis]
    elif fv.ndim > dmu.ndim:
        dmu = dmu[:, np.newaxis]
    return (fv * dmu).sum(axis=0)


def _cells(f, mu, points, jump_ts):
    """Per-cell piece indices of f and mu, mu at the points, and the mask
    of cells that end at a jump of mu, looked up from scratch."""
    lefts = points[:-1]
    return (f._piece_at(lefts), mu._piece_at(lefts), mu.values_at(points),
            np.isin(points[1:], jump_ts))


def _bisected_cells(mu, cells, mids):
    """The cells after bisection at midpoints strictly inside each cell:
    both children inherit the piece indices, mu is evaluated only at the
    midpoints, and only right children can end at a jump."""
    i, j, mu_vals, jump_end = cells
    return (np.repeat(i, 2), np.repeat(j, 2),
            _interleave(mu_vals, mu._values_in(j, mids)),
            _interleave(np.zeros_like(jump_end), jump_end))


def _level_sum(f, rights, h, mids, inside, cells, envs):
    """The tagged sum and per-seminorm error estimate of one level whose
    cells have right ends ``rights``, widths ``h`` and midpoints ``mids``;
    ``inside`` says that every midpoint lies strictly inside its cell."""
    D1f, D2f, D1m, D2m = envs
    i, j, mu_vals, jump_end = cells
    if inside:
        fv = f._values_in(i, mids)
        fv[jump_end] = f.values_at(rights[jump_end])
    else:
        fv = f.values_at(np.where(jump_end, rights, mids))
    value = _product_sum(fv, np.diff(mu_vals, axis=0))

    d1f, d2f = D1f.take(i, axis=0), D2f.take(i, axis=0)
    d1m, d2m = D1m.take(j, axis=0), D2m.take(j, axis=0)
    smooth = (d1f * d2m + 0.5 * d2f * d1m) * (h ** 3 / 12.0)[:, np.newaxis]
    atjump = (d1f * d1m) * (h ** 2)[:, np.newaxis]
    est = np.sum(np.where(jump_end[:, np.newaxis], atjump, smooth), axis=0)
    return value, est


def _drive(f, mu, seminorms, tol, max_levels):
    _ensure_compatible(f, mu)
    jump_ts = _require_existence(f, mu)
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    if max_levels < 2:
        raise ArgumentError("need at least two refinement levels")
    seminorms = tuple(seminorms) if seminorms is not None \
        else _default_seminorms(f, mu)
    dim = f.dim or mu.dim
    for p in seminorms:
        if p.dimension != (dim or 1):
            raise ArgumentError("seminorm dimension does not match the "
                                "vector-valued factor")
    a, b = f.domain
    points = np.unique(np.concatenate(
        [f.breakpoints, mu.breakpoints,
         np.linspace(a, b, _INITIAL_UNIFORM_CELLS + 1)]))
    envs = _envelopes(f, seminorms) + _envelopes(mu, seminorms)
    cells = _cells(f, mu, points, jump_ts)
    trace = []
    prev = None
    converged = False
    for level in range(max_levels):
        lefts, rights = points[:-1], points[1:]
        h = rights - lefts
        mids = 0.5 * (lefts + rights)
        inside = bool(np.all(lefts < mids) and np.all(mids < rights))
        value, est = _level_sum(f, rights, h, mids, inside, cells, envs)
        trace.append(LevelRecord(level, float(np.max(h)), value, est))
        if prev is not None:
            diffs = _sem_values(seminorms, value - prev)
            if np.all(est < tol) and np.all(diffs < tol):
                converged = True
                break
        prev = value
        if level < max_levels - 1:
            points = _interleave(points, mids)
            cells = (_bisected_cells(mu, cells, mids) if inside
                     else _cells(f, mu, points, jump_ts))
    if dim is None:
        value = complex(value) if np.iscomplexobj(value) else float(value)
    return IntegralResult(value=value, error_estimates=est,
                          levels=len(trace), converged=converged,
                          trace=trace)


def _plain_sum(f, mu, partition):
    _ensure_compatible(f, mu)
    pts = partition.points
    if pts[0] != f.a or pts[-1] != f.b:
        raise ArgumentError("partition does not cover the common domain")
    out = _product_sum(f.values_at(partition.tags),
                       np.diff(mu.values_at(pts), axis=0))
    if f.dim is None and mu.dim is None:
        out = complex(out) if np.iscomplexobj(out) else float(out)
    return out


def rs_sum_S(x, g, partition):
    """Tagged sum sum_i x(s_i)[g(t_i) - g(t_{i-1})] for scalar g."""
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    return _plain_sum(x, g, partition)


def rs_sum_s(g, x, partition):
    """Tagged sum sum_i g(s_i)[x(t_i) - x(t_{i-1})] for scalar g."""
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    return _plain_sum(g, x, partition)


def integrate_g_dx(g, x, seminorms=None, tol=1e-8, max_levels=20):
    """Mesh limit of the sums sum g(s_i) [x(t_i) - x(t_{i-1})].

    Raises :class:`ExistenceError` when g and x jump at a common point.
    The result carries certified per-seminorm error estimates
    (``seminorms`` defaults to max-abs on the coordinates) and the level
    trace; ``converged`` means every estimate and the last two levels'
    difference dropped below ``tol``.
    """
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    return _drive(g, x, seminorms, tol, max_levels)


def integrate_x_dg(x, g, seminorms=None, tol=1e-8, max_levels=20):
    """Mesh limit of the sums sum x(s_i) [g(t_i) - g(t_{i-1})]."""
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    return _drive(x, g, seminorms, tol, max_levels)


def per_partes(x, g, seminorms=None, tol=1e-8, max_levels=20):
    """Both Stieltjes integrals linked by integration by parts.

    Computes integral(x dg) and integral(g dx) independently and reports
    the per-seminorm defect of

        integral(x dg) + integral(g dx) = x(b)g(b) - x(a)g(a).

    Pairs with a common jump are refused with the offending points named.
    """
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    lhs = _drive(x, g, seminorms, tol, max_levels)
    rhs = _drive(g, x, seminorms, tol, max_levels)
    boundary = x(x.b) * g(g.b) - x(x.a) * g(g.a)
    sems = tuple(seminorms) if seminorms is not None \
        else _default_seminorms(x, g)
    gaps = _sem_values(sems, lhs.value + rhs.value - boundary)
    return PerPartesResult(x_dg=lhs, g_dx=rhs, boundary=boundary, gaps=gaps)


def exact_step_integral(g, x):
    """Closed form of integral(g dx) for a pure step integrator x.

    The value is sum_j g(tau_j) J_j over the jumps (tau_j, J_j) of x; g
    must be continuous at every jump point.  Serves as an independent
    oracle for the refinement driver.
    """
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    if not x.is_step:
        raise ArgumentError("x must be a pure step function")
    _ensure_compatible(g, x)
    _require_existence(g, x)
    jumps = x.jump_points(atol=0.0)
    zero = x.values[-1] * 0
    if g.dim is None and np.iscomplexobj(g.values):
        zero = zero * (1 + 0j)
    total = zero
    for t, jump in jumps:
        total = total + g(t) * jump
    if x.dim is None:
        return complex(total) if np.iscomplexobj(total) else float(total)
    return total
