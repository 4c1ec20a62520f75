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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ExistenceError
from .functions import (PiecewiseFunction, _horner, _poly_sup_abs, _polyder,
                        bisect)
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


# Jumps below this share of a function's size are treated as float
# evaluation noise, not as genuine discontinuities; scaled or summed
# polynomial pieces can disagree with their stored breakpoint values by a
# few ulp of the magnitudes involved.
_JUMP_RTOL = 1e-12


def _jump_times(func):
    """Times of the jumps of func above its noise floor.  The floor scales
    with max_i sum_k \\|c_ik\\| h_i^k, which bounds each piece and each of
    its Horner terms."""
    size = _horner(np.abs(func.coeffs), np.diff(func.breakpoints))
    atol = _JUMP_RTOL * max(1.0, float(np.max(size)))
    return [t for t, _ in func.jump_points(atol=atol)]


def _require_existence(f, mu):
    """Refuse a pair with a common jump; return the jump times of mu."""
    tm = _jump_times(mu)
    common = sorted(set(_jump_times(f)).intersection(tm))
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
    widths = np.diff(func.breakpoints)
    first = _polyder(func.coeffs)
    out = []
    for der in (first, _polyder(first)):
        if func.dim is None:
            sups = [_poly_sup_abs(c, h) for c, h in zip(der, widths)]
            out.append(np.outer(sups, np.ones(len(seminorms))))
        else:
            out.append(np.array([[p.eval_many(c) @ h ** np.arange(c.shape[0])
                                  for p in seminorms]
                                 for c, h in zip(der, widths)]))
    return tuple(out)


def _tagged_sum(f, mu, points, tags):
    """sum_i f(s_i) [mu(t_i) - mu(t_{i-1})] with either factor vector-valued."""
    fv = f.values_at(tags)
    dmu = np.diff(mu.values_at(points), axis=0)
    if f.dim is None and mu.dim is not None:
        fv = fv[:, np.newaxis]
    elif f.dim is not None:
        dmu = dmu[:, np.newaxis]
    return (fv * dmu).sum(axis=0)


def _level_sum(f, mu, points, jump_ts, envs):
    D1f, D2f, D1m, D2m = envs
    lefts, rights = points[:-1], points[1:]
    h = rights - lefts
    jump_end = np.isin(rights, jump_ts)
    tags = np.where(jump_end, rights, 0.5 * (lefts + rights))
    value = _tagged_sum(f, mu, points, tags)

    i, j = f._piece_at(lefts), mu._piece_at(lefts)
    d1f, d2f, d1m, d2m = D1f[i], D2f[i], D1m[j], D2m[j]
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
    trace = []
    prev = None
    converged = False
    for level in range(max_levels):
        value, est = _level_sum(f, mu, points, jump_ts, envs)
        trace.append(LevelRecord(level, float(np.max(np.diff(points))),
                                 value, est))
        if prev is not None:
            diffs = _sem_values(seminorms, value - prev)
            if np.all(est < tol) and np.all(diffs < tol):
                converged = True
                break
        prev = value
        if level < max_levels - 1:
            points = bisect(points)
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
    out = _tagged_sum(f, mu, pts, partition.tags)
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
