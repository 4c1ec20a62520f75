"""Piecewise-polynomial functions on a closed interval, and tagged partitions.

A :class:`PiecewiseFunction` is determined by strictly increasing
breakpoints a = b_0 < ... < b_m = b together with one polynomial per piece,
stored in local coordinates tau = t - b_i with ascending coefficient order.
Values are right-continuous: on [b_i, b_{i+1}) the function equals the
piece polynomial, and the value at the right endpoint b is stored
separately, so jumps at interior breakpoints and at b are representable.
Scalar and vector-valued (one coefficient array per coordinate) functions
share the same container; polynomial degree is capped at 6.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline

from .errors import ArgumentError

__all__ = [
    "PiecewiseFunction",
    "TaggedPartition",
    "uniform_tagged_partition",
    "refine",
    "scalar_variation",
    "dual_compose",
    "definite_integral",
    "product_integral",
    "random_spline",
]

MAX_DEGREE = 6

# tolerance for validating user-supplied right-continuity of values
_RC_TOL = 1e-9


def _shift_poly(c, dt):
    """Coefficients of p_i(dt_i + tau) given ascending coefficients of each
    p_i(tau); ``c`` is (m, K, ...) and ``dt`` is (m,)."""
    c = np.asarray(c)
    dt = np.reshape(dt, (-1,) + (1,) * (c.ndim - 1))
    out = np.zeros_like(c)
    out[:, 0] = c[:, -1]
    deg = 0
    for k in range(c.shape[1] - 2, -1, -1):
        shifted = np.zeros_like(c)
        shifted[:, 1:deg + 2] = out[:, :deg + 1]
        shifted[:, :deg + 1] += out[:, :deg + 1] * dt
        shifted[:, 0] += c[:, k]
        out = shifted
        deg += 1
    return out


def _horner(c, tau):
    """Values p_i(tau_i) of the ascending-coefficient pieces ``c``
    (m, K, ...) at the local coordinates ``tau`` (m,)."""
    tau = np.reshape(tau, (-1,) + (1,) * (c.ndim - 2))
    out = c[:, -1].copy()
    for k in range(c.shape[1] - 2, -1, -1):
        out = out * tau + c[:, k]
    return out


def _real_roots_in(c, lo, hi, open_ends=False):
    """Sorted real roots of the ascending-coefficient polynomial in [lo, hi]."""
    c = np.asarray(c, dtype=complex)
    c = npoly.polytrim(c, tol=0.0)
    if c.shape[0] <= 1:
        return np.array([])
    roots = npoly.polyroots(c)
    roots = roots[np.abs(roots.imag) < 1e-9].real
    eps = 1e-13 * max(1.0, abs(hi - lo))
    if open_ends:
        roots = roots[(roots > lo + eps) & (roots < hi - eps)]
    else:
        roots = roots[(roots >= lo - eps) & (roots <= hi + eps)]
        roots = np.clip(roots, lo, hi)
    if roots.size == 0:
        return np.array([])
    roots = np.sort(roots)
    keep = np.concatenate([[True], np.diff(roots) > eps])
    return roots[keep]


def _poly_extrema_candidates(c, h):
    """Points in [0, h] where a real polynomial can attain extreme values."""
    crit = _real_roots_in(npoly.polyder(np.asarray(c, dtype=float)), 0.0, h)
    return np.concatenate([[0.0], crit, [h]])


def _poly_range(c, h):
    """Exact (min, max) of a real polynomial over [0, h]."""
    vals = npoly.polyval(_poly_extrema_candidates(c, h), np.asarray(c, float))
    return float(np.min(vals)), float(np.max(vals))


def _poly_sup_abs(c, h):
    """Exact sup of \\|p(tau)\\| over [0, h]; supports complex coefficients."""
    c = np.asarray(c)
    if not np.iscomplexobj(c):
        lo, hi = _poly_range(c, h)
        return max(abs(lo), abs(hi))
    sq = npoly.polymul(c, c.conj()).real  # \|p\|^2 is a real polynomial
    cand = _poly_extrema_candidates(sq, h)
    return float(np.sqrt(np.max(npoly.polyval(cand, sq))))


def _poly_variation(c, h):
    """Total variation of the polynomial path p: [0, h] -> scalar."""
    c = np.asarray(c)
    if not np.iscomplexobj(c):
        pts = _poly_extrema_candidates(c, h)
        vals = npoly.polyval(pts, c.astype(float))
        return float(np.sum(np.abs(np.diff(vals))))
    # complex path: integrate \|p'\| between zeros of \|p'\|^2
    der = npoly.polyder(c)
    sq = npoly.polymul(der, der.conj()).real
    splits = np.concatenate([[0.0], _real_roots_in(sq, 0.0, h, True), [h]])
    nodes, wts = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for lo, hi in zip(splits[:-1], splits[1:]):
        half = 0.5 * (hi - lo)
        taus = lo + half * (nodes + 1.0)
        total += half * float(np.sum(wts * np.abs(npoly.polyval(taus, der))))
    return total


class PiecewiseFunction:
    """Right-continuous piecewise polynomial on [a, b].

    Parameters
    ----------
    breakpoints : (m+1,) strictly increasing floats, the piece boundaries.
    coeffs : (m, K) for scalar values or (m, K, dim) for vector values,
        ascending coefficients in the local coordinate tau = t - b_i.
    values : optional (m+1[, dim]) array of function values at the
        breakpoints.  Interior values must agree with the piece constants
        (right continuity); the value at b is free, which is how a jump at
        the right endpoint is encoded.  Defaults to the continuous choice.
    """

    def __init__(self, breakpoints, coeffs, values=None):
        bps = np.asarray(breakpoints, dtype=float)
        if bps.ndim != 1 or bps.size < 2:
            raise ArgumentError("need at least two breakpoints")
        if not np.all(np.diff(bps) > 0):
            raise ArgumentError("breakpoints must be strictly increasing")
        c = np.asarray(coeffs)
        if not np.iscomplexobj(c):
            c = c.astype(float)
        if c.ndim not in (2, 3) or c.shape[0] != bps.size - 1:
            raise ArgumentError(
                "coeffs must have shape (pieces, K) or (pieces, K, dim)"
            )
        if c.shape[1] > MAX_DEGREE + 1:
            raise ArgumentError(f"polynomial degree is capped at {MAX_DEGREE}")
        if c.shape[1] == 0:
            raise ArgumentError("empty coefficient arrays")
        self.breakpoints = bps
        self.coeffs = c
        if values is None:
            vals = np.concatenate(
                [c[:, 0], _horner(c[-1:], np.diff(bps[-2:]))], axis=0)
        else:
            vals = np.asarray(values)
            if not np.iscomplexobj(vals):
                vals = vals.astype(float)
            if vals.shape != (bps.size,) + c.shape[2:]:
                raise ArgumentError("values shape does not match coeffs")
            gap = np.abs(vals[:-1] - c[:, 0])
            if np.max(gap) > _RC_TOL:
                raise ArgumentError(
                    "values at piece starts violate right continuity "
                    f"(max deviation {np.max(gap):.2e})"
                )
            vals = np.concatenate([c[:, 0], vals[-1:]], axis=0)
        if np.iscomplexobj(c) or np.iscomplexobj(vals):
            c = c.astype(complex)
            vals = vals.astype(complex)
            self.coeffs = c
        self.values = vals

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, domain):
        value = np.asarray(value)
        coeffs = value[np.newaxis, np.newaxis]  # one piece, degree 0
        return cls(np.asarray(domain, float), coeffs)

    @classmethod
    def from_global_polynomial(cls, coeffs, domain):
        """Single-piece function from ascending coefficients in t itself."""
        a, b = float(domain[0]), float(domain[1])
        local = _shift_poly(np.asarray(coeffs)[np.newaxis], [a])
        return cls(np.array([a, b]), local)

    @classmethod
    def step(cls, domain, times, jumps, start):
        """Right-continuous step function with the given jumps.

        ``times`` lie in (a, b]; a jump exactly at b only changes the end
        value.  ``start`` is the value at a.
        """
        a, b = float(domain[0]), float(domain[1])
        times = np.asarray(times, dtype=float)
        start = np.asarray(start)
        if not np.iscomplexobj(start):
            start = start.astype(float)
        jumps = np.asarray(jumps).reshape((times.size,) + start.shape)
        if times.size and (not np.all(np.diff(times) > 0)
                           or times[0] <= a or times[-1] > b):
            raise ArgumentError("jump times must increase inside (a, b]")
        interior = times < b
        bps = np.concatenate([[a], times[interior], [b]])
        levels = np.concatenate(
            [start[np.newaxis],
             start[np.newaxis] + np.cumsum(jumps[interior], axis=0)], axis=0)
        coeffs = levels[:, np.newaxis]
        end = start + jumps.sum(axis=0)
        values = np.concatenate([levels, end[np.newaxis]], axis=0)
        return cls(bps, coeffs, values)

    # -- basic queries -----------------------------------------------------

    @property
    def a(self):
        return float(self.breakpoints[0])

    @property
    def b(self):
        return float(self.breakpoints[-1])

    @property
    def domain(self):
        return (self.a, self.b)

    @property
    def piece_count(self):
        return self.coeffs.shape[0]

    @property
    def dim(self):
        """Coordinate dimension for vector values, None for scalars."""
        return None if self.coeffs.ndim == 2 else self.coeffs.shape[2]

    @property
    def is_step(self):
        return self.coeffs.shape[1] == 1 or not np.any(self.coeffs[:, 1:])

    def is_continuous(self, atol=1e-12):
        return not self.jump_points(atol)

    def _check_domain(self, ts):
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.a or ts.max() > self.b):
            raise ArgumentError(
                f"points outside the domain [{self.a}, {self.b}]"
            )
        return ts

    def values_at(self, ts):
        """Vectorized evaluation at an array of points inside [a, b]."""
        ts = self._check_domain(np.atleast_1d(ts))
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        idx = np.clip(idx, 0, self.piece_count - 1)
        out = _horner(self.coeffs[idx], ts - self.breakpoints[idx])
        at_end = ts == self.b
        if np.any(at_end):
            out[at_end] = self.values[-1]
        return out

    def evaluate(self, t):
        """Function value at a single point (right-continuous convention)."""
        out = self.values_at([t])[0]
        if self.dim is not None:
            return out
        return complex(out) if np.iscomplexobj(out) else float(out)

    __call__ = evaluate

    def one_sided_limits(self, t):
        """(left, right) limits at t; None for the missing side at a or b."""
        t = float(t)
        self._check_domain(np.array([t]))
        left = right = None
        if t > self.a:
            j = np.searchsorted(self.breakpoints, t, side="left") - 1
            j = min(max(j, 0), self.piece_count - 1)
            left = npoly.polyval(t - self.breakpoints[j], self.coeffs[j])
        if t < self.b:
            i = np.searchsorted(self.breakpoints, t, side="right") - 1
            i = min(max(i, 0), self.piece_count - 1)
            right = npoly.polyval(t - self.breakpoints[i], self.coeffs[i])
        return left, right

    def jump_points(self, atol=1e-12):
        """Ascending list of (t, jump) pairs where the jump exceeds atol."""
        left = _horner(self.coeffs, np.diff(self.breakpoints))
        jumps = self.values[1:] - left
        size = np.max(np.abs(jumps.reshape(self.piece_count, -1)), axis=1)
        return [(float(t), jump) for t, jump, s
                in zip(self.breakpoints[1:], jumps, size) if s > atol]

    # -- calculus ----------------------------------------------------------

    def derivative(self):
        """Piecewise derivative of the smooth parts; jump data is dropped."""
        if self.coeffs.shape[1] == 1:
            der = np.zeros_like(self.coeffs)
        else:
            der = npoly.polyder(self.coeffs, axis=1)
        return PiecewiseFunction(self.breakpoints, der)

    def restrict(self, lo, hi):
        """The same function viewed on the subinterval [lo, hi]."""
        lo, hi = float(lo), float(hi)
        if not (self.a <= lo < hi <= self.b):
            raise ArgumentError("restriction must be a nondegenerate "
                                "subinterval of the domain")
        inner = self.breakpoints[
            (self.breakpoints > lo) & (self.breakpoints < hi)]
        bps = np.concatenate([[lo], inner, [hi]])
        return self._on_grid(bps, self.values_at([hi]))

    def _merge_grid(self, other):
        if self.domain != other.domain:
            raise ArgumentError("domains differ")
        return np.unique(np.concatenate([self.breakpoints,
                                         other.breakpoints]))

    def _on_grid(self, bps, end):
        """Re-express on the grid ``bps`` inside the domain, whose last point
        takes the value ``end`` (shape (1[, dim]))."""
        j = np.searchsorted(self.breakpoints, bps[:-1], side="right") - 1
        j = np.minimum(j, self.piece_count - 1)
        coeffs = _shift_poly(self.coeffs[j], bps[:-1] - self.breakpoints[j])
        return PiecewiseFunction(bps, coeffs,
                                 np.concatenate([coeffs[:, 0], end], axis=0))

    def __add__(self, other):
        if not isinstance(other, PiecewiseFunction):
            other = PiecewiseFunction.constant(other, self.domain)
        bps = self._merge_grid(other)
        f = self._on_grid(bps, self.values[-1:])
        g = other._on_grid(bps, other.values[-1:])
        kf, kg = f.coeffs.shape[1], g.coeffs.shape[1]
        K = max(kf, kg)
        cf = np.zeros((f.piece_count, K) + f.coeffs.shape[2:],
                      dtype=np.result_type(f.coeffs, g.coeffs))
        cf[:, :kf] = f.coeffs
        cf[:, :kg] += g.coeffs
        return PiecewiseFunction(bps, cf, f.values + g.values)

    def __neg__(self):
        return PiecewiseFunction(self.breakpoints, -self.coeffs, -self.values)

    def __sub__(self, other):
        if not isinstance(other, PiecewiseFunction):
            other = PiecewiseFunction.constant(other, self.domain)
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, PiecewiseFunction):
            return NotImplemented
        return PiecewiseFunction(self.breakpoints, self.coeffs * scalar,
                                 self.values * scalar)

    __rmul__ = __mul__

    def real_part(self):
        return PiecewiseFunction(self.breakpoints, self.coeffs.real.copy(),
                                 self.values.real.copy())

    def imag_part(self):
        return PiecewiseFunction(self.breakpoints, self.coeffs.imag.copy(),
                                 self.values.imag.copy())

    def sup_abs(self):
        """Exact sup of \\|f\\| (scalar) or max-abs over coordinates (vector)."""
        widths = np.diff(self.breakpoints)
        if self.dim is None:
            sups = [_poly_sup_abs(self.coeffs[i], widths[i])
                    for i in range(self.piece_count)]
        else:
            sups = [_poly_sup_abs(self.coeffs[i, :, d], widths[i])
                    for i in range(self.piece_count)
                    for d in range(self.dim)]
        end = float(np.max(np.abs(np.atleast_1d(self.values[-1]))))
        return max(max(sups), end)

    def range_bounds(self):
        """Exact (min, max) over [a, b]; real scalar functions only."""
        if self.dim is not None or np.iscomplexobj(self.coeffs):
            raise ArgumentError("range_bounds needs a real scalar function")
        widths = np.diff(self.breakpoints)
        lo, hi = np.inf, -np.inf
        for i in range(self.piece_count):
            plo, phi = _poly_range(self.coeffs[i], widths[i])
            lo, hi = min(lo, plo), max(hi, phi)
        end = float(self.values[-1])
        return min(lo, end), max(hi, end)


@dataclass(frozen=True, eq=False)
class TaggedPartition:
    """Partition a = t_0 < ... < t_n = b with one tag s_i in [t_{i-1}, t_i]."""

    points: np.ndarray
    tags: np.ndarray
    rule: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        tgs = np.asarray(self.tags, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ArgumentError("a partition needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ArgumentError("partition points must strictly increase")
        if tgs.shape != (pts.size - 1,):
            raise ArgumentError("expected one tag per cell")
        if np.any(tgs < pts[:-1]) or np.any(tgs > pts[1:]):
            raise ArgumentError("each tag must lie in its cell")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tags", tgs)

    @property
    def mesh(self):
        return float(np.max(np.diff(self.points)))

    @property
    def cell_count(self):
        return self.points.size - 1

    @classmethod
    def from_points(cls, points, rule="midpoint"):
        points = np.asarray(points, dtype=float)
        tags = _tags_by_rule(points, rule)
        return cls(points, tags, rule)

    def refine(self):
        """Bisect every cell; tag rule (or custom tag placement) is kept."""
        new = bisect(self.points)
        if self.rule is not None:
            return TaggedPartition.from_points(new, self.rule)
        # custom tags: each old tag stays in the child cell containing it,
        # the sibling cell is tagged at its midpoint
        tags = _tags_by_rule(new, "midpoint")
        for i, s in enumerate(self.tags):
            child = 2 * i if s <= new[2 * i + 1] else 2 * i + 1
            tags[child] = s
        return TaggedPartition(new, tags, None)


def bisect(points):
    """Points with each cell's midpoint inserted: t_0, m_1, t_1, ..., t_n."""
    mids = 0.5 * (points[:-1] + points[1:])
    out = np.empty(points.size + mids.size)
    out[0::2] = points
    out[1::2] = mids
    return out


def _tags_by_rule(points, rule):
    if rule == "midpoint":
        return 0.5 * (points[:-1] + points[1:])
    if rule == "left":
        return points[:-1].copy()
    if rule == "right":
        return points[1:].copy()
    raise ArgumentError(f"unknown tag rule {rule!r}")


def uniform_tagged_partition(a, b, n, rule="midpoint"):
    """Uniform n-cell tagged partition of [a, b]."""
    if n < 1:
        raise ArgumentError("need at least one cell")
    if not b > a:
        raise ArgumentError("empty interval")
    return TaggedPartition.from_points(np.linspace(a, b, n + 1), rule)


def refine(partition):
    """Bisection refinement; see :meth:`TaggedPartition.refine`."""
    return partition.refine()


def scalar_variation(f):
    """Exact total variation of a scalar piecewise polynomial on [a, b].

    Polynomial arcs contribute their monotone-segment variation (complex
    arcs are integrated by quadrature between speed zeros) and every jump
    contributes its modulus.
    """
    if f.dim is not None:
        raise ArgumentError("scalar_variation expects a scalar function")
    widths = np.diff(f.breakpoints)
    total = sum(_poly_variation(f.coeffs[i], widths[i])
                for i in range(f.piece_count))
    total += sum(abs(jump) for _, jump in f.jump_points(atol=0.0))
    return float(total)


def dual_compose(x, dual):
    """Scalar function t -> <dual, x(t)> for a vector-valued x."""
    if x.dim is None:
        raise ArgumentError("dual_compose expects a vector-valued function")
    dual = np.asarray(dual)
    if dual.shape != (x.dim,):
        raise ArgumentError("dual dimension mismatch")
    coeffs = np.tensordot(x.coeffs, dual.conj(), axes=([2], [0]))
    values = x.values @ dual.conj()
    return PiecewiseFunction(x.breakpoints, coeffs, values)


def definite_integral(f):
    """Exact Riemann integral of f over its domain (jumps are null sets)."""
    widths = np.diff(f.breakpoints)
    anti = npoly.polyint(f.coeffs, axis=1)
    total = 0.0
    for i in range(f.piece_count):
        total = total + npoly.polyval(widths[i], anti[i])
    return total


def product_integral(f, g):
    """Exact integral of the pointwise product f*g over the common domain.

    ``f`` may be scalar or vector valued, ``g`` must be scalar.  The product
    is integrated piece by piece on the merged grid, so the degree cap does
    not constrain the intermediate products.
    """
    if g.dim is not None:
        raise ArgumentError("second factor must be scalar")
    bps = f._merge_grid(g)
    ff = f._on_grid(bps, f.values[-1:])
    gg = g._on_grid(bps, g.values[-1:])
    widths = np.diff(bps)
    parts = []
    for i in range(bps.size - 1):
        gc = gg.coeffs[i]
        if ff.dim is None:
            prod = npoly.polymul(ff.coeffs[i], gc)
            parts.append(npoly.polyval(widths[i], npoly.polyint(prod)))
        else:
            coords = [npoly.polyval(widths[i],
                                    npoly.polyint(npoly.polymul(
                                        ff.coeffs[i, :, d], gc)))
                      for d in range(ff.dim)]
            parts.append(np.array(coords))
    return sum(parts)


def random_spline(domain, rng, knot_count=6, sup_bound=1.0,
                  complex_field=False):
    """Random continuous cubic spline with sup-norm exactly ``sup_bound``.

    Natural cubic spline through uniform knots with values drawn from
    [-1, 1], rescaled by its exact sup; a complex sample combines two real
    splines.  Returns the zero function when every sampled value is zero.
    """
    a, b = float(domain[0]), float(domain[1])
    if knot_count < 4:
        raise ArgumentError("need at least four knots")
    knots = np.linspace(a, b, knot_count)

    def one():
        vals = rng.uniform(-1.0, 1.0, knot_count)
        cs = CubicSpline(knots, vals, bc_type="natural")
        return PiecewiseFunction(knots, cs.c[::-1].T.copy())

    f = one()
    if complex_field:
        f = f + 1j * one()
    s = f.sup_abs()
    return f * (sup_bound / s) if s > 0 else f
