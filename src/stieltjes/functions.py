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
from functools import cache, cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

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

# Jumps below this share of a function's size are treated as float
# evaluation noise, not as genuine discontinuities; scaled or summed
# polynomial pieces can disagree with their stored breakpoint values by a
# few ulp of the magnitudes involved.
_JUMP_RTOL = 1e-12


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


def _kept_terms(c, h):
    """Sizes \\|c_ik\\| h_i^k (m, K) of the terms of the rows of ``c`` on
    [0, h_i], and the number of terms (m,) each row keeps once its leading
    terms below 1e-9 of its largest are dropped.  The powers are scalar
    powers h_i ** k: numpy's array power can differ from them in the last
    bit and flip a decision."""
    m, K = c.shape
    powers = [[s ** k for k in range(K)] for s in np.ravel(h).tolist()]
    size = np.abs(c) * np.array(powers).reshape(m, K)
    big = size > 1e-9 * size.max(axis=1, keepdims=True)
    return size, (big * np.arange(1, K + 1)).max(axis=1)


def _root_rows(c, h):
    """Complex roots of the real ascending-coefficient rows of ``c`` (m, K),
    row i considered on [0, h_i]: (m, R) rows whose first ``count_i``
    entries are that row's roots in ascending order (the rest NaN), and
    ``count`` (m,).

    Leading terms below 1e-9 of a row's largest term on [0, h_i] are
    dropped (:func:`_kept_terms`) and the rest scaled by a power of two
    (exactly), so no companion matrix gets huge or, from subnormals,
    infinite entries.  Rows of one trimmed degree share one stacked
    eigenvalue call.  A root of multiplicity k comes back with an
    imaginary part of order eps**(1/k), so callers use the real parts of
    all roots.
    """
    c = np.asarray(c, dtype=float)
    n = _kept_terms(c, h)[1]
    count = np.maximum(n - 1, 0)
    lead = np.where(np.arange(c.shape[1]) < n[:, np.newaxis], np.abs(c), 0.0)
    scaled = np.ldexp(c, -np.frexp(lead.max(axis=1))[1][:, np.newaxis])
    scaled = scaled.astype(complex)
    roots = np.full((c.shape[0], count.max(initial=0)), np.nan, dtype=complex)
    for d in sorted(set(count.tolist()) - {0}):
        rows = np.flatnonzero(count == d)
        cs = scaled[rows, :d + 1]
        if d == 1:
            roots[rows, :1] = -cs[:, :1] / cs[:, 1:]
            continue
        # np.polynomial.polynomial.polycompanion, one per row
        comp = np.zeros((rows.size, d, d), dtype=complex)
        comp.reshape(rows.size, -1)[:, d::d + 1] = 1
        comp[:, :, -1] -= cs[:, :-1] / cs[:, -1:]
        roots[rows, :d] = np.sort(np.linalg.eigvals(comp), axis=1)
    return roots, count


# A k-fold real root comes back spread over a circle of radius about
# delta**(1/k) times the piece width, where delta is the relative size of
# the perturbation: rounding, or the leading terms dropped before root
# finding.  Roots further than this many such radii off the real axis,
# for k up to the trimmed degree, are complex pairs where a real
# polynomial cannot change sign.  Perturbed multiple real roots have
# been seen at up to 2.6 radii.
_ROOT_SPREAD = 16.0


def _split_rows(c, h, sign_changes=False):
    """For each real polynomial row of ``c`` (m, K) on [0, h_i], the sorted
    real parts, at least eps apart, of its roots strictly inside (0, h_i).

    With ``sign_changes`` only roots close enough to the real axis to be
    a perturbed real root count: every point where the polynomial can
    change sign.  Without it, the real parts of complex pairs near the
    axis also mark where a modulus such as \\|p'\\| bends sharply.
    """
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    roots, count = _root_rows(c, h)
    eps = 1e-13 * np.maximum(1.0, h)
    keep = (roots.real > eps[:, np.newaxis]) \
        & (roots.real < (h - eps)[:, np.newaxis])
    if sign_changes:
        size, n = _kept_terms(c, h)
        top = size.max(axis=1)
        dropped = np.where(np.arange(c.shape[1]) < n[:, np.newaxis], 0.0,
                           size).max(axis=1)
        delta = np.maximum(np.finfo(float).eps,
                           dropped / np.where(top > 0.0, top, 1.0))
        spread = _ROOT_SPREAD * h * delta ** (1.0 / np.maximum(count, 1))
        keep &= np.abs(roots.imag) <= spread[:, np.newaxis]
    splits = []
    for r, k, e in zip(roots.real, keep, eps.tolist()):
        r = np.sort(r[k])
        splits.append(r[np.concatenate([[True], np.diff(r) > e])]
                      if r.size else r)
    return splits


def _polyder(c):
    """Derivatives of the ascending-coefficient pieces ``c`` (m, K, ...);
    constant pieces keep one (zero) coefficient."""
    return npoly.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros_like(c)


def _extreme_rows(c, h):
    """Values of each real polynomial row of ``c`` (m, K) at 0, at the
    clipped real parts of all roots of its derivative in ascending order,
    and at h_i: its extreme values over [0, h_i] are among them.  Returns
    (m, L) rows padded with further values at h_i, and the number of
    candidates per row.

    The values are np.polynomial.polyval's, in its operation order; a
    trailing zero coefficient leaves them unchanged, so rows may be padded
    with zeros.
    """
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    roots, count = _root_rows(_polyder(c), h)
    hs = h[:, np.newaxis]
    # the NaN that pads a row's roots sorts last, and fmin makes it h_i
    x = np.fmin(np.sort(np.clip(roots.real, 0.0, hs), axis=1), hs)
    x = np.column_stack([np.zeros_like(h), x, h])
    vals = c[:, -1:] + x * 0
    for k in range(c.shape[1] - 2, -1, -1):
        vals = c[:, k:k + 1] + vals * x
    return vals, count + 2


def _sup_abs_rows(c, h):
    """Exact sup of \\|p(tau)\\| over [0, h_i] for each row p of ``c``
    (m, K); supports complex coefficients."""
    c = np.asarray(c)
    h = np.asarray(h, dtype=float)
    sups = np.zeros(c.shape[0])
    live = np.flatnonzero(np.any(c, axis=1))  # 0.0 is the root path's sup
    if live.size == 0:
        return sups
    if not np.iscomplexobj(c):
        vals, _ = _extreme_rows(c[live], h[live])
        sups[live] = np.max(np.abs(vals), axis=1)
        return sups
    vals, _ = _extreme_rows(_abs_squared(c[live]), h[live])
    sups[live] = np.sqrt(np.max(vals, axis=1))
    return sups


def _abs_squared(c):
    """Coefficients of the real polynomials \\|p\\|^2 for the complex rows
    p of ``c`` (m, K), zero-padded to one length.  np.polynomial.polymul
    multiplies through BLAS, whose summation order an array expression
    would not reproduce, so it runs row by row."""
    sq = [npoly.polymul(p, p.conj()).real for p in c]
    out = np.zeros((len(sq), max(s.size for s in sq)))
    for row, s in zip(out, sq):
        row[:s.size] = s
    return out


def _freeze(tree):
    """Mark the arrays of ``tree``, an array or nested tuples and dict
    values holding arrays, read-only."""
    if isinstance(tree, np.ndarray):
        tree.flags.writeable = False
    elif isinstance(tree, (tuple, dict)):
        for item in tree.values() if isinstance(tree, dict) else tree:
            _freeze(item)


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

    The constructor keeps its own copies of the arrays.  They and the
    derived data cached on the object (the jump table, jump times,
    derivative sups and envelopes) are read-only, so none of it can go
    stale.
    """

    def __init__(self, breakpoints, coeffs, values=None):
        bps = np.array(breakpoints, dtype=float)
        if bps.ndim != 1 or bps.size < 2:
            raise ArgumentError("need at least two breakpoints")
        if not np.all(np.diff(bps) > 0):
            raise ArgumentError("breakpoints must be strictly increasing")
        c = np.array(coeffs)
        if not np.iscomplexobj(c):
            c = c.astype(float, copy=False)
        if c.ndim not in (2, 3) or c.shape[0] != bps.size - 1:
            raise ArgumentError(
                "coeffs must have shape (pieces, K) or (pieces, K, dim)"
            )
        if c.shape[1] > MAX_DEGREE + 1:
            raise ArgumentError(f"polynomial degree is capped at {MAX_DEGREE}")
        if c.shape[1] == 0:
            raise ArgumentError("empty coefficient arrays")
        end = None
        if values is not None:
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
            end = vals[-1:]
        self._set(bps, c, end)

    def _set(self, bps, c, end):
        """Store the arrays read-only; the values are the piece constants
        followed by ``end`` (shape (1[, dim])), by default the last piece's
        value at b."""
        if end is None:
            end = _horner(c[-1:], np.diff(bps[-2:]))
        vals = np.concatenate([c[:, 0], end], axis=0)
        if np.iscomplexobj(c) or np.iscomplexobj(vals):
            c = c.astype(complex, copy=False)
            vals = vals.astype(complex, copy=False)
        _freeze((bps, c, vals))
        self.breakpoints, self.coeffs, self.values = bps, c, vals

    def __setstate__(self, state):
        # copies and unpickled arrays, the cached ones too, come back
        # writeable; a write would leave the copied caches stale
        self.__dict__.update(state)
        _freeze(state)

    @classmethod
    def _trusted(cls, bps, coeffs, end=None):
        """Construct without validation from arrays that already form a
        consistent function, as the library's own operations produce."""
        self = object.__new__(cls)
        self._set(bps, coeffs, end)
        return self

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

    def _piece_at(self, ts):
        """Index of the piece whose span [b_i, b_{i+1}) holds each t; the
        last piece for t = b."""
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.piece_count - 1)

    def values_at(self, ts):
        """Vectorized evaluation at an array of points inside [a, b]."""
        ts = self._check_domain(np.atleast_1d(ts))
        out = self._values_in(self._piece_at(ts), ts)
        out[ts == self.b] = self.values[-1]
        return out

    def _values_in(self, idx, ts):
        """Values of the pieces ``idx`` at the points ``ts``; unlike
        :meth:`values_at`, t = b gets the last piece's value, not the
        stored end value."""
        return _horner(self.coeffs.take(idx, axis=0),
                       ts - self.breakpoints.take(idx))

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
            left = npoly.polyval(t - self.breakpoints[j], self.coeffs[j])
        if t < self.b:
            i = self._piece_at(t)
            right = npoly.polyval(t - self.breakpoints[i], self.coeffs[i])
        return left, right

    def jump_points(self, atol=1e-12):
        """Ascending list of (t, jump) pairs where the jump exceeds atol."""
        jumps = self._jumps
        size = np.max(np.abs(jumps.reshape(self.piece_count, -1)), axis=1)
        return [(float(t), jump) for t, jump, s
                in zip(self.breakpoints[1:], jumps, size) if s > atol]

    @cached_property
    def _jumps(self):
        """The jump table x(b_i) - x(b_i-), i = 1, ..., m, (m[, dim]); for
        a step function its increments, its zero jumps with their signs."""
        jumps = self.values[1:] - _horner(self.coeffs,
                                          np.diff(self.breakpoints))
        jumps.flags.writeable = False
        return jumps

    @cached_property
    def _jump_times(self):
        """Times of the jumps above the function's noise floor.  The floor
        scales with max_i sum_k \\|c_ik\\| h_i^k, which bounds each piece and
        each of its Horner terms."""
        size = _horner(np.abs(self.coeffs), np.diff(self.breakpoints))
        atol = _JUMP_RTOL * max(1.0, float(np.max(size)))
        return tuple(t for t, _ in self.jump_points(atol=atol))

    @cached_property
    def _envelope_cache(self):
        """Derivative envelopes per seminorm tuple, filled by the
        integration driver."""
        return {}

    @cached_property
    def _derivative_sups(self):
        """Per-piece sups of \\|q'\\| and of \\|q''\\| (scalar functions)."""
        widths = np.diff(self.breakpoints)
        first = _polyder(self.coeffs)
        second = np.zeros_like(first)  # zero-padded to first's length
        second[:, :max(first.shape[1] - 1, 1)] = _polyder(first)
        sups = _sup_abs_rows(np.concatenate([first, second]),
                             np.concatenate([widths, widths]))
        sups.flags.writeable = False
        return tuple(sups.reshape(2, -1))

    # -- calculus ----------------------------------------------------------

    def derivative(self):
        """Piecewise derivative of the smooth parts; jump data is dropped."""
        return PiecewiseFunction._trusted(self.breakpoints,
                                          _polyder(self.coeffs))

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
        j = self._piece_at(bps[:-1])
        coeffs = _shift_poly(self.coeffs[j], bps[:-1] - self.breakpoints[j])
        return PiecewiseFunction._trusted(bps, coeffs, end)

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
        return PiecewiseFunction._trusted(bps, cf,
                                          f.values[-1:] + g.values[-1:])

    def __neg__(self):
        return PiecewiseFunction._trusted(self.breakpoints, -self.coeffs,
                                          -self.values[-1:])

    def __sub__(self, other):
        if not isinstance(other, PiecewiseFunction):
            other = PiecewiseFunction.constant(other, self.domain)
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, PiecewiseFunction):
            return NotImplemented
        return PiecewiseFunction._trusted(self.breakpoints,
                                          self.coeffs * scalar,
                                          self.values[-1:] * scalar)

    __rmul__ = __mul__

    def real_part(self):
        return PiecewiseFunction._trusted(self.breakpoints,
                                          self.coeffs.real.copy(),
                                          self.values[-1:].real)

    def imag_part(self):
        return PiecewiseFunction._trusted(self.breakpoints,
                                          self.coeffs.imag.copy(),
                                          self.values[-1:].imag)

    def sup_abs(self):
        """Exact sup of \\|f\\| (scalar) or max-abs over coordinates (vector)."""
        c = self.coeffs.reshape(self.coeffs.shape[:2] + (-1,))
        rows = c.transpose(0, 2, 1).reshape(-1, c.shape[1])  # piece-major
        sups = _sup_abs_rows(rows, np.repeat(np.diff(self.breakpoints),
                                             c.shape[2]))
        end = float(np.max(np.abs(np.atleast_1d(self.values[-1]))))
        return max(max(sups.tolist()), end)

    def range_bounds(self):
        """Exact (min, max) over [a, b]; real scalar functions only."""
        if self.dim is not None or np.iscomplexobj(self.coeffs):
            raise ArgumentError("range_bounds needs a real scalar function")
        vals, count = _extreme_rows(self.coeffs, np.diff(self.breakpoints))
        vals = np.concatenate(
            [vals[np.arange(vals.shape[1]) < count[:, np.newaxis]],
             self.values[-1:]])
        return float(np.min(vals)), float(np.max(vals))


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
    return _interleave(points, 0.5 * (points[:-1] + points[1:]))


def _interleave(a, b, axis=0):
    """a_0, b_0, a_1, b_1, ... along ``axis``, into a new C-ordered array;
    a is as long as b or one longer along that axis."""
    shape = list(a.shape)
    shape[axis] += b.shape[axis]
    out = np.empty(shape, dtype=np.result_type(a, b))
    lead = (slice(None),) * axis
    out[lead + (slice(0, None, 2),)] = a
    out[lead + (slice(1, None, 2),)] = b
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
    return _variations([f])[0]


def _variations(fs):
    """``scalar_variation`` of each scalar function of ``fs``, all real or
    all complex, with coefficient arrays of one width.  The arcs go
    through one batched pass over the pieces of every function, and each
    function sums its own pieces and then its jumps, so each value has the
    bits of a pass over that function alone."""
    widths = [np.diff(f.breakpoints) for f in fs]
    c, h = np.concatenate([f.coeffs for f in fs]), np.concatenate(widths)
    # padded extreme-value candidates add zero steps at the end of a row
    steps = (_path_lengths(c, h) if np.iscomplexobj(c) else np.abs(
        np.diff(_extreme_rows(c, h)[0], axis=1)).sum(axis=1)).tolist()
    starts = np.cumsum([0] + [w.size for w in widths]).tolist()
    return [float(sum(steps[lo:hi])
                  + sum(abs(jump) for _, jump in f.jump_points(atol=0.0)))
            for lo, hi, f in zip(starts, starts[1:], fs)]


_SEGMENT_BLOCK = 8192  # segments per _path_lengths pass: 8 MB at 64 nodes


@cache
def _gauss_legendre():
    """The 64-node Gauss-Legendre rule on [-1, 1], read-only.  It is
    computed once, on first use rather than at import: one computation
    costs more than most of the path lengths that use it."""
    rule = np.polynomial.legendre.leggauss(64)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _path_lengths(c, h):
    """Lengths (m,) of the complex polynomial paths p_i: [0, h_i] -> C of
    the rows of ``c`` (m, K): \\|p_i'\\| integrated by Gauss-Legendre
    between the zeros of \\|p_i'\\|^2, where it can have kinks.  One
    polyval pass evaluates the segments of all rows, a block at a time,
    and each row sums its segments in sequence from 0.0."""
    der = _polyder(c)
    nodes, wts = _gauss_legendre()
    edges = [np.concatenate([[0.0], splits, [hi]]) for splits, hi in
             zip(_split_rows(_abs_squared(der), h), h.tolist())]
    row = np.repeat(np.arange(len(edges)), [e.size - 1 for e in edges])
    lo = np.concatenate([e[:-1] for e in edges])
    half = 0.5 * (np.concatenate([e[1:] for e in edges]) - lo)
    seg = np.empty(lo.size)
    for s in range(0, lo.size, _SEGMENT_BLOCK):
        part = slice(s, s + _SEGMENT_BLOCK)
        taus = lo[part, np.newaxis] + half[part, np.newaxis] * (nodes + 1.0)
        vals = npoly.polyval(taus, der[row[part]].T[..., np.newaxis],
                             tensor=False)
        seg[part] = half[part] * np.sum(wts * np.abs(vals), axis=1)
    return np.bincount(row, seg)  # adds in index order: in sequence per row


def dual_compose(x, dual):
    """Scalar function t -> <dual, x(t)> for a vector-valued x."""
    if x.dim is None:
        raise ArgumentError("dual_compose expects a vector-valued function")
    dual = np.asarray(dual)
    if dual.shape != (x.dim,):
        raise ArgumentError("dual dimension mismatch")
    coeffs = np.tensordot(x.coeffs, dual.conj(), axes=([2], [0]))
    values = x.values @ dual.conj()
    return PiecewiseFunction._trusted(x.breakpoints, coeffs, values[-1:])


def definite_integral(f):
    """Exact Riemann integral of f over its domain (jumps are null sets)."""
    anti = npoly.polyint(f.coeffs, axis=1)
    return sum(_horner(anti, np.diff(f.breakpoints)), 0.0)


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
    fc, kf = ff.coeffs, ff.coeffs.shape[1]
    gc = gg.coeffs.reshape(gg.coeffs.shape + (1,) * (fc.ndim - 2))
    prod = np.zeros((fc.shape[0], kf + gc.shape[1] - 1) + fc.shape[2:],
                    dtype=np.result_type(fc, gc))
    for k in range(gc.shape[1]):
        prod[:, k:k + kf] += fc * gc[:, k:k + 1]
    return sum(_horner(npoly.polyint(prod, axis=1), np.diff(bps)), 0.0)


def _natural_spline(x, y):
    """Ascending coefficients (m, 4) of the natural cubic spline through
    the knots ``x`` (m+1,) with values ``y``.

    The knot slopes solve the tridiagonal system that scipy's
    ``CubicSpline(x, y, bc_type="natural")`` builds, in LAPACK ``dgtsv``'s
    elimination and back-substitution order, followed by the same Hermite
    coefficients, so the result is bit for bit scipy's whenever ``dgtsv``
    swaps no rows: whenever each diagonal entry stays at least the one
    below it, as for knots whose neighbouring spacings differ by less than
    a factor 2.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]),
                        2 * dx[-1:]]).tolist()
    upper = np.concatenate([dx[:1], dx[:-1]]).tolist()
    lower = np.concatenate([dx[1:], dx[-1:]]).tolist()
    s = np.concatenate([3 * np.diff(y[:2]),
                        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                        3 * np.diff(y[-2:])]).tolist()
    n = len(s)
    for i in range(n - 1):
        fact = lower[i] / d[i]
        d[i + 1] -= fact * upper[i]
        s[i + 1] -= fact * s[i]
    s[-1] /= d[-1]
    # dgtsv also subtracts its zeroed second superdiagonal times
    # s[i + 2]; that term can turn a -0.0 into +0.0, so it stays, with a
    # +0.0 standing in for s[n] in row n - 2
    s.append(0.0)
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1] - 0.0 * s[i + 2]) / d[i]
    s = np.array(s[:-1])
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx],
                    axis=1)


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
        return PiecewiseFunction(knots, _natural_spline(knots, vals))

    f = one()
    if complex_field:
        f = f + 1j * one()
    s = f.sup_abs()
    return f * (sup_bound / s) if s > 0 else f
