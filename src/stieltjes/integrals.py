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
bits as a from-scratch level.  Each cell keeps its envelope product
d1f d2m + d2f d1m / 2 through bisection, and the cells that end at a jump
are held as indices.

Every drive, and every plain tagged sum, runs on one layout of
(rows, cells) arrays.  A scalar factor is one row, k scalar integrators on
one grid (such as the compositions of one integrator with k duals) are k
rows, and a vector factor is one row per coordinate, and its envelope
products and estimates one row per seminorm.  The rows share the
partition, the piece lookups and f's values; each integrator keeps its
own values, envelopes, jump-end cells and stop level, and leaves the
stack once it passes its test.  ``_row_sums`` sums a row along its cells
in numpy's order for an (n, r) array along axis 0: in sequence from +0.0
for the r >= 2 rows of a vector, pairwise for r = 1 and for scalar rows,
which so have the bits of a sum over their own cells alone.  The order is
pinned: summed pairwise, vector integrals, their estimates and the CLI
output that ``perfbench/reference`` holds would move.
"""

import functools
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
        raise ArgumentError(f"domains differ: {f.domain} vs {mu.domain}")
    if f.dim is not None and mu.dim is not None:
        raise ArgumentError("at most one factor may be vector-valued")


def _require_existence(f, mu):
    """Refuse a pair with a common jump; return the jump times of mu."""
    tm = mu._jump_times
    common = sorted(set(f._jump_times).intersection(tm))
    if common:
        pts = ", ".join(f"{t:.12g}" for t in common)
        raise ExistenceError(f"both functions jump at t = {pts}; the "
                             "Stieltjes integral does not exist")
    return np.array(tm)


@functools.cache
def _max_abs(dim):
    # one tuple per dimension, so that the envelope cache keyed by it hits
    return (Seminorm.weighted_sup(np.ones(dim)),)


def _sem_values(seminorms, v):
    return np.array([p(v) for p in seminorms])


def _envelopes(func, seminorms):
    """Per-piece sups of first and second derivative size, (rows, pieces).

    Scalar pieces use the exact polynomial sup of \\|q'\\| and \\|q''\\|,
    one row that serves every seminorm; vector pieces use the
    triangle-inequality envelope sum_k p(c_k) h^k, which upper-bounds
    sup p over the piece, one row per seminorm.  The read-only result is
    cached on ``func`` per seminorm tuple; seminorms hash by identity, and
    the key keeps them alive, so no id is reused.
    """
    key = tuple(seminorms)
    envs = func._envelope_cache.get(key)
    if envs is not None:
        return envs
    if func.dim is None:
        envs = tuple(sups[np.newaxis] for sups in func._derivative_sups)
    else:
        widths = np.diff(func.breakpoints)
        first = _polyder(func.coeffs)
        envs = tuple(np.array([[p.eval_many(c) @ h ** np.arange(c.shape[0])
                                for c, h in zip(der, widths)]
                               for p in key])
                     for der in (first, _polyder(first)))
    for env in envs:
        env.flags.writeable = False
    func._envelope_cache[key] = envs
    return envs


class _Columns:
    """Integrators on one breakpoint grid as a stack of rows: k scalar
    integrators, one row each, or one vector integrator, one row per
    coordinate; ``len`` counts the integrators.  Values come out as
    C-ordered (rows, points) arrays, each row with the bits of
    :meth:`PiecewiseFunction._values_in` on its integrator or coordinate."""

    def __init__(self, mus):
        self.mus = tuple(mus)
        first = self.mus[0]
        for mu in self.mus[1:]:
            if not (first.dim is None
                    and np.array_equal(mu.breakpoints, first.breakpoints)
                    and mu.coeffs.shape == first.coeffs.shape
                    and mu.coeffs.dtype == first.coeffs.dtype):
                raise ArgumentError("stacked integrators must be scalar, "
                                    "on one grid and coefficient layout")
        self.breakpoints, self.b = first.breakpoints, first.b
        self.dim, self.piece_count = first.dim, first.piece_count
        single = len(self.mus) == 1  # a stack of one holds views
        coeffs = first.coeffs.reshape(first.coeffs.shape[:2] + (-1,)) \
            if single else np.stack([mu.coeffs for mu in self.mus], axis=2)
        ends = first.values[-1:].reshape(-1) if single \
            else np.array([mu.values[-1] for mu in self.mus])
        # one (rows, pieces) plane per coefficient
        self._planes = list(coeffs.transpose(1, 2, 0))
        self._ends = ends[:, np.newaxis]

    _piece_at = PiecewiseFunction._piece_at

    def __len__(self):
        return len(self.mus)

    def take(self, keep):
        return _Columns(mu for mu, k in zip(self.mus, keep) if k)

    def envelopes(self, seminorms):
        """The integrators' envelope rows, (rows, pieces): one per scalar
        integrator, or one per seminorm for a vector one."""
        return tuple(np.concatenate(e) for e in
                     zip(*(_envelopes(mu, seminorms) for mu in self.mus)))

    def values_at(self, ts):
        """Values at points of the domain; t = b gets each end value."""
        out = self._values_in(self._piece_at(ts), ts)
        out[:, ts == self.b] = self._ends
        return out

    def _values_in(self, idx, ts):
        tau = ts - self.breakpoints.take(idx)
        out = self._planes[-1].take(idx, axis=1)
        for plane in self._planes[-2::-1]:
            out *= tau
            out += plane.take(idx, axis=1)
        return out


def _row_sums(a, n):
    """Sums of the rows of ``a`` along its cells in the module's order:
    in sequence for the n >= 2 coordinates or seminorms of a vector,
    pairwise for n of None or 1.  May overwrite ``a``."""
    if (n or 1) == 1:
        return a.sum(axis=1)
    # accumulate starts from cell 0, not +0.0; + 0.0 turns its -0.0 to +0.0
    return np.add.accumulate(a, axis=1, out=a)[:, -1] + 0.0


def _tagged_sums(fv, dmu, dim):
    """Row sums sum_i fv_ri dmu_ri of (rows, cells) stacks, one row of
    either factor serving every row of the other, in the module's order
    for a vector factor of dimension ``dim``.  The products overwrite a
    factor of their shape and dtype, which the caller is done with; not
    one element, whose complex product in place can differ in the last bit."""
    dtype = np.result_type(fv, dmu)
    out = next((a for a in (dmu, fv) if a.dtype == dtype and a.size > 1
                and len(a) == max(len(fv), len(dmu))), None)
    return _row_sums(np.multiply(fv, dmu, out=out), dim)


def _cells(f, mu, points, jump_ts, envs):
    """Per-cell piece indices of f and mu, mu at the points, the cells that
    end at a jump of each row's integrator (``jump_ts`` holds one array
    of jump times per row) as a (rows, cells) index into the per-cell
    arrays, and the envelope products d1f d2m + d2f d1m / 2 that bound
    the error of a cell not ending at a jump, looked up from scratch."""
    lefts = points[:-1]
    i, j = f._piece_at(lefts), mu._piece_at(lefts)
    ends = [np.flatnonzero(np.isin(points[1:], ts)) for ts in jump_ts]
    at_jumps = (np.repeat(np.arange(len(ends)), [e.size for e in ends]),
                np.concatenate(ends))
    D1f, D2f, D1m, D2m = envs
    smooth = D1f.take(i, axis=1) * D2m.take(j, axis=1) \
        + 0.5 * D2f.take(i, axis=1) * D1m.take(j, axis=1)
    return i, j, mu.values_at(points), at_jumps, smooth


def _bisected_cells(mu, cells, mids):
    """The cells after bisection at midpoints strictly inside each cell:
    both children inherit the piece indices and envelope products, mu is
    evaluated only at the midpoints, and only right children can end at a
    jump."""
    i, j, mu_vals, (rows, ends), smooth = cells
    return (np.repeat(i, 2), np.repeat(j, 2),
            _interleave(mu_vals, mu._values_in(j, mids), axis=1),
            (rows, 2 * ends + 1), np.repeat(smooth, 2, axis=1))


def _kept_columns(cells, keep):
    """The cells of a stack without the rows that ``keep`` drops."""
    i, j, mu_vals, (rows, ends), smooth = cells
    kept = keep.take(rows)
    renumber = np.cumsum(keep) - 1
    return (i, j, mu_vals[keep], (renumber.take(rows[kept]), ends[kept]),
            smooth[keep])


def _level_sum(f, mu, rights, h, mids, inside, cells, envs, dim):
    """One level's tagged sums, one per row of the stacks ``f`` and ``mu``,
    and error estimates, one per row of the envelope products, for cells
    with right ends ``rights``, widths ``h`` and midpoints ``mids``;
    ``inside`` says that every midpoint lies strictly inside its cell."""
    i, j, mu_vals, (rows, ends), smooth = cells
    # other tags go through f.values_at, (points[, d]), which perfbench counts
    fv = f._values_in(i, mids) if inside \
        else np.atleast_2d(f.mus[0].values_at(mids).T)
    est = smooth * (h ** 3 / 12.0)
    if ends.size:
        D1f, _, D1m, _ = envs
        rows, fv = (rows, np.repeat(fv, len(mu), axis=0)) if len(mu) > 1 \
            else (slice(None), fv)
        fv[rows, ends] = f.mus[0].values_at(rights.take(ends)).T
        est[rows, ends] = D1f.take(i.take(ends), axis=1) \
            * D1m[rows, j.take(ends)] * h.take(ends) ** 2
    return (_tagged_sums(fv, np.diff(mu_vals, axis=1), dim),
            _row_sums(est, len(est) if dim else None))


def _refine(f, mu, jump_ts, seminorms, tol, max_levels):
    """The refinement loop of every drive, against the :class:`_Columns`
    stack ``mu``.  A row stops at its own level and leaves the stack;
    returns one IntegralResult per row."""
    a, b = f.domain
    points = np.unique(np.concatenate(
        [f.breakpoints, mu.breakpoints,
         np.linspace(a, b, _INITIAL_UNIFORM_CELLS + 1)]))
    envs = _envelopes(f, seminorms) + mu.envelopes(seminorms)
    dim = f.dim or mu.dim
    # scalar envelopes bound the modulus of each scalar error e, and
    # p(e) = |e| p(1); a vector factor's envelopes already carry p
    scale = 1.0 if dim else np.array([p(np.ones(1)) for p in seminorms])
    f_rows = _Columns((f,))
    cells = _cells(f, mu, points, jump_ts, envs)
    active = list(range(len(jump_ts)))
    traces = [[] for _ in active]
    results = [None] * len(active)
    prev = None
    for level in range(max_levels):
        lefts, rights = points[:-1], points[1:]
        h = rights - lefts
        mids = 0.5 * (lefts + rights)
        inside = bool(np.all(lefts < mids) and np.all(mids < rights))
        sums, ests = _level_sum(f_rows, mu, rights, h, mids, inside, cells,
                                envs, dim)
        values = sums.reshape(1, -1) if dim else sums
        ests = ests.reshape(len(active), -1) * scale
        mesh = float(np.max(h))
        for r, c in enumerate(active):
            traces[c].append(LevelRecord(level, mesh, values[r], ests[r]))
        stop = np.zeros(len(active), dtype=bool)
        if prev is not None:
            steps = (values - prev).reshape(len(active), -1)
            diffs = np.stack([p.eval_many(steps) for p in seminorms], axis=1)
            stop = np.all(ests < tol, axis=1) & np.all(diffs < tol, axis=1)
        last = level == max_levels - 1
        for r in range(len(active)) if last else np.flatnonzero(stop):
            c, value = active[r], values[r]
            results[c] = IntegralResult(
                value=value if dim else value.item(),
                error_estimates=ests[r], levels=level + 1,
                converged=bool(stop[r]), trace=traces[c])
        if last or stop.all():
            break
        if stop.any():
            keep = ~stop
            active = [c for c, k in zip(active, keep) if k]
            jump_ts = [ts for ts, k in zip(jump_ts, keep) if k]
            mu = mu.take(keep)
            envs = envs[:2] + mu.envelopes(seminorms)
            cells = _kept_columns(cells, keep)
            values = values[keep]
        prev = values
        points = _interleave(points, mids)
        cells = (_bisected_cells(mu, cells, mids) if inside
                 else _cells(f, mu, points, jump_ts, envs))
    return results


def _checked(f, mus, seminorms, tol, max_levels):
    """Validate drives of f against each of ``mus``; return the jump times
    of each and the seminorm tuple."""
    jump_ts = []
    for mu in mus:
        _ensure_compatible(f, mu)
        jump_ts.append(_require_existence(f, mu))
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    if max_levels < 2:
        raise ArgumentError("need at least two refinement levels")
    dim = f.dim or mus[0].dim
    seminorms = tuple(seminorms) if seminorms is not None \
        else _max_abs(dim or 1)
    for p in seminorms:
        if p.dimension != (dim or 1):
            raise ArgumentError("seminorm dimension does not match the "
                                "vector-valued factor")
    return jump_ts, seminorms


def _drive(f, mu, seminorms, tol, max_levels):
    jump_ts, seminorms = _checked(f, (mu,), seminorms, tol, max_levels)
    return _refine(f, _Columns((mu,)), jump_ts, seminorms, tol,
                   max_levels)[0]


def _drive_columns(f, mus, tol, max_levels=20):
    """Drives of the scalar f against each scalar integrator of ``mus``
    under the max-abs seminorm, in one refinement loop over the
    breakpoints the integrators share.  Result c has the bits of
    ``integrate_g_dx(f, mus[c], tol=tol, max_levels=max_levels)``."""
    if f.dim is not None or any(mu.dim is not None for mu in mus):
        raise ArgumentError("stacked drives take scalar factors")
    if not mus:
        return []
    jump_ts, seminorms = _checked(f, mus, None, tol, max_levels)
    return _refine(f, _Columns(mus), jump_ts, seminorms, tol, max_levels)


def _plain_sum(f, mu, partition):
    _ensure_compatible(f, mu)
    pts = partition.points
    if pts[0] != f.a or pts[-1] != f.b:
        raise ArgumentError("partition does not cover the common domain")
    dim = f.dim or mu.dim
    out = _tagged_sums(_Columns((f,)).values_at(partition.tags),
                       np.diff(_Columns((mu,)).values_at(pts), axis=1), dim)
    return out if dim else out.item()


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
        else _max_abs(x.dim or g.dim or 1)
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
