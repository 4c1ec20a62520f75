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
the piece indices and the envelope products d1f d2m + d2f d1m / 2 that
bound a cell's error are looked up once per base cell, a cell of that
lookup.  After L bisections each base cell has 2^L contiguous children in
the same pieces, so every per-cell quantity is a broadcast over a
(rows, base cells, 2^L) view and nothing per cell is gathered or
repeated; each element still sees the operations of a per-cell lookup, in
the same order.  Each level's midpoints are its tags and the next level's
new points: the integrator is evaluated only there and its earlier values
are kept, and since every jump time is an initial point a left child
never ends at a jump.  Tags at jump ends, which are right endpoints, go
through ``values_at`` for its right-hand-piece and t = b conventions; the
cells that end at a jump are held as indices.  A cell only a few ulps
wide can have its midpoint on an end; the driver then looks the next
partition up afresh, which gives the same bits as a from-scratch level,
and its cells become the new base cells.

Every drive, and every plain tagged sum, runs on one layout of
(rows, cells) arrays.  A scalar factor is one row, k scalar functions on
one grid are a stack of k rows, and a vector factor is one row per
coordinate, and its envelope products and estimates one row per
seminorm.  A drive runs a stack of integrands against a stack of
integrators: one function against one, or g scalar integrands on one
grid (the sampled functions of a roundtrip) against k scalar integrators
on one grid (the compositions of one integrator with k duals).  Each
level computes the partition, the piece lookups, the integrators' values
and differences and, in one Horner pass, the integrands' values once for
all pairs; the products and estimates are one (rows, cells) block per
integrand, so no array outgrows one integrand's.  Each pair's result is
made with the stacks and kept current, a trace record a level, until the
pair stops; an integrand or integrator leaves its stack once all its
pairs have passed their test.  ``_row_sums`` sums a row along its cells
in numpy's order for an (n, r) array along axis 0: in sequence from +0.0
for the r >= 2 rows of a vector, pairwise for r = 1 and for scalar rows,
which so have the bits of a sum over their own cells alone.  The order is
pinned: summed pairwise, vector integrals, their estimates and the CLI
output that ``perfbench/reference`` holds would move.
"""

import functools
import itertools
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
    """Functions on one breakpoint grid as a stack of rows, the integrands
    or the integrators of a drive: k scalar functions, one row each, or
    one vector function, one row per coordinate; ``len`` counts the
    functions.  Values come out as C-ordered (rows, points) arrays, each
    row with the bits of :meth:`PiecewiseFunction._values_in` on its
    function or coordinate."""

    def __init__(self, mus):
        self.mus = tuple(mus)
        first = self.mus[0]
        for mu in self.mus[1:]:
            if not (first.dim is None
                    and np.array_equal(mu.breakpoints, first.breakpoints)
                    and mu.coeffs.shape == first.coeffs.shape
                    and mu.coeffs.dtype == first.coeffs.dtype):
                raise ArgumentError("stacked functions must be scalar, "
                                    "on one grid and coefficient layout")
        self.breakpoints, self.b = first.breakpoints, first.b
        self.dim, self.piece_count = first.dim, first.piece_count
        # (coefficients, rows, pieces, 1): one gather serves every plane,
        # and the trailing axis broadcasts a piece's plane over its block
        self._planes = np.concatenate(
            [mu.coeffs.reshape(mu.coeffs.shape[:2] + (-1,)).transpose(1, 2, 0)
             for mu in self.mus], axis=1)[..., np.newaxis]
        self._ends = np.concatenate(
            [mu.values[-1:].reshape(-1) for mu in self.mus])[:, np.newaxis]

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
        """Values at ``ts`` read as ``len(idx)`` equal blocks, block k inside
        piece ``idx[k]``, (rows, points).  One Horner pass broadcasts each
        gathered coefficient over its block, so an element sees the
        operations of a per-point gather: ``((c_K tau) + c_K-1) tau + ...``;
        per-point evaluation is blocks of one."""
        n0 = len(idx)
        m = len(ts) // n0 if n0 else 0
        tau = ts.reshape(n0, m) - self.breakpoints.take(idx)[:, np.newaxis]
        planes = self._planes.take(idx, axis=2)
        # a new array even for one plane: callers write into the values
        out = planes[-1].repeat(m, axis=2)
        for plane in planes[-2::-1]:
            out *= tau
            out += plane
        return out.reshape(len(out), -1)


def _row_sums(a, n):
    """Sums of the rows of ``a`` along its cells in the module's order:
    in sequence for the n >= 2 coordinates or seminorms of a vector,
    pairwise for n of None or 1.  May overwrite ``a``."""
    if (n or 1) == 1:
        return a.sum(axis=1)
    # accumulate starts from cell 0, not +0.0; + 0.0 turns its -0.0 to +0.0
    return np.add.accumulate(a, axis=1, out=a)[:, -1] + 0.0


def _tagged_sums(fv, dmu, dim, spare):
    """Row sums sum_i fv_ri dmu_ri of (rows, cells) stacks, one row of
    either factor serving every row of the other, in the module's order
    for a vector factor of dimension ``dim``.  The products overwrite the
    first of the ``spare`` arrays, which the caller is done with, that has
    their shape and dtype; not one element, whose complex product in place
    can differ in the last bit."""
    shape, dtype = (max(len(fv), len(dmu)), fv.shape[1]), \
        np.result_type(fv, dmu)
    out = next((a for a in spare if a.dtype == dtype and a.shape == shape
                and a.size > 1), None)
    return _row_sums(np.multiply(fv, dmu, out=out), dim)


def _cells(f, mu, points, jump_ts, envs):
    """Per-cell piece indices of the integrands ``f`` and of mu, mu at the
    points, the cells that end at a jump of each row's integrator
    (``jump_ts`` holds one array of jump times per row) as a (rows, cells)
    index into the per-cell arrays, and the envelope products d1f d2m +
    d2f d1m / 2 that bound the error of a cell not ending at a jump, one
    (rows, cells) block per integrand, looked up from scratch; its cells
    are the base cells of the bisections that follow."""
    lefts = points[:-1]
    i, j = f._piece_at(lefts), mu._piece_at(lefts)
    ends = [np.flatnonzero(np.isin(points[1:], ts)) for ts in jump_ts]
    at_jumps = (np.repeat(np.arange(len(ends)), [e.size for e in ends]),
                np.concatenate(ends))
    D1f, D2f, D1m, D2m = envs
    smooth = D1f.take(i, axis=-1) * D2m.take(j, axis=1) \
        + 0.5 * D2f.take(i, axis=-1) * D1m.take(j, axis=1)
    return i, j, mu.values_at(points), at_jumps, smooth


def _bisected_cells(mu, cells, mids):
    """The cells after bisection at midpoints strictly inside each cell.
    The piece indices and envelope products stay those of the base cells,
    each of which now has twice as many contiguous children; mu is
    evaluated only at the midpoints, and only right children, 2e + 1 for
    a jump end e, can end at a jump."""
    i, j, mu_vals, (rows, ends), smooth = cells
    return (i, j, _interleave(mu_vals, mu._values_in(j, mids), axis=1),
            (rows, 2 * ends + 1), smooth)


def _kept_columns(cells, keep_f, keep_mu):
    """The cells of the stacks without the integrands that ``keep_f`` and
    the integrators that ``keep_mu`` drop."""
    i, j, mu_vals, (rows, ends), smooth = cells
    kept = keep_mu.take(rows)
    renumber = np.cumsum(keep_mu) - 1
    return (i, j, mu_vals[keep_mu], (renumber.take(rows[kept]), ends[kept]),
            smooth[keep_f][:, keep_mu])


def _level_sums(f, mu, rights, h, mids, inside, cells, envs, dim):
    """One level's tagged sums and error estimates for every pair of the
    stacks ``f`` and ``mu``, one (sums, estimates) per integrand: a sum
    per row of ``mu`` (or of a vector integrand) and an estimate per row
    of its envelope products, for cells with right ends ``rights``, widths
    ``h`` and midpoints ``mids``; ``inside`` says that every midpoint lies
    strictly inside its cell.  The cells are m = cells / base cells
    contiguous children of each base cell, so per-cell arrays are (rows,
    base cells, m) broadcasts of the base cells' piece indices and
    envelope products, and cell e lies in base cell e // m.  The
    integrators' differences and every integrand's tags are computed once;
    products and estimates are one (rows, cells) block per integrand."""
    i, j, mu_vals, (rows, ends), smooth = cells
    m = len(h) // len(i)
    fv = f._values_in(i, mids) if inside else f.values_at(mids)
    fv = fv.reshape(len(f), -1, fv.shape[1])
    # np.diff's own subtraction, without its per-call set-up
    dmu = mu_vals[:, 1:] - mu_vals[:, :-1]
    h3 = (h ** 3 / 12.0).reshape(len(i), m)
    if ends.size:
        D1f, _, D1m, _ = envs
        base = ends // m
        rows = rows if len(mu) > 1 else slice(None)
        f_ends = f.values_at(rights.take(ends)).reshape(len(f), -1, ends.size)
        i_ends, d1m, h2 = i.take(base), D1m[rows, j.take(base)], \
            h.take(ends) ** 2
    out = []
    for g, block in enumerate(smooth):
        est = (block[:, :, np.newaxis] * h3).reshape(len(block), -1)
        if ends.size:
            est[rows, ends] = D1f[g].take(i_ends, axis=1) * d1m * h2
        ests = _row_sums(est, len(est) if dim else None)
        fg = fv[g]
        if ends.size:
            if len(mu) > 1:
                fg = np.repeat(fg, len(mu), axis=0)
            fg[rows, ends] = f_ends[g]
        # the differences serve every integrand but the last
        spare = (dmu, fg) if g == len(smooth) - 1 else (est, fg)
        out.append((_tagged_sums(fg, dmu, dim, spare), ests))
        # freed before the next integrand's arrays are made
        del est, fg, spare
    return out


def _refine(f, mu, jump_ts, seminorms, tol, max_levels):
    """The refinement loop of every drive: each integrand of the
    :class:`_Columns` stack ``f`` against each integrator of the stack
    ``mu``, on one partition.  A pair stops at its own level; an integrand
    or integrator leaves its stack once all its pairs have stopped.
    Returns one IntegralResult per pair, ``results[g][k]``, each made when
    the stacks are and kept current until its pair stops."""
    points = np.unique(np.concatenate(
        [f.breakpoints, mu.breakpoints,
         np.linspace(f.breakpoints[0], f.b, _INITIAL_UNIFORM_CELLS + 1)]))
    # an integrand's envelope rows are one block, (integrands, rows, pieces)
    envs = tuple(e.reshape(len(f), -1, e.shape[1])
                 for e in f.envelopes(seminorms)) + mu.envelopes(seminorms)
    dim = f.dim or mu.dim
    # scalar envelopes bound the modulus of each scalar error e, and
    # p(e) = |e| p(1); a vector factor's envelopes already carry p
    scale = 1.0 if dim else np.array([p(np.ones(1)) for p in seminorms])
    cells = _cells(f, mu, points, jump_ts, envs)
    f_ids, mu_ids = list(range(len(f))), list(range(len(mu)))
    live = np.ones((len(f), len(mu)), dtype=bool)
    results = [[IntegralResult(None, None, 0, False) for _ in mu_ids]
               for _ in f_ids]
    prev = None
    for level in range(max_levels):
        lefts, rights = points[:-1], points[1:]
        h = rights - lefts
        mids = 0.5 * (lefts + rights)
        inside = bool((lefts < mids).all() and (mids < rights).all())
        sums, ests = zip(*_level_sums(f, mu, rights, h, mids, inside, cells,
                                      envs, dim))
        # (integrands, integrators, value) and (..., seminorms)
        values = np.concatenate(sums).reshape(live.shape + (-1,))
        ests = np.concatenate(ests).reshape(live.shape + (-1,)) * scale
        mesh = float(h.max())
        rows, cols = live.nonzero()
        stop = np.zeros(rows.size, dtype=bool)
        if prev is not None:
            steps = (values - prev)[rows, cols]
            diffs = np.stack([p.eval_many(steps) for p in seminorms], axis=1)
            stop = (ests[rows, cols] < tol).all(axis=1) \
                & (diffs < tol).all(axis=1)
        for g, k, done in zip(rows.tolist(), cols.tolist(), stop.tolist()):
            res = results[f_ids[g]][mu_ids[k]]
            value = values[g, k] if dim else values[g, k, 0]
            res.trace.append(LevelRecord(level, mesh, value, ests[g, k]))
            res.value = value if dim else value.item()
            res.error_estimates, res.levels, res.converged = \
                ests[g, k], level + 1, done
        if level == max_levels - 1 or stop.all():
            break
        if stop.any():
            live[rows[stop], cols[stop]] = False
            keep_f, keep_mu = live.any(axis=1), live.any(axis=0)
            # a row of either stack leaves once all its pairs have stopped
            if not (keep_f.all() and keep_mu.all()):
                f_ids = [c for c, k in zip(f_ids, keep_f) if k]
                mu_ids = [c for c, k in zip(mu_ids, keep_mu) if k]
                jump_ts = [ts for ts, k in zip(jump_ts, keep_mu) if k]
                f, mu = f.take(keep_f), mu.take(keep_mu)
                envs = tuple(e[keep_f] for e in envs[:2]) \
                    + mu.envelopes(seminorms)
                cells = _kept_columns(cells, keep_f, keep_mu)
                values = values[keep_f][:, keep_mu]
                live = live[keep_f][:, keep_mu]
        prev = values
        points = _interleave(points, mids)
        cells = (_bisected_cells(mu, cells, mids) if inside
                 else _cells(f, mu, points, jump_ts, envs))
    return results


def _checked(fs, mus, seminorms, tol, max_levels):
    """Validate drives of each of ``fs`` against each of ``mus``; return the
    jump times of each of ``mus`` and the seminorm tuple."""
    for f, mu in itertools.product(fs, mus):
        _ensure_compatible(f, mu)
        _require_existence(f, mu)
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    if max_levels < 2:
        raise ArgumentError("need at least two refinement levels")
    dim = fs[0].dim or mus[0].dim
    seminorms = tuple(seminorms) if seminorms is not None \
        else _max_abs(dim or 1)
    for p in seminorms:
        if p.dimension != (dim or 1):
            raise ArgumentError("seminorm dimension does not match the "
                                "vector-valued factor")
    return [np.array(mu._jump_times) for mu in mus], seminorms


def _drive(f, mu, seminorms, tol, max_levels):
    jump_ts, seminorms = _checked((f,), (mu,), seminorms, tol, max_levels)
    return _refine(_Columns((f,)), _Columns((mu,)), jump_ts, seminorms, tol,
                   max_levels)[0][0]


def _drive_columns(fs, mus, tol, max_levels=20):
    """Drives of each scalar integrand of ``fs`` against each scalar
    integrator of ``mus`` under the max-abs seminorm, in one refinement
    loop: the integrands share one breakpoint grid, and so do the
    integrators.  ``results[g][k]`` has the bits of
    ``integrate_g_dx(fs[g], mus[k], tol=tol, max_levels=max_levels)``."""
    if any(func.dim is not None for func in (*fs, *mus)):
        raise ArgumentError("stacked drives take scalar factors")
    if not (fs and mus):
        return [[] for _ in fs]
    jump_ts, seminorms = _checked(fs, mus, None, tol, max_levels)
    return _refine(_Columns(fs), _Columns(mus), jump_ts, seminorms, tol,
                   max_levels)


def _scalar(g):
    """``g``, refused unless it is scalar-valued."""
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    return g


def _plain_sum(f, mu, partition):
    _ensure_compatible(f, mu)
    pts = partition.points
    if pts[0] != f.a or pts[-1] != f.b:
        raise ArgumentError("partition does not cover the common domain")
    dim = f.dim or mu.dim
    fv = _Columns((f,)).values_at(partition.tags)
    dmu = np.diff(_Columns((mu,)).values_at(pts), axis=1)
    out = _tagged_sums(fv, dmu, dim, (dmu, fv))
    return out if dim else out.item()


def rs_sum_S(x, g, partition):
    """Tagged sum sum_i x(s_i)[g(t_i) - g(t_{i-1})] for scalar g."""
    return _plain_sum(x, _scalar(g), partition)


def rs_sum_s(g, x, partition):
    """Tagged sum sum_i g(s_i)[x(t_i) - x(t_{i-1})] for scalar g."""
    return _plain_sum(_scalar(g), x, partition)


def integrate_g_dx(g, x, seminorms=None, tol=1e-8, max_levels=20):
    """Mesh limit of the sums sum g(s_i) [x(t_i) - x(t_{i-1})].

    Raises :class:`ExistenceError` when g and x jump at a common point.
    The result carries certified per-seminorm error estimates
    (``seminorms`` defaults to max-abs on the coordinates) and the level
    trace; ``converged`` means every estimate and the last two levels'
    difference dropped below ``tol``.
    """
    return _drive(_scalar(g), x, seminorms, tol, max_levels)


def integrate_x_dg(x, g, seminorms=None, tol=1e-8, max_levels=20):
    """Mesh limit of the sums sum x(s_i) [g(t_i) - g(t_{i-1})]."""
    return _drive(x, _scalar(g), seminorms, tol, max_levels)


def per_partes(x, g, seminorms=None, tol=1e-8, max_levels=20):
    """Both Stieltjes integrals linked by integration by parts.

    Computes integral(x dg) and integral(g dx) independently and reports
    the per-seminorm defect of

        integral(x dg) + integral(g dx) = x(b)g(b) - x(a)g(a).

    Pairs with a common jump are refused with the offending points named.
    """
    _, seminorms = _checked((x,), (_scalar(g),), seminorms, tol, max_levels)
    lhs = _drive(x, g, seminorms, tol, max_levels)
    rhs = _drive(g, x, seminorms, tol, max_levels)
    boundary = x(x.b) * g(g.b) - x(x.a) * g(g.a)
    gaps = np.array([p(lhs.value + rhs.value - boundary) for p in seminorms])
    return PerPartesResult(x_dg=lhs, g_dx=rhs, boundary=boundary, gaps=gaps)


def exact_step_integral(g, x):
    """Closed form of integral(g dx) for a pure step integrator x.

    The value is sum_j g(tau_j) J_j over the jumps (tau_j, J_j) of x; g
    must be continuous at every jump point.  Serves as an independent
    oracle for the refinement driver.
    """
    _ensure_compatible(_scalar(g), x)
    if not x.is_step:
        raise ArgumentError("x must be a pure step function")
    _require_existence(g, x)
    jumps = x.jump_points(atol=0.0)
    zero = x.values[-1] * 0
    if np.iscomplexobj(g.values):
        zero = zero * (1 + 0j)
    total = zero
    for t, jump in jumps:
        total = total + g(t) * jump
    if x.dim is None:
        return complex(total) if np.iscomplexobj(total) else float(total)
    return total
