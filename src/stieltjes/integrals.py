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
seminorm.  ``_drive`` is the one entry of every drive, and runs a stack
of integrands against a stack of integrators: one function against one,
g scalar integrands on one grid (the sampled functions of a roundtrip)
against k scalar integrators on one grid (the compositions of one
integrator with k duals), or g scalar integrands on one grid against one
vector integrator (the images T g of a roundtrip); the public integrals
are stacks of one.  A level runs in tiles of at most ``_TILE_CELLS``
cells (``_tiles``), so that a tile's arrays stay in cache: a tile
evaluates all the integrands at its tags in one Horner pass, takes the
integrators' differences and picks its jump-end cells once for all
pairs, then writes each integrand's estimates and products into buffers
of the level that every tile reuses, and the next level's integrator
values at the midpoints go tile by tile into the odd columns of its
value array.  Each pair's result is made with the stacks and kept
current, a trace record a level, until the pair stops; the stacks
shrink, an integrand or integrator leaving once all its pairs have
passed their test, and a stopped pair's rows are computed, not read.

``_RowSums`` sums rows along their cells in numpy's order for an (n, r)
array along axis 0: in sequence from +0.0 for the r >= 2 rows of a
vector, pairwise for r = 1 and for scalar rows, which so have the bits
of a sum over their own cells alone.  Tiles keep those bits.  numpy sums
a row of more than 128 doubles as the sum of its halves, split at n / 2
rounded down to a multiple of 8, and a complex row as its 2n doubles, so
for n % 16 == 0 both split at n / 2.  A level of n cells is halved only
while n exceeds the tile size and n % 16 == 0 (``_tile_length``); each
tile is then a whole subtree of numpy's tree, its sum is numpy's sum of
its cells, and two sibling tiles add as left + right.  A level of any
other n is one tile.  A sum in sequence carries across tiles: a tile's
first cell takes the sum so far.  The order is pinned: summed pairwise,
vector integrals, their estimates and the CLI output that
``perfbench/reference`` holds would move.

A pure step integrator x needs no drive: integral(g dx) is the finite sum
sum_j g(tau_j) J_j over its nonzero jumps.  ``_step_integrals`` computes it
for a stack of integrands on one grid, with one evaluation pass at the
jump times and each integrand's products added in sequence, in jump
order; ``exact_step_integral`` is its stack of one.  Plus 0.0, it has the
bits of the drive on a vector x of dimension 2 or more, whose sum also
runs in sequence, in cell order, and adds a zero for every cell that does
not end at a jump.  In dimension 1 the drive sums pairwise, and the two
can differ in the last bit once x has three jumps or more.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ExistenceError
from .functions import (PiecewiseFunction, _derivative_sups_of, _interleave,
                        _jump_tables_of, _partition_points, _polyder)
from .spaces import Seminorm, _check_dimension

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
# cells per tile of a refinement level, the fastest in a sweep over
# roundtrip spline items: 2^13 costs more per tile, and from 2^15 on the
# arrays of a tile of five rows outgrow a 2 MB L2 cache
_TILE_CELLS = 2 ** 14


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
    function or coordinate.  Derived data is computed once per stack: the
    derivative sups of the scalar functions not yet holding theirs come
    from one pass over all their rows, and each function caches its own."""

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

    @property
    def is_step(self):
        return all(mu.is_step for mu in self.mus)

    def envelopes(self, seminorms, zero=False):
        """The envelope rows, (rows, pieces): one per scalar function, or
        one per seminorm for a vector one.  With ``zero``, zero rows of
        that shape, and no function computes or caches envelopes."""
        if zero:
            rows = len(self) if self.dim is None else len(seminorms)
            return (np.zeros((rows, self.piece_count)),) * 2
        if self.dim is None:
            _derivative_sups_of(self.mus)
        return tuple(np.concatenate(e) for e in
                     zip(*(_envelopes(mu, seminorms) for mu in self.mus)))

    def values_at(self, ts):
        """Values at points of the domain; t = b gets each end value."""
        out = self._values_in(self._piece_at(ts), ts)
        out[:, ts == self.b] = self._ends
        return out

    def _values_in(self, idx, ts, out=None):
        """Values at ``ts`` read as ``len(idx)`` equal blocks, block k inside
        piece ``idx[k]``, (rows, points), written into ``out`` if given, a
        C-ordered array of that shape.  One Horner pass broadcasts each
        gathered coefficient over its block, so an element sees the
        operations of a per-point gather: ``((c_K tau) + c_K-1) tau + ...``;
        per-point evaluation is blocks of one."""
        n0 = len(idx)
        m = len(ts) // n0 if n0 else 0
        tau = ts.reshape(n0, m) - self.breakpoints.take(idx)[:, np.newaxis]
        planes = self._planes.take(idx, axis=2)
        if out is None:
            # a new array even for one plane: callers write into the values
            out = np.empty((planes.shape[1], len(ts)), planes.dtype)
        block = out.reshape(len(out), n0, m)
        # a copy and an in-place product: numpy's broadcast product
        # c_K * tau into ``block`` is slower
        block[...] = planes[-1]
        for plane in planes[-2::-1]:
            block *= tau
            block += plane
        return out


def _tile_length(n):
    """The cells of each tile of a level of n cells: n halved while it
    exceeds _TILE_CELLS and numpy's real and complex pairwise sums of a
    row both split it at n / 2, for n > 128 and n % 16 == 0 (see the
    module docstring), so that every tile is a whole subtree of both."""
    while n > max(_TILE_CELLS, 128) and n % 16 == 0:
        n //= 2
    return n


def _tiles(n, m):
    """The tiles of a level of n cells in order, m children per base cell:
    a slice of the cells and the base cell of each of its equal blocks,
    gcd(tile, m) cells each, every block inside one base cell."""
    t = _tile_length(n)
    size = int(np.gcd(t, m))
    for lo in range(0, n, t):
        yield slice(lo, lo + t), np.arange(lo, lo + t, size) // m


class _RowSums:
    """Sums of the rows of (rows, cells) tiles, fed in cell order, in the
    module's order: in sequence for the n >= 2 coordinates or seminorms of
    a vector, each tile's first cell taking the sums so far, and pairwise
    for n of None or 1, each tile by numpy's own sum and a pair of sibling
    tiles by left + right, as numpy adds the halves of a row."""

    def __init__(self, n):
        self.in_sequence = (n or 1) > 1
        self.parts = []

    def add(self, a):
        """Feed the next tile; may overwrite ``a``."""
        if not self.in_sequence:
            self.parts.append(a.sum(axis=1))
            return
        if self.parts:
            a[:, 0] += self.parts[0]
        self.parts = [np.add.accumulate(a, axis=1, out=a)[:, -1].copy()]

    def total(self):
        parts = self.parts
        if self.in_sequence:
            # accumulate starts from cell 0, not +0.0; + 0.0 turns its -0.0
            # to +0.0
            return parts[0] + 0.0
        while len(parts) > 1:
            parts = [a + b for a, b in zip(parts[0::2], parts[1::2])]
        return parts[0]


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
    n = len(mids)
    # the midpoints' values go tile by tile into the odd columns
    vals = np.empty((len(mu_vals), 2 * n + 1),
                    np.result_type(mu_vals, mu._planes))
    vals[:, 0::2] = mu_vals
    tile = np.empty((len(mu_vals), _tile_length(n)), vals.dtype)
    for cut, base in _tiles(n, n // len(j)):
        vals[:, 2 * cut.start + 1:2 * cut.stop:2] = \
            mu._values_in(j.take(base), mids[cut], tile)
    return i, j, vals, (rows, 2 * ends + 1), smooth


def _kept_columns(cells, keep_f, keep_mu):
    """The cells of the stacks without the integrands that ``keep_f`` and
    the integrators that ``keep_mu`` drop.  A vector integrator is alone
    in its stack and stays while any of its pairs runs, so nothing is
    taken from its rows, which are coordinates, nor from the rows of its
    envelope products, which are seminorms."""
    i, j, mu_vals, at_jumps, smooth = cells
    smooth = smooth[keep_f]
    if not keep_mu.all():
        rows, ends = at_jumps
        kept = keep_mu.take(rows)
        renumber = np.cumsum(keep_mu) - 1
        at_jumps = (renumber.take(rows[kept]), ends[kept])
        mu_vals, smooth = mu_vals[keep_mu], smooth[:, keep_mu]
    return i, j, mu_vals, at_jumps, smooth


def _level_sums(f, mu, rights, h, mids, inside, cells, envs, dim):
    """One level's tagged sums and error estimates for every pair of the
    stacks ``f`` and ``mu``, for cells with right ends ``rights``, widths
    ``h`` and midpoints ``mids``; ``inside`` says that every midpoint lies
    strictly inside its cell.  Returns (values, estimates),
    (integrands, integrators, ...) arrays with a pair's sum, one element
    per coordinate, and its estimates, one per row of its envelope
    products.  A stopped pair whose integrand and integrator are still in
    the stacks gets its sum too, which nothing reads; each row is summed
    alone, so it moves no other row's bits.

    The cells are m = cells / base cells contiguous children of each base
    cell, and cell e lies in base cell e // m.  The level runs tile by
    tile (``_tiles``): a tile evaluates every integrand at its tags, takes
    the integrators' differences and picks its jump-end cells once, then
    writes each integrand's estimates, broadcast from its base cells'
    envelope products, and its products into buffers of the level that
    every tile reuses."""
    i, j, mu_vals, (rows, ends), smooth = cells
    n = len(h)
    m = n // len(i)
    t = _tile_length(n)
    stack = len(mu) > 1
    f_rows = len(f._ends) // len(f)
    width = max(f_rows, len(mu_vals))
    dtype = np.result_type(f._planes, mu_vals)
    if ends.size:
        D1f, _, D1m, _ = envs
        base = ends // m
        rows = rows if stack else slice(None)
        # every integrand's estimates and tags at the jump-end cells,
        # (integrands, rows, ends)
        jump_ests = D1f.take(i.take(base), axis=2) \
            * D1m[rows, j.take(base)] * h.take(ends) ** 2
        jump_tags = f.values_at(rights.take(ends)).reshape(
            len(f), f_rows, ends.size)
    est_sums = [_RowSums(smooth.shape[1] if dim else None) for _ in smooth]
    sums = [_RowSums(dim) for _ in smooth]
    # the level's tile buffers; an integrand's estimates and its products
    # share one where their dtypes agree, the estimates done with first
    tags = np.empty((len(f._ends), t), f._planes.dtype)
    dmu = np.empty((len(mu_vals), t), mu_vals.dtype)
    products = np.empty((max(width, smooth.shape[1]), t), dtype)
    est = (products if dtype == float
           else np.empty_like(products, float))[:smooth.shape[1]]
    # a stack's integrand tags, one row per integrator
    spread = np.empty((len(mu), t), f._planes.dtype)
    for cut, base in _tiles(n, m):
        lo, hi = cut.start, cut.stop
        fv = (f._values_in(i.take(base), mids[cut], tags) if inside
              else f.values_at(mids[cut])).reshape(len(f), f_rows, t)
        np.subtract(mu_vals[:, lo + 1:hi + 1], mu_vals[:, lo:hi], out=dmu)
        h3 = (h[cut] ** 3 / 12.0).reshape(len(base), -1)
        at = None
        if ends.size:
            here = slice(None) if t == n else (ends >= lo) & (ends < hi)
            cols = ends[here] - lo
            if cols.size:
                at = (rows[here] if stack else rows, cols)
                tile_ests, tile_tags = jump_ests[..., here], \
                    jump_tags[..., here]
        for g, fg in enumerate(fv):
            np.multiply(smooth[g].take(base, axis=1)[:, :, np.newaxis], h3,
                        out=est.reshape(len(est), len(base), -1))
            if at:
                est[at] = tile_ests[g]
                if stack:
                    spread[...] = fg
                    fg = spread
                fg[at] = tile_tags[g]
            est_sums[g].add(est)
            sums[g].add(np.multiply(fg, dmu, out=products[:width]))
    return tuple(np.stack([s.total() for s in part]).reshape(
        len(f), len(mu), -1) for part in (sums, est_sums))


def _refine(f, mu, jump_ts, seminorms, tol, max_levels):
    """The refinement loop of every drive: each integrand of the
    :class:`_Columns` stack ``f`` against each integrator of the stack
    ``mu``, on one partition.  A pair stops at its own level; an integrand
    or integrator leaves its stack once all its pairs have stopped, and
    until then a stopped pair's sums are computed and not read.  Returns
    one IntegralResult per pair, ``results[g][k]``, each made when the
    stacks are and kept current until its pair stops.

    Envelope rows enter the estimates only as products of one side's rows
    with the other's, d1f d2m + d2f d1m / 2 on a cell and d1f d1m h^2 at
    a jump end, and a pure step's rows are zero.  When either stack is all
    pure steps, every estimate is +0.0 whatever the other side's finite
    rows are, so neither side computes or caches envelopes: both get zero
    rows of the same shapes, which stay zero as rows leave the stacks."""
    points = np.unique(np.concatenate(
        [f.breakpoints, mu.breakpoints,
         np.linspace(f.breakpoints[0], f.b, _INITIAL_UNIFORM_CELLS + 1)]))
    flat = f.is_step or mu.is_step
    # an integrand's envelope rows are one block, (integrands, rows, pieces)
    envs = tuple(e.reshape(len(f), -1, e.shape[1])
                 for e in f.envelopes(seminorms, flat)) \
        + mu.envelopes(seminorms, flat)
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
        # (integrands, integrators, value) and (..., seminorms)
        values, ests = _level_sums(f, mu, rights, h, mids, inside, cells,
                                   envs, dim)
        ests = ests * scale
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
                    + mu.envelopes(seminorms, flat)
                cells = _kept_columns(cells, keep_f, keep_mu)
                values = values[keep_f][:, keep_mu]
                live = live[keep_f][:, keep_mu]
        prev = values
        points = _interleave(points, mids)
        cells = (_bisected_cells(mu, cells, mids) if inside
                 else _cells(f, mu, points, jump_ts, envs))
    return results


def _check_tol(tol):
    if tol <= 0:
        raise ArgumentError("tol must be positive")


def _checked(fs, mus, seminorms, tol, max_levels):
    """Validate drives of each of ``fs`` against each of ``mus``, each a
    stack of one function or of scalar functions on one grid and
    coefficient layout; return the jump times of each of ``mus`` and the
    seminorm tuple.  Each stack's jump tables come from one pass, and the
    union of the integrands' jump times meets that of the integrators'
    exactly when some pair jumps at a common point; only then does the
    pair loop run, to name the first such pair."""
    _ensure_compatible(fs[0], mus[0])  # a stack shares its domain
    _jump_tables_of(fs)
    _jump_tables_of(mus)
    if not set().union(*(f._jump_times for f in fs)).isdisjoint(
            itertools.chain.from_iterable(mu._jump_times for mu in mus)):
        for f, mu in itertools.product(fs, mus):
            _require_existence(f, mu)
    _check_tol(tol)
    if max_levels < 2:
        raise ArgumentError("need at least two refinement levels")
    dim = fs[0].dim or mus[0].dim
    seminorms = tuple(seminorms) if seminorms is not None \
        else _max_abs(dim or 1)
    _check_dimension(seminorms, dim or 1)
    return [np.array(mu._jump_times) for mu in mus], seminorms


@dataclass
class _Drive:
    """A drive's results, ``results[g][k]`` for its integrand g and
    integrator k, with the deepest level any pair ran and whether every
    pair converged."""

    results: list
    levels: int
    converged: bool


def _drive(fs, mus, seminorms, tol, max_levels=20):
    """The one entry of every refinement drive: each integrand of ``fs``
    against each integrator of ``mus``, in one refinement loop.  The
    stacks are one function against one, scalar integrands on one grid
    against scalar integrators on one grid (the pairings of a roundtrip),
    or scalar integrands on one grid against one vector integrator (its
    images T g).  ``results[g][k]`` has the bits of the drive of
    ``fs[g]`` against ``mus[k]`` alone."""
    fs, mus = tuple(fs), tuple(mus)
    if ((len(fs) + len(mus) > 2 and any(f.dim is not None for f in fs))
            or (len(mus) > 1 and any(mu.dim is not None for mu in mus))):
        raise ArgumentError("stacked drives take scalar factors")
    if not (fs and mus):
        return _Drive([[] for _ in fs], 0, True)
    # the stacks are checked first: _checked reads them as stacks
    f, mu = _Columns(fs), _Columns(mus)
    jump_ts, seminorms = _checked(fs, mus, seminorms, tol, max_levels)
    results = _refine(f, mu, jump_ts, seminorms, tol, max_levels)
    pairs = [res for row in results for res in row]
    return _Drive(results, max(res.levels for res in pairs),
                  all(res.converged for res in pairs))


def _scalar(g):
    """``g``, refused unless it is scalar-valued."""
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    return g


def _plain_sum(f, mu, partition):
    _ensure_compatible(f, mu)
    pts = _partition_points(partition, f)
    dim = f.dim or mu.dim
    fv = _Columns((f,)).values_at(partition.tags)
    dmu = np.diff(_Columns((mu,)).values_at(pts), axis=1)
    sums = _RowSums(dim)
    sums.add(fv * dmu)
    out = sums.total()
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
    return _drive((_scalar(g),), (x,), seminorms, tol,
                  max_levels).results[0][0]


def integrate_x_dg(x, g, seminorms=None, tol=1e-8, max_levels=20):
    """Mesh limit of the sums sum x(s_i) [g(t_i) - g(t_{i-1})]."""
    return _drive((x,), (_scalar(g),), seminorms, tol,
                  max_levels).results[0][0]


def per_partes(x, g, seminorms=None, tol=1e-8, max_levels=20):
    """Both Stieltjes integrals linked by integration by parts.

    Computes integral(x dg) and integral(g dx) independently and reports
    the per-seminorm defect of

        integral(x dg) + integral(g dx) = x(b)g(b) - x(a)g(a).

    Pairs with a common jump are refused with the offending points named.
    """
    _, seminorms = _checked((x,), (_scalar(g),), seminorms, tol, max_levels)
    lhs = _drive((x,), (g,), seminorms, tol, max_levels).results[0][0]
    rhs = _drive((g,), (x,), seminorms, tol, max_levels).results[0][0]
    boundary = x(x.b) * g(g.b) - x(x.a) * g(g.a)
    gaps = np.array([p(lhs.value + rhs.value - boundary) for p in seminorms])
    return PerPartesResult(x_dg=lhs, g_dx=rhs, boundary=boundary, gaps=gaps)


def _step_integrals(gs, x):
    """The closed form sum_j g(tau_j) J_j of integral(g dx) for each g of
    the stack ``gs``, scalar functions on one grid and continuous at every
    jump time tau_j of the pure step integrator x, over its nonzero jumps
    J_j: one (integrands[, dim]) array.  Every g is evaluated at every jump
    time in one pass, and each g's products are added in sequence, in jump
    order, starting from x(b) * 0, so each row has the bits of that g's
    sum alone, signed zeros included.  The jumps are ``x.jump_points()``,
    which lists every nonzero jump of a step at any scale."""
    jumps = x.jump_points()
    times = np.array([t for t, _ in jumps])
    # a stack of one goes through its function's own values_at, the
    # evaluation layer that perfbench counts, with the bits of _Columns
    gv = gs[0].values_at(times)[np.newaxis] if len(gs) == 1 \
        else _Columns(gs).values_at(times)
    zero = x.values[-1] * 0
    if np.iscomplexobj(gv):
        zero = zero * (1 + 0j)
    if x.dim is None:
        # numpy's scalar product, which can differ from its array loop in
        # the last bit of a complex product, as for one g(t) * J
        return np.array([sum((v * jump for v, (_, jump) in zip(row, jumps)),
                             zero) for row in gv.tolist()])
    # every g(tau_j) J_j from one product of two flat arrays, numpy's array
    # loop as for one g(t) * J; a broadcast to one complex element can take
    # another loop
    count, n = gv.shape
    g_at = gv.repeat(x.dim, axis=1).reshape(-1)
    sizes = np.tile(np.reshape([jump for _, jump in jumps], -1), count)
    products = (g_at * sizes).reshape(count, n, x.dim)
    total = np.repeat(zero[np.newaxis], count, axis=0)
    for k in range(n):
        total = total + products[:, k]
    return total


def exact_step_integral(g, x):
    """Closed form of integral(g dx) for a pure step integrator x.

    The value is sum_j g(tau_j) J_j over the nonzero jumps (tau_j, J_j) of
    x, added in jump order; g must be continuous at every jump point.  It
    is the stack-of-one case of the kernel by which ``representation``
    applies T on a step integrator, and serves as an independent oracle
    for the refinement driver.
    """
    _ensure_compatible(_scalar(g), x)
    if not x.is_step:
        raise ArgumentError("x must be a pure step function")
    _require_existence(g, x)
    (total,) = _step_integrals((g,), x)
    if x.dim is None:
        return complex(total) if np.iscomplexobj(total) else float(total)
    return total
