"""Property tests of the shared numerical kernels against loop references.

Each batched kernel must keep the per-element operation order of the
per-piece code it replaced, so the references below are compared with
``np.array_equal``, not with a tolerance.  ``product_integral`` is the one
exception: its test says why.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from stieltjes import functions
from stieltjes.functions import (PiecewiseFunction, TaggedPartition,
                                 _extreme_rows, _horner, _horner_at,
                                 _natural_spline, _root_rows, _shift_poly,
                                 _split_rows, _sup_abs_rows, _variations,
                                 bisect, definite_integral, dual_compose,
                                 product_integral, random_spline,
                                 scalar_variation)
from stieltjes.integrals import (_bisected_cells, _cells, _Columns,
                                 _envelopes, rs_sum_S, rs_sum_s)
from stieltjes.semivariation import (_CHUNK, _aligning, _dedupe,
                                     _digit_chunks, e_set)
from stieltjes.spaces import Seminorm

FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
LOCAL = st.floats(0.0, 2.0, allow_nan=False)


def shift_one(c, dt):
    """Per-piece Taylor shift: coefficients of p(dt + tau) from p(tau)."""
    out = np.zeros_like(c)
    out[0] = c[-1]
    deg = 0
    for k in range(c.shape[0] - 2, -1, -1):
        shifted = np.zeros_like(c)
        shifted[1:deg + 2] = out[:deg + 1]
        shifted[:deg + 1] += out[:deg + 1] * dt
        shifted[0] += c[k]
        out = shifted
        deg += 1
    return out


@st.composite
def pieces(draw):
    """(coeffs (m, K[, dim]), local points (m,)), real or complex."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    dim = draw(st.sampled_from([None, 1, 3]))
    shape = (m, k) if dim is None else (m, k, dim)
    c = draw(hnp.arrays(float, shape, elements=FINITE))
    if draw(st.booleans()):
        c = c + 1j * draw(hnp.arrays(float, shape, elements=FINITE))
    tau = draw(hnp.arrays(float, (m,), elements=LOCAL))
    return c, tau


@settings(max_examples=150)
@given(pieces())
def test_batched_shift_matches_per_piece(case):
    c, dt = case
    expected = np.array([shift_one(c[i], dt[i]) for i in range(c.shape[0])])
    assert np.array_equal(_shift_poly(c, dt), expected)


@settings(max_examples=150)
@given(pieces())
def test_batched_horner_matches_polyval(case):
    c, tau = case
    expected = np.array([npoly.polyval(tau[i], c[i])
                         for i in range(c.shape[0])])
    assert np.array_equal(_horner(c, tau), expected)


@st.composite
def gathers(draw):
    """(coeffs (m, K[, dim]), piece indices (n,), local points (n,)); many
    pieces of degree 0 stand for a step function with many jumps."""
    m = draw(st.integers(1, 40))
    k = draw(st.sampled_from([1, 1, 2, 4, 7]))
    dim = draw(st.sampled_from([None, 1, 3]))
    shape = (m, k) if dim is None else (m, k, dim)
    c = draw(hnp.arrays(float, shape, elements=FINITE))
    if draw(st.booleans()):
        c = c + 1j * draw(hnp.arrays(float, shape, elements=FINITE))
    n = draw(st.integers(0, 60))
    idx = draw(hnp.arrays(np.intp, (n,), elements=st.integers(0, m - 1)))
    tau = draw(hnp.arrays(float, (n,), elements=LOCAL))
    return c, idx, tau


@settings(max_examples=150)
@given(gathers())
def test_horner_at_known_pieces_matches_gathered_horner(case):
    c, idx, tau = case
    assert same_bits(_horner_at(c, idx, tau), _horner(c[idx], tau))


@st.composite
def functions_with_jumps(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    dim = draw(st.sampled_from([None, 2]))
    shape = (m, k) if dim is None else (m, k, dim)
    widths = draw(hnp.arrays(float, (m,),
                             elements=st.floats(0.01, 1.0, allow_nan=False)))
    bps = np.concatenate([[0.0], np.cumsum(widths)])
    c = draw(hnp.arrays(float, shape, elements=st.sampled_from(
        [0.0, 1.0, -2.0, 0.5, 1e-13])))
    end = draw(hnp.arrays(float, shape[2:], elements=FINITE))
    values = np.concatenate([c[:, 0], end[np.newaxis]], axis=0)
    return PiecewiseFunction(bps, c, values if draw(st.booleans()) else None)


@settings(max_examples=150)
@given(functions_with_jumps(), st.sampled_from([0.0, 1e-12, 0.75]))
def test_jump_points_matches_one_sided_limits(f, atol):
    expected = []
    for i in range(1, f.breakpoints.size):
        t = f.breakpoints[i]
        left, _ = f.one_sided_limits(t)
        jump = f.values[i] - left
        if np.max(np.abs(np.atleast_1d(jump))) > atol:
            expected.append((float(t), jump))
    got = f.jump_points(atol)
    assert [t for t, _ in got] == [t for t, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert np.array_equal(a, b)


@given(hnp.arrays(float, st.integers(2, 30), elements=FINITE, unique=True))
def test_bisect_interleaves_points_and_midpoints(raw):
    pts = np.sort(raw)
    out = bisect(pts)
    assert out.size == 2 * pts.size - 1
    assert np.array_equal(out[0::2], pts)
    assert np.array_equal(out[1::2], 0.5 * (pts[:-1] + pts[1:]))


@given(st.integers(2, 5), st.integers(0, 5))
def test_digit_chunks_follow_product_order(base, width):
    rows = np.concatenate(list(_digit_chunks(base, width)))
    expected = [t[::-1] for t in itertools.product(range(base),
                                                   repeat=width)]
    assert rows.tolist() == [list(t) for t in expected]


def test_digit_chunks_across_chunk_boundary():
    chunks = list(_digit_chunks(2, 18))
    assert [c.shape[0] for c in chunks] == [_CHUNK] * ((1 << 18) // _CHUNK)
    expected = np.array(list(itertools.product(range(2), repeat=18)))
    assert np.array_equal(np.concatenate(chunks), expected[:, ::-1])


@st.composite
def piecewise(draw, dims=(None, 1, 2, 3), fields=(False, True)):
    """Random piecewise polynomial on [0, sum of widths] with a dimension
    drawn from ``dims`` (None: scalar) and real or complex coefficients."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    dim = draw(st.sampled_from(dims))
    complex_field = draw(st.sampled_from(fields))
    shape = (m, k) if dim is None else (m, k, dim)
    widths = draw(hnp.arrays(float, (m,),
                             elements=st.floats(0.01, 2.0, allow_nan=False)))
    c = draw(hnp.arrays(float, shape, elements=FINITE))
    if complex_field:
        c = c + 1j * draw(hnp.arrays(float, shape, elements=FINITE))
    return PiecewiseFunction(np.concatenate([[0.0], np.cumsum(widths)]), c)


def same_bits(a, b):
    """Equal dtype, shape and bytes: signed zeros must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@settings(max_examples=150)
@given(piecewise())
def test_definite_integral_matches_per_piece_polyval(f):
    widths = np.diff(f.breakpoints)
    anti = npoly.polyint(f.coeffs, axis=1)
    expected = 0.0
    for i in range(f.piece_count):
        expected = expected + npoly.polyval(widths[i], anti[i])
    assert same_bits(definite_integral(f), expected)


def envelopes_per_piece(func, seminorms):
    widths = np.diff(func.breakpoints)
    D1 = np.zeros((func.piece_count, len(seminorms)))
    D2 = np.zeros_like(D1)
    for i, c in enumerate(func.coeffs):
        zero = np.zeros((1,) + c.shape[1:], dtype=c.dtype)
        c1 = npoly.polyder(c, axis=0) if c.shape[0] > 1 else zero
        c2 = npoly.polyder(c1, axis=0) if c1.shape[0] > 1 else zero
        for s, p in enumerate(seminorms):
            if func.dim is None:
                D1[i, s] = _sup_abs_rows(c1[np.newaxis], [widths[i]])[0]
                D2[i, s] = _sup_abs_rows(c2[np.newaxis], [widths[i]])[0]
            else:
                D1[i, s] = p.eval_many(c1) @ widths[i] ** np.arange(len(c1))
                D2[i, s] = p.eval_many(c2) @ widths[i] ** np.arange(len(c2))
    return D1, D2


@settings(max_examples=100)
@given(piecewise())
def test_envelopes_match_per_piece_polyder(f):
    d = f.dim or 1
    sems = (Seminorm.weighted_sup(np.ones(d)),
            Seminorm.quadratic(np.eye(d) + 0.5))
    # a scalar function's envelopes are one column that broadcasts
    # against every seminorm
    got = tuple(e.T for e in _envelopes(f, sems))
    expected = envelopes_per_piece(f, sems)
    width = 1 if f.dim is None else len(sems)
    assert all(a.shape == (f.piece_count, width) for a in got)
    assert all(np.array_equal(np.broadcast_to(a, b.shape), b)
               for a, b in zip(got, expected, strict=True))


def product_per_piece(f, g, absolute=False):
    """The integral of f*g piece by piece with polymul, or with the
    coefficient moduli (a bound on every term) when ``absolute``."""
    bps = f._merge_grid(g)
    fc = f._on_grid(bps, f.values[-1:]).coeffs
    gc = g._on_grid(bps, g.values[-1:]).coeffs
    if absolute:
        fc, gc = np.abs(fc), np.abs(gc)
    fc = fc.reshape(fc.shape[:2] + (-1,))
    total = 0.0
    for i, h in enumerate(np.diff(bps)):
        total = total + np.array([
            npoly.polyval(h, npoly.polyint(npoly.polymul(fc[i, :, d], gc[i])))
            for d in range(fc.shape[2])])
    return total if f.dim is not None else total[0]


@st.composite
def product_pairs(draw):
    f = draw(piecewise())
    g = draw(piecewise(dims=(None,)))
    bps = g.breakpoints * (f.b / g.b)
    bps[-1] = f.b
    g = PiecewiseFunction(bps, g.coeffs)
    return f, g


@settings(max_examples=150)
@given(product_pairs())
def test_product_integral_matches_per_piece_polymul(pair):
    # the batched multiply-add sums each product coefficient in another
    # order than np.convolve, so only the last bits may differ
    f, g = pair
    got = product_integral(f, g)
    expected = product_per_piece(f, g)
    scale = np.maximum(product_per_piece(f, g, absolute=True), 1e-300)
    assert np.shape(got) == np.shape(expected)
    assert np.all(np.abs(got - expected) <= 1e-15 * scale)


@settings(max_examples=150)
@given(piecewise(dims=(None,), fields=(False,)))
def test_range_bounds_bracket_dense_samples(f):
    lo, hi = f.range_bounds()
    samples = f.values_at(np.linspace(f.a, f.b, 2001))
    size = np.max(_horner(np.abs(f.coeffs), np.diff(f.breakpoints)))
    slack = 1e-12 * max(1.0, size)
    assert lo <= hi
    assert np.all(samples >= lo - slack) and np.all(samples <= hi + slack)


ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 3.5, -2.25])


@st.composite
def aligning_inputs(draw):
    n = draw(st.integers(1, 8))
    z = draw(hnp.arrays(float, (n,), elements=ENTRIES))
    if draw(st.booleans()):
        z = z + 1j * draw(hnp.arrays(float, (n,), elements=ENTRIES))
    fallback = draw(st.one_of(
        st.just(1.0), hnp.arrays(z.dtype, (n,), elements=ENTRIES)))
    return z, fallback


@given(aligning_inputs())
def test_aligning_is_the_conjugate_over_the_modulus(case):
    z, fallback = case
    az = np.abs(z)
    expected = np.where(az > 0, np.conj(z) / np.where(az > 0, az, 1),
                        fallback)
    assert same_bits(_aligning(z, fallback), expected)


@given(st.integers(1, 7), st.booleans(), st.sampled_from([0.0, -0.0]),
       st.floats(1e-6, 10.0))
def test_sup_of_a_zero_polynomial_matches_the_root_path(k, cplx, zero, h):
    # the zero derivatives of step pieces skip root finding, with the
    # bits the root path gives
    c = np.full(k, zero) * (1 + 0j if cplx else 1)
    sq = npoly.polymul(c, c.conj()).real if cplx else c
    values, n = _extreme_rows(sq[np.newaxis], [h])
    values = values[0, :n[0]]
    expected = np.sqrt(np.max(values)) if cplx else np.max(np.abs(values))
    assert same_bits(_sup_abs_rows(c[np.newaxis], [h])[0], expected)


def cell_arrays(cells):
    """The per-cell arrays of a cell state, the jump-end index unpacked."""
    i, j, mu_vals, at_jumps, smooth = cells
    return (i, j, mu_vals) + at_jumps + (smooth,)


@settings(max_examples=100)
@given(piecewise(), st.data(), st.integers(0, 6))
def test_inherited_cells_match_a_fresh_lookup(f, data, k):
    # each cell lies inside one piece of f and of mu, so bisection keeps
    # every piece index, mu value, jump-end cell and envelope product a
    # fresh lookup gives, for one integrator, scalar or vector, as a stack
    # of one and, when both factors are scalar, for a stack of integrators
    # on one grid, under one seminorm and under two
    mu = data.draw(piecewise(dims=(None,) if f.dim else (None, 1, 2, 3)))
    scaled = mu.breakpoints * (f.b / mu.b)
    scaled[-1] = f.b
    mu = PiecewiseFunction(scaled, mu.coeffs)
    d = f.dim or mu.dim or 1
    families = [(Seminorm.weighted_sup(np.ones(d)),),
                (Seminorm.weighted_one(np.arange(1.0, d + 1)),
                 Seminorm.quadratic(np.eye(d) + 0.5))]
    stacks = [_Columns([mu])]
    if f.dim is None and mu.dim is None:
        stacks.append(_Columns([mu, mu * -0.5, mu * 0.0]))
    for integrator, sems in itertools.product(stacks, families):
        jump_ts = [np.array(c._jump_times) for c in integrator.mus]
        envs = _envelopes(f, sems) + integrator.envelopes(sems)
        bps = np.unique(np.concatenate([f.breakpoints, mu.breakpoints]))
        cells = _cells(f, integrator, bps, jump_ts, envs)
        for _ in range(k):
            mids = 0.5 * (bps[:-1] + bps[1:])
            if not (np.all(bps[:-1] < mids) and np.all(mids < bps[1:])):
                break
            cells = _bisected_cells(integrator, cells, mids)
            bps = bisect(bps)
        expected = _cells(f, integrator, bps, jump_ts, envs)
        assert all(same_bits(a, b) for a, b in
                   zip(cell_arrays(cells), cell_arrays(expected), strict=True))
        assert np.array_equal(cells[0], f._piece_at(bps[:-1]))


def tagged_sum_per_cell(f, mu, partition):
    """sum_i f(s_i) [mu(t_i) - mu(t_{i-1})] over an (n[, d]) cell axis."""
    fv = f.values_at(partition.tags)
    dmu = np.diff(mu.values_at(partition.points), axis=0)
    if fv.ndim < dmu.ndim:
        fv = fv[:, np.newaxis]
    elif fv.ndim > dmu.ndim:
        dmu = dmu[:, np.newaxis]
    return (fv * dmu).sum(axis=0)


@settings(max_examples=150)
@given(piecewise(), piecewise(dims=(None,)), st.integers(1, 300),
       st.sampled_from(["left", "midpoint", "right"]),
       st.integers(0, 2 ** 32 - 1))
def test_plain_sums_match_a_sum_over_cells(x, g, n, rule, seed):
    # rs_sum_S and rs_sum_s run on a stack of one row, (1, n[, d]), and
    # sum along axis 1 in the order of the (n[, d]) sum along axis 0
    scaled = g.breakpoints * (x.b / g.b)
    scaled[-1] = x.b
    g = PiecewiseFunction(scaled, g.coeffs)
    inner = np.random.default_rng(seed).uniform(x.a, x.b, n - 1)
    points = np.unique(np.concatenate([[x.a, x.b], inner]))
    partition = TaggedPartition.from_points(points, rule)
    for got, f, mu in ((rs_sum_S(x, g, partition), x, g),
                       (rs_sum_s(g, x, partition), g, x)):
        expected = tagged_sum_per_cell(f, mu, partition)
        if expected.ndim == 0:
            expected = expected.item()
        assert type(got) is type(expected)
        assert same_bits(got, expected)


def test_a_one_cell_complex_sum_matches_a_sum_over_cells():
    # numpy's in-place product of a single complex element can differ in
    # its last bit from a new product, and does for these factors
    step = 1908 + 1.1028475378554183j
    partition = TaggedPartition.from_points([0.0, 1.0], "left")
    for f, mu in ((PiecewiseFunction.constant(129 + 1j, (0.0, 1.0)),
                   PiecewiseFunction([0.0, 1.0], [[[318.0], [step]]])),
                  (PiecewiseFunction.constant([129 + 1j], (0.0, 1.0)),
                   PiecewiseFunction([0.0, 1.0], [[0.0, step]]))):
        plain = rs_sum_s if f.dim is None else rs_sum_S
        assert same_bits(plain(f, mu, partition),
                         tagged_sum_per_cell(f, mu, partition))


@settings(max_examples=100)
@given(piecewise(dims=(None,)), st.integers(0, 2 ** 32 - 1))
def test_stacked_values_match_each_integrator(mu, seed):
    # a stack of integrators on one grid evaluates each row with the
    # operations of the integrator alone, end value at b included
    scales = np.random.default_rng(seed).normal(size=3)
    mus = [mu * s for s in scales]
    stack = _Columns(mus)
    ts = np.concatenate([mu.breakpoints, np.linspace(mu.a, mu.b, 17)])
    idx = mu._piece_at(ts)
    assert same_bits(stack.values_at(ts),
                     np.array([m.values_at(ts) for m in mus]))
    assert same_bits(stack._values_in(idx, ts),
                     np.array([m._values_in(idx, ts) for m in mus]))


@settings(max_examples=100)
@given(piecewise(dims=(1, 2, 3)), st.integers(0, 2 ** 32 - 1))
def test_vector_stack_values_match_each_coordinate(x, seed):
    # a vector integrator is a stack of one row per coordinate, and each
    # row has the bits of that coordinate of the function's own values,
    # end value at b included
    inner = np.random.default_rng(seed).uniform(x.a, x.b, 17)
    ts = np.concatenate([x.breakpoints, inner])
    idx = x._piece_at(ts)
    stack = _Columns((x,))
    assert same_bits(stack.values_at(ts), x.values_at(ts).T)
    assert same_bits(stack._values_in(idx, ts), x._values_in(idx, ts).T)


# n around the blocks of numpy's pairwise sum (8 partial sums, leaves of
# 128 elements) and of a reduction's 8192-element buffer, and one far past
SUM_LENGTHS = list(range(1, 201)) + [8191, 8192, 8193, 131072]


def test_row_sums_of_a_stack_follow_each_row_alone():
    # the stacked drive sums each column along axis 1 of a C-ordered
    # (k, n) array and relies on getting each row's 1-d pairwise sum
    rng = np.random.default_rng(20)
    for n in SUM_LENGTHS:
        rows = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-8, 9, (3, n))
        for a in (rows, rows + 1j * rows[::-1]):
            a = np.ascontiguousarray(a)
            expected = np.array([row.sum() for row in a])
            assert same_bits(a.sum(axis=1), expected), n


CANARY_LENGTHS = list(range(1, 40)) + [127, 128, 129, 1000, 5000]


def test_numpy_sums_vectors_in_the_order_the_drives_reproduce():
    # the drives sum a vector of dimension d coordinate by coordinate, as
    # rows of a (d, n) array, and reproduce numpy's order for the (n, d)
    # cells of a vector: in sequence from +0.0 for d >= 2, pairwise for
    # d = 1 (see the integrals module docstring).  The error estimates of
    # a drive with a vector factor are rows of a (seminorms, n) array,
    # summed by the same rule, so d here also stands for the number of
    # seminorms.  If a numpy release changes that order, this test fails,
    # not only the CLI's bytes.
    rng = np.random.default_rng(13)
    for d, n in itertools.product(range(1, 9), CANARY_LENGTHS):
        a = rng.normal(size=(1, n, d)) * 10.0 ** rng.integers(-8, 9, (1, n, d))
        a[0, :, 0] = -0.0
        for cells in (a, a + 1j * a[:, ::-1]):
            rows = np.ascontiguousarray(cells[0].T)
            if d == 1:
                expected = rows.sum(axis=1)
            else:
                expected = np.add.accumulate(rows, axis=1)[:, -1] + 0.0
            assert same_bits(cells.sum(axis=1)[0], expected), (d, n)
            if d > 1:
                assert not np.signbit(expected[0].real), (d, n)


def public_copy(bps, coeffs, values):
    return PiecewiseFunction(np.array(bps), np.array(coeffs),
                             np.array(values))


@settings(max_examples=100)
@given(piecewise(), st.sampled_from([2.0, -0.5, 1j, 1.5 - 2j]))
def test_internal_constructions_match_the_public_constructor(f, s):
    # the library's own operations skip validation; each must give the
    # arrays the validating constructor gives for the same data
    cases = [
        (f.derivative(), (f.breakpoints, npoly.polyder(f.coeffs, axis=1)
                          if f.coeffs.shape[1] > 1
                          else np.zeros_like(f.coeffs), None)),
        (-f, (f.breakpoints, -f.coeffs, -f.values)),
        (f * s, (f.breakpoints, f.coeffs * s, f.values * s)),
        (f.real_part(), (f.breakpoints, f.coeffs.real, f.values.real)),
        (f.imag_part(), (f.breakpoints, f.coeffs.imag, f.values.imag)),
    ]
    if f.dim is not None:
        d = np.arange(1.0, f.dim + 1) * s
        cases.append((dual_compose(f, d),
                      (f.breakpoints,
                       np.tensordot(f.coeffs, d.conj(), axes=([2], [0])),
                       f.values @ d.conj())))
    for got, (bps, coeffs, values) in cases:
        expected = (PiecewiseFunction(np.array(bps), np.array(coeffs))
                    if values is None else public_copy(bps, coeffs, values))
        for name in ("breakpoints", "coeffs", "values"):
            assert same_bits(getattr(got, name), getattr(expected, name))
            assert not getattr(got, name).flags.writeable


KNOT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                        st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def spline_data(draw):
    """Uniform knots on a random domain, with values that repeat and
    include signed zeros."""
    n = draw(st.integers(4, 16))
    a = draw(st.floats(-1e3, 1e3, allow_nan=False))
    width = draw(st.floats(1e-3, 1e3, allow_nan=False))
    y = draw(hnp.arrays(float, (n,), elements=KNOT_VALUES))
    return np.linspace(a, a + width, n), y


@settings(max_examples=300)
@given(spline_data())
def test_natural_spline_matches_scipy_bits(data):
    x, y = data
    expected = CubicSpline(x, y, bc_type="natural").c[::-1].T
    assert same_bits(_natural_spline(x, y), expected)


def scipy_random_spline(domain, rng, knot_count=6, sup_bound=1.0,
                        complex_field=False):
    """The CubicSpline-based construction that random_spline reproduces."""
    knots = np.linspace(float(domain[0]), float(domain[1]), knot_count)

    def one():
        vals = rng.uniform(-1.0, 1.0, knot_count)
        cs = CubicSpline(knots, vals, bc_type="natural")
        return PiecewiseFunction(knots, cs.c[::-1].T.copy())

    f = one()
    if complex_field:
        f = f + 1j * one()
    s = f.sup_abs()
    return f * (sup_bound / s) if s > 0 else f


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 16),
       st.floats(-10.0, 10.0), st.floats(0.01, 10.0),
       st.sampled_from([1.0, 0.25, 3.0]), st.booleans())
def test_random_spline_matches_the_scipy_construction(seed, knots, a, width,
                                                      bound, complex_field):
    domain = (a, a + width)
    got = random_spline(domain, np.random.default_rng(seed), knots, bound,
                        complex_field)
    expected = scipy_random_spline(domain, np.random.default_rng(seed),
                                   knots, bound, complex_field)
    for name in ("breakpoints", "coeffs", "values"):
        assert same_bits(getattr(got, name), getattr(expected, name))


# -- the batched extreme-value kernel against the per-piece code it replaced --
#
# poly_roots, split_points, poly_extreme_values, poly_sup_abs and
# poly_variation are the per-piece functions the library ran before its
# extreme values were batched per function, kept unchanged as the
# reference.


def poly_roots(c, h):
    """Complex roots of a real ascending-coefficient polynomial considered
    on [0, h].  Leading terms below 1e-9 of the largest term on [0, h] are
    dropped and the rest scaled by a power of two (exactly), so the
    companion matrix gets no huge or, from subnormals, infinite entries.
    A root of multiplicity k comes back with an imaginary part of order
    eps**(1/k), so callers use the real parts of all roots."""
    c = np.asarray(c, dtype=float)
    s = np.float64(h)
    size = [abs(v) * s ** k for k, v in enumerate(c.tolist())]
    top = 1e-9 * max(size)
    n = max((k + 1 for k, v in enumerate(size) if v > top), default=0)
    if n <= 1:
        return np.array([], dtype=complex)
    scale = np.frexp(max(abs(v) for v in c[:n].tolist()))[1]
    return npoly.polyroots(np.ldexp(c[:n], -scale).astype(complex))


def split_points(c, h):
    """Sorted real parts, at least eps apart, of the roots of a real
    polynomial that lie strictly inside (0, h): every point where it can
    change sign.  Real parts of complex roots add harmless extra splits."""
    eps = 1e-13 * max(1.0, h)
    roots = np.sort(poly_roots(c, h).real)
    roots = roots[(roots > eps) & (roots < h - eps)]
    if roots.size == 0:
        return roots
    return roots[np.concatenate([[True], np.diff(roots) > eps])]


def poly_extreme_values(c, h):
    """Values of a real polynomial at 0, at the clipped real parts of all
    roots of its derivative, in ascending order, and at h: its extreme
    values over [0, h] are among them."""
    c = np.asarray(c, dtype=float)
    crit = np.sort(np.clip(poly_roots(npoly.polyder(c), h).real, 0.0, h))
    return npoly.polyval(np.concatenate([[0.0], crit, [h]]), c)


def poly_sup_abs(c, h):
    """Exact sup of \\|p(tau)\\| over [0, h]; supports complex coefficients."""
    if not np.any(c):
        return 0.0  # what the root path gives the zero polynomial
    if not np.iscomplexobj(c):
        return float(np.max(np.abs(poly_extreme_values(c, h))))
    sq = npoly.polymul(c, c.conj()).real  # \|p\|^2 is a real polynomial
    return float(np.sqrt(np.max(poly_extreme_values(sq, h))))


def poly_variation(c, h):
    """Total variation of the polynomial path p: [0, h] -> scalar."""
    if not np.iscomplexobj(c):
        return float(np.sum(np.abs(np.diff(poly_extreme_values(c, h)))))
    # complex path: integrate \|p'\| between zeros of \|p'\|^2
    der = npoly.polyder(c)
    sq = npoly.polymul(der, der.conj()).real
    splits = np.concatenate([[0.0], split_points(sq, h), [h]])
    nodes, wts = np.polynomial.legendre.leggauss(64)
    total = 0.0
    for lo, hi in zip(splits[:-1], splits[1:]):
        half = 0.5 * (hi - lo)
        taus = lo + half * (nodes + 1.0)
        total += half * float(np.sum(wts * np.abs(npoly.polyval(taus, der))))
    return total


WIDTHS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                   st.integers(-6, 3))


@st.composite
def kernel_row(draw, K, h):
    """One row of K ascending coefficients: random, all (signed) zeros,
    with roots of multiplicity 1..4 inside [0, h], or with its leading
    term sized around the 1e-9 trimming threshold."""
    kind = draw(st.sampled_from(["random", "zero", "rooted", "threshold"]))
    if kind == "zero":
        return draw(hnp.arrays(float, (K,),
                               elements=st.sampled_from([0.0, -0.0])))
    if kind == "rooted":
        c = np.array([draw(st.sampled_from([1.0, -1.0, 3.0, -0.5]))])
        for m in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
            if c.size + m > K:
                break
            r = draw(st.floats(0.0, 1.0)) * h
            c = npoly.polymul(c, npoly.polypow([-r, 1.0], m))
        return np.pad(c, (0, K - c.size))
    c = draw(hnp.arrays(float, (K,), elements=FINITE))
    if kind == "threshold" and K > 1:
        # the leading term's size |c_K-1| h^(K-1) is t times 1e-9 of the
        # largest other term's
        t = draw(st.sampled_from([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0]))
        top = max(abs(v) * h ** k for k, v in enumerate(c[:-1].tolist()))
        c[-1] = draw(st.sampled_from([1.0, -1.0])) * t * 1e-9 * top \
            / h ** (K - 1)
    return c


@st.composite
def kernel_rows(draw, complex_field=False):
    """(coefficient rows (m, K), widths (m,)) for degrees 0..5."""
    m = draw(st.integers(1, 6))
    K = draw(st.integers(1, 6))
    h = np.array([draw(WIDTHS) for _ in range(m)])
    c = np.array([draw(kernel_row(K, w)) for w in h]).reshape(m, K)
    if complex_field:
        c = c + 1j * np.array([draw(kernel_row(K, w)) for w in h]).reshape(
            m, K)
    return c, h


@settings(max_examples=300)
@given(kernel_rows())
def test_batched_roots_and_extremes_match_per_piece(case):
    c, h = case
    roots, count = _root_rows(c, h)
    vals, n = _extreme_rows(c, h)
    splits = _split_rows(c, h)
    for i in range(c.shape[0]):
        assert same_bits(roots[i, :count[i]], poly_roots(c[i], h[i]))
        assert np.all(np.isnan(roots[i, count[i]:]))
        expected = poly_extreme_values(c[i], h[i])
        assert same_bits(vals[i, :n[i]], expected)
        assert same_bits(vals[i, n[i]:], np.full(vals.shape[1] - n[i],
                                                 expected[-1]))
        one, k = _extreme_rows(c[i:i + 1], h[i:i + 1])
        assert same_bits(one[0, :k[0]], expected)
        assert same_bits(splits[i], split_points(c[i], h[i]))


@settings(max_examples=300)
@given(st.booleans().flatmap(kernel_rows))
def test_batched_sups_match_per_piece(case):
    c, h = case
    sups = _sup_abs_rows(c, h)
    for i in range(c.shape[0]):
        expected = poly_sup_abs(c[i], h[i])
        assert same_bits(sups[i], np.float64(expected))
        assert same_bits(_sup_abs_rows(c[i:i + 1], h[i:i + 1])[0],
                         np.float64(expected))


def sup_abs_per_piece(f):
    widths = np.diff(f.breakpoints)
    c = f.coeffs.reshape(f.coeffs.shape[:2] + (-1,))
    sups = [poly_sup_abs(q, h) for ci, h in zip(c, widths) for q in ci.T]
    end = float(np.max(np.abs(np.atleast_1d(f.values[-1]))))
    return max(max(sups), end)


def range_bounds_per_piece(f):
    widths = np.diff(f.breakpoints)
    vals = np.concatenate(
        [poly_extreme_values(c, h) for c, h in zip(f.coeffs, widths)]
        + [f.values[-1:]])
    return float(np.min(vals)), float(np.max(vals))


def derivative_sups_per_piece(f):
    widths = np.diff(f.breakpoints)
    first = (npoly.polyder(f.coeffs, axis=1) if f.coeffs.shape[1] > 1
             else np.zeros_like(f.coeffs))
    second = (npoly.polyder(first, axis=1) if first.shape[1] > 1
              else np.zeros_like(first))
    return tuple(np.array([poly_sup_abs(c, h) for c, h in zip(der, widths)])
                 for der in (first, second))


def variation_per_piece(f):
    total = sum(poly_variation(c, h)
                for c, h in zip(f.coeffs, np.diff(f.breakpoints)))
    total += sum(abs(jump) for _, jump in f.jump_points(atol=0.0))
    return float(total)


@st.composite
def kernel_functions(draw):
    """Random splines, steps and piecewise polynomials, scalar or vector,
    real or complex."""
    kind = draw(st.sampled_from(["spline", "step", "poly"]))
    complex_field = draw(st.booleans())
    if kind == "spline":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return random_spline((0.0, draw(st.floats(0.01, 100.0))), rng,
                             draw(st.integers(4, 12)),
                             draw(st.sampled_from([1.0, 1e-6, 1e4])),
                             complex_field)
    if kind == "step":
        n = draw(st.integers(1, 6))
        jumps = draw(hnp.arrays(float, (n,), elements=FINITE))
        start = 0.0
        if complex_field:
            jumps = jumps + 1j * draw(hnp.arrays(float, (n,),
                                                 elements=FINITE))
            start = 0j
        times = (np.arange(n) + 1.0) / (n + 1)
        return PiecewiseFunction.step((0.0, 1.0), times, jumps, start)
    return draw(piecewise(fields=(complex_field,)))


@settings(max_examples=200)
@given(kernel_functions())
def test_function_extremes_match_per_piece_loops(f):
    assert same_bits(f.sup_abs(), sup_abs_per_piece(f))
    if f.dim is not None:
        return
    assert all(same_bits(a, b) for a, b in
               zip(f._derivative_sups, derivative_sups_per_piece(f),
                   strict=True))
    assert same_bits(scalar_variation(f), variation_per_piece(f))
    if not np.iscomplexobj(f.coeffs):
        assert same_bits(f.range_bounds(), range_bounds_per_piece(f))


@settings(max_examples=100)
@given(piecewise(dims=(2, 3)), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_stacked_variations_match_one_function_at_a_time(x, k, seed):
    # the compositions of x with k duals share one batched pass; a block
    # of 3 takes the quadrature segments of complex arcs across blocks
    rows = np.random.default_rng(seed).normal(size=(k, x.dim))
    fs = [dual_compose(x, u) for u in rows]
    for block in (functions._SEGMENT_BLOCK, 3):
        with mock.patch.object(functions, "_SEGMENT_BLOCK", block):
            assert all(same_bits(got, variation_per_piece(f))
                       for got, f in zip(_variations(fs), fs, strict=True))


def rooted_coefficients(rng, d):
    """Random degree-d polynomial, with one root of multiplicity 2..d
    about half of the time."""
    c = rng.normal(size=d + 1) * 10.0 ** rng.integers(-3, 4)
    if rng.random() < 0.5:
        k = int(rng.integers(2, d + 1))
        rest = rng.normal(size=d - k + 1)
        c = npoly.polymul(npoly.polypow([-rng.uniform(), 1.0], k), rest)
    return c


def test_stacked_eigvals_match_one_matrix_at_a_time():
    # the kernel finds all roots of one degree with one stacked eigvals
    # call and relies on getting each matrix's own eigvals bits
    rng = np.random.default_rng(41)
    for d in range(2, 6):
        mats = np.array([npoly.polycompanion(
            rooted_coefficients(rng, d).astype(complex)) for _ in range(500)])
        expected = np.array([np.linalg.eigvals(m) for m in mats])
        assert same_bits(np.linalg.eigvals(mats), expected), d


def test_trimming_uses_scalar_powers():
    # np.power(h, k) on an array can be an ulp off h ** k; near the 1e-9
    # trimming threshold that would flip the trimmed degree
    rng = np.random.default_rng(42)
    hs = rng.uniform(1e-3, 1e3, 2000)
    for k in range(2, 7):
        scalar = np.array([h ** k for h in hs.tolist()])
        for h, p in zip(hs[np.power(hs, k) != scalar][:20],
                        scalar[np.power(hs, k) != scalar][:20]):
            c = np.zeros(k + 1)
            c[0] = 1.0
            lead = 1e-9 / p
            for step in range(-3, 4):
                c[k] = lead + step * np.spacing(lead)
                _, count = _root_rows(c[np.newaxis], [h])
                assert count[0] == poly_roots(c, h).size, (h, k, c[k])


def grid_increment_sums(x, resolution):
    """Reference for the grid mode of e_set: every selection of disjoint
    intervals between grid points, accumulated point by point as the sums
    whose last interval is closed and those whose last one is open."""
    shape = x.values.shape[1:]
    dtype = x.values.dtype
    grid = np.linspace(x.a, x.b, resolution)
    vals = x.values_at(grid).reshape(resolution, -1)
    closed = np.zeros((1, vals.shape[1]), dtype=dtype)
    open_ = np.zeros((0, vals.shape[1]), dtype=dtype)
    for v in vals:
        new_closed = np.concatenate([closed, open_ + v], axis=0)
        new_open = np.concatenate([open_, closed - v], axis=0)
        closed, open_ = _dedupe(new_closed), _dedupe(new_open)
    return closed.reshape((-1,) + shape)


def real_rows(points):
    rows = points.reshape(points.shape[0], -1)
    return np.concatenate([rows.real, rows.imag], axis=1)


def gaps_to(points, reference):
    """Max-abs distance from each row of ``points`` to its nearest row of
    ``reference``."""
    return cKDTree(real_rows(reference)).query(real_rows(points), p=np.inf)[0]


def grid_scale(x, resolution):
    return float(np.max(np.abs(x.values_at(np.linspace(x.a, x.b,
                                                       resolution)))))


@settings(max_examples=100)
@given(piecewise(dims=(1, 2, 3)), st.integers(1, 12))
def test_increment_sums_match_the_interval_recursion(x, resolution):
    # any set of grid cells is a union of disjoint intervals, so the
    # subset sums of the cell increments are the recursion's sums
    assume(not x.is_step)
    got, expected = e_set(x, resolution), grid_increment_sums(x, resolution)
    assert np.array_equal(got[0], np.zeros_like(got[0]))
    tol = 1e-9 * grid_scale(x, resolution)
    assert np.all(gaps_to(got, expected) <= tol)
    assert np.all(gaps_to(expected, got) <= tol)


@settings(max_examples=100)
@given(piecewise(dims=(None, 1, 2, 3)))
def test_coarse_grid_sums_are_fine_grid_sums(x):
    # the 5-point grid's cells are pairs of the 9-point grid's cells
    assume(not x.is_step)
    coarse, fine = e_set(x, 5), e_set(x, 9)
    tol = 1e-12 * (np.max(np.abs(fine)) + grid_scale(x, 9))
    assert np.all(gaps_to(coarse, fine) <= tol)
