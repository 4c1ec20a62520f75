"""Properties of whole refinement drives: their error estimates bound the
true error, an image stack keeps each integrand's bits through cells at
float resolution, and a deep drive, a deep pairing stack and a deep image
stack stay within their memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes.functions import (PiecewiseFunction, dual_compose,
                                 product_integral, random_spline)
from stieltjes.integrals import (_drive, _max_abs, integrate_g_dx,
                                 integrate_x_dg)
from stieltjes.spaces import Seminorm, sample_dual_ball
from test_integrals import (assert_images_match_single_drives,
                            assert_matches_reference, drive_reference)

SEEDS = st.integers(0, 2 ** 32 - 1)
JUMP_TIMES = st.lists(st.one_of(st.floats(0.01, 0.99), st.just(1.0)),
                      max_size=6, unique=True)


def smooth_part(draw, rng, dim, complex_field):
    """A cubic spline, one polynomial of degree 0-4 or zero, with one
    coordinate per ``dim`` (None: scalar)."""
    kind = draw(st.sampled_from(["spline", "poly", "zero"]))
    shape = () if dim is None else (dim,)
    unit = (1 + 1j) if complex_field else 1.0
    if kind == "spline":
        parts = [random_spline((0.0, 1.0), rng, complex_field=complex_field)
                 for _ in range(dim or 1)]
        return parts[0] if dim is None else PiecewiseFunction(
            parts[0].breakpoints, np.stack([p.coeffs for p in parts], axis=2))
    k = draw(st.integers(1, 5)) if kind == "poly" else 1
    c = rng.uniform(-2.0, 2.0, (1, k) + shape) * unit * (kind == "poly")
    return PiecewiseFunction([0.0, 1.0], c)


@st.composite
def jump_pairs(draw):
    """(x, g, seminorms) on [0, 1]: a scalar or vector x (dimension 1-3)
    and a scalar g, both real or both complex, each a smooth part plus
    jumps at times of its own, b included, so that no jump is common;
    seminorms are None (max-abs) or 1-3 of each kind, on x's dimension."""
    complex_field = draw(st.booleans())
    dim = draw(st.sampled_from([None, 1, 2, 3]))
    rng = np.random.default_rng(draw(SEEDS))
    times = draw(JUMP_TIMES)
    owners = draw(st.lists(st.booleans(), min_size=len(times),
                           max_size=len(times)))
    unit = (1 + 1j) if complex_field else 1.0
    pair = []
    for own, d in ((True, dim), (False, None)):
        func = smooth_part(draw, rng, d, complex_field)
        ts = sorted(t for t, o in zip(times, owners) if o == own)
        if ts:
            shape = (len(ts),) + (() if d is None else (d,))
            func = func + PiecewiseFunction.step(
                (0.0, 1.0), ts, rng.normal(size=shape) * unit,
                np.zeros(shape[1:]) * unit)
        pair.append(func)
    # a real example runs the real-dtype paths
    assert complex_field or all(f.coeffs.dtype == np.float64 for f in pair)
    kinds = draw(st.one_of(st.none(), st.lists(st.sampled_from(
        ["weighted-sup", "weighted-one", "quadratic"]), min_size=1,
        max_size=3)))
    sems = None
    if kinds is not None:
        n = dim or 1
        sems = tuple(
            Seminorm.quadratic(a @ a.T + 0.1 * np.eye(n))
            if kind == "quadratic" else
            Seminorm(kind, weights=rng.uniform(0.0, 3.0, n))
            for kind, a in zip(kinds, rng.normal(size=(3, n, n))))
    return pair[0], pair[1], sems


def jump_sum(f, mu):
    """sum_j f(tau_j) J_j over the jumps (tau_j, J_j) of mu, at b too."""
    return sum((f(t) * jump for t, jump in mu.jump_points(atol=0.0)), 0.0)


@settings(max_examples=150)
@given(jump_pairs())
def test_estimates_bound_the_true_error_at_every_level(case):
    # the exact integral is the integral of the product with the
    # integrator's derivative plus the integrand at each jump times the
    # jump; every level of either drive is within its estimates of it
    x, g, sems = case
    family = sems or _max_abs(x.dim or 1)
    for res, exact in (
            (integrate_g_dx(g, x, sems, tol=1e-14, max_levels=8),
             product_integral(x.derivative(), g) + jump_sum(g, x)),
            (integrate_x_dg(x, g, sems, tol=1e-14, max_levels=8),
             product_integral(x, g.derivative()) + jump_sum(x, g))):
        for rec in res.trace:
            error = np.atleast_1d(rec.value - exact)
            true = np.array([p(error) for p in family])
            assert np.all(true <= rec.estimates + 1e-12), rec.level


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_cells_that_reach_float_resolution_after_bisections(k):
    # cells k ulps wide on either side of t = 1/2 halve until one is a
    # single ulp, whose midpoint falls on an end; that level takes its
    # tags from values_at while its cells are still children of the base
    # cells, and the next one looks the partition up afresh
    p, u = 0.5, 0.5
    for _ in range(k):
        p, u = np.nextafter(p, 0.0), np.nextafter(u, 1.0)
    mu = PiecewiseFunction.from_global_polynomial([0.0, 1.0, 3.0], (0.0, 1.0))
    f = PiecewiseFunction([0.0, p, 0.5, u, 1.0],
                          [[1.0, 2.0], [-2.0, 1.0], [3.0, -1.0], [0.5, 4.0]])
    x = PiecewiseFunction(f.breakpoints,
                          np.stack([f.coeffs, -2 * f.coeffs], axis=2))
    steps = PiecewiseFunction.step((0.0, 1.0), [p, u], [1.0, -2.0], 0.0)
    for a, b in ((f, mu), (mu, f), (x, mu), (mu, x), (mu, steps + mu)):
        got = _drive((a,), (b,), None, 1e-300, 8).results[0][0]
        assert (got.levels, got.converged) == (8, False)
        assert_matches_reference(got, drive_reference(a, b, None, 1e-300, 8))


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_an_image_stack_through_cells_at_float_resolution(k):
    # the cells of the test above, under a stack of scalar integrands
    # against one vector integrator: every integrand keeps the bits of its
    # own drive through the levels whose midpoints fall on an end
    p, u = 0.5, 0.5
    for _ in range(k):
        p, u = np.nextafter(p, 0.0), np.nextafter(u, 1.0)
    f = PiecewiseFunction([0.0, p, 0.5, u, 1.0],
                          [[1.0, 2.0], [-2.0, 1.0], [3.0, -1.0], [0.5, 4.0]])
    on_ulps = [f, f * 1e-3, PiecewiseFunction(f.breakpoints, f.coeffs[::-1])]
    smooth = [PiecewiseFunction.from_global_polynomial(c, (0.0, 1.0))
              for c in ([0.0, 1.0, 3.0, 0.0], [2.0, -1.0, 0.0, 0.0],
                        [0.5, 0.0, 0.0, 4.0])]
    x = PiecewiseFunction(f.breakpoints,
                          np.stack([f.coeffs, -2 * f.coeffs], axis=2))
    v = PiecewiseFunction([0.0, 1.0], [[[0.0, 1.0], [1.0, 2.0], [3.0, -1.0]]])
    steps = PiecewiseFunction.step((0.0, 1.0), [p, u],
                                   [[1.0, 0.5], [-2.0, 1.0]], [0.0, 0.0])
    for gs, mu in ((smooth, x), (smooth, steps + v), (on_ulps, v)):
        single = assert_images_match_single_drives(gs, mu, None, 1e-300, 8)
        assert all((r.levels, r.converged) == (8, False) for r in single)


def spline_pair(seed):
    """A scalar spline g and a 3-dim spline x on one knot grid."""
    rng = np.random.default_rng(seed)
    g = random_spline((0.0, 1.0), rng)
    parts = [random_spline((0.0, 1.0), rng) for _ in range(3)]
    return g, PiecewiseFunction(parts[0].breakpoints,
                                np.stack([p.coeffs for p in parts], axis=2))


# the traced peak of the drive below, in bytes, with numpy 2.4 on CPython
# 3.11, levels in tiles of 2^14 cells and nothing per cell kept past its
# tile; whole-level integrator values, widths and midpoints took it to
# 5.99e6, whole-level (rows, cells) arrays to 9.47e6, per-cell piece
# indices and envelope products to 11.03e6
DEEP_DRIVE_PEAK = 2.38e6


def test_a_deep_vector_drive_stays_within_its_memory():
    # 14 levels, 98304 cells at the last: the drive holds its points and
    # base-cell data per level, works in tiles of at most 2^14 cells and
    # broadcasts its piece lookups from the base cells, so its peak may not
    # grow past the figure measured for that
    integrate_g_dx(*spline_pair(0), tol=1e-7)  # lazy imports and caches
    g, x = spline_pair(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = integrate_g_dx(g, x, tol=1e-7)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.levels >= 14 and res.converged
    assert peak <= 1.1 * DEEP_DRIVE_PEAK, peak


def image_stack(seed):
    """Five spline integrands on one knot grid and the 3-dim spline x of
    ``spline_pair(seed)``: the image drive of one roundtrip item."""
    rng = np.random.default_rng(seed)
    _, x = spline_pair(seed)
    return [random_spline((0.0, 1.0), rng) for _ in range(5)], x


def pairing_stack(seed):
    """The integrands of ``image_stack(seed)`` and the compositions of its
    x with five duals of the max-abs polar ball: the pairing drives of one
    roundtrip item."""
    gs, x = image_stack(seed)
    duals = sample_dual_ball(np.eye(3), 5, seed=seed)
    return gs, [dual_compose(x, np.asarray(d)) for d in duals]


# the traced peak of the stack below, in bytes, with numpy 2.4 on CPython
# 3.11, levels in tiles of 2^14 cells and nothing per cell kept past its
# tile; whole-level integrator values, widths and midpoints took it to
# 5.75e6, one whole-level (integrators, cells) block per integrand to
# 9.64e6, one (25, cells) block per level for all pairs to 17.49e6
PAIRING_STACK_PEAK = 3.08e6


def test_a_deep_pairing_stack_stays_within_its_memory():
    # 12-14 levels, 98304 cells at the last: the products and estimates
    # are one (live integrators, tile cells) buffer per level, so the peak
    # may not grow past the figure measured for that
    _drive(*pairing_stack(0), None, 1e-7)  # lazy imports and caches
    gs, columns = pairing_stack(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = _drive(gs, columns, None, 1e-7).results
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert max(r.levels for row in results for r in row) >= 13
    assert all(r.converged for row in results for r in row)
    assert peak <= 1.1 * PAIRING_STACK_PEAK, peak


# the traced peak of the stack below, in bytes, with numpy 2.4 on CPython
# 3.11, levels in tiles of 2^14 cells and nothing per cell kept past its
# tile; whole-level integrator values, widths and midpoints took it to
# 6.26e6, whole-level (integrands, cells) arrays to 15.00e6
IMAGE_STACK_PEAK = 2.81e6


def test_a_deep_image_stack_stays_within_its_memory():
    # 14 levels, 98304 cells at the last: the integrands' values are one
    # (integrands, tile cells) buffer, and their products and estimates
    # one (coordinates or seminorms, tile cells) buffer per level, so the
    # peak may not grow past the figure measured for that
    gs, x = image_stack(0)
    _drive(gs, (x,), None, 1e-7)  # lazy imports and caches
    gs, x = image_stack(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        drive = _drive(gs, (x,), None, 1e-7)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert drive.levels >= 14 and drive.converged
    assert peak <= 1.1 * IMAGE_STACK_PEAK, peak
