import copy
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import simpson

from stieltjes.errors import ArgumentError
from stieltjes.functions import (PiecewiseFunction, TaggedPartition,
                                 _sup_abs_rows, dual_compose, product_integral,
                                 random_spline, scalar_variation,
                                 uniform_tagged_partition)
from stieltjes.integrals import integrate_g_dx
from test_kernels import range_bounds


def single_jump():
    return PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0, -2.0]],
                                  [0.0, 0.0])


def test_constant_function():
    f = PiecewiseFunction.constant([1.0, -2.0], (0.0, 1.0))
    np.testing.assert_array_equal(f(0.0), [1.0, -2.0])
    np.testing.assert_array_equal(f(0.7), [1.0, -2.0])
    assert f.is_step
    assert f.dim == 2


def test_step_right_continuous_at_jump():
    x = single_jump()
    np.testing.assert_array_equal(x(0.5), [1.0, -2.0])
    np.testing.assert_array_equal(x(0.25), [0.0, 0.0])
    np.testing.assert_array_equal(x(1.0), [1.0, -2.0])
    assert x.is_step


def test_step_jump_at_right_endpoint():
    x = PiecewiseFunction.step((0.0, 1.0), [1.0], [2.0], 0.0)
    assert x(0.999) == 0.0
    assert x(1.0) == 2.0
    (t, jump), = x.jump_points()
    assert t == 1.0 and jump == 2.0


def test_a_step_with_no_jump_at_b_lists_none():
    # the end value is the last level, not start plus a sum of all jumps,
    # which rounds apart from the cumsum of the levels: a residue at b
    # was listed as a jump there, and refused against an integrator that
    # jumps at b
    z = PiecewiseFunction.step((0.0, 1.0), [0.2, 0.4, 0.6, 0.8],
                               [0.1 + 0.1j, 0.2 + 0.2j, 0.3 + 0.3j,
                                -0.7 - 0.7j], 0j)
    assert z._jump_times == (0.2, 0.4, 0.6, 0.8)
    jumps = [0.1] * 9 + [-0.9]
    s = PiecewiseFunction.step((0.0, 1.0), np.linspace(0.05, 0.95, 10),
                               jumps, 0.0)
    assert [t for t, _ in s.jump_points()] \
        == np.linspace(0.05, 0.95, 10).tolist()
    assert s.values[-1] == s.values[-2] == s.coeffs[-1, 0]
    x = PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0)) \
        + PiecewiseFunction.step((0.0, 1.0), [1.0], [1.0], 0.0)
    assert integrate_g_dx(s, x, max_levels=2).levels == 2
    # a jump at b adds to the last level
    end = PiecewiseFunction.step((0.0, 1.0), np.linspace(0.05, 1.0, 10),
                                 jumps, 0.0)
    assert end.values[-1] == end.coeffs[-1, 0] + jumps[-1]
    assert end._jump_times[-1] == 1.0


def test_step_rejects_bad_times():
    with pytest.raises(ArgumentError):
        PiecewiseFunction.step((0.0, 1.0), [0.0], [1.0], 0.0)
    with pytest.raises(ArgumentError):
        PiecewiseFunction.step((0.0, 1.0), [0.6, 0.4], [1.0, 1.0], 0.0)
    with pytest.raises(ArgumentError):
        PiecewiseFunction.step((0.0, 1.0), [1.5], [1.0], 0.0)


def test_global_polynomial_evaluation():
    g = PiecewiseFunction.from_global_polynomial([0.0, 0.0, 1.0], (0.0, 1.0))
    assert g(0.5) == 0.25
    assert g(1.0) == 1.0
    assert not g.is_step
    h = PiecewiseFunction.from_global_polynomial([0.0, 1.0], (2.0, 3.0))
    assert h(2.5) == 2.5


@pytest.mark.parametrize("coeffs", [[0, 1], [3, -2, 1], [0, 1j], [2, 1 + 1j]])
def test_global_polynomial_of_integer_coefficients(coeffs):
    # integers are cast once, as by the constructor; complex stays complex
    exact = [complex(c) if isinstance(c, complex) else float(c)
             for c in coeffs]
    for domain in ((0, 1), (2.0, 3.0)):
        g = PiecewiseFunction.from_global_polynomial(coeffs, domain)
        h = PiecewiseFunction.from_global_polynomial(exact, domain)
        assert g.coeffs.dtype == h.coeffs.dtype
        assert g.coeffs.dtype == (complex if any(isinstance(c, complex)
                                                 for c in coeffs) else float)
        np.testing.assert_array_equal(g.coeffs, h.coeffs)
        np.testing.assert_array_equal(g.values, h.values)


def test_jump_points():
    x = single_jump()
    pts = x.jump_points()
    assert len(pts) == 1
    assert pts[0][0] == 0.5
    np.testing.assert_array_equal(pts[0][1], [1.0, -2.0])

    g = PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))
    assert g.jump_points() == []

    two = PiecewiseFunction.step((0.0, 1.0), [0.25, 0.75], [1.0, -3.0], 0.0)
    ts = [t for t, _ in two.jump_points()]
    assert ts == [0.25, 0.75]


def test_values_at_matches_evaluate():
    rng = np.random.default_rng(8)
    x = PiecewiseFunction(np.array([0.0, 0.4, 1.0]),
                          rng.standard_normal((2, 3, 2)))
    ts = rng.uniform(0.0, 1.0, 40)
    batch = x.values_at(ts)
    for t, row in zip(ts, batch):
        np.testing.assert_allclose(row, x(t), rtol=1e-14, atol=1e-15)


def test_evaluation_outside_domain_rejected():
    g = PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))
    try:
        g(1.5)
    except ArgumentError:
        pass
    else:
        raise AssertionError("expected ArgumentError for t outside [0, 1]")


def test_values_shape_and_continuity_validation():
    bps = np.array([0.0, 0.5, 1.0])
    coeffs = np.zeros((2, 1))
    with pytest.raises(ArgumentError):
        PiecewiseFunction(bps, coeffs, values=np.zeros(4))
    # interior value disagreeing with the piece start is not right-continuous
    with pytest.raises(ArgumentError):
        PiecewiseFunction(bps, coeffs, values=np.array([0.0, 1.0, 0.0]))
    # a free value at b encodes a jump there
    f = PiecewiseFunction(bps, coeffs, values=np.array([0.0, 0.0, 3.0]))
    assert f(1.0) == 3.0


def test_degree_cap():
    with pytest.raises(ArgumentError):
        PiecewiseFunction(np.array([0.0, 1.0]), np.zeros((1, 8)))


def test_breakpoint_validation():
    with pytest.raises(ArgumentError):
        PiecewiseFunction(np.array([0.0, 0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ArgumentError):
        PiecewiseFunction(np.array([0.0]), np.zeros((0, 1)))
    with pytest.raises(ArgumentError):
        PiecewiseFunction(np.array([0.0, 1.0]), np.zeros((3, 1)))


def test_arithmetic_pointwise():
    rng = np.random.default_rng(9)
    f = PiecewiseFunction(np.array([0.0, 0.3, 1.0]),
                          rng.standard_normal((2, 3)))
    g = PiecewiseFunction.from_global_polynomial([1.0, -2.0, 0.5], (0.0, 1.0))
    ts = rng.uniform(0.0, 1.0, 30)
    for t in ts:
        np.testing.assert_allclose((f + g)(t), f(t) + g(t), atol=1e-14)
        np.testing.assert_allclose((f - g)(t), f(t) - g(t), atol=1e-14)
        np.testing.assert_allclose((2.5 * f)(t), 2.5 * f(t), atol=1e-14)
        np.testing.assert_allclose((-f)(t), -f(t), atol=1e-14)


def test_arithmetic_keeps_jumps():
    x = single_jump()
    y = x + PiecewiseFunction.constant([1.0, 1.0], (0.0, 1.0))
    (t, jump), = y.jump_points()
    assert t == 0.5
    np.testing.assert_allclose(jump, [1.0, -2.0])


def test_real_imag_parts():
    f = PiecewiseFunction.from_global_polynomial([1.0 + 2.0j, -1.0j],
                                                 (0.0, 1.0))
    assert f.real_part()(0.5) == 1.0
    assert f.imag_part()(0.5) == 1.5


def test_restrict():
    x = single_jump()
    y = x.restrict(0.25, 0.75)
    assert y.domain == (0.25, 0.75)
    np.testing.assert_array_equal(y(0.3), [0.0, 0.0])
    np.testing.assert_array_equal(y(0.5), [1.0, -2.0])
    assert len(y.jump_points()) == 1
    with pytest.raises(ArgumentError):
        x.restrict(0.5, 0.5)
    with pytest.raises(ArgumentError):
        x.restrict(-0.1, 0.5)


def test_sup_abs_and_range():
    g = PiecewiseFunction.from_global_polynomial([0.0, -1.0], (0.0, 1.0))
    assert g.sup_abs() == 1.0
    assert range_bounds(g) == (-1.0, 0.0)
    # interior extremum of t(1 - t) at t = 1/2
    h = PiecewiseFunction.from_global_polynomial([0.0, 1.0, -1.0], (0.0, 1.0))
    assert math.isclose(h.sup_abs(), 0.25, rel_tol=1e-13)
    x = PiecewiseFunction.step((0.0, 1.0), [0.5], [-3.0], 1.0)
    assert x.sup_abs() == 2.0
    assert range_bounds(x) == (-2.0, 1.0)


def test_derivative():
    g = PiecewiseFunction.from_global_polynomial([0.0, 0.0, 1.0], (0.0, 1.0))
    dg = g.derivative()
    for t in np.linspace(0.0, 1.0, 11):
        assert math.isclose(dg(t), 2.0 * t, abs_tol=1e-14)
    x = single_jump()
    assert x.derivative().sup_abs() == 0.0


def test_uniform_partition_left_rule():
    part = uniform_tagged_partition(0.0, 1.0, 4, rule="left")
    np.testing.assert_allclose(part.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(part.tags, [0.0, 0.25, 0.5, 0.75])
    assert np.max(np.diff(part.points)) == 0.25
    assert part.tags.size == 4


def test_uniform_partition_single_cell():
    part = uniform_tagged_partition(0.0, 1.0, 1)
    np.testing.assert_allclose(part.points, [0.0, 1.0])
    np.testing.assert_allclose(part.tags, [0.5])


def test_uniform_partition_validation():
    with pytest.raises(ArgumentError):
        uniform_tagged_partition(0.0, 1.0, 0)
    with pytest.raises(ArgumentError):
        uniform_tagged_partition(1.0, 0.0, 4)
    with pytest.raises(ArgumentError):
        uniform_tagged_partition(0.0, 1.0, 4, rule="random")


def test_partition_validation():
    with pytest.raises(ArgumentError):
        TaggedPartition(np.array([0.0, 1.0]), np.array([1.5]))
    with pytest.raises(ArgumentError):
        TaggedPartition(np.array([0.0, 1.0]), np.array([0.2, 0.8]))
    with pytest.raises(ArgumentError):
        TaggedPartition(np.array([1.0, 0.0]), np.array([0.5]))


def test_scalar_variation_examples():
    g = PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))
    assert scalar_variation(g) == 1.0
    c = PiecewiseFunction.constant(4.0, (0.0, 1.0))
    assert scalar_variation(c) == 0.0
    # (t - 0.3)(t - 0.7) falls then rises: |f(1/2) - f(0)| + |f(1) - f(1/2)|
    q = PiecewiseFunction.from_global_polynomial([0.21, -1.0, 1.0],
                                                 (0.0, 1.0))
    assert math.isclose(scalar_variation(q), 0.5, rel_tol=1e-13)


def test_scalar_variation_of_composed_step():
    x = single_jump()
    f = dual_compose(x, np.array([1.0, 1.0]))
    assert f(0.25) == 0.0
    assert f(0.75) == -1.0
    assert scalar_variation(f) == 1.0


def test_scalar_variation_rejects_vector_values():
    x = single_jump()
    with pytest.raises(ArgumentError):
        scalar_variation(x)


def test_partition_sums_approach_variation():
    # vertex of (t - 1/3)^2 is never a dyadic point, so every refinement
    # level keeps a strict deficit that shrinks like mesh^2
    f = PiecewiseFunction.from_global_polynomial([1.0 / 9.0, -2.0 / 3.0, 1.0],
                                                 (0.0, 1.0))
    total = scalar_variation(f)
    assert math.isclose(total, 5.0 / 9.0, rel_tol=1e-13)
    points = np.array([0.0, 1.0])
    prev = 0.0
    for _ in range(17):
        vals = f.values_at(points)
        psum = float(np.sum(np.abs(np.diff(vals))))
        assert psum <= total + 1e-12
        assert psum >= prev - 1e-12
        prev = psum
        mids = 0.5 * (points[:-1] + points[1:])
        points = np.sort(np.concatenate([points, mids]))
    assert total - prev < 1e-9


def test_dual_compose_conjugates():
    x = PiecewiseFunction.constant([1.0j, 0.0], (0.0, 1.0))
    f = dual_compose(x, np.array([1.0j, 0.0]))
    assert f(0.5) == 1.0 + 0.0j
    with pytest.raises(ArgumentError):
        dual_compose(x, np.array([1.0, 0.0, 0.0]))


def test_product_integral():
    x = PiecewiseFunction(np.array([0.0, 1.0]),
                          np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))
    g = PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))
    np.testing.assert_allclose(product_integral(x, g),
                               [1.0 / 3.0, 1.0 / 4.0], rtol=1e-14)
    with pytest.raises(ArgumentError):
        product_integral(g, x)


def test_product_integral_merges_grids():
    rng = np.random.default_rng(10)
    f = random_spline((0.0, 1.0), rng, knot_count=5)
    g = random_spline((0.0, 1.0), rng, knot_count=7)
    exact = product_integral(f, g)
    ts = np.linspace(0.0, 1.0, 20001)
    approx = simpson(f.values_at(ts) * g.values_at(ts), x=ts)
    np.testing.assert_allclose(exact, approx, atol=1e-12)


@pytest.mark.parametrize("lead", [1e-13, 1e-121, 5e-324])
def test_range_with_a_negligible_leading_term(lead):
    # the cubic term is far below float resolution on the piece; left in,
    # it swamps the companion matrix and hides the maximum near t = 0.92
    f = PiecewiseFunction([0.0, 1.5], [[215.0, 612.0, -332.0, lead]])
    peak = 215.0 + 612.0 ** 2 / (4 * 332.0)
    lo, hi = range_bounds(f)
    assert lo == 215.0
    assert math.isclose(hi, peak, rel_tol=1e-12)
    assert math.isclose(f.sup_abs(), peak, rel_tol=1e-12)


def test_extremes_at_a_triple_critical_point():
    # p = 1 - (t - 1/2)^4: np.polyroots returns the triple root of p' with
    # imaginary parts near 1e-6, and its real parts must still be candidates
    c = [0.9375, 0.5, -1.5, 2.0, -1.0]
    assert _sup_abs_rows(np.array([c]), [1.0])[0] == 1.0
    f = PiecewiseFunction([0.0, 1.0], [c])
    assert range_bounds(f) == (0.9375, 1.0)
    assert math.isclose(scalar_variation(f), 0.125, rel_tol=1e-12)


def test_complex_variation_splits_where_the_path_stops():
    # p = (t - 1/2)^2 + i (t - 1/2)^3 stops at t = 1/2, a double root of
    # \|p'\|^2 = (t - 1/2)^2 (4 + 9 (t - 1/2)^2); quadrature across the
    # kink of \|p'\| there is off by 1e-4
    c = np.array([0.25, -1.0, 1.0, 0.0]) + 1j * np.array([-0.125, 0.75,
                                                          -1.5, 1.0])
    f = PiecewiseFunction([0.0, 1.0], [c])
    exact = 2.0 * (6.25 ** 1.5 - 8.0) / 27.0
    assert math.isclose(scalar_variation(f), exact, rel_tol=1e-12)


def test_random_spline_contract():
    rng = np.random.default_rng(123)
    f = random_spline((0.0, 1.0), rng)
    assert math.isclose(f.sup_abs(), 1.0, rel_tol=1e-12)
    assert not f.jump_points()
    g = random_spline((0.0, 1.0), np.random.default_rng(123))
    np.testing.assert_array_equal(f.coeffs, g.coeffs)
    z = 0.25 * random_spline((0.0, 1.0), rng, complex_field=True)
    assert math.isclose(z.sup_abs(), 0.25, rel_tol=1e-12)
    assert np.iscomplexobj(z.coeffs)
    with pytest.raises(ArgumentError):
        random_spline((0.0, 1.0), rng, knot_count=3)


def spline_with_jumps():
    g = random_spline((0.0, 1.0), np.random.default_rng(5))
    return g + PiecewiseFunction.step((0.0, 1.0), [0.3, 1.0], [2.0, -1.0],
                                      0.0)


@pytest.mark.parametrize("make", [
    spline_with_jumps,
    lambda: spline_with_jumps().derivative(),
    lambda: 2.0 * spline_with_jumps(),
    lambda: dual_compose(single_jump(), np.array([1.0, 1j])),
])
def test_stored_arrays_are_read_only(make):
    f = make()
    for arr in (f.breakpoints, f.coeffs, f.values):
        with pytest.raises(ValueError):
            arr[0] = 7.0


@pytest.mark.parametrize("copy_of", [
    copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
def test_copies_keep_arrays_read_only(copy_of):
    f = spline_with_jumps()
    assert f._jump_times == (0.3, 1.0)
    g = copy_of(f)
    for arr in (g.breakpoints, g.coeffs, g.values):
        with pytest.raises(ValueError):
            arr[-1] = 7.0
    assert g._jump_times == (0.3, 1.0)


def test_constructor_copies_the_callers_arrays():
    bps = np.array([0.0, 0.5, 1.0])
    coeffs = np.array([[1.0, 2.0], [3.0, 0.0]]) + 0j
    values = np.array([1.0, 3.0, 5.0])
    f = PiecewiseFunction(bps, coeffs, values)
    for mine, stored in ((bps, f.breakpoints), (coeffs, f.coeffs),
                         (values, f.values)):
        assert mine.flags.writeable
        assert not np.shares_memory(mine, stored)
    bps[1] = 0.25
    assert f.breakpoints[1] == 0.5


def test_cached_derived_data_matches_a_fresh_computation():
    f = spline_with_jumps()
    times, sups = f._jump_times, f._derivative_sups
    assert f._jump_times is times and f._derivative_sups is sups
    fresh = PiecewiseFunction(f.breakpoints, f.coeffs, f.values)
    assert times == fresh._jump_times == (0.3, 1.0)
    for a, b in zip(sups, fresh._derivative_sups, strict=True):
        assert np.array_equal(a, b)
