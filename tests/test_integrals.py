import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes.errors import ArgumentError, ExistenceError
from stieltjes.functions import (PiecewiseFunction, TaggedPartition,
                                 product_integral, random_spline,
                                 uniform_tagged_partition)
from stieltjes.integrals import (exact_step_integral, integrate_g_dx,
                                 integrate_x_dg, per_partes, rs_sum_S,
                                 rs_sum_s)
from stieltjes.representation import StieltjesOperator
from stieltjes.spaces import Seminorm, SpaceModel


def single_jump():
    return PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0, -2.0]],
                                  [0.0, 0.0])


def monotone_pair():
    coeffs = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    return PiecewiseFunction(np.array([0.0, 1.0]), coeffs)


def ramp():
    return PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))


def test_rs_sum_S_constant_integrand():
    x = PiecewiseFunction.constant([2.0, -1.0], (0.0, 1.0))
    part = uniform_tagged_partition(0.0, 1.0, 5, rule="right")
    np.testing.assert_allclose(rs_sum_S(x, ramp(), part), [2.0, -1.0])


def test_rs_sum_S_midpoint_two_cells():
    part = uniform_tagged_partition(0.0, 1.0, 2)
    np.testing.assert_allclose(rs_sum_S(monotone_pair(), ramp(), part),
                               [0.5, 0.3125])


def test_rs_sum_S_constant_integrator():
    g = PiecewiseFunction.constant(7.0, (0.0, 1.0))
    part = uniform_tagged_partition(0.0, 1.0, 4)
    np.testing.assert_array_equal(rs_sum_S(monotone_pair(), g, part),
                                  [0.0, 0.0])


def test_rs_sum_s_constant_one():
    part = uniform_tagged_partition(0.0, 1.0, 3, rule="left")
    g = PiecewiseFunction.constant(1.0, (0.0, 1.0))
    np.testing.assert_allclose(rs_sum_s(g, single_jump(), part),
                               [1.0, -2.0])


def test_rs_sum_s_left_tags_step_integrator():
    part = TaggedPartition.from_points([0.0, 0.4, 1.0], rule="left")
    np.testing.assert_allclose(rs_sum_s(ramp(), single_jump(), part),
                               [0.4, -0.8])


def test_rs_sum_s_zero_integrand():
    part = uniform_tagged_partition(0.0, 1.0, 3)
    g = PiecewiseFunction.constant(0.0, (0.0, 1.0))
    np.testing.assert_array_equal(rs_sum_s(g, single_jump(), part),
                                  [0.0, 0.0])


def test_rs_sums_reject_bad_input():
    part = uniform_tagged_partition(0.0, 1.0, 2)
    with pytest.raises(ArgumentError):
        rs_sum_S(monotone_pair(), monotone_pair(), part)
    short = uniform_tagged_partition(0.0, 0.5, 2)
    with pytest.raises(ArgumentError):
        rs_sum_s(ramp(), single_jump(), short)
    g2 = PiecewiseFunction.constant(1.0, (0.0, 2.0))
    with pytest.raises(ArgumentError):
        rs_sum_s(g2, single_jump(), part)


def test_sum_identity_per_partition():
    # S_d(x, g) = x(b)g(b) - x(a)g(a) - sum_i g(t_i)[x(s_{i+1}) - x(s_i)]
    # with s_0 = a and s_{n+1} = b; pure algebra, so exact per partition
    rng = np.random.default_rng(21)
    for _ in range(25):
        x = PiecewiseFunction(np.array([0.0, 0.45, 1.0]),
                              rng.standard_normal((2, 3, 2)))
        g = PiecewiseFunction(np.array([0.0, 0.6, 1.0]),
                              rng.standard_normal((2, 3)))
        n = int(rng.integers(1, 9))
        pts = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, n - 1)),
                              [1.0]])
        if np.any(np.diff(pts) <= 0):
            continue
        tags = rng.uniform(pts[:-1], pts[1:])
        part = TaggedPartition(pts, tags)
        lhs = rs_sum_S(x, g, part)
        s_ext = np.concatenate([[0.0], tags, [1.0]])
        dual = sum(g(pts[i]) * (x(s_ext[i + 1]) - x(s_ext[i]))
                   for i in range(n + 1))
        boundary = x(1.0) * g(1.0) - x(0.0) * g(0.0)
        np.testing.assert_allclose(lhs, boundary - dual, atol=1e-12)


def test_integrate_g_dx_step_integrator():
    res = integrate_g_dx(ramp(), single_jump())
    np.testing.assert_allclose(res.value, [0.5, -1.0], atol=1e-12)
    assert res.converged


def test_integrate_g_dx_constant_one():
    g = PiecewiseFunction.constant(1.0, (0.0, 1.0))
    res = integrate_g_dx(g, monotone_pair())
    np.testing.assert_allclose(res.value, [1.0, 1.0], atol=1e-12)


def test_integrate_g_dx_smooth():
    res = integrate_g_dx(ramp(), monotone_pair())
    np.testing.assert_allclose(res.value, [0.5, 2.0 / 3.0], atol=1e-8)
    assert res.converged


def test_integrate_x_dg_smooth():
    res = integrate_x_dg(monotone_pair(), ramp())
    np.testing.assert_allclose(res.value, [0.5, 1.0 / 3.0], atol=1e-8)


def test_integrate_x_dg_constant_integrator():
    g = PiecewiseFunction.constant(4.0, (0.0, 1.0))
    res = integrate_x_dg(monotone_pair(), g)
    np.testing.assert_allclose(res.value, [0.0, 0.0], atol=1e-12)


def test_integrate_x_dg_constant_integrand():
    x = PiecewiseFunction.constant([3.0, -2.0], (0.0, 1.0))
    res = integrate_x_dg(x, ramp())
    np.testing.assert_allclose(res.value, [3.0, -2.0], atol=1e-12)


def test_common_jump_refused():
    g = PiecewiseFunction.step((0.0, 1.0), [0.5], [1.0], 0.0)
    try:
        integrate_g_dx(g, single_jump())
    except ExistenceError as err:
        assert "0.5" in str(err)
    else:
        raise AssertionError("expected ExistenceError for a common jump")
    with pytest.raises(ExistenceError):
        per_partes(single_jump(), g)


def test_per_partes_step_linear():
    rep = per_partes(single_jump(), ramp())
    np.testing.assert_allclose(rep.lhs, [0.5, -1.0], atol=1e-10)
    np.testing.assert_allclose(rep.rhs, [0.5, -1.0], atol=1e-10)
    np.testing.assert_allclose(rep.boundary, [1.0, -2.0], atol=1e-14)
    assert rep.max_gap < 1e-10
    assert rep.converged


def test_per_partes_constant_integrator():
    g = PiecewiseFunction.constant(2.0, (0.0, 1.0))
    rep = per_partes(single_jump(), g)
    np.testing.assert_allclose(rep.lhs, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(rep.rhs, [2.0, -4.0], atol=1e-12)
    assert rep.max_gap < 1e-12


def test_per_partes_smooth_pair():
    rep = per_partes(monotone_pair(), ramp())
    np.testing.assert_allclose(rep.lhs, [0.5, 1.0 / 3.0], atol=1e-8)
    np.testing.assert_allclose(rep.rhs, [0.5, 2.0 / 3.0], atol=1e-8)
    assert rep.max_gap < 2e-8


def test_exact_step_integral_examples():
    g = PiecewiseFunction.from_global_polynomial([0.0, 0.0, 1.0], (0.0, 1.0))
    x = PiecewiseFunction.step((0.0, 1.0), [1.0 / 3.0, 2.0 / 3.0],
                               [[1.0, 0.0], [-1.0, 1.0]], [0.0, 0.0])
    np.testing.assert_allclose(exact_step_integral(g, x),
                               [-1.0 / 3.0, 4.0 / 9.0], rtol=1e-14)

    zero = PiecewiseFunction.constant(0.0, (0.0, 1.0))
    np.testing.assert_array_equal(exact_step_integral(zero, x), [0.0, 0.0])

    one = PiecewiseFunction.constant(1.0, (0.0, 1.0))
    np.testing.assert_allclose(exact_step_integral(one, single_jump()),
                               [1.0, -2.0])


def test_exact_step_integral_validation():
    one = PiecewiseFunction.constant(1.0, (0.0, 1.0))
    with pytest.raises(ArgumentError):
        exact_step_integral(one, monotone_pair())
    g = PiecewiseFunction.step((0.0, 1.0), [0.5], [1.0], 0.0)
    with pytest.raises(ExistenceError):
        exact_step_integral(g, single_jump())


def test_driver_matches_step_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        m = int(rng.integers(1, 8))
        times = np.sort(rng.uniform(0.05, 0.95, m))
        if np.any(np.diff(times) <= 1e-3):
            continue
        x = PiecewiseFunction.step((0.0, 1.0), times,
                                   rng.standard_normal((m, 2)), np.zeros(2))
        g = random_spline((0.0, 1.0), rng)
        res = integrate_g_dx(g, x)
        oracle = exact_step_integral(g, x)
        np.testing.assert_allclose(res.value, oracle, atol=1e-8)
        assert res.converged


def test_driver_matches_smooth_oracle():
    rng = np.random.default_rng(23)
    for _ in range(6):
        x = random_spline((0.0, 1.0), rng)
        g = random_spline((0.0, 1.0), rng)
        res = integrate_x_dg(x, g)
        oracle = product_integral(x, g.derivative())
        np.testing.assert_allclose(res.value, oracle, atol=1e-7)


def test_linearity_in_both_slots():
    rng = np.random.default_rng(24)
    x = PiecewiseFunction.step((0.0, 1.0), [0.3, 0.7],
                               rng.standard_normal((2, 2)), np.zeros(2))
    g1 = random_spline((0.0, 1.0), rng)
    g2 = random_spline((0.0, 1.0), rng)
    lhs = integrate_g_dx(g1 + 2.0 * g2, x).value
    rhs = integrate_g_dx(g1, x).value + 2.0 * integrate_g_dx(g2, x).value
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    y = PiecewiseFunction.step((0.0, 1.0), [0.4],
                               rng.standard_normal((1, 2)), np.zeros(2))
    lhs = integrate_g_dx(g1, x + 3.0 * y).value
    rhs = integrate_g_dx(g1, x).value + 3.0 * integrate_g_dx(g1, y).value
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_tag_rule_independence_at_convergence():
    tol = 1e-3
    x = monotone_pair()
    g = PiecewiseFunction.from_global_polynomial([0.0, 0.5, 0.5], (0.0, 1.0))
    res = integrate_x_dg(x, g, tol=tol)
    assert res.converged
    for rule in ("left", "midpoint", "right"):
        part = uniform_tagged_partition(0.0, 1.0, 20000, rule=rule)
        gap = np.max(np.abs(rs_sum_S(x, g, part) - res.value))
        assert gap < 2.0 * tol


def test_estimates_bound_true_error():
    g = PiecewiseFunction.from_global_polynomial([0.0, -0.5, 1.0],
                                                 (0.0, 1.0))
    x = single_jump()
    res = integrate_g_dx(g, x, tol=1e-10)
    exact = exact_step_integral(g, x)
    for rec in res.trace:
        true_err = float(np.max(np.abs(rec.value - exact)))
        assert true_err <= float(np.max(rec.estimates)) + 1e-12
    ests = np.array([np.max(r.estimates) for r in res.trace])
    assert np.all(np.diff(ests) <= 1e-15)


def test_estimates_bound_true_error_smooth():
    x = monotone_pair()
    g = PiecewiseFunction.from_global_polynomial([0.1, 1.0, -0.4], (0.0, 1.0))
    res = integrate_x_dg(x, g, tol=1e-10)
    exact = product_integral(x, g.derivative())
    for rec in res.trace:
        true_err = float(np.max(np.abs(rec.value - exact)))
        assert true_err <= float(np.max(rec.estimates)) + 1e-12


def test_converged_means_estimates_below_tol():
    rng = np.random.default_rng(25)
    for tol in (1e-5, 1e-8):
        g = random_spline((0.0, 1.0), rng)
        x = PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5, 0.75],
                                   rng.standard_normal((3, 2)), np.zeros(2))
        res = integrate_g_dx(g, x, tol=tol)
        assert res.converged
        assert np.all(res.error_estimates >= 0.0)
        assert np.all(res.error_estimates < tol)


def test_custom_seminorms_reported():
    p = Seminorm.weighted_one([1.0, 1.0])
    q = Seminorm.weighted_sup([2.0, 0.0])
    res = integrate_g_dx(ramp(), single_jump(), seminorms=(p, q))
    assert res.error_estimates.shape == (2,)
    rep = per_partes(single_jump(), ramp(), seminorms=(p, q))
    assert rep.gaps.shape == (2,)
    assert rep.max_gap < 1e-10


SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e4, 1e6, 1e8])
SEEDS = st.integers(0, 2 ** 32 - 1)


def unit_step_operator():
    space = SpaceModel(1, "real", (Seminorm.weighted_sup(np.ones(1)),))
    x = PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0]], [0.0])
    return StieltjesOperator(space, x)


@settings(max_examples=40)
@given(SCALES, SEEDS)
def test_continuous_sums_exist_at_every_scale(s, seed):
    # s*spline + s*spline disagrees with its stored breakpoint values by a
    # few ulp of s; that rounding must not read as a jump at any scale
    spline = random_spline((0.0, 1.0), np.random.default_rng(seed))
    x = s * spline + s * spline
    assert integrate_g_dx(x, x, max_levels=2).levels == 2
    unit_step_operator().apply(x)


@settings(max_examples=40)
@given(SCALES, SEEDS)
def test_a_common_jump_is_refused_at_every_scale(s, seed):
    spline = random_spline((0.0, 1.0), np.random.default_rng(seed))
    x = s * spline + PiecewiseFunction.step((0.0, 1.0), [0.3], [s], 0.0)
    with pytest.raises(ExistenceError, match=r"jump at t = 0\.3;"):
        integrate_g_dx(x, x, max_levels=2)
    with pytest.raises(ArgumentError, match="g has jumps"):
        unit_step_operator().apply(x)
