import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from stieltjes.errors import ArgumentError, ExistenceError
from stieltjes.functions import (PiecewiseFunction, TaggedPartition, _horner,
                                 _interleave, dual_compose, product_integral,
                                 random_spline, uniform_tagged_partition)
from stieltjes.integrals import (_INITIAL_UNIFORM_CELLS, _Columns,
                                 _drive, _envelopes,
                                 _require_existence, _step_integrals,
                                 exact_step_integral, integrate_g_dx,
                                 integrate_x_dg, per_partes, rs_sum_S,
                                 rs_sum_s)
from stieltjes.representation import StieltjesOperator, apply
from stieltjes.spaces import Seminorm, SpaceModel


def single_jump():
    return PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0, -2.0]],
                                  [0.0, 0.0])


def monotone_pair():
    coeffs = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    return PiecewiseFunction(np.array([0.0, 1.0]), coeffs)


def ramp():
    return PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda g, x: rs_sum_S(x, g, uniform_tagged_partition(0.0, 1.0, 4)),
    lambda g, x: rs_sum_s(g, x, uniform_tagged_partition(0.0, 1.0, 4)),
    lambda g, x: integrate_g_dx(g, x),
    lambda g, x: integrate_x_dg(x, g),
    lambda g, x: per_partes(x, g),
    lambda g, x: exact_step_integral(g, x),
    lambda g, x: StieltjesOperator(SpaceModel(
        2, "real", (Seminorm.weighted_sup([1.0, 1.0]),)), x).apply(g),
])
def test_the_scalar_slot_refuses_a_vector(call):
    with pytest.raises(ArgumentError, match="g must be scalar-valued"):
        call(monotone_pair(), single_jump())


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


def assert_estimates_bound_true_errors(g):
    """Levels 0-3 of both integrals of g against x(t) = t (one coordinate)
    are within their estimates of the exact values."""
    x = PiecewiseFunction([0.0, 1.0], [[[0.0], [1.0]]])
    for res, exact in (
            (integrate_x_dg(x, g, tol=1e-14, max_levels=4),
             product_integral(x, g.derivative())),
            (integrate_g_dx(g, x, tol=1e-14, max_levels=4),
             product_integral(x.derivative(), g))):
        assert res.levels == 4
        for rec in res.trace:
            true_err = float(np.max(np.abs(rec.value - exact)))
            assert true_err <= float(np.max(rec.estimates)) + 1e-12


def test_estimates_bound_true_error_at_a_flat_maximum():
    # g'' = 1 - 10 (t - 0.6)^4 peaks where g''' has a triple root
    d2 = npoly.polysub([1.0], 10.0 * npoly.polypow([-0.6, 1.0], 4))
    g = PiecewiseFunction.from_global_polynomial(npoly.polyint(d2, 2),
                                                 (0.0, 1.0))
    assert math.isclose(g.derivative().derivative().sup_abs(), 1.0,
                        rel_tol=1e-12)
    assert_estimates_bound_true_errors(g)


@st.composite
def multiple_roots(draw, lo, hi, max_degree):
    """s * prod_j (t - r_j)^m_j with multiplicities m_j in 1..4 at random
    points r_j in [lo, hi], of degree at most ``max_degree``."""
    c = np.array([draw(st.sampled_from([1.0, -1.0, 2.5, -7.0, 20.0]))])
    for m in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if c.size + m > max_degree + 1:
            break
        c = npoly.polymul(c, npoly.polypow([-draw(st.floats(lo, hi)), 1.0], m))
    return c


@settings(max_examples=150)
@given(multiple_roots(0.05, 0.95, 4), st.floats(-2.0, 2.0))
def test_estimates_bound_true_error_at_multiple_roots(d2, shift):
    # the sups of g' and g'' come from the roots of g'' and g''', which
    # here can have multiplicities up to 4 and 3
    g = PiecewiseFunction.from_global_polynomial(
        npoly.polyint(npoly.polyadd(d2, [shift]), 2), (0.0, 1.0))
    assert_estimates_bound_true_errors(g)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_estimates_bound_the_error_under_scaled_seminorms(seed):
    # a scalar pair's error e has p(e) = |e| p(1), so the estimates must
    # carry p(1); under one seminorm the pair runs as a stack of one
    rng = np.random.default_rng(seed)
    g, x = random_spline((0.0, 1.0), rng), random_spline((0.0, 1.0), rng)
    exact = product_integral(g, x.derivative())
    sems = [Seminorm.weighted_sup([w]) for w in (1e-3, 10.0, 1e3)]
    runs = [(sems, integrate_g_dx(g, x, seminorms=sems, max_levels=3))]
    runs += [([p], integrate_g_dx(g, x, seminorms=[p], max_levels=3))
             for p in sems]
    for seminorms, res in runs:
        for rec in res.trace:
            true = np.array([p(rec.value - exact) for p in seminorms])
            assert np.all(rec.estimates >= true)


def test_scalar_drive_scales_the_max_abs_drive_by_p_of_one():
    # a scalar pair runs as a stack of one under any seminorms, so each
    # level's estimates are the single envelope sum times p(1)
    sems = (Seminorm.weighted_sup([1.0]), Seminorm.weighted_one([3.0]),
            Seminorm.quadratic(np.array([[4.0]])))
    scale = np.array([p(np.ones(1)) for p in sems])
    rng = np.random.default_rng(8)
    for k in range(20):
        g, x = random_spline((0.0, 1.0), rng), random_spline((0.0, 1.0), rng)
        if k % 2:
            x = x + PiecewiseFunction.step(
                (0.0, 1.0), [rng.uniform(0.2, 0.8)], [rng.normal()], 0.0)
        got = integrate_g_dx(g, x, seminorms=sems, tol=1e-300, max_levels=8)
        ref = integrate_g_dx(g, x, tol=1e-300, max_levels=8)
        for rec, base in zip(got.trace, ref.trace, strict=True):
            assert same_bits(rec.value, base.value)
            assert same_bits(rec.estimates, base.estimates[0] * scale)


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


# -- the incremental driver against a from-scratch level loop -----------------


def values_reference(func, ts):
    """Values at ``ts`` with a fresh piece lookup and whole-row gather."""
    idx = func._piece_at(ts)
    out = _horner(func.coeffs[idx], ts - func.breakpoints[idx])
    out[ts == func.b] = func.values[-1]
    return out


def drive_reference(f, mu, seminorms, tol, max_levels):
    """Each level looks the pieces up again and evaluates both functions at
    all of its points: (value, estimates, levels, converged, records).
    The estimates are an (n, seminorms) array summed along the cells; a
    scalar pair's single envelope sum is scaled by each p(1)."""
    jump_ts = _require_existence(f, mu)
    seminorms = seminorms or (
        Seminorm.weighted_sup(np.ones(f.dim or mu.dim or 1)),)
    scale = 1.0 if f.dim or mu.dim \
        else np.array([p(np.ones(1)) for p in seminorms])
    D1f, D2f = (e.T for e in _envelopes(f, seminorms))
    D1m, D2m = (e.T for e in _envelopes(mu, seminorms))
    points = np.unique(np.concatenate(
        [f.breakpoints, mu.breakpoints,
         np.linspace(f.a, f.b, _INITIAL_UNIFORM_CELLS + 1)]))
    records, prev, converged = [], None, False
    for level in range(max_levels):
        lefts, rights = points[:-1], points[1:]
        h = rights - lefts
        jump_end = np.isin(rights, jump_ts)
        tags = np.where(jump_end, rights, 0.5 * (lefts + rights))
        fv = values_reference(f, tags)
        dmu = np.diff(values_reference(mu, points), axis=0)
        if f.dim is None and mu.dim is not None:
            fv = fv[:, np.newaxis]
        elif f.dim is not None:
            dmu = dmu[:, np.newaxis]
        value = (fv * dmu).sum(axis=0)
        i, j = f._piece_at(lefts), mu._piece_at(lefts)
        d1f, d2f, d1m, d2m = D1f[i], D2f[i], D1m[j], D2m[j]
        smooth = (d1f * d2m + 0.5 * d2f * d1m) * (h ** 3 / 12.0)[:, None]
        atjump = (d1f * d1m) * (h ** 2)[:, None]
        est = np.sum(np.where(jump_end[:, None], atjump, smooth),
                     axis=0) * scale
        records.append((level, float(np.max(np.diff(points))), value, est))
        if prev is not None:
            diffs = np.array([p(value - prev) for p in seminorms])
            if np.all(est < tol) and np.all(diffs < tol):
                converged = True
                break
        prev = value
        if level < max_levels - 1:
            points = _interleave(points, 0.5 * (points[:-1] + points[1:]))
    return value, est, len(records), converged, records


# relative steps far below the jump noise floor: a function joined with
# them is continuous, yet its right-hand values differ from its left limits
NOISE = st.sampled_from([0.0, 0.0, 4e-16, -1e-15])


def continuous_pieces(draw, bps, dim, complex_field):
    """Random polynomial pieces on ``bps``, joined continuously up to
    float noise, also at b."""
    m = bps.size - 1
    k = draw(st.integers(1, 5))
    shape = (m, k) + (() if dim is None else (dim,))
    c = np.random.default_rng(draw(SEEDS)).uniform(-2.0, 2.0, shape)
    if complex_field:
        c = c + 1j * np.random.default_rng(draw(SEEDS)).uniform(
            -2.0, 2.0, shape)
    ends = _horner(c, np.diff(bps)) * (1 + draw(NOISE))
    for i in range(1, m):
        c[i, 0] = _horner(c[i - 1:i], bps[i:i + 1] - bps[i - 1:i])[0] \
            * (1 + draw(NOISE))
        ends[i - 1] = c[i, 0]
    return PiecewiseFunction(bps, c, np.concatenate([c[:1, 0], ends]))


TIMES = st.lists(st.floats(0.01, 0.99, allow_nan=False), min_size=1,
                 max_size=6, unique=True).map(sorted)
STEP_TIMES = st.one_of(TIMES, TIMES.map(lambda t: t + [1.0]))


@st.composite
def drive_pairs(draw):
    """(f, mu) on [0, 1]: steps, splines, polynomials, real, complex or
    with one vector factor of dimension 1, 2, 3 or 5; f may have a
    breakpoint exactly at a jump of mu and be continuous there."""
    complex_field = draw(st.booleans())
    vec = draw(st.sampled_from([None, "f", "mu"]))
    vec_dim = draw(st.sampled_from([1, 2, 3, 5]))

    def make(role, kind):
        dim = vec_dim if vec == role else None
        if kind == "step":
            times = draw(STEP_TIMES)
            shape = (len(times),) + (() if dim is None else (dim,))
            rng = np.random.default_rng(draw(SEEDS))
            jumps = rng.normal(size=shape) \
                * ((1 + 1j) if complex_field else 1.0)
            return PiecewiseFunction.step((0.0, 1.0), times, jumps,
                                          np.ones(shape[1:]))
        if kind == "spline":
            rng = np.random.default_rng(draw(SEEDS))
            g = random_spline((0.0, 1.0), rng, complex_field=complex_field)
            return g if dim is None else PiecewiseFunction(
                g.breakpoints, np.stack([s * g.coeffs for s in
                                         (1.0, 2.0, -0.5, 3.0, -1.0)[:dim]],
                                        axis=2))
        bps = np.unique(np.concatenate([[0.0, 1.0], draw(TIMES)]))
        return continuous_pieces(draw, bps, dim, complex_field)

    mu = make("mu", draw(st.sampled_from(["step", "spline", "poly"])))
    kind = draw(st.sampled_from(["step", "spline", "poly", "at-jump"]))
    if kind == "at-jump":
        bps = np.unique(np.concatenate(
            [[0.0, 1.0], mu.breakpoints, draw(TIMES)]))
        f = continuous_pieces(draw, bps, vec_dim if vec == "f" else None,
                              complex_field)
    else:
        f = make("f", kind)
    return f, mu


@st.composite
def seminorm_families(draw, dim):
    """None (max-abs) or 1-3 weighted-sup, weighted-one and quadratic
    seminorms on dimension ``dim``, with weights that may vanish."""
    kinds = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(["weighted-sup", "weighted-one", "quadratic"]),
        min_size=1, max_size=3)))
    if kinds is None:
        return None
    rng = np.random.default_rng(draw(SEEDS))
    family = []
    for kind in kinds:
        if kind == "quadratic":
            a = rng.normal(size=(dim, dim))
            family.append(Seminorm.quadratic(a @ a.T + 0.1 * np.eye(dim)))
        else:
            w = rng.uniform(0.0, 3.0, dim) * (rng.uniform(size=dim) > 0.2)
            family.append(Seminorm(kind, weights=w))
    return tuple(family)


@settings(max_examples=200)
@given(drive_pairs(), st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
       st.integers(2, 9), st.data())
def test_incremental_drive_matches_a_from_scratch_loop(pair, tol, levels,
                                                       data):
    f, mu = pair
    sems = data.draw(seminorm_families(f.dim or mu.dim or 1))
    try:
        expected = drive_reference(f, mu, sems, tol, levels)
    except ExistenceError:
        with pytest.raises(ExistenceError):
            _drive((f,), (mu,), sems, tol, levels)
        return
    assert_matches_reference(
        _drive((f,), (mu,), sems, tol, levels).results[0][0], expected)


def assert_matches_reference(got, expected):
    value, est, n, converged, records = expected
    # the result holds a scalar value as a Python number
    assert same_bits(got.value, value.item() if value.ndim == 0 else value)
    assert same_bits(got.error_estimates, est)
    assert (got.levels, got.converged) == (n, converged)
    for rec, (level, mesh, v, e) in zip(got.trace, records, strict=True):
        assert (rec.level, rec.mesh) == (level, mesh)
        assert same_bits(rec.value, v) and same_bits(rec.estimates, e)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_zero_coordinate_sums_to_the_reference_zero(dim, complex_field):
    # x's last coordinate is identically +0.0 and g is negative and
    # decreasing, so every product of that coordinate is -0.0 in both
    # directions; numpy's sum of an (n, d) array gives +0.0 for d >= 2
    rng = np.random.default_rng(dim)
    s = random_spline((0.0, 1.0), rng, complex_field=complex_field)
    jumps = np.zeros((2, dim), dtype=complex if complex_field else float)
    jumps[:, :-1] = rng.normal(size=(2, dim - 1)) * (1 + 1j if complex_field
                                                     else 1.0)
    x = PiecewiseFunction.step((0.0, 1.0), [0.3, 1.0], jumps,
                               np.zeros(dim)) + PiecewiseFunction(
        s.breakpoints, np.stack([s.coeffs] * (dim - 1)
                                + [np.zeros_like(s.coeffs)], axis=2))
    g = PiecewiseFunction.from_global_polynomial([-2.0, -1.0, -0.5],
                                                 (0.0, 1.0))
    assert not np.any(x.coeffs[..., -1]) and not np.any(x.values[:, -1])
    partition = uniform_tagged_partition(0.0, 1.0, 300)
    for f, mu, plain in ((x, g, rs_sum_S), (g, x, rs_sum_s)):
        got = _drive((f,), (mu,), None, 1e-300, 6).results[0][0]
        assert_matches_reference(got,
                                 drive_reference(f, mu, None, 1e-300, 6))
        fv = values_reference(f, partition.tags)
        dmu = np.diff(values_reference(mu, partition.points), axis=0)
        fv, dmu = (fv, dmu[:, np.newaxis]) if f is x \
            else (fv[:, np.newaxis], dmu)
        assert np.all(np.signbit((fv * dmu)[:, -1].real))
        expected = (fv * dmu).sum(axis=0)
        assert same_bits(plain(f, mu, partition), expected)
        if dim > 1:
            assert not np.signbit(got.value[-1].real)
            assert not np.signbit(expected[-1].real)


def test_drive_with_cells_narrower_than_float_resolution():
    # a cell one ulp wide has its midpoint on one of its ends, here on the
    # right end of [p, 0.5] and the left end of [0.5, u]; those levels fall
    # back to a fresh lookup and must still give the from-scratch bits
    p, u = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    assert 0.5 * (p + 0.5) == 0.5 == 0.5 * (0.5 + u)
    mu = PiecewiseFunction.from_global_polynomial([0.0, 1.0, 3.0], (0.0, 1.0))
    f = PiecewiseFunction([0.0, p, 0.5, u, 1.0],
                          [[1.0, 2.0], [-2.0, 1.0], [3.0, -1.0], [0.5, 4.0]])
    x = PiecewiseFunction(f.breakpoints,
                          np.stack([f.coeffs, -2 * f.coeffs], axis=2))
    for a, b in ((f, mu), (mu, f), (x, mu), (mu, x)):
        got = _drive((a,), (b,), None, 1e-300, 6).results[0][0]
        assert (got.levels, got.converged) == (6, False)
        assert_matches_reference(got, drive_reference(a, b, None, 1e-300, 6))


# -- a stacked drive against one drive per column ------------------------------


def same_bits(a, b):
    """Equal type, dtype, shape and bytes: signed zeros must match too."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def assert_same_drive(got, expected):
    assert same_bits(got.value, expected.value)
    assert same_bits(got.error_estimates, expected.error_estimates)
    assert (got.levels, got.converged) == (expected.levels, expected.converged)
    for rec, ref in zip(got.trace, expected.trace, strict=True):
        assert (rec.level, rec.mesh) == (ref.level, ref.mesh)
        assert same_bits(rec.value, ref.value)
        assert same_bits(rec.estimates, ref.estimates)


def assert_columns_match_single_drives(fs, columns, tol, levels):
    """The stacked drive gives every pair of an integrand of ``fs`` and a
    column the bits of its own drive, or refuses the stack as one of those
    drives does, and the first integrand's pairs agree with the
    from-scratch loop; returns the single drives, one row per integrand."""
    try:
        expected = [[_drive((f,), (mu,), None, tol, levels).results[0][0]
                     for mu in columns] for f in fs]
    except ExistenceError:
        with pytest.raises(ExistenceError):
            _drive(fs, columns, None, tol, levels)
        return None
    got = _drive(fs, columns, None, tol, levels).results
    for row, singles in zip(got, expected, strict=True):
        for g, e in zip(row, singles, strict=True):
            assert_same_drive(g, e)
    for g, mu in zip(got[0], columns, strict=True):
        assert_matches_reference(g, drive_reference(fs[0], mu, None, tol,
                                                    levels))
    return expected


# two cells one ulp wide around t = 1/2: their midpoints fall on an end
ULP_GRID = np.array([0.0, np.nextafter(0.5, 0.0), 0.5,
                     np.nextafter(0.5, 1.0), 1.0])


def orthogonal_dual(jump):
    """A dual d with <d, jump> = 0 in two dimensions."""
    return np.conj([jump[1], -jump[0]])


@st.composite
def column_drives(draw):
    """(fs, columns): 1-5 scalar integrands on one grid and the
    compositions dual_compose(y, d) of one vector y with 1-5 duals, as in
    the roundtrip pairing loop.  y is a step, a spline plus steps, or
    continuous pieces with cells one ulp wide; one dual may be orthogonal
    to a jump of y, so that the columns' jump sets differ, and scales from
    1e-3 to 1e2 on the duals and on the integrands spread the pairs' stop
    levels.  The integrands are splines on random_spline's knots,
    continuous pieces on one grid padded to one degree, or steps with
    common jump times, which may meet a jump of y."""
    complex_field = draw(st.booleans())
    kind = draw(st.sampled_from(["step", "spline", "ulp"]))
    rng = np.random.default_rng(draw(SEEDS))
    unit = (1 + 1j) if complex_field else 1.0
    if kind == "ulp":
        y = continuous_pieces(draw, ULP_GRID, 2, complex_field)
    else:
        times = draw(STEP_TIMES)
        jumps = rng.normal(size=(len(times), 2)) * unit
        y = PiecewiseFunction.step((0.0, 1.0), times, jumps, np.zeros(2))
        if kind == "spline":
            s = random_spline((0.0, 1.0), rng, complex_field=complex_field)
            y = y + PiecewiseFunction(
                s.breakpoints, np.stack([s.coeffs, -2 * s.coeffs], axis=2))
    k = draw(st.integers(1, 5))
    duals = rng.normal(size=(k, 2)) * unit \
        * 10.0 ** rng.integers(-3, 3, (k, 1))
    if kind != "ulp" and draw(st.booleans()):
        duals[rng.integers(k)] = orthogonal_dual(jumps[0])
    columns = [dual_compose(y, d) for d in duals]
    n = draw(st.integers(1, 5))
    f_kind = draw(st.sampled_from(["spline", "poly", "step"]))
    if f_kind == "spline":
        fs = [random_spline((0.0, 1.0), rng, complex_field=complex_field)
              for _ in range(n)]
    elif f_kind == "poly":
        bps = np.unique(np.concatenate([y.breakpoints, draw(TIMES)]))
        fs = [continuous_pieces(draw, bps, None, complex_field)
              for _ in range(n)]
        terms = max(f.coeffs.shape[1] for f in fs)
        fs = [PiecewiseFunction(bps, np.pad(f.coeffs, ((0, 0), (
            0, terms - f.coeffs.shape[1]))), f.values) for f in fs]
    else:
        times = draw(STEP_TIMES)
        fs = [PiecewiseFunction.step((0.0, 1.0), times,
                                     rng.normal(size=len(times)) * unit, 1.0)
              for _ in range(n)]
    return [f * s for f, s in zip(fs, 10.0 ** rng.integers(-3, 3, n))], \
        columns


@settings(max_examples=200)
@given(column_drives(), st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
       st.integers(2, 10))
def test_stacked_drive_matches_one_drive_per_column(case, tol, levels):
    fs, columns = case
    assert_columns_match_single_drives(fs, columns, tol, levels)


def test_stacked_drive_examples_cover_each_column_path():
    # one example of each path the pairs of a stack can take apart from
    # each other: a jump set without one jump, stops at different levels
    # along an integrand's row and down a column's, a pair that runs out
    # of levels, cells one ulp wide
    jumps = np.array([[1.0, -2.0], [0.5, 0.25]])
    s = random_spline((0.0, 1.0), np.random.default_rng(3))
    y = PiecewiseFunction.step((0.0, 1.0), [0.3, 0.7], jumps, np.zeros(2)) \
        + PiecewiseFunction(s.breakpoints,
                            np.stack([s.coeffs, 3 * s.coeffs], axis=2))
    duals = [np.array([1.0, 0.25]), orthogonal_dual(jumps[0]),
             np.array([1e-3, 0.0]), np.array([50.0, -20.0])]
    columns = [dual_compose(y, d) for d in duals]
    assert len(columns[0]._jump_times) == 2
    assert columns[1]._jump_times == (0.7,)
    rng = np.random.default_rng(4)
    g = random_spline((0.0, 1.0), rng, complex_field=True)
    gs = [g, g * 1e-3, random_spline((0.0, 1.0), rng, complex_field=True)]
    for n, k in ((1, 1), (1, 4), (3, 1), (3, 4)):
        single = assert_columns_match_single_drives(gs[:n], columns[:k],
                                                    1e-5, 10)
    levels = np.array([[r.levels for r in row] for row in single])
    assert len(set(levels[0])) > 1 and len(set(levels[:, 0])) > 1
    flat = [r for row in single for r in row]
    assert not all(r.converged for r in flat)
    assert any(r.converged for r in flat)

    u = PiecewiseFunction(ULP_GRID,
                          np.random.default_rng(5).normal(size=(4, 2, 2)))
    columns = [dual_compose(u, d) for d in duals]
    single = assert_columns_match_single_drives(gs, columns, 1e-300, 4)
    assert all(r.levels == 4 and not r.converged
               for row in single for r in row)


def steps_on(bps, levels, dim=None):
    """Step functions on the breakpoints ``bps``, one per row of piece
    levels, continuous at b."""
    return [PiecewiseFunction(bps, np.reshape(row, (len(bps) - 1, 1)
                                              + (() if dim is None
                                                 else (dim,))))
            for row in levels]


def test_a_stack_existence_check_names_the_first_common_jump():
    # the jump times of each stack meet; the pair loop then names the
    # first pair, in product order, that jumps at a common point
    fs = steps_on([0.0, 0.3, 0.6, 1.0], [[0.0, 1.0, 1.0], [0.0, 0.0, 2.0]])
    mus = steps_on([0.0, 0.3, 0.45, 0.6, 1.0],
                   [[0.0, 0.0, 1.0, 3.0], [0.0, 1.0, 1.0, 1.0]])
    with pytest.raises(ExistenceError) as first:
        _require_existence(fs[0], mus[1])
    assert "jump at t = 0.3;" in str(first.value)
    for stacks in ((fs, mus), (fs[::-1], mus), (fs, mus[::-1])):
        expected = next(str(e.value) for e in (
            pytest.raises(ExistenceError, _require_existence, f, mu)
            for f in stacks[0] for mu in stacks[1]
            if set(f._jump_times) & set(mu._jump_times)))
        with pytest.raises(ExistenceError) as got:
            _drive(*stacks, None, 1e-6)
        assert str(got.value) == expected
    # stacks whose jump times do not meet run
    assert _drive(fs[:1], mus[:1], None, 1e-6).converged


def test_a_side_of_steps_computes_no_envelopes():
    # envelope rows enter the estimates only as products of one side's
    # rows with the other's; a side of pure steps has zero rows, so every
    # estimate is +0.0 and neither side computes or caches envelopes
    rng = np.random.default_rng(12)
    spline = random_spline((0.0, 1.0), rng)
    vector = PiecewiseFunction(spline.breakpoints,
                               np.stack([spline.coeffs, -spline.coeffs], 2))
    step = single_jump()
    scalar_steps = steps_on([0.0, 0.25, 0.75, 1.0],
                            [[1.0, -1.0, 2.0], [0.0, 3.0, 3.0]])
    families = (None, (Seminorm.weighted_sup(np.array([1.0, 2.0])),
                       Seminorm.quadratic(np.array([[2.0, 1.0],
                                                    [1.0, 2.0]]))))
    for fs, mus in (([spline], scalar_steps[:1]), (scalar_steps, [spline]),
                    ([spline, 2.0 * spline], scalar_steps),
                    ([spline, 2.0 * spline], [step]), ([step], [spline]),
                    ([vector], scalar_steps[:1]), (scalar_steps[:1], [vector]),
                    ([spline], [spline * 0.0]),
                    (scalar_steps, [dual_compose(step, np.ones(2))])):
        dim = fs[0].dim or mus[0].dim
        for sems in families if dim else families[:1]:
            fresh = [PiecewiseFunction(f.breakpoints, f.coeffs, f.values)
                     for f in fs + mus]
            drive = _drive(fresh[:len(fs)], fresh[len(fs):], sems, 1e-300, 4)
            for f in fresh:
                assert not {"_derivative_sups", "_envelope_cache"} \
                    & vars(f).keys()
            for res in (r for row in drive.results for r in row):
                for rec in res.trace:
                    assert np.all(rec.estimates == 0.0)
                    assert not np.any(np.signbit(rec.estimates))


def test_a_stack_refuses_integrands_off_one_grid():
    # the integrands of a stack share one partition and one Horner pass,
    # so they must be scalar, on one grid and of one coefficient layout
    rng = np.random.default_rng(8)
    g = random_spline((0.0, 1.0), rng)
    mu = dual_compose(single_jump(), np.array([1.0, 0.5]))
    for other in (random_spline((0.0, 1.0), rng, knot_count=7),
                  PiecewiseFunction(g.breakpoints, g.coeffs[:, :2]),
                  g * (1 + 0j)):
        with pytest.raises(ArgumentError, match="one grid"):
            _Columns([g, other])
        with pytest.raises(ArgumentError, match="one grid"):
            _drive([g, other], [mu], None, 1e-6)
    vector = PiecewiseFunction(g.breakpoints, np.stack([g.coeffs] * 2, 2))
    for stack in ([g, vector], [vector, g]):
        with pytest.raises(ArgumentError, match="one grid"):
            _Columns(stack)
    # a vector function is alone in its stack, and a vector integrand
    # runs against one integrator only
    for fs, mus in (([g, vector], [mu]), ([vector], [mu, mu]),
                    ([g], [vector, vector])):
        with pytest.raises(ArgumentError, match="scalar factors"):
            _drive(fs, mus, None, 1e-6)


def test_a_stack_of_no_integrands_or_no_columns_drives_nothing():
    g = random_spline((0.0, 1.0), np.random.default_rng(9))
    mu = dual_compose(single_jump(), np.array([1.0, 0.5]))
    assert _drive([], [mu], None, 1e-6).results == []
    assert _drive([g, g], [], None, 1e-6).results == [[], []]


# -- a stack of integrands against one vector integrator ----------------------


def assert_images_match_single_drives(gs, x, sems, tol, levels):
    """The drive of the scalar integrands ``gs`` against the one vector
    integrator x gives every integrand the bits of its own drive, with the
    deepest level of any and whether all converged, and the first one
    agrees with the from-scratch loop; returns the single drives."""
    expected = [_drive((g,), (x,), sems, tol, levels).results[0][0]
                for g in gs]
    drive = _drive(gs, (x,), sems, tol, levels)
    for row, e in zip(drive.results, expected, strict=True):
        (got,) = row
        assert_same_drive(got, e)
    assert drive.levels == max(e.levels for e in expected)
    assert drive.converged == all(e.converged for e in expected)
    assert_matches_reference(drive.results[0][0],
                             drive_reference(gs[0], x, sems, tol, levels))
    return expected


@st.composite
def image_drives(draw):
    """(gs, x, seminorms): 1-5 splines on random_spline's knots against one
    vector integrator x of dimension 1-3, a step or a spline plus steps,
    all real or all complex, as in the image drive of a roundtrip.  Scales
    from 1e-8 to 1e2 on the integrands spread their stop levels, so that
    some leave the stack while others run on; the seminorms are None
    (max-abs) or 1-3 of each kind."""
    complex_field = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    unit = (1 + 1j) if complex_field else 1.0
    times = draw(STEP_TIMES)
    x = PiecewiseFunction.step((0.0, 1.0), times,
                               rng.normal(size=(len(times), dim)) * unit,
                               np.zeros(dim))
    if draw(st.booleans()):
        parts = [random_spline((0.0, 1.0), rng, complex_field=complex_field)
                 for _ in range(dim)]
        x = x + PiecewiseFunction(parts[0].breakpoints,
                                  np.stack([p.coeffs for p in parts], axis=2))
    n = draw(st.integers(1, 5))
    gs = [random_spline((0.0, 1.0), rng, complex_field=complex_field) * s
          for s in 10.0 ** rng.integers(-8, 3, n)]
    return gs, x, draw(seminorm_families(dim))


@settings(max_examples=200)
@given(image_drives(), st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
       st.integers(2, 10))
def test_an_image_stack_matches_one_drive_per_integrand(case, tol, levels):
    gs, x, sems = case
    assert_images_match_single_drives(gs, x, sems, tol, levels)


def test_an_image_stack_keeps_its_integrator_when_integrands_stop():
    # integrands that stop at different levels leave the stack while the
    # vector integrator stays, with its coordinate rows and its seminorm
    # rows of envelope products
    rng = np.random.default_rng(6)
    parts = [random_spline((0.0, 1.0), rng, complex_field=True)
             for _ in range(3)]
    x = PiecewiseFunction.step((0.0, 1.0), [0.3, 0.7],
                               rng.normal(size=(2, 3)) * (1 + 1j),
                               np.zeros(3)) \
        + PiecewiseFunction(parts[0].breakpoints,
                            np.stack([p.coeffs for p in parts], axis=2))
    g = random_spline((0.0, 1.0), rng, complex_field=True)
    gs = [g, g * 1e-3, random_spline((0.0, 1.0), rng, complex_field=True)]
    sems = (Seminorm.weighted_sup(np.ones(3)),
            Seminorm.weighted_one([1.0, 0.0, 2.0]))
    single = assert_images_match_single_drives(gs, x, sems, 1e-5, 10)
    assert len({r.levels for r in single}) > 1
    assert any(r.converged for r in single)
    assert not all(r.converged for r in single)


# -- a stack of integrands against one step in closed form --------------------


@st.composite
def step_images(draw):
    """(gs, x, seminorms): 1-5 splines on random_spline's knots against a
    pure step x of dimension 2 or 3, all real or all complex, whose jumps
    may include one at b, a zero jump and a zero coordinate, at a scale
    from 1e-12 to 1e12 (a step lists every nonzero jump at any scale); the
    seminorms are None (max-abs) or 1-3 of each kind."""
    complex_field = draw(st.booleans())
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(SEEDS))
    times = draw(STEP_TIMES)
    jumps = rng.normal(size=(len(times), dim)) \
        * ((1 + 1j) if complex_field else 1.0) \
        * 10.0 ** draw(st.integers(-12, 12))
    if draw(st.booleans()):
        jumps[rng.integers(len(times))] = 0.0
    if draw(st.booleans()):
        jumps[rng.integers(len(times)), rng.integers(dim)] = 0.0
    x = PiecewiseFunction.step((0.0, 1.0), times, jumps, np.zeros(dim))
    n = draw(st.integers(1, 5))
    gs = [random_spline((0.0, 1.0), rng, complex_field=complex_field) * s
          for s in 10.0 ** rng.integers(-8, 3, n)]
    return gs, x, draw(seminorm_families(dim))


@settings(max_examples=300)
@given(step_images(), st.floats(0.0, 1e3, exclude_min=True))
def test_step_images_have_the_bits_of_the_drive(case, tol):
    # in dimension 2 or more the drive adds its products in sequence, in
    # cell order, and every cell not ending at a jump adds a zero; with
    # its + 0.0 the closed form then has the drive's bits, signed zeros
    # included, and apply gives them
    gs, x, sems = case
    images = _step_integrals(gs, x) + 0.0
    drive = _drive(gs, (x,), sems, tol)
    space = SpaceModel(x.dim, "complex" if np.iscomplexobj(x.coeffs)
                       else "real",
                       sems or (Seminorm.weighted_sup(np.ones(x.dim)),))
    T = StieltjesOperator(space, x)
    for g, image, (res,) in zip(gs, images, drive.results, strict=True):
        assert same_bits(image, res.value)
        assert same_bits(image, exact_step_integral(g, x) + 0.0)
        assert same_bits(apply(T, g, tol=tol), res.value)


def test_step_images_cover_a_jump_at_b_and_zero_jumps():
    # a jump at b changes only the end value, a zero jump is a breakpoint
    # with no jump, and a zero coordinate makes signed-zero products
    x = PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5, 1.0],
                               [[1.0, 0.0], [0.0, 0.0], [-2.0, 0.5j]],
                               [0.0, 0.0])
    assert x.jump_points(atol=0.0)[-1][0] == 1.0
    assert 0.5 in x.breakpoints and len(x.jump_points(atol=0.0)) == 2
    rng = np.random.default_rng(12)
    gs = [random_spline((0.0, 1.0), rng, complex_field=True)
          for _ in range(3)]
    images = _step_integrals(gs, x) + 0.0
    for g, image, (res,) in zip(gs, images,
                                _drive(gs, (x,), None, 1e-8).results):
        assert same_bits(image, res.value)
        expected = g(0.25) * np.array([1.0, 0.0]) \
            + g(1.0) * np.array([-2.0, 0.5j])
        assert same_bits(image, expected + 0.0)
