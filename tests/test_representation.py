import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from stieltjes.errors import ArgumentError, EnumerationLimitError
from stieltjes import functions, representation
from stieltjes.functions import (PiecewiseFunction, _horner, _shift_poly,
                                 _split_rows, dual_compose, random_spline)
from stieltjes.integrals import exact_step_integral, integrate_g_dx
from stieltjes.representation import (IntervalMeasure, StieltjesOperator,
                                      abel_identity_check, additivity_check,
                                      apply, decompose, hull_membership,
                                      measure_from_function,
                                      measure_of_interval, roundtrip,
                                      weakly_compact_image_check)
from stieltjes.semivariation import e_set
from stieltjes.spaces import Seminorm, SpaceModel, pair, sample_dual_ball
from test_kernels import piecewise, range_bounds, same_bits


def single_jump():
    return PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0, -2.0]],
                                  [0.0, 0.0])


def ramp():
    return PiecewiseFunction.from_global_polynomial([0.0, 1.0], (0.0, 1.0))


def plane():
    return SpaceModel(2, "real", (Seminorm.weighted_sup([1.0, 1.0]),))


def test_operator_construction_records_bounds():
    T = StieltjesOperator(plane(), single_jump())
    assert T.domain == (0.0, 1.0)
    np.testing.assert_allclose(T.wcs_bounds, [2.0])
    with pytest.raises(ArgumentError):
        StieltjesOperator(SpaceModel(3, "real",
                                     (Seminorm.weighted_sup(np.ones(3)),)),
                          single_jump())


def test_apply_examples():
    T = StieltjesOperator(plane(), single_jump())
    one = PiecewiseFunction.constant(1.0, (0.0, 1.0))
    np.testing.assert_allclose(apply(T, one), [1.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(T.apply(ramp()), [0.5, -1.0], atol=1e-10)
    zero = PiecewiseFunction.constant(0.0, (0.0, 1.0))
    np.testing.assert_allclose(apply(T, zero), [0.0, 0.0], atol=1e-14)


def decreasing_curve():
    return PiecewiseFunction(np.array([0.0, 1.0]),
                             np.array([[[0.0, 0.0], [-1.0, 0.0],
                                        [0.0, -1.0]]]))


@pytest.mark.parametrize("x", [single_jump(), decreasing_curve()])
def test_apply_and_the_image_check_refuse_a_nonpositive_tol(x):
    # a step x takes no drive, whose checks refused such a tol before
    T = StieltjesOperator(plane(), x)
    for tol in (0.0, -1e-8):
        with pytest.raises(ArgumentError, match="tol must be positive"):
            apply(T, ramp(), tol=tol)
        with pytest.raises(ArgumentError, match="tol must be positive"):
            weakly_compact_image_check(T, sample_count=1, tol=tol)
        with pytest.raises(ArgumentError, match="tol must be positive"):
            roundtrip(x, probe_count=4, tol=tol, dual_count=1,
                      function_count=0)


@pytest.mark.parametrize("x", [single_jump(), decreasing_curve()])
def test_apply_to_zero_gives_positive_zeros(x):
    # the products 0 * J sum to -0.0 where J < 0; T g is +0.0 on either
    # path, as represent-apply prints it
    zero = PiecewiseFunction.constant(0.0, (0.0, 1.0))
    if x.is_step:
        assert np.signbit(exact_step_integral(zero, x)).tolist() \
            == [False, True]
    value = apply(StieltjesOperator(plane(), x), zero)
    assert value.tobytes() == np.zeros(2).tobytes()


def test_apply_rejects_functions_outside_domain():
    T = StieltjesOperator(plane(), single_jump())
    jumpy = PiecewiseFunction.step((0.0, 1.0), [0.3], [1.0], 0.0)
    try:
        apply(T, jumpy)
    except ArgumentError:
        pass
    else:
        raise AssertionError("discontinuous g must be rejected")
    elsewhere = PiecewiseFunction.constant(1.0, (0.0, 2.0))
    with pytest.raises(ArgumentError):
        apply(T, elsewhere)
    with pytest.raises(ArgumentError):
        apply(T, single_jump())  # vector-valued


def test_operator_linearity():
    tol = 1e-8
    rng = np.random.default_rng(30)
    T = StieltjesOperator(plane(), single_jump())
    for _ in range(5):
        g = random_spline((0.0, 1.0), rng)
        h = random_spline((0.0, 1.0), rng)
        lam = float(rng.standard_normal())
        lhs = apply(T, lam * g + h, tol=tol)
        rhs = lam * apply(T, g, tol=tol) + apply(T, h, tol=tol)
        np.testing.assert_allclose(lhs, rhs, atol=2 * tol)


def test_decompose_negative_constant():
    g = PiecewiseFunction.constant(-0.5, (0.0, 1.0))
    g0, g1, g2, g3 = decompose(g)
    assert g0.sup_abs() == 0.0
    assert g2(0.3) == 0.5
    assert g1.sup_abs() == 0.0 and g3.sup_abs() == 0.0


def test_decompose_root_split():
    g = PiecewiseFunction.from_global_polynomial([-0.5, 1.0], (0.0, 1.0))
    g0, g1, g2, g3 = decompose(g)
    assert 0.5 in g0.breakpoints
    assert g0(0.25) == 0.0
    assert math.isclose(g0(0.75), 0.25, abs_tol=1e-14)
    assert math.isclose(g2(0.25), 0.25, abs_tol=1e-14)
    assert g2(0.75) == 0.0


def test_decompose_imaginary_constant():
    g = PiecewiseFunction.constant(1.0j, (0.0, 1.0))
    g0, g1, g2, g3 = decompose(g)
    assert g1(0.4) == 1.0
    for part in (g0, g2, g3):
        assert part.sup_abs() == 0.0


def test_decompose_rejects_large_sup():
    g = PiecewiseFunction.constant(1.5, (0.0, 1.0))
    with pytest.raises(ArgumentError):
        decompose(g)


def test_decompose_reconstructs():
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 1000)
    for trial in range(8):
        g = random_spline((0.0, 1.0), rng,
                          complex_field=bool(trial % 2))
        g0, g1, g2, g3 = decompose(g)
        rebuilt = (g0.values_at(ts) - g2.values_at(ts)
                   + 1j * (g1.values_at(ts) - g3.values_at(ts)))
        np.testing.assert_allclose(rebuilt, g.values_at(ts), atol=1e-12)
        for part in (g0, g1, g2, g3):
            lo, hi = range_bounds(part)
            assert lo >= -1e-12 and hi <= 1.0 + 1e-12


def test_decompose_splits_at_a_triple_root():
    # np.polyroots returns the triple root of (t - 1/2)^3 with imaginary
    # parts near 1e-6; without a split there, g0 - g2 misses g by 1/8
    g = PiecewiseFunction.from_global_polynomial([-0.125, 0.75, -1.5, 1.0],
                                                 (0.0, 1.0))
    g0, g1, g2, g3 = decompose(g)
    ts = np.linspace(0.0, 1.0, 1001)
    gap = np.max(np.abs(g0.values_at(ts) - g2.values_at(ts) - g.values_at(ts)))
    assert gap <= 1e-15


def test_decompose_does_not_split_at_complex_roots():
    # (t - 1/2)^2 + 1/100 has the roots 1/2 +- i/10 and no sign change,
    # so no part needs a breakpoint at 1/2
    g = PiecewiseFunction.from_global_polynomial([0.26, -1.0, 1.0],
                                                 (0.0, 1.0))
    for part in decompose(g):
        assert part.piece_count == 1


@st.composite
def rooted_piece(draw, h):
    """s * prod_j (tau - r_j)^m_j on [0, h], multiplicities m_j in 1..4
    at random points r_j, degree at most 6."""
    c = np.array([draw(st.sampled_from([1.0, -1.0, 3.0, -0.5]))])
    for m in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if c.size + m > 7:
            break
        r = draw(st.floats(0.0, h))
        c = npoly.polymul(c, npoly.polypow([-r, 1.0], m))
    return np.pad(c, (0, 7 - c.size))


@st.composite
def rooted_functions(draw):
    """Real or complex piecewise polynomials with sup-norm at most 1 whose
    real and imaginary parts have roots of multiplicity 1..4."""
    widths = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3))
    coeffs = np.array([draw(rooted_piece(h)) for h in widths])
    if draw(st.booleans()):
        coeffs = coeffs + 1j * np.array([draw(rooted_piece(h))
                                         for h in widths])
    g = PiecewiseFunction(np.concatenate([[0.0], np.cumsum(widths)]), coeffs)
    return g * (draw(st.floats(0.1, 1.0)) / g.sup_abs())


@settings(max_examples=150)
@given(rooted_functions())
def test_decompose_reconstructs_at_multiple_roots(g):
    parts = decompose(g)
    ts = np.unique(np.concatenate([np.linspace(g.a, g.b, 2001)]
                                  + [p.breakpoints for p in parts]))
    v0, v1, v2, v3 = (p.values_at(ts) for p in parts)
    # the parts' pieces are Taylor shifts of g's, rounded in proportion to
    # the size max_i sum_k |c_ik| h_i^k of its coefficients
    widths = np.diff(g.breakpoints)
    noise = 1e-15 * (1.0 + float(np.max(_horner(np.abs(g.coeffs), widths))))
    assert np.all(np.abs(v0 - v2 + 1j * (v1 - v3) - g.values_at(ts)) <= noise)
    # a root closer than the split margin 1e-13 * max(1, h) to a piece end
    # is not split off, so a kept piece can dip below 0 within that margin
    dip = 1e-13 * max(1.0, float(np.max(widths))) * g.derivative().sup_abs()
    for v in (v0, v1, v2, v3):
        assert np.all((v >= -dip) & (v <= 1.0 + noise))


def positive_part_per_piece(f):
    """max(f, 0) as decompose built each part before its signed parts
    shared one root split: each piece of f split on its own."""
    widths = np.diff(f.breakpoints)
    bps = [f.a]
    coeffs = []
    for i, splits in enumerate(_split_rows(f.coeffs, widths,
                                           sign_changes=True)):
        c = f.coeffs[i]
        edges = np.concatenate([[0.0], splits, [widths[i]]])
        shifted = _shift_poly(np.broadcast_to(c, (edges.size - 1,) + c.shape),
                              edges[:-1])
        keep = _horner(shifted, 0.5 * np.diff(edges)) > 0.0
        coeffs.extend(np.where(keep[:, np.newaxis], shifted, 0.0))
        bps.extend((f.breakpoints[i] + edges[1:]).tolist())
    coeffs = np.asarray(coeffs)
    values = np.concatenate([coeffs[:, 0], [max(float(f.values[-1]), 0.0)]])
    return PiecewiseFunction(np.asarray(bps), coeffs, values)


def assert_parts_per_piece(g):
    re, im = g.real_part(), g.imag_part()
    expected = [positive_part_per_piece(h) for h in (re, im, -re, -im)]
    for got, want in zip(decompose(g), expected, strict=True):
        for name in ("breakpoints", "coeffs", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


@settings(max_examples=200)
@given(rooted_functions())
def test_decompose_at_multiple_roots_keeps_the_bits_per_piece(g):
    assert_parts_per_piece(g)


def test_decompose_takes_a_g_normalised_by_its_own_sup():
    # one complex degree-6 piece with coefficients up to 2361, as
    # rooted_functions draws it: the complex sup kernel rounds in proportion
    # to the coefficients, so the sup that normalised g reads 1 + 1.2e-12
    # for it; decompose allows the function's own noise floor above 1, as
    # jump_points does, and still refuses a sup above that floor
    re = [0.0, 0.0, 24.59043083544626, -283.75098305864674,
          1227.8346340117198, -2361.347297828238, 1702.986167631033]
    im = [0.017323671138824798, -0.6236521609976927, 8.869719623078296,
          -62.088037361548075, 212.8732709538791, -283.8310279385055, 0.0]
    g = PiecewiseFunction(
        [0.0, 0.47728539153584726], [[complex(r, i) for r, i in zip(re, im)]],
        [complex(0.0, 0.017323671138824798),
         complex(0.11298916940094408, -0.9935962195973197)])
    assert 1.0 + 1e-12 < g.sup_abs() < 1.0 + g._noise_floor()
    assert_parts_per_piece(g)
    with pytest.raises(ArgumentError, match="exceeds 1"):
        decompose(g * (1.0 + 1e-9))


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(4, 12), st.booleans())
def test_decompose_of_splines_keeps_the_bits_per_piece(seed, knots, cplx):
    rng = np.random.default_rng(seed)
    assert_parts_per_piece(random_spline((0.0, 1.0), rng, knot_count=knots,
                                         complex_field=cplx))


@pytest.mark.parametrize("cplx", [False, True])
def test_decompose_splits_the_real_and_imaginary_parts_once(cplx):
    g = random_spline((0.0, 1.0), np.random.default_rng(4),
                      complex_field=cplx)
    with mock.patch.object(functions, "_split_rows",
                           wraps=_split_rows) as split:
        decompose(g)
    assert split.call_count == 2


def test_abel_identity_hand_case():
    res = abel_identity_check([0.2, 0.7], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(res.lhs, [0.2, 0.7], atol=1e-15)
    np.testing.assert_allclose(res.rhs, [0.2, 0.7], atol=1e-15)
    assert res.gap <= 1e-15
    np.testing.assert_allclose(res.coefficients, [0.2, 0.5], atol=1e-15)


def test_abel_identity_trivial_cases():
    res = abel_identity_check([0.0, 0.0, 0.0], np.eye(3))
    assert res.gap == 0.0
    np.testing.assert_array_equal(res.lhs, np.zeros(3))

    res = abel_identity_check([1.0], [[2.0, -3.0]])
    np.testing.assert_array_equal(res.lhs, [2.0, -3.0])
    np.testing.assert_array_equal(res.rhs, [2.0, -3.0])


def test_abel_identity_randomized():
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        gv = rng.uniform(0.0, 1.0, n)
        inc = rng.standard_normal((n, 3))
        res = abel_identity_check(gv, inc)
        assert res.gap <= 1e-12
        assert np.all(res.coefficients >= 0.0)
        assert math.isclose(res.coefficients.sum(), gv.max(),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert res.coefficients.sum() <= 1.0 + 1e-12


def test_abel_identity_validation():
    with pytest.raises(ArgumentError):
        abel_identity_check([0.5, 0.5], [[1.0, 0.0]])
    with pytest.raises(ArgumentError):
        abel_identity_check([1.5], [[1.0, 0.0]])
    with pytest.raises(ArgumentError):
        abel_identity_check([], np.zeros((0, 2)))


def test_hull_membership_inside():
    gens = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = hull_membership(np.array([0.5, 0.25]), gens)
    assert res.member
    assert res.distance <= 1e-9
    np.testing.assert_allclose(res.coefficients @ gens, [0.5, 0.25],
                               atol=1e-9)
    assert np.sum(np.abs(res.coefficients)) <= 1.0 + 1e-9


def test_hull_membership_zero_vector():
    gens = np.array([[3.0, 1.0]])
    res = hull_membership(np.zeros(2), gens)
    assert res.member


def test_hull_membership_outside():
    gens = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = hull_membership(np.array([1.0, 1.0]), gens)
    assert not res.member
    assert math.isclose(res.distance, 0.5, abs_tol=1e-7)
    assert res.functional is not None
    assert res.separation > 0.0
    # l1-normalized functional really separates v from the generators
    u, v = res.functional, np.array([1.0, 1.0])
    assert u @ v - np.max(np.abs(gens @ u)) > 0.0


def test_hull_membership_monotone_in_generators():
    rng = np.random.default_rng(33)
    small = rng.standard_normal((3, 2))
    big = np.concatenate([small, rng.standard_normal((3, 2))])
    for _ in range(20):
        beta = rng.uniform(-1.0, 1.0, 3)
        beta /= max(1.0, np.sum(np.abs(beta)))
        v = beta @ small
        assert hull_membership(v, small).member
        assert hull_membership(v, big).member


def test_hull_membership_complex():
    gens = np.array([[1.0 + 0.0j, 0.0j]])
    res = hull_membership(np.array([0.5j, 0.0j]), gens)
    assert res.member
    outside = hull_membership(np.array([0.0j, 1.0 + 0.0j]), gens)
    assert not outside.member


@pytest.mark.parametrize("v, gens", [([1e-8], [[0.0]]),
                                     ([1e-8j], [[0j]])])
def test_hull_membership_sees_a_defect_below_the_solvers_default(v, gens):
    # HiGHS's default feasibility tolerance, 1e-7, would let t = 0 pass
    # for |0 - 1e-8| <= t
    res = hull_membership(np.array(v), np.array(gens))
    assert not res.member
    assert math.isclose(res.distance, 1e-8, rel_tol=1e-6)
    assert math.isclose(res.separation, 1e-8, rel_tol=1e-6)


def test_hull_membership_keeps_its_coefficients_in_the_budget():
    # the solver's default tolerance gave sum |Re b| + |Im b| = 1 + 2e-9
    v = np.array([5e-10j, 1j])
    gens = np.array([[-0.5j, 1j], [0j, 1j]])
    res = hull_membership(v, gens)
    assert res.member
    beta = res.coefficients
    assert np.sum(np.abs(beta.view(float))) <= 1.0
    assert np.max(np.abs((beta @ gens - v).view(float))) <= res.distance


def complex_entries(shape):
    parts = st.floats(-2.0, 2.0, allow_subnormal=False)
    return st.lists(st.tuples(parts, parts), min_size=math.prod(shape),
                    max_size=math.prod(shape)).map(
        lambda pairs: np.array([complex(*p) for p in pairs]).reshape(shape))


@st.composite
def complex_hull_cases(draw):
    """Complex generators (k <= 6, d <= 3) and a v that is a scaled
    combination of them, or arbitrary."""
    k, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    gens = draw(complex_entries((k, d)))
    if draw(st.booleans()):
        beta = draw(complex_entries((k,)))
        budget = float(np.sum(np.abs(beta.real) + np.abs(beta.imag)))
        v = beta @ gens * (draw(st.floats(0.0, 2.0)) / max(budget, 1.0))
    else:
        v = draw(complex_entries((d,)))
    return v, gens


@settings(max_examples=200)
@given(complex_hull_cases())
# HiGHS drops matrix entries up to 1e-9 by default, which rejected this
# member at distance 1e-9 with a separation of 0
@example(case=(np.array([1j, 1e-9j]), np.array([[1.25j, 1e-9j]])))
def test_complex_hull_membership_certificates(case):
    # the certificates are read from the complex data only, so they hold
    # however the LP lays out its real rows and columns
    v, gens = case
    res = hull_membership(v, gens)
    if res.member:
        beta = res.coefficients
        defect = beta @ gens - v
        # both are recomputed on the LP's real data, whose sums round
        # apart from these complex ones by an ulp or two: a search that
        # maximised the excess over 12000 examples found 2.2e-16
        assert max(np.max(np.abs(defect.real)),
                   np.max(np.abs(defect.imag))) <= res.distance + 1e-14
        assert np.sum(np.abs(beta.real) + np.abs(beta.imag)) <= 1.0 + 1e-14
        return
    u = res.functional
    assert math.isclose(np.sum(np.abs(u.real) + np.abs(u.imag)), 1.0,
                        rel_tol=1e-12)
    # Re<u, z> = Re sum conj(u_j) z_j; the generators are w_k and i w_k
    reach = max(max(abs(np.vdot(u, w).real), abs(np.vdot(u, 1j * w).real))
                for w in gens)
    expected = abs(np.vdot(u, v).real) - reach
    assert math.isclose(res.separation, expected, rel_tol=1e-12,
                        abs_tol=1e-12)
    assert res.separation > 0.0


def test_image_check_single_jump():
    T = StieltjesOperator(plane(), single_jump())
    report = weakly_compact_image_check(T, sample_count=10, seed=0)
    assert report.ok
    assert report.worst_distance <= 1e-9
    assert report.checked == 40
    assert report.witness is None


def test_image_check_reports_a_witness_on_rejection():
    # the LP's defect on these images is rounding, far above 1e-300
    jumps = np.random.default_rng(3).standard_normal((4, 2))
    x = PiecewiseFunction.step((0.0, 1.0), [0.2, 0.45, 0.7, 0.9], jumps,
                               [0.0, 0.0])
    report = weakly_compact_image_check(StieltjesOperator(plane(), x),
                                        sample_count=5, seed=1, tol=1e-300)
    assert not report.ok
    assert 0.0 < report.worst_distance <= 1e-14
    assert report.witness["distance"] == report.worst_distance
    assert 0 <= report.witness["sample"] < 5
    assert 0 <= report.witness["part"] < 4


def test_image_check_solves_no_lp_for_a_zero_part():
    # on a real space the imaginary parts g1 and g3 are identically zero
    T = StieltjesOperator(plane(), single_jump())
    with mock.patch.object(representation, "hull_membership",
                           wraps=hull_membership) as hull:
        report = weakly_compact_image_check(T, sample_count=5, seed=0)
    rng = np.random.default_rng(0)
    nonzero = sum(part.sup_abs() > 0.0 for _ in range(5) for part in
                  decompose(random_spline((0.0, 1.0), rng)))
    assert hull.call_count == nonzero <= 10
    assert report.ok and report.checked == 20
    assert report.worst_distance == 0.0


def test_image_check_takes_no_sup_pass_to_find_a_zero_part():
    # one sup pass normalises the samples and one per sample bounds its
    # sup in decompose; T applies in closed form on a step x, which takes
    # no derivative sups, and a part is zero exactly when its arrays are,
    # which needs no pass
    jumps = np.random.default_rng(3).standard_normal((4, 2))
    x = PiecewiseFunction.step((0.0, 1.0), [0.2, 0.45, 0.7, 0.9], jumps,
                               [0.0, 0.0])
    with mock.patch.object(functions, "_sup_abs_rows",
                           wraps=functions._sup_abs_rows) as sups, \
            mock.patch.object(representation, "hull_membership",
                              wraps=hull_membership) as hull:
        report = weakly_compact_image_check(StieltjesOperator(plane(), x),
                                            sample_count=10, seed=0)
    assert report.ok and report.checked == 40
    assert hull.call_count == 20
    assert sups.call_count == 1 + 10


def test_image_check_takes_one_sup_pass_per_part_applied_by_a_drive():
    # on a non-step x each applied part's drive takes one pass for its
    # derivative sups
    x = PiecewiseFunction(np.array([0.0, 1.0]),
                          np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))
    with mock.patch.object(functions, "_sup_abs_rows",
                           wraps=functions._sup_abs_rows) as sups, \
            mock.patch.object(representation, "apply",
                              wraps=apply) as applied:
        report = weakly_compact_image_check(StieltjesOperator(plane(), x),
                                            sample_count=5, seed=0)
    assert report.ok and report.checked == 20
    assert applied.call_count == 10
    assert sups.call_count == 1 + 5 + applied.call_count


def test_image_check_constant_integrator():
    x = PiecewiseFunction.constant([0.0, 0.0], (0.0, 1.0))
    T = StieltjesOperator(plane(), x)
    report = weakly_compact_image_check(T, sample_count=4, seed=1)
    assert report.ok


def test_image_check_full_increment_is_member():
    # g = 1 decomposes to g0 = 1, so Tg0 = x(b) - x(a), a generator itself
    x = single_jump()
    Tg0 = integrate_g_dx(PiecewiseFunction.constant(1.0, (0.0, 1.0)),
                         x).value
    gens = e_set(x)
    assert hull_membership(Tg0, gens).member


def test_image_check_smooth_integrator_reports_resolutions():
    coeffs = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    x = PiecewiseFunction(np.array([0.0, 1.0]), coeffs)
    T = StieltjesOperator(plane(), x)
    report = weakly_compact_image_check(T, sample_count=2, seed=3)
    assert report.resolutions == (9,)
    assert isinstance(report.ok, bool)
    if not report.ok:
        assert report.witness is not None


def test_measure_examples():
    m = measure_from_function(single_jump())
    np.testing.assert_allclose(measure_of_interval(m, 0.4, 0.6),
                               [1.0, -2.0])
    np.testing.assert_array_equal(measure_of_interval(m, 0.0, 0.25),
                                  [0.0, 0.0])
    np.testing.assert_allclose(measure_of_interval(m, 0.0, 1.0),
                               [1.0, -2.0])
    np.testing.assert_array_equal(measure_of_interval(m, 0.7, 0.7),
                                  [0.0, 0.0])
    with pytest.raises(ArgumentError):
        measure_of_interval(m, 0.6, 0.4)
    with pytest.raises(ArgumentError):
        measure_of_interval(m, 0.5, 1.5)


def test_measure_cumulative_vanishes_at_left_end():
    x = PiecewiseFunction.constant([2.0, 5.0], (0.0, 1.0))
    m = measure_from_function(x)
    np.testing.assert_array_equal(m.cumulative(0.0), [0.0, 0.0])
    with pytest.raises(ArgumentError):
        IntervalMeasure(x)


def test_measure_uniqueness_up_to_constants():
    x = single_jump()
    shifted = x + PiecewiseFunction.constant([4.0, -1.0], (0.0, 1.0))
    m1 = measure_from_function(x)
    m2 = measure_from_function(shifted)
    np.testing.assert_array_equal(m1.cumulative.values, m2.cumulative.values)
    np.testing.assert_array_equal(m1.cumulative.coeffs, m2.cumulative.coeffs)


@settings(max_examples=200)
@given(piecewise(dims=(1, 2, 3)), st.sampled_from([None, 0.0, -0.0, 2.5]))
def test_measure_has_the_bits_of_x_minus_its_start(x, end):
    # x(a) leaves the constant terms and the end value directly; the
    # difference with the constant function x(a) gives the same bits,
    # signed zeros included, with a jump at b or without
    if end is not None:
        x = PiecewiseFunction(x.breakpoints, x.coeffs, np.concatenate(
            [x.values[:-1], np.full_like(x.values[-1:], end)]))
    y = measure_from_function(x).cumulative
    expected = x - PiecewiseFunction.constant(x.values[0], x.domain)
    for name in ("breakpoints", "coeffs", "values"):
        assert same_bits(getattr(y, name), getattr(expected, name))
        assert not getattr(y, name).flags.writeable


def test_additivity_check():
    m = measure_from_function(single_jump())
    assert additivity_check(m, [0.0, 0.5, 1.0]) == 0.0
    assert additivity_check(m, [0.2, 0.9]) == 0.0
    poly = measure_from_function(
        PiecewiseFunction(np.array([0.0, 1.0]),
                          np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])))
    assert additivity_check(poly, [0.0, 0.3, 0.6, 1.0]) <= 1e-15
    with pytest.raises(ArgumentError):
        additivity_check(m, [0.5, 0.5])
    with pytest.raises(ArgumentError):
        additivity_check(m, [0.5])


def test_roundtrip_scalar_pairing_example():
    x = single_jump()
    T = StieltjesOperator(plane(), x)
    dual = np.array([1.0, 0.0])
    lhs = pair(dual, T.apply(ramp()))
    y = measure_from_function(x).cumulative
    rhs = integrate_g_dx(ramp(), dual_compose(y, dual)).value
    assert math.isclose(lhs, 0.5, abs_tol=1e-10)
    assert math.isclose(lhs, rhs, abs_tol=1e-9)


def test_roundtrip_single_jump():
    report = roundtrip(single_jump(), probe_count=30, dual_count=10,
                       function_count=10, seed=4)
    assert report.identity_gap == 0.0
    assert report.pairing_gap < 1e-6
    # breakpoints join the probe grid, so the count can exceed the request
    assert report.probe_count >= 30


def test_roundtrip_past_the_subset_sum_cap():
    # applying T never enumerates the increment-sum set, so neither does
    # a roundtrip; only reading wcs_bounds meets the cap
    times = np.linspace(0.02, 0.98, 21)
    jumps = np.random.default_rng(6).normal(size=(21, 2))
    x = PiecewiseFunction.step((0.0, 1.0), times, jumps, np.zeros(2))
    report = roundtrip(x, probe_count=10, dual_count=3, function_count=2,
                       seed=6)
    assert report.identity_gap == 0.0
    assert report.pairing_gap < 1e-6
    with pytest.raises(EnumerationLimitError, match="21 jumps"):
        StieltjesOperator(plane(), x).wcs_bounds


def test_roundtrip_constant_integrator():
    x = PiecewiseFunction.constant([3.0, 1.0], (0.0, 1.0))
    report = roundtrip(x, probe_count=10, dual_count=5, function_count=5,
                       seed=5)
    assert report.identity_gap == 0.0
    assert report.pairing_gap == 0.0


def test_roundtrip_without_duals_pairs_nothing():
    x = spline_plus_steps(3, 3, False)
    report = roundtrip(x, probe_count=10, dual_count=0, function_count=2,
                       seed=3)
    assert report.dual_count == 0
    assert report.pairing_gap == 0.0 and report.worst_pair is None
    with pytest.raises(ArgumentError, match="nonnegative"):
        roundtrip(x, probe_count=10, dual_count=-1, function_count=2)


def test_roundtrip_without_functions_pairs_nothing():
    # no g: the stacked drive takes no integrands and pairs nothing; a
    # negative count is refused, as sample_dual_ball refuses one
    x = spline_plus_steps(3, 3, False)
    report = roundtrip(x, probe_count=10, dual_count=2, function_count=0,
                       seed=3)
    assert report.function_count == 0
    assert report.pairing_gap == 0.0 and report.worst_pair is None
    with pytest.raises(ArgumentError, match="nonnegative, not -3"):
        roundtrip(x, probe_count=10, dual_count=2, function_count=-3)


def pairing_by_single_drives(x, tol, dual_count, function_count, seed,
                             driven=False):
    """roundtrip's (pairing_gap, worst_pair) from one integrate_g_dx per
    (dual, g), drawing the duals and the g as roundtrip does.  Each image
    T g is ``apply(T, g, tol=tol)``, or with ``driven`` its own drive
    ``integrate_g_dx(g, x, ...)`` whatever x is."""
    field = "complex" if np.iscomplexobj(x.coeffs) else "real"
    space = SpaceModel(x.dim, field, (Seminorm.weighted_sup(np.ones(x.dim)),))
    T = StieltjesOperator(space, x)
    y = measure_from_function(x).cumulative
    rng = np.random.default_rng(seed)
    duals = sample_dual_ball(np.eye(x.dim), dual_count, seed=seed)
    gs = [random_spline(x.domain, rng, complex_field=(field == "complex"))
          for _ in range(function_count)]
    gap, worst = 0.0, None
    for j, g in enumerate(gs):
        tg = integrate_g_dx(g, x, seminorms=space.seminorms,
                            tol=tol).value if driven else apply(T, g, tol=tol)
        for i, d in enumerate(duals):
            d = np.asarray(d)
            rhs = integrate_g_dx(g, dual_compose(y, d), tol=tol).value
            if abs(pair(d, tg) - rhs) > gap:
                gap, worst = float(abs(pair(d, tg) - rhs)), (i, j)
    return gap, worst


def spline_plus_steps(seed, dim, complex_field):
    rng = np.random.default_rng(seed)
    s = random_spline((0.0, 1.0), rng, complex_field=complex_field)
    jumps = rng.normal(size=(3, dim)) * ((1 + 1j) if complex_field else 1.0)
    return PiecewiseFunction.step((0.0, 1.0), [0.2, 0.5, 0.9], jumps,
                                  np.zeros(dim)) \
        + PiecewiseFunction(s.breakpoints,
                            np.stack([s.coeffs * (k + 1) for k in range(dim)],
                                     axis=2))


@pytest.mark.parametrize("x,tol", [
    (single_jump(), 1e-8),
    (spline_plus_steps(1, 2, False), 1e-7),
    (spline_plus_steps(2, 3, True), 1e-6),
    (PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5, 0.75],
                            [[1.0, 0.0], [0.0, 1j], [2.0, -1.0]],
                            [0.0, 0.0]), 1e-8),
])
def test_roundtrip_pairing_matches_single_drives(x, tol):
    # the one stacked drive of every g against every dual must reproduce
    # the pairing loop with one scalar drive per pair to the last bit,
    # worst pair included
    report = roundtrip(x, probe_count=10, tol=tol, dual_count=6,
                       function_count=3, seed=11)
    gap, worst = pairing_by_single_drives(x, tol, 6, 3, 11)
    assert report.pairing_gap == gap and report.worst_pair == worst
    assert worst is not None


@pytest.mark.parametrize("x", [
    PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5, 0.75],
                           [[1.0, 0.0], [0.0, 1j], [2.0, -1.0]], [0.0, 0.0]),
    PiecewiseFunction.step((0.0, 1.0), [0.2, 0.45, 0.7, 1.0],
                           np.random.default_rng(5).normal(size=(4, 3)),
                           np.zeros(3)),
])
def test_roundtrip_on_a_step_keeps_the_report_of_driven_images(x):
    # the closed-form images of a step have the bits of their drives, so
    # the report is the one that a drive per image gives
    assert x.is_step
    report = roundtrip(x, probe_count=10, tol=1e-8, dual_count=6,
                       function_count=3, seed=11)
    gap, worst = pairing_by_single_drives(x, 1e-8, 6, 3, 11, driven=True)
    assert report.pairing_gap == gap and report.worst_pair == worst
    assert worst is not None
