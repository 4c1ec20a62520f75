import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from stieltjes.errors import ArgumentError, EnumerationLimitError
from stieltjes.functions import (PiecewiseFunction, TaggedPartition,
                                 _extreme_rows, _horner, _interleave,
                                 _path_lengths,
                                 dual_compose, random_spline,
                                 scalar_variation, uniform_tagged_partition)
from stieltjes.integrals import exact_step_integral
from stieltjes.representation import StieltjesOperator, apply
from stieltjes.semivariation import (_dedupe, dual_variation_bound, e_set,
                                     semivariation,
                                     semivariation_on_partition, wcs_check)
from stieltjes.spaces import Seminorm, SpaceModel


def single_jump():
    return PiecewiseFunction.step((0.0, 1.0), [0.5], [[1.0, -2.0]],
                                  [0.0, 0.0])


def two_jumps():
    return PiecewiseFunction.step((0.0, 1.0), [0.25, 0.75],
                                  [[1.0, 0.0], [-1.0, 1.0]], [0.0, 0.0])


def taxicab():
    return Seminorm.weighted_one([1.0, 1.0])


def first_coord():
    return Seminorm.weighted_sup([1.0, 0.0])


def monotone_pair():
    coeffs = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    return PiecewiseFunction(np.array([0.0, 1.0]), coeffs)


def brute_force(x, partition_points, p):
    """Independent sign enumeration over the partition increments."""
    vals = x.values_at(np.asarray(partition_points, float))
    deltas = np.diff(vals, axis=0)
    best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=deltas.shape[0]):
        best = max(best, p(np.asarray(signs) @ deltas))
    return best


def test_on_partition_single_jump():
    part = TaggedPartition.from_points([0.0, 0.4, 1.0])
    value, coeffs = semivariation_on_partition(single_jump(), part,
                                               taxicab())
    assert value == 3.0
    assert len(coeffs) == 2
    assert np.all(np.abs(coeffs) <= 1.0)


def test_on_partition_constant():
    x = PiecewiseFunction.constant([2.0, 5.0], (0.0, 1.0))
    part = uniform_tagged_partition(0.0, 1.0, 7)
    value, _ = semivariation_on_partition(x, part, taxicab())
    assert value == 0.0


def test_on_partition_two_jumps_cancelling():
    part = TaggedPartition.from_points([0.0, 0.5, 1.0])
    value, coeffs = semivariation_on_partition(two_jumps(), part,
                                               first_coord())
    assert value == 2.0
    # signs must oppose: the jumps cancel in the first coordinate otherwise
    assert coeffs[0] * coeffs[1] < 0


def test_on_partition_coefficients_attain():
    rng = np.random.default_rng(14)
    x = PiecewiseFunction(np.array([0.0, 0.35, 1.0]),
                          rng.standard_normal((2, 4, 3)))
    p = Seminorm.weighted_one([1.0, 0.5, 2.0])
    part = uniform_tagged_partition(0.0, 1.0, 6)
    value, coeffs = semivariation_on_partition(x, part, p)
    deltas = np.diff(x.values_at(part.points), axis=0)
    np.testing.assert_allclose(p(coeffs @ deltas), value, rtol=1e-12)


def test_on_partition_cell_cap():
    part = uniform_tagged_partition(0.0, 1.0, 21)
    try:
        semivariation_on_partition(single_jump(), part, taxicab())
    except EnumerationLimitError:
        pass
    else:
        raise AssertionError("expected refusal above 20 cells")


def test_on_partition_checks_raw_points():
    p = Seminorm.weighted_sup([1.0, 1.0])
    # points that do not increase are refused as a TaggedPartition's are
    with pytest.raises(ArgumentError, match="strictly increase"):
        semivariation_on_partition(single_jump(), [0.0, 0.7, 0.3, 1.0], p)
    value, _ = semivariation_on_partition(single_jump(),
                                          [0.0, 0.3, 0.7, 1.0], p)
    assert value == semivariation(single_jump(), p).value == 2.0


def test_on_partition_complex_matches_a_brute_force_phase_grid():
    rng = np.random.default_rng(21)
    coeffs = rng.standard_normal((2, 3, 2)) \
        + 1j * rng.standard_normal((2, 3, 2))
    x = PiecewiseFunction(np.array([0.0, 0.4, 1.0]), coeffs)
    p = Seminorm.weighted_one([1.0, 0.5])
    points = np.array([0.0, 0.3, 0.55, 1.0])
    value, alpha = semivariation_on_partition(x, points, p, phase_count=8)
    deltas = np.diff(x.values_at(points), axis=0)
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
    best = max(p(np.array((1.0,) + rest) @ deltas)
               for rest in itertools.product(phases, repeat=2))
    assert value == pytest.approx(best, rel=1e-14)
    assert p(alpha @ deltas) == pytest.approx(value, rel=1e-14)
    np.testing.assert_allclose(np.abs(alpha), 1.0, rtol=1e-15)


def test_on_partition_complex_combination_cap():
    x = PiecewiseFunction(np.array([0.0, 1.0]), [[0.0, 1.0 + 1.0j]])
    p = Seminorm.weighted_sup([1.0])
    # seven nonzero cells: 16^6 = 2^24 phase rows exceed the 2^20 cap
    with pytest.raises(EnumerationLimitError, match="combination cap"):
        semivariation_on_partition(x, np.linspace(0.0, 1.0, 8), p)
    value, _ = semivariation_on_partition(x, np.linspace(0.0, 1.0, 6), p,
                                          phase_count=4)
    assert value == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_dual_variation_bound_refuses_a_dual_of_another_dimension():
    with pytest.raises(ArgumentError, match="dual shape"):
        dual_variation_bound(single_jump(), np.eye(2), [np.ones(3)])


def test_on_partition_monotone_under_refinement():
    rng = np.random.default_rng(15)
    x = PiecewiseFunction(np.array([0.0, 0.5, 1.0]),
                          rng.standard_normal((2, 3, 2)))
    p = taxicab()
    part = uniform_tagged_partition(0.0, 1.0, 2)
    prev = -1.0
    for _ in range(4):
        value, _ = semivariation_on_partition(x, part, p)
        assert value >= prev - 1e-12
        prev = value
        mids = 0.5 * (part.points[:-1] + part.points[1:])
        part = TaggedPartition.from_points(_interleave(part.points, mids))


def test_semivariation_step_exact():
    rep = semivariation(single_jump(), taxicab())
    assert rep.value == 3.0
    assert rep.exact
    assert rep.converged
    assert not rep.lower_bound_only


def test_semivariation_monotone_curve():
    rep = semivariation(monotone_pair(), first_coord())
    assert math.isclose(rep.value, 1.0, abs_tol=1e-8)
    assert rep.exact
    assert rep.converged


@pytest.mark.parametrize("p", [Seminorm.weighted_sup([1.0, 0.0]),
                               Seminorm.weighted_one([1.0, 0.0])])
def test_semivariation_of_a_turning_curve_is_its_variation(p):
    # x_1 = 5t - 12t^2 + 8t^3 rises, falls and rises again; its values at
    # 0, 1/2 and 1 are 0, 1 and 1, so bisecting from the one-piece
    # partition reads 1.0 twice and must not stop there
    c = np.zeros((1, 4, 2))
    c[0, :, 0] = [0.0, 5.0, -12.0, 8.0]
    x = PiecewiseFunction(np.array([0.0, 1.0]), c)
    first = PiecewiseFunction(np.array([0.0, 1.0]), c[:, :, 0])
    rep = semivariation(x, p)
    assert math.isclose(rep.value, scalar_variation(first), rel_tol=1e-12)
    assert math.isclose(rep.value, 1.54433105395, rel_tol=1e-11)
    assert rep.exact and rep.converged


def test_max_report_is_exact_only_when_every_part_is():
    quad = Seminorm.quadratic(np.eye(2))
    parts = [semivariation(monotone_pair(), q) for q in (first_coord(), quad)]
    rep = semivariation(monotone_pair(), Seminorm.max_of(first_coord(), quad))
    assert rep.value == max(r.value for r in parts)
    assert parts[0].exact and not rep.exact
    rep = semivariation(single_jump(), Seminorm.max_of(taxicab(), quad))
    assert rep.value == 3.0 and rep.exact


def test_semivariation_constant():
    x = PiecewiseFunction.constant([3.0, -1.0], (0.0, 1.0))
    rep = semivariation(x, taxicab())
    assert rep.value == 0.0


def test_semivariation_trace_nondecreasing():
    rng = np.random.default_rng(16)
    x = PiecewiseFunction(np.array([0.0, 0.4, 1.0]),
                          rng.standard_normal((2, 3, 2)))
    rep = semivariation(x, taxicab(), tol=1e-6)
    trace = np.asarray(rep.trace)
    assert np.all(np.diff(trace) >= -1e-12)
    assert rep.value == trace[-1]


def test_semivariation_matches_sign_enumeration():
    rng = np.random.default_rng(17)
    seminorms = [taxicab(), Seminorm.weighted_sup([1.0, 2.0]),
                 Seminorm.quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]))]
    for trial in range(12):
        m = int(rng.integers(1, 7))
        times = np.sort(rng.uniform(0.05, 0.95, m))
        while np.any(np.diff(times) <= 1e-3):
            times = np.sort(rng.uniform(0.05, 0.95, m))
        jumps = rng.standard_normal((m, 2))
        x = PiecewiseFunction.step((0.0, 1.0), times, jumps,
                                   np.zeros(2))
        p = seminorms[trial % len(seminorms)]
        rep = semivariation(x, p)
        points = np.concatenate([[0.0], (times[:-1] + times[1:]) / 2, [1.0]])
        points = np.unique(np.concatenate([points, times - 1e-4]))
        oracle = brute_force(x, points, p)
        assert abs(rep.value - oracle) <= 1e-12
        assert rep.exact


def test_semivariation_complex_weighted_sup_exact():
    x = PiecewiseFunction.step((0.0, 1.0), [0.3, 0.7],
                               [[1.0 + 0.0j], [0.0 + 1.0j]],
                               np.zeros(1, dtype=complex))
    # coordinatewise sup decouples, so phases align each jump separately
    rep = semivariation(x, Seminorm.weighted_sup([1.0]))
    assert rep.value == 2.0
    assert rep.exact
    assert not rep.lower_bound_only
    # in dimension 1 weighted-one is the same seminorm: one phase suffices
    rep = semivariation(x, Seminorm.weighted_one([1.0]))
    assert rep.value == rep.upper == 2.0
    assert rep.exact and rep.converged and not rep.lower_bound_only


def test_semivariation_complex_lower_bound():
    x = PiecewiseFunction.step((0.0, 1.0), [0.3, 0.7],
                               [[1.0 + 0.0j], [0.0 + 1.0j]],
                               np.zeros(1, dtype=complex))
    p = Seminorm.quadratic(np.array([[1.0]]))
    rep = semivariation(x, p, phase_count=32)
    assert rep.lower_bound_only
    assert not rep.exact
    # the true supremum aligns both jumps: |1| + |i| = 2
    assert rep.value <= 2.0 + 1e-9
    assert rep.value >= 2.0 - 1e-9


def stacked_splines(rng, dim, complex_field=False):
    parts = [random_spline((0.0, 1.0), rng, complex_field=complex_field)
             for _ in range(dim)]
    return PiecewiseFunction(parts[0].breakpoints,
                             np.stack([s.coeffs for s in parts], axis=2))


def polar_directions(m, count, seed):
    """``count`` directions R w with R = M^(1/2) and |w| = 1: each lies in
    the polar ball of p(v) = sqrt(v^H M v), since |<R w, v>| <= |R v|."""
    lam, vec = np.linalg.eigh(m)
    root = (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.conj().T
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(count, m.shape[0]))
    if np.iscomplexobj(m):
        w = w + 1j * rng.normal(size=w.shape)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w @ root.T


@pytest.mark.parametrize("seed,expected", [(1, 23.15978617),
                                           (0, 8.7442037),
                                           (2, 6.8406962)])
def test_quadratic_search_closes_its_bracket(seed, expected):
    # the two agreeing levels of a partition bisection stopped at 22.3418
    # for seed 1, 3.5% below the sup
    rng = np.random.default_rng(seed)
    x = stacked_splines(rng, 3)
    a = rng.normal(size=(3, 3))
    m = a @ a.T
    rep = semivariation(x, Seminorm.quadratic(m))
    assert rep.converged and rep.lower_bound_only and not rep.exact
    assert 0.0 <= rep.upper - rep.value <= 1e-8
    assert rep.value == pytest.approx(expected, abs=1e-7)
    assert np.all(np.diff(rep.trace) >= 0.0) and rep.trace[-1] == rep.value
    witness = max(scalar_variation(dual_compose(x, u))
                  for u in polar_directions(m, 400, 0))
    assert rep.value >= witness - 1e-8


def test_quadratic_search_reports_an_open_bracket_when_cut():
    rng = np.random.default_rng(1)
    x = stacked_splines(rng, 3)
    a = rng.normal(size=(3, 3))
    rep = semivariation(x, Seminorm.quadratic(a @ a.T), max_levels=3)
    assert not rep.converged and rep.levels == 3
    assert rep.upper - rep.value > 1e-8
    assert rep.value < 23.15978618 < rep.upper


def brute_force_sign_rows(jumps):
    """Sup of sum_j |<u, jump_j>| over the sign vectors u of R^2."""
    return max(np.sum(np.abs(jumps @ np.array([1.0, s])))
               for s in (1.0, -1.0))


@pytest.mark.parametrize("p", [Seminorm.weighted_sup([1.0, 1.0]),
                               Seminorm.weighted_one([1.0, 1.0])])
def test_polyhedral_semivariation_needs_no_jump_cap(p):
    jumps = np.random.default_rng(0).standard_normal((21, 2))
    x = PiecewiseFunction.step((0.0, 1.0), np.linspace(0.02, 0.98, 21),
                               jumps, np.zeros(2))
    rep = semivariation(x, p)
    column_sums = np.sum(np.abs(jumps), axis=0)
    expected = np.max(column_sums) if p.kind == "weighted-sup" \
        else brute_force_sign_rows(jumps)
    assert rep.value == pytest.approx(expected, rel=1e-13)
    assert rep.exact and rep.converged and rep.upper == rep.value
    if p.kind == "weighted-sup":
        assert rep.value == pytest.approx(15.438459749942558, rel=1e-14)
    with pytest.raises(EnumerationLimitError, match="21 jumps"):
        semivariation(x, Seminorm.quadratic(np.eye(2)))


def test_e_set_two_jumps():
    points = e_set(two_jumps())
    got = {tuple(np.round(v, 12)) for v in points}
    assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (0.0, 1.0)}


def test_e_set_constant():
    x = PiecewiseFunction.constant([2.0, 2.0], (0.0, 1.0))
    points = e_set(x)
    assert points.shape == (1, 2)
    np.testing.assert_array_equal(points[0], [0.0, 0.0])


def test_e_set_single_jump():
    points = e_set(single_jump())
    got = {tuple(v) for v in points}
    assert got == {(0.0, 0.0), (1.0, -2.0)}


def test_e_set_jump_cap_names_the_count():
    # a step function ignores the resolution, so advising one would not help
    times = np.linspace(0.01, 0.99, 21)
    x = PiecewiseFunction.step((0.0, 1.0), times, np.ones((21, 1)),
                               np.zeros(1))
    for resolution in (None, 5):
        with pytest.raises(EnumerationLimitError) as info:
            e_set(x, resolution)
        assert "21 jumps" in str(info.value)
        assert "cap of 20" in str(info.value)
        assert "resolution" not in str(info.value)


def test_e_set_grid_mode():
    points = e_set(monotone_pair(), resolution=3)
    got = {tuple(np.round(v, 12)) for v in points}
    assert got == {(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (0.5, 0.75)}


def test_e_set_grid_mode_validation():
    with pytest.raises(ArgumentError):
        e_set(monotone_pair())
    with pytest.raises(ArgumentError):
        e_set(monotone_pair(), resolution=0)
    with pytest.raises(EnumerationLimitError):
        e_set(monotone_pair(), resolution=21)


def e_set_reference(x):
    """The subset sums of a step's jumps, built from ``jump_points``."""
    increments = [j for _, j in x.jump_points(atol=0.0)]
    n, dtype = len(increments), x.values.dtype
    increments = np.asarray(increments, dtype=dtype).reshape(
        n, x.values[0].size)
    bits = (np.arange(2 ** n)[:, np.newaxis] >> np.arange(n)) & 1
    sums = bits.astype(dtype) @ increments
    return _dedupe(sums.reshape((-1,) + x.values.shape[1:]))


@st.composite
def padded_steps(draw):
    """Steps of 1-8 pieces whose levels repeat (zero jumps) and hold
    signed zeros, each piece padded with 0-3 signed-zero coefficients."""
    m, pad = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    size = math.prod(shape)
    entries = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.75])
    parts = 2 if draw(st.booleans()) else 1
    rows = [np.array(draw(st.lists(entries, min_size=parts * size,
                                   max_size=parts * size)))]
    for _ in range(m):
        rows.append(rows[-1] if draw(st.booleans()) else np.array(
            draw(st.lists(entries, min_size=parts * size,
                          max_size=parts * size))))
    levels = np.array(rows).reshape((m + 1, parts) + shape)
    if parts == 2:
        real = levels
        levels = np.empty((m + 1,) + shape, dtype=complex)
        levels.real, levels.imag = real[:, 0], real[:, 1]
    else:
        levels = levels[:, 0]
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]),
                          min_size=m * pad * size, max_size=m * pad * size))
    coeffs = np.zeros((m, pad + 1) + shape, dtype=levels.dtype)
    coeffs[:, 0] = levels[:m]
    coeffs[:, 1:] = np.reshape(zeros, (m, pad) + shape)
    return PiecewiseFunction(np.linspace(0.0, 1.0, m + 1), coeffs, levels)


@settings(max_examples=300)
@given(padded_steps())
def test_e_set_of_a_step_has_the_bits_of_its_jump_sums(x):
    assert x.is_step
    got, expected = e_set(x), e_set_reference(x)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# The formulas below are the ones the jump table replaced: jumps
# recomputed by Horner on every call, and a step's increments for its
# semivariation taken from values_at at its breakpoints.  values_at drops
# the sign of a zero level padded with zero coefficients, which the jumps
# keep; the properties pin that every reader of the table keeps the bits.


def fresh_jump_points(x, atol):
    jumps = x.values[1:] - _horner(x.coeffs, np.diff(x.breakpoints))
    size = np.max(np.abs(jumps.reshape(x.piece_count, -1)), axis=1)
    return [(float(t), jump) for t, jump, s
            in zip(x.breakpoints[1:], jumps, size) if s > atol]


def fresh_variation(x):
    c, h = x.coeffs, np.diff(x.breakpoints)
    steps = (_path_lengths(c, h) if np.iscomplexobj(c) else np.abs(
        np.diff(_extreme_rows(c, h), axis=1)).sum(axis=1)).tolist()
    return float(sum(steps) + sum(abs(jump) for _, jump
                                  in fresh_jump_points(x, 0.0)))


def fresh_step_integral(g, x):
    total = x.values[-1] * 0
    if np.iscomplexobj(g.values):
        total = total * (1 + 0j)
    for t, jump in fresh_jump_points(x, 0.0):
        total = total + g(t) * jump
    if x.dim is None:
        return complex(total) if np.iscomplexobj(total) else float(total)
    return total


def same_bits(a, b):
    """Equal type, dtype, shape and bytes: signed zeros must match too."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@settings(max_examples=300)
@given(padded_steps(), st.sampled_from([0.0, 1e-12, 1.0]))
def test_jump_points_of_a_step_keep_their_bits(x, atol):
    assert not x._jumps.flags.writeable
    for _ in range(2):  # computed, then read from the cache
        got, expected = x.jump_points(atol), fresh_jump_points(x, atol)
        assert [t for t, _ in got] == [t for t, _ in expected]
        assert all(same_bits(a, b) for (_, a), (_, b) in zip(got, expected))


@settings(max_examples=300)
@given(padded_steps(), st.integers(0, 2 ** 32 - 1))
def test_step_variation_and_integral_keep_their_bits(x, seed):
    rng = np.random.default_rng(seed)
    g = random_spline((0.0, 1.0), rng, complex_field=bool(seed % 2))
    assert same_bits(exact_step_integral(g, x), fresh_step_integral(g, x))
    if x.dim is None:
        assert same_bits(scalar_variation(x), fresh_variation(x))


def step_seminorms(x, seed):
    rng = np.random.default_rng(seed)
    d = 1 if x.dim is None else x.dim
    a = rng.standard_normal((d, d))
    return (Seminorm.weighted_sup(rng.uniform(0.2, 2.0, d)),
            Seminorm.weighted_one(rng.uniform(0.2, 2.0, d)),
            Seminorm.quadratic(a @ a.T + 0.1 * np.eye(d)))


@settings(max_examples=300)
@given(padded_steps(), st.integers(0, 2 ** 32 - 1))
def test_step_semivariation_keeps_its_bits(x, seed):
    def increments(f):
        return np.diff(f.values_at(f.breakpoints), axis=0)

    for p in step_seminorms(x, seed):
        got = semivariation(x, p, max_levels=4)
        with mock.patch.object(PiecewiseFunction, "_jumps",
                               property(increments)):
            expected = semivariation(x, p, max_levels=4)
        for name in ("value", "upper", "exact", "lower_bound_only",
                     "converged", "levels", "trace"):
            assert getattr(got, name) == getattr(expected, name), name
        for name in ("value", "upper"):
            assert same_bits(getattr(got, name), getattr(expected, name))
        assert same_bits(got.partition_points, expected.partition_points)
        assert same_bits(got.coefficients, expected.coefficients)


@pytest.mark.parametrize("s", [1e-200, 1e-13, 1e-9, 1e-3, 1.0, 1e4, 1e8])
def test_increment_sums_do_not_depend_on_the_scale(s):
    x = PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5],
                               s * np.array([[1.0, -2.0], [0.5, 1.0]]),
                               np.zeros(2))
    points = e_set(x)
    got = {tuple(np.round(v / s, 12)) for v in points}
    assert got == {(0.0, 0.0), (1.0, -2.0), (0.5, 1.0), (1.5, -1.0)}
    _, bounds = wcs_check(x, [Seminorm.weighted_sup([1.0, 1.0])])
    assert bounds[0] == pytest.approx(2.0 * s, rel=1e-12)


def test_complex_increment_sums_at_a_subnormal_scale():
    # numpy divides a complex number by multiplying with the reciprocal,
    # which overflows when the divisor is subnormal
    s = 1e-310
    x = PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5],
                               s * np.array([[1.0, -2.0j], [0.5j, 1.0]]),
                               np.zeros(2, dtype=complex))
    with np.errstate(all="raise"):
        points = e_set(x)
    assert len(points) == 4


def test_e_set_bounded_by_semivariation():
    rng = np.random.default_rng(18)
    p = taxicab()
    for _ in range(10):
        m = int(rng.integers(1, 6))
        times = np.sort(rng.uniform(0.1, 0.9, m))
        if np.any(np.diff(times) <= 1e-3):
            continue
        x = PiecewiseFunction.step((0.0, 1.0), times,
                                   rng.standard_normal((m, 2)), np.zeros(2))
        rep = semivariation(x, p)
        sup_e = max(p(v) for v in e_set(x))
        assert sup_e <= rep.value + 1e-12


def test_wcs_check_examples():
    ok, bounds = wcs_check(single_jump(), [taxicab()])
    assert ok
    np.testing.assert_allclose(bounds, [3.0])

    const = PiecewiseFunction.constant([1.0, 1.0], (0.0, 1.0))
    ok, bounds = wcs_check(const, [taxicab()])
    assert ok
    np.testing.assert_allclose(bounds, [0.0])

    ramp = PiecewiseFunction(np.array([0.0, 1.0]),
                             np.array([[[0.0, 0.0], [1.0, 0.0]]]))
    ok, bounds = wcs_check(ramp, [first_coord()])
    assert ok
    np.testing.assert_allclose(bounds, [1.0])


def test_wcs_check_multiple_seminorms():
    ok, bounds = wcs_check(single_jump(), [taxicab(), first_coord()])
    assert ok
    np.testing.assert_allclose(bounds, [3.0, 1.0])


def test_dual_variation_bound_examples():
    x = single_jump()
    axes = np.eye(2)
    assert dual_variation_bound(x, axes, [np.array([1.0, 0.0])]) == 1.0
    assert dual_variation_bound(x, axes, [np.zeros(2)]) == 0.0
    assert dual_variation_bound(x, axes, [np.array([0.0, 1.0])]) == 2.0
    assert dual_variation_bound(
        x, axes, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == 2.0


def test_dual_variation_bound_names_violator():
    x = single_jump()
    duals = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    with pytest.raises(ArgumentError) as info:
        dual_variation_bound(x, np.eye(2), duals)
    assert "1" in str(info.value)


def test_dual_bound_sandwich():
    # duals from the max-abs ball never beat the taxicab semivariation
    rng = np.random.default_rng(19)
    p = taxicab()
    for _ in range(10):
        m = int(rng.integers(1, 5))
        times = np.sort(rng.uniform(0.1, 0.9, m))
        if np.any(np.diff(times) <= 1e-3):
            continue
        x = PiecewiseFunction.step((0.0, 1.0), times,
                                   rng.standard_normal((m, 2)), np.zeros(2))
        rep = semivariation(x, p)
        duals = rng.uniform(-1.0, 1.0, (15, 2))
        bound = dual_variation_bound(x, np.eye(2), duals)
        assert bound <= rep.value + 1e-9


@st.composite
def real_curves(draw):
    """Real non-step x on [0, 1] of dimension 2 or 3: a cubic spline per
    coordinate, such a spline plus a step, or one polynomial piece."""
    dim = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["spline", "spline+step", "polynomial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "polynomial":
        coeffs = rng.uniform(-4.0, 4.0, (1, int(rng.integers(2, 6)), dim))
        return PiecewiseFunction(np.array([0.0, 1.0]), coeffs)
    splines = [random_spline((0.0, 1.0), rng) for _ in range(dim)]
    x = PiecewiseFunction(splines[0].breakpoints,
                          np.stack([g.coeffs for g in splines], axis=2))
    if kind == "spline+step":
        times = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(1, 4))))
        x = x + PiecewiseFunction.step((0.0, 1.0), times,
                                       rng.standard_normal((times.size,
                                                            dim)),
                                       np.zeros(dim))
    return x


@st.composite
def polyhedral_seminorms(draw, dim):
    """A weighted-sup, a weighted-one or the max of both, and directions
    u whose compositions <u, x> are the candidates for the sup: the
    coordinates, and the sign vectors times the weighted-one weights."""
    weights = [st.lists(st.floats(0.1, 3.0), min_size=dim, max_size=dim)
               for _ in range(2)]
    sup, one = (draw(w) for w in weights)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    return draw(st.sampled_from([
        (Seminorm.weighted_sup(sup), np.eye(dim)),
        (Seminorm.weighted_one(one), signs * one),
        (Seminorm.max_of(Seminorm.weighted_sup(sup),
                         Seminorm.weighted_one(one)),
         np.vstack([np.eye(dim), signs * one]))]))


def turning_points(f):
    """Interior points where the scalar real f turns, and both sides of
    each of its jumps."""
    out = []
    for b, h, c in zip(f.breakpoints, np.diff(f.breakpoints), f.coeffs):
        roots = npoly.polyroots(npoly.polyder(c)) if c.size > 2 else []
        out += [b + r.real for r in np.atleast_1d(roots)
                if abs(r.imag) < 1e-9 and 0.0 < r.real < h]
    for t, _ in f.jump_points():
        out += [t - 1e-7, t]
    return [t for t in out if 0.0 < t < 1.0]


@settings(max_examples=60)
@given(st.data())
def test_polyhedral_semivariation_bounds_every_partition(data):
    # the value is a sup over partitions, so no partition's brute-force
    # value may exceed it, also one through the turning points of a
    # candidate <u, x>; for weighted-one it is at most the sum of the
    # weighted coordinate variations
    x = data.draw(real_curves())
    p, directions = data.draw(polyhedral_seminorms(x.dim))
    u = data.draw(st.sampled_from(list(directions)))
    chosen = data.draw(st.permutations(turning_points(dual_compose(x, u))))
    inner = chosen[:data.draw(st.integers(0, 11))]
    inner += data.draw(st.lists(st.floats(0.001, 0.999), unique=True,
                                max_size=11 - len(inner)))
    points = np.unique(np.concatenate([[0.0, 1.0], inner]))
    rep = semivariation(x, p)
    assert rep.exact and rep.converged
    lower, _ = semivariation_on_partition(x, points, p)
    assert rep.value >= lower * (1.0 - 1e-12)
    if p.kind == "weighted-one":
        upper = sum(w * scalar_variation(dual_compose(x, e))
                    for w, e in zip(p.weights, np.eye(x.dim)))
        assert rep.value <= upper * (1.0 + 1e-12)


@st.composite
def curves_and_seminorms(draw):
    """A real or complex x of dimension 1 to 3 (a complex non-step x at
    most 2, since each of its variations is a quadrature) that is a step
    function, a spline per coordinate or their sum, with a quadratic or
    a weighted-one seminorm."""
    complex_field = draw(st.booleans())
    kind = draw(st.sampled_from(["step", "spline", "spline+step"]))
    dim = draw(st.integers(1, 2 if complex_field and kind != "step" else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def normal(shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_field else z

    zero = np.zeros(dim, dtype=complex if complex_field else float)
    x = PiecewiseFunction.constant(zero, (0.0, 1.0))
    if kind != "step":
        x = stacked_splines(rng, dim, complex_field)
    if kind != "spline":
        times = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(1, 6))))
        x = x + PiecewiseFunction.step((0.0, 1.0), times,
                                       normal((times.size, dim)), zero)
    if draw(st.booleans()):
        b = normal((dim, int(rng.integers(1, dim + 1))))
        return x, Seminorm.quadratic(b @ b.conj().T)
    return x, Seminorm.weighted_one(rng.uniform(0.2, 2.0, dim))


def polar_samples(p, count, seed, complex_field):
    if p.kind == "quadratic":
        return polar_directions(p.matrix, count, seed)
    rng = np.random.default_rng(seed)
    if complex_field:
        phases = np.exp(2j * np.pi * rng.uniform(size=(count, p.dimension)))
        return phases * p.weights
    return rng.uniform(-1.0, 1.0, (count, p.dimension)) * p.weights


@settings(max_examples=25, deadline=None)
@given(curves_and_seminorms())
def test_semivariation_brackets_every_polar_direction(case):
    # value is attained by a polar-ball direction and upper bounds every
    # one; for a real x the partition through the turning points of the
    # best sampled <u, x> cannot beat a converged value
    x, p = case
    tol = 1e-6
    complex_field = np.iscomplexobj(x.values)
    rep = semivariation(x, p, tol=tol)
    assert rep.value <= rep.upper
    assert rep.value >= p(x.values[-1] - x.values[0]) * (1.0 - 1e-12)
    samples = polar_samples(p, 40, 0, complex_field)
    variations = [scalar_variation(dual_compose(x, u)) for u in samples]
    assert rep.upper >= max(variations) * (1.0 - 1e-12)
    if x.is_step:
        # the coefficients on the jumps form one of the sums of the sup
        deltas = np.diff(x.values_at(rep.partition_points), axis=0)
        attained = p(rep.coefficients @ deltas)
        assert rep.value * (1.0 - 1e-12) <= attained
        assert attained <= rep.upper * (1.0 + 1e-12)
    if complex_field or not rep.converged:
        return
    best = dual_compose(x, samples[int(np.argmax(variations))])
    points = np.unique(np.concatenate([[0.0, 1.0],
                                       turning_points(best)[:19]]))
    lower, _ = semivariation_on_partition(x, points, p)
    assert rep.value >= lower - tol


# -- the operator norm is the semivariation -------------------------------------


def norming_integrand(x, report):
    """g* through the report's coefficient c_i at each jump time of the
    step x, linear between them and constant before the first: continuous,
    and |g*| <= 1 since it interpolates values of modulus at most 1, so
    T g* = sum_i c_i J_i."""
    times = report.partition_points[1:]
    c = report.coefficients
    bps = np.concatenate([[x.a], times]) if times[-1] == x.b \
        else np.concatenate([[x.a], times, [x.b]])
    values = np.concatenate([[c[0]], c, [c[-1]]])[:len(bps)]
    slopes = np.diff(values) / np.diff(bps)
    return PiecewiseFunction(bps, np.stack([values[:-1], slopes], axis=1),
                             values)


@st.composite
def normed_steps(draw):
    """(x, p): a step x of dimension 2-3 with 1-6 jumps, b included or
    not, real or complex, and a weighted-sup, weighted-one or quadratic
    seminorm on its dimension."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(2, 3))
    unit = 1 + 1j if draw(st.booleans()) else 1.0
    n = draw(st.integers(1, 6))
    times = np.sort(rng.choice(np.arange(1, 20) / 20, n, replace=False))
    if draw(st.booleans()):
        times[-1] = 1.0
    x = PiecewiseFunction.step((0.0, 1.0), times,
                               rng.normal(size=(n, dim)) * unit,
                               np.zeros(dim))
    kind = draw(st.sampled_from(["weighted-sup", "weighted-one",
                                 "quadratic"]))
    if kind == "quadratic":
        a = rng.normal(size=(dim, dim))
        return x, Seminorm.quadratic(a @ a.T + 0.1 * np.eye(dim))
    return x, Seminorm(kind, weights=rng.uniform(0.1, 3.0, dim))


@settings(max_examples=40)
@given(normed_steps())
def test_the_operator_norm_is_the_semivariation_on_steps(case):
    # sup over |g| <= 1 of p(T g) is the p-semivariation of x: the report's
    # coefficients attain it through a continuous g*, exactly where the
    # report is exact, and never beyond its certified upper end
    x, p = case
    report = semivariation(x, p)
    field = "complex" if np.iscomplexobj(x.coeffs) else "real"
    T = StieltjesOperator(SpaceModel(x.dim, field, (p,)), x)
    g = norming_integrand(x, report)
    assert np.max(np.abs(g.coeffs[:, 0])) <= 1.0 + 1e-15
    norm = p(apply(T, g))
    if report.exact:
        assert abs(norm - report.value) <= 1e-14 * report.value
    assert norm <= report.upper * (1 + 1e-12)
