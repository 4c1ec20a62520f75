"""Scale invariance of every decision that compares the data with a
threshold.

Floating point scales by a power of two exactly, away from overflow and
subnormal numbers.  So multiplying the data by 2^k, k in [-40, 40], must
leave each decision unchanged, and each reported size must scale by 2^k:
hull membership, the image check, the sampled duals, the validity checks
of a quadratic form, the separation flag of a family and the
semivariation of a step.  The explicit cases at 1e-13 to 1e12 are the
scales at which absolute thresholds decided wrongly.
"""

import numpy as np
import pytest

from stieltjes.errors import ArgumentError
from stieltjes.functions import PiecewiseFunction
from stieltjes.representation import (StieltjesOperator, hull_membership,
                                      weakly_compact_image_check)
from stieltjes.semivariation import semivariation
from stieltjes.spaces import Seminorm, SpaceModel, sample_dual_ball

POWERS = range(-40, 41, 10)

PLANE = SpaceModel(2, "real", (Seminorm.weighted_sup(np.ones(2)),))


def random_step(scale=1.0):
    """Four jumps in R^2 at 0.2, 0.45, 0.7 and 0.9, times ``scale``."""
    jumps = np.random.default_rng(3).standard_normal((4, 2))
    return PiecewiseFunction.step((0.0, 1.0), [0.2, 0.45, 0.7, 0.9],
                                  jumps * scale, [0.0, 0.0])


def hull_cases():
    """(v, generators, whether v is a member)."""
    rng = np.random.default_rng(8)
    gens = rng.standard_normal((5, 3))
    cgens = gens + 1j * rng.standard_normal((5, 3))
    beta = np.array([0.3, -0.2, 0.1, 0.0, 0.25])
    return [(beta @ gens, gens, True),
            (3.0 * gens[0], gens, False),
            ((0.5 - 0.25j) * beta @ cgens, cgens, True),
            (2.5j * cgens[1], cgens, False),
            (np.array([100.0, 0.0]), np.array([[1.0, 0.0]]), False)]


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("case", range(5))
def test_hull_decisions_do_not_depend_on_scale(case, k):
    v, gens, member = hull_cases()[case]
    base = hull_membership(v, gens)
    scaled = hull_membership(v * 2.0 ** k, gens * 2.0 ** k)
    assert scaled.member == base.member == member
    assert scaled.distance == np.ldexp(base.distance, k)
    assert type(scaled.distance) is float
    if member:
        np.testing.assert_array_equal(scaled.coefficients, base.coefficients)
    else:
        np.testing.assert_array_equal(scaled.functional, base.functional)
        assert scaled.separation == np.ldexp(base.separation, k) > 0.0
        assert type(scaled.separation) is float


def test_a_point_outside_a_tiny_hull_is_refused():
    # v lies 100 times as far out as the hull reaches
    res = hull_membership(np.array([1e-10, 0.0]), np.array([[1e-12, 0.0]]))
    assert not res.member
    assert res.distance == pytest.approx(9.9e-11, rel=1e-9)
    assert res.separation == pytest.approx(9.9e-11, rel=1e-9)


@pytest.mark.parametrize("scale", [2.0 ** k for k in POWERS]
                         + [1e-12, 1e6, 1e9])
def test_image_check_of_a_step_does_not_depend_on_scale(scale):
    # every image of a step integrator lies in the hull exactly, so the
    # LP's defect is rounding, relative to the size of the jumps
    T = StieltjesOperator(PLANE, random_step(scale))
    report = weakly_compact_image_check(T, sample_count=5, seed=1)
    assert report.ok and report.witness is None
    assert report.worst_distance <= 1e-14 * scale


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("A", [np.array([[1.0, 0.5], [-0.25, 2.0]]),
                               np.array([[1.0, 2.0j, 0.0], [0.5, 0.0, -1j]]),
                               np.eye(3)])
def test_dual_samples_scale_inversely(A, k):
    base = sample_dual_ball(A, 7, seed=4)
    scaled = sample_dual_ball(A * 2.0 ** k, 7, seed=4)
    for d, d0 in zip(scaled, base, strict=True):
        np.testing.assert_array_equal(d, d0 * 2.0 ** -k)


def test_tiny_bounding_set_keeps_its_coordinate_duals():
    duals = sample_dual_ball(1e-13 * np.eye(2), 4)
    np.testing.assert_allclose(duals[0], [1e13, 0.0], rtol=1e-15)
    np.testing.assert_allclose(duals[1], [0.0, 1e13], rtol=1e-15)
    gauges = [float(np.max(np.abs(1e-13 * d))) for d in duals]
    assert gauges[2] == pytest.approx(1.0, rel=1e-15)
    assert max(gauges) <= 1.0 + 1e-15


QUADRATIC = [
    (np.diag([1.0, -1.0]), False),
    (np.array([[1.0, 5.0], [0.0, 1.0]]), False),
    (np.diag([1.0, -1e-21]), True),
    (np.array([[2.0, 1.0], [1.0, 1.0]]), True),
    (np.array([[1.0, 1.0j], [-1.0j, 1.0]]), True),
]


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("matrix, valid", QUADRATIC)
def test_quadratic_validity_does_not_depend_on_scale(matrix, valid, k):
    if valid:
        Seminorm.quadratic(matrix * 2.0 ** k)
    else:
        with pytest.raises(ArgumentError):
            Seminorm.quadratic(matrix * 2.0 ** k)


@pytest.mark.parametrize("matrix, valid", [
    (1e-12 * np.diag([1.0, -1.0]), False),
    (1e-13 * np.array([[1.0, 5.0], [0.0, 1.0]]), False),
    (np.diag([1e12, -1e-9]), True),
])
def test_quadratic_validity_at_extreme_sizes(matrix, valid):
    if valid:
        Seminorm.quadratic(matrix)
    else:
        with pytest.raises(ArgumentError):
            Seminorm.quadratic(matrix)


FAMILIES = [
    (lambda s: (Seminorm.weighted_sup([s, s]),), True),
    (lambda s: (Seminorm.weighted_one([s, 0.0]),), False),
    (lambda s: (Seminorm.weighted_sup([s, 0.0]),
                Seminorm.weighted_one([0.0, 1e-3 * s])), True),
    (lambda s: (Seminorm.quadratic(s * np.eye(2)),), True),
    (lambda s: (Seminorm.quadratic(s * np.ones((2, 2))),), False),
    (lambda s: (Seminorm.quadratic(s * np.diag([1.0, 1e-6])),), True),
]


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("family, separating", FAMILIES)
def test_separation_does_not_depend_on_scale(family, separating, k):
    space = SpaceModel(2, "real", family(2.0 ** k))
    assert space.separating == separating


def test_tiny_families_separate():
    assert SpaceModel(2, "real",
                      (Seminorm.weighted_sup([1e-13, 1e-13]),)).separating
    assert SpaceModel(2, "real",
                      (Seminorm.quadratic(1e-13 * np.eye(2)),)).separating


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("p", [Seminorm.weighted_sup([1.0, 0.5]),
                               Seminorm.weighted_one([1.0, 2.0]),
                               Seminorm.quadratic(np.array([[2.0, 1.0],
                                                            [1.0, 1.0]]))])
def test_step_semivariation_scales(p, k):
    base = semivariation(random_step(), p)
    scaled = semivariation(random_step(2.0 ** k), p)
    assert scaled.value == np.ldexp(base.value, k)
    assert scaled.exact and scaled.converged
