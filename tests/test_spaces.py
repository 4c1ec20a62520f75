import hashlib

import numpy as np
import pytest

from stieltjes.errors import ArgumentError
from stieltjes.spaces import (Seminorm, SpaceModel, pair, polar_gauge,
                              sample_dual_ball)


def test_weighted_one_at_zero():
    p = Seminorm.weighted_one([1.0, 1.0])
    assert p(np.array([0.0, 0.0])) == 0.0


def test_weighted_one_unit_weights():
    p = Seminorm.weighted_one([1.0, 1.0])
    assert p(np.array([1.0, -2.0])) == 3.0


def test_weighted_sup_unit_weights():
    p = Seminorm.weighted_sup([1.0, 1.0])
    assert p(np.array([1.0, -2.0])) == 2.0


def test_quadratic_form_value():
    p = Seminorm.quadratic(np.array([[2.0, 0.0], [0.0, 1.0]]))
    # sqrt(2*1^2 + 1*(-2)^2) = sqrt(6)
    np.testing.assert_allclose(p(np.array([1.0, -2.0])), np.sqrt(6.0),
                               rtol=1e-14)


def test_max_of_combines_pointwise():
    p = Seminorm.max_of(Seminorm.weighted_sup([1.0, 1.0]),
                        Seminorm.weighted_one([1.0, 1.0]))
    v = np.array([1.0, -2.0])
    assert p(v) == 3.0
    assert p.kind == "max"
    # nesting flattens
    q = Seminorm.max_of(p, Seminorm.weighted_sup([0.5, 0.5]))
    assert len(q.parts) == 3


def test_weights_validation():
    with pytest.raises(ArgumentError):
        Seminorm.weighted_sup([1.0, -1.0])
    with pytest.raises(ArgumentError):
        Seminorm.weighted_one([])
    with pytest.raises(ArgumentError):
        Seminorm.weighted_one([np.inf, 1.0])


def test_quadratic_validation():
    with pytest.raises(ArgumentError):
        Seminorm.quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ArgumentError):
        Seminorm.quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # PSD with a zero eigenvalue is a legitimate seminorm
    p = Seminorm.quadratic(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert p(np.array([0.0, 5.0])) == 0.0


def test_dimension_mismatch_rejected():
    p = Seminorm.weighted_sup([1.0, 1.0])
    with pytest.raises(ArgumentError):
        p(np.array([1.0, 2.0, 3.0]))


def test_pair_examples():
    assert pair(np.array([1.0, 0.0]), np.array([3.0, 5.0])) == 3.0
    assert pair(np.zeros(2), np.array([7.0, -4.0])) == 0.0
    assert pair(np.array([1.0, 1.0]), np.array([1.0, -2.0])) == -1.0


def test_pair_conjugate_linear_in_dual():
    xp = np.array([1j, 0.0])
    v = np.array([1j, 0.0])
    # <i e1, i e1> = conj(i) * i = 1
    np.testing.assert_allclose(pair(xp, v), 1.0 + 0.0j)
    rng = np.random.default_rng(3)
    for _ in range(20):
        xp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(pair(xp, lam * v + w),
                                   lam * pair(xp, v) + pair(xp, w),
                                   rtol=1e-12, atol=1e-12)


def test_polar_gauge_examples():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert polar_gauge(A, np.array([2.0, 3.0])) == 3.0
    assert polar_gauge(np.zeros((1, 2)), np.array([9.0, 9.0])) == 0.0
    assert polar_gauge(np.array([[1.0, -2.0]]), np.array([1.0, 1.0])) == 1.0


def test_polar_gauge_refuses_a_dual_of_another_dimension():
    with pytest.raises(ArgumentError, match="dual shape"):
        polar_gauge(np.eye(2), np.ones(3))


def test_polar_gauge_is_seminorm_on_duals():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 3))
    for _ in range(50):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        lam = rng.standard_normal()
        g_u, g_v = polar_gauge(A, u), polar_gauge(A, v)
        np.testing.assert_allclose(polar_gauge(A, lam * u), abs(lam) * g_u,
                                   rtol=1e-12, atol=1e-13)
        assert polar_gauge(A, u + v) <= g_u + g_v + 1e-12 * (g_u + g_v + 1)


def test_polar_gauge_monotone_in_set():
    rng = np.random.default_rng(12)
    B = rng.standard_normal((6, 3))
    A = B[:3]
    for _ in range(50):
        xp = rng.standard_normal(3)
        assert polar_gauge(A, xp) <= polar_gauge(B, xp) + 1e-15


def test_seminorm_axioms_randomized():
    rng = np.random.default_rng(20260814)
    q = rng.standard_normal((3, 3))
    kinds = [
        Seminorm.weighted_sup(rng.uniform(0.0, 2.0, 3)),
        Seminorm.weighted_one(rng.uniform(0.0, 2.0, 3)),
        Seminorm.quadratic(q @ q.T),
        Seminorm.max_of(Seminorm.weighted_sup(np.ones(3)),
                        Seminorm.weighted_one(rng.uniform(0.0, 1.0, 3))),
    ]
    for p in kinds:
        assert p(np.zeros(3)) == 0.0
        for _ in range(100):
            v = rng.standard_normal(3)
            w = rng.standard_normal(3)
            lam = rng.standard_normal()
            scale = p(v) + p(w) + 1.0
            assert abs(p(lam * v) - abs(lam) * p(v)) <= 1e-12 * scale
            assert p(v + w) <= p(v) + p(w) + 1e-12 * scale


def test_seminorm_axioms_complex_field():
    rng = np.random.default_rng(77)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = Seminorm.quadratic(b @ b.conj().T)
    for _ in range(50):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(p(lam * v), abs(lam) * p(v),
                                   rtol=1e-11, atol=1e-12)


def test_space_model_basics():
    sems = (Seminorm.weighted_sup([1.0, 1.0]),)
    model = SpaceModel(2, "real", sems)
    assert model.dimension == 2
    assert model.separating
    with pytest.raises(ArgumentError):
        SpaceModel(0, "real", sems)
    with pytest.raises(ArgumentError):
        SpaceModel(2, "rational", sems)
    with pytest.raises(ArgumentError):
        SpaceModel(3, "real", sems)  # dimension mismatch
    with pytest.raises(ArgumentError):
        SpaceModel(2, "real", ())


def test_separating_flag():
    only_first = SpaceModel(2, "real", (Seminorm.weighted_sup([1.0, 0.0]),))
    assert not only_first.separating
    both = SpaceModel(2, "real", (Seminorm.weighted_sup([1.0, 0.0]),
                                  Seminorm.weighted_one([0.0, 2.0])))
    assert both.separating
    rank1 = SpaceModel(2, "real", (
        Seminorm.quadratic(np.array([[1.0, 1.0], [1.0, 1.0]])),))
    assert not rank1.separating
    full = SpaceModel(2, "real", (Seminorm.quadratic(np.eye(2)),))
    assert full.separating


def test_complex_quadratic_on_real_space_rejected():
    q = np.array([[2.0, 1j], [-1j, 2.0]])
    with pytest.raises(ArgumentError):
        SpaceModel(2, "real", (Seminorm.quadratic(q),))
    SpaceModel(2, "complex", (Seminorm.quadratic(q),))


def test_sample_dual_ball_contract():
    A = np.eye(2)
    duals = sample_dual_ball(A, 25, seed=7)
    assert len(duals) == 25
    for d in duals:
        assert polar_gauge(A, d) <= 1.0 + 1e-12
    gauges = [polar_gauge(A, d) for d in duals]
    assert any(g >= 0.99 for g in gauges)


def test_sample_dual_ball_scaled_constraint():
    A = np.array([[2.0, 0.0]])
    duals = sample_dual_ball(A, 4, seed=1)
    for d in duals:
        assert abs(2.0 * d[0]) <= 1.0 + 1e-12


def test_sample_dual_ball_ignores_zero_rows():
    with_zero = sample_dual_ball(np.array([[0.0, 0.0], [1.0, 0.0]]), 6,
                                 seed=2)
    without = sample_dual_ball(np.array([[1.0, 0.0]]), 6, seed=2)
    for d, e in zip(with_zero, without):
        np.testing.assert_allclose(d, e)


def test_sample_dual_ball_deterministic_and_validates():
    a = sample_dual_ball(np.eye(3), 10, seed=42)
    b = sample_dual_ball(np.eye(3), 10, seed=42)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
    with pytest.raises(ArgumentError):
        sample_dual_ball(np.zeros((2, 2)), 3)


@pytest.mark.parametrize("A", [np.eye(3), np.array([[1.0, 2j]])])
def test_sample_dual_ball_of_no_duals(A):
    # a count below the number of coordinate duals used to return them all
    assert sample_dual_ball(A, 0) == []
    for count in (-1, -2):
        with pytest.raises(ArgumentError, match="nonnegative"):
            sample_dual_ball(A, count)


@pytest.mark.parametrize("A, seed, digest", [
    (np.eye(3), 4,
     "73ecefc5c803113b816d1271b0b2643f74d6bcce3aaf702c6da78cebc4b3eb2c"),
    (np.eye(5), 0,
     "093831d65fa68319d64b93742635b4b44b9b7bad472e7595b1811ca081b21f55"),
    (np.array([[1.0, 2j], [0.5, -1.0]]), 9,
     "f39a963494e802f034edb8810e2c5dbe62c7bf082417fc2264c3060b25304679"),
])
def test_sample_dual_ball_keeps_its_bits(A, seed, digest):
    # every count >= 1 draws a prefix of one fixed sequence, whose bytes
    # are pinned
    full = sample_dual_ball(A, 7, seed=seed)
    assert hashlib.sha256(np.concatenate(full).tobytes()).hexdigest() \
        == digest
    for count in range(1, 7):
        duals = sample_dual_ball(A, count, seed=seed)
        assert len(duals) == count
        assert np.concatenate(duals).tobytes() \
            == np.concatenate(full[:count]).tobytes()
