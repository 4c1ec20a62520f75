"""Property tests of the shared numerical kernels against loop references.

Each batched kernel must keep the per-element operation order of the
per-piece code it replaced, so the references below are compared with
``np.array_equal``, not with a tolerance.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly

from stieltjes.functions import (PiecewiseFunction, _horner, _shift_poly,
                                 bisect)
from stieltjes.semivariation import _CHUNK, _digit_chunks

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


@settings(max_examples=150, deadline=None)
@given(pieces())
def test_batched_shift_matches_per_piece(case):
    c, dt = case
    expected = np.array([shift_one(c[i], dt[i]) for i in range(c.shape[0])])
    assert np.array_equal(_shift_poly(c, dt), expected)


@settings(max_examples=150, deadline=None)
@given(pieces())
def test_batched_horner_matches_polyval(case):
    c, tau = case
    expected = np.array([npoly.polyval(tau[i], c[i])
                         for i in range(c.shape[0])])
    assert np.array_equal(_horner(c, tau), expected)


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


@settings(max_examples=150, deadline=None)
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


@settings(deadline=None)
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
