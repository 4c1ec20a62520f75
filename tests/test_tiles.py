"""A refinement level runs tile by tile (``integrals._tiles``), and the
tiles must be invisible: a drive has the bits of the same drive in one
tile, and a row summed tile by tile has the bits of numpy's sum of the
whole row, pairwise or in sequence."""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import integrals
from stieltjes.errors import ExistenceError
from stieltjes.functions import PiecewiseFunction, dual_compose, random_spline
from stieltjes.integrals import _drive, _RowSums, _tile_length
from stieltjes.spaces import Seminorm
from test_integrals import (SEEDS, STEP_TIMES, ULP_GRID, assert_same_drive,
                            column_drives, drive_pairs, same_bits,
                            seminorm_families)

ONE_TILE = 2 ** 40


@contextlib.contextmanager
def tiles_of(cells):
    """Run the drives inside with ``cells`` cells per tile."""
    saved = integrals._TILE_CELLS
    integrals._TILE_CELLS = cells
    try:
        yield
    finally:
        integrals._TILE_CELLS = saved


def assert_tiling_is_invisible(fs, mus, seminorms, tol, levels):
    """The drive of ``fs`` against ``mus`` in tiles of 64 and of 256 cells
    has the bits of the drive in one tile: value, estimates, levels,
    ``converged`` and every LevelRecord of every pair.  64 is below
    numpy's 128-element pairwise block, which no tile splits.  Returns
    the one-tile drive, or None where the drive is refused."""
    try:
        with tiles_of(ONE_TILE):
            expected = _drive(fs, mus, seminorms, tol, levels)
    except ExistenceError:
        return None
    for cells in (64, 256):
        with tiles_of(cells):
            got = _drive(fs, mus, seminorms, tol, levels)
        assert (got.levels, got.converged) == (expected.levels,
                                               expected.converged)
        for row, ref in zip(got.results, expected.results, strict=True):
            for res, one in zip(row, ref, strict=True):
                assert_same_drive(res, one)
    return expected


DEEP = st.integers(6, 9)
TOLS = st.sampled_from([1e-9, 1e-12, 1e-300])


@settings(max_examples=60)
@given(drive_pairs(), TOLS, DEEP, st.data())
def test_tiles_are_invisible_on_one_pair(pair, tol, levels, data):
    # scalar, vector integrand or vector integrator, real or complex,
    # steps, splines and pieces joined at a jump, under 1-3 seminorms
    f, mu = pair
    sems = data.draw(seminorm_families(f.dim or mu.dim or 1))
    assert_tiling_is_invisible((f,), (mu,), sems, tol, levels)


@settings(max_examples=40)
@given(column_drives(), TOLS, DEEP)
def test_tiles_are_invisible_on_a_pairing_stack(case, tol, levels):
    # stacks whose pairs stop at different levels, so that an
    # integrand's rows leave the products and estimates before it does
    fs, columns = case
    assert_tiling_is_invisible(fs, columns, None, tol, levels)


@st.composite
def image_stacks(draw):
    """(gs, x, seminorms): 1-5 splines on one grid, real or complex, and a
    vector spline x of dimension 1-3, plus steps, in the field of the g."""
    complex_field = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    gs = [random_spline((0.0, 1.0), rng, complex_field=complex_field)
          for _ in range(draw(st.integers(1, 5)))]
    parts = [random_spline((0.0, 1.0), rng) for _ in range(dim)]
    x = PiecewiseFunction(parts[0].breakpoints,
                          np.stack([p.coeffs for p in parts], axis=2))
    if draw(st.booleans()):
        times = draw(STEP_TIMES)
        jumps = rng.normal(size=(len(times), dim)) \
            * ((1 + 1j) if complex_field else 1.0)
        x = x + PiecewiseFunction.step((0.0, 1.0), times, jumps,
                                       np.zeros(dim))
    return gs, x, draw(seminorm_families(dim))


@settings(max_examples=40)
@given(image_stacks(), TOLS, DEEP)
def test_tiles_are_invisible_on_an_image_stack(case, tol, levels):
    gs, x, sems = case
    assert_tiling_is_invisible(gs, (x,), sems, tol, levels)


def test_jump_ends_on_tile_edges():
    # knots at quarters give a uniform grid of 8 * 2^L cells at level L,
    # so the cells that end at the jumps at 1/4, 1/2 and 1 are the last
    # cells of tiles once a level has 4 tiles or more
    rng = np.random.default_rng(29)
    parts = [random_spline((0.0, 1.0), rng, knot_count=5) for _ in range(2)]
    x = PiecewiseFunction(parts[0].breakpoints,
                          np.stack([p.coeffs for p in parts], axis=2)) \
        + PiecewiseFunction.step((0.0, 1.0), [0.25, 0.5, 1.0],
                                 rng.normal(size=(3, 2)), np.zeros(2))
    gs = [random_spline((0.0, 1.0), rng, knot_count=5) for _ in range(3)]
    two = (Seminorm.weighted_sup(np.array([1.0, 2.0])),
           Seminorm.quadratic(np.array([[2.0, 0.5], [0.5, 1.0]])))
    levels = 9
    cells = 8 * 2 ** (levels - 1)
    with tiles_of(256):
        tile = _tile_length(cells)
    assert cells // tile >= 4 and (cells // 4) % tile == 0
    duals = [np.array([1.0, 0.5]), np.array([-0.25, 1.0])]
    for fs, mus, sems in (
            (gs, (x,), two[:1]), (gs, (x,), two),
            (gs, [dual_compose(x, d) for d in duals], None),
            ((x,), (gs[0],), two)):
        drive = assert_tiling_is_invisible(fs, mus, sems, 1e-300, levels)
        assert drive.levels == levels


def test_a_fresh_lookup_level_of_cells_not_a_multiple_of_16():
    # 79 cells, two of them 2 ulps wide either side of 1/2: their halves'
    # midpoints fall on an end at level 1, so level 2 looks its 316 cells
    # up afresh; 316 % 16 = 12, so it stays one tile however small the
    # tiles are, and each later level, with cells of no width, does too
    # until its count is a multiple of 16
    p, u = np.nextafter(ULP_GRID[1], 0.0), np.nextafter(ULP_GRID[3], 1.0)
    bps = np.unique(np.concatenate([[0.0, p, 0.5, u, 0.3, 1.0],
                                    np.linspace(0.0, 1.0, 70)]))
    grid = np.unique(np.concatenate(
        [bps, np.linspace(0.0, 1.0, integrals._INITIAL_UNIFORM_CELLS + 1)]))
    assert len(grid) - 1 == 79
    with tiles_of(64):
        assert _tile_length(4 * 79) == 316
    c = np.random.default_rng(7).uniform(-2.0, 2.0, (len(bps) - 1, 3))
    f = PiecewiseFunction(bps, c)
    x = PiecewiseFunction(bps, np.stack([c, -2 * c], axis=2))
    mu = PiecewiseFunction.from_global_polynomial([0.0, 1.0, 3.0],
                                                  (0.0, 1.0))
    for fs, mus in (((f,), (mu,)), ((mu,), (x,)), ((x,), (mu,)),
                    ((mu, mu * 0.5), (f, f * -2.0))):
        drive = assert_tiling_is_invisible(fs, mus, None, 1e-300, 7)
        assert drive.levels == 7


# lengths around numpy's 128-element pairwise block and its 8192-element
# buffer, around tiles of 2^15, and 3 * 2^16; n % 16 == 8 splits at a
# different point in numpy's real and complex trees
SUM_LENGTHS = sorted(set(
    list(range(1, 40)) + [127, 128, 129, 136, 144, 255, 256, 264, 8184,
                          8192, 8200, 2 ** 15 - 8, 2 ** 15, 2 ** 15 + 8,
                          2 ** 15 + 16, 3 * 2 ** 14 + 8, 2 ** 16 + 8,
                          3 * 2 ** 16 - 16, 3 * 2 ** 16 - 8, 3 * 2 ** 16]))


def tiled_sums(a, in_sequence):
    """Rows of ``a`` summed tile by tile, as a level sums them."""
    sums = _RowSums(2 if in_sequence else None)
    t = _tile_length(a.shape[1])
    for lo in range(0, a.shape[1], t):
        sums.add(a[:, lo:lo + t].copy())
    return sums.total()


def real_rule_sums(a, tile):
    """Rows of ``a`` split at numpy's real pairwise point, n / 2 rounded
    down to a multiple of 8, while longer than ``tile``, for any n."""
    n = a.shape[1]
    if n <= max(tile, 128):
        return a.sum(axis=1)
    half = n // 2 - (n // 2) % 8
    return real_rule_sums(a[:, :half], tile) + real_rule_sums(a[:, half:],
                                                              tile)


def test_tiled_row_sums_have_numpys_bits():
    rng = np.random.default_rng(2929)
    told_apart = False
    for n in SUM_LENGTHS:
        rows = rng.normal(size=(3, n))
        for a in (rows, rows + 1j * rng.normal(size=(3, n))):
            expected = a.sum(axis=1)
            in_order = np.add.accumulate(a, axis=1)[:, -1] + 0.0
            for cells in (64, 256, 2 ** 15):
                with tiles_of(cells):
                    assert same_bits(tiled_sums(a, False), expected), \
                        (n, cells)
                    assert same_bits(tiled_sums(a, True), in_order), \
                        (n, cells)
            if np.iscomplexobj(a) and n % 16 == 8:
                told_apart |= not same_bits(real_rule_sums(a, 256),
                                            expected)
            elif not np.iscomplexobj(a):
                assert same_bits(real_rule_sums(a, 256), expected), n
    # the real tree's split point gives other bits on complex rows, so a
    # tile rule that used it would fail above
    assert told_apart


def test_a_carried_sum_starts_each_tile_from_the_sums_so_far():
    # eight tiles of 128 cells: a row of -0.0 sums to +0.0, as numpy's
    # (n, d) sum gives, and cancelling terms keep their order across tiles
    a = np.full((2, 1024), -0.0)
    a[1] = np.resize([1e16, 1.0, -1e16, 3.0], 1024)
    with tiles_of(128):
        assert _tile_length(1024) == 128
        got = tiled_sums(a, True)
    assert same_bits(got, np.add.accumulate(a, axis=1)[:, -1] + 0.0)
    assert not np.signbit(got[0])
