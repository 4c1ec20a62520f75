"""Operators T g = integral(g dx) on continuous functions, their unit-ball
image geometry, and the associated interval measures.

An integrator x of bounded (weakly compact, in this finite-dimensional
model simply bounded) semivariation induces the operator T g = integral of
g against dx on continuous scalar functions.  The image of the unit ball
under T sits inside the absolutely convex hull of the increment-sum set of
x, the subset sums of its increments (``e_set``: the jumps of a step x, the
cells of one uniform grid otherwise), which hold 0; this is checked
constructively by decomposing g into four parts with values in [0, 1],
rearranging each tagged sum into an Abel form with nonnegative
coefficients summing to at most 1, and running a linear-feasibility
membership test.  Conversely x determines a finitely additive interval
measure through its cumulative y(t) = x(t) - x(a).
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, EnumerationLimitError
from .functions import (PiecewiseFunction, _horner, _shift_poly,
                        _split_rows, dual_compose, random_spline)
from .integrals import _drive_columns, integrate_g_dx
from .semivariation import e_set, wcs_check
from .spaces import Seminorm, SpaceModel, pair, sample_dual_ball

__all__ = [
    "StieltjesOperator",
    "IntervalMeasure",
    "AbelIdentityResult",
    "HullMembership",
    "ImageCheckReport",
    "RoundtripReport",
    "apply",
    "decompose",
    "abel_identity_check",
    "hull_membership",
    "weakly_compact_image_check",
    "measure_from_function",
    "measure_of_interval",
    "additivity_check",
    "roundtrip",
]

_MAX_GENERATORS = 5000
# The uniform grid that samples the increment-sum set of a non-step
# integrator.  A coarser grid adds nothing: np.linspace grids on 5 and 9
# points nest exactly, so the subset sums on 5 points are among those on
# 9, and their hull lies inside.  A grid of 17 points has 2^16 sums, past
# _MAX_GENERATORS.
_IMAGE_RESOLUTION = 9


@dataclass(frozen=True, eq=False)
class StieltjesOperator:
    """T g = integral(g dx) for a vector-valued integrator x.

    ``wcs_bounds`` holds the sups of the increment-sum set of x under
    every seminorm of the space, whose boundedness is the weak-compactness
    hypothesis in this model.  They are enumerated on first read, so
    applying T never pays for them nor meets the enumeration cap.
    """

    space: SpaceModel
    integrator: PiecewiseFunction

    def __post_init__(self):
        x = self.integrator
        if x.dim != self.space.dimension:
            raise ArgumentError("integrator dimension does not match space")
        if np.iscomplexobj(x.coeffs) and self.space.field != "complex":
            raise ArgumentError("complex integrator on a real space")

    @functools.cached_property
    def wcs_bounds(self):
        return wcs_check(self.integrator, self.space.seminorms)[1]

    @property
    def domain(self):
        return self.integrator.domain

    def apply(self, g, tol=1e-8):
        return apply(self, g, tol)


def apply(T, g, tol=1e-8):
    """Tg = integral(g dx) as a coordinate vector; g must be continuous."""
    if g._jump_times:
        raise ArgumentError("operator domain is C[a,b]; g has jumps")
    if g.domain != T.domain:
        raise ArgumentError("g is not defined on the operator domain")
    return integrate_g_dx(g, T.integrator, seminorms=T.space.seminorms,
                          tol=tol).value


def _signed_parts(f):
    """max(f, 0) and max(-f, 0) of a real scalar piecewise polynomial from
    one root split of its pieces.  Each part shifts its own signed pieces:
    negating the other part's would turn some of its zeros into -0.0."""
    widths = np.diff(f.breakpoints)
    edges = [np.concatenate([[0.0], splits, [h]]) for splits, h in
             zip(_split_rows(f.coeffs, widths, sign_changes=True), widths)]
    piece = np.repeat(np.arange(f.piece_count), [e.size - 1 for e in edges])
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    bps = np.concatenate([[f.a], f.breakpoints[piece] + hi])
    parts = []
    for c, end in ((f.coeffs, f.values[-1]), (-f.coeffs, -f.values[-1])):
        shifted = _shift_poly(c[piece], lo)
        keep = _horner(shifted, 0.5 * (hi - lo)) > 0.0
        coeffs = np.where(keep[:, np.newaxis], shifted, 0.0)
        values = np.concatenate([coeffs[:, 0], [max(float(end), 0.0)]])
        parts.append(PiecewiseFunction(bps, coeffs, values))
    return parts


def decompose(g):
    """Split g with sup-norm <= 1 into four parts with values in [0, 1].

    Returns (g0, g1, g2, g3) with g = g0 - g2 + i (g1 - g3): the positive
    and negative parts of the real and of the imaginary part, each pair
    taken from one root split of that part's pieces at its sign changes.
    A root closer than 1e-13 * max(1, h) to an end of its piece of width
    h is not split off, so a kept part can dip to -1e-13 * max(1, h) *
    sup\\|g'\\| below 0.
    """
    if g.dim is not None:
        raise ArgumentError("decompose expects a scalar function")
    sup = g.sup_abs()
    if sup > 1.0 + 1e-12:
        raise ArgumentError(f"sup-norm {sup:.6f} exceeds 1")
    g0, g2 = _signed_parts(g.real_part())
    g1, g3 = _signed_parts(g.imag_part())
    return g0, g1, g2, g3


@dataclass
class AbelIdentityResult:
    """Plain tagged sum vs. its Abel rearrangement over sorted g-values.

    ``coefficients`` are the rearranged weights (nonnegative, summing to
    max of g_values) attached to the ``tails`` of increment partial sums.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    gap: float
    coefficients: np.ndarray
    tails: np.ndarray


def abel_identity_check(g_values, increments):
    """Verify sum_i g_i Delta_i against its sorted Abel rearrangement.

    With the permutation pi sorting g ascending and tail sums
    T_s = sum_{r>=s} Delta_{pi(r)}, the identity reads

        sum_i g_i Delta_i = g_{pi(0)} T_0 + sum_{s>=1} (g_{pi(s)} -
        g_{pi(s-1)}) T_s

    whose coefficients are nonnegative and sum to max(g) <= 1.
    """
    gv = np.asarray(g_values, dtype=float)
    inc = np.asarray(increments)
    if gv.ndim != 1 or gv.size < 1:
        raise ArgumentError("g_values must be a nonempty 1-d list")
    if inc.shape[0] != gv.size:
        raise ArgumentError(
            f"{gv.size} g_values but {inc.shape[0]} increments"
        )
    if np.any(gv < 0.0) or np.any(gv > 1.0):
        raise ArgumentError("g_values must lie in [0, 1]")
    rows = inc.reshape(gv.size, -1)
    lhs = gv @ rows
    order = np.argsort(gv, kind="stable")
    gs = gv[order]
    tails = np.cumsum(rows[order][::-1], axis=0)[::-1]
    coeff = np.concatenate([gs[:1], np.diff(gs)])
    rhs = coeff @ tails
    gap = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    shape = inc.shape[1:]
    return AbelIdentityResult(
        lhs=lhs.reshape(shape), rhs=rhs.reshape(shape), gap=gap,
        coefficients=coeff, tails=tails.reshape((gv.size,) + shape))


@dataclass
class HullMembership:
    """Outcome of the absolutely-convex-hull membership test.

    ``distance`` is the larger of the LP's optimal max-abs defect and the
    defect of its coefficients, recomputed after they are scaled into the
    l1 budget; membership holds when it is at most tol times the power of
    two just above the largest entry of v and the generators, the LP's unit.
    ``distance`` and ``separation`` are in the data's units.  On membership
    ``coefficients``, of l1 norm at most 1, reproduce v within
    ``distance``; on rejection ``functional`` is an l1-normalized
    separating dual with ``separation`` = <u, v> - max_k \\|<u, w_k>\\| > 0,
    recomputed from u, for complex data with real parts Re<u, .> and over
    w_k and i w_k.
    """

    member: bool
    distance: float
    coefficients: np.ndarray | None = None
    functional: np.ndarray | None = None
    separation: float | None = None


def hull_membership(v, generators, tol=1e-9):
    """Decide v in { sum_k beta_k w_k : sum \\|beta_k\\| <= 1 } within tol,
    relative to the size of the data.

    Solved as a linear program minimising the max-abs defect t subject to
    the l1 budget, on the data divided by the power of two just above its
    largest entry, which is exact and makes every decision scale-free.
    Its primal and dual feasibility tolerances are 1e-10 of that unit, so
    that no defect above that passes as the solver's slack.  The
    certificates are recomputed from the solution (see
    :class:`HullMembership`), so they hold for any tol; a tol below about
    1e-10 can reject with a separation near 0.

    Complex data is lifted to a real problem over the generators w_k and
    i w_k, each complex entry read as its (re, im) pair
    (``view(float)``).  The real coefficients of w_k and i w_k are then
    the pair of a complex beta_k, and a real separating functional the
    pairs of a complex u pairing as Re<u, .>, so ``view(complex)`` gives
    both back; membership certificates remain valid complex combinations.
    """
    v = np.atleast_1d(np.asarray(v))
    gens = np.atleast_2d(np.asarray(generators))
    if gens.shape[0] == 0:
        raise ArgumentError("generators must be nonempty")
    if gens.shape[0] > _MAX_GENERATORS:
        raise EnumerationLimitError(
            f"{gens.shape[0]} generators exceed the cap of {_MAX_GENERATORS}"
        )
    if gens.shape[1] != v.size:
        raise ArgumentError("generator dimension mismatch")
    dtype = complex if np.iscomplexobj(v) or np.iscomplexobj(gens) else float
    if dtype is complex:
        # rows w_0, i w_0, w_1, ..., so that beta_k's parts sit side by side
        gens = np.stack([gens, 1j * gens], axis=1).reshape(-1, v.size)
    v2, g2 = v.astype(dtype).view(float), gens.astype(dtype).view(float)
    # exact scaling: the LP's unit is the power of two above the data
    e = np.frexp(max(np.max(np.abs(v2)), np.max(np.abs(g2))))[1]
    v2, g2 = np.ldexp(v2, -e), np.ldexp(g2, -e)
    k, d = g2.shape
    # variables [beta_plus (k), beta_minus (k), t]
    cost = np.zeros(2 * k + 1)
    cost[-1] = 1.0
    W, minus_t = g2.T, -np.ones((d, 1))
    a_ub = np.block([[W, -W, minus_t], [-W, W, minus_t],
                     [np.ones((1, 2 * k)), np.zeros((1, 1))]])
    b_ub = np.concatenate([v2, -v2, [1.0]])
    # Imported on first use: scipy.optimize takes longer to import than a
    # typical CLI problem takes to run, and only this LP needs it.
    from scipy.optimize import OptimizeWarning, linprog
    # HiGHS's default feasibility tolerances, 1e-7, exceed every tol in
    # use, and it drops matrix entries up to 1e-9, which shifts the optimum
    # by as much; scipy passes the lowest drop level on with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(0, None)] * (2 * k + 1), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10,
                               "small_matrix_value": 1e-12})
    if not res.success:  # pragma: no cover - LP is always feasible (beta=0)
        raise ArgumentError(f"membership LP failed: {res.message}")
    # the solver meets its constraints only within those tolerances: beta
    # is scaled into the l1 budget and its defect measured
    beta = res.x[:k] - res.x[k:2 * k]
    beta = beta / max(1.0, float(np.sum(np.abs(beta))))
    dist = max(float(res.fun),
               float(np.max(np.abs(beta @ g2 - v2), initial=0.0)))
    distance = float(np.ldexp(dist, e))
    if dist <= tol:
        return HullMembership(member=True, distance=distance,
                              coefficients=beta.view(dtype))
    u2 = _separating_functional(res, v2, g2, d)
    sep = float(np.ldexp(np.abs(u2 @ v2) - np.max(np.abs(g2 @ u2)), e))
    return HullMembership(member=False, distance=distance,
                          functional=u2.view(dtype), separation=sep)


def _separating_functional(res, v, gens, d):
    marg = res.ineqlin.marginals
    u = marg[d:2 * d] - marg[:d]
    norm = np.sum(np.abs(u))
    if norm <= 0:  # pragma: no cover - degenerate duals
        u = v - gens.T @ np.linalg.lstsq(gens.T, v, rcond=None)[0]
        norm = np.sum(np.abs(u)) or 1.0
    u = u / norm
    if u @ v < 0:
        u = -u
    return u


@dataclass
class ImageCheckReport:
    ok: bool
    worst_distance: float
    checked: int
    resolutions: tuple
    witness: dict | None = None


def weakly_compact_image_check(T, sample_count=10, seed=0, tol=1e-9):
    """Check that unit-ball images decompose into hull members.

    Deterministically samples ``sample_count`` continuous functions with
    sup-norm <= 1, splits each into its four [0, 1]-valued parts, applies
    T, and tests membership of every part image in the absolutely convex
    hull of e_set(x), which holds 0: a part that is identically zero is
    counted in ``checked`` without an LP.  The set is exact for step
    integrators; for others it is sampled on one uniform grid of 9 points,
    reported in ``resolutions``.  ``tol`` is relative to the size of the
    set: :func:`hull_membership` holds each image to ``tol`` times the
    power of two just above the largest entry of the image and the set,
    which for an image near the hull is that of the set.
    ``worst_distance`` is in the data's units.
    """
    if sample_count < 1:
        raise ArgumentError("sample_count must be >= 1")
    x = T.integrator
    complex_field = T.space.field == "complex"
    rng = np.random.default_rng(seed)
    gs = [random_spline(x.domain, rng, complex_field=complex_field)
          for _ in range(sample_count)]
    # a part that is identically zero has the image 0, which every
    # absolutely convex hull holds
    images = [(i, part_idx, apply(T, part, tol=tol * 0.1))
              for i, g in enumerate(gs)
              for part_idx, part in enumerate(decompose(g))
              if part.sup_abs() > 0.0]

    gens = e_set(x, _IMAGE_RESOLUTION)
    gens = gens.reshape(gens.shape[0], -1)
    ok, worst, witness = True, 0.0, None
    for i, part_idx, v in images:
        hm = hull_membership(v, gens, tol=tol)
        if hm.distance > worst:
            worst = hm.distance
            witness = {"sample": i, "part": part_idx,
                       "distance": hm.distance}
        if not hm.member:
            ok = False
            break
    resolutions = () if x.is_step else (_IMAGE_RESOLUTION,)
    return ImageCheckReport(ok=ok, worst_distance=worst,
                            checked=4 * len(gs), resolutions=resolutions,
                            witness=None if ok else witness)


@dataclass(frozen=True, eq=False)
class IntervalMeasure:
    """Finitely additive interval measure via its cumulative function.

    ``cumulative`` is right-continuous with value 0 at a, and
    m((c, d]) = cumulative(d) - cumulative(c).
    """

    cumulative: PiecewiseFunction

    def __post_init__(self):
        y = self.cumulative
        if y.dim is None:
            raise ArgumentError("cumulative must be vector-valued")
        if np.max(np.abs(y.values[0])) != 0.0:
            raise ArgumentError("cumulative must vanish at a")

    @property
    def domain(self):
        return self.cumulative.domain

    def of_interval(self, c, d):
        a, b = self.domain
        if not (a <= c <= d <= b):
            raise ArgumentError(
                f"({c}, {d}] is not inside the domain [{a}, {b}]"
            )
        if c == d:
            return np.zeros_like(self.cumulative.values[0])
        return self.cumulative(d) - self.cumulative(c)


def measure_from_function(x):
    """Interval measure of a right-continuous vector integrator.

    The cumulative is y(t) = x(t) - x(a) (measures only see increments),
    so m((c, d]) = x(d) - x(c) for all a <= c < d <= b.
    """
    if x.dim is None:
        raise ArgumentError("integrator must be vector-valued")
    y = x - PiecewiseFunction.constant(x.values[0], x.domain)
    return IntervalMeasure(cumulative=y)


def measure_of_interval(m, c, d):
    """m((c, d]) = y(d) - y(c); zero when c = d."""
    return m.of_interval(float(c), float(d))


def additivity_check(m, cuts):
    """Max-abs defect of m((c_0, c_k]) = sum_i m((c_{i-1}, c_i])."""
    cuts = np.asarray(cuts, dtype=float)
    if cuts.ndim != 1 or cuts.size < 2:
        raise ArgumentError("need at least two cut points")
    if not np.all(np.diff(cuts) > 0):
        raise ArgumentError("cuts must be strictly increasing")
    total = m.of_interval(cuts[0], cuts[-1])
    parts = sum(m.of_interval(cuts[i], cuts[i + 1])
                for i in range(cuts.size - 1))
    return float(np.max(np.abs(total - parts)))


@dataclass
class RoundtripReport:
    """Max discrepancies of the integrator -> operator -> measure cycle."""

    identity_gap: float
    pairing_gap: float
    probe_count: int
    dual_count: int
    function_count: int
    worst_pair: tuple | None = None


def roundtrip(x, probe_count=20, tol=1e-8, dual_count=20, function_count=20,
              seed=0, seminorms=None):
    """Cycle x -> T -> m -> y and verify the defining identities.

    (i) y(t) - y(a) = x(t) - x(a) at ``probe_count`` grid points plus all
    breakpoints, measured by every seminorm; (ii) for sampled duals xp in
    the max-abs polar ball and sampled continuous g,
    pair(xp, Tg) = integral of g against d(xp o y) within integration
    accuracy, every g against every dual in one stacked drive.  Returns the
    max discrepancy of each kind; with no g or no dual the pairing gap is
    0.0 and ``worst_pair`` None.
    """
    if x.dim is None:
        raise ArgumentError("integrator must be vector-valued")
    if probe_count < 2:
        raise ArgumentError("probe_count must be >= 2")
    if function_count < 0:
        raise ArgumentError(
            f"function_count must be nonnegative, not {function_count}")
    field = "complex" if np.iscomplexobj(x.coeffs) else "real"
    sems = tuple(seminorms) if seminorms is not None \
        else (Seminorm.weighted_sup(np.ones(x.dim)),)
    space = SpaceModel(x.dim, field, sems)
    T = StieltjesOperator(space, x)
    m = measure_from_function(x)
    y = m.cumulative

    probes = np.unique(np.concatenate(
        [np.linspace(x.a, x.b, probe_count), x.breakpoints]))
    shift = x.values_at(probes) - x.values_at(probes[:1]) \
        - (y.values_at(probes) - y.values_at(probes[:1]))
    identity_gap = max(float(np.max(p.eval_many(shift))) for p in sems)

    rng = np.random.default_rng(seed)
    duals = sample_dual_ball(np.eye(x.dim), dual_count, seed=seed)
    gs = [random_spline(x.domain, rng, complex_field=(field == "complex"))
          for _ in range(function_count)]
    # each composed integrator is built once, so its cached jump times and
    # derivative sups serve every g; the g share random_spline's knots, so
    # one stacked drive of every g against every dual gives each pair the
    # bits of its own integrate_g_dx(g, yd, tol=tol)
    composed = [dual_compose(y, np.asarray(d)) for d in duals]
    drives = _drive_columns(gs, composed, tol)
    pairing_gap, worst = 0.0, None
    for j, (g, row) in enumerate(zip(gs, drives)):
        tg = apply(T, g, tol=tol)
        for i, (d, rhs) in enumerate(zip(duals, row)):
            gap = abs(pair(np.asarray(d), tg) - rhs.value)
            if gap > pairing_gap:
                pairing_gap, worst = float(gap), (i, j)
    return RoundtripReport(identity_gap=identity_gap,
                           pairing_gap=pairing_gap,
                           probe_count=int(probes.size),
                           dual_count=dual_count,
                           function_count=function_count,
                           worst_pair=worst)
