"""Operators T g = integral(g dx) on continuous functions, their unit-ball
image geometry, and the associated interval measures.

An integrator x of bounded (weakly compact, in this finite-dimensional
model simply bounded) semivariation induces the operator T g = integral of
g against dx on continuous scalar functions.  The image of the unit ball
under T sits inside the absolutely convex hull of the increment-sum set of
x together with 0; this is checked constructively by decomposing g into
four parts with values in [0, 1], rearranging each tagged sum into an Abel
form with nonnegative coefficients summing to at most 1, and running a
linear-feasibility membership test.  Conversely x determines a finitely
additive interval measure through its cumulative y(t) = x(t) - x(a).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import ArgumentError, EnumerationLimitError
from .functions import (PiecewiseFunction, _horner, _real_roots_in,
                        _shift_poly, dual_compose, random_spline)
from .integrals import integrate_g_dx
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
# nested uniform grids used to sample the increment-sum set of a
# non-step integrator (each refines the previous one)
_GRID_RESOLUTIONS = (5, 9, 17)


@dataclass(frozen=True, eq=False)
class StieltjesOperator:
    """T g = integral(g dx) for a vector-valued integrator x.

    Construction verifies that the increment-sum set of x is bounded under
    every seminorm of the space (``wcs_bounds`` keeps the sups), which is
    the weak-compactness hypothesis in this model.
    """

    space: SpaceModel
    integrator: PiecewiseFunction
    wcs_bounds: np.ndarray = None

    def __post_init__(self):
        x = self.integrator
        if x.dim != self.space.dimension:
            raise ArgumentError("integrator dimension does not match space")
        if np.iscomplexobj(x.coeffs) and self.space.field != "complex":
            raise ArgumentError("complex integrator on a real space")
        ok, bounds = wcs_check(x, self.space.seminorms)
        if not ok:  # pragma: no cover - wcs_check is always true here
            raise ArgumentError("integrator fails the boundedness check")
        object.__setattr__(self, "wcs_bounds", bounds)

    @property
    def domain(self):
        return self.integrator.domain

    def apply(self, g, tol=1e-8):
        return apply(self, g, tol)


def apply(T, g, tol=1e-8):
    """Tg = integral(g dx) as a coordinate vector; g must be continuous."""
    if g.dim is not None:
        raise ArgumentError("g must be scalar-valued")
    if not g.is_continuous():
        raise ArgumentError("operator domain is C[a,b]; g has jumps")
    if g.domain != T.domain:
        raise ArgumentError("g is not defined on the operator domain")
    return integrate_g_dx(g, T.integrator, seminorms=T.space.seminorms,
                          tol=tol).value


def _positive_part(f):
    """max(f, 0) of a real scalar piecewise polynomial (root-split pieces)."""
    widths = np.diff(f.breakpoints)
    bps = [f.a]
    coeffs = []
    for i in range(f.piece_count):
        c = f.coeffs[i]
        h = widths[i]
        splits = _real_roots_in(c, 0.0, h, open_ends=True)
        edges = np.concatenate([[0.0], splits, [h]])
        shifted = _shift_poly(np.broadcast_to(c, (edges.size - 1,) + c.shape),
                              edges[:-1])
        keep = _horner(shifted, 0.5 * np.diff(edges)) > 0.0
        coeffs.extend(np.where(keep[:, np.newaxis], shifted, 0.0))
        bps.extend((f.breakpoints[i] + edges[1:]).tolist())
    coeffs = np.asarray(coeffs)
    values = np.concatenate([coeffs[:, 0], [max(float(f.values[-1]), 0.0)]])
    return PiecewiseFunction(np.asarray(bps), coeffs, values)


def decompose(g):
    """Split g with sup-norm <= 1 into four parts with values in [0, 1].

    Returns (g0, g1, g2, g3) with g = g0 - g2 + i (g1 - g3): positive and
    negative parts of the real and imaginary parts, each obtained by
    root-splitting the polynomial pieces.
    """
    if g.dim is not None:
        raise ArgumentError("decompose expects a scalar function")
    sup = g.sup_abs()
    if sup > 1.0 + 1e-12:
        raise ArgumentError(f"sup-norm {sup:.6f} exceeds 1")
    re, im = g.real_part(), g.imag_part()
    g0 = _positive_part(re)
    g2 = _positive_part(-re)
    g1 = _positive_part(im)
    g3 = _positive_part(-im)
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

    ``distance`` is the optimal max-abs defect; membership holds when it
    is at most tol.  On membership ``coefficients`` reproduce v within
    ``distance``; on rejection ``functional`` is an l1-normalized
    separating dual with ``separation`` = <u, v> - max_k \\|<u, w_k>\\| > 0.
    """

    member: bool
    distance: float
    coefficients: np.ndarray | None = None
    functional: np.ndarray | None = None
    separation: float | None = None


def _doubled_real(v, gens):
    v2 = np.concatenate([v.real, v.imag])
    g2 = np.concatenate([np.concatenate([gens.real, gens.imag], axis=1),
                         np.concatenate([-gens.imag, gens.real], axis=1)],
                        axis=0)
    return v2, g2


def hull_membership(v, generators, tol=1e-9):
    """Decide v in { sum_k beta_k w_k : sum \\|beta_k\\| <= 1 } within tol.

    Solved as a linear program minimising the max-abs defect t subject to
    the l1 budget.  Complex data is lifted to a doubled real problem over
    the generators {w, i w}; membership certificates remain valid complex
    combinations.
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
    complex_input = np.iscomplexobj(v) or np.iscomplexobj(gens)
    if complex_input:
        v2, g2 = _doubled_real(v.astype(complex), gens.astype(complex))
    else:
        v2, g2 = v.astype(float), gens.astype(float)
    k, d = g2.shape
    # variables [beta_plus (k), beta_minus (k), t]
    cost = np.zeros(2 * k + 1)
    cost[-1] = 1.0
    W = g2.T  # (d, k)
    a_ub = np.zeros((2 * d + 1, 2 * k + 1))
    a_ub[:d, :k] = W
    a_ub[:d, k:2 * k] = -W
    a_ub[d:2 * d, :k] = -W
    a_ub[d:2 * d, k:2 * k] = W
    a_ub[:2 * d, -1] = -1.0
    a_ub[-1, :2 * k] = 1.0
    b_ub = np.concatenate([v2, -v2, [1.0]])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0, None)] * (2 * k + 1), method="highs")
    if not res.success:  # pragma: no cover - LP is always feasible (beta=0)
        raise ArgumentError(f"membership LP failed: {res.message}")
    dist = float(res.fun)
    beta2 = res.x[:k] - res.x[k:2 * k]
    if complex_input:
        m = gens.shape[0]
        beta = beta2[:m] + 1j * beta2[m:]
    else:
        beta = beta2
    if dist <= tol:
        return HullMembership(member=True, distance=dist, coefficients=beta)
    u2 = _separating_functional(res, v2, g2, d)
    if complex_input:
        u = u2[:v.size] + 1j * u2[v.size:]
    else:
        u = u2
    sep = float(np.abs(u2 @ v2) - np.max(np.abs(g2 @ u2)))
    return HullMembership(member=False, distance=dist, functional=u,
                          separation=sep)


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
    hull of e_set(x) plus 0.  The hull is exact for step integrators; for
    others the increment-sum set is sampled on nested uniform grids until
    the verdict repeats (or the generator budget is exhausted).
    """
    if sample_count < 1:
        raise ArgumentError("sample_count must be >= 1")
    x = T.integrator
    complex_field = T.space.field == "complex"
    rng = np.random.default_rng(seed)
    gs = [random_spline(x.domain, rng, complex_field=complex_field)
          for _ in range(sample_count)]
    images = []
    for i, g in enumerate(gs):
        for part_idx, part in enumerate(decompose(g)):
            images.append((i, part_idx, apply(T, part, tol=tol * 0.1)))

    def run(gens):
        worst, witness = 0.0, None
        gens = np.concatenate([gens.reshape(gens.shape[0], -1),
                               np.zeros((1, x.dim), dtype=gens.dtype)])
        for i, part_idx, v in images:
            hm = hull_membership(v, gens, tol=tol)
            if hm.distance > worst:
                worst = hm.distance
                witness = {"sample": i, "part": part_idx,
                           "distance": hm.distance}
            if not hm.member:
                return False, worst, witness
        return True, worst, witness

    if x.is_step:
        ok, worst, witness = run(e_set(x))
        resolutions = ()
    else:
        verdicts = []
        resolutions = []
        ok = worst = witness = None
        for res in _GRID_RESOLUTIONS:
            try:
                gens = e_set(x, res)
            except EnumerationLimitError:
                break
            if gens.shape[0] + 1 > _MAX_GENERATORS:
                break
            ok, worst, witness = run(gens)
            resolutions.append(res)
            verdicts.append(ok)
            if len(verdicts) >= 2 and verdicts[-1] == verdicts[-2]:
                break
        resolutions = tuple(resolutions)
    return ImageCheckReport(ok=ok, worst_distance=worst,
                            checked=len(images), resolutions=resolutions,
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
    accuracy.  Returns the max discrepancy of each kind.
    """
    if x.dim is None:
        raise ArgumentError("integrator must be vector-valued")
    if probe_count < 2:
        raise ArgumentError("probe_count must be >= 2")
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
    pairing_gap, worst = 0.0, None
    for j, g in enumerate(gs):
        tg = apply(T, g, tol=tol)
        for i, d in enumerate(duals):
            lhs = pair(np.asarray(d), tg)
            rhs = integrate_g_dx(g, dual_compose(y, np.asarray(d)),
                                 tol=tol).value
            gap = abs(lhs - rhs)
            if gap > pairing_gap:
                pairing_gap, worst = float(gap), (i, j)
    return RoundtripReport(identity_gap=identity_gap,
                           pairing_gap=pairing_gap,
                           probe_count=int(probes.size),
                           dual_count=dual_count,
                           function_count=function_count,
                           worst_pair=worst)
