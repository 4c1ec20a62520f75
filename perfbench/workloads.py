"""Seeded inputs, the timed call and the oracle check of each workload.

A workload is an object with

- ``make(rng, index)``: the inputs of item ``index`` (plain library
  objects; nothing here is timed);
- ``run(inputs)``: the timed call into the library;
- ``check(inputs, output)``: the oracle, True when the output is right.

Which kind of item comes at each position repeats with the workload's
``period``: the kinds and sizes follow a fixed schedule, and the seed
draws only the numbers inside them.  ``pool(name, seed)`` draws
``pool_size`` items from one generator seeded by ``seed``, so the same
seed always gives the same inputs; a run that gets through its pool starts
over on fresh copies of the same items.  The library is imported lazily,
after the caller has put ``src`` on the path.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
PROBLEM_DIR = ROOT / "problems"

# -- input generators ---------------------------------------------------------


def _jump_times(rng, m):
    times = np.sort(rng.uniform(0.05, 0.95, m))
    while np.any(np.diff(times) <= 1e-3):
        times = np.sort(rng.uniform(0.05, 0.95, m))
    return times


def step(rng, dim, m, complex_field=False):
    """Vector step function with m jumps; returns (x, jumps)."""
    from stieltjes import PiecewiseFunction
    jumps = rng.standard_normal((m, dim))
    if complex_field:
        jumps = jumps + 1j * rng.standard_normal((m, dim))
    start = np.zeros(dim, dtype=complex if complex_field else float)
    x = PiecewiseFunction.step((0.0, 1.0), _jump_times(rng, m), jumps, start)
    return x, jumps


def scalar_step(rng, max_jumps=4):
    from stieltjes import PiecewiseFunction
    m = int(rng.integers(1, max_jumps + 1))
    times = _jump_times(rng, m)
    jumps = rng.standard_normal(m)
    return PiecewiseFunction.step((0.0, 1.0), times, jumps, 0.0), (times,
                                                                   jumps)


def vector_spline(rng, dim, knot_count=6):
    from stieltjes import PiecewiseFunction, random_spline
    parts = [random_spline((0.0, 1.0), rng, knot_count=knot_count)
             for _ in range(dim)]
    coeffs = np.stack([p.coeffs for p in parts], axis=2)
    return PiecewiseFunction(parts[0].breakpoints, coeffs)


def vector_poly(rng, dim, degree=3):
    from stieltjes import PiecewiseFunction
    return PiecewiseFunction(np.array([0.0, 1.0]),
                             rng.standard_normal((1, degree + 1, dim)))


def seminorm_family(rng, dim, which):
    """The four seminorm families of the per-partes acceptance mix."""
    from stieltjes import Seminorm
    if which == 0:
        return (Seminorm.weighted_sup(np.ones(dim)),)
    if which == 1:
        return (Seminorm.weighted_one(rng.uniform(0.2, 2.0, dim)),)
    if which == 2:
        return (quadratic(rng, dim),)
    return (Seminorm.weighted_sup(rng.uniform(0.2, 2.0, dim)),
            Seminorm.weighted_one(np.ones(dim)))


def quadratic(rng, dim):
    from stieltjes import Seminorm
    b = rng.standard_normal((dim, dim))
    return Seminorm.quadratic(b @ b.T + 0.1 * np.eye(dim))


# -- oracle helpers -----------------------------------------------------------


def seminorm_values(p, rows):
    """p on each row, computed here from p's parameters alone."""
    rows = np.asarray(rows)
    if p.kind == "weighted-sup":
        return np.max(np.abs(rows) * p.weights, axis=1)
    if p.kind == "weighted-one":
        return np.sum(np.abs(rows) * p.weights, axis=1)
    if p.kind == "quadratic":
        q = np.einsum("ni,ij,nj->n", rows.conj(), p.matrix, rows).real
        return np.sqrt(np.maximum(q, 0.0))
    return np.max([seminorm_values(part, rows) for part in p.parts], axis=0)


def sign_sup(jumps, p):
    """Brute-force sup of p over all 2^m signed jump sums."""
    signs = np.array(list(itertools.product((-1.0, 1.0),
                                            repeat=jumps.shape[0])))
    return float(np.max(seminorm_values(p, signs @ jumps)))


def close(value, oracle, tol):
    return bool(np.all(np.abs(np.asarray(value) - np.asarray(oracle))
                       <= tol * max(1.0, float(np.max(np.abs(oracle))))))


# -- workloads ----------------------------------------------------------------


class Roundtrip:
    """Operator/measure roundtrip: 30 scalar drives per item (5 ``apply``
    drives and 25 pairing drives), each paying its own set-up.

    Each period of 8 items has six step integrators (1-6 jumps, tol 1e-8)
    and two vector splines (tol 1e-7), in dimension 2 and then 3.  Spline
    items are several times slower; with one in four the median stays
    inside the step block and the tail percentile (the highest with ten
    items beyond it, p83 or above once a run has 60 items) inside the
    spline block, away from the boundary at p75.
    """

    name = "roundtrip"
    period = 8
    pool_size = 256
    trace_items = 8

    def make(self, rng, index):
        pos = index % self.period
        dim = 2 + pos // 4
        if pos % 4 == 3:
            return {"x": vector_spline(rng, dim), "tol": 1e-7, "seed": index}
        x, _ = step(rng, dim, 1 + pos - pos // 4)
        return {"x": x, "tol": 1e-8, "seed": index}

    def run(self, inputs):
        from stieltjes import roundtrip
        return roundtrip(inputs["x"], probe_count=20, tol=inputs["tol"],
                         dual_count=5, function_count=5,
                         seed=inputs["seed"])

    def check(self, inputs, rep):
        return rep.identity_gap < 1e-10 and rep.pairing_gap < 1e-6


class PerPartes:
    """Integration by parts over the acceptance pair kinds: 0 step x
    spline, 1 poly x step, 2 spline x poly, 3 spline x spline, each with
    its own seminorm family, in dimension 2 and then 3.  A few deep vector
    drives (kinds 2 and 3) dominate the time.

    Kinds 0 and 1 take a few milliseconds and kinds 2 and 3 tens to
    hundreds, so equal shares would put the median exactly on the boundary
    between the two modes.  Kinds 0 and 1 therefore come twice in each
    half-period: the median falls among the short drives and the tail
    percentile among the spline x spline drives.
    """

    name = "perpartes"
    period = 12
    pool_size = 384
    trace_items = 24
    kinds = (0, 1, 2, 3, 0, 1)

    def make(self, rng, index):
        from stieltjes import PiecewiseFunction, random_spline
        pos = index % self.period
        dim = 2 + pos // 6
        kind = self.kinds[pos % 6]
        g_jumps = None
        if kind == 0:
            x, _ = step(rng, dim, int(rng.integers(1, 7)))
            g = random_spline((0.0, 1.0), rng)
        elif kind == 1:
            x = vector_poly(rng, dim)
            g, g_jumps = scalar_step(rng)
        elif kind == 2:
            x = vector_spline(rng, dim)
            g = PiecewiseFunction.from_global_polynomial(
                rng.standard_normal(4), (0.0, 1.0))
        else:
            x = vector_spline(rng, dim)
            g = random_spline((0.0, 1.0), rng)
        sems = seminorm_family(rng, dim, kind)
        return {"x": x, "g": g, "sems": sems, "kind": kind,
                "g_jumps": g_jumps}

    def run(self, inputs):
        from stieltjes import per_partes
        return per_partes(inputs["x"], inputs["g"], seminorms=inputs["sems"],
                          tol=1e-7)

    def check(self, inputs, rep):
        from stieltjes import exact_step_integral, product_integral
        x, g, kind = inputs["x"], inputs["g"], inputs["kind"]
        if not float(np.max(rep.gaps)) < 1e-6:
            return False
        if kind == 0:
            return close(rep.g_dx.value, exact_step_integral(g, x), 1e-6)
        if kind == 1:
            times, jumps = inputs["g_jumps"]
            x_dg = sum(x(t) * j for t, j in zip(times, jumps))
            return (close(rep.x_dg.value, x_dg, 1e-6)
                    and close(rep.g_dx.value,
                              product_integral(x.derivative(), g), 1e-6))
        return close(rep.x_dg.value, product_integral(x, g.derivative()),
                     1e-6)


class Geometry:
    """Increment-sum set, exact semivariation and hull-membership LPs.

    Three in four items are step integrators: e_set, semivariation under
    every seminorm of a weighted-sup / weighted-one / quadratic family,
    and one LP per decomposed part of three random splines.  The fourth
    item is a vector-spline semivariation refinement drive under a
    quadratic seminorm that passes 20 cells at level 2, so it reaches
    alternating ascent; ten levels bound it.

    LP time grows as 2^jumps, so drawing the jump count at random would
    make a run's cost and percentiles depend on the seed.  Each period of
    24 items instead has a fixed schedule in dimension 3: 6 spline drives
    (about 10 ms), 11 real steps with 8 jumps (256 generators, about
    60 ms), 3 complex steps with 4, 7 and 9 jumps (up to about 0.5 s),
    4 real steps with 12 jumps (4096 generators, about 0.6 s).  The median
    falls inside the 8-jump block and the tail percentile, p90 to p96 for
    runs of 100 to 250 items, inside the 12-jump block at the top.
    """

    name = "geometry"
    period = 24
    pool_size = 240
    trace_items = 24
    splines = 3
    dim = 3
    # (jumps, complex) of the 18 step items of a period, in order
    steps = ((8, False), (8, False), (12, False), (8, False), (8, False),
             (4, True), (8, False), (12, False), (8, False), (8, False),
             (12, False), (7, True), (8, False), (8, False), (12, False),
             (8, False), (8, False), (9, True))

    def make(self, rng, index):
        from stieltjes import Seminorm, random_spline
        pos = index % self.period
        dim = self.dim
        if pos % 4 == 3:
            return {"kind": "spline", "x": vector_spline(rng, dim, 8),
                    "sems": (quadratic(rng, dim),)}
        jumps, complex_field = self.steps[pos - pos // 4]
        x, jumps = step(rng, dim, jumps, complex_field)
        sems = (Seminorm.weighted_sup(rng.uniform(0.2, 2.0, dim)),
                Seminorm.weighted_one(rng.uniform(0.2, 2.0, dim)),
                quadratic(rng, dim))
        gs = [random_spline((0.0, 1.0), rng, complex_field=complex_field)
              for _ in range(self.splines)]
        return {"kind": "step", "x": x, "jumps": jumps, "sems": sems,
                "gs": gs, "complex": complex_field}

    def run(self, inputs):
        from stieltjes import (decompose, e_set, exact_step_integral,
                               hull_membership, semivariation)
        x = inputs["x"]
        if inputs["kind"] == "spline":
            return {"reports": [semivariation(x, p, max_levels=10)
                                for p in inputs["sems"]]}
        reports = [semivariation(x, p) for p in inputs["sems"]]
        gens = e_set(x)
        hulls = []
        for g in inputs["gs"]:
            for part in decompose(g):
                if part.sup_abs() == 0.0:
                    continue
                v = exact_step_integral(part, x)
                hulls.append((v, hull_membership(v, gens, tol=5e-10)))
        return {"reports": reports, "gens": gens, "hulls": hulls}

    def check(self, inputs, out):
        x, sems = inputs["x"], inputs["sems"]
        if inputs["kind"] == "spline":
            return all(self._spline_ok(x, p, rep)
                       for p, rep in zip(sems, out["reports"]))
        jumps = inputs["jumps"]
        gens = out["gens"]
        if gens.shape[0] != 1 << jumps.shape[0]:
            return False
        for p, rep in zip(sems, out["reports"]):
            if inputs["complex"]:
                lo = float(seminorm_values(p, jumps.sum(axis=0)[None])[0])
                hi = float(np.sum(seminorm_values(p, jumps)))
                if not lo - 1e-12 * hi <= rep.value <= hi * (1 + 1e-12):
                    return False
            elif not close(rep.value, sign_sup(jumps, p), 1e-12):
                return False
        flat = gens.reshape(gens.shape[0], -1)
        for v, res in out["hulls"]:
            if not res.member:
                return False
            if np.max(np.abs(res.coefficients @ flat - np.ravel(v))) >= 1e-9:
                return False
            if np.sum(np.abs(res.coefficients)) > 1.0 + 1e-9:
                return False
        return True

    @staticmethod
    def _spline_ok(x, p, rep):
        """Refinement values never decrease and lie between p(x(b) - x(a))
        and the triangle-inequality bound sum_pieces sum_k p(c_k) h^k on
        the variation."""
        trace = np.asarray(rep.trace)
        if np.any(np.diff(trace) < -1e-12 * max(1.0, trace[-1])):
            return False
        lo = float(seminorm_values(p, (x.values[-1] - x.values[0])[None])[0])
        widths = np.diff(x.breakpoints)
        hi = sum(float(seminorm_values(p, x.coeffs[i, 1:])
                       @ widths[i] ** np.arange(1, x.coeffs.shape[1]))
                 for i in range(x.piece_count))
        return lo - 1e-12 <= rep.value <= hi * (1 + 1e-12)


class CliCold:
    """One fresh ``python -m stieltjes.cli --input <file>`` per item,
    cycling over the problem files that have a reference output.  Module
    import is most of each run."""

    name = "cli-cold"
    period = 10
    trace_items = 10
    child = HERE / "cli_child.py"

    def __init__(self):
        self.traced = False

    def pool(self, seed):
        files = sorted(REFERENCE_DIR.glob("*.out"))
        self.period = self.trace_items = len(files)
        start = int(np.random.default_rng(seed).integers(len(files)))
        order = files[start:] + files[:start]
        return [{"problem": PROBLEM_DIR / (ref.stem + ".json"),
                 "reference": ref.read_bytes()} for ref in order]

    def command(self, problem):
        if self.traced:
            return [sys.executable, str(self.child), "--input", str(problem)]
        return [sys.executable, "-m", "stieltjes.cli", "--input",
                str(problem)]

    def run(self, inputs):
        return subprocess.run(self.command(inputs["problem"]),
                              capture_output=True, timeout=120)

    def check(self, inputs, proc):
        return proc.returncode == 0 and proc.stdout == inputs["reference"]


WORKLOADS = {w.name: w for w in (Roundtrip, PerPartes, Geometry, CliCold)}


def pool(name, seed):
    """The seeded item pool of a workload, and the workload object."""
    workload = WORKLOADS[name]()
    if hasattr(workload, "pool"):
        return workload, workload.pool(seed)
    rng = np.random.default_rng(seed)
    return workload, [workload.make(rng, i)
                      for i in range(workload.pool_size)]
