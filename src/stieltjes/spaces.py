"""Finite-dimensional coordinate spaces carrying families of seminorms.

The model space is R^n or C^n together with a finite family of seminorms.
Three concrete seminorm kinds are supported,

* ``weighted-sup``:   p(v) = max_i w_i |v_i|,   w_i >= 0,
* ``weighted-one``:   p(v) = sum_i w_i |v_i|,   w_i >= 0,
* ``quadratic``:      p(v) = sqrt(v^H Q v),     Q Hermitian PSD,

plus the composite ``max`` kind, the pointwise maximum of several of
them.  Dual vectors are plain coordinate arrays; the pairing is the
standard (conjugate-linear in the dual) inner product.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "Seminorm",
    "SpaceModel",
    "pair",
    "polar_gauge",
    "sample_dual_ball",
]

_KINDS = ("weighted-sup", "weighted-one", "quadratic", "max")

# eigenvalue floor, relative to a quadratic form's largest entry, below
# which the form is rejected as indefinite; eigenvalues up to it count as
# zero when the kernels of a family are intersected
_PSD_TOL = 1e-10


def _check_dimension(seminorms, dim):
    """Refuse a seminorm of another dimension than ``dim``, the values'."""
    for p in seminorms:
        if p.dimension != dim:
            raise ArgumentError(
                f"seminorm dimension {p.dimension} != value dimension {dim}")


@dataclass(frozen=True, eq=False)
class Seminorm:
    """A single seminorm on the coordinate space.

    Build instances through :meth:`weighted_sup`, :meth:`weighted_one`,
    :meth:`quadratic` or :meth:`max_of`; the constructor validates the
    parameters for the given kind.
    """

    kind: str
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ArgumentError(f"unknown seminorm kind {self.kind!r}")
        if self.kind in ("weighted-sup", "weighted-one"):
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ArgumentError("weights must be a nonempty 1-d array")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise ArgumentError("weights must be finite and nonnegative")
            object.__setattr__(self, "weights", w)
        elif self.kind == "quadratic":
            q = np.asarray(self.matrix)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ArgumentError("quadratic form requires a square matrix")
            size = float(np.max(np.abs(q), initial=0.0))
            if not np.allclose(q, q.conj().T, atol=1e-12 * size):
                raise ArgumentError("quadratic form matrix must be Hermitian")
            q = 0.5 * (q + q.conj().T)
            lo = np.linalg.eigvalsh(q)[0]
            if lo < -_PSD_TOL * size:
                raise ArgumentError(
                    f"quadratic form is not positive semidefinite "
                    f"(smallest eigenvalue {lo:.3e})"
                )
            object.__setattr__(self, "matrix", q)
        else:
            if len(self.parts) < 2:
                raise ArgumentError("max seminorm needs at least two parts")
            dims = {p.dimension for p in self.parts}
            if len(dims) != 1:
                raise ArgumentError("max parts must share one dimension")

    @classmethod
    def weighted_sup(cls, weights):
        return cls("weighted-sup", weights=weights)

    @classmethod
    def weighted_one(cls, weights):
        return cls("weighted-one", weights=weights)

    @classmethod
    def quadratic(cls, matrix):
        return cls("quadratic", matrix=matrix)

    @classmethod
    def max_of(cls, *parts):
        flat = []
        for p in parts:
            flat.extend(p.parts if p.kind == "max" else [p])
        return cls("max", parts=tuple(flat))

    @property
    def dimension(self):
        if self.kind in ("weighted-sup", "weighted-one"):
            return self.weights.size
        if self.kind == "quadratic":
            return self.matrix.shape[0]
        return self.parts[0].dimension

    def __call__(self, v):
        return float(self.eval_many(np.asarray(v)[np.newaxis])[0])

    def eval_many(self, vs):
        """Evaluate on an (N, dim) batch of vectors, returning (N,) floats."""
        vs = np.atleast_2d(np.asarray(vs))
        if vs.shape[1] != self.dimension:
            raise ArgumentError(
                f"vector dimension {vs.shape[1]} != seminorm dimension "
                f"{self.dimension}"
            )
        if self.kind == "weighted-sup":
            return np.max(np.abs(vs) * self.weights, axis=1)
        if self.kind == "weighted-one":
            return np.abs(vs) @ self.weights
        if self.kind == "quadratic":
            quad = np.einsum("ni,ij,nj->n", vs.conj(), self.matrix, vs).real
            return np.sqrt(np.maximum(quad, 0.0))
        return np.max([p.eval_many(vs) for p in self.parts], axis=0)


@dataclass(frozen=True, eq=False)
class SpaceModel:
    """Coordinate space R^n / C^n with a finite seminorm family.

    ``separating`` is computed on first read: the family separates points
    iff the intersection of the seminorm kernels is trivial, which is
    checked by the rank of unit rows spanning their complements: the
    coordinates of positive weights, and the eigenvectors of a form whose
    eigenvalues exceed 1e-10 of its largest entry.  No scale of the
    weights or matrices moves the decision.
    """

    dimension: int
    field: str
    seminorms: tuple

    def __post_init__(self):
        if self.dimension < 1:
            raise ArgumentError("dimension must be >= 1")
        if self.field not in ("real", "complex"):
            raise ArgumentError("field must be 'real' or 'complex'")
        sems = tuple(self.seminorms)
        if not sems:
            raise ArgumentError("at least one seminorm is required")
        _check_dimension(sems, self.dimension)
        for p in sems:
            if self.field == "real" and p.kind == "quadratic":
                if np.iscomplexobj(p.matrix):
                    raise ArgumentError(
                        "complex quadratic form on a real space"
                    )
        object.__setattr__(self, "seminorms", sems)

    @functools.cached_property
    def separating(self):
        rows = []
        for p in self._flat_seminorms():
            # unit rows spanning the complement of the kernel
            if p.kind in ("weighted-sup", "weighted-one"):
                rows.append(np.eye(self.dimension)[p.weights > 0])
            else:
                vals, vecs = np.linalg.eigh(p.matrix)
                keep = vals > _PSD_TOL * np.max(np.abs(p.matrix))
                rows.append(vecs[:, keep].conj().T)
        stacked = np.vstack([r for r in rows if r.size] or
                            [np.zeros((1, self.dimension))])
        return int(np.linalg.matrix_rank(stacked, tol=1e-12)) == self.dimension

    def _flat_seminorms(self):
        for p in self.seminorms:
            if p.kind == "max":
                yield from p.parts
            else:
                yield p


def pair(xp, v):
    """Duality pairing <xp, v>, conjugate-linear in the dual argument."""
    xp = np.asarray(xp)
    v = np.asarray(v)
    if xp.shape != v.shape:
        raise ArgumentError(f"shape mismatch {xp.shape} vs {v.shape}")
    out = np.vdot(xp, v)
    return out if np.iscomplexobj(xp) or np.iscomplexobj(v) else float(out.real)


def polar_gauge(A, xp):
    """sup over a in A of \\|<xp, a>\\| for a finite set A of vectors.

    ``A`` is an (k, dim) array-like; duals with gauge <= 1 are exactly the
    functionals bounded by 1 on A, i.e. the polar of A.
    """
    A = np.atleast_2d(np.asarray(A))
    xp = np.asarray(xp)
    if A.size == 0:
        raise ArgumentError("A must be nonempty")
    if xp.shape != A.shape[1:]:
        raise ArgumentError(f"dual shape {xp.shape} does not match the "
                            f"vectors of A, {A.shape[1:]}")
    return float(np.max(np.abs(A.conj() @ xp)))


def sample_dual_ball(A, count, seed=0):
    """Sample ``count`` duals from the polar ball {xp : polar_gauge(A, xp) <= 1}.

    The sample starts with the coordinate-aligned boundary duals
    e_i / polar_gauge(A, e_i) (in coordinate order, where the gauge
    exceeds 1e-12 of A's largest entry) and continues with random
    directions scaled to alternate between the gauge-one boundary and the
    interior.  Deterministic for a fixed seed; a count of 0 gives no
    duals.
    """
    A = np.atleast_2d(np.asarray(A))
    if A.size == 0 or not np.any(np.abs(A) > 0):
        raise ArgumentError("A must contain a nonzero vector")
    if count < 0:
        raise ArgumentError(f"count must be nonnegative, not {count}")
    dim = A.shape[1]
    complex_field = np.iscomplexobj(A)
    # gauges below this share of A's size are taken for zero
    floor = 1e-12 * float(np.max(np.abs(A)))
    duals = []
    for i in range(dim):
        if len(duals) == count:
            return duals
        e = np.zeros(dim, dtype=complex if complex_field else float)
        e[i] = 1.0
        g = polar_gauge(A, e)
        if g > floor:
            duals.append(e / g)
    rng = np.random.default_rng(seed)
    boundary = True
    while len(duals) < count:
        z = rng.standard_normal(dim)
        if complex_field:
            z = z + 1j * rng.standard_normal(dim)
        g = polar_gauge(A, z)
        if g <= floor:
            # direction invisible to A; any scale is feasible
            duals.append(z)
            continue
        target = 1.0 if boundary else rng.uniform(0.0, 1.0)
        duals.append(z * (target / g))
        boundary = not boundary
    return duals
