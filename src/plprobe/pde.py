"""Weighted p-Laplace Dirichlet solver on structured triangulations.

The domain (rectangle above the flat or graph bottom x2 = g(x1) of a
`special.BoundaryDefiningFunction`, or half disc) is meshed by splitting
each structured cell into two first-order triangles; element gradients
are constant, so affine fields are reproduced exactly and the p-energy
density is integrated by the midpoint rule per element.  Element data is
stored and computed component-major: one contiguous length-nel vector per
(hat, direction) of the geometry and per (direction, component) of a
gradient, so one contraction kernel (gradients and hat dots) serves the
energy, the Newton step, the residual and the pairings, and the Newton step
and the residual share one element-to-node scatter, the gradient's.

The Dirichlet problem div(gamma |grad u|^(p-2) grad u) = 0, u = f on the
boundary, is solved as the minimization of the regularized convex energy

    E_eps(u) = sum_T area_T gamma_T (|grad u|_T^2 + eps^2)^(p/2)

by damped Newton with a backtracking (Armijo, sufficient-decrease constant
1/4) line search, run from the initial iterate at the single eps =
eps_final times the RMS gradient of the datum.  A full step whose energy
falls faster than its quadratic model predicts, as far from the solution
for p > 2, is doubled while that lowers the energy, up to 64 times the
Newton step (the expansion phase of Nocedal & Wright, Numerical
Optimization, 2nd ed., sec. 3.5).  The free dofs are numbered
with the lattice's shorter side running fastest, so the free-dof Newton
matrix is a band of half-width about ncomp times that side; each Newton
step assembles its lower band and factors it by LAPACK banded Cholesky
(dpbtrf) on one OpenBLAS thread.  The closing polish step is a chord step:
it assembles only the gradient and back-solves (dpbtrs) with the factor of
the step before it.
Only the lower triangle of each symmetric element block is formed (21 of
36 entries for complex data, 6 of 9 for real); the slot of every entry and
the hat p-norms of the residual are computed once per solve.  The dual
residual is the Newton gradient over p, normalized, so each iterate forms
its flux weight and node sums once.  Complex
data is handled as a coupled two-component real field with density
(|grad u_re|^2 + |grad u_im|^2 + eps^2)^(p/2); stationarity in each
component reproduces the complex weak form.  The Newton weight

    w (I + (p-2) q x q / (|q|^2 + eps^2)),
    w = vecp._pow_or_zero(|q|^2 + eps^2, (p-2)/2)

is symmetric positive definite for every p > 1, so the damped iteration is
globally convergent on the strictly convex regularized energy.  At
eps = 0 the same kernel is the flux weight of every weak form and pairing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .special import BoundaryDefiningFunction
from .vecp import _norm_sq, _pow_or_zero

__all__ = [
    "Rectangle",
    "HalfDisc",
    "DomainGrid",
    "build_grid",
    "ConductivityField",
    "PField",
    "SolverSettings",
    "SolveResult",
    "SolverConvergenceError",
    "solve_dirichlet",
    "weak_residual",
]


# ---------------------------------------------------------------------------
# Shapes and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """[-half_width, half_width] x [0, height] above the bottom x2 = g(x1)
    of `bottom`, flat by default; g(0) = g'(0) = 0 puts the base boundary
    point at the origin with inward normal e_2.
    """

    half_width: float = 1.0
    height: float = 1.0
    bottom: BoundaryDefiningFunction = field(default_factory=BoundaryDefiningFunction)


@dataclass(frozen=True)
class HalfDisc:
    radius: float = 1.0


@dataclass
class DomainGrid:
    """Structured triangulation with P1 element geometry precomputed.

    Element arrays are stored component-major: every (hat i, direction v)
    pair owns one contiguous length-nel vector, so the element kernels run
    numpy's inner loops over elements rather than over axes of length 2-3.
    """

    pts: np.ndarray          # (npt, 2)
    tri: np.ndarray          # (nel, 3) intp, column-major: tri[:, i] contiguous
    area: np.ndarray         # (nel,)
    grad: np.ndarray         # (3, 2, nel): grad[i, v] = d(phi_i)/d(x_v)
    centroid: np.ndarray     # (nel, 2)
    boundary: np.ndarray     # (npt,) bool
    nx: int
    ny: int
    resolution: float
    shape: object

    @property
    def npt(self) -> int:
        return self.pts.shape[0]

    @property
    def h(self) -> float:
        """Grid spacing (cells per unit resolution)."""
        return 1.0 / self.resolution


def build_grid(shape, resolution: float) -> DomainGrid:
    """Mesh the shape at `resolution` cells per unit length.

    The cell count across the width is forced even so x1 = 0 is a node
    line (probes are centered at the origin).
    """
    resolution = float(resolution)
    if resolution < 8.0:
        raise ValueError(f"resolution must be at least 8 cells per unit, got {resolution}")

    if isinstance(shape, Rectangle):
        if shape.half_width <= 0 or shape.height <= 0:
            raise ValueError("degenerate rectangle")
        nx = 2 * max(1, round(shape.half_width * resolution))
        ny = max(2, round(shape.height * resolution))
        xs = np.linspace(-shape.half_width, shape.half_width, nx + 1)
        ys = np.linspace(0.0, shape.height, ny + 1)
        X, Y = np.meshgrid(xs, ys)
        if not shape.bottom.flat:
            g = shape.bottom.g(xs[:, None])
            # boundary-fitted stretching: bottom row follows the graph,
            # the top row stays flat at height
            Y = g[None, :] + Y * (shape.height - g[None, :]) / shape.height
        pts = np.column_stack([X.ravel(), Y.ravel()])
    elif isinstance(shape, HalfDisc):
        if shape.radius <= 0:
            raise ValueError("degenerate half disc")
        R = shape.radius
        nx = 2 * max(1, round(R * resolution))
        ny = max(2, round(R * resolution))
        xs = np.linspace(-R, R, nx + 1)
        ys = np.linspace(0.0, R, ny + 1)
        X, Y = np.meshgrid(xs, ys)
        # concentric map: reference L-inf radius s goes to euclidean radius s
        s = np.maximum(np.abs(X), np.abs(Y))
        r = np.hypot(X, Y)
        scale = np.where(r > 0.0, s / np.where(r > 0.0, r, 1.0), 0.0)
        pts = np.column_stack([(X * scale).ravel(), (Y * scale).ravel()])
    else:
        raise TypeError(f"unknown shape {shape!r}")

    def node_id(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii, jj = ii.ravel(), jj.ravel()
    lower = np.column_stack([node_id(ii, jj), node_id(ii + 1, jj), node_id(ii, jj + 1)])
    upper = np.column_stack([node_id(ii + 1, jj), node_id(ii + 1, jj + 1), node_id(ii, jj + 1)])
    tri = np.asfortranarray(np.vstack([lower, upper]), dtype=np.intp)

    p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    cross = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
             - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    area = 0.5 * cross
    if np.any(area <= 0.0):
        raise ValueError("triangulation produced degenerate or inverted elements")

    grad = np.empty((3, 2, tri.shape[0]))
    corners = (p0, p1, p2)
    for i in range(3):
        pa, pb = corners[(i + 1) % 3], corners[(i + 2) % 3]
        grad[i, 0] = (pa[:, 1] - pb[:, 1]) / (2.0 * area)
        grad[i, 1] = (pb[:, 0] - pa[:, 0]) / (2.0 * area)

    centroid = (p0 + p1 + p2) / 3.0

    boundary = np.zeros(pts.shape[0], dtype=bool)
    for j in range(ny + 1):
        boundary[node_id(0, j)] = True
        boundary[node_id(nx, j)] = True
    for i in range(nx + 1):
        boundary[node_id(i, 0)] = True
        boundary[node_id(i, ny)] = True

    return DomainGrid(pts=pts, tri=tri, area=area, grad=grad, centroid=centroid,
                      boundary=boundary, nx=nx, ny=ny, resolution=resolution,
                      shape=shape)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConductivityField:
    """Positive conductivity gamma(x): the one conductivity type, taken by
    every solve, pairing and quadrature.  `fn` maps points (m, n) to (m,)
    values, or to one scalar, which a call broadcasts to (m,); bounds are
    validated on each grid."""

    fn: object

    def __call__(self, pts) -> np.ndarray:
        vals = np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)
        return np.broadcast_to(vals, np.asarray(pts).shape[:-1]).copy() \
            if vals.ndim == 0 else vals

    @classmethod
    def constant(cls, c: float) -> "ConductivityField":
        c = float(c)
        return cls(fn=lambda pts: np.full(np.asarray(pts).shape[:-1], c))

    def validate_on(self, grid: DomainGrid) -> tuple[float, float]:
        vals = np.concatenate([self(grid.pts), self(grid.centroid)])
        if not np.all(np.isfinite(vals)) or vals.min() <= 0.0:
            k = int(np.argmin(vals))
            where = np.vstack([grid.pts, grid.centroid])[k]
            raise ValueError(
                f"conductivity must be positive; gamma({where[0]:.6g}, "
                f"{where[1]:.6g}) = {vals[k]:.6g}")
        return float(vals.min()), float(vals.max())


@dataclass
class PField:
    """Nodal scalar field; complex-valued, imaginary part exactly 0 in real mode."""

    values: np.ndarray
    mode: str = "complex"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.mode not in ("real", "complex"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "real" and np.any(self.values.imag != 0.0):
            raise ValueError("real-mode field carries a nonzero imaginary part")

    @classmethod
    def from_function(cls, grid: DomainGrid, fn, mode: str = "complex") -> "PField":
        vals = np.asarray(fn(grid.pts))
        return cls(values=vals.astype(np.complex128), mode=mode)

    @property
    def ncomp(self) -> int:
        return 1 if self.mode == "real" else 2

    def components(self) -> np.ndarray:
        """(npt, ncomp) real view of the nodal values."""
        u = np.column_stack([self.values.real, self.values.imag])
        return u[:, : self.ncomp]


def _values_from_components(U: np.ndarray) -> np.ndarray:
    if U.shape[1] == 1:
        return U[:, 0].astype(np.complex128)
    return U[:, 0] + 1j * U[:, 1]


# ---------------------------------------------------------------------------
# Energy and residuals
# ---------------------------------------------------------------------------


# The element kernels run on the component-major layout of `DomainGrid`:
# element gradients are q[v, c], shape (2, ncomp, nel), and every term is
# one operation on contiguous length-nel vectors.


def _contract(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """out[m, c] = sum_k X[k, m] Y[k, c] per element, shape (X.shape[1],
    Y.shape[1], nel), from vectors of length nel.  The terms are added to a
    zero start in k order, as einsum does, so the result equals einsum bit
    for bit (the zero start turns a -0 first term into +0)."""
    out = np.empty(X.shape[1:2] + Y.shape[1:])
    t = np.empty(X.shape[-1])
    for m in range(X.shape[1]):
        for c in range(Y.shape[1]):
            np.multiply(X[0, m], Y[0, c], out=out[m, c])
            out[m, c] += 0.0
            for k in range(1, X.shape[0]):
                out[m, c] += np.multiply(X[k, m], Y[k, c], out=t)
    return out


def _element_gradients(grid: DomainGrid, U: np.ndarray) -> np.ndarray:
    """Constant per-element gradients of the nodal components U (npt, ncomp),
    shape (2, ncomp, nel): einsum("ive,eic->vce", grid.grad, U[grid.tri])."""
    Ut = np.ascontiguousarray(U.T).take(grid.tri.T, axis=1)   # (ncomp, 3, nel)
    return _contract(grid.grad, Ut.transpose(1, 0, 2))


def _hat_dots(grid: DomainGrid, q: np.ndarray) -> np.ndarray:
    """grad phi_i . q_c for the three hats i of each element, shape
    (3, ncomp, nel): einsum("ive,vce->ice", grid.grad, q)."""
    return _contract(grid.grad.transpose(1, 0, 2), q)


def _complex_gradients(grid: DomainGrid, U: np.ndarray) -> np.ndarray:
    """Element gradients of the complex field with components U, shape
    (nel, 2): a transposed view of the component-major kernel output."""
    q = _element_gradients(grid, U)
    if q.shape[1] == 2:
        return (q[:, 0] + 1j * q[:, 1]).T
    return q[:, 0].astype(np.complex128).T


def _p_energy(grid: DomainGrid, q2: np.ndarray, p: float, gamma_c=1.0,
              eps: float = 0.0) -> float:
    """sum_T area_T gamma_T (q2_T + eps^2)^(p/2); with the defaults, the
    p-th power of the p-norm of the gradient."""
    return float((grid.area * gamma_c * (q2 + eps * eps) ** (p / 2.0)).sum())


def _energy(grid: DomainGrid, U: np.ndarray, gamma_c, p: float, eps: float) -> float:
    """E_eps of the nodal components U (npt, ncomp) with the conductivity
    `gamma_c` at the element centroids; the line search's kernel."""
    q = _element_gradients(grid, U)
    return _p_energy(grid, _norm_sq(q.reshape(-1, q.shape[-1]), axis=0), p,
                     gamma_c, eps)


def weak_residual(grid: DomainGrid, gamma: ConductivityField, p: float,
                  u: PField) -> float:
    """Normalized dual-norm defect of the weak form (eps = 0)."""
    newton = _FreeDofNewton(grid, gamma(grid.centroid), p, u.ncomp)
    return newton.residual(u.components(), 0.0)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverSettings:
    """Newton controls.

    The solve runs damped Newton at eps = eps_final times the RMS gradient
    of the datum, which makes it exactly equivariant under scaling of the
    datum.  Once a step's relative energy decrease is at most outer_tol and
    the regularized dual residual is at most residual_tol, it takes one
    more step, which brings the iterate to round-off, and stops; that
    polish step reuses the factored Newton matrix of the step before it
    (a chord step).  max_iter, an integer >= 1, bounds the steps taken
    before the test passes.  Step lengths halve until the energy falls by
    at least 1/4 of the step's decrement; a full step that beats its
    quadratic model by the margin EXPANSION_MARGIN is doubled while the
    energy falls, up to length 64.  init is datum, zero or random; seed,
    an integer >= 0, seeds the random start.  Bad values raise ValueError
    at construction, with a message that begins with the field's name.
    """

    eps_final: float = 1e-6
    outer_tol: float = 1e-11
    residual_tol: float = 1e-7
    max_iter: int = 60
    init: str = "datum"   # datum | zero | random
    seed: int = 12345

    def __post_init__(self):
        for key in ("eps_final", "outer_tol", "residual_tol"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key}: must be positive")
        if not (self.max_iter >= 1 and float(self.max_iter).is_integer()):
            raise ValueError("max_iter: must be at least 1 and an integer, "
                             f"got {self.max_iter:g}")
        if self.init not in ("datum", "zero", "random"):
            raise ValueError(f"init: unknown initialization {self.init!r}")
        if not (self.seed >= 0 and float(self.seed).is_integer()):
            raise ValueError(f"seed: must be a non-negative integer, got {self.seed:g}")
        # integral floats, as a config file gives them, are stored as ints
        object.__setattr__(self, "max_iter", int(self.max_iter))
        object.__setattr__(self, "seed", int(self.seed))


class SolverConvergenceError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolveResult:
    field: PField
    energy: float
    energy_history: list          # (eps, E, decrement) per accepted step
    weak_residual: float          # eps = 0 diagnostic
    regularized_residual: float   # dual residual at eps_final_abs
    eps_final_abs: float


# Armijo sufficient-decrease constant.  Below 1/2, so unit steps are accepted
# near the solution; large enough to reject the sign-flipping full steps that
# |q|^p produces for p < 2 far from it (q -> (p-2)/(p-1) q, i.e. -q at 1.5).
SUFFICIENT_DECREASE = 0.25
MAX_BACKTRACKS = 40  # step halvings before the line search gives up
# An accepted full step is lengthened when the energy fell by more than
# (1 + EXPANSION_MARGIN) times the decrease its quadratic model predicts
# (half the decrement).  For p > 2, far from the solution a full step maps
# q -> (p-2)/(p-1) q, and along such a p-homogeneous direction the ratio of
# achieved to predicted decrease is (1 - ((p-2)/(p-1))^p) 2(p-1)/p: at least
# 1.056 for p >= 2.15, 1.17 at p = 3, 1.24 at p = 8.  Near a minimizer the
# ratio tends to 1, and there E(2) ~ E(0) > E(1), so a quadratic-regime step
# is never lengthened.
EXPANSION_MARGIN = 0.05


@functools.cache
def _scipy_openblas():
    """The OpenBLAS bundled with scipy, which runs dpbtrf, as a ctypes
    library; None where it or its `openblas_set_num_threads_local` is not
    found.  Looked up at the first factorization, not at import."""
    import scipy

    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = (ctypes.c_int,)
        set_threads.restype = ctypes.c_int
        return lib
    return None


# In a pthreads OpenBLAS (scipy's wheels) the thread count is one number for
# the whole process, although the setter is named "local": two solves pinning
# it from different threads could restore each other's count out of order.
@contextlib.contextmanager
def _one_openblas_thread():
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    previous = lib.openblas_set_num_threads_local(1)
    try:
        yield
    finally:
        lib.openblas_set_num_threads_local(previous)


def _band_factor(ab):
    """The lower band Cholesky factor of the SPD matrix H whose lower band
    (LAPACK layout, Fortran order) is `ab`; `ab` may be overwritten, and
    the caller keeps only the returned factor.

    The factor and every solve with it (`_band_solve`) run on one OpenBLAS
    thread, and the caller's count is restored on return or error.  dpbtrf
    works in panels of at most 32 columns, and threading their small
    updates costs more than it gains: on 2 cores, one thread ties at
    kd <= 63 and is 1.3-1.7x faster at kd >= 108 (kd = 229 on the M = 16
    complex window).  Where scipy's OpenBLAS is not found, the band is
    factored on the library's own thread count.  scipy.linalg is imported
    here, at the first factorization, so that importing `pde` loads no
    scipy."""
    from scipy.linalg.lapack import dpbtrf

    with _one_openblas_thread():
        factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise SolverConvergenceError(
            f"Newton matrix is not positive definite (leading minor {info})")
    return factor


def _band_solve(factor, b):
    """Solve H x = b with the band Cholesky factor of H from `_band_factor`."""
    from scipy.linalg.lapack import dpbtrs

    with _one_openblas_thread():
        return dpbtrs(factor, b, lower=1)[0]


class _FreeDofNewton:
    """Gradient and Newton matrix of E_eps restricted to the free dofs.

    The free nodes are numbered with the lattice's shorter side running
    fastest, components interleaved, so the matrix is a band of half-width
    `kd`; `dofs` maps that numbering back to `U.ravel()`.  An element's
    local dofs are a = ncomp i + c for hat i and component c.  Its Newton
    block is symmetric, so only its 3 ncomp (3 ncomp + 1) / 2 local pairs
    b <= a (`pairs`: 21 complex, 6 real) are formed, each as one length-nel
    vector; a pair lands in the lower band at (max, min) of its two free
    numbers.  The slot of every gradient and band entry is built once (the
    band's on the first band assembly), in element-major order, so each
    node and band entry adds its terms in element order; the hat p-norms
    of the dual residual are summed once through the gradient's slots.
    Each linearization is then one bincount for the gradient and one for
    the band, and the residual reads the same gradient.  Entries touching a
    fixed dof go to a discarded extra slot.
    """

    def __init__(self, grid, gamma_c, p, ncomp):
        self.grid, self.gamma_c, self.p = grid, gamma_c, p
        nloc = 3 * ncomp
        lattice = np.arange(grid.npt).reshape(grid.ny + 1, grid.nx + 1)
        order = (lattice.T if grid.nx >= grid.ny else lattice).ravel()
        nodes = order[~grid.boundary[order]]
        self.dofs = (nodes[:, None] * ncomp + np.arange(ncomp)).ravel()
        nfree = self.nfree = self.dofs.size
        number = np.full(grid.npt * ncomp, nfree)
        number[self.dofs] = np.arange(nfree)
        self.vec_slot = number[grid.tri[:, :, None] * ncomp + np.arange(ncomp)].ravel()

        # the local pairs (a, b), b <= a, with the index m of their hat pair
        # in `bb` when a and b are one component (m = -1 otherwise)
        pair_a, pair_b = np.tril_indices(nloc)
        hat_a, hat_b = pair_a // ncomp, pair_b // ncomp
        hat_pair = np.where(pair_a % ncomp == pair_b % ncomp,
                            hat_a * (hat_a + 1) // 2 + hat_b, -1)
        self.pairs = list(zip(pair_a, pair_b, hat_pair))
        # grad phi_i . grad phi_j for the hat pairs j <= i
        G = grid.grad
        hat_i, hat_j = np.tril_indices(3)
        self.bb = G[hat_i, 0] * G[hat_j, 0] + G[hat_i, 1] * G[hat_j, 1]
        # ||grad phi_i||_p of every free node (the first of its dofs' sums)
        hat_p = np.repeat((grid.area * (G[:, 0]**2 + G[:, 1]**2) ** (p / 2.0)).T,
                          ncomp, axis=1)
        self.phinorm = np.bincount(self.vec_slot, weights=hat_p.ravel(),
                                   minlength=nfree + 1)[:nfree:ncomp] ** (1.0 / p)

    # kd and the band slots are built on the first band assembly; the weak
    # residual reads the gradient only

    @functools.cached_property
    def kd(self) -> int:
        # the widest spread of free numbers within one element
        fdof = self.vec_slot.reshape(self.grid.tri.shape[0], -1).T
        spread = np.where(fdof < self.nfree, fdof, -1).max(axis=0) - fdof.min(axis=0)
        return int(spread.max(initial=0))

    @functools.cached_property
    def mat_slot(self) -> np.ndarray:
        # a local pair of free numbers row >= col has band slot row + kd col
        fdof = self.vec_slot.reshape(self.grid.tri.shape[0], -1).T
        nfree, kd = self.nfree, self.kd
        mat_slot = np.empty((fdof.shape[1], len(self.pairs)), dtype=np.intp)
        for k, (a, b, _) in enumerate(self.pairs):
            row = np.maximum(fdof[a], fdof[b])
            slot = np.minimum(fdof[a], fdof[b])
            slot *= kd
            slot += row
            slot[row >= nfree] = nfree * (kd + 1)
            mat_slot[:, k] = slot
        return mat_slot.ravel()

    def energy(self, U, eps):
        return _energy(self.grid, U, self.gamma_c, self.p, eps)

    def _gradient(self, U, eps):
        """Per element |q|^2, the weight p area gamma w and the hat dots,
        and the free gradient of E_eps at U; w = (|q|^2 + eps^2)^((p-2)/2)
        is the flux weight, 0 where |q|^2 + eps^2 = 0."""
        grid, p = self.grid, self.p
        q = _element_gradients(grid, U)
        q2 = _norm_sq(q.reshape(-1, q.shape[-1]), axis=0)
        coef = grid.area * self.gamma_c * p * _pow_or_zero(q2 + eps * eps,
                                                          (p - 2.0) / 2.0)
        iq = _hat_dots(grid, q).reshape(-1, q.shape[-1])  # row a = ncomp i + c
        # the weights are written element-major, as the slots are, without
        # a transposed copy
        nel = q.shape[-1]
        gw = np.empty((nel, iq.shape[0]))
        np.multiply(iq, coef, out=gw.T)
        g = np.bincount(self.vec_slot, weights=gw.ravel(),
                        minlength=self.nfree + 1)[:self.nfree]
        return q2, coef, iq, g

    def residual(self, U, eps):
        """max over free nodes i of |int gamma w grad u . grad phi_i| /
        (||grad u||_p^(p-1) ||grad phi_i||_p), the free gradient over p
        normalized; the norm of a complex node's two components is taken.
        eps = 0 gives the unregularized weak form, with the flux extended by
        0 where grad u = 0; a field with grad u = 0 gives 0."""
        p = self.p
        q2, _, _, g = self._gradient(U, eps)
        unorm = _p_energy(self.grid, q2, p) ** (1.0 / p)
        if unorm == 0.0:
            return 0.0
        gnorm = np.sqrt((g.reshape(-1, U.shape[1]) ** 2).sum(axis=1))
        return float(np.max(gnorm / (p * unorm ** (p - 1.0) * self.phinorm)))

    def linearize(self, U, eps, band=True):
        """(E_eps(U), free gradient, lower band of the free Newton matrix,
        shape (kd + 1, nfree) in Fortran order); with band=False, (E_eps(U),
        free gradient) only, and no band is assembled."""
        # the band slots are built, once, before this step's transients
        mat_slot = self.mat_slot if band else None
        q2, coef, iq, g = self._gradient(U, eps)
        E = _p_energy(self.grid, q2, self.p, self.gamma_c, eps)
        if not band:
            return E, g
        p, nel = self.p, q2.size
        coef_rank1 = coef * (p - 2.0) / (q2 + eps * eps)
        H, t = np.empty((nel, len(self.pairs))), np.empty(nel)
        cbb = coef * self.bb
        for k, (a, b, m) in enumerate(self.pairs):
            np.multiply(iq[a], iq[b], out=t)
            t *= coef_rank1
            if m >= 0:
                t += cbb[m]
            H[:, k] = t
        nband = self.nfree * (self.kd + 1)
        ab = np.bincount(mat_slot, weights=H.ravel(),
                         minlength=nband + 1)[:nband]
        return E, g, ab.reshape(self.nfree, self.kd + 1).T


def _damped_newton(newton, U, eps, settings):
    """Damped Newton at fixed eps from U; returns (last iterate, history).

    Each Newton step assembles the band and factors it.  Once a step's
    relative energy decrease is at most outer_tol and the residual meets
    residual_tol (or the decrement reaches float resolution), one more
    "polish" step is taken, which brings the iterate to round-off.  It is a
    chord step: it assembles only the gradient and back-solves with the
    factor of the step that passed the test.  Every accepted step appends
    (eps, E, decrement) to the history, so a solve makes one factorization
    fewer than it has history entries.

    The line search halves t from 1 until the Armijo test passes.  When it
    accepts t = 1 on a Newton (not polish) step and the energy fell by more
    than (1 + EXPANSION_MARGIN) decrement / 2, the quadratic model's
    prediction, t doubles while E(U + 2t D) < E(U + t D), up to t = 64, and
    the last step that lowered the energy is taken.
    """
    history, polish = [], False
    while True:
        if polish:
            E, g = newton.linearize(U, eps, band=False)
        else:
            E, g, ab = newton.linearize(U, eps)
            factor = _band_factor(ab)
            del ab  # only the factor keeps band-sized memory
        d = _band_solve(factor, -g)
        decrement = float(-g @ d)
        if decrement < 0.0:
            raise SolverConvergenceError("Newton direction is not a descent direction")

        D = np.zeros_like(U)
        D.ravel()[newton.dofs] = d
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            U_try = U + t * D
            E_try = newton.energy(U_try, eps)
            if E_try <= E - SUFFICIENT_DECREASE * t * decrement + 1e-15 * abs(E):
                break
            t *= 0.5
        else:
            raise SolverConvergenceError(f"line search failed at eps = {eps:.3e}",
                                         residual=newton.residual(U, eps))
        if (t == 1.0 and not polish
                and E - E_try > (1.0 + EXPANSION_MARGIN) * decrement / 2.0):
            while t < 64.0:
                U_long = U + 2.0 * t * D
                E_long = newton.energy(U_long, eps)
                if not E_long < E_try:
                    break
                t, U_try, E_try = 2.0 * t, U_long, E_long
        U = U_try
        history.append((eps, E_try, decrement))
        if polish:
            return U, history
        if (E - E_try) / max(abs(E_try), 1e-300) <= settings.outer_tol:
            polish = (newton.residual(U, eps) <= settings.residual_tol
                      or decrement <= 1e-28 * max(abs(E_try), 1e-300))
        if not polish:
            # the next step's band is assembled without this factor alive
            del factor
            if len(history) >= settings.max_iter:
                raise SolverConvergenceError(
                    f"no convergence within {settings.max_iter} iterations "
                    f"at eps = {eps:.3e}", residual=newton.residual(U, eps))


def _require_finite(name: str, grid: DomainGrid, f: PField) -> None:
    bad = np.flatnonzero(~np.isfinite(f.values))
    if bad.size:
        k = int(bad[0])
        x, y = grid.pts[k]
        raise ValueError(f"{name} is not finite at node {k}: "
                         f"{name}({x:.6g}, {y:.6g}) = {f.values[k]}")


def solve_dirichlet(grid: DomainGrid, gamma: ConductivityField, p: float,
                    datum: PField, settings: SolverSettings | None = None,
                    initial: PField | None = None) -> SolveResult:
    """Minimize the regularized p-energy subject to the datum's boundary trace.

    The datum is a full field; its boundary values are the Dirichlet data
    and (with init = "datum") its interior values are the warm start.
    """
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    _require_finite("datum", grid, datum)
    if initial is not None:
        _require_finite("initial", grid, initial)
    settings = settings or SolverSettings()
    gamma.validate_on(grid)
    gamma_c = gamma(grid.centroid)

    mode = datum.mode
    ncomp = datum.ncomp
    if initial is not None:
        if initial.mode != mode:
            raise ValueError("initial field mode must match the datum mode")
        U0 = initial.components().copy()
    elif settings.init == "datum":
        U0 = datum.components().copy()
    elif settings.init == "zero":
        U0 = np.zeros((grid.npt, ncomp))
    else:  # random
        rng = np.random.default_rng(settings.seed)
        scale = float(np.max(np.abs(datum.values))) or 1.0
        U0 = rng.standard_normal((grid.npt, ncomp)) * scale
    U0[grid.boundary] = datum.components()[grid.boundary]

    # Regularization scale: RMS gradient of the datum extension (the probe
    # or boundary-data extension), so eps tracks the datum amplitude.
    q0 = _element_gradients(grid, datum.components())
    grad_rms = math.sqrt(float((_norm_sq(q0.reshape(-1, q0.shape[-1]), axis=0)
                                 * grid.area).sum())
                         / float(grid.area.sum()))
    eps = settings.eps_final * (grad_rms if grad_rms > 0.0 else 1.0)

    newton = _FreeDofNewton(grid, gamma_c, p, ncomp)
    U, history = _damped_newton(newton, U0, eps, settings)

    res_reg = newton.residual(U, eps)
    if res_reg > settings.residual_tol:
        raise SolverConvergenceError(
            f"final regularized residual {res_reg:.3e} exceeds "
            f"residual_tol {settings.residual_tol:.3e}", residual=res_reg)

    field = PField(values=_values_from_components(U), mode=mode)
    return SolveResult(field=field, energy=history[-1][1],
                       energy_history=history,
                       weak_residual=newton.residual(U, 0.0),
                       regularized_residual=res_reg, eps_final_abs=eps)
