"""Weighted p-Laplace Dirichlet solver on structured triangulations.

The domain (rectangle with flat or graph bottom boundary, or half disc) is
meshed by splitting each structured cell into two first-order triangles;
element gradients are constant, so affine fields are reproduced exactly
and the p-energy density is integrated by the midpoint rule per element.

The Dirichlet problem div(gamma |grad u|^(p-2) grad u) = 0, u = f on the
boundary, is solved as the minimization of the regularized convex energy

    E_eps(u) = sum_T area_T gamma_T (|grad u|_T^2 + eps^2)^(p/2)

by damped Newton with a backtracking (Armijo, sufficient-decrease constant
1/4) line search, run from the initial iterate at the single eps =
eps_final times the RMS gradient of the datum.  Each step factors the
free-dof Newton matrix by LU with a symmetric minimum-degree ordering and
diagonal pivots; its sparsity pattern is built once per solve.  Complex
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

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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
    "energy",
    "solve_dirichlet",
    "weak_residual",
    "hardy_ratio",
    "h1_relative_error",
]


# ---------------------------------------------------------------------------
# Shapes and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """[-half_width, half_width] x [0, height]; optional graph bottom x2 = g(x1).

    The bottom curve must satisfy g(0) = 0, g'(0) = 0 so the base boundary
    point is the origin with inward normal e_2.
    """

    half_width: float = 1.0
    height: float = 1.0
    bottom: object = None        # callable g(x1) or None for a flat bottom
    bottom_deriv: object = None  # g'(x1), required when bottom is given


@dataclass(frozen=True)
class HalfDisc:
    radius: float = 1.0


@dataclass
class DomainGrid:
    """Structured triangulation with P1 element geometry precomputed."""

    pts: np.ndarray          # (npt, 2)
    tri: np.ndarray          # (nel, 3) int
    area: np.ndarray         # (nel,)
    grad: np.ndarray         # (nel, 3, 2) gradients of the vertex hats
    centroid: np.ndarray     # (nel, 2)
    boundary: np.ndarray     # (npt,) bool
    nx: int
    ny: int
    resolution: float
    shape: object
    _delta: np.ndarray | None = field(default=None, repr=False)

    @property
    def npt(self) -> int:
        return self.pts.shape[0]

    @property
    def boundary_idx(self) -> np.ndarray:
        return np.flatnonzero(self.boundary)

    @property
    def h(self) -> float:
        """Grid spacing (cells per unit resolution)."""
        return 1.0 / self.resolution

    @property
    def bottom_idx(self) -> np.ndarray:
        """Nodes of the bottom boundary row (contains the base point 0)."""
        return np.arange(self.nx + 1)

    @property
    def node_area(self) -> np.ndarray:
        return self.scatter(np.broadcast_to((self.area / 3.0)[:, None], self.tri.shape))

    def scatter(self, el_values: np.ndarray) -> np.ndarray:
        """Sum per-element vertex values, shape (nel, 3, ...), onto the
        nodes: shape (npt, ...)."""
        idx = self.tri.ravel()
        cols = el_values.reshape(idx.size, -1).T
        out = np.stack([np.bincount(idx, weights=c, minlength=self.npt)
                        for c in cols], axis=1)
        return out.reshape((self.npt,) + el_values.shape[2:])

    @property
    def delta(self) -> np.ndarray:
        """Distance to the boundary (exact for flat shapes, first-order
        normal distance for graph bottoms); 0 exactly on boundary nodes."""
        if self._delta is None:
            self._delta = _distance_to_boundary(self)
            self._delta[self.boundary] = 0.0
        return self._delta


def _distance_to_boundary(grid: DomainGrid) -> np.ndarray:
    x, y = grid.pts[:, 0], grid.pts[:, 1]
    shape = grid.shape
    if isinstance(shape, HalfDisc):
        r = np.hypot(x, y)
        return np.maximum(np.minimum(shape.radius - r, y), 0.0)
    hw, ht = shape.half_width, shape.height
    lateral = np.minimum(x + hw, hw - x)
    top = ht - y
    if shape.bottom is None:
        bottom = y
    else:
        g = np.asarray(shape.bottom(x), dtype=float)
        dg = np.asarray(shape.bottom_deriv(x), dtype=float)
        bottom = (y - g) / np.hypot(1.0, dg)
    return np.maximum(np.minimum(np.minimum(lateral, top), bottom), 0.0)


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
        if (shape.bottom is None) != (shape.bottom_deriv is None):
            raise ValueError("bottom and bottom_deriv must be supplied together")
        nx = 2 * max(1, round(shape.half_width * resolution))
        ny = max(2, round(shape.height * resolution))
        xs = np.linspace(-shape.half_width, shape.half_width, nx + 1)
        ys = np.linspace(0.0, shape.height, ny + 1)
        X, Y = np.meshgrid(xs, ys)
        if shape.bottom is not None:
            g = np.asarray(shape.bottom(xs), dtype=float)
            if abs(g[nx // 2]) > 1e-12:
                raise ValueError("bottom curve must vanish at x1 = 0")
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
    tri = np.vstack([lower, upper]).astype(np.int32)

    p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    cross = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
             - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    area = 0.5 * cross
    if np.any(area <= 0.0):
        raise ValueError("triangulation produced degenerate or inverted elements")

    grad = np.empty((tri.shape[0], 3, 2))
    corners = (p0, p1, p2)
    for i in range(3):
        pa, pb = corners[(i + 1) % 3], corners[(i + 2) % 3]
        grad[:, i, 0] = (pa[:, 1] - pb[:, 1]) / (2.0 * area)
        grad[:, i, 1] = (pb[:, 0] - pa[:, 0]) / (2.0 * area)

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
    """Positive conductivity gamma(x); bounds are validated on each grid."""

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

    @classmethod
    def zeros(cls, grid: DomainGrid, mode: str = "complex") -> "PField":
        return cls(values=np.zeros(grid.npt, dtype=np.complex128), mode=mode)

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


# The two gradient kernels below add their terms to a zero start in index
# order, as einsum does, so they equal their einsum forms bit for bit
# (the zero start turns a -0 first term into +0).


def _element_gradients(grid: DomainGrid, U: np.ndarray) -> np.ndarray:
    """Constant per-element gradients, shape (nel, 2, ncomp):
    einsum("eiv,eic->evc", grid.grad, U[grid.tri])."""
    G, Ut = grid.grad, U[grid.tri]
    q = G[:, 0, :, None] * Ut[:, 0, None, :]
    q += 0.0
    q += G[:, 1, :, None] * Ut[:, 1, None, :]
    q += G[:, 2, :, None] * Ut[:, 2, None, :]
    return q


def _hat_dots(grid: DomainGrid, q: np.ndarray) -> np.ndarray:
    """grad phi_i . q for the three hats i of each element, shape
    (nel, 3, ncomp): einsum("eiv,evc->eic", grid.grad, q)."""
    G = grid.grad
    t = G[:, :, 0, None] * q[:, None, 0, :]
    t += 0.0
    t += G[:, :, 1, None] * q[:, None, 1, :]
    return t


def _grad_sq(q: np.ndarray) -> np.ndarray:
    """|grad u|_T^2 per element from element gradients (nel, 2, ncomp)."""
    return (q**2).sum(axis=(1, 2))


def _p_energy(grid: DomainGrid, q2: np.ndarray, p: float, gamma_c=1.0,
              eps: float = 0.0) -> float:
    """sum_T area_T gamma_T (q2_T + eps^2)^(p/2); with the defaults, the
    p-th power of the p-norm of the gradient."""
    return float((grid.area * gamma_c * (q2 + eps * eps) ** (p / 2.0)).sum())


def energy(grid: DomainGrid, u, gamma, p: float, eps: float = 0.0) -> float:
    """E_eps(u) = sum_T area gamma(centroid) (|grad u|^2 + eps^2)^(p/2)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    U = u.components() if isinstance(u, PField) else np.asarray(u, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    gamma_c = gamma(grid.centroid) if callable(gamma) else np.asarray(gamma)
    return _p_energy(grid, _grad_sq(_element_gradients(grid, U)), p, gamma_c, eps)


def _dual_residual(grid, gamma_c, p, U, eps):
    """max_i |int gamma w grad u . grad phi_i| / (||grad u||_p^(p-1) ||grad phi_i||_p)
    over interior hats; w = (|q|^2 + eps^2)^((p-2)/2) (eps = 0 gives the
    unregularized weak form, with the flux extended by 0 where grad u = 0)."""
    q = _element_gradients(grid, U)
    q2 = _grad_sq(q)
    coef = grid.area * gamma_c * _pow_or_zero(q2 + eps * eps, (p - 2.0) / 2.0)
    r = grid.scatter(_hat_dots(grid, q) * coef[:, None, None])

    unorm = _p_energy(grid, q2, p) ** (1.0 / p)
    if unorm == 0.0:
        return 0.0
    phinorm = grid.scatter(grid.area[:, None]
                           * (grid.grad**2).sum(axis=2) ** (p / 2.0)) ** (1.0 / p)

    rnorm = np.sqrt((r**2).sum(axis=1))
    interior = ~grid.boundary
    return float(np.max(rnorm[interior] / (unorm ** (p - 1.0) * phinorm[interior])))


def weak_residual(grid: DomainGrid, gamma, p: float, u: PField,
                  eps: float = 0.0) -> float:
    """Normalized dual-norm defect of the (eps-regularized) weak form."""
    gamma_c = gamma(grid.centroid) if callable(gamma) else np.asarray(gamma)
    return _dual_residual(grid, gamma_c, p, u.components(), eps)


def hardy_ratio(grid: DomainGrid, v: PField, p: float) -> float:
    """||v / delta||_p / ||grad v||_p for fields vanishing on the boundary."""
    if not p > 1:
        raise ValueError("p must be > 1")
    vals = v.values
    if np.max(np.abs(vals[grid.boundary])) > 1e-14 * max(1.0, np.max(np.abs(vals))):
        raise ValueError("hardy_ratio requires a field vanishing on the boundary")
    den = _p_energy(grid, _grad_sq(_element_gradients(grid, v.components())),
                    p) ** (1.0 / p)
    if den == 0.0:
        raise ValueError("hardy_ratio undefined for a constant field")
    interior = ~grid.boundary
    w = grid.node_area[interior]
    ratio_terms = np.abs(vals[interior]) / grid.delta[interior]
    num = float((w * ratio_terms**p).sum()) ** (1.0 / p)
    return num / den


def h1_relative_error(grid: DomainGrid, u, grad_exact) -> float:
    """Element-gradient L2 error against an analytic gradient at centroids."""
    U = u.components() if isinstance(u, PField) else np.asarray(u)
    if U.ndim == 1:
        U = U[:, None]
    q = _element_gradients(grid, U)
    qc = q[:, :, 0] + (1j * q[:, :, 1] if U.shape[1] == 2 else 0.0)
    gex = np.asarray(grad_exact(grid.centroid), dtype=np.complex128)
    return float(math.sqrt((grid.area * _norm_sq(qc - gex)).sum()
                           / (grid.area * _norm_sq(gex)).sum()))


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
    more step, which brings the iterate to round-off, and stops; max_iter
    bounds the steps taken before that test passes.  Step lengths halve
    until the energy falls by at least 1/4 of the step's Newton decrement.
    """

    eps_final: float = 1e-6
    outer_tol: float = 1e-11
    residual_tol: float = 1e-7
    max_iter: int = 60
    init: str = "datum"   # datum | zero | random
    seed: int = 12345

    def __post_init__(self):
        if not self.eps_final > 0.0:
            raise ValueError("eps_final must be positive")
        if self.outer_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")


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


def _factor(H):
    """LU of the SPD free-dof Newton matrix: symmetric minimum-degree
    ordering and diagonal pivots, about half the fill of COLAMD."""
    return splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


class _FreeDofNewton:
    """Gradient and Newton matrix of E_eps restricted to the free dofs.

    The CSC pattern of the free-dof block and the slot of every element
    entry in its `.data` are built once; each linearization is then one
    bincount for the gradient and one for the matrix.  Entries touching a
    fixed dof go to a discarded extra slot.
    """

    def __init__(self, grid, gamma_c, p, ncomp):
        self.grid, self.gamma_c, self.p = grid, gamma_c, p
        nel, nloc = grid.tri.shape[0], 3 * ncomp
        self.free = np.repeat(~grid.boundary, ncomp)
        nfree = int(self.free.sum())
        number = np.where(self.free, np.cumsum(self.free) - 1, nfree)
        fdof = number[grid.tri[:, :, None] * ncomp + np.arange(ncomp)].reshape(nel, nloc)
        self.nfree = nfree
        self.vec_slot = fdof.ravel()

        rows = np.repeat(fdof, nloc, axis=1).ravel().astype(np.int64)
        cols = np.tile(fdof, (1, nloc)).ravel().astype(np.int64)
        key = np.where((rows < nfree) & (cols < nfree), cols * nfree + rows,
                       nfree * nfree)
        ukey, self.mat_slot = np.unique(key, return_inverse=True)
        ukey = ukey[:-1] if ukey[-1] == nfree * nfree else ukey
        self.nnz = ukey.size
        self.indices = (ukey % nfree).astype(np.int32)
        self.indptr = np.searchsorted(ukey // nfree, np.arange(nfree + 1)).astype(np.int32)
        self.bb = np.einsum("eiv,ejv->eij", grid.grad, grid.grad)

    def energy(self, U, eps):
        return energy(self.grid, U, self.gamma_c, self.p, eps)

    def residual(self, U, eps):
        return _dual_residual(self.grid, self.gamma_c, self.p, U, eps)

    def linearize(self, U, eps):
        """(E_eps(U), free gradient, free Newton matrix in CSC)."""
        grid, p = self.grid, self.p
        nel = grid.tri.shape[0]
        q = _element_gradients(grid, U)
        q2 = _grad_sq(q)
        E = _p_energy(grid, q2, p, self.gamma_c, eps)
        coef = grid.area * self.gamma_c * p * _pow_or_zero(q2 + eps * eps,
                                                          (p - 2.0) / 2.0)
        coef_rank1 = coef * (p - 2.0) / (q2 + eps * eps)
        ncomp = U.shape[1]
        iq = _hat_dots(grid, q).reshape(nel, 3 * ncomp)
        g = np.bincount(self.vec_slot, weights=(iq * coef[:, None]).ravel(),
                        minlength=self.nfree + 1)[:self.nfree]
        # the rank-one product is formed before scaling so each element
        # block, and hence the assembled matrix, is exactly symmetric
        Hloc = coef_rank1[:, None, None] * (iq[:, :, None] * iq[:, None, :])
        for c in range(ncomp):
            Hloc[:, c::ncomp, c::ncomp] += coef[:, None, None] * self.bb
        data = np.bincount(self.mat_slot, weights=Hloc.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]
        H = sp.csc_matrix((data, self.indices, self.indptr),
                          shape=(self.nfree, self.nfree))
        return E, g, H


def _damped_newton(newton, U, eps, settings):
    """Damped Newton at fixed eps from U; returns (last iterate, history).

    Once a step's relative energy decrease is at most outer_tol and the
    residual meets residual_tol (or the decrement reaches float
    resolution), one more step is taken, which brings the iterate to
    round-off.  Every accepted step appends (eps, E, decrement) to the
    history.
    """
    history, polish = [], False
    while True:
        E, g, H = newton.linearize(U, eps)
        d = _factor(H).solve(-g)
        decrement = float(-g @ d)
        if decrement < 0.0:
            raise SolverConvergenceError("Newton direction is not a descent direction")

        D = np.zeros_like(U)
        D.ravel()[newton.free] = d
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
        U = U_try
        history.append((eps, E_try, decrement))
        if polish:
            return U, history
        if (E - E_try) / max(abs(E_try), 1e-300) <= settings.outer_tol:
            polish = (newton.residual(U, eps) <= settings.residual_tol
                      or decrement <= 1e-28 * max(abs(E_try), 1e-300))
        if not polish and len(history) >= settings.max_iter:
            raise SolverConvergenceError(
                f"no convergence within {settings.max_iter} iterations "
                f"at eps = {eps:.3e}", residual=newton.residual(U, eps))


def _as_gamma(gamma) -> ConductivityField:
    """The conductivity as a ConductivityField (a plain callable is wrapped)."""
    return gamma if isinstance(gamma, ConductivityField) else ConductivityField(gamma)


def _require_finite(name: str, grid: DomainGrid, f: PField) -> None:
    bad = np.flatnonzero(~np.isfinite(f.values))
    if bad.size:
        k = int(bad[0])
        x, y = grid.pts[k]
        raise ValueError(f"{name} is not finite at node {k}: "
                         f"{name}({x:.6g}, {y:.6g}) = {f.values[k]}")


def solve_dirichlet(grid: DomainGrid, gamma, p: float, datum: PField,
                    settings: SolverSettings | None = None,
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
    gamma_field = _as_gamma(gamma)
    gamma_field.validate_on(grid)
    gamma_c = gamma_field(grid.centroid)

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
    elif settings.init == "random":
        rng = np.random.default_rng(settings.seed)
        scale = float(np.max(np.abs(datum.values))) or 1.0
        U0 = rng.standard_normal((grid.npt, ncomp)) * scale
    else:
        raise ValueError(f"unknown init {settings.init!r}")
    U0[grid.boundary] = datum.components()[grid.boundary]

    # Regularization scale: RMS gradient of the datum extension (the probe
    # or boundary-data extension), so eps tracks the datum amplitude.
    q0 = _element_gradients(grid, datum.components())
    grad_rms = math.sqrt(float((_grad_sq(q0) * grid.area).sum())
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
    return SolveResult(field=field, energy=newton.energy(U, eps),
                       energy_history=history,
                       weak_residual=_dual_residual(grid, gamma_c, p, U, 0.0),
                       regularized_residual=res_reg, eps_final_abs=eps)
