"""The p-flux weight kernel.

Vectors carry their components on the trailing axis, real or complex, and
|z| is the Euclidean norm of the underlying real vector,
|z|^2 = |Re z|^2 + |Im z|^2.  The flux nonlinearity

    flux_p(z) = |z|^(p-2) z,   p > 1,

extended by 0 at z = 0 (the limit exists for every p > 1), is
`_pow_or_zero(|z|^2, (p-2)/2) * z` wherever it appears: the solver's Newton
weight and weak residual (with |z|^2 + eps^2), the pairings, the remainder
split and the finite-difference p-Laplace residual.  `_norm_sq` also gives
the squared norms of the probe quadrature and the cutoff radius, summed over
axis 0 of their component-major blocks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["_norm_sq", "_pow_or_zero"]


def _norm_sq(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """|z|^2 = |Re z|^2 + |Im z|^2 over the component axis (no validation):
    the trailing axis of point lists, or axis 0 of component-major blocks.

    The components are added in index order, which is numpy's own
    reduction order over axes this short, so the result equals
    `.sum(axis=axis)` bit for bit; real input skips the zero imaginary part.
    Each component's squares are added to the result in place.
    """
    if axis:
        z = np.moveaxis(z, axis, 0)
    cplx = np.iscomplexobj(z)

    def sq(c):
        return c.real**2 + c.imag**2 if cplx else c**2

    out = sq(z[0])
    for j in range(1, z.shape[0]):
        out += sq(z[j])
    return out


def _pow_or_zero(r: np.ndarray, expo: float) -> np.ndarray:
    """r**expo with the convention 0**expo = 0 (also for negative expo)."""
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, safe**expo, 0.0)
