"""The automorphic Schrodinger operator S = -Delta + q on the modular surface.

Conventions (fixed once, used consistently by every check):

* Delta = y^2 (d^2/dx^2 + d^2/dy^2), so y^s has eigenvalue s(s-1).
* D = y (j d/dx + k d/dy) with Hamilton quaternions; D^2 = -Delta on scalars.
* beta = E_1^* gives q = -(D beta)^2 = y^2 |grad beta|^2 >= 0,
  Delta beta = 3/pi (a constant), and the factorization
      S = (D - D beta)(D + D beta) + Delta beta
  with ground state e^{-beta} and bottom eigenvalue 3/pi.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice, specfun
from .eisenstein import e1_star

__all__ = [
    "check_laplace_e1star",
    "commutator_residuals",
    "dirac_apply",
    "fd_laplacian",
    "grad_e1_star",
    "ground_state_residual",
    "lowering_residual",
    "potential_q",
    "quat_mul",
]

GROUND_EIGENVALUE = 3.0 / math.pi
_H = 1e-3  # finite-difference step of every stencil check


def grad_e1_star(z) -> tuple[float, float]:
    """(d/dx, d/dy) of E_1^* = (6/pi)(gamma - log 2 - (1/2) log y - 2 log|eta|).

    Uses log|eta|' via eta'/eta: d/dx log|eta| = Re(eta'/eta) and
    d/dy log|eta| = -Im(eta'/eta).
    """
    w = lattice.as_point(z)
    lp = specfun.eta_log_derivative(w)
    gx = -(12.0 / math.pi) * lp.real
    gy = (6.0 / math.pi) * (-0.5 / w.imag + 2.0 * lp.imag)
    return gx, gy


def _q(y: float, gx: float, gy: float) -> float:
    """y^2 (gx^2 + gy^2) for the gradient (gx, gy) of E_1^* at height y."""
    return y ** 2 * (gx * gx + gy * gy)


def potential_q(z) -> float:
    """q(z) = y^2 ((d_x E_1^*)^2 + (d_y E_1^*)^2) = -(D E_1^*)^2 >= 0."""
    w = lattice.as_point(z)
    return _q(w.imag, *grad_e1_star(w))


def _ground_state(p) -> float:
    """The ground state e^{-E_1^*} at p."""
    return math.exp(-e1_star(p))


def _ring(f, w: complex, step: float) -> tuple:
    """f at w + step, w - step, w + i step and w - i step, in that order."""
    x, y = w.real, w.imag
    return (f(complex(x + step, y)), f(complex(x - step, y)),
            f(complex(x, y + step)), f(complex(x, y - step)))


def _stencil(f, w: complex, h: float) -> list:
    """The 9 values of f at w, on the ring of step h, then on the ring of step h/2."""
    if not h < w.imag / 10.0:
        raise ValueError("step h must be below y/10")
    return [f(w), *_ring(f, w, h), *_ring(f, w, h / 2.0)]


def _laplacian(values: list, w: complex, h: float) -> float:
    """y^2 (f_xx + f_yy) at w from :func:`_stencil`'s values, one Richardson level: O(h^4)."""
    y, c = w.imag, values[0]

    def five_point(ring: list, step: float) -> float:
        east, west, north, south = ring
        return y * y * (east + west + north + south - 4.0 * c) / (step * step)

    return (4.0 * five_point(values[5:], h / 2.0) - five_point(values[1:5], h)) / 3.0


def fd_laplacian(f, z, h: float = _H) -> float:
    """Hyperbolic Laplacian y^2 (f_xx + f_yy) by Richardson-improved 5-point stencils."""
    w = lattice.as_point(z)
    return _laplacian(_stencil(f, w, h), w, h)


def check_laplace_e1star(z) -> tuple[float, float]:
    """fd Laplacian of E_1^* and its deviation from the constant 3/pi."""
    value = fd_laplacian(e1_star, z)
    return value, abs(value - GROUND_EIGENVALUE)


def ground_state_residual(z, h: float = _H) -> float:
    """|(-Delta + q) f - (3/pi) f| / |f| at z for f = exp(-E_1^*)."""
    w = lattice.as_point(z)
    f = _stencil(_ground_state, w, h)
    return abs(-_laplacian(f, w, h) + potential_q(w) * f[0] - GROUND_EIGENVALUE * f[0]) / f[0]


# ---------------------------------------------------------------------------
# quaternion factorization S = R L + Delta E_1^*
# ---------------------------------------------------------------------------

def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions stored as [1, i, j, k] components."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def _dirac(y: float, gx: float, gy: float) -> np.ndarray:
    """D f = y (j d_x f + k d_y f) for a real f with gradient (gx, gy)."""
    return y * np.array([0.0, 0.0, gx, gy])


def _ring_dirac(ring, y: float, h: float) -> np.ndarray:
    """D f by central differences over the ring of step h."""
    east, west, north, south = ring
    return _dirac(y, (east - west) / (2.0 * h), (north - south) / (2.0 * h))


def _dirac_e1(z) -> np.ndarray:
    """D E_1^* = y (j d_x E_1^* + k d_y E_1^*) as a quaternion."""
    w = lattice.as_point(z)
    return _dirac(w.imag, *grad_e1_star(w))


def dirac_apply(field, z) -> np.ndarray:
    """D field = y (j d_x + k d_y) field by central differences, for a real-valued field."""
    w = lattice.as_point(z)
    return _ring_dirac(_ring(field, w, _H), w.imag, _H)


def lowering_residual(z) -> float:
    """|L e^{-E_1^*}| / e^{-E_1^*} with L = D + (D E_1^*) applied by stencils.

    The lowering operator annihilates the ground state exactly, so this
    measures only finite-difference error.
    """
    w = lattice.as_point(z)
    fz = _ground_state(w)
    Lf = dirac_apply(_ground_state, w) + fz * _dirac_e1(w)
    return float(np.linalg.norm(Lf)) / fz


def _bump(center: complex, radius: float):
    """C^2 radial bump ((1 - r^2/R^2)^3 inside, 0 outside)."""

    def f(p):
        r2 = abs(complex(p) - center) ** 2 / radius ** 2
        return (1.0 - r2) ** 3 if r2 < 1.0 else 0.0

    return f


def commutator_residuals(z) -> dict[str, float]:
    """Relative residual of S f - R L f = (3/pi) f for three probe functions.

    R L is expanded by the Leibniz rule under the scalar reduction
    D^2 -> -Delta (the raw coordinate operator y(j d_x + k d_y) squares to
    -Delta only up to a first-order curvature term, which the formal algebra
    discards):

        R L f = -Delta f - (Delta beta) f
                + (D beta)_fd (D f) - (D beta)_analytic (D f)
                - (D beta)^2 f,   beta = E_1^*.

    Each ingredient is computed independently -- Delta beta by stencils, the
    two Hamilton-product cross terms from stencil vs analytic gradients, and
    (D beta)^2 by an actual quaternion square -- so the residual genuinely
    measures the quaternion algebra ((D beta)^2 = -q), the gradient
    consistency, and Delta beta = 3/pi.  One stencil of f per probe and one
    of beta (the ground state's is e^{-beta} of it) and grad beta per point.
    """
    w = lattice.as_point(z)
    bump_at = complex(0.15, 1.55)
    beta = {p: (_stencil(e1_star, p, _H), grad_e1_star(p)) for p in (w, bump_at)}
    probes = {
        "ground": ([math.exp(-b) for b in beta[w][0]], w),
        "power": (_stencil(lambda p: complex(p).imag ** 0.7, w, _H), w),
        "bump": (_stencil(_bump(complex(0.1, 1.5), 0.3), bump_at, _H), bump_at),
    }
    out = {}
    for name, (f, point) in probes.items():
        y, (b, grad) = point.imag, beta[point]
        fz, lap_f, lap_beta = f[0], _laplacian(f, point, _H), _laplacian(b, point, _H)
        Df = _ring_dirac(f[1:5], y, _H)
        Dbeta_fd = _ring_dirac(b[1:5], y, _H)
        Dbeta = _dirac(y, *grad)
        RLf = (-lap_f - lap_beta * fz) * _ONE \
            + quat_mul(Dbeta_fd, Df) - quat_mul(Dbeta, Df) \
            - quat_mul(Dbeta, Dbeta) * fz
        Sf = -lap_f + _q(y, *grad) * fz
        residual_vec = (Sf - GROUND_EIGENVALUE * fz) * _ONE - RLf
        out[name] = float(np.linalg.norm(residual_vec)) / max(abs(fz), 1e-12)
    return out
