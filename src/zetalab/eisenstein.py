"""Eisenstein series through the Epstein dictionary, and the limit formulas.

* E_s(z) = Z_2(Q_z, s) / (2 zeta(2s)) with Q_z the det-1 Gram form of z.
* c_s = xi(2s-1)/xi(2s), the scattering coefficient of the constant term
  y^s + c_s y^{1-s}.
* Kronecker limit: lim_{s->1}(Z_2(Q_z, s) - pi/(s-1))
      = 2 pi (gamma - log 2 - log(sqrt(y) |eta(z)|^2)).
* Block (Iwasawa) limit formula at s = r/2 for general r, via a Bessel
  double sum (see :func:`terras_limit`; coefficients re-derived by Poisson
  summation and verified against contour Laurent data).
* Imaginary-quadratic evaluation: at the class-number-one CM point tau_D,
      E_s(tau_D) = (w_K/2) (sqrt|D|/2)^s zeta_K(s) / zeta(2s),
  with w_K the number of units.  The prefactor (w_K/2, exponent s) was
  fixed by brute-force lattice sums at D = -3, -4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import epstein, lattice, specfun

__all__ = [
    "CM_POINTS",
    "EisensteinValue",
    "c_scattering",
    "cm_line_values",
    "cm_point",
    "e1_star",
    "eisenstein_sl2",
    "heegner_zeta",
    "kronecker_limit_check",
    "terras_limit",
]

EULER_GAMMA = 0.5772156649015328606
_TOL = 1e-10  # default Epstein tolerance of E_s
_TERM_TOL = 1e-14  # relative size of the last term of the block limit's Bessel sum


@dataclass(frozen=True)
class EisensteinValue:
    value: complex
    error_bound: float


def eisenstein_sl2(z, s, tol: float = _TOL) -> EisensteinValue:
    """E_s(z) = Z_2(Q_z, s) / (2 zeta(2s))."""
    Q = lattice.gram_of_point(z)
    s = complex(s)
    z2s = specfun.riemann_zeta(2 * s)
    if abs(z2s) < 1e-8:
        raise ZeroDivisionError("zeta(2s) vanishes too close to the requested s")
    res = epstein.epstein_zeta(Q, s, tol)
    return EisensteinValue(value=res.value / (2.0 * z2s),
                           error_bound=res.error_bound / abs(2.0 * z2s))


@specfun.elementwise
def c_scattering(s):
    """c_s = xi(2s-1)/xi(2s); |c_s| = 1 on Re s = 1/2 and c_s c_{1-s} = 1.

    A scalar s gives a ``complex``, an array of s an array of its shape.
    """
    for pole in (0.0, 0.5, 1.0):
        if np.any(np.abs(s - pole) < 1e-10):
            raise ZeroDivisionError("c_s undefined where 2s or 2s-1 hits a xi pole")
    return np.exp(specfun.xi_log(2.0 * s - 1.0) - specfun.xi_log(2.0 * s))


def e1_star(z) -> float:
    """E_1^*(z) = (6/pi)(gamma - log 2 - log(y^{1/2} |eta(z)|^2))."""
    w = lattice.as_point(z)
    eta = specfun.dedekind_eta(w)
    return 6.0 / math.pi * (EULER_GAMMA - math.log(2.0)
                            - 0.5 * math.log(w.imag) - 2.0 * math.log(abs(eta)))


def kronecker_limit_check(z) -> float:
    """|a_0 - closed form| for the Laurent expansion of Z_2(Q_z, s) at s=1."""
    w = lattice.as_point(z)
    exp = epstein.epstein_laurent(lattice.gram_of_point(w), 1.0, max_order=0)
    return abs(exp.coefficient(0) - math.pi ** 2 / 3.0 * e1_star(w))


# ---------------------------------------------------------------------------
# block limit formula at s = r/2
# ---------------------------------------------------------------------------

def _limit_dim1(a: float) -> float:
    """lim_{s->1/2}(Z_1((a), s) - a^{-1/2}/(s - 1/2)) from 2 a^{-s} zeta(2s)."""
    return (2.0 * EULER_GAMMA - math.log(a)) / math.sqrt(a)


def _limit_dim2(A: np.ndarray) -> float:
    """lim_{s->1}(Z_2(A, s) - pi/(sqrt(det A)(s-1))) via Kronecker + scaling."""
    c = math.sqrt(float(np.linalg.det(A)))
    z = lattice.point_of_gram(A)
    return (math.pi ** 2 / 3.0 * e1_star(z) - math.pi * math.log(c)) / c


def _enum_with_values(M: np.ndarray, R: float):
    """Nonzero integer vectors with M[v] <= R and their values (1x1 allowed)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 1:
        a = float(M[0, 0])
        nmax = int(math.floor(math.sqrt(max(R, 0.0) / a)))
        if nmax < 1:
            return np.zeros((0, 1), dtype=int), np.zeros(0)
        ns = np.concatenate([np.arange(-nmax, 0), np.arange(1, nmax + 1)])
        return ns[:, None], a * ns.astype(float) ** 2
    vs = lattice.enumerate_vectors(M, R)
    return vs, lattice.quadratic_values(M, vs)


def terras_limit(Q: np.ndarray, ell: int) -> float:
    """lim_{s->r/2}(Z_r(Q,s) - pi^{r/2}/(sqrt(det Q) Gamma(r/2)(s-r/2))).

    Block evaluation with D = Q_22 (lower-right (r-ell) block), A the Schur
    complement Q_11 - Q_12 D^{-1} Q_21, unipotent coupling Y = D^{-1} Q_21:

        limit = Z_{r-ell}(D, r/2)
              + pi^{(r-ell)/2} Gamma(ell/2) / (sqrt(det D) Gamma(r/2)) * L_ell(A)
              + 2 pi^{r/2} / (Gamma(r/2) sqrt(det D)) * H
              + pi^{r/2} (psi(ell/2) - psi(r/2)) / (sqrt(det Q) Gamma(r/2)),

    where L_ell is this same limit in dimension ell (base cases ell = 1, 2
    in closed form) and H is the Bessel double sum

        H = sum_{u != 0, v != 0} cos(2 pi v Y u)
            (D^{-1}[v] / A[u])^{ell/4} K_{ell/2}(2 pi sqrt(A[u] D^{-1}[v])).
    """
    Q = lattice.validate_gram(Q)
    r = Q.shape[0]
    if not 1 <= ell < r:
        raise ValueError("need 1 <= ell < r")
    rl = r - ell
    D = Q[ell:, ell:]
    Di = np.linalg.inv(D)
    A = Q[:ell, :ell] - Q[:ell, ell:] @ Di @ Q[ell:, :ell]
    Y = Di @ Q[ell:, :ell]
    det_D = float(np.linalg.det(D))
    det_Q = float(np.linalg.det(Q))
    g_half_r = math.gamma(r / 2.0)

    if rl == 1:
        z_d = 2.0 * float(D[0, 0]) ** (-r / 2.0) * specfun.riemann_zeta(float(r)).real
    else:
        z_d = float(np.real(epstein.epstein_zeta(D, r / 2.0, tol=1e-12).value))

    if ell == 1:
        l_a = _limit_dim1(float(A[0, 0]))
    elif ell == 2:
        l_a = _limit_dim2(A)
    else:
        raise ValueError("recursion base implemented for ell in {1, 2}")
    rec = math.pi ** (rl / 2.0) * math.gamma(ell / 2.0) / (math.sqrt(det_D) * g_half_r) * l_a

    # Bessel double sum; K_{ell/2}(w) <~ sqrt(pi/2w) e^{-w}, truncate at w ~ 36
    w_max = max(36.0, -math.log(_TERM_TOL) + 4.0)
    lam_a = float(np.min(np.linalg.eigvalsh(np.atleast_2d(A))))
    lam_di = float(np.min(np.linalg.eigvalsh(np.atleast_2d(Di))))
    us, qu = _enum_with_values(A, (w_max / (2 * math.pi)) ** 2 / lam_di + 1e-9)
    vs, qv = _enum_with_values(Di, (w_max / (2 * math.pi)) ** 2 / lam_a + 1e-9)
    w_args = 2.0 * math.pi * np.sqrt(np.outer(qu, qv))
    iu, iv = np.nonzero(w_args <= w_max)
    phases = np.cos(2.0 * math.pi * (vs @ (Y @ us.T))[iv, iu])
    ratios = (qv[iv] / qu[iu]) ** (ell / 4.0)
    bessels = specfun.bessel_K(ell / 2.0, w_args[iu, iv]).real
    H = float(np.sum(phases * ratios * bessels))
    h_term = 2.0 * math.pi ** (r / 2.0) / (g_half_r * math.sqrt(det_D)) * H

    psi_term = (math.pi ** (r / 2.0) / (math.sqrt(det_Q) * g_half_r)
                * (specfun.digamma(ell / 2.0) - specfun.digamma(r / 2.0)).real)
    return z_d + rec + h_term + psi_term


# ---------------------------------------------------------------------------
# imaginary-quadratic / CM evaluation
# ---------------------------------------------------------------------------

# D -> (CM point of the principal form, number of units w_K)
CM_POINTS = {
    -3: (complex(-0.5, math.sqrt(3.0) / 2.0), 6),
    -4: (complex(0.0, 1.0), 4),
    -7: (complex(-0.5, math.sqrt(7.0) / 2.0), 2),
    -8: (complex(0.0, math.sqrt(2.0)), 2),
    -11: (complex(-0.5, math.sqrt(11.0) / 2.0), 2),
}


def cm_point(D: int) -> complex:
    if D not in CM_POINTS:
        raise ValueError(f"unsupported discriminant {D}")
    return CM_POINTS[D][0]


def match_cm_point(z) -> int | None:
    """Return the discriminant whose CM point equals z (x-mirror allowed)."""
    w = lattice.as_point(z)
    for D, (tau, _) in CM_POINTS.items():
        if abs(w - tau) < 1e-9 or abs(w - complex(-tau.real, tau.imag)) < 1e-9:
            return D
    return None


def _cm_prefactor(D: int, s) -> np.ndarray:
    _, wk = CM_POINTS[D]
    s = np.asarray(s, dtype=complex)
    return wk / 2.0 * (math.sqrt(abs(D)) / 2.0) ** s


def heegner_zeta(s, D: int) -> complex:
    """zeta_K(s) = Z_2(Q_{tau_D}, s) / (2 (w_K/2)(sqrt|D|/2)^s) for K = Q(sqrt D).

    This is E_s(tau_D) = (w_K/2)(sqrt|D|/2)^s zeta_K(s)/zeta(2s) with the
    zeta(2s) of E_s cancelled; the prefactor was pinned by brute-force lattice
    sums (class number one, so zeta_K = zeta * L(., chi_D) cross-checks it).
    """
    s = complex(s)
    Z = epstein.epstein_zeta(lattice.gram_of_point(cm_point(D)), s).value
    return Z / (2.0 * complex(_cm_prefactor(D, s)))


def cm_line_values(D: int, s_values: np.ndarray) -> np.ndarray:
    """E_s(tau_D) for an array of s, via the zeta_K factorization.

    Numerically stable on the critical line (unlike the incomplete-gamma
    continuation, which cancels catastrophically for |Im s| >> 1); used by
    the spectral contour integrals.
    """
    if D not in CM_POINTS:
        raise ValueError(f"unsupported discriminant {D}")
    s = np.asarray(s_values, dtype=complex)
    num = specfun.riemann_zeta(s) * specfun.dirichlet_L(s, D)
    return _cm_prefactor(D, s) * num / specfun.riemann_zeta(2.0 * s)
