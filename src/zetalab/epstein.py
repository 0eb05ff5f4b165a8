"""Epstein zeta function Z_r(Q, s) on all of C via incomplete-gamma continuation.

For det-1 Q the theta-integral split at t=1 plus Poisson summation gives

    pi^{-s} Gamma(s) Z_r(Q, s)
        = sum_{v != 0} (pi Q[v])^{-s} Gamma(s, pi Q[v])
        + sum_{v != 0} (pi Q^{-1}[v])^{-(r/2-s)} Gamma(r/2 - s, pi Q^{-1}[v])
        + 2/(2s - r) - 2/(2s),

entire apart from the simple pole at s = r/2 (residue pi^{r/2}/Gamma(r/2)).
General determinants are reduced to this by Z_r(cQ, s) = c^{-s} Z_r(Q, s).

Accuracy note: the completed function is exponentially small on vertical
lines (|Gamma(s)| ~ e^{-pi|Im s|/2}) while individual bracket terms are not,
so cancellation limits double-precision accuracy to roughly
|Im s| <~ 15-20; the reported error bound includes this round-off term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import lattice, specfun

__all__ = [
    "EpsteinPoleError",
    "EvalResult",
    "LaurentConvergenceError",
    "LaurentExpansion",
    "check_functional_equation",
    "epstein_laurent",
    "epstein_residue",
    "epstein_zeta",
]


class EpsteinPoleError(ValueError):
    """Evaluation requested at (or too close to) s = 0 or s = r/2."""


class LaurentConvergenceError(RuntimeError):
    """Contour coefficients failed to stabilize under node doubling."""


@dataclass(frozen=True)
class EvalResult:
    """Value with a truncation + round-off error bound."""

    value: complex
    error_bound: float
    terms_used: int


@dataclass(frozen=True)
class LaurentExpansion:
    """Coefficients a_{-1} .. a_k of a function about a centre."""

    coefficients: list

    @property
    def residue(self) -> complex:
        return self.coefficients[0]

    def coefficient(self, order: int) -> complex:
        return self.coefficients[order + 1]


def _sorted_x(Q: np.ndarray, x_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted x = pi Q[v] <= x_cut over v != 0, with log x."""
    vectors = lattice.enumerate_vectors(Q, x_cut / math.pi)
    values = lattice.quadratic_values(Q, vectors)
    order = np.argsort(values, kind="stable")
    x = math.pi * values[order]
    return x, np.log(x)


def _half_bracket_sum(x: np.ndarray, log_x: np.ndarray, s: complex) -> tuple[complex, float, int]:
    """sum_{v != 0} (pi Q[v])^{-s} Gamma(s, pi Q[v]) over the x of :func:`_sorted_x`.

    Returns (sum, sum of |terms| for round-off accounting, count).
    """
    g = specfun.regularized_upper_gamma_array(s, x)
    terms = np.exp(-s * log_x) * g
    return complex(np.sum(terms)), float(np.sum(np.abs(terms))), int(len(x))


def _tail_bound(r: int, x_cut: float) -> float:
    """Bound on the dropped |terms| of one half-bracket sum (det-1 form).

    For pi Q[v] = x > x_cut >= max(30, 3|s|) each term satisfies
    |x^{-s} Gamma(s, x)| <= 2 e^{-x}/x, and the shell count of lattice
    points is bounded by 3 V_r (r/2) t^{r/2-1} dt at these radii, so the tail
    is at most 6 V_r (r/2) pi^{-r/2} Gamma(a, x_cut) with a = r/2 - 1.  As
    t^{a-1} <= x^{a-1} e^{(a-1)(t-x)/x} for t >= x, Gamma(a, x) is at most
    x^{a-1} e^{-x} / (1 - max(a-1, 0)/x).
    """
    V = math.pi ** (r / 2.0) / math.gamma(r / 2.0 + 1.0)
    a = r / 2.0 - 1.0
    gamma_bound = x_cut ** (a - 1.0) * math.exp(-x_cut) / (1.0 - max(a - 1.0, 0.0) / x_cut)
    return 6.0 * V * (r / 2.0) * math.pi ** (-r / 2.0) * gamma_bound


class _EpsteinPlan:
    """Z_r(Q, .) on one form: normalization, inverse and enumerations done once.

    Evaluating many s on one plan gives the same bits as one
    :func:`epstein_zeta` call per s.  A plan lives for one public call.
    """

    def __init__(self, Q: np.ndarray):
        self.Qn, self.scale = lattice.normalize_det(Q)
        self.r = self.Qn.shape[0]
        self.Qi = np.linalg.inv(self.Qn)
        self._cuts: dict[float, tuple] = {}

    def _at(self, x_cut: float) -> tuple:
        """Both sides' sorted x and log x, and the tail bound of both sums."""
        if x_cut not in self._cuts:
            self._cuts[x_cut] = (_sorted_x(self.Qn, x_cut), _sorted_x(self.Qi, x_cut),
                                 2.0 * _tail_bound(self.r, x_cut))
        return self._cuts[x_cut]

    def evaluate(self, s, tol: float = 1e-10) -> EvalResult:
        r = self.r
        s = complex(s)
        if abs(s) < 1e-6 or abs(s - r / 2.0) < 1e-6:
            raise EpsteinPoleError(f"s={s} too close to a pole/zero of the bracket (0 or r/2)")
        x_cut = max(30.0, 3.0 * abs(s), 1.2 * -math.log(max(tol, 1e-300)))
        side_a, side_b, tail_both = self._at(x_cut)

        sum_a, abs_a, n_a = _half_bracket_sum(*side_a, s)
        s_dual = r / 2.0 - s
        sum_b, abs_b, n_b = _half_bracket_sum(*side_b, s_dual)
        bracket = sum_a + sum_b + 2.0 / (2.0 * s - r) - 2.0 / (2.0 * s)

        prefactor = cmath.exp(s * math.log(math.pi) - specfun.log_gamma(s))
        value = prefactor * bracket * self.scale ** (-s)

        amp = abs(prefactor) * self.scale ** (-s.real)
        tail = tail_both * amp
        roundoff = 64.0 * np.finfo(float).eps * (abs_a + abs_b + 1.0) * amp
        return EvalResult(value=value, error_bound=float(tail + roundoff), terms_used=n_a + n_b)


def epstein_zeta(Q: np.ndarray, s, tol: float = 1e-10) -> EvalResult:
    """Z_r(Q, s) = sum'_{v in Z^r} Q[v]^{-s}, continued to C \\ {r/2}.

    The determinant is normalized first and restored through homogeneity
    Z_r(cQ, s) = c^{-s} Z_r(Q, s).  Raises :class:`EpsteinPoleError` within
    1e-6 of s = 0 or s = r/2.
    """
    return _EpsteinPlan(Q).evaluate(s, tol)


def check_functional_equation(Q: np.ndarray, s) -> float:
    """|Lambda(s) - Lambda_dual(r/2 - s)| for the completed Epstein zeta.

    Lambda(s) = pi^{-s} Gamma(s) Z_r(Q, s) with det-1 normalization, the
    dual side using Q^{-1} at r/2 - s.
    """
    Qn, _ = lattice.normalize_det(Q)
    r = Qn.shape[0]
    s = complex(s)
    Qi = np.linalg.inv(Qn)
    lam = cmath.exp(-s * math.log(math.pi) + specfun.log_gamma(s)) * epstein_zeta(Qn, s).value
    sd = r / 2.0 - s
    lam_dual = cmath.exp(-sd * math.log(math.pi) + specfun.log_gamma(sd)) * epstein_zeta(Qi, sd).value
    return abs(lam - lam_dual)


_RING_RADIUS, _RING_NODES, _RING_TOL = 0.1, 64, 1e-8  # Cauchy ring radius, first nodes, stop


def epstein_laurent(Q: np.ndarray, center, max_order: int = 1) -> LaurentExpansion:
    """Laurent coefficients a_{-1} .. a_{max_order} of Z_r(Q, .) about ``center``.

    Trapezoidal Cauchy integrals on |s - center| = 0.1; 64 nodes double (up
    to 512) until the coefficients move by under 1e-8 relative.  The nodes of
    a ring are the even nodes of the next, so a doubling evaluates only the new.
    """
    plan = _EpsteinPlan(Q)
    center = complex(center)
    orders = np.arange(-1, max_order + 1)

    def coeffs(m: int, f_even: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        # theta_{2k} at m nodes is theta_k at m/2 bit for bit: 2k/(2m) only doubles both
        theta = 2.0 * math.pi * np.arange(m) / m
        ring = center + _RING_RADIUS * np.exp(1j * theta)
        if f_even is None:
            f = np.array([plan.evaluate(sv).value for sv in ring])
        else:
            f = np.empty(m, dtype=complex)
            f[0::2] = f_even
            f[1::2] = [plan.evaluate(sv).value for sv in ring[1::2]]
        phases = np.exp(-1j * np.outer(orders, theta))
        return (phases @ f) / m * _RING_RADIUS ** (-orders.astype(float)), f

    prev, f = coeffs(_RING_NODES, None)
    m = _RING_NODES
    while m <= 256:
        m *= 2
        cur, f = coeffs(m, f)
        scale = np.max(np.abs(cur)) + 1.0
        if np.max(np.abs(cur - prev)) < _RING_TOL * scale:
            return LaurentExpansion(coefficients=list(cur))
        prev = cur
    raise LaurentConvergenceError("Laurent coefficients did not stabilize under node doubling")


def epstein_residue(Q: np.ndarray) -> float:
    """Res_{s=r/2} Z_r(Q, s) for det-1 Q (equals pi^{r/2}/Gamma(r/2))."""
    Q = lattice.validate_gram(Q)
    r = Q.shape[0]
    if abs(np.linalg.det(Q) - 1.0) > 1e-8:
        raise ValueError("epstein_residue expects a det-1 form; normalize first")
    exp = epstein_laurent(Q, r / 2.0, max_order=0)
    return float(exp.residue.real)
