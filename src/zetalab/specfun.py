"""Complex special functions used throughout the laboratory.

Everything here is double precision with explicit truncation control:

* ``log_gamma`` / ``digamma`` -- Stirling series with argument shifting.
* ``riemann_zeta`` / ``hurwitz_zeta`` -- Euler-Maclaurin with Bernoulli
  corrections; each point's cutoff N comes from its own |Im s|, so the
  series stays accurate on tall vertical lines (|Im s| up to ~1200) and a
  batch value equals the scalar value bit for bit.
* ``upper_incomplete_gamma`` -- Legendre continued fraction spliced with the
  lower-gamma power series; one array kernel for one x or many.
* ``dirichlet_L`` -- Hurwitz-zeta decomposition for the small odd fundamental
  discriminants used by the imaginary-quadratic experiments.
* ``bessel_K`` -- trapezoidal quadrature of the integral
  K_nu(z) = int_0^oo exp(-z cosh v) cosh(nu v) dv (geometric convergence).
* ``dedekind_eta`` / ``eta_log_derivative`` -- q-product after fundamental
  domain reduction, with the full multiplier system tracked.
* ``psi_xi`` -- psi(t) = arg xi(1+2it), anchored at -pi/2 as t -> 0+;
  ``psi_arg_xi`` samples it on a grid as an :class:`ArgTrack`.

One calling rule, held by :func:`elementwise` alone: a scalar gives a Python
scalar, an array an array of its shape.  It covers ``log_gamma``, ``digamma``,
``riemann_zeta``, ``hurwitz_zeta``, ``dirichlet_L``, ``xi_log``, ``xi_completed``,
``bessel_K`` (in z), ``eisenstein.c_scattering`` (``complex``), ``psi_xi``
and ``spectral.hardy_rotation_zeta``/``_L`` (``float``).  The incomplete gamma
and ``bessel_K`` raise ValueError unless every x or z is real, finite and
positive.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import reduce_sl2

__all__ = [
    "ArgTrack",
    "GammaPoleError",
    "bessel_K",
    "dedekind_eta",
    "digamma",
    "dirichlet_L",
    "eta_log_derivative",
    "hurwitz_zeta",
    "log_gamma",
    "lower_incomplete_gamma",
    "psi_arg_xi",
    "psi_xi",
    "riemann_zeta",
    "upper_incomplete_gamma",
    "xi_completed",
    "xi_log",
]


class GammaPoleError(ValueError):
    """Evaluation requested exactly at a pole of Gamma."""


# Bernoulli numbers B_2, B_4, ..., B_40.
_BERNOULLI = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
    8615841276005.0 / 14322, -7709321041217.0 / 510, 2577687858367.0 / 6,
    -26315271553053477373.0 / 1919190, 2929993913841559.0 / 6,
    -261082718496449122051.0 / 13530,
]

_STIRLING_RADIUS = 25.0
_TWO_PI = 2.0 * math.pi
_TOL = 1e-13  # relative stop of the incomplete gamma and K-Bessel iterations
_PSI_T_MIN, _PSI_STEP = 1e-3, 0.05  # start and grid step of a psi sample
_ETA_TERMS, _E2_TERMS = 64, 80  # q-expansion lengths; |q| <= e^{-3 pi / 2} where they run


def elementwise(core):
    """Give ``core`` (flat complex array in, flat array out) the calling rule.

    A scalar argument gives the Python scalar of the core's dtype (a
    ``complex`` or a ``float``), an array an array of its shape.  A complex
    argument reaches ``core`` as a view, so ``core`` must not write to it.
    """
    @functools.wraps(core)
    def rule(s, *args, **kwargs):
        arr = np.asarray(s, dtype=complex)
        out = core(arr.reshape(-1), *args, **kwargs)
        return out[0].item() if arr.ndim == 0 else out.reshape(arr.shape)
    return rule


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log sin(pi z), stable for large |Im z| (branch may differ by 2 pi i k)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    flat = z.reshape(-1)
    res = out.reshape(-1)
    for i, w in enumerate(flat):
        pw = math.pi * w
        if abs(pw.imag) < 20.0:
            res[i] = cmath.log(cmath.sin(pw))
        elif pw.imag > 0:
            # sin w = e^{-iw}(i/2)(1 - e^{2iw}) up to sign bookkeeping
            res[i] = -1j * pw + cmath.log(1.0 - cmath.exp(2j * pw)) + 1j * math.pi / 2 - math.log(2.0)
        else:
            res[i] = 1j * pw + cmath.log(1.0 - cmath.exp(-2j * pw)) - 1j * math.pi / 2 - math.log(2.0)
    return out


@elementwise
def log_gamma(s):
    """Principal-branch log Gamma(s) (Stirling with argument shifting).

    Raises :class:`GammaPoleError` at the poles s = 0, -1, -2, ...
    """
    near_pole = (s.real < 0.5) & (np.abs(s - np.round(s.real)) < 1e-14)
    if np.any(near_pole):
        raise GammaPoleError("log_gamma evaluated at a non-positive integer")

    out = np.zeros_like(s)
    reflect = s.real < 0.5
    if np.any(reflect):
        sr = s[reflect]
        out[reflect] = math.log(math.pi) - _log_sin_pi(sr) - _log_gamma_core(1.0 - sr)
    if np.any(~reflect):
        out[~reflect] = _log_gamma_core(s[~reflect])
    return out


def _log_gamma_core(z: np.ndarray) -> np.ndarray:
    """log Gamma for Re z >= 0.5 via shifted Stirling series."""
    z = np.array(z, dtype=complex)
    shift = np.zeros_like(z)
    for _ in range(int(_STIRLING_RADIUS) + 2):
        mask = np.abs(z) < _STIRLING_RADIUS
        if not mask.any():
            break
        shift[mask] += np.log(z[mask])
        z[mask] += 1.0
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    power = 1.0 / z
    for k in range(1, 13):
        series += _BERNOULLI[k - 1] / (2 * k * (2 * k - 1)) * power
        power *= w
    return (z - 0.5) * np.log(z) - z + 0.5 * math.log(_TWO_PI) + series - shift


@elementwise
def digamma(s):
    """psi(s) = Gamma'(s)/Gamma(s), Stirling with shifting."""
    if np.any((s.real < 0.5) & (np.abs(s - np.round(s.real)) < 1e-14)):
        raise GammaPoleError("digamma evaluated at a non-positive integer")
    out = np.zeros_like(s)
    reflect = s.real < 0.5
    if np.any(reflect):
        sr = s[reflect]
        # psi(1-x) - psi(x) = pi cot(pi x)
        out[reflect] = _digamma_core(1.0 - sr) - math.pi / np.tan(math.pi * sr)
    if np.any(~reflect):
        out[~reflect] = _digamma_core(s[~reflect])
    return out


def _digamma_core(z: np.ndarray) -> np.ndarray:
    z = np.array(z, dtype=complex)
    shift = np.zeros_like(z)
    for _ in range(int(_STIRLING_RADIUS) + 2):
        mask = np.abs(z) < _STIRLING_RADIUS
        if not mask.any():
            break
        shift[mask] += 1.0 / z[mask]
        z[mask] += 1.0
    w = 1.0 / (z * z)
    series = np.zeros_like(z)
    power = w.copy()
    for k in range(1, 13):
        series += _BERNOULLI[k - 1] / (2 * k) * power
        power *= w
    return np.log(z) - 0.5 / z - series - shift


# ---------------------------------------------------------------------------
# zeta family (Euler-Maclaurin)
# ---------------------------------------------------------------------------

_EM_CORRECTIONS = 20


def _em_terms(s: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin boundary terms for sum_{n >= N} (n + a)^(-s), base = N + a."""
    correction = base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s)
    poch = s
    binv = 1.0 / base
    power = base ** (1.0 - s) * binv  # base^{-s}
    fact = 1.0
    for k in range(1, _EM_CORRECTIONS + 1):
        # pochhammer (s)_{2k-1} built incrementally
        if k > 1:
            poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2))
        fact *= (2 * k) * (2 * k - 1)
        power *= binv * binv
        correction += _BERNOULLI[k - 1] / fact * poch * power * base
    return correction


def _em_cutoff(s: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin cutoff N of each point, from its own height."""
    return np.maximum(50, (0.37 * np.abs(s.imag)).astype(int) + 10)


@elementwise
def riemann_zeta(s):
    """zeta(s) on C \\ {1} via Euler-Maclaurin (reflection for Re s < -0.5)."""
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise ZeroDivisionError("zeta has a pole at s=1")
    out = np.empty_like(s)
    refl = s.real < -0.5
    if np.any(~refl):
        out[~refl] = _zeta_em(s[~refl])
    if np.any(refl):
        sr = s[refl]
        # zeta(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s) zeta(1-s)
        lg = log_gamma(1.0 - sr)
        chi = np.exp(sr * math.log(2.0) + (sr - 1.0) * math.log(math.pi) + lg + _log_sin_pi(sr / 2.0))
        out[refl] = chi * _zeta_em(1.0 - sr)
    return out


def _em_sum(s: np.ndarray, a: float, N: np.ndarray) -> np.ndarray:
    """sum_{k < N_i} (k + a)^(-s_i) plus the Euler-Maclaurin tail at N_i + a.

    Point i sums its own N_i terms in the same order in any batch: the rows
    lie end to end, each after a 0, and ``np.add.reduceat`` adds such a row
    exactly as ``np.sum`` adds the terms alone.  Each term depends on its
    own point only, so a batch value equals the scalar value bit for bit.
    """
    out = np.empty_like(s)
    # 256 points per pass bound the term arrays on long node lists
    for lo in range(0, s.size, 256):
        rows = N[lo:lo + 256] + 1  # a leading 0 (k = -1), then k = 0 .. N_i - 1
        first = np.cumsum(rows) - rows
        k = np.arange(rows.sum()) - np.repeat(first + 1, rows)
        x = np.repeat(-s[lo:lo + 256], rows)
        # exp(x log n) with one log per n; it is n ** x bit for bit where
        # libm's cpow is cexp(x clog n) (glibc), but numpy multiplies out
        # integer powers, so a real s keeps the power
        terms = np.exp(x * np.log(np.arange(rows.max()) + (a + 0j))[k])
        real = np.flatnonzero(x.imag == 0)
        terms[real] = (np.maximum(k[real], 0) + a) ** x[real]
        terms[first] = 0.0
        out[lo:lo + 256] = np.add.reduceat(terms, first)
    return out + _em_terms(s, N + (a + 0j))


def _zeta_em(s: np.ndarray) -> np.ndarray:
    # the Hurwitz sum at a = 1 with one term fewer: n = 1 .. N-1, tail at N
    return _em_sum(s, 1.0, _em_cutoff(s) - 1)


@elementwise
def hurwitz_zeta(s, a: float):
    """Hurwitz zeta(s, a) for 0 < a <= 1, Euler-Maclaurin continuation."""
    if not 0.0 < a <= 1.0:
        raise ValueError("hurwitz_zeta requires 0 < a <= 1")
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise ZeroDivisionError("hurwitz zeta has a pole at s=1")
    return _em_sum(s, a, _em_cutoff(s))


_CHARACTER_TABLE = {
    -3: (3, [0, 1, -1]),
    -4: (4, [0, 1, 0, -1]),
    -7: (7, [0, 1, 1, -1, 1, -1, -1]),
    -8: (8, [0, 1, 0, 1, 0, -1, 0, -1]),
    -11: (11, [0, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]),
}


@elementwise
def dirichlet_L(s, D: int):
    """L(s, chi_D) for D in {-3,-4,-7,-8,-11}, continued via Hurwitz zeta."""
    if D not in _CHARACTER_TABLE:
        raise ValueError(f"{D} is not a supported fundamental discriminant")
    q, table = _CHARACTER_TABLE[D]
    at_one = np.abs(s - 1.0) < 1e-13
    out = np.zeros_like(s)
    if np.any(~at_one):
        ss = s[~at_one]
        acc = np.zeros_like(ss)
        for a0 in range(1, q):
            chi = table[a0]
            if chi:
                acc += chi * hurwitz_zeta(ss, a0 / q)
        out[~at_one] = acc * float(q) ** (-ss)
    if np.any(at_one):
        # L(1, chi) = -(1/q) sum chi(a) psi(a/q)
        out[at_one] = -sum(table[a0] * digamma(a0 / q).real for a0 in range(1, q)) / q
    return out


# ---------------------------------------------------------------------------
# completed zeta and its argument
# ---------------------------------------------------------------------------

@elementwise
def xi_log(s):
    """log xi(s) with xi(s) = pi^{-s/2} Gamma(s/2) zeta(s).

    The imaginary part is continuous in the Gamma factor (analytic log) but
    uses the principal log of zeta; :func:`psi_xi` says where that is safe.
    """
    return -(s / 2.0) * math.log(math.pi) + log_gamma(s / 2.0) + np.log(riemann_zeta(s))


@elementwise
def xi_completed(s):
    """xi(s) = pi^{-s/2} Gamma(s/2) zeta(s); poles at s = 0, 1."""
    if np.any(np.abs(s) < 1e-12) or np.any(np.abs(s - 1.0) < 1e-12):
        raise ZeroDivisionError("xi has poles at s=0 and s=1")
    return np.exp(xi_log(s))


@elementwise
def psi_xi(t):
    """psi(t) = arg xi(1+2it) = -t log pi + Im log Gamma(1/2+it) + arg zeta(1+2it).

    log Gamma is on its analytic branch and arg zeta is principal, which is
    continuous while Re zeta(1+2it) > 0 (its minimum is 0.19 on [1e-3, 1500]),
    so psi is the branch anchored at -pi/2 as t -> 0+ (xi(1+2it) ~ -i/(2t)).
    Raises ValueError where Re zeta(1+2it) <= 0, as arg zeta could jump there.
    """
    t = t.real
    zeta = riemann_zeta(1.0 + 2j * t)
    if np.any(zeta.real <= 0.0):
        raise ValueError("Re zeta(1+2it) <= 0: the principal arg of zeta could jump there")
    return -t * math.log(math.pi) + log_gamma(0.5 + 1j * t).imag + np.angle(zeta)


@dataclass(frozen=True)
class ArgTrack:
    """psi(t) = arg xi(1+2it) sampled on an ascending grid."""

    t_grid: np.ndarray
    psi_values: np.ndarray
    max_step: float


def psi_arg_xi(t_max: float) -> ArgTrack:
    """Sample :func:`psi_xi` on [1e-3, t_max] with step 0.05 and t_max last."""
    if t_max <= _PSI_T_MIN:
        raise ValueError("t_max must exceed t_min")
    t = np.unique(np.append(np.arange(_PSI_T_MIN, t_max, _PSI_STEP), t_max))
    psi = psi_xi(t)
    return ArgTrack(t_grid=t, psi_values=psi, max_step=float(np.max(np.abs(np.diff(psi)))))


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

def _positive(x) -> np.ndarray:
    """The real array of x; ValueError unless every x is real, finite and > 0."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x) & (x.real > 0) & (x.imag == 0)):
        raise ValueError("the incomplete gamma and K-Bessel need finite real x > 0")
    return x.real


def _cf_side(s: complex, xs) -> tuple[np.ndarray, np.ndarray]:
    """The checked x and where the continued fraction takes them: x >= |s| + 1
    or x >= 40.  The power series takes the rest."""
    xs = _positive(xs)
    return xs, (xs >= abs(s) + 1.0) | (xs >= 40.0)


def upper_incomplete_gamma(s, x: float) -> complex:
    """Gamma(s, x) = int_x^oo u^{s-1} e^{-u} du for x > 0, entire in s."""
    return complex(_upper_gamma(complex(s), [x])[0])


def regularized_upper_gamma_array(s: complex, xs: np.ndarray) -> np.ndarray:
    """Vectorized Gamma(s, x) over an array of positive x (fixed s).

    Splits the array between the continued-fraction and power-series regimes;
    used by the lattice-sum evaluators where thousands of x share one s.
    """
    return _upper_gamma(complex(s), xs)


def _upper_gamma(s: complex, xs) -> np.ndarray:
    xs, use_cf = _cf_side(s, xs)
    out = np.empty(xs.shape, dtype=complex)
    if use_cf.any():
        out[use_cf] = _upper_gamma_cf_vec(s, xs[use_cf])
    rest = ~use_cf
    if rest.any():
        out[rest] = _upper_gamma_small_x(s, xs[rest].tolist())
    return out


def _upper_gamma_small_x(s: complex, xs: list) -> list:
    """Gamma(s, x) for each x of a list with 0 < x < |s| + 1 and x < 40.

    Everything that depends on s alone is computed once for the whole list.
    """
    if s.real <= 0.5 and abs(s - round(s.real)) < 1e-8:
        # near a Gamma pole the splice cancels badly; the CF stays valid.  One
        # x at a time, as the CF of a batch runs until its slowest x converges
        return [_upper_gamma_cf_vec(s, np.array([x]))[0] for x in xs]
    # lift Re s above 0.5 with Gamma(s,x) = (Gamma(s+1,x) - x^s e^{-x})/s,
    # maintaining Gamma(s,x) = coeff*Gamma(s0,x) + shift, where shift is
    # -sum_k c_k x^{s_k} e^{-x} over the lift steps (c_k, s_k)
    coeff = 1.0 + 0.0j
    steps = []
    s0 = s
    while s0.real <= 0.5:
        coeff = coeff / s0
        steps.append((coeff, s0))
        s0 += 1.0
    gamma_full = cmath.exp(log_gamma(s0))
    out = []
    for x in xs:
        shift = 0.0 + 0.0j
        for c, sk in steps:
            shift = shift - c * cmath.exp(sk * math.log(x) - x)
        lower = _lower_gamma_series(s0, x)
        out.append(coeff * (gamma_full - lower) + shift)
    return out


def lower_incomplete_gamma(s, x: float) -> complex:
    """gamma(s, x) = int_0^x u^{s-1} e^{-u} du (Re s > 0)."""
    s = complex(s)
    xs, use_cf = _cf_side(s, [x])
    if s.real <= 0:
        raise ValueError("lower_incomplete_gamma requires Re s > 0")
    if use_cf[0]:
        return complex(cmath.exp(log_gamma(s)) - _upper_gamma_cf_vec(s, xs)[0])
    return _lower_gamma_series(s, float(xs[0]))


def _lower_gamma_series(s: complex, x: float) -> complex:
    term = 1.0 / s
    total = term
    n = 0
    while abs(term) > _TOL * abs(total) and n < 500:
        n += 1
        term *= x / (s + n)
        total += term
    return total * cmath.exp(s * math.log(x) - x)


def _upper_gamma_cf_vec(s: complex, xs: np.ndarray) -> np.ndarray:
    tiny = 1e-290
    b = xs + 1.0 - s
    c = np.full(xs.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / np.where(b == 0, tiny, b)
    f = d.copy()
    for n in range(1, 300):
        an = -n * (n - s)
        b = b + 2.0
        d = an * d + b
        d = np.where(d == 0, tiny, d)
        c = b + an / c
        c = np.where(c == 0, tiny, c)
        d = 1.0 / d
        delta = d * c
        f *= delta
        if np.max(np.abs(delta - 1.0)) < _TOL:
            break
    return np.exp(s * np.log(xs) - xs) * f


# ---------------------------------------------------------------------------
# K-Bessel
# ---------------------------------------------------------------------------

def bessel_K(nu, z):
    """K_nu(z) for real z > 0 via K_nu(z) = int_0^oo e^{-z cosh v} cosh(nu v) dv.

    The substitution u = e^v symmetrizes the defining integral
    (1/2) int_0^oo exp(-z(u+1/u)/2) u^{nu-1} du; trapezoid sums converge
    geometrically for this analytic, doubly-exponentially decaying integrand.
    A scalar z gives a ``complex``, an array of z an array of its shape.
    """
    return _bessel_K_of_z(z, complex(nu))


@elementwise
def _bessel_K_of_z(z, nu: complex):
    """Each z sums its own grid 0 .. v_max and halves its own step h.

    The grids lie end to end, each after a 0, and ``np.add.reduceat`` adds
    each exactly as ``np.sum`` adds it alone (see :func:`_em_sum`), so a
    batch value equals the scalar value bit for bit.
    """
    z = _positive(z)
    nr = abs(nu.real)
    v_max = np.full(z.shape, 2.0)
    grow = z * np.cosh(v_max) - nr * v_max - z < 60.0
    while grow.any():
        v_max[grow] += 0.5
        grow &= (v_max <= 700.0) & (z * np.cosh(v_max) - nr * v_max - z < 60.0)
    out = np.full(z.shape, np.nan, dtype=complex)  # the last sum of each z
    # 256 z per pass bound the grid arrays of a long batch
    for lo in range(0, z.size, 256):
        todo = np.arange(lo, min(lo + 256, z.size))  # the z still halving h
        h = 0.5
        while todo.size and h >= 0.5 ** 14:  # at most 14 step sizes
            rows = (v_max[todo] / h).astype(int) + 2  # a leading 0, then v = 0, h, .., v_max
            first = np.cumsum(rows) - rows
            v = h * (np.arange(rows.sum()) - np.repeat(first + 1, rows))
            g = np.exp(-np.repeat(z[todo], rows) * np.cosh(v)) * np.cosh(nu * v)
            g[first] = 0.0
            total = h * (np.add.reduceat(g, first) - 0.5 * g[first + 1])
            done = np.abs(total - out[todo]) <= _TOL * np.abs(total) + 1e-300
            out[todo] = total
            todo = todo[~done]
            h *= 0.5
    return out


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def _eta_q_product(z: complex) -> complex:
    q = cmath.exp(2j * math.pi * z)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(_ETA_TERMS):
        qn *= q
        prod *= 1.0 - qn
    return cmath.exp(2j * math.pi * z / 24.0) * prod


def dedekind_eta(z) -> complex:
    """eta(z) = q^{1/24} prod (1-q^n), q = e^{2 pi i z}, via reduction.

    The point is moved to the fundamental domain with translations
    (eta(z+1) = e^{i pi/12} eta(z)) and inversions
    (eta(-1/z) = sqrt(-iz) eta(z)), accumulating the multiplier, and the
    q-product is evaluated where |q| <= e^{-pi sqrt 3}.
    """
    w = complex(z)
    if w.imag <= 0:
        raise ValueError("dedekind_eta requires Im z > 0")
    acc = 1.0 + 0.0j
    for _ in range(200):
        n = round(w.real)
        if n != 0:
            w -= n
            acc *= cmath.exp(1j * math.pi * n / 12.0)
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            # eta at the pre-inversion point equals sqrt(-i w_new) eta(w_new)
            acc *= cmath.sqrt(-1j * w)
        else:
            break
    return acc * _eta_q_product(w)


def _e2_series(z: complex) -> complex:
    """Weight-2 quasimodular E_2(z) = 1 - 24 sum sigma_1(n) q^n (Im z >= 0.5)."""
    q = cmath.exp(2j * math.pi * z)
    sigma = [0] * (_E2_TERMS + 1)
    for d in range(1, _E2_TERMS + 1):
        for m in range(d, _E2_TERMS + 1, d):
            sigma[m] += d
    total = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, _E2_TERMS + 1):
        qn *= q
        total += sigma[n] * qn
    return 1.0 - 24.0 * total


def eta_log_derivative(z) -> complex:
    """eta'(z)/eta(z) = (i pi / 12) E_2(z), reduced for convergence.

    Under z -> gamma z the weight-1/2 transformation law gives
    (log eta)'(z) = (cz+d)^{-2} (log eta)'(gamma z) - c / (2(cz+d)).
    """
    w = complex(z)
    if w.imag <= 0:
        raise ValueError("eta_log_derivative requires Im z > 0")
    if w.imag >= 0.75:
        return 1j * math.pi / 12.0 * _e2_series(w)
    zp, gamma = reduce_sl2(w)
    (a, b), (c, d) = gamma
    j = c * w + d
    inner = 1j * math.pi / 12.0 * _e2_series(zp)
    return inner / (j * j) - 0.5 * c / j
