"""Special-function layer: closed forms, independent quadrature oracles,
and algebraic invariants."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import eisenstein, specfun, spectral

# independently known constants
CATALAN = 0.9159655941772190
ZETA3 = 1.2020569031595943
# log Gamma(3+2i), frozen from a high-precision evaluation
LOG_GAMMA_3_2J = complex(-0.031639059373961190, 2.022193197501327124)
ZETA_ZERO_1 = 14.134725141734695


def gl_integral(f, lo, hi, panels=64, nodes=16):
    """Composite Gauss-Legendre quadrature, an in-test oracle."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * np.sum(base_w * f(mid + half * base_x))
    return total


# ---------------------------------------------------------------------------
# gamma / digamma
# ---------------------------------------------------------------------------

def test_log_gamma_closed_forms():
    assert abs(specfun.log_gamma(1.0)) < 1e-14
    assert abs(specfun.log_gamma(2.0)) < 1e-14
    assert abs(specfun.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13
    assert abs(specfun.log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_frozen_complex():
    assert abs(complex(specfun.log_gamma(3 + 2j)) - LOG_GAMMA_3_2J) < 1e-13


def test_log_gamma_reflection():
    s = -2.5 + 0.5j
    lhs = cmath.exp(complex(specfun.log_gamma(s)) + complex(specfun.log_gamma(1 - s)))
    rhs = math.pi / cmath.sin(math.pi * s)
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 20.0), st.floats(-20.0, 20.0))
def test_log_gamma_recurrence(x, y):
    s = complex(x, y)
    ratio = cmath.exp(complex(specfun.log_gamma(s + 1)) - complex(specfun.log_gamma(s)))
    assert abs(ratio - s) / abs(s) < 1e-11


def test_digamma_values():
    euler = 0.5772156649015329
    assert abs(complex(specfun.digamma(1.0)) + euler) < 1e-13
    assert abs(complex(specfun.digamma(2.0)) - (1.0 - euler)) < 1e-13
    assert abs(complex(specfun.digamma(0.5)) - (-euler - 2.0 * math.log(2.0))) < 1e-13


def test_digamma_is_gamma_derivative():
    s = 3.0 + 1.0j
    h = 1e-5
    fd = (complex(specfun.log_gamma(s + h)) - complex(specfun.log_gamma(s - h))) / (2 * h)
    assert abs(fd - complex(specfun.digamma(s))) < 1e-9


# ---------------------------------------------------------------------------
# zeta, Hurwitz zeta, Dirichlet L
# ---------------------------------------------------------------------------

def test_zeta_closed_forms():
    assert abs(complex(specfun.riemann_zeta(0.0)) + 0.5) < 1e-13
    assert abs(complex(specfun.riemann_zeta(2.0)) - math.pi ** 2 / 6) < 1e-13
    assert abs(complex(specfun.riemann_zeta(4.0)) - math.pi ** 4 / 90) < 1e-13
    assert abs(complex(specfun.riemann_zeta(-1.0)) + 1.0 / 12.0) < 1e-13
    assert abs(complex(specfun.riemann_zeta(3.0)) - ZETA3) < 1e-13


def test_zeta_first_nontrivial_zero():
    assert abs(complex(specfun.riemann_zeta(0.5 + 1j * ZETA_ZERO_1))) < 1e-9


def test_xi_symmetry_and_value():
    # xi(2) = pi^{-1} Gamma(1) zeta(2) = pi/6
    assert abs(complex(specfun.xi_completed(2.0)) - math.pi / 6) < 1e-13
    for s in (0.3 + 9j, -1.5 + 0.5j, 0.5 + 25j):
        a = complex(specfun.xi_completed(s))
        b = complex(specfun.xi_completed(1 - s))
        assert abs(a - b) / abs(a) < 1e-11


def test_hurwitz_zeta():
    # zeta(s, 1) = zeta(s)
    for s in (2.5, 1.2 + 3j):
        assert abs(complex(specfun.hurwitz_zeta(s, 1.0))
                   - complex(specfun.riemann_zeta(s))) < 1e-12
    # sum over half-integers: zeta(2, 1/2) = pi^2/2
    assert abs(complex(specfun.hurwitz_zeta(2.0, 0.5)) - math.pi ** 2 / 2) < 1e-12


def test_dirichlet_L_closed_forms():
    # class-number formulas L(1, chi_D) = 2 pi h / (w sqrt|D|), h = 1 throughout
    targets = {
        -3: 2 * math.pi / (6 * math.sqrt(3)),
        -4: math.pi / 4,
        -7: math.pi / math.sqrt(7),
        -8: math.pi / (2 * math.sqrt(2)),
        -11: math.pi / math.sqrt(11),
    }
    for D, target in targets.items():
        assert abs(complex(specfun.dirichlet_L(1.0, D)) - target) < 1e-12
    # L(2, chi_{-4}) is Catalan's constant
    assert abs(complex(specfun.dirichlet_L(2.0, -4)) - CATALAN) < 1e-13


def test_dirichlet_L_direct_series():
    # chi_{-4}: period-4 pattern 1, 0, -1, 0
    n = np.arange(1, 400001, dtype=float)
    chi = np.where(n % 4 == 1, 1.0, np.where(n % 4 == 3, -1.0, 0.0))
    partial = float(np.sum(chi / n ** 2))
    assert abs(complex(specfun.dirichlet_L(2.0, -4)) - partial) < 1e-9


def bessel_K_of_z(z, nu):
    return specfun.bessel_K(nu, z)


# the functions under one calling rule with a complex value: (function,
# extra arguments, a 2-D batch of s away from the poles with a real first
# entry; the batches reach the reflection branches and the s = 1 branch of
# dirichlet_L, and z whose K-Bessel cut-offs v_max and halvings differ)
_ELEMENTWISE = [
    (specfun.log_gamma, (), [[2.0, 0.5 + 20j], [-3.5 + 2j, 1.5 - 7j]]),
    (specfun.digamma, (), [[2.0, 0.5 + 20j], [-3.5 + 2j, 1.5 - 7j]]),
    (specfun.riemann_zeta, (), [[2.0, 0.5 + 20j], [-3.5 + 2j, 1.5 - 7j]]),
    (specfun.hurwitz_zeta, (0.3,), [[2.5, 1.2 + 3j], [0.5 + 20j, 2.0 - 1j]]),
    (specfun.dirichlet_L, (-7,), [[1.5, 0.5 + 10j], [2.0 - 3j, 1.0]]),
    (specfun.xi_log, (), [[2.0, 0.5 + 20j], [-3.5 + 2j, 1.5 - 7j]]),
    (specfun.xi_completed, (), [[2.0, 0.5 + 20j], [-3.5 + 2j, 1.5 - 7j]]),
    (eisenstein.c_scattering, (), [[2.0, 0.5 + 20j], [-3.5 + 2j, 1.5 - 7j]]),
    (bessel_K_of_z, (0.3 + 0.2j,), [[0.05, 1.0], [7.0, 36.0]]),
]


@pytest.mark.parametrize("f, args, s", _ELEMENTWISE, ids=[c[0].__name__ for c in _ELEMENTWISE])
def test_calling_rule(f, args, s):
    s = np.array(s, dtype=complex)
    before = s.copy()
    out = f(s, *args)
    # an array gives an array of its shape, bit for bit the flat batch and
    # the scalar calls (each point's Euler-Maclaurin cutoff is its own)
    assert out.shape == s.shape
    assert out.tobytes() == f(s.ravel(), *args).tobytes()
    # a complex input reaches the core as a view and must come back unchanged
    assert s.tobytes() == before.tobytes()
    # a Python scalar or a 0-d array gives a complex, also for real input
    for v in (float(s[0, 0].real), complex(s[0, 0]), np.array(s[0, 0])):
        assert type(f(v, *args)) is complex
    scalar = np.array([f(complex(v), *args) for v in s.flat])
    assert scalar.tobytes() == out.ravel().tobytes()


# one batch over heights 0-1200 on and off the critical line, with real
# points (one an integer, which numpy's power multiplies out) and a
# reflected one (Re s < -0.5, also for 2s - 1 in c_s)
_TALL_BATCH = np.array([2.5, 0.5 + 0.3j, 0.5 + 7j, 0.5 + 60j, 0.75 + 133.7j,
                        0.5 + 300j, 3.0, 0.5 + 600j, 0.5 + 999.9j, 0.5 + 1200j,
                        -1.5 + 10j])
_BATCHED = [
    ("riemann_zeta", specfun.riemann_zeta),
    ("hurwitz_zeta", lambda s: specfun.hurwitz_zeta(s, 0.3)),
    ("dirichlet_L", lambda s: specfun.dirichlet_L(s, -7)),
    ("xi_log", specfun.xi_log),
    ("c_scattering", eisenstein.c_scattering),
]


@pytest.mark.parametrize("f", [c[1] for c in _BATCHED], ids=[c[0] for c in _BATCHED])
def test_batch_equals_scalar_bit_for_bit(f):
    batch = f(_TALL_BATCH)
    scalar = np.array([f(complex(s)) for s in _TALL_BATCH])
    assert batch.tobytes() == scalar.tobytes()
    # any sub-batch gives the same digits as well
    assert f(_TALL_BATCH[::-3]).tobytes() == batch[::-3].tobytes()
    empty = f(np.empty(0, dtype=complex))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# real-valued functions of a real height under the same rule: a float for
# a scalar, a float array of the batch's shape, batch equal to scalar
_REAL_VALUED = [
    ("hardy_rotation_zeta", spectral.hardy_rotation_zeta),
    ("hardy_rotation_L", lambda t: spectral.hardy_rotation_L(t, -7)),
    ("psi_xi", specfun.psi_xi),
]


@pytest.mark.parametrize("f", [c[1] for c in _REAL_VALUED], ids=[c[0] for c in _REAL_VALUED])
def test_real_valued_calling_rule(f):
    t = np.array([[0.3, 7.0, 14.134725, 37.6], [60.0, 300.0, 999.9, 1200.0]])
    out = f(t)
    assert out.dtype == float and out.shape == t.shape
    for v in (14.134725, np.float64(14.134725), np.array(14.134725), 14):
        assert isinstance(f(v), float)
    scalar = np.array([f(float(v)) for v in t.flat])
    assert scalar.tobytes() == out.ravel().tobytes()
    assert f(t[:, ::-3]).tobytes() == out[:, ::-3].tobytes()


def test_em_cutoff_per_point(monkeypatch):
    # every point sums N = max(50, floor(0.37 |Im s|) + 10) terms of its own
    # height, so a 0-1200 grid costs sum N_i terms, not M times the tallest N
    summed = []
    em_sum = specfun._em_sum

    def counted(s, a, N):
        summed.append(int(np.sum(np.broadcast_to(N, s.shape))))
        return em_sum(s, a, N)

    monkeypatch.setattr(specfun, "_em_sum", counted)
    heights = np.linspace(0.0, 1200.0, 241)
    specfun.riemann_zeta(0.5 + 1j * heights)
    # zeta sums n = 1 .. N - 1 and puts the tail at N
    assert summed == [sum(max(50, int(0.37 * t) + 10) - 1 for t in heights)]


@pytest.mark.parametrize("s, a", [(2.0, 1.0), (3.0, 0.3), (2.5, 0.5), (-2.0, 0.7)])
def test_real_s_sums_numpy_powers(s, a):
    # a real s sums numpy's own n ** -s (integer powers multiplied out) with
    # np.sum, alone or in a batch of complex points
    n = np.arange(50) + a
    tail = specfun._em_terms(np.array([s + 0j]), np.array([50 + a + 0j]))[0]
    expected = np.sum(n ** -complex(s)) + tail
    assert specfun.hurwitz_zeta(s, a) == expected
    assert specfun.hurwitz_zeta(np.array([0.5 + 9j, s, 0.5 + 900j]), a)[1] == expected


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

def test_upper_gamma_exponential_case():
    assert abs(specfun.upper_incomplete_gamma(1.0, 2.0) - math.exp(-2.0)) < 1e-14
    assert abs(specfun.upper_incomplete_gamma(1.0, 30.0) - math.exp(-30.0)) < 1e-25


def test_upper_gamma_small_x_limit():
    val = specfun.upper_incomplete_gamma(0.5, 1e-12)
    assert abs(val - (math.sqrt(math.pi) - 2e-6)) < 1e-8


def test_upper_gamma_quadrature_oracle():
    s, x = 0.5 + 1.5j, 3.0
    oracle = gl_integral(lambda u: u ** (s - 1) * np.exp(-u), x, x + 45.0)
    assert abs(specfun.upper_incomplete_gamma(s, x) - oracle) < 1e-12


def test_incomplete_gamma_splice():
    for s in (2.3 - 1.2j, 0.7, 1.1 + 2j):
        for x in (0.7, 5.0, 20.0):
            total = (specfun.lower_incomplete_gamma(s, x)
                     + specfun.upper_incomplete_gamma(s, x))
            gamma = cmath.exp(complex(specfun.log_gamma(s)))
            assert abs(total - gamma) / abs(gamma) < 1e-11


def test_regularized_upper_gamma_array():
    s = 1.5 - 2.0j
    xs = np.array([0.3, 1.0, 4.0, 12.0, 40.0])
    vec = specfun.regularized_upper_gamma_array(s, xs)
    for i, x in enumerate(xs):
        direct = specfun.upper_incomplete_gamma(s, float(x))
        assert abs(vec[i] - direct) < 1e-12


def test_regularized_upper_gamma_array_real_s():
    # a real s is the complex s with zero imaginary part, on both the
    # power-series side (x < |s| + 1) and the continued-fraction side
    for s in (3.0, -1.5):
        xs = np.array([0.05, 0.7, 2.0, abs(s) + 0.9, abs(s) + 1.0, 9.0, 45.0])
        real = specfun.regularized_upper_gamma_array(s, xs)
        assert real.tobytes() == specfun.regularized_upper_gamma_array(complex(s), xs).tobytes()


def _upper_gamma_lift_per_x(s: complex, x: float) -> complex:
    """Reference: the small-x splice with the whole lift redone for one x."""
    if s.real <= 0.5 and abs(s - round(s.real)) < 1e-8:
        return specfun._upper_gamma_cf_vec(s, np.array([x]))[0]
    coeff = 1.0 + 0.0j
    shift = 0.0 + 0.0j
    s0 = s
    while s0.real <= 0.5:
        coeff = coeff / s0
        shift = shift - coeff * cmath.exp(s0 * math.log(x) - x)
        s0 += 1.0
    gamma_full = cmath.exp(specfun.log_gamma(s0))
    lower = specfun._lower_gamma_series(s0, x)
    return coeff * (gamma_full - lower) + shift


@pytest.mark.parametrize("s", [1.5 - 2.0j,            # no lift
                               -0.7 + 0.3j, -2.4 + 1.0j,  # lift loop
                               -1.0 + 1e-9 + 0.0j])       # near the pole: CF branch
def test_upper_gamma_small_x_bit_for_bit(s):
    # the per-s work is shared across every x < |s| + 1 of a call; the
    # values must not move by a bit against redoing it for each x
    xs = np.linspace(0.01, abs(s) + 1.0, 50, endpoint=False).tolist()
    reference = [_upper_gamma_lift_per_x(s, x) for x in xs]
    assert [specfun.upper_incomplete_gamma(s, x) for x in xs] == reference
    assert specfun.regularized_upper_gamma_array(s, np.array(xs)).tolist() == reference


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the lift toward the pole at s = -2 "
                   "loses 2.5e-8 relative at x = 2.5 (the cause of perfbench epstein-lattice "
                   "seed 503, round 7)")
def test_upper_gamma_near_negative_integer():
    mpmath = pytest.importorskip("mpmath")
    s, x = -2.0000672, 2.5
    ref = complex(mpmath.gammainc(s, x))
    assert abs(specfun.upper_incomplete_gamma(s, x) - ref) / abs(ref) < 1e-12


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda x: specfun.upper_incomplete_gamma(1.5, x),
    lambda x: specfun.lower_incomplete_gamma(1.5, x),
    lambda x: specfun.regularized_upper_gamma_array(1.5 - 2j, np.array([1.0, x])),
    lambda x: specfun.bessel_K(0.5, x),
    lambda x: specfun.bessel_K(0.5, np.array([1.0, x])),
], ids=["upper", "lower", "upper_array", "bessel_K", "bessel_K_array"])
@pytest.mark.parametrize("x", [_NAN, _INF, -_INF, 0.0, -2.0, 1.0 + 1.0j])
def test_non_positive_or_non_finite_argument_raises(call, x):
    with pytest.raises(ValueError, match="finite real x > 0"):
        call(x)


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------

def test_bessel_half_integer_closed_forms():
    for z in (0.7, 3.0, 9.5):
        target = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert abs(complex(specfun.bessel_K(0.5, z)) - target) < 1e-12 * target
        target32 = target * (1.0 + 1.0 / z)
        assert abs(complex(specfun.bessel_K(1.5, z)) - target32) < 1e-12 * target32


def test_bessel_order_symmetry():
    for nu, z in ((0.3, 2.0), (1.7, 0.9), (2.5, 6.0)):
        a = complex(specfun.bessel_K(nu, z))
        b = complex(specfun.bessel_K(-nu, z))
        assert abs(a - b) / abs(a) < 1e-12


def test_bessel_K0_series_oracle():
    # K_0(x) = -(log(x/2) + gamma) I_0(x) + sum_{k>=1} (x^2/4)^k H_k / (k!)^2
    x = 1.3
    euler = 0.5772156649015329
    t = x * x / 4.0
    term, i0, acc, hk = 1.0, 1.0, 0.0, 0.0
    for k in range(1, 40):
        term *= t / (k * k)
        hk += 1.0 / k
        i0 += term
        acc += term * hk
    oracle = -(math.log(x / 2.0) + euler) * i0 + acc
    assert abs(complex(specfun.bessel_K(0.0, x)) - oracle) < 1e-12


def test_bessel_recurrence():
    # K_{nu+1}(z) = K_{nu-1}(z) + (2 nu / z) K_nu(z)
    nu, z = 0.8, 2.7
    lhs = complex(specfun.bessel_K(nu + 1, z))
    rhs = complex(specfun.bessel_K(nu - 1, z)) + 2 * nu / z * complex(specfun.bessel_K(nu, z))
    assert abs(lhs - rhs) / abs(lhs) < 1e-11


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def _eta_oracle(z: complex, terms: int = 200) -> complex:
    """Raw q-product, no modular reduction: an independent oracle."""
    q = cmath.exp(2j * math.pi * z)
    prod = cmath.exp(2j * math.pi * z / 24.0)
    for n in range(1, terms + 1):
        prod *= 1.0 - q ** n
    return prod


def test_eta_at_i_closed_form():
    target = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(complex(specfun.dedekind_eta(1j)) - target) < 1e-13


def test_eta_against_q_product():
    for z in (0.13 + 0.8j, -0.37 + 0.52j, 0.5 + 2.0j):
        oracle = _eta_oracle(z)
        assert abs(complex(specfun.dedekind_eta(z)) - oracle) < 1e-12


def test_eta_translation_and_inversion():
    z = 0.21 + 1.1j
    a = complex(specfun.dedekind_eta(z))
    b = complex(specfun.dedekind_eta(z + 1))
    assert abs(abs(a) - abs(b)) < 1e-13
    # eta(-1/z) = sqrt(-i z) eta(z)
    inv = complex(specfun.dedekind_eta(-1.0 / z))
    assert abs(inv - cmath.sqrt(-1j * z) * a) / abs(inv) < 1e-12


def test_eta_log_derivative_fd():
    for z in (0.1 + 1.2j, 0.3 + 0.4j):
        h = 1e-6
        fd = (cmath.log(complex(specfun.dedekind_eta(z + h)))
              - cmath.log(complex(specfun.dedekind_eta(z - h)))) / (2 * h)
        assert abs(complex(specfun.eta_log_derivative(z)) - fd) < 1e-8


def test_eta_log_derivative_limits():
    # y -> infinity: eta'/eta -> i pi / 12
    assert abs(complex(specfun.eta_log_derivative(20j)) - 1j * math.pi / 12) < 1e-14
    # E_2(i) = 3/pi via eta'/eta = (i pi / 12) E_2
    e2 = complex(specfun.eta_log_derivative(1j)) * 12.0 / (1j * math.pi)
    assert abs(e2 - 3.0 / math.pi) < 1e-12


# ---------------------------------------------------------------------------
# psi = arg xi(1 + 2it)
# ---------------------------------------------------------------------------

def test_psi_track_anchor_and_continuity():
    sample = specfun.psi_arg_xi(30.0)
    assert abs(sample.psi_values[0] + math.pi / 2) < 0.05
    assert sample.psi_values.tolist() == specfun.psi_xi(sample.t_grid).tolist()
    steps = np.abs(np.diff(sample.psi_values))
    assert float(np.max(steps)) == sample.max_step < math.pi


def test_psi_is_the_imaginary_part_of_xi_log():
    t = np.array([1e-3, 5.0, 13.7, 27.2, 300.0, 1500.0])
    psi = specfun.psi_xi(t)
    assert np.all(np.abs(psi - specfun.xi_log(1.0 + 2j * t).imag) <= 1e-15 * np.maximum(1.0, np.abs(psi)))


def test_psi_raises_where_re_zeta_is_not_positive(monkeypatch):
    # the principal arg of zeta could jump there, so there is no honest psi
    monkeypatch.setattr(specfun, "riemann_zeta", lambda s: np.where(s.imag < 10.0, 1.0, -1.0 + 0.5j))
    assert specfun.psi_xi(np.array([1.0, 4.0])).shape == (2,)
    with pytest.raises(ValueError, match="Re zeta"):
        specfun.psi_xi(np.array([1.0, 6.0]))
    with pytest.raises(ValueError, match="Re zeta"):
        specfun.psi_arg_xi(10.0)


def test_psi_growth():
    psi = specfun.psi_xi(np.array([1.0, 10.0, 50.0]))
    assert psi[2] > psi[1] > psi[0]
    slope = (specfun.psi_xi(31.0) - specfun.psi_xi(29.0)) / 2.0
    assert 0.3 * math.log(30.0) < slope < 2.0 * math.log(30.0)


def test_psi_against_mpmath():
    # psi(t) = -t log pi + Im log Gamma(1/2+it) + arg zeta(1+2it) at 30 digits,
    # where Re zeta(1+2it) > 0 keeps the principal arg on the continuous branch
    mp = pytest.importorskip("mpmath").mp
    ts = np.geomspace(1e-3, 1500.0, 40)
    with mp.workdps(30):
        refs = []
        for t in ts.tolist():
            zeta = mp.zeta(mp.mpc(1, 2 * t))
            assert zeta.real > 0
            refs.append(float(-t * mp.log(mp.pi) + mp.loggamma(mp.mpc(0.5, t)).imag + mp.arg(zeta)))
    got = specfun.psi_xi(ts)
    for g, r in zip(got.tolist(), refs):
        assert abs(g - r) <= 1e-13 * max(1.0, abs(r))
