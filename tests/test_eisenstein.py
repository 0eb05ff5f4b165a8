"""Eisenstein series, scattering coefficient, limit formulas, CM evaluation."""

import cmath
import math

import numpy as np
import pytest

from zetalab import eisenstein, epstein, lattice, specfun
from zetalab.acceptance import brute_force_epstein

ZETA3 = 1.2020569031595943
OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)


def test_sl2_value_against_brute_force():
    z, s = 2j, 2.0
    ev = eisenstein.eisenstein_sl2(z, s)
    oracle = (brute_force_epstein(lattice.gram_of_point(z), s)
              / (2.0 * complex(specfun.riemann_zeta(2 * s))))
    assert abs(ev.value - oracle) / abs(oracle) < 1e-9


def test_sl2_modular_invariance():
    z, s = 0.3 + 1.4j, 1.2 + 0.5j
    base = eisenstein.eisenstein_sl2(z, s).value
    for w in (z + 1, -1.0 / z):
        assert abs(eisenstein.eisenstein_sl2(w, s).value - base) / abs(base) < 1e-9


def test_sl2_eigenfunction_and_reflection():
    from zetalab.hamiltonian import fd_laplacian
    z, s = 0.3 + 1.2j, 1.3
    f = lambda p: eisenstein.eisenstein_sl2(p, s).value.real
    lap = fd_laplacian(f, z, 1e-3)
    val = eisenstein.eisenstein_sl2(z, s).value.real
    assert abs(lap - s * (s - 1.0) * val) / abs(val) < 1e-6
    # E_s = c_s E_{1-s}
    s = 0.7 + 0.3j
    lhs = eisenstein.eisenstein_sl2(z, s).value
    rhs = eisenstein.c_scattering(s) * eisenstein.eisenstein_sl2(z, 1.0 - s).value
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_constant_term_fourier_average():
    y, s = 3.0, 1.3
    xs = (np.arange(32) + 0.5) / 32.0 - 0.5
    avg = np.mean([eisenstein.eisenstein_sl2(complex(x, y), s).value for x in xs])
    target = y ** s + eisenstein.c_scattering(s) * y ** (1.0 - s)
    assert abs(avg - target) < 1e-6


def test_scattering_coefficient():
    # closed form at s = 3/2: xi(2)/xi(3) = pi^2 / (3 zeta(3))
    assert abs(eisenstein.c_scattering(1.5) - math.pi ** 2 / (3.0 * ZETA3)) < 1e-12
    for t in (2.0, 7.3, 19.0):
        assert abs(abs(eisenstein.c_scattering(0.5 + 1j * t)) - 1.0) < 1e-11
    for s in (0.7 + 0.4j, 1.2 - 2.0j):
        assert abs(eisenstein.c_scattering(s) * eisenstein.c_scattering(1.0 - s) - 1.0) < 1e-10
    with pytest.raises(ZeroDivisionError):
        eisenstein.c_scattering(0.5)
    # arrays give the scalar values element-wise, bit for bit, in the input's
    # shape (each point's Euler-Maclaurin cutoff comes from its own height)
    grid = np.array([[1.5, 0.5 + 2.0j], [0.7 + 0.4j, 1.2 - 2.0j]])
    values = eisenstein.c_scattering(grid)
    assert values.shape == grid.shape
    for s, c in zip(grid.ravel(), values.ravel()):
        assert c == eisenstein.c_scattering(complex(s))
    with pytest.raises(ZeroDivisionError):
        eisenstein.c_scattering(np.array([1.5, 1.0]))


def test_kronecker_limit():
    for z in (1j, OMEGA, 0.3 + 1.7j):
        assert eisenstein.kronecker_limit_check(z) < 1e-8


def test_e1_star_closed_form_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4}) gives a closed form at z = i
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    euler = 0.5772156649015329
    target = 6.0 / math.pi * (euler - math.log(2.0) - 2.0 * math.log(eta_i))
    assert abs(eisenstein.e1_star(1j) - target) < 1e-12


def test_e1_star_invariance():
    z = 0.3 + 1.1j
    base = eisenstein.e1_star(z)
    assert abs(eisenstein.e1_star(z + 1) - base) < 1e-12
    assert abs(eisenstein.e1_star(-1.0 / z) - base) < 1e-11


def test_terras_block_choices_agree():
    # the same limit computed through two different block decompositions
    a = eisenstein.terras_limit(np.eye(3), 1)
    b = eisenstein.terras_limit(np.eye(3), 2)
    assert abs(a - b) < 1e-10


def test_terras_against_laurent():
    a0 = epstein.epstein_laurent(np.eye(3), 1.5, max_order=0).coefficient(0).real
    closed = eisenstein.terras_limit(np.eye(3), 1)
    assert abs(closed - a0) / abs(a0) < 1e-6


def test_terras_coupled_form(monkeypatch):
    # the Bessel double sum is one K-Bessel batch over all kept (u, v) pairs
    batches = []
    bessel_K = specfun.bessel_K

    def counted(nu, z):
        batches.append(np.size(z))
        return bessel_K(nu, z)
    monkeypatch.setattr(specfun, "bessel_K", counted)
    rng = np.random.default_rng(6)
    B = rng.normal(size=(3, 3)) * 0.2
    Q, _ = lattice.normalize_det(np.eye(3) + B @ B.T)
    a = eisenstein.terras_limit(Q, 1)
    b = eisenstein.terras_limit(Q, 2)
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))
    assert len(batches) == 2 and min(batches) > 100


def test_heegner_identity():
    for D in (-3, -4, -7, -8, -11):
        val = eisenstein.heegner_zeta(2.0, D)
        oracle = (complex(specfun.riemann_zeta(2.0))
                  * complex(specfun.dirichlet_L(2.0, D)))
        assert abs(val - oracle) / abs(oracle) < 1e-9
    val = eisenstein.heegner_zeta(1.2 + 0.8j, -7)
    oracle = (complex(specfun.riemann_zeta(1.2 + 0.8j))
              * complex(specfun.dirichlet_L(1.2 + 0.8j, -7)))
    assert abs(val - oracle) / abs(oracle) < 1e-8


# zeta_K is finite where the E_s route divided by a pole or a zero:
# s = 1/2 puts zeta(2s) at its pole, s = rho/2 puts it at the first zero rho
HEEGNER_E_S_SINGULAR = [(0.5, -7), (0.25 + 7.0673625708673j, -4)]


@pytest.mark.parametrize("s, D", HEEGNER_E_S_SINGULAR)
def test_heegner_where_zeta_2s_is_singular(s, D):
    val = eisenstein.heegner_zeta(s, D)
    oracle = complex(specfun.riemann_zeta(s)) * complex(specfun.dirichlet_L(s, D))
    assert abs(val - oracle) / abs(oracle) < 1e-9


def test_eisenstein_raises_where_zeta_2s_vanishes():
    # E_s itself has a pole where zeta(2s) = 0
    s = HEEGNER_E_S_SINGULAR[1][0]
    with pytest.raises(ZeroDivisionError, match=r"zeta\(2s\)"):
        eisenstein.eisenstein_sl2(1j, s)


def test_heegner_exponent_is_s_not_half_s():
    # the prefactor is (sqrt|D|/2)^s; the (sqrt|D|/2)^{s/2} variant is far off
    s, D = 2.0, -3
    tau, wk = eisenstein.CM_POINTS[D]
    ev = eisenstein.eisenstein_sl2(tau, s).value
    zeta_l = (complex(specfun.riemann_zeta(s)) * complex(specfun.dirichlet_L(s, D))
              / complex(specfun.riemann_zeta(2 * s)))
    good = wk / 2.0 * (math.sqrt(abs(D)) / 2.0) ** s * zeta_l
    bad = wk / 2.0 * (math.sqrt(abs(D)) / 2.0) ** (s / 2.0) * zeta_l
    assert abs(ev - good) / abs(good) < 1e-9
    assert abs(ev - bad) / abs(bad) > 0.05


def test_cm_line_values_match_continuation():
    s = np.array([0.5 + 3.0j])
    line = eisenstein.cm_line_values(-4, s)[0]
    direct = eisenstein.eisenstein_sl2(1j, complex(s[0])).value
    assert abs(line - direct) / abs(direct) < 1e-8


def test_match_cm_point():
    assert eisenstein.match_cm_point(1j) == -4
    assert eisenstein.match_cm_point(OMEGA) == -3
    assert eisenstein.match_cm_point(complex(0.5, math.sqrt(7.0) / 2.0)) == -7
    assert eisenstein.match_cm_point(0.3 + 1.4j) is None


def test_heegner_rejects_unknown_discriminant():
    with pytest.raises(ValueError):
        eisenstein.heegner_zeta(2.0, -5)
