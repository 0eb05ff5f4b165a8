"""Critical-line spectral experiments: exotic roots, spacing, Green's
identity, the J pairing, zeta_K on-line zeros."""

import cmath
import math

import numpy as np
import pytest

from zetalab import eisenstein, spectral, specfun

ZETA_ZERO_1 = 14.134725141734695


def test_modular_domain_volume():
    assert abs(spectral.modular_domain_volume() - math.pi / 3.0) < 1e-12
    assert abs(spectral.INNER_ONE_ONE - math.pi / 3.0) < 1e-15


@pytest.fixture(scope="module")
def track30():
    return specfun.psi_arg_xi(31.0)


@pytest.fixture(scope="module")
def roots_a10(track30):
    return spectral.exotic_roots(10.0, 0.1, 30.0, track30)


def test_exotic_roots_residuals(roots_a10):
    assert len(roots_a10) >= 10
    ts = [r.t for r in roots_a10]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for r in roots_a10:
        assert r.residual < 1e-8
        assert abs(r.w - (0.5 + 1j * r.t)) < 1e-15
        assert abs(r.lam - (-0.25 - r.t ** 2)) < 1e-12


def test_exotic_root_count_matches_prediction(roots_a10, track30):
    predicted = spectral.root_count_prediction(10.0, 0.1, 30.0, track30)
    assert abs(len(roots_a10) - predicted) <= 1


def test_exotic_root_solves_original_equation(roots_a10):
    # cross-check one root against the unreduced complex equation via c_w
    r = roots_a10[3]
    w = r.w
    val = 10.0 ** w + eisenstein.c_scattering(w) * 10.0 ** (1.0 - w)
    assert abs(val) < 1e-8


def test_exotic_roots_a5():
    track = specfun.psi_arg_xi(16.0)
    roots = spectral.exotic_roots(5.0, 0.1, 15.0, track)
    assert len(roots) >= 3
    assert all(r.residual < 1e-8 for r in roots)


def test_exotic_roots_validation():
    with pytest.raises(ValueError):
        spectral.exotic_roots(0.9, 0.1, 10.0)
    with pytest.raises(ValueError):
        spectral.exotic_roots(10.0, 0.0, 10.0)


def test_reversed_windows_raise():
    for t_min, t_max in ((20.0, 10.0), (10.0, 10.0)):
        with pytest.raises(ValueError):
            spectral.exotic_roots(5.0, t_min, t_max)
        with pytest.raises(ValueError):
            spectral.scan_zeros(spectral.hardy_rotation_zeta, t_min, t_max)
    with pytest.raises(ValueError):
        spectral.zeta_k_line_zeros(-4, 20.0, 10.0)
    with pytest.raises(ValueError):
        spectral.repulsion_experiment(-4, 10.0, 20.0, 10.0)


def _count_calls(monkeypatch, module, name, arg=0):
    """Record np.ndim and np.size of argument ``arg`` of every call to module.name."""
    calls = []

    def counted(*args, f=getattr(module, name)):
        calls.append((np.ndim(args[arg]), np.size(args[arg])))
        return f(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_exotic_roots_and_spacing_work_counts(monkeypatch):
    # every bracket is refined in lockstep: one array xi_log call per step
    calls = _count_calls(monkeypatch, specfun, "xi_log")
    roots = spectral.exotic_roots(5.0, 0.1, 50.0)
    assert len(roots) == 55
    assert len(calls) < 50
    assert all(ndim == 1 for ndim, _ in calls)
    # both ends of every gap in one call
    track = specfun.psi_arg_xi(51.0)
    calls.clear()
    spectral.spacing_statistics(roots, track)
    assert calls == [(1, 2 * (len(roots) - 1))]


def test_spacing_statistics(roots_a10, track30):
    rows = spectral.spacing_statistics(roots_a10, track30)
    assert len(rows) == len(roots_a10) - 1
    for row in rows:
        # psi' < 0 at small t lets gaps exceed pi/log a slightly
        assert 0.0 < row.gap < 1.5 * math.pi / math.log(10.0)
        assert abs(row.gap - row.comparator) / row.comparator < 0.02
        assert row.pi_over_log_t == pytest.approx(math.pi / math.log(row.t))


def test_greens_check_cm_point():
    cfg = spectral.ContourConfig(T=120.0)
    res = spectral.greens_constant_term_check(1j, 1.25 + 0.6j, 2.0, cfg)
    assert res.rel_error < 5e-3
    assert res.tail_bound > 0
    assert res.quad_error < 1e-8
    assert abs(res.lhs - res.rhs) / abs(res.rhs) < res.rel_error


def test_greens_node_doubling_within_bound():
    base = spectral.greens_constant_term_check(
        1j, 1.25 + 0.6j, 2.0, spectral.ContourConfig(T=120.0, nodes_per_unit=32))
    fine = spectral.greens_constant_term_check(
        1j, 1.25 + 0.6j, 2.0, spectral.ContourConfig(T=120.0, nodes_per_unit=64))
    assert abs(fine.lhs - base.lhs) < base.tail_bound


@pytest.mark.slow
def test_greens_tail_honesty():
    w, a = 1.25 + 0.6j, 2.0
    r1 = spectral.greens_constant_term_check(1j, w, a, spectral.ContourConfig(T=120.0))
    r2 = spectral.greens_constant_term_check(1j, w, a, spectral.ContourConfig(T=240.0))
    assert abs(r2.lhs - r1.lhs) < r1.tail_bound
    assert abs(r2.lhs - r2.rhs) <= abs(r1.lhs - r1.rhs) + 1e-12


@pytest.mark.parametrize("tau", [0.3, 7.0, 60.0, 600.0])
def test_reflected_scattering_from_one_xi(tau):
    # on the line c_{1-s} = xi(1+2i tau)/xi(1-2i tau) = exp(2i Im log xi(1+2i tau))
    phase = specfun.xi_log(1.0 + 2j * tau).imag
    c = eisenstein.c_scattering(0.5 - 1j * tau)
    # both sides carry the round-off of a phase of size |phase| (2551 at
    # tau = 600, where they differ by 1.2e-12, 2.6 ulp of the phase)
    assert abs(c - cmath.exp(2j * phase)) < 1e-12 + 4.0 * math.ulp(phase)


def test_greens_integral_matches_c_scattering_integrand():
    w, a, cfg = 1.25 + 0.6j, 2.0, spectral.ContourConfig(T=120.0)
    res = spectral.greens_constant_term_check(1j, w, a, cfg)
    # the same contour, built on c_{1-s} = c_scattering(1 - s) and E at i
    taus, wts = spectral.gl_grid(0.0, cfg.T, spectral._PANEL_WIDTH, cfg.nodes_per_panel)
    s = 0.5 + 1j * taus
    lam_w = w * (w - 1.0)
    E = eisenstein.cm_line_values(-4, s)
    numer = (a ** (1.0 - s) + eisenstein.c_scattering(1.0 - s) * a ** s) * E
    integral = wts @ (2.0 * numer.real / (-0.25 - taus ** 2 - lam_w)) / (4.0 * math.pi)
    lhs = 1.0 / (-lam_w * spectral.INNER_ONE_ONE) + integral
    assert abs(res.lhs - lhs) < 1e-12 * abs(lhs)


def test_greens_check_generic_point():
    cfg = spectral.ContourConfig(T=30.0, nodes_per_unit=16)
    res = spectral.greens_constant_term_check(0.3 + 1.2j, 1.5 + 1.0j, 2.0, cfg)
    assert res.rel_error < 0.05


def test_greens_preconditions():
    with pytest.raises(ValueError):
        spectral.greens_constant_term_check(1j, 0.4 + 1j, 2.0)  # Re w <= 1/2
    with pytest.raises(ValueError):
        spectral.greens_constant_term_check(1j, 0.8, 2.0)  # residual spectrum
    with pytest.raises(ValueError):
        spectral.greens_constant_term_check(2j, 1.25 + 0.6j, 1.0)  # a < Im z
    with pytest.raises(ValueError):
        # contour above height 40 away from a CM point
        spectral.greens_constant_term_check(0.3 + 1.2j, 1.25 + 0.6j, 2.0,
                                            spectral.ContourConfig(T=300.0))


@pytest.fixture(scope="module")
def line_cache():
    cfg = spectral.ContourConfig(T=120.0)
    return spectral._LineCache(-4, cfg.T, cfg.nodes_per_panel)


def test_j_function_finite_and_window_stable(line_cache):
    F_tau = line_cache.theta_sq(8.0)
    val = spectral._j_from_cache(line_cache, 8.0, F_tau)
    assert math.isfinite(val)
    assert abs(spectral.J_function(0.5 + 8.0j, -4) - val) < 1e-12
    # halving the interpolation window must not move the value much
    narrow = spectral._j_from_cache(line_cache, 8.0, F_tau, window=0.03125)
    assert abs(narrow - val) < 0.05 * abs(val)


def test_j_function_sign_change(line_cache):
    def J(ts):
        return np.array([spectral._j_from_cache(line_cache, t, F)
                         for t, F in zip(ts, line_cache.theta_sq(ts))])

    taus = np.arange(5.0, 20.0, 0.25)
    vals = J(taus)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(flips) >= 1
    i = flips[:1]
    root = spectral._bisect(J, taus[i], taus[i + 1], tol=1e-6)
    assert abs(J(root)[0]) < 1e-4 * np.max(np.abs(vals))


def test_j_function_validation():
    with pytest.raises(ValueError):
        spectral.J_function(0.6 + 8.0j, -4)
    with pytest.raises(ValueError):
        spectral.J_function(0.5 + 0.2j, -4)


def test_zeta_k_zeros_contain_first_zeta_zero():
    zeros = spectral.zeta_k_line_zeros(-4, 14.0, 14.3)
    assert any(abs(z - ZETA_ZERO_1) < 1e-6 for z in zeros)


def test_zeta_k_zeros_stay_inside_interval():
    # a zero of L(., chi_{-4}) sits just past 37.58; the scan grid must end at hi
    zeros = spectral.zeta_k_line_zeros(-4, 35.58, 37.58)
    assert zeros
    assert all(35.58 <= z <= 37.58 for z in zeros)


def test_zero_scan_grid_is_one_call_per_factor(monkeypatch):
    # each factor's grid is one Hardy call, and all its brackets are bisected
    # together: f(lo), then one call per halving of the 0.02 cell down to
    # 1e-10 (28 halvings), so at most 30 array calls however many zeros
    for lo, hi in ((14.0, 16.0), (14.0, 40.0)):
        calls = {name: _count_calls(monkeypatch, spectral, name)
                 for name in ("hardy_rotation_zeta", "hardy_rotation_L")}
        zeros = spectral.zeta_k_line_zeros(-4, lo, hi)
        assert any(abs(z - ZETA_ZERO_1) < 1e-9 for z in zeros)
        for made in calls.values():
            assert made and all(ndim == 1 for ndim, _ in made)
            assert len(made) <= 30
        monkeypatch.undo()
    assert len(zeros) > 10


def _reference_bisect(f, lo, hi, tol):
    """The one-bracket bisection, written out with Python floats."""
    flo = f(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_lockstep_bisection_matches_one_bracket_runs():
    f = spectral.hardy_rotation_zeta
    ts = np.arange(14.0, 50.0, 0.02)
    vals = f(ts)
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(i) >= 8
    for tol in (1e-10, 1e-13, 0.0):  # tol 0 runs every bracket to the 80-step cap
        together = spectral._bisect(f, ts[i], ts[i + 1], tol)
        alone = [spectral._bisect(f, ts[k:k + 1], ts[k + 1:k + 2], tol)[0] for k in i]
        scalar = [_reference_bisect(f, float(ts[k]), float(ts[k + 1]), tol) for k in i]
        assert together.tolist() == alone == scalar


def test_lockstep_bisection_without_brackets_makes_no_call():
    def f(t):
        raise AssertionError("f called without a bracket")
    assert spectral._bisect(f, np.array([]), np.array([]), 1e-10).size == 0


def test_repulsion_work_counts(monkeypatch):
    calls = _count_calls(monkeypatch, eisenstein, "cm_line_values", arg=1)
    report = spectral.repulsion_experiment(-4, 10.0, 10.0, 20.0, spectral.ContourConfig(T=120.0))
    assert report.unique_per_interval and len(report.intervals) >= 10
    assert len(calls) < 40
    assert all(ndim == 1 and size > 1 for ndim, size in calls)


def test_repulsion_without_two_cosine_zeros_has_no_intervals():
    # cos(Theta) has at most one zero in a window of 0.05 (its zeros are ~1.4 apart)
    report = spectral.repulsion_experiment(-4, 10.0, 10.0, 10.05)
    assert report.intervals == []


def test_theta_pairing_vanishes_at_zeta_k_zero(line_cache):
    zeros = spectral.zeta_k_line_zeros(-4, 14.0, 14.3)
    t0 = min(zeros, key=lambda z: abs(z - ZETA_ZERO_1))
    assert line_cache.theta_sq(t0) < 1e-12
    # generic heights do not vanish
    assert line_cache.theta_sq(14.6) > 1e-4
