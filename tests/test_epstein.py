"""Epstein zeta continuation: closed-form oracles, functional equation,
residues, Laurent data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import epstein, lattice, specfun
from zetalab.acceptance import brute_force_epstein

CATALAN = 0.9159655941772190


def det1(Q):
    return lattice.normalize_det(np.asarray(Q, dtype=float))[0]


def test_z2_identity_closed_form():
    # Z_2(I, s) = 4 zeta(s) L(s, chi_{-4})
    val = epstein.epstein_zeta(np.eye(2), 2.0).value
    target = 4.0 * (math.pi ** 2 / 6.0) * CATALAN
    assert abs(val - target) < 1e-12
    s = 1.7 + 0.3j
    val = epstein.epstein_zeta(np.eye(2), s).value
    target = 4.0 * complex(specfun.riemann_zeta(s)) * complex(specfun.dirichlet_L(s, -4))
    assert abs(val - target) / abs(target) < 1e-10


def test_z4_identity_closed_form():
    # Z_4(I, s) = 8 (1 - 4^{1-s}) zeta(s) zeta(s-1)
    s = 2.5
    val = epstein.epstein_zeta(np.eye(4), s).value
    target = (8.0 * (1.0 - 4.0 ** (1.0 - s))
              * complex(specfun.riemann_zeta(s)) * complex(specfun.riemann_zeta(s - 1.0)))
    assert abs(val - target) / abs(target) < 1e-9


def test_brute_force_oracle():
    rng = np.random.default_rng(2)
    for r in (2, 3):
        B = rng.normal(size=(r, r)) * 0.3
        Q = det1(np.eye(r) + B @ B.T)
        s = r / 2.0 + 1.5
        oracle = brute_force_epstein(Q, s)
        val = epstein.epstein_zeta(Q, s).value
        assert abs(val - oracle) / abs(oracle) < 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Gamma(s, x) loses 2.5e-8 relative near "
                   "s = -2, so this value misses the oracle by 2.9e-9 with error_bound 8.1e-13 "
                   "(perfbench epstein-lattice seed 503, round 7)")
def test_brute_force_oracle_dual_near_gamma_pole():
    # the dual side evaluates Gamma(1 - s, x) at 1 - s = -2.0000672
    Q = np.array([[0.9541301593661365, -0.031210581779022997],
                  [-0.031210581779022997, 1.0490959651458547]])
    s = 3.0000672076094266
    oracle = brute_force_epstein(Q, s)
    assert abs(epstein.epstein_zeta(Q, s).value - oracle) / abs(oracle) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
def test_homogeneity(c, b1, b2):
    B = np.array([[b1, b2], [b2 / 2, -b1 / 3]])
    Q = np.eye(2) + B @ B.T
    s = 1.4 + 0.7j
    lhs = epstein.epstein_zeta(c * Q, s).value
    rhs = c ** (-s) * epstein.epstein_zeta(Q, s).value
    assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_functional_equation():
    rng = np.random.default_rng(4)
    cases = [(np.eye(2), 0.3 + 2.0j), (np.eye(3), 0.4 - 2.0j), (np.eye(4), 2.5 + 0.0j)]
    for r in (2, 3):
        B = rng.normal(size=(r, r)) * 0.25
        cases.append((det1(np.eye(r) + B @ B.T), 0.8 + 1.0j))
    for Q, s in cases:
        assert epstein.check_functional_equation(det1(Q), s) < 1e-9


def test_conjugation_symmetry():
    Q = det1(np.array([[2.0, 0.3], [0.3, 1.0]]))
    s = 1.3 + 2.1j
    a = epstein.epstein_zeta(Q, s).value
    b = epstein.epstein_zeta(Q, s.conjugate()).value
    assert abs(b - a.conjugate()) < 1e-12 * abs(a)


def test_value_at_zero_limit():
    # Z_r(Q, s) -> -1 as s -> 0, independent of Q
    exp = epstein.epstein_laurent(np.eye(2), 0.0, max_order=0)
    assert abs(exp.residue) < 1e-8
    assert abs(exp.coefficient(0) + 1.0) < 1e-8
    exp3 = epstein.epstein_laurent(det1(np.diag([2.0, 1.0, 1.0])), 0.0, max_order=0)
    assert abs(exp3.coefficient(0) + 1.0) < 1e-8


def test_residue_values():
    for r in (2, 3, 4):
        target = math.pi ** (r / 2.0) / math.gamma(r / 2.0)
        assert abs(epstein.epstein_residue(np.eye(r)) - target) < 1e-7
        rng = np.random.default_rng(r)
        B = rng.normal(size=(r, r)) * 0.25
        Q = det1(np.eye(r) + B @ B.T)
        assert abs(epstein.epstein_residue(Q) - target) < 1e-7


def test_laurent_reconstruction():
    Q = lattice.gram_of_point(0.2 + 1.1j)
    center = 1.0
    exp = epstein.epstein_laurent(Q, center, max_order=3)
    assert abs(exp.residue - math.pi) < 1e-9
    for s in (center + 0.04, center + 0.03j):
        direct = epstein.epstein_zeta(Q, s).value
        series = sum(exp.coefficient(k) * (s - center) ** k for k in range(-1, 4))
        assert abs(series - direct) / abs(direct) < 1e-7


def test_laurent_analytic_center():
    exp = epstein.epstein_laurent(np.eye(2), 0.75, max_order=1)
    assert abs(exp.residue) < 1e-10
    direct = epstein.epstein_zeta(np.eye(2), 0.75).value
    assert abs(exp.coefficient(0) - direct) < 1e-9


def test_pole_guard():
    with pytest.raises(epstein.EpsteinPoleError):
        epstein.epstein_zeta(np.eye(2), 1.0)
    with pytest.raises(epstein.EpsteinPoleError):
        epstein.epstein_zeta(np.eye(3), 1.5 + 1e-9j)
    with pytest.raises(epstein.EpsteinPoleError):
        epstein.epstein_zeta(np.eye(2), 0.0)


def test_error_bound_honesty(monkeypatch):
    # the tail part of the bound is a closed form: no scalar Gamma(s, x) call
    calls = []
    monkeypatch.setattr(specfun, "upper_incomplete_gamma", lambda *a: calls.append(a))
    Q = det1(np.array([[1.5, 0.2], [0.2, 1.0]]))
    s = 1.3 + 4.0j
    loose = epstein.epstein_zeta(Q, s, tol=1e-6)
    tight = epstein.epstein_zeta(Q, s, tol=1e-13)
    assert abs(loose.value - tight.value) <= loose.error_bound + 1e-14
    assert calls == []


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_tail_bound_majorizes_its_gamma(r):
    # the derivation's 6 V_r (r/2) pi^{-r/2} Gamma(r/2 - 1, x_cut), where
    # x_cut = max(30, 3|s|, -1.2 log tol): the floor, |s| = 12, 20 and 33.3,
    # tol = 1e-300 (829), and 27.6 (tol = 1e-10) below the floor
    mpmath = pytest.importorskip("mpmath")
    V = math.pi ** (r / 2.0) / math.gamma(r / 2.0 + 1.0)
    for x_cut in (27.6, 30.0, 36.0, 60.0, 100.0, 829.0):
        exact = 6.0 * V * (r / 2.0) * math.pi ** (-r / 2.0) * mpmath.gammainc(r / 2.0 - 1.0, x_cut)
        assert epstein._tail_bound(r, x_cut) >= float(exact)


def _laurent_one_call_per_node(Q, center, max_order=1, radius=0.1, nodes=64, tol=1e-8):
    """Reference ring: one epstein_zeta call at every node of every ring."""
    center = complex(center)
    orders = np.arange(-1, max_order + 1)
    prev, m = None, nodes
    while True:
        theta = 2.0 * math.pi * np.arange(m) / m
        ring = center + radius * np.exp(1j * theta)
        f = np.array([epstein.epstein_zeta(Q, sv).value for sv in ring])
        phases = np.exp(-1j * np.outer(orders, theta))
        cur = (phases @ f) / m * radius ** (-orders.astype(float))
        if prev is not None and np.max(np.abs(cur - prev)) < tol * (np.max(np.abs(cur)) + 1.0):
            return list(cur)
        prev, m = cur, 2 * m


def _random_det1(r, seed):
    B = np.random.default_rng(seed).normal(size=(r, r)) * 0.25
    return det1(np.eye(r) + B @ B.T)


@pytest.mark.parametrize("Q, center, max_order", [
    (np.eye(2), 1.0, 1),
    (_random_det1(3, 11), 1.5, 1),
    (_random_det1(4, 12), 2.0, 1),
    (np.eye(2), 0.75, 3),
])
def test_laurent_reuses_nodes_bit_for_bit(Q, center, max_order):
    exp = epstein.epstein_laurent(Q, center, max_order=max_order)
    assert exp.coefficients == _laurent_one_call_per_node(Q, center, max_order)


def test_plan_matches_epstein_zeta_bit_for_bit():
    # one plan serves every s and tol (several enumeration radii) with the
    # same bits as a fresh epstein_zeta call
    for Q in (np.array([[3.0, 0.4], [0.4, 1.2]]), _random_det1(3, 5)):
        plan = epstein._EpsteinPlan(Q)
        for tol in (1e-10, 1e-13):
            for s in (2.7, 3.6 + 0.0j, 0.4 + 1.5j, 0.9 - 0.2j, 11.0 + 4.0j, -3.0 + 9.5j):
                assert plan.evaluate(s, tol) == epstein.epstein_zeta(Q, s, tol)


def test_laurent_ring_enumerates_once(monkeypatch):
    counts = {"enumerate_vectors": 0, "cholesky": 0}

    def counted(owner, name):
        func = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(lattice, "enumerate_vectors")
    counted(np.linalg, "cholesky")
    epstein.epstein_laurent(np.eye(2), 1.0)
    assert counts["enumerate_vectors"] == 2
    assert counts["cholesky"] <= 4


def test_laurent_nonconvergence_raises(monkeypatch):
    # tol = 0 can never be met: the ring doubles up to 512 nodes, then raises
    monkeypatch.setattr(epstein, "_RING_TOL", 0.0)
    with pytest.raises(epstein.LaurentConvergenceError):
        epstein.epstein_laurent(np.eye(2), 1.0)
