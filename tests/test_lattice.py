"""Quadratic-form utilities: Cholesky, enumeration, SL2 reduction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import lattice


def random_spd(rng, r, spread=0.4):
    B = rng.normal(size=(r, r)) * spread
    return np.eye(r) + B @ B.T


def test_cholesky_reconstruction():
    rng = np.random.default_rng(7)
    for r in (2, 3, 4, 5):
        Q = random_spd(rng, r)
        L = lattice.cholesky(Q)
        assert np.allclose(L @ L.T, Q, atol=1e-12)
        assert np.allclose(L, np.tril(L))


def test_cholesky_diagonal():
    L = lattice.cholesky(np.diag([4.0, 9.0]))
    assert np.allclose(L, np.diag([2.0, 3.0]))


def test_validate_gram_rejects():
    # every entry point that factorizes a Gram matrix runs the same checks
    for check in (lattice.validate_gram, lattice.cholesky,
                  lambda Q: lattice.enumerate_vectors(Q, 4.0)):
        with pytest.raises(lattice.NotPositiveDefiniteError):
            check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            check(np.eye(7))
        with pytest.raises(ValueError):
            check(np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ValueError):
            check(np.ones((2, 3)))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                check(np.array([[1.0, 0.0], [0.0, bad]]))


def test_normalize_det():
    rng = np.random.default_rng(3)
    Q = random_spd(rng, 3)
    Qn, scale = lattice.normalize_det(Q)
    assert abs(np.linalg.det(Qn) - 1.0) < 1e-12
    assert np.allclose(Q, scale * Qn)


def test_quadratic_values_matches_loop():
    rng = np.random.default_rng(11)
    Q = random_spd(rng, 3)
    vs = rng.integers(-5, 6, size=(20, 3))
    vals = lattice.quadratic_values(Q, vs)
    for v, val in zip(vs, vals):
        assert abs(val - float(v @ Q @ v)) < 1e-12


def test_enumerate_identity_counts():
    # m^2 + n^2 <= R: classic lattice-point counts
    for R, count in ((1.0, 4), (2.0, 8), (4.0, 12), (8.0, 24)):
        vs = lattice.enumerate_vectors(np.eye(2), R)
        assert vs.shape[0] == count


def skewed_spd(rng, r, cond):
    O, _ = np.linalg.qr(rng.normal(size=(r, r)))
    return O @ np.diag(np.geomspace(1.0, cond, r)) @ O.T


@pytest.mark.parametrize("r, R, cond", [(2, 40.0, None), (3, 20.0, None), (4, 12.0, None),
                                        (5, 8.0, None), (3, 20.0, 1e3)],
                         ids=["r2", "r3", "r4", "r5", "r3-cond1e3"])
def test_enumerate_matches_box_scan(r, R, cond):
    rng = np.random.default_rng(5)
    Q = random_spd(rng, r) if cond is None else skewed_spd(rng, r, cond)
    # brute-force box scan: the smallest eigenvalue bounds the coordinates,
    # and itertools.product walks the box in lexicographic order
    lam = np.min(np.linalg.eigvalsh(Q))
    n = int(math.ceil(math.sqrt(R / lam))) + 1
    box = np.array(list(itertools.product(range(-n, n + 1), repeat=r)))
    values = np.einsum("ij,jk,ik->i", box, Q, box)
    expected = box[(values <= R + 1e-12) & box.any(axis=1)]
    vs = lattice.enumerate_vectors(Q, R)
    assert vs.dtype == expected.dtype and np.array_equal(vs, expected)


@pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
def test_enumerate_rejects_radius(R):
    with pytest.raises(ValueError):
        lattice.enumerate_vectors(np.eye(2), R)


def test_enumerate_invariants():
    rng = np.random.default_rng(9)
    Q = random_spd(rng, 2)
    R = 15.0
    vs = lattice.enumerate_vectors(Q, R)
    vals = lattice.quadratic_values(Q, vs)
    assert np.all(vals <= R + 1e-9)
    assert not any((v == 0).all() for v in vs)
    got = {tuple(v) for v in vs}
    assert all(tuple(-np.asarray(v)) in got for v in got)


def test_enumerate_unimodular_invariance():
    rng = np.random.default_rng(21)
    for r in (2, 3):
        Q, _ = lattice.normalize_det(random_spd(rng, r))
        U = np.eye(r, dtype=int)
        U[0, -1] = 2
        U[-1, 0] = 1 if r == 2 else 0
        if r == 2:
            U = np.array([[1, 2], [1, 3]])  # det 1
        Q2 = U.T @ Q @ U
        v1 = np.sort(lattice.quadratic_values(Q, lattice.enumerate_vectors(Q, 12.0)))
        v2 = np.sort(lattice.quadratic_values(Q2, lattice.enumerate_vectors(Q2, 12.0)))
        assert v1.shape == v2.shape
        assert np.allclose(v1, v2, atol=1e-9)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(lattice, "ENUM_CAP", 1000)
    # R = 1e9 (about 3e9 vectors) trips the cap at the first level, before
    # any row is built; R = 400 (1256 vectors) only at the last one
    for R in (1e9, 400.0):
        with pytest.raises(lattice.EnumerationCapError):
            lattice.enumerate_vectors(np.eye(2), R)
    assert lattice.enumerate_vectors(np.eye(2), 300.0).shape == (948, 2)


def test_as_point_validation():
    assert lattice.as_point(complex(0.3, 1.5)) == complex(0.3, 1.5)
    with pytest.raises(ValueError):
        lattice.as_point(complex(0.3, -1.0))
    with pytest.raises(ValueError):
        lattice.as_point(complex(0.3, 0.0))


def test_reduce_sl2_fixed_points():
    z, gamma = lattice.reduce_sl2(1j)
    assert abs(z - 1j) < 1e-15
    z, gamma = lattice.reduce_sl2(0.25 + 1.3j)
    assert abs(z - (0.25 + 1.3j)) < 1e-15
    assert np.allclose(gamma, np.eye(2))


def test_reduce_sl2_properties():
    rng = np.random.default_rng(17)
    for _ in range(30):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
        w, gamma = lattice.reduce_sl2(z)
        assert abs(round(float(np.linalg.det(gamma))) - 1) < 1e-9
        assert abs(lattice.apply_mobius(gamma, z) - w) < 1e-9
        assert abs(w.real) <= 0.5 + 1e-12
        assert abs(w) >= 1.0 - 1e-12
        w2, _ = lattice.reduce_sl2(w)
        assert abs(w2 - w) < 1e-12


def test_gram_of_point():
    z = 0.5 + 2j
    Q = lattice.gram_of_point(z)
    assert abs(np.linalg.det(Q) - 1.0) < 1e-13
    # Q[(m, n)] = |m z + n|^2 / y
    for m in range(-5, 6):
        for n in range(-5, 6):
            v = np.array([m, n])
            assert abs(float(v @ Q @ v) - abs(m * z + n) ** 2 / z.imag) < 1e-12
    assert abs(lattice.point_of_gram(Q) - z) < 1e-12


def test_gram_point_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 4))
        assert abs(lattice.point_of_gram(lattice.gram_of_point(z)) - z) < 1e-11


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.05, 5.0))
def test_mobius_inversion_round_trip(x, y):
    z = complex(x, y)
    S = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = lattice.apply_mobius(S, z)
    assert abs(lattice.apply_mobius(-S, w) - z) < 1e-9 * max(1.0, abs(z))
