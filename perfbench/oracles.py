"""Independent oracles and the per-task checks.

Nothing here imports zetalab: every reference value comes from mpmath
(closed forms in zeta, L, eta and Gamma; an incomplete-gamma lattice sum
with its own enumeration) or from a numpy smooth-cutoff Dirichlet sum.
Tolerances are the ones the acceptance battery enforces; line values use
|got - ref| <= 1e-9 max(1, |ref|) because relative error is meaningless
next to the zeros of zeta L.

``check(task, output)`` returns a :class:`Check`; ``err_ratio`` is the
worst |got - ref| / tolerance over the task's compared values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from workloads import CM_FORMS

mp = mpmath.mp
fp = mpmath.fp
DPS = 20

# acceptance.py tolerances; potential rows, which have none of their own,
# use TOL_VALUE; line values and psi use an absolute rule that stays
# meaningful next to the zeros of zeta L
TOL_VALUE = 1e-9        # epstein-oracle: relative
TOL_FE = 1e-9           # functional-equation: absolute on the completed function
TOL_RESIDUE = 1e-7      # residue: absolute
TOL_KRONECKER = 1e-6    # kronecker-limit: absolute on a_0
TOL_BLOCK = 1e-4        # block-limit: relative
TOL_HEEGNER = 1e-7      # heegner-identity: relative
TOL_EIGEN = 1e-5        # eigenfunction: relative
TOL_LAPLACE = 1e-5      # laplace-constant: absolute
TOL_GROUND = 1e-4       # ground-state: residual
TOL_GREENS = 1e-3       # greens-constant-term: relative
TOL_ROOT = 1e-8         # exotic-roots: residual of a^w + c_w a^{1-w}
TOL_LINE = 1e-9         # line values and psi: |got - ref| <= tol max(1, |ref|)
TOL_ZERO = 1e-6         # repulsion: zero ordinates, here against mpmath's root finder
LINE_SAMPLES = 8
PSI_SAMPLES = 16


@dataclass
class Check:
    ok: bool
    err_ratio: float
    note: str = ""
    bound_miss: int | None = None  # 1/0 where an exact reference exists
    out_of_range: int = 0  # genuine zeros reported past the requested interval


# ---------------------------------------------------------------------------
# characters and closed forms
# ---------------------------------------------------------------------------

def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(D: int, n: int) -> int:
    """(D/n) for n >= 0 and a fundamental discriminant D."""
    if n == 0:
        return 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        result *= 1 if D % 8 in (1, 7) else -1
    return result * _jacobi(D, n) if n > 1 else result


def character(D: int) -> list:
    return [kronecker_symbol(D, n) for n in range(abs(D))]


def zeta_k(s, D: int, ctx=mp):
    """Dedekind zeta of Q(sqrt D) = zeta(s) L(s, chi_D)."""
    return ctx.zeta(s) * ctx.dirichlet(s, character(D))


def z2_cm(D: int, s, ctx=mp):
    """Z_2 at the principal form of discriminant D: w_K (sqrt|D|/2)^s zeta_K(s)."""
    wk = CM_FORMS[D][2]
    return wk * (ctx.sqrt(abs(D)) / 2) ** s * zeta_k(s, D, ctx)


def e_cm(D: int, s, ctx=mp):
    """E_s at the CM point tau_D."""
    return z2_cm(D, s, ctx) / (2 * ctx.zeta(2 * s))


def z4_identity(s):
    """Z_4(I, s) = 8 (1 - 4^{1-s}) zeta(s) zeta(s-1) (Jacobi's four squares)."""
    return 8 * (1 - mp.power(4, 1 - s)) * mp.zeta(s) * mp.zeta(s - 1)


def residue(r: int) -> float:
    return float(mp.pi ** (mp.mpf(r) / 2) / mp.gamma(mp.mpf(r) / 2))


def kronecker_a0(z: complex):
    """2 pi (gamma - log 2 - log(sqrt y |eta(z)|^2)), the s = 1 constant term."""
    tau = mp.mpc(z.real, z.imag)
    return 2 * mp.pi * (mp.euler - mp.log(2) - mp.log(mp.sqrt(tau.imag) * abs(mp.eta(tau)) ** 2))


def e1_star(x, y):
    tau = mp.mpc(x, y)
    return 6 / mp.pi * (mp.euler - mp.log(2) - mp.log(y) / 2 - 2 * mp.log(abs(mp.eta(tau))))


def potential_q(x: float, y: float) -> float:
    """y^2 |grad E_1^*|^2 with the gradient by mpmath numerical differentiation."""
    gx = mp.diff(lambda u: e1_star(u, y), x)
    gy = mp.diff(lambda v: e1_star(x, v), y)
    return float(y * y * (gx * gx + gy * gy))


# ---------------------------------------------------------------------------
# lattice sums with their own enumeration
# ---------------------------------------------------------------------------

def lattice_values(Q: np.ndarray, X: float):
    """Distinct values Q[v] <= X over v in Z^r \\ {0}, with multiplicities.

    Box enumeration |v_i| <= sqrt(X (Q^{-1})_ii), one slab of the last
    coordinate at a time.
    """
    Q = np.asarray(Q, dtype=float)
    r = Q.shape[0]
    b = np.floor(np.sqrt(X * np.diag(np.linalg.inv(Q))) + 1e-9).astype(int)
    axes = [np.arange(-bi, bi + 1, dtype=float) for bi in b[:-1]]
    G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r - 1)
    head = np.einsum("ij,jk,ik->i", G, Q[:-1, :-1], G)
    cross = 2.0 * (G @ Q[:-1, -1])
    chunks = []
    for c in range(-b[-1], b[-1] + 1):
        vals = head + c * cross + c * c * Q[-1, -1]
        chunks.append(vals[vals <= X])
    vals = np.concatenate(chunks)
    vals = vals[vals > 0.5 * np.min(np.linalg.eigvalsh(Q))]  # drops v = 0 only
    return np.unique(vals, return_counts=True)


def _normalized(Q):
    Q = np.asarray(Q, dtype=float)
    r = Q.shape[0]
    c = float(np.linalg.det(Q)) ** (1.0 / r)
    return Q / c, c, r


_X_CUT = 40.0  # x^{-a} Gamma(a, x) ~ e^{-x}/x: terms beyond are below 1e-18


def _bracket_side(Q, a):
    vals, mult = lattice_values(Q, _X_CUT / math.pi)
    total = mp.mpf(0)
    for q, m in zip(vals, mult):
        x = mp.pi * mp.mpf(float(q))
        total += int(m) * x ** (-a) * mp.gammainc(a, x)
    return total


def epstein_mp(Q, s):
    """Z_r(Q, s) from the theta split at t = 1 and Poisson summation, in mpmath.

    pi^{-s} Gamma(s) Z(s) = sum_v (pi Q[v])^{-s} Gamma(s, pi Q[v])
        + sum_w (pi Q^{-1}[w])^{s - r/2} Gamma(r/2 - s, pi Q^{-1}[w])
        + 1/(s - r/2) - 1/s   for det Q = 1; Z(cQ, s) = c^{-s} Z(Q, s).
    """
    Qn, c, r = _normalized(Q)
    with mp.workdps(DPS):
        s = mp.mpc(s)
        h = mp.mpf(r) / 2
        B = (_bracket_side(Qn, s) + _bracket_side(np.linalg.inv(Qn), h - s)
             + 1 / (s - h) - 1 / s)
        return complex(mp.pi ** s / mp.gamma(s) * B * mp.mpf(c) ** (-s))


def epstein_constant_term(Q) -> float:
    """lim_{s -> r/2} (Z_r(Q, s) - a_{-1}/(s - r/2)) from the same split.

    With g(s) = pi^s / Gamma(s) and det-1 Q:
    a_0 = g(r/2) (F(r/2) + log pi - psi(r/2) - 2/r), where F is the sum of the
    two incomplete-gamma series (the dual one is E_1 at s = r/2).
    """
    Qn, c, r = _normalized(Q)
    with mp.workdps(DPS):
        h = mp.mpf(r) / 2
        g = mp.pi ** h / mp.gamma(h)
        F = _bracket_side(Qn, h) + _bracket_side(np.linalg.inv(Qn), mp.mpf(0))
        a0 = g * (F + mp.log(mp.pi) - mp.digamma(h) - 1 / h)
        cc = mp.mpf(c)
        return float(cc ** (-h) * (a0 - g * mp.log(cc)))


def _smooth_step(u):
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


BRUTE_RADII = {2: 4000.0, 3: 800.0, 4: 400.0}  # error < 1e-10 down to s = r/2 + 1


def epstein_brute(Q, s: float) -> complex:
    """Smooth-cutoff Dirichlet sum of Q[v]^{-s} for real s > r/2 + 1/2.

    The weight falls smoothly from 1 at R to 0 at 2R and the smoothed-away
    tail is replaced by its lattice-point density integral, so the error
    decays faster than any power of R.
    """
    Q = np.asarray(Q, dtype=float)
    r = Q.shape[0]
    R = BRUTE_RADII[r]
    vals, mult = lattice_values(Q, 2.0 * R)
    head = float(np.sum(mult * vals ** (-s) * (1.0 - _smooth_step((vals - R) / R))))
    density = math.pi ** (r / 2.0) / math.gamma(r / 2.0 + 1.0) * (r / 2.0) \
        / math.sqrt(float(np.linalg.det(Q)))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(R, 2.0 * R, 41)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    window = float(np.sum(w * _smooth_step((x - R) / R) * density * x ** (r / 2.0 - 1.0 - s)))
    far = density / (s - r / 2.0) * (2.0 * R) ** (r / 2.0 - s)
    return complex(head + window + far)


# ---------------------------------------------------------------------------
# critical line
# ---------------------------------------------------------------------------

def psi(t: float) -> float:
    """arg xi(1 + 2it) on the branch that tends to -pi/2 as t -> 0+.

    log Gamma is mpmath's analytic branch; arg zeta(1 + 2it) stays inside
    (-pi, pi) on the heights used here, so its principal value is continuous.
    """
    s = fp.mpc(1.0, 2.0 * t)
    return float((-(s / 2) * fp.log(fp.pi) + fp.loggamma(s / 2) + fp.log(fp.zeta(s))).imag)


def scattering_residual(a: float, t: float) -> float:
    """|a^w + c_w a^{1-w}| at w = 1/2 + it with c_w = xi(2w - 1)/xi(2w)."""
    with mp.workdps(DPS):
        w = mp.mpc(0.5, t)

        def log_xi(s):
            return -(s / 2) * mp.log(mp.pi) + mp.loggamma(s / 2) + mp.log(mp.zeta(s))

        c = mp.exp(log_xi(2 * w - 1) - log_xi(2 * w))
        return float(abs(mp.power(a, w) + c * mp.power(a, 1 - w)))


# ---------------------------------------------------------------------------
# per-task checks
# ---------------------------------------------------------------------------

def _cx(v) -> complex:
    return complex(v[0], v[1])


def _rel(got, ref) -> float:
    return abs(got - ref) / abs(ref)


def _line(got, ref) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def _ratio(*pairs) -> Check:
    """pairs of (error, tolerance) -> Check that passes when every error < tol."""
    ratio = max(err / tol for err, tol in pairs)
    return Check(ok=bool(ratio < 1.0), err_ratio=float(ratio))


def _check_single(t, out):
    value, bound = _cx(out[0]), out[1]
    form, Q, s = t["form"], t["Q"], _cx(t["s"])
    r = len(Q)
    exact = True
    if form.startswith("cm"):
        with mp.workdps(DPS):
            ref = complex(z2_cm(int(form[2:]), mp.mpc(s)))
    elif form == "I4":
        with mp.workdps(DPS):
            ref = complex(z4_identity(mp.mpc(s)))
    elif s.imag == 0.0 and s.real > r / 2.0 + 1.0:
        ref = epstein_brute(Q, s.real)
        exact = False
    else:
        ref = epstein_mp(Q, s)
    res = _ratio((_rel(value, ref), TOL_VALUE))
    if exact:
        res.bound_miss = int(abs(value - ref) > bound)
    return res


def _completed(s: complex, z: complex) -> complex:
    """pi^{-s} Gamma(s) z."""
    with mp.workdps(DPS):
        s = mp.mpc(s)
        return complex(mp.pi ** (-s) * mp.gamma(s) * mp.mpc(z))


def _check_fe_pair(t, out):
    s = _cx(t["s"])
    lam = _completed(s, _cx(out[0]))
    lam_dual = _completed(len(t["Q"]) / 2.0 - s, _cx(out[1]))
    return _ratio((abs(lam - lam_dual), TOL_FE))


def _check_residue(t, out):
    return _ratio((abs(out - residue(len(t["Q"]))), TOL_RESIDUE))


def _check_kronecker(t, out):
    with mp.workdps(DPS):
        a0 = complex(kronecker_a0(_cx(t["z"])))
    return _ratio((abs(_cx(out[0]) - math.pi), TOL_RESIDUE),
                  (abs(_cx(out[1]) - a0), TOL_KRONECKER))


def _check_block_limit(t, out):
    return _ratio((_rel(out, epstein_constant_term(t["Q"])), TOL_BLOCK))


def _check_line_values(t, out):
    got = np.array(out[0]) + 1j * np.array(out[1])
    taus = np.linspace(t["t"][0], t["t"][1], t["n"])
    if got.shape != taus.shape:
        return Check(False, math.inf, "wrong number of values")
    idx = np.unique(np.round(np.linspace(0, t["n"] - 1, LINE_SAMPLES)).astype(int))
    errs = [_line(got[i], complex(e_cm(t["D"], complex(0.5, taus[i]), fp))) for i in idx]
    return _ratio((max(errs), TOL_LINE))


def _check_psi_track(t, out):
    grid, values, max_step = np.array(out[0]), np.array(out[1]), out[2]
    if not (np.all(np.diff(grid) > 0) and max_step < math.pi and grid[-1] == t["t_max"]):
        return Check(False, math.inf, "grid not increasing, step >= pi or wrong end")
    idx = np.unique(np.round(np.linspace(0, grid.size - 1, PSI_SAMPLES)).astype(int))
    return _ratio((max(_line(values[i], psi(grid[i])) for i in idx), TOL_LINE))


def _check_greens(t, out):
    lhs, rhs = _cx(out[0]), _cx(out[1])
    with mp.workdps(DPS):
        w = mp.mpc(*t["w"])
        ref = complex(mp.power(t["a"], 1 - w) * e_cm(t["D"], w) / (1 - 2 * w))
    return _ratio((_rel(rhs, ref), TOL_VALUE), (_rel(lhs, ref), TOL_GREENS))


def _e_generic(z: complex, s: complex) -> complex:
    x, y = z.real, z.imag
    Q = [[(x * x + y * y) / y, x / y], [x / y, 1.0 / y]]
    with mp.workdps(DPS):
        return epstein_mp(Q, s) / complex(2 * mp.zeta(2 * mp.mpc(s)))


def _check_eigen_stencil(t, out):
    lap, value = _cx(out[0]), _cx(out[1])
    s = _cx(t["s"])
    ref = _e_generic(_cx(t["z"]), s)
    return _ratio((_rel(value, ref), TOL_VALUE),
                  (abs(lap - s * (s - 1.0) * ref) / abs(ref), TOL_EIGEN))


def _check_ground_state(t, out):
    return _ratio((abs(out), TOL_GROUND))


def _check_laplace_e1(t, out):
    return _ratio((abs(out - 3.0 / math.pi), TOL_LAPLACE))


def _check_potential_row(t, out):
    with mp.workdps(DPS):
        refs = [potential_q(x, t["y"]) for x in t["x"]]
    return _ratio((max(_rel(g, r) for g, r in zip(out, refs)), TOL_VALUE))


def _check_heegner(t, out):
    with mp.workdps(DPS):
        ref = complex(zeta_k(mp.mpc(*t["s"]), t["D"]))
    return _ratio((_rel(_cx(out), ref), TOL_HEEGNER))


def _check_exotic_roots(t, out):
    a, (lo, hi) = t["a"], t["t"]
    roots = list(out)
    if roots != sorted(roots) or any(not lo <= r <= hi for r in roots):
        return Check(False, math.inf, "roots unsorted or outside the interval")

    def count(u):
        return math.floor((u * math.log(a) + psi(u) + math.pi / 2) / math.pi)

    predicted = count(hi) - count(lo)
    if abs(len(roots) - predicted) > 1:
        return Check(False, math.inf, f"{len(roots)} roots, phase count predicts {predicted}")
    if not roots:
        return Check(True, 0.0)
    return _ratio((max(scattering_residual(a, r) for r in roots), TOL_ROOT))


def _check_zero_scan(t, out):
    """Every reported ordinate is a zero of zeta_K, and none in [lo, hi] is missing.

    The scan's last grid cell may end past ``hi``; genuine zeros reported
    there are counted in ``out_of_range`` (a finding, not a wrong value).
    """
    D, (lo, hi) = t["D"], t["t"]
    chi = character(D)
    zeros = list(out)
    if zeros != sorted(zeros) or any(z < lo for z in zeros):
        return Check(False, math.inf, "zeros unsorted or below the interval")
    worst = 0.0
    zeta_zeros = 0
    for z in zeros:
        s = complex(0.5, z)
        root = complex(fp.findroot(lambda u: fp.zeta(u) * fp.dirichlet(u, chi), s))
        worst = max(worst, abs(root - s))
        zeta_zeros += z <= hi and abs(fp.zeta(s)) < abs(fp.dirichlet(s, chi))
    expected = int(mp.nzeros(hi)) - int(mp.nzeros(lo))
    if zeta_zeros != expected:
        return Check(False, math.inf, f"{zeta_zeros} zeta zeros, N(T) gives {expected}")
    res = _ratio((worst, TOL_ZERO)) if zeros else Check(True, 0.0)
    res.out_of_range = sum(z > hi for z in zeros)
    return res


CHECKS = {
    "single": _check_single,
    "fe_pair": _check_fe_pair,
    "residue": _check_residue,
    "kronecker": _check_kronecker,
    "block_limit": _check_block_limit,
    "line_values": _check_line_values,
    "psi_track": _check_psi_track,
    "greens": _check_greens,
    "eigen_stencil": _check_eigen_stencil,
    "ground_state": _check_ground_state,
    "laplace_e1": _check_laplace_e1,
    "potential_row": _check_potential_row,
    "heegner": _check_heegner,
    "exotic_roots": _check_exotic_roots,
    "zero_scan": _check_zero_scan,
}

# Kinds whose acceptance tolerance is looser than a relative 1e-6 change of
# their output; the self-test perturbs these by ten times their tolerance.
LOOSE_KINDS = {"block_limit": TOL_BLOCK, "ground_state": TOL_GROUND,
               "laplace_e1": TOL_LAPLACE}


def check(task: dict, output) -> Check:
    try:
        return CHECKS[task["kind"]](task, output)
    except Exception as exc:  # a malformed output, or an oracle that cannot confirm it
        return Check(False, math.inf, f"check raised {exc!r}")
