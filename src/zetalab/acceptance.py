"""Self-contained acceptance checks for the whole laboratory.

Each criterion compares an implementation path against an independent oracle
(brute-force lattice sums, closed forms, finite differences, phase counting)
at a fixed tolerance.  ``run_all`` executes every criterion and is what the
CLI ``selftest`` subcommand and the acceptance test suite both call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import eisenstein, epstein, hamiltonian, lattice, specfun, spectral

__all__ = ["CriterionResult", "CRITERIA", "run_all", "brute_force_epstein"]

@dataclass
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_BRUTE_RADII = {2: 4000.0, 3: 400.0, 4: 120.0}


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def brute_force_epstein(Q: np.ndarray, s: complex) -> complex:
    """Dirichlet-series oracle for Z_r(Q, s), Re s > r/2 only.

    Sums Q[v]^{-s} with a smooth cutoff between R = _BRUTE_RADII[r] and 2R
    and replaces the smoothed tail by its density integral; the smooth window
    makes the lattice-vs-integral error decay faster than any power of R.
    Shares no code with the incomplete-gamma continuation.
    """
    Q = lattice.validate_gram(Q)
    r = Q.shape[0]
    s = complex(s)
    if s.real <= r / 2.0 + 0.5:
        raise ValueError("brute-force oracle needs Re s comfortably above r/2")
    R = _BRUTE_RADII[r]
    vs = lattice.enumerate_vectors(Q, 2.0 * R)
    vals = lattice.quadratic_values(Q, vs)
    weight = 1.0 - _smooth_step((vals - R) / R)
    head = complex(np.sum(vals ** (-s) * weight))

    det = float(np.linalg.det(Q))
    V_r = math.pi ** (r / 2.0) / math.gamma(r / 2.0 + 1.0)
    density = V_r * (r / 2.0) / math.sqrt(det)  # dN/dt ~ density * t^{r/2-1}
    x, w = spectral.gl_grid(R, 2.0 * R, R / 40.0, 12)
    ramp = _smooth_step((x - R) / R)
    window = complex(np.sum(w * ramp * density * x ** (r / 2.0 - 1.0 - s)))
    far_tail = density / (s - r / 2.0) * (2.0 * R) ** (r / 2.0 - s)
    return head + window + far_tail


def _random_gram(rng: np.random.Generator, r: int) -> np.ndarray:
    """Random well-conditioned det-1 form (eigenvalues near 1)."""
    B = rng.normal(size=(r, r)) * 0.25
    Q = np.eye(r) + B @ B.T
    Qn, _ = lattice.normalize_det(Q)
    return Qn


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _c01_epstein_oracle(rng) -> tuple[bool, dict]:
    """Continuation vs brute-force Dirichlet series, 1e-9 relative."""
    worst = 0.0
    for r in (2, 3):
        for _ in range(10):
            Q = _random_gram(rng, r)
            s = r / 2.0 + 1.5
            oracle = brute_force_epstein(Q, s)
            val = epstein.epstein_zeta(Q, s).value
            worst = max(worst, abs(val - oracle) / abs(oracle))
    return worst < 1e-9, {"max_rel_error": worst, "tolerance": 1e-9}


def _c02_functional_equation(rng) -> tuple[bool, dict]:
    worst = 0.0
    for r in (2, 3, 4):
        for _ in range(10):
            Q = _random_gram(rng, r)
            sigma = rng.uniform(0.3, r / 2.0 - 0.3)
            if abs(sigma - r / 4.0) < 1e-3:
                sigma += 0.05
            s = complex(sigma, rng.uniform(-2.0, 2.0))
            worst = max(worst, epstein.check_functional_equation(Q, s))
    return worst < 1e-9, {"max_residual": worst, "tolerance": 1e-9}


def _c03_residue(rng) -> tuple[bool, dict]:
    worst = 0.0
    for r in (2, 3, 4):
        target = math.pi ** (r / 2.0) / math.gamma(r / 2.0)
        for Q in (np.eye(r), _random_gram(rng, r)):
            worst = max(worst, abs(epstein.epstein_residue(Q) - target))
    return worst < 1e-7, {"max_deviation": worst, "tolerance": 1e-7}


def _c04_kronecker(rng) -> tuple[bool, dict]:
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    worst = max(eisenstein.kronecker_limit_check(z)
                for z in (1j, omega, complex(0.3, 1.7)))
    return worst < 1e-6, {"max_residual": worst, "tolerance": 1e-6}


def _c05_terras(rng) -> tuple[bool, dict]:
    worst = 0.0
    for r, ell in ((3, 1), (3, 2), (4, 2)):
        closed = eisenstein.terras_limit(np.eye(r), ell)
        a0 = epstein.epstein_laurent(np.eye(r), r / 2.0, max_order=0).coefficient(0).real
        worst = max(worst, abs(closed - a0) / abs(a0))
    return worst < 1e-4, {"max_rel_error": worst, "tolerance": 1e-4}


def _c06_heegner(rng) -> tuple[bool, dict]:
    worst = 0.0
    zeta2 = specfun.riemann_zeta(2.0)
    for D in (-3, -4, -7):
        lhs = eisenstein.heegner_zeta(2.0, D)
        rhs = zeta2 * specfun.dirichlet_L(2.0, D)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst < 1e-7, {"max_rel_error": worst, "tolerance": 1e-7}


def _c07_eigenfunction(rng) -> tuple[bool, dict]:
    """|Delta E_s - s(s-1) E_s| / |E_s| by Richardson finite differences."""
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.2))
        s = complex(rng.uniform(0.7, 2.4), rng.uniform(-0.8, 0.8))

        def f(p, s=s):
            return eisenstein.eisenstein_sl2(p, s).value

        lap = hamiltonian.fd_laplacian(f, z, 1e-3)
        Ez = f(z)
        worst = max(worst, abs(lap - s * (s - 1.0) * Ez) / abs(Ez))
    return worst < 1e-5, {"max_rel_error": worst, "tolerance": 1e-5}


def _c08_laplace_constant(rng) -> tuple[bool, dict]:
    values = []
    for _ in range(10):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0))
        value, dev = hamiltonian.check_laplace_e1star(z)
        values.append(value)
        if dev >= 1e-5:
            return False, {"deviation": dev, "z": [z.real, z.imag]}
    spread = max(values) - min(values)
    return spread < 1e-5, {"spread": spread, "tolerance": 1e-5}


# the convergence ladder runs at steps where the O(h^4) stencil error still
# dominates round-off (residuals are already ~1e-9 at h = 1e-3, so halving
# ratios there only measure noise)
_CONVERGENCE_POINT = complex(0.21, 0.52)
_CONVERGENCE_STEPS = (4e-2, 2e-2, 1e-2)


def _c09_ground_state(rng) -> tuple[bool, dict]:
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0))
        worst = max(worst, hamiltonian.ground_state_residual(z, 1e-3))
    res = [hamiltonian.ground_state_residual(_CONVERGENCE_POINT, h)
           for h in _CONVERGENCE_STEPS]
    ratios = [res[0] / res[1], res[1] / res[2]]
    ok = worst < 1e-4 and all(rho >= 8.0 for rho in ratios)
    return ok, {"max_residual": worst, "halving_ratios": ratios,
                "residuals": res, "tolerance": 1e-4}


def _c10_potential_growth(rng) -> tuple[bool, dict]:
    xs = np.linspace(-0.5, 0.5, 41)
    min_ratio = math.inf
    for y in np.linspace(4.0, 50.0, 24):
        ratio = min(hamiltonian.potential_q(complex(x, y)) / (y * y) for x in xs)
        min_ratio = min(min_ratio, ratio)
    worst_asym = 0.0
    for y in (10.0, 15.0, 20.0, 30.0, 40.0, 50.0):
        model = (1.0 - 3.0 / (math.pi * y)) ** 2
        worst_asym = max(worst_asym, abs(hamiltonian.potential_q(1j * y) / (y * y) - model))
    return min_ratio >= 0.5 and worst_asym < 1e-6, \
        {"min_q_over_y2": min_ratio, "max_asymptote_dev": worst_asym}


def _c11_exotic_roots(rng) -> tuple[bool, dict]:
    detail = {}
    ok = True
    for a in (5.0, 10.0):
        roots = spectral.exotic_roots(a, 0.1, 50.0)
        max_res = max(r.residual for r in roots)
        predicted = spectral.root_count_prediction(a, 0.1, 50.0)
        rows = spectral.spacing_statistics(roots)
        max_gap_dev = max(abs(row.gap - row.comparator) / row.gap for row in rows)
        ok = ok and max_res < 1e-8 and abs(len(roots) - predicted) <= 1 \
            and max_gap_dev < 0.02
        detail[f"a={a:g}"] = {"count": len(roots), "predicted": predicted,
                              "max_residual": max_res, "max_gap_dev": max_gap_dev}
    return ok, detail


_GREENS_TRIPLES = (
    (1j, 1.5 + 0.0j, 3.0),
    (1j, 1.25 + 0.6j, 2.0),
    (complex(-0.5, math.sqrt(3.0) / 2.0), 1.5 + 0.0j, 2.0),
)


def _c12_greens(rng) -> tuple[bool, dict]:
    detail = {}
    ok = True
    for z, w, a in _GREENS_TRIPLES:
        r300 = spectral.greens_constant_term_check(z, w, a, spectral.ContourConfig(T=300.0))
        r600 = spectral.greens_constant_term_check(z, w, a, spectral.ContourConfig(T=600.0))
        shift = abs(r600.lhs - r300.lhs)
        ok = ok and r300.rel_error < 1e-3 and shift <= r300.tail_bound \
            and r600.rel_error <= r300.rel_error
        detail[f"z={z:.3g},w={w:.3g},a={a:g}"] = {
            "rel_error_T300": r300.rel_error, "rel_error_T600": r600.rel_error,
            "lhs_shift": shift, "tail_bound_T300": r300.tail_bound}
    return ok, detail


def _c13_repulsion(rng) -> tuple[bool, dict]:
    report = spectral.repulsion_experiment(-4, 10.0, 10.0, 20.0,
                                           spectral.ContourConfig(T=120.0))
    factor_zeros = report.zk_zeros
    product_zeros = spectral.scan_zeros(
        lambda t: spectral.hardy_rotation_zeta(t) * spectral.hardy_rotation_L(t, -4),
        10.0, 20.0)
    max_dev = 0.0
    for t in product_zeros:
        max_dev = max(max_dev, min(abs(t - t2) for t2 in factor_zeros))
    ok = report.unique_per_interval and len(product_zeros) == len(factor_zeros) \
        and max_dev < 1e-6
    return ok, {"intervals": len(report.intervals),
                "unique_per_interval": report.unique_per_interval,
                "zeros_found": len(factor_zeros), "max_zero_dev": max_dev}


def _c14_specfun_floor(rng) -> tuple[bool, dict]:
    detail = {}
    # Gamma recurrence on a random grid away from poles
    worst = 0.0
    n = 0
    while n < 100:
        s = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(s) > 20 or (s.real < 0.5 and abs(s - round(s.real)) < 0.1) \
                or (s.real < -0.5 and abs(s + 1 - round(s.real + 1)) < 0.1):
            continue
        n += 1
        g1 = np.exp(specfun.log_gamma(s + 1.0))
        g0 = np.exp(specfun.log_gamma(s))
        worst = max(worst, abs(g1 - s * g0) / abs(g1))
    detail["gamma_recurrence"] = worst
    ok = worst < 1e-11

    # xi symmetry
    worst = 0.0
    for _ in range(30):
        s = complex(rng.uniform(-4, 5), rng.uniform(-5, 5))
        if abs(s) < 0.1 or abs(s - 1.0) < 0.1 or abs(s.imag) < 0.05:
            continue
        xs = specfun.xi_completed(s)
        worst = max(worst, abs(xs - specfun.xi_completed(1.0 - s)) / max(1.0, abs(xs)))
        worst = max(worst, abs(specfun.xi_completed(s.conjugate()) - xs.conjugate())
                    / max(1.0, abs(xs)))
    detail["xi_symmetry"] = worst
    ok = ok and worst < 1e-10

    # incomplete-gamma splicing
    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
        x = rng.uniform(0.05, 10.0)
        total = specfun.upper_incomplete_gamma(s, x) + specfun.lower_incomplete_gamma(s, x)
        gamma = np.exp(specfun.log_gamma(s))
        worst = max(worst, abs(total - gamma) / max(1.0, abs(gamma)))
    detail["gamma_splice"] = worst
    ok = ok and worst < 1e-10

    # K-Bessel: half-integer closed form and nu-symmetry
    worst_cf = 0.0
    worst_sym = 0.0
    for _ in range(50):
        z = rng.uniform(0.5, 10.0)
        closed = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
        worst_cf = max(worst_cf, abs(specfun.bessel_K(0.5, z) - closed) / closed)
        nu = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        kp = specfun.bessel_K(nu, z)
        km = specfun.bessel_K(-nu, z)
        worst_sym = max(worst_sym, abs(kp - km) / abs(kp))
    detail["bessel_closed_form"] = worst_cf
    detail["bessel_symmetry"] = worst_sym
    ok = ok and worst_cf < 1e-11 and worst_sym < 1e-11

    # eta modularity for random SL2(Z) elements
    worst = 0.0
    for _ in range(20):
        g = np.eye(2, dtype=int)
        for _ in range(rng.integers(1, 6)):
            if rng.random() < 0.5:
                n = int(rng.integers(-2, 3))
                g = g @ np.array([[1, n], [0, 1]])
            else:
                g = g @ np.array([[0, -1], [1, 0]])
        if np.max(np.abs(g)) > 10:
            continue
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.3, 2.0))
        gz = lattice.apply_mobius(g, z)
        c, d = g[1]
        lhs = abs(specfun.dedekind_eta(gz))
        rhs = math.sqrt(abs(c * z + d)) * abs(specfun.dedekind_eta(z))
        worst = max(worst, abs(lhs - rhs))
    detail["eta_modularity"] = worst
    ok = ok and worst < 1e-9

    # psi = arg xi(1+2it): no raise on the grid, continuous across it
    sample = specfun.psi_arg_xi(60.0)
    increasing = bool(np.all(np.diff(sample.t_grid) > 0))
    detail["psi_max_step"] = sample.max_step
    ok = ok and sample.max_step < math.pi and increasing
    return ok, detail


def _c15_factorization(rng) -> tuple[bool, dict]:
    """S = (D - D beta)(D + D beta) + Delta beta by stencils, beta = E_1^*.

    The lowering operator D + D beta annihilates the ground state e^{-beta},
    and S f - R L f = (3/pi) f holds for each probe f.
    """
    worst_lowering = 0.0
    worst = {}
    for _ in range(10):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0))
        worst_lowering = max(worst_lowering, hamiltonian.lowering_residual(z))
        for probe, res in hamiltonian.commutator_residuals(z).items():
            worst[probe] = max(worst.get(probe, 0.0), res)
    ok = worst_lowering < 1e-5 and max(worst.values()) < 1e-4
    return ok, {"max_lowering_residual": worst_lowering, "max_probe_residuals": worst,
                "lowering_tolerance": 1e-5, "probe_tolerance": 1e-4}


CRITERIA = [
    ("epstein-oracle", _c01_epstein_oracle),
    ("functional-equation", _c02_functional_equation),
    ("residue", _c03_residue),
    ("kronecker-limit", _c04_kronecker),
    ("block-limit", _c05_terras),
    ("heegner-identity", _c06_heegner),
    ("eigenfunction", _c07_eigenfunction),
    ("laplace-constant", _c08_laplace_constant),
    ("ground-state", _c09_ground_state),
    ("potential-growth", _c10_potential_growth),
    ("exotic-roots", _c11_exotic_roots),
    ("greens-constant-term", _c12_greens),
    ("repulsion", _c13_repulsion),
    ("specfun-floor", _c14_specfun_floor),
    ("factorization", _c15_factorization),
]


def run_all(names: list[str] | None = None, seed: int = 12345) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default) with a seeded RNG."""
    table = dict(CRITERIA)
    selected = list(table) if names is None else names
    results = []
    for name in selected:
        if name not in table:
            raise KeyError(f"unknown criterion {name!r}")
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        passed, detail = table[name](rng)
        results.append(CriterionResult(name=name, passed=bool(passed),
                                       elapsed=time.perf_counter() - start,
                                       detail=detail))
    return results
