"""Critical-line spectral experiments.

* Exotic pseudo-Laplacian eigenparameters: w = 1/2 + it with
  a^w + c_w a^{1-w} = 0, reduced on the line (|c_w| = 1, arg c_w = -2 psi(t))
  to cos(t log a + psi(t)) = 0 with psi(t) = arg xi(1+2it).
* Spacing of those roots against the exact comparator pi/(log a + psi'(t)).
* The Green's-function constant-term identity: the spectral-expansion
  contour integral over Re s = 1/2 against the closed form
  a^{1-w} E_w(z)/(1-2w).
* The J(w) pairing integral and the repulsion experiment comparing
  cos(Theta) J(w) with sin(Theta) |thetaE_w|^2 / (2 tau).

Contour quadrature is composite Gauss-Legendre (panels of width 0.5,
16 nodes each by default) with explicit 1/tau^2 tail bounds; the
oscillatory integrand sharpens the Green's-check tail bound to
O(1/(phi T^2)) with phase slope phi = log a - |log y|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import eisenstein, lattice, specfun

__all__ = [
    "ContourConfig",
    "GreensResult",
    "INNER_ONE_ONE",
    "RepulsionReport",
    "SpacingRow",
    "SpectralRoot",
    "exotic_roots",
    "gl_grid",
    "greens_constant_term_check",
    "hardy_rotation_L",
    "hardy_rotation_zeta",
    "J_function",
    "modular_domain_volume",
    "repulsion_experiment",
    "root_count_prediction",
    "scan_zeros",
    "spacing_statistics",
    "zeta_k_line_zeros",
]

# <1, 1> on SL2(Z)\H with measure dx dy / y^2
INNER_ONE_ONE = math.pi / 3.0

# width of one Gauss-Legendre panel on every critical-line contour
_PANEL_WIDTH = 0.5


def modular_domain_volume(panels: int = 200) -> float:
    """vol(SL2(Z)\\H) = int_{-1/2}^{1/2} dx / sqrt(1-x^2) by quadrature.

    Cross-checks the hard-coded <1,1> = pi/3 before the spectral formulas
    rely on it.
    """
    x, w = gl_grid(-0.5, 0.5, 1.0 / panels, 8)
    return float(w @ (1.0 / np.sqrt(1.0 - x * x)))


@dataclass(frozen=True)
class ContourConfig:
    """Truncated Re s = 1/2 contour: height T, Gauss-Legendre density."""

    T: float = 300.0
    nodes_per_unit: int = 32

    @property
    def nodes_per_panel(self) -> int:
        return max(2, int(self.nodes_per_unit * _PANEL_WIDTH))


@dataclass(frozen=True)
class SpectralRoot:
    t: float
    w: complex
    lam: float  # w(w-1) = -1/4 - t^2
    residual: float  # |a^w + c_w a^{1-w}|
    a: float


@dataclass(frozen=True)
class SpacingRow:
    t: float  # midpoint of the gap
    gap: float
    comparator: float  # pi / (log a + psi'(t))
    pi_over_log_t: float


@dataclass(frozen=True)
class GreensResult:
    lhs: complex
    rhs: complex
    rel_error: float
    T: float
    tail_bound: float
    quad_error: float


def gl_grid(lo: float, hi: float, panel_width: float, nodes: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    n_panels = max(1, int(math.ceil((hi - lo) / panel_width - 1e-12)))
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    xs = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel()
    return xs, ws


# ---------------------------------------------------------------------------
# exotic roots and spacing
# ---------------------------------------------------------------------------

def _scattering_residual(t: np.ndarray, a: float) -> list[float]:
    """|a^w + c_w a^{1-w}| at each w = 1/2 + it, by the original complex equation."""
    w = 0.5 + 1j * t  # powers in Python complex: numpy's array power moves last bits
    return [abs(a ** wk + ck * a ** (1.0 - wk))
            for wk, ck in zip(w.tolist(), eisenstein.c_scattering(w).tolist())]


def _psi_exact(track: specfun.ArgTrack, t: np.ndarray) -> np.ndarray:
    """psi(t) recomputed from xi, branch-matched to the interpolated track.

    The track's linear interpolation carries O(step^2 * psi'') error, which
    the zeta fluctuations on Re s = 1 make as large as ~1e-2; root polishing
    needs the exact value on the track's continuous branch.
    """
    raw = specfun.xi_log(1.0 + 2j * t).imag
    approx = track.value(t)
    return raw + 2.0 * math.pi * np.round((approx - raw) / (2.0 * math.pi))


def _phase(track: specfun.ArgTrack, a: float, t):
    return t * math.log(a) + track.value(t)


def root_count_prediction(a: float, t_min: float, t_max: float,
                          track: specfun.ArgTrack) -> int:
    """Number of cosine zeros predicted by the phase increment."""
    lo, hi = _phase(track, a, np.array([t_min, t_max]))
    return int(math.floor((hi + math.pi / 2) / math.pi)
               - math.floor((lo + math.pi / 2) / math.pi))


def exotic_roots(a: float, t_min: float = 0.1, t_max: float = 50.0,
                 track: specfun.ArgTrack | None = None) -> list[SpectralRoot]:
    """All w = 1/2 + it in [t_min, t_max] with a^w + c_w a^{1-w} = 0.

    Roots are bracketed as sign changes of cos(t log a + psi(t)) on a dense
    grid, bisected together to 1e-13 in t, and re-validated against the
    original complex equation.
    """
    if a <= 1.0:
        raise ValueError("exotic_roots requires a > 1")
    if a < 2.0:
        warnings.warn("a < 2: the truncation theory assumes a well above 1")
    if t_min < 0.1:
        raise ValueError("t_min must be >= 0.1")
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    if track is None:
        track = specfun.psi_arg_xi(t_max + 1.0)

    def f(t: np.ndarray) -> np.ndarray:
        return np.cos(t * math.log(a) + _psi_exact(track, t))

    ts = np.arange(t_min, t_max + 0.005, 0.005)
    phi = np.cos(_phase(track, a, ts))
    i = np.nonzero(np.sign(phi[:-1]) * np.sign(phi[1:]) < 0)[0]
    # widen the brackets: interpolation error can push the exact root
    # slightly outside the grid cell that showed the sign change
    lo = np.maximum(t_min, ts[i] - 0.01)
    hi = np.minimum(t_max, ts[i + 1] + 0.01)
    ends = f(np.concatenate([lo, hi]))
    # same-sign ends are interpolation artifacts, no true crossing there
    crossing = ~(ends[:i.size] * ends[i.size:] > 0)
    t = _bisect(f, lo[crossing], hi[crossing], tol=1e-13)
    return [SpectralRoot(t=tk, w=0.5 + 1j * tk, lam=-0.25 - tk * tk, residual=res, a=a)
            for tk, res in zip(t.tolist(), _scattering_residual(t, a))]


def spacing_statistics(roots: list[SpectralRoot],
                       track: specfun.ArgTrack) -> list[SpacingRow]:
    """Consecutive gaps against the cosine-phase comparator pi/(log a + psi').

    psi' is taken by a symmetric difference across the gap itself: the
    spacing law is exact for the average slope over the interval, while the
    pointwise derivative fluctuates with zeta'/zeta on Re s = 1 and misses
    individual gaps by as much as ~15%.  The comparator therefore doubles as
    a check that consecutive roots really are adjacent phase crossings
    (a missed root would show up as a factor ~2 disagreement).
    """
    if len(roots) < 3:
        raise ValueError("need at least 3 roots for spacing statistics")
    a = roots[0].a
    t = np.array([r.t for r in roots])
    mid = 0.5 * (t[:-1] + t[1:])
    gap = t[1:] - t[:-1]
    psi = _psi_exact(track, np.concatenate([mid + 0.5 * gap, mid - 0.5 * gap]))
    comp = math.pi / (math.log(a) + (psi[:gap.size] - psi[gap.size:]) / gap)
    return [SpacingRow(t=m, gap=g, comparator=c, pi_over_log_t=math.pi / math.log(m))
            for m, g, c in zip(mid.tolist(), gap.tolist(), comp.tolist())]


# ---------------------------------------------------------------------------
# Eisenstein values on the critical line
# ---------------------------------------------------------------------------

def _line_values(z, taus: np.ndarray) -> np.ndarray:
    """E_{1/2+i tau}(z) on an array of heights.

    At a CM point the zeta_K factorization is used (stable at any height);
    elsewhere the incomplete-gamma continuation limits the height to ~40
    because of round-off cancellation.
    """
    w = lattice.as_point(z)
    D = eisenstein.match_cm_point(w)
    s = 0.5 + 1j * np.asarray(taus, dtype=float)
    if D is not None:
        return eisenstein.cm_line_values(D, s)
    if np.max(np.abs(taus)) > 40.0:
        raise ValueError(
            "contour heights above 40 need a CM evaluation point "
            "(double-precision continuation cancels beyond that height)")
    return np.array([eisenstein.eisenstein_sl2(w, sv).value for sv in s])


# ---------------------------------------------------------------------------
# Green's-function constant-term identity
# ---------------------------------------------------------------------------

def _greens_tail_bound(a: float, y: float, T: float, lam_w: complex) -> float:
    """Tail of the oscillatory contour integral beyond height T.

    Every term of (a^{1-s} + c_{1-s} a^s)(y^s + c_s y^{1-s}) oscillates with
    phase slope at least phi = log a - |log y| (the psi-dependent phases only
    add), so one integration by parts gives O(sqrt(a y)/(phi T^2)).
    """
    phi = math.log(a) - abs(math.log(y))
    amp = 2.0 * math.sqrt(a * y)
    denom = max(T * T - abs(lam_w), T * T / 2.0)
    if phi > 0.1:
        return 8.0 * amp / (math.pi * phi * denom)
    # non-oscillatory fallback: plain 1/tau^2 decay
    return amp / (math.pi * max(T - math.sqrt(abs(lam_w)), T / 2.0))


def _greens_integral(z, w: complex, a: float, T: float, nodes_per_panel: int) -> complex:
    taus, wts = gl_grid(0.0, T, _PANEL_WIDTH, nodes_per_panel)
    s = 0.5 + 1j * taus
    lam_s = -0.25 - taus * taus
    lam_w = w * (w - 1.0)
    E = _line_values(z, taus)
    # on the line c_{1-s} = xi(1+2i tau)/xi(1-2i tau) = exp(2i Im log xi(2s))
    numer = (a ** (1.0 - s) + np.exp(2j * specfun.xi_log(2.0 * s).imag) * a ** s) * E
    # integrand at -tau conjugates the numerator only (lam_s is even),
    # so the full [-T, T] integral folds to 2 Re of the numerator
    integrand = 2.0 * np.real(numer) / (lam_s - lam_w)
    return (1.0 / (4.0 * math.pi)) * complex(wts @ integrand)


def greens_constant_term_check(z, w, a: float,
                               cfg: ContourConfig | None = None) -> GreensResult:
    """Spectral-contour LHS vs closed-form RHS = a^{1-w} E_w(z)/(1-2w).

    LHS = 1/((0 - lam_w) <1,1>) + (1/4pi) int_{-T}^{T}
          (a^{1-s} + c_{1-s} a^s) E_s(z) / (lam_s - lam_w) d tau,  s = 1/2+i tau.
    """
    if cfg is None:
        cfg = ContourConfig()
    zz = lattice.as_point(z)
    w = complex(w)
    if not w.real > 0.5:
        raise ValueError("greens check needs Re w > 1/2")
    if abs(w.imag) < 1e-12 and 0.5 < w.real <= 1.0:
        raise ValueError("w in (1/2, 1] sits on the residual spectrum")
    if a < zz.imag:
        raise ValueError("cut-off height a must be >= Im z")
    lam_w = w * (w - 1.0)
    if abs(lam_w.imag) < 1e-12 and lam_w.real <= 0.0:
        raise ValueError("lam_w = w(w-1) must avoid (-inf, 0]")

    const = 1.0 / ((0.0 - lam_w) * INNER_ONE_ONE)
    integral = _greens_integral(zz, w, a, cfg.T, cfg.nodes_per_panel)
    half = _greens_integral(zz, w, a, cfg.T, max(2, cfg.nodes_per_panel // 2))
    quad_error = abs(integral - half)
    lhs = const + integral

    rhs = a ** (1.0 - w) * eisenstein.eisenstein_sl2(zz, w).value / (1.0 - 2.0 * w)
    tail = _greens_tail_bound(a, zz.imag, cfg.T, lam_w)
    rel = (abs(lhs - rhs) + tail) / abs(rhs)
    return GreensResult(lhs=lhs, rhs=rhs, rel_error=float(rel), T=cfg.T,
                        tail_bound=float(tail), quad_error=float(quad_error))


# ---------------------------------------------------------------------------
# J(w) and the repulsion experiment
# ---------------------------------------------------------------------------

class _LineCache:
    """|E_s(tau_D)|^2 on a fixed Gauss-Legendre contour grid, computed once."""

    def __init__(self, D: int, T: float, nodes_per_panel: int):
        self.D = D
        self.T = T
        self.taus, self.wts = gl_grid(0.0, T, _PANEL_WIDTH, nodes_per_panel)
        s = 0.5 + 1j * self.taus
        self.F = np.abs(eisenstein.cm_line_values(D, s)) ** 2

    def theta_sq(self, tau):
        """|thetaE_w|^2 at each w = 1/2 + i tau (pairing against E at tau_D)."""
        return np.abs(eisenstein.cm_line_values(self.D, 0.5 + 1j * np.asarray(tau))) ** 2


def _j_from_cache(cache: _LineCache, tau: float, F_tau: float, window: float = 0.0625) -> float:
    """J(1/2 + i tau) from F_tau = theta_sq(tau), singularity window-interpolated."""
    taus, wts, F = cache.taus, cache.wts, cache.F
    denom = tau * tau - taus * taus
    with np.errstate(divide="ignore", invalid="ignore"):
        G = (F - F_tau) / denom
    mask = np.abs(taus - tau) < window
    if mask.any():
        # quadratic fit through the 3 nearest clean nodes on each side
        clean = np.nonzero(~mask)[0]
        left = clean[taus[clean] < tau][-3:]
        right = clean[taus[clean] > tau][:3]
        idx = np.concatenate([left, right])
        coeff = np.polyfit(taus[idx] - tau, G[idx], 2)
        G[mask] = np.polyval(coeff, taus[mask] - tau)
    integral = float(wts @ G)
    lam_w = -0.25 - tau * tau
    return 1.0 / (-lam_w * INNER_ONE_ONE) + integral / (2.0 * math.pi)


def J_function(w, D: int, cfg: ContourConfig | None = None) -> float:
    """J(w) = 1/(-lam_w <1,1>) + (1/2 pi) int_0^T (F(tau') - F(tau)) d tau'
    / (tau^2 - tau'^2), with F = |E_s(tau_D)|^2 on the critical line."""
    if cfg is None:
        cfg = ContourConfig(T=120.0)
    w = complex(w)
    if abs(w.real - 0.5) > 1e-12 or w.imag <= 0.5:
        raise ValueError("J_function needs w = 1/2 + i tau with tau > 0.5")
    cache = _LineCache(D, cfg.T, cfg.nodes_per_panel)
    return _j_from_cache(cache, w.imag, cache.theta_sq(w.imag))


@specfun.elementwise
def hardy_rotation_zeta(t):
    """Z(t) = e^{i theta(t)} zeta(1/2+it), real-valued for real t."""
    theta = specfun.log_gamma(0.25 + 0.5j * t).imag - 0.5 * t.real * math.log(math.pi)
    return (np.exp(1j * theta) * specfun.riemann_zeta(0.5 + 1j * t)).real


@specfun.elementwise
def hardy_rotation_L(t, D: int):
    """Rotated L(1/2+it, chi_D) for odd real chi (root number +1), real-valued."""
    q = abs(D)
    theta = specfun.log_gamma(0.75 + 0.5j * t).imag + 0.5 * t.real * math.log(q / math.pi)
    return (np.exp(1j * theta) * specfun.dirichlet_L(0.5 + 1j * t, D)).real


def _bisect(f, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Bisect every bracket [lo_k, hi_k] of a sign change of f, in lockstep.

    Each step calls ``f`` once, on the midpoints of the brackets still open
    (one stops when it is narrower than tol, all after 80 steps), so every
    bracket takes exactly the steps it would take alone.  No bracket, no call.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    k = np.arange(lo.size)  # the brackets still open
    flo = f(lo) if k.size else lo
    for _ in range(80):
        if not k.size:
            break
        mid = 0.5 * (lo[k] + hi[k])
        fm = f(mid)
        left = flo[k] * fm <= 0
        hi[k[left]] = mid[left]
        lo[k[~left]], flo[k[~left]] = mid[~left], fm[~left]
        k = k[~(hi[k] - lo[k] < tol)]
    return 0.5 * (lo + hi)


def scan_zeros(f, lo: float, hi: float, step: float = 0.02) -> list[float]:
    """Sign changes of a real f on a grid over [lo, hi], bisected to 1e-10.

    ``f`` follows the library's calling rule and only ever gets arrays: the
    whole grid in one call, then the open brackets' midpoints once per
    bisection step.  The grid ends exactly at hi, so no zero past the
    interval is reported.
    """
    if not lo < hi:
        raise ValueError("the scan window needs lo < hi")
    ts = np.arange(lo, hi + step, step)
    ts = np.append(ts[ts < hi], hi)
    vals = f(ts)
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return _bisect(f, ts[i], ts[i + 1]).tolist()


def zeta_k_line_zeros(D: int, t_lo: float, t_hi: float) -> list[float]:
    """Ordinates of zeros of zeta_K(1/2+it) = zeta L(., chi_D), factor-wise.

    Each factor is rotated by its Hardy phase so zeros appear as sign
    changes of a real function.
    """
    zeros = scan_zeros(hardy_rotation_zeta, t_lo, t_hi)
    zeros += scan_zeros(lambda t: hardy_rotation_L(t, D), t_lo, t_hi)
    return sorted(zeros)


@dataclass(frozen=True)
class RepulsionReport:
    D: int
    a: float
    intervals: list  # (t_left, t_right, sign_changes, root or None)
    zk_zeros: list
    unique_per_interval: bool


def repulsion_experiment(D: int, a: float, tau_lo: float, tau_hi: float,
                         cfg: ContourConfig | None = None,
                         track: specfun.ArgTrack | None = None) -> RepulsionReport:
    """Eigenvalue condition cos(Theta) J(w) = sin(Theta) |thetaE_w|^2/(2 tau).

    Between consecutive zeros of cos(Theta), Theta = tau log a + psi(tau),
    the difference W = cos(Theta) J - sin(Theta) |thetaE|^2/(2 tau) should
    change sign exactly once.  Also recovers the on-line zeros of zeta_K for
    reference.
    """
    if cfg is None:
        cfg = ContourConfig(T=120.0)
    if track is None:
        track = specfun.psi_arg_xi(tau_hi + 1.0)
    cos_zeros = np.array(scan_zeros(lambda t: np.cos(_phase(track, a, t)),
                                    tau_lo, tau_hi, step=0.01))
    cache = _LineCache(D, cfg.T, cfg.nodes_per_panel)

    def W(t: np.ndarray) -> np.ndarray:
        th, F_tau = _phase(track, a, t), cache.theta_sq(t)
        J = np.array([_j_from_cache(cache, tk, Fk) for tk, Fk in zip(t.tolist(), F_tau)])
        return np.cos(th) * J - np.sin(th) * F_tau / (2.0 * t)

    # closed intervals between consecutive cosine zeros: there
    # W = -/+ sin(Theta) |thetaE|^2/(2t) alternates sign exactly, so a crossing
    # always exists even when a zeta_K zero pins it arbitrarily close to an end
    lo, hi = cos_zeros[:-1], cos_zeros[1:]
    grid = np.linspace(lo, hi, 41, axis=1)
    vals = W(grid.ravel()).reshape(grid.shape)
    flips = np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0
    counts = flips.sum(axis=1)
    k = np.nonzero(counts)[0]  # bisect each interval's first flip
    i = flips[k].argmax(axis=1)
    roots = np.full(lo.size, None)
    roots[k] = _bisect(W, grid[k, i], grid[k, i + 1], tol=1e-8).tolist()
    intervals = list(zip(lo.tolist(), hi.tolist(), counts.tolist(), roots.tolist()))
    return RepulsionReport(D=D, a=a, intervals=intervals,
                           zk_zeros=zeta_k_line_zeros(D, tau_lo, tau_hi),
                           unique_per_interval=bool(np.all(counts == 1)))
