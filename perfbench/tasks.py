"""Run one task through zetalab's public API and return its raw result.

``run`` is the only code inside a task's timed region.  ``to_output``
turns the raw result into plain JSON numbers (complex -> [re, im]) after
the timer has stopped; JSON floats round-trip exactly, so two outputs are
bit-identical exactly when their JSON texts are equal.
"""

from __future__ import annotations

import numpy as np

from zetalab import eisenstein, epstein, hamiltonian, lattice, specfun, spectral


def _cx(v) -> complex:
    return complex(v[0], v[1])


def _single(t):
    res = epstein.epstein_zeta(np.array(t["Q"]), _cx(t["s"]))
    return res.value, res.error_bound, res.terms_used


def _fe_pair(t):
    Q = np.array(t["Q"])
    s = _cx(t["s"])
    dual = Q.shape[0] / 2.0 - s
    return (epstein.epstein_zeta(Q, s).value,
            epstein.epstein_zeta(np.linalg.inv(Q), dual).value)


def _residue(t):
    return epstein.epstein_residue(np.array(t["Q"]))


def _kronecker(t):
    exp = epstein.epstein_laurent(lattice.gram_of_point(_cx(t["z"])), 1.0, max_order=0)
    return exp.coefficient(-1), exp.coefficient(0)


def _block_limit(t):
    return eisenstein.terras_limit(np.array(t["Q"]), t["ell"])


def _line_values(t):
    taus = np.linspace(t["t"][0], t["t"][1], t["n"])
    return eisenstein.cm_line_values(t["D"], 0.5 + 1j * taus)


def _psi_track(t):
    track = specfun.psi_arg_xi(t["t_max"])
    return track.t_grid, track.psi_values, track.max_step


def _greens(t):
    res = spectral.greens_constant_term_check(eisenstein.cm_point(t["D"]), _cx(t["w"]), t["a"],
                                              spectral.ContourConfig(T=t["T"]))
    return res.lhs, res.rhs, res.rel_error, res.tail_bound


def _eigen_stencil(t):
    s = _cx(t["s"])
    values = []

    def f(p):
        v = eisenstein.eisenstein_sl2(p, s).value
        values.append(v)
        return v

    lap = hamiltonian.fd_laplacian(f, _cx(t["z"]), 1e-3)
    return lap, values[0]  # the first stencil node is z itself


def _ground_state(t):
    return hamiltonian.ground_state_residual(_cx(t["z"]), 1e-3)


def _laplace_e1(t):
    return hamiltonian.check_laplace_e1star(_cx(t["z"]))[0]


def _potential_row(t):
    return [hamiltonian.potential_q(complex(x, t["y"])) for x in t["x"]]


def _heegner(t):
    return eisenstein.heegner_zeta(_cx(t["s"]), t["D"])


def _exotic_roots(t):
    return [r.t for r in spectral.exotic_roots(t["a"], t["t"][0], t["t"][1])]


def _zero_scan(t):
    return spectral.zeta_k_line_zeros(t["D"], t["t"][0], t["t"][1])


RUNNERS = {
    "single": _single,
    "fe_pair": _fe_pair,
    "residue": _residue,
    "kronecker": _kronecker,
    "block_limit": _block_limit,
    "line_values": _line_values,
    "psi_track": _psi_track,
    "greens": _greens,
    "eigen_stencil": _eigen_stencil,
    "ground_state": _ground_state,
    "laplace_e1": _laplace_e1,
    "potential_row": _potential_row,
    "heegner": _heegner,
    "exotic_roots": _exotic_roots,
    "zero_scan": _zero_scan,
}


def run(task: dict):
    return RUNNERS[task["kind"]](task)


def _plain(v):
    if isinstance(v, np.ndarray):
        if np.iscomplexobj(v):
            return [v.real.tolist(), v.imag.tolist()]
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_plain(u) for u in v]
    if isinstance(v, (complex, np.complexfloating)):
        return [float(v.real), float(v.imag)]
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return int(v)
    return float(v)


def to_output(raw) -> list | float:
    """Lossless JSON form of a raw task result."""
    return _plain(raw)
