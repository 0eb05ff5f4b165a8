"""Batch command-line front door.

One subcommand per experiment family; every command writes a single JSON
document or CSV table to stdout and diagnostics to stderr.  Exit codes:
0 success / checks passed, 1 tolerance failure, 2 bad flags, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import acceptance, eisenstein, epstein, hamiltonian, lattice, specfun, spectral

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


class _TooFewRoots(RuntimeError):
    """The window holds too few roots for the statistic asked for."""


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_point(text: str) -> complex:
    z = _parse_complex(text)
    if z.imag <= 0:
        raise argparse.ArgumentTypeError("point must have positive imaginary part")
    return z


def _parse_gram(text: str, r: int | None) -> np.ndarray:
    if text == "identity":
        if r is None:
            raise ValueError("--Q identity requires --r")
        return np.eye(r)
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(text)
    Q = np.asarray(data, dtype=float)
    if Q.ndim == 1:  # row-major flat array needs the dimension
        if r is None:
            raise ValueError("flat --Q arrays require --r")
        Q = Q.reshape(r, r)
    return Q


def _c2(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _records(header: list[str], rows: list[list[str]]) -> list[dict]:
    """The JSON form of formatted CSV rows, so both formats carry one value."""
    return [dict(zip(header, map(float, row))) for row in rows]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (JSON document, passed, CSV table or None)
# ---------------------------------------------------------------------------

_Result = tuple[dict, bool, tuple | None]


def _cmd_epstein(args) -> _Result:
    Q = _parse_gram(args.Q, args.r)
    res = epstein.epstein_zeta(Q, args.s, tol=args.tol)
    return ({"kind": "epstein", "r": Q.shape[0], "Q": Q.tolist(),
             "s": _c2(args.s), "value": _c2(res.value),
             "error_bound": res.error_bound, "terms_used": res.terms_used},
            True, None)


def _cmd_eisenstein(args) -> _Result:
    ev = eisenstein.eisenstein_sl2(args.z, args.s, tol=args.tol)
    return ({"kind": "eisenstein", "z": _c2(args.z), "s": _c2(args.s),
             "value": _c2(ev.value), "error_bound": ev.error_bound},
            True, None)


def _cmd_kronecker(args) -> _Result:
    residual = eisenstein.kronecker_limit_check(args.z)
    return ({"kind": "kronecker_check", "z": _c2(args.z),
             "residual": residual, "tolerance": args.tol},
            residual < args.tol, None)


def _cmd_terras(args) -> _Result:
    Q = _parse_gram(args.Q, args.r)
    r = Q.shape[0]
    closed = eisenstein.terras_limit(Q, args.ell)
    a0 = epstein.epstein_laurent(Q, r / 2.0, max_order=0).coefficient(0).real
    rel = abs(closed - a0) / abs(a0)
    return ({"kind": "block_limit", "r": r, "ell": args.ell, "limit": closed,
             "laurent_a0": a0, "rel_error": rel, "tolerance": args.tol},
            rel < args.tol, None)


def _cmd_heegner(args) -> _Result:
    value = eisenstein.heegner_zeta(args.s, args.D)
    oracle = (complex(specfun.riemann_zeta(args.s))
              * complex(specfun.dirichlet_L(args.s, args.D)))
    rel = abs(value - oracle) / abs(oracle)
    return ({"kind": "heegner_zeta", "D": args.D, "s": _c2(args.s),
             "value": _c2(value), "zeta_L_oracle": _c2(oracle),
             "rel_error": rel, "tolerance": args.tol},
            rel < args.tol, None)


def _cmd_potential(args) -> _Result:
    ys = np.linspace(args.t_min, args.t_max, args.count)
    qs = [hamiltonian.potential_q(1j * y) for y in ys]
    header = ["y", "q", "q_over_y2"]
    rows = [[f"{y:.6f}", f"{q:.12g}", f"{q / (y * y):.12g}"] for y, q in zip(ys, qs)]
    return ({"kind": "potential_profile", "rows": _records(header, rows)},
            True, (header, rows))


def _cmd_ground_state(args) -> _Result:
    rng = np.random.default_rng(args.seed)
    zs = [complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0)) for _ in range(10)]
    residuals = [hamiltonian.ground_state_residual(z, 1e-3) for z in zs]
    worst = max(residuals)
    header = ["x", "y", "residual"]
    rows = [[f"{z.real:.6f}", f"{z.imag:.6f}", f"{res:.6g}"]
            for z, res in zip(zs, residuals)]
    return ({"kind": "ground_state", "rows": _records(header, rows),
             "max_residual": worst, "tolerance": args.tol},
            worst < args.tol, (header, rows))


def _roots(args):
    """The psi-track up to t_max + 1 and the exotic roots in the window."""
    track = specfun.psi_arg_xi(args.t_max + 1.0)
    return track, spectral.exotic_roots(args.a, args.t_min, args.t_max, track)


def _cmd_exotic_roots(args) -> _Result:
    track, roots = _roots(args)
    stats = spectral.spacing_statistics(roots, track) if len(roots) >= 3 else []
    rows = [[f"{root.t:.12f}", f"{root.residual:.3g}", "", ""] for root in roots]
    for row, stat in zip(rows, stats):
        row[2:] = [f"{stat.gap:.9f}", f"{stat.comparator:.9f}"]
    return ({"kind": "exotic_roots", "a": args.a, "count": len(roots),
             "predicted": spectral.root_count_prediction(
                 args.a, args.t_min, args.t_max, track),
             "roots": [{"t": r.t, "residual": r.residual} for r in roots]},
            not any(r.residual >= 1e-8 for r in roots),
            (["t", "residual", "gap", "comparator"], rows))


def _cmd_spacing(args) -> _Result:
    track, roots = _roots(args)
    if len(roots) < 3:
        raise _TooFewRoots("fewer than 3 roots in the window")
    header = ["t_mid", "gap", "comparator", "pi_over_log_t"]
    rows = [[f"{r.t:.9f}", f"{r.gap:.9f}", f"{r.comparator:.9f}",
             f"{r.pi_over_log_t:.9f}"]
            for r in spectral.spacing_statistics(roots, track)]
    return ({"kind": "spacing", "a": args.a, "rows": _records(header, rows)},
            True, (header, rows))


def _cmd_greens_check(args) -> _Result:
    res = spectral.greens_constant_term_check(
        args.z, args.s, args.a, spectral.ContourConfig(T=args.T))
    return ({"kind": "greens_check", "z": _c2(args.z), "w": _c2(args.s),
             "a": args.a, "T": res.T, "lhs": _c2(res.lhs), "rhs": _c2(res.rhs),
             "rel_error": res.rel_error, "tail_bound": res.tail_bound,
             "quad_error": res.quad_error, "tolerance": args.tol},
            res.rel_error < args.tol, None)


def _cmd_repulsion(args) -> _Result:
    report = spectral.repulsion_experiment(
        args.D, args.a, args.t_min, args.t_max, spectral.ContourConfig(T=args.T))
    header = ["t_left", "t_right", "sign_changes", "root"]
    rows = [[f"{lo:.6f}", f"{hi:.6f}", n, f"{root:.8f}" if root is not None else ""]
            for lo, hi, n, root in report.intervals]
    return ({"kind": "repulsion", "D": args.D, "a": args.a,
             "unique_per_interval": report.unique_per_interval,
             "intervals": [dict(zip(header, iv)) for iv in report.intervals],
             "zk_zeros": report.zk_zeros},
            report.unique_per_interval, (header, rows))


def _cmd_selftest(args) -> _Result:
    names = args.only.split(",") if args.only else None
    results = acceptance.run_all(names, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.elapsed:.1f}s)", file=sys.stderr)
    passed = all(r.passed for r in results)
    return ({"kind": "selftest",
             "criteria": [{"name": r.name, "passed": r.passed,
                           "elapsed_s": round(r.elapsed, 3), "detail": r.detail}
                          for r in results],
             "all_passed": passed},
            passed, None)


# ---------------------------------------------------------------------------
# command table
# ---------------------------------------------------------------------------

# Every flag is declared once here; a command lists the groups it takes and
# sets the per-command defaults in _COMMANDS.  Elsewhere a flag is a usage error.
_FLAGS = {
    "Q": [("--Q", {"required": True}), ("--r", {"type": int})],
    "s": [("--s", {"type": _parse_complex, "required": True})],
    "z": [("--z", {"type": _parse_point, "required": True})],
    "a": [("--a", {"type": float, "required": True})],
    "D": [("--D", {"type": int, "required": True})],
    "t-range": [("--t-min", {"type": float}), ("--t-max", {"type": float})],
    "T": [("--T", {"type": float})],
    "ell": [("--ell", {"type": int, "required": True})],
    "count": [("--count", {"type": int, "default": 50})],
    "format": [("--format", {"choices": ("json", "csv"), "default": "json"})],
    "seed": [("--seed", {"type": int, "default": 12345})],
    "tol": [("--tol", {"type": float})],
    "only": [("--only", {"help": "comma-separated criterion names"})],
}

_COMMANDS = [
    ("epstein", _cmd_epstein, "evaluate Z_r(Q, s)", "Q s tol", {"tol": 1e-10}),
    ("eisenstein", _cmd_eisenstein, "evaluate E_s(z) on SL2", "z s tol",
     {"tol": 1e-10}),
    ("kronecker", _cmd_kronecker, "first limit formula residual at z", "z tol",
     {"tol": 1e-6}),
    ("terras", _cmd_terras, "block limit formula at s = r/2", "Q ell tol",
     {"tol": 1e-4}),
    ("heegner", _cmd_heegner, "zeta_K via E_s at the CM point", "s D tol",
     {"tol": 1e-7}),
    ("potential", _cmd_potential, "potential profile q(iy)", "t-range count format",
     {"t_min": 1.0, "t_max": 50.0}),
    ("ground-state", _cmd_ground_state, "ground-state residual table",
     "format seed tol", {"tol": 1e-4}),
    ("exotic-roots", _cmd_exotic_roots, "roots of a^w + c_w a^{1-w}",
     "a t-range format", {"t_min": 0.1, "t_max": 50.0}),
    ("spacing", _cmd_spacing, "gap statistics of the exotic roots",
     "a t-range format", {"t_min": 0.1, "t_max": 50.0}),
    ("greens-check", _cmd_greens_check,
     "constant-term identity check; --s is the spectral parameter w",
     "z s a T tol", {"T": 300.0, "tol": 1e-3}),
    ("repulsion", _cmd_repulsion, "eigenvalue-condition uniqueness scan",
     "D a t-range T format", {"t_min": 10.0, "t_max": 20.0, "T": 120.0}),
    ("selftest", _cmd_selftest, "run the acceptance criteria", "seed only", {}),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Numerics laboratory for Epstein/Eisenstein identities, "
                    "the automorphic Schrodinger operator, and critical-line "
                    "spectral experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, groups, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        for group in groups.split():
            for flag, spec in _FLAGS[group]:
                p.add_argument(flag, **spec)
        p.set_defaults(handler=handler, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        doc, passed, table = args.handler(args)
    except (_TooFewRoots, epstein.LaurentConvergenceError,
            lattice.EnumerationCapError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (OSError, ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "format", "json") == "csv":
        header, rows = table
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK if passed else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
