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
            raise argparse.ArgumentTypeError("--Q identity requires --r")
        return np.eye(r)
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(text)
    Q = np.asarray(data, dtype=float)
    if Q.ndim == 1:  # row-major flat array needs the dimension
        if r is None:
            raise argparse.ArgumentTypeError("flat --Q arrays require --r")
        Q = Q.reshape(r, r)
    return Q


def _emit_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _c2(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_epstein(args) -> int:
    Q = _parse_gram(args.Q, args.r)
    res = epstein.epstein_zeta(Q, args.s, tol=args.tol)
    _emit_json({"kind": "epstein", "r": Q.shape[0], "Q": Q.tolist(),
                "s": _c2(args.s), "value": _c2(res.value),
                "error_bound": res.error_bound, "terms_used": res.terms_used})
    return EXIT_OK


def _cmd_eisenstein(args) -> int:
    ev = eisenstein.eisenstein_sl2(args.z, args.s, tol=args.tol)
    _emit_json({"kind": "eisenstein", "z": [args.z.real, args.z.imag],
                "s": _c2(args.s), "value": _c2(ev.value),
                "error_bound": ev.error_bound})
    return EXIT_OK


def _cmd_kronecker(args) -> int:
    residual = eisenstein.kronecker_limit_check(args.z)
    _emit_json({"kind": "kronecker_check", "z": [args.z.real, args.z.imag],
                "residual": residual, "tolerance": args.tol})
    return EXIT_OK if residual < args.tol else EXIT_TOLERANCE


def _cmd_terras(args) -> int:
    Q = _parse_gram(args.Q, args.r)
    r = Q.shape[0]
    closed = eisenstein.terras_limit(Q, args.ell)
    Qn, scale = lattice.normalize_det(Q)
    if abs(scale - 1.0) < 1e-12:
        a0 = epstein.epstein_laurent(Q, r / 2.0, max_order=0).coefficient(0).real
    else:
        a0 = None
    doc = {"kind": "block_limit", "r": r, "ell": args.ell, "limit": closed}
    code = EXIT_OK
    if a0 is not None:
        rel = abs(closed - a0) / abs(a0)
        doc.update({"laurent_a0": a0, "rel_error": rel, "tolerance": args.tol})
        code = EXIT_OK if rel < args.tol else EXIT_TOLERANCE
    _emit_json(doc)
    return code


def _cmd_heegner(args) -> int:
    value = eisenstein.heegner_zeta(args.s, args.D)
    oracle = (complex(specfun.riemann_zeta(args.s))
              * complex(specfun.dirichlet_L(args.s, args.D)))
    rel = abs(value - oracle) / abs(oracle)
    _emit_json({"kind": "heegner_zeta", "D": args.D, "s": _c2(args.s),
                "value": _c2(value), "zeta_L_oracle": _c2(oracle),
                "rel_error": rel, "tolerance": args.tol})
    return EXIT_OK if rel < args.tol else EXIT_TOLERANCE


def _cmd_potential(args) -> int:
    ys = np.linspace(args.t_min, args.t_max, args.count)
    rows = [[f"{y:.6f}", f"{hamiltonian.potential_q(1j * y):.12g}",
             f"{hamiltonian.potential_q(1j * y) / (y * y):.12g}"] for y in ys]
    if args.format == "csv":
        _emit_csv(["y", "q", "q_over_y2"], rows)
    else:
        _emit_json({"kind": "potential_profile",
                    "rows": [{"y": float(a), "q": float(b), "q_over_y2": float(c)}
                             for a, b, c in rows]})
    return EXIT_OK


def _cmd_ground_state(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 2.0))
        res = hamiltonian.ground_state_residual(z, 1e-3)
        worst = max(worst, res)
        rows.append([f"{z.real:.6f}", f"{z.imag:.6f}", f"{res:.6g}"])
    if args.format == "csv":
        _emit_csv(["x", "y", "residual"], rows)
    else:
        _emit_json({"kind": "ground_state",
                    "rows": [{"x": float(a), "y": float(b), "residual": float(c)}
                             for a, b, c in rows],
                    "max_residual": worst, "tolerance": args.tol})
    return EXIT_OK if worst < args.tol else EXIT_TOLERANCE


def _cmd_exotic_roots(args) -> int:
    track = specfun.psi_arg_xi(args.t_max + 1.0)
    roots = spectral.exotic_roots(args.a, args.t_min, args.t_max, track)
    spacing = spectral.spacing_statistics(roots, track) if len(roots) >= 3 else []
    rows = []
    for i, root in enumerate(roots):
        gap = spacing[i].gap if i < len(spacing) else ""
        comp = spacing[i].comparator if i < len(spacing) else ""
        rows.append([f"{root.t:.12f}", f"{root.residual:.3g}",
                     f"{gap:.9f}" if gap != "" else "", f"{comp:.9f}" if comp != "" else ""])
    if args.format == "csv":
        _emit_csv(["t", "residual", "gap", "comparator"], rows)
    else:
        _emit_json({"kind": "exotic_roots", "a": args.a,
                    "count": len(roots),
                    "predicted": spectral.root_count_prediction(
                        args.a, args.t_min, args.t_max, track),
                    "roots": [{"t": r.t, "residual": r.residual} for r in roots]})
    bad = any(r.residual >= 1e-8 for r in roots)
    return EXIT_TOLERANCE if bad else EXIT_OK


def _cmd_spacing(args) -> int:
    track = specfun.psi_arg_xi(args.t_max + 1.0)
    roots = spectral.exotic_roots(args.a, args.t_min, args.t_max, track)
    if len(roots) < 3:
        print("fewer than 3 roots in the window", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    rows = [[f"{r.t:.9f}", f"{r.gap:.9f}", f"{r.comparator:.9f}",
             f"{r.pi_over_log_t:.9f}"]
            for r in spectral.spacing_statistics(roots, track)]
    if args.format == "csv":
        _emit_csv(["t_mid", "gap", "comparator", "pi_over_log_t"], rows)
    else:
        _emit_json({"kind": "spacing", "a": args.a,
                    "rows": [{"t_mid": float(a), "gap": float(b),
                              "comparator": float(c), "pi_over_log_t": float(d)}
                             for a, b, c, d in rows]})
    return EXIT_OK


def _cmd_greens_check(args) -> int:
    cfg = spectral.ContourConfig(T=args.T)
    res = spectral.greens_constant_term_check(args.z, args.s, args.a, cfg)
    _emit_json({"kind": "greens_check", "z": [args.z.real, args.z.imag],
                "w": _c2(args.s), "a": args.a, "T": res.T,
                "lhs": _c2(res.lhs), "rhs": _c2(res.rhs),
                "rel_error": res.rel_error, "tail_bound": res.tail_bound,
                "quad_error": res.quad_error, "tolerance": args.tol})
    return EXIT_OK if res.rel_error < args.tol else EXIT_TOLERANCE


def _cmd_repulsion(args) -> int:
    cfg = spectral.ContourConfig(T=args.T)
    report = spectral.repulsion_experiment(args.D, args.a, args.t_min, args.t_max, cfg)
    rows = [[f"{lo:.6f}", f"{hi:.6f}", n, f"{root:.8f}" if root is not None else ""]
            for lo, hi, n, root in report.intervals]
    if args.format == "csv":
        _emit_csv(["t_left", "t_right", "sign_changes", "root"], rows)
    else:
        _emit_json({"kind": "repulsion", "D": args.D, "a": args.a,
                    "unique_per_interval": report.unique_per_interval,
                    "intervals": [{"t_left": lo, "t_right": hi,
                                   "sign_changes": n, "root": root}
                                  for lo, hi, n, root in report.intervals],
                    "zk_zeros": report.zk_zeros})
    return EXIT_OK if report.unique_per_interval else EXIT_TOLERANCE


def _cmd_selftest(args) -> int:
    names = args.only.split(",") if args.only else None
    results = acceptance.run_all(names, seed=args.seed)
    doc = {"kind": "selftest",
           "criteria": [{"name": r.name, "passed": r.passed,
                         "elapsed_s": round(r.elapsed, 3), "detail": r.detail}
                        for r in results],
           "all_passed": all(r.passed for r in results)}
    _emit_json(doc)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.elapsed:.1f}s)", file=sys.stderr)
    return EXIT_OK if doc["all_passed"] else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Numerics laboratory for Epstein/Eisenstein identities, "
                    "the automorphic Schrodinger operator, and critical-line "
                    "spectral experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, fmt=False, seed=False, tol=None):
        """A subcommand with only the shared flags it uses."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        if seed:
            p.add_argument("--seed", type=int, default=12345)
        return p

    p = add("epstein", _cmd_epstein, "evaluate Z_r(Q, s)", tol=1e-10)
    p.add_argument("--Q", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=_parse_complex, required=True)

    p = add("eisenstein", _cmd_eisenstein, "evaluate E_s(z) on SL2", tol=1e-10)
    p.add_argument("--z", type=_parse_point, required=True)
    p.add_argument("--s", type=_parse_complex, required=True)

    p = add("kronecker", _cmd_kronecker, "first limit formula residual at z", tol=1e-6)
    p.add_argument("--z", type=_parse_point, required=True)

    p = add("terras", _cmd_terras, "block limit formula at s = r/2", tol=1e-4)
    p.add_argument("--Q", required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--ell", type=int, required=True)

    p = add("heegner", _cmd_heegner, "zeta_K via E_s at the CM point", tol=1e-7)
    p.add_argument("--s", type=_parse_complex, required=True)
    p.add_argument("--D", type=int, required=True)

    p = add("potential", _cmd_potential, "potential profile q(iy)", fmt=True)
    p.add_argument("--t-min", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--count", type=int, default=50)

    add("ground-state", _cmd_ground_state, "ground-state residual table",
        fmt=True, seed=True, tol=1e-4)

    p = add("exotic-roots", _cmd_exotic_roots, "roots of a^w + c_w a^{1-w}", fmt=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=50.0)

    p = add("spacing", _cmd_spacing, "gap statistics of the exotic roots", fmt=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=50.0)

    p = add("greens-check", _cmd_greens_check, "constant-term identity check", tol=1e-3)
    p.add_argument("--z", type=_parse_point, required=True)
    p.add_argument("--s", type=_parse_complex, required=True,
                   help="the spectral parameter w")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--T", type=float, default=300.0)

    p = add("repulsion", _cmd_repulsion, "eigenvalue-condition uniqueness scan", fmt=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t-min", type=float, default=10.0)
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--T", type=float, default=120.0)

    p = add("selftest", _cmd_selftest, "run the acceptance criteria", seed=True)
    p.add_argument("--only", help="comma-separated criterion names")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (epstein.LaurentConvergenceError, lattice.EnumerationCapError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, ZeroDivisionError, KeyError,
            epstein.EpsteinPoleError, specfun.GammaPoleError,
            lattice.NotPositiveDefiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
