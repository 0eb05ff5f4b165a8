"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes well under a minute.  It checks that

* the tracer wraps every public function and method named in each layer's
  ``__all__`` and every other binding of them, and removes every wrapper
  again;
* a traced run gives bit-identical task outputs to an untraced one;
* every task kind's check passes on a real output and fails once that
  output is perturbed by a relative 1e-6 (kinds whose acceptance tolerance
  is looser than that are moved by ten tolerances instead);
* the same seed gives the same inputs and, in two worker processes, the
  same outputs, while another seed gives other inputs;
* the oracles agree with each other where their domains overlap.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tasks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, MARK, Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def _layer_modules():
    return [sys.modules[f"zetalab.{name}"] for name in LAYERS]


def _unwrapped_bindings() -> list[str]:
    """Names in any zetalab module bound to a layer function or method not wrapped."""
    layer_names = {m.__name__ for m in _layer_modules()}
    missing = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "zetalab" and not modname.startswith("zetalab."):
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ in layer_names
                    and not obj.__name__.startswith("_") and not hasattr(obj, MARK)):
                missing.append(f"{modname}.{attr}")
    for mod in _layer_modules():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and not hasattr(obj, MARK):
                missing.append(f"{mod.__name__}.{name}")
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mname, meth in vars(obj).items():
                    if (not mname.startswith("_") and inspect.isfunction(meth)
                            and not hasattr(meth, MARK)):
                        missing.append(f"{mod.__name__}.{name}.{mname}")
    return missing


def _any_wrapped() -> bool:
    for modname, mod in sys.modules.items():
        if modname == "zetalab" or modname.startswith("zetalab."):
            for obj in vars(mod).values():
                if hasattr(obj, MARK):
                    return True
                if inspect.isclass(obj) and any(hasattr(m, MARK) for m in vars(obj).values()):
                    return True
    return False


def check_wrapping() -> None:
    tracer = Tracer()
    tracer.install()
    try:
        missing = _unwrapped_bindings()
        expect(not missing, f"every public layer function and binding is wrapped {missing[:5]}")
        kinds = {name: type(getattr(m, name)).__name__ for m in _layer_modules() for name in m.__all__
                 if not inspect.isfunction(getattr(m, name))}
        print(f"      names in __all__ that are not functions: {sorted(kinds)}")
    finally:
        tracer.uninstall()
    expect(not _any_wrapped(), "uninstall removes every wrapper")


def _sample_tasks() -> list[dict]:
    """Round 0 of every workload, with one task of each kind per workload."""
    picked = []
    for wl in workloads.WORKLOADS:
        seen = set()
        for task in workloads.make_round(wl, 1, 0):
            if task["kind"] not in seen:
                seen.add(task["kind"])
                picked.append(task)
    return picked


def _outputs(task_list) -> list:
    return [tasks.to_output(tasks.run(t)) for t in task_list]


def check_trace_identical(task_list, plain) -> None:
    tracer = Tracer()
    tracer.install()
    try:
        traced = _outputs(task_list)
    finally:
        tracer.uninstall()
    expect(json.dumps(traced) == json.dumps(plain), "traced outputs are bit-identical to untraced")
    m = tracer.metrics(1)
    expect(m["specfun.calls"] > 0 and m["lattice.vectors"] > 0 and m["hamiltonian.calls"] > 0
           and m["spectral.contour_nodes"] > 0, "tracer counted work in every layer")


# which parts of an output are the computed values (the rest echo inputs)
VALUE_PARTS = {"single": (0,), "fe_pair": (0,), "psi_track": (1,), "greens": (0, 1)}


def _perturb(v, kind):
    if isinstance(v, list):
        return [_perturb(u, kind) for u in v]
    if isinstance(v, int):
        return v
    if kind in oracles.LOOSE_KINDS:
        return v + 10.0 * oracles.LOOSE_KINDS[kind] * max(1.0, abs(v))
    return v * (1.0 + 1e-6)


def check_perturbation(task_list, plain) -> None:
    for task, out in zip(task_list, plain):
        kind = task["kind"]
        base = oracles.check(task, out)
        if kind in VALUE_PARTS:
            bad = list(out)
            for i in VALUE_PARTS[kind]:
                bad[i] = _perturb(out[i], kind)
        else:
            bad = _perturb(out, kind)
        moved = oracles.check(task, bad)
        how = "ten tolerances" if kind in oracles.LOOSE_KINDS else "relative 1e-6"
        expect(base.ok and not moved.ok,
               f"{kind}: passes (ratio {base.err_ratio:.2g}), fails when moved by {how}"
               f" (ratio {moved.err_ratio:.2g})")


def _worker_outputs(workload: str, seed: int) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "0", "--out", str(out)],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300)
        return [(r["task"], r["output"]) for r in json.loads(out.read_text())["records"]]


def check_reproducible() -> None:
    for wl in workloads.WORKLOADS:
        a = workloads.make_round(wl, 5, 3)
        expect(a == workloads.make_round(wl, 5, 3), f"{wl}: same seed, same inputs")
        expect(a != workloads.make_round(wl, 6, 3), f"{wl}: another seed, other inputs")
    first = _worker_outputs("pointwise", 5)
    expect(first == _worker_outputs("pointwise", 5),
           "pointwise: two worker processes with one seed give identical inputs and outputs")


def check_oracles() -> None:
    fp, mp = mpmath.fp, mpmath.mp
    for H in (50.0, 300.0, 1200.0):
        s = complex(0.5, H - 0.37)
        with mp.workdps(30):
            ref = complex(oracles.e_cm(-11, mp.mpc(s)))
        expect(abs(complex(oracles.e_cm(-11, s, fp)) - ref) < 1e-11 * max(1.0, abs(ref)),
               f"mpmath fp line value at height {H:g} matches 30 digits")
    rng = np.random.default_rng(9)
    for r in (2, 3, 4):
        Q = workloads.random_gram(rng, r)
        rel = oracles._rel(oracles.epstein_brute(Q, r / 2.0 + 1.0), oracles.epstein_mp(Q, r / 2.0 + 1.0))
        expect(rel < 1e-10, f"r={r}: smooth-cutoff sum matches the theta split at s = r/2 + 1 ({rel:.1e})")
    for D in (-3, -7, -11):
        x, y, _ = workloads.CM_FORMS[D]
        s = complex(0.41, 1.3)
        with mp.workdps(oracles.DPS):
            ref = complex(oracles.z2_cm(D, mp.mpc(s)))
        rel = oracles._rel(oracles.epstein_mp(workloads.gram_of(x, y), s), ref)
        expect(rel < 1e-12, f"D={D}: theta split matches w_K (sqrt|D|/2)^s zeta_K(s) in the strip")
    with mp.workdps(oracles.DPS):
        ref = complex(oracles.z4_identity(mp.mpc(1.3, 0.7)))
    expect(oracles._rel(oracles.epstein_mp(np.eye(4), complex(1.3, 0.7)), ref) < 1e-12,
           "I_4: theta split matches 8 (1 - 4^{1-s}) zeta(s) zeta(s-1)")
    z = complex(0.21, 1.37)
    with mp.workdps(oracles.DPS):
        ref = float(oracles.kronecker_a0(z))
    got = oracles.epstein_constant_term(workloads.gram_of(z.real, z.imag))
    expect(abs(got - ref) < 1e-10, "r=2 constant term of the theta split is the Kronecker closed form")


def main() -> int:
    import zetalab  # noqa: F401  (loads every layer module)

    check_wrapping()
    task_list = _sample_tasks()
    plain = _outputs(task_list)
    expect(json.dumps(plain) == json.dumps(_outputs(task_list)), "untraced outputs repeat exactly")
    check_trace_identical(task_list, plain)
    check_perturbation(task_list, plain)
    check_reproducible()
    check_oracles()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
