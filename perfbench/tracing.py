"""Spans and work counters around zetalab's public functions.

Used by traced runs only; an untraced run never imports this module.
``Tracer.install`` replaces every binding of every public function of the
six layer modules -- module attributes, names other modules imported with
``from ... import``, the package re-exports and public methods of public
classes -- with a wrapper that records one span (function, parent span,
start, end) and feeds the work counters.  Spans stay in memory until
``save`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("specfun", "lattice", "epstein", "eisenstein", "hamiltonian", "spectral")
MARK = "__perfbench_traced__"

COUNTERS = (
    "specfun.zeta_points", "specfun.gamma_x_points", "specfun.eta_calls",
    "specfun.bessel_calls", "lattice.vectors", "lattice.factorizations",
    "epstein.terms", "epstein.laurent_evals", "eisenstein.line_points",
    "spectral.contour_nodes", "spectral.roots",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fid: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.active: list[int] = []
        self.layer_active = [0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.zeta_keys: list[np.ndarray] = []
        self.enum_keys: set = set()
        self.enum_calls = 0
        self.epstein_keys: set = set()
        self.epstein_calls = 0
        self._patched: list[tuple[object, str, object]] = []
        self._probes = {
            "specfun.riemann_zeta": self._zeta_probe,
            "specfun.hurwitz_zeta": self._zeta_probe,
            "specfun.regularized_upper_gamma_array": self._gamma_array_probe,
            "specfun.upper_incomplete_gamma": self._gamma_probe,
            "specfun.lower_incomplete_gamma": self._gamma_probe,
            "specfun.dedekind_eta": self._count("specfun.eta_calls"),
            "specfun.eta_log_derivative": self._count("specfun.eta_calls"),
            "specfun.bessel_K": self._count("specfun.bessel_calls"),
            "lattice.enumerate_vectors": self._enum_probe,
            "lattice.validate_gram": self._count("lattice.factorizations"),
            "lattice.cholesky": self._count("lattice.factorizations"),
            "lattice.normalize_det": self._count("lattice.factorizations"),
            "epstein.epstein_zeta": self._epstein_probe,
            "eisenstein.cm_line_values": self._line_probe,
            "spectral.exotic_roots": self._roots_probe,
            "spectral.zeta_k_line_zeros": self._roots_probe,
        }

    # -- counters fed at the layer boundary ---------------------------------

    def _count(self, key):
        def probe(name, args, kwargs, result):
            self.counts[key] += 1
        return probe

    def _zeta_probe(self, name, args, kwargs, result):
        s = np.asarray(_arg(args, kwargs, 0, "s"), dtype=complex).ravel()
        a = 1.0 if name.endswith("riemann_zeta") else float(_arg(args, kwargs, 1, "a"))
        self.counts["specfun.zeta_points"] += s.size
        self.zeta_keys.append(np.column_stack([np.full(s.size, a), s.real, s.imag]))

    def _gamma_array_probe(self, name, args, kwargs, result):
        self.counts["specfun.gamma_x_points"] += np.size(_arg(args, kwargs, 1, "xs"))

    def _inside(self, name: str) -> bool:
        fid = self.fid.get(name)
        return fid is not None and self.active[fid] > 0

    def _gamma_probe(self, name, args, kwargs, result):
        # points already counted by the array form that called this one
        if not self._inside("specfun.regularized_upper_gamma_array"):
            self.counts["specfun.gamma_x_points"] += 1

    def _enum_probe(self, name, args, kwargs, result):
        Q = np.asarray(_arg(args, kwargs, 0, "Q"), dtype=float)
        self.counts["lattice.vectors"] += int(result.shape[0])
        self.enum_keys.add((Q.tobytes(), float(_arg(args, kwargs, 1, "R"))))
        self.enum_calls += 1

    def _epstein_probe(self, name, args, kwargs, result):
        Q = np.asarray(_arg(args, kwargs, 0, "Q"), dtype=float)
        self.counts["epstein.terms"] += int(result.terms_used)
        self.epstein_keys.add((Q.tobytes(), complex(_arg(args, kwargs, 1, "s"))))
        self.epstein_calls += 1
        if self._inside("epstein.epstein_laurent"):
            self.counts["epstein.laurent_evals"] += 1

    def _line_probe(self, name, args, kwargs, result):
        n = int(np.size(_arg(args, kwargs, 1, "s_values")))
        self.counts["eisenstein.line_points"] += n
        if self.layer_active[LAYERS.index("spectral")]:
            self.counts["spectral.contour_nodes"] += n

    def _roots_probe(self, name, args, kwargs, result):
        self.counts["spectral.roots"] += len(result)

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, layer: int, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.active.append(0)
        self.fid[name] = fid
        probe = self._probes.get(name)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, active, layer_active = self.stack, self.active, self.layer_active

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            active[fid] += 1
            layer_active[layer] += 1
            start.append(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
                active[fid] -= 1
                layer_active[layer] -= 1
            if probe is not None:
                probe(name, args, kwargs, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def install(self) -> None:
        """Wrap every binding of every public layer function and method."""
        wrappers: dict[int, object] = {}
        for layer, short in enumerate(LAYERS):
            mod = sys.modules[f"zetalab.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrapper(layer, f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mname, meth in sorted(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            w = self._wrapper(layer, f"{short}.{attr}.{mname}", meth)
                            self._patched.append((obj, mname, meth))
                            setattr(obj, mname, w)
        for modname, mod in sorted(sys.modules.items()):
            if modname != "zetalab" and not modname.startswith("zetalab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def _self_times(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float) * 1e-9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=fn.size)
        return fn, dur - child

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures, each divided by the number of rounds run."""
        fn, self_s = self._self_times()
        layer = np.asarray(self.layer_of, dtype=np.int64)[fn]
        out = {}
        for i, short in enumerate(LAYERS):
            out[f"{short}.self_s"] = float(self_s[layer == i].sum()) / rounds
            out[f"{short}.calls"] = float(np.count_nonzero(layer == i)) / rounds
        for key, value in self.counts.items():
            out[key] = float(value) / rounds
        zeta_points = self.counts["specfun.zeta_points"]
        if zeta_points:
            keys = np.concatenate(self.zeta_keys)
            out["specfun.zeta_distinct_frac"] = np.unique(keys, axis=0).shape[0] / zeta_points
        else:
            out["specfun.zeta_distinct_frac"] = 0.0
        out["lattice.enum_distinct_frac"] = (len(self.enum_keys) / self.enum_calls
                                            if self.enum_calls else 0.0)
        out["epstein.distinct_s_frac"] = (len(self.epstein_keys) / self.epstein_calls
                                         if self.epstein_calls else 0.0)
        return out

    def save(self, path) -> None:
        """Write every span: function name, parent span index, start and end in ns."""
        np.savez(path, names=np.array(self.names), fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
