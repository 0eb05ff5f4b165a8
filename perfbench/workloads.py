"""Seeded task schedules for the three workloads.

This module only draws inputs: it imports numpy and nothing from zetalab,
so the library receives generated numbers and never the seed.  A workload
is a sequence of *rounds*; every round of a workload has the same task
kinds in the same order, and round ``k`` of seed ``n`` draws its
parameters from ``numpy.random.default_rng([n, k])``.  The timed loop
always runs whole rounds, so two runs with different seeds do the same
mix of work on different numbers.

A task is a plain dict (``kind`` plus JSON-able parameters); ``tasks.py``
runs it and ``oracles.py`` checks what it returned.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("epstein-lattice", "critical-line", "pointwise")

# D -> (principal CM point x, y, number of units w_K); class number one.
CM_FORMS = {
    -3: (-0.5, math.sqrt(3.0) / 2.0, 6),
    -4: (0.0, 1.0, 4),
    -7: (-0.5, math.sqrt(7.0) / 2.0, 2),
    -8: (0.0, math.sqrt(2.0), 2),
    -11: (-0.5, math.sqrt(11.0) / 2.0, 2),
}
CM_DISCRIMINANTS = tuple(CM_FORMS)


def gram_of(x: float, y: float) -> list:
    """The det-1 binary form Q[(m, n)] = |m z + n|^2 / y of z = x + iy."""
    return [[(x * x + y * y) / y, x / y], [x / y, 1.0 / y]]


def random_gram(rng: np.random.Generator, r: int, spread: float = 0.25) -> list:
    """Det-1 form I + B B^T, rescaled; the same law as the acceptance battery."""
    B = rng.normal(size=(r, r)) * spread
    Q = np.eye(r) + B @ B.T
    Q = 0.5 * (Q + Q.T)
    Q = Q / float(np.linalg.det(Q)) ** (1.0 / r)
    return Q.tolist()


def _real_s(rng, r: int) -> list:
    """Dirichlet-series range: real s > r/2 + 1."""
    return [float(rng.uniform(r / 2.0 + 1.0, r / 2.0 + 2.5)), 0.0]


def _strip_s(rng, r: int) -> list:
    """Critical-strip range: sigma in (0.3, r/2 - 0.3), |Im s| <= 2."""
    sigma = float(rng.uniform(0.3, r / 2.0 - 0.3))
    if abs(sigma - r / 4.0) < 1e-3:  # s = r/2 - s makes a pair degenerate
        sigma += 0.05
    return [sigma, float(rng.uniform(-2.0, 2.0))]


def _fd_point(rng, y_lo: float = 0.9, y_hi: float = 2.2) -> list:
    return [float(rng.uniform(-0.45, 0.45)), float(rng.uniform(y_lo, y_hi))]


# ---------------------------------------------------------------------------
# epstein-lattice: enumeration, Cholesky and the incomplete gamma
# ---------------------------------------------------------------------------

def epstein_round(rng: np.random.Generator, k: int) -> list:
    forms = [(f"rand{r}", random_gram(rng, r)) for r in (2, 3, 4)]
    forms += [(f"I{r}", np.eye(r).tolist()) for r in (3, 4)]
    forms += [(f"cm{D}", gram_of(x, y)) for D, (x, y, _) in CM_FORMS.items()]
    tasks = []
    for name, Q in forms:
        r = len(Q)
        for s in (_real_s(rng, r), _strip_s(rng, r)):
            tasks.append({"kind": "single", "form": name, "Q": Q, "s": s})
    for r in (2, 3, 4):
        for _ in range(3):
            tasks.append({"kind": "fe_pair", "Q": random_gram(rng, r), "s": _strip_s(rng, r)})
    for r in (2, 3, 4):
        tasks.append({"kind": "residue", "Q": random_gram(rng, r)})
    x = float(rng.uniform(-0.5, 0.5))
    y = float(rng.uniform(math.sqrt(1.0 - x * x), 2.0))
    tasks.append({"kind": "kronecker", "z": [x, y]})
    for r, ell in ((3, 1), (3, 2), (4, 2)):
        Q = np.eye(r).tolist() if k % 2 == 0 else random_gram(rng, r)
        tasks.append({"kind": "block_limit", "Q": Q, "ell": ell})
    return tasks


# ---------------------------------------------------------------------------
# critical-line: batched Euler-Maclaurin zeta / Hurwitz on Re s = 1/2
# ---------------------------------------------------------------------------

LINE_HEIGHTS = (50.0, 300.0, 1200.0)
LINE_POINTS = 128


# (D at T = 300, D at T = 600) for round k % 5.  Each discriminant comes once
# at each T in five rounds.  One check takes 1.4-2.6 s at T = 300 and
# 5.5-8.8 s at T = 600 (most for D = -11, 2 vCPU VM), and a 20 s run holds 2
# to 4 rounds as the host's speed changes, so the order is chosen to give the
# first 2, 3 and 4 rounds the same mean cost (within 1%): the number of
# rounds that fit then leaves the work mix, and tasks_per_s, alike.  The
# costliest check, D = -11 at T = 600, is in round 0 and so in every run.
GREENS_SCHEDULE = ((-8, -11), (-4, -4), (-11, -8), (-3, -7), (-7, -3))


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws on [0, 1), one from each of n equal strata, in random order.

    Each draw is still uniform on [0, 1); the strata keep the spread of
    the n values, and with it the task costs, alike from seed to seed.
    """
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def critical_round(rng: np.random.Generator, k: int) -> list:
    tasks = []
    # the span of a batch (its bottom) and the end of a psi track set their
    # cost; both are stratified so that the median task is alike across seeds
    spans = [_stratified(rng, 24) for _ in LINE_HEIGHTS]
    for j in range(24):
        for h, H in enumerate(LINE_HEIGHTS):
            D = CM_DISCRIMINANTS[(k + j + h) % 5]
            top = float(rng.uniform(0.95 * H, H))
            bottom = float(spans[h][j] * 0.9 * top)
            tasks.append({"kind": "line_values", "D": D, "t": [bottom, top],
                          "n": LINE_POINTS})
    for u in _stratified(rng, 24):
        tasks.append({"kind": "psi_track", "t_max": float(20.0 + 130.0 * u)})
    # One Green's check at T = 300 and one at T = 600 per round, with D from
    # GREENS_SCHEDULE by round index: every seed runs the same sequence of
    # contour sizes, whose cost depends on T and D.
    for T, D in zip((300.0, 600.0), GREENS_SCHEDULE[k % 5]):
        y = CM_FORMS[D][1]
        w = [float(rng.uniform(1.1, 1.8)), float(rng.uniform(0.0, 1.0))]
        a = float(rng.uniform(max(2.0, 1.5 * y), 5.0))
        tasks.append({"kind": "greens", "D": D, "w": w, "a": a, "T": T})
    return tasks


# ---------------------------------------------------------------------------
# pointwise: many small scalar calls in the fundamental domain
# ---------------------------------------------------------------------------

def pointwise_round(rng: np.random.Generator, k: int) -> list:
    tasks = []
    for _ in range(4):
        s = [float(rng.uniform(0.7, 2.4)), float(rng.uniform(-0.8, 0.8))]
        tasks.append({"kind": "eigen_stencil", "z": _fd_point(rng), "s": s})
    # 9 sub-millisecond tasks, 5 Heegner values of a few ms and 8 slower
    # tasks: the median falls in the middle of the Heegner values
    for _ in range(3):
        tasks.append({"kind": "ground_state", "z": _fd_point(rng, 0.9, 2.0)})
    for _ in range(3):
        tasks.append({"kind": "laplace_e1", "z": _fd_point(rng, 0.9, 2.0)})
    for _ in range(3):
        tasks.append({"kind": "potential_row", "y": float(rng.uniform(1.0, 50.0)),
                      "x": np.linspace(-0.5, 0.5, 9).tolist()})
    # discriminants walk by position (the cost of an L-value grows with |D|)
    for j in range(5):
        s = _real_s(rng, 2) if j % 2 else _strip_s(rng, 2)
        tasks.append({"kind": "heegner", "D": CM_DISCRIMINANTS[(k + j) % 5], "s": s})
    for _ in range(2):
        lo = float(rng.uniform(0.1, 45.0))
        tasks.append({"kind": "exotic_roots", "a": float(rng.uniform(2.0, 10.0)),
                      "t": [lo, lo + 5.0]})
    for j in range(2):
        lo = float(rng.uniform(10.0, 60.0))
        tasks.append({"kind": "zero_scan", "D": CM_DISCRIMINANTS[(2 * k + j) % 5],
                      "t": [lo, lo + 2.0]})
    return tasks


_ROUNDS = {"epstein-lattice": epstein_round, "critical-line": critical_round,
           "pointwise": pointwise_round}

# The tail percentile of each workload.  Rounds hold 36, 98 and 22 tasks, so
# a run of at least 3, 2 and 10 rounds leaves ten tasks beyond it; a run even
# slower than that falls back to a lower percentile (see run.py).  A 20 s
# epstein-lattice run holds 5 to 9 rounds as the host's speed changes, so
# p95 there (6 rounds) would fall back to p90 on a slow stretch and move the
# metric by a third; p90 holds down to 3 rounds.
TAIL_PERCENTILE = {"epstein-lattice": 90.0, "critical-line": 90.0, "pointwise": 95.0}

# The first task of this kind is the warm-up, run once during set-up.
WARMUP_KIND = {"epstein-lattice": "single", "critical-line": "line_values",
               "pointwise": "eigen_stencil"}


def make_round(workload: str, seed: int, k: int) -> list:
    """Round ``k`` of ``workload`` for ``seed``; the same arguments give the same tasks."""
    return _ROUNDS[workload](np.random.default_rng([seed, k]), k)


def warmup_task(workload: str, seed: int) -> dict:
    """A task from an extra round that the timed loop never runs."""
    extra = make_round(workload, seed, 10**6)
    return next(t for t in extra if t["kind"] == WARMUP_KIND[workload])
