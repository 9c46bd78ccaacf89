"""The benchmark's workloads: inputs, timed steps, and the correctness gate.

Each workload has three sizes: `full` (what the benchmark measures), `warmup`
(the same calls on S3/<(12)>, run once during set-up) and `tiny` (the
self-test). A size is plain data, expected outcomes included, so the
self-test can plant a wrong expectation and watch the gate catch it.

A pass is a list of steps (one per suite mode, ladder pair or solve); each
step returns its metric contributions, and `summarize` turns their sums into
the workload's metrics. Every operation a step attempts is counted in a
`Tally`, and every gate that does not hold counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np


@dataclass
class Tally:
    """Operation counts of a run, and the timer its steps use. The benchmark
    passes a timer that leaves out its own sampling pauses."""

    clock: Callable[[], float] = time.perf_counter
    attempted: int = 0
    failed: int = 0

    def gate(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate failed: {what}", file=sys.stderr)
        return ok


def cycle_token(perm) -> str:
    """Comma-separated 1-based cycle notation, as the CLI and library parse it."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, j = [], start
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = perm[j]
        cycles.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(cycles) or "e"


def dihedral_reflection(n: int) -> str:
    """The reflection generator of builtin Dn: i -> -i (mod n)."""
    return cycle_token([(-i) % n for i in range(n)])


def dihedral_rotation(n: int, power: int) -> str:
    """r^power in builtin Dn, with r: i -> i + 1 (mod n)."""
    return cycle_token([(i + power) % n for i in range(n)])


@dataclass(frozen=True)
class Pair:
    """A (G, H) pair named by builtin tokens, with its expected sizes."""

    name: str
    group: str                  # builtin token
    gens: tuple[str, ...]       # subgroup generator tokens; () is {e}
    order: int                  # expected |G|
    cosets: int                 # expected [G:H]


S3_H = Pair("S3/<(12)>", "builtin:S3", ("(12)",), 6, 3)


def _build(ca, pair: Pair):
    G = ca.builtin_from_token(pair.group)
    H = ca.subgroup_from_tokens(G, list(pair.gens))
    return G, H, ca.build_coset_space(G, H)


# --- catalog ----------------------------------------------------------------

CHECK_COUNT = 15


@dataclass(frozen=True)
class CatalogSize:
    pair_args: tuple[str, ...]   # extra `check` arguments; () is the default catalog
    trials: int
    reports: int                 # expected reports per mode


CATALOG = {
    "full": CatalogSize((), 100, CHECK_COUNT * 8),
    "warmup": CatalogSize(("--group", S3_H.group, "--subgroup", S3_H.gens[0]),
                          100, CHECK_COUNT),
    "tiny": CatalogSize(("--group", S3_H.group, "--subgroup", S3_H.gens[0]),
                        3, CHECK_COUNT),
}


class Catalog:
    """`cosetalg check --format json` in-process, float then exact mode."""

    metrics = ("suite_float_s", "suite_exact_s")
    min_passes = 2          # the byte-identity gate compares two passes

    def __init__(self, size: CatalogSize, seed: int):
        self.size = size
        self.seed = seed
        self.reference: dict[str, str] = {}

    def steps(self) -> list:
        return [functools.partial(self.suite, mode) for mode in ("float", "exact")]

    def suite(self, mode: str, ca, tally: Tally) -> dict:
        argv = ["check", "--format", "json", "--seed", str(self.seed),
                "--trials", str(self.size.trials), "--jobs", "1",
                "--mode", mode, *self.size.pair_args]
        buf = io.StringIO()
        start = tally.clock()
        with contextlib.redirect_stdout(buf):
            code = ca.cli.main(argv)
        elapsed = tally.clock() - start
        text = buf.getvalue()
        reports = json.loads(text) if code in (0, 1) else []
        same = self.reference.setdefault(mode, text) == text
        tally.gate(code == 0 and len(reports) == self.size.reports
                   and not any(r["status"] == "fail" for r in reports) and same,
                   f"catalog {mode}: exit {code}, {len(reports)} reports "
                   f"(expected {self.size.reports}), "
                   f"{sum(r['status'] == 'fail' for r in reports)} failing, "
                   f"bytes identical to first pass: {same}")
        return {f"suite_{mode}_s": elapsed}

    @staticmethod
    def summarize(sums: dict) -> dict:
        return sums


# --- ladder -----------------------------------------------------------------

@dataclass(frozen=True)
class LadderSize:
    pairs: tuple[Pair, ...]
    batch: int               # quotient and group convolutions per pair


LADDER = {
    "full": LadderSize((
        Pair("D60/<s>", "builtin:D60", (dihedral_reflection(60),), 120, 60),
        Pair("S5/S4", "builtin:S5", ("(12)", "(1234)"), 120, 5),
        Pair("S5/{e}", "builtin:S5", (), 120, 120),
        Pair("A6/{e}", "builtin:A6", (), 360, 360),
        Pair("S6/<(12)>", "builtin:S6", ("(12)",), 720, 360),
    ), batch=4),
    "warmup": LadderSize((S3_H,), batch=4),
    "tiny": LadderSize((S3_H, Pair("S4/{e}", "builtin:S4", (), 24, 24)), batch=2),
}

# Tolerance of the quotient-vs-group-route gate, relative to ||s1|| * ||s2||,
# the bound on the product's total variation.
CONV_TOL = 1e-12


class Ladder:
    """Library API on growing pairs: build, structure table, convolutions."""

    metrics = ("build_s", "qconv_per_s", "gconv_per_s")
    min_passes = 1

    def __init__(self, size: LadderSize, seed: int):
        self.size = size
        rng = np.random.default_rng(seed)

        def draw(n):
            return rng.random((size.batch, 2, n)) + 1j * rng.random((size.batch, 2, n))

        # per pair: quotient weights (batch, 2, k) and group weights (batch, 2, n)
        self.inputs = [(draw(p.cosets), draw(p.order)) for p in size.pairs]

    def steps(self) -> list:
        return [functools.partial(self.pair, i) for i in range(len(self.size.pairs))]

    def pair(self, index: int, ca, tally: Tally) -> dict:
        pair, (qw, gw) = self.size.pairs[index], self.inputs[index]
        start = tally.clock()
        G, H, Q = _build(ca, pair)
        T = ca.structure_table(Q)
        build = tally.clock() - start
        tally.gate(G.order == pair.order and Q.coset_count == pair.cosets
                   and bool((T.counts.sum(axis=2) == H.order).all()),
                   f"ladder {pair.name}: |G|={G.order}, k={Q.coset_count}, "
                   f"table rows must sum to |H|={H.order}")
        qc, gc = ca.quotient_carrier(Q), ca.group_carrier(G)
        qconv = gconv = 0.0
        for i in range(self.size.batch):
            s1, s2 = ca.ComplexMeasure(qc, qw[i, 0]), ca.ComplexMeasure(qc, qw[i, 1])
            start = tally.clock()
            prod = ca.quotient_convolve(T, s1, s2)
            qconv += tally.clock() - start
            m1, m2 = ca.ComplexMeasure(gc, gw[i, 0]), ca.ComplexMeasure(gc, gw[i, 1])
            start = tally.clock()
            ca.group_convolve(G, m1, m2)
            gconv += tally.clock() - start
            tally.attempted += 2
            if i == 0:
                route = ca.pushforward_rh(Q, ca.group_convolve(
                    G, ca.lift_to_invariant(Q, s1), ca.lift_to_invariant(Q, s2)))
                gap = float(np.max(np.abs(prod.weights - route.weights)))
                scale = ca.total_variation(s1) * ca.total_variation(s2)
                tally.gate(gap <= CONV_TOL * scale,
                           f"ladder {pair.name}: table and group route differ "
                           f"by {gap:.3e} (scale {scale:.3g})")
        return {"build_s": build, "qconv_s": qconv, "gconv_s": gconv,
                "convs": self.size.batch}

    @staticmethod
    def summarize(sums: dict) -> dict:
        convs = sums.get("convs", 0)
        return {"build_s": sums.get("build_s", 0.0),
                "qconv_per_s": convs / sums["qconv_s"] if convs else 0.0,
                "gconv_per_s": convs / sums["gconv_s"] if convs else 0.0}


# --- solve ------------------------------------------------------------------

@dataclass(frozen=True)
class SolveCase:
    pair: Pair
    solver: str      # find_left_identity | find_two_sided_identity | solve_mhg_space
    expect: str      # "none" | "delta_h" | "dim=<d>"


@dataclass(frozen=True)
class SolveSize:
    cases: tuple[SolveCase, ...]


_D60_S = Pair("D60/<s>", "builtin:D60", (dihedral_reflection(60),), 120, 60)
_D60_Z = Pair("D60/<r^30>", "builtin:D60", (dihedral_rotation(60, 30),), 120, 60)
_D6_S = Pair("D6/<s>", "builtin:D6", (dihedral_reflection(6),), 12, 6)
_D6_Z = Pair("D6/<r^3>", "builtin:D6", (dihedral_rotation(6, 3),), 12, 6)

SOLVE = {
    "full": SolveSize((
        SolveCase(_D60_S, "find_left_identity", "none"),
        SolveCase(_D60_S, "find_two_sided_identity", "none"),
        SolveCase(_D60_Z, "find_left_identity", "delta_h"),
        SolveCase(Pair("S5/S4", "builtin:S5", ("(12)", "(1234)"), 120, 5),
                  "solve_mhg_space", "dim=0"),
    )),
    "warmup": SolveSize((
        SolveCase(S3_H, "find_left_identity", "none"),
        SolveCase(S3_H, "find_two_sided_identity", "none"),
        SolveCase(S3_H, "solve_mhg_space", "dim=0"),
    )),
    "tiny": SolveSize((
        SolveCase(_D6_S, "find_left_identity", "none"),
        SolveCase(_D6_S, "find_two_sided_identity", "none"),
        SolveCase(_D6_Z, "find_left_identity", "delta_h"),
        SolveCase(S3_H, "solve_mhg_space", "dim=0"),
    )),
}


def _identity_outcome(sol, Q) -> str:
    if sol.solution is None:
        return "none" if sol.residual > 0 else "none with zero residual"
    want = tuple(Fraction(int(c == Q.base_coset)) for c in range(Q.coset_count))
    return "delta_h" if sol.unique and tuple(sol.solution) == want else "other solution"


class Solve:
    """Exact linear solves at medium size; no randomness."""

    metrics = ("identity_solve_s", "mhg_solve_s")
    min_passes = 1

    def __init__(self, size: SolveSize, seed: int):
        self.size = size

    def steps(self) -> list:
        return [functools.partial(self.case, c) for c in self.size.cases]

    @staticmethod
    def case(case: SolveCase, ca, tally: Tally) -> dict:
        G, H, Q = _build(ca, case.pair)
        if case.solver == "solve_mhg_space":
            start = tally.clock()
            basis = ca.solve_mhg_space(Q)
            out = {"mhg_solve_s": tally.clock() - start}
            outcome = f"dim={len(basis)}"
        else:
            T = ca.structure_table(Q)
            start = tally.clock()
            sol = getattr(ca, case.solver)(T)
            out = {"identity_solve_s": tally.clock() - start}
            outcome = _identity_outcome(sol, Q)
        tally.gate(outcome == case.expect,
                   f"solve {case.solver} on {case.pair.name}: "
                   f"got {outcome}, expected {case.expect}")
        return out

    @classmethod
    def summarize(cls, sums: dict) -> dict:
        return {name: sums.get(name, 0.0) for name in cls.metrics}


WORKLOADS = {
    "catalog": (Catalog, CATALOG),
    "ladder": (Ladder, LADDER),
    "solve": (Solve, SOLVE),
}
