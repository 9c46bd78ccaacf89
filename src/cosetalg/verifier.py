"""Named, runnable checks over a catalog of (group, subgroup, rho) triples.

Each check encodes one algebraic statement about the coset convolution
machinery and reports pass/fail plus statistics; probes of questions the
library only observes (solution-space dimension, left-identity search,
lift-compatibility variants) report status "info" and never fail a suite.

Randomness: PCG64 generators seeded through SeedSequence from
(seed, catalog index, crc32 of the check id), so every (check, entry) pair is
reproducible in isolation and independent of execution order. Random measure
weights are uniform on the complex unit square [0,1] + [0,1]i.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial, reduce
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from . import exact
from ._kernels import group_convolve_weights, lift_weights, push_weights
from .errors import UnknownCheckId
from .exact import ExactVector
from .groups import (FiniteGroup, QuotientSpace, Subgroup, build_coset_space,
                     builtin_from_token, require_bytes,
                     subgroup_from_tokens, test_normality)
from .measures import (Carrier, ComplexMeasure, DensityFunction, from_density,
                       group_convolve, integrate, point_mass, total_variation)
from .quotient_algebra import (IdentitySolution, StructureTable, delta_h,
                               embed_density, find_left_identity,
                               find_two_sided_identity, ideal_factorize,
                               l1_convolve, lp_action, lp_norm, module_action,
                               quotient_convolve, quotient_convolve_exact,
                               rows_are_permutations, structure_table)
from .quotient_ops import (RhoFunction, compose_with_projection, lift_to_invariant,
                           membership_mgh, pushforward_rh, quasi_invariant_lambda,
                           quotient_integral_check, rho_from_dict, rho_ones,
                           solve_mhg_space, validate_rho, weighted_average_th)

SUBMULT_TOL = 1e-12


@dataclass(frozen=True)
class CheckSpec:
    id: str
    trials: int = 100
    seed: int = 42
    tolerance: Optional[float] = None   # None -> the check's pinned default
    mode: str = "float"                 # "float" | "exact"

    def __post_init__(self):
        if self.id not in CHECK_IDS:
            raise UnknownCheckId(f"unknown check id {self.id!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.mode not in ("float", "exact"):
            raise ValueError("mode must be 'float' or 'exact'")

    @property
    def tol(self) -> float:
        return self.tolerance if self.tolerance is not None else _CHECKS[self.id][1]


@dataclass
class CheckReport:
    id: str
    entry: str
    status: str                    # "pass" | "fail" | "info"
    max_residual: float = 0.0
    trials_run: int = 0
    elapsed_s: float = 0.0
    counterexample: Optional[dict] = None
    notes: str = ""

    def to_dict(self) -> dict:
        """Every field but the timing, so identical runs give identical dicts."""
        d = asdict(self)
        del d["elapsed_s"]
        d["max_residual"] = _stable(self.max_residual)
        return d


def _stable(x: float) -> float:
    """Round to 12 significant digits so reports do not depend on the BLAS."""
    return float(f"{float(x):.12g}")


# --- random draws -------------------------------------------------------------

def rng_for(seed: int, check_id: str, entry_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, entry_index, zlib.crc32(check_id.encode())])))


def draw_measure(rng: np.random.Generator, carrier: Carrier) -> ComplexMeasure:
    size = len(carrier.labels)
    return ComplexMeasure(carrier, rng.random(size) + 1j * rng.random(size))


def draw_density(rng: np.random.Generator, carrier: Carrier) -> DensityFunction:
    size = len(carrier.labels)
    return DensityFunction(carrier, rng.random(size) + 1j * rng.random(size))


def _draw_ratios(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators and denominators, each in 1..4, of a random rho."""
    return rng.integers(1, 5, k), rng.integers(1, 5, k)


def draw_rho(rng: np.random.Generator, Q: QuotientSpace) -> RhoFunction:
    nums, dens = _draw_ratios(rng, Q.coset_count)
    return validate_rho(Q, nums / dens)


def draw_rational_weights(rng: np.random.Generator, size: int) -> ExactVector:
    """Gaussian rationals a/b + (c/d)i with a, c in -4..4 and b, d in 1..4,
    over the denominator 12 = lcm(1, 2, 3, 4)."""
    re_n = rng.integers(-4, 5, size)
    im_n = rng.integers(-4, 5, size)
    de = rng.integers(1, 5, (2, size))
    return ExactVector(re_n * (12 // de[0]), im_n * (12 // de[1]), 12)


# --- entry context --------------------------------------------------------------

@dataclass
class EntryContext:
    name: str
    G: FiniteGroup
    H: Subgroup
    Q: QuotientSpace
    T: StructureTable
    rho: RhoFunction


def make_context(G: FiniteGroup, H: Subgroup, rho: Optional[dict] = None,
                 name: str = "") -> EntryContext:
    """An entry's coset space and structure table, shared by all its checks.
    rho is a rho file dict (see rho_from_dict), read on that coset space;
    rho defaults to 1 and the name to G.name/H<order>."""
    Q = build_coset_space(G, H)
    rho_fn = rho_ones(Q) if rho is None else rho_from_dict(Q, rho)
    return EntryContext(name=name or f"{G.name}/H{H.order}", G=G, H=H, Q=Q,
                        T=structure_table(Q), rho=rho_fn)


# --- individual checks ------------------------------------------------------------
#
# Each returns (status, max_residual, notes, trials_run), or raises _Fail.

@dataclass(eq=False)
class _Fail(Exception):
    """A failed check, recorded by run_check; the residual is 1.0 for a failed
    exact or yes/no test, and _trials sets trials_run to t + 1 for a failure
    in trial t."""
    counterexample: Optional[dict]
    residual: float = 1.0
    trials_run: int = 0
    notes: str = ""


def _worse(r: float, than: float) -> bool:
    """Whether residual r ranks above `than`, a worst so far or a bound. NaN
    ranks above every number, so it stays the worst and fails every bound."""
    return r > than or (math.isnan(r) and not math.isnan(than))


def _worst(a: float, b: float) -> float:
    """The worse of two residuals, ranked by _worse (a on a tie)."""
    return b if _worse(b, a) else a


def _trials(n: int, trial: Callable, worst: float = 0.0,
            witness: Optional[dict] = None) -> tuple[float, Optional[dict]]:
    """Run trial(t) for t < n, each giving (residual, witness) pairs: the worst
    residual, ranked by _worse from `worst` on, and its first witness."""
    for t in range(n):
        try:
            for r, w in trial(t):
                if _worse(r, worst):
                    worst, witness = r, w
        except _Fail as fail:
            fail.trials_run = t + 1
            raise
    return worst, witness


def _verdict(spec: CheckSpec, worst: float, witness: Optional[dict], notes: str = ""):
    """A check's result: pass while its worst residual is within tolerance,
    otherwise fail at the witness (so a call alone bounds one residual)."""
    if _worse(worst, spec.tol):
        raise _Fail(witness, worst, spec.trials, notes)
    return "pass", worst, notes, spec.trials


def _sup(mu: ComplexMeasure) -> float:
    """The largest |weight|."""
    return float(np.max(np.abs(mu.weights)))


def _mode(spec: CheckSpec, ctx: EntryContext) -> SimpleNamespace:
    """The arithmetic of coset vectors in the spec's mode: a random draw,
    convolution on the table, the group route push(lift a * lift b),
    delta_H, a vector as a float measure, and the gap between two vectors
    (under a norm in float mode, 0 or 1 in exact mode)."""
    T, Q = ctx.T, ctx.Q
    if spec.mode == "float":
        return SimpleNamespace(
            draw=lambda rng: draw_measure(rng, ctx.Q),
            convolve=lambda a, b: quotient_convolve(T, a, b),
            group_route=lambda a, b: module_action(Q, lift_to_invariant(Q, a), b),
            delta_h=delta_h(Q), measure=lambda m: m,
            gap=lambda a, b, norm=total_variation: norm(a - b))
    lift = partial(lift_weights, Q.coset_of, Q.subgroup.order)
    return SimpleNamespace(
        draw=lambda rng: draw_rational_weights(rng, Q.coset_count),
        convolve=lambda a, b: quotient_convolve_exact(T, a, b),
        group_route=lambda a, b: push_weights(
            Q.member_table, _exact_convolution(Q.group, lift(a), lift(b))),
        delta_h=ExactVector.from_fractions(exact.unit_vector(Q.coset_count, Q.base_coset)),
        measure=lambda s: ComplexMeasure(ctx.Q, s.to_complex()),
        gap=lambda a, b, norm=None: float(a != b))


def _check_w0_weil(spec, ctx, rng):
    def trial(t):
        f = draw_density(rng, ctx.G)
        rho_t = draw_rho(rng, ctx.Q) if t % 2 else ctx.rho
        lhs, rhs = quotient_integral_check(ctx.Q, rho_t, f)
        yield abs(lhs - rhs), {"trial": t, "rho": rho_t.values.tolist()}

    return _verdict(spec, *_trials(spec.trials, trial))


def _invariance_residual(Q: QuotientSpace, weights: np.ndarray) -> float:
    """Max violation of the literal system: sum over x*C of weights minus the
    weight at x, over all elements x and cosets C, in blocks of rows x."""
    n, k = Q.group.order, Q.coset_count
    # rows x of ~1 M gathered weights; per row its (k, |H|) index gather and
    # the complex weights through it, and its k sums and their differences
    block = max(1, min(n, (1 << 20) // n))
    require_bytes(block * (24 * n + 48 * k), f"invariance residual of order {n}")
    worst = 0.0
    for start in range(0, n, block):
        rows = slice(start, start + block)
        sums = weights[Q.group.mul[rows][:, Q.member_table.T]].sum(axis=2)  # C's members
        worst = _worst(worst, float(np.abs(sums - weights[rows, None]).max()))
    return worst


def _check_p1_mhg(spec, ctx, rng):
    basis = solve_mhg_space(ctx.Q)
    draws = min(spec.trials, 20)

    def trial(i):
        yield _invariance_residual(ctx.Q, basis[i].weights), None
        for _ in range(draws):
            conv = group_convolve(ctx.G, draw_measure(rng, ctx.G), basis[i])
            yield _invariance_residual(ctx.Q, conv.weights), None

    worst, _ = _trials(len(basis), trial)
    notes = (f"literal invariance system: dimension={len(basis)}; "
             f"left-convolution closure residual={_stable(worst):.3g} "
             f"on {draws} draws per basis vector")
    return "info", worst, notes, draws


def _check_p2_density(spec, ctx, rng):
    G, Q = ctx.G, ctx.Q

    def trial(t):
        mu = from_density(G, compose_with_projection(Q, draw_density(rng, Q)))
        if not membership_mgh(Q, mu):
            raise _Fail({"trial": t, "reason": "coset-constant density not invariant"})
        for h in ctx.H.members:
            g = draw_density(rng, G)
            translated = DensityFunction(g.carrier, g.values[G.mul[:, h]])   # x -> g(x h)
            yield abs(integrate(mu, translated) - integrate(mu, g)), {"trial": t, "h": G.labels[h]}
        if ctx.H.order > 1:
            bump = point_mass(G, int(rng.integers(0, G.order))) * (0.5 + 0.25j)
            if membership_mgh(Q, mu + bump):
                raise _Fail({"trial": t, "reason": "perturbed measure still reported invariant"})

    worst, witness = _trials(spec.trials, trial)
    # a point mass at the identity is never right-invariant
    if ctx.H.order > 1 and membership_mgh(Q, point_mass(G, G.identity)):
        raise _Fail({"reason": "identity point mass reported invariant"}, trials_run=spec.trials)
    return _verdict(spec, worst, witness)


def _check_p3_lift(spec, ctx, rng):
    Q, h = ctx.Q, ctx.Q.subgroup.order

    def trial(t):
        sigma = draw_measure(rng, Q)
        lifted = lift_to_invariant(Q, sigma)
        if not membership_mgh(Q, lifted):
            raise _Fail({"trial": t, "reason": "lift not right-invariant"})
        yield _sup(pushforward_rh(Q, lifted) - sigma), {"trial": t}
        yield abs(total_variation(lifted) - total_variation(sigma)), {"trial": t}
        nu = draw_measure(rng, ctx.G)
        if not membership_mgh(Q, group_convolve(ctx.G, nu, lifted)):
            raise _Fail({"trial": t, "reason": "left ideal violated: nu * lift not invariant"})

    worst, witness = _trials(spec.trials, trial)
    # exact route: section and norm identities over Gaussian rationals
    for t in range(min(spec.trials, 10)):
        s = draw_rational_weights(rng, Q.coset_count)
        lifted = lift_weights(Q.coset_of, h, s)
        if push_weights(Q.member_table, lifted) != s:
            raise _Fail({"trial": t, "reason": "exact section failed"}, trials_run=t + 1)
        if lifted.abs_squared() * (h * h) != s.abs_squared()[Q.coset_of]:
            raise _Fail({"trial": t, "reason": "exact lift norm identity failed"},
                        trials_run=t + 1)
    return _verdict(spec, worst, witness)


def _check_p4_isometry(spec, ctx, rng):
    Q = ctx.Q
    excess = []     # per trial, how far pushforward raised total variation

    def trial(t):
        mu = draw_measure(rng, ctx.G)
        excess.append(total_variation(pushforward_rh(Q, mu)) - total_variation(mu))
        lifted = lift_to_invariant(Q, draw_measure(rng, Q))
        yield (abs(total_variation(pushforward_rh(Q, lifted)) - total_variation(lifted)),
               {"trial": t})

    worst, witness = _trials(spec.trials, trial)
    _verdict(spec, reduce(_worst, excess, 0.0),
             {"reason": "pushforward increased total variation"})
    return _verdict(spec, worst, witness)


def _alternative_reps(rng: np.random.Generator, Q: QuotientSpace) -> np.ndarray:
    h = Q.subgroup.order
    return np.array([Q.member_table[rng.integers(0, h), c] for c in range(Q.coset_count)])


def _exact_convolution(G: FiniteGroup, w1: ExactVector, w2: ExactVector) -> ExactVector:
    """Group convolution over Gaussian rationals: the float kernel run on
    exact vectors."""
    n = G.order
    # measured peaks per pair (x, z), past a few KB of small arrays: 48 to 52
    # bytes on int64, 235 on Python ints, 285 to 290 when int64 operands widen
    wide = 2 * max(w1.bound, 1) * max(w2.bound, 1) * n >= 2 ** 63
    require_bytes((320 if wide else 56) * n * n + (1 << 13),
                  f"exact group convolution of order {n}")
    return group_convolve_weights(G.mul, G.inv, w1, w2)


def _check_d6_conv(spec, ctx, rng):
    T, Q, G = ctx.T, ctx.Q, ctx.G
    k = T.coset_count
    # every row of shift a permutation of the cosets makes every row of
    # counts sum to |H|
    require_bytes(5 * k * k + (1 << 16), f"shift permutation test with {k} cosets")
    if not rows_are_permutations(T.shift, k):
        raise _Fail({"reason": "row sums differ from |H|"})
    # two different bilinear maps agree on random integer vectors from
    # [0, 2^20) with probability at most 2^-19 (Schwartz-Zippel). The probe
    # draws from a jumped copy of rng's bit generator and leaves rng's
    # stream, and so every trial's draws, untouched
    probe = np.random.Generator(rng.bit_generator.jumped())
    s1, s2 = (ExactVector(probe.integers(0, 2 ** 20, k), np.zeros(k, dtype=np.int64))
              for _ in range(2))
    want = quotient_convolve_exact(T, s1, s2)
    for _ in range(10):
        alt = _alternative_reps(rng, Q)
        if quotient_convolve_exact(structure_table(Q, alt), s1, s2) != want:
            raise _Fail({"reason": "tensor depends on representative choice",
                         "reps": alt.tolist()})
    mode = _mode(spec, ctx)

    def trial(t):
        s1, s2 = mode.draw(rng), mode.draw(rng)
        yield mode.gap(mode.convolve(s1, s2), mode.group_route(s1, s2), _sup), {"trial": t}

    def module_trial(t):
        # pushing a group measure onto a coset measure agrees with the table
        # route once the group measure is right-invariant, and a point mass
        # at x sends the coset of y to the coset of x*y
        witness = {"trial": t, "part": "module action"}
        s1, s2 = draw_measure(rng, Q), draw_measure(rng, Q)
        mu_inv = lift_to_invariant(Q, s1)
        yield (_sup(module_action(Q, mu_inv, s2)
                    - quotient_convolve(T, pushforward_rh(Q, mu_inv), s2)), witness)
        yield _sup(module_action(Q, point_mass(G, G.identity), s2) - s2), witness
        x, b = int(rng.integers(0, G.order)), int(rng.integers(0, k))
        moved = module_action(Q, point_mass(G, x), point_mass(Q, b))
        target = int(Q.coset_of[G.mul[x, int(Q.reps[b])]])
        yield total_variation(moved - point_mass(Q, target)), witness

    worst, witness = _trials(spec.trials, trial)
    # exact mode reports the exact comparison alone
    return _verdict(spec, *_trials(0 if spec.mode == "exact" else min(spec.trials, 25),
                                   module_trial, worst, witness))


def _check_t8_algebra(spec, ctx, rng):
    T, mode = ctx.T, _mode(spec, ctx)

    def trial(t):
        s1, s2, s3 = (mode.draw(rng) for _ in range(3))
        lhs = mode.convolve(mode.convolve(s1, s2), s3)
        rhs = mode.convolve(s1, mode.convolve(s2, s3))
        yield mode.gap(lhs, rhs), {"trial": t, "law": "associativity"}
        m1, m2 = mode.measure(s1), mode.measure(s2)
        excess = (total_variation(quotient_convolve(T, m1, m2))
                  - total_variation(m1) * total_variation(m2))
        if _worse(excess, SUBMULT_TOL):
            raise _Fail({"trial": t, "law": "submultiplicativity"}, excess)

    worst, witness = _trials(spec.trials, trial)
    ident = find_left_identity(T)
    if ident.solution is not None:
        notes = "left identity found: unit mass on the base coset" \
            if _is_delta_h(ident, ctx.Q) else "left identity found (not the base coset)"
    else:
        notes = (f"no left identity; least-squares residual="
                 f"{_stable(ident.residual):.6g}")
    return _verdict(spec, worst, witness, notes)


def _is_delta_h(sol: IdentitySolution, Q: QuotientSpace) -> bool:
    return (sol.solution is not None
            and list(sol.solution) == exact.unit_vector(Q.coset_count, Q.base_coset))


def _right_identity_on_basis(T: StructureTable, Q: QuotientSpace) -> Optional[int]:
    """None when the base coset acts as a right identity on every point mass;
    otherwise the first coset index witnessing failure."""
    k = T.coset_count
    # per (a, z): the |H| gathered int32 cosets of h_action, the int32 shift
    # entry and the |H| bytes of their mask; then the int64 counts and a mask
    require_bytes((5 * T.denominator + 9) * k * k + (1 << 16),
                  f"right identity test with {k} cosets")
    ar = np.arange(k)
    counts = T.counts_at(ar[:, None], Q.base_coset, ar[None, :])
    counts[ar, ar] -= T.denominator
    bad = np.flatnonzero((counts != 0).any(axis=1))
    return int(bad[0]) if len(bad) else None


def _check_l11_right_id(spec, ctx, rng):
    coset = _right_identity_on_basis(ctx.T, ctx.Q)
    if coset is not None:
        raise _Fail({"reason": "basis right-identity failed", "coset": coset})
    mode = _mode(spec, ctx)

    def trial(t):
        s = mode.draw(rng)
        yield mode.gap(mode.convolve(s, mode.delta_h), s), {"trial": t}

    return _verdict(spec, *_trials(spec.trials, trial))


def _check_c13_unique_id(spec, ctx, rng):
    sol = find_two_sided_identity(ctx.T)
    if sol.solution is None:
        notes = (f"no two-sided identity (system inconsistent, "
                 f"least-squares residual={_stable(sol.residual):.6g})")
        return "pass", 0.0, notes, 1
    if not sol.unique:
        raise _Fail({"reason": "two-sided identity not unique"}, trials_run=1)
    if not _is_delta_h(sol, ctx.Q):
        raise _Fail({"reason": "two-sided identity differs from the base point mass",
                     "solution": [str(v) for v in sol.solution]}, trials_run=1)
    return "pass", 0.0, "two-sided identity exists and is the base-coset point mass", 1


def _left_identity_on_basis(T: StructureTable, Q: QuotientSpace) -> Optional[int]:
    """None when the base coset acts as a left identity on every point mass;
    otherwise the first coset index witnessing failure."""
    ar = np.arange(T.coset_count)
    bad = np.flatnonzero(T.counts_at(Q.base_coset, ar, ar) != T.denominator)
    return int(bad[0]) if len(bad) else None


def _check_c14_involution(spec, ctx, rng):
    normal = test_normality(ctx.G, ctx.H)
    witness_coset = _left_identity_on_basis(ctx.T, ctx.Q)
    if normal and witness_coset is not None:
        raise _Fail({"reason": "normal subgroup but base coset is not a left identity",
                     "coset": witness_coset}, trials_run=1)
    if not normal and witness_coset is None:
        raise _Fail({"reason": "non-normal subgroup but base coset acts as left identity"},
                    trials_run=1)
    if normal:
        notes = "base-coset point mass is a two-sided identity (subgroup normal)"
    else:
        notes = (f"left-identity failure witnessed on coset C{witness_coset}: "
                 "convolving from the left by the base point mass moves it")
    return "pass", 0.0, notes, 1


def _point_mass_products(T: StructureTable, Q: QuotientSpace) -> bool:
    """Whether every product of two point masses is a point mass: row (a, b)
    holds all |H| counts at z, the coset of rep_a * rep_b."""
    k = T.coset_count
    # per (a, b): the int64 index z (two int64 gathers while it is built),
    # then, with z held, the |H| gathered int32 cosets of h_action, the int32
    # shift entry, the |H| bytes of their mask, the int64 counts and a mask
    require_bytes((5 * T.denominator + 13) * k * k + (1 << 16),
                  f"point-mass product test with {k} cosets")
    ar = np.arange(k)
    z = Q.coset_of[Q.group.mul[Q.reps[:, None], Q.reps[None, :]]]
    return bool((T.counts_at(ar[:, None], ar[None, :], z) == T.denominator).all())


def _check_p15_normality(spec, ctx, rng):
    T, Q = ctx.T, ctx.Q
    normal = test_normality(ctx.G, ctx.H)
    left_id = _left_identity_on_basis(T, Q) is None
    point_mass_mult = _point_mass_products(T, Q)
    if not (normal == left_id == point_mass_mult):
        raise _Fail({"normal": normal, "left_identity": left_id,
                     "point_mass_products": point_mass_mult}, trials_run=1)
    dh = delta_h(Q)

    def trial(t):
        s = draw_measure(rng, Q)
        yield total_variation(quotient_convolve(T, dh, s) - s), None

    worst, _ = _trials(min(spec.trials, 25) if normal else 0, trial)
    _verdict(spec, worst, {"reason": "left identity residual too large"})
    return "pass", worst, f"normal={normal}; all three criteria agree", spec.trials


def _check_p16_embed(spec, ctx, rng):
    Q, h = ctx.Q, ctx.Q.subgroup.order

    def trial(t):
        rho_t = draw_rho(rng, Q) if t % 2 else ctx.rho
        lam = quasi_invariant_lambda(Q, rho_t)
        phi = draw_density(rng, Q)
        emb = embed_density(lam, phi)
        yield abs(total_variation(emb) - lp_norm(lam, phi, 1.0)), {"trial": t}
        yield float(np.max(np.abs(emb.weights / lam.weights - phi.values))), {"trial": t}

    worst, witness = _trials(spec.trials, trial)
    # exact: |phi_c * lam_c|^2 == |phi_c|^2 * lam_c^2 termwise, lam = |H| * rho
    for t in range(min(spec.trials, 10)):
        nums, dens = _draw_ratios(rng, Q.coset_count)
        lam = ExactVector.from_fractions([Fraction(h * int(a), int(b)) for a, b in zip(nums, dens)])
        phi = draw_rational_weights(rng, Q.coset_count)
        if (phi * lam).abs_squared() != phi.abs_squared() * (lam * lam):
            raise _Fail({"trial": t, "reason": "exact norm identity failed"}, trials_run=t + 1)
    return _verdict(spec, worst, witness)


def _check_l17_compat(spec, ctx, rng):
    Q = ctx.Q
    unweighted = {True: 0.0, False: 0.0}    # worst unweighted residual, by rho == 1

    def trial(t):
        phi = draw_density(rng, Q)
        for rho_t in (rho_ones(Q), draw_rho(rng, Q)):
            lam = quasi_invariant_lambda(Q, rho_t)
            target = embed_density(lam, phi)
            lifted = compose_with_projection(Q, phi)
            weighted = ComplexMeasure(ctx.G, lifted.values * rho_t.values[Q.coset_of])
            yield total_variation(pushforward_rh(Q, weighted) - target), None
            r_u = total_variation(pushforward_rh(Q, from_density(Q.group, lifted)) - target)
            unit = bool(np.all(rho_t.values == 1.0))
            unweighted[unit] = _worst(unweighted[unit], r_u)

    draws = min(spec.trials, 25)
    weighted_worst, _ = _trials(draws, trial)
    notes = (f"rho-weighted lift reproduces the embedded density for all sampled rho "
             f"(max residual {_stable(weighted_worst):.3g}); unweighted lift matches "
             f"for rho=1 (max residual {_stable(unweighted[True]):.3g}) and deviates "
             f"by up to {_stable(unweighted[False]):.3g} otherwise")
    return "info", weighted_worst, notes, draws


def _check_t18_ideal(spec, ctx, rng):
    Q, T = ctx.Q, ctx.T

    def trial(t):
        rho_t = draw_rho(rng, Q) if t % 2 else ctx.rho
        lam = quasi_invariant_lambda(Q, rho_t)
        phi = draw_density(rng, Q)
        sigma = draw_measure(rng, Q)
        psi = ideal_factorize(lam, T, phi, sigma)
        target = quotient_convolve(T, embed_density(lam, phi), sigma)
        yield total_variation(embed_density(lam, psi) - target), {"trial": t}

    return _verdict(spec, *_trials(spec.trials, trial))


def _operator_route(Q: QuotientSpace, rho: RhoFunction, p: float,
                    w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The rho-weighted coset average of the group convolution of two lifts."""
    conv = group_convolve_weights(Q.group.mul, Q.group.inv, w1, w2)
    return weighted_average_th(Q, rho, p, DensityFunction(Q.group, conv)).values


def _lp_action_operator(Q: QuotientSpace, rho: RhoFunction, side: str,
                        sigma: ComplexMeasure, phi: DensityFunction, p: float) -> np.ndarray:
    """Operator route of lp_action: the lift of sigma convolved with the
    rho^(1/p)-weighted lift of phi (on the left or the right)."""
    weighted = (phi.values * rho.values ** (1.0 / p))[Q.coset_of]
    lifted = lift_to_invariant(Q, sigma).weights
    pair = (lifted, weighted) if side == "left" else (weighted, lifted)
    return _operator_route(Q, rho, p, *pair)


def _l1_convolve_operator(Q: QuotientSpace, rho: RhoFunction,
                          phi: DensityFunction, psi: DensityFunction) -> np.ndarray:
    """Operator route of l1_convolve: the rho-weighted lifts of both densities."""
    r = rho.values[Q.coset_of]
    return _operator_route(Q, rho, 1.0, phi.values[Q.coset_of] * r, psi.values[Q.coset_of] * r)


def _check_p19_lp(spec, ctx, rng):
    Q, T = ctx.Q, ctx.T

    def trial(t):
        p = float((1, 2, 3)[t % 3])
        rho_t = draw_rho(rng, Q) if t % 2 else ctx.rho
        lam = quasi_invariant_lambda(Q, rho_t)
        sigma = draw_measure(rng, Q)
        phi = draw_density(rng, Q)
        bound = total_variation(sigma) * lp_norm(lam, phi, p)
        routes = []     # (side, explicit result, operator route)
        for side in ("left", "right"):
            out = lp_action(T, rho_t, side, sigma, phi, p)
            routes.append((side, out, _lp_action_operator(Q, rho_t, side, sigma, phi, p)))
            yield lp_norm(lam, out, p) - bound, {"trial": t, "p": p, "side": side}
        if p == 1.0:
            # embedding the acting density turns the p=1 action into the
            # coset density convolution
            phi2 = draw_density(rng, Q)
            acting = embed_density(lam, phi2)
            via_action = lp_action(T, rho_t, "left", acting, phi, 1.0)
            via_densities = l1_convolve(T, lam, phi2, phi)
            routes.append(("left", via_action,
                           _lp_action_operator(Q, rho_t, "left", acting, phi, 1.0)))
            routes.append(("left", via_densities, _l1_convolve_operator(Q, rho_t, phi2, phi)))
            yield (float(np.max(np.abs(via_action.values - via_densities.values))),
                   {"trial": t, "part": "density convolution cross-check"})
        # each result must match its operator route; the gap is a pass/fail
        # cross-check and stays out of the reported residual
        for side, explicit, operator in routes:
            gap = float(np.max(np.abs(explicit.values - operator)))
            if _worse(gap, spec.tol):
                raise _Fail({"trial": t, "p": p, "side": side,
                             "reason": "explicit and operator routes differ"}, gap)

    return _verdict(spec, *_trials(spec.trials, trial))


# check id -> (check, default tolerance)
_CHECKS: dict[str, tuple[Callable, float]] = {
    "W0_WEIL": (_check_w0_weil, 1e-10),
    "P1_MHG": (_check_p1_mhg, 1e-9),
    "P2_DENSITY": (_check_p2_density, 1e-10),
    "P3_LIFT": (_check_p3_lift, 1e-12),
    "P4_ISOMETRY": (_check_p4_isometry, 1e-12),
    "D6_CONV": (_check_d6_conv, 1e-12),
    "T8_ALGEBRA": (_check_t8_algebra, 1e-10),
    "L11_RIGHT_ID": (_check_l11_right_id, 1e-12),
    "C13_UNIQUE_ID": (_check_c13_unique_id, 1e-12),
    "C14_INVOLUTION": (_check_c14_involution, 1e-12),
    "P15_NORMALITY": (_check_p15_normality, 1e-12),
    "P16_EMBED": (_check_p16_embed, 1e-12),
    "L17_COMPAT": (_check_l17_compat, 1e-12),
    "T18_IDEAL": (_check_t18_ideal, 1e-12),
    "P19_LP": (_check_p19_lp, 1e-10),
}

CHECK_IDS = tuple(sorted(_CHECKS))


def run_check(spec: CheckSpec, ctx: EntryContext, entry_index: int = 0) -> CheckReport:
    """Run one named check on an entry's context."""
    rng = rng_for(spec.seed, spec.id, entry_index)
    start = time.perf_counter()
    counterexample = None
    try:
        status, worst, notes, trials_run = _CHECKS[spec.id][0](spec, ctx, rng)
    except Exception as exc:
        # a crash in one check becomes a failing record, not a suite abort
        fail = exc if isinstance(exc, _Fail) else _Fail(
            {"error": f"{type(exc).__name__}: {exc}"}, float("nan"))
        status, worst, counterexample = "fail", fail.residual, fail.counterexample
        notes, trials_run = fail.notes, fail.trials_run
    elapsed = time.perf_counter() - start
    return CheckReport(id=spec.id, entry=ctx.name, status=status,
                       max_residual=_stable(worst), trials_run=trials_run,
                       elapsed_s=elapsed, counterexample=counterexample, notes=notes)


# --- catalog and suite -------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: str                       # "builtin:..." token
    subgroup: tuple[str, ...]        # generator tokens


def default_catalog() -> list[CatalogEntry]:
    return [
        CatalogEntry("S3/<(12)>", "builtin:S3", ("(12)",)),
        CatalogEntry("S3/A3", "builtin:S3", ("(123)",)),
        CatalogEntry("D4/<r>", "builtin:D4", ("(1234)",)),
        CatalogEntry("D4/<s>", "builtin:D4", ("(24)",)),
        CatalogEntry("Q8/<i>", "builtin:Q8", ("i",)),
        CatalogEntry("A4/V4", "builtin:A4", ("(12)(34)", "(13)(24)")),
        CatalogEntry("C6/C3", "builtin:C6", ("(135)(246)",)),
        CatalogEntry("S4/S3", "builtin:S4", ("(12)", "(123)")),
    ]


def build_entry(entry: CatalogEntry) -> tuple[FiniteGroup, Subgroup]:
    G = builtin_from_token(entry.group)
    return G, subgroup_from_tokens(G, entry.subgroup)


def all_check_specs(trials: int = 100, seed: int = 42,
                    tolerance: Optional[float] = None,
                    mode: str = "float") -> list[CheckSpec]:
    return [CheckSpec(id=cid, trials=trials, seed=seed, tolerance=tolerance, mode=mode)
            for cid in CHECK_IDS]


def run_suite(catalog: Sequence[CatalogEntry], specs: Sequence[CheckSpec]) -> list[CheckReport]:
    """Cartesian product of checks x catalog entries, in deterministic order
    (check id, then catalog index), every check of an entry on one context.
    An entry whose group, subgroup, coset space or structure table cannot
    be built gives one failing record and does not abort the suite."""
    indexed = []
    for idx, entry in enumerate(catalog):
        try:
            G, H = build_entry(entry)
            ctx = make_context(G, H, None, entry.name)
        except Exception as exc:
            indexed.append((idx, CheckReport(
                id="CONSTRUCTION", entry=entry.name, status="fail",
                max_residual=float("nan"), trials_run=0,
                counterexample={"entry": entry.name,
                                "error": f"{type(exc).__name__}: {exc}"},
                notes="catalog entry could not be constructed")))
            continue
        indexed += [(idx, run_check(spec, ctx, idx)) for spec in specs]
    # key on the catalog index, not the entry name: names need not be unique
    indexed.sort(key=lambda pair: (pair[1].id, pair[0]))
    return [report for _, report in indexed]


def exit_code(reports: Sequence[CheckReport]) -> int:
    """0 when nothing failed; "info" never fails a suite."""
    return 1 if any(r.status == "fail" for r in reports) else 0
