"""Named, runnable checks over a catalog of (group, subgroup, rho) triples.

Each check encodes one algebraic statement about the coset convolution
machinery and reports pass/fail plus statistics; the two probes of
questions the library only observes, P1_MHG (the dimension of the
invariance system's solutions) and L17_COMPAT (lift-compatibility
variants), report status "info" and never fail a suite.

Randomness: PCG64 generators seeded through SeedSequence from
(seed, catalog index, crc32 of the check id), so every (check, entry) pair is
reproducible in isolation and independent of execution order. A float trial
draws one row of uniform doubles and cuts its operands from it: measure
weights uniform on the complex unit square [0,1] + [0,1]i, rho values a/b
with a and b uniform on 1..4, and points uniform on a group or coset space.
"""

from __future__ import annotations

import copy
import numbers
import time
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels, quotient_algebra
from ._kernels import lift_weights, push_weights
from .errors import UnknownCheckId
from .exact import ExactVector
from .groups import (FiniteGroup, QuotientSpace, Subgroup, _scan_block, build_coset_space,
                     builtin_from_token, require_bytes, subgroup_from_tokens, test_normality)
from .measures import (ComplexMeasure, DensityFunction, from_density,
                       group_convolve, integrate, point_mass, total_variation)
from .quotient_algebra import (IdentitySolution, StructureTable, delta_h,
                               embed_density, find_left_identity,
                               find_two_sided_identity, ideal_factorize,
                               l1_convolve, lp_action, lp_norm, module_action,
                               quotient_convolve, quotient_convolve_exact,
                               rows_hold_the_suborbits, structure_table)
from .quotient_ops import (RhoFunction, _exponent, compose_with_projection, lift_to_invariant,
                           membership_mgh, pushforward_rh, quasi_invariant_lambda,
                           quotient_integral_check, rho_from_dict, rho_ones,
                           solve_mhg_space, validate_rho)

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
            raise UnknownCheckId(f"unknown check id {self.id!r}; the ids are {', '.join(CHECK_IDS)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
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
        """Every field but the timing, so identical runs give identical dicts;
        the counterexample is a copy."""
        witness = self.counterexample
        return {"id": self.id, "entry": self.entry, "status": self.status,
                "max_residual": _stable(self.max_residual), "trials_run": self.trials_run,
                "counterexample": None if witness is None else copy.deepcopy(witness),
                "notes": self.notes}


def _stable(x: float) -> float:
    """Round to 12 significant digits, so runs on one host give identical
    reports. A residual at roundoff level still moves with the BLAS kernel
    (ROADMAP item 17)."""
    return float(f"{float(x):.12g}")


# --- random draws -------------------------------------------------------------
#
# Every draw reads the generator in one fixed order, trial by trial, so a
# block of trials draws exactly what its trials drew one at a time.

def rng_for(seed: int, check_id: str, entry_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, entry_index, zlib.crc32(check_id.encode())])))


def _split(raw: np.ndarray, *sizes: int) -> list[np.ndarray]:
    """Complex parts from uniform doubles along the last axis: per size,
    its real parts, then its imaginary parts."""
    out, at = [], 0
    for size in sizes:
        out.append(raw[..., at:at + size] + 1j * raw[..., at + size:at + 2 * size])
        at += 2 * size
    return out


def _draw_weights(rng: np.random.Generator, count: int, *sizes: int) -> list[np.ndarray]:
    """Complex parts of the given sizes, each (count, size), cut by _split
    from one row of uniform doubles per trial: one rng.random call draws
    what `count` trials each calling `rng.random(2 * sum(sizes))` drew."""
    return _split(rng.random((count, 2 * sum(sizes))), *sizes)


def _index(u: np.ndarray, n) -> np.ndarray:
    """floor(u * n) of uniform doubles u: an index below n, as u < 1."""
    return (u * n).astype(np.intp)


def _rho_values(part: np.ndarray) -> np.ndarray:
    """Rho values from a part cut by _split: a/b with a = 1 + floor(4 Re)
    and b = 1 + floor(4 Im), each uniform on 1..4."""
    return (1 + _index(part.real, 4)) / (1 + _index(part.imag, 4))


def draw_rho(rng: np.random.Generator, Q: QuotientSpace) -> RhoFunction:
    """A random rho, from 2k uniform doubles as a trial's row holds it."""
    return validate_rho(Q, _rho_values(*_split(rng.random(2 * Q.coset_count), Q.coset_count)))


def draw_rational_weights(rng: np.random.Generator, size: int) -> ExactVector:
    """Gaussian rationals a/b + (c/d)i with a, c in -4..4 and b, d in 1..4,
    over the denominator 12 = lcm(1, 2, 3, 4)."""
    re_n = rng.integers(-4, 5, size)
    im_n = rng.integers(-4, 5, size)
    de = rng.integers(1, 5, (2, size))
    return ExactVector(re_n * (12 // de[0]), im_n * (12 // de[1]), 12)


def _integer_rows(rng: np.random.Generator, count: int, lows: tuple, size: int) -> np.ndarray:
    """(count, len(lows), size) integers, row j in lows[j]..4: what `count`
    trials each calling rng.integers(lows[j], 5, size) for every j in turn
    drew. One call with a bound per value draws the same, as numpy draws a
    bounded integer below 2**32 from 32-bit outputs value by value."""
    low = np.repeat(lows, size)
    return rng.integers(low, 5, (count, low.size)).reshape(count, len(lows), size)


# the raw draws of one draw_rational_weights: the numerators of re and im,
# then their denominators
_RATIONAL_LOWS = (-4, -4, 1, 1)


def _rational(parts: np.ndarray) -> ExactVector:
    """The Gaussian rationals of raw draws (..., 4, size), over 12."""
    return ExactVector(parts[..., 0, :] * (12 // parts[..., 2, :]),
                       parts[..., 1, :] * (12 // parts[..., 3, :]), 12)


def _rational_draws(rng: np.random.Generator, count: int, m: int, size: int) -> list[ExactVector]:
    """m ExactVectors of shape (count, size), as `count` trials each calling
    draw_rational_weights m times draw them."""
    parts = _integer_rows(rng, count, _RATIONAL_LOWS * m, size).reshape(count, m, 4, size)
    return [_rational(parts[:, j]) for j in range(m)]


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


class _Fails:
    """The trials of a block that fail one test: mask holds one bool per
    trial (or one for all), witness(t) gives trial t's counterexample, and
    residual is per trial (or one for all)."""

    def __init__(self, mask, witness: Callable[[int], dict], residual=1.0):
        self.mask, self.witness, self.residual = mask, witness, residual


def _at(**fields) -> Callable[[int], dict]:
    """The witness naming trial t and the given fields."""
    return lambda t: {"trial": t, **fields}


def _worse(r, than):
    """Whether residual r ranks above `than`, a worst so far or a bound. NaN
    ranks above every number, so it stays the worst and fails every bound.
    Entrywise on arrays."""
    return np.greater(r, than) | (np.isnan(r) & ~np.isnan(than))


def _worst(a: float, b: float) -> float:
    """The worse of two residuals, ranked by _worse (a on a tie)."""
    return b if _worse(b, a) else a


def _worst_of(residuals, worst: float = 0.0) -> float:
    """The worst of `worst` and the residuals, ranked by _worse."""
    r = np.ravel(residuals)
    return _worst(worst, float(r[r.argmax()])) if r.size else worst


def _trial_bytes(spec: CheckSpec, ctx: EntryContext, on_table: bool = False) -> int:
    """What one trial holds beside the kernels' blocks, which size
    themselves: its operand and result vectors, two per member of H and four
    more of |G| entries at 16 bytes each, and each kernel's smallest block
    for one vector at its rate in the spec's mode: two rows x of a group
    convolution and, for a trial that convolves on the table, 64 columns z
    (at most k) of a quotient convolution."""
    n, k, h = ctx.G.order, ctx.Q.coset_count, ctx.H.order
    exact = spec.mode == "exact"
    group_rate = _kernels.GROUP_EXACT_RATE if exact else _kernels.GROUP_RATE
    quotient_rate = _kernels.QUOTIENT_EXACT_RATE if exact else _kernels.QUOTIENT_RATE
    return 16 * (2 * h + 4) * n + group_rate * 2 * n + on_table * quotient_rate * min(k, 64) * k


def _trials(n: int, trial: Callable, per_trial: int, worst: float = 0.0,
            witness: Optional[dict] = None) -> tuple[float, Optional[dict]]:
    """Run the trials t < n in blocks, as many per block as fit the kernels'
    BLOCK_BYTES at per_trial bytes each (at least one). trial(ts) gets a
    block's trial numbers and yields, in its program order, (residuals,
    witness) pairs, one residual per trial of the block (or one for all) and
    witness(t) or None, and _Fails. Returns the worst residual, ranked by
    _worse in (trial, yield) order from `worst` on, and its witness. Raises
    the first failure in (trial, yield) order, as a _Fail of trials_run
    t + 1."""
    block = max(1, min(n, _kernels.BLOCK_BYTES // max(per_trial, 1)))
    for start in range(0, n, block):
        ts = np.arange(start, min(n, start + block))
        ranked, fails = [], []
        for item in trial(ts):
            (fails if isinstance(item, _Fails) else ranked).append(item)
        if fails:
            hit = _columns([f.mask for f in fails], len(ts), bool)
            if hit.any():
                i, j = divmod(int(hit.argmax()), len(fails))
                residual = _columns([fails[j].residual], len(ts), np.float64)[i, 0]
                raise _Fail(fails[j].witness(int(ts[i])), float(residual),
                            trials_run=int(ts[i]) + 1)
        if ranked:
            # argmax finds the first NaN, else the first maximum
            r = _columns([r for r, _ in ranked], len(ts), np.float64)
            i, j = divmod(int(r.argmax()), len(ranked))
            if _worse(r[i, j], worst):
                named = ranked[j][1]
                worst, witness = float(r[i, j]), named(int(ts[i])) if named else None
    return worst, witness


def _columns(values: list, n: int, dtype) -> np.ndarray:
    """(n, len(values)), column j holding values[j], one per trial or for all."""
    out = np.empty((n, len(values)), dtype)
    for j, value in enumerate(values):
        out[:, j] = value
    return out


def _verdict(spec: CheckSpec, worst: float, witness: Optional[dict], notes: str = ""):
    """A check's result: pass while its worst residual is within tolerance,
    otherwise fail at the witness (so a call alone bounds one residual)."""
    if _worse(worst, spec.tol):
        raise _Fail(witness, worst, spec.trials, notes)
    return "pass", worst, notes, spec.trials


def _sup(mu: ComplexMeasure):
    """The largest |weight| of each vector."""
    return np.max(np.abs(mu.weights), axis=-1)


def _differ(a: ExactVector, b: ExactVector) -> np.ndarray:
    """Per vector, whether two exact vectors differ anywhere."""
    return ~a.equal(b).all(axis=-1)


def _trial_rhos(ctx: EntryContext, ts: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Each trial's rho values: from its part on odd trials, the entry's on
    even ones."""
    return np.where((ts % 2 == 1)[:, None], _rho_values(part), ctx.rho.values)


def _mode(spec: CheckSpec, ctx: EntryContext) -> SimpleNamespace:
    """The arithmetic of coset vectors in the spec's mode: m random draws
    for each of `count` trials (m batches), convolution on the table, the
    group route push(lift a * lift b), delta_H, vectors as float measures,
    and per vector the gap between two (under a norm in float mode, 0 or 1
    in exact mode)."""
    T, Q = ctx.T, ctx.Q
    k = Q.coset_count
    if spec.mode == "float":
        return SimpleNamespace(
            draw=lambda rng, count, m: [ComplexMeasure(Q, w) for w in
                                        _draw_weights(rng, count, *[k] * m)],
            convolve=lambda a, b: quotient_convolve(T, a, b),
            group_route=lambda a, b: module_action(Q, lift_to_invariant(Q, a), b),
            delta_h=delta_h(Q), measure=lambda m: m,
            gap=lambda a, b, norm=total_variation: norm(a - b))
    # push(lift a * lift b) as module_action computes it: lift a convolved
    # with b∘pi = |H| lift b, at the representatives
    return SimpleNamespace(
        draw=lambda rng, count, m: _rational_draws(rng, count, m, k),
        convolve=lambda a, b: quotient_convolve_exact(T, a, b),
        group_route=lambda a, b: quotient_algebra._at_reps(
            Q, lift_weights(Q.coset_of, Q.subgroup.order, a), b.take(Q.coset_of, axis=-1)),
        delta_h=ExactVector((np.arange(k) == Q.base_coset).astype(np.int64), np.zeros(k, np.int64)),
        measure=lambda s: ComplexMeasure(Q, s.to_complex()),
        gap=lambda a, b, norm=None: _differ(a, b).astype(np.float64))


def _check_w0_weil(spec, ctx, rng):
    G, Q = ctx.G, ctx.Q

    def trial(ts):
        f, rhos = _draw_weights(rng, len(ts), G.order, Q.coset_count)
        f, rhos = DensityFunction(G, f), _trial_rhos(ctx, ts, rhos)
        lhs, rhs = quotient_integral_check(Q, RhoFunction(Q, rhos), f)
        yield np.abs(lhs - rhs), lambda t: {"trial": t, "rho": rhos[t - ts[0]].tolist()}

    return _verdict(spec, *_trials(spec.trials, trial, _trial_bytes(spec, ctx)))


def _invariance_residual(Q: QuotientSpace, weights: np.ndarray) -> float:
    """Max violation of the literal system: sum over x*C of weights minus the
    weight at x, over all elements x and cosets C, in blocks of rows x."""
    n = Q.group.order
    # rows x as a scan of G's table reads them; per gathered entry (x, member)
    # its int64 index and complex weight, and per row its k sums and their
    # differences, at most 48 bytes an entry as k <= n
    block = _scan_block(n, n, 72, f"invariance residual of order {n}")
    worst = 0.0
    for start in range(0, n, block):
        rows = slice(start, start + block)
        sums = weights[Q.group.mul[rows][:, Q.member_table.T]].sum(axis=2)  # C's members
        worst = _worst(worst, float(np.abs(sums - weights[rows, None]).max()))
    return worst


def _check_p1_mhg(spec, ctx, rng):
    G, Q = ctx.G, ctx.Q
    basis, draws, worst = solve_mhg_space(Q), min(spec.trials, 20), 0.0
    for vector in basis:
        def trial(ts):
            # left convolutions of the basis vector by random measures; the
            # vector as a batch, so the kernel multiplies in place
            mu = ComplexMeasure(G, *_draw_weights(rng, len(ts), G.order))
            conv = group_convolve(G, mu, ComplexMeasure(
                G, np.broadcast_to(vector.weights, mu.weights.shape)))
            yield [_invariance_residual(Q, w) for w in conv.weights], None

        worst = _worst(worst, _invariance_residual(Q, vector.weights))
        worst, _ = _trials(draws, trial, _trial_bytes(spec, ctx), worst)
    notes = (f"literal invariance system: dimension={len(basis)}; "
             f"left-convolution closure residual={_stable(worst):.3g} "
             f"on {draws} draws per basis vector")
    return "info", worst, notes, draws


def _check_p2_density(spec, ctx, rng):
    G, Q, H = ctx.G, ctx.Q, ctx.H
    n, k, h = G.order, Q.coset_count, H.order

    def trial(ts):
        # phi, a density per h_j, and a point when H is not trivial
        raw = rng.random((len(ts), 2 * (k + h * n) + (h > 1)))
        (phi,) = _split(raw[:, :2 * k], k)
        densities = raw[:, 2 * k:2 * (k + h * n)].reshape(len(ts), h, 2 * n)
        mu = from_density(G, compose_with_projection(Q, DensityFunction(Q, phi)))
        yield _Fails(~membership_mgh(Q, mu), _at(reason="coset-constant density not invariant"))
        for j, x in enumerate(H.members):
            (g,) = _split(densities[:, j], n)
            moved = DensityFunction(G, g.take(G.mul[:, x], axis=-1))   # x' -> g(x' h_j)
            yield (np.abs(integrate(mu, moved) - integrate(mu, DensityFunction(G, g))),
                   lambda t, x=x: {"trial": t, "h": G.label(x)})   # formatted if named
        if h > 1:
            bump = point_mass(G, _index(raw[:, -1], n)) * (0.5 + 0.25j)
            yield _Fails(membership_mgh(Q, mu + bump),
                         _at(reason="perturbed measure still reported invariant"))

    worst, witness = _trials(spec.trials, trial, _trial_bytes(spec, ctx))
    # a point mass at the identity is never right-invariant
    if h > 1 and membership_mgh(Q, point_mass(G, G.identity)):
        raise _Fail({"reason": "identity point mass reported invariant"}, trials_run=spec.trials)
    return _verdict(spec, worst, witness)


def _check_p3_lift(spec, ctx, rng):
    G, Q, h = ctx.G, ctx.Q, ctx.Q.subgroup.order

    def trial(ts):
        sigma, nu = _draw_weights(rng, len(ts), Q.coset_count, G.order)
        sigma = ComplexMeasure(Q, sigma)
        lifted = lift_to_invariant(Q, sigma)
        yield _Fails(~membership_mgh(Q, lifted), _at(reason="lift not right-invariant"))
        yield _sup(pushforward_rh(Q, lifted) - sigma), _at()
        yield np.abs(total_variation(lifted) - total_variation(sigma)), _at()
        yield _Fails(~membership_mgh(Q, group_convolve(G, ComplexMeasure(G, nu), lifted)),
                     _at(reason="left ideal violated: nu * lift not invariant"))

    def exact_trial(ts):
        # section and norm identities over Gaussian rationals
        (s,) = _rational_draws(rng, len(ts), 1, Q.coset_count)
        lifted = lift_weights(Q.coset_of, h, s)
        yield _Fails(_differ(push_weights(Q.member_table, lifted), s),
                     _at(reason="exact section failed"))
        yield _Fails(_differ(lifted.abs_squared() * (h * h), s.abs_squared()[..., Q.coset_of]),
                     _at(reason="exact lift norm identity failed"))

    worst, witness = _trials(spec.trials, trial, _trial_bytes(spec, ctx))
    _trials(min(spec.trials, 10), exact_trial, _trial_bytes(spec, ctx))
    return _verdict(spec, worst, witness)


def _check_p4_isometry(spec, ctx, rng):
    G, Q = ctx.G, ctx.Q
    excess = [0.0]     # how far pushforward raised total variation, at worst

    def trial(ts):
        mu, sigma = _draw_weights(rng, len(ts), G.order, Q.coset_count)
        mu = ComplexMeasure(G, mu)
        excess[0] = _worst_of(total_variation(pushforward_rh(Q, mu)) - total_variation(mu),
                              excess[0])
        lifted = lift_to_invariant(Q, ComplexMeasure(Q, sigma))
        yield np.abs(total_variation(pushforward_rh(Q, lifted)) - total_variation(lifted)), _at()

    worst, witness = _trials(spec.trials, trial, _trial_bytes(spec, ctx))
    _verdict(spec, excess[0], {"reason": "pushforward increased total variation"})
    return _verdict(spec, worst, witness)


def _alternative_reps(rng: np.random.Generator, Q: QuotientSpace, count: int = 1) -> np.ndarray:
    """count representative choices, (count, k): each coset's member at a
    uniform position of its column of member_table. One generator call draws
    what count * k calls rng.integers(0, |H|), choice by choice, drew."""
    k = Q.coset_count
    return Q.member_table[rng.integers(0, Q.subgroup.order, (count, k)), np.arange(k)]


def _probe_representatives(rng: np.random.Generator, T: StructureTable) -> None:
    """Raise _Fail at the first of ten representative choices drawn from rng
    whose tensor differs from T's. The suborbits do not depend on the choice,
    so by c[a][b][z] = [rel[a, z] = rank[b]] / |O_b| a choice gives T's tensor
    iff it gives T.rel: its row blocks are compared up to the first that
    differs. At H = {e} the choices are drawn, so the trials draw what they
    would, but not built: each is Q.reps."""
    Q, k = T.quotient, T.coset_count
    choices = _alternative_reps(rng, Q, 10)
    if Q.subgroup.order == 1:   # Q.reps is then the only choice: nothing to compare
        return
    elem_rank = T.segments[3].astype(T.rel.dtype).take(Q.coset_of)
    for reps in choices:
        for start, block in quotient_algebra._rel_rows(
                Q, reps, elem_rank, f"representative probe with {k} cosets",
                choices.nbytes + elem_rank.nbytes):
            if not np.array_equal(block, T.rel[start:start + len(block)]):
                raise _Fail({"reason": "tensor depends on representative choice",
                             "reps": reps.tolist()})


def _check_d6_conv(spec, ctx, rng):
    T, Q, G = ctx.T, ctx.Q, ctx.G
    k = T.coset_count
    # rows of rel that hold each suborbit its size times make counts' rows sum to |H|
    if not rows_hold_the_suborbits(T, f"suborbit histogram test with {k} cosets"):
        raise _Fail({"reason": "row sums differ from |H|"})
    _probe_representatives(rng, T)
    mode = _mode(spec, ctx)

    def trial(ts):
        s1, s2 = mode.draw(rng, len(ts), 2)
        yield mode.gap(mode.convolve(s1, s2), mode.group_route(s1, s2), _sup), _at()

    def module_trial(ts):
        # pushing a group measure onto a coset measure agrees with the table
        # route once the group measure is right-invariant, and a point mass
        # at x sends the coset of y to the coset of x*y
        witness = _at(part="module action")
        raw = rng.random((len(ts), 4 * k + 2))
        s1, s2 = (ComplexMeasure(Q, w) for w in _split(raw, k, k))
        x, b = _index(raw[:, -2], G.order), _index(raw[:, -1], k)
        mu_inv = lift_to_invariant(Q, s1)
        yield (_sup(module_action(Q, mu_inv, s2)
                    - quotient_convolve(T, pushforward_rh(Q, mu_inv), s2)), witness)
        yield _sup(module_action(Q, point_mass(G, G.identity), s2) - s2), witness
        moved = module_action(Q, point_mass(G, x), point_mass(Q, b))
        target = Q.coset_of[G.mul[x, Q.reps[b]]]
        yield total_variation(moved - point_mass(Q, target)), witness

    per_trial = _trial_bytes(spec, ctx, on_table=True)
    worst, witness = _trials(spec.trials, trial, per_trial)
    # exact mode reports the exact comparison alone
    return _verdict(spec, *_trials(0 if spec.mode == "exact" else min(spec.trials, 25),
                                   module_trial, per_trial, worst, witness))


def _check_t8_algebra(spec, ctx, rng):
    T, mode = ctx.T, _mode(spec, ctx)

    def trial(ts):
        s1, s2, s3 = mode.draw(rng, len(ts), 3)
        lhs = mode.convolve(mode.convolve(s1, s2), s3)
        rhs = mode.convolve(s1, mode.convolve(s2, s3))
        yield mode.gap(lhs, rhs), _at(law="associativity")
        m1, m2 = mode.measure(s1), mode.measure(s2)
        excess = (total_variation(quotient_convolve(T, m1, m2))
                  - total_variation(m1) * total_variation(m2))
        yield _Fails(_worse(excess, SUBMULT_TOL), _at(law="submultiplicativity"), excess)

    worst, witness = _trials(spec.trials, trial, _trial_bytes(spec, ctx, on_table=True))
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
            and sol.solution == tuple(int(c == Q.base_coset) for c in range(Q.coset_count)))


def _right_identity_on_basis(T: StructureTable, Q: QuotientSpace) -> Optional[int]:
    """None when the base coset acts as a right identity on every point mass;
    otherwise the first coset index witnessing failure: delta_a * delta_H is
    delta_a iff the base coset is a suborbit of its own, found at a alone in
    row a of rel."""
    k, base = T.coset_count, Q.base_coset
    # the mask of rel, its row counts and its diagonal, and the segments
    require_bytes(k * k + 96 * k + (1 << 16), f"right identity test with {k} cosets")
    hits = T.rel == int(T.segments[3][base])   # a Python int keeps rel's dtype
    bad = np.flatnonzero((np.count_nonzero(hits, axis=1) != 1) | ~hits.diagonal()
                         | (T.suborbit_sizes[base] != 1))
    return int(bad[0]) if len(bad) else None


def _check_l11_right_id(spec, ctx, rng):
    coset = _right_identity_on_basis(ctx.T, ctx.Q)
    if coset is not None:
        raise _Fail({"reason": "basis right-identity failed", "coset": coset})
    mode = _mode(spec, ctx)

    def trial(ts):
        (s,) = mode.draw(rng, len(ts), 1)
        yield mode.gap(mode.convolve(s, mode.delta_h), s), _at()

    return _verdict(spec, *_trials(spec.trials, trial, _trial_bytes(spec, ctx, on_table=True)))


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
    otherwise the first coset index witnessing failure: delta_H * delta_b is
    delta_b iff coset b is a suborbit of its own, which rel[base] holds at b."""
    bad = np.flatnonzero((T.suborbit_sizes != 1) | (T.rel[Q.base_coset] != T.segments[3]))
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
    """Whether every product of two point masses is a point mass: every
    coset b is a suborbit of its own, so that rank is a bijection, and
    row a of rel holds b's suborbit at the coset of rep_a * rep_b."""
    k = T.coset_count
    # the int64 index z (two int64 gathers while it is built), then, with z
    # held, the gathered rel entries and their mask
    require_bytes(16 * k * k + (1 << 16), f"point-mass product test with {k} cosets")
    z = Q.coset_of[Q.group.mul[Q.reps[:, None], Q.reps[None, :]]]
    return bool((T.suborbit_sizes == 1).all()
                and (T.rel[np.arange(k)[:, None], z] == T.segments[3].astype(T.rel.dtype)).all())


def _check_p15_normality(spec, ctx, rng):
    T, Q = ctx.T, ctx.Q
    normal = test_normality(ctx.G, ctx.H)
    left_id = _left_identity_on_basis(T, Q) is None
    point_mass_mult = _point_mass_products(T, Q)
    if not (normal == left_id == point_mass_mult):
        raise _Fail({"normal": normal, "left_identity": left_id,
                     "point_mass_products": point_mass_mult}, trials_run=1)
    dh = delta_h(Q)

    def trial(ts):
        s = ComplexMeasure(Q, *_draw_weights(rng, len(ts), Q.coset_count))
        yield total_variation(quotient_convolve(T, dh, s) - s), None

    worst, _ = _trials(min(spec.trials, 25) if normal else 0, trial,
                       _trial_bytes(spec, ctx, on_table=True))
    _verdict(spec, worst, {"reason": "left identity residual too large"})
    return "pass", worst, f"normal={normal}; all three criteria agree", spec.trials


def _check_p16_embed(spec, ctx, rng):
    Q, h, k = ctx.Q, ctx.Q.subgroup.order, ctx.Q.coset_count

    def trial(ts):
        rhos, phi = _draw_weights(rng, len(ts), k, k)
        lam = quasi_invariant_lambda(Q, RhoFunction(Q, _trial_rhos(ctx, ts, rhos)))
        phi = DensityFunction(Q, phi)
        emb = embed_density(lam, phi)
        yield np.abs(total_variation(emb) - lp_norm(lam, phi, 1.0)), _at()
        yield np.max(np.abs(emb.weights / lam.weights - phi.values), axis=-1), _at()

    def exact_trial(ts):
        # |phi_c * lam_c|^2 == |phi_c|^2 * lam_c^2 termwise, lam = |H| * rho
        # per trial the ratios of lam, then phi
        parts = _integer_rows(rng, len(ts), (1, 1) + _RATIONAL_LOWS, k)
        nums, dens = parts[:, 0], parts[:, 1]
        lam = ExactVector(h * nums * (12 // dens), np.zeros_like(nums), 12)
        phi = _rational(parts[:, 2:])
        yield _Fails(_differ((phi * lam).abs_squared(), phi.abs_squared() * (lam * lam)),
                     _at(reason="exact norm identity failed"))

    worst, witness = _trials(spec.trials, trial, _trial_bytes(spec, ctx))
    _trials(min(spec.trials, 10), exact_trial, _trial_bytes(spec, ctx))
    return _verdict(spec, worst, witness)


def _check_l17_compat(spec, ctx, rng):
    G, Q, k = ctx.G, ctx.Q, ctx.Q.coset_count
    unweighted = {True: 0.0, False: 0.0}    # worst unweighted residual, by rho == 1

    def trial(ts):
        phi, rhos = _draw_weights(rng, len(ts), k, k)
        phi = DensityFunction(Q, phi)
        lifted = compose_with_projection(Q, phi)
        for rho_t in (rho_ones(Q), RhoFunction(Q, _rho_values(rhos))):
            lam = quasi_invariant_lambda(Q, rho_t)
            target = embed_density(lam, phi)
            weighted = ComplexMeasure(G, lifted.values * rho_t.values[..., Q.coset_of])
            yield total_variation(pushforward_rh(Q, weighted) - target), None
            r_u = total_variation(pushforward_rh(Q, from_density(G, lifted)) - target)
            unit = np.broadcast_to(np.all(rho_t.values == 1.0, axis=-1), r_u.shape)
            for u in unweighted:
                unweighted[u] = _worst_of(r_u[unit == u], unweighted[u])

    draws = min(spec.trials, 25)
    weighted_worst, _ = _trials(draws, trial, _trial_bytes(spec, ctx))
    notes = (f"rho-weighted lift reproduces the embedded density for all sampled rho "
             f"(max residual {_stable(weighted_worst):.3g}); unweighted lift matches "
             f"for rho=1 (max residual {_stable(unweighted[True]):.3g}) and deviates "
             f"by up to {_stable(unweighted[False]):.3g} otherwise")
    return "info", weighted_worst, notes, draws


def _check_t18_ideal(spec, ctx, rng):
    Q, T, k = ctx.Q, ctx.T, ctx.Q.coset_count

    def trial(ts):
        rhos, phi, sigma = _draw_weights(rng, len(ts), k, k, k)
        lam = quasi_invariant_lambda(Q, RhoFunction(Q, _trial_rhos(ctx, ts, rhos)))
        phi, sigma = DensityFunction(Q, phi), ComplexMeasure(Q, sigma)
        psi = ideal_factorize(lam, T, phi, sigma)
        target = quotient_convolve(T, embed_density(lam, phi), sigma)
        yield total_variation(embed_density(lam, psi) - target), _at()

    return _verdict(spec, *_trials(spec.trials, trial, _trial_bytes(spec, ctx, on_table=True)))


def _operator_route(Q: QuotientSpace, rho: RhoFunction, p,
                    w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The rho-weighted coset average of the group convolution of two lifts:
    w2 is right-H-invariant, so the product is constant on each coset and
    its average is its value at the representative, over rho^(1/p)."""
    return quotient_algebra._at_reps(Q, w1, w2) / rho.values ** (1.0 / _exponent(p))


def _lp_action_operator(Q: QuotientSpace, rho: RhoFunction, side: str,
                        sigma: ComplexMeasure, phi: DensityFunction, p) -> np.ndarray:
    """Operator route of lp_action: the lift of sigma convolved with the
    rho^(1/p)-weighted lift of phi (on the left or the right); p is a number
    or one per vector."""
    weighted = (phi.values * rho.values ** (1.0 / _exponent(p)))[..., Q.coset_of]
    lifted = lift_to_invariant(Q, sigma).weights
    pair = (lifted, weighted) if side == "left" else (weighted, lifted)
    return _operator_route(Q, rho, p, *pair)


def _l1_convolve_operator(Q: QuotientSpace, rho: RhoFunction,
                          phi: DensityFunction, psi: DensityFunction) -> np.ndarray:
    """Operator route of l1_convolve: the rho-weighted lifts of both densities."""
    r = rho.values[..., Q.coset_of]
    return _operator_route(Q, rho, 1.0, phi.values[..., Q.coset_of] * r,
                           psi.values[..., Q.coset_of] * r)


def _check_p19_lp(spec, ctx, rng):
    Q, T, k = ctx.Q, ctx.T, ctx.Q.coset_count

    def at(side: str, **fields) -> Callable[[int], dict]:
        # trial t runs at p = 1, 2, 3 in turn
        return lambda t: {"trial": t, "p": 1.0 + t % 3, "side": side, **fields}

    def trial(ts):
        # sigma, phi and the acting density phi2, which only p = 1 reads
        rhos, sigmas, phis, phi2s = _draw_weights(rng, len(ts), k, k, k, k)
        rho_t = RhoFunction(Q, _trial_rhos(ctx, ts, rhos))
        lam = quasi_invariant_lambda(Q, rho_t)
        sigma, phi = ComplexMeasure(Q, sigmas), DensityFunction(Q, phis)
        p = 1.0 + ts % 3     # each trial's exponent
        bound = total_variation(sigma) * lp_norm(lam, phi, p)

        def on_rows(values, rows=slice(None)) -> np.ndarray:
            # one value per trial of the block: values on rows, -inf elsewhere
            out = np.full(len(ts), -np.inf)
            out[rows] = values
            return out

        def matches(result, operator, side, rows=slice(None)) -> _Fails:
            # a result must match its operator route; the gap is a pass/fail
            # cross-check and stays out of the reported residual
            gap = on_rows(np.max(np.abs(result.values - operator), axis=-1), rows)
            return _Fails(_worse(gap, spec.tol),
                          at(side, reason="explicit and operator routes differ"), gap)

        for side in ("left", "right"):
            out = lp_action(T, rho_t, side, sigma, phi, p)
            yield lp_norm(lam, out, p) - bound, at(side)
            yield matches(out, _lp_action_operator(Q, rho_t, side, sigma, phi, p), side)
        # on the p = 1 trials, embedding the acting density turns the action
        # into the coset density convolution
        rows = np.flatnonzero(ts % 3 == 0)
        rho_1 = RhoFunction(Q, rho_t.values[rows])
        lam_1 = quasi_invariant_lambda(Q, rho_1)
        phi_1, phi2 = DensityFunction(Q, phis[rows]), DensityFunction(Q, phi2s[rows])
        acting = embed_density(lam_1, phi2)
        via_action = lp_action(T, rho_1, "left", acting, phi_1, 1.0)
        via_densities = l1_convolve(T, lam_1, phi2, phi_1)
        yield matches(via_action, _lp_action_operator(Q, rho_1, "left", acting, phi_1, 1.0),
                      "left", rows)
        yield matches(via_densities, _l1_convolve_operator(Q, rho_1, phi2, phi_1), "left", rows)
        yield (on_rows(np.max(np.abs(via_action.values - via_densities.values), axis=-1), rows),
               _at(part="density convolution cross-check"))

    return _verdict(spec, *_trials(spec.trials, trial, _trial_bytes(spec, ctx, on_table=True)))


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
    (check id, then catalog index), every check of an entry on one context
    and the entries of a group token on one group. An entry whose group,
    subgroup, coset space or structure table cannot be built gives one
    failing record and does not abort the suite."""
    indexed, built = [], {}
    for idx, entry in enumerate(catalog):
        try:   # a token that fails is not kept, so each of its entries fails alone
            G = built[entry.group] = built.get(entry.group) or builtin_from_token(entry.group)
            ctx = make_context(G, subgroup_from_tokens(G, entry.subgroup), None, entry.name)
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
