"""Convolution on measures over a coset space, realized by a rational
structure-constant tensor, plus the module action of group measures, the
function algebra on cosets, its isometric embedding, and the p-norm actions.

The tensor entry c[a][b][z] counts, over h in H, how often rep_a * h * rep_b
lands in coset z, divided by |H|. Rows are probability vectors; they collapse
to 0/1 exactly when H is normal, in which case the tensor is the Cayley table
of the factor group. As delta_a * sigma = rep_a . (delta_H * sigma), and
delta_H * sigma averages sigma over each suborbit (orbit of H on the cosets),
c[a][b][z] = [H rep_a^-1 rep_z H = H rep_b H] / |O_b| reads double cosets
alone. It is stored as k^2 + k integers against k^3: the relation matrix
rel[a, z], the suborbit of rep_a^-1 * rep_z, and labels[b], the least member
of b's suborbit O_b, so that c[a][b][z] = [rel[a, z] = rank[b]] / |O_b|, with
the suborbits ranked by label. Their segments are derived from the labels
once per table; identity solves read the labels alone, and an inconsistent
system's residual is sqrt(k - #suborbits) (see _solve_identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import group_convolve_weights, quotient_convolve_weights
from .errors import CarrierMismatch
from .exact import ExactVector
from .groups import QuotientSpace, _freeze, require_bytes
from .measures import ComplexMeasure, DensityFunction, _reduced, _require_same, point_mass
from .quotient_ops import QuotientMeasure, RhoFunction, _exponent

@dataclass(frozen=True)
class StructureTable:
    """The count tensor of G/H in factored form (see the module docs):
    c[a, b, z] = [rel[a, z] = rank[b]] / |O_b|, rel read-only in the narrowest
    unsigned dtype that holds its d suborbits (uint8 up to 256, then uint16).
    The dense views `counts`, in units of 1/|H| (int8 up to |H| = 127, int16
    beyond), and `c` are gathered on first access, within the byte budget."""

    quotient: QuotientSpace
    rel: np.ndarray           # (k, k) uint8 or uint16: suborbit of rep_a^-1 * rep_z
    labels: np.ndarray        # (k,) int32: least member of each coset's suborbit

    @property
    def coset_count(self) -> int:
        return self.quotient.coset_count

    @cached_property
    def segments(self) -> tuple[np.ndarray, ...]:
        """The suborbits the labels define, as the quotient kernel reads them
        (see _segments): `order` lists the cosets by label, so suborbit i is
        order[starts[i]:starts[i] + sizes[i]], ascending, and rank[c] is the
        suborbit of coset c."""
        return _segments(self.labels)

    @property
    def suborbit_sizes(self) -> np.ndarray:
        """|O_b| for each coset b."""
        return self.segments[2].take(self.segments[3])

    @cached_property
    def counts(self) -> np.ndarray:
        """The dense (k, k, k) count tensor counts[a, b, z] = |H| c[a, b, z],
        read-only, in the narrowest signed integer dtype that holds |H| (int8
        up to |H| = 127, then int16); each (a, b) row sums to |H|. It is
        m[rel[a, z], b] for the (d, k) m[r, b] = [rank[b] = r] |H|/|O_b|, one
        gather of whole rows read through a transposed view. Raises
        ValueError when a row of rel does not hold each suborbit its size times."""
        k, what = self.coset_count, f"dense structure tensor with {self.coset_count} cosets"
        if not rows_hold_the_suborbits(self, what):
            raise ValueError("corrupt structure table: a row of rel misses the suborbit sizes")
        order, (_, _, sizes, rank) = self.quotient.subgroup.order, self.segments
        dtype = np.min_scalar_type(-order - 1)
        # the view, then m in dtype with the boolean m, the gather's intp
        # copy of rel, and numpy's small arrays
        require_bytes(k * k * (k * dtype.itemsize + dtype.itemsize + 9) + (1 << 15), what)
        m = (np.arange(len(sizes))[:, None] == rank).astype(dtype)
        m *= (order // sizes.take(rank)).astype(dtype)
        return _freeze(m.take(self.rel, axis=0).transpose(0, 2, 1))

    @cached_property
    def c(self) -> np.ndarray:
        """The dense (k, k, k) float64 tensor c = counts / |H|, read-only.
        Each suborbit size divides |H|, so each entry rounds to the double
        nearest 1/|O_b|, as a float division by |O_b| would."""
        counts, k = self.counts, self.coset_count
        # the view and numpy's buffers for the cast (~67 KB measured)
        require_bytes(8 * k ** 3 + (1 << 17), f"dense structure tensor with {k} cosets")
        return _freeze(counts / self.quotient.subgroup.order)


def _segments(labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """StructureTable.segments of labels, from one bincount and one argsort."""
    counts = np.bincount(labels, minlength=len(labels))
    used = counts > 0
    sizes = counts[used]
    return (np.argsort(labels, kind="stable"), np.cumsum(sizes) - sizes, sizes,
            (np.cumsum(used) - 1).take(labels))


def rows_hold_the_suborbits(T: StructureTable, what: str) -> bool:
    """Whether each row of T.rel holds each suborbit its size times, as a
    translation's row does, after a byte check named by `what`: per entry the
    sorted copy, the stable (radix) sort's buffer and the mask, and 64 KiB."""
    k, (_, _, sizes, _) = T.coset_count, T.segments
    require_bytes((2 * T.rel.itemsize + 1) * k * k + (1 << 16), what)
    want = np.repeat(np.arange(len(sizes), dtype=T.rel.dtype), sizes)
    return bool((np.sort(T.rel, axis=1, kind="stable") == want).all())


def _rel_rows(Q: QuotientSpace, reps: np.ndarray, elem_rank: np.ndarray, what: str,
              held: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Row blocks (start, rel[start:stop]) of representatives reps' relation
    matrix rel[a, z] = elem_rank[rep_a^-1 * rep_z], elem_rank[x] the suborbit
    of x's coset: about BLOCK_BYTES of k columns each, under one byte check
    of a block and the `held` bytes of the caller, named by `what`."""
    G, k = Q.group, Q.coset_count
    # per entry the int64 index into mul and element, its suborbit and a mask
    rows = max(1, min(k, _kernels.BLOCK_BYTES // (20 * k)))
    require_bytes(held + 20 * rows * k + (1 << 15), what)
    inv = (G.inv.take(reps) * G.order)[:, None]
    return ((start, elem_rank.take(G.mul.take(inv[start:start + rows] + reps)))
            for start in range(0, k, rows))


def structure_table(Q: QuotientSpace, reps: Optional[Sequence[int]] = None) -> StructureTable:
    """The table of Q from a representative choice, by default Q.reps: b's
    label is the least coset of h * rep_b over H, and rel comes in row blocks."""
    G, k = Q.group, Q.coset_count
    reps = np.asarray(Q.reps if reps is None else reps, dtype=np.int64)
    what = f"structure table with {k} cosets"
    # the int64 elements h * rep_b and their cosets, the segments, elem_rank
    require_bytes(32 * G.order + 96 * k + (1 << 14), what)
    members = np.array(Q.subgroup.members, dtype=np.int64)
    labels = Q.coset_of[G.mul[members[:, None], reps]].min(axis=0).astype(np.int32)
    rank = _segments(labels)[3]
    elem_rank = rank.astype(np.min_scalar_type(int(rank.max()))).take(Q.coset_of)
    # rel and elem_rank are held, and so are the labels and their ranks
    blocks = _rel_rows(Q, reps, elem_rank, what, elem_rank.itemsize * (k * k + G.order) + 16 * k)
    rel = np.empty((k, k), dtype=elem_rank.dtype)
    for start, block in blocks:
        rel[start:start + len(block)] = block
    return StructureTable(Q, _freeze(rel), _freeze(labels))


def delta_h(Q: QuotientSpace) -> ComplexMeasure:
    """Unit mass on the base coset H; always a right identity."""
    return point_mass(Q, Q.base_coset)


# --- convolution and module action -------------------------------------------

def quotient_convolve(T: StructureTable, sigma1: ComplexMeasure,
                      sigma2: ComplexMeasure) -> ComplexMeasure:
    """(sigma1 * sigma2)({z}) = sum_{a,b} sigma1({a}) sigma2({b}) c[a][b][z]."""
    _require_same(T.quotient, sigma1, sigma2)
    w = quotient_convolve_weights(T.rel, T.segments, sigma1.weights, sigma2.weights)
    return ComplexMeasure(sigma1.carrier, w)


def quotient_convolve_exact(T: StructureTable, s1: ExactVector,
                            s2: ExactVector) -> ExactVector:
    """Exact convolution of Gaussian-rational weight vectors, or of batches
    of them: the kernel run on exact vectors, which sizes its byte check by
    their numerators."""
    k = T.coset_count
    if s1.shape[-1] != k or s2.shape[-1] != k:
        raise CarrierMismatch(f"exact weights must have one entry per coset ({k})")
    return quotient_convolve_weights(T.rel, T.segments, s1, s2)


def module_action(Q: QuotientSpace, mu: ComplexMeasure,
                  sigma: ComplexMeasure) -> ComplexMeasure:
    """Action of a group measure on a coset measure: push forward the group
    convolution of mu with the lift of sigma. That product is constant on
    each coset, so its pushforward is |H| times its values at the
    representatives: the product of mu with |H| lift(sigma) = sigma∘pi there
    (see _at_reps), at n·k cost."""
    _require_same(Q.group, mu)
    _require_same(Q, sigma)
    return ComplexMeasure(Q, _at_reps(Q, mu.weights, sigma.weights.take(Q.coset_of, axis=-1)))


def _at_reps(Q: QuotientSpace, w1, w2):
    """(w1 * w2)(rep_z) for each coset z, on arrays or exact vectors. For a
    right-H-invariant w2 the product is right-H-invariant, (w1 * w2)(xh) =
    sum_y w1(y) w2(y^-1 x h) = (w1 * w2)(x), so push(w1 * w2) is |H| times
    this and a coset average is this itself (Folland, A Course in Abstract
    Harmonic Analysis, 2.6). The kernel gathers the k columns at n·k cost.
    On float arrays while |H| <= 2 the whole product, with the same bits in
    those columns, is faster: whole rows of mul gather three to five times as
    fast per entry as chosen columns, and the gather outweighs the float
    arithmetic (S7/{e}, S7/<(12)>; from |H| = 3 the columns are faster).
    Exact arithmetic outweighs the gather, so exact vectors always take the
    columns."""
    G = Q.group
    if isinstance(w1, np.ndarray) and 2 * Q.coset_count >= G.order:
        return group_convolve_weights(G.mul, G.inv, w1, w2).take(Q.reps, axis=-1)
    return group_convolve_weights(G.mul, G.inv, w1, w2, Q.reps)


# --- the function algebra on cosets ------------------------------------------

def embed_density(lam: QuotientMeasure, phi: DensityFunction) -> ComplexMeasure:
    """The measure with density phi against lambda: weights phi * lambda.
    Injective (lambda > 0) and total variation = the L1(lambda) norm of phi."""
    _require_same(lam.quotient, phi)
    return ComplexMeasure(phi.carrier, phi.values * lam.weights)


def lp_norm(lam: QuotientMeasure, phi: DensityFunction, p) -> float:
    """(sum |phi|^p * lambda)^(1/p), for a number p or one p per vector."""
    p = _exponent(p)
    _require_same(lam.quotient, phi)
    terms = np.abs(phi.values) ** p * lam.weights
    return _reduced((np.sum(terms, axis=-1, keepdims=True) ** (1.0 / p))[..., 0], float)


def l1_convolve(T: StructureTable, lam: QuotientMeasure,
                phi: DensityFunction, psi: DensityFunction) -> DensityFunction:
    """Convolution of two coset densities against lambda, the explicit double sum
        out(xH) = sum_y lambda(yH) (1/|H|) sum_h phi(yH) psi(h y^-1 x H)
                  * rho(h y^-1 x) / rho(x),
    with rho = lam.rho. The inner average is the kernel's mean over suborbit
    rel[y, x] for s2 = rho * psi, so out = quotient_convolve(lambda * phi,
    rho * psi) / rho. It equals the weighted average of the group convolution
    of the rho-weighted lifts; the verifier's P19_LP compares the two routes.
    """
    _require_same(T.quotient, lam, phi, psi)
    rho = lam.rho.values
    out = quotient_convolve_weights(T.rel, T.segments,
                                    lam.weights * phi.values, psi.values * rho) / rho
    return DensityFunction(phi.carrier, out)


def lp_action(T: StructureTable, rho: RhoFunction, side: str,
              sigma: ComplexMeasure, phi: DensityFunction, p) -> DensityFunction:
    """Action of a coset measure on a p-th power integrable coset density.

    side="left":  out(xH) = sum_y sigma({yH}) (1/|H|) sum_h
                  phi(h y^-1 x H) (rho(h y^-1 x)/rho(x))^(1/p)
    side="right": out(xH) = sum_y sigma({yH}) (1/|H|) sum_h
                  phi(x h y^-1 H) (rho(x h y^-1)/rho(x))^(1/p)
    (the modular factor is 1 on a finite group). With rp = rho^(1/p), both are
    the quotient convolution of rp * phi, divided by rp: the left side is
    quotient_convolve(sigma, rp * phi), and the right side, as each
    rep_x h rep_y^-1 is rep_a h' for exactly one (a, h'), is
    quotient_convolve(rp * phi, sigma). Both equal the operator route
    (weighted average of a group convolution of lifts; compared by the
    verifier's P19_LP) and satisfy the contraction: p-norm of the result
    <= ||sigma|| * p-norm of phi. p is a number, or an array of one exponent
    per vector of the batch.
    """
    p = _exponent(p)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_same(T.quotient, rho, sigma, phi)
    rp = rho.values ** (1.0 / p)
    weighted = phi.values * rp
    s1, s2 = (sigma.weights, weighted) if side == "left" else (weighted, sigma.weights)
    out = quotient_convolve_weights(T.rel, T.segments, s1, s2) / rp
    return DensityFunction(phi.carrier, out)


def ideal_factorize(lam: QuotientMeasure, T: StructureTable,
                    phi: DensityFunction, sigma: ComplexMeasure) -> DensityFunction:
    """Density of (embedded phi) * sigma against lambda.

    Every such product is absolutely continuous with respect to lambda (the
    coset space is finite and lambda > 0), so the quotient of weights is the
    factorization; embedding it back reproduces the product exactly up to
    roundoff.
    """
    product = quotient_convolve(T, embed_density(lam, phi), sigma)
    return DensityFunction(product.carrier, product.weights / lam.weights)


# --- identity solving ----------------------------------------------------------

@dataclass(frozen=True)
class IdentitySolution:
    """Outcome of exact identity solving on a structure table.

    solution is set when the linear system is consistent: delta_H's weights,
    0 or 1 per coset; residual is the float least-squares residual otherwise
    (0 when solved). unique reports whether the consistent system pinned
    every coordinate.
    """

    solution: Optional[tuple[int, ...]]
    residual: float
    unique: bool


def _solve_identity(T: StructureTable) -> IdentitySolution:
    """Solve 'sigma acts as the identity on every basis point mass' from the
    left, sigma * delta_b = delta_b, or from both sides, with delta_a * sigma
    = delta_a too. The two systems have the same outcome.

    The table of a coset space has the base coset as a suborbit of its own,
    and rel[a, z] = rank[base] exactly when a = z, so c[a][base][z] = [a = z]:
    delta_H satisfies every right row, and the left rows (base, z) pin sigma
    to delta_H. So either system is consistent, with the unique solution
    delta_H, iff delta_H is a left identity. As rel[base] = rank (rep_base
    lies in H, so it keeps each coset in its suborbit), delta_H * delta_b =
    u_b, uniform on the suborbit O of coset b: delta_H is a left identity iff
    d = k, for d suborbits, counted as the cosets that are their own label.

    An inconsistent system still has delta_H as a least-squares solution, so
    its residual is delta_H's own. As delta_a * delta_b = L_a u_b, with L_a
    the left translation by rep_a, for the left system
        A^T (A delta_H - e)[a] = sum_b <L_a u_b, u_b> - sum_b u_b(L_a^-1 b).
    Both sums equal sum_O |O ∩ L_a O| / |O|, so delta_H solves the normal
    equations, and the right rows, exact at delta_H, add nothing. Hence
        residual^2 = sum_b ||u_b - delta_b||^2 = sum_O (|O| - 1) = k - d,
    the number of cosets less the number of double cosets HgH.

    The argument reads the labels as H's orbits and the rows of rel as
    translations. ValueError refuses a suborbit not labelled by its least
    member, base-coset rows that do not pin delta_H, and, when d < k, a row of
    rel that does not hold each suborbit its size times; rows that come from
    no group action get delta_H's residual, which can exceed the minimum.
    """
    k, base, labels = T.coset_count, T.quotient.base_coset, T.labels
    # the mask of rel, the labels gathered through themselves with masks and
    # an intp copy, the segments, and any call's objects (up to 9 KB measured)
    require_bytes(k * k + 64 * k + (1 << 14), f"identity decision with {k} cosets")
    if not (((0 <= labels) & (labels <= np.arange(k))).all() and (labels[labels] == labels).all()):
        raise ValueError("corrupt structure table: a suborbit is not labelled by its least member")
    rank, own = T.segments[3], int(T.segments[3][base])   # a Python int keeps rel's dtype
    if not (np.flatnonzero(labels == base).tolist() == [base] and (T.rel[base] == rank).all()
            and np.count_nonzero(T.rel == own) == k and (T.rel.diagonal() == own).all()):
        raise ValueError("corrupt structure table: the base-coset rows do not pin delta_H")
    d = len(T.segments[2])
    if d == k:
        return IdentitySolution(solution=(0,) * base + (1,) + (0,) * (k - 1 - base),
                                residual=0.0, unique=True)
    if not rows_hold_the_suborbits(T, f"identity residual with {k} cosets"):
        raise ValueError("corrupt structure table: a row of rel misses the suborbit sizes")
    return IdentitySolution(solution=None, residual=math.sqrt(k - d), unique=False)


def find_left_identity(T: StructureTable) -> IdentitySolution:
    """Exact solve of sigma * delta_b = delta_b for every coset b.

    Consistent exactly when the base coset acts as a left identity, i.e. when
    the subgroup is normal, in which case the unique solution is delta_h.
    """
    return _solve_identity(T)


def find_two_sided_identity(T: StructureTable) -> IdentitySolution:
    """Exact solve of the combined system sigma * delta_b = delta_b = delta_b * sigma.
    Its right rows hold at delta_H, so its outcome is the left system's."""
    return _solve_identity(T)
