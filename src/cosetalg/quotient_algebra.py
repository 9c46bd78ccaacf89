"""Convolution on measures over a coset space, realized by a rational
structure-constant tensor, plus the module action of group measures, the
function algebra on cosets, its isometric embedding, and the p-norm actions.

The tensor entry c[a][b][z] counts, over h in H, how often rep_a * h * rep_b
lands in coset z, divided by |H|. Rows are probability vectors; they collapse
to 0/1 exactly when H is normal, in which case the tensor is the Cayley table
of the factor group. As delta_a * sigma = rep_a . (delta_H * sigma), the
tensor is stored as two coset actions, k^2 + |H|*k integers against k^3:
shift[a, z], the coset of rep_a^-1 * rep_z, and h_action[i, b], the coset of
h_i * rep_b. Then counts[a, b, z] = #{i : h_action[i, b] = shift[a, z]}.
Identity solves are decided on the two factors; only the least-squares
residual of an inconsistent system derives the tensor's nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import exact
from ._kernels import quotient_convolve_weights
from .errors import CarrierMismatch
from .exact import ExactVector
from .groups import QuotientSpace, _freeze, require_bytes
from .measures import (ComplexMeasure, DensityFunction, group_convolve,
                       point_mass, quotient_carrier)
from .quotient_ops import (QuotientMeasure, RhoFunction, lift_to_invariant,
                           pushforward_rh)


@dataclass(frozen=True)
class StructureTable:
    """The count tensor of G/H in factored form (see the module docs):
    counts[a, b, z] = #{i : h_action[i, b] = shift[a, z]}. The rational
    tensor is c = counts / denominator. The dense views `counts` and `c` are
    built on first access, within the byte budget."""

    quotient: QuotientSpace
    denominator: int          # |H|; the counts of each (a, b) row sum to it
    shift: np.ndarray         # (k, k) int32: coset of rep_a^-1 * rep_z
    h_action: np.ndarray      # (|H|, k) int32: coset of h_i * rep_b

    @property
    def coset_count(self) -> int:
        return self.quotient.coset_count

    def counts_at(self, a, b, z) -> np.ndarray:
        """counts[a, b, z] for broadcastable index arrays."""
        a, b, z = np.broadcast_arrays(a, b, z)
        return (self.h_action[:, b] == self.shift[a, z]).sum(axis=0)

    def entries(self) -> tuple[np.ndarray, ...]:
        """The nonzero entries (a, b, z, count) of counts as int64 arrays in
        row-major (a, b, z) order, derived within the byte budget. Row (a, b)
        holds count m at z for each coset w that m of the h_i * rep_b reach,
        where z = the coset of rep_a * rep_w."""
        k, h = self.coset_count, self.denominator
        bw, mult = self._support()
        nnz = k * len(bw)
        # shift's inverse, then five int64 arrays of nnz at once and one of slack
        require_bytes(8 * (k * k + 6 * nnz), f"structure entries with {k} cosets")
        action = self._action()
        b, w = np.divmod(bw, k)
        # one key ((a * k + b) * k + z) * (h + 1) + count per entry, sorted in place
        key = ((np.repeat(np.arange(k) * k, len(bw)) + np.tile(b, k)) * k
               + action[:, w].ravel()) * (h + 1) + np.tile(mult, k)
        key.sort()
        key, count = np.divmod(key, h + 1)
        key, z = np.divmod(key, k)
        a, b = np.divmod(key, k)
        return a, b, z, count

    @property
    def nnz(self) -> int:
        """The number of nonzero entries of counts."""
        return self.coset_count * len(self._support()[0])

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct b * k + w over the cosets w of h_i * rep_b, sorted,
        and how many h_i reach each."""
        k = self.coset_count
        return np.unique(np.arange(k) * k + self.h_action.astype(np.int64),
                         return_counts=True)

    def _action(self) -> np.ndarray:
        """(k, k) int64: action[a, w], the coset of rep_a * rep_w (shift's
        inverse). Raises ValueError when a row of shift is not a permutation."""
        k = self.coset_count
        action = np.full((k, k), -1, dtype=np.int64)
        action[np.arange(k)[:, None], self.shift] = np.arange(k)
        if (action < 0).any():
            raise ValueError("corrupt structure table: a row of shift is not a permutation")
        return action

    @cached_property
    def counts(self) -> np.ndarray:
        """The dense (k, k, k) int64 count tensor, read-only: each h_i adds 1
        to row (a, b) at the coset of rep_a * h_i * rep_b."""
        k = self.coset_count
        require_bytes(k ** 3 * 8, f"dense structure tensor with {k} cosets")
        ar, action = np.arange(k), self._action()
        out = np.zeros((k, k, k), dtype=np.int64)
        for row in self.h_action:
            out[ar[:, None], ar, action[:, row]] += 1
        return _freeze(out)

    @cached_property
    def c(self) -> np.ndarray:
        """The dense (k, k, k) float64 tensor counts / denominator, read-only;
        the same size as counts, whose byte check covers it."""
        return _freeze(self.counts / self.denominator)

    def row(self, a: int, b: int) -> list[Fraction]:
        k = self.coset_count
        return [Fraction(int(v), self.denominator)
                for v in self.counts_at(a, b, np.arange(k))]

    def is_point_mass_table(self) -> bool:
        """True iff every row is concentrated on a single coset."""
        return bool((self.h_action == self.h_action[0]).all())


def _factors(Q: QuotientSpace, reps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(shift, h_action) for a representative choice, as int32 arrays."""
    G, k, h = Q.group, Q.coset_count, Q.subgroup.order
    # per entry: the int64 product, its int64 coset and the int32 copy
    require_bytes(20 * (k * k + h * k), f"structure table with {k} cosets")
    reps = np.asarray(reps, dtype=np.int64)
    members = np.array(Q.subgroup.members, dtype=np.int64)
    shift = Q.coset_of[G.mul[G.inv[reps][:, None], reps]].astype(np.int32)
    h_action = Q.coset_of[G.mul[members[:, None], reps]].astype(np.int32)
    return _freeze(shift), _freeze(h_action)


def structure_table(Q: QuotientSpace, reps: Optional[Sequence[int]] = None) -> StructureTable:
    """The table of Q from a representative choice, by default Q.reps."""
    return StructureTable(Q, Q.subgroup.order, *_factors(Q, Q.reps if reps is None else reps))


def delta_h(Q: QuotientSpace) -> ComplexMeasure:
    """Unit mass on the base coset H; always a right identity."""
    return point_mass(quotient_carrier(Q), Q.base_coset)


# --- convolution and module action -------------------------------------------

def _require_on_quotient(T: StructureTable, *operands) -> None:
    qc = quotient_carrier(T.quotient)
    if any(x.carrier != qc for x in operands):
        raise CarrierMismatch("operands must live on this table's coset carrier")


def quotient_convolve(T: StructureTable, sigma1: ComplexMeasure,
                      sigma2: ComplexMeasure) -> ComplexMeasure:
    """(sigma1 * sigma2)({z}) = sum_{a,b} sigma1({a}) sigma2({b}) c[a][b][z]."""
    _require_on_quotient(T, sigma1, sigma2)
    w = quotient_convolve_weights(T.shift, T.h_action, sigma1.weights, sigma2.weights)
    return ComplexMeasure(sigma1.carrier, w)


def quotient_convolve_exact(T: StructureTable, s1: ExactVector,
                            s2: ExactVector) -> ExactVector:
    """Exact convolution of Gaussian-rational weight vectors: the float
    kernel run on exact vectors."""
    k = T.coset_count
    if s1.re.shape != (k,) or s2.re.shape != (k,):
        raise CarrierMismatch(f"exact weights must have one entry per coset ({k})")
    # measured peaks per entry of k² + |H|·k past ~4 KB: 17 to 33 bytes on
    # int64 or Python ints, 87 to 114 when int64 operands widen
    wide = 2 * max(s1.bound, 1) * max(s2.bound, 1) * T.h_action.size >= 2 ** 63
    require_bytes((120 if wide else 40) * (k * k + T.h_action.size) + (1 << 13),
                  f"exact quotient convolution with {k} cosets")
    return quotient_convolve_weights(T.shift, T.h_action, s1, s2)


def module_action(Q: QuotientSpace, mu: ComplexMeasure,
                  sigma: ComplexMeasure) -> ComplexMeasure:
    """Action of a group measure on a coset measure: push forward the group
    convolution of mu with the lift of sigma."""
    return pushforward_rh(Q, group_convolve(Q.group, mu, lift_to_invariant(Q, sigma)))


# --- the function algebra on cosets ------------------------------------------

def embed_density(lam: QuotientMeasure, phi: DensityFunction) -> ComplexMeasure:
    """The measure with density phi against lambda: weights phi * lambda.
    Injective (lambda > 0) and total variation = the L1(lambda) norm of phi."""
    if phi.carrier != quotient_carrier(lam.quotient):
        raise CarrierMismatch("density is not on this measure's coset carrier")
    return ComplexMeasure(phi.carrier, phi.values * lam.weights)


def lp_norm(lam: QuotientMeasure, phi: DensityFunction, p: float) -> float:
    """(sum |phi|^p * lambda)^(1/p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(np.abs(phi.values) ** p * lam.weights) ** (1.0 / p))


def l1_convolve(T: StructureTable, lam: QuotientMeasure,
                phi: DensityFunction, psi: DensityFunction) -> DensityFunction:
    """Convolution of two coset densities against lambda, the explicit double sum
        out(xH) = sum_y lambda(yH) (1/|H|) sum_h phi(yH) psi(h y^-1 x H)
                  * rho(h y^-1 x) / rho(x),
    with rho = lam.rho. The inner average is the kernel's v[shift[y, x]] for
    s2 = rho * psi, so out = quotient_convolve(lambda * phi, rho * psi) / rho.
    It equals the weighted average of the group convolution of the
    rho-weighted lifts; the verifier's P19_LP compares the two routes.
    """
    _require_on_quotient(T, phi, psi)
    rho = lam.rho.values
    out = quotient_convolve_weights(T.shift, T.h_action,
                                    lam.weights * phi.values, psi.values * rho) / rho
    return DensityFunction(phi.carrier, out)


def lp_action(T: StructureTable, rho: RhoFunction, side: str,
              sigma: ComplexMeasure, phi: DensityFunction, p: float) -> DensityFunction:
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
    <= ||sigma|| * p-norm of phi.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_on_quotient(T, sigma, phi)
    rp = rho.values ** (1.0 / p)
    weighted = phi.values * rp
    s1, s2 = (sigma.weights, weighted) if side == "left" else (weighted, sigma.weights)
    out = quotient_convolve_weights(T.shift, T.h_action, s1, s2) / rp
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

    solution/measure are set when the linear system is consistent; residual
    is the float least-squares residual otherwise (0 when solved). unique
    reports whether the consistent system pinned every coordinate.
    """

    solution: Optional[tuple[Fraction, ...]]
    measure: Optional[ComplexMeasure]
    residual: float
    unique: bool


# array headers and Python objects an identity solve holds whatever its size:
# up to 9 KB measured at 3 and 4 cosets
_SOLVE_CALL_BYTES = 1 << 14


def _solve_identity(T: StructureTable, sides: tuple[str, ...]) -> IdentitySolution:
    """Solve 'sigma acts as the identity on every basis point mass' from each
    side: 'left' is sigma * delta_b = delta_b, 'right' delta_a * sigma = delta_a.

    The table of a coset space has h_action[:, base] = base, and shift[a, z]
    = base exactly when a = z, so c[a][base][z] = [a = z]. The left rows
    (base, z) then pin sigma to delta_H, which satisfies every right row. So
    the system is consistent, with the unique solution delta_H, iff delta_H
    is a left identity: every h_i * rep_b lies in the coset shift[base, b],
    and shift[base] is a permutation. Both are checked in exact integers on
    the factors. Only an inconsistent system derives the table's entries,
    for its least-squares residual. A table that breaks the premise is not a
    coset space's and raises ValueError.
    """
    k, base = T.coset_count, T.quotient.base_coset
    # the boolean masks of shift and of h_action, and shift[base] sorted
    require_bytes(k * k + T.h_action.size + 8 * k + _SOLVE_CALL_BYTES,
                  f"identity decision with {k} cosets")
    pins = T.shift == base
    if not ((T.h_action[:, base] == base).all() and np.count_nonzero(pins) == k
            and pins.diagonal().all()):
        raise ValueError("corrupt structure table: the base-coset rows do not pin delta_H")
    del pins
    if (T.h_action == T.shift[base]).all() and \
            np.array_equal(np.sort(T.shift[base]), np.arange(k)):
        return IdentitySolution(solution=tuple(exact.unit_vector(k, base)),
                                measure=delta_h(T.quotient), residual=0.0, unique=True)
    return _least_squares(T, sides)


def _least_squares(T: StructureTable, sides: tuple[str, ...]) -> IdentitySolution:
    """The outcome of an inconsistent system Ax = b: the residual ||Ax - b||
    at the x that solves the k x k normal equations A^T A x = A^T b.

    A = counts / |H| is kept as its nonzero entries: 'left' has rows (b, z)
    and columns a, 'right' rows (a, z) and columns b; b is 1 on the rows
    (b, b). A^T A sums a_ri a_rj over the pairs of entries of each row r,
    assembled in blocks: block d pairs each entry with the d-th entry of its
    row."""
    k, nrows = T.coset_count, len(sides) * T.coset_count ** 2
    nnz = len(sides) * T.nnz
    # the entries and their key while derived; per system entry its row,
    # column and count and their temporaries; per row its nonzero count and
    # the rhs
    require_bytes(8 * (k * k + 6 * T.nnz) + 48 * nnz + 32 * nrows + _SOLVE_CALL_BYTES,
                  f"identity solve with {k} cosets")
    a, b, z, count = T.entries()
    row = np.concatenate([i * k * k + (b if side == "left" else a) * k + z
                          for i, side in enumerate(sides)])
    col = np.concatenate([a if side == "left" else b for side in sides])
    del a, b, z
    count = np.tile(count, len(sides))
    rhs = np.zeros(nrows, dtype=np.int64)
    for i in range(len(sides)):           # the rows (b, b): the unit masses
        rhs[i * k * k + np.arange(k) * (k + 1)] = T.denominator
    row_nnz = np.bincount(row, minlength=nrows)
    # per system entry the sorted entries and their values, each entry's row
    # start and length, and one block's pairs, keys and weights; per row
    # the row starts, the rhs and the fit; the normal matrix, one block's
    # bincount and lstsq's copies
    require_bytes(112 * len(row) + 32 * nrows + 48 * k * k + _SOLVE_CALL_BYTES,
                  f"identity least squares with {k} cosets")
    order = np.argsort(row, kind="stable")
    row, col, val = row[order], col[order], count[order] / T.denominator
    del order
    span = row_nnz[row]                      # each entry's row length
    first = (np.cumsum(row_nnz) - row_nnz)[row]  # and its row's first entry
    gram = np.zeros(k * k)
    for d in range(int(span.max(initial=0))):
        e = np.flatnonzero(span > d)
        partner = first[e] + d
        gram += np.bincount(col[e] * k + col[partner], weights=val[e] * val[partner],
                            minlength=k * k)
    b = rhs / T.denominator
    x = np.linalg.lstsq(gram.reshape(k, k), np.bincount(col, weights=val * b[row], minlength=k),
                        rcond=None)[0]
    fit = np.bincount(row, weights=val * x[col], minlength=nrows)
    return IdentitySolution(solution=None, measure=None,
                            residual=float(np.linalg.norm(fit - b)), unique=False)


def find_left_identity(T: StructureTable) -> IdentitySolution:
    """Exact solve of sigma * delta_b = delta_b for every coset b.

    Consistent exactly when the base coset acts as a left identity, i.e. when
    the subgroup is normal, in which case the unique solution is delta_h.
    """
    return _solve_identity(T, ("left",))


def find_two_sided_identity(T: StructureTable) -> IdentitySolution:
    """Exact solve of the combined system sigma * delta_b = delta_b = delta_b * sigma."""
    return _solve_identity(T, ("left", "right"))

