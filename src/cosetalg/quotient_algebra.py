"""Convolution on measures over a coset space, realized by a rational
structure-constant tensor, plus the module action of group measures, the
function algebra on cosets, its isometric embedding, and the p-norm actions.

The tensor entry c[a][b][z] counts, over h in H, how often rep_a * h * rep_b
lands in coset z, divided by |H|. Rows are probability vectors; they collapse
to 0/1 exactly when H is normal, in which case the tensor is the Cayley table
of the factor group. Each row has at most |H| nonzero entries, so the tensor
is stored as its nonzero entries (COO), at most |G|·k of them against k³.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import exact
from ._kernels import quotient_convolve_weights, structure_counts
from .errors import CarrierMismatch
from .exact import ExactVector
from .groups import QuotientSpace, _freeze, require_bytes
from .measures import (ComplexMeasure, DensityFunction, group_convolve,
                       point_mass, quotient_carrier)
from .quotient_ops import (QuotientMeasure, RhoFunction, lift_to_invariant,
                           pushforward_rh)


@dataclass(frozen=True)
class StructureTable:
    """The count tensor of G/H by its nonzero entries: counts[a[i], b[i], z[i]]
    = count[i], in row-major (a, b, z) order; every other entry is 0. The
    rational tensor is c = counts / denominator. The dense views `counts` and
    `c` are built on first access, within the byte budget."""

    quotient: QuotientSpace
    denominator: int          # |H|; the counts of each (a, b) row sum to it
    a: np.ndarray             # (nnz,) int64
    b: np.ndarray             # (nnz,) int64
    z: np.ndarray             # (nnz,) int64
    count: np.ndarray         # (nnz,) int64, all positive

    @property
    def coset_count(self) -> int:
        return self.quotient.coset_count

    @property
    def entries(self) -> tuple[np.ndarray, ...]:
        return self.a, self.b, self.z, self.count

    @cached_property
    def weights(self) -> np.ndarray:
        """c at the nonzero entries: count / denominator, float64."""
        return _freeze(self.count / self.denominator)

    @cached_property
    def slots(self) -> np.ndarray:
        """(2z, 2z + 1) per entry: the places of z in a float view of a
        complex weight vector, as quotient_convolve_weights takes them."""
        return _freeze((2 * self.z[:, None] + np.arange(2)).ravel())

    @cached_property
    def _keys(self) -> np.ndarray:
        k = self.coset_count
        return (self.a * k + self.b) * k + self.z

    def counts_at(self, a, b, z) -> np.ndarray:
        """counts[a, b, z] for broadcastable index arrays, by binary search
        in the sorted entries."""
        k = self.coset_count
        key = (np.asarray(a, dtype=np.int64) * k + b) * k + z
        i = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        return np.where(self._keys[i] == key, self.count[i], 0)

    @cached_property
    def counts(self) -> np.ndarray:
        """The dense (k, k, k) int64 count tensor, read-only."""
        return _freeze(_dense(self.coset_count, *self.entries))

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
        return bool((self.count == self.denominator).all())


def _dense(k: int, a, b, z, count) -> np.ndarray:
    require_bytes(k ** 3 * 8, f"dense structure tensor with {k} cosets")
    out = np.zeros((k, k, k), dtype=np.int64)
    out[a, b, z] = count
    return out


def structure_entries_for_reps(Q: QuotientSpace, reps: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Nonzero entries (a, b, z, count) of the count tensor computed from an
    arbitrary representative choice."""
    k, h = Q.coset_count, Q.subgroup.order
    require_bytes(k * h * k * 8, f"structure scratch for {k} cosets of order {h}")
    members = np.array(Q.subgroup.members, dtype=np.int64)
    return structure_counts(Q.group.mul, np.asarray(reps, dtype=np.int64),
                            members, Q.coset_of)


def structure_counts_for_reps(Q: QuotientSpace, reps: Sequence[int]) -> np.ndarray:
    """Dense count tensor computed from an arbitrary representative choice."""
    return _dense(Q.coset_count, *structure_entries_for_reps(Q, reps))


def structure_table(Q: QuotientSpace) -> StructureTable:
    a, b, z, count = (_freeze(x) for x in structure_entries_for_reps(Q, Q.reps))
    return StructureTable(quotient=Q, denominator=Q.subgroup.order,
                          a=a, b=b, z=z, count=count)


def delta_h(Q: QuotientSpace) -> ComplexMeasure:
    """Unit mass on the base coset H; always a right identity."""
    return point_mass(quotient_carrier(Q), Q.base_coset)


# --- convolution and module action -------------------------------------------

def _require_on_quotient(T: StructureTable, sigma: ComplexMeasure) -> None:
    if sigma.carrier != quotient_carrier(T.quotient):
        raise CarrierMismatch("measure is not on this table's coset carrier")


def quotient_convolve(T: StructureTable, sigma1: ComplexMeasure,
                      sigma2: ComplexMeasure) -> ComplexMeasure:
    """(sigma1 * sigma2)({z}) = sum_{a,b} sigma1({a}) sigma2({b}) c[a][b][z]."""
    _require_on_quotient(T, sigma1)
    _require_on_quotient(T, sigma2)
    w = quotient_convolve_weights(T.a, T.b, T.slots, T.weights,
                                  sigma1.weights, sigma2.weights)
    return ComplexMeasure(sigma1.carrier, w)


def quotient_convolve_exact(T: StructureTable, s1: ExactVector,
                            s2: ExactVector) -> ExactVector:
    """Exact convolution of Gaussian-rational weight vectors: the scatter of
    s1[a] * s2[b] * count / |H| over the tensor's nonzero entries."""
    k = T.coset_count
    if len(s1) != k or len(s2) != k:
        raise CarrierMismatch(f"exact weights must have one entry per coset ({k})")
    return (s1[T.a] * s2[T.b] * T.count / T.denominator).scatter(T.z, k)


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


def _translation_tensors(Q: QuotientSpace, left: bool) -> np.ndarray:
    """Coset indices of h y^-1 x (left) or x h y^-1 (right) over
    (h, source coset y, target coset x); shape (|H|, k, k) resp. (k, |H|, k)."""
    G = Q.group
    members = np.array(Q.subgroup.members, dtype=np.int64)
    reps = Q.reps
    inv_reps = G.inv[reps]
    if left:
        t = G.mul[np.ix_(members, inv_reps)]                  # h * y^-1
        t = G.mul[t[:, :, None], reps[None, None, :]]         # (h, y, x)
    else:
        t = G.mul[np.ix_(reps, members)]                      # x * h
        t = G.mul[t[:, :, None], inv_reps[None, None, :]]     # (x, h, y)
    return Q.coset_of[t]


def l1_convolve(Q: QuotientSpace, rho: RhoFunction, lam: QuotientMeasure,
                phi: DensityFunction, psi: DensityFunction) -> DensityFunction:
    """Convolution of two coset densities against lambda, the explicit double sum
        out(xH) = sum_y lambda(yH) (1/|H|) sum_h phi(yH) psi(h y^-1 x H)
                  * rho(h y^-1 x) / rho(x).
    It equals the weighted average of the group convolution of the
    rho-weighted lifts; the verifier's P19_LP compares the two routes.
    """
    _require_quotient_operands(Q, phi, psi)
    h = Q.subgroup.order
    z = _translation_tensors(Q, left=True)                    # (h, y, x)
    inner = (psi.values * rho.values)[z].sum(axis=0)          # (y, x)
    explicit = ((lam.weights * phi.values) @ inner) / (h * rho.values)
    return DensityFunction(quotient_carrier(Q), explicit)


def lp_action(Q: QuotientSpace, rho: RhoFunction, side: str,
              sigma: ComplexMeasure, phi: DensityFunction, p: float) -> DensityFunction:
    """Action of a coset measure on a p-th power integrable coset density.

    side="left":  out(xH) = sum_y sigma({yH}) (1/|H|) sum_h
                  phi(h y^-1 x H) (rho(h y^-1 x)/rho(x))^(1/p)
    side="right": the mirrored form with x h y^-1 (the modular factor is 1 on
    a finite group). Both equal the operator route (weighted average of a
    group convolution of lifts; compared by the verifier's P19_LP) and
    satisfy the contraction: p-norm of the result <= ||sigma|| * p-norm of phi.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_quotient_operands(Q, sigma, phi)
    h = Q.subgroup.order
    rp = rho.values ** (1.0 / p)
    weighted = phi.values * rp

    if side == "left":
        z = _translation_tensors(Q, left=True)                # (h, y, x)
        inner = weighted[z].sum(axis=0)                       # (y, x)
        explicit = (sigma.weights @ inner) / (h * rp)
    else:
        z = _translation_tensors(Q, left=False)               # (x, h, y)
        inner = weighted[z].sum(axis=1)                       # (x, y)
        explicit = (inner @ sigma.weights) / (h * rp)
    return DensityFunction(quotient_carrier(Q), explicit)


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


# What an identity solve holds at once, per entry of its augmented system:
# the int64 system, rref's integer copy, its residues mod p (or its
# certificate's pivot columns) and its result rows (a reference per entry);
# per row, a row view and a result list. Least squares needs less. Measured
# peaks on D60 and S5 systems: 3.2 to 3.5 times the system.
_SOLVE_BYTES_PER_ENTRY, _SOLVE_BYTES_PER_ROW = 4 * 8, 192


def _solve_identity(T: StructureTable, sides: tuple[str, ...]) -> IdentitySolution:
    """Solve 'sigma acts as the identity on every basis point mass' from each
    side. The system is scaled by |H| to integers, the rhs its last column:
    'left' (sigma * delta_b = delta_b) has rows (b, z), columns a; 'right'
    rows (a, z), columns b. The byte check covers the whole solve."""
    k = T.coset_count
    block = k * k
    require_bytes(len(sides) * block * ((k + 1) * _SOLVE_BYTES_PER_ENTRY
                                        + _SOLVE_BYTES_PER_ROW),
                  f"identity solve with {k} cosets")
    system = np.zeros((len(sides) * block, k + 1), dtype=np.int64)
    diagonal = np.arange(k) * (k + 1)       # rows (b, b): the unit masses
    for i, side in enumerate(sides):
        row, col = (T.b, T.a) if side == "left" else (T.a, T.b)
        system[i * block + row * k + T.z, col] = T.count
        system[i * block + diagonal, k] = T.denominator
    m, pivots = exact.rref(list(system))
    if k not in pivots:  # no pivot in the rhs column: consistent
        sol = [Fraction(0)] * k
        for r, pc in enumerate(pivots):
            sol[pc] = m[r][k]
        w = np.array([float(v) for v in sol], dtype=np.complex128)
        return IdentitySolution(solution=tuple(sol),
                                measure=ComplexMeasure(quotient_carrier(T.quotient), w),
                                residual=0.0, unique=len(pivots) == k)
    A = system[:, :k] / T.denominator
    bb = system[:, k] / T.denominator
    lsq = np.linalg.lstsq(A, bb, rcond=None)[0]
    residual = float(np.linalg.norm(A @ lsq - bb))
    return IdentitySolution(solution=None, measure=None, residual=residual,
                            unique=False)


def find_left_identity(T: StructureTable) -> IdentitySolution:
    """Exact solve of sigma * delta_b = delta_b for every coset b.

    Consistent exactly when the base coset acts as a left identity, i.e. when
    the subgroup is normal, in which case the unique solution is delta_h.
    """
    return _solve_identity(T, ("left",))


def find_two_sided_identity(T: StructureTable) -> IdentitySolution:
    """Exact solve of the combined system sigma * delta_b = delta_b = delta_b * sigma."""
    return _solve_identity(T, ("left", "right"))


# --- helpers -------------------------------------------------------------------

def _require_quotient_operands(Q: QuotientSpace, *operands) -> None:
    qc = quotient_carrier(Q)
    if any(x.carrier != qc for x in operands):
        raise CarrierMismatch("operands must live on the coset carrier")

