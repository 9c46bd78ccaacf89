"""Convolution on measures over a coset space, realized by a rational
structure-constant tensor, plus the module action of group measures, the
function algebra on cosets, its isometric embedding, and the p-norm actions.

The tensor entry c[a][b][z] counts, over h in H, how often rep_a * h * rep_b
lands in coset z, divided by |H|. Rows are probability vectors; they collapse
to 0/1 exactly when H is normal, in which case the tensor is the Cayley table
of the factor group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import exact
from ._kernels import quotient_convolve_weights, structure_counts
from .errors import CarrierMismatch
from .exact import ComplexFraction
from .groups import QuotientSpace
from .measures import (ComplexMeasure, DensityFunction, group_convolve,
                       point_mass, quotient_carrier)
from .quotient_ops import (QuotientMeasure, RhoFunction, lift_to_invariant,
                           pushforward_rh)


@dataclass(frozen=True)
class StructureTable:
    quotient: QuotientSpace
    counts: np.ndarray        # (k, k, k) int64; row sums all equal denominator
    denominator: int          # |H|
    c: np.ndarray             # counts / denominator, float64

    @property
    def coset_count(self) -> int:
        return self.quotient.coset_count

    def row(self, a: int, b: int) -> list[Fraction]:
        return [Fraction(int(v), self.denominator) for v in self.counts[a, b]]

    def is_point_mass_table(self) -> bool:
        """True iff every row is concentrated on a single coset."""
        return bool((self.counts.max(axis=2) == self.denominator).all())


def structure_counts_for_reps(Q: QuotientSpace, reps: Sequence[int]) -> np.ndarray:
    """Count tensor computed from an arbitrary representative choice."""
    members = np.array(Q.subgroup.members, dtype=np.int64)
    return structure_counts(Q.group.mul, np.asarray(reps, dtype=np.int64),
                            members, Q.coset_of)


def structure_table(Q: QuotientSpace) -> StructureTable:
    counts = structure_counts_for_reps(Q, Q.reps)
    counts.setflags(write=False)
    c = counts / Q.subgroup.order
    c.setflags(write=False)
    return StructureTable(quotient=Q, counts=counts,
                          denominator=Q.subgroup.order, c=c)


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
    w = quotient_convolve_weights(T.c, sigma1.weights, sigma2.weights)
    return ComplexMeasure(sigma1.carrier, w)


def quotient_convolve_exact(T: StructureTable,
                            s1: Sequence[ComplexFraction],
                            s2: Sequence[ComplexFraction]) -> list[ComplexFraction]:
    """Exact-rational convolution of Gaussian-rational weight vectors."""
    return exact.quotient_convolve_exact(T.counts, T.denominator, s1, s2)


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


def _identity_system(T: StructureTable, acting_side: str) -> tuple[np.ndarray, np.ndarray]:
    """The exact system 'sigma acts as the identity on every basis point mass'
    from the given side, scaled by |H| to integers: rows (b, z) in row-major
    order, columns a. acting_side='left' means sigma * delta_b."""
    k = T.coset_count
    axes = (1, 2, 0) if acting_side == "left" else (0, 2, 1)
    rows = T.counts.transpose(axes).reshape(k * k, k)
    rhs = T.denominator * np.eye(k, dtype=np.int64).reshape(k * k)
    return rows, rhs


def _solve_identity(T: StructureTable, sides: tuple[str, ...]) -> IdentitySolution:
    k = T.coset_count
    systems = [_identity_system(T, side) for side in sides]
    A = np.vstack([rows for rows, _ in systems])
    b = np.concatenate([rhs for _, rhs in systems])
    m, pivots = exact.rref(list(np.column_stack([A, b])))
    if k not in pivots:  # no pivot in the rhs column: consistent
        sol = [Fraction(0)] * k
        for r, pc in enumerate(pivots):
            sol[pc] = m[r][k]
        w = np.array([float(v) for v in sol], dtype=np.complex128)
        return IdentitySolution(solution=tuple(sol),
                                measure=ComplexMeasure(quotient_carrier(T.quotient), w),
                                residual=0.0, unique=len(pivots) == k)
    A = A / T.denominator
    bb = b / T.denominator
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

