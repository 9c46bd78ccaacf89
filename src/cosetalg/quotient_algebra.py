"""Convolution on measures over a coset space, realized by a rational
structure-constant tensor, plus the module action of group measures, the
function algebra on cosets, its isometric embedding, and the p-norm actions.

The tensor entry c[a][b][z] counts, over h in H, how often rep_a * h * rep_b
lands in coset z, divided by |H|. Rows are probability vectors; they collapse
to 0/1 exactly when H is normal, in which case the tensor is the Cayley table
of the factor group. As delta_a * sigma = rep_a . (delta_H * sigma), and
delta_H * sigma averages sigma over each suborbit (orbit of H on the cosets),
the tensor is stored as k^2 + k integers against k^3: shift[a, z], the
coset of rep_a^-1 * rep_z, and labels[b], the least member of the suborbit
O_b of b, so that c[a][b][z] = [labels[shift[a, z]] = labels[b]] / |O_b|.
The suborbits as segments of one ordering are derived from the labels once
per table; identity solves read the labels alone, and an inconsistent
system's residual is sqrt(k - #suborbits) (see _solve_identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._kernels import quotient_convolve_weights
from .errors import CarrierMismatch
from .exact import ExactVector
from .groups import QuotientSpace, _freeze, require_bytes
from .measures import (ComplexMeasure, DensityFunction, _reduced, _require_same,
                       group_convolve, point_mass)
from .quotient_ops import (QuotientMeasure, RhoFunction, _exponent, lift_to_invariant,
                           pushforward_rh)


@dataclass(frozen=True)
class StructureTable:
    """The count tensor of G/H in factored form (see the module docs):
    c[a, b, z] = [labels[shift[a, z]] = labels[b]] / |O_b|. The dense views
    `counts`, in units of 1/|H| (int8 up to |H| = 127, int16 beyond), and
    `c` are gathered from the suborbit indicator on first access, within
    the byte budget."""

    quotient: QuotientSpace
    shift: np.ndarray         # (k, k) int32: coset of rep_a^-1 * rep_z
    labels: np.ndarray        # (k,) int32: least member of each coset's suborbit

    @property
    def coset_count(self) -> int:
        return self.quotient.coset_count

    @cached_property
    def segments(self) -> tuple[np.ndarray, ...]:
        """The suborbits the labels define, as the quotient kernel reads them,
        from one bincount and one stable argsort: `order` lists the cosets by
        label, so suborbit i is order[starts[i]:starts[i] + sizes[i]],
        ascending, and rank[c] is the suborbit of coset c."""
        counts = np.bincount(self.labels, minlength=self.coset_count)
        used = counts > 0
        sizes = counts[used]
        return (np.argsort(self.labels, kind="stable"), np.cumsum(sizes) - sizes, sizes,
                (np.cumsum(used) - 1).take(self.labels))

    @property
    def suborbit_sizes(self) -> np.ndarray:
        """|O_b| for each coset b."""
        return self.segments[2].take(self.segments[3])

    @cached_property
    def counts(self) -> np.ndarray:
        """The dense (k, k, k) count tensor counts[a, b, z] = |H| c[a, b, z],
        read-only, in the narrowest signed integer dtype that holds |H| (int8
        up to |H| = 127, then int16); each (a, b) row sums to |H|. It is
        m[shift[a, z], b] for m[w, b] = [labels[w] = labels[b]] |H|/|O_b|:
        one gather of whole rows of m, read through a transposed view. Raises
        ValueError when a row of shift is not a permutation."""
        k, what = self.coset_count, f"dense structure tensor with {self.coset_count} cosets"
        if not rows_are_permutations(self.shift, k, what):
            raise ValueError("corrupt structure table: a row of shift is not a permutation")
        order = self.quotient.subgroup.order
        dtype = np.min_scalar_type(-order - 1)
        # the view, then m in dtype with either the boolean m or the gather's
        # intp copy of shift, and numpy's small arrays
        require_bytes(k * k * (k * dtype.itemsize + dtype.itemsize + 8) + (1 << 15), what)
        m = (self.labels[:, None] == self.labels).astype(dtype)
        m *= (order // self.suborbit_sizes).astype(dtype)
        return _freeze(m.take(self.shift, axis=0).transpose(0, 2, 1))

    @cached_property
    def c(self) -> np.ndarray:
        """The dense (k, k, k) float64 tensor c = counts / |H|, read-only.
        Each suborbit size divides |H|, so each entry rounds to the double
        nearest 1/|O_b|, as a float division by |O_b| would."""
        counts, k = self.counts, self.coset_count
        # the view and numpy's buffers for the cast (~67 KB measured)
        require_bytes(8 * k ** 3 + (1 << 17), f"dense structure tensor with {k} cosets")
        return _freeze(counts / self.quotient.subgroup.order)


def rows_are_permutations(rows: np.ndarray, k: int, what: str) -> bool:
    """Whether every row of int32 `rows` is a permutation of range(k), after
    a byte check named by `what`: the sorted copy and its mask, five bytes
    per entry, and 64 KiB of numpy buffers (~33 KB measured)."""
    require_bytes(5 * k * k + (1 << 16), what)
    return bool((np.sort(rows, axis=1) == np.arange(k, dtype=rows.dtype)).all())


def _factor_bytes(Q: QuotientSpace) -> int:
    """What _factors holds per representative choice: per entry of its k x k
    shift gather and its |H| x k label gather, the int64 product, its int64
    coset and the int32 copy."""
    k = Q.coset_count
    return 20 * (k * k + Q.subgroup.order * k)


def _factors(Q: QuotientSpace, reps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Int32 shift tables (..., k, k) and suborbit labels (..., k) of
    representative choices (..., k): column b of H's action on the cosets
    holds b's suborbit, whose least member labels it."""
    G, k = Q.group, Q.coset_count
    reps = np.asarray(reps, dtype=np.int64)
    # per choice, and numpy's fancy-index buffers
    require_bytes(_factor_bytes(Q) * math.prod(reps.shape[:-1]) + (1 << 15),
                  f"structure table with {k} cosets")
    members = np.array(Q.subgroup.members, dtype=np.int64)
    shift = Q.coset_of[G.mul[G.inv[reps][..., :, None], reps[..., None, :]]].astype(np.int32)
    labels = Q.coset_of[G.mul[members[:, None], reps[..., None, :]]].min(axis=-2)
    return _freeze(shift), _freeze(labels.astype(np.int32))


def structure_table(Q: QuotientSpace, reps: Optional[Sequence[int]] = None) -> StructureTable:
    """The table of Q from a representative choice, by default Q.reps."""
    return StructureTable(Q, *_factors(Q, Q.reps if reps is None else reps))


def delta_h(Q: QuotientSpace) -> ComplexMeasure:
    """Unit mass on the base coset H; always a right identity."""
    return point_mass(Q, Q.base_coset)


# --- convolution and module action -------------------------------------------

def quotient_convolve(T: StructureTable, sigma1: ComplexMeasure,
                      sigma2: ComplexMeasure) -> ComplexMeasure:
    """(sigma1 * sigma2)({z}) = sum_{a,b} sigma1({a}) sigma2({b}) c[a][b][z]."""
    _require_same(T.quotient, sigma1, sigma2)
    w = quotient_convolve_weights(T.shift, T.segments, sigma1.weights, sigma2.weights)
    return ComplexMeasure(sigma1.carrier, w)


def quotient_convolve_exact(T: StructureTable, s1: ExactVector,
                            s2: ExactVector) -> ExactVector:
    """Exact convolution of Gaussian-rational weight vectors, or of batches
    of them: the kernel run on exact vectors, which sizes its byte check by
    their numerators."""
    k = T.coset_count
    if s1.shape[-1] != k or s2.shape[-1] != k:
        raise CarrierMismatch(f"exact weights must have one entry per coset ({k})")
    return quotient_convolve_weights(T.shift, T.segments, s1, s2)


def module_action(Q: QuotientSpace, mu: ComplexMeasure,
                  sigma: ComplexMeasure) -> ComplexMeasure:
    """Action of a group measure on a coset measure: push forward the group
    convolution of mu with the lift of sigma."""
    return pushforward_rh(Q, group_convolve(Q.group, mu, lift_to_invariant(Q, sigma)))


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
    with rho = lam.rho. The inner average is the kernel's v[shift[y, x]] for
    s2 = rho * psi, so out = quotient_convolve(lambda * phi, rho * psi) / rho.
    It equals the weighted average of the group convolution of the
    rho-weighted lifts; the verifier's P19_LP compares the two routes.
    """
    _require_same(T.quotient, lam, phi, psi)
    rho = lam.rho.values
    out = quotient_convolve_weights(T.shift, T.segments,
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
    out = quotient_convolve_weights(T.shift, T.segments, s1, s2) / rp
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
    and shift[a, z] = base exactly when a = z, so c[a][base][z] = [a = z]:
    delta_H satisfies every right row, and the left rows (base, z) pin sigma
    to delta_H. So either system is consistent, with the unique solution
    delta_H, iff delta_H is a left identity. As shift[base] keeps each coset
    in its suborbit (rep_base lies in H), delta_H * delta_b = u_b, uniform on
    the suborbit O of coset b: delta_H is a left identity iff d = k, for d
    suborbits, counted as the cosets that are their own label.

    An inconsistent system still has delta_H as a least-squares solution, so
    its residual is delta_H's own. As delta_a * delta_b = L_a u_b, with L_a
    the left translation by rep_a, for the left system
        A^T (A delta_H - e)[a] = sum_b <L_a u_b, u_b> - sum_b u_b(L_a^-1 b).
    Both sums equal sum_O |O ∩ L_a O| / |O|, so delta_H solves the normal
    equations, and the right rows, exact at delta_H, add nothing. Hence
        residual^2 = sum_b ||u_b - delta_b||^2 = sum_O (|O| - 1) = k - d,
    the number of cosets less the number of double cosets HgH.

    The argument reads the labels as H's orbits and the rows of shift as
    translations. A table whose base-coset rows do not pin delta_H, with a
    suborbit that is not labelled by its least member, or, when d < k, with
    a row of shift that is no permutation, raises
    ValueError; consistent labels and permutation rows that form no group
    action get delta_H's residual, which can exceed the least-squares minimum.
    """
    k, base, labels = T.coset_count, T.quotient.base_coset, T.labels
    # the mask of shift, the labels gathered through themselves and through
    # shift[base] with their intp index copies and masks, and the array
    # headers and Python objects of any call (up to 9 KB measured)
    require_bytes(k * k + 32 * k + (1 << 14), f"identity decision with {k} cosets")
    if not (np.flatnonzero(labels == base).tolist() == [base]
            and np.count_nonzero(T.shift == base) == k and (T.shift.diagonal() == base).all()
            and (labels[T.shift[base]] == labels).all()):
        raise ValueError("corrupt structure table: the base-coset rows do not pin delta_H")
    if not (((0 <= labels) & (labels <= np.arange(k))).all() and (labels[labels] == labels).all()):
        raise ValueError("corrupt structure table: a suborbit is not labelled by its least member")
    d = int(np.count_nonzero(labels == np.arange(k)))
    if d == k:
        return IdentitySolution(solution=(0,) * base + (1,) + (0,) * (k - 1 - base),
                                residual=0.0, unique=True)
    if not rows_are_permutations(T.shift, k, f"identity residual with {k} cosets"):
        raise ValueError("corrupt structure table: a row of shift is not a permutation")
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
