"""Weight functions on cosets, quasi-invariant measures, and the operators
that move measures and densities between a group and its coset space.

Normalization, fixed package-wide: counting measure on G, unit-mass uniform
measure on H. Consequences: coset-averaging of a coset-constant function is
the identity, lifting a coset measure spreads weight/|H| over each coset, and
the induced coset measure has weight |H| * rho per coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import exact
from .errors import CarrierMismatch, NonPositive, NotCosetConstant
from .groups import FiniteGroup, QuotientSpace
from .measures import (Carrier, ComplexMeasure, DensityFunction, group_carrier,
                       quotient_carrier)


@dataclass(frozen=True)
class RhoFunction:
    """Strictly positive weight on G, constant on left cosets (one value per
    coset). Finite groups force the constancy: both modular functions are 1."""

    quotient: QuotientSpace
    values: np.ndarray                              # (k,) float64 > 0
    exact: Optional[tuple[Fraction, ...]] = None    # set when built from rationals

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(self.quotient.coset_count).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def at_element(self, x: int) -> float:
        return float(self.values[self.quotient.coset_of[x]])

    def power(self, exponent: float) -> np.ndarray:
        return self.values ** exponent


@dataclass(frozen=True)
class QuotientMeasure:
    """The measure induced on G/H by a rho weight: weight |H| * rho per coset.
    Positive, and strongly quasi-invariant under left translation."""

    quotient: QuotientSpace
    rho: RhoFunction
    weights: np.ndarray                             # (k,) float64 > 0
    exact: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(self.quotient.coset_count).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def as_measure(self) -> ComplexMeasure:
        return ComplexMeasure(quotient_carrier(self.quotient), self.weights)


def validate_rho(Q: QuotientSpace,
                 values: Sequence[Union[float, Fraction]]) -> RhoFunction:
    """Build a validated rho weight.

    `values` has one entry per coset, or one per group element (raw mode, the
    only route that can violate coset constancy). Raises NonPositive or
    NotCosetConstant naming the first offense.
    """
    vals = list(values)
    k, n = Q.coset_count, Q.group.order
    exact_vals: Optional[tuple[Fraction, ...]] = None
    if all(isinstance(v, (Fraction, int)) for v in vals):
        exact_candidate = [Fraction(v) for v in vals]
    else:
        exact_candidate = None

    if len(vals) == n and n != k:
        arr = np.asarray([float(v) for v in vals], dtype=np.float64)
        for c in range(k):
            members = Q.members(c)
            first = members[0]
            for y in members[1:]:
                if arr[y] != arr[first]:
                    raise NotCosetConstant(
                        f"value at {Q.group.labels[y]} differs from "
                        f"{Q.group.labels[first]} inside coset C{c}")
        per_coset = arr[Q.reps]
        if exact_candidate is not None:
            exact_vals = tuple(exact_candidate[int(r)] for r in Q.reps)
    elif len(vals) == k:
        per_coset = np.asarray([float(v) for v in vals], dtype=np.float64)
        if exact_candidate is not None:
            exact_vals = tuple(exact_candidate)
    else:
        raise CarrierMismatch(f"rho needs {k} (per coset) or {n} (per element) values")

    bad = np.flatnonzero(~(per_coset > 0))
    if len(bad):
        raise NonPositive(f"rho must be > 0, got {per_coset[bad[0]]} on coset C{int(bad[0])}")
    return RhoFunction(quotient=Q, values=per_coset, exact=exact_vals)


def rho_ones(Q: QuotientSpace) -> RhoFunction:
    """The invariant case rho = 1."""
    return RhoFunction(Q, np.ones(Q.coset_count),
                       exact=tuple(Fraction(1) for _ in range(Q.coset_count)))


def rho_from_dict(Q: QuotientSpace, d: dict) -> RhoFunction:
    """File schema {"values": {representative_label: positive number}};
    missing cosets default to 1."""
    vals: list[Union[Fraction, float]] = [Fraction(1)] * Q.coset_count
    rep_to_coset = {Q.group.labels[int(r)]: c for c, r in enumerate(Q.reps)}
    for lab, v in d.get("values", {}).items():
        if lab not in rep_to_coset:
            raise CarrierMismatch(f"{lab!r} is not a coset representative label")
        vals[rep_to_coset[lab]] = Fraction(str(v)) if not isinstance(v, float) else v
    return validate_rho(Q, vals)


# --- averaging operators ----------------------------------------------------

def average_ph(Q: QuotientSpace, f: DensityFunction) -> DensityFunction:
    """Coset average: out(xH) = (1/|H|) sum_{h in H} f(xh)."""
    _require_group_density(Q, f)
    sums = np.bincount(Q.coset_of, weights=f.values.real, minlength=Q.coset_count) \
        + 1j * np.bincount(Q.coset_of, weights=f.values.imag, minlength=Q.coset_count)
    return DensityFunction(quotient_carrier(Q), sums / Q.subgroup.order)


def weighted_average_th(Q: QuotientSpace, rho: RhoFunction, p: float,
                        f: DensityFunction) -> DensityFunction:
    """rho-weighted coset average: out(xH) = (1/|H|) sum_h f(xh) / rho(xh)^(1/p).

    Coincides with average_ph when rho = 1; inverts the rho^(1/p)-weighted
    lift of a coset function.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    avg = average_ph(Q, f)
    return DensityFunction(avg.carrier, avg.values / rho.power(1.0 / p))


def compose_with_projection(Q: QuotientSpace, phi: DensityFunction) -> DensityFunction:
    """phi∘pi: the coset function phi read as a function on G."""
    _require_quotient_density(Q, phi)
    return DensityFunction(group_carrier(Q.group), phi.values[Q.coset_of])


def quasi_invariant_lambda(Q: QuotientSpace, rho: RhoFunction) -> QuotientMeasure:
    """Coset measure with weight |H| * rho per coset; the unique normalization
    making the group integral match the iterated coset integral exactly."""
    h = Q.subgroup.order
    ex = None if rho.exact is None else tuple(h * v for v in rho.exact)
    return QuotientMeasure(quotient=Q, rho=rho, weights=h * rho.values, exact=ex)


def quotient_integral_check(Q: QuotientSpace, rho: RhoFunction,
                            f: DensityFunction) -> tuple[complex, complex]:
    """(sum of f over G, sum over cosets of weighted-average(f) * lambda).
    The two agree up to roundoff for every rho."""
    lam = quasi_invariant_lambda(Q, rho)
    lhs = complex(np.sum(f.values))
    th = weighted_average_th(Q, rho, 1.0, f)
    rhs = complex(np.sum(th.values * lam.weights))
    return lhs, rhs


# --- measures across the projection ------------------------------------------

def pushforward_rh(Q: QuotientSpace, mu: ComplexMeasure) -> ComplexMeasure:
    """Image of a group measure on the coset space: coset weight = sum of its
    members' weights. Linear, norm-nonincreasing, surjective."""
    _require_group_measure(Q, mu)
    w = np.bincount(Q.coset_of, weights=mu.weights.real, minlength=Q.coset_count) \
        + 1j * np.bincount(Q.coset_of, weights=mu.weights.imag, minlength=Q.coset_count)
    return ComplexMeasure(quotient_carrier(Q), w)


def lift_to_invariant(Q: QuotientSpace, sigma: ComplexMeasure) -> ComplexMeasure:
    """The right-H-invariant group measure projecting onto sigma: each element
    of coset xH carries sigma({xH})/|H|. Sections pushforward_rh isometrically."""
    _require_quotient_measure(Q, sigma)
    w = sigma.weights[Q.coset_of] / Q.subgroup.order
    return ComplexMeasure(group_carrier(Q.group), w)


def membership_mgh(Q: QuotientSpace, mu: ComplexMeasure) -> bool:
    """True iff the weights are constant on every left coset (right-H-invariance).

    Exact comparison: lifted measures and coset-constant densities reproduce
    bit-identical weights inside a coset.
    """
    _require_group_measure(Q, mu)
    rep_weights = mu.weights[Q.reps][Q.coset_of]
    return bool(np.all(mu.weights == rep_weights))


def solve_mhg_space(Q: QuotientSpace) -> list[ComplexMeasure]:
    """Basis of the literal convolution-invariance solution space.

    The defining condition, read verbatim over the basis pairs (point density
    at x, coset indicator C), demands sum_{z in xC} mu_z = mu_x for every x
    and C. That system is scale-degenerate by design (see the module docs);
    this returns the exact rational kernel basis, one measure per basis
    vector, so callers can report its dimension.
    """
    G, k, n = Q.group, Q.coset_count, Q.group.order
    x = np.arange(n)
    rows = np.zeros((n * k, n), dtype=np.int64)           # row (x, C) at x*k + C
    np.add.at(rows, (x[:, None] * k + Q.coset_of[None, :], G.mul), 1)
    rows[np.arange(n * k), np.repeat(x, k)] -= 1
    basis = exact.nullspace(rows, ncols=n)
    gc = group_carrier(G)
    return [ComplexMeasure(gc, np.array([float(v) for v in vec], dtype=np.complex128))
            for vec in basis]


# --- small guards -------------------------------------------------------------

def _require_group_measure(Q: QuotientSpace, mu: ComplexMeasure) -> None:
    if mu.carrier != group_carrier(Q.group):
        raise CarrierMismatch("expected a measure on the group carrier")


def _require_quotient_measure(Q: QuotientSpace, sigma: ComplexMeasure) -> None:
    if sigma.carrier != quotient_carrier(Q):
        raise CarrierMismatch("expected a measure on the quotient carrier")


def _require_group_density(Q: QuotientSpace, f: DensityFunction) -> None:
    if f.carrier != group_carrier(Q.group):
        raise CarrierMismatch("expected a density on the group carrier")


def _require_quotient_density(Q: QuotientSpace, phi: DensityFunction) -> None:
    if phi.carrier != quotient_carrier(Q):
        raise CarrierMismatch("expected a density on the quotient carrier")
