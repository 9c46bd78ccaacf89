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
from typing import Sequence, Union

import numpy as np

from ._kernels import lift_weights, push_weights
from .errors import CarrierMismatch, CosetAlgError, NonPositive, NotCosetConstant
from .groups import QuotientSpace
from .measures import (ComplexMeasure, DensityFunction, _as_weights, _reduced,
                       _require_same)


@dataclass(frozen=True)
class RhoFunction:
    """Strictly positive weight on G, constant on left cosets (one value per
    coset). Finite groups force the constancy: both modular functions are 1."""

    quotient: QuotientSpace
    values: np.ndarray                              # (..., k) float64 > 0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_weights(
            self.values, self.quotient, np.float64))

    carrier = property(lambda self: self.quotient)   # for the carrier guard


@dataclass(frozen=True)
class QuotientMeasure:
    """The measure induced on G/H by a rho weight: weight |H| * rho per coset.
    Positive, and strongly quasi-invariant under left translation."""

    quotient: QuotientSpace
    rho: RhoFunction
    weights: np.ndarray                             # (..., k) float64 > 0

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weights(
            self.weights, self.quotient, np.float64))

    carrier = property(lambda self: self.quotient)   # for the carrier guard


def validate_rho(Q: QuotientSpace,
                 values: Sequence[Union[float, Fraction]]) -> RhoFunction:
    """Build a validated rho weight.

    `values` has one entry per coset, or one per group element (raw mode, the
    only route that can violate coset constancy). Raises NonPositive (a value
    that is not > 0, or is infinite or beyond float range) or NotCosetConstant
    naming the first offense.
    """
    vals = list(values)
    k, n = Q.coset_count, Q.group.order
    if len(vals) == n and n != k:
        arr = np.asarray([_float(v) for v in vals], dtype=np.float64)
        table = arr[Q.member_table]
        bad = np.argwhere((table[1:] != table[0]).T)   # coset order, then member order
        if len(bad):
            c, i = map(int, bad[0])
            y, first = (int(Q.member_table[j, c]) for j in (i + 1, 0))
            raise NotCosetConstant(f"value at {Q.group.label(y)} differs from "
                                   f"{Q.group.label(first)} inside coset C{c}")
        per_coset = arr[Q.reps]
    elif len(vals) == k:
        per_coset = np.asarray([_float(v) for v in vals], dtype=np.float64)
    else:
        raise CarrierMismatch(f"rho needs {k} (per coset) or {n} (per element) values")

    bad = np.flatnonzero(~((per_coset > 0) & (per_coset < np.inf)))
    if len(bad):
        v, c = per_coset[bad[0]], int(bad[0])
        raise NonPositive(f"rho must be {'finite' if v > 0 else '> 0'}, got {v} on coset C{c}")
    return RhoFunction(quotient=Q, values=per_coset)


def _float(v) -> float:
    """float(v), or an infinity of v's sign when v is beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return np.inf if v > 0 else -np.inf


def rho_ones(Q: QuotientSpace) -> RhoFunction:
    """The invariant case rho = 1."""
    return RhoFunction(Q, np.ones(Q.coset_count))


def rho_from_dict(Q: QuotientSpace, d: dict) -> RhoFunction:
    """File schema {"values": {representative_label: positive number}};
    missing cosets default to 1. A value is a JSON number or a string of a
    decimal or a fraction "n/d" (see _rho_string)."""
    if not isinstance(d, dict):
        raise CosetAlgError("a rho file must be a JSON object")
    values = d.get("values", {})
    if not isinstance(values, dict):
        raise CosetAlgError("a rho file's 'values' must be an object of label: value")
    vals: list[Union[int, float]] = [1] * Q.coset_count
    rep_to_coset = {Q.group.label(r): c for c, r in enumerate(Q.reps.tolist())}
    for lab, v in values.items():
        if lab not in rep_to_coset:
            raise CarrierMismatch(f"{lab!r} is not a coset representative label")
        if isinstance(v, str):
            v = _rho_string(lab, v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise CosetAlgError(f"rho value {v!r} of {lab!r} is not a number")
        vals[rep_to_coset[lab]] = v
    return validate_rho(Q, vals)


def _rho_string(lab: str, s: str) -> float:
    """The double nearest a rho file's string value: a fraction "n/d" read by
    Fraction, a decimal by float, which rounds it as float(Fraction(s))
    would without computing 10**exponent. Refused, naming the label, unless
    it is a positive finite double."""
    try:
        x = float(Fraction(s)) if "/" in s else float(s)
    except (ValueError, ZeroDivisionError, OverflowError):
        x = np.nan
    if not 0 < x < np.inf:
        raise CosetAlgError(f"rho value {s!r} of {lab!r} is not a positive finite number")
    return x


# --- averaging operators ----------------------------------------------------

def average_ph(Q: QuotientSpace, f: DensityFunction) -> DensityFunction:
    """Coset average: out(xH) = (1/|H|) sum_{h in H} f(xh)."""
    _require_same(Q.group, f)
    return DensityFunction(Q, push_weights(Q.member_table, f.values) / Q.subgroup.order)


def _exponent(p):
    """An L^p exponent as the entries of a vector read it: the float64 array
    of p, one number or one exponent per vector of a batch, with an axis
    appended for the entries. Raises TypeError unless p is an integer or
    float or an array of them (not a str, bytes or bool), ValueError unless
    every p is finite and >= 1."""
    if np.asarray(p).dtype.kind not in "iuf":
        raise TypeError("p must be an integer or float, not "
                        f"{getattr(p, 'dtype', type(p).__name__)}")
    p = np.asarray(p, dtype=np.float64)[..., None]
    if not ((1 <= p) & (p < np.inf)).all():
        raise ValueError("p must be finite and >= 1")
    return p


def weighted_average_th(Q: QuotientSpace, rho: RhoFunction, p,
                        f: DensityFunction) -> DensityFunction:
    """rho-weighted coset average: out(xH) = (1/|H|) sum_h f(xh) / rho(xh)^(1/p).

    Coincides with average_ph when rho = 1; inverts the rho^(1/p)-weighted
    lift of a coset function. p is a number, or an array of one exponent per
    vector of the batch.
    """
    p = _exponent(p)
    _require_same(Q, rho)
    avg = average_ph(Q, f)
    return DensityFunction(avg.carrier, avg.values / rho.values ** (1.0 / p))


def compose_with_projection(Q: QuotientSpace, phi: DensityFunction) -> DensityFunction:
    """phi∘pi: the coset function phi read as a function on G."""
    _require_same(Q, phi)
    return DensityFunction(Q.group, phi.values.take(Q.coset_of, axis=-1))


def quasi_invariant_lambda(Q: QuotientSpace, rho: RhoFunction) -> QuotientMeasure:
    """Coset measure with weight |H| * rho per coset; the unique normalization
    making the group integral match the iterated coset integral exactly."""
    _require_same(Q, rho)
    return QuotientMeasure(quotient=Q, rho=rho, weights=Q.subgroup.order * rho.values)


def quotient_integral_check(Q: QuotientSpace, rho: RhoFunction,
                            f: DensityFunction) -> tuple[complex, complex]:
    """(sum of f over G, sum over cosets of weighted-average(f) * lambda).
    The two agree up to roundoff for every rho."""
    lam = quasi_invariant_lambda(Q, rho)
    lhs = _reduced(np.sum(f.values, axis=-1), complex)
    th = weighted_average_th(Q, rho, 1.0, f)
    rhs = _reduced(np.sum(th.values * lam.weights, axis=-1), complex)
    return lhs, rhs


# --- measures across the projection ------------------------------------------

def pushforward_rh(Q: QuotientSpace, mu: ComplexMeasure) -> ComplexMeasure:
    """Image of a group measure on the coset space: coset weight = sum of its
    members' weights. Linear, norm-nonincreasing, surjective."""
    _require_same(Q.group, mu)
    return ComplexMeasure(Q, push_weights(Q.member_table, mu.weights))


def lift_to_invariant(Q: QuotientSpace, sigma: ComplexMeasure) -> ComplexMeasure:
    """The right-H-invariant group measure projecting onto sigma: each element
    of coset xH carries sigma({xH})/|H|. Sections pushforward_rh isometrically."""
    _require_same(Q, sigma)
    return ComplexMeasure(Q.group, lift_weights(Q.coset_of, Q.subgroup.order, sigma.weights))


def membership_mgh(Q: QuotientSpace, mu: ComplexMeasure) -> bool:
    """True iff the weights are constant on every left coset (right-H-invariance).

    Exact comparison: lifted measures and coset-constant densities reproduce
    bit-identical weights inside a coset.
    """
    _require_same(Q.group, mu)
    rep_weights = mu.weights.take(Q.reps[Q.coset_of], axis=-1)
    return _reduced(np.all(mu.weights == rep_weights, axis=-1), bool)


def solve_mhg_space(Q: QuotientSpace) -> list[ComplexMeasure]:
    """Basis of the literal convolution-invariance solution space.

    The defining condition, read verbatim over the basis pairs (point density
    at x, coset indicator C), demands sum_{z in xC} mu_z = mu_x for every x
    and C. As C runs over the cosets, so does xC, so every mu_x equals every
    coset sum: mu is a constant c, and a coset sum of it is |H| * c = c. So
    the space is the constants when H is trivial and zero otherwise. This
    returns its canonical kernel basis, [all ones] or [], so callers can
    report its dimension.
    """
    if Q.subgroup.order > 1:
        return []
    return [ComplexMeasure(Q.group, np.ones(Q.group.order, dtype=np.complex128))]
