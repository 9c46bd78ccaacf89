"""Complex measures and density functions on finite carriers.

A measure is a dense complex weight vector over a carrier, the group or the
coset space it was built on (one weight per element or coset); mu(f) =
sum_i f(i) * weights[i]. The Haar measure on a group carrier is counting
measure, so a density and the measure it induces share the same vector.

Weights may carry leading batch axes, with the carrier on the last axis: a
batch of measures is one value, every operation acts on it row by row, and
a reduction reduces the last axis only (a number for one vector, an array
for a batch).
"""

from __future__ import annotations

import cmath
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from numbers import Number
from typing import Optional, Union

import numpy as np

from ._kernels import group_convolve_weights
from .errors import CarrierMismatch, CosetAlgError, UnknownName
from .groups import FiniteGroup, QuotientSpace, find_element

DEFAULT_TOL = 1e-9


# A measure's carrier is the group or coset space it was built on; two
# carriers match only when they are the same object.
Carrier = Union[FiniteGroup, QuotientSpace]


def group_carrier(G: FiniteGroup) -> Carrier:
    return G


def quotient_carrier(Q: QuotientSpace) -> Carrier:
    return Q


def _size(carrier: Carrier) -> int:
    """The number of points of a carrier: a group's order, a coset space's
    coset count (both plain attributes)."""
    return carrier.order if carrier.__class__ is FiniteGroup else carrier.coset_count


def _as_weights(values, carrier: Carrier, dtype=np.complex128) -> np.ndarray:
    """A read-only copy of the values: one vector of the carrier's size, or
    a batch of them when there are leading axes and the last has that size."""
    # _size without the call: this runs for every measure built
    size = carrier.order if carrier.__class__ is FiniteGroup else carrier.coset_count
    w = np.asarray(values, dtype=dtype)
    w = (w if w.ndim > 1 and w.shape[-1] == size else w.reshape(size)).copy()
    w.setflags(write=False)
    return w


def _reduced(x: np.ndarray, kind: type):
    """A reduction's result: a Python number for one vector, else the array."""
    return kind(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class ComplexMeasure:
    carrier: Carrier
    weights: np.ndarray  # complex128, one weight per carrier point

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weights(self.weights, self.carrier))

    def __add__(self, other: "ComplexMeasure") -> "ComplexMeasure":
        _require_same(self.carrier, other)
        return ComplexMeasure(self.carrier, self.weights + other.weights)

    def __sub__(self, other: "ComplexMeasure") -> "ComplexMeasure":
        _require_same(self.carrier, other)
        return ComplexMeasure(self.carrier, self.weights - other.weights)

    def __mul__(self, c: Number) -> "ComplexMeasure":
        return ComplexMeasure(self.carrier, self.weights * complex(c))

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexMeasure":
        return ComplexMeasure(self.carrier, -self.weights)

    def isclose(self, other: "ComplexMeasure", tol: float = DEFAULT_TOL) -> bool:
        _require_same(self.carrier, other)
        return bool(np.max(np.abs(self.weights - other.weights), initial=0.0) <= tol)


@dataclass(frozen=True)
class DensityFunction:
    carrier: Carrier
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_weights(self.values, self.carrier))

    def __add__(self, other: "DensityFunction") -> "DensityFunction":
        _require_same(self.carrier, other)
        return DensityFunction(self.carrier, self.values + other.values)

    def __mul__(self, c: Number) -> "DensityFunction":
        return DensityFunction(self.carrier, self.values * complex(c))

    __rmul__ = __mul__


def _require_same(carrier: Carrier, *operands) -> None:
    """Refuse an operand built on another group or coset space, even one
    with the same labels."""
    for x in operands:
        if x.carrier is not carrier:
            again = "another build of " if repr(x.carrier) == repr(carrier) else ""
            raise CarrierMismatch(f"carriers differ: {x.carrier!r} vs {again}{carrier!r}")


# --- operations -------------------------------------------------------------

def point_mass(carrier: Carrier, point) -> ComplexMeasure:
    """Unit mass at one carrier point, or a batch of them at an integer
    array of points."""
    size, point = _size(carrier), np.asarray(point)
    if ((point < 0) | (point >= size)).any():
        raise IndexError(f"point {point} out of range for carrier of size {size}")
    w = np.zeros(point.shape + (size,), dtype=np.complex128)
    np.put_along_axis(w, point[..., None], 1.0, axis=-1)
    return ComplexMeasure(carrier, w)


def total_variation(mu: ComplexMeasure) -> float:
    return _reduced(np.abs(mu.weights).sum(axis=-1), float)


def group_convolve(G: FiniteGroup, mu1: ComplexMeasure, mu2: ComplexMeasure) -> ComplexMeasure:
    """(mu1 * mu2)({z}) = sum over x*y = z of mu1({x}) mu2({y})."""
    _require_same(G, mu1, mu2)
    return ComplexMeasure(G, group_convolve_weights(G.mul, G.inv, mu1.weights, mu2.weights))


def from_density(G: FiniteGroup, f: DensityFunction) -> ComplexMeasure:
    """Measure with density f against counting measure: identical weights."""
    _require_same(G, f)
    return ComplexMeasure(f.carrier, f.values)


def integrate(mu: ComplexMeasure, f: DensityFunction) -> complex:
    """mu(f) = sum_i f(i) * weights[i] (no conjugation)."""
    _require_same(mu.carrier, f)
    return _reduced(np.sum(f.values * mu.weights, axis=-1), complex)


# --- serialization ----------------------------------------------------------

def measure_to_dict(mu: ComplexMeasure) -> dict:
    """JSON form {"carrier": kind, "weights": {label: [re, im]}}; zero weights
    are omitted (absent labels mean 0), and only the labels of the others
    are formatted."""
    points = np.flatnonzero(mu.weights)
    weights = {mu.carrier.label(i): [w.real, w.imag]
               for i, w in zip(points.tolist(), mu.weights[points].tolist())}
    return {"carrier": _kind(mu.carrier), "weights": weights}


def _kind(carrier: Carrier) -> str:
    return "group" if isinstance(carrier, FiniteGroup) else "quotient"


def _weight(label: str, val) -> complex:
    """A JSON weight: a finite number or a finite [re, im] pair."""
    parts = val if isinstance(val, (list, tuple)) and len(val) == 2 else [val]
    if all(isinstance(x, Number) and not isinstance(x, bool) for x in parts):
        with suppress(OverflowError):
            z = complex(*parts)
            if cmath.isfinite(z):
                return z
    raise CosetAlgError(f"weight of {label!r} must be a finite number or a finite "
                        f"[re, im] pair, got {val!r}")


def measure_from_dict(carrier: Carrier, d: dict) -> ComplexMeasure:
    """The measure a JSON form describes on `carrier`; refuses another kind
    of carrier, labels that are no point of it and weights that are no
    finite number."""
    if not isinstance(d, dict):
        raise CosetAlgError("a measure file must be a JSON object")
    kind = d.get("carrier", _kind(carrier))
    if kind != _kind(carrier):
        raise CarrierMismatch(f"measure file is on a {kind!r} carrier, expected {_kind(carrier)!r}")
    weights = d.get("weights", {})
    if not isinstance(weights, dict):
        raise CosetAlgError("a measure file's 'weights' must be an object of label: weight")
    w = np.zeros(_size(carrier), dtype=np.complex128)
    lookup = (partial(_printed_as, carrier)
              if isinstance(carrier, FiniteGroup) and carrier.perms is not None
              else {lab: i for i, lab in enumerate(carrier.labels)}.get)
    for lab, val in weights.items():
        z = _weight(lab, val)
        i = lookup(lab)
        if i is None:
            raise CarrierMismatch(f"no point {lab!r} on this carrier")
        w[i] = z
    return ComplexMeasure(carrier, w)


def _printed_as(G: FiniteGroup, label: str) -> Optional[int]:
    """The element of a permutation group whose label is `label`, or None:
    the permutation the string spells, found by find_element, if it prints
    as that same string. No other label is formatted."""
    with suppress(UnknownName):
        x = find_element(G, label)
        if G.label(x) == label:
            return x
    return None
