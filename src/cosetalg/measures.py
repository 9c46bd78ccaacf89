"""Complex measures and density functions on finite carriers.

A measure is a dense complex weight vector over a carrier (a group's element
set or a quotient's coset set); mu(f) = sum_i f(i) * weights[i]. The Haar
measure on a group carrier is counting measure, so a density and the measure
it induces share the same vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from ._kernels import group_convolve_weights
from .errors import CarrierMismatch
from .groups import FiniteGroup, QuotientSpace

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Carrier:
    kind: str                 # "group" | "quotient"
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("group", "quotient"):
            raise CarrierMismatch(f"unknown carrier kind {self.kind!r}")
        if len(self.labels) < 1 or len(set(self.labels)) != len(self.labels):
            raise CarrierMismatch("carrier labels must be nonempty and distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CarrierMismatch(f"no point {label!r} on this carrier") from None


def group_carrier(G: FiniteGroup) -> Carrier:
    return Carrier("group", G.labels)


def quotient_carrier(Q: QuotientSpace) -> Carrier:
    return Carrier("quotient", Q.labels)


def _as_weights(values, size: int) -> np.ndarray:
    w = np.asarray(values, dtype=np.complex128).reshape(size).copy()
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class ComplexMeasure:
    carrier: Carrier
    weights: np.ndarray  # complex128, one weight per carrier point

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weights(self.weights, self.carrier.size))

    def __add__(self, other: "ComplexMeasure") -> "ComplexMeasure":
        _require_same(self.carrier, other.carrier)
        return ComplexMeasure(self.carrier, self.weights + other.weights)

    def __sub__(self, other: "ComplexMeasure") -> "ComplexMeasure":
        _require_same(self.carrier, other.carrier)
        return ComplexMeasure(self.carrier, self.weights - other.weights)

    def __mul__(self, c: Number) -> "ComplexMeasure":
        return ComplexMeasure(self.carrier, self.weights * complex(c))

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexMeasure":
        return ComplexMeasure(self.carrier, -self.weights)

    def isclose(self, other: "ComplexMeasure", tol: float = DEFAULT_TOL) -> bool:
        _require_same(self.carrier, other.carrier)
        return bool(np.max(np.abs(self.weights - other.weights), initial=0.0) <= tol)


@dataclass(frozen=True)
class DensityFunction:
    carrier: Carrier
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_weights(self.values, self.carrier.size))

    def __add__(self, other: "DensityFunction") -> "DensityFunction":
        _require_same(self.carrier, other.carrier)
        return DensityFunction(self.carrier, self.values + other.values)

    def __mul__(self, c: Number) -> "DensityFunction":
        return DensityFunction(self.carrier, self.values * complex(c))

    __rmul__ = __mul__


def _require_same(c1: Carrier, c2: Carrier) -> None:
    if c1 != c2:
        raise CarrierMismatch(f"carriers differ: {c1.kind}[{c1.size}] vs {c2.kind}[{c2.size}]")


# --- operations -------------------------------------------------------------

def point_mass(carrier: Carrier, point: int) -> ComplexMeasure:
    """Unit mass at one carrier point."""
    if not 0 <= point < carrier.size:
        raise IndexError(f"point {point} out of range for carrier of size {carrier.size}")
    w = np.zeros(carrier.size, dtype=np.complex128)
    w[point] = 1.0
    return ComplexMeasure(carrier, w)


def total_variation(mu: ComplexMeasure) -> float:
    return float(np.abs(mu.weights).sum())


def group_convolve(G: FiniteGroup, mu1: ComplexMeasure, mu2: ComplexMeasure) -> ComplexMeasure:
    """(mu1 * mu2)({z}) = sum over x*y = z of mu1({x}) mu2({y})."""
    gc = group_carrier(G)
    _require_same(mu1.carrier, gc)
    _require_same(mu2.carrier, gc)
    return ComplexMeasure(gc, group_convolve_weights(G.mul, G.inv, mu1.weights, mu2.weights))


def from_density(G: FiniteGroup, f: DensityFunction) -> ComplexMeasure:
    """Measure with density f against counting measure: identical weights."""
    _require_same(f.carrier, group_carrier(G))
    return ComplexMeasure(f.carrier, f.values)


def integrate(mu: ComplexMeasure, f: DensityFunction) -> complex:
    """mu(f) = sum_i f(i) * weights[i] (no conjugation)."""
    _require_same(mu.carrier, f.carrier)
    return complex(np.sum(f.values * mu.weights))


# --- serialization ----------------------------------------------------------

def measure_to_dict(mu: ComplexMeasure) -> dict:
    """JSON form {"carrier": kind, "weights": {label: [re, im]}}; zero weights
    are omitted (absent labels mean 0)."""
    weights = {}
    for lab, w in zip(mu.carrier.labels, mu.weights):
        if w == 0:
            continue
        weights[lab] = [float(w.real), float(w.imag)]
    return {"carrier": mu.carrier.kind, "weights": weights}


def measure_from_dict(carrier: Carrier, d: dict) -> ComplexMeasure:
    kind = d.get("carrier", carrier.kind)
    if kind != carrier.kind:
        raise CarrierMismatch(f"measure file is on a {kind!r} carrier, expected {carrier.kind!r}")
    w = np.zeros(carrier.size, dtype=np.complex128)
    for lab, val in d.get("weights", {}).items():
        if isinstance(val, Number):
            z = complex(val)
        else:
            re, im = val
            z = complex(re, im)
        w[carrier.index_of(lab)] = z
    return ComplexMeasure(carrier, w)
