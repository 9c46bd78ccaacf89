"""Exact rational arithmetic: Gaussian-rational vectors.

They back the "exactly" claims that floating point cannot honor (division by
a non-power-of-two subgroup order rounds). An ExactVector holds integer
numerator arrays over one denominator and implements what the kernels in
_kernels are written in, so the exact lift, pushforward, group and quotient
convolution are those kernels run on exact vectors; the numerators are int64
while an overflow bound holds and Python ints beyond it. There is no exact
linear solver: the identity systems are decided on the structure table's
factors, and the invariance space has a closed form (see quotient_ops).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

_INT64_BOUND = 2 ** 63
_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)


@dataclass(frozen=True, eq=False)
class ExactVector:
    """An array of Gaussian rationals (re + i·im) / den: integer numerator
    arrays of one shape (at least 1-D) over one positive integer denominator.

    `bound` bounds every |numerator|: measured when not given, else derived
    by the operation that made the vector from its operands' bounds; a given
    bound below the measured one raises ValueError. The arrays are int64
    when bound < 2**63 and object (Python ints) otherwise, so no operation
    wraps. == compares values, not representations.
    """

    re: np.ndarray
    im: np.ndarray
    den: int = 1
    bound: Optional[int] = None

    def __post_init__(self):
        re, im = np.asarray(self.re), np.asarray(self.im)
        if re.shape != im.shape or re.ndim < 1:
            raise ValueError("need two numerator arrays of one shape (1-D or more)")
        bound = _magnitude(re, im)
        if self.bound is not None:
            if self.bound < bound:
                raise ValueError(f"bound {self.bound} is below the numerators' magnitude {bound}")
            bound = self.bound
        re, im = _integers(bound, re, im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", _positive_integer(self.den, "den"))
        object.__setattr__(self, "bound", bound)

    @classmethod
    def _of(cls, re: np.ndarray, im: np.ndarray, den: int, bound: int) -> "ExactVector":
        """The vector of numerator arrays that _integers typed for `bound`, over
        a checked denominator, unvalidated; a result with no axis left goes
        through the validating constructor, which refuses it."""
        if np.ndim(re) < 1:
            return cls(re, im, den, bound)
        v = object.__new__(cls)
        v.__dict__.update(re=re, im=im, den=den, bound=bound)
        return v

    @classmethod
    def from_fractions(cls, re: Sequence, im: Optional[Sequence] = None) -> "ExactVector":
        """The vector re + i·im from rationals (anything Fraction accepts)."""
        im = [0] * len(re) if im is None else im
        parts = [[Fraction(v) for v in part] for part in (re, im)]
        den = math.lcm(*(v.denominator for part in parts for v in part))
        return cls(*(np.array([int(v * den) for v in part], dtype=object) for part in parts), den)

    def __len__(self) -> int:
        return len(self.re)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.re.shape

    def widened(self) -> "ExactVector":
        """The same values held as Python ints, its bound raised to 2**63."""
        bound = max(self.bound, _INT64_BOUND)
        return ExactVector._of(*_integers(bound, self.re, self.im), self.den, bound)

    def __getitem__(self, index) -> "ExactVector":
        return ExactVector._of(self.re[index], self.im[index], self.den, self.bound)

    def take(self, indices, axis: int) -> "ExactVector":
        """numpy's take along one axis."""
        return ExactVector._of(self.re.take(indices, axis=axis), self.im.take(indices, axis=axis),
                               self.den, self.bound)

    def __mul__(self, other) -> "ExactVector":
        """Entrywise product with an ExactVector, or with integers."""
        if not isinstance(other, ExactVector):
            bound = _bound(self.bound, _magnitude(other))
            re, im, scale = _integers(bound, self.re, self.im, other)
            return ExactVector._of(re * scale, im * scale, self.den, bound)
        bound = _bound(2, self.bound, other.bound)
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return ExactVector._of(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2,
                               self.den * other.den, bound)

    def __add__(self, other: "ExactVector") -> "ExactVector":
        """Entrywise sum, over the two denominators' least common multiple."""
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        bound = _bound(self.bound, s) + _bound(other.bound, t)
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return ExactVector._of(r1 * s + r2 * t, i1 * s + i2 * t, den, bound)

    def __truediv__(self, q) -> "ExactVector":
        """Division by an integer q >= 1, or entrywise by an integer array of
        them as numpy's / broadcasts: the denominator grows by their least
        common multiple L, the numerators by L / q, and their bound is then
        measured (a sum of s terms over s is at most L times a term)."""
        lcm = math.lcm(*(_positive_integer(v, "divisor") for v in set(np.ravel(q).tolist())))
        if np.ndim(q) == 0:
            return ExactVector._of(self.re, self.im, self.den * lcm, self.bound)
        v = self * (lcm // np.asarray(q, dtype=object))
        bound = _magnitude(v.re, v.im)
        return ExactVector._of(*_integers(bound, v.re, v.im), v.den * lcm, bound)

    def abs_squared(self) -> "ExactVector":
        """|v_i|^2 entrywise, with zero imaginary part."""
        return self * ExactVector._of(self.re, -self.im, self.den, self.bound)

    def sum(self, axis: int) -> "ExactVector":
        """The sum over one axis."""
        bound = _bound(self.bound, self.re.shape[axis])
        re, im = _integers(bound, self.re, self.im)
        return ExactVector._of(re.sum(axis=axis), im.sum(axis=axis), self.den, bound)

    def __matmul__(self, other: "ExactVector") -> "ExactVector":
        """The matrix product, as numpy's @ on the numerator arrays."""
        bound = _bound(2, self.bound, other.bound, self.re.shape[-1])
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return ExactVector._of(r1 @ r2 - i1 @ i2, r1 @ i2 + i1 @ r2,
                               self.den * other.den, bound)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """np.multiply(a, b, out=...) as a * b, a new vector: `out`, which the
        kernels pass for float arrays, is not written; and np.add.reduceat(v,
        starts, axis=...), the sums of v's segments that begin at `starts`."""
        if ufunc is np.multiply and method == "__call__" and \
                all(isinstance(x, ExactVector) for x in inputs):
            return inputs[0] * inputs[1]
        if ufunc is np.add and method == "reduceat":   # v is inputs[0], starts an array
            v, starts, axis = inputs[0], np.asarray(inputs[1]).tolist(), kwargs.get("axis", 0)
            ends = starts[1:] + [v.shape[axis]]
            bound = _bound(v.bound, max((b - a for a, b in zip(starts, ends)), default=0))
            return ExactVector._of(*(np.add.reduceat(a, starts, axis=axis)
                                     for a in _integers(bound, v.re, v.im)), v.den, bound)
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        """np.concatenate(vectors, axis=...) of exact vectors, over their
        denominators' least common multiple; no other numpy function."""
        if func is not np.concatenate:
            return NotImplemented
        vectors, axis = args[0], kwargs.get("axis", args[1] if len(args) > 1 else 0)
        den = math.lcm(*(v.den for v in vectors))
        bound = max(_bound(v.bound, den // v.den) for v in vectors)
        parts = [[a if v.den == den else a * (den // v.den) for a in _integers(bound, v.re, v.im)]
                 for v in vectors]
        return ExactVector._of(*(np.concatenate(p, axis=axis) for p in zip(*parts)), den, bound)

    def equal(self, other: "ExactVector") -> np.ndarray:
        """Entrywise value equality, broadcast as numpy's == broadcasts."""
        bound = max(_bound(self.bound, other.den), _bound(other.bound, self.den))
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return (r1 * other.den == r2 * self.den) & (i1 * other.den == i2 * self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactVector):
            return NotImplemented
        return self.shape == other.shape and bool(self.equal(other).all())

    def to_complex(self) -> np.ndarray:
        """complex128 values, each part rounded as float(Fraction) rounds."""
        out = np.empty(self.re.shape, dtype=np.complex128)
        out.real = self.re.astype(object) / self.den
        out.imag = self.im.astype(object) / self.den
        return out


def _positive_integer(q, what: str) -> int:
    """q as an int, refusing anything but an integer >= 1 (a float is refused
    even when whole: 12 * 0.1 would otherwise truncate to 1)."""
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {q!r}")
    return int(q)


def _magnitude(*arrays) -> int:
    """max |v| over integer arrays (0 when empty); exact at -2**63, where
    np.abs wraps."""
    return max((max(int(a.max()), -int(a.min())) for a in map(np.asarray, arrays)
                if a.size), default=0)


def _bound(*factors: int) -> int:
    """Bounds a product of values bounded by the factors, and each factor."""
    return math.prod(max(int(f), 1) for f in factors)


def _integers(bound: int, *arrays) -> list[np.ndarray]:
    """The integer arrays as int64 when bound < 2**63, else as object arrays
    of Python ints: one dtype per operation, chosen from its bound."""
    dtype = _INT64 if bound < _INT64_BOUND else _OBJECT
    out = [np.asarray(a) for a in arrays]
    if any(a.dtype.kind not in "iubO" for a in out):
        raise TypeError("exact vectors hold and scale by integers only")
    return [a if a.dtype == dtype else a.astype(dtype) for a in out]
