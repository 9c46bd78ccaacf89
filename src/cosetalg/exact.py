"""Exact rational arithmetic: Gaussian-rational vectors, row reduction and null spaces.

They back the "exactly" claims that floating point cannot honor (division by
a non-power-of-two subgroup order rounds). An ExactVector holds integer
numerator arrays over one denominator and implements what the kernels in
_kernels are written in, so the exact lift, pushforward, group and quotient
convolution are those kernels run on exact vectors; the numerators are int64
while an overflow bound holds and Python ints beyond it. rref and nullspace
return lists of Fractions and take integer systems as numpy arrays, so the
library's large systems never become one Fraction per entry (see rref).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

FractionVec = list[Fraction]
FractionMat = list[list[Fraction]]
# A list of rows (Fractions, ints or integer array rows) or a 2-D integer
# array. The package itself passes lists of rows to rref: perfbench's traced
# run sizes rref's argument as len(m) * len(m[0]) after testing `if m`.
Matrix = Union[Sequence[Sequence], np.ndarray]

# Row-basis prime (2**31 - 1): residues below 2**31 keep products in int64.
_PRIME = 2_147_483_647
_ZERO, _ONE = Fraction(0), Fraction(1)
_INT64_BOUND = 2 ** 63
_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)


@dataclass(frozen=True, eq=False)
class ExactVector:
    """An array of Gaussian rationals (re + i·im) / den: integer numerator
    arrays of one shape (at least 1-D) over one positive integer denominator.

    `bound` bounds every |numerator|: measured when not given, else derived
    by the operation that made the vector from its operands' bounds. The
    arrays are int64 when bound < 2**63 and object (Python ints) otherwise,
    so no operation wraps. == compares values, not representations.
    """

    re: np.ndarray
    im: np.ndarray
    den: int = 1
    bound: Optional[int] = None

    def __post_init__(self):
        re, im = np.asarray(self.re), np.asarray(self.im)
        if self.den < 1 or re.shape != im.shape or re.ndim < 1:
            raise ValueError("need two numerator arrays of one shape (1-D or more), den >= 1")
        bound = self.bound if self.bound is not None else _magnitude(re, im)
        re, im = _integers(bound, re, im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", int(self.den))
        object.__setattr__(self, "bound", bound)

    @classmethod
    def from_fractions(cls, re: Sequence, im: Optional[Sequence] = None) -> "ExactVector":
        """The vector re + i·im from rationals (anything Fraction accepts)."""
        im = [0] * len(re) if im is None else im
        parts = [[Fraction(v) for v in part] for part in (re, im)]
        den = math.lcm(*(v.denominator for part in parts for v in part))
        return cls(*(np.array([int(v * den) for v in part], dtype=object) for part in parts), den)

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, index) -> "ExactVector":
        return ExactVector(self.re[index], self.im[index], self.den, self.bound)

    def __mul__(self, other) -> "ExactVector":
        """Entrywise product with an ExactVector, or with integers."""
        if not isinstance(other, ExactVector):
            bound = _bound(self.bound, _magnitude(other))
            re, im, scale = _integers(bound, self.re, self.im, other)
            return ExactVector(re * scale, im * scale, self.den, bound)
        bound = _bound(2, self.bound, other.bound)
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return ExactVector(r1 * r2 - i1 * i2, r1 * i2 + i1 * r2,
                           self.den * other.den, bound)

    def __truediv__(self, q: int) -> "ExactVector":
        """Division by a positive integer: the denominator grows by q."""
        return ExactVector(self.re, self.im, self.den * q, self.bound)

    def abs_squared(self) -> "ExactVector":
        """|v_i|^2 entrywise, with zero imaginary part."""
        return self * ExactVector(self.re, -self.im, self.den, self.bound)

    def sum(self, axis: int) -> "ExactVector":
        """The sum over one axis."""
        bound = _bound(self.bound, self.re.shape[axis])
        re, im = _integers(bound, self.re, self.im)
        return ExactVector(re.sum(axis=axis), im.sum(axis=axis), self.den, bound)

    def __matmul__(self, other: "ExactVector") -> "ExactVector":
        """The matrix product, as numpy's @ on the numerator arrays."""
        bound = _bound(2, self.bound, other.bound, self.re.shape[-1])
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return ExactVector(r1 @ r2 - i1 @ i2, r1 @ i2 + i1 @ r2,
                           self.den * other.den, bound)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """np.multiply(a, b, out=...) as a * b, a new vector: `out`, which the
        kernels pass for float arrays, is not written."""
        if ufunc is np.multiply and method == "__call__" and \
                all(isinstance(x, ExactVector) for x in inputs):
            return inputs[0] * inputs[1]
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactVector):
            return NotImplemented
        bound = max(_bound(self.bound, other.den), _bound(other.bound, self.den))
        r1, i1, r2, i2 = _integers(bound, self.re, self.im, other.re, other.im)
        return (r1.shape == r2.shape and np.array_equal(r1 * other.den, r2 * self.den)
                and np.array_equal(i1 * other.den, i2 * self.den))

    def to_complex(self) -> np.ndarray:
        """complex128 values, each part rounded as float(Fraction) rounds."""
        out = np.empty(self.re.shape, dtype=np.complex128)
        out.real = self.re.astype(object) / self.den
        out.imag = self.im.astype(object) / self.den
        return out


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


def solve_bytes(rows: int, cols: int) -> int:
    """Bytes an exact solve of a rows x cols integer system holds at once: per
    entry the system, rref's integer copy, its residues mod p, the two
    temporaries of an elimination step and a result reference; per row a row
    view, a result list and the Fractions lifted or solved for it (measured:
    up to 620 bytes per row on small systems with a one-dimensional kernel)."""
    return rows * (cols * 6 * 8 + 768)


def rref(matrix: Matrix) -> tuple[FractionMat, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices), one
    output row per input row, the zero rows last.

    `matrix` is a list of rows of Fractions or ints, or of integer array
    rows, or a 2-D integer array. Rows are first scaled to integers (which
    leaves the RREF unchanged). One Gauss-Jordan elimination mod _PRIME gives
    the RREF mod p. Its rank cannot exceed the rank over Q, so ncols pivots
    mean the RREF is the identity. Otherwise the nonzero rows, 0 and 1 on the
    pivot columns, are lifted to rationals on the free columns by rational
    reconstruction and certified by checking, in exact integer arithmetic,
    that every input row is the combination of the lifted rows given by its
    pivot entries: then they span the row space, which has no more than their
    rank, and being in echelon form they are its RREF. An entry with no
    reconstruction or a failed certificate (an unlucky prime) falls back to
    reducing the whole matrix over Fractions.
    """
    if len(matrix) == 0:
        return [], []
    A = _integer_matrix(matrix)
    m, ncols = A.shape
    residues, pivots = _rref_mod_p(A)
    rows = [[_ONE if j == p else _ZERO for j in range(ncols)] for p in pivots]
    if len(pivots) < ncols:
        free = np.flatnonzero(~np.isin(np.arange(ncols), pivots))
        lifted = _reconstruct(residues[:, free])
        if lifted is None:
            return _rref_fractions(_fraction_rows(A))
        free = free.tolist()
        for row, values in zip(rows, lifted):
            for j, v in zip(free, values):
                row[j] = v
        if not _spans_rows(A, rows, pivots):
            return _rref_fractions(_fraction_rows(A))
    return rows + _zero_rows(m - len(rows), ncols), pivots


def _rref_fractions(matrix: FractionMat) -> tuple[FractionMat, list[int]]:
    """Gauss-Jordan elimination over Fractions; the reference for rref."""
    m = [row[:] for row in matrix]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][col]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [vi - f * vj for vi, vj in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _integer_matrix(matrix: Matrix) -> np.ndarray:
    """The rows as a 2-D integer array (int64, or object for entries beyond
    int64), each scaled by the lcm of its denominators."""
    A = np.asarray(matrix)
    if A.dtype != object:
        if A.size and not np.can_cast(A.dtype, np.int64):
            raise TypeError(f"exact systems need integer or Fraction entries, got {A.dtype}")
        return A.astype(np.int64, copy=False)
    out = np.empty(A.shape, dtype=object)
    for i, row in enumerate(A):
        scale = math.lcm(*(Fraction(v).denominator for v in row))
        out[i] = [int(Fraction(v) * scale) for v in row]
    return out


def _rref_mod_p(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination of A mod _PRIME: (the nonzero rows of its
    RREF mod p, as residues in [0, p), and their pivot columns)."""
    M = (A % _PRIME).astype(np.int64, copy=False)   # residues < 2**31: products fit int64
    pivots: list[int] = []
    for col in range(M.shape[1]):
        r = len(pivots)
        if r == M.shape[0]:
            break
        nz = np.flatnonzero(M[r:, col])
        if len(nz) == 0:
            continue
        if nz[0]:
            M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        M[r, col:] = M[r, col:] * pow(int(M[r, col]), -1, _PRIME) % _PRIME
        others = np.flatnonzero(M[:, col])
        others = others[others != r]
        block = M[others, col:]
        block -= np.outer(block[:, 0], M[r, col:])
        M[others, col:] = block % _PRIME
        pivots.append(col)
    return M[:len(pivots)].copy(), pivots


def _reconstruct(residues: np.ndarray) -> Optional[FractionMat]:
    """The residues mod _PRIME as rationals a/b with |a|, b <= sqrt(p/2), the
    unique such fractions where they exist (Wang, Guy & Davenport, SIGSAM
    Bull. 16, 1982): the extended Euclidean algorithm on (p, u), run on every
    entry at once and stopped per entry at the first remainder <= the bound.
    None when some entry has no such fraction."""
    bound = math.isqrt((_PRIME - 1) // 2)
    r0, r1 = np.full(residues.shape, _PRIME, dtype=np.int64), residues
    s0, s1 = np.zeros_like(r1), np.ones_like(r1)
    while (go := r1 > bound).any():
        q = np.where(go, r0 // np.maximum(r1, 1), 0)
        r0, r1 = np.where(go, r1, r0), np.where(go, r0 - q * r1, r1)
        s0, s1 = np.where(go, s1, s0), np.where(go, s0 - q * s1, s1)
    num, den = np.where(s1 < 0, -r1, r1), np.abs(s1)
    if ((den == 0) | (den > bound)).any():
        return None
    return [[_ZERO if a == 0 else Fraction(a, b) for a, b in zip(nums, dens)]
            for nums, dens in zip(num.tolist(), den.tolist())]


def _spans_rows(A: np.ndarray, rows: FractionMat, pivots: list[int]) -> bool:
    """True iff every row a of A equals a[pivots] @ rows, checked on the free
    columns in integers after scaling rows by the lcm of their denominators."""
    pivot_set = set(pivots)
    free = [j for j in range(A.shape[1]) if j not in pivot_set]
    den = math.lcm(*(v.denominator for row in rows for v in row))
    R = np.array([[int(row[j] * den) for j in free] for row in rows],
                 dtype=object).reshape(len(rows), len(free))
    a_max = int(np.abs(A).max())
    r_max = max(den, int(np.abs(R).max(initial=0)))
    if len(pivots) * a_max * r_max < 2 ** 63:
        A, R = A.astype(np.int64, copy=False), R.astype(np.int64)
    else:
        A = A.astype(object)
    return bool(np.array_equal(A[:, pivots] @ R, A[:, free] * den))


def _fraction_rows(A: np.ndarray) -> FractionMat:
    return [[Fraction(int(v)) for v in row] for row in A]


def _zero_rows(count: int, ncols: int) -> FractionMat:
    return [[_ZERO] * ncols for _ in range(count)]


def nullspace(matrix: Matrix, ncols: Optional[int] = None) -> list[FractionVec]:
    """Canonical basis of {x : Ax = 0}: one vector per free column,
    with 1 in the free slot and pivot entries solved from the RREF."""
    if len(matrix) == 0:
        return [unit_vector(ncols, j) for j in range(ncols or 0)]
    ncols = len(matrix[0])
    m, pivots = rref(list(matrix))
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = unit_vector(ncols, j)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(v)
    return basis


def unit_vector(n: int, j: int) -> FractionVec:
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v
