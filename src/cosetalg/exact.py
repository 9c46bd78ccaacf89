"""Exact rational arithmetic: Gaussian rationals and small linear solvers.

Results are plain Python lists of Fraction / ComplexFraction; they back the
identity-solving and the "exactly" claims that floating point cannot honor
(division by a non-power-of-two subgroup order rounds). The linear solvers
take integer systems as numpy arrays, so the library's large systems never
become one Fraction per entry (see rref).
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


@dataclass(frozen=True)
class ComplexFraction:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "ComplexFraction":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "ComplexFraction") -> "ComplexFraction":
        return ComplexFraction(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexFraction") -> "ComplexFraction":
        return ComplexFraction(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexFraction") -> "ComplexFraction":
        return ComplexFraction(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ComplexFraction":
        return ComplexFraction(-self.re, -self.im)

    def scale(self, c: Fraction) -> "ComplexFraction":
        c = Fraction(c)
        return ComplexFraction(self.re * c, self.im * c)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


CF_ZERO = ComplexFraction()


def rref(matrix: Matrix) -> tuple[FractionMat, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices), one
    output row per input row, the zero rows last.

    `matrix` is a list of rows of Fractions or ints, or of integer array
    rows, or a 2-D integer array. Rows are first scaled to integers (which
    leaves the RREF unchanged). A row basis is picked by elimination mod
    _PRIME; rows independent mod a prime are independent over Q. A basis
    of ncols rows means the RREF is the identity. Otherwise only the basis
    rows are reduced over Fractions, and the result is certified by checking
    in exact integer arithmetic that every input row is the combination of
    the RREF rows given by its pivot entries. A failed certificate (an
    unlucky prime) falls back to reducing the whole matrix over Fractions.
    """
    if len(matrix) == 0:
        return [], []
    A = _integer_matrix(matrix)
    m, ncols = A.shape
    basis = _row_basis_mod_p(A)
    if len(basis) == ncols:
        rows = [[_ONE if j == i else _ZERO for j in range(ncols)] for i in range(ncols)]
        return rows + _zero_rows(m - ncols, ncols), list(range(ncols))
    rows, pivots = _rref_fractions(_fraction_rows(A[basis]))
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


def _row_basis_mod_p(A: np.ndarray) -> np.ndarray:
    """Indices of rows of A that are independent mod _PRIME and span its row
    space mod _PRIME, found by one vectorized elimination."""
    M = (A % _PRIME).astype(np.int64)   # residues < 2**31: products fit int64
    basis = []
    for col in range(M.shape[1]):
        nz = np.flatnonzero(M[:, col])
        if len(nz) == 0:
            continue
        p, others = nz[0], nz[1:]
        pivot = M[p, col:] * pow(int(M[p, col]), -1, _PRIME) % _PRIME
        M[others, col:] = (M[others, col:] - M[others, col][:, None] * pivot) % _PRIME
        M[p] = 0
        basis.append(p)
        if len(basis) == M.shape[1]:
            break
    return np.array(basis, dtype=np.int64)


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
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(v)
    return basis


def solve(matrix: Matrix, rhs: Sequence) -> Optional[FractionVec]:
    """One exact solution of Ax = b with free variables set to 0,
    or None when the system is inconsistent."""
    if len(matrix) == 0:
        return []
    ncols = len(matrix[0])
    m, pivots = rref(list(np.column_stack([np.asarray(matrix), np.asarray(rhs)])))
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def unit_vector(n: int, j: int) -> FractionVec:
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


# --- exact convolution-side helpers -------------------------------------
#
# These mirror the float operations in measures/quotient_ops/quotient_algebra
# over ComplexFraction weights, taking raw index tables as input.

def group_convolve_exact(mul, w1: Sequence[ComplexFraction],
                         w2: Sequence[ComplexFraction]) -> list[ComplexFraction]:
    n = len(w1)
    out = [CF_ZERO] * n
    for x in range(n):
        wx = w1[x]
        if wx.is_zero():
            continue
        row = mul[x]
        for y in range(n):
            wy = w2[y]
            if wy.is_zero():
                continue
            z = int(row[y])
            out[z] = out[z] + wx * wy
    return out


def pushforward_exact(coset_of, coset_count: int,
                      w: Sequence[ComplexFraction]) -> list[ComplexFraction]:
    out = [CF_ZERO] * coset_count
    for y, wy in enumerate(w):
        c = int(coset_of[y])
        out[c] = out[c] + wy
    return out


def lift_exact(coset_of, subgroup_order: int,
               s: Sequence[ComplexFraction]) -> list[ComplexFraction]:
    inv_h = Fraction(1, subgroup_order)
    return [s[int(coset_of[y])].scale(inv_h) for y in range(len(coset_of))]


def quotient_convolve_exact(entries, denominator: int,
                            s1: Sequence[ComplexFraction],
                            s2: Sequence[ComplexFraction]) -> list[ComplexFraction]:
    """entries: the count tensor's nonzero entries as arrays (a, b, z, count)
    in row-major order, so the entries of one (a, b) row are adjacent."""
    out = [CF_ZERO] * len(s1)
    row, w = None, None
    for a, b, z, cz in zip(*(x.tolist() for x in entries)):
        if (a, b) != row:
            row = (a, b)
            w = None if s1[a].is_zero() or s2[b].is_zero() else s1[a] * s2[b]
        if w is not None:
            out[z] = out[z] + w.scale(Fraction(cz, denominator))
    return out
