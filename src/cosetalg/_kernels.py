"""The weight kernels: group and quotient convolution, lift and pushforward.

Each is written in gathers, sums over an axis or its segments, divisions and
one matrix product, which ExactVector implements too, so each runs on
complex128 arrays and exact vectors through one entry point, which sizes its
one byte check by their arithmetic. Operands may carry leading batch axes,
with the carrier on the last axis: a call on a batch gives, row by row, the
calls on its vectors. The group convolution runs in row blocks of x and the
quotient convolution in column blocks of z, each about BLOCK_BYTES of
temporaries, so no call holds its n x n or k x k expansion. A float group
block carries the running sum into its first row, so its bits do not depend
on the block size; each quotient output entry is one matrix product over all
k rows, and blocks of a whole multiple of 64 columns keep the bits of one
product over every column (the tests compare them on one BLAS thread). The
gathers use take: numpy's fancy indexing after an ellipsis, w[..., idx], is
about twice as slow on one vector.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import require_bytes

# Kept as a constant: benchmark results are stamped with it.
BACKEND = "numpy"

# temporaries per block of a group convolution's rows x or of a quotient
# convolution's columns z; the verifier sizes its blocks of trials against it
# too, and at this size each check of the default catalog runs its 100
# trials in one block
BLOCK_BYTES = 1 << 20

# bytes per gathered entry (x, z) and vector of a group convolution: float,
# the intp index rows and the complex gather multiplied in place (24 from
# order 120 up, up to 35 below); exact on int64, 48 to 52 measured
GROUP_RATE, GROUP_EXACT_RATE = 40, 56

# bytes per gathered entry (a, z) and vector of a quotient convolution: float,
# the complex gather and its intp index copy (16 to 17 from 240 cosets up, 21
# to 28 at 30 to 120); exact on int64, 17 to 33 measured
QUOTIENT_RATE, QUOTIENT_EXACT_RATE = 32, 40


def _batch_shape(*operands) -> tuple[int, ...]:
    """The leading axes the operands broadcast to, () for single vectors (an
    axis of length 0 counts as 1). Plain tuples: np.broadcast_shapes
    allocates ~6 KB a call."""
    shapes = [w.shape[:-1] for w in operands]
    ndim = max(map(len, shapes))
    return tuple(map(max, zip(*((1,) * (ndim - len(s)) + s for s in shapes))))


def _row_blocks(n: int, entry_bytes: int, vectors: int) -> tuple[int, int]:
    """(rows x per block, bytes held) of a group convolution of order n at
    entry_bytes per entry (x, z) and vector: about BLOCK_BYTES a block (sized
    for one vector when the batch is empty), at least one row and at most n;
    past one block the running sums count as one row more."""
    row = entry_bytes * n
    rows = max(1, min(n, BLOCK_BYTES // (row * max(vectors, 1))))
    return rows, row * vectors * (rows + (rows < n))


def _column_blocks(k: int, column_bytes: int, vectors: int) -> int:
    """Columns z per block of a quotient convolution with k cosets at
    column_bytes per column and vector: a whole multiple of 64 of about
    BLOCK_BYTES (sized for one vector when the batch is empty), at least 64,
    and all k when they fit."""
    columns = BLOCK_BYTES // (column_bytes * max(vectors, 1)) // 64 * 64
    return min(k, max(64, columns))


def _wide_digits(v1, v2, terms: int) -> int:
    """0 while sums of `terms` products of the exact vectors v1's and v2's
    entries fit int64, else the 30-bit digits of their bound."""
    bound = 2 * max(v1.bound, 1) * max(v2.bound, 1) * terms
    return math.ceil(bound.bit_length() / 30) if bound >= 2 ** 63 else 0


def group_convolve_weights(mul: np.ndarray, inv: np.ndarray, w1, w2):
    """out[z] = sum_x w1[x] * w2[x^-1 z], each column summed in x order
    whatever the block size; the columns z and zh of a right-H-invariant w2
    agree bit for bit. A float block carries the running sum into its first
    row, so every column is still summed in x order; exact blocks add their
    sums."""
    n, batch = mul.shape[0], _batch_shape(w1, w2)
    if isinstance(w1, np.ndarray):
        rows, nbytes = _row_blocks(n, GROUP_RATE, math.prod(batch))
        require_bytes(nbytes, f"group convolution of order {n}")
    else:
        # exact: on Python ints, 140 to 170 bytes per pair measured and the
        # four products' digits at 4 bytes each (S4, A5, S5; bound < 2**2070)
        digits = _wide_digits(w1, w2, n)
        rows, nbytes = _row_blocks(n, 200 + 16 * digits if digits else GROUP_EXACT_RATE,
                                   math.prod(batch))
        require_bytes(nbytes + (1 << 13), f"exact group convolution of order {n}")
        if digits:   # the gathers then share the operands' ints, not widen each
            w1, w2 = w1.widened(), w2.widened()
    out = None
    for start in range(0, n, rows):
        stop = start + rows
        # one block indexes by inv itself: a slice would cost a numpy call
        terms = w2.take(mul[inv if rows == n else inv[start:stop]], axis=-1)
        # in place when w2 carries the whole batch
        terms = np.multiply(w1[..., start:stop, None], terms,
                            out=terms if terms.shape[:-2] == batch else None)
        if out is None:
            out = terms.sum(axis=-2)
        elif isinstance(terms, np.ndarray):
            terms[..., 0, :] += out
            out = terms.sum(axis=-2)
        else:
            out = out + terms.sum(axis=-2)
        del terms   # before the next block's gather
    return out


def quotient_convolve_weights(rel: np.ndarray, segments: tuple, s1, s2):
    """out[z] = sum_a s1[a] * means[rel[a, z]], means[i] the mean of s2 over
    suborbit i: a point mass at coset a acts as the left translate by rep_a of
    those means. The suborbits are the segments (order, starts, sizes, rank)
    of StructureTable.segments, each summed once, its members in ascending
    order, and divided by its size. Runs in blocks of columns z
    (_column_blocks), each entry one matrix product over all k rows a; exact
    blocks are joined by ExactVector's concatenate. Raises ValueError unless
    rel is one (k, k) table for their k cosets."""
    order, starts, sizes, _ = segments
    k = len(order)
    if rel.shape != (k, k):
        raise ValueError(f"rel must be one ({k}, {k}) table, not {rel.shape}")
    vectors = math.prod(_batch_shape(s1, s2))
    if isinstance(s1, np.ndarray):
        # per column and vector the gather, and per vector the means' few
        # gathers of k entries and the blocks' outputs
        columns = _column_blocks(k, QUOTIENT_RATE * k, vectors)
        require_bytes((QUOTIENT_RATE * k * columns + 64 * k) * vectors,
                      f"quotient convolution with {k} cosets")
    else:
        # exact: per entry of k·columns + 4k and per vector past ~4 KB, 17 to
        # 33 bytes on int64 or Python ints, 87 to 114 when int64 operands
        # widen, and ~6k wide ints at 4 bytes per 30-bit digit of bound; each
        # mean's numerator is at most lcm(sizes) times s2's
        digits = _wide_digits(s1, s2, math.lcm(*set(sizes.tolist())) * k)
        rate = 120 if digits else QUOTIENT_EXACT_RATE
        columns = _column_blocks(k, rate * k, vectors)
        require_bytes((rate * (k * columns + 4 * k) + 24 * k * digits) * vectors + (1 << 13),
                      f"exact quotient convolution with {k} cosets")
    means = np.add.reduceat(s2.take(order, axis=-1), starts, axis=-1) / sizes
    s1 = s1[..., None, :]
    if columns == k:
        return (s1 @ means.take(rel, axis=-1))[..., 0, :]
    # a block's gather is freed once its product is taken
    return np.concatenate([(s1 @ means.take(rel[:, z:z + columns], axis=-1))[..., 0, :]
                           for z in range(0, k, columns)], axis=-1)


def lift_weights(coset_of: np.ndarray, h: int, s):
    """Group weights over coset weights s: each member of coset c has s[c] / h."""
    return s.take(coset_of, axis=-1) / h


def push_weights(member_table: np.ndarray, w):
    """Coset weights of group weights w: each coset's members summed in order."""
    return w.take(member_table, axis=-1).sum(axis=-2)
