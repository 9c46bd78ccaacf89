"""The weight kernels: group and quotient convolution, lift and pushforward.

Each is written in gathers, sums over an axis or its segments, divisions and
one matrix product, which ExactVector implements too, so each runs on
complex128 arrays and exact vectors. Operands may carry leading batch axes,
with the carrier on the last axis: a call on a batch gives, row by row, the
calls on its vectors. The group convolution runs in row blocks of x, about
BLOCK_BYTES of temporaries each, so no call holds its n x n expansion, and its
bits do not depend on the block size. The gathers use take: numpy's fancy
indexing after an ellipsis, w[..., idx], is about twice as slow on one vector.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import require_bytes

# Kept as a constant: benchmark results are stamped with it.
BACKEND = "numpy"

# temporaries per block of a group convolution's rows x
BLOCK_BYTES = 1 << 20


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


def group_convolve_weights(mul: np.ndarray, inv: np.ndarray, w1, w2):
    """out[z] = sum_x w1[x] * w2[x^-1 z], each column summed in x order
    whatever the block size; the columns z and zh of a right-H-invariant w2
    agree bit for bit."""
    n, batch = mul.shape[0], _batch_shape(w1, w2)
    # per block of rows x, the intp index rows and the complex gather,
    # multiplied in place: 24 bytes per entry from order 120 up, up to 35
    # below, per vector
    rows, nbytes = _row_blocks(n, 40, math.prod(batch))
    require_bytes(nbytes, f"group convolution of order {n}")
    return _convolve_rows(mul, inv, w1, w2, batch, rows)


def _convolve_rows(mul: np.ndarray, inv: np.ndarray, w1, w2, batch: tuple, rows: int):
    """group_convolve_weights, unchecked, of operands whose batch axes
    _batch_shape gives, in blocks of `rows` rows x. A float block carries the
    running sum into its first row, so every column is still summed in x
    order; exact blocks add their sums."""
    out = None
    for start in range(0, mul.shape[0], rows):
        stop = start + rows
        # one block indexes by inv itself: a slice would cost a numpy call
        terms = w2.take(mul[inv if rows == len(inv) else inv[start:stop]], axis=-1)
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


def quotient_convolve_weights(shift: np.ndarray, segments: tuple, s1, s2):
    """out[z] = sum_a s1[a] * v[shift[a, z]], where v[c] is the mean of s2
    over the suborbit of coset c: a point mass at coset a acts as the left
    translate by rep_a of that mean. The suborbits are the segments (order,
    starts, sizes, rank) of StructureTable.segments; each is summed once,
    its members in ascending order, and divided by its size. Raises
    ValueError unless shift is one (k, k) table for their k cosets."""
    order, starts, sizes, rank = segments
    k = len(order)
    if shift.shape != (k, k):
        raise ValueError(f"shift must be one ({k}, {k}) table, not {shift.shape}")
    # the complex gathers and their intp index copies: 16 to 17 bytes per
    # k^2 entry from 240 cosets up, 21 to 28 at 30 to 120 cosets, and the
    # means' few gathers of k entries, per vector
    require_bytes((32 * k * k + 64 * k) * math.prod(_batch_shape(s1, s2)),
                  f"quotient convolution with {k} cosets")
    means = np.add.reduceat(s2.take(order, axis=-1), starts, axis=-1) / sizes
    return (s1[..., None, :] @ means.take(rank, axis=-1).take(shift, axis=-1))[..., 0, :]


def lift_weights(coset_of: np.ndarray, h: int, s):
    """Group weights over coset weights s: each member of coset c has s[c] / h."""
    return s.take(coset_of, axis=-1) / h


def push_weights(member_table: np.ndarray, w):
    """Coset weights of group weights w: each coset's members summed in order."""
    return w.take(member_table, axis=-1).sum(axis=-2)
