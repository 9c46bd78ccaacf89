"""The weight kernels: group and quotient convolution, lift and pushforward.

Each is written in gathers, sums over an axis and one matrix product, which
ExactVector implements too, so each runs on complex128 arrays and exact vectors.
"""

from __future__ import annotations

import numpy as np

from .groups import require_bytes

# Kept as a constant: benchmark results are stamped with it.
BACKEND = "numpy"


def group_convolve_weights(mul: np.ndarray, inv: np.ndarray, w1, w2):
    """out[z] = sum_x w1[x] * w2[x^-1 z], each column summed in x order; the
    columns z and zh of a right-H-invariant w2 agree bit for bit."""
    n = mul.shape[0]
    # the intp index rows and the complex gather, multiplied in place: 24
    # bytes per entry from order 120 up, up to 35 below
    require_bytes(40 * n * n, f"group convolution of order {n}")
    terms = w2[mul[inv]]
    terms = np.multiply(w1[:, None], terms, out=terms)
    return terms.sum(axis=0)


def quotient_convolve_weights(shift: np.ndarray, h_action: np.ndarray, s1, s2):
    """out[z] = sum_a s1[a] * v[shift[a, z]], where v = (1/|H|) sum_i
    s2[h_action[i]] is the left H-average of s2: a point mass at coset a
    acts as the left translate by rep_a of that average."""
    k = shift.shape[0]
    # the complex gathers and their intp index copies: 16 to 17 bytes per
    # k^2 entry from 240 cosets up, 21 to 28 at 30 to 120 cosets
    require_bytes(32 * k * k + 24 * h_action.size, f"quotient convolution with {k} cosets")
    v = s2[h_action].sum(axis=0) / h_action.shape[0]
    return s1 @ v[shift]


def lift_weights(coset_of: np.ndarray, h: int, s):
    """Group weights over coset weights s: each member of coset c has s[c] / h."""
    return s[coset_of] / h


def push_weights(member_table: np.ndarray, w):
    """Coset weights of group weights w: each coset's members summed in order."""
    return w[member_table].sum(axis=0)
