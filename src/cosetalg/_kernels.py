"""Hot numeric kernels: group convolution and quotient convolution.

One vectorized numpy implementation of each.
"""

from __future__ import annotations

import numpy as np

from .groups import require_bytes

# Kept as a constant: benchmark results are stamped with it.
BACKEND = "numpy"


def group_convolve_weights(mul: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Weights of the convolution of two weight vectors on a group:
    out[m[x, y]] += w1[x] * w2[y]."""
    n = mul.shape[0]
    # the complex outer product and bincount's float copies: 32 to 35 bytes
    require_bytes(40 * n * n, f"group convolution of order {n}")
    prod = np.outer(w1, w2).ravel()
    flat = mul.ravel()
    out = np.bincount(flat, weights=prod.real, minlength=n).astype(np.complex128)
    out += 1j * np.bincount(flat, weights=prod.imag, minlength=n)
    return out


def quotient_convolve_weights(shift: np.ndarray, h_action: np.ndarray,
                              s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """out[z] = sum_a s1[a] * v[shift[a, z]], where v = (1/|H|) sum_i
    s2[h_action[i]] is the left H-average of s2: a point mass at coset a
    acts as the left translate by rep_a of that average."""
    k = shift.shape[0]
    # the complex gathers and their intp index copies: 16 to 17 bytes per
    # k^2 entry from 240 cosets up, 21 to 28 at 30 to 120 cosets
    require_bytes(32 * k * k + 24 * h_action.size, f"quotient convolution with {k} cosets")
    v = s2[h_action].sum(axis=0) / h_action.shape[0]
    return s1 @ v[shift]
