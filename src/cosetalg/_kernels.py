"""Hot numeric kernels: group convolution, structure counts, quotient convolution.

One vectorized numpy implementation of each.
"""

from __future__ import annotations

import numpy as np

# Kept as a constant: benchmark results are stamped with it.
BACKEND = "numpy"


def group_convolve_weights(mul: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Weights of the convolution of two weight vectors on a group:
    out[m[x, y]] += w1[x] * w2[y]."""
    n = mul.shape[0]
    prod = np.outer(w1, w2).ravel()
    flat = mul.ravel()
    out = np.bincount(flat, weights=prod.real, minlength=n).astype(np.complex128)
    out += 1j * np.bincount(flat, weights=prod.imag, minlength=n)
    return out


def structure_counts(mul: np.ndarray, reps: np.ndarray, members: np.ndarray,
                     coset_of: np.ndarray) -> np.ndarray:
    """Integer tensor counts[a, b, z] = #{h in H : rep_a * h * rep_b in coset z}."""
    k = reps.shape[0]
    # z[a, i, b] = coset of rep_a * h_i * rep_b
    left = mul[reps[:, None], members[None, :]]               # (k, |H|)
    z = coset_of[mul[left[:, :, None], reps[None, None, :]]]  # (k, |H|, k)
    onehot = z[:, :, :, None] == np.arange(k)[None, None, None, :]
    return onehot.sum(axis=1, dtype=np.int64)


def quotient_convolve_weights(c: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """out[z] = sum_{a,b} s1[a] * s2[b] * c[a, b, z]."""
    return np.einsum("abz,a,b->z", c, s1, s2)
