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
                     coset_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nonzero entries of counts[a, b, z] = #{h in H : rep_a * h * rep_b
    in coset z}, as int64 arrays (a, b, z, count) in row-major (a, b, z)
    order. Builds one (k, |H|, k) scratch array of keys."""
    k = reps.shape[0]
    # z[a, i, b] = coset of rep_a * h_i * rep_b
    left = mul[reps[:, None], members[None, :]]               # (k, |H|)
    z = coset_of[mul[left[:, :, None], reps[None, None, :]]]  # (k, |H|, k)
    ab = np.arange(k)[:, None, None] * k + np.arange(k)[None, None, :]
    keys, count = np.unique((ab * k + z).ravel(), return_counts=True)
    ab, z = np.divmod(keys, k)
    a, b = np.divmod(ab, k)
    return a, b, z, count.astype(np.int64, copy=False)


def quotient_convolve_weights(a: np.ndarray, b: np.ndarray, slots: np.ndarray,
                              c: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """out[z] = sum_i s1[a_i] * s2[b_i] * c_i over the tensor's nonzero
    entries i = (a_i, b_i, z_i). slots holds (2 z_i, 2 z_i + 1) per entry, the
    real and imaginary places of z_i in a float view of out, so one bincount
    sums both parts."""
    prod = s1[a] * s2[b] * c        # complex128, as measure weights are
    return np.bincount(slots, weights=prod.view(np.float64),
                       minlength=2 * len(s1)).view(np.complex128)
