import tracemalloc

import numpy as np
import pytest

import cosetalg as ca


@pytest.fixture(scope="session")
def s3():
    return ca.builtin_catalog("symmetric", 3)


@pytest.fixture(scope="session")
def s3_h12(s3):
    return ca.subgroup_from_tokens(s3, ["(12)"])


@pytest.fixture(scope="session")
def s3_q(s3, s3_h12):
    return ca.build_coset_space(s3, s3_h12)


@pytest.fixture(scope="session")
def s3_a3(s3):
    return ca.subgroup_from_tokens(s3, ["(123)"])


@pytest.fixture(scope="session")
def d4():
    return ca.builtin_catalog("dihedral", 4)


@pytest.fixture(scope="session")
def q8():
    return ca.builtin_catalog("quaternion8")


def onehot_counts(Q, reps=None):
    """The dense count tensor from its definition, for any representative
    choice: the coset z of rep_a * h * rep_b over (a, h, b) as a one-hot
    (k, |H|, k, k) array, summed over H."""
    reps = Q.reps if reps is None else np.asarray(reps, dtype=np.int64)
    mul, k = Q.group.mul, Q.coset_count
    members = np.array(Q.subgroup.members, dtype=np.int64)
    left = mul[reps[:, None], members[None, :]]
    z = Q.coset_of[mul[left[:, :, None], reps[None, None, :]]]
    onehot = z[:, :, :, None] == np.arange(k)[None, None, None, :]
    return onehot.sum(axis=1, dtype=np.int64)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_weights(generator, size):
    return generator.random(size) + 1j * generator.random(size)


def traced_peak(fn):
    """The peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def checked_peak(monkeypatch, module, fn):
    """(sizes fn passes to module.require_bytes, fn's tracemalloc peak)."""
    checked = []
    check = module.require_bytes

    def record(nbytes, what):
        checked.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(module, "require_bytes", record)
    return checked, traced_peak(fn)
