"""Kernel oracles: each kernel and the factored structure table against
their slow definitions, on normal (Q8/<i>) and non-normal (S3/<(12)>,
D4/<(24)>, S4/S3) pairs. Counts are integers, so those must be equal."""

import json
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cosetalg as ca
from cosetalg import _kernels, cli, verifier
from cosetalg.errors import CapExceeded
from cosetalg.exact import ExactVector

from conftest import (checked_peak, cycled_quotient_convolve, cycled_suborbits, onehot_counts,
                      oracle_factors, random_weights, rng, spy_every_byte_check, traced_peak)

PAIRS = [("S3", ["(12)"]), ("D4", ["(24)"]), ("Q8", ["i"]), ("S4", ["(12)", "(123)"])]

# The factored table against the one-hot dense tensor, on normal and
# non-normal pairs up to k = 120; D60/<s> takes the reflection i -> -i,
# which fixes points 1, 31.
DIFFERENTIAL_PAIRS = [
    ("S3", ["(12)"]), ("S4", ["(12)", "(123)"]), ("Q8", ["i"]),
    ("D60", ["".join(f"({p},{62 - p})" for p in range(2, 31))]), ("S5", []),
]


def _setup(token, gens):
    G = ca.builtin_from_token(token)
    H = ca.subgroup_from_tokens(G, gens)
    Q = ca.build_coset_space(G, H)
    return G, Q


def test_backend_is_numpy():
    assert ca.BACKEND == "numpy"


def test_group_convolve_kernel_oracle(s3):
    rng = np.random.Generator(np.random.PCG64(22))
    w1 = rng.random(6) + 1j * rng.random(6)
    w2 = rng.random(6) + 1j * rng.random(6)
    out = {}
    for x in range(6):
        for y in range(6):
            z = s3.op(x, y)
            out[z] = out.get(z, 0j) + w1[x] * w2[y]
    want = np.array([out.get(z, 0j) for z in range(6)])
    got = _kernels.group_convolve_weights(s3.mul, s3.inv, w1, w2)
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("token,gens", PAIRS)
def test_structure_counts_kernel_oracle(capsys, token, gens):
    G, Q = _setup(token, gens)
    members = np.array(Q.subgroup.members, dtype=np.int64)
    k = Q.coset_count
    want = np.zeros((k, k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            for h in members:
                z = Q.coset_of[G.op(G.op(int(Q.reps[a]), int(h)), int(Q.reps[b]))]
                want[a, b, z] += 1
    T = ca.structure_table(Q)
    assert np.array_equal(T.counts, want)
    # and the rows that `table` writes
    assert cli.main(["table", "--group", f"builtin:{token}", "--subgroup", ",".join(gens),
                     "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["c"]
    assert all([Fraction(v) for v in rows[a][b]]
               == [Fraction(int(v), len(members)) for v in want[a, b]]
               for a in range(k) for b in range(k))


@pytest.mark.parametrize("token,gens", PAIRS)
def test_quotient_convolve_kernel_oracle(token, gens):
    # the group route: push(lift(s1) * lift(s2))
    G, Q = _setup(token, gens)
    rng = np.random.Generator(np.random.PCG64(21))
    s1 = rng.random(Q.coset_count) + 1j * rng.random(Q.coset_count)
    s2 = rng.random(Q.coset_count) + 1j * rng.random(Q.coset_count)
    T = ca.structure_table(Q)
    got = _kernels.quotient_convolve_weights(T.rel, T.segments, s1, s2)
    qc = ca.quotient_carrier(Q)
    lifted = [ca.lift_to_invariant(Q, ca.ComplexMeasure(qc, s)) for s in (s1, s2)]
    want = ca.pushforward_rh(Q, ca.group_convolve(G, *lifted)).weights
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("token,gens", DIFFERENTIAL_PAIRS,
                         ids=["S3/<(12)>", "S4/S3", "Q8/<i>", "D60/<s>", "S5/{e}"])
def test_sparse_tensor_matches_dense(token, gens):
    G, Q = _setup(token, gens)
    dense = onehot_counts(Q)
    T = ca.structure_table(Q)
    assert np.array_equal(T.counts, dense)
    assert np.array_equal(T.c, dense / Q.subgroup.order)
    assert not (T.counts.flags.writeable or T.c.flags.writeable)
    qc = ca.quotient_carrier(Q)
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(3):
        # unit total variation, so 1e-13 bounds the error relative to ||s1||·||s2||
        s1, s2 = (w / np.abs(w).sum() for w in
                  (rng.random((2, Q.coset_count)) + 1j * rng.random((2, Q.coset_count))))
        m1, m2 = ca.ComplexMeasure(qc, s1), ca.ComplexMeasure(qc, s2)
        got = ca.quotient_convolve(T, m1, m2).weights
        oracle = np.einsum("abz,a,b->z", dense / Q.subgroup.order, s1, s2)
        route = ca.pushforward_rh(Q, ca.group_convolve(
            G, ca.lift_to_invariant(Q, m1), ca.lift_to_invariant(Q, m2))).weights
        assert np.max(np.abs(got - oracle)) < 1e-13
        assert np.max(np.abs(got - route)) < 1e-13


def test_group_convolve_byte_check(monkeypatch):
    # order 120: the check covers the peak and refuses a budget one byte short
    G = ca.builtin_from_token("S5")
    w = random_weights(rng(24), G.order)
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: _kernels.group_convolve_weights(G.mul, G.inv, w, w))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)
    with pytest.raises(CapExceeded, match="group convolution of order 120"):
        _kernels.group_convolve_weights(G.mul, G.inv, w, w)


# --- the float group and push kernels against their bincount forms -----------
#
# Test-local copies of the group convolution and the pushforward as they were
# first written, one np.bincount per part; the kernels must reproduce them bit
# for bit, so the reports stay byte-identical.

def _group_convolve_bincount(mul, w1, w2):
    n = mul.shape[0]
    prod = np.outer(w1, w2).ravel()
    flat = mul.ravel()
    out = np.bincount(flat, weights=prod.real, minlength=n).astype(np.complex128)
    out += 1j * np.bincount(flat, weights=prod.imag, minlength=n)
    return out


def _push_bincount(coset_of, k, w):
    return np.bincount(coset_of, weights=w.real, minlength=k) \
        + 1j * np.bincount(coset_of, weights=w.imag, minlength=k)


CATALOG_AND_LADDER = [(entry.group.removeprefix("builtin:"), list(entry.subgroup))
                      for entry in ca.default_catalog()] + [
    ("D60", ["".join(f"({p},{62 - p})" for p in range(2, 31))]), ("S5", ["(12)", "(1234)"]),
    ("S5", []), ("A6", []), ("S6", ["(12)"]),
]


@pytest.mark.parametrize("token,gens", CATALOG_AND_LADDER,
                         ids=[e.name for e in ca.default_catalog()]
                         + ["D60/<s>", "S5/S4", "S5/{e}", "A6/{e}", "S6/<(12)>"])
def test_group_and_push_kernels_match_bincount_bit_for_bit(token, gens):
    G, Q = _setup(token, gens)
    n, k, h = G.order, Q.coset_count, Q.subgroup.order
    assert k >= 2
    g = rng(26)
    w1, w2 = random_weights(g, n), random_weights(g, n)
    lifted = _kernels.lift_weights(Q.coset_of, h, random_weights(g, k))
    for a, b in ((w1, w2), (w1, lifted)):
        got = _kernels.group_convolve_weights(G.mul, G.inv, a, b)
        assert got.tobytes() == _group_convolve_bincount(G.mul, a, b).tobytes()
    # nu * lift stays right-H-invariant bit for bit, as membership_mgh compares
    conv = ca.ComplexMeasure(ca.group_carrier(G), got)
    assert ca.membership_mgh(Q, conv)
    for w in (w1, lifted, got):
        want = _push_bincount(Q.coset_of, k, w)
        assert _kernels.push_weights(Q.member_table, w).tobytes() == want.tobytes()
    assert _kernels.push_weights(Q.member_table, lifted).tobytes() == \
        ca.pushforward_rh(Q, ca.ComplexMeasure(ca.group_carrier(G), lifted)).weights.tobytes()


# --- leading batch axes --------------------------------------------------------
#
# Test-local copies of the kernels as written for single vectors; a call on
# one vector must keep their bits, and a call on a batch must give its rows.

def _group_one_vector(mul, inv, w1, w2):
    terms = w2[mul[inv]]
    terms = np.multiply(w1[:, None], terms, out=terms)
    return terms.sum(axis=0)


def _quotient_one_vector(shift, labels, s1, s2):
    suborbits = cycled_suborbits(labels)
    v = s2[suborbits].sum(axis=0) / suborbits.shape[0]
    return s1 @ v[shift]


def _exact_weights(generator, shape):
    return ExactVector(*generator.integers(-50, 51, (2, *shape)), 12)


@pytest.mark.parametrize("token,gens", [("S5", ["(12)"]), ("S6", ["(12)"])],
                         ids=["k=60", "k=360"])
def test_one_vector_calls_keep_their_bits(token, gens):
    G, Q = _setup(token, gens)
    T = ca.structure_table(Q)
    g = rng(81)
    s1, s2 = random_weights(g, Q.coset_count), random_weights(g, Q.coset_count)
    w1, w2 = random_weights(g, G.order), random_weights(g, G.order)
    h = Q.subgroup.order
    pairs = [
        (_kernels.quotient_convolve_weights(T.rel, T.segments, s1, s2),
         _quotient_one_vector(*oracle_factors(Q), s1, s2)),
        (_kernels.group_convolve_weights(G.mul, G.inv, w1, w2),
         _group_one_vector(G.mul, G.inv, w1, w2)),
        (_kernels.lift_weights(Q.coset_of, h, s1), s1[Q.coset_of] / h),
        (_kernels.push_weights(Q.member_table, w1), w1[Q.member_table].sum(axis=0)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("token,gens", [("S3", ["(12)"]), ("S4", ["(12)", "(123)"]),
                                        ("Q8", ["i"]), ("S5", ["(12)"])],
                         ids=["S3/<(12)>", "S4/S3", "Q8/<i>", "S5/<(12)>"])
def test_batched_kernels_match_their_rows(token, gens):
    # batches of shape (2, 3), and one vector against a batch on either side:
    # bit for bit but for the quotient kernel's matrix product, within
    # roundoff there; exactly on exact vectors
    G, Q = _setup(token, gens)
    T = ca.structure_table(Q)
    n, k, h = G.order, Q.coset_count, Q.subgroup.order
    g = rng(82)
    qs = [random_weights(g, (2, 3, k)) for _ in range(2)]
    gs = [random_weights(g, (2, 3, n)) for _ in range(2)]

    def quotient(a, b):
        return _kernels.quotient_convolve_weights(T.rel, T.segments, a, b)

    def group(a, b):
        return _kernels.group_convolve_weights(G.mul, G.inv, a, b)

    for kernel, (a, b), exact_rows in ((quotient, qs, False), (group, gs, True)):
        for x, y in ((a, b), (a[0, 0], b), (a, b[1, 2])):
            got = kernel(x, y)
            assert got.shape == (2, 3, a.shape[-1])
            for i, j in np.ndindex(2, 3):
                row = kernel(x if x.ndim == 1 else x[i, j], y if y.ndim == 1 else y[i, j])
                if exact_rows:
                    assert got[i, j].tobytes() == row.tobytes()
                else:
                    assert np.max(np.abs(got[i, j] - row)) <= 1e-14 * np.abs(row).max()
    lifted = _kernels.lift_weights(Q.coset_of, h, qs[0])
    pushed = _kernels.push_weights(Q.member_table, gs[0])
    for i, j in np.ndindex(2, 3):
        assert lifted[i, j].tobytes() == _kernels.lift_weights(Q.coset_of, h, qs[0][i, j]).tobytes()
        assert pushed[i, j].tobytes() == _kernels.push_weights(Q.member_table, gs[0][i, j]).tobytes()

    e1, e2 = _exact_weights(g, (4, k)), _exact_weights(g, (4, k))
    f1, f2 = _exact_weights(g, (4, n)), _exact_weights(g, (4, n))
    exact_q = ca.quotient_convolve_exact(T, e1, e2)
    exact_g = _kernels.group_convolve_weights(G.mul, G.inv, f1, f2)
    exact_lift = _kernels.lift_weights(Q.coset_of, h, e1)
    exact_push = _kernels.push_weights(Q.member_table, f1)
    assert exact_q.shape == (4, k) and exact_g.shape == (4, n)
    for i in range(4):
        assert exact_q[i] == ca.quotient_convolve_exact(T, e1[i], e2[i])
        assert exact_g[i] == _kernels.group_convolve_weights(G.mul, G.inv, f1[i], f2[i])
        assert exact_lift[i] == _kernels.lift_weights(Q.coset_of, h, e1[i])
        assert exact_push[i] == _kernels.push_weights(Q.member_table, f1[i])
        # and against the float kernels, within roundoff
        assert np.max(np.abs(exact_q[i].to_complex() - quotient(
            e1[i].to_complex(), e2[i].to_complex()))) <= 1e-12


def test_batched_kernels_within_their_byte_checks(monkeypatch):
    # S5/<(12)>, a block of eight vectors: each kernel's one check covers
    # its traced peak
    G, Q = _setup("S5", ["(12)"])
    T = ca.structure_table(Q)
    n, k = G.order, Q.coset_count
    g = rng(83)
    s1, s2 = random_weights(g, (8, k)), random_weights(g, (8, k))
    w1, w2 = random_weights(g, (8, n)), random_weights(g, (8, n))
    e1, e2 = _exact_weights(g, (8, k)), _exact_weights(g, (8, k))
    f1, f2 = _exact_weights(g, (8, n)), _exact_weights(g, (8, n))
    calls = [
        (_kernels, lambda: _kernels.group_convolve_weights(G.mul, G.inv, w1, w2)),
        (_kernels, lambda: _kernels.quotient_convolve_weights(T.rel, T.segments, s1, s2)),
        (_kernels, lambda: ca.quotient_convolve_exact(T, e1, e2)),
        (_kernels, lambda: _kernels.group_convolve_weights(G.mul, G.inv, f1, f2)),
    ]
    for module, call in calls:
        checked, peak = checked_peak(monkeypatch, module, call)
        assert len(checked) == 1 and peak <= checked[0], (module.__name__, peak, checked)
        monkeypatch.undo()


# --- the group convolution in row blocks of x -------------------------------
#
# The blocks are sized by _kernels.BLOCK_BYTES. A spy on _row_blocks reads the
# rate per entry that a call sizes its blocks by, and the rows it then gets.

def _spy_row_blocks(monkeypatch):
    calls = []
    sizes = _kernels._row_blocks

    def spy(n, entry_bytes, vectors):
        rows, nbytes = sizes(n, entry_bytes, vectors)
        calls.append((n, entry_bytes, vectors, rows))
        return rows, nbytes

    monkeypatch.setattr(_kernels, "_row_blocks", spy)
    return calls


def _in_blocks_of(monkeypatch, calls, rows, call):
    """call() with BLOCK_BYTES patched so that it runs `rows` rows x a block."""
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 0)
    call()
    n, entry_bytes, vectors, _ = calls[-1]
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", rows * entry_bytes * n * max(vectors, 1))
    out = call()
    assert calls[-1][-1] == rows
    return out


def _exact_one_block(mul, inv, w1, w2):
    """The exact group convolution as written before row blocks: one n x n
    gather, multiplied and summed over x."""
    return (w1[..., :, None] * w2.take(mul[inv], axis=-1)).sum(axis=-2)


@pytest.mark.parametrize("token,gens", [("S5", ["(12)"]), ("A6", ["(123)"])],
                         ids=["S5/<(12)>", "A6/<(123)>"])
def test_group_convolution_bits_do_not_depend_on_the_block_size(monkeypatch, token, gens):
    # blocks of 1, 7, n - 1 and n rows x: float outputs keep the one-block
    # bits, nu * lift stays right-H-invariant bit for bit, and exact outputs
    # keep their values; on single vectors, a batch carried by w2 only (the
    # in-place multiply), by w1 only, and an empty batch
    G, Q = _setup(token, gens)
    n, k = G.order, Q.coset_count
    g = rng(85)
    lift = _kernels.lift_weights(Q.coset_of, Q.subgroup.order, random_weights(g, k))
    shapes = [((n,), (n,)), ((n,), (3, n)), ((3, n), (n,)), ((0, n), (0, n))]
    calls = _spy_row_blocks(monkeypatch)
    for s1, s2 in shapes:
        w1, w2 = random_weights(g, s1), random_weights(g, s2)
        e1, e2 = _exact_weights(g, s1), _exact_weights(g, s2)
        floats = [w1, w2 if s2 != (n,) else lift]
        want = _in_blocks_of(monkeypatch, calls, n,
                             lambda: _kernels.group_convolve_weights(G.mul, G.inv, *floats))
        exact_want = _exact_one_block(G.mul, G.inv, e1, e2)
        for rows in (1, 7, n - 1, n):
            got = _in_blocks_of(monkeypatch, calls, rows,
                                lambda: _kernels.group_convolve_weights(G.mul, G.inv, *floats))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (s1, s2, rows)
            if s2 == (n,):
                assert np.all(ca.membership_mgh(Q, ca.ComplexMeasure(G, got))), (s1, rows)
            exact = _in_blocks_of(monkeypatch, calls, rows,
                                  lambda: _kernels.group_convolve_weights(G.mul, G.inv, e1, e2))
            assert exact.shape == exact_want.shape and exact == exact_want, (s1, s2, rows)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["vector", "batch"])
@pytest.mark.parametrize("mode", ["float", "exact"])
def test_group_convolution_byte_check_sizes_one_block(monkeypatch, mode, batch):
    # S6, over several blocks: the kernel's one check covers its traced peak,
    # and a budget one byte short refuses the call before it allocates
    G = ca.builtin_from_token("S6")
    g, shape = rng(86), (*batch, G.order)
    module, what, call = {
        "float": (_kernels, "group convolution of order 720",
                  partial(_kernels.group_convolve_weights, G.mul, G.inv,
                          random_weights(g, shape), random_weights(g, shape))),
        "exact": (_kernels, "exact group convolution of order 720",
                  partial(_kernels.group_convolve_weights, G.mul, G.inv,
                          _exact_weights(g, shape), _exact_weights(g, shape))),
    }[mode]
    calls = _spy_row_blocks(monkeypatch)
    checked, peak = checked_peak(monkeypatch, module, call)
    assert calls[-1][-1] < G.order and len(checked) == 1 and peak <= checked[0], (peak, checked)
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=what):
            call()

    assert traced_peak(refused) < checked[0] // 10


def test_exact_group_convolution_fits_a_budget_below_its_whole_expansion(monkeypatch):
    # S5, four vectors: a budget between one block's request and the
    # 56 n^2 bytes per vector of the whole expansion, which was refused with
    # a NaN residual at S7/<(12)>, gives the one-block values
    G = ca.builtin_from_token("S5")
    n = G.order
    g = rng(87)
    w1, w2 = _exact_weights(g, (4, n)), _exact_weights(g, (4, n))
    checked, _ = checked_peak(monkeypatch, _kernels,
                              lambda: _kernels.group_convolve_weights(G.mul, G.inv, w1, w2))
    whole = 56 * n * n * 4 + (1 << 13)
    assert checked[0] < whole
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", (checked[0] + whole) // 2)
    assert (_kernels.group_convolve_weights(G.mul, G.inv, w1, w2)
            == _exact_one_block(G.mul, G.inv, w1, w2))


# --- the quotient convolution in column blocks of z ---------------------------
#
# Blocks are whole multiples of 64 columns, forced here through
# _column_blocks. Every output entry is one matrix product over all k rows,
# so float blocks keep the one-block bits. OpenBLAS splits one product's
# columns among its threads, and where a thread's share is not a multiple of
# its kernel's column group the product's own bits move with the thread
# count (D130/<s> at k = 130 on two threads), so the float comparison runs
# in a fresh interpreter on one BLAS thread.

# the reflection i -> -i of D130, which fixes points 1 and 66: 130 cosets
D130_S = "".join(f"({p},{132 - p})" for p in range(2, 66))
COLUMN_PAIRS = [(e.group.removeprefix("builtin:"), list(e.subgroup))
                for e in ca.default_catalog()] + [("S6", ["(12)"]), ("S6", []), ("D130", [D130_S])]
COLUMN_IDS = [e.name for e in ca.default_catalog()] + ["S6/<(12)>", "S6/{e}", "D130/<s>"]


def _table(token, gens):
    G, Q = _setup(token, gens)
    return ca.structure_table(Q)


def _in_columns_of(width, call):
    """call() with the quotient kernel run in blocks of `width` columns z
    (one block of all k when width >= k)."""
    blocks = _kernels._column_blocks
    _kernels._column_blocks = lambda k, column_bytes, vectors: min(width, k)
    try:
        return call()
    finally:
        _kernels._column_blocks = blocks


def _column_block_mismatches() -> list[str]:
    """The pairs, batches and widths whose float outputs in blocks of 64 or
    128 columns differ in any bit from the one-block product."""
    mismatches = []
    for (token, gens), name in zip(COLUMN_PAIRS, COLUMN_IDS):
        T = _table(token, gens)
        k, g = T.coset_count, rng(89)
        for shape in ((k,), (5, k)):
            s1, s2 = random_weights(g, shape), random_weights(g, shape)

            def call():
                return _kernels.quotient_convolve_weights(T.rel, T.segments, s1, s2)

            want = _in_columns_of(k, call)
            mismatches += [f"{name} {shape} width {width}" for width in (64, 128)
                           if _in_columns_of(width, call).tobytes() != want.tobytes()]
    return mismatches


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"],
                         ids=["host", "Haswell", "Prescott"])
def test_quotient_column_blocks_keep_the_one_block_bits(coretype):
    # the host's OpenBLAS kernel, and two older x86-64 ones
    if coretype and platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS core types are x86-64 kernels")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    code = (f"import json, sys; sys.path.insert(0, {str(tests)!r}); import test_kernels; "
            "print(json.dumps(test_kernels._column_block_mismatches()))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("token,gens", COLUMN_PAIRS, ids=COLUMN_IDS)
def test_exact_quotient_column_blocks_keep_the_values(token, gens):
    # int64 numerators on every pair, Python ints where k is small: blocks
    # of 64 and 128 columns give the one-block values
    T = _table(token, gens)
    k, g = T.coset_count, rng(90)
    kinds = ["int64"] + ["python-int"] * (k <= 130)
    for kind, shape in product(kinds, ((k,), (3, k))):
        s1, s2 = _exact_weights(g, shape), _exact_weights(g, shape)
        if kind == "python-int":
            s1 = ExactVector(s1.re * 2 ** 62, s1.im, s1.den)

        def call():
            return ca.quotient_convolve_exact(T, s1, s2)

        want = _in_columns_of(k, call)
        for width in (64, 128):
            got = _in_columns_of(width, call)
            assert got.shape == want.shape and got == want, (kind, shape, width)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["vector", "batch"])
@pytest.mark.parametrize("kind", ["complex", "int64", "python-int"])
def test_quotient_convolution_byte_check_sizes_one_block(monkeypatch, kind, batch):
    # S6/<(12)>, 360 cosets (S5/{e}, 120, on Python ints): one request per
    # call, of one block of a whole multiple of 64 columns, covers the traced
    # peak, and a budget one byte short refuses the call before it
    # allocates; with BLOCK_BYTES raised until one block holds all k
    # columns, the request is the one-block figure the kernel asked before
    # it ran in blocks
    T = _table("S5", []) if kind == "python-int" else _table("S6", ["(12)"])
    k, v, g = T.coset_count, math.prod(batch), rng(91)
    if kind == "complex":
        s1, s2 = random_weights(g, (*batch, k)), random_weights(g, (*batch, k))
        what, slack = f"quotient convolution with {k} cosets", 0
    else:
        s1, s2 = _exact_weights(g, (*batch, k)), _exact_weights(g, (*batch, k))
        if kind == "python-int":
            s1 = ExactVector(s1.re * 2 ** 62, s1.im, s1.den)
        what, slack = f"exact quotient convolution with {k} cosets", 1 << 13
    digits = 0 if kind == "complex" else \
        _kernels._wide_digits(s1, s2, math.lcm(*set(T.suborbit_sizes.tolist())) * k)
    assert (kind == "python-int") == (digits > 0)

    def request(columns):
        if kind == "complex":
            return (32 * k * columns + 64 * k) * v
        rate = 120 if digits else 40
        return (rate * (k * columns + 4 * k) + 24 * k * digits) * v + slack

    widths = []
    blocks = _kernels._column_blocks
    monkeypatch.setattr(_kernels, "_column_blocks",
                        lambda *args: widths.append(blocks(*args)) or widths[-1])

    def call():
        return _kernels.quotient_convolve_weights(T.rel, T.segments, s1, s2)

    checked, peak = checked_peak(monkeypatch, _kernels, call)
    width, = widths
    assert width % 64 == 0 and width < k and checked == [request(width)], (width, checked)
    assert peak <= checked[0], (peak, checked)
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=what):
            call()

    assert traced_peak(refused) < checked[0] // 10
    monkeypatch.undo()
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1 << 60)
    checked, _ = checked_peak(monkeypatch, _kernels, call)
    one_block = 32 * k * k + 64 * k if kind == "complex" else \
        (120 if digits else 40) * (k * k + 4 * k) + 24 * k * digits
    assert checked == [one_block * v + slack]


def test_quotient_kernels_refuse_a_shift_that_is_not_one_table(monkeypatch):
    # S5/<(12)>: a (2, k, k) stack of relation matrices, one a column short
    # and a flat one are refused by the kernel, before its byte check, and
    # by the exact convolution through a StructureTable holding them
    G, Q = _setup("S5", ["(12)"])
    T, k = ca.structure_table(Q), Q.coset_count
    g = rng(84)
    s1, s2 = random_weights(g, k), random_weights(g, k)
    e1, e2 = _exact_weights(g, (k,)), _exact_weights(g, (k,))
    checked = []
    monkeypatch.setattr(_kernels, "require_bytes", lambda nbytes, what: checked.append(nbytes))
    refusal = rf"^rel must be one \({k}, {k}\) table, not "
    for rel in (np.stack([T.rel, T.rel]), T.rel[:, :-1], T.rel.ravel()):
        with pytest.raises(ValueError, match=refusal + re.escape(str(rel.shape))):
            _kernels.quotient_convolve_weights(rel, T.segments, s1, s2)
        with pytest.raises(ValueError, match=refusal):
            ca.quotient_convolve_exact(ca.StructureTable(Q, rel, T.labels), e1, e2)
    assert checked == []


# --- one byte request per convolution call -----------------------------------
#
# Each kernel sizes its one request by its operands' arithmetic. The figures
# are those of the checks that sized these calls before the exact entry
# points were folded into the kernels: float in the kernels, exact in the
# exact group and quotient convolutions.

_ONE_REQUEST = {
    ("S4", "complex", ()): ((23040, "group convolution of order 24"),
                            (768, "quotient convolution with 4 cosets")),
    ("S4", "complex", (3,)): ((69120, "group convolution of order 24"),
                              (2304, "quotient convolution with 4 cosets")),
    ("S4", "int64", ()): ((40448, "exact group convolution of order 24"),
                          (9472, "exact quotient convolution with 4 cosets")),
    ("S4", "int64", (3,)): ((104960, "exact group convolution of order 24"),
                            (12032, "exact quotient convolution with 4 cosets")),
    ("S4", "python-int", ()): ((169472, "exact group convolution of order 24"),
                               (12512, "exact quotient convolution with 4 cosets")),
    ("S4", "python-int", (3,)): ((492032, "exact group convolution of order 24"),
                                 (21152, "exact quotient convolution with 4 cosets")),
    ("S5", "complex", ()): ((576000, "group convolution of order 120"),
                            (119040, "quotient convolution with 60 cosets")),
    ("S5", "complex", (3,)): ((1051200, "group convolution of order 120"),
                              (357120, "quotient convolution with 60 cosets")),
    ("S5", "int64", ()): ((814592, "exact group convolution of order 120"),
                          (161792, "exact quotient convolution with 60 cosets")),
    ("S5", "int64", (3,)): ((1076672, "exact group convolution of order 120"),
                            (468992, "exact quotient convolution with 60 cosets")),
    ("S5", "python-int", ()): ((1083392, "exact group convolution of order 120"),
                               (476192, "exact quotient convolution with 60 cosets")),
    ("S5", "python-int", (3,)): ((1116992, "exact group convolution of order 120"),
                                 (1412192, "exact quotient convolution with 60 cosets")),
}


@pytest.mark.parametrize("batch", [(), (3,)], ids=["vector", "batch"])
@pytest.mark.parametrize("kind", ["complex", "int64", "python-int"])
@pytest.mark.parametrize("token,gens", [("S4", ["(12)", "(123)"]), ("S5", ["(12)"])],
                         ids=["S4/S3", "S5/<(12)>"])
def test_each_convolution_call_makes_one_byte_request(monkeypatch, token, gens, kind, batch):
    # both kernels, and the exact quotient convolution on exact operands:
    # one request each, of the size and message pinned above
    G, Q = _setup(token, gens)
    T = ca.structure_table(Q)

    def operand(size):
        if kind == "complex":
            return np.full((*batch, size), 0.5 + 0.25j)
        numerator = 2 ** 64 if kind == "python-int" else 5
        return ExactVector(np.full((*batch, size), numerator, dtype=object),
                           np.full((*batch, size), -3, dtype=object), 7)

    w, s = operand(G.order), operand(T.coset_count)
    group_request, quotient_request = _ONE_REQUEST[token, kind, batch]
    calls = [(lambda: _kernels.group_convolve_weights(G.mul, G.inv, w, w), group_request),
             (lambda: _kernels.quotient_convolve_weights(T.rel, T.segments, s, s),
              quotient_request)]
    if kind != "complex":
        calls.append((lambda: ca.quotient_convolve_exact(T, s, s), quotient_request))
    requests = spy_every_byte_check(monkeypatch)
    for call, request in calls:
        requests.clear()
        call()
        assert requests == [request]


# --- the quotient kernel's segment sums against the cycled suborbit table ----
#
# The kernel sums each suborbit once; the cycled table, kept in conftest as
# the oracle, summed r = lcm(suborbit sizes) rows. Where r <= 2 the two add
# the same terms in the same order, so float outputs keep their bits; beyond,
# they differ by roundoff. Exact outputs are equal wherever.

_groups = lru_cache(maxsize=None)(ca.builtin_from_token)


def _assert_matches_the_cycled_oracle(T, g):
    k = T.coset_count
    r = math.lcm(*set(T.suborbit_sizes.tolist()))
    for shape in ((k,), (2, k)):
        s1, s2 = random_weights(g, shape), random_weights(g, shape)
        got = _kernels.quotient_convolve_weights(T.rel, T.segments, s1, s2)
        want = cycled_quotient_convolve(*oracle_factors(T.quotient), s1, s2)
        assert got.shape == want.shape
        if r <= 2:
            assert got.tobytes() == want.tobytes(), r
        else:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), r
        e1, e2 = _exact_weights(g, shape), _exact_weights(g, shape)
        assert ca.quotient_convolve_exact(T, e1, e2) == \
            cycled_quotient_convolve(*oracle_factors(T.quotient), e1, e2)


@pytest.mark.parametrize("token,gens", [
    *((e.group, e.subgroup) for e in verifier.default_catalog()),
    ("S4", ["(12)"]), ("D6", ["(26)(35)"]), ("S5", ["(12)", "(123)"]),
    ("S6", ["(12)", "(345)"]), ("S6", ["(12)", "(12345)"]), ("S6", ["(12)"])],
    ids=[*(e.name for e in verifier.default_catalog()), "S4/<(12)>", "D6/<(26)(35)>",
         "S5/<(12),(123)>", "S6/<(12),(345)>", "S6/<(12),(12345)>", "S6/<(12)>"])
def test_segment_sums_match_the_cycled_oracle(token, gens):
    G = _groups(token)
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, list(gens))))
    _assert_matches_the_cycled_oracle(T, rng(88))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_segment_sums_match_the_cycled_oracle_on_random_subgroups(data):
    # H generated by up to three random elements of S4 or S5
    G = _groups(data.draw(st.sampled_from(["S4", "S5"])))
    H = ca.generate_subgroup(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=3)))
    T = ca.structure_table(ca.build_coset_space(G, H))
    _assert_matches_the_cycled_oracle(T, rng(data.draw(st.integers(0, 2 ** 32 - 1))))
