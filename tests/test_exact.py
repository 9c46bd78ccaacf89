from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cosetalg import exact
from cosetalg.exact import ComplexFraction, _rref_fractions


def F(*args):
    return Fraction(*args)


def mat(rows):
    return [[F(v) for v in row] for row in rows]


def test_rref_pivots():
    m, pivots = exact.rref(mat([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert m[0] == [F(1), F(2)]
    assert m[1] == [F(0), F(0)]


def test_nullspace_canonical():
    basis = exact.nullspace(mat([[1, 1]]))
    assert basis == [[F(-1), F(1)]]
    # full-rank system has trivial kernel
    assert exact.nullspace(mat([[1, 0], [0, 1]])) == []
    # empty matrix: everything is in the kernel
    assert len(exact.nullspace([], ncols=3)) == 3


def test_nullspace_vectors_satisfy_system():
    rows = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for v in exact.nullspace(rows):
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_consistent_and_inconsistent():
    sol = exact.solve(mat([[1, 1], [0, 1]]), [F(3), F(1)])
    assert sol == [F(2), F(1)]
    assert exact.solve(mat([[1, 1], [1, 1]]), [F(1), F(2)]) is None
    # underdetermined: free variables pinned to zero
    sol = exact.solve(mat([[1, 1]]), [F(5)])
    assert sol == [F(5), F(0)]


def test_complex_fraction_arithmetic():
    a = ComplexFraction.of(F(1, 2), F(-1, 3))
    b = ComplexFraction.of(F(2), F(1))
    assert (a + b).re == F(5, 2)
    assert (a * b).re == F(1, 2) * F(2) - F(-1, 3) * F(1)
    assert (a * b).im == F(1, 2) * F(1) + F(-1, 3) * F(2)
    assert a.abs_squared() == F(1, 4) + F(1, 9)
    assert (a - a).is_zero()
    assert a.scale(F(2)).re == F(1)
    assert abs(a.to_complex() - (0.5 - 1 / 3 * 1j)) < 1e-15


def test_exact_group_convolve_matches_float(s3):
    rng = np.random.Generator(np.random.PCG64(11))
    num = rng.integers(-3, 4, (2, 6))
    den = rng.integers(1, 4, (2, 6))
    w1 = [ComplexFraction.of(F(int(num[0, i]), int(den[0, i]))) for i in range(6)]
    w2 = [ComplexFraction.of(0, F(int(num[1, i]), int(den[1, i]))) for i in range(6)]
    out = exact.group_convolve_exact(s3.mul, w1, w2)
    from cosetalg._kernels import group_convolve_weights
    f1 = np.array([w.to_complex() for w in w1])
    f2 = np.array([w.to_complex() for w in w2])
    got = group_convolve_weights(s3.mul, f1, f2)
    want = np.array([w.to_complex() for w in out])
    assert np.max(np.abs(got - want)) < 1e-14


def test_exact_lift_and_pushforward_are_sections(s3_q):
    rng = np.random.Generator(np.random.PCG64(12))
    s = [ComplexFraction.of(F(int(a), 2), F(int(b), 3))
         for a, b in rng.integers(-4, 5, (3, 2))]
    lifted = exact.lift_exact(s3_q.coset_of, s3_q.subgroup.order, s)
    back = exact.pushforward_exact(s3_q.coset_of, s3_q.coset_count, lifted)
    assert all((x - y).is_zero() for x, y in zip(back, s))


# --- the certified rref against the Fraction oracle -------------------------------

def oracle_rref(rows):
    return _rref_fractions([[F(v) for v in row] for row in rows])


def oracle_solve(rows, rhs):
    ncols = len(rows[0])
    m, pivots = oracle_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def oracle_nullspace(rows):
    ncols = len(rows[0])
    m, pivots = oracle_rref(rows)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[j] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(v)
    return basis


entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2 ** 31 - 1, 2 ** 70, -(2 ** 70) + 1, 3 * (2 ** 31 - 1)]),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))


@st.composite
def matrices(draw):
    """Small matrices with zero, duplicate and dependent rows, any shape."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy", "combo"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "copy":
            rows[i] = list(rows[draw(st.integers(0, nrows - 1))])
        elif kind == "combo":
            a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            c = draw(st.integers(-2, 2))
            rows[i] = [F(x) + c * F(y) for x, y in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_fraction_oracle(rows):
    assert exact.rref(rows) == oracle_rref(rows)
    assert exact.nullspace(rows) == oracle_nullspace(rows)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_fraction_oracle(rows, data):
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    assert exact.solve(rows, rhs) == oracle_solve(rows, rhs)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_integer_array_input_matches_rows(rows):
    ints = [[int(F(v) * 60) for v in row] for row in rows]
    assume(all(abs(v) < 2 ** 62 for row in ints for v in row))
    assert exact.rref(np.array(ints, dtype=np.int64)) == oracle_rref(ints)
    assert exact.rref([np.array(r, dtype=np.int64) for r in ints]) == oracle_rref(ints)


def test_full_rank_needs_no_fraction_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(exact, "_rref_fractions",
                        lambda m: calls.append(len(m)) or _rref_fractions(m))
    rows, pivots = exact.rref([[1, 2], [3, 4], [5, 6]])
    assert pivots == [0, 1] and rows == [[1, 0], [0, 1], [0, 0]]
    assert calls == []
    exact.rref([[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 1, 1]])
    assert calls == [2]  # only the two basis rows


@pytest.mark.parametrize("prime", [2, 3])
def test_unlucky_prime_falls_back_to_oracle(monkeypatch, prime):
    # entries divisible by the prime vanish mod p, so the row basis misses a
    # rank the rationals see and the certificate must catch it
    rows = [[prime, 0, 1], [0, prime, 1], [prime, prime, 2], [0, 0, prime]]
    calls = []
    monkeypatch.setattr(exact, "_PRIME", prime)
    monkeypatch.setattr(exact, "_rref_fractions",
                        lambda m: calls.append(len(m)) or _rref_fractions(m))
    assert exact.rref(rows) == oracle_rref(rows)
    assert calls[-1] == len(rows)  # the full-matrix fallback ran
    assert exact.nullspace(rows) == oracle_nullspace(rows)
    assert exact.solve(rows, [1, 2, 3, 4]) == oracle_solve(rows, [1, 2, 3, 4])
