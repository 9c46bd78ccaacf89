from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cosetalg as ca
from cosetalg._kernels import group_convolve_weights, lift_weights, push_weights
from cosetalg.exact import ExactVector

from conftest import _rref_fractions, onehot_counts


def F(*args):
    return Fraction(*args)


def mat(rows):
    return [[F(v) for v in row] for row in rows]


def test_rref_pivots():
    m, pivots = _rref_fractions(mat([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert m[0] == [F(1), F(2)]
    assert m[1] == [F(0), F(0)]


def test_exact_vector_arithmetic():
    a = ExactVector.from_fractions([F(1, 2)], [F(-1, 3)])
    b = ExactVector.from_fractions([F(2)], [F(1)])
    assert values(a * b) == [(F(1, 2) * F(2) - F(-1, 3) * F(1),
                              F(1, 2) * F(1) + F(-1, 3) * F(2))]
    assert values(a.abs_squared()) == [(F(1, 4) + F(1, 9), F(0))]
    assert values(a * 2) == [(F(1), F(-2, 3))]
    assert values(a / 3) == [(F(1, 6), F(-1, 9))]
    # entries gathered into one column add up
    pair = ExactVector.from_fractions([F(1, 2), F(2)], [F(-1, 3), F(1)])
    assert values(pair[np.array([[0], [1]])].sum(axis=0)) == [(F(5, 2), F(2, 3))]
    # equality compares values: the same numbers over another denominator
    assert a == ExactVector(a.re * 5, a.im * 5, a.den * 5)
    assert a != b and a != pair
    assert abs(a.to_complex()[0] - (0.5 - 1 / 3 * 1j)) < 1e-15


def test_exact_group_convolve_matches_float(s3):
    rng = np.random.Generator(np.random.PCG64(11))
    num = rng.integers(-3, 4, (2, 6))
    den = rng.integers(1, 4, (2, 6))
    w1 = ExactVector.from_fractions([F(int(num[0, i]), int(den[0, i])) for i in range(6)])
    w2 = ExactVector.from_fractions([0] * 6, [F(int(num[1, i]), int(den[1, i]))
                                              for i in range(6)])
    out = group_convolve_weights(s3.mul, s3.inv, w1, w2)
    got = group_convolve_weights(s3.mul, s3.inv, w1.to_complex(), w2.to_complex())
    assert np.max(np.abs(got - out.to_complex())) < 1e-14


def test_exact_lift_and_pushforward_are_sections(s3_q):
    rng = np.random.Generator(np.random.PCG64(12))
    s = ExactVector.from_fractions(*zip(*((F(int(a), 2), F(int(b), 3))
                                          for a, b in rng.integers(-4, 5, (3, 2)))))
    lifted = lift_weights(s3_q.coset_of, s3_q.subgroup.order, s)
    assert push_weights(s3_q.member_table, lifted) == s


# --- the exact vector operations against Fraction oracles --------------------------
#
# The oracles are the per-entry loops the library used before its exact
# vectors held integer numerators: Gaussian rationals as (re, im) Fraction
# pairs.

ZERO = (F(0), F(0))


def values(v):
    return [(F(int(r), v.den), F(int(i), v.den)) for r, i in zip(v.re, v.im)]


def c_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def c_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def oracle_lift(coset_of, subgroup_order, s):
    return [(s[c][0] / subgroup_order, s[c][1] / subgroup_order)
            for c in map(int, coset_of)]


def oracle_pushforward(coset_of, coset_count, w):
    out = [ZERO] * coset_count
    for y, wy in enumerate(w):
        out[int(coset_of[y])] = c_add(out[int(coset_of[y])], wy)
    return out


def oracle_group_convolve(mul, w1, w2):
    n = len(w1)
    out = [ZERO] * n
    for x in range(n):
        for y in range(n):
            z = int(mul[x, y])
            out[z] = c_add(out[z], c_mul(w1[x], w2[y]))
    return out


def oracle_quotient_convolve(counts, denominator, s1, s2):
    out = [ZERO] * len(s1)
    for a, b, z in zip(*(x.tolist() for x in np.nonzero(counts))):
        w, cz = c_mul(s1[a], s2[b]), int(counts[a, b, z])
        out[z] = c_add(out[z], (w[0] * F(cz, denominator), w[1] * F(cz, denominator)))
    return out


PAIRS = {
    "S3/<(12)>": ("builtin:S3", ["(12)"]),
    "S3/A3": ("builtin:S3", ["(123)"]),
    "D4/<s>": ("builtin:D4", ["(24)"]),
    "Q8/<i>": ("builtin:Q8", ["i"]),
    "S4/S3": ("builtin:S4", ["(12)", "(123)"]),
}


@pytest.fixture(scope="module", params=list(PAIRS))
def pair(request):
    token, gens = PAIRS[request.param]
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    return Q, ca.structure_table(Q)


small_numerators = st.integers(-4, 4)
# with some numerators past 2**40, whose products leave int64
mixed_numerators = st.one_of(
    small_numerators, st.sampled_from([2 ** 40 + 3, -(2 ** 62), 2 ** 63 - 1, 3 ** 45]))


@st.composite
def vectors(draw, size):
    numerators = draw(st.sampled_from([small_numerators, mixed_numerators]))
    parts = [[F(draw(numerators), draw(st.integers(1, 5))) for _ in range(size)]
             for _ in range(2)]
    return ExactVector.from_fractions(*parts)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_exact_operations_match_fraction_oracles(pair, data):
    Q, T = pair
    G, k, h = Q.group, Q.coset_count, Q.subgroup.order
    s1, s2 = data.draw(vectors(k)), data.draw(vectors(k))
    w1, w2 = data.draw(vectors(G.order)), data.draw(vectors(G.order))
    lifted = lift_weights(Q.coset_of, h, s1)
    assert values(lifted) == oracle_lift(Q.coset_of, h, values(s1))
    assert values(push_weights(Q.member_table, w1)) == \
        oracle_pushforward(Q.coset_of, k, values(w1))
    assert values(group_convolve_weights(G.mul, G.inv, w1, w2)) == \
        oracle_group_convolve(G.mul, values(w1), values(w2))
    assert values(ca.quotient_convolve_exact(T, s1, s2)) == \
        oracle_quotient_convolve(onehot_counts(Q), Q.subgroup.order, values(s1), values(s2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_equality_matches_fraction_oracle(data):
    size = data.draw(st.integers(0, 4))
    v, w = data.draw(vectors(size)), data.draw(vectors(size))
    if data.draw(st.booleans()):
        # w: v's values under another representation, one entry maybe changed
        scale = data.draw(st.sampled_from([1, 7, 2 ** 64]))
        w = ExactVector(v.re.astype(object) * scale, v.im.astype(object) * scale,
                        v.den * scale)
        if size and data.draw(st.booleans()):
            re = w.re.copy()
            re[data.draw(st.integers(0, size - 1))] += 1
            w = ExactVector(re, w.im, w.den)
    assert (v == w) == (values(v) == values(w))
    assert (v != w) == (values(v) != values(w))


def test_large_numerators_take_the_object_path(pair):
    Q, T = pair
    k = Q.coset_count
    big = ExactVector(np.arange(k) + 2 ** 40, np.full(k, -(2 ** 41)), 3)
    small = ExactVector.from_fractions([F(1, 2)] * k, [F(-1, 3)] * k)
    assert big.re.dtype == np.int64 and small.re.dtype == np.int64
    out = ca.quotient_convolve_exact(T, big, big)
    assert out.re.dtype == object   # products near 2**82 would wrap in int64
    assert values(out) == oracle_quotient_convolve(onehot_counts(Q), Q.subgroup.order,
                                                   values(big), values(big))
    assert ca.quotient_convolve_exact(T, small, small).re.dtype == np.int64
    lifted = lift_weights(Q.coset_of, Q.subgroup.order, big)
    conv = group_convolve_weights(Q.group.mul, Q.group.inv, lifted, lifted)
    assert conv.re.dtype == object
    assert values(conv) == oracle_group_convolve(Q.group.mul, values(lifted), values(lifted))


def test_int64_edge_sums_and_scales_stay_exact():
    # each operand fits int64, the result does not
    top = ExactVector(np.full(2, 2 ** 62), np.array([-(2 ** 62), 0]))
    assert top.re.dtype == np.int64
    total = top[np.array([[0], [1]])].sum(axis=0)
    assert values(total) == [(F(2 ** 63), F(-(2 ** 62)))] and total.re.dtype == object
    assert values(top * 2) == [(F(2 ** 63), F(-(2 ** 63))), (F(2 ** 63), F(0))]
    assert values(top + top) == values(top * 2)
    assert values(top * top) == [(F(0), F(-(2 ** 125))), (F(2 ** 124), F(0))]
    assert top == ExactVector(np.full(2, 2 ** 63), np.array([-(2 ** 63), 0]), 2)
    assert ExactVector(np.array([-(2 ** 63)]), np.array([0])).re.dtype == object


def test_concatenate_joins_exact_vectors_over_their_common_denominator():
    # np.concatenate on exact vectors, as the quotient kernel joins its
    # column blocks: the values in order, over the least common multiple of
    # the denominators, typed by the scaled bound; no other numpy function
    a = ExactVector.from_fractions([F(1, 2), F(-1, 3)], [F(0), F(1, 6)])
    b = ExactVector.from_fractions([F(2, 5)], [F(-7, 10)])
    joined = np.concatenate([a, b], axis=-1)
    assert values(joined) == values(a) + values(b) and joined.den == 30
    rows = np.concatenate([ExactVector(a.re[None], a.im[None], a.den)] * 2, axis=0)
    assert rows.shape == (2, 2) and all(rows[i] == a for i in range(2))
    top = ExactVector(np.array([2 ** 62]), np.array([0]))
    wide = np.concatenate([top, ExactVector(np.array([1]), np.array([0]), 2)], axis=-1)
    assert wide.re.dtype == object and values(wide) == [(F(2 ** 62), F(0)), (F(1, 2), F(0))]
    with pytest.raises(TypeError):
        np.stack([a, a])


def test_exact_vector_rejects_bad_input():
    with pytest.raises(TypeError):
        ExactVector(np.array([0.5]), np.array([0]))
    with pytest.raises(TypeError):
        ExactVector(np.array([1]), np.array([0])) * 0.5
    with pytest.raises(ValueError):
        ExactVector(np.array([1]), np.array([0]), 0)
    with pytest.raises(ValueError):
        ExactVector(np.array([1, 2]), np.array([0]))



def test_exact_vector_refuses_an_understated_bound():
    # stored as int64 under bound 1, 2**40 squared read [0]
    with pytest.raises(ValueError, match="bound 1 is below the numerators' magnitude 2199"):
        ExactVector(np.array([2 ** 40]), np.array([-(2 ** 41)]), bound=1)
    with pytest.raises(ValueError, match="bound 4 is below the numerators' magnitude 5"):
        ExactVector(np.array([0, 1]), np.array([-5, 0]), bound=4)
    v = ExactVector(np.array([2 ** 40]), np.array([0]), bound=2 ** 40)
    assert values(v * v) == [(F(2 ** 80), F(0))]
    assert ExactVector(np.array([3]), np.array([0]), bound=2 ** 70).re.dtype == object


@pytest.mark.parametrize("bad", [0.1, 2.5, 2.0, 0, -3, True, F(2)])
def test_denominators_and_divisors_must_be_integers_at_least_one(bad):
    # 12 * 0.1 would truncate to a denominator of 1, giving 3 for 2.5
    v = ExactVector(np.array([3]), np.array([0]), 12)
    with pytest.raises(ValueError, match="divisor must be an integer >= 1"):
        v / bad
    with pytest.raises(ValueError, match="den must be an integer >= 1"):
        ExactVector(np.array([3]), np.array([0]), bad)
    assert values(v / np.int64(4)) == [(F(1, 16), F(0))]
    assert values(ExactVector(np.array([3]), np.array([0]), np.int64(4))) == [(F(3, 4), F(0))]


def test_results_are_typed_as_the_validating_constructor_types_them():
    # int64 results, results that leave int64, and Python-int operands: each
    # operation's vector equals its validated copy, dtype and bound included
    for top in (2 ** 20, 2 ** 62, 2 ** 70):
        parts = [np.array([top, -top, 1, 0], dtype=object) for _ in range(2)]
        v = ExactVector(*parts, 3)
        m = v[np.array([[0, 1], [2, 3]])]
        results = [v.take(np.array([3, 0]), axis=0), m, v * v, v * 5, v.abs_squared(),
                   m.sum(axis=0), v[np.array([0, 1])] @ m, v / 7, v + v / 7, v.widened()]
        for r in results:
            copy = ExactVector(r.re, r.im, r.den, r.bound)
            assert r == copy and (r.re.dtype, r.im.dtype) == (copy.re.dtype, copy.im.dtype)
            assert r.re.dtype == (object if r.bound >= 2 ** 63 else np.int64)
            assert type(r.den) is int and r.den >= 1
    w = v.widened()
    assert w == v and w.re.dtype == object and w.bound >= 2 ** 63
    # results with no axis left are refused, as before
    with pytest.raises(ValueError):
        v.sum(axis=0)
    with pytest.raises(ValueError):
        v[0]


# --- 2-D gathers, sums over an axis and matrix products -------------------------

# int64 numerators whose sums and products leave int64 (they widen), and
# numerators past 2**63 (Python ints from the start)
wide_numerators = st.one_of(
    small_numerators, st.sampled_from([2 ** 62 - 1, -(2 ** 62), 3 ** 39]),
    st.sampled_from([2 ** 63, -(2 ** 64) - 5, 7 ** 40]))


@st.composite
def wide_vectors(draw, size):
    numerators = draw(st.sampled_from([small_numerators, wide_numerators]))
    den = draw(st.integers(1, 5))
    parts = [np.array([draw(numerators) for _ in range(size)], dtype=object) for _ in range(2)]
    return ExactVector(*parts, den)


def matrix_values(v):
    return [values(ExactVector(r, i, v.den, v.bound)) for r, i in zip(v.re, v.im)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gathers_sums_and_products_match_fraction_oracles(data):
    size = data.draw(st.integers(1, 5))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    u, w = data.draw(wide_vectors(size)), data.draw(wide_vectors(size))
    index = np.array(data.draw(st.lists(st.lists(st.integers(0, size - 1), min_size=cols,
                                                 max_size=cols), min_size=rows, max_size=rows)))
    gathered = w[index]
    assert gathered.re.shape == (rows, cols)
    assert matrix_values(gathered) == [[values(w)[j] for j in row] for row in index.tolist()]
    for axis in (0, 1):
        rows_of = matrix_values(gathered)
        lines = rows_of if axis == 1 else [list(col) for col in zip(*rows_of)]
        want = [(sum((x[0] for x in line), F(0)), sum((x[1] for x in line), F(0)))
                for line in lines]
        summed = gathered.sum(axis=axis)
        assert values(summed) == want
        assert summed.re.dtype == (object if summed.bound >= 2 ** 63 else np.int64)
    # the entrywise sum, over the least common denominator
    total = u + w
    assert values(total) == [c_add(x, y) for x, y in zip(values(u), values(w))]
    assert total.re.dtype == (object if total.bound >= 2 ** 63 else np.int64)
    # u[:rows] @ (rows, cols): a row vector times a matrix
    left = u[np.arange(rows) % size]
    product = left @ gathered
    want = [(F(0), F(0))] * cols
    for a, x in enumerate(values(left)):
        for z in range(cols):
            want[z] = c_add(want[z], c_mul(x, matrix_values(gathered)[a][z]))
    assert values(product) == want
    assert product.re.dtype == (object if product.bound >= 2 ** 63 else np.int64)
    # broadcasting entrywise product, and np.multiply as the kernels call it
    outer = left[:, None] * gathered
    assert matrix_values(outer) == [[c_mul(x, y) for y in row]
                                    for x, row in zip(values(left), matrix_values(gathered))]
    assert np.multiply(left[:, None], gathered, out=gathered) == outer
    assert (outer == gathered) == (matrix_values(outer) == matrix_values(gathered))
    assert outer.to_complex().shape == (rows, cols)


def test_sums_that_leave_int64_widen():
    # every numerator fits int64, the sums and the product do not
    top = ExactVector(np.full((2, 2), 2 ** 62), np.full((2, 2), -(2 ** 62)))
    assert top.re.dtype == np.int64
    total = top.sum(axis=0)
    assert total.re.dtype == object and values(total) == [(F(2 ** 63), F(-(2 ** 63)))] * 2
    row = ExactVector(np.array([2 ** 62, 1]), np.array([0, 0]))
    product = row @ top
    assert product.re.dtype == object
    assert values(product) == [(F(2 ** 124 + 2 ** 62), F(-(2 ** 124) - 2 ** 62))] * 2
    # each product of parts fits int64, the real part's difference does not
    a = ExactVector(np.array([2 ** 31]), np.array([2 ** 31]))
    b = ExactVector(np.array([[2 ** 31]]), np.array([[-(2 ** 31)]]))
    assert values(a @ b) == [(F(2 ** 63), F(0))]
