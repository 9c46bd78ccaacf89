import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cosetalg as ca
from cosetalg import _kernels, verifier
from cosetalg import quotient_algebra as qa
from cosetalg.errors import CapExceeded, CarrierMismatch
from cosetalg.exact import ExactVector
from cosetalg.groups import perm_label
from cosetalg.verifier import (_l1_convolve_operator, _lp_action_operator,
                               build_entry, default_catalog)

from conftest import (_rref_fractions, checked_peak, cycled_quotient_convolve, onehot_counts,
                      oracle_factors, oracle_rel, planted_table, random_weights, rng, traced_peak)

# independently derived count tensor for S3 / <(12)>, cosets
# C0={e,(12)}, C1={(123),(13)}, C2={(23),(132)}, |H| = 2
S3_COUNTS = np.array([
    [[2, 0, 0], [0, 1, 1], [0, 1, 1]],
    [[0, 2, 0], [1, 0, 1], [1, 0, 1]],
    [[0, 0, 2], [1, 1, 0], [1, 1, 0]],
], dtype=np.int64)


@pytest.fixture(scope="module")
def s3_t(s3_q):
    return ca.structure_table(s3_q)


def random_measure(g, Q):
    return ca.ComplexMeasure(ca.quotient_carrier(Q), random_weights(g, Q.coset_count))


def test_structure_table_s3_frozen(s3_t):
    assert np.array_equal(s3_t.labels, [0, 1, 1])
    assert np.array_equal(s3_t.counts, S3_COUNTS)
    assert s3_t.c[1, 2].tolist() == [0.5, 0.0, 0.5]


def test_structure_table_row_stochastic_catalog():
    from cosetalg.verifier import build_entry, default_catalog
    for entry in default_catalog():
        G, H = build_entry(entry)
        T = ca.structure_table(ca.build_coset_space(G, H))
        assert (T.counts.sum(axis=2) == H.order).all()


def test_normal_subgroup_gives_factor_group_table(s3, s3_a3):
    T = ca.structure_table(ca.build_coset_space(s3, s3_a3))
    assert np.array_equal(T.labels, [0, 1])     # every suborbit a single coset
    # the induced table is the Cayley table of C2
    factor = np.argmax(T.counts, axis=2)
    assert np.array_equal(factor, [[0, 1], [1, 0]])


def test_trivial_subgroup_table_is_cayley(s3):
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    T = ca.structure_table(Q)
    assert np.array_equal(T.labels, np.arange(6))
    assert np.array_equal(np.argmax(T.counts, axis=2), s3.mul)


def test_representative_independence_exhaustive(s3_q, d4):
    # every joint choice of representatives yields the same tensor, from its
    # definition and from the factored table of that choice
    Q4 = ca.build_coset_space(d4, ca.subgroup_from_tokens(d4, ["(24)"]))
    for Q in (s3_q, Q4):
        base = ca.structure_table(Q).counts
        member_lists = [list(map(int, Q.members(c))) for c in range(Q.coset_count)]
        for choice in itertools.product(*member_lists):
            assert np.array_equal(onehot_counts(Q, choice), base)
            assert np.array_equal(ca.structure_table(Q, choice).counts, base)


# (k, |H|, r, d): cosets, subgroup order, lcm of the suborbit sizes, suborbits
SUBORBIT_PAIRS = {
    "S3/<(12)>": (("S3", ["(12)"]), (3, 2, 2, 2)),
    "S3 relabelled": (None, (3, 2, 2, 2)),
    "D6/<(26)(35)>": (("D6", ["(26)(35)"]), (6, 2, 2, 4)),
    "A4/V4": (("A4", ["(12)(34)", "(13)(24)"]), (3, 4, 1, 3)),
    "S4/S3": (("S4", ["(12)", "(123)"]), (4, 6, 3, 2)),
    "S5/<(12),(123)>": (("S5", ["(12)", "(123)"]), (20, 6, 6, 7)),
    "S6/<(12),(12345)>": (("S6", ["(12)", "(12345)"]), (6, 120, 5, 2)),
}


@pytest.mark.parametrize("name", SUBORBIT_PAIRS)
def test_suborbits_match_independent_oracles(name, relabelled_s3_pair):
    # the labels are the column minima of H's action h_i * rep_b on the
    # cosets, their count is Burnside's (1/|H|) sum_h fix(h), and each
    # segment lists its orbit ascending, in the order of the labels
    pair, expected = SUBORBIT_PAIRS[name]
    if pair is None:
        G, H = relabelled_s3_pair
    else:
        G = ca.builtin_from_token(pair[0])
        H = ca.subgroup_from_tokens(G, pair[1])
    Q = ca.build_coset_space(G, H)
    T = ca.structure_table(Q)
    k, h, labels = Q.coset_count, H.order, T.labels
    order, starts, sizes, rank = T.segments
    members = np.array(H.members, dtype=np.int64)
    action = Q.coset_of[G.mul[members[:, None], Q.reps]]
    assert np.array_equal(labels, action.min(axis=0))
    fixed = np.count_nonzero(action == np.arange(k))
    d = np.count_nonzero(labels == np.arange(k))
    assert fixed % h == 0 and d == fixed // h == len(starts)
    orbits = [np.unique(action[:, b]) for b in range(k)]
    r = math.lcm(*(len(o) for o in orbits))
    assert h % r == 0
    for b, orbit in enumerate(orbits):
        i = rank[b]
        assert labels[b] == orbit[0] and sizes[i] == len(orbit) == T.suborbit_sizes[b]
        assert np.array_equal(order[starts[i]:starts[i] + sizes[i]], orbit)
    assert np.array_equal(starts, np.cumsum(sizes) - sizes)
    assert (k, h, r, d) == expected
    assert labels.dtype == np.int32 and not labels.flags.writeable


# builtin groups of order <= 24, normal and non-normal subgroups alike
SMALL_GROUPS = ("S3", "C6", "D4", "Q8", "C8", "A4", "D6", "C12", "D8", "S4", "D12")
small_group = functools.lru_cache(maxsize=None)(ca.builtin_from_token)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factored_table_matches_its_definition(data):
    G = small_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    H = ca.generate_subgroup(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=3)))
    Q = ca.build_coset_space(G, H)
    T = ca.structure_table(Q)
    k, dense = Q.coset_count, onehot_counts(Q)
    assert np.array_equal(T.counts, dense)
    assert (T.labels == np.arange(k)).all() == ca.test_normality(G, H)
    reps = [data.draw(st.sampled_from(Q.members(c).tolist())) for c in range(k)]
    assert np.array_equal(ca.structure_table(Q, reps).counts, dense)
    # unit total variation, so 1e-13 bounds the error relative to ||s1||·||s2||
    g = rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    qc = ca.quotient_carrier(Q)
    s1, s2 = (w / np.abs(w).sum() for w in random_weights(g, (2, k)))
    m1, m2 = ca.ComplexMeasure(qc, s1), ca.ComplexMeasure(qc, s2)
    got = ca.quotient_convolve(T, m1, m2).weights
    oracle = np.einsum("abz,a,b->z", dense / H.order, s1, s2)
    route = ca.pushforward_rh(Q, ca.group_convolve(
        G, ca.lift_to_invariant(Q, m1), ca.lift_to_invariant(Q, m2))).weights
    assert np.max(np.abs(got - oracle)) < 1e-13
    assert np.max(np.abs(got - route)) < 1e-13


def test_quotient_convolution_worked_example(s3_q, s3_t):
    qcar = ca.quotient_carrier(s3_q)
    out = ca.quotient_convolve(s3_t, ca.point_mass(qcar, 1), ca.point_mass(qcar, 2))
    assert np.array_equal(out.weights, np.array([0.5, 0, 0.5], dtype=complex))
    # witnesses that point-mass products need not be point masses


def test_right_identity(s3_q, s3_t):
    g = rng(41)
    dh = ca.delta_h(s3_q)
    for _ in range(50):
        sigma = random_measure(g, s3_q)
        out = ca.quotient_convolve(s3_t, sigma, dh)
        assert np.array_equal(out.weights, sigma.weights)  # bitwise: 0/1 column


def test_right_identity_exact_on_basis(s3_t, s3_q):
    k = s3_t.coset_count
    b0 = s3_q.base_coset
    for a in range(k):
        for z in range(k):
            assert int(s3_t.counts[a, b0, z]) == (s3_q.subgroup.order if z == a else 0)


def test_normal_pairs_multiply_like_the_factor_group(s3, s3_a3):
    Q = ca.build_coset_space(s3, s3_a3)
    T = ca.structure_table(Q)
    qcar = ca.quotient_carrier(Q)
    for a in range(2):
        for b in range(2):
            out = ca.quotient_convolve(T, ca.point_mass(qcar, a), ca.point_mass(qcar, b))
            target = int(Q.coset_of[s3.op(int(Q.reps[a]), int(Q.reps[b]))])
            assert np.array_equal(out.weights, ca.point_mass(qcar, target).weights)


def test_dual_formula(s3_q, s3_t):
    g = rng(42)
    for _ in range(100):
        s1, s2 = random_measure(g, s3_q), random_measure(g, s3_q)
        via_table = ca.quotient_convolve(s3_t, s1, s2)
        via_lift = ca.pushforward_rh(s3_q, ca.group_convolve(
            s3_q.group, ca.lift_to_invariant(s3_q, s1), ca.lift_to_invariant(s3_q, s2)))
        assert np.max(np.abs(via_table.weights - via_lift.weights)) < 1e-12


def test_quotient_convolve_exact_matches_float(s3_t):
    g = rng(43)
    k = s3_t.coset_count
    nums = g.integers(-4, 5, (2, k, 2))
    s1 = ExactVector(nums[0, :, 0], nums[0, :, 1])
    s2 = ExactVector(nums[1, :, 0], nums[1, :, 1])
    out = ca.quotient_convolve_exact(s3_t, s1, s2)
    qcar = ca.quotient_carrier(s3_t.quotient)
    f1 = ca.ComplexMeasure(qcar, s1.to_complex())
    f2 = ca.ComplexMeasure(qcar, s2.to_complex())
    want = ca.quotient_convolve(s3_t, f1, f2)
    assert np.max(np.abs(out.to_complex() - want.weights)) < 1e-13
    with pytest.raises(CarrierMismatch):
        ca.quotient_convolve_exact(s3_t, s1, s2[np.arange(k - 1)])


def test_module_action(s3, s3_q, s3_t):
    qcar = ca.quotient_carrier(s3_q)
    gcar = ca.group_carrier(s3)
    g = rng(44)
    sigma = random_measure(g, s3_q)
    # the group identity acts trivially
    out = ca.module_action(s3_q, ca.point_mass(gcar, s3.identity), sigma)
    assert np.max(np.abs(out.weights - sigma.weights)) < 1e-15
    # a point mass translates cosets
    for x in range(6):
        for b in range(3):
            out = ca.module_action(s3_q, ca.point_mass(gcar, x), ca.point_mass(qcar, b))
            target = int(s3_q.coset_of[s3.op(x, int(s3_q.reps[b]))])
            assert np.array_equal(out.weights, ca.point_mass(qcar, target).weights)
    # acting by a lifted measure is the quotient convolution
    for _ in range(25):
        s1, s2 = random_measure(g, s3_q), random_measure(g, s3_q)
        via_action = ca.module_action(s3_q, ca.lift_to_invariant(s3_q, s1), s2)
        via_table = ca.quotient_convolve(s3_t, s1, s2)
        assert np.max(np.abs(via_action.weights - via_table.weights)) < 1e-12


# --- density algebra -------------------------------------------------------------

def test_l1_convolve_trivial_subgroup_is_group_convolution(s3):
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    rho = ca.rho_ones(Q)
    lam = ca.quasi_invariant_lambda(Q, rho)
    qcar = ca.quotient_carrier(Q)
    g = rng(45)
    f1, f2 = random_weights(g, 6), random_weights(g, 6)
    out = ca.l1_convolve(ca.structure_table(Q), lam, ca.DensityFunction(qcar, f1),
                         ca.DensityFunction(qcar, f2))
    want = np.zeros(6, dtype=complex)
    for x in range(6):
        for y in range(6):
            want[s3.op(x, y)] += f1[x] * f2[y]
    assert np.max(np.abs(out.values - want)) < 1e-13


def test_l1_convolve_indicator_frozen(s3_q, s3_t):
    # phi = psi = indicator of C0, rho = 1: the result is 2 * indicator of C0
    rho = ca.rho_ones(s3_q)
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    qcar = ca.quotient_carrier(s3_q)
    ind = ca.DensityFunction(qcar, [1.0, 0.0, 0.0])
    out = ca.l1_convolve(s3_t, lam, ind, ind)
    assert np.max(np.abs(out.values - np.array([2.0, 0, 0]))) < 1e-14


def test_l1_convolve_linearity(s3_q, s3_t):
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    qcar = ca.quotient_carrier(s3_q)
    g = rng(46)
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    psi = ca.DensityFunction(qcar, random_weights(g, 3))
    a = 2.0 - 1.5j
    lhs = ca.l1_convolve(s3_t, lam, a * phi, psi)
    rhs = a * ca.l1_convolve(s3_t, lam, phi, psi)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_embed_density(s3_q):
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lam = ca.quasi_invariant_lambda(s3_q, rho)  # weights (2, 4, 1)
    qcar = ca.quotient_carrier(s3_q)
    zero = ca.embed_density(lam, ca.DensityFunction(qcar, np.zeros(3)))
    assert ca.total_variation(zero) == 0.0
    ind = ca.DensityFunction(qcar, [1.0, 0, 0])
    emb = ca.embed_density(lam, ind)
    assert np.array_equal(emb.weights, 2.0 * ca.point_mass(qcar, 0).weights)
    assert ca.total_variation(emb) == 2.0 == ca.lp_norm(lam, ind, 1.0)


def test_embed_compatible_with_pushforward(s3_q):
    # pushing the rho-weighted lift of a coset density forward gives exactly
    # the lambda-embedded density
    g = rng(47)
    qcar = ca.quotient_carrier(s3_q)
    for _ in range(25):
        rho = ca.validate_rho(
            s3_q, [Fraction(int(a), int(b)) for a, b in g.integers(1, 5, (3, 2))])
        lam = ca.quasi_invariant_lambda(s3_q, rho)
        phi = ca.DensityFunction(qcar, random_weights(g, 3))
        lifted = ca.compose_with_projection(s3_q, phi).values * rho.values[s3_q.coset_of]
        pushed = ca.pushforward_rh(
            s3_q, ca.ComplexMeasure(ca.group_carrier(s3_q.group), lifted))
        target = ca.embed_density(lam, phi)
        assert np.max(np.abs(pushed.weights - target.weights)) < 1e-12


def test_ideal_factorize(s3_q, s3_t):
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    qcar = ca.quotient_carrier(s3_q)
    g = rng(48)
    # right identity pulls back to the original density
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    psi = ca.ideal_factorize(lam, s3_t, phi, ca.delta_h(s3_q))
    assert np.max(np.abs(psi.values - phi.values)) < 1e-14
    # zero in, zero out
    zero = ca.ideal_factorize(lam, s3_t, ca.DensityFunction(qcar, np.zeros(3)),
                              random_measure(g, s3_q))
    assert np.max(np.abs(zero.values)) == 0.0
    # residual of embedding the factorization
    for _ in range(100):
        phi = ca.DensityFunction(qcar, random_weights(g, 3))
        sigma = random_measure(g, s3_q)
        psi = ca.ideal_factorize(lam, s3_t, phi, sigma)
        target = ca.quotient_convolve(s3_t, ca.embed_density(lam, phi), sigma)
        assert ca.total_variation(ca.embed_density(lam, psi) - target) <= 1e-12


def test_lp_action_point_mass_formula(s3, s3_q, s3_t):
    # acting by the base-coset point mass averages over translated cosets
    rho = ca.rho_ones(s3_q)
    qcar = ca.quotient_carrier(s3_q)
    g = rng(49)
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    out = ca.lp_action(s3_t, rho, "left", ca.delta_h(s3_q), phi, 1.0)
    members = [int(m) for m in s3_q.subgroup.members]
    want = np.zeros(3, dtype=complex)
    for c in range(3):
        x = int(s3_q.reps[c])
        want[c] = sum(phi.values[s3_q.coset_of[s3.op(h, x)]] for h in members) / len(members)
    assert np.max(np.abs(out.values - want)) < 1e-14


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_lp_contraction(s3_q, s3_t, p, side):
    g = rng(50)
    qcar = ca.quotient_carrier(s3_q)
    for _ in range(30):
        rho = ca.validate_rho(
            s3_q, [Fraction(int(a), int(b)) for a, b in g.integers(1, 5, (3, 2))])
        lam = ca.quasi_invariant_lambda(s3_q, rho)
        sigma = random_measure(g, s3_q)
        phi = ca.DensityFunction(qcar, random_weights(g, 3))
        out = ca.lp_action(s3_t, rho, side, sigma, phi, p)
        assert ca.lp_norm(lam, out, p) <= \
            ca.total_variation(sigma) * ca.lp_norm(lam, phi, p) + 1e-10


@pytest.mark.parametrize("token,gens", [("S3", ["(12)"]), ("D4", ["(24)"]),
                                        ("S3", ["(123)"]), ("Q8", ["i"]),
                                        ("S4", ["(12)", "(123)"]), ("A4", ["(123)"]),
                                        ("S5", ["(12)"])])
def test_explicit_matches_operator_route(token, gens):
    # lp_action and l1_convolve compute the explicit double sum through the
    # quotient convolution kernel; the operator route (group convolution of
    # rho-weighted lifts, averaged back) must agree, on non-normal pairs with
    # |H| > 2 too
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    T = ca.structure_table(Q)
    qcar = ca.quotient_carrier(Q)
    g = rng(51)
    rho = ca.validate_rho(
        Q, [Fraction(int(a), int(b)) for a, b in g.integers(1, 5, (Q.coset_count, 2))])
    assert not np.all(rho.values == 1.0)
    lam = ca.quasi_invariant_lambda(Q, rho)
    sigma = random_measure(g, Q)
    phi = ca.DensityFunction(qcar, random_weights(g, Q.coset_count))
    psi = ca.DensityFunction(qcar, random_weights(g, Q.coset_count))
    for p in (1.0, 2.0, 3.0):
        for side in ("left", "right"):
            explicit = ca.lp_action(T, rho, side, sigma, phi, p).values
            operator = _lp_action_operator(Q, rho, side, sigma, phi, p)
            assert np.max(np.abs(explicit - operator)) < 1e-12, (p, side)
    explicit = ca.l1_convolve(T, lam, phi, psi).values
    assert np.max(np.abs(explicit - _l1_convolve_operator(Q, rho, phi, psi))) < 1e-12


def test_lp_action_argument_validation(s3_q, s3_t):
    rho = ca.rho_ones(s3_q)
    qcar = ca.quotient_carrier(s3_q)
    phi = ca.DensityFunction(qcar, np.ones(3))
    with pytest.raises(ValueError):
        ca.lp_action(s3_t, rho, "middle", ca.delta_h(s3_q), phi, 1.0)
    with pytest.raises(ValueError):
        ca.lp_action(s3_t, rho, "left", ca.delta_h(s3_q), phi, 0.5)


def test_lp_norm_examples(s3_q):
    lam = ca.quasi_invariant_lambda(s3_q, ca.validate_rho(s3_q, [1.0, 2.0, 0.5]))
    qcar = ca.quotient_carrier(s3_q)
    ind = ca.DensityFunction(qcar, [1.0, 0, 0])
    assert ca.lp_norm(lam, ind, 1.0) == 2.0
    assert ca.lp_norm(lam, ind, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    g = rng(51)
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    assert ca.lp_norm(lam, 2.0 * phi, 3.0) == pytest.approx(
        2.0 * ca.lp_norm(lam, phi, 3.0), rel=1e-14)


@pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
@pytest.mark.parametrize("function", ["lp_norm", "lp_action", "weighted_average_th"])
def test_exponent_must_be_finite_and_at_least_one(s3_q, s3_t, function, p):
    # phi = (1, 2, 3) on S3/<(12)>: an infinite p would give no sup norm 3,
    # and a NaN p no number at all
    rho = ca.rho_ones(s3_q)
    phi = ca.DensityFunction(ca.quotient_carrier(s3_q), [1.0, 2.0, 3.0])
    call = {"lp_norm": lambda: ca.lp_norm(ca.quasi_invariant_lambda(s3_q, rho), phi, p),
            "lp_action": lambda: ca.lp_action(s3_t, rho, "left", ca.delta_h(s3_q), phi, p),
            "weighted_average_th": lambda: ca.weighted_average_th(
                s3_q, rho, p, ca.compose_with_projection(s3_q, phi))}[function]
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        call()



def _ulps(a, b) -> float:
    """The largest gap between two float arrays, in units in the last place
    of the larger magnitude, real and imaginary parts apart."""
    a, b = np.asarray(a), np.asarray(b)
    worst = 0.0
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        scale = np.spacing(np.maximum(np.abs(x), np.abs(y)))
        worst = max(worst, float(np.max(np.abs(x - y) / scale)))
    return worst


def test_an_exponent_per_vector_matches_the_calls_of_each_row():
    # S4/<(12)>, 24 rows whose exponents cycle through 1, 2, 3 and 1.5, as
    # one batch against one call per row: bitwise at p = 1, within 4 ulps
    # otherwise (numpy's ** takes other paths for one exponent)
    G = ca.builtin_from_token("S4")
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"]))
    T, k = ca.structure_table(Q), Q.coset_count
    g = rng(53)
    p = np.array([1.0, 2.0, 3.0, 1.5] * 6)
    rho = ca.RhoFunction(Q, (1 + g.integers(0, 4, (24, k))) / (1 + g.integers(0, 4, (24, k))))
    sigma = ca.ComplexMeasure(Q, random_weights(g, (24, k)) - (0.5 + 0.5j))
    phi = ca.DensityFunction(Q, random_weights(g, (24, k)) - (0.5 + 0.5j))
    routes = {
        "lp_norm": lambda r, s, f, p: ca.lp_norm(ca.quasi_invariant_lambda(Q, r), f, p),
        "left": lambda r, s, f, p: ca.lp_action(T, r, "left", s, f, p).values,
        "right": lambda r, s, f, p: ca.lp_action(T, r, "right", s, f, p).values,
        "weighted_average_th": lambda r, s, f, p: ca.weighted_average_th(
            Q, r, p, ca.compose_with_projection(Q, f)).values,
    }
    for name, route in routes.items():
        batch = route(rho, sigma, phi, p)
        assert np.shape(batch)[0] == 24, name
        for i in range(24):
            one = route(ca.RhoFunction(Q, rho.values[i]), ca.ComplexMeasure(Q, sigma.weights[i]),
                        ca.DensityFunction(Q, phi.values[i]), float(p[i]))
            if p[i] == 1.0:
                assert np.asarray(batch[i]).tobytes() == np.asarray(one).tobytes(), (name, i)
            else:
                assert _ulps(batch[i], one) <= 4, (name, i)


@pytest.mark.parametrize("p", [1, 2.0, 3.0, 1.5, 10.0])
def test_a_number_and_a_one_element_array_give_the_bits_of_a_number(p):
    # S4/<(12)>, one vector: p as a number and as a one-element array give,
    # bit for bit, what numpy's ** gives for a Python number as exponent
    G = ca.builtin_from_token("S4")
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"]))
    T, k = ca.structure_table(Q), Q.coset_count
    g = rng(54)
    rho = ca.RhoFunction(Q, (1 + g.integers(0, 4, k)) / (1 + g.integers(0, 4, k)))
    sigma = ca.ComplexMeasure(Q, random_weights(g, k) - (0.5 + 0.5j))
    phi = ca.DensityFunction(Q, random_weights(g, k) - (0.5 + 0.5j))
    lam, f, rp = ca.quasi_invariant_lambda(Q, rho), ca.compose_with_projection(Q, phi), \
        rho.values ** (1.0 / p)
    kernel = functools.partial(_kernels.quotient_convolve_weights, T.rel, T.segments)
    routes = {
        "lp_norm": (lambda p: ca.lp_norm(lam, phi, p),
                    np.sum(np.abs(phi.values) ** p * lam.weights) ** (1.0 / p)),
        "left": (lambda p: ca.lp_action(T, rho, "left", sigma, phi, p).values,
                 kernel(sigma.weights, phi.values * rp) / rp),
        "right": (lambda p: ca.lp_action(T, rho, "right", sigma, phi, p).values,
                  kernel(phi.values * rp, sigma.weights) / rp),
        "weighted_average_th": (lambda p: ca.weighted_average_th(Q, rho, p, f).values,
                                ca.average_ph(Q, f).values / rp),
    }
    assert type(ca.lp_norm(lam, phi, p)) is float
    for name, (route, want) in routes.items():
        for exponent in (p, np.array([p])):
            assert np.asarray(route(exponent)).tobytes() == want.tobytes(), (name, exponent)


@pytest.mark.parametrize("bad", [0.5, np.inf, np.nan])
@pytest.mark.parametrize("function", ["lp_norm", "lp_action", "weighted_average_th"])
def test_every_exponent_of_an_array_must_be_finite_and_at_least_one(s3_q, s3_t, function, bad):
    # one bad exponent among good ones refuses the whole call
    rho = ca.RhoFunction(s3_q, np.ones((3, 3)))
    phi = ca.DensityFunction(ca.quotient_carrier(s3_q), np.ones((3, 3)))
    p = np.array([1.0, bad, 2.0])
    call = {"lp_norm": lambda: ca.lp_norm(ca.quasi_invariant_lambda(s3_q, rho), phi, p),
            "lp_action": lambda: ca.lp_action(s3_t, rho, "left", ca.delta_h(s3_q), phi, p),
            "weighted_average_th": lambda: ca.weighted_average_th(
                s3_q, rho, p, ca.compose_with_projection(s3_q, phi))}[function]
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        call()


@pytest.mark.parametrize("bad,name", [("2", "str"), (b"2", "bytes"), (True, "bool"),
                                      (2 + 0j, "complex"), (Fraction(2), "Fraction"),
                                      (np.array(["2", "3", "1"]), "<U1"),
                                      (np.array([True, False, True]), "bool")],
                         ids=["str", "bytes", "bool", "complex", "Fraction", "str array",
                              "bool array"])
@pytest.mark.parametrize("function", ["lp_norm", "lp_action", "weighted_average_th"])
def test_an_exponent_must_be_an_integer_or_float(s3_q, s3_t, function, bad, name):
    # numpy would read "2" and b"2" as 2.0 and True as 1.0; each is refused
    # by type, while a float array of one exponent per vector still runs
    rho = ca.RhoFunction(s3_q, np.ones((3, 3)))
    phi = ca.DensityFunction(ca.quotient_carrier(s3_q), np.ones((3, 3)))
    call = {"lp_norm": lambda p: ca.lp_norm(ca.quasi_invariant_lambda(s3_q, rho), phi, p),
            "lp_action": lambda p: ca.lp_action(s3_t, rho, "left", ca.delta_h(s3_q), phi,
                                                p).values,
            "weighted_average_th": lambda p: ca.weighted_average_th(
                s3_q, rho, p, ca.compose_with_projection(s3_q, phi)).values}[function]
    with pytest.raises(TypeError, match=f"^p must be an integer or float, not {re.escape(name)}$"):
        call(bad)
    for p in (np.array([1.0, 2.0, 1.5]), np.array([1, 2, 3])):
        assert np.shape(call(p)) == ((3,) if function == "lp_norm" else (3, 3))


# --- identity solving -----------------------------------------------------------------

def test_left_identity_normal_cases(s3, s3_a3):
    T = ca.structure_table(ca.build_coset_space(s3, s3_a3))
    sol = ca.find_left_identity(T)
    assert sol.solution == (Fraction(1), Fraction(0))
    assert sol.residual == 0.0 and sol.unique
    Qe = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    sol_e = ca.find_left_identity(ca.structure_table(Qe))
    assert sol_e.solution is not None
    assert sol_e.solution[Qe.base_coset] == 1
    assert sum(map(abs, sol_e.solution)) == 1


def test_left_identity_nonnormal_is_infeasible(s3_t):
    sol = ca.find_left_identity(s3_t)
    assert sol.solution is None and not sol.unique
    assert sol.residual == pytest.approx(1.0, abs=1e-9)  # frozen least-squares residual


def test_two_sided_identity(s3, s3_t, s3_a3):
    assert ca.find_two_sided_identity(s3_t).solution is None
    T = ca.structure_table(ca.build_coset_space(s3, s3_a3))
    sol = ca.find_two_sided_identity(T)
    assert sol.solution == (Fraction(1), Fraction(0)) and sol.unique


def _d60_table(generator):
    G = ca.builtin_catalog("dihedral", 60)
    H = ca.generate_subgroup(G, [ca.find_element(G, perm_label(generator))])
    return ca.structure_table(ca.build_coset_space(G, H))


def test_d60_reflection_subgroup_has_no_identity():
    T = _d60_table(tuple(-i % 60 for i in range(60)))
    for solver in (ca.find_left_identity, ca.find_two_sided_identity):
        sol = solver(T)
        assert sol.solution is None and not sol.unique
        assert sol.residual == pytest.approx(math.sqrt(29), rel=1e-12)


def test_d60_center_has_unique_left_identity():
    T = _d60_table(tuple((i + 30) % 60 for i in range(60)))
    sol = ca.find_left_identity(T)
    base = T.quotient.base_coset
    assert sol.unique and sol.residual == 0.0
    assert sol.solution == tuple(Fraction(int(c == base)) for c in range(60))


@pytest.mark.parametrize("solver", [ca.find_left_identity, ca.find_two_sided_identity],
                         ids=["left", "two-sided"])
@pytest.mark.parametrize("perm", [tuple(-i % 60 for i in range(60)),
                                  tuple((i + 30) % 60 for i in range(60))],
                         ids=["inconsistent", "unique"])
def test_identity_byte_check_covers_the_solve_peak(monkeypatch, solver, perm):
    T = _d60_table(perm)
    checked, peak = checked_peak(monkeypatch, qa, lambda: solver(T))
    # a unique solution is decided under one check, on the factors; an
    # inconsistent system (the reflection fixes 0) adds the residual's check
    assert len(checked) == (2 if perm[0] == 0 else 1)
    assert peak <= max(checked)


@pytest.mark.parametrize("entry", default_catalog()[:1] + default_catalog()[-1:],
                         ids=lambda e: e.name)
def test_identity_byte_check_covers_small_solves(monkeypatch, entry):
    G, H = build_entry(entry)
    T = ca.structure_table(ca.build_coset_space(G, H))
    for solver in (ca.find_left_identity, ca.find_two_sided_identity):
        solver(T)   # warm: first calls import and cache
        checked, peak = checked_peak(monkeypatch, qa, lambda: solver(T))
        assert peak <= max(checked)


def test_identity_solve_over_budget_refused_before_allocating(monkeypatch):
    T = _d60_table(tuple(-i % 60 for i in range(60)))
    checked = checked_peak(monkeypatch, qa, lambda: ca.find_two_sided_identity(T))[0]
    monkeypatch.undo()
    decision, residual = checked
    assert decision < residual
    for budget, what in ((decision - 1, "identity decision"),
                         (residual - 1, "identity residual")):
        monkeypatch.setattr(ca.groups, "BYTE_BUDGET", budget)

        def refused():
            with pytest.raises(CapExceeded, match=f"{what} with 60 cosets"):
                ca.find_two_sided_identity(T)

        peak = traced_peak(refused)
        assert peak <= budget
        if what == "identity decision":     # before the masks are built
            assert peak < decision // 2
        else:                               # before the permutation tests
            assert peak <= decision


def _oracle_identity(T, sides):
    """The Fraction-row identity system and its solve, as first written:
    (solution, unique, residual). Zero and repeated rows, which leave the
    RREF unchanged, are dropped before the elimination."""
    k, den = T.coset_count, T.quotient.subgroup.order
    counts = T.counts.tolist()
    frac = [Fraction(v, den) for v in range(den + 1)]
    rows, rhs = [], []
    for side in sides:
        for b in range(k):
            for z in range(k):
                rows.append([frac[counts[a][b][z] if side == "left" else counts[b][a][z]]
                             for a in range(k)])
                rhs.append(Fraction(int(z == b)))

    def distinct(rows):
        return [list(r) for r in dict.fromkeys(map(tuple, rows)) if any(r)]

    m, pivots = _rref_fractions(distinct(r + [v] for r, v in zip(rows, rhs)))
    if k not in pivots:
        sol = [Fraction(0)] * k
        for r, pc in enumerate(pivots):
            sol[pc] = m[r][k]
        return tuple(sol), len(_rref_fractions(distinct(rows))[1]) == k, 0.0
    A = np.array([[float(v) for v in row] for row in rows])
    bb = np.array([float(v) for v in rhs])
    lsq = np.linalg.lstsq(A, bb, rcond=None)[0]
    return None, False, float(np.linalg.norm(A @ lsq - bb))


def _matches_oracle(T):
    for solver, sides in ((ca.find_left_identity, ("left",)),
                          (ca.find_two_sided_identity, ("left", "right"))):
        sol = solver(T)
        solution, unique, residual = _oracle_identity(T, sides)
        # the closed form and the oracle's SVD lstsq round apart in the last ulp
        assert (sol.solution, sol.unique) == (solution, unique)
        assert sol.residual == pytest.approx(residual, rel=1e-12, abs=0)


IDENTITY_PAIRS = [("builtin:S4", ["(12)"]), ("builtin:S5", ["(12)"]),
                  ("builtin:A5", ["(123)"]), ("builtin:D6", ["(26)(35)"]),
                  ("builtin:D6", ["(14)(25)(36)"])]


@pytest.mark.parametrize("entry", default_catalog(), ids=lambda e: e.name)
def test_identity_solvers_match_fraction_oracle(entry):
    G, H = build_entry(entry)
    _matches_oracle(ca.structure_table(ca.build_coset_space(G, H)))


@pytest.mark.parametrize("group,gens", IDENTITY_PAIRS,
                         ids=["S4/<(12)>", "S5/<(12)>", "A5/<(123)>", "D6/<s>", "D6/<r^3>"])
def test_identity_solvers_match_fraction_oracle_beyond_catalog(group, gens):
    G = ca.builtin_from_token(group)
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens)))
    _matches_oracle(T)


def test_identity_solvers_match_fraction_oracle_with_relabelled_identity(relabelled_s3_pair):
    T = ca.structure_table(ca.build_coset_space(*relabelled_s3_pair))
    base = T.quotient.base_coset
    assert oracle_factors(T.quotient)[0][base].tolist() == [0, 2, 1]
    assert T.rel[base].tolist() == T.segments[3].tolist() == [0, 1, 1]
    _matches_oracle(T)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_identity_residual_counts_the_double_cosets(data):
    # random subgroups and representatives: the residual squared is k less
    # Burnside's count of H-orbits on the cosets, (1/|H|) sum_h fix(h), read
    # off the group table, and both solvers match the Fraction-row oracle
    G = small_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    H = ca.generate_subgroup(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=3)))
    Q = ca.build_coset_space(G, H)
    k = Q.coset_count
    T = ca.structure_table(Q, [data.draw(st.sampled_from(Q.members(c).tolist()))
                               for c in range(k)])
    members = np.array(H.members, dtype=np.int64)
    fixed = np.count_nonzero(Q.coset_of[G.mul[members[:, None], Q.reps]] == np.arange(k))
    assert fixed % H.order == 0
    for solver in (ca.find_left_identity, ca.find_two_sided_identity):
        assert solver(T).residual ** 2 == pytest.approx(k - fixed // H.order, rel=1e-12, abs=1e-12)
    _matches_oracle(T)


@pytest.mark.parametrize("group,gens", [("builtin:S3", ["(12)"])] + IDENTITY_PAIRS[3:],
                         ids=["S3/<(12)>", "D6/<s>", "D6/<r^3>"])
def test_base_coset_sharing_its_suborbit_is_refused(monkeypatch, group, gens):
    # the suborbits of the base coset and the next merged under the lesser
    # of their labels: each suborbit is still labelled by its least member,
    # but the base coset shares its suborbit, so the rows (base, z) no
    # longer pin delta_H
    G = ca.builtin_from_token(group)
    H = ca.subgroup_from_tokens(G, gens)
    T = ca.structure_table(ca.build_coset_space(G, H))
    base = T.quotient.base_coset
    pair = T.labels[[base, (base + 1) % T.coset_count]]
    labels = T.labels.copy()
    labels[np.isin(labels, pair)] = pair.min()
    planted = planted_table(T, labels=labels)
    _assert_refused(monkeypatch, G, H, planted,
                    (ca.find_left_identity, ca.find_two_sided_identity))


def test_suborbit_column_faults_are_refused(monkeypatch):
    # S4/<(12)>: coset 7 moved to the suborbit {8, 10}, so that suborbit's
    # label is not its least member, and the label of {9} is no member of
    # it; or the suborbit {1, 2} labelled 2. The base coset is still a
    # suborbit of its own
    G = ca.builtin_from_token("S4")
    H = ca.subgroup_from_tokens(G, ["(12)"])
    T = ca.structure_table(ca.build_coset_space(G, H))
    assert T.labels[[1, 2, 7, 8, 9, 10]].tolist() == [1, 1, 7, 8, 7, 8]
    moved = T.labels.copy()
    moved[7] = 8
    relabelled = T.labels.copy()
    relabelled[[1, 2]] = 2
    for labels in (moved, relabelled):
        planted = dataclasses.replace(T, labels=labels)
        _assert_refused(monkeypatch, G, H, planted,
                        (ca.find_left_identity, ca.find_two_sided_identity))
        monkeypatch.undo()


def _assert_refused(monkeypatch, G, H, planted, readers):
    """Each reader of the planted table raises, and the C13 and T8 checks
    run on it report the error as a failing record, in both modes."""
    for read in readers:
        with pytest.raises(ValueError, match="corrupt structure table"):
            read(planted)
    monkeypatch.setattr(verifier, "structure_table",
                        lambda Q: dataclasses.replace(planted, quotient=Q))
    for mode in ("float", "exact"):
        for cid in ("C13_UNIQUE_ID", "T8_ALGEBRA"):
            report = verifier.run_check(verifier.CheckSpec(id=cid, trials=3, mode=mode),
                                        verifier.make_context(G, H))
            assert report.status == "fail", report
            assert "corrupt structure table" in report.counterexample["error"], report


def test_corrupt_shift_is_refused(monkeypatch):
    # S4/<(12)>: two non-base rows of the oracle's shift swap their entries
    # in a column off the diagonal and off the base coset, which lie in
    # different suborbits. The base-coset rows of rel still pin delta_H, but
    # neither row of rel holds each suborbit its size times
    G = ca.builtin_from_token("S4")
    H = ca.subgroup_from_tokens(G, ["(12)"])
    T = ca.structure_table(ca.build_coset_space(G, H))
    assert T.quotient.base_coset == 0 and T.rel[1, 3] != T.rel[2, 3]
    shift = oracle_factors(T.quotient)[0]
    shift[[1, 2], 3] = shift[[2, 1], 3]
    planted = planted_table(T, shift=shift)
    assert np.count_nonzero(planted.rel != T.rel) == 2
    _assert_refused(monkeypatch, G, H, planted,
                    (ca.find_left_identity, ca.find_two_sided_identity,
                     lambda T: T.counts, lambda T: T.c))


def test_identity_decision_on_hand_built_tables():
    # C3/{e} and C4/{e} (base coset 0) with one factor changed
    def planted(token, rel=None, labels=None):
        G = ca.builtin_from_token(token)
        T = ca.structure_table(ca.build_coset_space(G, ca.generate_subgroup(G, [])))
        assert T.quotient.base_coset == 0
        return qa.StructureTable(T.quotient,
                                 T.rel if rel is None else np.array(rel, dtype=T.rel.dtype),
                                 T.labels if labels is None else np.array(labels, dtype=np.int32))

    # C4/{e} with the suborbit {1, 2}, labelled by its least member and kept
    # by rel[base], but row 1 of rel holds suborbit 2 twice: the system is
    # inconsistent, and its residual, which presumes rows of translations,
    # refuses the table
    broken = planted("C4", [[0, 1, 1, 2], [1, 0, 2, 2], [1, 2, 0, 1], [2, 1, 1, 0]],
                     [0, 1, 1, 3])
    for solver in (ca.find_left_identity, ca.find_two_sided_identity):
        with pytest.raises(ValueError, match="corrupt structure table"):
            solver(broken)
    # on C3/{e}, where rank is the identity: rel holds the base coset's
    # suborbit off the diagonal, or not on it, or rel[base] moves coset 1 to
    # suborbit 2: the rows (base, z) do not pin delta_H
    for rel in ([[0, 1, 2], [0, 0, 1], [1, 2, 0]], [[0, 1, 2], [2, 1, 0], [1, 2, 0]],
                [[0, 2, 1], [1, 0, 2], [2, 1, 0]]):
        for solver in (ca.find_left_identity, ca.find_two_sided_identity):
            with pytest.raises(ValueError, match="corrupt structure table"):
                solver(planted("C3", rel))
    # the base coset shares the suborbit {0, 1}, consistently labelled
    for solver in (ca.find_left_identity, ca.find_two_sided_identity):
        with pytest.raises(ValueError, match="corrupt structure table"):
            solver(planted("C3", labels=[0, 0, 2]))


def test_degenerate_whole_group(s3):
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, list(range(6))))
    T = ca.structure_table(Q)
    assert Q.coset_count == 1
    assert np.array_equal(T.counts, np.array([[[6]]]))
    sol = ca.find_two_sided_identity(T)
    assert sol.solution == (Fraction(1),)


@pytest.mark.parametrize("token,gens,dtype", [
    ("S4", ["(12)"], np.int8), ("C127", None, np.int8), ("C128", None, np.int16),
    ("S6", ["(123)", "(23456)"], np.int16), ("S6", None, np.int16),
], ids=["S4/<(12)>", "C127/C127", "C128/C128", "S6/A6", "S6/S6"])
def test_counts_dtype_holds_the_subgroup_order(token, gens, dtype):
    # the narrowest signed integer dtype that holds |H|; None: H = G, k = 1
    G = ca.builtin_from_token(token)
    H = (ca.generate_subgroup(G, list(range(G.order))) if gens is None
         else ca.subgroup_from_tokens(G, gens))
    T = ca.structure_table(ca.build_coset_space(G, H))
    assert T.counts.dtype == dtype and T.c.dtype == np.float64
    assert (T.counts.sum(axis=2) == H.order).all() and T.counts.max() == H.order
    assert np.array_equal(T.c, T.counts / H.order)
    for view in (T.counts, T.c):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 0


C_PAIRS = [(e.group.removeprefix("builtin:"), list(e.subgroup)) for e in ca.default_catalog()] + [
    ("S5", []), ("S5", ["(12)", "(123)"]), ("S6", ["(12)", "(345)"]), ("A5", ["(123)"]),
]


@pytest.mark.parametrize("token,gens", C_PAIRS, ids=[e.name for e in ca.default_catalog()]
                         + ["S5/{e}", "S5/<(12),(123)>", "S6/<(12),(345)>", "A5/<(123)>"])
def test_c_is_counts_over_the_subgroup_order_bit_for_bit(token, gens):
    # every suborbit size divides |H|, so (|H|/|O_b|) / |H| rounds to the
    # double that 1/|O_b| rounds to: c keeps the bits of the float gather
    # of the suborbit indicator over |O_b|
    G = ca.builtin_from_token(token)
    H = ca.subgroup_from_tokens(G, gens)
    T = ca.structure_table(ca.build_coset_space(G, H))
    m = (np.arange(len(T.segments[2]))[:, None] == T.segments[3]) / T.suborbit_sizes
    bits = T.c.view(np.uint64)
    assert np.array_equal(bits, (T.counts / H.order).view(np.uint64))
    assert np.array_equal(bits, m.take(T.rel, axis=0).transpose(0, 2, 1).view(np.uint64))


def _view_requests(monkeypatch, T, view, short=None):
    """The byte requests that reading a fresh table's view makes, as
    [nbytes, bytes held at the request, what is allocated from it until the
    next request] (traced), and the CapExceeded raised, if any; with short=i,
    the budget is one byte below request i from that request on."""
    requests = []

    def spy(nbytes, what):
        if requests:
            requests[-1][2] = tracemalloc.get_traced_memory()[1] - requests[-1][1]
        requests.append([nbytes, tracemalloc.get_traced_memory()[0], 0])
        if len(requests) == short:
            monkeypatch.setattr(ca.groups, "BYTE_BUDGET", nbytes - 1)
        tracemalloc.reset_peak()
        ca.groups.require_bytes(nbytes, what)

    monkeypatch.setattr(qa, "require_bytes", spy)
    tracemalloc.start()
    try:
        getattr(T, view)
        refused = None
    except CapExceeded as e:
        refused = e
    finally:
        requests[-1][2] = tracemalloc.get_traced_memory()[1] - requests[-1][1]
        tracemalloc.stop()
        monkeypatch.undo()
    return requests, refused


@pytest.mark.parametrize("token,gens", [("S5", []), ("S6", ["(12)"])],
                         ids=["S5/{e}", "S6/<(12)>"])
def test_dense_views_within_their_byte_checks(monkeypatch, token, gens):
    # k = 120 and 360: counts requests the suborbit histogram test of rel and then
    # its gather, and c, read first, those two and then its own division.
    # What each request is followed by stays within it, and a budget one
    # byte short at any request refuses the view there, before it allocates
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    k = Q.coset_count
    for view, count in (("counts", 2), ("c", 3)):
        requests, refused = _view_requests(monkeypatch, ca.structure_table(Q), view)
        assert refused is None and len(requests) == count, view
        assert requests[0][0] == 3 * k * k + (1 << 16), view   # uint8 rel
        for nbytes, _, grown in requests:
            assert grown <= nbytes, (view, grown, nbytes)
        assert requests[-1][2] > getattr(ca.structure_table(Q), view).nbytes, view
        for short in range(1, count + 1):
            T = ca.structure_table(Q)
            requests, refused = _view_requests(monkeypatch, T, view, short)
            assert re.search(f"dense structure tensor with {k}", str(refused)), (view, short)
            # the refusal's message and traceback alone
            assert len(requests) == short and requests[-1][2] < 1 << 14, (view, short, requests)
            assert view not in T.__dict__


def test_carrier_guards(s3_q, s3_t, d4, same_labelled_quotients):
    other = ca.point_mass(ca.quotient_carrier(
        ca.build_coset_space(d4, ca.subgroup_from_tokens(d4, ["(24)"]))), 0)
    with pytest.raises(CarrierMismatch):
        ca.quotient_convolve(s3_t, other, other)
    # S3/A3 and C4/<(13)(24)> have the same labels: C4's operators refuse
    # a measure or density on S3/A3, in either operand
    s3_a3_q, Q = same_labelled_quotients
    T, rho = ca.structure_table(Q), ca.rho_ones(Q)
    lam = ca.quasi_invariant_lambda(Q, rho)
    sigma, foreign = ca.point_mass(Q, 1), ca.point_mass(s3_a3_q, 1)
    phi, foreign_phi = (ca.DensityFunction(X, [1, 2]) for X in (Q, s3_a3_q))
    refused = [
        lambda: ca.quotient_convolve(T, sigma, foreign),
        lambda: ca.quotient_convolve(T, foreign, sigma),
        lambda: ca.module_action(Q, ca.point_mass(Q.group, 1), foreign),
        lambda: ca.embed_density(lam, foreign_phi),
        lambda: ca.lp_action(T, rho, "left", foreign, phi, 2.0),
        lambda: ca.lp_action(T, rho, "right", sigma, foreign_phi, 2.0),
        lambda: ca.l1_convolve(T, lam, phi, foreign_phi),
        lambda: ca.l1_convolve(T, lam, foreign_phi, phi),
        lambda: ca.ideal_factorize(lam, T, foreign_phi, sigma),
        lambda: ca.ideal_factorize(lam, T, phi, foreign),
    ]
    for op in refused:
        with pytest.raises(CarrierMismatch, match="carriers differ"):
            op()


def test_quotient_convolution_refused_before_allocating(monkeypatch):
    # S5/<(12)>, 60 cosets: the right L^p action runs through the quotient
    # convolution kernel, whose one byte check covers the traced peak; within
    # that budget less one byte the kernel refuses before its k x k gather,
    # and so do the left action and the L^1 convolution
    G = ca.builtin_from_token("S5")
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"]))
    T, rho, qc, g = ca.structure_table(Q), ca.rho_ones(Q), ca.quotient_carrier(Q), rng(26)
    lam = ca.quasi_invariant_lambda(Q, rho)
    sigma = ca.ComplexMeasure(qc, random_weights(g, 60))
    phi = ca.DensityFunction(qc, random_weights(g, 60))

    def right():
        return ca.lp_action(T, rho, "right", sigma, phi, 2.0)

    checked, peak = checked_peak(monkeypatch, _kernels, right)
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match="quotient convolution with 60 cosets"):
            right()

    assert traced_peak(refused) < checked[0] // 10
    with pytest.raises(CapExceeded, match="quotient convolution"):
        ca.lp_action(T, rho, "left", sigma, phi, 2.0)
    with pytest.raises(CapExceeded, match="quotient convolution"):
        ca.l1_convolve(T, lam, phi, phi)


def test_exact_quotient_convolution_refused_before_allocating(monkeypatch):
    # S5/<(12)>, 60 cosets, numerators beyond int64: the one byte check covers
    # the traced peak of the k² Python-int products, and within that budget
    # less one byte the call refuses before building them
    G = ca.builtin_from_token("S5")
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"])))
    g = rng(28)
    s1, s2 = (ExactVector(*(np.array([int(v) << 64 for v in g.integers(-99, 100, 60)],
                                     dtype=object) for _ in range(2)), 7)
              for _ in range(2))
    assert s1.re.dtype == object and s2.im.dtype == object

    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: ca.quotient_convolve_exact(T, s1, s2))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match="exact quotient convolution with 60 cosets"):
            ca.quotient_convolve_exact(T, s1, s2)

    assert traced_peak(refused) < checked[0] // 10


@pytest.mark.parametrize("token,gens", [("S3", ["(12)"]), ("D4", ["(24)"]), ("Q8", ["i"]),
                                        ("S4", ["(12)", "(123)"]), ("S5", ["(12)"])],
                         ids=["S3/<(12)>", "D4/<s>", "Q8/<i>", "S4/S3", "S5/<(12)>"])
def test_stacked_factors_give_the_table_of_each_choice(token, gens):
    # the oracle's factors of ten representative choices, gathered as one
    # stack and as a 2 x 5 stack: choice for choice, structure_table gives
    # their labels and rel = rank[shift], and the count tensor of the
    # definition
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    k = Q.coset_count
    choices = verifier._alternative_reps(rng(76), Q, 10)
    shift, labels = oracle_factors(Q, choices)
    assert shift.shape == (10, k, k) and labels.shape == (10, k)
    nested = oracle_factors(Q, choices.reshape(2, 5, k))
    assert np.array_equal(nested[0].reshape(10, k, k), shift)
    assert np.array_equal(nested[1].reshape(10, k), labels)
    for j, alt in enumerate(choices):
        T = ca.structure_table(Q, alt)
        rank = np.unique(labels[j], return_inverse=True)[1]
        assert np.array_equal(T.rel, rank[shift[j]]) and np.array_equal(T.labels, labels[j])
        assert np.array_equal(T.counts, onehot_counts(Q, alt))


REL_PAIRS = C_PAIRS + [
    ("S4", ["(12)"]), ("S4", ["(12)(34)", "(13)(24)"]), ("A4", ["(12)(34)"]), ("S5", ["(12)"]),
    ("D6", ["(26)(35)"]), ("D6", ["(14)(25)(36)"]), ("S6", ["(12)"]), ("S6", ["(12)", "(12345)"]),
    ("S6", []), ("C256", []), ("C257", []), ("relabelled", None)]


@pytest.mark.parametrize("token,gens", REL_PAIRS, ids=[
    *(e.name for e in ca.default_catalog()), "S5/{e}", "S5/<(12),(123)>", "S6/<(12),(345)>",
    "A5/<(123)>", "S4/<(12)>", "S4/V4", "A4/<(12)(34)>", "S5/<(12)>", "D6/<(26)(35)>",
    "D6/<(14)(25)(36)>", "S6/<(12)>", "S6/<(12),(12345)>", "S6/{e}", "C256/{e}", "C257/{e}",
    "S3 relabelled"])
def test_rel_is_the_rank_of_the_oracle_shift(request, token, gens):
    # the default representatives and two random choices on every catalog
    # and test pair: rel is rank[shift] for the oracle's shift, read-only,
    # in uint8 up to 256 suborbits and in uint16 beyond, and the labels are
    # the oracle's
    if token == "relabelled":
        G, H = request.getfixturevalue("relabelled_s3_pair")
    else:
        G = ca.builtin_from_token(token)
        H = ca.subgroup_from_tokens(G, gens)
    Q = ca.build_coset_space(G, H)
    for reps in (None, *verifier._alternative_reps(rng(80), Q, 2)):
        T = ca.structure_table(Q, reps)
        assert T.rel.dtype == (np.uint8 if len(T.segments[2]) <= 256 else np.uint16)
        assert np.array_equal(T.rel, oracle_rel(Q, reps))
        assert np.array_equal(T.labels, oracle_factors(Q, reps)[1])
        with pytest.raises(ValueError, match="read-only"):
            T.rel[0, 0] = 0


def test_rel_rows_within_their_byte_check(monkeypatch):
    # S6/<(12)>, 360 cosets: the row-block builder makes one check, of one
    # block of about BLOCK_BYTES; its blocks are rel's rows in order, and
    # walking them while comparing each with rel, as the probe does, stays
    # within the check; one byte short refuses before the first block
    G = ca.builtin_from_token("S6")
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"]))
    T, k = ca.structure_table(Q), Q.coset_count
    elem_rank = T.segments[3].astype(T.rel.dtype).take(Q.coset_of)
    rows = _kernels.BLOCK_BYTES // (20 * k)

    def walk():
        starts = []
        for start, block in qa._rel_rows(Q, Q.reps, elem_rank, "rel rows"):
            assert np.array_equal(block, T.rel[start:start + len(block)])
            starts.append(start)
        return starts

    assert walk() == list(range(0, k, rows)) and len(walk()) == 3
    checked, peak = checked_peak(monkeypatch, qa, walk)
    assert checked == [20 * rows * k + (1 << 15)] and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)
    with pytest.raises(CapExceeded, match="^rel rows needs"):
        walk()


@pytest.mark.parametrize("token,gens", [("S4", ["(12)"]), ("S5", ["(12)"]),
                                        ("S5", ["(12)", "(123)"])],
                         ids=["S4/<(12)>", "S5/<(12)>", "S5/<(12),(123)>"])
def test_one_choice_factors_within_their_byte_check(monkeypatch, token, gens):
    # one representative choice on a small pair: the labels' check and then
    # the row blocks' check, which counts rel, each cover the traced peak up
    # to the next; numpy's fancy-index buffers, not the per-entry arrays,
    # set the first
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    ca.structure_table(Q)
    requests = []

    def spy(nbytes, what):
        requests.append([nbytes, tracemalloc.get_traced_memory()[1]])
        tracemalloc.reset_peak()
        ca.groups.require_bytes(nbytes, what)

    monkeypatch.setattr(qa, "require_bytes", spy)
    tracemalloc.start()
    try:
        T = ca.structure_table(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(requests) == 2 and requests[1][0] > T.rel.nbytes
    for (nbytes, _), grown in zip(requests, [requests[1][1], peak]):
        assert grown <= nbytes, (grown, nbytes)


@pytest.mark.parametrize("bits", [256, 1024])
def test_exact_quotient_convolution_byte_check_grows_with_the_numerators(monkeypatch, bits):
    # S3/<(12)>, a batch of three vectors with numerators ~2**bits: the sums
    # and products grow with their bit length, and so does the one check,
    # which covers the peak and refuses a budget one byte short
    G = ca.builtin_from_token("S3")
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"])))
    g = rng(75)
    s1, s2 = (ExactVector(*(np.array([[int(v) << bits for v in row]
                                      for row in g.integers(-99, 100, (3, 3))], dtype=object)
                            for _ in range(2)), 7)
              for _ in range(2))
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: ca.quotient_convolve_exact(T, s1, s2))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match="exact quotient convolution with 3 cosets"):
            ca.quotient_convolve_exact(T, s1, s2)

    # at three cosets the refusal's own objects outweigh a tenth of the check
    assert traced_peak(refused) < 1 << 13


@pytest.mark.parametrize("kind", ["int64", "widening"])
@pytest.mark.parametrize("token,gens", [("S4", ["(12)", "(123)"]), ("S5", ["(12)"])],
                         ids=["S4/S3", "S5/<(12)>"])
def test_exact_quotient_convolution_byte_check_int64_operands(monkeypatch, token, gens, kind):
    # int64 numerators, whose products stay in int64 or leave it: the one
    # check covers the traced peak, and one byte short it refuses
    G = ca.builtin_from_token(token)
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens)))
    k, g = T.coset_count, rng(29)
    top = 5 if kind == "int64" else 2 ** 40
    s1, s2 = (ExactVector(*g.integers(-top, top, (2, k)), 3) for _ in range(2))
    assert s1.re.dtype == np.int64
    out = ca.quotient_convolve_exact(T, s1, s2)
    assert out.re.dtype == (np.int64 if kind == "int64" else object)
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: ca.quotient_convolve_exact(T, s1, s2))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=f"exact quotient convolution with {k} cosets"):
            ca.quotient_convolve_exact(T, s1, s2)

    # the exception and its message take ~3.6 KB on S4/S3
    assert traced_peak(refused) < checked[0] // 2


def test_exact_means_keep_int64_numerators_where_the_cycled_table_did(monkeypatch):
    # S4/S3, suborbits of 1 and 3 cosets, numerators 2**29: a mean's
    # numerator is at most lcm(1, 3) = 3 times a term, so the products stay
    # below 2**63 as the cycled table's did; bounding a suborbit's sum by
    # its largest suborbit before scaling by 3 / size would widen them
    G = ca.builtin_from_token("S4")
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)", "(123)"])))
    s = ExactVector(np.full(4, 2 ** 29), np.zeros(4, dtype=np.int64))
    out = ca.quotient_convolve_exact(T, s, s)
    assert out.re.dtype == np.int64 and out.bound < 2 ** 63
    assert out == cycled_quotient_convolve(*oracle_factors(T.quotient), s, s)
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: ca.quotient_convolve_exact(T, s, s))
    assert checked == [40 * (4 * 4 + 4 * 4) + (1 << 13)] and peak <= checked[0]   # int64


def test_actions_reuse_the_table(monkeypatch, s3_q, s3_t):
    # the L^p actions and the L^1 convolution read the table they are given
    # and never rebuild its relation matrix
    def rebuild(*args):
        raise AssertionError("structure table factors rebuilt")

    monkeypatch.setattr(qa, "_rel_rows", rebuild)
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    g = rng(27)
    sigma = random_measure(g, s3_q)
    phi = ca.DensityFunction(ca.quotient_carrier(s3_q), random_weights(g, 3))
    for side in ("left", "right"):
        ca.lp_action(s3_t, rho, side, sigma, phi, 2.0)
    ca.l1_convolve(s3_t, lam, phi, phi)
