import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import cosetalg as ca
from cosetalg import exact
from cosetalg.errors import CarrierMismatch
from cosetalg.exact import ComplexFraction, _rref_fractions
from cosetalg.groups import perm_label
from cosetalg.verifier import (_l1_convolve_operator, _lp_action_operator,
                               build_entry, default_catalog)

from conftest import random_weights, rng

# independently derived count tensor for S3 / <(12)>, cosets
# C0={e,(12)}, C1={(123),(13)}, C2={(23),(132)}, denominator 2
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
    assert s3_t.denominator == 2
    assert np.array_equal(s3_t.counts, S3_COUNTS)
    assert s3_t.row(1, 2) == [Fraction(1, 2), Fraction(0), Fraction(1, 2)]


def test_structure_table_row_stochastic_catalog():
    from cosetalg.verifier import build_entry, default_catalog
    for entry in default_catalog():
        G, H, _ = build_entry(entry)
        T = ca.structure_table(ca.build_coset_space(G, H))
        assert (T.counts.sum(axis=2) == T.denominator).all()


def test_normal_subgroup_gives_factor_group_table(s3, s3_a3):
    T = ca.structure_table(ca.build_coset_space(s3, s3_a3))
    assert T.is_point_mass_table()
    # the induced table is the Cayley table of C2
    factor = np.argmax(T.counts, axis=2)
    assert np.array_equal(factor, [[0, 1], [1, 0]])


def test_trivial_subgroup_table_is_cayley(s3):
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    T = ca.structure_table(Q)
    assert T.is_point_mass_table()
    assert np.array_equal(np.argmax(T.counts, axis=2), s3.mul)


def test_representative_independence_exhaustive(s3_q, d4):
    # every joint choice of representatives yields the same tensor
    base = ca.structure_table(s3_q).counts
    member_lists = [list(map(int, s3_q.members(c))) for c in range(s3_q.coset_count)]
    for choice in itertools.product(*member_lists):
        assert np.array_equal(ca.structure_counts_for_reps(s3_q, list(choice)), base)
    H = ca.subgroup_from_tokens(d4, ["(24)"])
    Q = ca.build_coset_space(d4, H)
    base4 = ca.structure_table(Q).counts
    member_lists = [list(map(int, Q.members(c))) for c in range(Q.coset_count)]
    for choice in itertools.product(*member_lists):
        assert np.array_equal(ca.structure_counts_for_reps(Q, list(choice)), base4)


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
            assert int(s3_t.counts[a, b0, z]) == (s3_t.denominator if z == a else 0)


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
    s1 = [ComplexFraction.of(int(nums[0, i, 0]), int(nums[0, i, 1])) for i in range(k)]
    s2 = [ComplexFraction.of(int(nums[1, i, 0]), int(nums[1, i, 1])) for i in range(k)]
    out = ca.quotient_convolve_exact(s3_t, s1, s2)
    qcar = ca.quotient_carrier(s3_t.quotient)
    f1 = ca.ComplexMeasure(qcar, [w.to_complex() for w in s1])
    f2 = ca.ComplexMeasure(qcar, [w.to_complex() for w in s2])
    want = ca.quotient_convolve(s3_t, f1, f2)
    assert np.max(np.abs(np.array([w.to_complex() for w in out]) - want.weights)) < 1e-13


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
    out = ca.l1_convolve(Q, rho, lam, ca.DensityFunction(qcar, f1),
                         ca.DensityFunction(qcar, f2))
    want = np.zeros(6, dtype=complex)
    for x in range(6):
        for y in range(6):
            want[s3.op(x, y)] += f1[x] * f2[y]
    assert np.max(np.abs(out.values - want)) < 1e-13


def test_l1_convolve_indicator_frozen(s3_q):
    # phi = psi = indicator of C0, rho = 1: the result is 2 * indicator of C0
    rho = ca.rho_ones(s3_q)
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    qcar = ca.quotient_carrier(s3_q)
    ind = ca.DensityFunction(qcar, [1.0, 0.0, 0.0])
    out = ca.l1_convolve(s3_q, rho, lam, ind, ind)
    assert np.max(np.abs(out.values - np.array([2.0, 0, 0]))) < 1e-14


def test_l1_convolve_linearity(s3_q):
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    qcar = ca.quotient_carrier(s3_q)
    g = rng(46)
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    psi = ca.DensityFunction(qcar, random_weights(g, 3))
    a = 2.0 - 1.5j
    lhs = ca.l1_convolve(s3_q, rho, lam, a * phi, psi)
    rhs = a * ca.l1_convolve(s3_q, rho, lam, phi, psi)
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


def test_lp_action_point_mass_formula(s3, s3_q):
    # acting by the base-coset point mass averages over translated cosets
    rho = ca.rho_ones(s3_q)
    qcar = ca.quotient_carrier(s3_q)
    g = rng(49)
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    out = ca.lp_action(s3_q, rho, "left", ca.delta_h(s3_q), phi, 1.0)
    members = [int(m) for m in s3_q.subgroup.members]
    want = np.zeros(3, dtype=complex)
    for c in range(3):
        x = int(s3_q.reps[c])
        want[c] = sum(phi.values[s3_q.coset_of[s3.op(h, x)]] for h in members) / len(members)
    assert np.max(np.abs(out.values - want)) < 1e-14


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("side", ["left", "right"])
def test_lp_contraction(s3_q, p, side):
    g = rng(50)
    qcar = ca.quotient_carrier(s3_q)
    for _ in range(30):
        rho = ca.validate_rho(
            s3_q, [Fraction(int(a), int(b)) for a, b in g.integers(1, 5, (3, 2))])
        lam = ca.quasi_invariant_lambda(s3_q, rho)
        sigma = random_measure(g, s3_q)
        phi = ca.DensityFunction(qcar, random_weights(g, 3))
        out = ca.lp_action(s3_q, rho, side, sigma, phi, p)
        assert ca.lp_norm(lam, out, p) <= \
            ca.total_variation(sigma) * ca.lp_norm(lam, phi, p) + 1e-10


@pytest.mark.parametrize("token,gens", [("S3", ["(12)"]), ("D4", ["(24)"]),
                                        ("S3", ["(123)"]), ("Q8", ["i"])])
def test_explicit_matches_operator_route(token, gens):
    # lp_action and l1_convolve compute the explicit double sum; the operator
    # route (group convolution of rho-weighted lifts, averaged back) must agree
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
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
            explicit = ca.lp_action(Q, rho, side, sigma, phi, p).values
            operator = _lp_action_operator(Q, rho, side, sigma, phi, p)
            assert np.max(np.abs(explicit - operator)) < 1e-12, (p, side)
    explicit = ca.l1_convolve(Q, rho, lam, phi, psi).values
    assert np.max(np.abs(explicit - _l1_convolve_operator(Q, rho, phi, psi))) < 1e-12


def test_lp_action_argument_validation(s3_q):
    rho = ca.rho_ones(s3_q)
    qcar = ca.quotient_carrier(s3_q)
    phi = ca.DensityFunction(qcar, np.ones(3))
    with pytest.raises(ValueError):
        ca.lp_action(s3_q, rho, "middle", ca.delta_h(s3_q), phi, 1.0)
    with pytest.raises(ValueError):
        ca.lp_action(s3_q, rho, "left", ca.delta_h(s3_q), phi, 0.5)


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
    assert sol.solution is None and sol.measure is None
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


def _count_fraction_rows(monkeypatch):
    """Row counts of every Fraction elimination the solvers run."""
    calls = []
    monkeypatch.setattr(exact, "_rref_fractions",
                        lambda m: calls.append(len(m)) or _rref_fractions(m))
    return calls


def test_d60_reflection_subgroup_has_no_identity(monkeypatch):
    T = _d60_table(tuple(-i % 60 for i in range(60)))
    calls = _count_fraction_rows(monkeypatch)
    for solver in (ca.find_left_identity, ca.find_two_sided_identity):
        sol = solver(T)
        assert sol.solution is None and not sol.unique
        assert sol.residual == pytest.approx(math.sqrt(29), rel=1e-12)
    assert calls == []  # inconsistent means full rank: certified mod p alone


def test_d60_center_has_unique_left_identity(monkeypatch):
    T = _d60_table(tuple((i + 30) % 60 for i in range(60)))
    calls = _count_fraction_rows(monkeypatch)
    sol = ca.find_left_identity(T)
    base = T.quotient.base_coset
    assert sol.unique and sol.residual == 0.0
    assert sol.solution == tuple(Fraction(int(c == base)) for c in range(60))
    assert calls == [60]  # the basis rows only, not the 3600 system rows


def _oracle_identity(T, sides):
    """The Fraction-row identity system and its solve, as first written:
    (solution, unique, residual)."""
    k, den = T.coset_count, T.denominator
    rows, rhs = [], []
    for side in sides:
        for b in range(k):
            for z in range(k):
                rows.append([Fraction(int(T.counts[a, b, z] if side == "left"
                                          else T.counts[b, a, z]), den)
                             for a in range(k)])
                rhs.append(Fraction(int(z == b)))
    m, pivots = _rref_fractions([r + [v] for r, v in zip(rows, rhs)])
    if k not in pivots:
        sol = [Fraction(0)] * k
        for r, pc in enumerate(pivots):
            sol[pc] = m[r][k]
        return tuple(sol), len(_rref_fractions(rows)[1]) == k, 0.0
    A = np.array([[float(v) for v in row] for row in rows])
    bb = np.array([float(v) for v in rhs])
    lsq = np.linalg.lstsq(A, bb, rcond=None)[0]
    return None, False, float(np.linalg.norm(A @ lsq - bb))


@pytest.mark.parametrize("entry", default_catalog(), ids=lambda e: e.name)
def test_identity_solvers_match_fraction_oracle(entry):
    G, H, _ = build_entry(entry)
    T = ca.structure_table(ca.build_coset_space(G, H))
    for solver, sides in ((ca.find_left_identity, ("left",)),
                          (ca.find_two_sided_identity, ("left", "right"))):
        sol = solver(T)
        assert (sol.solution, sol.unique, sol.residual) == _oracle_identity(T, sides)


def test_degenerate_whole_group(s3):
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, list(range(6))))
    T = ca.structure_table(Q)
    assert Q.coset_count == 1
    assert np.array_equal(T.counts, np.array([[[6]]]))
    sol = ca.find_two_sided_identity(T)
    assert sol.solution == (Fraction(1),)


def test_carrier_guards(s3_q, s3_t, d4):
    other = ca.point_mass(ca.quotient_carrier(
        ca.build_coset_space(d4, ca.subgroup_from_tokens(d4, ["(24)"]))), 0)
    with pytest.raises(CarrierMismatch):
        ca.quotient_convolve(s3_t, other, other)
