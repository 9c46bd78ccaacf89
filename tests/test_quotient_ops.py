from fractions import Fraction

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cosetalg as ca
from cosetalg import verifier
from cosetalg._kernels import lift_weights, push_weights
from cosetalg.errors import CapExceeded, CarrierMismatch, NonPositive, NotCosetConstant
from cosetalg.verifier import CheckSpec, make_context, run_check

from conftest import _rref_fractions, checked_peak, random_weights, rng, traced_peak


def qc_gc(Q):
    return ca.quotient_carrier(Q), ca.group_carrier(Q.group)


# --- rho validation -----------------------------------------------------------

def test_rho_ones_ok(s3_q):
    r = ca.rho_ones(s3_q)
    assert np.array_equal(r.values, np.ones(3))


def test_rho_per_coset(s3_q):
    r = ca.validate_rho(s3_q, [Fraction(1), Fraction(2), Fraction(1, 2)])
    assert np.array_equal(r.values, [1.0, 2.0, 0.5])


def test_rho_per_element_constant_ok(s3_q):
    vals = np.array([3.0, 3.0, 1.0, 2.0, 1.0, 2.0])  # constant on cosets
    r = ca.validate_rho(s3_q, vals)
    assert np.array_equal(r.values, [3.0, 1.0, 2.0])


def test_rho_per_element_violation(s3_q):
    vals = np.ones(6)
    vals[1] = 2.0  # rho((12)) != rho(e) inside coset C0
    with pytest.raises(NotCosetConstant):
        ca.validate_rho(s3_q, vals)


def _first_offense_by_loop(Q, arr):
    """The NotCosetConstant message of the first offense, as the per-coset
    double loop found it (None when arr is coset-constant)."""
    for c in range(Q.coset_count):
        members = np.flatnonzero(Q.coset_of == c)
        for y in members[1:]:
            if arr[y] != arr[members[0]]:
                return (f"value at {Q.group.labels[y]} differs from "
                        f"{Q.group.labels[members[0]]} inside coset C{c}")
    return None


@functools.lru_cache(maxsize=None)
def _rho_space(token, gens):
    G = ca.builtin_from_token(token)
    return ca.build_coset_space(G, ca.subgroup_from_tokens(G, list(gens)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("S3", ("(12)",)), ("S4", ("(12)",)), ("S4", ("(12)", "(123)")),
                        ("Q8", ("i",)), ("D4", ("(24)",))]), st.data())
def test_rho_first_offense_matches_the_loop(pair, data):
    Q = _rho_space(*pair)
    n = Q.group.order
    arr = np.array(data.draw(st.lists(st.integers(1, 4), min_size=Q.coset_count,
                                      max_size=Q.coset_count)), dtype=float)[Q.coset_of]
    for y in data.draw(st.lists(st.integers(0, n - 1), max_size=4)):
        arr[y] = data.draw(st.sampled_from([5.0, float("nan")]))
    want = _first_offense_by_loop(Q, arr)
    if want is None:
        assert ca.validate_rho(Q, arr.tolist()).values.tolist() == arr[Q.reps].tolist()
    else:
        with pytest.raises(NotCosetConstant) as err:
            ca.validate_rho(Q, arr.tolist())
        assert str(err.value) == want


def test_rho_nonpositive(s3_q):
    with pytest.raises(NonPositive):
        ca.validate_rho(s3_q, [1.0, 0.0, 2.0])


@pytest.mark.parametrize("values,message", [
    ([1, float("inf"), 2], "rho must be finite, got inf on coset C1"),
    ([1, 2, float("inf")], "rho must be finite, got inf on coset C2"),
    ([float("inf"), -1, 2], "rho must be finite, got inf on coset C0"),
    ([1, float("-inf"), float("inf")], "rho must be > 0, got -inf on coset C1"),
    ([1, float("nan"), float("inf")], "rho must be > 0, got nan on coset C1"),
])
def test_rho_refuses_non_finite_values(s3_q, values, message):
    with pytest.raises(NonPositive, match=f"^{re.escape(message)}$"):
        ca.validate_rho(s3_q, values)
    if not any(np.isnan(values)):   # NaN is never coset-constant
        with pytest.raises(NonPositive, match=f"^{re.escape(message)}$"):
            ca.validate_rho(s3_q, [values[c] for c in s3_q.coset_of])


@pytest.mark.parametrize("values,message", [
    ([1, 10 ** 400, 2], "rho must be finite, got inf on coset C1"),
    ([1, 2, Fraction(10 ** 400, 3)], "rho must be finite, got inf on coset C2"),
    ([-10 ** 400, 1, 2], "rho must be > 0, got -inf on coset C0"),
], ids=["int", "fraction", "negative"])
def test_rho_refuses_values_beyond_float_range(s3_q, values, message):
    # refused like an infinite value, per coset and per element
    with pytest.raises(NonPositive, match=f"^{re.escape(message)}$"):
        ca.validate_rho(s3_q, values)
    with pytest.raises(NonPositive, match=f"^{re.escape(message)}$"):
        ca.validate_rho(s3_q, [values[c] for c in s3_q.coset_of])


def test_rho_from_dict_defaults(s3, s3_q):
    r = ca.rho_from_dict(s3_q, {"values": {"(123)": 2}})
    assert np.array_equal(r.values, [1.0, 2.0, 1.0])
    with pytest.raises(CarrierMismatch):
        ca.rho_from_dict(s3_q, {"values": {"(13)": 2}})  # not a representative


# --- averaging operators --------------------------------------------------------

def test_average_ph_inverts_projection(s3_q):
    qcar, _ = qc_gc(s3_q)
    g = rng(31)
    phi = ca.DensityFunction(qcar, random_weights(g, 3))
    lifted = ca.compose_with_projection(s3_q, phi)
    back = ca.average_ph(s3_q, lifted)
    assert np.max(np.abs(back.values - phi.values)) == 0.0


def test_average_ph_indicator(s3_q):
    _, gcar = qc_gc(s3_q)
    ind = np.zeros(6)
    ind[0] = 1.0
    out = ca.average_ph(s3_q, ca.DensityFunction(gcar, ind))
    assert np.array_equal(out.values, np.array([0.5, 0, 0], dtype=complex))


def test_average_ph_constant(s3_q):
    _, gcar = qc_gc(s3_q)
    out = ca.average_ph(s3_q, ca.DensityFunction(gcar, np.ones(6)))
    assert np.allclose(out.values, 1.0, atol=0)


def test_weighted_average_reduces_to_plain(s3_q):
    _, gcar = qc_gc(s3_q)
    g = rng(32)
    f = ca.DensityFunction(gcar, random_weights(g, 6))
    plain = ca.average_ph(s3_q, f)
    weighted = ca.weighted_average_th(s3_q, ca.rho_ones(s3_q), 1.0, f)
    assert np.max(np.abs(plain.values - weighted.values)) == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_weighted_average_inverts_weighted_lift(s3_q, p):
    qcar, gcar = qc_gc(s3_q)
    g = rng(33)
    rho = ca.validate_rho(s3_q, [Fraction(1), Fraction(2), Fraction(1, 2)])
    for _ in range(20):
        phi = ca.DensityFunction(qcar, random_weights(g, 3))
        lifted = ca.compose_with_projection(s3_q, phi).values \
            * rho.values[s3_q.coset_of] ** (1.0 / p)
        back = ca.weighted_average_th(s3_q, rho, p, ca.DensityFunction(gcar, lifted))
        assert np.max(np.abs(back.values - phi.values)) < 1e-10


def test_quasi_invariant_lambda_examples(s3, s3_q):
    lam = ca.quasi_invariant_lambda(s3_q, ca.rho_ones(s3_q))
    assert np.array_equal(lam.weights, [2.0, 2.0, 2.0])
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lam2 = ca.quasi_invariant_lambda(s3_q, rho)
    assert np.array_equal(lam2.weights, [2.0, 4.0, 1.0])
    # trivial subgroup: lambda equals rho pointwise
    Qe = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    rho_e = ca.validate_rho(Qe, np.arange(1, 7, dtype=float))
    lam_e = ca.quasi_invariant_lambda(Qe, rho_e)
    assert np.array_equal(lam_e.weights, rho_e.values)


def test_translation_cocycle_exact(s3, s3_q):
    # lambda(x yH) * rho(y) == lambda(yH) * rho(xy) for all x, y, exactly
    rho = ca.validate_rho(s3_q, [Fraction(1), Fraction(2), Fraction(1, 2)])
    lam = ca.quasi_invariant_lambda(s3_q, rho)
    for x in range(6):
        for y in range(6):
            cy = int(s3_q.coset_of[y])
            cxy = int(s3_q.coset_of[s3.op(x, y)])
            # weights and values are 1, 2 and 1/2 times |H| = 2 or 1: exact in float
            assert lam.weights[cxy] * rho.values[cy] == lam.weights[cy] * rho.values[cxy]


# --- group integral vs coset integral ----------------------------------------------

def test_quotient_integral_point_mass(s3_q):
    _, gcar = qc_gc(s3_q)
    ind = np.zeros(6)
    ind[0] = 1.0
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    lhs, rhs = ca.quotient_integral_check(s3_q, rho, ca.DensityFunction(gcar, ind))
    assert lhs == 1.0 and abs(rhs - 1.0) < 1e-14


def test_quotient_integral_constant(s3_q):
    _, gcar = qc_gc(s3_q)
    lhs, rhs = ca.quotient_integral_check(
        s3_q, ca.rho_ones(s3_q), ca.DensityFunction(gcar, np.ones(6)))
    assert lhs == 6.0 and abs(rhs - 6.0) < 1e-12


def test_quotient_integral_random(s3_q):
    _, gcar = qc_gc(s3_q)
    g = rng(34)
    rho = ca.validate_rho(s3_q, [1.0, 2.0, 0.5])
    for _ in range(50):
        f = ca.DensityFunction(gcar, random_weights(g, 6) - (0.5 + 0.5j))
        lhs, rhs = ca.quotient_integral_check(s3_q, rho, f)
        assert abs(lhs - rhs) < 1e-12


# --- pushforward / lift / membership -------------------------------------------------

def test_pushforward_point_masses(s3, s3_q):
    qcar, gcar = qc_gc(s3_q)
    for x in range(6):
        out = ca.pushforward_rh(s3_q, ca.point_mass(gcar, x))
        want = ca.point_mass(qcar, int(s3_q.coset_of[x]))
        assert np.array_equal(out.weights, want.weights)
    dh = ca.pushforward_rh(s3_q, ca.point_mass(gcar, s3.identity))
    assert np.array_equal(dh.weights, ca.delta_h(s3_q).weights)


def test_pushforward_cancellation(s3, s3_q):
    _, gcar = qc_gc(s3_q)
    idx = {lab: i for i, lab in enumerate(s3.labels)}
    mu = ca.point_mass(gcar, idx["(13)"]) - ca.point_mass(gcar, idx["(123)"])
    out = ca.pushforward_rh(s3_q, mu)
    assert ca.total_variation(out) == 0.0  # both live in coset C1


def test_lift_examples(s3, s3_q):
    qcar, gcar = qc_gc(s3_q)
    lifted = ca.lift_to_invariant(s3_q, ca.delta_h(s3_q))
    want = 0.5 * (ca.point_mass(gcar, 0) + ca.point_mass(gcar, 1))
    assert np.array_equal(lifted.weights, want.weights)
    for c in range(3):
        assert ca.total_variation(ca.lift_to_invariant(
            s3_q, ca.point_mass(qcar, c))) == 1.0


def test_lift_section_of_pushforward(s3_q):
    qcar, _ = qc_gc(s3_q)
    g = rng(35)
    for _ in range(100):
        sigma = ca.ComplexMeasure(qcar, random_weights(g, 3) - (0.5 + 0.5j))
        back = ca.pushforward_rh(s3_q, ca.lift_to_invariant(s3_q, sigma))
        assert np.max(np.abs(back.weights - sigma.weights)) < 1e-15
        assert abs(ca.total_variation(ca.lift_to_invariant(s3_q, sigma))
                   - ca.total_variation(sigma)) < 1e-14


def test_membership(s3, s3_q):
    qcar, gcar = qc_gc(s3_q)
    g = rng(36)
    sigma = ca.ComplexMeasure(qcar, random_weights(g, 3))
    assert ca.membership_mgh(s3_q, ca.lift_to_invariant(s3_q, sigma))
    assert not ca.membership_mgh(s3_q, ca.point_mass(gcar, s3.identity))


def test_invariant_measures_absorb_left_convolution(s3, s3_q):
    qcar, gcar = qc_gc(s3_q)
    g = rng(39)
    for _ in range(25):
        mu = ca.lift_to_invariant(s3_q, ca.ComplexMeasure(qcar, random_weights(g, 3)))
        nu = ca.ComplexMeasure(gcar, random_weights(g, 6))
        assert ca.membership_mgh(s3_q, ca.group_convolve(s3, nu, mu))


def test_lift_of_pushforward_recovers_invariant_measures(s3_q):
    from cosetalg.exact import ExactVector
    from fractions import Fraction
    qcar, _ = qc_gc(s3_q)
    g = rng(40)
    # float route, tiny roundoff from the divide-by-|H| round trip
    for _ in range(25):
        mu = ca.lift_to_invariant(s3_q, ca.ComplexMeasure(qcar, random_weights(g, 3)))
        again = ca.lift_to_invariant(s3_q, ca.pushforward_rh(s3_q, mu))
        assert np.max(np.abs(again.weights - mu.weights)) < 1e-15
    # exact route: identity on the nose
    nums = g.integers(-4, 5, (3, 2))
    s = ExactVector.from_fractions([Fraction(int(a), 3) for a in nums[:, 0]],
                                   [Fraction(int(b), 2) for b in nums[:, 1]])
    lifted = lift_weights(s3_q.coset_of, 2, s)
    back = lift_weights(s3_q.coset_of, 2, push_weights(s3_q.member_table, lifted))
    assert back == lifted


def test_generate_subgroup_index_validation(s3):
    with pytest.raises(IndexError):
        ca.generate_subgroup(s3, [9])


def test_pushforward_isometric_on_invariant(s3_q):
    qcar, gcar = qc_gc(s3_q)
    g = rng(37)
    for _ in range(50):
        mu = ca.ComplexMeasure(gcar, random_weights(g, 6) - (0.5 + 0.5j))
        assert ca.total_variation(ca.pushforward_rh(s3_q, mu)) \
            <= ca.total_variation(mu) + 1e-12
        inv = ca.lift_to_invariant(s3_q, ca.ComplexMeasure(qcar, random_weights(g, 3)))
        assert abs(ca.total_variation(ca.pushforward_rh(s3_q, inv))
                   - ca.total_variation(inv)) < 1e-12


def _ones(space):
    return ca.DensityFunction(space, np.ones(len(space.labels)))


# operators that read a rho or a lambda, called on Q with one that may live
# elsewhere, and the lambda of given rho values
def weighted_average_th(Q, rho):
    return ca.weighted_average_th(Q, rho, 2.0, _ones(Q.group))


def quotient_integral_check(Q, rho):
    return ca.quotient_integral_check(Q, rho, _ones(Q.group))


def lp_action(Q, rho):
    return ca.lp_action(ca.structure_table(Q), rho, "left", ca.point_mass(Q, 0), _ones(Q), 2.0)


def l1_convolve(Q, lam):
    return ca.l1_convolve(ca.structure_table(Q), lam, _ones(Q), _ones(Q))


def lp_norm(Q, lam):
    return ca.lp_norm(lam, _ones(Q), 2.0)


def quotient_measure(Q, values):
    return ca.quasi_invariant_lambda(Q, ca.RhoFunction(Q, values))


@pytest.mark.parametrize("op,kind,wants_group", [
    (ca.average_ph, ca.DensityFunction, True),
    (ca.compose_with_projection, ca.DensityFunction, False),
    (ca.pushforward_rh, ca.ComplexMeasure, True),
    (ca.lift_to_invariant, ca.ComplexMeasure, False),
    (ca.membership_mgh, ca.ComplexMeasure, True),
    # a rho or a lambda lives on a coset space only (wants_group None)
    (weighted_average_th, ca.RhoFunction, None),
    (ca.quasi_invariant_lambda, ca.RhoFunction, None),
    (quotient_integral_check, ca.RhoFunction, None),
    (lp_action, ca.RhoFunction, None),
    (l1_convolve, quotient_measure, None),
    (lp_norm, quotient_measure, None),
])
def test_operators_refuse_the_other_carrier(s3_q, same_labelled_quotients, op, kind,
                                            wants_group):
    if wants_group is not None:
        qcar, gcar = qc_gc(s3_q)
        wrong = qcar if wants_group else gcar
        with pytest.raises(CarrierMismatch, match="carriers differ"):
            op(s3_q, kind(wrong, np.ones(len(wrong.labels))))
    # the carrier the operator wants, but of another space with the same labels:
    # another build of S3, or S3/A3 against C4/<(13)(24)>
    if wants_group:
        rebuilt = ca.builtin_from_token("S3")
        Q = ca.build_coset_space(rebuilt, ca.subgroup_from_tokens(rebuilt, ["(12)"]))
        foreign = kind(s3_q.group, np.ones(6))
    else:
        s3_a3_q, Q = same_labelled_quotients
        foreign = kind(s3_a3_q, np.ones(2))
        op(s3_a3_q, foreign)   # on its own space it is accepted
    with pytest.raises(CarrierMismatch, match="carriers differ"):
        op(Q, foreign)


# --- the literal invariance system ------------------------------------------------

def test_solution_space_dimensions(s3, s3_h12, s3_a3):
    assert len(ca.solve_mhg_space(ca.build_coset_space(s3, s3_h12))) == 0
    assert len(ca.solve_mhg_space(ca.build_coset_space(s3, s3_a3))) == 0
    Qe = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    basis = ca.solve_mhg_space(Qe)
    assert len(basis) == 1
    # the solution space for the trivial subgroup is the constants
    assert np.max(np.abs(basis[0].weights - basis[0].weights[0])) == 0.0


def test_solution_space_c2_full():
    c2 = ca.builtin_catalog("cyclic", 2)
    Q = ca.build_coset_space(c2, ca.generate_subgroup(c2, [1]))
    assert len(ca.solve_mhg_space(Q)) == 0


def test_solution_space_s5_point_stabilizer_is_zero():
    s5 = ca.builtin_catalog("symmetric", 5)
    Q = ca.build_coset_space(s5, ca.subgroup_from_tokens(s5, ["(12)", "(1234)"]))
    assert Q.coset_count == 5
    assert ca.solve_mhg_space(Q) == []


def test_solution_space_closed_under_left_convolution(s3):
    Qe = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    basis = ca.solve_mhg_space(Qe)
    g = rng(38)
    gcar = ca.group_carrier(s3)
    for mu in basis:
        for _ in range(10):
            nu = ca.ComplexMeasure(gcar, random_weights(g, 6))
            conv = ca.group_convolve(s3, nu, mu)
            # still constant: the space is a left ideal
            assert np.max(np.abs(conv.weights - conv.weights[0])) < 1e-12


def literal_mhg_basis(Q):
    """The kernel basis of the literal n*k-row system, row (x, C) reading
    sum_{y in C} mu_{x*y} - mu_x, by Fraction elimination of its distinct
    nonzero rows."""
    G, k, n = Q.group, Q.coset_count, Q.group.order
    rows = np.zeros((n * k, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            rows[x * k + Q.coset_of[y], G.mul[x, y]] += 1
        rows[x * k:(x + 1) * k, x] -= 1
    distinct = [[Fraction(int(v)) for v in r] for r in np.unique(rows, axis=0) if r.any()]
    m, pivots = _rref_fractions(distinct)
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append([float(f) for f in v])
    return basis


@functools.lru_cache(maxsize=None)
def small_group(token):
    return ca.builtin_from_token(token)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["S3", "C6", "D4", "Q8", "A4", "D6", "C12", "S4", "D12"]), st.data())
def test_reduced_mhg_system_matches_the_literal_system(token, data):
    G = small_group(token)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    _assert_mhg_space_is_literal(ca.build_coset_space(G, ca.generate_subgroup(G, gens)))


@pytest.mark.parametrize("members", [[0, 5], [5]], ids=["H={0,5}", "H={e}"])
def test_mhg_space_is_literal_with_relabelled_identity(relabelled_s3_pair, members):
    G = relabelled_s3_pair[0]
    assert G.identity == 5
    _assert_mhg_space_is_literal(ca.build_coset_space(G, ca.subgroup_from_members(G, members)))


def _assert_mhg_space_is_literal(Q):
    basis = [mu.weights.real.tolist() for mu in ca.solve_mhg_space(Q)]
    assert len(basis) == (Q.subgroup.order == 1)
    assert basis == literal_mhg_basis(Q)


def test_mhg_solve_over_budget_refused_and_reported(monkeypatch):
    # S5/{e}: the space is the constants, and the literal system's residual
    # on them is refused over the budget before it allocates; P1_MHG reports
    # the CapExceeded as a failing record
    G = ca.builtin_from_token("S5")
    H = ca.generate_subgroup(G, [])
    Q = ca.build_coset_space(G, H)
    (basis,) = ca.solve_mhg_space(Q)
    # the residual's one byte check is groups._scan_block's
    checked, _ = checked_peak(monkeypatch, ca.groups,
                              lambda: verifier._invariance_residual(Q, basis.weights))
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match="invariance residual of order 120"):
            verifier._invariance_residual(Q, basis.weights)

    assert traced_peak(refused) < checked[0] // 100
    report = run_check(CheckSpec(id="P1_MHG", trials=2), make_context(G, H))
    assert report.status == "fail"
    assert report.counterexample["error"].startswith(
        "CapExceeded: invariance residual of order 120")
