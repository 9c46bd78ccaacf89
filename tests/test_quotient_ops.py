from fractions import Fraction

import numpy as np
import pytest

import cosetalg as ca
from cosetalg.errors import CarrierMismatch, NonPositive, NotCosetConstant

from conftest import random_weights, rng


def qc_gc(Q):
    return ca.quotient_carrier(Q), ca.group_carrier(Q.group)


# --- rho validation -----------------------------------------------------------

def test_rho_ones_ok(s3_q):
    r = ca.rho_ones(s3_q)
    assert np.array_equal(r.values, np.ones(3))
    assert r.exact == (Fraction(1),) * 3


def test_rho_per_coset(s3_q):
    r = ca.validate_rho(s3_q, [Fraction(1), Fraction(2), Fraction(1, 2)])
    assert np.array_equal(r.values, [1.0, 2.0, 0.5])
    assert r.exact == (Fraction(1), Fraction(2), Fraction(1, 2))


def test_rho_per_element_constant_ok(s3_q):
    vals = np.array([3.0, 3.0, 1.0, 2.0, 1.0, 2.0])  # constant on cosets
    r = ca.validate_rho(s3_q, vals)
    assert np.array_equal(r.values, [3.0, 1.0, 2.0])


def test_rho_per_element_violation(s3_q):
    vals = np.ones(6)
    vals[1] = 2.0  # rho((12)) != rho(e) inside coset C0
    with pytest.raises(NotCosetConstant):
        ca.validate_rho(s3_q, vals)


def test_rho_nonpositive(s3_q):
    with pytest.raises(NonPositive):
        ca.validate_rho(s3_q, [1.0, 0.0, 2.0])


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
            assert lam.exact[cxy] * rho.exact[cy] == lam.exact[cy] * rho.exact[cxy]


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
    from cosetalg import exact
    from cosetalg.exact import ComplexFraction
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
    s = [ComplexFraction.of(Fraction(int(a), 3), Fraction(int(b), 2)) for a, b in nums]
    lifted = exact.lift_exact(s3_q.coset_of, 2, s)
    back = exact.lift_exact(
        s3_q.coset_of, 2, exact.pushforward_exact(s3_q.coset_of, 3, lifted))
    assert all((x - y).is_zero() for x, y in zip(back, lifted))


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
