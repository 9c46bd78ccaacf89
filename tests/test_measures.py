import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetalg as ca
from cosetalg.errors import CarrierMismatch

from conftest import random_weights, rng


def dict_convolve(G, w1, w2):
    """Independent oracle: plain-python accumulation over all pairs."""
    out = {}
    for x in range(G.order):
        for y in range(G.order):
            z = G.op(x, y)
            out[z] = out.get(z, 0j) + complex(w1[x]) * complex(w2[y])
    return np.array([out.get(z, 0j) for z in range(G.order)])


def test_point_mass_examples(s3):
    gc = ca.group_carrier(s3)
    de = ca.point_mass(gc, 0)
    assert np.array_equal(de.weights, np.array([1, 0, 0, 0, 0, 0], dtype=complex))
    assert ca.total_variation(de) == 1.0
    single = ca.group_carrier(ca.builtin_catalog("cyclic", 1))
    assert ca.total_variation(ca.point_mass(single, 0)) == 1.0
    with pytest.raises(IndexError):
        ca.point_mass(gc, 6)


def test_delta_h_on_quotient(s3_q):
    dh = ca.delta_h(s3_q)
    assert dh.weights[0] == 1.0 and ca.total_variation(dh) == 1.0


def test_total_variation_examples(s3, s3_q):
    gc = ca.group_carrier(s3)
    assert ca.total_variation((3 - 4j) * ca.point_mass(gc, 2)) == pytest.approx(5.0, abs=0)
    qc = ca.quotient_carrier(s3_q)
    mixed = 0.5 * ca.point_mass(qc, 0) + 0.5 * ca.point_mass(qc, 2)
    assert ca.total_variation(mixed) == pytest.approx(1.0, abs=0)


def test_point_mass_convolution_table(s3):
    gc = ca.group_carrier(s3)
    for x in range(s3.order):
        for y in range(s3.order):
            out = ca.group_convolve(s3, ca.point_mass(gc, x), ca.point_mass(gc, y))
            expected = ca.point_mass(gc, s3.op(x, y))
            assert np.array_equal(out.weights, expected.weights)


def test_identity_is_unit(s3):
    gc = ca.group_carrier(s3)
    g = rng(1)
    mu = ca.ComplexMeasure(gc, random_weights(g, 6))
    de = ca.point_mass(gc, s3.identity)
    assert ca.group_convolve(s3, de, mu).isclose(mu, tol=0)
    assert ca.group_convolve(s3, mu, de).isclose(mu, tol=0)


@pytest.mark.parametrize("token", ["S3", "D4", "Q8"])
def test_convolution_against_dict_oracle(token):
    G = ca.builtin_from_token(token)
    gc = ca.group_carrier(G)
    g = rng(2)
    for _ in range(20):
        w1 = random_weights(g, G.order) - (0.5 + 0.5j)
        w2 = random_weights(g, G.order) - (0.5 + 0.5j)
        got = ca.group_convolve(G, ca.ComplexMeasure(gc, w1), ca.ComplexMeasure(gc, w2))
        assert np.max(np.abs(got.weights - dict_convolve(G, w1, w2))) < 1e-13


def test_density_convolution_compatibility(s3):
    # measure of f convolved with measure of g is the measure of the
    # density (f*g)(x) = sum_y f(y) g(y^-1 x)
    gc = ca.group_carrier(s3)
    g = rng(3)
    f = random_weights(g, 6)
    h = random_weights(g, 6)
    fg = np.zeros(6, dtype=complex)
    for x in range(6):
        for y in range(6):
            fg[x] += f[y] * h[s3.op(int(s3.inv[y]), x)]
    mu = ca.group_convolve(s3, ca.from_density(s3, ca.DensityFunction(gc, f)),
                           ca.from_density(s3, ca.DensityFunction(gc, h)))
    assert np.max(np.abs(mu.weights - fg)) < 1e-13


def test_from_density_examples(s3):
    gc = ca.group_carrier(s3)
    ind = np.zeros(6)
    ind[0] = 1
    assert ca.from_density(s3, ca.DensityFunction(gc, ind)).isclose(ca.point_mass(gc, 0), tol=0)
    ones = ca.from_density(s3, ca.DensityFunction(gc, np.ones(6)))
    assert ca.total_variation(ones) == 6.0


def test_from_density_right_invariant_lands_in_mgh(s3, s3_q):
    g = rng(4)
    phi = random_weights(g, 3)
    f = ca.DensityFunction(ca.group_carrier(s3), phi[s3_q.coset_of])
    assert ca.membership_mgh(s3_q, ca.from_density(s3, f))


def test_integrate_examples(s3, s3_q):
    gc = ca.group_carrier(s3)
    g = rng(5)
    f = ca.DensityFunction(gc, random_weights(g, 6))
    for x in range(6):
        assert ca.integrate(ca.point_mass(gc, x), f) == f.values[x]
    mu = ca.ComplexMeasure(gc, random_weights(g, 6) - 0.5)
    ones = ca.DensityFunction(gc, np.ones(6))
    assert ca.integrate(mu, ones) == pytest.approx(complex(mu.weights.sum()), abs=1e-15)
    qc = ca.quotient_carrier(s3_q)
    phi = ca.DensityFunction(qc, random_weights(g, 3))
    mixed = 0.5 * ca.point_mass(qc, 0) + 0.5 * ca.point_mass(qc, 2)
    assert ca.integrate(mixed, phi) == pytest.approx(
        (phi.values[0] + phi.values[2]) / 2, abs=1e-15)


def test_invariance_predicate_both_directions(s3, s3_q):
    # constant-on-cosets <=> invariant under right translation by H
    g = rng(6)
    qc = ca.quotient_carrier(s3_q)
    gc = ca.group_carrier(s3)
    sigma = ca.ComplexMeasure(qc, random_weights(g, 3))
    mu = ca.lift_to_invariant(s3_q, sigma)
    for h in s3_h_members(s3_q):
        for _ in range(5):
            f = ca.DensityFunction(gc, random_weights(g, 6))
            rf = ca.DensityFunction(gc, f.values[s3.mul[:, h]])
            assert abs(ca.integrate(mu, rf) - ca.integrate(mu, f)) < 1e-12
    # a measure violating constancy violates the functional identity
    bad = ca.point_mass(gc, s3.identity)
    h = s3_h_members(s3_q)[1]
    witness = ca.DensityFunction(gc, np.eye(6)[0])
    assert abs(ca.integrate(bad, ca.DensityFunction(gc, witness.values[s3.mul[:, h]]))
               - ca.integrate(bad, witness)) > 0.5


def s3_h_members(Q):
    return [int(m) for m in Q.subgroup.members]


complex_box = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                                 allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(complex_box, min_size=6, max_size=6),
       st.lists(complex_box, min_size=6, max_size=6))
def test_submultiplicativity_property(w1, w2):
    G = ca.builtin_from_token("S3")
    gc = ca.group_carrier(G)
    m1, m2 = ca.ComplexMeasure(gc, w1), ca.ComplexMeasure(gc, w2)
    prod = ca.group_convolve(G, m1, m2)
    assert ca.total_variation(prod) <= \
        ca.total_variation(m1) * ca.total_variation(m2) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(complex_box, min_size=6, max_size=6),
       st.lists(complex_box, min_size=6, max_size=6),
       st.lists(complex_box, min_size=6, max_size=6))
def test_associativity_property(w1, w2, w3):
    G = ca.builtin_from_token("S3")
    gc = ca.group_carrier(G)
    m1, m2, m3 = (ca.ComplexMeasure(gc, w) for w in (w1, w2, w3))
    lhs = ca.group_convolve(G, ca.group_convolve(G, m1, m2), m3)
    rhs = ca.group_convolve(G, m1, ca.group_convolve(G, m2, m3))
    assert ca.total_variation(lhs - rhs) <= 1e-12 * max(
        1.0, ca.total_variation(m1) * ca.total_variation(m2) * ca.total_variation(m3))


def test_total_variation_scaling(s3):
    gc = ca.group_carrier(s3)
    g = rng(7)
    w = random_weights(g, 6)
    mu = ca.ComplexMeasure(gc, w / np.abs(w).sum())
    # power-of-two scalars commute with rounding, so equality is exact
    for c in (2.0, -0.5, 4j, -0.25j, 0.5 + 0j):
        assert ca.total_variation(c * mu) == abs(c) * ca.total_variation(mu)
    for _ in range(50):
        c = complex(g.uniform(-2, 2), g.uniform(-2, 2))
        assert abs(ca.total_variation(c * mu) - abs(c) * ca.total_variation(mu)) <= 1e-14


def test_carrier_mismatch(s3, d4):
    m1 = ca.point_mass(ca.group_carrier(s3), 0)
    m2 = ca.point_mass(ca.group_carrier(d4), 0)
    with pytest.raises(CarrierMismatch):
        ca.group_convolve(s3, m1, m2)
    with pytest.raises(CarrierMismatch):
        m1 + m2
    # another build of S3 has the same labels but is another carrier
    built, rebuilt = ca.builtin_from_token("S3"), ca.builtin_from_token("S3")
    assert built.labels == rebuilt.labels
    mu = ca.point_mass(built, 1)
    Q = ca.build_coset_space(rebuilt, ca.subgroup_from_tokens(rebuilt, ["(12)"]))
    for refused in (lambda: ca.group_convolve(rebuilt, mu, mu),
                    lambda: ca.pushforward_rh(Q, mu),
                    lambda: mu + ca.point_mass(rebuilt, 1)):
        with pytest.raises(CarrierMismatch, match="carriers differ"):
            refused()


def test_measure_json_round_trip(s3_q):
    qc = ca.quotient_carrier(s3_q)
    mu = ca.ComplexMeasure(qc, [0.5, 0, -0.25 + 1j])
    d = json.loads(json.dumps(ca.measure_to_dict(mu)))
    assert "C1" not in d["weights"]  # zeros dropped
    back = ca.measure_from_dict(qc, d)
    assert back.isclose(mu, tol=0)
    with pytest.raises(CarrierMismatch):
        ca.measure_from_dict(qc, {"carrier": "group", "weights": {}})
    with pytest.raises(CarrierMismatch):
        ca.measure_from_dict(qc, {"carrier": "quotient", "weights": {"C9": [1, 0]}})


def test_group_measure_file_with_every_label_reads_back():
    # every label of S5, each weight distinct, read back into its own slot;
    # an unknown label is still refused by name
    G = ca.builtin_from_token("S5")
    mu = ca.ComplexMeasure(G, np.arange(1, G.order + 1) * (1 - 0.5j))
    d = json.loads(json.dumps(ca.measure_to_dict(mu)))
    assert d["carrier"] == "group" and len(d["weights"]) == G.order
    back = ca.measure_from_dict(G, d)
    assert np.array_equal(back.weights, mu.weights)
    d["weights"]["(16)"] = [1, 0]
    with pytest.raises(CarrierMismatch, match=r"^no point '\(16\)' on this carrier$"):
        ca.measure_from_dict(G, d)
