"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are pinned here and nowhere else; "exactly" means exact
integer/rational arithmetic, not a small float tolerance.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import cosetalg as ca
from cosetalg._kernels import group_convolve_weights, lift_weights, push_weights
from cosetalg.exact import ExactVector
from cosetalg.verifier import (CatalogEntry, CheckSpec, all_check_specs,
                               build_entry, default_catalog, draw_rational_weights,
                               draw_rho, exit_code, make_context, rng_for, run_check,
                               run_suite)

TRIALS = 100


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {status} criterion {num:02d}: {desc}{suffix}")
    assert ok, f"criterion {num} failed {suffix}"


@pytest.fixture(scope="module")
def catalog_ctx():
    pairs = []
    for entry in default_catalog():
        G, H = build_entry(entry)
        Q = ca.build_coset_space(G, H)
        pairs.append((entry.name, G, H, Q, ca.structure_table(Q)))
    return pairs


def _rng(name, salt=0):
    return rng_for(42 + salt, name, 0)


def _rand_measure(g, carrier):
    size = len(carrier.labels)
    return ca.ComplexMeasure(carrier, g.random(size) + 1j * g.random(size))


def test_criterion_01_structure_table_stochastic_and_fast(catalog_ctx):
    worst_time = 0.0
    ok = True
    for name, G, H, Q, _ in catalog_ctx:
        start = time.perf_counter()
        T = ca.structure_table(Q)
        worst_time = max(worst_time, time.perf_counter() - start)
        ok = ok and (T.counts.sum(axis=2) == H.order).all()
    # an order-120 group with a small subgroup: the widest tensor at desk scale
    d60 = ca.builtin_catalog("dihedral", 60)
    H = ca.subgroup_from_tokens(d60, [d60.labels[d60.order - 1]])
    Q = ca.build_coset_space(d60, H)
    start = time.perf_counter()
    T = ca.structure_table(Q)
    elapsed = time.perf_counter() - start
    worst_time = max(worst_time, elapsed)
    ok = ok and (T.counts.sum(axis=2) == H.order).all() and worst_time < 1.0
    _report(1, "structure tables row-stochastic (exact) and built in < 1 s",
            ok, f"max build time {worst_time * 1000:.1f} ms")


def test_criterion_02_dual_formula(catalog_ctx):
    worst = 0.0
    for name, G, H, Q, T in catalog_ctx:
        g = _rng("D6_CONV")
        qc = ca.quotient_carrier(Q)
        for _ in range(TRIALS):
            s1, s2 = _rand_measure(g, qc), _rand_measure(g, qc)
            via_table = ca.quotient_convolve(T, s1, s2)
            via_lift = ca.pushforward_rh(Q, ca.group_convolve(
                G, ca.lift_to_invariant(Q, s1), ca.lift_to_invariant(Q, s2)))
            worst = max(worst, float(np.max(np.abs(via_table.weights - via_lift.weights))))
    _report(2, "table and lift-convolve-push routes agree on 100 random pairs/entry",
            worst <= 1e-12, f"max residual {worst:.2e} <= 1e-12")


def test_criterion_03_banach_algebra_laws(catalog_ctx):
    worst_assoc, worst_submult = 0.0, 0.0
    for name, G, H, Q, T in catalog_ctx:
        g = _rng("T8_ALGEBRA")
        qc = ca.quotient_carrier(Q)
        for _ in range(TRIALS):
            m1, m2, m3 = (_rand_measure(g, qc) for _ in range(3))
            lhs = ca.quotient_convolve(T, ca.quotient_convolve(T, m1, m2), m3)
            rhs = ca.quotient_convolve(T, m1, ca.quotient_convolve(T, m2, m3))
            worst_assoc = max(worst_assoc, ca.total_variation(lhs - rhs))
            prod = ca.quotient_convolve(T, m1, m2)
            worst_submult = max(
                worst_submult,
                ca.total_variation(prod)
                - ca.total_variation(m1) * ca.total_variation(m2))
    ok = worst_assoc <= 1e-10 and worst_submult <= 1e-12
    _report(3, "associativity and submultiplicativity on 100 random draws/entry",
            ok, f"assoc {worst_assoc:.2e} <= 1e-10, submult excess {worst_submult:.2e} <= 1e-12")


def test_criterion_04_right_identity_exact(catalog_ctx):
    ok = True
    for name, G, H, Q, T in catalog_ctx:
        b0 = Q.base_coset
        for a in range(T.coset_count):
            for z in range(T.coset_count):
                want = H.order if z == a else 0
                ok = ok and int(T.counts[a, b0, z]) == want
        g = _rng("L11_RIGHT_ID")
        delta = ExactVector.from_fractions([int(c == b0) for c in range(T.coset_count)])
        for _ in range(10):
            s = draw_rational_weights(g, T.coset_count)
            out = ca.quotient_convolve_exact(T, s, delta)
            ok = ok and out == s
    _report(4, "unit mass on the base coset is an exact right identity", ok)


def test_criterion_05_normality_equivalence(catalog_ctx):
    non_normal = 0
    discrepancies = []
    for name, G, H, Q, T in catalog_ctx:
        normal = ca.test_normality(G, H)
        non_normal += not normal
        b0 = Q.base_coset
        left_id = all(int(T.counts[b0, b, b]) == H.order
                      for b in range(T.coset_count))
        point_products = all(
            int(T.counts[a, b, int(Q.coset_of[G.op(int(Q.reps[a]), int(Q.reps[b]))])])
            == H.order
            for a in range(T.coset_count) for b in range(T.coset_count))
        if not (normal == left_id == point_products):
            discrepancies.append(name)
    ok = not discrepancies and non_normal >= 3
    _report(5, "left identity and point-mass products hold iff the subgroup is normal",
            ok, f"{non_normal} non-normal pairs, discrepancies: {discrepancies or 'none'}")


def test_criterion_06_quotient_integral_formula(catalog_ctx):
    worst = 0.0
    for name, G, H, Q, T in catalog_ctx:
        g = _rng("W0_WEIL")
        gc = ca.group_carrier(G)
        for _ in range(TRIALS):
            f = ca.DensityFunction(gc, g.random(G.order) + 1j * g.random(G.order))
            rho = draw_rho(g, Q)
            lhs, rhs = ca.quotient_integral_check(Q, rho, f)
            worst = max(worst, abs(lhs - rhs))
    _report(6, "group sum equals weighted coset sum for 100 random (f, rho)/entry",
            worst <= 1e-10, f"max residual {worst:.2e} <= 1e-10")


def test_criterion_07_isometries_exact(catalog_ctx):
    ok = True
    for name, G, H, Q, T in catalog_ctx:
        g = _rng("P3_LIFT", salt=7)
        h = H.order
        for _ in range(25):
            # lift: exact section and exact total-variation preservation
            s = draw_rational_weights(g, Q.coset_count)
            lifted = lift_weights(Q.coset_of, h, s)
            back = push_weights(Q.member_table, lifted)
            ok = ok and back == s
            ok = ok and lifted.abs_squared() * (h * h) == s.abs_squared()[Q.coset_of]
            # embedding: exact norm identity termwise against lambda
            nums, dens = g.integers(1, 5, Q.coset_count), g.integers(1, 5, Q.coset_count)
            lam = ExactVector.from_fractions(
                [Fraction(h * int(a), int(b)) for a, b in zip(nums, dens)])
            phi = draw_rational_weights(g, Q.coset_count)
            ok = ok and (phi * lam).abs_squared() == phi.abs_squared() * (lam * lam)
    _report(7, "lift and density-embedding are exact isometries; lift sections exactly", ok)


def test_criterion_08_ideal_property(catalog_ctx):
    worst = 0.0
    for name, G, H, Q, T in catalog_ctx:
        g = _rng("T18_IDEAL")
        qc = ca.quotient_carrier(Q)
        for t in range(TRIALS):
            rho = draw_rho(g, Q) if t % 2 else ca.rho_ones(Q)
            lam = ca.quasi_invariant_lambda(Q, rho)
            phi = ca.DensityFunction(qc, g.random(Q.coset_count) + 1j * g.random(Q.coset_count))
            sigma = _rand_measure(g, qc)
            psi = ca.ideal_factorize(lam, T, phi, sigma)
            target = ca.quotient_convolve(T, ca.embed_density(lam, phi), sigma)
            worst = max(worst, ca.total_variation(ca.embed_density(lam, psi) - target))
    _report(8, "products with embedded densities factor back through lambda",
            worst <= 1e-12, f"max residual {worst:.2e} <= 1e-12")


def test_criterion_09_lp_contraction(catalog_ctx):
    worst = 0.0
    for name, G, H, Q, T in catalog_ctx:
        g = _rng("P19_LP")
        qc = ca.quotient_carrier(Q)
        for t in range(200):
            p = float((1, 2, 3)[t % 3])
            rho = draw_rho(g, Q) if t % 2 else ca.rho_ones(Q)
            lam = ca.quasi_invariant_lambda(Q, rho)
            sigma = _rand_measure(g, qc)
            phi = ca.DensityFunction(qc, g.random(Q.coset_count) + 1j * g.random(Q.coset_count))
            side = ("left", "right")[t % 2]
            out = ca.lp_action(T, rho, side, sigma, phi, p)
            worst = max(worst, ca.lp_norm(lam, out, p)
                        - ca.total_variation(sigma) * ca.lp_norm(lam, phi, p))
    _report(9, "measure actions contract the p-norm for p in {1,2,3}, 200 draws/entry",
            worst <= 1e-10, f"max excess {worst:.2e} <= 1e-10")


def test_criterion_10_degenerate_reductions():
    ok = True
    for token in ("S3", "D4"):
        G = ca.builtin_from_token(token)
        # trivial subgroup: the coset convolution is the group convolution, exactly
        Qe = ca.build_coset_space(G, ca.generate_subgroup(G, []))
        Te = ca.structure_table(Qe)
        onehot = np.zeros((G.order,) * 3, dtype=np.int64)
        for a in range(G.order):
            for b in range(G.order):
                onehot[a, b, G.op(a, b)] = 1
        ok = ok and np.array_equal(Te.counts, onehot)
        g = _rng("degenerate", salt=10)
        for _ in range(10):
            s1 = draw_rational_weights(g, G.order)
            s2 = draw_rational_weights(g, G.order)
            via_q = ca.quotient_convolve_exact(Te, s1, s2)
            via_g = group_convolve_weights(G.mul, G.inv, s1, s2)
            ok = ok and via_q == via_g
        # whole group: one coset, exact two-sided unit
        Qg = ca.build_coset_space(G, ca.generate_subgroup(G, list(range(G.order))))
        Tg = ca.structure_table(Qg)
        ok = ok and Qg.coset_count == 1
        ok = ok and np.array_equal(Tg.counts, np.array([[[G.order]]]))
        sol = ca.find_two_sided_identity(Tg)
        ok = ok and sol.solution == (Fraction(1),) and sol.unique
        for _ in range(5):
            s = draw_rational_weights(g, 1)
            d = ExactVector.from_fractions([1])
            ok = ok and ca.quotient_convolve_exact(Tg, s, d) == s
            ok = ok and ca.quotient_convolve_exact(Tg, d, s) == s
    _report(10, "trivial subgroup reduces to the group algebra; whole group to dimension 1",
            ok)


def test_criterion_11_info_probes_deterministic(catalog_ctx):
    ok = True
    details = []
    for idx, (name, G, H, Q, T) in enumerate(catalog_ctx):
        for cid in ("P1_MHG", "L17_COMPAT", "T8_ALGEBRA"):
            spec = CheckSpec(id=cid, trials=25, seed=42)
            r1 = run_check(spec, make_context(G, H, name=name), idx)
            r2 = run_check(spec, make_context(G, H, name=name), idx)
            ok = ok and r1.to_dict() == r2.to_dict()
            if cid == "P1_MHG":
                ok = ok and "dimension=0" in r1.notes  # |H| > 1 throughout
            if cid == "L17_COMPAT":
                ok = ok and "rho-weighted lift reproduces" in r1.notes
        sol = ca.find_left_identity(T)
        details.append(f"{name}: {'identity' if sol.solution else 'none'}")
    _report(11, "info probes are seed-stable with frozen content", ok,
            "; ".join(details[:4]) + "; ...")


def test_criterion_12_full_default_suite():
    specs = all_check_specs(trials=TRIALS, seed=42)
    start = time.perf_counter()
    reports = run_suite(default_catalog(), specs)
    elapsed = time.perf_counter() - start
    statuses = {r.status for r in reports}
    ok = (elapsed < 60.0
          and len(reports) == len(specs) * 8
          and statuses <= {"pass", "info"}
          and exit_code(reports) == 0)
    _report(12, "default suite (8 pairs x 15 checks, trials=100, seed=42) in < 60 s",
            ok, f"{len(reports)} reports in {elapsed:.1f} s, exit {exit_code(reports)}")
