import json

import numpy as np
import pytest

import cosetalg as ca
from cosetalg.errors import (AmbiguousElement, CapExceeded, NoInverse,
                             NotAPermutation, NotAssociative, NotClosed,
                             UnknownName)
from cosetalg.groups import compose, parse_cycles, perm_label


def test_composition_convention_right_factor_first(s3):
    # (12) after (123): apply the 3-cycle first, then swap 1,2 -> (23)
    idx = {lab: i for i, lab in enumerate(s3.labels)}
    assert s3.op(idx["(12)"], idx["(123)"]) == idx["(23)"]
    assert s3.op(idx["(123)"], idx["(12)"]) == idx["(13)"]


def test_bfs_discovery_order(s3):
    assert s3.labels == ("e", "(12)", "(123)", "(23)", "(13)", "(132)")


def test_trivial_group_from_table():
    G = ca.build_from_cayley_table(["e"], [[0]])
    assert G.order == 1 and G.identity == 0


def test_c2_table_valid():
    G = ca.build_from_cayley_table(["e", "a"], [[0, 1], [1, 0]])
    assert G.order == 2
    assert int(G.inv[1]) == 1


def test_idempotent_non_identity_rejected():
    with pytest.raises(NoInverse):
        ca.build_from_cayley_table(["e", "a"], [[0, 1], [1, 1]])


def test_out_of_range_entry_rejected():
    with pytest.raises(NotClosed, match=r"mul\(1,1\)"):
        ca.build_from_cayley_table(["e", "a"], [[0, 1], [1, 2]])


def test_non_associative_rejected():
    ca.build_from_cayley_table(list("eab"), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    with pytest.raises(NotAssociative, match=r"\(1,1,1\)"):
        ca.build_from_cayley_table(list("eab"), [[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_permutation_closure_s3():
    G = ca.build_from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    orders = sorted(ca.element_order(G, x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]  # S3 signature


def test_permutation_closure_four_cycle():
    G = ca.build_from_permutation_generators(4, [(1, 2, 3, 0)])
    assert G.order == 4
    assert ca.element_order(G, 1) == 4


def test_empty_generators_give_trivial_group():
    G = ca.build_from_permutation_generators(3, [])
    assert G.order == 1


def test_not_a_permutation():
    with pytest.raises(NotAPermutation):
        ca.build_from_permutation_generators(3, [(0, 0, 2)])


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        ca.build_from_permutation_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=10)


@pytest.mark.parametrize("name,param,order", [
    ("cyclic", 6, 6),
    ("dihedral", 4, 8),
    ("symmetric", 4, 24),
    ("alternating", 4, 12),
])
def test_builtin_orders(name, param, order):
    assert ca.builtin_catalog(name, param).order == order


def test_quaternion8_single_involution(q8):
    assert q8.order == 8
    involutions = [x for x in range(8) if ca.element_order(q8, x) == 2]
    assert involutions == [q8.labels.index("-1")]


def test_direct_product():
    G = ca.builtin_catalog("direct_product", 2, 3)
    assert G.order == 6
    assert all(G.op(a, b) == G.op(b, a) for a in range(6) for b in range(6))


def test_unknown_builtin():
    with pytest.raises(UnknownName):
        ca.builtin_catalog("sporadic", 1)


def test_generate_subgroup_involution(s3):
    H = ca.subgroup_from_tokens(s3, ["(12)"])
    assert [s3.labels[m] for m in H.members] == ["e", "(12)"]


def test_generate_subgroup_three_cycle(s3):
    H = ca.subgroup_from_tokens(s3, ["(123)"])
    assert sorted(s3.labels[m] for m in H.members) == ["(123)", "(132)", "e"]


def test_generate_subgroup_empty(s3):
    H = ca.generate_subgroup(s3, [])
    assert H.members == (s3.identity,)


def test_normality(s3, s3_h12, s3_a3):
    assert ca.test_normality(s3, s3_a3) is True
    assert ca.test_normality(s3, s3_h12) is False
    assert ca.test_normality(s3, ca.generate_subgroup(s3, list(range(6)))) is True


def test_conjugation_witness(s3):
    # (13)(12)(13) = (23), so <(12)> is not normal
    idx = {lab: i for i, lab in enumerate(s3.labels)}
    g, h = idx["(13)"], idx["(12)"]
    assert s3.op(s3.op(g, h), int(s3.inv[g])) == idx["(23)"]


def test_coset_space_s3(s3, s3_q):
    assert s3_q.coset_count == 3
    members = [sorted(s3.labels[int(y)] for y in s3_q.members(c)) for c in range(3)]
    assert members == [["(12)", "e"], ["(123)", "(13)"], ["(132)", "(23)"]]
    assert [s3.labels[int(r)] for r in s3_q.reps] == ["e", "(123)", "(23)"]
    assert s3_q.base_coset == 0


def test_trivial_subgroup_cosets(s3):
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    assert Q.coset_count == 6
    assert np.array_equal(Q.coset_of, np.arange(6))


def test_lagrange_over_catalog():
    from cosetalg.verifier import build_entry, default_catalog
    for entry in default_catalog():
        G, H, _ = build_entry(entry)
        Q = ca.build_coset_space(G, H)
        assert Q.coset_count * H.order == G.order


def test_coset_map_well_defined_iff_normal(s3, s3_h12, s3_a3):
    for H, normal in ((s3_a3, True), (s3_h12, False)):
        Q = ca.build_coset_space(s3, H)
        table_ok = True
        for x in range(6):
            for y in range(6):
                via_reps = Q.coset_of[s3.op(int(Q.reps[Q.coset_of[x]]),
                                            int(Q.reps[Q.coset_of[y]]))]
                if Q.coset_of[s3.op(x, y)] != via_reps:
                    table_ok = False
        assert table_ok is normal


def test_round_trip_serialization(s3, q8):
    for G in (s3, q8):
        Gr = ca.group_from_dict(json.loads(json.dumps(ca.group_to_dict(G))))
        assert Gr.labels == G.labels
        assert np.array_equal(Gr.mul, G.mul)
        assert Gr.identity == G.identity


def test_group_from_permutation_spec():
    spec = {"permutations": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
            "name": "sym3"}
    G = ca.group_from_dict(spec)
    assert G.order == 6 and G.name == "sym3"


# An 18-cycle on points 23..40 of degree 40. A base-40 int64 row key gives
# each of those points weight 0 mod 2**64, so all 18 elements once shared a
# key and the table collapsed (NoIdentity).
HIGH_CYCLE_SPEC = {"name": "C18", "permutations": {
    "degree": 40, "generators": [list(range(22)) + list(range(23, 40)) + [22]]}}


@pytest.mark.parametrize("make", [
    lambda: ca.group_from_dict(HIGH_CYCLE_SPEC),
    lambda: ca.builtin_catalog("cyclic", 17),
    lambda: ca.builtin_catalog("dihedral", 20),
], ids=["C18-on-points-23-40", "C17", "D20"])
def test_permutation_table_matches_composition_at_large_degree(make):
    G = make()
    assert G.order == len(set(G.perms))
    for a in range(G.order):
        for b in range(G.order):
            assert G.perms[G.op(a, b)] == compose(G.perms[a], G.perms[b])


def test_find_element_by_label_and_cycles(s3, q8):
    assert ca.find_element(s3, "(12)") == 1
    assert ca.find_element(s3, "e") == 0
    assert ca.find_element(q8, "i") == 2
    # non-disjoint cycle input composes right-to-left
    assert ca.find_element(s3, "(12)(13)") == ca.find_element(
        s3, perm_label(compose((1, 0, 2), (2, 1, 0))))
    with pytest.raises(UnknownName):
        ca.find_element(s3, "(14)")


def test_parse_cycles_large_degree():
    p = parse_cycles("(1,10,2)", 10)
    assert perm_label(p) == "(1,10,2)"
    assert p[0] == 9 and p[9] == 1 and p[1] == 0


def test_builtin_token_parsing():
    assert ca.builtin_from_token("builtin:S3").order == 6
    assert ca.builtin_from_token("D4").order == 8
    assert ca.builtin_from_token("cyclic(5)").order == 5
    assert ca.builtin_from_token("builtin:direct_product(2,2)").order == 4
    assert ca.builtin_from_token("Q8").order == 8
    with pytest.raises(UnknownName):
        ca.builtin_from_token("builtin:wat")


def test_tables_are_immutable(s3):
    with pytest.raises(ValueError):
        s3.mul[0, 0] = 1
