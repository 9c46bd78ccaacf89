import dataclasses
import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetalg as ca
from cosetalg import cli, groups
from cosetalg.errors import (CapExceeded, NoIdentity, NoInverse, NotAPermutation,
                             NotAssociative, NotClosed, UnknownName)
from cosetalg.groups import parse_cycles, perm_label

from conftest import (checked_peak, eager_labels, oracle_perm_label, oracle_permutation_group,
                      traced_peak)


def compose(p, q):
    """(p * q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


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


def _identity_and_inverses_by_loops(table, labels):
    """The identity and inverse searches as first written: (e, inv) or the
    error's message."""
    n = len(table)
    ar = np.arange(n)
    found = [e for e in range(n)
             if np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar)]
    if not found:
        return "no two-sided neutral element"
    e, inv = found[0], []
    for a in range(n):
        hits = np.flatnonzero((table[a] == e) & (table[:, a] == e))
        if len(hits) == 0:
            return f"element {a} ({labels[a]}) has no two-sided inverse"
        inv.append(int(hits[0]))
    return e, inv


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.sampled_from(["add", "mul", "left-zero"]), st.randoms())
def test_identity_and_inverse_scans_match_the_loops(n, op, random):
    # relabeled Z_n under + (a group), Z_n under * (a monoid whose
    # non-units lack inverses) and x*y = x (no identity): all associative
    law = {"add": lambda i, j: (i + j) % n, "mul": lambda i, j: i * j % n,
           "left-zero": lambda i, j: i}[op]
    relabel = list(range(n))
    random.shuffle(relabel)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            table[relabel[i], relabel[j]] = relabel[law(i, j)]
    labels = [f"x{i}" for i in range(n)]
    try:
        G = ca.build_from_cayley_table(labels, table)
        got = (G.identity, G.inv.tolist())
    except (NoIdentity, NoInverse) as err:
        got = str(err)
    assert got == _identity_and_inverses_by_loops(table, labels)


def test_identity_and_inverse_scans_within_their_byte_checks(monkeypatch):
    # Z_600 under multiplication: identity 1, and 0 is the first of the
    # elements without an inverse
    n = 600
    table = np.multiply.outer(np.arange(n), np.arange(n)) % n
    labels = [f"x{i}" for i in range(n)]

    def scan():
        groups._inverses(table, groups._identity(table), labels)

    def no_inverse():
        with pytest.raises(NoInverse, match=r"^element 0 \(x0\) has"):
            scan()

    checked, peak = checked_peak(monkeypatch, groups, no_inverse)
    assert peak <= max(checked)
    monkeypatch.setattr(groups, "BYTE_BUDGET", max(checked) - 1)

    def refused():
        with pytest.raises(CapExceeded, match="identity and inverse scans of order 600"):
            scan()

    assert traced_peak(refused) < max(checked) // 4   # before the inverse scan


@pytest.mark.parametrize("token", ["S5", "A6", "C1200"])
def test_inverse_scan_within_its_byte_check_on_group_tables(monkeypatch, token):
    # the scan runs to completion over rows alone: each block's mask and,
    # past the first block (C1200 takes two), the last block's are counted
    # with the per-row temporaries
    G = _light_group(token)
    table, found, labels = np.array(G.mul), [], G.labels   # formatted before the trace
    checked, peak = checked_peak(monkeypatch, groups, lambda: found.append(
        groups._inverses(table, G.identity, labels)))
    assert found[0].tolist() == G.inv.tolist()
    assert len(checked) == 1 and peak <= checked[0]


def test_out_of_range_entry_rejected():
    with pytest.raises(NotClosed, match=r"mul\(1,1\)"):
        ca.build_from_cayley_table(["e", "a"], [[0, 1], [1, 2]])


@pytest.mark.parametrize("table,message", [
    ([[0.2, 1.9], [1, 0]], "entry mul(0,0) = 0.2 is not an integer"),
    ([[0, 1], [1, 0.0]], "entry mul(1,1) = 0.0 is not an integer"),
    ([[True, False], [False, True]], "entry mul(0,0) = True is not an integer"),
    ([[0, "1"], [1, 0]], "entry mul(0,1) = '1' is not an integer"),
    ([[0, 1], [1, 10 ** 29]], f"entry mul(1,1) = {10 ** 29} out of range"),
    ([[0, -1], [1, 0]], "entry mul(0,1) = -1 out of range"),
    ([[0, 1], [1]], "table row 1 is not 2 entries"),
    ([[0, [1]], [1, 0]], "table row 0 is not 2 entries"),
], ids=["truncated", "whole-float", "bool", "string", "beyond-int64", "negative", "ragged",
        "nested"])
def test_table_entries_must_be_integers_in_range(table, message):
    # the truncated table was accepted as C2, 10**29 raised OverflowError,
    # and numpy refused the ragged and nested tables naming no row
    with pytest.raises(NotClosed, match=re.escape(message)):
        ca.build_from_cayley_table(["e", "a"], table)


@pytest.mark.parametrize("spec,message", [
    ({"degree": 2, "generators": [[1, 0.5]]}, "generator 0 entry 1 = 0.5 is not an integer"),
    ({"degree": 2, "generators": [[True, False]]}, "generator 0 entry 0 = True is not an integer"),
    ({"degree": 2, "generators": [[1, "0"]]}, "generator 0 entry 1 = '0' is not an integer"),
    ({"degree": 2, "generators": [[1, 0], [1, 10 ** 29]]},
     f"generator 1 entry 1 = {10 ** 29} out of range"),
    ({"degree": 2, "generators": [[1, -1]]}, "generator 0 entry 1 = -1 out of range"),
    ({"degree": 2, "generators": [[1, 1]]}, "generator 0 is not a permutation of 0..1"),
    ({"degree": 2, "generators": [[1, 0, 2]]}, "generator 0 is not a permutation of 0..1"),
    ({"degree": 2.9, "generators": [[1, 0]]}, "degree must be an integer >= 1, got 2.9"),
    ({"degree": "2", "generators": [[1, 0]]}, "degree must be an integer >= 1, got '2'"),
    ({"degree": 0, "generators": []}, "degree must be an integer >= 1, got 0"),
    ({"degree": 2, "generators": [[1, [0]]]}, "generator 0 entry 1 = [0] is not an integer"),
], ids=["half", "bools", "string", "beyond-int64", "negative", "repeat", "long", "float-degree",
        "string-degree", "zero-degree", "nested"])
def test_permutation_entries_must_be_integers_in_range(spec, message):
    # the first three built S2, a degree of 2.9 was read as 2, and numpy
    # refused the nested point naming none
    with pytest.raises(NotAPermutation, match=re.escape(message)):
        ca.group_from_dict({"permutations": spec})


def test_non_associative_rejected():
    ca.build_from_cayley_table(list("eab"), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    with pytest.raises(NotAssociative, match=r"\(1,1,1\)"):
        ca.build_from_cayley_table(list("eab"), [[0, 1, 2], [1, 2, 0], [2, 1, 0]])


# Builtin groups up to order 24, Cayley-table and permutation built alike.
LIGHT_GROUPS = ("C5", "S3", "C6", "D4", "Q8", "D5", "A4", "D6",
                "direct_product(2,6)", "S4", "D12", "C24")


@functools.lru_cache(maxsize=None)
def _light_group(token):
    return ca.builtin_from_token(token)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_light_test_matches_full_scan(data):
    """Light's test on a generating set against the full triple scan, on
    relabelled and perturbed group tables: anywhere, in the last quarter of
    the rows, and at products of two non-generators."""
    G = _light_group(data.draw(st.sampled_from(LIGHT_GROUPS), label="group"))
    n = G.order
    table = np.array(G.mul)
    if data.draw(st.booleans(), label="relabel"):
        p = np.array(data.draw(st.permutations(range(n)), label="relabelling"))
        relabelled = np.empty_like(table)
        relabelled[np.ix_(p, p)] = p[table]
        table = relabelled
    where = data.draw(st.sampled_from(["anywhere", "late rows", "non-generators"]),
                      label="where")
    rows = cols = list(range(n))
    if where == "late rows":
        rows = rows[3 * n // 4:]
    elif where == "non-generators":
        gens = set(groups._generating_set(table))
        rows = cols = [x for x in range(n) if x not in gens]
    for _ in range(data.draw(st.integers(0, 3), label="perturbations")):
        x = data.draw(st.sampled_from(rows))
        y = data.draw(st.sampled_from(cols))
        table[x, y] = data.draw(st.integers(0, n - 1))

    witness = groups._first_non_associative(table)
    assert groups._light_associative(table, groups._generating_set(table)) == (witness is None)
    if witness is None:
        return
    with pytest.raises(NotAssociative,
                       match=re.escape("at (a,b,c)=({},{},{})".format(*witness))):
        ca.build_from_cayley_table([str(i) for i in range(n)], table)


def _first_non_associative_by_loops(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a, b], c] != table[a, table[b, c]]:
                    return a, b, c
    return None


@pytest.mark.parametrize("entries", [1 << 20, 60, 1])
def test_triple_scan_blocks_keep_the_first_triple(monkeypatch, entries):
    # blocks of b within one a, down to one pair per block, still name the
    # first offending (a, b, c) in row-major order
    monkeypatch.setattr(groups, "_SCAN_ENTRIES", entries)
    base = np.array(_light_group("D6").mul)
    for x, y, z in ((11, 11, 3), (0, 0, 1), (7, 2, 9), (5, 0, 0)):
        table = base.copy()
        table[x, y] = z
        assert groups._first_non_associative(table) == _first_non_associative_by_loops(table)
    assert groups._first_non_associative(base) is None


@pytest.mark.parametrize("scan,what", [
    (groups._light_associative, "associativity test of order 24"),
    (groups._first_non_associative, "associativity scan of order 24"),
], ids=["light", "triple"])
def test_associativity_scans_within_their_byte_checks(monkeypatch, scan, what):
    # S4's table with one entry changed: both scans find it within their
    # own check, the first one made, and one byte less refuses them, alone
    # and in the build (Light's test checks 192 bytes less than the scan)
    table = np.array(_light_group("S4").mul)
    table[23, 22] = table[23, 21]
    light = scan is groups._light_associative
    args = (table, groups._generating_set(table)) if light else (table,)
    scan(*args)   # warm
    checked, peak = checked_peak(monkeypatch, groups, lambda: scan(*args))
    assert peak <= checked[0] == (17 if light else 18) * 24 * 24 + (8 * 24 if light else 0) \
        + (5 << 10)
    monkeypatch.undo()
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)
    with pytest.raises(CapExceeded, match=f"^{what} needs {checked[0]} bytes"):
        scan(*args)
    with pytest.raises(CapExceeded, match=f"^{what} needs"):
        ca.build_from_cayley_table([str(i) for i in range(24)], table)


def test_generating_set_generates():
    for token in LIGHT_GROUPS:
        G = _light_group(token)
        gens = groups._generating_set(G.mul)
        assert len(gens) <= 1 + int(np.log2(G.order))
        assert ca.generate_subgroup(G, gens).order == G.order


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


def test_cap_exceeded(monkeypatch):
    monkeypatch.setattr(ca.groups, "DEFAULT_ORDER_CAP", 10)
    with pytest.raises(CapExceeded, match="closure exceeds cap 10"):
        ca.build_from_permutation_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


def test_closure_rows_are_byte_checked_as_they_grow(monkeypatch):
    # a transposition of degree 2**15: int32 rows of 128 KiB, a table phase
    # of 80 bytes (the 2 x 2 table, steps, left and inv) and 5 KiB of small
    # arrays; each round checks
    # the rows so far (as rows and as keys) and its products (as rows, keys
    # and the next frontier)
    degree = 1 << 15
    swap = [1, 0] + list(range(2, degree))
    width = 4 * degree
    checked, _ = checked_peak(monkeypatch, groups,
                              lambda: ca.build_from_permutation_generators(degree, [swap]))
    assert checked == [width * (2 * 1 + 3 * 1), width * (2 * 2 + 3 * 1),
                       8 * (4 + 2 * 2 + 2) + (5 << 10)]
    monkeypatch.undo()
    G = ca.build_from_permutation_generators(degree, [swap])
    assert G.perms.dtype == np.int32 and G.perms.shape == (2, degree)
    assert G.labels == ("e", "(1,2)") and ca.find_element(G, "(2,1)") == 1
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[1] - 1)
    with pytest.raises(CapExceeded, match=f"^permutation closure of degree {degree} needs"):
        ca.build_from_permutation_generators(degree, [swap])


@pytest.mark.parametrize("source", ["builtin:C30000000", "builtin:D30000000",
                                    "builtin:S30000000", "builtin:A30000000", "file"])
def test_oversized_permutation_builds_are_refused_before_they_allocate(tmp_path, capsys, source):
    # a builtin past the order cap is refused before its generators' n-point
    # lists are built, and a group file of degree 4 * 10**8 by the first
    # round's byte check, before the identity's row: each raises CapExceeded
    # within 1 MB traced, and the CLI exits 2
    message = "closure exceeds cap 10080"
    if source == "file":
        source = str(tmp_path / "big.json")
        with open(source, "w") as f:
            json.dump({"permutations": {"degree": 400_000_000, "generators": []}}, f)
        message = ("permutation closure of degree 400000000 needs 3200000000 bytes, "
                   "over the byte budget of 1073741824 bytes")

    def refused():
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            cli._resolve_group(source)

    assert traced_peak(refused) < 1 << 20
    assert cli.main(["groups", "--group", source]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_builtins_past_the_cap_are_refused_by_their_order(monkeypatch):
    # under a cap of 6: C6, D3 and S3, of order 6, build; C7, D4, A4 and S4,
    # of orders 7 to 24, are refused without a closure
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 6)
    for token in ("C6", "D3", "S3"):
        assert ca.builtin_from_token(token).order == 6
    monkeypatch.setattr(groups, "build_from_permutation_generators",
                        lambda *args, **kwargs: pytest.fail("a closure was started"))
    for token in ("C7", "D4", "A4", "S4"):
        with pytest.raises(CapExceeded, match="^closure exceeds cap 6$"):
            ca.builtin_from_token(token)


def _bfs_closure(degree, gens):
    """The closure's definition: breadth-first from the identity, successors
    x*g in generator order."""
    elems = [tuple(range(degree))]
    seen = set(elems)
    for x in elems:
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return elems


def _assert_table_is_composition(degree, gens):
    G = ca.build_from_permutation_generators(degree, gens)
    elems = _bfs_closure(degree, [tuple(g) for g in gens])
    assert [tuple(p) for p in G.perms.tolist()] == elems
    assert G.labels == tuple(map(oracle_perm_label, elems))
    assert G.perms.shape == (G.order, degree) and G.perms.dtype == np.int16
    assert not G.perms.flags.writeable
    perms = G.perms.astype(np.int64)
    for a in range(G.order):   # row a: perms[a] ∘ perms[b] for every b
        assert perms[G.mul[a]].tolist() == perms[a][perms].tolist()
    # the trusted closure and the validating table route agree on the rest
    T = ca.build_from_cayley_table(G.labels, G.mul)
    assert T.identity == G.identity == 0
    assert T.inv.tolist() == G.inv.tolist()


@st.composite
def _permutation_generators(draw):
    """1-3 generators on m <= 6 points, acting diagonally on up to 6 copies
    of those points scattered over a degree of at most 40, so the order stays
    within 6! = 720 while points run up to 39."""
    m = draw(st.integers(1, 6), label="points")
    small = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3),
                 label="generators")
    copies = draw(st.integers(1, min(6, 40 // m)), label="copies")
    degree = draw(st.integers(m * copies, 40), label="degree")
    spots = draw(st.permutations(range(degree)), label="placement")[:m * copies]
    gens = []
    for g in small:
        p = list(range(degree))
        for c in range(copies):
            for i in range(m):
                p[spots[c * m + i]] = spots[c * m + g[i]]
        gens.append(p)
    return degree, gens


@settings(max_examples=60, deadline=None)
@given(_permutation_generators())
def test_permutation_table_matches_composition(degree_and_gens):
    _assert_table_is_composition(*degree_and_gens)


def _assert_build_matches_oracle(degree, gens):
    G = ca.build_from_permutation_generators(degree, gens)
    mul, inv, labels = oracle_permutation_group(degree, gens)
    assert np.array_equal(G.mul, mul) and G.mul.dtype == np.int64
    assert np.array_equal(G.inv, inv) and G.inv.dtype == np.int64
    assert G.labels == labels


@settings(max_examples=60, deadline=None)
@given(_permutation_generators())
def test_permutation_build_matches_the_column_oracle(degree_and_gens):
    _assert_build_matches_oracle(*degree_and_gens)


# every builtin permutation family, from its least member up to order 720
@pytest.mark.parametrize("family,n", [
    ("cyclic", 1), ("cyclic", 2), ("cyclic", 7), ("cyclic", 60), ("cyclic", 720),
    ("dihedral", 3), ("dihedral", 4), ("dihedral", 10), ("dihedral", 60), ("dihedral", 360),
    ("symmetric", 2), ("symmetric", 3), ("symmetric", 4), ("symmetric", 5), ("symmetric", 6),
    ("alternating", 3), ("alternating", 4), ("alternating", 5), ("alternating", 6),
])
def test_builtin_families_match_the_column_oracle(family, n):
    _assert_build_matches_oracle(n, groups._FAMILIES[family][2](n))


@pytest.mark.parametrize("token", ["C7", "C60", "S5", "S6"])
def test_cayley_rows_are_byte_checked(monkeypatch, token):
    # the table phase holds the table, steps and left (m x n each) and inv,
    # 8·(n² + 2mn + n) bytes, and 5 KiB of small arrays, which outweigh the
    # table of C7; the closure's lists come from the build
    schreier_table, closures = groups._schreier_table, []
    monkeypatch.setattr(groups, "_schreier_table",
                        lambda *lists: closures.append(lists) or schreier_table(*lists))
    G = ca.builtin_from_token(token)
    monkeypatch.undo()
    n, m, found = G.order, len(G.generators), []
    checked, peak = checked_peak(monkeypatch, groups,
                                 lambda: found.extend(groups._schreier_table(*closures[0])))
    assert checked == [8 * (n * n + 2 * m * n + n) + (5 << 10)] and peak <= checked[0]
    assert found[0].tolist() == G.mul.tolist() and found[1].tolist() == G.inv.tolist()
    monkeypatch.undo()
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=f"^Cayley table of order {n} needs {checked[0]} "):
            ca.builtin_from_token(token)

    # refused before the table phase; below order 120 the closure's uncounted
    # lists and keys outweigh a quarter of the check
    assert traced_peak(refused) < checked[0] // 4 or n < 120


@pytest.mark.parametrize("degree,gens", [
    (5, []),
    (4, [(0, 1, 2, 3)]),
    (4, [(0, 1, 2, 3), (1, 2, 3, 0)]),
    (5, [(1, 0, 2, 3, 4), (1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    (3, [(1, 2, 0), (1, 2, 0)]),
], ids=["no-generators", "identity", "identity-and-4-cycle", "duplicate-transposition",
        "duplicate-only"])
def test_permutation_table_edge_generators(degree, gens):
    _assert_table_is_composition(degree, gens)


def test_closure_is_trusted_by_construction(monkeypatch):
    # a closure's table is composition itself: none of the checks of an
    # outside table runs, and the identity and inverses come out right
    def refuse(*args):
        raise AssertionError("a closure ran a table check")

    for check in ("_light_associative", "_generating_set", "_identity", "_inverses"):
        monkeypatch.setattr(groups, check, refuse)
    for token in ("S4", "D12", "A5", "C7", "C1", "S1"):
        G = ca.builtin_from_token(token)
        assert G.identity == 0 and G.labels[0] == "e"
        assert (G.mul[np.arange(G.order), G.inv] == 0).all()
        assert (G.mul[G.inv, np.arange(G.order)] == 0).all()


@pytest.mark.parametrize("token", ["C1", "S1", "cyclic(1)", "symmetric(1)"])
def test_trivial_builtins_close_like_any_cyclic_group(token):
    # C1 closes from the generator (0,) like every other cyclic group
    G = ca.builtin_from_token(token)
    assert (G.name, G.labels, G.mul.tolist(), G.inv.tolist()) == ("C1", ("e",), [[0]], [0])
    assert G.perms.tolist() == [[0]]
    assert ca.find_element(G, "e") == ca.find_element(G, "()") == 0


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


def test_direct_product_checks_its_bytes_before_building(monkeypatch):
    # Q8 x S3 gives the pairwise products; C40 x C40: the construction's one
    # request covers its traced peak before validation, and a budget one
    # byte short refuses before the table is built
    q8, s3 = ca.builtin_from_token("Q8"), ca.builtin_from_token("S3")
    a, b = np.divmod(np.arange(48), 6)
    G = groups.direct_product_group(q8, s3)
    assert (G.mul == q8.mul[np.ix_(a, a)] * 6 + s3.mul[np.ix_(b, b)]).all()
    assert G.labels[7] == f"({q8.labels[1]},{s3.labels[1]})"
    c40 = ca.builtin_catalog("cyclic", 40)
    c40.labels   # the factor's own labels, formatted under their own request
    monkeypatch.setattr(groups, "build_from_cayley_table", lambda labels, table, name: table)
    checked, peak = checked_peak(monkeypatch, groups,
                                 lambda: groups.direct_product_group(c40, c40))
    assert len(checked) == 1 and peak <= checked[0], (peak, checked)
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match="direct product of order 1600 needs"):
            groups.direct_product_group(c40, c40)

    assert traced_peak(refused) < checked[0] // 10


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


def _queue_subgroup(G, generators):
    """The subgroup closure's reference: when x joins, its products with
    every current member (and its inverse) are queued, so every pair is
    eventually covered by the later of the two."""
    members = {G.identity}
    queue = [int(g) for g in generators]
    while queue:
        x = queue.pop()
        if x in members:
            continue
        members.add(x)
        queue.append(int(G.inv[x]))
        for y in list(members):
            queue.append(int(G.mul[x, y]))
            queue.append(int(G.mul[y, x]))
    return tuple(sorted(members))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generate_subgroup_matches_queue_closure(relabelled_s3_pair, data):
    """Closure on the table against the queue loop, on random generator
    lists (empty and repeated ones included) of builtin groups up to order
    24 and of S3 relabelled so that its identity is element 5."""
    token = data.draw(st.sampled_from(LIGHT_GROUPS + ("relabelled S3",)), label="group")
    G = relabelled_s3_pair[0] if token == "relabelled S3" else _light_group(token)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4), label="generators")
    H = ca.generate_subgroup(G, gens + gens[:data.draw(st.integers(0, 2), label="repeats")])
    assert H.members == _queue_subgroup(G, gens)
    assert all(type(m) is int for m in H.members)



def test_subgroup_closure_gathers_in_checked_blocks(monkeypatch):
    # repeated generators are gathered once: a thousand copies of (12) in S4
    # need one column of 24 rows, 32 bytes an entry and 5 KiB
    G = _light_group("S4")
    gens = [int(m) for m in ca.subgroup_from_tokens(G, ["(12)", "(1234)"]).members[1:3]]
    want = _queue_subgroup(G, gens)
    # the one byte check covers the traced peak of the closure, whose 48
    # gathered entries are far below numpy's buffer size
    ca.generate_subgroup(G, gens)   # warm
    checked, peak = checked_peak(monkeypatch, groups, lambda: ca.generate_subgroup(G, gens))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.undo()
    monkeypatch.setattr(groups, "BYTE_BUDGET", 32 * 24 * 2 + (5 << 10))
    assert ca.generate_subgroup(G, gens * 1000).members == want
    # more distinct generators than the budget allows are refused, not gathered
    with pytest.raises(CapExceeded, match="subgroup closure over 3 generators "
                                          "needs 7424 bytes"):
        ca.generate_subgroup(G, list(range(3)))
    # a frontier gathered over several blocks closes to the same subgroup
    monkeypatch.undo()
    monkeypatch.setattr(groups, "_SCAN_ENTRIES", 2)
    for k in range(1, 6):
        assert ca.generate_subgroup(G, list(range(0, 24, k))).members == \
            _queue_subgroup(G, list(range(0, 24, k)))

def test_normality(s3, s3_h12, s3_a3):
    assert ca.test_normality(s3, s3_a3) is True
    assert ca.test_normality(s3, s3_h12) is False
    assert ca.test_normality(s3, ca.generate_subgroup(s3, list(range(6)))) is True


def _normal_by_loop(G, H):
    """test_normality as first written: a loop over every g in G."""
    mem = np.array(H.members, dtype=np.int64)
    member_mask = np.zeros(G.order, dtype=bool)
    member_mask[mem] = True
    for g in range(G.order):
        conj = G.mul[G.mul[g, mem], int(G.inv[g])]
        if not member_mask[conj].all():
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normality_matches_the_loop(relabelled_s3_pair, data):
    """Conjugation by a generating set against the loop over all of G, on
    subgroups from random generator lists of builtin groups up to order 24
    and of S3 relabelled so that its identity is element 5."""
    token = data.draw(st.sampled_from(LIGHT_GROUPS + ("relabelled S3",)), label="group")
    G = relabelled_s3_pair[0] if token == "relabelled S3" else _light_group(token)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3), label="generators")
    H = ca.generate_subgroup(G, gens)
    assert ca.test_normality(G, H) is _normal_by_loop(G, H)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recorded_generators_of_permutation_groups(data):
    """Groups closed from random lists of elements of builtin groups, the
    identity and repeats included: the build records the listed elements
    less the identity and repeats, in list order; they generate the group,
    and conjugating by them decides normality as the loop over all of G."""
    base = _light_group(data.draw(st.sampled_from(["S4", "D5", "A4", "C6"]), label="base"))
    listed = base.perms[data.draw(st.lists(st.integers(0, base.order - 1), max_size=4),
                                  label="generators")].tolist()
    G = ca.build_from_permutation_generators(base.perms.shape[1], listed)
    element = {tuple(p): x for x, p in enumerate(G.perms.tolist())}
    indices = [element[tuple(p)] for p in listed]
    assert G.generators == tuple(dict.fromkeys(x for x in indices if x != G.identity))
    assert ca.generate_subgroup(G, G.generators).order == G.order
    H = ca.generate_subgroup(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=3),
                                          label="subgroup generators"))
    assert ca.test_normality(G, H) is _normal_by_loop(G, H)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_recorded_generators_of_table_groups(relabelled_s3_pair, data):
    """Q8, C2 x C3 and S3 relabelled, built from tables: the build records
    Light's generating set, it generates the group, and conjugating by it
    decides normality as the loop over all of G."""
    token = data.draw(st.sampled_from(["Q8", "C2xC3", "relabelled S3"]), label="group")
    G = {"Q8": _light_group("Q8"), "C2xC3": _c2_times_c3(),
         "relabelled S3": relabelled_s3_pair[0]}[token]
    assert G.perms is None and G.generators == tuple(groups._generating_set(G.mul))
    assert ca.generate_subgroup(G, G.generators).order == G.order
    H = ca.generate_subgroup(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=3),
                                          label="subgroup generators"))
    assert ca.test_normality(G, H) is _normal_by_loop(G, H)


@functools.lru_cache(maxsize=None)
def _c2_times_c3():
    return groups.direct_product_group(_light_group("C2"), _light_group("C3"))


@pytest.mark.parametrize("token", ["S1", "C1"])
def test_trivial_groups_record_no_generators(token):
    G = ca.builtin_from_token(token)
    assert G.generators == ()
    assert ca.test_normality(G, ca.generate_subgroup(G, [])) is True


@pytest.mark.parametrize("gens", [[], ["(12)"], ["(12)", "(123)"], ["(12)", "(12345)"]],
                         ids=["|H|=1", "|H|=2", "|H|=6", "|H|=120"])
def test_normality_within_its_byte_check(monkeypatch, gens):
    # S5 built from all 120 of its elements, so 119 generators are recorded:
    # the one check covers the traced peak, and one byte short refuses it
    S5 = _light_group("S5")
    G = ca.build_from_permutation_generators(5, S5.perms.tolist())
    assert len(G.generators) == 119
    H = ca.subgroup_from_tokens(G, gens)
    checked, peak = checked_peak(monkeypatch, groups, lambda: ca.test_normality(G, H))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)
    with pytest.raises(CapExceeded, match="^normality test of order 120 needs"):
        ca.test_normality(G, H)


def test_normality_runs_no_generating_set(monkeypatch, relabelled_s3_pair):
    # neither test_normality, on table and permutation groups, nor a
    # permutation-group build looks for generators
    tables = [_light_group("Q8"), _c2_times_c3(), relabelled_s3_pair[0]]

    def refuse(*args):
        raise AssertionError("a generating set was searched for")

    monkeypatch.setattr(groups, "_generating_set", refuse)
    for G in tables + [ca.builtin_from_token(t) for t in ("S4", "D6", "A5", "C1")]:
        for gens in ([], [1 % G.order], list(G.generators)):
            H = ca.generate_subgroup(G, gens)
            assert ca.test_normality(G, H) is _normal_by_loop(G, H)


def test_a_table_build_searches_one_generating_set(monkeypatch, tmp_path):
    # Light's test runs on the generating set the group records: one search
    # per build, for Q8, a direct product and a group file holding a table
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(ca.group_to_dict(ca.builtin_from_token("S3"))))
    search = groups._generating_set
    builds = {"Q8": lambda: ca.builtin_from_token("Q8"),
              "C2xC3": lambda: groups.direct_product_group(_light_group("C2"), _light_group("C3")),
              "file": lambda: cli._resolve_group(str(path))}
    for name, build in builds.items():
        calls = []
        monkeypatch.setattr(groups, "_generating_set",
                            lambda table: calls.append(len(table)) or search(table))
        G = build()
        assert G.perms is None and calls == [G.order], name
        assert G.generators == tuple(search(G.mul)), name


@pytest.mark.parametrize("scan_entries", [None, 2], ids=["one block", "row blocks"])
def test_subgroup_from_members_refusals(s3, monkeypatch, scan_entries):
    # S3's elements in order: e, (12), (123), (23), (13), (132). The identity
    # is checked first; then the least bad member a is named, its missing
    # inverse before a product a*b outside the set, and then the first such b
    if scan_entries:
        monkeypatch.setattr(groups, "_SCAN_ENTRIES", scan_entries)
    assert ca.subgroup_from_members(s3, [5, 2, 0, 2]).members == (0, 2, 5)
    with pytest.raises(NoIdentity, match="subgroup must contain the identity"):
        ca.subgroup_from_members(s3, [2, 1])
    with pytest.raises(NoInverse, match="subgroup not closed under inverse at 2$"):
        ca.subgroup_from_members(s3, [0, 2, 3])
    # (12)(123) = (23): the closure failure at (12) precedes (123)'s inverse
    with pytest.raises(NotClosed, match=re.escape("subgroup not closed at (1,2)")):
        ca.subgroup_from_members(s3, [0, 1, 2])
    # (12)(13) = (132)
    with pytest.raises(NotClosed, match=re.escape("subgroup not closed at (1,4)")):
        ca.subgroup_from_members(s3, [0, 1, 4])
    for members in ([0, -1], [0, 6]):
        with pytest.raises(IndexError, match="member index out of range for order 6"):
            ca.subgroup_from_members(s3, members)


def test_subgroup_from_members_within_its_byte_check(monkeypatch):
    # A6 in S6 and A5 in S5: the one byte check covers the traced peak, also
    # below numpy's buffer size, where np.ix_ copies its index arrays; one
    # byte short the members are refused before the gather
    for group, gens in (("S6", ["(123)", "(23456)"]), ("S5", ["(123)", "(12345)"])):
        G = ca.builtin_from_token(group)
        members = ca.subgroup_from_tokens(G, gens).members
        checked, peak = checked_peak(monkeypatch, groups,
                                     lambda: ca.subgroup_from_members(G, members))
        assert len(checked) == 1 and peak <= checked[0]
        monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)
        with pytest.raises(CapExceeded, match=f"subgroup test of {len(members)} members"):
            ca.subgroup_from_members(G, members)
        monkeypatch.undo()


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
        G, H = build_entry(entry)
        Q = ca.build_coset_space(G, H)
        assert Q.coset_count * H.order == G.order


def _coset_space_by_loop(G, H):
    """(coset_of, reps, members per coset) as first written: a loop over the
    elements, opening a coset at each element not yet placed."""
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    mem = np.array(H.members, dtype=np.int64)
    for x in range(G.order):
        if coset_of[x] < 0:
            coset_of[G.mul[x, mem]] = len(reps)
            reps.append(x)
    return coset_of, reps, [np.flatnonzero(coset_of == c) for c in range(len(reps))]


def _relabelled_s4():
    """S4 as a Cayley table under a fixed shuffle of its indices, so its
    identity is not index 0."""
    G = ca.builtin_from_token("S4")
    perm = np.random.Generator(np.random.PCG64(31)).permutation(G.order)  # old -> new
    table = np.empty_like(G.mul)
    table[perm[:, None], perm[None, :]] = perm[G.mul]
    labels = [""] * G.order
    for old, new in enumerate(perm):
        labels[new] = G.labels[old]
    return ca.build_from_cayley_table(labels, table, name="S4'")


COSET_PAIRS = [(entry.group.removeprefix("builtin:"), list(entry.subgroup))
               for entry in ca.default_catalog()] + [
    ("S3", []), ("S4", ["(12)"]), ("S4", []), ("S5", ["(12)"]), ("A5", ["(123)"]),
    ("D6", ["(26)(35)"]), ("D6", ["(14)(25)(36)"]), ("S5", ["(12)", "(1234)"]),
]


@pytest.mark.parametrize("token,gens", COSET_PAIRS + [("relabelled S4", None)],
                         ids=[f"{t}/{g}" for t, g in COSET_PAIRS] + ["relabelled S4"])
def test_coset_space_matches_the_loop(token, gens):
    if gens is None:
        G = _relabelled_s4()
        assert G.identity != 0
        subgroups = [ca.generate_subgroup(G, [x]) for x in range(G.order)]
        subgroups.append(ca.generate_subgroup(G, [3, 5]))
    else:
        G = ca.builtin_from_token(token)
        subgroups = [ca.subgroup_from_tokens(G, gens)]
    for H in subgroups:
        Q = ca.build_coset_space(G, H)
        coset_of, reps, members = _coset_space_by_loop(G, H)
        assert np.array_equal(Q.coset_of, coset_of) and Q.reps.tolist() == reps
        assert Q.member_table.shape == (H.order, len(reps))
        assert all(np.array_equal(Q.members(c), m) for c, m in enumerate(members))
        assert not Q.member_table.flags.writeable


def test_coset_space_within_its_byte_check(monkeypatch):
    G = ca.builtin_from_token("S5")
    for H in (ca.generate_subgroup(G, []), ca.subgroup_from_tokens(G, ["(12)", "(1234)"])):
        checked, peak = checked_peak(monkeypatch, groups, lambda: ca.build_coset_space(G, H))
        assert len(checked) == 1 and peak <= checked[0]
        monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)

        def refused():
            with pytest.raises(CapExceeded, match="coset space of order 120"):
                ca.build_coset_space(G, H)

        assert traced_peak(refused) < checked[0] // 4
        monkeypatch.undo()


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
    perms = [tuple(p) for p in G.perms.tolist()]
    assert G.order == len(set(perms))
    for a in range(G.order):
        for b in range(G.order):
            assert perms[G.op(a, b)] == compose(perms[a], perms[b])


def test_find_element_by_label_and_cycles(s3, q8):
    assert ca.find_element(s3, "(12)") == 1
    assert ca.find_element(s3, "e") == 0
    assert ca.find_element(q8, "i") == 2
    # non-disjoint cycle input composes right-to-left
    assert ca.find_element(s3, "(12)(13)") == ca.find_element(
        s3, perm_label(compose((1, 0, 2), (2, 1, 0))))
    with pytest.raises(UnknownName):
        ca.find_element(s3, "(14)")


def test_find_element_non_canonical_tokens(s3):
    # any cycle spelling of an element resolves to it: rotated cycles, and
    # commas at degree <= 9
    for token, label in (("(21)", "(12)"), ("(1,2)", "(12)"), ("(231)", "(123)"),
                         ("(3,1,2)", "(123)"), ("()", "e")):
        assert ca.find_element(s3, token) == s3.labels.index(label)
    # a permutation group reads tokens through its permutations alone, never
    # its labels: here row 0 holds (12) and the last row the identity
    G = dataclasses.replace(s3, perms=np.roll(s3.perms, -1, axis=0), name="S3 mislabelled")
    assert [ca.find_element(G, t) for t in ("(12)", "(21)", "e", "()")] == [0, 0, 5, 5]


def test_find_element_matches_rows_within_its_byte_check(monkeypatch):
    # a permutation group matches the token's permutation against its rows:
    # one byte an entry of perms and one an element
    G = _light_group("S4")
    ca.find_element(G, "(1,2)")   # warm
    checked, peak = checked_peak(monkeypatch, groups, lambda: ca.find_element(G, "(1,2)"))
    assert checked == [4 * 24 + 24 + (5 << 10)] and peak <= checked[0]
    monkeypatch.undo()
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)
    with pytest.raises(CapExceeded, match="^element lookup in order 24 needs"):
        ca.find_element(G, "(1,2)")


DEGREE_12_SPEC = {"name": "G12", "permutations": {"degree": 12, "generators": [
    [10, 11, *range(2, 10), 0, 1],            # (1,11)(2,12)
    [*range(9), 10, 11, 9]]}}                 # (10,11,12)


@pytest.mark.parametrize("token", ["C1", "S1", "S3", "S4", "S5", "S6", "A5", "A6", "D4", "D6",
                                   "D60", "C6", "D1000", "degree-12-file"])
def test_labels_parse_back_to_their_permutations(token):
    # why find_element may read a permutation group's tokens through perms
    # alone: every label is the cycle notation of its own row
    G = (ca.group_from_dict(DEGREE_12_SPEC) if token == "degree-12-file"
         else ca.builtin_from_token(token))
    degree = G.perms.shape[1]
    for label, row in zip(G.labels, G.perms.tolist()):
        assert parse_cycles(label, degree) == tuple(row)


# every group of the default catalog, the benchmark ladder and solve steps,
# and the tests, with the first of degree 10 (comma-separated points) and
# the C1200, D1000 and S7 of the byte tests and CI
LABELLED_GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "C17", "C24", "C40", "C1100", "C1200",
                   "D4", "D5", "D6", "D10", "D12", "D20", "D60", "D1000", "S1", "S3", "S4",
                   "S5", "S6", "S7", "A4", "A5", "A6", "Q8", "direct_product(2,6)",
                   "degree-12-file")


@pytest.mark.parametrize("token", LABELLED_GROUPS)
def test_labels_on_first_use_match_the_eager_oracle(token):
    # `labels` formats every row once, as the build did before, and label(x)
    # formats one element alone to the same string; a table group indexes
    # its given labels
    G = (ca.group_from_dict(DEGREE_12_SPEC) if token == "degree-12-file"
         else ca.builtin_from_token(token))
    assert "labels" not in vars(G)   # nothing formatted by the build
    alone = [G.label(x) for x in range(G.order)]
    if G.perms is None:
        assert G.labels is G.table_labels
    else:
        assert G.labels == eager_labels(G)
    assert tuple(alone) == G.labels and G.labels is G.labels
    assert G.order == len(G.labels) == len(G.inv) and type(G.order) is int


def test_coset_labels_on_first_use(s3, s3_q):
    assert "labels" not in vars(s3_q) or s3_q.labels == ("C0", "C1", "C2")
    Q = ca.build_coset_space(s3, ca.generate_subgroup(s3, []))
    assert "labels" not in vars(Q)
    assert Q.labels == tuple(f"C{c}" for c in range(6)) == tuple(map(Q.label, range(6)))
    assert Q.coset_count == 6 and type(Q.coset_count) is int


def test_no_label_is_formatted_until_one_is_printed(monkeypatch):
    # the library's work never reads a label: builds, coset spaces, the
    # structure table, both convolutions and a float P3_LIFT run format none;
    # measure_to_dict formats the labels of the nonzero weights alone
    calls = []
    cycle_notation = groups._cycle_notation

    def counted(*args):
        calls.append(args)
        return cycle_notation(*args)

    monkeypatch.setattr(groups, "_cycle_notation", counted)
    S6, D60 = ca.builtin_from_token("S6"), ca.builtin_from_token("D60")
    Q = ca.build_coset_space(S6, ca.subgroup_from_tokens(S6, ["(12)"]))
    T = ca.structure_table(Q)
    x = ca.ComplexMeasure(Q, np.arange(Q.coset_count))
    ca.quotient_convolve(T, x, x)
    y = ca.point_mass(D60, [1, 2])
    ca.group_convolve(D60, y, y)
    ctx = ca.verifier.make_context(D60, ca.generate_subgroup(D60, D60.generators[1:]))   # <s>
    report = ca.run_check(ca.CheckSpec(id="P3_LIFT", trials=5, seed=1, mode="float"), ctx)
    assert report.status == "pass" and calls == []
    d = ca.measure_to_dict(ca.point_mass(S6, 400))
    assert len(calls) == 1 and list(d["weights"]) == [S6.label(400)]
    assert "labels" not in vars(S6) and "labels" not in vars(D60)


@pytest.mark.parametrize("token", ["D60", "S6", "C1200"])
def test_all_labels_within_their_byte_check(monkeypatch, token):
    # D60 (degree 60), S6 (degree 6) and C1200 (degree 1200): formatting the
    # whole tuple makes one request, sized from the order and the degree,
    # that covers its traced peak; a budget one byte short refuses it before
    # any point is named
    G = ca.builtin_from_token(token)
    n, degree = G.perms.shape
    checked, peak = checked_peak(monkeypatch, groups, lambda: G.labels)
    assert checked == [groups._label_bytes(n, degree)] and peak <= checked[0], (peak, checked)
    monkeypatch.undo()
    G = ca.builtin_from_token(token)
    monkeypatch.setattr(groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=f"^labels of order {n} and degree {degree} needs"):
            G.labels

    assert traced_peak(refused) < checked[0] // 10


def test_one_label_names_only_the_points_it_moves():
    # a transposition of degree 2**15: its label names two points; all the
    # point names would take ~2 MB, the one label well under 16 bytes a point
    degree = 1 << 15
    G = ca.build_from_permutation_generators(degree, [[1, 0] + list(range(2, degree))])
    G.label(0)   # warm
    label = []
    assert traced_peak(lambda: label.append(G.label(1))) < 16 * degree
    assert label == ["(1,2)"] and G.label(0) == "e"


def _find_by_search(G, token):
    """find_element's definition on a permutation group: parse, then the
    first row of perms equal to the permutation."""
    p = parse_cycles(token, G.perms.shape[1])
    return next(i for i, row in enumerate(G.perms.tolist()) if tuple(row) == p)


def _cycles(p):
    """The cycles of a permutation with at least two points, 1-based."""
    seen, cycles = set(), []
    for i in range(len(p)):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i + 1)
            i = p[i]
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


@st.composite
def _element_spellings(draw):
    """(G, element, token): a group of 1-3 generators moving at most 6 of
    degree <= 8 or 10..16 points, an element, and one of its cycle
    spellings: disjoint cycles rotated and reordered, with commas or (at
    degree <= 9) without, or a product x*y of two such spellings."""
    degree = draw(st.one_of(st.integers(1, 8), st.integers(10, 16)), label="degree")
    m = draw(st.integers(1, min(6, degree)), label="moved points")
    spots = draw(st.permutations(range(degree)), label="placement")[:m]
    gens = []
    for g in draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3),
                  label="generators"):
        p = list(range(degree))
        for i in range(m):
            p[spots[i]] = spots[g[i]]
        gens.append(p)
    G = ca.build_from_permutation_generators(degree, gens)
    perms = [tuple(p) for p in G.perms.tolist()]

    def spell(p):
        cycles = [c[k:] + c[:k] for c in _cycles(p)
                  for k in [draw(st.integers(0, len(c) - 1), label="rotation")]]
        cycles = draw(st.permutations(cycles), label="cycle order")
        sep = "," if degree > 9 or draw(st.booleans(), label="commas") else ""
        return "".join("(" + sep.join(map(str, c)) + ")" for c in cycles) or "()"

    x = draw(st.integers(0, G.order - 1), label="element")
    if draw(st.booleans(), label="product"):
        y = draw(st.integers(0, G.order - 1), label="right factor")
        # x = (x * y^-1) * y, and a token's cycles act right to left
        token = spell(perms[int(G.mul[x, G.inv[y]])]) + spell(perms[y])
    else:
        token = spell(perms[x])
        if token == "()":
            token = draw(st.sampled_from(["()", "e"]), label="identity")
    return G, x, token


@settings(max_examples=150, deadline=None)
@given(_element_spellings())
def test_find_element_matches_a_search_of_perms(case):
    G, x, token = case
    assert ca.find_element(G, token) == _find_by_search(G, token) == x


@pytest.mark.parametrize("token", ["", "i", "(14)", "abc", " ", "e(12)", "(ab)", "(1,a)",
                                   "(1,,2)"])
def test_find_element_refuses_tokens_outside_the_group(s3, token):
    with pytest.raises(UnknownName, match=re.escape(f"no element {token.strip()!r} in S3")):
        ca.find_element(s3, token)


def test_table_groups_resolve_tokens_by_label(q8):
    # no permutations: labels alone, even those that look like cycles
    G = ca.builtin_catalog("direct_product", 2, 3)
    assert G.perms is None and q8.perms is None
    for H in (q8, G):
        for i, label in enumerate(H.labels):
            assert ca.find_element(H, f" {label} ") == i
    for H, token in ((q8, "(12)"), (q8, "e"), (G, "(12)"), (G, "((12),e)x"), (G, "()")):
        with pytest.raises(UnknownName, match=re.escape(f"no element {token!r} in {H.name}")):
            ca.find_element(H, token)


@pytest.mark.parametrize("name,spellings", [
    ("C1", ["C1", "c1", "S1", "s1", "cyclic(1)", "symmetric(1)", "builtin:S1"]),
    ("C6", ["builtin:C6", "C6", "c6", "cyclic(6)", "Cyclic(6)", "builtin:CYCLIC(6)"]),
    ("D4", ["builtin:D4", "D4", "d4", "dihedral(4)", "Dihedral(4)", " D4 "]),
    ("S4", ["builtin:S4", "S4", "s4", "symmetric(4)", "Symmetric(4)", "builtin:symmetric(4)"]),
    ("A4", ["builtin:A4", "A4", "a4", "alternating(4)", "Alternating(4)", "ALTERNATING(4)"]),
    ("Q8", ["builtin:Q8", "Q8", "q8", "quaternion8", "Quaternion8"]),
])
def test_every_spelling_of_a_family_builds_the_same_group(name, spellings):
    built = [ca.builtin_from_token(t) for t in spellings]
    for G in built:
        assert (G.name, G.labels, G.mul.tolist()) == (name, built[0].labels, built[0].mul.tolist())


@pytest.mark.parametrize("token,message", [
    ("cyclic(0)", "cyclic(n) needs n >= 1"),
    ("C0", "cyclic(n) needs n >= 1"),
    ("dihedral(2)", "dihedral(n) needs n >= 3"),
    ("D2", "dihedral(n) needs n >= 3"),
    ("symmetric(0)", "symmetric(n) needs n >= 1"),
    ("S0", "symmetric(n) needs n >= 1"),
    ("alternating(2)", "alternating(n) needs n >= 3"),
    ("A2", "alternating(n) needs n >= 3"),
    ("direct_product(2)", "direct_product(m, n) needs two parameters"),
    ("foo(3)", "unknown builtin group 'foo'"),
    ("X3", "cannot parse builtin group token 'X3'"),
])
def test_builtin_families_refuse_small_orders_and_unknown_names(token, message):
    with pytest.raises(UnknownName, match=f"^{re.escape(message)}$"):
        ca.builtin_from_token(token)


def _parse_cycles_by_compose(token, degree):
    """parse_cycles as first written: one full-degree permutation per cycle,
    composed right to left."""
    result = tuple(range(degree))
    for chunk in reversed(re.findall(r"\(([^()]*)\)", token)):
        pts = ([int(s) - 1 for s in chunk.split(",")] if "," in chunk
               else [int(ch) - 1 for ch in chunk.strip()])
        cyc = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            cyc[a] = b
        result = compose(tuple(cyc), result)
    return result


@st.composite
def _cycle_tokens(draw):
    """(token, degree): up to six cycles, overlapping at will, each written
    with commas or, while its points are single digits, without."""
    degree = draw(st.integers(2, 14))
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        pts = draw(st.lists(st.integers(1, degree), min_size=2, max_size=degree, unique=True))
        sep = "," if max(pts) > 9 or draw(st.booleans()) else ""
        chunks.append("(" + sep.join(map(str, pts)) + ")")
    return "".join(chunks), degree


@settings(max_examples=300, deadline=None)
@given(_cycle_tokens())
def test_parse_cycles_matches_the_compose_loop(token_and_degree):
    token, degree = token_and_degree
    assert parse_cycles(token, degree) == _parse_cycles_by_compose(token, degree)


@pytest.mark.parametrize("token,message", [
    ("(14)", "bad cycle '14' for degree 3"),
    ("(14)(25)", "bad cycle '25' for degree 3"),    # read right to left
    ("(1,1)", "bad cycle '1,1' for degree 3"),
    ("(12", "cannot parse cycle token '(12'"),
    ("(ab)", "bad cycle 'ab' for degree 3"),
    ("(1,a)", "bad cycle '1,a' for degree 3"),
    ("(1,,2)", "bad cycle '1,,2' for degree 3"),
])
def test_parse_cycles_refusals(token, message):
    with pytest.raises(NotAPermutation, match=re.escape(message)):
        parse_cycles(token, 3)


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
