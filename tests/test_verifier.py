import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetalg as ca
from cosetalg import _kernels, verifier
from cosetalg.errors import CapExceeded, UnknownCheckId
from cosetalg.exact import ExactVector
from cosetalg.groups import DEFAULT_ORDER_CAP
from cosetalg.verifier import (CHECK_IDS, CatalogEntry, CheckSpec, all_check_specs,
                               build_entry, default_catalog, exit_code, make_context,
                               run_check, run_suite)

from conftest import checked_peak, onehot_counts, rng, spy_every_byte_check, traced_peak


@pytest.fixture(scope="module")
def s3_pair():
    return build_entry(CatalogEntry("S3/<(12)>", "builtin:S3", ("(12)",)))


@pytest.fixture(scope="module")
def s3_normal_pair():
    return build_entry(CatalogEntry("S3/A3", "builtin:S3", ("(123)",)))


def test_check_ids_complete():
    assert len(CHECK_IDS) == 15
    assert set(CHECK_IDS) == {
        "P1_MHG", "P2_DENSITY", "P3_LIFT", "P4_ISOMETRY", "D6_CONV", "T8_ALGEBRA",
        "L11_RIGHT_ID", "C13_UNIQUE_ID", "C14_INVOLUTION", "P15_NORMALITY",
        "P16_EMBED", "L17_COMPAT", "T18_IDEAL", "P19_LP", "W0_WEIL"}


def test_default_tolerances_are_pinned():
    # one table holds every check with its default bound
    assert {cid: CheckSpec(id=cid).tol for cid in CHECK_IDS} == {
        "W0_WEIL": 1e-10, "P1_MHG": 1e-9, "P2_DENSITY": 1e-10, "P3_LIFT": 1e-12,
        "P4_ISOMETRY": 1e-12, "D6_CONV": 1e-12, "T8_ALGEBRA": 1e-10,
        "L11_RIGHT_ID": 1e-12, "C13_UNIQUE_ID": 1e-12, "C14_INVOLUTION": 1e-12,
        "P15_NORMALITY": 1e-12, "P16_EMBED": 1e-12, "L17_COMPAT": 1e-12,
        "T18_IDEAL": 1e-12, "P19_LP": 1e-10}
    assert CheckSpec(id="P19_LP", tolerance=0.5).tol == 0.5


def test_trials_rank_residuals_and_keep_the_first_witness():
    # with a trial per block and with all trials in one block
    for per_trial in (_kernels.BLOCK_BYTES, 1):
        def run(*residuals):
            r = np.array(residuals)
            return verifier._trials(len(r), lambda ts: [(r[ts], lambda t: {"trial": t})],
                                    per_trial)

        # a NaN stays the worst against later finite residuals and later NaNs
        worst, witness = run(1.0, np.nan, 5.0, np.nan, 1e300)
        assert np.isnan(worst) and witness == {"trial": 1}
        # the first of equal worst residuals keeps its witness
        assert run(2.0, 3.0, 3.0, 1.0) == (3.0, {"trial": 1})
        # a run of zero residuals has no witness
        assert run(0.0, 0.0, 0.0) == (0.0, None)
        # every pair a trial gives is ranked
        assert verifier._trials(2, lambda ts: [(ts, lambda t: "a"), (2 * ts + 1, lambda t: "b")],
                                per_trial) == (3, "b")


def test_a_failure_in_trial_t_records_t_plus_one_trials(monkeypatch, s3_pair):
    def check(spec, ctx, rng):
        def trial(ts):
            yield np.full(len(ts), 0.5), lambda t: {"trial": t}
            yield verifier._Fails(ts == 2, lambda t: {"trial": t, "reason": "planted"})

        return verifier._verdict(spec, *verifier._trials(spec.trials, trial, 1))

    monkeypatch.setitem(verifier._CHECKS, "W0_WEIL", (check, 1.0))
    report = run_check(CheckSpec(id="W0_WEIL", trials=10), make_context(*s3_pair))
    assert (report.status, report.max_residual, report.trials_run) == ("fail", 1.0, 3)
    assert report.counterexample == {"trial": 2, "reason": "planted"}
    # within its bound the same check passes with every trial run
    report = run_check(CheckSpec(id="W0_WEIL", trials=2), make_context(*s3_pair))
    assert (report.status, report.max_residual, report.trials_run) == ("pass", 0.5, 2)


def test_spec_validation():
    with pytest.raises(UnknownCheckId, match=f"'P99_NOPE'; the ids are {', '.join(CHECK_IDS)}$"):
        CheckSpec(id="P99_NOPE")
    with pytest.raises(ValueError):
        CheckSpec(id="W0_WEIL", trials=0)
    with pytest.raises(ValueError):
        CheckSpec(id="W0_WEIL", tolerance=0.0)
    with pytest.raises(ValueError):
        CheckSpec(id="W0_WEIL", mode="both")
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            CheckSpec(id="W0_WEIL", seed=seed)


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_all_checks_pass_on_s3_pairs(check_id, s3_pair, s3_normal_pair):
    for (G, H), name in ((s3_pair, "S3/<(12)>"), (s3_normal_pair, "S3/A3")):
        report = run_check(CheckSpec(id=check_id, trials=25), make_context(G, H, name=name))
        assert report.status in ("pass", "info"), report.counterexample
        if check_id in ("P1_MHG", "L17_COMPAT"):
            assert report.status == "info"


def test_right_identity_exact_mode(s3_pair):
    G, H = s3_pair
    report = run_check(CheckSpec(id="L11_RIGHT_ID", trials=20, mode="exact"),
                       make_context(G, H))
    assert report.status == "pass"
    assert report.max_residual == 0.0


def test_conv_and_algebra_exact_mode(s3_pair):
    G, H = s3_pair
    for cid in ("D6_CONV", "T8_ALGEBRA"):
        report = run_check(CheckSpec(id=cid, trials=10, mode="exact"), make_context(G, H))
        assert report.status == "pass"
        assert report.max_residual == 0.0


@pytest.mark.parametrize("coset", [1, 2])
def test_exact_mode_catches_a_planted_count(s3_pair, monkeypatch, coset):
    # one coset of the suborbit {1, 2} moved to the base coset's suborbit
    # {0}, in the table the exact convolution reads
    G, H = s3_pair
    convolve = verifier.quotient_convolve_exact

    def planted(T, s1, s2):
        labels = T.labels.copy()
        assert labels.tolist() == [0, 1, 1]
        labels[coset] = 0
        return convolve(dataclasses.replace(T, labels=labels), s1, s2)

    monkeypatch.setattr(verifier, "quotient_convolve_exact", planted)
    for cid in ("D6_CONV", "T8_ALGEBRA"):
        report = run_check(CheckSpec(id=cid, trials=10, mode="exact"), make_context(G, H))
        assert report.status == "fail" and report.max_residual == 1.0, (cid, report)


D6_PAIRS = [("builtin:S3", ["(12)"]), ("builtin:S3", ["(123)"]), ("builtin:D4", ["(24)"]),
            "relabelled"]


def _d6_pair(pair, relabelled_s3_pair):
    if pair == "relabelled":
        return relabelled_s3_pair
    G = ca.builtin_from_token(pair[0])
    return G, ca.subgroup_from_tokens(G, pair[1])


def _swap_shift_entries(T):
    """The image in rel of shift[0, 0] and shift[1, 0] swapped, which left
    rows 0 and 1 each repeating a coset: rel[0, 0] and rel[1, 0] swapped, so
    that neither row holds each suborbit its size times."""
    rel = T.rel.copy()
    rel[[0, 1], 0] = rel[[1, 0], 0]
    assert rel[0, 0] != rel[1, 0]
    return dataclasses.replace(T, rel=rel)


@pytest.mark.parametrize("pair", D6_PAIRS, ids=["S3/<(12)>", "S3/A3", "D4/<s>", "S3 relabelled"])
def test_d6_catches_a_shift_row_that_is_no_permutation(monkeypatch, relabelled_s3_pair, pair):
    G, H = _d6_pair(pair, relabelled_s3_pair)
    table = verifier.structure_table
    for mode in ("float", "exact"):
        report = run_check(CheckSpec(id="D6_CONV", trials=3, mode=mode), make_context(G, H))
        assert report.status == "pass"
    # the fault in the entry's own table only, not in tables of other representatives
    monkeypatch.setattr(verifier, "structure_table",
                        lambda Q, *reps: table(Q, *reps) if reps else _swap_shift_entries(table(Q)))
    for mode in ("float", "exact"):
        report = run_check(CheckSpec(id="D6_CONV", trials=3, mode=mode), make_context(G, H))
        assert report.status == "fail", report
        assert report.counterexample == {"reason": "row sums differ from |H|"}, report


_REL_ROWS = ca.quotient_algebra._rel_rows


def _planted_rows(plant):
    """The row-block builder with plant(Q, reps, start, block) applied to
    each block it yields."""
    def planted(Q, reps, *args):
        return ((start, plant(Q, reps, start, block))
                for start, block in _REL_ROWS(Q, reps, *args))
    return planted


@pytest.mark.parametrize("pair", D6_PAIRS, ids=["S3/<(12)>", "S3/A3", "D4/<s>", "S3 relabelled"])
def test_d6_catches_representative_dependent_factors(monkeypatch, relabelled_s3_pair, pair):
    G, H = _d6_pair(pair, relabelled_s3_pair)

    def plant(Q, reps, start, block):
        # rows 0 and 1 of rel swapped for every choice whose representatives
        # are not Q's
        if start or (np.asarray(reps) == Q.reps).all():
            return block
        return block[[1, 0, *range(2, len(block))]]

    monkeypatch.setattr(ca.quotient_algebra, "_rel_rows", _planted_rows(plant))
    for mode in ("float", "exact"):
        report = run_check(CheckSpec(id="D6_CONV", trials=3, mode=mode), make_context(G, H))
        assert report.status == "fail", report
        assert report.counterexample["reason"] == "tensor depends on representative choice"
        assert report.counterexample["reps"] != ca.build_coset_space(G, H).reps.tolist()


# Planted faults against the group route at the representatives: S4/S3,
# A4/V4 and S3/A3 read the k columns, S3/<(12)> and S4/{e} the whole product
# in float mode and the k columns in exact mode, and at S4/{e} the probe
# builds nothing.
ROUTE_PAIRS = [("builtin:S4", ["(12)", "(123)"]), ("builtin:A4", ["(12)(34)", "(13)(24)"]),
               ("builtin:S3", ["(123)"]), ("builtin:S3", ["(12)"]), ("builtin:S4", [])]
ROUTE_IDS = ["S4/S3", "A4/V4", "S3/A3", "S3/<(12)>", "S4/{e}"]


@pytest.mark.parametrize("pair", ROUTE_PAIRS, ids=ROUTE_IDS)
def test_d6_group_route_catches_swapped_rel_rows(monkeypatch, pair):
    # rows 0 and 1 of the entry's rel swapped: each row still holds every
    # suborbit its size times, so where |H| > 1 only the probe, switched off
    # here, or the comparison with the group route can catch it
    G, H = _d6_pair(pair, None)
    table = verifier.structure_table

    def swapped(Q, *reps):
        T = table(Q, *reps)
        rel = T.rel[[1, 0, *range(2, T.coset_count)]]
        assert not np.array_equal(rel, T.rel)
        return T if reps else dataclasses.replace(T, rel=rel)

    monkeypatch.setattr(verifier, "structure_table", swapped)
    if H.order > 1:
        monkeypatch.setattr(verifier, "_probe_representatives", lambda rng, T: None)
    for mode in ("float", "exact"):
        report = run_check(CheckSpec(id="D6_CONV", trials=3, mode=mode), make_context(G, H))
        assert report.status == "fail" and report.max_residual > 1e-3, report
        assert "trial" in report.counterexample, report


@pytest.mark.parametrize("pair", ROUTE_PAIRS[:4], ids=ROUTE_IDS[:4])
def test_d6_catches_a_group_kernel_that_drops_a_column_block(monkeypatch, pair):
    # the group kernel returns zeros for its first columns, as a kernel that
    # skipped a block of them would: D6 fails in both modes
    G, H = _d6_pair(pair, None)
    kernel = ca.quotient_algebra.group_convolve_weights

    def dropped(mul, inv, w1, w2, columns=None):
        out = kernel(mul, inv, w1, w2, columns)
        block = slice(0, max(1, out.shape[-1] // 3))
        if isinstance(out, np.ndarray):
            out = out.copy()
            out[..., block] = 0
            return out
        re, im = out.re.copy(), out.im.copy()
        re[..., block] = im[..., block] = 0
        return ExactVector(re, im, out.den)

    monkeypatch.setattr(ca.quotient_algebra, "group_convolve_weights", dropped)
    for mode in ("float", "exact"):
        report = run_check(CheckSpec(id="D6_CONV", trials=3, mode=mode), make_context(G, H))
        assert report.status == "fail" and report.max_residual > 1e-3, report


@pytest.mark.parametrize("pair", ROUTE_PAIRS[:4], ids=ROUTE_IDS[:4])
def test_p3_catches_a_lift_that_is_not_right_invariant(monkeypatch, pair):
    # right-invariance of the lift, and so of nu * lift, licenses the group
    # route at the representatives: one member of coset 0 given twice the
    # weight of the others fails P3 at its first trial
    G, H = _d6_pair(pair, None)
    lift = verifier.lift_to_invariant

    def uneven(Q, sigma):
        w = lift(Q, sigma).weights.copy()
        w[..., Q.member_table[-1, 0]] *= 2
        return ca.ComplexMeasure(Q.group, w)

    monkeypatch.setattr(verifier, "lift_to_invariant", uneven)
    report = run_check(CheckSpec(id="P3_LIFT", trials=3), make_context(G, H))
    assert report.status == "fail", report
    assert report.counterexample == {"trial": 0, "reason": "lift not right-invariant"}, report


@pytest.mark.parametrize("token,gens", [("S3", []), ("S3", ["(12)"]), ("S3", ["(123)"]),
                                        ("A4", ["(12)(34)", "(13)(24)"]),
                                        ("S4", ["(12)", "(123)"])],
                         ids=["h=1", "h=2", "h=3", "h=4", "h=6"])
def test_alternative_reps_draw_in_one_call_what_scalar_calls_drew(token, gens):
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    h, k = Q.subgroup.order, Q.coset_count
    want, got = rng(72), rng(72)
    scalar = [[Q.member_table[want.integers(0, h), c] for c in range(k)] for _ in range(10)]
    assert verifier._alternative_reps(got, Q, 10).tolist() == scalar
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("block_bytes", [1, 1 << 60], ids=["one table", "all tables"])
def test_d6_reports_the_first_representative_choice_that_differs(monkeypatch, block_bytes):
    # a fault planted on the 4th choice of the probe alone, on S4/S3 and
    # S3/<(12)>, with blocks of one row of rel or of all rows: D6 fails with
    # that choice's representatives, once it has read the first block of
    # that choice, which differs
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
    for token, gens in (("S4", ["(12)", "(123)"]), ("S3", ["(12)"])):
        G = ca.builtin_from_token(token)
        ctx = make_context(G, ca.subgroup_from_tokens(G, gens))
        k = ctx.T.coset_count
        for mode in ("float", "exact"):
            seen, blocks = [], []

            def plant(Q, reps, start, block):
                # the probe's choices come one at a time, in order
                if start == 0:
                    seen.append(np.asarray(reps).tolist())
                blocks.append(len(seen))
                if len(seen) == 4 and start == 0:
                    block = block.copy()
                    block[0] = ctx.T.rel[1, :block.shape[1]]
                return block

            monkeypatch.setattr(ca.quotient_algebra, "_rel_rows", _planted_rows(plant))
            report = run_check(CheckSpec(id="D6_CONV", trials=3, mode=mode), ctx)
            assert len(seen) == 4 and blocks.count(4) == 1, (seen, blocks)
            assert len(blocks) == (3 * k + 1 if block_bytes == 1 else 4)
            assert report.status == "fail", report
            assert report.counterexample == {"reason": "tensor depends on representative choice",
                                             "reps": seen[3]}, report


def test_d6_probe_compares_each_choices_suborbits(monkeypatch):
    # S4/S3, suborbits {0} and {1, 2, 3}: a choice whose rel holds the same
    # partition of each row, but with the two suborbits' numbers exchanged,
    # fails at that choice
    G = ca.builtin_from_token("S4")
    T = make_context(G, ca.subgroup_from_tokens(G, ["(12)", "(123)"])).T
    assert T.segments[3].tolist() == [0, 1, 1, 1]
    choices = verifier._alternative_reps(rng(77), T.quotient, 10)

    def plant(Q, reps, start, block):
        return 1 - block if (np.asarray(reps) == choices[4]).all() else block

    monkeypatch.setattr(ca.quotient_algebra, "_rel_rows", _planted_rows(plant))
    with pytest.raises(verifier._Fail) as err:
        verifier._probe_representatives(rng(77), T)
    assert err.value.counterexample["reps"] == choices[4].tolist()


def test_d6_probe_within_its_byte_checks(monkeypatch):
    # A6/<(123)>, 120 cosets: one check per choice, the row-block builder's,
    # for blocks of all 120 rows by default and of one row; it counts the ten
    # choices and the suborbit of each element, covers the probe's traced
    # peak and, of that, a block's flat index, gather, suborbits and mask
    # at 20 bytes per entry; one byte short refuses the probe
    G = ca.builtin_from_token("A6")
    T = make_context(G, ca.subgroup_from_tokens(G, ["(123)"])).T
    k = T.coset_count
    held = 10 * k * 8 + G.order * T.rel.itemsize
    for block_bytes, rows in ((_kernels.BLOCK_BYTES, k), (1, 1)):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
        # the generator is built outside the trace: the first one in a
        # process imports numpy.random's lazily loaded modules
        g = rng(73)
        checked, peak = checked_peak(monkeypatch, ca.quotient_algebra,
                                     lambda: verifier._probe_representatives(g, T))
        assert checked == [held + 20 * rows * k + (1 << 15)] * 10, (block_bytes, checked)
        assert peak <= checked[0], (block_bytes, peak, checked)
        elem_rank = T.segments[3].astype(T.rel.dtype).take(T.quotient.coset_of)
        blocks = ca.quotient_algebra._rel_rows(T.quotient, T.quotient.reps, elem_rank, "")
        gather = traced_peak(lambda: [np.array_equal(block, T.rel[start:start + rows])
                                      for start, block in blocks])
        assert gather <= 20 * rows * k + (1 << 15), (rows, gather)
        monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)
        with pytest.raises(CapExceeded, match="^representative probe with 120 cosets needs"):
            verifier._probe_representatives(rng(73), T)
        monkeypatch.undo()


@pytest.mark.parametrize("token", ["S3", "S5"])
def test_d6_probe_at_the_trivial_subgroup_draws_but_builds_nothing(monkeypatch, token):
    # at H = {e} every choice is Q.reps: the probe still draws its ten
    # choices, through which the generator is read, but builds no rel, even
    # one planted to differ from T's
    G = ca.builtin_from_token(token)
    T = make_context(G, ca.subgroup_from_tokens(G, [])).T
    builds, draws = [], []
    monkeypatch.setattr(ca.quotient_algebra, "_rel_rows",
                        lambda *args: builds.append(args) or iter([(0, 1 - T.rel)]))
    alternative_reps = verifier._alternative_reps
    monkeypatch.setattr(verifier, "_alternative_reps",
                        lambda rng, Q, count=1: draws.append(count) or alternative_reps(rng, Q, count))
    want, got = rng(78), rng(78)
    alternative_reps(want, T.quotient, 10)
    verifier._probe_representatives(got, T)
    assert builds == [] and draws == [10]
    assert got.bit_generator.state == want.bit_generator.state


def _tensor_of(rel, T):
    """counts[a, b, z] = (|H| / |O_b|) [rel[a, z] = rank[b]] from its
    definition, for any rel over T's suborbits: one-hot over (a, b, z)."""
    rank, h = T.segments[3], T.quotient.subgroup.order
    return (rel[:, None, :] == rank[None, :, None]) * (h // T.suborbit_sizes)[None, :, None]


def _faults(T):
    """Faults planted in one choice's rel: rows 0 and 1 swapped, the first
    entry moved to another suborbit, and row 1 filled with the suborbit of
    its first entry, a row whose histogram is no longer the suborbit sizes."""
    def moved(rel):
        rel = rel.copy()
        rel[0, 0] = (int(rel[0, 0]) + 1) % len(T.segments[2])
        return rel

    def filled(rel):
        rel = rel.copy()
        rel[1] = rel[1, 0]
        return rel

    return {"rows swapped": lambda rel: rel[[1, 0, *range(2, len(rel))]],
            "other suborbit": moved, "wrong histogram": filled}


@pytest.mark.parametrize("pair", [
    ("builtin:S3", ["(123)"]), ("builtin:Q8", ["i"]), ("builtin:S4", ["(12)(34)", "(13)(24)"]),
    ("builtin:S3", ["(12)"]), ("builtin:D4", ["(24)"]), ("builtin:S4", ["(12)", "(123)"]),
    ("builtin:S4", ["(12)"]), ("builtin:A4", ["(12)(34)"]), "relabelled"],
    ids=["S3/A3", "Q8/<i>", "S4/V4", "S3/<(12)>", "D4/<s>", "S4/S3", "S4/<(12)>",
         "A4/<(12)(34)>", "S3 relabelled"])
def test_d6_probe_agrees_with_the_dense_tensor(monkeypatch, relabelled_s3_pair, pair):
    # the probe's verdict against equality of one-hot count tensors: every
    # choice's tensor from its definition is T's, and with a fault planted
    # from the 4th choice on, the probe names the first choice whose planted
    # tensor differs from T's
    G, H = _d6_pair(pair, relabelled_s3_pair)
    T = make_context(G, H).T
    Q = T.quotient
    choices = verifier._alternative_reps(rng(79), Q, 10)
    assert all(np.array_equal(onehot_counts(Q, c), T.counts) for c in choices)
    verifier._probe_representatives(rng(79), T)
    for name, fault in _faults(T).items():
        planted = [ca.structure_table(Q, c).rel if j < 3 else fault(ca.structure_table(Q, c).rel)
                   for j, c in enumerate(choices)]
        differ = [not np.array_equal(_tensor_of(rel, T), T.counts) for rel in planted]
        assert differ == [False] * 3 + [True] * 7, name
        seen = []

        def planted_rows(Q, reps, *args):
            # the probe's choices come one at a time, in order, in one block
            seen.append(reps)
            return iter([(0, planted[len(seen) - 1])])

        monkeypatch.setattr(ca.quotient_algebra, "_rel_rows", planted_rows)
        with pytest.raises(verifier._Fail) as err:
            verifier._probe_representatives(rng(79), T)
        assert err.value.counterexample["reps"] == choices[3].tolist() and len(seen) == 4
        monkeypatch.undo()


def test_d6_probe_leaves_the_trial_draws_untouched(monkeypatch, s3_pair):
    # the first trial draws what it would after the ten representative
    # choices alone: the probe draws nothing else from rng
    G, H = s3_pair
    Q = ca.build_coset_space(G, H)
    g = verifier.rng_for(42, "D6_CONV", 0)
    for _ in range(10):
        verifier._alternative_reps(g, Q)
    want = g.random(Q.coset_count) + 1j * g.random(Q.coset_count)
    drawn = []   # the left operands of the float convolutions, trial by trial
    convolve = verifier.quotient_convolve
    monkeypatch.setattr(verifier, "quotient_convolve",
                        lambda T, a, b: drawn.append(a) or convolve(T, a, b))
    run_check(CheckSpec(id="D6_CONV", trials=1, seed=42), make_context(G, H))
    assert np.array_equal(drawn[0].weights[0], want)


def test_conv_and_algebra_exact_mode_at_scale():
    # D60/<s>, s the reflection i -> -i: 60 cosets of a group of order 120
    s = "".join(f"({i},{62 - i})" for i in range(2, 31))
    G, H = build_entry(CatalogEntry("D60/<s>", "builtin:D60", (s,)))
    assert (G.order, H.order) == (120, 2)
    for cid in ("D6_CONV", "T8_ALGEBRA"):
        report = run_check(CheckSpec(id=cid, trials=5, mode="exact"), make_context(G, H))
        assert (report.status, report.max_residual) == ("pass", 0.0), report


def test_reports_are_deterministic(s3_pair):
    G, H = s3_pair
    spec = CheckSpec(id="D6_CONV", trials=10, seed=7)
    r1 = run_check(spec, make_context(G, H, name="x"))
    r2 = run_check(spec, make_context(G, H, name="x"))
    assert r1.to_dict() == r2.to_dict()  # elapsed excluded from the dict


def test_info_probe_content_frozen(s3_pair, s3_normal_pair):
    G, H = s3_pair
    r = run_check(CheckSpec(id="P1_MHG", trials=5), make_context(G, H))
    assert "dimension=0" in r.notes
    r17 = run_check(CheckSpec(id="L17_COMPAT", trials=5), make_context(G, H))
    assert "rho-weighted lift reproduces" in r17.notes
    # trivial subgroup: the literal space has dimension 1
    Ge = ca.builtin_from_token("S3")
    He = ca.generate_subgroup(Ge, [])
    re = run_check(CheckSpec(id="P1_MHG", trials=5), make_context(Ge, He))
    assert "dimension=1" in re.notes


def test_identity_probe_notes(s3_pair, s3_normal_pair):
    G, H = s3_pair
    r = run_check(CheckSpec(id="T8_ALGEBRA", trials=5), make_context(G, H))
    assert "no left identity" in r.notes and "residual=1" in r.notes
    Gn, Hn = s3_normal_pair
    r2 = run_check(CheckSpec(id="T8_ALGEBRA", trials=5), make_context(Gn, Hn))
    assert "left identity found" in r2.notes


def test_default_catalog_shape():
    catalog = default_catalog()
    assert len(catalog) == 8
    non_normal = 0
    for entry in catalog:
        G, H = build_entry(entry)
        if not ca.test_normality(G, H):
            non_normal += 1
    assert non_normal == 3


def test_run_suite_subset_and_order():
    catalog = default_catalog()[:2]
    specs = [CheckSpec(id="L11_RIGHT_ID", trials=5), CheckSpec(id="D6_CONV", trials=5)]
    reports = run_suite(catalog, specs)
    assert [r.id for r in reports] == ["D6_CONV", "D6_CONV",
                                       "L11_RIGHT_ID", "L11_RIGHT_ID"]
    assert [r.entry for r in reports] == ["S3/<(12)>", "S3/A3"] * 2
    assert exit_code(reports) == 0


def test_run_suite_empty_checks():
    assert run_suite(default_catalog()[:1], []) == []


def test_run_suite_error_isolation():
    catalog = [CatalogEntry("broken", "builtin:S3", ("(17)",)),
               CatalogEntry("S3/A3", "builtin:S3", ("(123)",))]
    reports = run_suite(catalog, [CheckSpec(id="L11_RIGHT_ID", trials=5)])
    assert len(reports) == 2
    broken = [r for r in reports if r.entry == "broken"]
    assert len(broken) == 1 and broken[0].status == "fail"
    assert broken[0].counterexample is not None
    good = [r for r in reports if r.entry == "S3/A3"]
    assert good[0].status == "pass"
    assert exit_code(reports) == 1


def test_crashing_check_does_not_abort_suite(monkeypatch):
    def crash(spec, ctx, rng):
        raise ValueError("planted crash")

    monkeypatch.setitem(verifier._CHECKS, "W0_WEIL", (crash, 1e-10))
    specs = [CheckSpec(id="W0_WEIL", trials=5), CheckSpec(id="L11_RIGHT_ID", trials=5)]
    reports = run_suite(default_catalog()[:2], specs)
    assert len(reports) == 4
    crashed = [r for r in reports if r.id == "W0_WEIL"]
    assert all(r.status == "fail" for r in crashed)
    assert crashed[0].counterexample == {"error": "ValueError: planted crash"}
    assert all(r.status == "pass" for r in reports if r.id == "L11_RIGHT_ID")
    assert exit_code(reports) == 1


def test_draw_rho_is_the_float_of_its_integer_ratios():
    # numerators from the first k doubles, denominators from the next k,
    # and the correctly rounded quotient, bit for bit the float of each
    # Fraction
    G, H = build_entry(CatalogEntry("S4/S3", "builtin:S4", ("(12)", "(123)")))
    Q = ca.build_coset_space(G, H)
    k = Q.coset_count
    rho = verifier.draw_rho(rng(62), Q)
    u = rng(62).random(2 * k)
    nums, dens = 1 + np.floor(4 * u[:k]), 1 + np.floor(4 * u[k:])
    assert rho.values.tolist() == [float(Fraction(int(a), int(b))) for a, b in zip(nums, dens)]


def test_draw_rho_values_are_ratios_of_one_to_four():
    G, H = build_entry(CatalogEntry("S4/<(12)>", "builtin:S4", ("(12)",)))
    Q = ca.build_coset_space(G, H)
    ratios = {a / b for a in range(1, 5) for b in range(1, 5)}
    g = rng(63)
    seen = set()
    for _ in range(40):
        seen |= set(verifier.draw_rho(g, Q).values.tolist())
    assert seen == ratios


def test_uniform_doubles_map_into_their_ranges():
    # the largest double below 1 gives the last index for every order up
    # to the cap, and 1 + floor(4u) changes value exactly at the quarters
    below_one = np.nextafter(1.0, 0.0)
    n = np.arange(1, DEFAULT_ORDER_CAP + 1)
    assert np.array_equal(verifier._index(below_one, n), n - 1)
    edges = np.array([0.0, 0.25, 0.5, 0.75])
    assert (1 + verifier._index(edges, 4)).tolist() == [1, 2, 3, 4]
    below = np.nextafter(np.append(edges[1:], 1.0), 0.0)
    assert (1 + verifier._index(below, 4)).tolist() == [1, 2, 3, 4]
    # a rho part with numerator doubles in Re and denominator doubles in Im
    assert verifier._rho_values(edges + 1j * below).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert verifier._rho_values(below + 1j * edges[::-1]).tolist() == [0.25, 2 / 3, 1.5, 4.0]


def test_failed_context_does_not_abort_suite(monkeypatch):
    # a CapExceeded from one entry's structure table yields one failing
    # CONSTRUCTION record for that entry, under its catalog name, and the
    # other entries run
    table = verifier.structure_table

    def oversized(Q):
        if Q.group.name == "D4":
            raise CapExceeded("planted oversized structure table")
        return table(Q)

    monkeypatch.setattr(verifier, "structure_table", oversized)
    catalog = default_catalog()[:3]
    assert catalog[2].name == "D4/<r>"
    specs = [CheckSpec(id="L11_RIGHT_ID", trials=5), CheckSpec(id="C13_UNIQUE_ID")]
    reports = run_suite(catalog, specs)
    assert [(r.id, r.entry) for r in reports] == [
        ("C13_UNIQUE_ID", "S3/<(12)>"), ("C13_UNIQUE_ID", "S3/A3"),
        ("CONSTRUCTION", "D4/<r>"),
        ("L11_RIGHT_ID", "S3/<(12)>"), ("L11_RIGHT_ID", "S3/A3")]
    for r in reports:
        if r.entry == "D4/<r>":
            assert r.status == "fail" and r.counterexample == {
                "entry": "D4/<r>",
                "error": "CapExceeded: planted oversized structure table"}, r
        else:
            assert r.status == "pass", r
    # without an entry name the context is named after the pair
    monkeypatch.undo()
    G, H = build_entry(catalog[2])
    assert run_check(CheckSpec(id="L11_RIGHT_ID"), make_context(G, H)).entry == "D4/H4"


def test_make_context_reads_rho_on_its_coset_space(s3_pair, monkeypatch):
    # the context and its rho share one coset space build
    G, H = s3_pair
    built = []
    build = verifier.build_coset_space
    monkeypatch.setattr(verifier, "build_coset_space",
                        lambda G, H: built.append(H) or build(G, H))
    ctx = make_context(G, H, {"values": {"(123)": 2, "(23)": 0.5}})
    assert built == [H] and ctx.rho.quotient is ctx.Q
    want = ca.rho_from_dict(build(G, H), {"values": {"(123)": 2, "(23)": 0.5}})
    assert ctx.rho.values.tolist() == want.values.tolist() != [1.0] * 3
    assert make_context(G, H).rho.values.tolist() == [1.0] * 3


def test_suite_builds_each_group_token_once(monkeypatch):
    # the default catalog builds S3, D4, Q8, A4, C6 and S4 once each; a
    # token that fails to build gives each of its entries its own record
    built = []
    build = verifier.builtin_from_token
    monkeypatch.setattr(verifier, "builtin_from_token",
                        lambda token: built.append(token) or build(token))
    catalog = default_catalog() + [CatalogEntry("bad 1", "builtin:X9", ()),
                                   CatalogEntry("bad 2", "builtin:X9", ())]
    reports = run_suite(catalog, [CheckSpec(id="C14_INVOLUTION")])
    assert built == ["builtin:" + g for g in ("S3", "D4", "Q8", "A4", "C6", "S4", "X9", "X9")]
    assert [(r.id, r.entry, r.status) for r in reports if r.id == "CONSTRUCTION"] == [
        ("CONSTRUCTION", "bad 1", "fail"), ("CONSTRUCTION", "bad 2", "fail")]
    assert sum(r.status == "pass" for r in reports) == 8


def test_suite_builds_each_entry_once(monkeypatch):
    # one context, and one structure table of the entry's own
    # representatives, per catalog entry, shared by all fifteen checks
    contexts, tables = [], []
    context, table = verifier.make_context, verifier.structure_table
    monkeypatch.setattr(verifier, "make_context",
                        lambda *args: contexts.append(args[-1]) or context(*args))
    monkeypatch.setattr(verifier, "structure_table",
                        lambda Q, *reps: tables.append(reps) or table(Q, *reps))
    catalog = default_catalog()
    reports = run_suite(catalog, all_check_specs(trials=2))
    assert len(reports) == 15 * 8 and exit_code(reports) == 0
    assert contexts == [e.name for e in catalog]
    assert tables.count(()) == 8


def test_duplicate_entry_names_keep_catalog_order():
    catalog = [CatalogEntry("X", "builtin:S3", ("(12)",)),
               CatalogEntry("Y", "builtin:C6", ("(135)(246)",)),
               CatalogEntry("X", "builtin:D4", ("(24)",))]
    reports = run_suite(catalog, [CheckSpec(id="L11_RIGHT_ID", trials=5),
                                  CheckSpec(id="D6_CONV", trials=5)])
    assert [r.entry for r in reports] == ["X", "Y", "X"] * 2
    # the two X entries are distinct groups: each report matches a lone run
    for idx, entry in enumerate(catalog):
        G, H = build_entry(entry)
        alone = run_check(CheckSpec(id="D6_CONV", trials=5),
                          make_context(G, H, name=entry.name), idx)
        assert reports[idx].to_dict() == alone.to_dict()


def test_p19_fails_on_perturbed_operator_route(s3_pair, monkeypatch):
    route = verifier._operator_route

    def perturbed(*args):
        return route(*args) + 1e-6

    monkeypatch.setattr(verifier, "_operator_route", perturbed)
    G, H = s3_pair
    report = run_check(CheckSpec(id="P19_LP", trials=6), make_context(G, H))
    assert report.status == "fail"
    assert report.counterexample["side"] == "left"
    assert report.counterexample["p"] == 1.0
    assert report.max_residual > 1e-7


def test_info_never_fails_suite(s3_pair):
    G, H = s3_pair
    reports = [run_check(CheckSpec(id="P1_MHG", trials=5), make_context(G, H))]
    assert exit_code(reports) == 0


def test_reports_serialize_to_json(s3_pair):
    G, H = s3_pair
    reports = [run_check(spec, make_context(G, H)) for spec in all_check_specs(trials=5)]
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    parsed = json.loads(blob)
    assert len(parsed) == 15
    assert all(p["status"] in ("pass", "fail", "info") for p in parsed)



def _asdict_form(report):
    """to_dict as first written: dataclasses.asdict less the timing."""
    d = dataclasses.asdict(report)
    del d["elapsed_s"]
    d["max_residual"] = verifier._stable(report.max_residual)
    return d


def test_report_dicts_match_their_asdict_form(monkeypatch):
    # every default-catalog report in both modes, and a failing report with
    # a counterexample: the same keys in the same order, the same values,
    # and a counterexample the caller may change without changing the report
    reports = []
    for mode in ("float", "exact"):
        reports += run_suite(default_catalog(), all_check_specs(trials=2, mode=mode))
    monkeypatch.setattr(verifier, "_operator_route",
                        lambda *args, route=verifier._operator_route: route(*args) + 1e-6)
    G = ca.builtin_from_token("S3")
    failed = run_check(CheckSpec(id="P19_LP", trials=3),
                       make_context(G, ca.subgroup_from_tokens(G, ["(12)"])))
    assert failed.status == "fail" and failed.counterexample
    for report in reports + [failed]:
        got, want = report.to_dict(), _asdict_form(report)
        assert list(got.items()) == list(want.items()), report
    d = failed.to_dict()
    d["counterexample"]["side"] = "changed"
    assert failed.counterexample["side"] != "changed"


def test_exact_group_convolution_byte_check(monkeypatch):
    # order 120 on int64 numerators: the check covers the peak and refuses a
    # budget one byte short
    G = ca.builtin_from_token("S5")
    g = rng(25)
    w1, w2 = (verifier.draw_rational_weights(g, G.order) for _ in range(2))
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: _kernels.group_convolve_weights(G.mul, G.inv, w1, w2))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)
    with pytest.raises(CapExceeded, match="exact group convolution of order 120"):
        _kernels.group_convolve_weights(G.mul, G.inv, w1, w2)


@pytest.mark.parametrize("kind", ["python-int", "widening"])
@pytest.mark.parametrize("token", ["S4", "A5", "S5"])
def test_exact_group_convolution_byte_check_wide_operands(monkeypatch, token, kind):
    # numerators past 2**63, or int64 numerators whose products leave int64:
    # the one check covers the peak and refuses a budget one byte short
    G = ca.builtin_from_token(token)
    g = rng(27)
    if kind == "python-int":
        w1, w2 = (ExactVector(*(np.array([int(v) << 64 for v in g.integers(-99, 100, G.order)],
                                         dtype=object) for _ in range(2)), 7)
                  for _ in range(2))
    else:
        w1, w2 = (ExactVector(*g.integers(-2 ** 40, 2 ** 40, (2, G.order)), 3)
                  for _ in range(2))
        assert w1.re.dtype == np.int64
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: _kernels.group_convolve_weights(G.mul, G.inv, w1, w2))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=f"exact group convolution of order {G.order}"):
            _kernels.group_convolve_weights(G.mul, G.inv, w1, w2)

    assert traced_peak(refused) < checked[0] // 10


@pytest.mark.parametrize("bits", [256, 1024])
def test_exact_group_convolution_byte_check_grows_with_the_numerators(monkeypatch, bits):
    # S4, numerators ~2**bits: the products' ints grow with their bit length,
    # and so does the one check, which covers the peak and refuses a budget
    # one byte short
    G = ca.builtin_from_token("S4")
    g = rng(74)
    w1, w2 = (ExactVector(*(np.array([int(v) << bits for v in g.integers(-99, 100, G.order)],
                                     dtype=object) for _ in range(2)), 7)
              for _ in range(2))
    checked, peak = checked_peak(monkeypatch, _kernels,
                                 lambda: _kernels.group_convolve_weights(G.mul, G.inv, w1, w2))
    assert len(checked) == 1 and peak <= checked[0]
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", checked[0] - 1)

    def refused():
        with pytest.raises(CapExceeded, match=f"exact group convolution of order {G.order}"):
            _kernels.group_convolve_weights(G.mul, G.inv, w1, w2)

    assert traced_peak(refused) < checked[0] // 10


def _invariance_residual_loop(Q, weights):
    """The literal-system residual as first written: a loop over x and C."""
    G, worst = Q.group, 0.0
    coset_members = [Q.members(c) for c in range(Q.coset_count)]
    for x in range(G.order):
        for mem in coset_members:
            worst = max(worst, abs(weights[G.mul[x, mem]].sum() - weights[x]))
    return worst


@pytest.mark.parametrize("token,gens", [("S4", []), ("D6", []), ("S4", ["(12)"])],
                         ids=["S4/{e}", "D6/{e}", "S4/<(12)>"])
def test_invariance_residual_matches_the_loop(monkeypatch, token, gens):
    G = ca.builtin_from_token(token)
    Q = ca.build_coset_space(G, ca.subgroup_from_tokens(G, gens))
    g = rng(61)
    for w in (g.random(G.order) + 1j * g.random(G.order), np.full(G.order, 0.25 + 0j)):
        want = _invariance_residual_loop(Q, w)
        # the residual's one byte check is groups._scan_block's
        checked, peak = checked_peak(monkeypatch, ca.groups,
                                     lambda: verifier._invariance_residual(Q, w))
        assert len(checked) == 1 and peak <= checked[0]
        assert verifier._invariance_residual(Q, w) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_invariance_residual_in_blocks_matches_one_gather():
    # C1100 over its subgroup of order 2: the 1100 rows x run in two blocks
    # of at most 2^20 // 1100 = 953, the last one partial, and agree bit for
    # bit with one (n, k, |H|) gather
    G = ca.builtin_from_token("builtin:C1100")
    n = G.order
    involution = np.flatnonzero(G.mul[np.arange(n), np.arange(n)] == G.identity)
    Q = ca.build_coset_space(G, ca.generate_subgroup(G, [int(involution[-1])]))
    assert (Q.coset_count, (1 << 20) // n) == (550, 953)
    w = rng(63).random(n) + 1j * rng(64).random(n)
    want = np.abs(w[G.mul[:, Q.member_table.T]].sum(axis=2) - w[:, None]).max()
    assert verifier._invariance_residual(Q, w) == want


def test_identity_and_invariance_checks_at_120_cosets():
    # A6/<(123)>: order 360, 120 cosets, not normal
    G, H = build_entry(CatalogEntry("A6/<(123)>", "builtin:A6", ("(123)",)))
    assert (G.order, H.order) == (360, 3)
    for mode in ("float", "exact"):
        report = run_check(CheckSpec(id="C13_UNIQUE_ID", trials=2, mode=mode),
                           make_context(G, H))
        assert report.status == "pass" and "no two-sided identity" in report.notes, report
    report = run_check(CheckSpec(id="P1_MHG", trials=2), make_context(G, H))
    assert report.status == "info" and "dimension=0" in report.notes, report


def _nan_in_first_entry(kernel):
    """kernel, with NaN written into the first entry of each float result."""
    def planted(*args):
        out = kernel(*args)
        if isinstance(out, np.ndarray):
            out = out.copy()
            out[0] = np.nan
        return out
    return planted


@pytest.mark.parametrize("kernel,failing", [
    ("quotient", ("T8_ALGEBRA", "L11_RIGHT_ID", "T18_IDEAL", "D6_CONV", "P19_LP")),
    ("group", ("D6_CONV", "P19_LP")),
])
def test_nan_residuals_fail(monkeypatch, s3_pair, kernel, failing):
    # a NaN compares greater than nothing: each check ranks it above every
    # residual, keeps it against later finite ones, and fails its bound on it
    if kernel == "quotient":
        monkeypatch.setattr(ca.quotient_algebra, "quotient_convolve_weights",
                            _nan_in_first_entry(ca.quotient_algebra.quotient_convolve_weights))
    else:
        for module in (ca.measures, ca.quotient_algebra):
            monkeypatch.setattr(module, "group_convolve_weights",
                                _nan_in_first_entry(module.group_convolve_weights))
    ctx = make_context(*s3_pair)
    for cid in failing:
        report = run_check(CheckSpec(id=cid, trials=10), ctx)
        assert report.status == "fail" and np.isnan(report.max_residual), report
    assert np.isnan(verifier._worst(np.nan, 1.0)) and np.isnan(verifier._worst(1.0, np.nan))
    assert not verifier._worse(1.0, np.nan) and verifier._worse(np.nan, 1e300)


def test_basis_tests_on_planted_tables(s3_pair, s3_normal_pair):
    # S3/<(12)> (labels [0, 1, 1], rel [[0, 1, 1], [1, 0, 1], [1, 1, 0]]) and
    # S3/A3 (labels [0, 1], rel [[0, 1], [1, 0]]), base coset 0, with one
    # factor planted
    right, left = verifier._right_identity_on_basis, verifier._left_identity_on_basis
    products = verifier._point_mass_products
    ctx, normal = make_context(*s3_pair), make_context(*s3_normal_pair)
    T, Q, N = ctx.T, ctx.Q, normal.T
    assert T.rel.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert N.rel.tolist() == [[0, 1], [1, 0]]

    def planted(T, labels=None, rel=None):
        return dataclasses.replace(T, **{f: np.array(v, dtype=getattr(T, f).dtype)
                                         for f, v in (("labels", labels), ("rel", rel))
                                         if v is not None})

    assert (right(T, Q), left(T, Q), products(T, Q)) == (None, 1, False)
    assert (right(N, normal.Q), left(N, normal.Q), products(N, normal.Q)) == (None, None, True)
    # the base coset shares its suborbit with coset 1; row 2 of rel holds
    # the base coset's suborbit twice; row 1 holds it once, off the diagonal
    assert right(planted(T, labels=[0, 0, 2]), Q) == 0
    assert right(planted(T, rel=[[0, 1, 1], [1, 0, 1], [0, 1, 0]]), Q) == 2
    assert right(planted(T, rel=[[0, 1, 1], [0, 1, 1], [1, 1, 0]]), Q) == 1
    # S3/A3 with the base coset's suborbit doubled to {0, 1}, or with rel
    # sending C1 * C0 to C0
    doubled = planted(N, labels=[0, 0])
    assert (left(doubled, normal.Q), products(doubled, normal.Q)) == (0, False)
    assert not products(planted(N, rel=[[0, 1], [0, 1]]), normal.Q)


@pytest.mark.parametrize("cid,basis_test,what", [
    ("L11_RIGHT_ID", "_right_identity_on_basis", "right identity test"),
    ("P15_NORMALITY", "_point_mass_products", "point-mass product test"),
])
def test_basis_tests_refused_over_budget(monkeypatch, cid, basis_test, what):
    # S5/{e}, 120 cosets: the one byte check of each k x k basis test covers
    # its traced peak; within that budget less one byte the check gives a
    # failing CapExceeded record and stays within the budget
    G = ca.builtin_from_token("S5")
    ctx = make_context(G, ca.generate_subgroup(G, []))
    run_basis_test = getattr(verifier, basis_test)
    checked, peak = checked_peak(monkeypatch, verifier, lambda: run_basis_test(ctx.T, ctx.Q))
    assert len(checked) == 1 and peak <= checked[0]
    budget = checked[0] - 1
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", budget)
    reports = []
    peak = traced_peak(lambda: reports.append(run_check(CheckSpec(id=cid, trials=2), ctx)))
    (report,) = reports
    assert report.status == "fail", report
    assert report.counterexample["error"].startswith(
        f"CapExceeded: {what} with 120 cosets needs {checked[0]} bytes"), report
    assert peak <= budget


# --- trials in blocks ----------------------------------------------------------

def _planted_trials(residuals, fails=()):
    """_trials over planted residuals (one row per trial, one column per
    yield) and failure masks (one per test, in program order), in blocks of
    three trials."""
    r = np.array(residuals, dtype=float)

    def trial(ts):
        for j in range(r.shape[1]):
            yield r[ts, j], lambda t, j=j: {"trial": t, "yield": j}
        for j, mask in enumerate(fails):
            yield verifier._Fails(np.array(mask, dtype=bool)[ts],
                                  lambda t, j=j: {"trial": t, "fail": j}, 2.0 + j)

    return verifier._trials(len(r), trial, _kernels.BLOCK_BYTES // 3)


def test_trials_on_planted_residual_arrays():
    # a NaN mid-block ranks above later, larger numbers and keeps its witness
    worst, witness = _planted_trials([[1.0, 0.0], [0.5, np.nan], [7.0, 9.0], [np.nan, 1.0]])
    assert np.isnan(worst) and witness == {"trial": 1, "yield": 1}
    # a tie keeps the first witness in (trial, yield) order, across blocks too
    assert _planted_trials([[1.0, 3.0], [3.0, 2.0], [3.0, 3.0]]) == (3.0, {"trial": 0, "yield": 1})
    assert _planted_trials([[1.0], [2.0], [0.0], [2.0], [1.5]]) == (2.0, {"trial": 1, "yield": 0})
    # all-negative residuals leave the start value and no witness
    assert _planted_trials([[-1.0, -4.0], [-0.5, -1.0], [-2.0, -0.1], [-3.0, -9.0]]) == (0.0, None)
    # a failure in trial 4, in the second block, after a first block of passes
    with pytest.raises(verifier._Fail) as err:
        _planted_trials([[0.0]] * 6, [[0, 0, 0, 0, 1, 1]])
    assert (err.value.counterexample, err.value.residual, err.value.trials_run) == (
        {"trial": 4, "fail": 0}, 2.0, 5)
    # of two failing trials the earlier wins, though its test comes later in
    # program order; within a trial the first test in program order wins
    with pytest.raises(verifier._Fail) as err:
        _planted_trials([[0.0]] * 6, [[0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0]])
    assert (err.value.counterexample, err.value.trials_run) == ({"trial": 1, "fail": 1}, 2)
    with pytest.raises(verifier._Fail) as err:
        _planted_trials([[0.0]] * 4, [[0, 0, 1, 0], [0, 1, 1, 0]])
    assert (err.value.counterexample, err.value.residual) == ({"trial": 1, "fail": 1}, 3.0)
    # a start value and its witness stand against smaller residuals
    assert verifier._trials(3, lambda ts: [(np.ones(len(ts)), lambda t: {"trial": t})], 1,
                            5.0, {"start": True}) == (5.0, {"start": True})


_RESIDUALS = st.sampled_from([0.0, 1.0, 2.0, -1.0, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trials_rank_scalar_and_per_trial_residuals_in_trial_order(data):
    # blocks mixing one residual for all trials with one per trial, NaNs and
    # ties, and failures with one mask or residual for all or one per trial,
    # against a loop over the trials and each trial's yields in turn
    n = data.draw(st.integers(1, 7), label="trials")
    per_trial = st.lists(_RESIDUALS, min_size=n, max_size=n)
    columns = data.draw(st.lists(st.one_of(_RESIDUALS, per_trial), min_size=1, max_size=4),
                        label="residuals")
    masks = data.draw(st.lists(st.tuples(
        st.one_of(st.booleans(), st.lists(st.booleans(), min_size=n, max_size=n)),
        st.one_of(_RESIDUALS, per_trial)), max_size=2), label="failures")
    block_bytes = data.draw(st.sampled_from([1, 3, 1 << 30]), label="per-trial bytes")

    def at(x, t):
        return x[t] if isinstance(x, list) else x

    def cut(x, ts):
        return np.array(x)[ts] if isinstance(x, list) else x

    def trial(ts):
        for j, column in enumerate(columns):
            yield cut(column, ts), lambda t, j=j: {"trial": t, "yield": j}
        for j, (mask, residual) in enumerate(masks):
            yield verifier._Fails(cut(mask, ts), lambda t, j=j: {"trial": t, "fail": j},
                                  cut(residual, ts))

    failed = next(((t, j) for t in range(n) for j, (mask, _) in enumerate(masks)
                   if at(mask, t)), None)
    if failed is not None:
        t, j = failed
        with pytest.raises(verifier._Fail) as err:
            verifier._trials(n, trial, _kernels.BLOCK_BYTES // block_bytes)
        got = (err.value.counterexample, err.value.residual, err.value.trials_run)
        want = ({"trial": t, "fail": j}, at(masks[j][1], t), t + 1)
        assert str(got) == str(want)
        return
    worst, witness = 0.0, None
    for t in range(n):
        for j, column in enumerate(columns):
            if verifier._worse(at(column, t), worst):
                worst, witness = at(column, t), {"trial": t, "yield": j}
    got = verifier._trials(n, trial, _kernels.BLOCK_BYTES // block_bytes)
    assert str(got) == str((worst, witness))


def test_block_bytes_set_the_block_size(monkeypatch):
    blocks = []

    def trial(ts):
        blocks.append(ts.tolist())
        yield ts, None

    for block_bytes, per_trial, want in ((1 << 25, 1 << 24, [[0, 1], [2, 3], [4]]),
                                         (1 << 25, 1 << 30, [[0], [1], [2], [3], [4]]),
                                         (1 << 25, 1, [[0, 1, 2, 3, 4]]),
                                         (1, 1, [[0], [1], [2], [3], [4]])):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
        blocks.clear()
        assert verifier._trials(5, trial, per_trial) == (4, None)
        assert blocks == want


def _spy_trial_blocks(monkeypatch):
    """Per _trials call, in order: its trials, its bytes per trial and the
    length of each block it ran."""
    calls = []
    trials = verifier._trials

    def spy(n, trial, per_trial, *args):
        blocks = []
        calls.append((n, per_trial, blocks))

        def counted(ts):
            blocks.append(len(ts))
            return trial(ts)

        return trials(n, counted, per_trial, *args)

    monkeypatch.setattr(verifier, "_trials", spy)
    return calls


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_catalog_checks_run_their_trials_in_one_block(monkeypatch, mode):
    # every pass of trials in the default suite is one block: the 100 trials
    # of ten checks on each of the eight pairs, and the shorter passes
    calls = _spy_trial_blocks(monkeypatch)
    assert exit_code(run_suite(default_catalog(), all_check_specs(mode=mode))) == 0
    assert [c for c in calls if c[2] != [c[0]] * (c[0] > 0)] == []
    assert sum(n == 100 for n, _, _ in calls) == 10 * len(default_catalog())


@pytest.mark.parametrize("token,gens,trials", [
    ("S5", [], 50), ("A6", [], 50), ("S6", ["(12)"], 50), ("S4", ["(12)", "(123)"], 250),
    ("S5", ["(12)", "(123)"], 50), ("S6", ["(12)", "(345)"], 50),
    ("S6", ["(12)", "(12345)"], 50)],
    ids=["S5/{e}", "A6/{e}", "S6/<(12)>", "S4/S3", "S5/<(12),(123)>", "S6/<(12),(345)>",
         "S6/<(12),(12345)>"])
def test_check_peaks_stay_within_their_blocks_and_byte_requests(monkeypatch, token, gens, trials):
    # float trials, more than a block holds on these pairs: each check's
    # traced peak stays within its largest block of trials at the bytes per
    # trial it was sized by, plus the largest byte request made while it
    # runs and 16 KiB for its report (after a first run, whose one-off
    # allocations are not the check's); and a block batches no more trials
    # than keep each convolution's request within about one kernel block.
    # On the pairs with |H| from 6 to 120, P2_DENSITY's |H| densities per
    # trial size its blocks; S4/S3 runs 250 trials, as a block there holds
    # 122 to 130
    G = ca.builtin_from_token(token)
    ctx = make_context(G, ca.subgroup_from_tokens(G, gens))
    calls = _spy_trial_blocks(monkeypatch)
    requests = spy_every_byte_check(monkeypatch)
    several = 0
    for cid in CHECK_IDS:
        run_check(CheckSpec(id=cid, trials=1), ctx)
        calls.clear()
        requests.clear()
        peak = traced_peak(lambda: run_check(CheckSpec(id=cid, trials=trials), ctx))
        block = max((max(blocks, default=0) * per_trial for _, per_trial, blocks in calls),
                    default=0)
        request = max((n for n, _ in requests), default=0)
        assert peak <= block + request + (1 << 14), (cid, peak, block, request)
        assert all(n <= 2 * _kernels.BLOCK_BYTES for n, what in requests
                   if "convolution" in what), (cid, requests)
        several += any(len(blocks) > 1 for _, _, blocks in calls)
    assert several >= 8


BLOCK_PAIRS = default_catalog() + [CatalogEntry("S4/<(12)>", "builtin:S4", ("(12)",))]


@pytest.fixture(scope="module")
def block_contexts():
    return [make_context(*build_entry(e), name=e.name) for e in BLOCK_PAIRS]


def _reports_by_block_size(monkeypatch, spec, ctx, index):
    """The report of one trial per block, and of the whole run in one block."""
    reports = []
    for block_bytes in (1, 1 << 60):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
        reports.append(run_check(spec, ctx, index).to_dict())
    return reports


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("cid", CHECK_IDS)
def test_block_size_leaves_reports_unchanged(monkeypatch, block_contexts, cid, mode):
    for index, ctx in enumerate(block_contexts):
        one, whole = _reports_by_block_size(
            monkeypatch, CheckSpec(id=cid, trials=30, mode=mode), ctx, index)
        assert abs(one.pop("max_residual") - whole.pop("max_residual")) <= 1e-13, ctx.name
        assert one == whole, ctx.name


def test_block_size_leaves_failures_unchanged(monkeypatch, block_contexts):
    # a measure reported not invariant whenever its first weight's real part
    # passes 0.9: the first such lift or convolution fails P3, whatever the
    # blocks
    membership = verifier.membership_mgh

    def planted(Q, mu):
        return membership(Q, mu) & ~(mu.weights[..., 0].real > 0.9)

    monkeypatch.setattr(verifier, "membership_mgh", planted)
    failed = []
    for index, ctx in enumerate(block_contexts):
        one, whole = _reports_by_block_size(monkeypatch, CheckSpec(id="P3_LIFT"), ctx, index)
        assert one == whole, ctx.name
        if one["status"] == "fail":
            assert one["counterexample"]["reason"] in (
                "lift not right-invariant", "left ideal violated: nu * lift not invariant")
            failed.append((one["counterexample"]["trial"], one["trials_run"]))
    # most pairs fail, each in a trial after the first
    assert len(failed) >= 5 and all(0 < t and run == t + 1 for t, run in failed), failed


def _draws_one_at_a_time(cid, mode, rng, ctx, trials):
    """Each check's draws as its trials made them one at a time, one random
    weight vector or rational vector per call; a float trial that also needs
    a rho or points draws one row of uniform doubles: 2 per complex weight,
    2 per rho value (its numerator and denominator) and 1 per point."""
    G, Q, H = ctx.G, ctx.Q, ctx.H
    n, k, h = G.order, Q.coset_count, H.order

    def measure(rng, carrier):
        return rng.random(len(carrier.labels)) + 1j * rng.random(len(carrier.labels))

    def row(*widths):
        return rng.random(sum(widths))

    coset = (lambda: measure(rng, Q)) if mode == "float" else \
        (lambda: verifier.draw_rational_weights(rng, k))
    if cid == "W0_WEIL":
        for _ in range(trials):
            row(2 * n, 2 * k)     # f, rho
    elif cid == "P1_MHG":
        for _ in ca.solve_mhg_space(Q):
            for _ in range(min(trials, 20)):
                measure(rng, G)
    elif cid == "P2_DENSITY":
        for _ in range(trials):
            row(2 * k, 2 * h * n, h > 1)      # phi, a density per h_j, a point
    elif cid == "P3_LIFT":
        for _ in range(trials):
            measure(rng, Q), measure(rng, G)
        for _ in range(min(trials, 10)):
            verifier.draw_rational_weights(rng, k)
    elif cid == "P4_ISOMETRY":
        for _ in range(trials):
            measure(rng, G), measure(rng, Q)
    elif cid == "D6_CONV":
        for _ in range(10):
            verifier._alternative_reps(rng, Q)
        for _ in range(trials):
            coset(), coset()
        for _ in range(min(trials, 25) if mode == "float" else 0):
            row(2 * k, 2 * k, 1, 1)         # two measures, a point of G and a coset
    elif cid == "T8_ALGEBRA":
        for _ in range(trials):
            coset(), coset(), coset()
    elif cid == "L11_RIGHT_ID":
        for _ in range(trials):
            coset()
    elif cid == "P15_NORMALITY":
        for _ in range(min(trials, 25) if ca.test_normality(G, H) else 0):
            measure(rng, Q)
    elif cid == "P16_EMBED":
        for _ in range(trials):
            row(2 * k, 2 * k)     # rho, phi
        for _ in range(min(trials, 10)):
            rng.integers(1, 5, k), rng.integers(1, 5, k)
            verifier.draw_rational_weights(rng, k)
    elif cid == "L17_COMPAT":
        for _ in range(min(trials, 25)):
            row(2 * k, 2 * k)     # phi, rho
    elif cid == "T18_IDEAL":
        for _ in range(trials):
            row(2 * k, 2 * k, 2 * k)      # rho, phi, sigma
    elif cid == "P19_LP":
        for _ in range(trials):
            row(2 * k, 2 * k, 2 * k, 2 * k)       # rho, sigma, phi, phi2


TRIAL_CHECKS = ["W0_WEIL", "P1_MHG", "P2_DENSITY", "P3_LIFT", "P4_ISOMETRY", "D6_CONV",
                "T8_ALGEBRA", "L11_RIGHT_ID", "P15_NORMALITY", "P16_EMBED", "L17_COMPAT",
                "T18_IDEAL", "P19_LP"]


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("cid", TRIAL_CHECKS)
def test_batched_draws_leave_the_generator_where_single_draws_do(monkeypatch, cid, mode):
    # on a non-normal pair, a normal one and S4/{e}, whose literal invariance
    # space is not empty; one trial per block and all in one block
    pairs = [("S4", ["(12)"]), ("S3", ["(123)"]), ("S4", [])]
    for token, gens in pairs:
        G = ca.builtin_from_token(token)
        ctx = make_context(G, ca.subgroup_from_tokens(G, gens))
        spec = CheckSpec(id=cid, trials=7, mode=mode)
        want = rng(71)
        _draws_one_at_a_time(cid, mode, want, ctx, spec.trials)
        for block_bytes in (1, 1 << 60):
            monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
            got = rng(71)
            verifier._CHECKS[cid][0](spec, ctx, got)
            assert got.bit_generator.state == want.bit_generator.state, (token, gens)


def test_weil_trials_cut_f_and_rho_from_one_row(monkeypatch):
    # the operands W0_WEIL hands the formula, in one block and one trial per
    # block: each trial's row is f's real and imaginary parts, then rho's
    # numerator and denominator doubles, read on odd trials only (even ones
    # take the rho file's); the planted gap is how far rho is from 1, and
    # an odd trial is the counterexample
    G, H = build_entry(CatalogEntry("S4/<(12)>", "builtin:S4", ("(12)",)))
    ctx = make_context(G, H, {"values": {"(234)": 2, "(1234)": 0.5}})
    n, k, trials = G.order, ctx.Q.coset_count, 6
    assert sorted(set(ctx.rho.values.tolist())) == [0.5, 1.0, 2.0]
    rows = verifier.rng_for(42, "W0_WEIL", 3).random((trials, 2 * (n + k)))
    a, b = 1 + np.floor(4 * rows[:, 2 * n:2 * n + k]), 1 + np.floor(4 * rows[:, 2 * n + k:])
    rhos = np.where((np.arange(trials) % 2 == 1)[:, None], a / b, ctx.rho.values)
    worst = int(np.abs(rhos - 1).sum(axis=1).argmax())
    assert worst % 2 == 1
    for block_bytes in (1, 1 << 60):
        seen = []

        def planted(Q, rho, f):
            seen.append((rho.values.reshape(-1, k), f.values.reshape(-1, n)))
            return np.abs(rho.values - 1).sum(axis=-1), 0.0

        monkeypatch.setattr(verifier, "quotient_integral_check", planted)
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
        report = run_check(CheckSpec(id="W0_WEIL", trials=trials), ctx, 3)
        got_rho, got_f = (np.concatenate(part) for part in zip(*seen))
        assert np.array_equal(got_f, rows[:, :n] + 1j * rows[:, n:2 * n])
        assert np.array_equal(got_rho, rhos)
        assert report.status == "fail"
        assert report.counterexample == {"trial": worst, "rho": rhos[worst].tolist()}


@pytest.mark.parametrize("size", [1, 3, 4, 60])
def test_one_integer_call_draws_what_the_calls_of_each_trial_drew(size):
    # from a generator mid-stream, with half of a 64-bit output cached:
    # three trials of two rational vectors each, value for value
    want, got = rng(72), rng(72)
    for g in (want, got):
        g.random(3), g.integers(0, 7)
    singles = [[verifier.draw_rational_weights(want, size) for _ in range(2)] for _ in range(3)]
    batched = verifier._rational_draws(got, 3, 2, size)
    for t in range(3):
        for j in range(2):
            assert batched[j][t] == singles[t][j]
            assert batched[j][t].re.tolist() == singles[t][j].re.tolist()
    assert got.bit_generator.state == want.bit_generator.state
    # rows of ratios then rational parts, as P16_EMBED's exact trials draw them
    rows = verifier._integer_rows(got, 2, (1, 1, -4, -4, 1, 1), size)
    for t in range(2):
        nums, dens = want.integers(1, 5, size), want.integers(1, 5, size)
        parts = [want.integers(-4, 5, size), want.integers(-4, 5, size),
                 *want.integers(1, 5, (2, size))]
        assert np.array_equal(rows[t], np.stack([nums, dens, *parts]))
    assert got.bit_generator.state == want.bit_generator.state
