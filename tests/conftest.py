import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import cosetalg as ca


@pytest.fixture(scope="session")
def s3():
    return ca.builtin_catalog("symmetric", 3)


@pytest.fixture(scope="session")
def s3_h12(s3):
    return ca.subgroup_from_tokens(s3, ["(12)"])


@pytest.fixture(scope="session")
def s3_q(s3, s3_h12):
    return ca.build_coset_space(s3, s3_h12)


@pytest.fixture(scope="session")
def s3_a3(s3):
    return ca.subgroup_from_tokens(s3, ["(123)"])


@pytest.fixture(scope="session")
def relabelled_s3_pair(s3):
    """S3 relabelled so that (12) is element 0 and the identity element 5,
    with H = {0, 5}: the base coset's least member, its representative, is
    not the identity, so the coset of rep_base^-1 * rep_z is [0, 2, 1][z],
    not z."""
    t = ca.find_element(s3, "(12)")
    order = [t] + [x for x in range(6) if x not in (t, s3.identity)] + [s3.identity]
    table = np.argsort(order)[s3.mul[np.ix_(order, order)]]
    G = ca.build_from_cayley_table([s3.labels[x] for x in order], table.tolist(),
                                   name="S3 relabelled")
    return G, ca.subgroup_from_members(G, [0, 5])


@pytest.fixture(scope="session")
def same_labelled_quotients(s3, s3_a3):
    """S3/A3 and C4/<(13)(24)>: two coset spaces labelled C0, C1."""
    c4 = ca.builtin_from_token("C4")
    pair = (ca.build_coset_space(s3, s3_a3),
            ca.build_coset_space(c4, ca.subgroup_from_tokens(c4, ["(13)(24)"])))
    assert pair[0].labels == pair[1].labels == ("C0", "C1")
    return pair


@pytest.fixture(scope="session")
def d4():
    return ca.builtin_catalog("dihedral", 4)


@pytest.fixture(scope="session")
def q8():
    return ca.builtin_catalog("quaternion8")


def onehot_counts(Q, reps=None):
    """The dense count tensor from its definition, for any representative
    choice: the coset z of rep_a * h * rep_b over (a, h, b) as a one-hot
    (k, |H|, k, k) array, summed over H."""
    reps = Q.reps if reps is None else np.asarray(reps, dtype=np.int64)
    mul, k = Q.group.mul, Q.coset_count
    members = np.array(Q.subgroup.members, dtype=np.int64)
    left = mul[reps[:, None], members[None, :]]
    z = Q.coset_of[mul[left[:, :, None], reps[None, None, :]]]
    onehot = z[:, :, :, None] == np.arange(k)[None, None, None, :]
    return onehot.sum(axis=1, dtype=np.int64)


def oracle_factors(Q, reps=None):
    """Int32 shift tables (..., k, k) and suborbit labels (..., k) of
    representative choices (..., k), by default Q.reps, as the structure
    table once stored them: shift[a, z] is the coset of rep_a^-1 * rep_z,
    and column b of H's action on the cosets holds b's suborbit, whose
    least member labels it. The reference for rel = rank[shift]."""
    G = Q.group
    reps = np.asarray(Q.reps if reps is None else reps, dtype=np.int64)
    members = np.array(Q.subgroup.members, dtype=np.int64)
    shift = Q.coset_of[G.mul[G.inv[reps][..., :, None], reps[..., None, :]]].astype(np.int32)
    labels = Q.coset_of[G.mul[members[:, None], reps[..., None, :]]].min(axis=-2)
    return shift, labels.astype(np.int32)


def oracle_rel(Q, reps=None):
    """rank[shift] for the oracle's shift and labels of one representative
    choice, rank numbering the suborbits by label."""
    shift, labels = oracle_factors(Q, reps)
    return np.unique(labels, return_inverse=True)[1][shift]


def planted_table(T, shift=None, labels=None):
    """T with a fault planted in the oracle's factors of its quotient: the
    given shift table or labels in place of the oracle's, and rel rebuilt as
    rank[shift] for the ranks of the labels."""
    oracle_shift, oracle_labels = oracle_factors(T.quotient)
    shift = oracle_shift if shift is None else np.asarray(shift)
    labels = oracle_labels if labels is None else np.asarray(labels, dtype=np.int32)
    rank = np.unique(labels, return_inverse=True)[1]
    return ca.StructureTable(T.quotient, rank[shift].astype(T.rel.dtype), labels)


def cycled_suborbits(labels):
    """The suborbit table of least-member labels as it was once stored:
    column b lists b's suborbit ascending, cycled to r = lcm(suborbit sizes)
    rows, so that c[a, b, z] = #{i : suborbits[i, b] = shift[a, z]} / r,
    with shift the table of oracle_factors."""
    labels = np.asarray(labels)
    sizes = np.bincount(labels, minlength=len(labels))
    start = np.cumsum(sizes) - sizes
    order = np.argsort(labels, kind="stable")
    sizes, start = sizes[labels], start[labels]
    r = math.lcm(*set(sizes.tolist()))
    return order[start + np.arange(r)[:, None] % sizes]


def cycled_quotient_convolve(shift, labels, s1, s2):
    """The quotient convolution read off the cycled suborbit table: the mean
    of s2 over each coset's suborbit as the sum of the table's r rows over
    r, then s1 @ mean[shift]; on arrays and exact vectors alike."""
    suborbits = cycled_suborbits(labels)
    v = s2.take(suborbits, axis=-1).sum(axis=-2) / suborbits.shape[0]
    return (s1[..., None, :] @ v.take(shift, axis=-1))[..., 0, :]


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_weights(generator, size):
    return generator.random(size) + 1j * generator.random(size)


def traced_peak(fn):
    """The peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def checked_peak(monkeypatch, module, fn):
    """(sizes fn passes to module.require_bytes, fn's tracemalloc peak)."""
    checked = []
    check = module.require_bytes

    def record(nbytes, what):
        checked.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(module, "require_bytes", record)
    return checked, traced_peak(fn)


def spy_every_byte_check(monkeypatch):
    """The (nbytes, what) of every require_bytes call, in every module that
    binds it."""
    requests = []
    check = ca.groups.require_bytes

    def spy(nbytes, what):
        requests.append((nbytes, what))
        check(nbytes, what)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cosetalg" and getattr(module, "require_bytes", None) is check:
            monkeypatch.setattr(module, "require_bytes", spy)
    return requests


def oracle_perm_label(p) -> str:
    """Disjoint cycle notation with 1-based points, each point formatted on
    its own: the reference for the labels a permutation build formats from
    shared point names."""
    n = len(p)
    sep = "" if n <= 9 else ","
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + sep.join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def eager_labels(G):
    """The labels a permutation group's build once formatted for every
    element, one oracle_perm_label per row of perms: the reference for the
    labels formatted on first use."""
    return tuple(map(oracle_perm_label, G.perms.tolist()))


def oracle_permutation_group(degree, generators):
    """(mul, inv, labels) of the breadth-first closure of permutation
    generators, assembled as the definition reads: the Cayley table column
    by column, a*y = (a*parent(y))*g, the inverses by an argmin along the
    rows, and one oracle_perm_label call per element."""
    gens = [tuple(g) for g in generators]
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    steps, parent, via = [], [0], [0]
    for x, p in enumerate(elems):   # elems grows while it is walked
        for j, g in enumerate(gens):
            y = tuple(p[i] for i in g)   # (p*g)(i) = p(g(i))
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                parent.append(x)
                via.append(j)
            steps.append(index[y])
    n = len(elems)
    steps = np.array(steps, dtype=np.int64).reshape(n, len(gens)).T
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for y in range(1, n):
        table[:, y] = steps[via[y]][table[:, parent[y]]]
    return table, table.argmin(axis=1), tuple(map(oracle_perm_label, elems))


def _rref_fractions(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over Fractions: the reference the exact
    solvers' results are compared against."""
    m = [row[:] for row in matrix]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][col]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [vi - f * vj for vi, vj in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots
