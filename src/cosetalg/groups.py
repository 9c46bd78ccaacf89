"""Finite groups, subgroups, and left-coset decompositions.

Elements are integer indices into a label list; the whole multiplication
structure is an explicit table. Conventions, pinned by unit tests:

  * permutation composition: (p * q)(i) = p(q(i)), the right factor acts first;
  * permutation closure is breadth-first, identity first, successors x*g
    taken in generator order, one gather of frontier x generators per round
    over an (n, degree) integer array; it records x*g for every element x
    and generator g, and the parent and generator that first reached each
    element (Schreier vectors). Down that tree, round by round, come g*y for
    every generator g, as (g*parent(y))*h for y = parent(y)*h, and the
    inverses, as a⁻¹ = h⁻¹*parent(a)⁻¹ for a = parent(a)*h; then the Cayley
    table is written row by row in O(n²), row a as one gather of row
    parent(a), with no degree factor. That table is a group table by
    construction and is not validated again;
  * cosets are left cosets xH, listed by minimal member index, which is also
    the canonical representative.
"""

from __future__ import annotations

import numbers
import re
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (CapExceeded, NoIdentity, NoInverse, NotAPermutation,
                     NotAssociative, NotClosed, UnknownName)

DEFAULT_ORDER_CAP = 10080

# Most bytes the library holds at once for one large operation: a group
# table or a block of its validation scans, a structure table (its relation
# matrix and labels, or a dense view), a group or quotient convolution, or
# an identity solve on the suborbit labels.
# It admits the table of any group within DEFAULT_ORDER_CAP
# (10080² int64 = 813 MB) and the float64 dense view c up to 511 cosets;
# larger requests raise CapExceeded.
BYTE_BUDGET = 1 << 30


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group with labels, full Cayley table, and inverse table."""

    labels: tuple[str, ...]
    mul: np.ndarray          # (n, n) int64, mul[a, b] = index of a*b
    inv: np.ndarray          # (n,) int64
    identity: int
    # elements whose products give all: a permutation group's generators
    # less the identity and repeats, a table group's greedy generating set
    generators: tuple[int, ...]
    name: str = ""
    # permutation-built groups: (n, degree) int16 (int32 from degree 2**15),
    # row a the permutation of element a; None for table groups
    perms: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return len(self.labels)

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'unnamed'}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices inside a parent group."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        labs = ",".join(self.parent.labels[m] for m in self.members[:6])
        more = ",..." if self.order > 6 else ""
        return f"Subgroup({{{labs}{more}}}, order={self.order})"


@dataclass(frozen=True)
class QuotientSpace:
    """Left-coset decomposition G/H with canonical minimal-index representatives."""

    group: FiniteGroup
    subgroup: Subgroup
    coset_of: np.ndarray     # (|G|,) element index -> coset index
    reps: np.ndarray         # (k,) coset index -> representative element index
    labels: tuple[str, ...]  # "C0", "C1", ...
    member_table: np.ndarray  # (|H|, k): row i holds the i-th smallest member of each coset

    @property
    def coset_count(self) -> int:
        return len(self.reps)

    @property
    def base_coset(self) -> int:
        """Coset of the identity, i.e. H itself."""
        return int(self.coset_of[self.group.identity])

    def members(self, c: int) -> np.ndarray:
        """The members of coset c in ascending index order."""
        return self.member_table[:, c]

    def __repr__(self) -> str:
        return (f"QuotientSpace({self.group.name or 'G'}/"
                f"H[{self.subgroup.order}], cosets={self.coset_count})")


# --- construction and validation -----------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def require_bytes(nbytes: int, what: str) -> None:
    """Raise CapExceeded before allocating an array of nbytes over BYTE_BUDGET."""
    if nbytes > BYTE_BUDGET:
        raise CapExceeded(f"{what} needs {nbytes} bytes, over the byte budget "
                          f"of {BYTE_BUDGET} bytes")


def build_from_cayley_table(labels: Sequence[str], mul: Sequence[Sequence[int]],
                            name: str = "") -> FiniteGroup:
    """Validate a full multiplication table from outside as a FiniteGroup.

    Checks, in order: closure (every entry an integer in range),
    associativity, identity, inverses. Errors name the first offending tuple
    in row-major order. Associativity is decided by Light's test on a
    generating set (O(n²) per generator); only a table that fails it pays
    for the full triple scan that finds the first offending (a, b, c).
    """
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise NotClosed("duplicate element labels")
    require_bytes(n * n * 8, f"Cayley table of order {n}")
    table = _as_array(mul, (n,), lambda i, row: f"table row {i} is not {n} entries", NotClosed)
    if table.shape != (n, n):
        raise NotClosed(f"table shape {table.shape} does not match {n} labels")
    table = _entries_in_range(table, mul, n, lambda i: f"entry mul({i[0]},{i[1]})", NotClosed)

    generators = tuple(_generating_set(table))
    if not _light_associative(table, generators):
        a, b, c = _first_non_associative(table)
        raise NotAssociative(f"(a*b)*c != a*(b*c) at (a,b,c)=({a},{b},{c})")

    e = _identity(table)
    inv = _inverses(table, e, labels)
    return FiniteGroup(labels=labels, mul=_freeze(table), inv=_freeze(inv),
                       identity=e, generators=generators, name=name)


def _as_array(values, shape: tuple, item: Callable[[int, object], str],
              error: type) -> np.ndarray:
    """np.asarray(values). numpy refuses ragged values without saying where,
    so `error` then names, as item(i, values[i]), the first item (a row or a
    point) that is no array of `shape`."""
    with suppress(ValueError):
        return np.asarray(values)
    for i, x in enumerate(values):
        with suppress(ValueError):
            if np.asarray(x).shape == shape:
                continue
        raise error(item(i, x))


def _entries_in_range(a: np.ndarray, values, n: int, entry: Callable[[tuple], str],
                      error: type) -> np.ndarray:
    """a = np.asarray(values) as an int64 array whose entries are integers in
    range(n). `error` names the first entry in row-major order that is not
    an integer (a bool or a float is refused even when whole) or is out of
    range, as entry(index) and its value as `values` gave it."""
    if a.dtype.kind not in "iu":
        a = np.asarray(values, dtype=object)
        for index, x in np.ndenumerate(a):
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise error(f"{entry(index)} = {x!r} is not an integer")
    if a.size and (a.min() < 0 or a.max() >= n):   # masks only for a refusal
        index = tuple(map(int, np.argwhere((a < 0) | (a >= n))[0]))
        raise error(f"{entry(index)} = {a[index]} out of range")
    return a.astype(np.int64, copy=False)


# table entries per block of a scan: ~8 MB of gathered rows, or ~1 MB per mask
_SCAN_ENTRIES = 1 << 20


def _scan_block(rows: int, cols: int, per_entry: int, what: str, per_row: int = 0) -> int:
    """Rows per block of a scan over `rows` rows of `cols` table entries each,
    after a byte check of one block, `per_row` bytes for each of the scan's
    rows and 5 KiB for numpy's iterator state and the scan's small arrays."""
    block = max(1, min(rows, _SCAN_ENTRIES // max(cols, 1)))
    require_bytes(per_entry * block * cols + per_row * rows + (5 << 10), what)
    return block


def _identity(table: np.ndarray) -> int:
    """The first e with table[e] and table[:, e] both the identity map."""
    n = table.shape[0]
    ar = np.arange(n)
    # e*0 = 0 = 0*e narrows the candidates; each is then checked whole
    candidates = np.flatnonzero((table[:, 0] == 0) & (table[0] == 0)) if n else ar
    # per entry a row and a column gather (int64) and their two masks
    block = _scan_block(len(candidates), n, 18,
                        f"identity and inverse scans of order {n}")
    for start in range(0, len(candidates), block):
        c = candidates[start:start + block]
        neutral = (table[c] == ar).all(axis=1) & (table[:, c] == ar[:, None]).all(axis=0)
        if neutral.any():
            return int(c[np.argmax(neutral)])
    raise NoIdentity("no two-sided neutral element")


def _inverses(table: np.ndarray, e: int, labels: Sequence[str]) -> np.ndarray:
    """inv[a], the first b with a*b = e; NoInverse names the first a without
    one. The table is a finite monoid by now, where a*b = e implies b*a = e,
    so rows alone decide it."""
    n = table.shape[0]
    inv = np.empty(n, dtype=np.int64)
    # per entry its mask and the last block's; per row inv, `found` and argmax
    block = _scan_block(n, n, 2, f"identity and inverse scans of order {n}", per_row=17)
    for start in range(0, n, block):
        hit = table[start:start + block] == e
        found = hit.any(axis=1)
        if not found.all():
            a = start + int(np.argmin(found))
            raise NoInverse(f"element {a} ({labels[a]}) has no two-sided inverse")
        inv[start:start + block] = hit.argmax(axis=1)
    return inv


def _close(table: np.ndarray, reached: np.ndarray, new: np.ndarray,
           gens: Sequence[int]) -> None:
    """Mark in `reached` the elements `new` and everything reached from them
    by right multiplication by gens, breadth first; each round gathers the
    |frontier| x |gens| products, not whole rows, in byte-checked blocks."""
    gens = np.asarray(gens, dtype=np.int64)
    # per entry the int64 gather and its int64 row index, and below numpy's
    # buffer size (8,192 entries) np.ix_'s copies of both index arrays
    block = _scan_block(len(reached), len(gens), 32,
                        f"subgroup closure over {len(gens)} generators")
    frontier = np.zeros(len(reached), dtype=bool)
    frontier[new] = True
    while frontier.any():
        new = np.flatnonzero(frontier & ~reached)
        reached[new] = True
        frontier[:] = False
        for start in range(0, len(new), block):
            frontier[table[np.ix_(new[start:start + block], gens)]] = True


def _generating_set(table: np.ndarray) -> list[int]:
    """Greedy generators of the magma: the smallest element not yet reached,
    then everything reached from the chosen set by right multiplication by
    it. Every element is then a left-nested product of generators."""
    reached = np.zeros(table.shape[0], dtype=bool)
    gens: list[int] = []
    while not reached.all():
        s = int(np.argmin(reached))
        gens.append(s)
        _close(table, reached, np.append(table[reached, s], s), gens)
    return gens


def _light_associative(table: np.ndarray, generators: Sequence[int]) -> bool:
    """Light's associativity test: (x*s)*y == x*(s*y) for every s of a
    generating set of the magma, such as _generating_set's.

    The elements s that satisfy it for all x, y are closed under products,
    so they are the whole magma once they include a generating set
    (Clifford & Preston, The Algebraic Theory of Semigroups I, §1.2).
    """
    n = table.shape[0]
    # per entry both int64 sides and their mask; per row its x*s
    block = _scan_block(n, n, 17, f"associativity test of order {n}", per_row=8)
    for s in generators:
        s_row = table[s]
        for start in range(0, n, block):
            rows = table[start:start + block]
            # take keeps the gather C-ordered, so the comparison needs no buffer
            if (table[rows[:, s]] != rows.take(s_row, axis=1)).any():
                return False
    return True


def _first_non_associative(table: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Full triple scan: the first (a, b, c) in row-major order with
    (a*b)*c != a*(b*c), or None for an associative table. It runs over the
    pairs (a, b) in row-major order, in blocks of b for each a."""
    n = table.shape[0]
    # per entry both int64 sides, their mask and the last block's mask
    block = _scan_block(n, n, 18, f"associativity scan of order {n}")
    for a in range(n):
        for b in range(0, n, block):
            # differ[j, c]: (a*(b+j))*c != a*((b+j)*c)
            differ = table[table[a, b:b + block]] != table[a][table[b:b + block]]
            if differ.any():
                j, c = divmod(int(differ.argmax()), n)
                return a, b + j, c
    return None


# --- permutations ---------------------------------------------------------

def _point_names(degree: int) -> tuple[list[str], str]:
    """The 1-based names of a degree's points, and the separator between the
    points of a cycle: none for degree <= 9, a comma beyond that."""
    return [str(i + 1) for i in range(degree)], "" if degree <= 9 else ","


def _cycle_notation(p: list[int], names: Sequence[str], sep: str) -> str:
    """p's disjoint cycles over the point names, each from its least point.
    It consumes p: each point its cycle walk passes is marked fixed."""
    cycles = []
    for i, j in enumerate(p):
        if j == i:
            continue
        cycle = [names[i]]
        while j != i:
            cycle.append(names[j])
            p[j], j = j, p[j]
        cycles.append("(" + sep.join(cycle) + ")")
    return "".join(cycles) if cycles else "e"


def perm_label(p: Sequence[int]) -> str:
    """Disjoint cycle notation with 1-based points; 'e' for the identity.

    Points are written back to back for degree <= 9 and comma-separated
    beyond that, e.g. '(123)' vs '(1,2,13)'.
    """
    return _cycle_notation(list(p), *_point_names(len(p)))


def parse_cycles(token: str, degree: int) -> tuple[int, ...]:
    """Parse cycle notation like '(12)(34)' or '(1,12,3)' into a permutation.

    Cycles are applied right to left, matching the composition convention,
    so non-disjoint input is allowed.
    """
    token = token.strip()
    if token in ("e", "()", ""):
        return tuple(range(degree))
    chunks = re.findall(r"\(([^()]*)\)", token)
    if not chunks or "".join(f"({c})" for c in chunks) != token.replace(" ", ""):
        raise NotAPermutation(f"cannot parse cycle token {token!r}")
    result, inverse = list(range(degree)), list(range(degree))
    for chunk in reversed(chunks):
        try:
            pts = [int(s) - 1 for s in (chunk.split(",") if "," in chunk else chunk.strip())]
            valid = all(0 <= p < degree for p in pts) and len(set(pts)) == len(pts)
        except ValueError:   # a point that is no integer
            valid = False
        if not valid:
            raise NotAPermutation(f"bad cycle {chunk!r} for degree {degree}")
        # cycle * result moves only the i that result sends into the cycle
        sources = [inverse[a] for a in pts]
        for i, b in zip(sources, pts[1:] + pts[:1]):
            result[i], inverse[b] = b, i
    return tuple(result)


def build_from_permutation_generators(degree: int, generators: Iterable[Sequence[int]],
                                      name: str = "") -> FiniteGroup:
    """Breadth-first closure of permutation generators under composition, up
    to DEFAULT_ORDER_CAP elements. Its table is composition itself, a group
    table by construction, so it is not validated again: the identity is
    element 0, and inverses follow the closure's tree. Labels are formatted
    from point names made once per build."""
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 1:
        raise NotAPermutation(f"degree must be an integer >= 1, got {degree!r}")
    gens: list[np.ndarray] = []
    for gi, g in enumerate(generators):
        p = _as_array(g, (), lambda j, x: f"generator {gi} entry {j} = {x!r} is not an integer",
                      NotAPermutation)
        if p.shape != (degree,):
            raise NotAPermutation(f"generator {gi} is not a permutation of 0..{degree - 1}")
        p = _entries_in_range(p, g, degree, lambda i: f"generator {gi} entry {i[0]}",
                              NotAPermutation)
        if not np.bincount(p, minlength=degree).all():   # each point in range hit once
            raise NotAPermutation(f"generator {gi} is not a permutation of 0..{degree - 1}")
        gens.append(p)
    m, dtype = len(gens), np.int16 if degree < 1 << 15 else np.int32
    width, images = degree * np.dtype(dtype).itemsize, np.array(gens, np.intp).reshape(m, degree)
    # Schreier vectors: steps[x * m + j] is the index of elems[x]∘gens[j],
    # and each element y > 0 was first reached as elems[parent[y]]∘gens[via[y]]
    steps, parent, via = [], [0], [0]

    def require_round(frontier: int) -> None:
        # the rows so far and their keys; this round's products, their keys
        # and the next frontier (per-object overhead is not counted)
        require_bytes(width * (2 * len(parent) + 3 * m * frontier),
                      f"permutation closure of degree {degree}")

    require_round(1)   # before the identity's row and key are built
    front = np.arange(degree, dtype=dtype).reshape(1, degree)
    index, rounds = {front.tobytes(): 0}, [front]
    while len(front):
        head, fresh = len(parent) - len(front), []
        products = front[:, images].reshape(-1, degree)   # (x∘g)(i) = x[g[i]], in (x, g) order
        for t, row in enumerate(products):
            steps.append(index.setdefault(row.tobytes(), len(parent)))
            if steps[-1] == len(parent):
                if len(parent) == DEFAULT_ORDER_CAP:
                    raise CapExceeded(f"closure exceeds cap {DEFAULT_ORDER_CAP}")
                parent.append(head + t // m)
                via.append(t % m)
                fresh.append(t)
        if fresh:
            require_round(len(fresh))
        front = products[fresh]
        rounds.append(front)
    perms = np.concatenate(rounds)
    generators = tuple(dict.fromkeys(x for x in steps[:m] if x))   # the identity's steps
    del index, products, rounds
    mul, inv = _schreier_table(steps, parent, via)
    del steps, parent, via
    names, sep = _point_names(degree)
    # labels a row at a time: a whole tolist() would hold degree Python ints
    # per element
    return FiniteGroup(labels=tuple(_cycle_notation(p.tolist(), names, sep) for p in perms),
                       mul=_freeze(mul), inv=_freeze(inv), identity=0, name=name,
                       perms=_freeze(perms), generators=generators)


def _schreier_table(steps: list[int], parent: list[int],
                    via: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The Cayley table and the inverses of a breadth-first closure from its
    Schreier vectors: steps[x * m + j] is the index of x∘gens[j], and each
    y > 0 is parent[y]∘gens[via[y]], with parent[y] < y and nondecreasing."""
    n = len(parent)
    m = len(steps) // n
    # the table, steps and left (m x n each) and inv, all int64, and 5 KiB
    # for numpy's small arrays, as in _scan_block; the tree's other arrays
    # are freed before the table is made
    require_bytes(8 * (n * n + 2 * m * n + n) + (5 << 10), f"Cayley table of order {n}")
    right = np.array(steps, dtype=np.int64).reshape(n, m)
    parent_a, via_a = np.array(parent), np.array(via)
    # the BFS rounds, in which every parent lies in an earlier round
    bounds = [1]
    while bounds[-1] < n:
        bounds.append(int(np.searchsorted(parent_a, bounds[-1])))
    rounds = [slice(*b) for b in zip(bounds, bounds[1:])]
    # left[j, y] = gens[j]∘y down the tree, as g∘y = (g∘parent(y))∘gens[via[y]]
    left = np.empty((m, n), dtype=np.int64)
    left[:, 0] = right[0]
    for r in rounds:
        left[:, r] = right[left[:, parent_a[r]], via_a[r]]
    del right
    # a⁻¹ = gens[j]⁻¹∘parent(a)⁻¹, and gens[j]⁻¹∘x is the y where left[j, y] = x
    left_inv = np.empty_like(left)
    left_inv[np.arange(m)[:, None], left] = np.arange(n)
    inv = np.zeros(n, dtype=np.int64)
    for r in rounds:
        inv[r] = left_inv[via_a[r], inv[parent_a[r]]]
    del left_inv, parent_a, via_a, bounds, rounds
    mul = np.empty((n, n), dtype=np.int64)
    # rows in BFS order, a∘y = parent(a)∘(g∘y), each taken straight into the
    # table: mode "clip" writes to out unbuffered, and every index is in range
    inv.take(inv, out=mul[0], mode="clip")   # a⁻¹⁻¹ = a: the identity's row
    for a in range(1, n):
        mul[parent[a]].take(left[via[a]], out=mul[a], mode="clip")
    return mul, inv


# --- builtin catalog -------------------------------------------------------

def _quaternion8() -> FiniteGroup:
    """Element 2u + (sign < 0) is ±1, ±i, ±j, ±k for the unit u of 1, i, j, k.
    The unit of a product is the XOR of the units' indices (i*j = ±k, ...)."""
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    # negative[u][v]: whether unit u times unit v is negative (i*i = -1, j*i = -k, ...)
    negative = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1))
    table = [[2 * (a // 2 ^ b // 2) + (a + b + negative[a // 2][b // 2]) % 2 for b in range(8)]
             for a in range(8)]
    return build_from_cayley_table(labels, table, name="Q8")


def direct_product_group(g1: FiniteGroup, g2: FiniteGroup, name: str = "") -> FiniteGroup:
    """Componentwise product; element (a, b) packs to index a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    # the table, written in place, the labels' characters and ~64 bytes of
    # object and tuple slot per label, and numpy's iterator buffers
    chars = n2 * sum(map(len, g1.labels)) + n1 * sum(map(len, g2.labels))
    require_bytes(8 * n * n + chars + 64 * n + (1 << 17), f"direct product of order {n}")
    labels = tuple(f"({g1.labels[a]},{g2.labels[b]})"
                   for a in range(n1) for b in range(n2))
    # table[a, b, c, d] = mul1[a, c] * n2 + mul2[b, d], the product of (a, b)
    # and (c, d)
    table = np.multiply(g1.mul[:, None, :, None], n2, out=np.empty((n1, n2, n1, n2), np.int64))
    table += g2.mul[None, :, None, :]
    return build_from_cayley_table(labels, table.reshape(n, n),
                                   name=name or f"{g1.name}x{g2.name}")


# family -> (alias letter, least n, generators of degree n, factors of the
# order at n); the generator order fixes the element order
_FAMILIES = {
    "cyclic": ("C", 1, lambda n: [[*range(1, n), 0]], lambda n: (n,)),
    "dihedral": ("D", 3, lambda n: [[*range(1, n), 0], [-i % n for i in range(n)]],
                 lambda n: (2, n)),
    "symmetric": ("S", 1, lambda n: [[1, 0, *range(2, n)], [*range(1, n), 0]],
                  lambda n: range(2, n + 1)),
    # consecutive 3-cycles generate A_n, of order n!/2
    "alternating": ("A", 3, lambda n: [[*range(i), i + 1, i + 2, i, *range(i + 3, n)]
                                       for i in range(n - 2)], lambda n: range(3, n + 1)),
}


def builtin_catalog(name: str, *parameters: int) -> FiniteGroup:
    """Named group families with canonical labelings.

    cyclic(n), dihedral(n), symmetric(n), alternating(n): permutation groups
    labeled in cycle notation, built by BFS closure of the generators in
    _FAMILIES and named C6, D4, S4 (S1 is C1), A4. quaternion8: the eight
    units +-1, +-i, +-j, +-k. direct_product(m, n): C_m x C_n, pair labels.
    """
    key = name.strip().lower()
    if key in _FAMILIES:
        letter, least, generators, factors = _FAMILIES[key]
        p = parameters[0] if parameters else None
        if not p or p < least:
            raise UnknownName(f"{key}(n) needs n >= {least}")
        if key == "symmetric" and p == 1:
            return builtin_catalog("cyclic", 1)
        # the closure's refusal, before the generators' n-point lists are built
        order = 1
        for f in factors(p):
            order *= f
            if order > DEFAULT_ORDER_CAP:
                raise CapExceeded(f"closure exceeds cap {DEFAULT_ORDER_CAP}")
        return build_from_permutation_generators(p, generators(p), name=f"{letter}{p}")
    if key == "quaternion8":
        return _quaternion8()
    if key == "direct_product":
        if len(parameters) != 2:
            raise UnknownName("direct_product(m, n) needs two parameters")
        m, n = parameters
        return direct_product_group(builtin_catalog("cyclic", m),
                                    builtin_catalog("cyclic", n))
    raise UnknownName(f"unknown builtin group {name!r}")


def builtin_from_token(token: str) -> FiniteGroup:
    """Parse a builtin group token: 'builtin:S3', 'S3', 'cyclic(6)',
    'direct_product(2,3)', 'Q8', 'quaternion8'."""
    t = re.sub(r"^builtin:", "", token.strip(), flags=re.IGNORECASE)
    m = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)\((\d+(?:,\s*\d+)*)\)$", t)
    if m:
        return builtin_catalog(m.group(1), *map(int, m.group(2).split(",")))
    if t.lower() in ("q8", "quaternion8"):
        return builtin_catalog("quaternion8")
    m = re.match(r"^([A-Za-z])(\d+)$", t)
    for family, (letter, *_) in _FAMILIES.items():
        if m and m.group(1).upper() == letter:
            return builtin_catalog(family, int(m.group(2)))
    raise UnknownName(f"cannot parse builtin group token {token!r}")


# --- subgroups and cosets ---------------------------------------------------

def generate_subgroup(G: FiniteGroup, generators: Sequence[int]) -> Subgroup:
    """Smallest subgroup containing the given element indices ({e} if empty):
    everything reached from e by right multiplication by the generators,
    which in a finite group is also closed under inverses."""
    gens = list(dict.fromkeys(int(g) for g in generators))
    for g in gens:
        if not 0 <= g < G.order:
            raise IndexError(f"generator index {g} out of range")
    reached = np.zeros(G.order, dtype=bool)
    _close(G.mul, reached, np.array([G.identity]), gens)
    sub = Subgroup(parent=G, members=tuple(np.flatnonzero(reached).tolist()))
    assert G.order % sub.order == 0
    return sub


def subgroup_from_members(G: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap an explicit member set, validating the subgroup axioms. A refusal
    names the least member a without its inverse or, failing that, with a
    product a*b outside the set, and then the first such b."""
    mem = tuple(sorted({int(m) for m in members}))
    if G.identity not in mem:
        raise NoIdentity("subgroup must contain the identity")
    if not 0 <= mem[0] <= mem[-1] < G.order:
        raise IndexError(f"member index out of range for order {G.order}")
    idx = np.array(mem, dtype=np.int64)
    inside = np.zeros(G.order, dtype=bool)
    inside[idx] = True
    no_inverse = ~inside[G.inv[idx]]
    # per entry the int64 product and two masks, and below numpy's buffer
    # size (8,192 entries) np.ix_'s copies of both int64 index arrays
    block = _scan_block(len(idx), len(idx), 26, f"subgroup test of {len(idx)} members")
    for start in range(0, len(idx), block):
        outside = ~inside[G.mul[np.ix_(idx[start:start + block], idx)]]
        bad = np.flatnonzero(no_inverse[start:start + block] | outside.any(axis=1))
        if len(bad):
            a = mem[start + bad[0]]
            if no_inverse[start + bad[0]]:
                raise NoInverse(f"subgroup not closed under inverse at {a}")
            raise NotClosed(f"subgroup not closed at ({a},{mem[np.argmax(outside[bad[0]])]})")
    return Subgroup(parent=G, members=mem)


def test_normality(G: FiniteGroup, H: Subgroup) -> bool:
    """Whether g h g^-1 lies in H for all g in G and h in H. The g for which
    it holds are closed under products, so one gather conjugates H by G's
    recorded generators alone."""
    mem = np.array(H.members, dtype=np.int64)
    inside = np.zeros(G.order, dtype=bool)
    inside[mem] = True
    gens = np.array(G.generators, dtype=np.int64)
    # per (generator, member or its inverse) 24 bytes, and ~8 KB of small arrays
    require_bytes(24 * gens.size * (len(mem) + 1) + (1 << 13), f"normality test of order {G.order}")
    return bool(inside[G.mul[G.mul[gens[:, None], mem], G.inv[gens, None]]].all())


def build_coset_space(G: FiniteGroup, H: Subgroup) -> QuotientSpace:
    """Left cosets xH, listed and represented by their least members, found
    for every x at once by one gather and np.unique."""
    n, h = G.order, H.order
    # the (n, |H|) gather; per element unique's copies and the member
    # table's; per coset its label; ~6 KB of small arrays (measured)
    require_bytes(8 * n * h + 48 * n + 64 * (n // h) + (1 << 13), f"coset space of order {n}")
    mem = np.array(H.members, dtype=np.int64)
    reps, coset_of = np.unique(G.mul[:, mem].min(axis=1), return_inverse=True)
    k = len(reps)
    assert k * h == n
    member_table = np.sort(G.mul[reps[:, None], mem], axis=1).T.copy()
    labels = tuple(f"C{i}" for i in range(k))
    return QuotientSpace(group=G, subgroup=H, coset_of=_freeze(coset_of), reps=_freeze(reps),
                         labels=labels, member_table=_freeze(member_table))


def element_order(G: FiniteGroup, x: int) -> int:
    o, y = 1, int(x)
    while y != G.identity:
        y = int(G.mul[y, x])
        o += 1
    return o


# --- element lookup and serialization --------------------------------------

def find_element(G: FiniteGroup, token: str) -> int:
    """Resolve an element token: a permutation group reads it as cycle
    notation and matches the rows of `perms`, a table group as a label."""
    token = token.strip()
    if G.perms is None:
        if token in G.labels:
            return G.labels.index(token)
    elif token in ("e", "()") or token.startswith("("):
        with suppress(NotAPermutation):
            p = np.array(parse_cycles(token, G.perms.shape[1]), dtype=G.perms.dtype)
            # one byte an entry of perms, and one an element
            require_bytes(G.perms.size + G.order + (5 << 10), f"element lookup in order {G.order}")
            hits = np.flatnonzero((G.perms == p).all(axis=1))
            if len(hits):
                return int(hits[0])
    raise UnknownName(f"no element {token!r} in {G.name or 'group'}")


def subgroup_from_tokens(G: FiniteGroup, tokens: Sequence[str]) -> Subgroup:
    return generate_subgroup(G, [find_element(G, t) for t in tokens])


def group_to_dict(G: FiniteGroup) -> dict:
    """Canonical JSON form: {"name", "elements", "table"}."""
    return {
        "name": G.name,
        "elements": list(G.labels),
        "table": G.mul.tolist(),
    }


def group_from_dict(d: dict) -> FiniteGroup:
    """Accepts either a Cayley-table spec or a permutation-generator spec."""
    if "permutations" in d:
        sub = d["permutations"]
        return build_from_permutation_generators(
            sub["degree"], sub["generators"], name=d.get("name", ""))
    if "table" in d and "elements" in d:
        return build_from_cayley_table(d["elements"], d["table"],
                                       name=d.get("name", ""))
    raise UnknownName("group spec needs either 'permutations' or 'elements'+'table'")
