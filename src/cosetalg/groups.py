"""Finite groups, subgroups, and left-coset decompositions.

Elements are integer indices into a label list; the whole multiplication
structure is an explicit table. Conventions, pinned by unit tests:

  * permutation composition: (p * q)(i) = p(q(i)), the right factor acts first;
  * permutation closure is breadth-first, identity first, successors x*g
    taken in generator order;
  * cosets are left cosets xH, listed by minimal member index, which is also
    the canonical representative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (AmbiguousElement, CapExceeded, NoIdentity, NoInverse,
                     NotAPermutation, NotAssociative, NotClosed, UnknownName)

DEFAULT_ORDER_CAP = 10080

Perm = tuple[int, ...]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group with labels, full Cayley table, and inverse table."""

    labels: tuple[str, ...]
    mul: np.ndarray          # (n, n) int64, mul[a, b] = index of a*b
    inv: np.ndarray          # (n,) int64
    identity: int
    name: str = ""
    perms: Optional[tuple[Perm, ...]] = None  # set for permutation-built groups

    @property
    def order(self) -> int:
        return len(self.labels)

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

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

    @property
    def coset_count(self) -> int:
        return len(self.reps)

    @property
    def base_coset(self) -> int:
        """Coset of the identity, i.e. H itself."""
        return int(self.coset_of[self.group.identity])

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.coset_of == c)

    def __repr__(self) -> str:
        return (f"QuotientSpace({self.group.name or 'G'}/"
                f"H[{self.subgroup.order}], cosets={self.coset_count})")


# --- construction and validation -----------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_from_cayley_table(labels: Sequence[str], mul: Sequence[Sequence[int]],
                            name: str = "",
                            perms: Optional[tuple[Perm, ...]] = None) -> FiniteGroup:
    """Validate a full multiplication table and wrap it as a FiniteGroup.

    Checks, in order: closure, identity, inverses, associativity (full triple
    scan). Errors name the first offending tuple in row-major order.
    """
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise NotClosed("duplicate element labels")
    table = np.asarray(mul, dtype=np.int64)
    if table.shape != (n, n):
        raise NotClosed(f"table shape {table.shape} does not match {n} labels")
    bad = np.argwhere((table < 0) | (table >= n))
    if len(bad):
        a, b = map(int, bad[0])
        raise NotClosed(f"entry mul({a},{b}) = {int(table[a, b])} out of range")

    block = max(1, (1 << 22) // max(n * n, 1))  # keep the triple scan ~32 MB
    for start in range(0, n, block):
        stop = min(n, start + block)
        lhs = table[table[start:stop, :], :]   # lhs[a,b,c] = (a*b)*c
        rhs = table[start:stop][:, table]      # rhs[a,b,c] = a*(b*c)
        if not np.array_equal(lhs, rhs):
            a, b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise NotAssociative(
                f"(a*b)*c != a*(b*c) at (a,b,c)=({a + start},{b},{c})")

    rng = np.arange(n)
    ident_candidates = [e for e in range(n)
                        if np.array_equal(table[e], rng) and np.array_equal(table[:, e], rng)]
    if not ident_candidates:
        raise NoIdentity("no two-sided neutral element")
    e = ident_candidates[0]

    inv = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.flatnonzero((table[a] == e) & (table[:, a] == e))
        if len(hits) == 0:
            raise NoInverse(f"element {a} ({labels[a]}) has no two-sided inverse")
        inv[a] = hits[0]

    return FiniteGroup(labels=labels, mul=_freeze(table), inv=_freeze(inv),
                       identity=e, name=name, perms=perms)


# --- permutations ---------------------------------------------------------

def compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_label(p: Perm) -> str:
    """Disjoint cycle notation with 1-based points; 'e' for the identity.

    Points are written back to back for degree <= 9 and comma-separated
    beyond that, e.g. '(123)' vs '(1,2,13)'.
    """
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


def parse_cycles(token: str, degree: int) -> Perm:
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
    result = tuple(range(degree))
    for chunk in reversed(chunks):
        if "," in chunk:
            pts = [int(s) - 1 for s in chunk.split(",")]
        else:
            pts = [int(ch) - 1 for ch in chunk.strip()]
        if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise NotAPermutation(f"bad cycle {chunk!r} for degree {degree}")
        cyc = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            cyc[a] = b
        result = compose(tuple(cyc), result)
    return result


def build_from_permutation_generators(degree: int, generators: Iterable[Sequence[int]],
                                      name: str = "",
                                      cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Breadth-first closure of permutation generators under composition."""
    gens: list[Perm] = []
    for gi, g in enumerate(generators):
        p = tuple(int(x) for x in g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise NotAPermutation(f"generator {gi} is not a permutation of 0..{degree - 1}")
        gens.append(p)

    ident: Perm = tuple(range(degree))
    elems: list[Perm] = [ident]
    index: dict[Perm, int] = {ident: 0}
    head = 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = compose(x, g)
            if y not in index:
                if len(elems) >= cap:
                    raise CapExceeded(f"closure exceeds cap {cap}")
                index[y] = len(elems)
                elems.append(y)

    n = len(elems)
    earr = np.array(elems, dtype=np.min_scalar_type(max(degree - 1, 0))).reshape(n, degree)
    keys = _row_keys(earr)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=np.int64)
    block = max(1, (1 << 25) // (n * (earr.itemsize * degree + 16)))  # ~32 MB
    for start in range(0, n, block):
        comp = earr[start:start + block][:, earr]    # comp[a, b] = a∘b
        table[start:start + block] = order[np.searchsorted(sorted_keys, _row_keys(comp))]
    labels = tuple(perm_label(p) for p in elems)
    return build_from_cayley_table(labels, table, name=name, perms=tuple(elems))


def _row_keys(perms: np.ndarray) -> np.ndarray:
    """Each permutation (last axis) as one opaque bytes key: exact for any
    degree, ordered consistently by sort and searchsorted."""
    perms = np.ascontiguousarray(perms)
    if perms.shape[-1] == 0:  # degree 0: the single empty permutation
        return np.zeros(perms.shape[:-1], dtype=np.int8)
    return perms.view(np.dtype((np.void, perms.shape[-1] * perms.itemsize)))[..., 0]


# --- builtin catalog -------------------------------------------------------

def _dihedral_gens(n: int) -> list[Perm]:
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple(0 if i == 0 else n - i for i in range(n))
    return [rot, refl]


def _quaternion8() -> FiniteGroup:
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sa, ua = (1 if a % 2 == 0 else -1), a // 2
            sb, ub = (1 if b % 2 == 0 else -1), b // 2
            s, u = unit_mul[(ua, ub)]
            s *= sa * sb
            table[a][b] = u * 2 + (0 if s == 1 else 1)
    return build_from_cayley_table(labels, table, name="Q8")


def direct_product_group(g1: FiniteGroup, g2: FiniteGroup, name: str = "") -> FiniteGroup:
    """Componentwise product; element (a, b) packs to index a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    labels = tuple(f"({g1.labels[a]},{g2.labels[b]})"
                   for a in range(n1) for b in range(n2))
    a_idx, b_idx = np.divmod(np.arange(n1 * n2), n2)
    table = g1.mul[np.ix_(a_idx, a_idx)] * n2 + g2.mul[np.ix_(b_idx, b_idx)]
    return build_from_cayley_table(labels, table, name=name or f"{g1.name}x{g2.name}")


def builtin_catalog(name: str, *parameters: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Named group families with canonical labelings.

    cyclic(n), dihedral(n), symmetric(n), alternating(n): permutation groups
    labeled in cycle notation, built by BFS closure of the documented
    generators. quaternion8: the eight units +-1, +-i, +-j, +-k.
    direct_product(m, n): cyclic(m) x cyclic(n) with pair labels.
    """
    key = name.strip().lower()
    p = parameters[0] if parameters else None
    if key == "cyclic":
        if not p or p < 1:
            raise UnknownName("cyclic(n) needs n >= 1")
        if p == 1:
            return build_from_cayley_table(("e",), [[0]], name="C1", perms=((),))
        gen = tuple((i + 1) % p for i in range(p))
        return build_from_permutation_generators(p, [gen], name=f"C{p}", cap=cap)
    if key == "dihedral":
        if not p or p < 3:
            raise UnknownName("dihedral(n) needs n >= 3")
        return build_from_permutation_generators(p, _dihedral_gens(p),
                                                 name=f"D{p}", cap=cap)
    if key == "symmetric":
        if not p or p < 1:
            raise UnknownName("symmetric(n) needs n >= 1")
        if p == 1:
            return builtin_catalog("cyclic", 1)
        gens = [tuple([1, 0] + list(range(2, p))),
                tuple((i + 1) % p for i in range(p))]
        return build_from_permutation_generators(p, gens, name=f"S{p}", cap=cap)
    if key == "alternating":
        if not p or p < 3:
            raise UnknownName("alternating(n) needs n >= 3")
        gens = []
        for i in range(p - 2):  # consecutive 3-cycles generate A_n
            g = list(range(p))
            g[i], g[i + 1], g[i + 2] = g[i + 1], g[i + 2], g[i]
            gens.append(tuple(g))
        return build_from_permutation_generators(p, gens, name=f"A{p}", cap=cap)
    if key == "quaternion8":
        return _quaternion8()
    if key == "direct_product":
        if len(parameters) != 2:
            raise UnknownName("direct_product(m, n) needs two parameters")
        m, n = parameters
        return direct_product_group(builtin_catalog("cyclic", m),
                                    builtin_catalog("cyclic", n))
    raise UnknownName(f"unknown builtin group {name!r}")


_ALIAS_PATTERN = re.compile(r"^([SDCA])(\d+)$", re.IGNORECASE)
_ALIAS_FAMILIES = {"S": "symmetric", "D": "dihedral", "C": "cyclic", "A": "alternating"}


def builtin_from_token(token: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Parse a builtin group token: 'builtin:S3', 'S3', 'cyclic(6)',
    'direct_product(2,3)', 'Q8', 'quaternion8'."""
    t = token.strip()
    if t.lower().startswith("builtin:"):
        t = t[len("builtin:"):]
    m = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)\((\d+(?:,\s*\d+)*)\)$", t)
    if m:
        params = tuple(int(x) for x in m.group(2).split(","))
        return builtin_catalog(m.group(1), *params, cap=cap)
    if t.lower() in ("q8", "quaternion8"):
        return builtin_catalog("quaternion8")
    m = _ALIAS_PATTERN.match(t)
    if m:
        return builtin_catalog(_ALIAS_FAMILIES[m.group(1).upper()], int(m.group(2)), cap=cap)
    raise UnknownName(f"cannot parse builtin group token {token!r}")


# --- subgroups and cosets ---------------------------------------------------

def generate_subgroup(G: FiniteGroup, generators: Sequence[int]) -> Subgroup:
    """Smallest subgroup containing the given element indices ({e} if empty)."""
    for g in generators:
        if not 0 <= int(g) < G.order:
            raise IndexError(f"generator index {g} out of range")
    # when x joins, its products with every current member (and its inverse)
    # are queued, so every pair is eventually covered by the later of the two
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
    sub = Subgroup(parent=G, members=tuple(sorted(members)))
    assert G.order % sub.order == 0
    return sub


def subgroup_from_members(G: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap an explicit member set, validating the subgroup axioms."""
    mem = tuple(sorted({int(m) for m in members}))
    mset = set(mem)
    if G.identity not in mset:
        raise NoIdentity("subgroup must contain the identity")
    for a in mem:
        if int(G.inv[a]) not in mset:
            raise NoInverse(f"subgroup not closed under inverse at {a}")
        for b in mem:
            if int(G.mul[a, b]) not in mset:
                raise NotClosed(f"subgroup not closed at ({a},{b})")
    return Subgroup(parent=G, members=mem)


def test_normality(G: FiniteGroup, H: Subgroup) -> bool:
    """Brute-force conjugation scan: g h g^-1 in H for all g in G, h in H."""
    mem = np.array(H.members, dtype=np.int64)
    member_mask = np.zeros(G.order, dtype=bool)
    member_mask[mem] = True
    for g in range(G.order):
        conj = G.mul[G.mul[g, mem], int(G.inv[g])]
        if not member_mask[conj].all():
            return False
    return True


def build_coset_space(G: FiniteGroup, H: Subgroup) -> QuotientSpace:
    """Left cosets xH in order of their minimal member index."""
    n = G.order
    coset_of = np.full(n, -1, dtype=np.int64)
    reps = []
    mem = np.array(H.members, dtype=np.int64)
    for x in range(n):
        if coset_of[x] < 0:
            coset_of[G.mul[x, mem]] = len(reps)
            reps.append(x)
    k = len(reps)
    assert k * H.order == n
    labels = tuple(f"C{i}" for i in range(k))
    return QuotientSpace(group=G, subgroup=H, coset_of=_freeze(coset_of),
                         reps=_freeze(np.array(reps, dtype=np.int64)), labels=labels)


def element_order(G: FiniteGroup, x: int) -> int:
    o, y = 1, int(x)
    while y != G.identity:
        y = int(G.mul[y, x])
        o += 1
    return o


# --- element lookup and serialization --------------------------------------

def find_element(G: FiniteGroup, token: str) -> int:
    """Resolve an element token: exact label match first, else cycle notation
    (permutation groups only). Disagreement between the two routes is an error."""
    token = token.strip()
    by_label = G.label_index().get(token)
    by_perm: Optional[int] = None
    if G.perms is not None and (token in ("e", "()") or token.startswith("(")):
        try:
            p = parse_cycles(token, len(G.perms[0]))
            by_perm = {q: i for i, q in enumerate(G.perms)}.get(p)
        except NotAPermutation:
            by_perm = None
    if by_label is not None and by_perm is not None and by_label != by_perm:
        raise AmbiguousElement(f"token {token!r} is ambiguous")
    if by_label is not None:
        return by_label
    if by_perm is not None:
        return by_perm
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


def group_from_dict(d: dict, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Accepts either a Cayley-table spec or a permutation-generator spec."""
    if "permutations" in d:
        sub = d["permutations"]
        return build_from_permutation_generators(
            int(sub["degree"]), sub["generators"], name=d.get("name", ""), cap=cap)
    if "table" in d and "elements" in d:
        return build_from_cayley_table(d["elements"], d["table"],
                                       name=d.get("name", ""))
    raise UnknownName("group spec needs either 'permutations' or 'elements'+'table'")
