"""Finite groups as multiplication tables, and the semidirect product S = U . A.

Every group here is a table group: elements are the indices 0..order-1 with
index 0 the identity, and multiplication is a materialized order x order
table.  The ambient group of the whole pipeline, S = U semidirect A with U
homocyclic of exponent e and rank 2|A| (A permuting the coordinates of two
copies of its own regular action), is built by SGroup as a table group with
codecs between indices and (vector, A-element) pairs.

Desk scale is enforced: subgroup enumeration materializes full element
tuples, and the configurable caps raise ScaleError rather than thrash.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .permcore import read_decimal


class ScaleError(RuntimeError):
    """A configured desk-scale bound was exceeded; names the bound, and the
    pipeline stage that met it once realize's stage loop has set it."""

    stage: Optional[str] = None

    def __init__(self, bound_name: str, bound_value, actual):
        self.bound_name = bound_name
        self.bound_value = bound_value
        self.actual = actual
        super().__init__(
            "scale bound %s=%s exceeded (needed %s)" % (bound_name, bound_value, _short(actual))
        )


def _short(value) -> str:
    """The value as text, but an integer of more than 30 digits as its digit
    count: the text of a huge one is long, and past 4300 digits str refuses."""
    if not isinstance(value, int) or value < 10 ** 30:
        return str(value)
    digits = int((value.bit_length() - 1) * math.log10(2))  # at most log10(value)
    while 10 ** digits <= value:
        digits += 1
    return "a %d-digit number" % digits


def _check_table_order(n: int) -> None:
    """Tables are checked (associativity is cubic) and catalog groups built
    up to 512 elements."""
    if n > 512:
        raise ScaleError("table_validation_order", 512, n)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a table group: full sorted element tuple plus generators."""

    elements: tuple[int, ...]
    generators: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(set(self.elements))) != self.elements:
            raise ValueError("subgroup elements must be sorted and deduplicated")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def key(self) -> tuple[int, ...]:
        return self.elements

    @functools.cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)


class FiniteGroup:
    """A finite group given by its multiplication table, identity at index 0."""

    def __init__(self, table: Sequence[Sequence[int]], name: str = "", validate: bool = False):
        if isinstance(table, np.ndarray):
            self.table = table.tolist()
        else:
            self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.name = name
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table is not square")
        if validate:
            self._validate()
        row0 = self.table[0]
        if row0 != list(range(self.order)) or [r[0] for r in self.table] != list(range(self.order)):
            raise ValueError("index 0 is not a two-sided identity")
        self.inverse = [0] * self.order
        for i, row in enumerate(self.table):
            self.inverse[row.index(0)] = i
        self._order_cache: dict[int, int] = {}

    def _validate(self) -> None:
        n = self.order
        if any(type(x) is not int for row in self.table for x in row):
            raise ValueError("table entries must be integers")
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise ValueError("table row is not a permutation of the elements")
        cols = list(zip(*self.table))
        for col in cols:
            if sorted(col) != list(range(n)):
                raise ValueError("table column is not a permutation of the elements")
        _check_table_order(n)
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = ta[b]
                tb = t[b]
                for c in range(n):
                    if t[tab][c] != ta[tb[c]]:
                        raise ValueError(
                            "associativity fails at (%d, %d, %d)" % (a, b, c)
                        )

    # -- element arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """Left-handed conjugation g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def product(self, xs: Iterable[int]) -> int:
        acc = 0
        for x in xs:
            acc = self.table[acc][x]
        return acc

    def element_order(self, a: int) -> int:
        cached = self._order_cache.get(a)
        if cached is not None:
            return cached
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        self._order_cache[a] = k
        return k

    def exponent(self) -> int:
        return math.lcm(*(self.element_order(a) for a in range(self.order)))

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a b a^-1 b^-1."""
        t = self.table
        return t[t[t[a][b]][self.inverse[a]]][self.inverse[b]]

    # -- subgroup machinery -------------------------------------------------

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Sorted element tuple of the subgroup generated by the seed."""
        seen = {0}
        queue = [0]
        gens = sorted(set(seed))
        t = self.table
        for x in queue:
            for g in gens:
                y = t[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return tuple(sorted(seen))

    def subgroup(self, gens: Iterable[int]) -> Subgroup:
        gens = tuple(sorted(set(gens) - {0}))
        return Subgroup(self.closure(gens), gens)

    def minimal_generators(self) -> list[int]:
        """A short (not necessarily minimum) generating list, greedily built."""
        gens: list[int] = []
        cur = (0,)
        for a in sorted(range(self.order), key=lambda x: -self.element_order(x)):
            if a not in cur:
                gens.append(a)
                cur = self.closure(gens)
                if len(cur) == self.order:
                    break
        return gens

    def all_subgroups(self, max_count: Optional[int] = None) -> list[Subgroup]:
        """Every subgroup, found by closing each known subgroup with one more
        element; complete because any subgroup is reachable by adding
        generators one at a time.  <H, g> = <H, h g> for every h in H, so
        each right coset H g is closed once, from its least element.  Sorted
        by (order, elements)."""
        found: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
        queue = [(0,)]
        t = self.table
        for elems in queue:
            base_gens = found[elems]
            tried = set(elems)
            for g in range(1, self.order):
                if g in tried:
                    continue
                tried.update([t[h][g] for h in elems])
                gens = tuple(sorted(set(base_gens) | {g}))
                new = self.closure(gens)
                if new not in found:
                    found[new] = gens
                    if max_count is not None and len(found) > max_count:
                        raise ScaleError("max_subgroups", max_count, len(found))
                    queue.append(new)
        subs = [Subgroup(elems, gens) for elems, gens in found.items()]
        subs.sort(key=lambda h: (h.order, h.elements))
        return subs

    def normalizer(self, sub: Subgroup) -> Subgroup:
        eset = sub.element_set
        norm = [g for g in range(self.order) if all(self.conj(g, x) in eset for x in sub.elements)]
        return Subgroup(tuple(sorted(norm)), tuple(sorted(norm)))

    def commutator_subgroup(self) -> Subgroup:
        comms = set()
        for a in range(self.order):
            for b in range(a):
                comms.add(self.commutator(a, b))
        comms.discard(0)
        return self.subgroup(comms)

    def join(self, a: Subgroup, b: Subgroup) -> Subgroup:
        return self.subgroup(set(a.elements) | set(b.elements))

    @functools.cached_property
    def np_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The multiplication table and the inverse map as int32 arrays."""
        return np.asarray(self.table, dtype=np.int32), np.asarray(self.inverse, dtype=np.int32)

    @functools.cached_property
    def np_conj(self) -> np.ndarray:
        """np_conj[y, t] = y t y^-1, the array form of conj."""
        mul, inv = self.np_tables
        return mul[mul, inv[:, np.newaxis]]

    @functools.cached_property
    def _conj_rows(self) -> dict[int, list[int]]:
        return {}

    def conj_row(self, y: int) -> list[int]:
        """Row y of np_conj as a list, for lookups in Python loops; made
        once per element asked for, and kept."""
        row = self._conj_rows.get(y)
        if row is None:
            row = self._conj_rows[y] = self.np_conj[y].tolist()
        return row

    def table_hash(self) -> str:
        payload = repr(self.table).encode()
        return hashlib.sha256(payload).hexdigest()

    # -- constructions ------------------------------------------------------

    @classmethod
    def from_permutations(cls, perms: Sequence[tuple[int, ...]], name: str = "") -> tuple["FiniteGroup", list[tuple[int, ...]]]:
        """Table group of the permutation group generated by the image tuples,
        elements in permutation_closure order; returns (group, element list)."""
        elems = list(permutation_closure(perms, max(map(len, perms))))
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[tuple(a[x] for x in b)] for b in elems] for a in elems]
        return cls(table, name=name), elems

    def direct_product(self, other: "FiniteGroup") -> "FiniteGroup":
        """Product group; element index = self_index * |other| + other_index."""
        n, m = self.order, other.order
        table = [[0] * (n * m) for _ in range(n * m)]
        for a1 in range(n):
            for a2 in range(m):
                i = a1 * m + a2
                row = table[i]
                ta, tb = self.table[a1], other.table[a2]
                for b1 in range(n):
                    tab1 = ta[b1] * m
                    base = b1 * m
                    for b2 in range(m):
                        row[base + b2] = tab1 + tb[b2]
        name = "%sx%s" % (self.name, other.name) if self.name and other.name else ""
        return FiniteGroup(table, name=name)


def permutation_closure(perms: Sequence[tuple[int, ...]], degree: int) -> Iterator[tuple[int, ...]]:
    """The image tuples of the permutation group the image tuples generate,
    each read in Sym([0, degree)), breadth first from the identity: each
    element is an earlier one followed by one generator."""
    if any(len(p) > degree for p in perms):
        raise ValueError("cannot shrink a permutation")
    gens = [p + tuple(range(len(p), degree)) for p in perms]
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    for cur in queue:
        yield cur
        for p in gens:
            nxt = tuple(cur[j] for j in p)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


# -- the small-group catalog --------------------------------------------------


def _cyclic(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], name="C%d" % n)


def _dihedral(order: int) -> FiniteGroup:
    # element 2i = rotation^i, 2i+1 = rotation^i * reflection
    if order % 2 or order < 2:
        raise ValueError("dihedral groups here have even order >= 2, got %d" % order)
    n = order // 2
    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            table[2 * i][2 * j] = 2 * ((i + j) % n)
            table[2 * i][2 * j + 1] = 2 * ((i + j) % n) + 1
            table[2 * i + 1][2 * j] = 2 * ((i - j) % n) + 1
            table[2 * i + 1][2 * j + 1] = 2 * ((i - j) % n)
    return FiniteGroup(table, name="D%d" % order)


def _symmetric(n: int) -> FiniteGroup:
    if n > 4:
        raise ValueError("catalog symmetric groups stop at S4 (got S%d)" % n)
    if n <= 1:
        return _cyclic(1)
    perms = [list(p) for p in itertools.permutations(range(n))]
    perms.sort()
    # identity is lexicographically first, so index 0 is right already
    index = {tuple(p): i for i, p in enumerate(perms)}
    table = [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]
    return FiniteGroup(table, name="S%d" % n)


_Q8_TABLE = [
    # 0:1, 1:-1, 2:i, 3:-i, 4:j, 5:-j, 6:k, 7:-k
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


def catalog_group(name: str) -> FiniteGroup:
    """Catalog lookup: "1", "C<n>", "D<2n>", "S<n>" (n <= 4), "Q8", and
    "x"-separated direct products such as "C2xC2".  An order past the table
    bound is refused before any table is built."""
    name = name.strip()
    if "x" in name:
        parts = name.split("x")
        group = catalog_group(parts[0])
        for part in parts[1:]:
            factor = catalog_group(part)
            _check_table_order(group.order * factor.order)
            group = group.direct_product(factor)
        group.name = name
        return group
    if name == "1":
        return FiniteGroup([[0]], name="1")
    if name == "Q8":
        return FiniteGroup(_Q8_TABLE, name="Q8")
    if name.startswith("C") and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise ValueError("bad cyclic order in %r" % name)
        _check_table_order(n)
        return _cyclic(n)
    if name.startswith("D") and name[1:].isdigit():
        _check_table_order(int(name[1:]))
        return _dihedral(int(name[1:]))
    if name.startswith("S") and name[1:].isdigit():
        return _symmetric(int(name[1:]))
    raise ValueError("unknown catalog group %r" % name)


def load_table_file(path: str) -> FiniteGroup:
    """Read a group from a text file: first token is the order, then the
    row-major multiplication table.  Positions count the tokens from 0.  The
    identity is relabeled to index 0."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty group file %r" % path)
    n = read_decimal(tokens[0], "table order", 0)
    if n == 0:
        raise ValueError("table order %r at position 0 is not positive" % tokens[0])
    body = [read_decimal(x, "table entry", k) for k, x in enumerate(tokens[1:], 1)]
    if len(body) != n * n:
        raise ValueError("expected %d table entries, found %d" % (n * n, len(body)))
    if any(not 0 <= x < n for x in body):
        raise ValueError("table entry out of range in %r" % path)
    table = [body[i * n:(i + 1) * n] for i in range(n)]
    ident = None
    for e in range(n):
        if table[e] == list(range(n)) and all(table[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("table has no two-sided identity")
    if ident != 0:
        relabel = list(range(n))
        relabel[0], relabel[ident] = ident, 0
        table = [
            [relabel[table[relabel[a]][relabel[b]]] for b in range(n)]
            for a in range(n)
        ]
    return FiniteGroup(table, name="custom", validate=True)


@dataclass
class InputGroupA:
    """The group to realize, with its exponent."""

    name: str
    group: FiniteGroup
    e: int = field(init=False)

    def __post_init__(self):
        self.e = self.group.exponent()

    @property
    def order(self) -> int:
        return self.group.order

    @classmethod
    def from_name(cls, name: str) -> "InputGroupA":
        return cls(name, catalog_group(name))

    @classmethod
    def from_file(cls, path: str) -> "InputGroupA":
        return cls("custom", load_table_file(path))


# -- the ambient group S = U . A ----------------------------------------------


class SGroup(FiniteGroup):
    """S = U semidirect A: U = (Z/e)^(2|A|), A permuting the coordinates of two
    copies of its left-translation action.  Element index = vector rank (big-
    endian base e) * |A| + A-index, which is the lexicographic (vector, A) order."""

    def __init__(self, A: InputGroupA, max_order: int = 4096):
        self.A = A
        self.e = A.e
        a_order = A.order
        self.rank = 2 * a_order
        u_order = self.e ** self.rank
        s_order = u_order * a_order
        if s_order > max_order:
            raise ScaleError("max_subgroup_order", max_order, s_order)
        self.u_order = u_order

        # coordinate permutations: coordinate (copy, x) sits at copy*|A| + x,
        # and a sends it to copy*|A| + (a x)
        self.coord_perm = []
        for a in range(a_order):
            perm = [0] * self.rank
            for copy in range(2):
                for x in range(a_order):
                    perm[copy * a_order + A.group.mul(a, x)] = copy * a_order + x
            # perm is laid out so that (a.v)[c] = v[perm[c]]
            self.coord_perm.append(perm)

        table = self._build_table(a_order, u_order)
        super().__init__(table, name="S(%s)" % A.name)

    def _build_table(self, a_order: int, u_order: int) -> np.ndarray:
        e, rank = self.e, self.rank
        weights = np.array([e ** (rank - 1 - i) for i in range(rank)], dtype=np.int64)
        vecs = np.zeros((u_order, rank), dtype=np.int64)
        r = np.arange(u_order)
        for i in range(rank):
            vecs[:, i] = (r // int(weights[i])) % e
        a_table = np.array(self.A.group.table, dtype=np.int64)

        table = np.zeros((u_order * a_order, u_order * a_order), dtype=np.int64)
        for a in range(a_order):
            perm = np.array(self.coord_perm[a], dtype=np.int64)
            acted = vecs[:, perm]                  # row v -> a.v
            for u_rank in range(u_order):
                u = vecs[u_rank]
                summed = (u[np.newaxis, :] + acted) % e
                res_rank = summed @ weights        # (u + a.v) for every v
                for b in range(a_order):
                    row = u_rank * a_order + a
                    table[row, np.arange(u_order) * a_order + b] = (
                        res_rank * a_order + a_table[a, b]
                    )
        return table

    # -- codecs ---------------------------------------------------------------

    def encode(self, u_vec: Sequence[int], a_idx: int) -> int:
        rank = 0
        for v in u_vec:
            rank = rank * self.e + (v % self.e)
        return rank * self.A.order + a_idx

    # -- distinguished subgroups ------------------------------------------------

    def U_subgroup(self) -> Subgroup:
        elems = tuple(sorted(r * self.A.order for r in range(self.u_order)))
        gens = tuple(
            self.encode([1 if i == j else 0 for i in range(self.rank)], 0)
            for j in range(self.rank)
        )
        return Subgroup(elems, gens)


def build_S(A: InputGroupA, max_order: int = 4096) -> SGroup:
    """The ambient group of the construction for input A."""
    return SGroup(A, max_order=max_order)


def enumerate_subgroups(S: FiniteGroup, max_order: int = 4096, max_count: int = 20000) -> list[Subgroup]:
    if S.order > max_order:
        raise ScaleError("max_subgroup_order", max_order, S.order)
    return S.all_subgroups(max_count=max_count)


def homocyclic_rank2(S: SGroup, subgroups: list[Subgroup]) -> list[Subgroup]:
    """The V among the subgroups with V isomorphic to C_e x C_e, each with a
    fixed generating pair (first pair of order-e elements in index order that
    splits V)."""
    e = S.e
    if e == 1:
        return []
    target = e * e
    divisors = {d for d in range(1, e + 1) if e % d == 0}
    out = []
    for sub in subgroups:
        if sub.order != target:
            continue
        if any(S.element_order(x) not in divisors for x in sub.elements):
            continue
        if max(S.element_order(x) for x in sub.elements) != e:
            continue
        if not all(S.mul(a, b) == S.mul(b, a) for a in sub.elements for b in sub.elements):
            continue
        pair = _splitting_pair(S, sub, e)
        if pair is not None:
            out.append(Subgroup(sub.elements, pair))
    return out


def _splitting_pair(S: FiniteGroup, sub: Subgroup, e: int) -> Optional[tuple[int, int]]:
    """The first pair g < h of order-e elements whose cyclic groups meet
    trivially, or None.  In an abelian group of order e^2 such a pair spans
    all of it, so one exists exactly when the group is C_e x C_e: at e = 4,
    C4 x C2 x C2 has the order and the exponent but no such pair."""
    spans = {x: set(S.closure([x])) for x in sub.elements if S.element_order(x) == e}
    for g in spans:
        for h in spans:
            if h > g and spans[g] & spans[h] == {0}:
                return g, h
    return None


def automorphisms_of(G: FiniteGroup, V: Subgroup) -> list[dict[int, int]]:
    """Aut(V) as maps on element indices, sorted by their images of V's elements."""
    return [dict(zip(V.elements, row)) for row in injective_images(G, V, V.elements).tolist()]


def injective_images(G: FiniteGroup, sub: Subgroup, targets: Iterable[int]) -> np.ndarray:
    """Every injective homomorphism from the subgroup into G that sends its
    generators into targets, as one row of images aligned with the
    subgroup's elements, rows sorted by images."""
    gens = list(sub.generators)
    if G.closure(gens) != sub.elements:
        raise ValueError("subgroup record lacks a generating set")
    rows = injective_homs(G, gens, G, targets)
    return rows[np.lexsort(rows.T[::-1])]


def _word_map(G: FiniteGroup, gens: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Each element of <gens> as one fixed word in the generators."""
    words = {0: ()}
    queue = [0]
    for x in queue:
        for gi, g in enumerate(gens):
            y = G.mul(x, g)
            if y not in words:
                words[y] = words[x] + (gi,)
                queue.append(y)
    return words


def injective_homs(
    G: FiniteGroup, gens: Sequence[int], H: FiniteGroup, targets: Iterable[int]
) -> np.ndarray:
    """Every injective homomorphism from the subgroup <gens> of G into H that
    sends each generator into targets, as one row of images per map, the
    columns aligned with the sorted elements of <gens>.  Rows come in
    lexicographic order of the generator images, candidates in targets order.

    The generator images are extended one generator at a time over the whole
    frontier: the candidates for a generator are the targets of its own
    order, and a row survives only if ord(g_i g_k) = ord(y_i y_k) for every
    earlier i.  The other pairs add nothing, since ord(ab) = ord(ba) and
    ord(g^2) is fixed by ord(g).  A full row extends along the word map; the
    extension f is a homomorphism exactly when f(x g) = f(x) f(g) for every x
    and every generator g, by induction on the word length of the right
    factor.  The extension takes each element one step from its word's
    prefix, so those steps hold by construction and only the other pairs
    (x, g) are checked.  A homomorphism is injective when its kernel is
    trivial: no element but the identity maps to 0."""
    words = _word_map(G, gens)
    pos = {x: i for i, x in enumerate(sorted(words))}
    steps = [
        (pos[x], pos[G.product(gens[gi] for gi in w[:-1])], w[-1]) for x, w in words.items() if w
    ]
    built = {(prefix, gi) for _, prefix, gi in steps}
    checks = [
        (pos[x], pos[G.mul(x, g)], gi)
        for x in words
        for gi, g in enumerate(gens)
        if (pos[x], gi) not in built
    ]
    # the work is column-major, one contiguous int32 row per generator and per
    # element, and a product is one take from the raveled table at a |H| + b,
    # an int32 index below the table's size
    ht = H.np_tables[0].ravel()
    horder = np.array([H.element_order(y) for y in range(H.order)])
    targets = np.fromiter(targets, dtype=np.int32)

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ht.take(a * H.order + b)

    images = np.zeros((0, 1), dtype=np.int32)
    for k, g in enumerate(gens):
        cands = targets[horder[targets] == G.element_order(g)]
        images = np.vstack(
            (np.repeat(images, len(cands), axis=1), np.tile(cands, images.shape[1]))
        )
        keep = np.ones(images.shape[1], dtype=bool)
        for i in range(k):
            keep &= horder.take(product(images[i], images[k])) == G.element_order(G.mul(gens[i], g))
        images = images[:, keep]
    table = np.zeros((len(pos), images.shape[1]), dtype=np.int32)
    for x, prefix, gi in steps:
        table[x] = product(table[prefix], images[gi])
    keep = (table[1:] != 0).all(axis=0)
    for x, xg, gi in checks:
        keep &= table[xg] == product(table[x], images[gi])
    return table.T[keep]


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> Optional[dict[int, int]]:
    """A table isomorphism G1 -> G2, or None."""
    if G1.order != G2.order:
        return None
    prof1 = sorted(G1.element_order(x) for x in range(G1.order))
    prof2 = sorted(G2.element_order(x) for x in range(G2.order))
    if prof1 != prof2:
        return None
    rows = injective_homs(G1, G1.minimal_generators(), G2, range(G2.order))
    return dict(enumerate(rows[0].tolist())) if len(rows) else None


def are_isomorphic(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    return find_isomorphism(G1, G2) is not None
