"""Brute-force oracles and perturbation harnesses.

Everything here exists to check the main modules against independent
computations: ambient-conjugation fusion by direct enumeration, fixed-point
tables by materializing coset spaces, and a structured corruption suite that
an accepted certificate must survive in full.  The permutation class and
its deterministic stabilizer chain, the standard generators, distinguished
subgroups, the codec inverse, the center, chain membership, the derived
subgroup, the wreath arithmetic and free-orbit padding that only the tests
and scripts build on live here too."""

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .biset import Diagonal, DiagonalContext, OrbitRecord, SemicharacteristicBiset, by_decreasing_order
from .fusion import FusionSystem, Morphism, SubgroupLattice, _invert, generate
from .grouprep import FiniteGroup, ScaleError, SGroup, Subgroup, injective_images, permutation_closure
from .park import ParkEmbedding, WreathElement
from .permcore import parse_cycles
from .realize import Certificate, verify_certificate


# -- permutations and deterministic stabilizer chains --------------------------------
# (p * q)(x) = p(q(x)).  Schreier-Sims takes no random choice and each base point
# is the least moved point, so orders and transversals are the same run to run.


class Permutation:
    """An element of Sym([0, n)) in word form."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation word: %r" % (images,))
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __repr__(self) -> str:
        return "Permutation(%s)" % format_cycles(self)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def smallest_moved(self) -> Optional[int]:
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle rotated to start at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def extended(self, degree: int) -> "Permutation":
        """The same permutation viewed in Sym([0, degree))."""
        if degree < len(self.images):
            raise ValueError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(len(self.images), degree)))


def identity_perm(degree: int) -> Permutation:
    return Permutation(range(degree))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product applying q first, then p."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch: %d vs %d" % (p.degree, q.degree))
    qi = q.images
    return Permutation(tuple(p.images[j] for j in qi))


def format_cycles(p: Permutation) -> str:
    """Cycle-notation text, smallest point first in each cycle; identity is "()"."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


class _Level:
    __slots__ = ("point", "gens", "transversal", "orbit", "_done_pairs", "_frontier")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: identity_perm(degree)}
        self.orbit: list[int] = [point]
        self._done_pairs: set[tuple[int, int]] = set()
        self._frontier: dict[int, int] = {}


class PermGroup:
    """A permutation group given by generators, with a deterministic stabilizer chain."""

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = max(g.degree for g in gens)
        gens = [g.extended(degree) if g.degree < degree else g for g in gens]
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d exceeds group degree %d" % (g.degree, degree))
        self.degree = degree
        self.generators = [g for g in gens if not g.is_identity()]
        self._levels: Optional[list[_Level]] = None

    # -- deterministic Schreier-Sims -------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = []
            for g in self.generators:
                self._insert(g)
            self._run_to_fixpoint()
        return self._levels

    def _strip(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Sift p through the chain; returns (residue, level it dropped out at)."""
        levels = self._levels
        assert levels is not None
        k = start
        while k < len(levels):
            lv = levels[k]
            img = p.images[lv.point]
            rep = lv.transversal.get(img)
            if rep is None:
                return p, k
            p = compose(rep.inverse(), p)
            k += 1
        return p, len(levels)

    def _insert(self, p: Permutation, start: int = 0) -> bool:
        """Sift p from level start and, if a nontrivial residue remains, record
        it as a strong generator on every level whose base-point prefix it
        fixes."""
        residue, k = self._strip(p, start)
        if residue.is_identity():
            return False
        levels = self._levels
        assert levels is not None
        if k == len(levels):
            levels.append(_Level(residue.smallest_moved(), self.degree))
        for j in range(k + 1):
            levels[j].gens.append(residue)
            self._expand_orbit(j)
        return True

    def _expand_orbit(self, k: int) -> None:
        lv = self._levels[k]
        changed = True
        while changed:
            changed = False
            for gi, g in enumerate(lv.gens):
                start = lv._frontier.get(gi, 0)
                end = len(lv.orbit)
                for idx in range(start, end):
                    p = lv.orbit[idx]
                    q = g.images[p]
                    if q not in lv.transversal:
                        lv.transversal[q] = compose(g, lv.transversal[p])
                        lv.orbit.append(q)
                lv._frontier[gi] = end
                if len(lv.orbit) != end:
                    changed = True

    def _process_level(self, k: int) -> bool:
        """Process outstanding Schreier generators of level k; True if the chain grew."""
        lv = self._levels[k]
        self._expand_orbit(k)
        grew = False
        i = 0
        while i < len(lv.orbit):
            p = lv.orbit[i]
            for gi in range(len(lv.gens)):
                if (p, gi) in lv._done_pairs:
                    continue
                lv._done_pairs.add((p, gi))
                g = lv.gens[gi]
                sg = compose(lv.transversal[g.images[p]].inverse(), compose(g, lv.transversal[p]))
                if sg.is_identity():
                    continue
                if self._insert(sg, k + 1):
                    grew = True
            i += 1
        return grew

    def _run_to_fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for k in range(len(self._levels)):
                if self._process_level(k):
                    changed = True

    # -- group queries ----------------------------------------------------

    def order(self) -> int:
        n = 1
        for lv in self._chain():
            n *= len(lv.orbit)
        return n

    def normal_closure(self, seeds: Iterable[Permutation]) -> "PermGroup":
        """Smallest subgroup containing the seeds and closed under conjugation
        by this group's generators."""
        closure = PermGroup([], degree=self.degree)
        closure._levels = []
        work = [s.extended(self.degree) if s.degree < self.degree else s for s in seeds]
        added: list[Permutation] = []
        while work:
            h = work.pop(0)
            if closure._insert(h):
                closure._run_to_fixpoint()
                added.append(h)
                for g in self.generators:
                    work.append(compose(g, compose(h, g.inverse())))
        closure.generators = added
        return closure


# -- standard generators and distinguished subgroups ----------------------------------


def symmetric_gens(n: int) -> list[Permutation]:
    """Standard generators of Sym([0, n))."""
    if n < 2:
        return []
    cycle = Permutation(tuple(range(1, n)) + (0,))
    swap = Permutation(parse_cycles("(0 1)", degree=n))
    return [swap, cycle] if n > 2 else [swap]


def alternating_gens(n: int) -> list[Permutation]:
    """Standard generators of Alt([0, n))."""
    if n < 3:
        return []
    three = Permutation(parse_cycles("(0 1 2)", degree=n))
    if n == 3:
        return [three]
    if n % 2 == 1:
        big = Permutation(tuple(range(1, n)) + (0,))
    else:
        big = Permutation((0,) + tuple(range(2, n)) + (1,))
    return [three, big]


def fixed_subgroup(S: SGroup) -> Subgroup:
    """C_U(A): vectors constant on each copy of the regular coordinates."""
    a_order = S.A.order
    elems = []
    for c in range(S.e):
        for d in range(S.e):
            vec = [c] * a_order + [d] * a_order
            elems.append(S.encode(vec, 0))
    gens = (
        S.encode([1] * a_order + [0] * a_order, 0),
        S.encode([0] * a_order + [1] * a_order, 0),
    )
    return Subgroup(tuple(sorted(elems)), gens)


def Z_subgroup(S: SGroup, copy: int) -> Subgroup:
    """Z_1 or Z_2: the diagonal cyclic C_e of one copy."""
    a_order = S.A.order
    vec_one = [1 if (i // a_order) == copy else 0 for i in range(S.rank)]
    return S.subgroup([S.encode(vec_one, 0)])


def decode(S: SGroup, idx: int) -> tuple[tuple[int, ...], int]:
    """The (vector, A-index) pair that SGroup.encode sends to idx."""
    rank, a_idx = divmod(idx, S.A.order)
    vec = [0] * S.rank
    for i in range(S.rank - 1, -1, -1):
        rank, vec[i] = divmod(rank, S.e)
    return tuple(vec), a_idx


def center(G: FiniteGroup) -> tuple[int, ...]:
    """The elements commuting with every element."""
    t = G.table
    return tuple(g for g in range(G.order) if all(t[g][x] == t[x][g] for x in range(G.order)))


def append_free_orbits(X: SemicharacteristicBiset, G_order: int, count: int = 1) -> SemicharacteristicBiset:
    """A stable biset stays stable after adding free orbits; this pads with
    (S x S)/Delta(1, 1) copies so some orbit source is trivial."""
    if count < 1:
        raise ValueError("count must be positive")
    orbits = list(X.orbits)
    for i, rec in enumerate(orbits):
        if rec.source == (0,):
            orbits[i] = OrbitRecord(rec.source, rec.images, rec.multiplicity + count)
            break
    else:
        orbits.append(OrbitRecord((0,), (0,), count))
    return SemicharacteristicBiset(orbits, X.m, X.n + count * G_order)


# -- wreath arithmetic, wreath elements as permutations, witnesses by a closure ------


class Wreath(WreathElement):
    """A wreath element with the group arithmetic of S wr Sigma_n, the
    reference the library's array checks are tested against.  Products
    follow the module convention of park: base arrays are target indexed."""

    __slots__ = ()

    @classmethod
    def of(cls, el: WreathElement) -> "Wreath":
        return cls(el.group, el.base, el.top)

    def top_perm(self) -> Permutation:
        return Permutation(tuple(int(i) for i in self.top))

    def is_identity(self) -> bool:
        return not self.base.any() and np.array_equal(self.top, np.arange(self.n))

    def __mul__(self, other: WreathElement) -> "Wreath":
        return wreath_multiply(self, other)

    def inverse(self) -> "Wreath":
        return wreath_inverse(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WreathElement)
            and self.group is other.group
            and np.array_equal(self.top, other.top)
            and np.array_equal(self.base, other.base)
        )

    def __hash__(self) -> int:
        return hash((self.base.tobytes(), self.top.tobytes()))


def wreath_multiply(a: WreathElement, b: WreathElement) -> Wreath:
    if a.group is not b.group or a.n != b.n:
        raise ValueError("wreath elements live over different products")
    mul, _ = a.group.np_tables
    inv_top = np.empty_like(a.top)
    inv_top[a.top] = np.arange(a.n, dtype=np.int32)
    return Wreath(a.group, mul[a.base, b.base[inv_top]], a.top[b.top])


def wreath_inverse(a: WreathElement) -> Wreath:
    _, inv = a.group.np_tables
    inv_top = np.empty_like(a.top)
    inv_top[a.top] = np.arange(a.n, dtype=np.int32)
    return Wreath(a.group, inv[a.base[a.top]], inv_top)


def wreath_identity(group: FiniteGroup, n: int) -> Wreath:
    return Wreath(group, np.zeros(n, dtype=np.int32), np.arange(n, dtype=np.int32))


def base_only(group: FiniteGroup, n: int, entries: dict[int, int]) -> Wreath:
    base = np.zeros(n, dtype=np.int32)
    for slot, val in entries.items():
        base[slot] = val
    return Wreath(group, base, np.arange(n, dtype=np.int32))


def top_only(group: FiniteGroup, perm: Permutation) -> Wreath:
    return Wreath(
        group, np.zeros(perm.degree, dtype=np.int32), np.asarray(perm.images, dtype=np.int32)
    )


def to_permutation(a: WreathElement, max_degree: int = 10 ** 5) -> Permutation:
    """The action on slot-times-group points; only for small products."""
    G = a.group
    degree = a.n * G.order
    if degree > max_degree:
        raise ScaleError("max_degree", max_degree, degree)
    mul, _ = G.np_tables
    images = np.empty(degree, dtype=np.int64)
    order = G.order
    for j in range(a.n):
        k = int(a.top[j])
        images[j * order : (j + 1) * order] = k * order + mul[int(a.base[k])]
    return Permutation(tuple(int(i) for i in images))


def witnessed_closure(pe: ParkEmbedding) -> dict:
    """The fusion closure of the system's atoms, recomputed with a wreath
    witness carried by every morphism: iota(s) for conjugation by s, the
    Park witness for a generator and its inverse for the inverse, the same
    witness for a restriction, and the product for a composite.  Restrictions
    of the atoms seed a worklist that left-composes with every atom; a
    generator's witness is built when the closure first needs it.  Returns
    {source: {images: witness}}."""
    system = pe.system
    G, lat = system.ambient, system.lattice
    full = tuple(range(G.order))
    make: dict = {}
    for s in range(G.order):
        make.setdefault(Morphism(full, tuple(G.conj(s, x) for x in full)), lambda s=s: Wreath.of(pe.iota(s)))
    for gen in system.generators:
        make.setdefault(gen, lambda gen=gen: Wreath.of(pe.witness(gen)))
        make.setdefault(_invert(gen), lambda gen=gen: atom_witness(gen).inverse())
    built: dict = {}

    def atom_witness(atom: Morphism) -> Wreath:
        if atom not in built:
            built[atom] = make[atom]()
        return built[atom]

    closed: dict = {}
    queue: deque = deque()

    def add(source, images, atom, parent=None) -> None:
        bucket = closed.setdefault(source, {})
        if images not in bucket:
            w = atom_witness(atom)
            bucket[images] = w if parent is None else w * bucket[parent]
            queue.append((source, images))

    for atom in make:
        pos = lat.posmap[atom.source]
        for pkey in lat.subkeys_of(atom.source):
            add(pkey, tuple(atom.images[pos[x]] for x in pkey), atom)
    while queue:
        source, images = queue.popleft()
        iset = set(images)
        for atom in make:
            if iset <= lat._fsets[atom.source]:
                pos = lat.posmap[atom.source]
                add(source, tuple(atom.images[pos[x]] for x in images), atom, images)
    return closed


def verify_all_witnesses(pe: ParkEmbedding) -> tuple[bool, dict]:
    """Recompute the closure in witnessed_closure: its hom sets must equal the
    system's store, and every witness must pass the conjugation identity
    elementwise."""
    closed = witnessed_closure(pe)
    same = {source: set(bucket) for source, bucket in closed.items()} == pe.system.store
    checked = 0
    for source, bucket in closed.items():
        for images, g in bucket.items():
            if not pe.check_witness(Morphism(source, images), g):
                return False, {"failed": (source, images), "checked": checked, "same_hom_sets": same}
            checked += 1
    return same, {"checked": checked, "same_hom_sets": same}


def is_member(group: PermGroup, p: Permutation) -> bool:
    """Membership by sifting p through the group's stabilizer chain."""
    group._chain()
    residue, _ = group._strip(p)
    return residue.is_identity()


def derived_subgroup(group: PermGroup) -> PermGroup:
    """The commutator subgroup: the normal closure of the commutators of the
    group's generators."""
    gens = group.generators
    return group.normal_closure(
        compose(compose(a, b), compose(a.inverse(), b.inverse())) for a in gens for b in gens
    )


# -- surrogate corpus --------------------------------------------------------------


@dataclass(frozen=True)
class SurrogatePair:
    """An ambient permutation group with a designated subgroup, both given by
    cycle-notation generator literals so the corpus is fixed in the repo."""

    name: str
    degree: int
    group_cycles: tuple
    subgroup_cycles: tuple

    def group(self) -> PermGroup:
        return PermGroup([Permutation(parse_cycles(c, self.degree)) for c in self.group_cycles])

    def subgroup_generators(self) -> list[Permutation]:
        return [Permutation(parse_cycles(c, self.degree)) for c in self.subgroup_cycles]


_CORPUS_LITERALS = [
    ("S3/S3", 3, ("(0 1)", "(0 1 2)"), ("(0 1)", "(0 1 2)")),
    ("S3/C3", 3, ("(0 1)", "(0 1 2)"), ("(0 1 2)",)),
    ("S3/C2", 3, ("(0 1)", "(0 1 2)"), ("(0 1)",)),
    ("S4/D8", 4, ("(0 1)", "(0 1 2 3)"), ("(0 1 2 3)", "(0 2)")),
    ("S4/V4", 4, ("(0 1)", "(0 1 2 3)"), ("(0 1)(2 3)", "(0 2)(1 3)")),
    ("S4/S3", 4, ("(0 1)", "(0 1 2 3)"), ("(0 1)", "(0 1 2)")),
    ("S4/C4", 4, ("(0 1)", "(0 1 2 3)"), ("(0 1 2 3)",)),
    ("A4/V4", 4, ("(0 1 2)", "(0 1)(2 3)"), ("(0 1)(2 3)", "(0 2)(1 3)")),
    ("A4/C3", 4, ("(0 1 2)", "(0 1)(2 3)"), ("(0 1 2)",)),
    ("A4/A4", 4, ("(0 1 2)", "(0 1)(2 3)"), ("(0 1 2)", "(0 1)(2 3)")),
    ("D8/C4", 4, ("(0 1 2 3)", "(0 2)"), ("(0 1 2 3)",)),
    ("D8/C2", 4, ("(0 1 2 3)", "(0 2)"), ("(0 2)",)),
    ("A5/V4", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("(0 1)(2 3)", "(0 2)(1 3)")),
    ("A5/C5", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("(0 1 2 3 4)",)),
    ("A5/S3", 5, ("(0 1 2 3 4)", "(0 1 2)"), ("(0 1 2)", "(0 1)(3 4)")),
    ("S5/D8", 5, ("(0 1)", "(0 1 2 3 4)"), ("(0 1 2 3)", "(0 2)")),
    ("S5/S4", 5, ("(0 1)", "(0 1 2 3 4)"), ("(0 1)", "(0 1 2 3)")),
    ("S5/C6", 5, ("(0 1)", "(0 1 2 3 4)"), ("(0 1 2)(3 4)",)),
    ("S5/A4", 5, ("(0 1)", "(0 1 2 3 4)"), ("(0 1 2)", "(0 1)(2 3)")),
    ("S6/Syl2", 6, ("(0 1)", "(0 1 2 3 4 5)"), ("(0 1 2 3)", "(0 2)", "(4 5)")),
    ("S6/C6", 6, ("(0 1)", "(0 1 2 3 4 5)"), ("(0 1 2 3 4 5)",)),
    ("A6/D8", 6, ("(0 1 2)", "(1 2 3 4 5)"), ("(0 1 2 3)(4 5)", "(0 2)(4 5)")),
    ("S7/Syl2", 7, ("(0 1)", "(0 1 2 3 4 5 6)"), ("(0 1 2 3)", "(0 2)", "(4 5)")),
    ("C12/C4", 12, ("(0 1 2 3 4 5 6 7 8 9 10 11)",),
     ("(0 3 6 9)(1 4 7 10)(2 5 8 11)",)),
    ("D12/C6", 6, ("(0 1 2 3 4 5)", "(1 5)(2 4)"), ("(0 1 2 3 4 5)",)),
    ("D12/C2", 6, ("(0 1 2 3 4 5)", "(1 5)(2 4)"), ("(1 5)(2 4)",)),
]


def corpus() -> list[SurrogatePair]:
    return [SurrogatePair(n, d, g, s) for n, d, g, s in _CORPUS_LITERALS]


def regular_representation(G: FiniteGroup) -> list[Permutation]:
    """Left translations as permutations of the element indices."""
    return [Permutation(tuple(G.mul(g, x) for x in range(G.order))) for g in range(G.order)]


# -- exhaustive ambient fusion -------------------------------------------------------


def abstract_subgroup(S0_gens: list[Permutation]) -> tuple[FiniteGroup, list[Permutation]]:
    table, elems = FiniteGroup.from_permutations([p.images for p in S0_gens], name="S0")
    return table, [Permutation(e) for e in elems]


def _conjugation_images(G0: PermGroup, elems: list[Permutation]):
    """For every ambient element, the partial map on subgroup indices induced
    by conjugation, as a list (None where the image leaves the subgroup)."""
    index = {p: i for i, p in enumerate(elems)}
    for g in map(Permutation, permutation_closure([p.images for p in G0.generators], G0.degree)):
        gi = g.inverse()
        yield [index.get(g * p * gi) for p in elems]


def brute_fusion(G0: PermGroup, S0_gens: list[Permutation], max_order: int = 10 ** 4) -> FusionSystem:
    """The ambient-conjugation fusion system on S0, by enumerating every c_g
    on every subgroup of S0 directly."""
    if G0.order() > max_order:
        raise ScaleError("max_brute_order", max_order, G0.order())
    table, elems = abstract_subgroup(S0_gens)
    subs = table.all_subgroups()
    morphisms = set()
    for cmap in _conjugation_images(G0, elems):
        for sub in subs:
            images = []
            for x in sub.elements:
                y = cmap[x]
                if y is None:
                    images = None
                    break
                images.append(y)
            if images is not None:
                morphisms.add(Morphism(sub.elements, tuple(images)))
    return generate(table, subs, sorted(morphisms))


def conjugation_generators(G0: PermGroup, S0_gens: list[Permutation]) -> tuple[FiniteGroup, list[Morphism]]:
    """Each ambient element's conjugation on its maximal domain inside S0.
    Closing these under the fusion axioms must reproduce brute_fusion."""
    table, elems = abstract_subgroup(S0_gens)
    out = set()
    for cmap in _conjugation_images(G0, elems):
        domain = tuple(sorted(x for x in range(table.order) if cmap[x] is not None))
        out.add(Morphism(domain, tuple(cmap[x] for x in domain)))
    return table, sorted(out)


# -- exhaustive marks ----------------------------------------------------------------


def _orbit_cosets(G: FiniteGroup, source, images) -> list[frozenset]:
    """The coset space of a twisted diagonal inside G x G, materialized."""
    pos = {x: i for i, x in enumerate(source)}
    seen = set()
    cosets = []
    for x in range(G.order):
        for y in range(G.order):
            if (x, y) in seen:
                continue
            coset = frozenset(
                (G.mul(x, u), G.mul(y, images[pos[u]])) for u in source
            )
            seen.update(coset)
            cosets.append(coset)
    return cosets


def brute_marks_table(
    system: FusionSystem, X: SemicharacteristicBiset, max_points: int = 512
) -> dict:
    """Fixed-point counts of the biset under every fusion-twisted diagonal,
    computed on the literal coset space.  Small systems only."""
    G = system.ambient
    if X.n > max_points:
        raise ScaleError("max_points", max_points, X.n)
    points = []
    for rec in X.orbits:
        for coset in _orbit_cosets(G, rec.source, rec.images):
            points.extend([coset] * rec.multiplicity)
    table = {}
    for skey in system.lattice.keys:
        pos = {x: i for i, x in enumerate(skey)}
        for phi in system.hom_set(skey):
            count = 0
            for coset in points:
                if all(
                    frozenset((G.mul(u, a), G.mul(phi.images[pos[u]], b)) for a, b in coset)
                    == coset
                    for u in skey
                ):
                    count += 1
            table[(skey, phi.images)] = count
    return table


def move_diagonal(G: FiniteGroup, d: Diagonal, x: int, y: int) -> Diagonal:
    """The diagonal conjugated by (x, y): source x P x^-1, map c_y phi c_x^-1,
    one conj at a time."""
    pairs = sorted((G.conj(x, p), G.conj(y, q)) for p, q in zip(d.source, d.images))
    return Diagonal(tuple(p for p, _ in pairs), tuple(q for _, q in pairs))


def all_injective_homs(
    G: FiniteGroup, lattice: SubgroupLattice, source_key: tuple[int, ...]
) -> list[Morphism]:
    """Every injective homomorphism from the subgroup into the ambient group,
    as morphisms sorted by images."""
    rows = injective_images(G, lattice.by_key[source_key], range(G.order))
    return [Morphism(source_key, tuple(row)) for row in rows.tolist()]


def injective_class_walk(ctx: DiagonalContext) -> Iterator[tuple[Diagonal, list[Diagonal]]]:
    """Every class of injective twisted diagonals under the product action,
    fusion twist or not, as (first diagonal met, members), sources in
    decreasing order; the walk the library makes over stored morphisms only."""
    system = ctx.system
    assigned: set[Diagonal] = set()
    for skey in by_decreasing_order(system.lattice.keys):
        for d in all_injective_homs(system.ambient, system.lattice, skey):
            if d not in assigned:
                members = ctx.fprime_orbit(d)
                assigned.update(members)
                yield d, members


def sxs_representatives(ctx: DiagonalContext, members) -> list[Diagonal]:
    """The least member of each S x S class met by the members, sorted."""
    return sorted({ctx.sxs[m][0] for m in members})


def exhaustive_class_marks(
    system: FusionSystem, X: SemicharacteristicBiset, context: Optional[DiagonalContext] = None
) -> list[tuple[Diagonal, list[int]]]:
    """The stability comparison over every class of injective twisted
    diagonals, fusion twist or not: for each class with more than one S x S
    representative, its first diagonal and the marks on the representatives.
    The biset is stable iff every mark list is constant."""
    ctx = context or DiagonalContext(system)
    out = []
    for d, members in injective_class_walk(ctx):
        reps = sxs_representatives(ctx, members)
        if len(reps) > 1:
            out.append((d, ctx.marks(X.orbits, reps)))
    return out


# -- structured certificate corruption -----------------------------------------------


def _non_leading_orbit(payload) -> int:
    orbits = payload["biset"]["orbits"]
    for i in range(len(orbits) - 1, 0, -1):
        return i
    raise ValueError("certificate has no correction orbits to corrupt")


def _orbit_slot_index(payload, i) -> int:
    # slot tables are aligned with the orbit list; the representative count
    # is the subgroup index, so n can be patched without rebuilding closures
    return len(payload["embedding"]["slot_tables"][i]["coset_representatives"])


def _mut_drop_orbit(payload):
    del payload["biset"]["orbits"][_non_leading_orbit(payload)]


def _mut_drop_orbit_fix_n(payload):
    # orbit 1 is the first correction orbit; dropping it (consistently, with
    # n and the slot tables patched) leaves an unbalanced biset that only the
    # stability recheck can catch
    rec = payload["biset"]["orbits"][1]
    payload["biset"]["n"] -= rec["multiplicity"] * _orbit_slot_index(payload, 1)
    del payload["biset"]["orbits"][1]
    del payload["embedding"]["slot_tables"][1]


def _mut_bump_multiplicity(payload):
    payload["biset"]["orbits"][_non_leading_orbit(payload)]["multiplicity"] += 1


def _mut_bump_multiplicity_fix_n(payload):
    payload["biset"]["orbits"][1]["multiplicity"] += 1
    payload["embedding"]["slot_tables"][1]["multiplicity"] += 1
    payload["biset"]["n"] += _orbit_slot_index(payload, 1)


def _mut_corrupt_witness_base(payload):
    runs = payload["embedding"]["witnesses"][0]["base_runs"]
    runs[0][0] = (runs[0][0] + 1) % payload["ambient"]["order"]


def _mut_corrupt_witness_top(payload):
    # swap across orbit blocks: slots inside one multiplicity block are
    # interchangeable (equal base entries), so an in-block swap would still
    # be a valid witness
    top = payload["embedding"]["witnesses"][-1]["top"]
    top[0], top[-1] = top[-1], top[0]


def _mut_corrupt_generator(payload):
    images = payload["fusion_generators"][0]["generator_images"]
    images[0], images[1] = images[1], images[0]


def _mut_drop_generator(payload):
    del payload["fusion_generators"][len(payload["fusion_generators"]) // 2]


def _mut_flip_flag(payload):
    payload["flags"]["biset_stable"] = False
    payload["accepted"] = False


def _mut_inconsistent_flag(payload):
    payload["flags"]["witnesses_ok"] = False


def _mut_corrupt_n(payload):
    payload["biset"]["n"] += payload["ambient"]["order"]


def _mut_corrupt_m(payload):
    payload["biset"]["m"] += 1


def _mut_corrupt_prime(payload):
    payload["prime"] = payload["prime"] * 2


def _mut_corrupt_iota(payload):
    top = payload["embedding"]["iota_generators"][-1]["top"]
    top[0], top[1] = top[1], top[0]


def _mut_corrupt_input_table(payload):
    table = payload["input"]["table"]
    if len(table) < 2:
        raise ValueError("trivial table cannot be corrupted meaningfully")
    table[1][0], table[1][-1] = table[1][-1], table[1][0]


def _mut_corrupt_slot_table(payload):
    reps = payload["embedding"]["slot_tables"][-1]["coset_representatives"]
    reps[0] += 1


def _mut_forge_construction_report(payload):
    payload["construction_checks"]["largest_index"] = 999


def _mut_forge_stability_report(payload):
    payload["biset"]["stability"]["checked_classes"] += 1


def _mut_forge_perm_degree(payload):
    # ask for the weaker transitivity check at a degree Schreier-Sims covers
    payload["policy"]["max_perm_degree"] = 100


def _mut_forge_closure_mode(payload):
    # claim the exact normal-closure battery where only transitivity ran
    payload["main_checks"]["top_closure"]["mode"] = "normal_closure"
    payload["embedding"]["top_closure_mode"] = "normal_closure"


STANDARD_MUTATIONS = [
    ("drop_orbit", _mut_drop_orbit),
    ("drop_orbit_fix_n", _mut_drop_orbit_fix_n),
    ("bump_multiplicity", _mut_bump_multiplicity),
    ("bump_multiplicity_fix_n", _mut_bump_multiplicity_fix_n),
    ("corrupt_witness_base", _mut_corrupt_witness_base),
    ("corrupt_witness_top", _mut_corrupt_witness_top),
    ("corrupt_generator_image", _mut_corrupt_generator),
    ("drop_generator", _mut_drop_generator),
    ("flip_flag", _mut_flip_flag),
    ("inconsistent_flag", _mut_inconsistent_flag),
    ("corrupt_n", _mut_corrupt_n),
    ("corrupt_m", _mut_corrupt_m),
    ("corrupt_prime", _mut_corrupt_prime),
    ("corrupt_iota_image", _mut_corrupt_iota),
    ("corrupt_input_table", _mut_corrupt_input_table),
    ("corrupt_slot_table", _mut_corrupt_slot_table),
    ("forge_construction_report", _mut_forge_construction_report),
    ("forge_stability_report", _mut_forge_stability_report),
    ("forge_closure_mode", _mut_forge_closure_mode),
    ("forge_perm_degree", _mut_forge_perm_degree),
]


def mutation_suite(cert: Certificate, names=None) -> dict:
    """Apply every standard corruption to a fresh copy of the certificate and
    re-verify.  Report per-mutation rejection; all_rejected is the verdict."""
    data = cert.to_json_bytes()
    results = {}
    if names is not None:
        known = {entry[0] for entry in STANDARD_MUTATIONS}
        missing = sorted(set(names) - known)
        if missing:
            raise ValueError("unknown mutation names: %s" % ", ".join(missing))
    selected = [
        entry for entry in STANDARD_MUTATIONS if names is None or entry[0] in names
    ]
    for name, mutate in selected:
        payload = json.loads(data)
        try:
            mutate(payload)
            mutated = Certificate.from_payload(payload)
        except (ValueError, KeyError, IndexError) as exc:
            results[name] = {"rejected": True, "reason": "payload rejected: %s" % exc}
            continue
        try:
            ok, report = verify_certificate(mutated)
        except ScaleError as exc:
            results[name] = {"rejected": True, "reason": "scale: %s" % exc}
            continue
        results[name] = {
            "rejected": not ok,
            "reason": report.get("reason", "flag mismatch: %s" % report.get("flag_mismatches")),
        }
    results["all_rejected"] = all(
        v["rejected"] for k, v in results.items() if k != "all_rejected"
    )
    return results
