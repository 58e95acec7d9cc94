"""Fusion systems on a finite table group, materialized as morphism stores.

A morphism is an injective homomorphism from a subgroup of the ambient group
into the ambient group, stored as the tuple of images aligned with the sorted
source elements.  The store of a generated system is the least collection
that contains every restriction of every conjugation map and of every given
generator (and their inverses), and is closed under composition and
restriction.  The worklist below reaches that fixed point by seeding all
restrictions of the full-source atoms and then left-composing stored
morphisms with full-source atoms only; right factors never need restricting
because a restricted composite is the composite of the restricted right
factor, which is itself in the store.

Every stored morphism carries provenance: either it is the restriction of a
single atom, or it is atom-compose-parent.  Downstream code unwinds this to
synthesize conjugation witnesses multiplicatively.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from .grouprep import FiniteGroup, Subgroup, _word_map, injective_homs


class Morphism(NamedTuple):
    source: tuple[int, ...]   # sorted element indices
    images: tuple[int, ...]   # aligned with source

    @property
    def image_set(self) -> frozenset:
        return frozenset(self.images)

    @property
    def is_identity(self) -> bool:
        return self.source == self.images


# provenance tags
INNER = "inner"      # ("inner", s)            restriction of conjugation by s
ATOM = "atom"        # ("atom", atom_id)       restriction of a generator atom
COMPOSE = "compose"  # ("compose", atom_id, parent_images)


class SubgroupLattice:
    """Sorted subgroup list with containment, covers, and position maps."""

    def __init__(self, ambient: FiniteGroup, subgroups: Sequence[Subgroup]):
        self.ambient = ambient
        self.subgroups = sorted(subgroups, key=lambda h: (h.order, h.elements))
        self.by_key: dict[tuple[int, ...], Subgroup] = {h.elements: h for h in self.subgroups}
        if len(self.by_key) != len(self.subgroups):
            raise ValueError("duplicate subgroups")
        self.keys = [h.elements for h in self.subgroups]
        self.posmap: dict[tuple[int, ...], dict[int, int]] = {
            k: {x: i for i, x in enumerate(k)} for k in self.keys
        }
        self._fsets = {k: frozenset(k) for k in self.keys}
        self._subkeys: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self._covers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def subkeys_of(self, key) -> list[tuple[int, ...]]:
        """Keys of all subgroups contained in the given one."""
        cached = self._subkeys.get(key)
        if cached is None:
            fs = self._fsets[key]
            cached = [k for k in self.keys if len(k) <= len(key) and self._fsets[k] <= fs]
            self._subkeys[key] = cached
        return cached

    def covers_of(self, key) -> list[tuple[int, ...]]:
        """Minimal proper overgroups; extendability only needs these."""
        cached = self._covers.get(key)
        if cached is None:
            fs = self._fsets[key]
            supers = [k for k in self.keys if len(k) > len(key) and fs < self._fsets[k]]
            cached = [
                k for k in supers
                if not any(self._fsets[m] < self._fsets[k] for m in supers if len(m) < len(k))
            ]
            self._covers[key] = cached
        return cached

    def cyclic_keys(self) -> list[tuple[int, ...]]:
        G = self.ambient
        return [k for k in self.keys
                if any(G.closure([x]) == k for x in k)]


class FusionSystem:
    """A materialized fusion system: every morphism of every hom set."""

    def __init__(self, lattice: SubgroupLattice, generators: Sequence[Morphism]):
        self.lattice = lattice
        self.ambient = lattice.ambient
        self.generators = list(generators)
        self.atoms: list[Morphism] = []
        self.atom_provenance: list[tuple] = []
        # store[source_key][images] = provenance
        self.store: dict[tuple[int, ...], dict[tuple[int, ...], tuple]] = {}
        self._restriction_sets: dict[tuple, set] = {}
        self._homsets: dict[tuple, list[Morphism]] = {}
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        G = self.ambient
        full = tuple(range(G.order))
        if full not in self.lattice.by_key:
            raise ValueError("lattice must contain the full group")

        seen_atoms: dict[tuple, int] = {}
        for s in range(G.order):
            images = tuple(G.conj(s, x) for x in full)
            if (full, images) not in seen_atoms:
                seen_atoms[(full, images)] = len(self.atoms)
                self.atoms.append(Morphism(full, images))
                self.atom_provenance.append((INNER, s))
        self._n_inner = len(self.atoms)

        for gi, gen in enumerate(self.generators):
            self._check_generator(gen)
            inv = _invert(gen)
            for m, tag in ((gen, ("gen", gi, False)), (inv, ("gen", gi, True))):
                key = (m.source, m.images)
                if key not in seen_atoms:
                    seen_atoms[key] = len(self.atoms)
                    self.atoms.append(m)
                    self.atom_provenance.append(tag)

        # seeds: every restriction of every atom
        queue: deque[Morphism] = deque()
        for aid, atom in enumerate(self.atoms):
            amap = self.lattice.posmap[atom.source]
            for pkey in self.lattice.subkeys_of(atom.source):
                images = tuple(atom.images[amap[x]] for x in pkey)
                if self._add(pkey, images, (ATOM, aid)):
                    queue.append(Morphism(pkey, images))

        # closure: left-compose with full atoms
        inner = self.atoms[: self._n_inner]
        gen_atoms = [
            (aid, atom, self.lattice._fsets[atom.source])
            for aid, atom in enumerate(self.atoms)
            if aid >= self._n_inner
        ]
        max_gen_source = max((len(a.source) for _, a, _ in gen_atoms), default=0)
        while queue:
            m = queue.popleft()
            skey = m.source
            for aid in range(self._n_inner):
                atom = inner[aid]
                images = tuple(atom.images[x] for x in m.images)
                if self._add(skey, images, (COMPOSE, aid, m.images)):
                    queue.append(Morphism(skey, images))
            if len(m.source) <= max_gen_source:
                iset = frozenset(m.images)
                for aid, atom, src_set in gen_atoms:
                    if len(iset) <= len(src_set) and iset <= src_set:
                        amap = self.lattice.posmap[atom.source]
                        images = tuple(atom.images[amap[x]] for x in m.images)
                        if self._add(skey, images, (COMPOSE, aid, m.images)):
                            queue.append(Morphism(skey, images))

    def _add(self, source_key, images, provenance) -> bool:
        bucket = self.store.setdefault(source_key, {})
        if images in bucket:
            return False
        bucket[images] = provenance
        return True

    def _check_generator(self, m: Morphism) -> None:
        G = self.ambient
        if m.source not in self.lattice.by_key:
            raise ValueError("generator source is not an enumerated subgroup")
        if len(set(m.images)) != len(m.images):
            raise ValueError("generator is not injective")
        pos = self.lattice.posmap[m.source]
        for a in m.source:
            for b in m.source:
                ab = G.mul(a, b)
                if ab not in pos:
                    raise ValueError("generator source is not closed")
                if m.images[pos[ab]] != G.mul(m.images[pos[a]], m.images[pos[b]]):
                    raise ValueError("generator is not a homomorphism")
        tuple(sorted(m.images)) in self.lattice.by_key or _raise_image(m)

    # -- morphism arithmetic ----------------------------------------------------

    def compose(self, g: Morphism, m: Morphism) -> Morphism:
        pos = self.lattice.posmap[g.source]
        return Morphism(m.source, tuple(g.images[pos[x]] for x in m.images))

    # -- queries ------------------------------------------------------------------

    def hom_set(self, source_key) -> list[Morphism]:
        cached = self._homsets.get(source_key)
        if cached is None:
            bucket = self.store.get(source_key, {})
            cached = [Morphism(source_key, images) for images in sorted(bucket)]
            self._homsets[source_key] = cached
        return cached

    def aut(self, source_key) -> list[Morphism]:
        sset = frozenset(source_key)
        return [m for m in self.hom_set(source_key) if m.image_set == sset]

    def aut_S(self, source_key) -> list[Morphism]:
        """Automorphisms induced by ambient conjugation (the normalizer's image)."""
        G = self.ambient
        sub = self.lattice.by_key[source_key]
        seen = set()
        out = []
        for s in G.normalizer(sub).elements:
            images = tuple(G.conj(s, x) for x in source_key)
            if images not in seen:
                seen.add(images)
                out.append(Morphism(source_key, images))
        out.sort(key=lambda m: m.images)
        return out

    def contains(self, m: Morphism) -> bool:
        return m.images in self.store.get(m.source, {})

    def aut_group_table(self, source_key) -> tuple[FiniteGroup, list[Morphism]]:
        """Aut_F(P) as a table group (identity at index 0) plus element list."""
        morphs = self.aut(source_key)
        ident = Morphism(source_key, source_key)
        others = [m for m in morphs if m != ident]
        elems = [ident] + others
        index = {m.images: i for i, m in enumerate(elems)}
        table = [
            [index[self.compose(a, b).images] for b in elems]
            for a in elems
        ]
        return FiniteGroup(table), elems

    def out_classes(self, source_key=None) -> list[list[Morphism]]:
        """Aut_F(S) modulo inner automorphisms; each class sorted, classes
        ordered by least member, and the identity's class first."""
        if source_key is None:
            source_key = tuple(range(self.ambient.order))
        auts = self.aut(source_key)
        inner_images = {self.atoms[aid].images for aid in range(self._n_inner)}
        classes: list[list[Morphism]] = []
        assigned: dict[tuple, int] = {}
        for m in auts:
            if m.images in assigned:
                continue
            cls = []
            for inner in sorted(inner_images):
                images = tuple(inner[x] for x in m.images)
                if images not in assigned:
                    assigned[images] = len(classes)
                    cls.append(Morphism(source_key, images))
            cls.sort(key=lambda x: x.images)
            classes.append(cls)
        ident = Morphism(source_key, source_key)
        classes.sort(key=lambda c: (ident not in c, c[0].images))
        return classes

    # -- extendability ------------------------------------------------------------

    def _restrictions_onto(self, rkey, pkey) -> set:
        cached = self._restriction_sets.get((rkey, pkey))
        if cached is None:
            pos = self.lattice.posmap[rkey]
            idx = [pos[x] for x in pkey]
            cached = {tuple(images[i] for i in idx) for images in self.store.get(rkey, ())}
            self._restriction_sets[(rkey, pkey)] = cached
        return cached

    def is_nonextendable(self, m: Morphism) -> bool:
        """No extension to any strictly larger subgroup; covers suffice since
        an extension restricts to an extension on a minimal overgroup."""
        for rkey in self.lattice.covers_of(m.source):
            if m.images in self._restrictions_onto(rkey, m.source):
                return False
        return True

    def nonextendable_sources(self) -> dict[tuple[int, ...], Morphism]:
        """Sources carrying a nonextendable morphism, with a least witness each."""
        out = {}
        for skey in self.lattice.keys:
            for m in self.hom_set(skey):
                if self.is_nonextendable(m):
                    out[skey] = m
                    break
        return out

    def core_intersection(self) -> tuple[int, ...]:
        """Intersection of all sources of nonextendable morphisms."""
        sources = self.nonextendable_sources()
        common = set(range(self.ambient.order))
        for skey in sources:
            common &= set(skey)
        return tuple(sorted(common))

    def extension_core(self) -> tuple[int, ...]:
        """The largest subgroup N such that every stored morphism extends to
        its join with N, with the extension mapping N onto itself."""
        G = self.ambient
        lat = self.lattice
        for cand in sorted(lat.keys, key=lambda k: (-len(k), k)):
            cand_sub = lat.by_key[cand]
            cset = set(cand)
            ok = True
            for skey, bucket in self.store.items():
                join = G.join(lat.by_key[skey], cand_sub).elements
                jpos = lat.posmap[join]
                idx = [jpos[x] for x in skey]
                nidx = [jpos[x] for x in cand]
                extendable = {
                    tuple(big[i] for i in idx)
                    for big in self.store.get(join, ())
                    if {big[i] for i in nidx} == cset
                }
                if not all(images in extendable for images in bucket):
                    ok = False
                    break
            if ok:
                return cand
        return (0,)

    # -- the focal subgroup ---------------------------------------------------------

    def focal_subgroup(self) -> Subgroup:
        """Generated by phi(s) s^-1 over all cyclic sources <s> and all stored
        morphisms on them."""
        G = self.ambient
        gens = set()
        for ckey in self.lattice.cyclic_keys():
            singles = [x for x in ckey if G.closure([x]) == ckey]
            for m in self.hom_set(ckey):
                pos = self.lattice.posmap[ckey]
                for s in singles:
                    gens.add(G.mul(m.images[pos[s]], G.inv(s)))
        gens.discard(0)
        return G.subgroup(gens)

    # -- serialization -----------------------------------------------------------------

    def morphism_payload(self, m: Morphism) -> dict:
        sub = self.lattice.by_key[m.source]
        gens = sub.generators if sub.generators else ()
        pos = self.lattice.posmap[m.source]
        return {
            "source_generators": list(gens),
            "generator_images": [m.images[pos[g]] for g in gens],
        }

    def morphism_from_payload(self, payload: dict) -> Morphism:
        G = self.ambient
        gens = payload["source_generators"]
        images = payload["generator_images"]
        ok = isinstance(gens, list) and isinstance(images, list) and len(gens) == len(images)
        if not (ok and all(type(x) is int and 0 <= x < G.order for x in gens + images)):
            raise ValueError("payload needs equal-length lists of indices in [0, %d)" % G.order)
        skey = G.closure(gens)
        if skey not in self.lattice.by_key:
            raise ValueError("payload source is not an enumerated subgroup")
        words = _word_map(G, gens)
        table = {x: G.product(images[gi] for gi in w) for x, w in words.items()}
        return Morphism(skey, tuple(table[x] for x in skey))


def _invert(m: Morphism) -> Morphism:
    pairs = sorted(zip(m.images, m.source))
    return Morphism(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def _raise_image(m: Morphism):
    raise ValueError("generator image is not an enumerated subgroup")


def generate(
    ambient: FiniteGroup,
    subgroups: Sequence[Subgroup],
    generators: Sequence[Morphism],
) -> FusionSystem:
    """The fusion system on the ambient group generated by the given injective
    homomorphisms together with all conjugations."""
    lattice = SubgroupLattice(ambient, subgroups)
    return FusionSystem(lattice, generators)


def all_injective_homs(
    G: FiniteGroup,
    lattice: SubgroupLattice,
    source_key: tuple[int, ...],
) -> list[Morphism]:
    """Every injective homomorphism from the subgroup into the ambient group,
    sorted by images."""
    gens = list(lattice.by_key[source_key].generators)
    if G.closure(gens) != source_key:
        raise ValueError("subgroup record lacks a generating set")
    out = [
        Morphism(source_key, tuple(table[x] for x in source_key))
        for table in injective_homs(G, gens, G, range(G.order))
    ]
    out.sort(key=lambda m: m.images)
    return out
