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
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple, Sequence

from .grouprep import FiniteGroup, Subgroup, _word_map


class Morphism(NamedTuple):
    source: tuple[int, ...]   # sorted element indices
    images: tuple[int, ...]   # aligned with source

    @property
    def image_set(self) -> frozenset:
        return frozenset(self.images)


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
        fs = self._fsets[key]
        supers = [k for k in self.keys if len(k) > len(key) and fs < self._fsets[k]]
        return [
            k for k in supers
            if not any(self._fsets[m] < self._fsets[k] for m in supers if len(m) < len(k))
        ]

    def on_generators(self, m: Morphism) -> tuple[tuple[int, ...], list[int]]:
        """The generators of the morphism's source and their images."""
        gens = self.by_key[m.source].generators
        pos = self.posmap[m.source]
        return gens, [m.images[pos[g]] for g in gens]


class FusionSystem:
    """A materialized fusion system: every morphism of every hom set."""

    def __init__(self, lattice: SubgroupLattice, generators: Sequence[Morphism]):
        self.lattice = lattice
        self.ambient = lattice.ambient
        self.generators = list(generators)
        # store[source_key] = the image tuples of the hom set
        self.store: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        self._homsets: dict[tuple, list[Morphism]] = {}
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        full = tuple(range(self.ambient.order))
        if full not in self.lattice.by_key:
            raise ValueError("lattice must contain the full group")

        # Inn(S), one image tuple per inner automorphism
        self.inner = inner = [m.images for m in self.aut_S(full)]
        # the atoms, deduplicated in order: inner maps, then each generator
        # and its inverse
        atoms = dict.fromkeys(Morphism(full, images) for images in inner)
        for gen in self.generators:
            self._check_generator(gen)
            atoms.update(dict.fromkeys((gen, _invert(gen))))

        # seeds: every restriction of every atom
        queue: deque[Morphism] = deque()
        for atom in atoms:
            amap = self.lattice.posmap[atom.source]
            for pkey in self.lattice.subkeys_of(atom.source):
                images = tuple(atom.images[amap[x]] for x in pkey)
                if self._add(pkey, images):
                    queue.append(Morphism(pkey, images))

        # closure: left-compose with full atoms.  A composite reads a
        # generator atom on the image set alone, so per image set the
        # distinct restrictions of the atoms that apply are listed once, in
        # first-met order: a repeated one would only make stored composites
        gen_atoms = list(atoms)[len(inner):]
        max_gen_source = max((len(a.source) for a in gen_atoms), default=0)
        fitting: dict[frozenset, list[dict]] = {}
        while queue:
            m = queue.popleft()
            skey = m.source
            for conj in inner:
                images = tuple(conj[x] for x in m.images)
                if self._add(skey, images):
                    queue.append(Morphism(skey, images))
            if len(m.source) <= max_gen_source:
                iset = frozenset(m.images)
                fits = fitting.get(iset)
                if fits is None:
                    keys = sorted(iset)
                    restrictions = dict.fromkeys(
                        tuple(atom.images[self.lattice.posmap[atom.source][x]] for x in keys)
                        for atom in gen_atoms
                        if iset <= self.lattice._fsets[atom.source]
                    )
                    fits = fitting[iset] = [dict(zip(keys, r)) for r in restrictions]
                for fit in fits:
                    images = tuple(fit[x] for x in m.images)
                    if self._add(skey, images):
                        queue.append(Morphism(skey, images))

    def _add(self, source_key, images) -> bool:
        bucket = self.store.setdefault(source_key, set())
        if images in bucket:
            return False
        bucket.add(images)
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
        if tuple(sorted(m.images)) not in self.lattice.by_key:
            raise ValueError("generator image is not an enumerated subgroup")

    # -- morphism arithmetic ----------------------------------------------------

    def compose(self, g: Morphism, m: Morphism) -> Morphism:
        pos = self.lattice.posmap[g.source]
        return Morphism(m.source, tuple(g.images[pos[x]] for x in m.images))

    # -- queries ------------------------------------------------------------------

    def hom_set(self, source_key) -> list[Morphism]:
        cached = self._homsets.get(source_key)
        if cached is None:
            bucket = self.store.get(source_key, ())
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
        return m.images in self.store.get(m.source, ())

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

    # -- extendability ------------------------------------------------------------

    @cached_property
    def nonextendable(self) -> dict[tuple[int, ...], list[Morphism]]:
        """Each source carrying a stored morphism with no extension to any
        strictly larger subgroup, in lattice order, with those morphisms in
        hom-set order.  Covers suffice, since an extension restricts to an
        extension on a minimal overgroup."""
        out = {}
        for skey in self.lattice.keys:
            extendable = set()
            for rkey in self.lattice.covers_of(skey):
                pos = self.lattice.posmap[rkey]
                idx = [pos[x] for x in skey]
                extendable.update(tuple(images[i] for i in idx) for images in self.store.get(rkey, ()))
            found = [m for m in self.hom_set(skey) if m.images not in extendable]
            if found:
                out[skey] = found
        return out

    @cached_property
    def core_intersection(self) -> tuple[int, ...]:
        """Intersection of all sources of nonextendable morphisms."""
        return tuple(sorted(set(range(self.ambient.order)).intersection(*self.nonextendable)))

    def extension_core(self) -> tuple[int, ...]:
        """The largest subgroup N such that every stored morphism extends to
        its join with N, with the extension mapping N onto itself."""
        G = self.ambient
        lat = self.lattice
        for cand in by_decreasing_order(lat.keys):
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
        for ckey in self.lattice.keys:
            singles = [x for x in ckey if G.closure([x]) == ckey]
            pos = self.lattice.posmap[ckey]
            for m in self.hom_set(ckey):
                for s in singles:
                    gens.add(G.mul(m.images[pos[s]], G.inv(s)))
        gens.discard(0)
        return G.subgroup(gens)

    # -- serialization -----------------------------------------------------------------

    def morphism_payload(self, m: Morphism) -> dict:
        gens, images = self.lattice.on_generators(m)
        return {"source_generators": list(gens), "generator_images": images}

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


def by_decreasing_order(keys: Sequence[tuple]) -> list[tuple]:
    """Subgroup keys, largest first, equal orders by key."""
    return sorted(keys, key=lambda k: (-len(k), k))


def _invert(m: Morphism) -> Morphism:
    pairs = sorted(zip(m.images, m.source))
    return Morphism(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def generate(
    ambient: FiniteGroup,
    subgroups: Sequence[Subgroup],
    generators: Sequence[Morphism],
) -> FusionSystem:
    """The fusion system on the ambient group generated by the given injective
    homomorphisms together with all conjugations."""
    lattice = SubgroupLattice(ambient, subgroups)
    return FusionSystem(lattice, generators)

