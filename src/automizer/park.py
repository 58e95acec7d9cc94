"""Embedding the ambient group into a wreath product over a stable biset.

A stable biset decomposes as a right S-set into free orbits indexed by left
cosets of the orbit sources.  Left translation on chosen coset representatives
then embeds S into S wr Sigma_n, where n is the total slot count.  Conjugation
witnesses for fusion morphisms come from matching the point-stabilizer classes
of the plain and twisted restrictions of the biset, orbit by orbit; stability
of the biset guarantees the matching exists.

Wreath convention: (b; sigma)(c; tau) = (b . sigma(c); sigma tau), where
(sigma(c))_k = c at sigma^-1(k) and tops compose like functions.  Base arrays
are target indexed: base[k] is the factor applied at the slot a point lands
in, so an element acts by <t_j, y> -> <t_top[j], base[top[j]] y>.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from .biset import SemicharacteristicBiset, diagonal_orbit
from .fusion import FusionSystem, Morphism
from .grouprep import FiniteGroup, Subgroup
from .permcore import Permutation, word_parity


def _np_tables(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    cached = getattr(G, "_wreath_tables", None)
    if cached is None:
        mul = np.asarray(G.table, dtype=np.int32)
        inv = np.asarray([G.inv(x) for x in range(G.order)], dtype=np.int32)
        cached = (mul, inv)
        G._wreath_tables = cached
    return cached


class WreathElement:
    """An element (base; top) of S wr Sigma_n, base entries indexing into S."""

    __slots__ = ("group", "base", "top")

    def __init__(self, group: FiniteGroup, base, top, validate: bool = False):
        self.group = group
        self.base = np.ascontiguousarray(base, dtype=np.int32)
        self.top = np.ascontiguousarray(top, dtype=np.int32)
        if validate:
            if self.base.shape != self.top.shape or self.base.ndim != 1:
                raise ValueError("base and top must be equal-length vectors")
            n = len(self.top)
            if not np.array_equal(np.sort(self.top), np.arange(n)):
                raise ValueError("top is not a permutation word")
            if self.base.size and (self.base.min() < 0 or self.base.max() >= group.order):
                raise ValueError("base entry out of range")

    @classmethod
    def identity(cls, group: FiniteGroup, n: int) -> "WreathElement":
        return cls(group, np.zeros(n, dtype=np.int32), np.arange(n, dtype=np.int32))

    @property
    def n(self) -> int:
        return len(self.top)

    def top_perm(self) -> Permutation:
        return Permutation(tuple(int(i) for i in self.top))

    def is_identity(self) -> bool:
        return not self.base.any() and np.array_equal(self.top, np.arange(self.n))

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return wreath_multiply(self, other)

    def inverse(self) -> "WreathElement":
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

    def __repr__(self) -> str:
        return "WreathElement(n=%d, top=%s)" % (self.n, self.top_perm())


def wreath_multiply(a: WreathElement, b: WreathElement) -> WreathElement:
    if a.group is not b.group or a.n != b.n:
        raise ValueError("wreath elements live over different products")
    mul, _ = _np_tables(a.group)
    inv_top = np.empty_like(a.top)
    inv_top[a.top] = np.arange(a.n, dtype=np.int32)
    return WreathElement(a.group, mul[a.base, b.base[inv_top]], a.top[b.top])


def wreath_inverse(a: WreathElement) -> WreathElement:
    _, inv = _np_tables(a.group)
    inv_top = np.empty_like(a.top)
    inv_top[a.top] = np.arange(a.n, dtype=np.int32)
    return WreathElement(a.group, inv[a.base[a.top]], inv_top)


def gamma_prime_member(a: WreathElement, sprime, n: Optional[int] = None) -> bool:
    """Membership in the derived subgroup of S wr Sigma_n for n >= 5: the top
    must be even and the ordered product of the base must land in the derived
    subgroup of S (the order is immaterial modulo it)."""
    n = a.n if n is None else n
    if n < 5:
        raise ValueError("membership formula requires n >= 5, got %d" % n)
    if word_parity(a.top) != 0:
        return False
    G = a.group
    acc = 0
    for v in a.base:
        acc = G.mul(acc, int(v))
    members = sprime.element_set if isinstance(sprime, Subgroup) else set(sprime)
    return acc in members


class _RecordTables:
    """Per-orbit translation tables shared by all multiplicity copies."""

    __slots__ = ("reps", "coset_of", "n_slots", "sig", "kap", "phi")

    def __init__(self, G: FiniteGroup, source: tuple, images: tuple):
        order = G.order
        phi = np.full(order, -1, dtype=np.int32)
        for q, img in zip(source, images):
            phi[q] = img
        coset_of = np.full(order, -1, dtype=np.int32)
        reps = []
        for s in range(order):
            if coset_of[s] >= 0:
                continue
            j = len(reps)
            reps.append(s)
            for q in source:
                coset_of[G.mul(s, q)] = j
        n_slots = len(reps)
        sig = np.empty((order, n_slots), dtype=np.int32)
        kap = np.empty((order, n_slots), dtype=np.int32)
        for u in range(order):
            row_s = sig[u]
            row_k = kap[u]
            for j, t in enumerate(reps):
                k = int(coset_of[G.mul(u, t)])
                q = G.mul(G.mul(G.inv(reps[k]), u), t)
                row_s[j] = k
                row_k[k] = phi[q]
        assert (kap >= 0).all(), "coset translation left the orbit source"
        self.reps = tuple(reps)
        self.coset_of = coset_of
        self.n_slots = n_slots
        self.sig = sig
        self.kap = kap
        self.phi = phi


class ParkEmbedding:
    """The embedding of the ambient group into S wr Sigma_n over a biset."""

    def __init__(self, system: FusionSystem, X: SemicharacteristicBiset):
        G = system.ambient
        full = tuple(range(G.order))
        if not X.orbits or X.orbits[0].source != full or X.orbits[0].images != full:
            raise ValueError("biset must lead with the identity orbit on the full group")
        self.system = system
        self.G = G
        self.X = X
        self.records = [_RecordTables(G, rec.source, rec.images) for rec in X.orbits]
        self.blocks: list[tuple[int, int]] = []  # (record index, slot offset)
        offset = 0
        for ri, rec in enumerate(X.orbits):
            for _ in range(rec.multiplicity):
                self.blocks.append((ri, offset))
                offset += self.records[ri].n_slots
        self.n = offset
        if self.n != X.n:
            raise ValueError("slot count disagrees with the biset: %d vs %d" % (self.n, X.n))
        self._iota: dict[int, WreathElement] = {}
        self._plain_orbits: dict[tuple, list] = {}
        self._canon: dict[tuple, dict] = {}
        self._witnesses: dict[tuple, WreathElement] = {}

    # -- the embedding ----------------------------------------------------------

    def iota(self, u: int) -> WreathElement:
        cached = self._iota.get(u)
        if cached is not None:
            return cached
        if not 0 <= u < self.G.order:
            raise ValueError("element %r outside the ambient group" % (u,))
        base = np.empty(self.n, dtype=np.int32)
        top = np.empty(self.n, dtype=np.int32)
        for ri, off in self.blocks:
            tab = self.records[ri]
            top[off : off + tab.n_slots] = tab.sig[u] + off
            base[off : off + tab.n_slots] = tab.kap[u]
        el = WreathElement(self.G, base, top)
        self._iota[u] = el
        return el

    def top_trivial_set(self) -> list[int]:
        """Elements whose image lies in the base subgroup."""
        out = []
        for u in range(self.G.order):
            if all(
                (self.records[ri].sig[u] == np.arange(self.records[ri].n_slots)).all()
                for ri, _ in self.blocks
            ):
                out.append(u)
        return out

    def slot_tables(self) -> list[dict]:
        return [
            {
                "coset_representatives": list(tab.reps),
                "multiplicity": rec.multiplicity,
            }
            for tab, rec in zip(self.records, self.X.orbits)
        ]

    # -- witnesses --------------------------------------------------------------

    def _subgroup(self, skey: tuple) -> Subgroup:
        return self.system.lattice.by_key[skey]

    def _orbits_under(self, skey: tuple, action):
        """Slot orbits per block under p -> action(p), with transversal data:
        for each slot, a pair (p, kappa) with <t_slot, e> = p.<t_base, e>.kappa^-1
        in the action's sense."""
        G = self.G
        sub = self._subgroup(skey)
        gens = list(sub.generators) or []
        out = []
        for ri, off in self.blocks:
            tab = self.records[ri]
            seen = np.zeros(tab.n_slots, dtype=bool)
            for j0 in range(tab.n_slots):
                if seen[j0]:
                    continue
                trans = {j0: (0, 0)}
                seen[j0] = True
                queue = deque([j0])
                while queue:
                    j = queue.popleft()
                    p_j, k_j = trans[j]
                    for g in gens:
                        a = action(g)
                        j2 = int(tab.sig[a][j])
                        if not seen[j2]:
                            seen[j2] = True
                            trans[j2] = (G.mul(g, p_j), G.mul(int(tab.kap[a][j2]), k_j))
                            queue.append(j2)
                vee = []
                rho = []
                for p in sub.elements:
                    a = action(p)
                    if int(tab.sig[a][j0]) == j0:
                        vee.append(p)
                        rho.append(int(tab.kap[a][j0]))
                out.append(
                    {
                        "block": (ri, off),
                        "base_slot": j0,
                        "trans": trans,
                        "stab": Morphism(tuple(vee), tuple(rho)),
                    }
                )
        return out

    def _canonical(self, skey: tuple, d: Morphism) -> tuple[Morphism, tuple[int, int]]:
        """The least P x S conjugate of the stabilizer diagonal d, plus a pair
        (p, s) conjugating d onto it."""
        cache = self._canon.setdefault(skey, {})
        hit = cache.get(d)
        if hit is not None:
            return hit
        G = self.G
        sub = self._subgroup(skey)
        moves = [(g, 0) for g in sub.generators] + [(0, g) for g in G.minimal_generators()]
        conj = diagonal_orbit(G, d, moves)
        rep = min(conj)
        p_r, s_r = conj[rep]
        for member, (p_m, s_m) in conj.items():
            cache[member] = (rep, (G.mul(p_r, G.inv(p_m)), G.mul(s_r, G.inv(s_m))))
        return cache[d]

    def witness(self, phi: Morphism) -> WreathElement:
        """A wreath element conjugating iota(u) to iota(phi(u)) for all u in
        the source, built by matching stabilizer classes of slot orbits."""
        cached = self._witnesses.get((phi.source, phi.images))
        if cached is not None:
            return cached
        G = self.G
        skey = phi.source
        pos = self.system.lattice.posmap[skey]
        phi_map = {q: phi.images[pos[q]] for q in skey}

        plain = self._plain_orbits.get(skey)
        if plain is None:
            plain = self._orbits_under(skey, lambda p: p)
            self._plain_orbits[skey] = plain
        twisted = self._orbits_under(skey, lambda p: phi_map[p])

        def keyed(orbits):
            out = {}
            for orb in orbits:
                rep, conj = self._canonical(skey, orb["stab"])
                out.setdefault(rep, []).append((orb, conj))
            return out

        plain_by_rep = keyed(plain)
        twisted_by_rep = keyed(twisted)
        if {k: len(v) for k, v in plain_by_rep.items()} != {
            k: len(v) for k, v in twisted_by_rep.items()
        }:
            raise RuntimeError(
                "stabilizer classes of the plain and twisted restrictions differ; "
                "the biset is not stable for %r" % (phi,)
            )

        base = np.zeros(self.n, dtype=np.int32)
        top = np.full(self.n, -1, dtype=np.int32)
        for rep in sorted(plain_by_rep):
            for (o1, (p1, s1)), (o2, (p2, s2)) in zip(plain_by_rep[rep], twisted_by_rep[rep]):
                p0 = G.mul(G.inv(p1), p2)
                s0 = G.mul(G.inv(s1), s2)
                ri2, off2 = o2["block"]
                tab2 = self.records[ri2]
                j2 = o2["base_slot"]
                ri1, off1 = o1["block"]
                for k, (p_k, kap_k) in o1["trans"].items():
                    w = phi_map[G.mul(p_k, p0)]
                    j_t = int(tab2.sig[w][j2])
                    val = G.mul(G.mul(int(tab2.kap[w][j_t]), G.inv(s0)), G.inv(kap_k))
                    top[off1 + k] = off2 + j_t
                    base[off2 + j_t] = val
        el = WreathElement(self.G, base, top, validate=True)
        self._witnesses[(phi.source, phi.images)] = el
        return el

    def check_witness(self, phi: Morphism, g: WreathElement) -> bool:
        """The conjugation identity on every element of the source."""
        gi = g.inverse()
        for u, fu in zip(phi.source, phi.images):
            if g * self.iota(u) * gi != self.iota(fu):
                return False
        return True


def decompose(system: FusionSystem, X: SemicharacteristicBiset) -> ParkEmbedding:
    return ParkEmbedding(system, X)


def verify_embedding(pe: ParkEmbedding) -> tuple[bool, dict]:
    """Injective homomorphism check plus the base-intersection containment.

    The homomorphism check is exact at every order: iota(1) is the identity
    and iota(g u) = iota(g) iota(u) for every generator g and every u, which
    gives iota(a u) = iota(a) iota(u) by induction on the word length of a."""
    G = pe.G
    order = G.order
    ok_hom = pe.iota(0).is_identity() and all(
        pe.iota(g) * pe.iota(u) == pe.iota(G.mul(g, u))
        for g in G.minimal_generators()
        for u in range(order)
    )
    seen = {pe.iota(u) for u in range(order)}
    ok_inj = len(seen) == order
    trivial_top = pe.top_trivial_set()
    core = set(pe.system.core_intersection())
    ok_base = set(trivial_top) <= core
    report = {
        "homomorphism": ok_hom,
        "exhaustive": True,
        "injective": ok_inj,
        "top_trivial_elements": tuple(trivial_top),
        "core": tuple(sorted(core)),
        "base_intersection_in_core": ok_base,
    }
    return ok_hom and ok_inj and ok_base, report
