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

import itertools

import numpy as np

from .biset import DiagonalClasses, SemicharacteristicBiset, twist_row
from .fusion import FusionSystem, Morphism
from .grouprep import FiniteGroup, Subgroup
from .permcore import word_parity


class WreathElement:
    """An element (base; top) of S wr Sigma_n, base entries indexing into S.
    The library reads its arrays alone; the group arithmetic on them is the
    tests' reference (testkit.Wreath)."""

    __slots__ = ("group", "base", "top")

    def __init__(self, group: FiniteGroup, base, top):
        self.group = group
        self.base = np.ascontiguousarray(base, dtype=np.int32)
        self.top = np.ascontiguousarray(top, dtype=np.int32)

    @property
    def n(self) -> int:
        return len(self.top)

    def __repr__(self) -> str:
        return "WreathElement(n=%d, top=%s)" % (self.n, self.top)


def gamma_prime_member(a: WreathElement, sprime: Subgroup) -> bool:
    """Membership in the derived subgroup of S wr Sigma_n for n >= 5: the top
    must be even and the ordered product of the base must land in the derived
    subgroup of S (the order is immaterial modulo it)."""
    if a.n < 5:
        raise ValueError("membership formula requires n >= 5, got %d" % a.n)
    return word_parity(a.top) == 0 and a.group.product(a.base.tolist()) in sprime.element_set


class _RecordTables:
    """Per-orbit translation tables shared by all multiplicity copies: row u
    of sig and kap is iota(u) on the orbit's own slots, kap target indexed."""

    __slots__ = ("reps", "n_slots", "sig", "kap")

    def __init__(self, G: FiniteGroup, source: tuple, images: tuple):
        phi = twist_row(G, source, images)
        mul, inv = G.np_tables
        # each left coset s Q is named by its least element, and the cosets
        # are numbered in the order of those
        t, coset_of = np.unique(mul[:, list(source)].min(axis=1), return_inverse=True)
        coset_of = coset_of.astype(np.int32)
        # u t_j = t_k q with k = sig[u, j] and q in the source; kap[u, k] = phi(q)
        ut = mul[:, t]
        sig = coset_of[ut]
        kap = np.full_like(sig, -1)
        np.put_along_axis(kap, sig, phi[mul[inv[t[sig]], ut]], axis=1)
        assert (kap >= 0).all(), "coset translation left the orbit source"
        self.reps = tuple(t.tolist())
        self.n_slots = len(t)
        self.sig = sig
        self.kap = kap


class ParkEmbedding:
    """The embedding of the ambient group into S wr Sigma_n over a biset.

    Row u of the (|S|, n) arrays tops and bases is iota(u); every reader
    works on them by whole-array gathers."""

    def __init__(self, system: FusionSystem, X: SemicharacteristicBiset):
        G = system.ambient
        full = tuple(range(G.order))
        if not X.orbits or X.orbits[0].source != full or X.orbits[0].images != full:
            raise ValueError("biset must lead with the identity orbit on the full group")
        self.system = system
        self.G = G
        self.X = X
        self.records = [_RecordTables(G, rec.source, rec.images) for rec in X.orbits]
        self.n = sum(tab.n_slots * rec.multiplicity for tab, rec in zip(self.records, X.orbits))
        if self.n != X.n:
            raise ValueError("slot count disagrees with the biset: %d vs %d" % (self.n, X.n))
        self.tops = np.empty((G.order, self.n), dtype=np.int32)
        self.bases = np.empty((G.order, self.n), dtype=np.int32)
        offset = 0
        for tab, rec in zip(self.records, X.orbits):
            for _ in range(rec.multiplicity):
                self.tops[:, offset : offset + tab.n_slots] = tab.sig + offset
                self.bases[:, offset : offset + tab.n_slots] = tab.kap
                offset += tab.n_slots
        self._side: _Side | None = None
        self._s_moves = [(0, g) for g in G.minimal_generators()]

    # -- the embedding ----------------------------------------------------------

    def iota(self, u: int) -> WreathElement:
        if not 0 <= u < self.G.order:
            raise ValueError("element %r outside the ambient group" % (u,))
        return WreathElement(self.G, self.bases[u], self.tops[u])

    def top_trivial_set(self) -> list[int]:
        """Elements whose image lies in the base subgroup."""
        return np.flatnonzero((self.tops == np.arange(self.n)).all(axis=1)).tolist()

    def slot_tables(self) -> list[dict]:
        return [
            {
                "coset_representatives": list(tab.reps),
                "multiplicity": rec.multiplicity,
            }
            for tab, rec in zip(self.records, self.X.orbits)
        ]

    # -- witnesses --------------------------------------------------------------

    def _side_of(self, skey: tuple) -> _Side:
        """The record of the source P = skey, made anew for a new source."""
        if self._side is None or self._side.skey != skey:
            self._side = _Side(self, skey)
        return self._side

    def _diagonals(self, qkey: tuple) -> tuple:
        """The slot orbits of the subgroup Q = qkey, which depend on the set Q
        alone: per slot the least point j0 of its orbit; the orbits' least
        points, starts; per start the label of its class, classes numbered in
        first-met order; and per class the stabilizer diagonal as a row over
        qkey, the base iota(q) applies at the start where q fixes it and -1
        elsewhere."""
        T = self.tops[list(qkey)]
        B = self.bases[list(qkey)]
        slots = np.arange(self.n)
        j0 = T.min(axis=0)
        starts = np.flatnonzero(j0 == slots)
        cols = np.where(T[:, starts] == starts, B[:, starts], -1).T
        # equal rows by a stable lexsort: the head of each run of equal rows
        # is the least start with that diagonal, and the classes are
        # numbered in the order of their heads
        order = np.lexsort(cols.T)
        run = np.ones(len(order), dtype=bool)
        run[1:] = (cols[order[1:]] != cols[order[:-1]]).any(axis=1)
        heads = order[run]
        met = np.sort(heads)
        label = np.empty_like(order)
        label[order] = np.searchsorted(met, heads)[np.cumsum(run) - 1]
        return j0, starts, label, cols[met]

    def witness(self, phi: Morphism) -> WreathElement:
        """A wreath element conjugating iota(u) to iota(phi(u)) for all u in
        the source: the k-th plain orbit of each stabilizer class goes to the
        k-th twisted orbit of that class."""
        order = self.G.order
        mul, inv = (table.ravel() for table in self.G.np_tables)
        side = self._side_of(phi.source)
        # every index phi_map is read at is a product of elements of P
        phi_map = twist_row(self.G, phi.source, phi.images)
        o, p_row, inv_kap, conj1, by_cls1, sorted1, ids = side.plain(self)
        _, starts2, cls2, conj2 = side.classes(self, phi.images, dict(ids))
        by_cls2 = np.argsort(cls2, kind="stable")
        if not np.array_equal(sorted1, cls2.take(by_cls2)):
            raise RuntimeError(
                "stabilizer classes of the plain and twisted restrictions differ; "
                "the biset is not stable for %r" % (phi,)
            )
        partner = np.empty_like(by_cls1)
        partner[by_cls1] = by_cls2
        (p1, s1), (p2, s2) = conj1.T, conj2.take(partner, axis=0).T
        # products by take on the raveled tables: a b is mul[a |S| + b]
        p0 = mul.take(inv.take(p1) * order + p2)
        inv_s0 = inv.take(mul.take(inv.take(s1) * order + s2))
        w = phi_map.take(mul.take(p_row + p0.take(o)))
        row = w * np.intp(self.n)
        j_t = self.tops.ravel().take(row + starts2.take(partner).take(o))
        b = self.bases.ravel().take(row + j_t)
        base = np.zeros(self.n, dtype=np.int32)
        base[j_t] = mul.take(mul.take(b * order + inv_s0.take(o)) * order + inv_kap)
        return WreathElement(self.G, base, j_t)

    def _factors(self, elements: np.ndarray) -> np.ndarray:
        """Row per element u: the factor iota(u) applies to the point in each
        slot j, bases[u, tops[u, j]]."""
        return self.bases.ravel().take(self.tops[elements] + elements[:, np.newaxis] * self.n)

    def check_witness(self, phi: Morphism, g) -> bool:
        """The conjugation identity g iota(u) g^-1 = iota(phi(u)) on every
        element u of the source P, checked on the generators of P alone.  Of
        g it reads the arrays top and base, once each.

        Both sides are homomorphisms on P: iota is one (verify_embedding
        proves it before any witness is checked), and so is phi
        (FusionSystem._check_generator proves it of every generator of the
        system).  So the u where they agree form a subgroup, and agreement
        on the generators of P is agreement on all of P.

        The identity is checked as g iota(u) = iota(phi(u)) g for all those
        u at once.  With g = (b; sigma), iota(u) = (c; t) and
        iota(phi(u)) = (c'; t'), the tops must agree, sigma t = t' sigma; then
        the slot sigma(t(j)) = t'(sigma(j)) carries b[sigma(t(j))] c[t(j)] on
        the left and c'[t'(sigma(j))] b[sigma(j)] on the right, and as j runs
        over the slots so does that slot."""
        order = self.G.order
        mul = self.G.np_tables[0].ravel()
        t, factors = self._side_of(phi.source).check
        img = np.array(self.system.lattice.on_generators(phi)[1], dtype=np.intp)
        sigma = g.top
        if not np.array_equal(sigma.take(t), self.tops[img].take(sigma, axis=1)):
            return False
        bs = g.base.take(sigma)
        left = mul.take(bs.take(t) * order + factors)
        right = mul.take(self._factors(img).take(sigma, axis=1) * order + bs)
        return np.array_equal(left, right)


class _Side:
    """What the embedding keeps for one source P = skey, until another source
    takes its place.  check holds the tops of iota on the generators of P and
    their factors, all check_witness reads.  The P x S classes, the answers
    by diagonal row, the slot orbits by image set and the plain side fill as
    witnesses ask.  The record keeps no link to the embedding: its methods
    are handed it.  A rebuilt record gives the same witnesses: every class a
    witness meets is met first on the plain side, built first on each visit."""

    def __init__(self, pe: ParkEmbedding, skey: tuple):
        G, gens = pe.G, pe.system.lattice.by_key[skey].generators
        src = np.array(gens, dtype=np.intp)
        self.skey = skey
        self.check = pe.tops[src], pe._factors(src)
        # a generator central in P fixes every diagonal with source in P, so
        # its move is left out
        moves = [(g, 0) for g in gens if any(G.mul(g, h) != G.mul(h, g) for h in gens)]
        self.pxs = DiagonalClasses(G, moves + pe._s_moves)
        self.rows: dict[tuple, tuple] = {}  # diagonal row -> (class rep, pair)
        self.orbits: dict[tuple, tuple] = {}  # image set -> _diagonals
        self.plain_tables: tuple | None = None

    def classes(self, pe: ParkEmbedding, acts, ids: dict) -> tuple:
        """Slot orbits in pe of P acting through acts (aligned with skey).
        They are the orbits of the set Q of acts, so they come from
        pe._diagonals(Q), with each diagonal's columns moved from Q's order
        to the order of acts.  Returns j0 and starts as there, and per start the
        id in ids of the P x S class of its stabilizer diagonal and the pair
        conjugating the diagonal onto the class's least member."""
        qkey = tuple(sorted(acts))
        if qkey not in self.orbits:
            self.orbits[qkey] = pe._diagonals(qkey)
        j0, starts, label, rows = self.orbits[qkey]
        rows = rows[:, np.searchsorted(qkey, acts)]
        # first-met order: the classes keep the conjugators of the first
        # diagonal queried in each, and those fix the witness bases.  A row
        # met before is answered from its tuple
        hits = []
        for row in map(tuple, rows.tolist()):
            hit = self.rows.get(row)
            if hit is None:
                d = Morphism(*zip(*[(p, q) for p, q in zip(self.skey, row) if q >= 0]))
                hit = self.rows[row] = self.pxs[d][:2]
            hits.append(hit)
        # ids in the narrowest type that holds them: a stable argsort of
        # 16-bit or narrower ids is a radix sort
        cls = np.array([ids.setdefault(rep, len(ids)) for rep, _ in hits])
        cls = cls.astype(np.min_scalar_type(len(ids)))
        conj = np.array([pair for _, pair in hits], dtype=np.intp).reshape(len(hits), 2)
        return j0, starts, cls.take(label), conj.take(label, axis=0)

    def plain(self, pe: ParkEmbedding) -> tuple:
        """The plain restriction to P in pe, built once.  Per slot k: its
        orbit o, the transversal p_k, the least element of P moving the
        orbit's least point onto k, as the flat table index p_k |S|, and the
        inverse of kappa_k, the base of iota(p_k) at k.  Per orbit: its class id and
        conjugating pair, as in classes, and the orbits in the stable order
        of their class ids, with the ids in that order.  And the class ids
        met, which a witness copies before the twisted side adds to them."""
        if self.plain_tables is not None:
            return self.plain_tables
        skey, ids = self.skey, {}
        j0, starts, cls, conj = self.classes(pe, skey, ids)
        slots = np.arange(pe.n)
        trans = (pe.tops[list(skey)][:, j0] == slots).argmax(axis=0)
        p_k = np.asarray(skey, dtype=np.intp)[trans]
        o = np.searchsorted(starts, j0)
        inv_kap = pe.G.np_tables[1].take(pe.bases.ravel().take(p_k * pe.n + slots))
        by_cls = np.argsort(cls, kind="stable")
        self.plain_tables = o, p_k * pe.G.order, inv_kap, conj, by_cls, cls.take(by_cls), ids
        return self.plain_tables


def decompose(system: FusionSystem, X: SemicharacteristicBiset) -> ParkEmbedding:
    return ParkEmbedding(system, X)


def verify_embedding(pe: ParkEmbedding) -> tuple[bool, dict]:
    """Injective homomorphism check plus the base-intersection containment,
    on the rows of tops and bases, one row at a time.

    The homomorphism check is exact at every order: iota(1) is the identity
    and iota(g u) = iota(g) iota(u) for every generator g and every u, which
    gives iota(a u) = iota(a) iota(u) by induction on the word length of a.
    With iota(g) = (a; alpha) and iota(u) = (b; beta), the product is
    (a . alpha(b); alpha beta); read at the slot alpha(j), its base is
    a[alpha(j)] b[j].  Injective means the rows (top, base) are distinct."""
    G = pe.G
    order = G.order
    mul = G.np_tables[0].ravel()
    tops, bases = pe.tops, pe.bases

    def product_is_row(g: int, u: int) -> bool:
        alpha, gu = tops[g], G.mul(g, u)
        return np.array_equal(alpha.take(tops[u]), tops[gu]) and np.array_equal(
            mul.take(bases[g].take(alpha) * order + bases[u]), bases[gu].take(alpha)
        )

    ok_hom = np.array_equal(tops[0], np.arange(pe.n)) and not bases[0].any() and all(
        product_is_row(g, u) for g in G.minimal_generators() for u in range(order)
    )
    # rows are compared whole only where the hashes of their bytes agree
    by_hash: dict[int, list[int]] = {}
    for u in range(order):
        by_hash.setdefault(hash((tops[u].tobytes(), bases[u].tobytes())), []).append(u)
    ok_inj = not any(
        np.array_equal(tops[u], tops[v]) and np.array_equal(bases[u], bases[v])
        for rows in by_hash.values()
        for u, v in itertools.combinations(rows, 2)
    )
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
