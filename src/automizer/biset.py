"""Semicharacteristic bisets over a fusion system, built by mark equalization.

A transitive biset for the ambient group S is encoded by a twisted diagonal
Delta(Q, gamma) = {(u, gamma(u))} <= S x S; the biset itself is the coset
space (S x S)/Delta.  A virtual sum of such orbits is fixed-point stable for
the fusion system exactly when its mark vector is constant on the orbits of
the system acting on injective twisted diagonals (source side by fusion
morphisms, target side by inner maps).  The builder starts from one full
orbit per outer class of Aut_F(S), walks the remaining diagonal classes in
decreasing source order, and pads each class with nonnegative corrections
until its marks agree; a final common multiple clears denominators.

The mark of (S x S)/Delta(Q, gamma) at Delta(P, phi) is computed by the
transporter formula: sum over x with x^-1 P x <= Q of the number of y with
c_y . gamma . c_{x^-1} = phi on P, all divided by |Q|.  Generator level
checks suffice since both sides are homomorphisms on P.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .grouprep import FiniteGroup, ScaleError, injective_homs, injective_images
from .fusion import FusionSystem, Morphism


Diagonal = Morphism  # a twisted diagonal is stored exactly like a morphism


class OrbitRecord(NamedTuple):
    """One transitive summand (S x S)/Delta(source, images), with multiplicity."""

    source: tuple[int, ...]
    images: tuple[int, ...]
    multiplicity: int


@dataclass
class SemicharacteristicBiset:
    orbits: list[OrbitRecord]
    m: int          # the multiplier that cleared all denominators
    n: int          # total number of right cosets = slots of the embedding


def diagonal_orbit(
    G: FiniteGroup, d: Diagonal, moves: Sequence[tuple[int, int]]
) -> dict[Diagonal, tuple[int, int]]:
    """Every conjugate of the diagonal under the pairs the moves generate, by
    BFS in move order, each with a pair (x, y) that moves d onto it.  A move
    sends (P, phi) to (x P x^-1, c_y phi c_x^-1), read on the rows cx and cy
    of np_conj (FiniteGroup.conj_row).  With x = 0 the source stays as it is;
    otherwise the moved source is sorted once per (x, source), and the images
    are read in that order."""
    rows = [(x, y, G.conj_row(x), G.conj_row(y)) for x, y in moves]
    sorts: dict[tuple, tuple] = {}
    conj = {d: (0, 0)}
    queue = deque([d])
    while queue:
        cur = queue.popleft()
        px, sx = conj[cur]
        source, images = cur
        for x, y, cx, cy in rows:
            if x:
                moved = sorts.get((x, source))
                if moved is None:
                    at = [cx[p] for p in source]
                    order = sorted(range(len(at)), key=at.__getitem__)
                    moved = sorts[x, source] = (tuple([at[i] for i in order]), order)
                nxt = (moved[0], tuple([cy[images[i]] for i in moved[1]]))
            else:
                nxt = (source, tuple([cy[q] for q in images]))
            # a plain pair hashes and compares like the Diagonal it names
            if nxt not in conj:
                nxt = Diagonal(*nxt)
                conj[nxt] = (G.mul(x, px), G.mul(y, sx))
                queue.append(nxt)
    return conj


class DiagonalClasses(dict):
    """The classes of diagonals under the pairs a move list generates, one
    diagonal_orbit BFS per class from the first member asked for.  Each member
    maps to the least member of its class, a pair (x, y) moving the member
    onto it, and the class size."""

    def __init__(self, G: FiniteGroup, moves: Sequence[tuple[int, int]]):
        super().__init__()
        self.G, self.moves = G, moves

    def __missing__(self, d: Diagonal) -> tuple[Diagonal, tuple[int, int], int]:
        G = self.G
        orbit = diagonal_orbit(G, d, self.moves)
        rep = min(orbit)
        p_r, s_r = orbit[rep]
        for member, (p_m, s_m) in orbit.items():
            self[member] = (rep, (G.mul(p_r, G.inv(p_m)), G.mul(s_r, G.inv(s_m))), len(orbit))
        return self[d]


def twist_row(G: FiniteGroup, source: Sequence[int], images: Sequence[int]) -> np.ndarray:
    """A morphism as a row over G: its images on the source, -1 elsewhere."""
    row = np.full(G.order, -1, dtype=np.int32)
    row[list(source)] = images
    return row


def by_decreasing_order(keys: Sequence[tuple]) -> list[tuple]:
    """Subgroup keys, largest first, equal orders by key."""
    return sorted(keys, key=lambda k: (-len(k), k))


class DiagonalContext:
    """Shared caches for diagonal classification and mark computation."""

    def __init__(self, system: FusionSystem):
        self.system = system
        self.G = system.ambient
        self.lattice = system.lattice
        gens = self.G.minimal_generators()
        self.sxs = DiagonalClasses(self.G, [(g, 0) for g in gens] + [(0, g) for g in gens])
        self._inner = np.array(system.inner)
        self._gammas: tuple[list, np.ndarray] = ([], np.empty((0, self.G.order), dtype=np.int32))

    # -- conjugacy ------------------------------------------------------------

    def fprime_orbit(self, d: Diagonal) -> list[Diagonal]:
        """The orbit of the diagonal under the product action: fusion morphisms
        on the source, inner maps on the target.  One pass suffices because the
        moves compose back into the same shape.  Inn(S) is taken by its
        distinct maps, not by the elements inducing them."""
        out = set()
        for psi in self.system.hom_set(d.source):
            pairs = sorted(zip(psi.images, d.images))
            new_source = tuple(q for q, _ in pairs)
            rows = self._inner[:, [b for _, b in pairs]].tolist()
            out.update(Diagonal(new_source, tuple(row)) for row in rows)
        return sorted(out)

    @cached_property
    def fusion_classes(self) -> list[tuple[Diagonal, list[Diagonal]]]:
        """The classes of the stored fusion morphisms under the product
        action, walked once, sources in decreasing order: per class, the first
        diagonal met and the sorted least members of the S x S classes it
        meets."""
        out, assigned = [], set()
        for skey in by_decreasing_order(self.lattice.keys):
            for d in self.system.hom_set(skey):
                if d not in assigned:
                    members = self.fprime_orbit(d)
                    assigned.update(members)
                    out.append((d, sorted({self.sxs[m][0] for m in members})))
        return out

    def normalizer_index(self, d: Diagonal) -> int:
        """|N_{SxS}(Delta)/Delta|, by orbit-stabilizer: |S|^2 / (|class| |P|)."""
        return self.G.order ** 2 // (self.sxs[d][2] * len(d.source))

    # -- marks ------------------------------------------------------------------

    def _gamma(self, orbits: Sequence[tuple[tuple, tuple]]) -> np.ndarray:
        """The twist rows of the orbits as one matrix.  The matrix of the last
        orbit list is kept, and grown when a list extends it, as the
        builder's terms do."""
        known, gamma = self._gammas
        if list(orbits[: len(known)]) != known:
            known, gamma = [], gamma[:0]
        if len(orbits) != len(known):
            new = [twist_row(self.G, q, g) for q, g in orbits[len(known):]]
            gamma = np.concatenate([gamma, np.reshape(new, (len(new), self.G.order))])
        self._gammas = (list(orbits), gamma)
        return gamma

    def orbit_marks(
        self, orbits: Sequence[tuple[tuple, tuple]], ds: Sequence[Diagonal]
    ) -> np.ndarray:
        """Fixed points of each Delta(P, phi) in ds on each (S x S)/Delta(Q,
        gamma), for the (Q, gamma) in orbits, one row per diagonal: the number
        of pairs (x, y) with x^-1 P x <= Q and c_y . gamma . c_{x^-1} = phi on
        the generators of P, over |Q|.  All but phi depends on P alone, so the
        diagonals are taken source by source, with one gather per source."""
        cj = self.G.np_conj
        _, inv = self.G.np_tables
        gamma = self._gamma(orbits)
        by_source: dict[tuple, list[int]] = {}
        for k, d in enumerate(ds):
            by_source.setdefault(d.source, []).append(k)
        total = np.empty((len(ds), len(orbits)), dtype=np.int64)
        for source, at in by_source.items():
            gens = np.array(self.lattice.by_key[source].generators, dtype=np.intp)
            # theta[o, x, i] = gamma_o(x^-1 g_i x), -1 unless x^-1 g_i x lies in Q_o
            theta = gamma[:, cj[inv[:, np.newaxis], gens]]
            orbit, x = np.nonzero((theta >= 0).all(axis=2))
            # moved[i][y, j]: c_y of the j-th theta at generator i
            moved = [cj[:, col] for col in theta[orbit, x].T]
            for k in at:
                hit = np.ones((self.G.order, len(orbit)), dtype=bool)
                for col, p in zip(moved, self.lattice.on_generators(ds[k])[1]):
                    hit &= col == p
                total[k] = np.bincount(orbit[np.nonzero(hit)[1]], minlength=len(orbits))
        qorder = np.array([len(q) for q, _ in orbits])
        assert not (total % qorder).any(), "mark formula must divide by |Q|"
        return total // qorder

    def marks(self, terms: Sequence[tuple], ds: Sequence[Diagonal]) -> list:
        """The mark at each diagonal of ds of the sum of the orbits (source,
        images) with the given weights; a biset's orbit records are such
        triples."""
        table = self.orbit_marks([(source, images) for source, images, _ in terms], ds)
        weights = [weight for _, _, weight in terms]
        return [sum(w * mark for w, mark in zip(weights, row) if mark) for row in table.tolist()]


def outer_class_representatives(system: FusionSystem) -> list[Morphism]:
    """The least member of each coset Inn(S) alpha in Aut_F(S), sorted; the
    identity is the least automorphism, so it comes first."""
    full = tuple(range(system.ambient.order))
    return sorted({
        min(Morphism(full, tuple(c[x] for x in alpha.images)) for c in system.inner)
        for alpha in system.aut(full)
    })


def build_semicharacteristic(
    system: FusionSystem, context: DiagonalContext, max_n: int = 10 ** 6
) -> SemicharacteristicBiset:
    """Mark equalization over the diagonal classes, in decreasing source order.

    Processing order is a valid linearization: the class removed at each step
    is maximal among the remaining ones because equal-order sources cannot
    contain each other, and correcting it only adds orbits whose marks vanish
    on every other same-size class and on all smaller ones."""
    G = system.ambient
    full = tuple(range(G.order))

    terms: list[tuple[tuple, tuple, Fraction]] = []
    for rep in outer_class_representatives(system):
        terms.append((full, rep.images, Fraction(1)))

    for d, reps in context.fusion_classes:
        if d.source == full:
            continue
        marks = dict(zip(reps, context.marks(terms, reps)))
        peak = max(marks.values())
        for rep in reps:
            gap = peak - marks[rep]
            assert gap >= 0
            if gap:
                coeff = gap / context.normalizer_index(rep)
                terms.append((rep.source, rep.images, coeff))

    m = 1
    for _, _, coeff in terms:
        m = math.lcm(m, coeff.denominator)
    orbits = []
    n = 0
    for source, images, coeff in terms:
        mult = coeff * m
        assert mult.denominator == 1 and mult > 0
        mult = int(mult)
        orbits.append(OrbitRecord(source, images, mult))
        n += mult * (G.order // len(source))
        if n > max_n:
            raise ScaleError("max_n", max_n, n)
    return SemicharacteristicBiset(orbits, m, n)


def _foreign_twist(system: FusionSystem, X: SemicharacteristicBiset) -> Optional[str]:
    """Why some orbit twist is not a stored fusion morphism, or None."""
    for rec in X.orbits:
        if not system.contains(Diagonal(rec.source, rec.images)):
            return "orbit twist %r is not a fusion morphism" % ((rec.source, rec.images),)
    return None


def verify_generated(system: FusionSystem, X: SemicharacteristicBiset) -> tuple[bool, dict]:
    """Orbit 0 must be the identity orbit on the full group with multiplicity
    m, every twist must be a stored fusion morphism, and the slot count must
    match."""
    G = system.ambient
    full = tuple(range(G.order))
    report = {"orbit_count": len(X.orbits)}
    if not X.orbits or X.orbits[0].source != full or X.orbits[0].images != full:
        report["failure"] = "leading orbit is not the identity orbit"
        return False, report
    # the equalizer seeds the identity orbit with weight 1, so its recorded
    # multiplicity is exactly the denominator-clearing multiplier
    if X.orbits[0].multiplicity != X.m:
        report["failure"] = "multiplier disagrees with the leading orbit"
        return False, report
    if any(rec.multiplicity < 1 for rec in X.orbits):
        report["failure"] = "orbit with nonpositive multiplicity"
        return False, report
    foreign = _foreign_twist(system, X)
    if foreign:
        report["failure"] = foreign
        return False, report
    n = sum(rec.multiplicity * (G.order // len(rec.source)) for rec in X.orbits)
    if n != X.n:
        report["failure"] = "slot count mismatch: %d recorded, %d recomputed" % (X.n, n)
        return False, report
    return True, report


def _moved_rows(
    system: FusionSystem, skey: tuple, rows: np.ndarray, cols: Sequence[int]
) -> Iterator[np.ndarray]:
    """Per element (alpha, c) of Aut_F(R) x Inn(S), for R the source of the
    rows of Inj(R, S): the rows moved by phi -> c . phi . alpha, read at the
    columns, one array row per column."""
    pos = system.lattice.posmap[skey]
    inner = np.array(system.inner)
    for alpha in system.aut(skey):
        at = rows.T[[pos[alpha.images[c]] for c in cols]]
        for conj in inner:
            yield conj.take(at)


def injective_class_counts(system: FusionSystem) -> Iterator[tuple[tuple, int]]:
    """The number of classes of injective twisted diagonals under the product
    action, per F-class of subgroups in decreasing order, with its first
    subgroup R.  Every class with a source F-conjugate to R meets Inj(R, S)
    in exactly one orbit of Aut_F(R) x Inn(S), so by Burnside's lemma the
    count is the mean number of rows an element of that group fixes.  A
    homomorphism is fixed by its generator images, so only those columns are
    compared.  A count needs no row order, so Inj(R, S) is taken unsorted."""
    G = system.ambient
    lat = system.lattice
    met: set[tuple] = set()
    for skey in by_decreasing_order(lat.keys):
        if skey in met:
            continue
        met.update(tuple(sorted(psi.images)) for psi in system.hom_set(skey))
        sub = lat.by_key[skey]
        rows = injective_homs(G, sub.generators, G, range(G.order))
        gcols = [lat.posmap[skey][g] for g in sub.generators]
        fixed = rows.T[gcols]
        fixes = [
            int(np.count_nonzero((moved == fixed).all(axis=0)))
            for moved in _moved_rows(system, skey, rows, gcols)
        ]
        assert sum(fixes) % len(fixes) == 0, "Burnside's count must divide by the group order"
        yield skey, sum(fixes) // len(fixes)


def classes_before(system: FusionSystem, d: Diagonal) -> int:
    """The classes met on Inj(R, S), R the source of d, before the row of d:
    the rows before it that no element of Aut_F(R) x Inn(S) moves to a
    smaller row.  Rows are sorted by images, so smaller is lexicographic."""
    G = system.ambient
    rows = injective_images(G, system.lattice.by_key[d.source], range(G.order))
    head = rows[: np.flatnonzero((rows == d.images).all(axis=1))[0]]
    least = np.ones(len(head), dtype=bool)
    at = np.arange(len(head))
    for moved in _moved_rows(system, d.source, head, range(len(d.source))):
        first = (moved != head.T).argmax(axis=0)
        least &= moved[first, at] >= head[at, first]
    return int(np.count_nonzero(least))


def verify_stability(
    system: FusionSystem, X: SemicharacteristicBiset, context: DiagonalContext
) -> tuple[bool, dict]:
    """Marks must be constant on every class of injective twisted diagonals
    under the product action (fusion morphisms on the source, inner maps on
    the target): the exact stability criterion.

    Precondition, checked first: every orbit twist is a stored fusion
    morphism.  Then only classes whose twist lies in F are compared.  By the
    transporter formula, (S x S)/Delta(Q, gamma) has a point fixed by
    Delta(P, phi) only if phi = c_y . gamma . c_{x^-1} on P, a map in F when
    gamma is; and a class whose twist is outside F has no member in F.  So
    every orbit has mark 0 on such a class.  Every class is still counted,
    by Burnside's lemma; marks are compared on the context's one fusion-class
    walk, and a failure reports how many classes that walk's order met before
    it."""
    foreign = _foreign_twist(system, X)
    if foreign:
        return False, {"failure": foreign, "checked_classes": 0}
    earlier: dict[tuple, int] = {}
    checked_classes = 0
    for skey, count in injective_class_counts(system):
        earlier[skey] = checked_classes
        checked_classes += count
    walk = context.fusion_classes
    all_marks = iter(context.marks(X.orbits, [rep for _, reps in walk for rep in reps]))
    for d, reps in walk:
        marks = [next(all_marks) for _ in reps]
        if len(set(marks)) > 1:
            # d is the least row of its class, and its source is the first
            # subgroup of its F-class
            return False, {
                "failure": "marks differ on one diagonal class",
                "class_source": d.source,
                "witness": [(r.source, r.images, mk) for r, mk in zip(reps, marks)],
                "checked_classes": earlier[d.source] + classes_before(system, d),
            }
    return True, {"checked_classes": checked_classes, "level": "full"}


def check_orbit_predictions(
    system: FusionSystem, X: SemicharacteristicBiset, context: DiagonalContext
) -> tuple[bool, dict]:
    """Two consequences of stability that the verifier recomputes directly:
    every nonextendable morphism is conjugate to some orbit twist, and the
    conjugation-closed intersection of the orbit sources lands inside the
    intersection of all nonextendable sources."""
    G = system.ambient
    orbit_canon = {context.sxs[Diagonal(rec.source, rec.images)][0] for rec in X.orbits}
    missing = []
    for skey in system.lattice.keys:
        for m in system.hom_set(skey):
            if system.is_nonextendable(m) and context.sxs[m][0] not in orbit_canon:
                missing.append((skey, m.images))
    # t lies in every y Q y^-1 exactly when y t y^-1 lies in Q for every y
    inside = np.ones(G.order, dtype=bool)
    for rec in X.orbits:
        inside &= np.isin(G.np_conj, rec.source).all(axis=0)
    core = tuple(np.flatnonzero(inside).tolist())
    qf = system.core_intersection()
    ok = not missing and set(core) <= set(qf)
    report = {
        "missing_conjugates": missing,
        "orbit_core": core,
        "nonextendable_core": qf,
    }
    return ok, report


def orbit_payload(system: FusionSystem, rec: OrbitRecord) -> dict:
    m = Morphism(rec.source, rec.images)
    return {**system.morphism_payload(m), "multiplicity": rec.multiplicity}


def orbit_from_payload(system: FusionSystem, payload: dict) -> OrbitRecord:
    m = system.morphism_from_payload(payload)
    if type(payload["multiplicity"]) is not int:
        raise ValueError("orbit multiplicity must be an integer")
    return OrbitRecord(m.source, m.images, payload["multiplicity"])
