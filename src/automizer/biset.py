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
from typing import Callable, Iterator, Optional, Sequence

from .grouprep import FiniteGroup, ScaleError
from .fusion import FusionSystem, Morphism, all_injective_homs


Diagonal = Morphism  # a twisted diagonal is stored exactly like a morphism


@dataclass(frozen=True)
class OrbitRecord:
    """One transitive summand (S x S)/Delta(source, images), with multiplicity."""

    source: tuple[int, ...]
    images: tuple[int, ...]
    multiplicity: int


@dataclass
class SemicharacteristicBiset:
    orbits: list[OrbitRecord]
    m: int          # the multiplier that cleared all denominators
    n: int          # total number of right cosets = slots of the embedding


def move_diagonal(G: FiniteGroup, d: Diagonal, x: int, y: int) -> Diagonal:
    """The diagonal conjugated by (x, y): source x P x^-1, map c_y phi c_x^-1."""
    pairs = sorted((G.conj(x, p), G.conj(y, q)) for p, q in zip(d.source, d.images))
    return Diagonal(tuple(p for p, _ in pairs), tuple(q for _, q in pairs))


def diagonal_orbit(
    G: FiniteGroup, d: Diagonal, moves: Sequence[tuple[int, int]]
) -> dict[Diagonal, tuple[int, int]]:
    """Every conjugate of the diagonal under the pairs the moves generate, by
    BFS in move order, each with a pair (x, y) that moves d onto it."""
    conj = {d: (0, 0)}
    queue = deque([d])
    while queue:
        cur = queue.popleft()
        px, sx = conj[cur]
        for x, y in moves:
            nxt = move_diagonal(G, cur, x, y)
            if nxt not in conj:
                conj[nxt] = (G.mul(x, px), G.mul(y, sx))
                queue.append(nxt)
    return conj


class DiagonalContext:
    """Shared caches for diagonal classification and mark computation."""

    def __init__(self, system: FusionSystem):
        self.system = system
        self.G = system.ambient
        self.lattice = system.lattice
        gens = self.G.minimal_generators()
        self._move_gens = [(g, 0) for g in gens] + [(0, g) for g in gens]
        self._xlists: dict[tuple, list] = {}
        self._transporter: dict[tuple, int] = {}
        self._sxs_canon: dict[Diagonal, Diagonal] = {}

    # -- conjugacy ------------------------------------------------------------

    def sxs_orbit(self, d: Diagonal) -> list[Diagonal]:
        """The full S x S conjugacy class, sorted."""
        return sorted(diagonal_orbit(self.G, d, self._move_gens))

    def sxs_canonical(self, d: Diagonal) -> Diagonal:
        if d not in self._sxs_canon:
            orbit = self.sxs_orbit(d)
            self._sxs_canon.update(dict.fromkeys(orbit, orbit[0]))
        return self._sxs_canon[d]

    def fprime_orbit(self, d: Diagonal) -> list[Diagonal]:
        """The orbit of the diagonal under the product action: fusion morphisms
        on the source, inner maps on the target.  One pass suffices because the
        moves compose back into the same shape."""
        G = self.G
        sys = self.system
        out = set()
        for psi in sys.hom_set(d.source):
            new_source = tuple(sorted(psi.images))
            inv_pos = {img: i for i, img in enumerate(psi.images)}
            base = tuple(d.images[inv_pos[q]] for q in new_source)
            for s in range(G.order):
                out.add(Diagonal(new_source, tuple(G.conj(s, b) for b in base)))
        return sorted(out)

    def classes(
        self, homs: Callable[[tuple], Sequence[Morphism]]
    ) -> Iterator[tuple[Diagonal, list[Diagonal]]]:
        """The classes of the diagonals homs(P) under the product action, as
        (first diagonal met, members), sources in decreasing order."""
        assigned: set[Diagonal] = set()
        for skey in sorted(self.lattice.keys, key=lambda k: (-len(k), k)):
            for d in homs(skey):
                if d not in assigned:
                    members = self.fprime_orbit(d)
                    assigned.update(members)
                    yield d, members

    def sxs_representatives(self, members: Sequence[Diagonal]) -> list[Diagonal]:
        """The least member of each S x S class met by the members, in the
        order the classes are first met."""
        reps: list[Diagonal] = []
        seen: set[Diagonal] = set()
        for member in members:
            if member not in seen:
                orbit = self.sxs_orbit(member)
                seen.update(orbit)
                reps.append(orbit[0])
        return reps

    def normalizer_index(self, d: Diagonal) -> int:
        """|N_{SxS}(Delta)/Delta|, by orbit-stabilizer: |S|^2 / (|class| |P|)."""
        return self.G.order ** 2 // (len(self.sxs_orbit(d)) * len(d.source))

    # -- marks ------------------------------------------------------------------

    def _xlist(self, pkey: tuple, qkey: tuple) -> list[tuple[int, tuple[int, ...]]]:
        """Pairs (x, images of the source generators under c_{x^-1}) for every
        x with x^-1 P x <= Q."""
        cached = self._xlists.get((pkey, qkey))
        if cached is not None:
            return cached
        G = self.G
        gens = self.lattice.by_key[pkey].generators
        qset = self.lattice._fsets[qkey]
        out = []
        if len(pkey) <= len(qkey):
            for x in range(G.order):
                xi = G.inv(x)
                conj_gens = tuple(G.conj(xi, g) for g in gens)
                if all(c in qset for c in conj_gens):
                    out.append((x, conj_gens))
        self._xlists[(pkey, qkey)] = out
        return out

    def _transporter_count(self, theta: tuple[int, ...], phi: tuple[int, ...]) -> int:
        """|{y in S : c_y . theta = phi on the generators}|."""
        key = (theta, phi)
        cached = self._transporter.get(key)
        if cached is not None:
            return cached
        G = self.G
        count = 0
        for y in range(G.order):
            if all(G.conj(y, t) == p for t, p in zip(theta, phi)):
                count += 1
        self._transporter[key] = count
        return count

    def mark_orbit(self, rec_source: tuple, rec_images: tuple, d: Diagonal) -> int:
        """Fixed points of Delta(P, phi) on (S x S)/Delta(Q, gamma)."""
        G = self.G
        pkey = d.source
        qkey = rec_source
        gens = self.lattice.by_key[pkey].generators
        if not gens:
            total = G.order * G.order
        else:
            qpos = self.lattice.posmap[qkey]
            ppos = self.lattice.posmap[pkey]
            phi = tuple(d.images[ppos[g]] for g in gens)
            total = 0
            for x, conj_gens in self._xlist(pkey, qkey):
                theta = tuple(rec_images[qpos[c]] for c in conj_gens)
                total += self._transporter_count(theta, phi)
        assert total % len(qkey) == 0, "mark formula must divide by |Q|"
        return total // len(qkey)

    def mark_terms(self, terms: Sequence[tuple[tuple, tuple, Fraction | int]], d: Diagonal) -> Fraction:
        acc = Fraction(0)
        for source, images, coeff in terms:
            if coeff:
                acc += coeff * self.mark_orbit(source, images, d)
        return acc

    def mark_biset(self, X: SemicharacteristicBiset, d: Diagonal) -> int:
        return int(self.mark_terms([(r.source, r.images, r.multiplicity) for r in X.orbits], d))


def outer_class_representatives(system: FusionSystem) -> list[Morphism]:
    """One automorphism of S per outer class, the identity first."""
    reps = []
    for cls in system.out_classes():
        ident = Morphism(cls[0].source, cls[0].source)
        reps.append(ident if ident in cls else cls[0])
    return reps


def build_semicharacteristic(
    system: FusionSystem,
    max_n: int = 10 ** 6,
    context: Optional[DiagonalContext] = None,
) -> SemicharacteristicBiset:
    """Mark equalization over the diagonal classes, in decreasing source order.

    Processing order is a valid linearization: the class removed at each step
    is maximal among the remaining ones because equal-order sources cannot
    contain each other, and correcting it only adds orbits whose marks vanish
    on every other same-size class and on all smaller ones."""
    ctx = context or DiagonalContext(system)
    G = system.ambient
    full = tuple(range(G.order))

    terms: list[tuple[tuple, tuple, Fraction]] = []
    for rep in outer_class_representatives(system):
        terms.append((full, rep.images, Fraction(1)))

    for d, members in ctx.classes(system.hom_set):
        if d.source == full:
            continue
        reps = sorted(ctx.sxs_representatives(members), key=lambda r: (r.source, r.images))
        marks = {rep: ctx.mark_terms(terms, rep) for rep in reps}
        peak = max(marks.values())
        for rep in reps:
            gap = peak - marks[rep]
            assert gap >= 0
            if gap:
                coeff = gap / ctx.normalizer_index(rep)
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


def verify_stability(
    system: FusionSystem,
    X: SemicharacteristicBiset,
    context: Optional[DiagonalContext] = None,
) -> tuple[bool, dict]:
    """Marks must be constant on every class of injective twisted diagonals
    under the product action (fusion morphisms on the source, inner maps on
    the target): the exact stability criterion.

    Precondition, checked first: every orbit twist is a stored fusion
    morphism.  Then only classes whose twist lies in F are compared.  By the
    transporter formula, (S x S)/Delta(Q, gamma) has a point fixed by
    Delta(P, phi) only if phi = c_y . gamma . c_{x^-1} on P, a map in F when
    gamma is; and a class whose twist is outside F has no member in F.  So
    every orbit has mark 0 on such a class.  Every class is still walked and
    counted."""
    foreign = _foreign_twist(system, X)
    if foreign:
        return False, {"failure": foreign, "checked_classes": 0}
    ctx = context or DiagonalContext(system)
    G = system.ambient
    checked_classes = 0
    for d, members in ctx.classes(lambda skey: all_injective_homs(G, system.lattice, skey)):
        if system.contains(d):
            reps = ctx.sxs_representatives(members)
            marks = [ctx.mark_biset(X, rep) for rep in reps]
            if len(set(marks)) > 1:
                return False, {
                    "failure": "marks differ on one diagonal class",
                    "class_source": d.source,
                    "witness": [(r.source, r.images, mk) for r, mk in zip(reps, marks)],
                    "checked_classes": checked_classes,
                }
        checked_classes += 1
    return True, {"checked_classes": checked_classes, "level": "full"}


def check_orbit_predictions(
    system: FusionSystem,
    X: SemicharacteristicBiset,
    context: Optional[DiagonalContext] = None,
) -> tuple[bool, dict]:
    """Two consequences of stability that the verifier recomputes directly:
    every nonextendable morphism is conjugate to some orbit twist, and the
    conjugation-closed intersection of the orbit sources lands inside the
    intersection of all nonextendable sources."""
    ctx = context or DiagonalContext(system)
    G = system.ambient
    orbit_canon = {ctx.sxs_canonical(Diagonal(rec.source, rec.images)) for rec in X.orbits}
    missing = []
    for skey in system.lattice.keys:
        for m in system.hom_set(skey):
            if system.is_nonextendable(m) and ctx.sxs_canonical(m) not in orbit_canon:
                missing.append((skey, m.images))
    core = set(range(G.order))
    for rec in X.orbits:
        conj_int = set(rec.source)
        for s in range(G.order):
            conj_int &= {G.conj(s, q) for q in rec.source}
        core &= conj_int
    qf = set(system.core_intersection())
    ok = not missing and core <= qf
    report = {
        "missing_conjugates": missing,
        "orbit_core": tuple(sorted(core)),
        "nonextendable_core": tuple(sorted(qf)),
    }
    return ok, report


def orbit_payload(system: FusionSystem, rec: OrbitRecord) -> dict:
    sub = system.lattice.by_key[rec.source]
    pos = system.lattice.posmap[rec.source]
    return {
        "source_generators": list(sub.generators),
        "generator_images": [rec.images[pos[g]] for g in sub.generators],
        "multiplicity": rec.multiplicity,
    }


def orbit_from_payload(system: FusionSystem, payload: dict) -> OrbitRecord:
    m = system.morphism_from_payload(payload)
    if type(payload["multiplicity"]) is not int:
        raise ValueError("orbit multiplicity must be an integer")
    return OrbitRecord(m.source, m.images, payload["multiplicity"])
