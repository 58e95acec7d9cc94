"""Biset construction against literal oracles.

The heavy lifting in the module under test is the transporter-based mark
formula and the equalization builder.  The oracles here avoid both: marks are
recomputed by materializing the coset space (S x S)/Delta and counting fixed
cosets one at a time, and left stability is recomputed from scratch by
Burnside's criterion over every subgroup of Q x S on a small ambient group.

Conventions pinned by the oracles: a point of the orbit of Delta(Q, gamma) is
the coset {(x u, y gamma(u))}, and (q, s) in Q x S acts by left multiplication
on both components, so Delta(P, phi)-fixed cosets are exactly the mark."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from automizer.biset import (
    Diagonal,
    DiagonalContext,
    OrbitRecord,
    SemicharacteristicBiset,
    _foreign_twist,
    _moved_rows,
    build_semicharacteristic,
    check_orbit_predictions,
    classes_before,
    diagonal_orbit,
    injective_class_counts,
    orbit_from_payload,
    orbit_payload,
    outer_class_representatives,
    verify_generated,
    verify_stability,
)
from automizer.fusion import Morphism, generate
from automizer.grouprep import (
    InputGroupA,
    ScaleError,
    automorphisms_of,
    build_S,
    catalog_group,
    enumerate_subgroups,
    homocyclic_rank2,
    injective_homs,
    injective_images,
)
from testkit import (
    all_injective_homs,
    append_free_orbits,
    brute_fusion,
    center,
    corpus,
    exhaustive_class_marks,
    injective_class_walk,
    move_diagonal,
    sxs_representatives,
)


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(scope="module")
def klein3():
    """Klein four ambient with an order-3 twist: the smallest system whose
    automorphism layer on the full group has outer classes."""
    G = catalog_group("C2xC2")
    subs = G.all_subgroups()
    # the 3-cycle 1 -> 2 -> 3 -> 1 on the involutions is linear over F2
    gen = Morphism((0, 1, 2, 3), (0, 2, 3, 1))
    system = generate(G, subs, [gen])
    ctx = DiagonalContext(system)
    X = build_semicharacteristic(system, context=ctx)
    return G, system, ctx, X


@pytest.fixture(scope="module")
def ambient_c2():
    S = build_S(InputGroupA.from_name("C2"))
    subs = enumerate_subgroups(S)
    gens = []
    for v in homocyclic_rank2(S, subs):
        for t in automorphisms_of(S, v):
            gens.append(Morphism(v.elements, tuple(t[x] for x in v.elements)))
    system = generate(S, subs, gens)
    ctx = DiagonalContext(system)
    X = build_semicharacteristic(system, context=ctx)
    return S, system, ctx, X


@pytest.fixture(scope="module")
def a6_d8():
    """D8 as the Sylow 2-subgroup of A6: a nonabelian ambient group with
    subgroups that are not normal, so conjugation moves sources."""
    pair = next(p for p in corpus() if p.name == "A6/D8")
    system = brute_fusion(pair.group(), pair.subgroup_generators())
    ctx = DiagonalContext(system)
    X = build_semicharacteristic(system, context=ctx)
    return system.ambient, system, ctx, X


# -- literal oracles ------------------------------------------------------------


def literal_cosets(G, source, images):
    """The coset space (S x S)/Delta(source, images) as frozensets of pairs."""
    delta = list(zip(source, images))
    cosets = set()
    for x in range(G.order):
        for y in range(G.order):
            cosets.add(frozenset((G.mul(x, u), G.mul(y, v)) for u, v in delta))
    return cosets


def literal_mark(G, rec_source, rec_images, d_source, d_images):
    """Count cosets fixed by every (u, phi(u)), acting on both components."""
    count = 0
    for coset in literal_cosets(G, rec_source, rec_images):
        if all(
            frozenset((G.mul(u, a), G.mul(fu, b)) for a, b in coset) == coset
            for u, fu in zip(d_source, d_images)
        ):
            count += 1
    return count


def product_subgroups(G, qkey):
    """Every subgroup of Q x S, enumerated by closure extension."""
    pairs = [(q, s) for q in qkey for s in range(G.order)]

    def close(seed):
        cur = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            a, b = frontier.pop()
            for c, d in seed:
                nxt = (G.mul(a, c), G.mul(b, d))
                if nxt not in cur:
                    cur.add(nxt)
                    frontier.append(nxt)
        return frozenset(cur)

    trivial = frozenset({(0, 0)})
    found = {trivial}
    queue = [trivial]
    for sub in queue:
        for p in pairs:
            if p not in sub:
                new = close(list(sub) + [p])
                if new not in found:
                    found.add(new)
                    queue.append(new)
    return [sorted(s) for s in found]


def literal_left_stable(G, system, X):
    """Burnside check on a small ambient: for every source Q and every fusion
    morphism phi on it, the restriction of X along the inclusion of Q and the
    restriction along phi have equal fixed counts on every subgroup of Q x S."""
    points = []
    for ri, rec in enumerate(X.orbits):
        for coset in literal_cosets(G, rec.source, rec.images):
            for copy in range(rec.multiplicity):
                points.append((ri, copy, coset))

    def fixed_count(D, twist):
        total = 0
        for _, _, coset in points:
            for q, s in D:
                tq = twist[q] if twist else q
                if frozenset((G.mul(tq, a), G.mul(s, b)) for a, b in coset) != coset:
                    break
            else:
                total += 1
        return total

    for qkey in system.lattice.keys:
        subs_qs = product_subgroups(G, qkey)
        pos = system.lattice.posmap[qkey]
        for phi in system.hom_set(qkey):
            twist = {q: phi.images[pos[q]] for q in qkey}
            for D in subs_qs:
                if fixed_count(D, None) != fixed_count(D, twist):
                    return False, (qkey, phi.images, tuple(D))
    return True, None


# -- tests ----------------------------------------------------------------------


class TestMarksAgainstLiteral:
    def test_klein3_all_pairs(self, klein3):
        G, system, ctx, X = klein3
        diags = [
            Diagonal(k, m.images)
            for k in system.lattice.keys
            for m in system.hom_set(k)
        ]
        twists = [(rec.source, rec.images) for rec in X.orbits]
        for d in diags:
            assert ctx.orbit_marks(twists, [d])[0].tolist() == [
                literal_mark(G, source, images, d.source, d.images) for source, images in twists
            ]

    def test_d8_inner_sample(self):
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        ctx = DiagonalContext(system)
        full = tuple(range(8))
        for skey in system.lattice.keys:
            for m in system.hom_set(skey)[:3]:
                d = Diagonal(skey, m.images)
                assert ctx.orbit_marks([(full, full)], [d])[0][0] == literal_mark(
                    G, full, full, skey, m.images
                )

    def test_ambient_sample(self, ambient_c2):
        S, system, ctx, X = ambient_c2
        full = tuple(range(32))
        samples = [Diagonal(full, full), Diagonal((0,), (0,))]
        klein = next(k for k in system.lattice.keys if len(k) == 4)
        samples += [Diagonal(klein, m.images) for m in system.hom_set(klein)[:2]]
        twists = [(rec.source, rec.images) for rec in X.orbits[:3] + X.orbits[-2:]]
        for d in samples:
            assert ctx.orbit_marks(twists, [d])[0].tolist() == [
                literal_mark(S, source, images, d.source, d.images) for source, images in twists
            ]


class ReferenceMarks:
    """The transporter loop that the vector marks replaced: per orbit
    (Q, gamma) the x with x^-1 P x <= Q, and per x the y with
    c_y . gamma . c_{x^-1} = phi on the generators of P, cached by (P, Q)
    and by (theta, phi)."""

    def __init__(self, system):
        self.G = system.ambient
        self.lattice = system.lattice
        self.xlists = {}
        self.transporter = {}

    def xlist(self, pkey, qkey):
        if (pkey, qkey) not in self.xlists:
            G = self.G
            gens = self.lattice.by_key[pkey].generators
            out = []
            if len(pkey) <= len(qkey):
                for x in range(G.order):
                    conj_gens = tuple(G.conj(G.inv(x), g) for g in gens)
                    if all(c in qkey for c in conj_gens):
                        out.append(conj_gens)
            self.xlists[(pkey, qkey)] = out
        return self.xlists[(pkey, qkey)]

    def transporter_count(self, theta, phi):
        if (theta, phi) not in self.transporter:
            G = self.G
            self.transporter[(theta, phi)] = sum(
                all(G.conj(y, t) == p for t, p in zip(theta, phi)) for y in range(G.order)
            )
        return self.transporter[(theta, phi)]

    def mark(self, source, images, d):
        gens = self.lattice.by_key[d.source].generators
        if not gens:
            total = self.G.order ** 2
        else:
            qpos = self.lattice.posmap[source]
            ppos = self.lattice.posmap[d.source]
            phi = tuple(d.images[ppos[g]] for g in gens)
            total = 0
            for conj_gens in self.xlist(d.source, source):
                theta = tuple(images[qpos[c]] for c in conj_gens)
                total += self.transporter_count(theta, phi)
        assert total % len(source) == 0
        return total // len(source)


class TestMarksAgainstTransporterLoop:
    """orbit_marks, every orbit's mark in one gather, equals the transporter
    loop orbit by orbit."""

    def test_ambient_orbits_at_every_representative(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        ref = ReferenceMarks(system)
        twists = [(rec.source, rec.images) for rec in X.orbits]
        reps = [rep for _, class_reps in ctx.fusion_classes for rep in class_reps]
        assert (len(twists), len(reps)) == (172, 239)
        for rep, marks in zip(reps, ctx.orbit_marks(twists, reps).tolist()):
            assert marks == [ref.mark(q, g, rep) for q, g in twists]

    @pytest.mark.parametrize("name", ["klein3", "c2", "a6_d8"])
    def test_one_call_equals_one_call_per_diagonal(self, name, klein3, ambient_c2, a6_d8):
        """The marks of many diagonals in one call, their sources met in two
        separate runs, equal the marks taken one diagonal at a time, row by
        row in the order asked; the weighted marks are the rows' sums.  On
        klein3 and A6/D8 every row also equals the transporter loop."""
        G, system, ctx, X = {"klein3": klein3, "c2": ambient_c2, "a6_d8": a6_d8}[name]
        twists = [(rec.source, rec.images) for rec in X.orbits]
        if name == "klein3":
            diags = [d for skey in system.lattice.keys for d in all_injective_homs(G, system.lattice, skey)]
        else:
            diags = [rep for _, reps in ctx.fusion_classes for rep in reps]
        diags = diags[1::2] + diags[::2]
        assert len({d.source for d in diags}) > 2
        table = ctx.orbit_marks(twists, diags)
        assert table.shape == (len(diags), len(twists))
        for d, row in zip(diags, table.tolist()):
            assert row == ctx.orbit_marks(twists, [d])[0].tolist()
        if name != "c2":
            ref = ReferenceMarks(system)
            assert table.tolist() == [[ref.mark(q, g, d) for q, g in twists] for d in diags]
        weights = [rec.multiplicity for rec in X.orbits]
        assert ctx.marks(X.orbits, diags) == [sum(w * m for w, m in zip(weights, row)) for row in table.tolist()]
        assert ctx.orbit_marks(twists, []).shape == (0, len(twists))

    def test_klein3_variants_at_every_diagonal(self, klein3):
        G, system, ctx, X = klein3
        ref = ReferenceMarks(system)
        diags = [d for skey in system.lattice.keys for d in all_injective_homs(G, system.lattice, skey)]
        for Y in klein3_variants(G, X):
            twists = [(rec.source, rec.images) for rec in Y.orbits]
            for d in diags:
                assert ctx.orbit_marks(twists, [d])[0].tolist() == [ref.mark(q, g, d) for q, g in twists]


    def test_kept_twist_rows_follow_the_orbit_list(self, ambient_c2):
        """The context keeps the last orbit list's twist rows and grows them
        when a list extends it; lists that shrink, reorder, restart or
        change one orbit must still give each orbit its own mark."""
        _, system, ctx, X = ambient_c2
        ref = ReferenceMarks(system)
        twists = [(rec.source, rec.images) for rec in X.orbits]
        changed = twists[:6] + [twists[0]] + twists[7:12]
        lists = [twists[:3], twists[:10], twists[:10], twists[:4], twists[::-1][:7], [], changed, twists]
        reps = [rep for _, class_reps in ctx.fusion_classes for rep in class_reps][::40]
        shared = DiagonalContext(system)
        for orbits in lists:
            for rep in reps:
                assert shared.orbit_marks(orbits, [rep])[0].tolist() == [ref.mark(q, g, rep) for q, g in orbits]


class TestIdentityOrbitMark:
    def test_mark_at_full_twists_is_center_order(self, ambient_c2):
        S, system, ctx, _ = ambient_c2
        full = tuple(range(32))
        z = len(center(S))
        # every fusion automorphism of this S is inner, so the mark is |Z(S)|
        for alpha in system.aut(full):
            assert ctx.orbit_marks([(full, full)], [Diagonal(full, alpha.images)])[0][0] == z

    def test_outer_twists_get_mark_zero(self, klein3):
        G, system, ctx, _ = klein3
        full = (0, 1, 2, 3)
        for alpha in system.aut(full):
            expected = 4 if alpha.source == alpha.images else 0
            assert ctx.orbit_marks([(full, full)], [Diagonal(full, alpha.images)])[0][0] == expected

    def test_normalizer_index_of_identity_diagonal(self, klein3, ambient_c2):
        _, _, ctx_small, _ = klein3
        assert ctx_small.normalizer_index(Diagonal((0, 1, 2, 3), (0, 1, 2, 3))) == 4
        S, _, ctx_big, _ = ambient_c2
        full = tuple(range(32))
        assert ctx_big.normalizer_index(Diagonal(full, full)) == len(center(S))

    def test_normalizer_index_matches_stabilizer_count(self, klein3, ambient_c2):
        for G, system, ctx, X in (klein3, ambient_c2):
            for rec in X.orbits:
                d = Diagonal(rec.source, rec.images)
                fixing = sum(
                    move_diagonal(G, d, x, y) == d
                    for x in range(G.order)
                    for y in range(G.order)
                )
                assert ctx.normalizer_index(d) * len(d.source) == fixing


class TestBuilder:
    def test_klein3_shape(self, klein3):
        G, system, ctx, X = klein3
        reps = outer_class_representatives(system)
        assert len(reps) == 3 and reps[0].source == reps[0].images
        assert {r.images for r in reps} == {(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)}
        # marks already balance below the top, so no corrections and no scaling
        assert len(X.orbits) == 3
        assert X.m == 1
        assert X.n == 3
        assert X.orbits[0] == OrbitRecord((0, 1, 2, 3), (0, 1, 2, 3), 1)

    def test_klein3_literal_left_stability(self, klein3):
        G, system, ctx, X = klein3
        ok, witness = literal_left_stable(G, system, X)
        assert ok, witness

    def test_ambient_shape(self, ambient_c2):
        S, system, ctx, X = ambient_c2
        full = tuple(range(32))
        assert X.orbits[0].source == full and X.orbits[0].images == full
        assert X.m == 8
        assert X.n == 7792
        assert all(rec.multiplicity >= 1 for rec in X.orbits)
        assert sum(r.multiplicity * (32 // len(r.source)) for r in X.orbits) == X.n

    def test_determinism(self, ambient_c2):
        _, system, _, X = ambient_c2
        again = build_semicharacteristic(system, context=DiagonalContext(system))
        assert again.orbits == X.orbits
        assert (again.m, again.n) == (X.m, X.n)

    def test_multiplier_is_minimal(self, ambient_c2):
        _, _, _, X = ambient_c2
        rest, p, factors = X.m, 2, set()
        while rest > 1:
            while rest % p == 0:
                factors.add(p)
                rest //= p
            p += 1
        assert factors
        for p in factors:
            assert any(rec.multiplicity % p for rec in X.orbits), (
                "all multiplicities divisible by %d: multiplier is not minimal" % p
            )

    def test_scale_guard(self, ambient_c2):
        _, system, ctx, _ = ambient_c2
        with pytest.raises(ScaleError) as exc:
            build_semicharacteristic(system, ctx, max_n=16)
        assert exc.value.bound_name == "max_n"


class TestStability:
    def test_stable_on_klein3(self, klein3):
        _, system, ctx, X = klein3
        ok, rep = verify_stability(system, X, context=ctx)
        assert ok, rep

    def test_stable_on_ambient(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        ok, rep = verify_stability(system, X, context=ctx)
        assert ok, rep
        assert rep == {"checked_classes": 16019, "level": "full"}

    def test_dropping_identity_orbit_detected(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        broken = SemicharacteristicBiset(
            X.orbits[1:], X.m, X.n - X.orbits[0].multiplicity
        )
        ok, _ = verify_generated(system, broken)
        assert not ok
        ok, rep = verify_stability(system, broken, context=ctx)
        assert not ok
        assert rep["witness"]

    def test_multiplicity_bump_detected(self, klein3):
        _, system, ctx, X = klein3
        rec = X.orbits[1]
        bumped = list(X.orbits)
        bumped[1] = OrbitRecord(rec.source, rec.images, rec.multiplicity + 1)
        broken = SemicharacteristicBiset(bumped, X.m, X.n + 4 // len(rec.source))
        ok, _ = verify_stability(system, broken, context=ctx)
        assert not ok

    def test_rejects_non_fusion_orbit_twist(self, klein3):
        _, system, ctx, X = klein3
        # the transposition of two involutions is an automorphism outside F
        foreign = OrbitRecord((0, 1, 2, 3), (0, 2, 1, 3), 1)
        assert not system.contains(Diagonal(foreign.source, foreign.images))
        broken = SemicharacteristicBiset(X.orbits + [foreign], X.m, X.n + 1)
        ok, rep = verify_stability(system, broken, context=ctx)
        assert not ok
        assert "fusion morphism" in rep["failure"]


def klein3_variants(G, X):
    """The klein3 biset and four edits of it: a bumped multiplicity, a dropped
    outer orbit, a dropped identity orbit and two padded free orbits."""
    rec = X.orbits[1]
    bumped = list(X.orbits)
    bumped[1] = OrbitRecord(rec.source, rec.images, rec.multiplicity + 1)
    return [
        X,
        SemicharacteristicBiset(bumped, X.m, X.n + 1),
        SemicharacteristicBiset(X.orbits[:1] + X.orbits[2:], X.m, X.n - 1),
        SemicharacteristicBiset(X.orbits[1:], X.m, X.n - 1),
        append_free_orbits(X, G.order, count=2),
    ]


class TestExhaustiveOracle:
    """The exact check compares marks only on classes whose twist is in F;
    the oracle compares them on every class of injective diagonals."""

    def test_klein3_verdicts_agree(self, klein3):
        G, system, ctx, X = klein3
        verdicts = []
        for Y in klein3_variants(G, X):
            ok, _ = verify_stability(system, Y, context=ctx)
            table = exhaustive_class_marks(system, Y, context=ctx)
            assert ok == all(len(set(marks)) == 1 for _, marks in table)
            verdicts.append(ok)
        assert verdicts == [True, False, False, False, True]

    def test_klein3_marks_vanish_outside_f(self, klein3):
        G, system, ctx, X = klein3
        outside = [
            d
            for skey in system.lattice.keys
            for d in all_injective_homs(G, system.lattice, skey)
            if not system.contains(d)
        ]
        assert outside
        for Y in klein3_variants(G, X):
            assert all(ctx.marks(Y.orbits, [d])[0] == 0 for d in outside)

    def test_ambient_verdict_agrees_and_marks_vanish_outside_f(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        ok, rep = verify_stability(system, X, context=ctx)
        table = exhaustive_class_marks(system, X, context=ctx)
        assert ok and all(len(set(marks)) == 1 for _, marks in table)
        outside = [marks for d, marks in table if not system.contains(d)]
        assert len(outside) == 552
        assert all(mark == 0 for marks in outside for mark in marks)


def reference_verify_stability(system, X, ctx):
    """The stability check as a walk that builds every class of injective
    diagonals one by one and counts it when it is met."""
    foreign = _foreign_twist(system, X)
    if foreign:
        return False, {"failure": foreign, "checked_classes": 0}
    checked_classes = 0
    for d, members in injective_class_walk(ctx):
        if system.contains(d):
            reps = sxs_representatives(ctx, members)
            marks = ctx.marks(X.orbits, reps)
            if len(set(marks)) > 1:
                return False, {
                    "failure": "marks differ on one diagonal class",
                    "class_source": d.source,
                    "witness": [(r.source, r.images, mk) for r, mk in zip(reps, marks)],
                    "checked_classes": checked_classes,
                }
        checked_classes += 1
    return True, {"checked_classes": checked_classes, "level": "full"}


class TestClassLabels:
    """The Burnside class counts against the class walk that builds every
    class of injective diagonals: per F-class of subgroups, in the walk's
    order, as many classes as the walk meets with that source."""

    @staticmethod
    def assert_counts_match_walk(system):
        sources = [d.source for d, _ in injective_class_walk(DiagonalContext(system))]
        counts = list(injective_class_counts(system))
        assert counts == [(s, sources.count(s)) for s in dict.fromkeys(sources)]
        assert all(type(count) is int for _, count in counts)

    def test_klein3(self, klein3):
        _, system, _, _ = klein3
        self.assert_counts_match_walk(system)

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_corpus(self, pair):
        self.assert_counts_match_walk(brute_fusion(pair.group(), pair.subgroup_generators()))


class TestClassesBefore:
    """The failure position against the same walk."""

    @staticmethod
    def assert_positions_match_walk(system):
        """At each class's first row, the classes the walk met before it with
        the same source; at the row after it, one more."""
        G, lat = system.ambient, system.lattice
        met = {}
        for d, _ in injective_class_walk(DiagonalContext(system)):
            before = met.setdefault(d.source, 0)
            assert classes_before(system, d) == before
            rows = all_injective_homs(G, lat, d.source)
            at = rows.index(d)
            if at + 1 < len(rows):
                assert classes_before(system, rows[at + 1]) == before + 1
            met[d.source] += 1

    def test_klein3(self, klein3):
        _, system, _, _ = klein3
        self.assert_positions_match_walk(system)

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_corpus(self, pair):
        self.assert_positions_match_walk(brute_fusion(pair.group(), pair.subgroup_generators()))

    def test_ambient_failure_past_an_f_class_start(self, ambient_c2):
        """A bumped orbit that breaks a class which is not the first of its
        F-class: the report counts the classes before it in that F-class."""
        _, system, ctx, X = ambient_c2
        rec = X.orbits[10]
        bumped = list(X.orbits)
        bumped[10] = OrbitRecord(rec.source, rec.images, rec.multiplicity + 1)
        broken = SemicharacteristicBiset(bumped, X.m, X.n)
        expect = reference_verify_stability(system, broken, DiagonalContext(system))
        assert expect[1]["checked_classes"] == 15548
        assert verify_stability(system, broken, context=ctx) == expect


    def test_ambient_failure_marks_match_the_transporter_loop(self, ambient_c2):
        """The same destabilized biset: the reported marks of the class's
        representatives are the transporter loop's weighted sums, and they
        differ."""
        _, system, ctx, X = ambient_c2
        rec = X.orbits[10]
        bumped = list(X.orbits)
        bumped[10] = OrbitRecord(rec.source, rec.images, rec.multiplicity + 1)
        ok, rep = verify_stability(system, SemicharacteristicBiset(bumped, X.m, X.n), context=ctx)
        assert not ok and rep["checked_classes"] == 15548
        assert rep["class_source"] in system.lattice.keys
        ref = ReferenceMarks(system)
        marks = [mk for _, _, mk in rep["witness"]]
        assert len(set(marks)) > 1
        assert marks == [
            sum(r.multiplicity * ref.mark(r.source, r.images, Diagonal(source, images)) for r in bumped)
            for source, images, _ in rep["witness"]
        ]


def reference_class_counts(system):
    """The Burnside count over the sorted Inj(R, S) rows of injective_images,
    as it was taken before the count read the unsorted table."""
    G, lat = system.ambient, system.lattice
    met = set()
    for skey in sorted(lat.keys, key=lambda k: (-len(k), k)):
        if skey in met:
            continue
        met.update(tuple(sorted(psi.images)) for psi in system.hom_set(skey))
        sub = lat.by_key[skey]
        rows = injective_images(G, sub, range(G.order))
        gcols = [lat.posmap[skey][g] for g in sub.generators]
        fixes = [
            int(np.count_nonzero((moved == rows.T[gcols]).all(axis=0)))
            for moved in _moved_rows(system, skey, rows, gcols)
        ]
        yield skey, sum(fixes) // len(fixes)


class TestClassCountReference:
    """injective_class_counts, on unsorted Inj(R, S) tables, against the
    count over the sorted rows."""

    @pytest.mark.parametrize("name", ["klein3", "c2", "a6_d8"])
    def test_fixture_systems(self, name, klein3, ambient_c2, a6_d8):
        system = {"klein3": klein3, "c2": ambient_c2, "a6_d8": a6_d8}[name][1]
        counts = list(injective_class_counts(system))
        assert counts == list(reference_class_counts(system))
        if name == "c2":
            assert sum(count for _, count in counts) == 16019

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_corpus(self, pair):
        system = brute_fusion(pair.group(), pair.subgroup_generators())
        assert list(injective_class_counts(system)) == list(reference_class_counts(system))


class TestFailureReport:
    """The label count reports what the walk that builds every class reported:
    the verdict, the failing class, its marks and the classes met before it."""

    def test_klein3_variants(self, klein3):
        G, system, ctx, X = klein3
        for Y in klein3_variants(G, X):
            expect = reference_verify_stability(system, Y, DiagonalContext(system))
            assert verify_stability(system, Y, context=ctx) == expect

    def test_ambient_without_identity_orbit(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        broken = SemicharacteristicBiset(X.orbits[1:], X.m, X.n - X.orbits[0].multiplicity)
        expect = reference_verify_stability(system, broken, DiagonalContext(system))
        assert not expect[0] and expect[1]["checked_classes"] > 0
        assert verify_stability(system, broken, context=ctx) == expect


class TestPredictionsAndFreeOrbits:
    def test_predictions_pass(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        ok, rep = check_orbit_predictions(system, X, context=ctx)
        assert ok, rep
        assert rep["orbit_core"] == (0,)
        assert not rep["missing_conjugates"]

    def test_predictions_fail_without_small_orbits(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        stripped = SemicharacteristicBiset([X.orbits[0]], X.m, X.orbits[0].multiplicity)
        ok, rep = check_orbit_predictions(system, stripped, context=ctx)
        assert not ok
        assert rep["missing_conjugates"]

    def test_free_orbit_padding(self, klein3):
        G, system, ctx, X = klein3
        padded = append_free_orbits(X, G.order, count=2)
        assert padded.n == X.n + 2 * G.order
        assert any(r.source == (0,) and r.multiplicity == 2 for r in padded.orbits)
        ok, _ = verify_generated(system, padded)
        assert ok
        ok, rep = verify_stability(system, padded, context=ctx)
        assert ok, rep
        ok, witness = literal_left_stable(G, system, padded)
        assert ok, witness
        again = append_free_orbits(padded, G.order)
        assert any(r.source == (0,) and r.multiplicity == 3 for r in again.orbits)
        assert len(again.orbits) == len(padded.orbits)

    def test_free_orbit_count_validation(self, klein3):
        G, _, _, X = klein3
        with pytest.raises(ValueError):
            append_free_orbits(X, G.order, count=0)


class TestGenerated:
    def test_verify_generated_passes(self, ambient_c2):
        _, system, _, X = ambient_c2
        ok, rep = verify_generated(system, X)
        assert ok, rep

    def test_rejects_non_fusion_twist(self, ambient_c2):
        _, system, _, X = ambient_c2
        rec = next(r for r in X.orbits if len(r.source) == 4)
        stored = system.store[rec.source]
        fake_images = next(
            perm
            for perm in itertools.permutations(rec.images)
            if perm not in stored
        )
        fake = OrbitRecord(rec.source, fake_images, rec.multiplicity)
        broken = SemicharacteristicBiset(
            [X.orbits[0], fake],
            X.m,
            X.orbits[0].multiplicity + fake.multiplicity * 8,
        )
        ok, rep = verify_generated(system, broken)
        assert not ok
        assert "fusion morphism" in rep["failure"]

    def test_rejects_bad_slot_count(self, ambient_c2):
        _, system, _, X = ambient_c2
        broken = SemicharacteristicBiset(X.orbits, X.m, X.n + 1)
        ok, rep = verify_generated(system, broken)
        assert not ok
        assert "slot count" in rep["failure"]


class TestPayload:
    def test_round_trip(self, ambient_c2):
        _, system, _, X = ambient_c2
        for rec in X.orbits[:10] + X.orbits[-5:]:
            assert orbit_from_payload(system, orbit_payload(system, rec)) == rec


class TestConjugacyInvariance:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_marks_constant_on_small_classes(self, klein3, data):
        G, system, ctx, X = klein3
        skey = data.draw(st.sampled_from(system.lattice.keys))
        phi = data.draw(st.sampled_from(system.hom_set(skey)))
        d = Diagonal(skey, phi.images)
        x = data.draw(st.integers(0, G.order - 1))
        y = data.draw(st.integers(0, G.order - 1))
        assert ctx.marks(X.orbits, [d])[0] == ctx.marks(X.orbits, [move_diagonal(G, d, x, y)])[0]

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_marks_constant_on_ambient_classes(self, ambient_c2, data):
        S, system, ctx, X = ambient_c2
        small = [k for k in system.lattice.keys if len(k) <= 4]
        skey = data.draw(st.sampled_from(small))
        phi = data.draw(st.sampled_from(system.hom_set(skey)))
        d = Diagonal(skey, phi.images)
        x = data.draw(st.integers(0, 31))
        y = data.draw(st.integers(0, 31))
        assert ctx.marks(X.orbits, [d])[0] == ctx.marks(X.orbits, [move_diagonal(S, d, x, y)])[0]


def reference_diagonal_orbit(G, d, moves):
    """The BFS written out: each member moved by move_diagonal, one conj at a
    time, members and their pairs kept in the order they are met."""
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


class TestDiagonalOrbitReference:
    """diagonal_orbit against the literal BFS, as ordered lists of (member,
    pair) items: the same members, the same pairs and the same insertion
    order, under pure, mixed, identity and repeated moves, from the trivial
    source to the full group.  Sources, morphisms and move elements are drawn
    as integers and reduced modulo the system's sizes."""

    @given(
        name=st.sampled_from(["klein3", "c2", "a6_d8"]),
        source_at=st.integers(0, 2 ** 16),
        hom_at=st.integers(0, 2 ** 16),
        moves=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)), max_size=6),
    )
    @example(name="c2", source_at=0, hom_at=0, moves=[(0, 0), (3, 5), (3, 5), (1, 0), (0, 2)])
    @example(name="c2", source_at=-1, hom_at=7, moves=[(5, 0), (0, 9), (5, 9), (0, 0), (5, 0)])
    @example(name="a6_d8", source_at=1, hom_at=0, moves=[(1, 0), (1, 0), (0, 3), (2, 5)])
    @example(name="a6_d8", source_at=-1, hom_at=3, moves=[(1, 2), (2, 0), (0, 3), (2, 0)])
    @example(name="klein3", source_at=2, hom_at=1, moves=[])
    @settings(max_examples=60, deadline=None)
    def test_same_ordered_orbit_as_the_literal_bfs(
        self, klein3, ambient_c2, a6_d8, name, source_at, hom_at, moves
    ):
        G, system, _, _ = {"klein3": klein3, "c2": ambient_c2, "a6_d8": a6_d8}[name]
        keys = system.lattice.keys
        skey = keys[source_at % len(keys)]
        homs = system.hom_set(skey)
        d = Diagonal(skey, homs[hom_at % len(homs)].images)
        moves = [(x % G.order, y % G.order) for x, y in moves]
        got = diagonal_orbit(G, d, moves)
        assert list(got.items()) == list(reference_diagonal_orbit(G, d, moves).items())
        assert all(type(member) is Diagonal for member in got)

    @pytest.mark.parametrize("name", ["klein3", "c2", "a6_d8"])
    def test_library_move_lists(self, name, klein3, ambient_c2, a6_d8):
        """The S x S moves and the P x S moves of each source, from stored
        morphism."""
        G, system, _, _ = {"klein3": klein3, "c2": ambient_c2, "a6_d8": a6_d8}[name]
        gens = G.minimal_generators()
        sxs = [(g, 0) for g in gens] + [(0, g) for g in gens]
        stored = [m for skey in system.lattice.keys for m in system.hom_set(skey)]
        for m in stored:
            pxs = [(g, 0) for g in system.lattice.by_key[m.source].generators] + sxs[len(gens):]
            for moves in (sxs, pxs):
                assert list(diagonal_orbit(G, m, moves).items()) == list(
                    reference_diagonal_orbit(G, m, moves).items()
                )


# -- one helper per class concept, against the code it replaced --------------------


def reference_outer_class_representatives(system):
    """Aut_F(S) modulo inner automorphisms, each class sorted, the classes
    ordered by least member with the identity's class first; one member per
    class, the identity for its own class and the least member otherwise."""
    full = tuple(range(system.ambient.order))
    inner_images = [m.images for m in system.aut_S(full)]
    classes, assigned = [], set()
    for m in system.aut(full):
        if m.images in assigned:
            continue
        cls = []
        for inner in inner_images:
            images = tuple(inner[x] for x in m.images)
            if images not in assigned:
                assigned.add(images)
                cls.append(Morphism(full, images))
        classes.append(sorted(cls, key=lambda x: x.images))
    ident = Morphism(full, full)
    classes.sort(key=lambda c: (ident not in c, c[0].images))
    return [ident if ident in cls else cls[0] for cls in classes]


class ReferenceSxS:
    """The S x S classes as sorted BFS orbits, one walk per class, each member
    mapped to (least member, class size)."""

    def __init__(self, G):
        self.G = G
        gens = G.minimal_generators()
        self.moves = [(g, 0) for g in gens] + [(0, g) for g in gens]
        self.known = {}

    def sxs_class(self, d):
        if d not in self.known:
            orbit = sorted(diagonal_orbit(self.G, d, self.moves))
            self.known.update(dict.fromkeys(orbit, (orbit[0], len(orbit))))
        return self.known[d]

    def representatives(self, members):
        """The least member of each class, in the order the classes are met."""
        reps, seen = [], set()
        for member in members:
            rep = self.sxs_class(member)[0]
            if rep not in seen:
                seen.add(rep)
                reps.append(rep)
        return reps


def reference_check_orbit_predictions(system, X):
    """The prediction check with its core as a loop over orbits, S and the
    orbit source."""
    G = system.ambient
    ref = ReferenceSxS(G)
    orbit_canon = {ref.sxs_class(Diagonal(rec.source, rec.images))[0] for rec in X.orbits}
    missing = [
        (skey, m.images)
        for skey, found in system.nonextendable.items()
        for m in found
        if ref.sxs_class(m)[0] not in orbit_canon
    ]
    core = set(range(G.order))
    for rec in X.orbits:
        conj_int = set(rec.source)
        for s in range(G.order):
            conj_int &= {G.conj(s, q) for q in rec.source}
        core &= conj_int
    qf = set(system.core_intersection)
    report = {
        "missing_conjugates": missing,
        "orbit_core": tuple(sorted(core)),
        "nonextendable_core": tuple(sorted(qf)),
    }
    return not missing and core <= qf, report


def reference_fprime_orbit(system, d):
    """The product-action orbit with one conj call per image and element of S."""
    G = system.ambient
    out = set()
    for psi in system.hom_set(d.source):
        pos = {img: i for i, img in enumerate(psi.images)}
        source = tuple(sorted(psi.images))
        base = [d.images[pos[q]] for q in source]
        out.update(Diagonal(source, tuple(G.conj(s, b) for b in base)) for s in range(G.order))
    return sorted(out)


class TestOneHelperPerClassConcept:
    def test_outer_representatives_on_klein3_and_ambient(self, klein3, ambient_c2):
        for _, system, _, _ in (klein3, ambient_c2):
            expect = reference_outer_class_representatives(system)
            assert outer_class_representatives(system) == expect

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_outer_representatives_on_corpus(self, pair):
        system = brute_fusion(pair.group(), pair.subgroup_generators())
        expect = reference_outer_class_representatives(system)
        assert outer_class_representatives(system) == expect

    def test_sxs_class_on_every_stored_morphism(self, ambient_c2):
        S, system, _, _ = ambient_c2
        ctx, ref = DiagonalContext(system), ReferenceSxS(S)
        stored = [m for skey in system.lattice.keys for m in system.hom_set(skey)]
        assert len(stored) == 1036
        for m in stored:
            rep, pair, size = ctx.sxs[m]
            assert (rep, size) == ref.sxs_class(m)
            assert move_diagonal(S, m, *pair) == rep

    def test_representatives_keep_the_first_met_order(self, klein3, ambient_c2):
        for G, system, ctx, _ in (klein3, ambient_c2):
            ref = ReferenceSxS(G)
            for d, reps in ctx.fusion_classes:
                assert reps == ref.representatives(ctx.fprime_orbit(d))

    def test_fprime_orbit_matches_the_conj_loop(self, klein3, ambient_c2):
        for _, system, ctx, _ in (klein3, ambient_c2):
            for d, _ in ctx.fusion_classes:
                assert ctx.fprime_orbit(d) == reference_fprime_orbit(system, d)

    def test_predictions_match_the_orbit_loop(self, klein3, ambient_c2):
        G, system, ctx, X = klein3
        for Y in klein3_variants(G, X):
            assert check_orbit_predictions(system, Y, context=ctx) == (
                reference_check_orbit_predictions(system, Y)
            )
        _, system, ctx, X = ambient_c2
        stripped = SemicharacteristicBiset([X.orbits[0]], X.m, X.orbits[0].multiplicity)
        for Y in (X, stripped):
            assert check_orbit_predictions(system, Y, context=ctx) == (
                reference_check_orbit_predictions(system, Y)
            )

    def test_orbit_core_is_the_normal_core_on_d8(self):
        """Beside the identity orbit, one orbit on each subgroup Q of D8: the
        orbit core is the largest normal subgroup inside Q."""
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        ctx = DiagonalContext(system)
        full = tuple(range(G.order))
        cores = set()
        for q in system.lattice.keys:
            Y = SemicharacteristicBiset([OrbitRecord(full, full, 1), OrbitRecord(q, q, 1)], 1, 0)
            ok, rep = check_orbit_predictions(system, Y, context=ctx)
            assert (ok, rep) == reference_check_orbit_predictions(system, Y)
            cores.add(rep["orbit_core"] == q)
        assert cores == {True, False}

    def test_one_fusion_walk_per_context(self, ambient_c2, monkeypatch):
        """The builder, the stability check and the predictions, run in one
        context, walk the 65 fusion classes once between them."""
        _, system, _, _ = ambient_c2
        walked = []
        fprime_orbit = DiagonalContext.fprime_orbit

        def counting_orbit(self, d):
            walked.append(d)
            return fprime_orbit(self, d)

        monkeypatch.setattr(DiagonalContext, "fprime_orbit", counting_orbit)
        ctx = DiagonalContext(system)
        X = build_semicharacteristic(system, context=ctx)
        assert verify_stability(system, X, context=ctx)[0]
        assert check_orbit_predictions(system, X, context=ctx)[0]
        assert walked == [d for d, _ in ctx.fusion_classes]
        assert len(walked) == len(set(walked)) == 65

    def test_one_bfs_per_sxs_class(self, ambient_c2, monkeypatch):
        """The builder, the stability check and the predictions, run in one
        context, walk each S x S class of diagonals once between them."""
        S, system, _, _ = ambient_c2
        walked = []

        def counting_orbit(G, d, moves):
            walked.append(d)
            return diagonal_orbit(G, d, moves)

        monkeypatch.setattr("automizer.biset.diagonal_orbit", counting_orbit)
        ctx = DiagonalContext(system)
        X = build_semicharacteristic(system, context=ctx)
        assert verify_stability(system, X, context=ctx)[0]
        assert check_orbit_predictions(system, X, context=ctx)[0]
        classes = {ctx.sxs[d][0] for d in walked}
        assert len(walked) == len(classes) == 239

    def test_one_injective_table_per_f_class(self, ambient_c2, monkeypatch):
        """With a fresh context, the stability check of C2 makes Inj(R, S)
        once per F-class of subgroups."""
        _, system, _, X = ambient_c2
        firsts = [skey for skey, _ in injective_class_counts(system)]
        made = []

        def counting_homs(G, gens, H, targets):
            made.append(G.closure(gens))
            return injective_homs(G, gens, H, targets)

        monkeypatch.setattr("automizer.biset.injective_homs", counting_homs)
        ok, rep = verify_stability(system, X, context=DiagonalContext(system))
        assert ok and rep["checked_classes"] == 16019
        assert made == firsts and len(set(made)) == 56
