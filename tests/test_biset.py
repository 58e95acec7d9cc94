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

import pytest
from hypothesis import given, settings, strategies as st

from automizer.biset import (
    Diagonal,
    DiagonalContext,
    OrbitRecord,
    SemicharacteristicBiset,
    build_semicharacteristic,
    check_orbit_predictions,
    orbit_from_payload,
    orbit_payload,
    outer_class_representatives,
    verify_generated,
    move_diagonal,
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
)
from automizer.fusion import all_injective_homs
from automizer.testkit import append_free_orbits, center, exhaustive_class_marks


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
        for rec in X.orbits:
            for d in diags:
                assert ctx.mark_orbit(rec.source, rec.images, d) == literal_mark(
                    G, rec.source, rec.images, d.source, d.images
                )

    def test_d8_inner_sample(self):
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        ctx = DiagonalContext(system)
        full = tuple(range(8))
        for skey in system.lattice.keys:
            for m in system.hom_set(skey)[:3]:
                d = Diagonal(skey, m.images)
                assert ctx.mark_orbit(full, full, d) == literal_mark(
                    G, full, full, skey, m.images
                )

    def test_ambient_sample(self, ambient_c2):
        S, system, ctx, X = ambient_c2
        full = tuple(range(32))
        samples = [Diagonal(full, full), Diagonal((0,), (0,))]
        klein = next(k for k in system.lattice.keys if len(k) == 4)
        samples += [Diagonal(klein, m.images) for m in system.hom_set(klein)[:2]]
        for rec in X.orbits[:3] + X.orbits[-2:]:
            for d in samples:
                assert ctx.mark_orbit(rec.source, rec.images, d) == literal_mark(
                    S, rec.source, rec.images, d.source, d.images
                )


class TestIdentityOrbitMark:
    def test_mark_at_full_twists_is_center_order(self, ambient_c2):
        S, system, ctx, _ = ambient_c2
        full = tuple(range(32))
        z = len(center(S))
        # every fusion automorphism of this S is inner, so the mark is |Z(S)|
        for alpha in system.aut(full):
            assert ctx.mark_orbit(full, full, Diagonal(full, alpha.images)) == z

    def test_outer_twists_get_mark_zero(self, klein3):
        G, system, ctx, _ = klein3
        full = (0, 1, 2, 3)
        for alpha in system.aut(full):
            expected = 4 if alpha.is_identity else 0
            assert ctx.mark_orbit(full, full, Diagonal(full, alpha.images)) == expected

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
        assert len(reps) == 3 and reps[0].is_identity
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
        _, system, _, _ = ambient_c2
        with pytest.raises(ScaleError) as exc:
            build_semicharacteristic(system, max_n=16)
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
            assert all(ctx.mark_biset(Y, d) == 0 for d in outside)

    def test_ambient_verdict_agrees_and_marks_vanish_outside_f(self, ambient_c2):
        _, system, ctx, X = ambient_c2
        ok, rep = verify_stability(system, X, context=ctx)
        table = exhaustive_class_marks(system, X, context=ctx)
        assert ok and all(len(set(marks)) == 1 for _, marks in table)
        outside = [marks for d, marks in table if not system.contains(d)]
        assert len(outside) == 552
        assert all(mark == 0 for marks in outside for mark in marks)


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
        assert ctx.mark_biset(X, d) == ctx.mark_biset(X, move_diagonal(G, d, x, y))

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
        assert ctx.mark_biset(X, d) == ctx.mark_biset(X, move_diagonal(S, d, x, y))
