"""Tests for the brute-force oracles themselves.

The corpus equivalence here is the load-bearing one: ambient-conjugation
fusion computed by enumerating every c_g on every subgroup must coincide with
the axiom closure of the maximal-domain conjugation generators, pair by pair.
The marks oracle is checked against the transporter formula, and the
corruption harness against a real certificate."""

import json

import pytest

from automizer import realize
from automizer.biset import (
    DiagonalContext,
    OrbitRecord,
    SemicharacteristicBiset,
    build_semicharacteristic,
)
from automizer.fusion import Morphism, generate
from automizer.grouprep import FiniteGroup, ScaleError, are_isomorphic, catalog_group, permutation_closure
from automizer.realize import Certificate, verify_certificate
from automizer.testkit import (
    PermGroup,
    STANDARD_MUTATIONS,
    abstract_subgroup,
    brute_fusion,
    brute_marks_table,
    conjugation_generators,
    corpus,
    move_diagonal,
    mutation_suite,
    regular_representation,
)


def _pair(name):
    for p in corpus():
        if p.name == name:
            return p
    raise KeyError(name)


@pytest.fixture(scope="module")
def klein3():
    G = catalog_group("C2xC2")
    system = generate(G, G.all_subgroups(), [Morphism((0, 1, 2, 3), (0, 2, 3, 1))])
    ctx = DiagonalContext(system)
    return system, ctx, build_semicharacteristic(system, context=ctx)


@pytest.fixture(scope="module")
def d8_inner():
    G = catalog_group("D8")
    system = generate(G, G.all_subgroups(), [])
    ctx = DiagonalContext(system)
    return system, ctx, build_semicharacteristic(system, context=ctx)


class TestCorpus:
    def test_size_and_distinct_names(self):
        pairs = corpus()
        assert len(pairs) >= 20
        assert len({p.name for p in pairs}) == len(pairs)

    def test_pairs_are_well_formed(self):
        for pair in corpus():
            G0 = pair.group()
            assert G0.order() <= 10 ** 4, pair.name
            elems = set(permutation_closure([p.images for p in G0.generators], G0.degree))
            for g in pair.subgroup_generators():
                assert g.images in elems, pair.name

    def test_abstract_subgroup_identity_first(self):
        table, elems = abstract_subgroup(_pair("S4/D8").subgroup_generators())
        assert table.order == 8
        assert elems[0].is_identity()
        assert len(elems) == 8


class TestBruteFusion:
    def test_matches_axiom_closure_on_every_pair(self):
        for pair in corpus():
            G0 = pair.group()
            gens = pair.subgroup_generators()
            brute = brute_fusion(G0, gens)
            table, conj = conjugation_generators(G0, gens)
            closed = generate(table, table.all_subgroups(), conj)
            assert brute.store == closed.store, pair.name

    def test_a4_klein_automizer_is_c3(self):
        pair = _pair("A4/V4")
        system = brute_fusion(pair.group(), pair.subgroup_generators())
        full = tuple(range(4))
        assert len(system.aut(full)) == 3
        aut_table, _ = system.aut_group_table(full)
        assert are_isomorphic(aut_table, catalog_group("C3"))

    def test_s4_d8_klein_automizers(self):
        # the two Klein fours of D8 see very different ambient normalizers:
        # one gets the full S3, the other only an order-2 automizer
        pair = _pair("S4/D8")
        system = brute_fusion(pair.group(), pair.subgroup_generators())
        G = system.ambient
        kleins = [
            k
            for k in system.lattice.keys
            if len(k) == 4 and all(G.element_order(x) <= 2 for x in k)
        ]
        assert len(kleins) == 2
        assert sorted(len(system.aut(k)) for k in kleins) == [2, 6]
        big = max(kleins, key=lambda k: len(system.aut(k)))
        aut_table, _ = system.aut_group_table(big)
        assert are_isomorphic(aut_table, catalog_group("S3"))

    def test_s4_d8_fuses_central_involution(self):
        pair = _pair("S4/D8")
        gens = pair.subgroup_generators()
        table, _ = abstract_subgroup(gens)
        system = brute_fusion(pair.group(), gens)
        inner = generate(table, table.all_subgroups(), [])
        central = [
            x
            for x in range(1, table.order)
            if all(table.mul(x, y) == table.mul(y, x) for y in range(table.order))
        ]
        assert len(central) == 1
        z = central[0]
        zkey = (0, z)
        assert zkey in system.lattice.by_key
        zpos = zkey.index(z)
        assert {m.images[zpos] for m in inner.hom_set(zkey)} == {z}
        assert len({m.images[zpos] for m in system.hom_set(zkey)}) == 3

    def test_ambient_equal_to_subgroup_gives_inner_fusion(self):
        pair = _pair("A4/A4")
        system = brute_fusion(pair.group(), pair.subgroup_generators())
        table, _ = abstract_subgroup(pair.subgroup_generators())
        inner = generate(table, table.all_subgroups(), [])
        assert system.store == inner.store

    def test_scale_guard(self):
        pair = _pair("S7/Syl2")
        with pytest.raises(ScaleError) as ei:
            brute_fusion(pair.group(), pair.subgroup_generators(), max_order=1000)
        assert ei.value.bound_name == "max_brute_order"
        assert ei.value.actual == 5040

    def test_regular_representation_round_trip(self):
        q8 = catalog_group("Q8")
        perms = regular_representation(q8)
        assert len(perms) == 8 and perms[0].is_identity()
        table, _ = FiniteGroup.from_permutations([p.images for p in perms], name="Q8reg")
        assert are_isomorphic(table, q8)
        G0 = PermGroup(perms)
        brute = brute_fusion(G0, perms)
        t2, conj = conjugation_generators(G0, perms)
        assert brute.store == generate(t2, t2.all_subgroups(), conj).store


class TestBruteMarks:
    def test_free_orbit_counts(self):
        # (S x S)/Delta(1, id) is fixed only by the trivial diagonal, where it
        # contributes |S|^2 cosets
        G = catalog_group("C4")
        system = generate(G, G.all_subgroups(), [])
        X = SemicharacteristicBiset([OrbitRecord((0,), (0,), 1)], 1, 4)
        table = brute_marks_table(system, X)
        for (skey, images), count in table.items():
            assert count == (16 if skey == (0,) else 0)

    def test_agrees_with_transporter_formula(self, klein3):
        system, ctx, X = klein3
        table = brute_marks_table(system, X)
        assert table
        for (skey, images), count in table.items():
            assert count == ctx.marks(X.orbits, [Morphism(skey, images)])[0]

    def test_agrees_on_nonabelian_ambient(self, d8_inner):
        system, ctx, X = d8_inner
        table = brute_marks_table(system, X)
        for (skey, images), count in table.items():
            assert count == ctx.marks(X.orbits, [Morphism(skey, images)])[0]

    def test_constant_on_moved_diagonals(self, d8_inner):
        system, ctx, X = d8_inner
        G = system.ambient
        table = brute_marks_table(system, X)
        moved_any = False
        for skey in system.lattice.keys:
            for phi in system.hom_set(skey):
                base = table[(skey, phi.images)]
                for x in range(G.order):
                    for y in range(G.order):
                        d2 = move_diagonal(G, phi, x, y)
                        moved_any = moved_any or d2 != phi
                        assert table[(d2.source, d2.images)] == base
        assert moved_any

    def test_scale_guard(self, klein3):
        system, _, X = klein3
        assert X.n > 2
        with pytest.raises(ScaleError) as ei:
            brute_marks_table(system, X, max_points=2)
        assert ei.value.bound_name == "max_points"


class TestMutationHarness:
    @pytest.mark.parametrize("name", ["corrupt_witness_base", "corrupt_witness_top", "corrupt_iota_image"])
    def test_witness_mutations_rejected_from_canonical_bytes(self, c2_cert, name):
        """mutation_suite goes through Certificate.from_payload; the same
        corruption written as canonical text goes through the reader that
        holds witnesses and iota_generators entries as arrays, and must be
        rejected at the same stage for the same reason."""
        payload = json.loads(c2_cert.to_json_bytes())
        dict(STANDARD_MUTATIONS)[name](payload)
        data = (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
        read = Certificate.from_json_bytes(data)
        assert all(type(w) is realize._Witness for w in read.embedding["witnesses"])
        assert all(type(w) is realize._IotaImage for w in read.embedding["iota_generators"])
        ok, report = verify_certificate(read)
        assert not ok
        listed_ok, listed = verify_certificate(Certificate.from_payload(payload))
        assert (report["failed_stage"], report["reason"]) == (listed["failed_stage"], listed["reason"])
        assert (ok, report) == (listed_ok, listed)

    def test_mutation_names_are_distinct(self):
        names = [n for n, _ in STANDARD_MUTATIONS]
        assert len(names) == len(set(names)) == 20

    def test_unknown_name_rejected(self, c2_cert):
        with pytest.raises(ValueError, match="unknown mutation"):
            mutation_suite(c2_cert, names=["no_such_mutation"])

    def test_cheap_mutations_all_rejected(self, c2_cert):
        names = [
            "flip_flag",
            "inconsistent_flag",
            "corrupt_input_table",
            "corrupt_n",
            "corrupt_m",
            "forge_construction_report",
        ]
        report = mutation_suite(c2_cert, names=names)
        assert set(report) == set(names) | {"all_rejected"}
        for name in names:
            assert report[name]["rejected"], (name, report[name])
        assert report["all_rejected"]
