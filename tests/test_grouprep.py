"""Table-group machinery and the semidirect ambient group, checked against
independent oracles: hand-counted lattice sizes, brute-force scans recomputed
inline, and a join-closure completeness certificate for subgroup enumeration."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from automizer.grouprep import (
    FiniteGroup,
    InputGroupA,
    ScaleError,
    SGroup,
    Subgroup,
    are_isomorphic,
    automorphisms_of,
    build_S,
    catalog_group,
    enumerate_subgroups,
    find_isomorphism,
    homocyclic_rank2,
    injective_homs,
    injective_images,
    load_table_file,
    _word_map,
)
from automizer.permcore import parse_cycles
from testkit import Permutation, Z_subgroup, center, corpus, decode, fixed_subgroup


# -- independent oracles -------------------------------------------------------


def oracle_closure(table, seed):
    """Subgroup generated by seed, recomputed by saturating products."""
    cur = set(seed) | {0}
    while True:
        new = {table[a][b] for a in cur for b in cur}
        if new <= cur:
            return tuple(sorted(cur))
        cur |= new


def is_abelian(G):
    return all(G.mul(a, b) == G.mul(b, a) for a in range(G.order) for b in range(a))


def whole(G):
    """The whole group as a subgroup with a short generating list."""
    return G.subgroup(G.minimal_generators())


def assert_subgroup_list_complete(G, subs):
    """Certificate check that a claimed subgroup list is the whole lattice:
    every listed set is closed, all are distinct, the trivial group is there,
    and the list is stable under joining any member with any element.  Any
    subgroup is reached from the trivial one by adjoining generators one at a
    time, so stability implies completeness."""
    keys = {s.elements for s in subs}
    assert len(keys) == len(subs)
    assert (0,) in keys
    for s in subs:
        assert oracle_closure(G.table, s.elements) == s.elements
        for g in range(G.order):
            assert G.closure(s.elements + (g,)) in keys


def per_element_subgroups(G, max_count=None):
    """all_subgroups written out with one closure per element outside each
    known subgroup, not one per right coset."""
    found = {(0,): ()}
    queue = [(0,)]
    for elems in queue:
        base_gens = found[elems]
        for g in range(1, G.order):
            if g in elems:
                continue
            gens = tuple(sorted(set(base_gens) | {g}))
            new = G.closure(gens)
            if new not in found:
                found[new] = gens
                if max_count is not None and len(found) > max_count:
                    raise ScaleError("max_subgroups", max_count, len(found))
                queue.append(new)
    subs = [Subgroup(elems, gens) for elems, gens in found.items()]
    subs.sort(key=lambda h: (h.order, h.elements))
    return subs


# hand-counted lattice sizes
KNOWN_SUBGROUP_COUNTS = {
    "C2xC2": 5,
    "S3": 6,
    "D8": 10,
    "Q8": 6,
    "C12": 6,
    "S4": 30,
}


class TestCatalog:
    def test_orders(self):
        for name, order in [
            ("1", 1), ("C2", 2), ("C6", 6), ("D8", 8), ("S3", 6),
            ("S4", 24), ("Q8", 8), ("C2xC2", 4), ("C3xC3", 9), ("C2xC3", 6),
        ]:
            assert catalog_group(name).order == order

    def test_identity_is_zero(self):
        for name in ["C5", "D12", "S4", "Q8", "C2xC2xC2"]:
            G = catalog_group(name)
            assert G.table[0] == list(range(G.order))

    def test_abelianness(self):
        assert is_abelian(catalog_group("C6"))
        assert is_abelian(catalog_group("C2xC2"))
        assert not is_abelian(catalog_group("S3"))
        assert not is_abelian(catalog_group("D8"))
        assert not is_abelian(catalog_group("Q8"))

    def test_q8_has_unique_involution(self):
        Q8 = catalog_group("Q8")
        invs = [x for x in range(8) if x != 0 and Q8.mul(x, x) == 0]
        assert len(invs) == 1

    def test_exponents(self):
        assert catalog_group("S3").exponent() == 6
        assert catalog_group("Q8").exponent() == 4
        assert catalog_group("C2xC2").exponent() == 2
        assert catalog_group("C12").exponent() == 12

    def test_c2xc3_is_c6(self):
        assert are_isomorphic(catalog_group("C2xC3"), catalog_group("C6"))

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            catalog_group("S5")
        with pytest.raises(ValueError):
            catalog_group("F20")
        with pytest.raises(ValueError):
            catalog_group("D7")

    @pytest.mark.parametrize("name, order", [("C600", 600), ("D600", 600), ("C2xC300", 600), ("C3xC3xC60", 540)])
    def test_refuses_orders_past_the_table_bound(self, name, order):
        with pytest.raises(ScaleError) as exc:
            catalog_group(name)
        assert (exc.value.bound_name, exc.value.bound_value, exc.value.actual) == ("table_validation_order", 512, order)

    def test_largest_catalog_order_within_the_table_bound(self):
        assert catalog_group("C2xC256").order == 512

    def test_validation_passes_catalog(self):
        for name in ["S3", "D8", "Q8", "C2xC2"]:
            G = catalog_group(name)
            FiniteGroup(G.table, validate=True)


class TestSubgroups:
    @pytest.mark.parametrize("name,count", sorted(KNOWN_SUBGROUP_COUNTS.items()))
    def test_counts_match_hand_oracle(self, name, count):
        G = catalog_group(name)
        subs = G.all_subgroups()
        assert len(subs) == count
        assert_subgroup_list_complete(G, subs)

    def test_from_permutations_a4(self):
        A4, elems = FiniteGroup.from_permutations(
            [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)]
        )
        assert A4.order == 12
        assert Permutation(elems[0]).is_identity()
        subs = A4.all_subgroups()
        assert len(subs) == 10
        assert_subgroup_list_complete(A4, subs)

    def test_from_permutations_matches_catalog_s4(self):
        S4p, _ = FiniteGroup.from_permutations(
            [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
        )
        assert S4p.order == 24
        assert are_isomorphic(S4p, catalog_group("S4"))

    def test_max_count_cap(self):
        with pytest.raises(ScaleError) as exc:
            catalog_group("S4").all_subgroups(max_count=10)
        assert (exc.value.bound_name, exc.value.bound_value) == ("max_subgroups", 10)

    def test_enumerate_order_cap(self):
        with pytest.raises(ScaleError) as exc:
            enumerate_subgroups(catalog_group("S4"), max_order=20)
        assert exc.value.bound_name == "max_subgroup_order"

    def test_normalizer_against_brute(self):
        G = catalog_group("D8")
        for gens in [(2,), (1,), (2, 1)]:
            H = G.subgroup(gens)
            norm = {g for g in range(8) if {G.conj(g, x) for x in H.elements} == set(H.elements)}
            assert set(G.normalizer(H).elements) == norm

    @pytest.mark.parametrize("name", ["1", "C2", "C6", "D8", "S3", "S4", "Q8", "C2xC2", "C3xC3", "S(C2)"])
    def test_np_conj_matches_conj(self, name):
        G = build_S(InputGroupA.from_name("C2")) if name == "S(C2)" else catalog_group(name)
        expect = [[G.conj(y, t) for t in range(G.order)] for y in range(G.order)]
        assert G.np_conj.tolist() == expect

    def test_center_and_derived(self):
        assert len(center(catalog_group("D8"))) == 2
        assert len(center(catalog_group("Q8"))) == 2
        assert len(center(catalog_group("S3"))) == 1
        assert catalog_group("S3").commutator_subgroup().order == 3
        assert catalog_group("D8").commutator_subgroup().order == 2
        assert catalog_group("Q8").commutator_subgroup().order == 2
        assert catalog_group("S4").commutator_subgroup().order == 12

    def test_join_and_intersect(self):
        G = catalog_group("D8")
        r2 = G.subgroup([2])
        refl = G.subgroup([1])
        assert G.join(r2, refl).order == 8 or G.join(r2, refl).order == 4
        assert set(r2.elements) & set(refl.elements) == {0}

    def test_subgroup_requires_sorted(self):
        with pytest.raises(ValueError):
            Subgroup((1, 0), ())


class TestAutomorphisms:
    def test_aut_klein_four_is_6(self):
        G = catalog_group("C2xC2")
        autos = automorphisms_of(G, whole(G))
        assert len(autos) == 6

    def test_aut_c3xc3_is_48(self):
        G = catalog_group("C3xC3")
        autos = automorphisms_of(G, whole(G))
        assert len(autos) == 48

    def test_aut_c4_is_2(self):
        G = catalog_group("C4")
        autos = automorphisms_of(G, whole(G))
        assert len(autos) == 2

    def test_aut_trivial(self):
        G = catalog_group("1")
        assert automorphisms_of(G, whole(G)) == [{0: 0}]

    def test_generators_must_generate(self):
        G = catalog_group("C2xC2")
        with pytest.raises(ValueError, match="generating set"):
            automorphisms_of(G, Subgroup((0, 1, 2, 3), (1,)))

    def test_autos_are_automorphisms(self):
        G = catalog_group("C2xC2")
        V = whole(G)
        for table in automorphisms_of(G, V):
            assert sorted(table.values()) == list(V.elements)
            for a in V.elements:
                for b in V.elements:
                    assert table[G.mul(a, b)] == G.mul(table[a], table[b])

    def test_find_isomorphism_negative(self):
        assert find_isomorphism(catalog_group("C4"), catalog_group("C2xC2")) is None
        assert find_isomorphism(catalog_group("D8"), catalog_group("Q8")) is None

    def test_find_isomorphism_positive_is_isomorphism(self):
        G1 = catalog_group("C6")
        G2 = catalog_group("C3xC2")
        iso = find_isomorphism(G1, G2)
        assert iso is not None
        for a in range(6):
            for b in range(6):
                assert iso[G1.mul(a, b)] == G2.mul(iso[a], iso[b])


class TestTableFile:
    def test_round_trip_with_shifted_identity(self, tmp_path):
        # C3 written with identity at index 2
        relabeled = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        path = tmp_path / "c3.txt"
        path.write_text("3\n" + "\n".join(" ".join(map(str, row)) for row in relabeled))
        G = load_table_file(str(path))
        assert G.order == 3
        assert are_isomorphic(G, catalog_group("C3"))

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 2 1 2")
        with pytest.raises(ValueError):
            load_table_file(str(path))

    def test_rejects_non_associative(self, tmp_path):
        # rows and columns are permutations with a two-sided identity, but
        # (1*1)*2 != 1*(1*2) in this table
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        path = tmp_path / "nonassoc.txt"
        path.write_text("5\n" + "\n".join(" ".join(map(str, row)) for row in table))
        with pytest.raises(ValueError):
            load_table_file(str(path))

    def test_rejects_no_identity(self, tmp_path):
        path = tmp_path / "noident.txt"
        path.write_text("2\n1 0 1 0")
        with pytest.raises(ValueError):
            load_table_file(str(path))


class TestSGroup:
    def test_trivial_input(self):
        S = build_S(InputGroupA.from_name("1"))
        assert S.order == 1
        assert S.e == 1

    def test_c2_order_32(self):
        S = build_S(InputGroupA.from_name("C2"))
        assert S.order == 32
        assert S.e == 2
        assert S.u_order == 16
        assert S.rank == 4

    def test_c3_order_2187(self):
        S = build_S(InputGroupA.from_name("C3"))
        assert S.order == 2187
        # spot-check associativity on a seeded sample
        rng = random.Random(7)
        for _ in range(2000):
            a, b, c = (rng.randrange(2187) for _ in range(3))
            assert S.mul(S.mul(a, b), c) == S.mul(a, S.mul(b, c))

    def test_scale_rejection_before_allocation(self):
        with pytest.raises(ScaleError) as exc:
            build_S(InputGroupA.from_name("S3"))
        assert exc.value.bound_name == "max_subgroup_order"
        assert exc.value.actual == 6 ** 12 * 6

    def test_huge_needed_value_prints_as_a_digit_count(self):
        with pytest.raises(ScaleError) as exc:
            build_S(InputGroupA.from_name("C200"))
        assert exc.value.actual == 200 ** 400 * 200
        assert str(exc.value) == "scale bound max_subgroup_order=4096 exceeded (needed a 923-digit number)"

    @pytest.mark.parametrize(
        "actual, text",
        [(10 ** 30 - 1, str(10 ** 30 - 1)), (10 ** 30, "a 31-digit number"), (10 ** 6003, "a 6004-digit number")],
        ids=["30 digits", "31 digits", "6004 digits"],
    )
    def test_needed_value_text(self, actual, text):
        exc = ScaleError("bound", 1, actual)
        assert exc.actual == actual
        assert str(exc) == "scale bound bound=1 exceeded (needed %s)" % text

    def test_codec_round_trip(self):
        S = build_S(InputGroupA.from_name("C2"))
        for idx in range(32):
            vec, a = decode(S, idx)
            assert S.encode(vec, a) == idx

    def test_multiplication_law_against_inline_oracle(self):
        # (u, a)(v, b) = (u + a.v, ab) recomputed from scratch on every pair
        A = InputGroupA.from_name("C2")
        S = build_S(A)
        for i in range(32):
            u, a = decode(S, i)
            for j in range(32):
                v, b = decode(S, j)
                acted = [v[S.coord_perm[a][c]] for c in range(4)]
                expect_vec = tuple((u[c] + acted[c]) % 2 for c in range(4))
                expect = S.encode(expect_vec, A.group.mul(a, b))
                assert S.mul(i, j) == expect

    def test_action_free_on_coordinates(self):
        for name in ["C2", "C3"]:
            S = build_S(InputGroupA.from_name(name))
            for a in range(1, S.A.order):
                assert all(S.coord_perm[a][c] != c for c in range(S.rank))

    def test_inverse_and_random_properties(self):
        S = build_S(InputGroupA.from_name("C2"))
        rng = random.Random(11)
        for _ in range(10000):
            i, j, k = (rng.randrange(32) for _ in range(3))
            assert S.mul(S.mul(i, j), k) == S.mul(i, S.mul(j, k))
            assert S.mul(i, S.inv(i)) == 0
            assert S.mul(S.inv(i), i) == 0

    def test_distinguished_subgroups(self):
        S = build_S(InputGroupA.from_name("C2"))
        U = S.U_subgroup()
        assert U.order == 16
        assert S.closure(U.generators) == U.elements
        fixed = fixed_subgroup(S)
        assert fixed.order == 4
        z1, z2 = Z_subgroup(S, 0), Z_subgroup(S, 1)
        assert z1.order == 2 and z2.order == 2
        assert set(z1.elements) & set(z2.elements) == {0}
        assert S.join(z1, z2).elements == fixed.elements
        # fixed vectors commute with everything here: center equals C_U(A)
        assert center(S) == fixed.elements

    def test_derived_subgroup_matches_brute(self):
        S = build_S(InputGroupA.from_name("C2"))
        brute = {S.commutator(a, b) for a in range(32) for b in range(32)}
        derived = S.commutator_subgroup()
        assert set(S.closure(brute)) == set(derived.elements)
        assert derived.elements == fixed_subgroup(S).elements

    def test_subgroup_lattice_complete(self):
        S = build_S(InputGroupA.from_name("C2"))
        subs = enumerate_subgroups(S)
        assert_subgroup_list_complete(S, subs)
        orders = {h.order for h in subs}
        assert orders == {1, 2, 4, 8, 16, 32}


class TestCosetSearch:
    """all_subgroups closes one element per right coset of each known
    subgroup; it must find the per-element search's subgroups, with the same
    recorded generators, and meet its scale bound at the same count."""

    @staticmethod
    def assert_same(G):
        got = [(h.elements, h.generators) for h in G.all_subgroups()]
        assert got == [(h.elements, h.generators) for h in per_element_subgroups(G)]

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_corpus_subgroups(self, pair):
        self.assert_same(FiniteGroup.from_permutations([p.images for p in pair.subgroup_generators()])[0])

    @pytest.mark.parametrize("name", sorted(KNOWN_SUBGROUP_COUNTS))
    def test_catalog(self, name):
        self.assert_same(catalog_group(name))

    def test_a4_and_the_c2_ambient(self):
        self.assert_same(
            FiniteGroup.from_permutations([parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])[0]
        )
        self.assert_same(build_S(InputGroupA.from_name("C2")))

    @pytest.mark.parametrize("max_count", [1, 5, 29, 30])
    def test_same_scale_error_as_per_element(self, max_count):
        G = catalog_group("S4")
        outcomes = []
        for search in (G.all_subgroups, lambda max_count: per_element_subgroups(G, max_count)):
            try:
                outcomes.append(len(search(max_count=max_count)))
            except ScaleError as exc:
                outcomes.append((exc.bound_name, exc.bound_value, exc.actual))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (30 if max_count == 30 else ("max_subgroups", max_count, max_count + 1))

    def test_c2_ambient_closure_count(self, monkeypatch):
        """745 closures on S(C2), not one per element outside each of the
        106 subgroups (2,773)."""
        S = build_S(InputGroupA.from_name("C2"))
        calls = []
        closure = S.closure
        monkeypatch.setattr(S, "closure", lambda seed: calls.append(seed) or closure(seed))
        assert len(S.all_subgroups()) == 106
        assert len(calls) == 745
        calls.clear()
        per_element_subgroups(S)
        assert len(calls) == 2773


class TestHomocyclic:
    def test_klein_count_in_ambient_c2(self):
        S = build_S(InputGroupA.from_name("C2"))
        subs = enumerate_subgroups(S)
        vees = homocyclic_rank2(S, subs)
        # independent oracle: commuting involution pairs generating a four-group
        seen = set()
        for g in range(1, 32):
            if S.mul(g, g) != 0:
                continue
            for h in range(g + 1, 32):
                if S.mul(h, h) != 0 or S.mul(g, h) != S.mul(h, g):
                    continue
                elems = S.closure([g, h])
                if len(elems) == 4:
                    seen.add(elems)
        assert len(vees) == len(seen) == 41
        assert {v.elements for v in vees} == seen

    def test_each_v_has_generating_pair(self):
        S = build_S(InputGroupA.from_name("C2"))
        for v in homocyclic_rank2(S, enumerate_subgroups(S)):
            g, h = v.generators
            assert S.element_order(g) == 2 and S.element_order(h) == 2
            assert S.closure([g, h]) == v.elements

    def test_aut_of_each_v_has_order_6(self):
        S = build_S(InputGroupA.from_name("C2"))
        vees = homocyclic_rank2(S, enumerate_subgroups(S))
        for v in vees[:8]:
            assert len(automorphisms_of(S, v)) == 6

    def test_order_and_exponent_alone_do_not_make_c_e_squared(self):
        """At e = 4 an abelian group of order e^2 and exponent e is C4 x C4
        or C4 x C2 x C2.  The seven subgroups of index 2 in C4 x C4 x C2 are
        the kernels of its seven maps onto C2: four are C4 x C4, with 4
        elements of order at most 2, and three are C4 x C2 x C2, with 8.
        Only the C4 x C4 have a splitting pair."""
        G = catalog_group("C4xC4xC2")
        G.e = 4
        subs = G.all_subgroups()
        candidates = [
            sub.elements
            for sub in subs
            if sub.order == 16 and max(G.element_order(x) for x in sub.elements) == 4
        ]
        squares = {elems: sum(G.mul(x, x) == 0 for x in elems) for elems in candidates}
        vees = homocyclic_rank2(G, subs)
        assert sorted(squares.values()) == [4] * 4 + [8] * 3
        assert [v.elements for v in vees] == [elems for elems in candidates if squares[elems] == 4]
        for v in vees:
            assert G.closure(list(v.generators)) == v.elements

    def test_fixed_subgroup_is_homocyclic_member(self):
        S = build_S(InputGroupA.from_name("C2"))
        keys = {v.elements for v in homocyclic_rank2(S, enumerate_subgroups(S))}
        assert fixed_subgroup(S).elements in keys


class TestInputGroupA:
    def test_exponents(self):
        assert InputGroupA.from_name("C2").e == 2
        assert InputGroupA.from_name("C2xC2").e == 2
        assert InputGroupA.from_name("S3").e == 6
        assert InputGroupA.from_name("1").e == 1

    def test_order_property(self):
        assert InputGroupA.from_name("Q8").order == 8


@st.composite
def small_group(draw):
    name = draw(st.sampled_from(["C2", "C3", "C4", "C6", "S3", "D8", "Q8", "C2xC2"]))
    return catalog_group(name)


class TestProperties:
    @given(small_group(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_power_order(self, G, seed):
        x = seed % G.order
        o = G.element_order(x)
        assert G.product([x] * o) == 0
        assert all(G.product([x] * k) != 0 for k in range(1, o))

    @given(small_group(), st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_is_automorphism(self, G, s1, s2):
        g, x = s1 % G.order, s2 % G.order
        y = (s1 + s2) % G.order
        assert G.conj(g, G.mul(x, y)) == G.mul(G.conj(g, x), G.conj(g, y))

    @given(small_group(), st.sets(st.integers(0, 23), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_closure_idempotent(self, G, seed):
        seed = {x % G.order for x in seed}
        c1 = G.closure(seed)
        assert G.closure(c1) == c1
        assert c1 == oracle_closure(G.table, seed)


def row_major_injective_homs(G, gens, H, targets):
    """The generator-image search as it was written on row-major tables, one
    row per map and one 2-D fancy index per product."""
    words = _word_map(G, gens)
    pos = {x: i for i, x in enumerate(sorted(words))}
    steps = [
        (pos[x], pos[G.product(gens[gi] for gi in w[:-1])], w[-1]) for x, w in words.items() if w
    ]
    built = {(prefix, gi) for _, prefix, gi in steps}
    checks = [
        (pos[x], pos[G.mul(x, g)], gi)
        for x in words
        for gi, g in enumerate(gens)
        if (pos[x], gi) not in built
    ]
    ht = H.np_tables[0]
    horder = np.array([H.element_order(y) for y in range(H.order)])
    targets = np.fromiter(targets, dtype=np.int32)
    images = np.zeros((1, 0), dtype=np.int32)
    for k, g in enumerate(gens):
        cands = targets[horder[targets] == G.element_order(g)]
        images = np.column_stack(
            (np.repeat(images, len(cands), axis=0), np.tile(cands, len(images)))
        )
        keep = np.ones(len(images), dtype=bool)
        for i in range(k):
            keep &= horder[ht[images[:, i], images[:, k]]] == G.element_order(G.mul(gens[i], g))
        images = images[keep]
    table = np.zeros((len(images), len(pos)), dtype=np.int32)
    for x, prefix, gi in steps:
        table[:, x] = ht[table[:, prefix], images[:, gi]]
    keep = (table[:, 1:] != 0).all(axis=1)
    for x, xg, gi in checks:
        keep &= table[:, xg] == ht[table[:, x], images[:, gi]]
    return table[keep]


class TestColumnMajorKernel:
    """injective_homs works column-major with flat takes; it must give the
    row-major loop's rows, in the same order, as C-contiguous int32 rows (an
    intp table would grow the C2 verify peak by several megabytes)."""

    @staticmethod
    def assert_same_rows(G, subgroups):
        for sub in subgroups:
            gens = list(sub.generators)
            for targets in (range(G.order), sub.elements):
                got = injective_homs(G, gens, G, targets)
                want = row_major_injective_homs(G, gens, G, targets)
                assert got.dtype == np.int32 and got.flags["C_CONTIGUOUS"]
                assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_corpus_subgroups(self, pair):
        S0, _ = FiniteGroup.from_permutations([p.images for p in pair.subgroup_generators()])
        self.assert_same_rows(S0, S0.all_subgroups())

    def test_c2_ambient_subgroups(self):
        S = build_S(InputGroupA.from_name("C2"))
        subs = enumerate_subgroups(S)
        assert len(subs) == 106
        self.assert_same_rows(S, subs)
        rows = injective_images(S, subs[-1], range(S.order))
        assert rows.dtype == np.int32 and rows.flags["C_CONTIGUOUS"] and len(rows) > 1

    def test_no_target_of_the_right_order(self):
        G = catalog_group("C4")
        gens = list(G.minimal_generators())
        got = injective_homs(G, gens, G, [0, 2])
        assert got.shape == (0, 4) and got.dtype == np.int32
        assert got.shape == row_major_injective_homs(G, gens, G, [0, 2]).shape
