"""Table-group machinery and the semidirect ambient group, checked against
independent oracles: hand-counted lattice sizes, brute-force scans recomputed
inline, and a join-closure completeness certificate for subgroup enumeration."""

import random

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
    load_table_file,
)
from automizer.permcore import parse_cycles
from automizer.testkit import Z_subgroup, center, decode, fixed_subgroup


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
        assert elems[0].is_identity()
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
        assert exc.value.bound_name == "max_subgroups"

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
