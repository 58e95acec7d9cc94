"""Wreath embedding tests.

The independent oracle here is the permutation realization: a wreath element
acts on slot-times-group points, so wreath arithmetic, the embedding, witness
conjugation, and the derived-subgroup membership formula can all be checked
against plain permutation groups at small degree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from automizer.biset import (
    DiagonalContext,
    OrbitRecord,
    SemicharacteristicBiset,
    build_semicharacteristic,
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
from automizer.park import (
    ParkEmbedding,
    WreathElement,
    decompose,
    gamma_prime_member,
    verify_embedding,
    wreath_inverse,
    wreath_multiply,
)
from automizer.permcore import PermGroup, Permutation, identity_perm
from automizer.testkit import base_only, is_member, to_permutation, top_only, verify_all_witnesses


@pytest.fixture(scope="module")
def klein3_pe():
    G = catalog_group("C2xC2")
    subs = G.all_subgroups()
    gen = Morphism((0, 1, 2, 3), (0, 2, 3, 1))
    system = generate(G, subs, [gen])
    X = build_semicharacteristic(system, context=DiagonalContext(system))
    return G, system, X, decompose(system, X)


@pytest.fixture(scope="module")
def ambient_pe():
    S = build_S(InputGroupA.from_name("C2"))
    subs = enumerate_subgroups(S)
    gens = []
    for v in homocyclic_rank2(S, subs):
        for t in automorphisms_of(S, v):
            gens.append(Morphism(v.elements, tuple(t[x] for x in v.elements)))
    system = generate(S, subs, gens)
    X = build_semicharacteristic(system, context=DiagonalContext(system))
    return S, system, X, decompose(system, X)


def random_element(rng, G, n):
    base = rng.integers(0, G.order, size=n)
    top = rng.permutation(n)
    return WreathElement(G, base, top)


class TestArithmetic:
    def test_identity_and_inverse(self):
        G = catalog_group("S3")
        rng = np.random.default_rng(7)
        e = WreathElement.identity(G, 6)
        for _ in range(50):
            a = random_element(rng, G, 6)
            assert a * a.inverse() == e
            assert a.inverse() * a == e
            assert a * e == a and e * a == a

    def test_associativity(self):
        G = catalog_group("S3")
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (random_element(rng, G, 5) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_base_only_multiplies_componentwise(self):
        G = catalog_group("S3")
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.integers(0, 6, size=4)
            y = rng.integers(0, 6, size=4)
            a = WreathElement(G, x, np.arange(4))
            b = WreathElement(G, y, np.arange(4))
            prod = a * b
            assert list(prod.top) == [0, 1, 2, 3]
            assert [G.mul(int(p), int(q)) for p, q in zip(x, y)] == list(prod.base)

    def test_top_only_subgroup(self):
        G = catalog_group("S3")
        p = Permutation((1, 2, 0, 3, 4))
        q = Permutation((0, 1, 2, 4, 3))
        assert top_only(G, p) * top_only(G, q) == top_only(G, p * q)
        assert top_only(G, p).top_perm() == p

    def test_degree_mismatch_rejected(self):
        G = catalog_group("S3")
        with pytest.raises(ValueError):
            wreath_multiply(WreathElement.identity(G, 3), WreathElement.identity(G, 4))

    def test_validation(self):
        G = catalog_group("S3")
        with pytest.raises(ValueError):
            WreathElement(G, [0, 0], [1, 1], validate=True)
        with pytest.raises(ValueError):
            WreathElement(G, [0, 9], [1, 0], validate=True)

    def test_permutation_realization_is_a_homomorphism(self):
        G = catalog_group("S3")
        rng = np.random.default_rng(23)
        for _ in range(40):
            a = random_element(rng, G, 5)
            b = random_element(rng, G, 5)
            assert to_permutation(a * b) == to_permutation(a) * to_permutation(b)
        assert to_permutation(WreathElement.identity(G, 5)).is_identity()

    def test_permutation_realization_degree_guard(self):
        G = catalog_group("S3")
        with pytest.raises(ScaleError):
            to_permutation(WreathElement.identity(G, 5), max_degree=12)

    def test_slotwise_commutator_identity(self):
        # [e_j(s)e_i(s)^-1, e_k(t^-1)e_j(t^-1)^-1] = e_j([s,t]) for i,j,k consecutive
        G = catalog_group("S3")
        n = 5
        rng = np.random.default_rng(5)

        def comm(a, b):
            return a * b * a.inverse() * b.inverse()

        for _ in range(40):
            s = int(rng.integers(0, 6))
            t = int(rng.integers(0, 6))
            i = int(rng.integers(0, n))
            j, k = (i + 1) % n, (i + 2) % n
            left = comm(
                base_only(G, n, {j: s, i: G.inv(s)}),
                base_only(G, n, {k: G.inv(t), j: t}),
            )
            assert left == base_only(G, n, {j: G.mul(G.mul(s, t), G.inv(G.mul(t, s)))})


@pytest.fixture(scope="module")
def gamma():
    G = catalog_group("S3")
    n = 5
    gens = [base_only(G, n, {0: s}) for s in (1, 2, 3, 4, 5)]
    gens += [top_only(G, Permutation((1, 2, 3, 4, 0))), top_only(G, Permutation((1, 0, 2, 3, 4)))]
    group = PermGroup([to_permutation(g) for g in gens])
    return G, n, gens, group


class TestDerivedSubgroupOracle:
    """Brute-force comparison at S = S3, n = 5, permutation degree 30."""

    def test_whole_wreath_order(self, gamma):
        G, n, gens, group = gamma
        assert group.order() == 6 ** 5 * 120

    def test_derived_subgroup_order_and_perfection(self, gamma):
        G, n, gens, group = gamma
        derived = group.derived_subgroup()
        assert derived.order() == 233280  # (6^4 * 3) * 60
        assert derived.derived_subgroup().order() == 233280

    def test_membership_formula_matches_chain(self, gamma):
        G, n, gens, group = gamma
        derived = group.derived_subgroup()
        sprime = G.commutator_subgroup()
        rng = np.random.default_rng(17)
        agree = 0
        hits = 0
        for _ in range(1000):
            el = random_element(rng, G, n)
            by_formula = gamma_prime_member(el, sprime)
            by_chain = is_member(derived, to_permutation(el))
            assert by_formula == by_chain
            agree += 1
            hits += by_formula
        assert agree == 1000
        assert 0 < hits < 1000

    def test_base_commutators_generate_product_kernel(self, gamma):
        G, n, gens, group = gamma
        sprime = G.commutator_subgroup()
        tops = [g for g in gens if g.base.max() == 0]
        bases = [g for g in gens if g.base.any()]
        seeds = []
        for k in tops:
            for b in bases:
                seeds.append(to_permutation(k * b * k.inverse() * b.inverse()))
        kernel = group.normal_closure(seeds)
        # kernel of the component-product map B -> S/S'
        assert kernel.order() == 6 ** 4 * 3
        rng = np.random.default_rng(29)
        for _ in range(200):
            el = random_element(rng, G, n)
            el = WreathElement(G, el.base, np.arange(n))
            acc = 0
            for v in el.base:
                acc = G.mul(acc, int(v))
            assert is_member(kernel, to_permutation(el)) == (acc in sprime.element_set)

    def test_membership_requires_n_at_least_5(self):
        G = catalog_group("S3")
        with pytest.raises(ValueError):
            gamma_prime_member(WreathElement.identity(G, 4), G.commutator_subgroup())

    def test_odd_top_rejected(self, gamma):
        G, n, gens, group = gamma
        swap = top_only(G, Permutation((1, 0, 2, 3, 4)))
        assert not gamma_prime_member(swap, G.commutator_subgroup())
        assert gamma_prime_member(WreathElement.identity(G, n), G.commutator_subgroup())


class TestSmallEmbedding:
    def test_embedding_is_injective_hom(self, klein3_pe):
        G, system, X, pe = klein3_pe
        assert pe.n == 3
        ok, rep = verify_embedding(pe)
        assert ok, rep
        assert rep["exhaustive"]

    def test_iota_against_permutation_action(self, klein3_pe):
        G, system, X, pe = klein3_pe
        for u in range(4):
            for v in range(4):
                assert to_permutation(pe.iota(u)) * to_permutation(pe.iota(v)) == to_permutation(
                    pe.iota(G.mul(u, v))
                )

    def test_witnesses_small(self, klein3_pe):
        G, system, X, pe = klein3_pe
        ok, rep = verify_all_witnesses(pe)
        assert ok, rep
        assert rep["checked"] == sum(len(b) for b in system.store.values())

    def test_witness_conjugation_at_permutation_level(self, klein3_pe):
        G, system, X, pe = klein3_pe
        full = (0, 1, 2, 3)
        rho = Morphism(full, (0, 2, 3, 1))
        g = pe.witness(rho)
        gp = to_permutation(g)
        for u in range(4):
            lhs = gp * to_permutation(pe.iota(u)) * gp.inverse()
            assert lhs == to_permutation(pe.iota(rho.images[u]))

    def test_identity_morphism_has_identity_witness(self, klein3_pe):
        G, system, X, pe = klein3_pe
        for skey in system.lattice.keys:
            g = pe.witness(Morphism(skey, skey))
            assert g.is_identity()

    def test_membership_guard_below_degree_5(self, klein3_pe):
        G, system, X, pe = klein3_pe
        with pytest.raises(ValueError):
            gamma_prime_member(pe.iota(1), G.commutator_subgroup())

    def test_one_orbit_biset_lands_in_base(self):
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        full = tuple(range(8))
        X = SemicharacteristicBiset([OrbitRecord(full, full, 1)], 1, 1)
        pe = decompose(system, X)
        assert pe.n == 1
        assert pe.top_trivial_set() == list(range(8))
        ok, rep = verify_embedding(pe)
        assert ok, rep  # Q(F) of the inner system is all of S

    def test_exact_check_above_order_64_rejects_corrupted_iota(self):
        # order 128 is past any exhaustive-pairs cutoff; the generator check
        # is exact there too
        G = catalog_group("C128")
        system = generate(G, G.all_subgroups(), [])
        full = tuple(range(128))
        X = SemicharacteristicBiset([OrbitRecord(full, full, 1)], 1, 1)
        ok, rep = verify_embedding(decompose(system, X))
        assert ok and rep["homomorphism"] and rep["exhaustive"], rep
        pe = decompose(system, X)
        pe._iota[77] = WreathElement(G, [78], [0])
        ok, rep = verify_embedding(pe)
        assert not ok
        assert not rep["homomorphism"]

    def test_missing_identity_orbit_rejected(self):
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        X = SemicharacteristicBiset([OrbitRecord((0, 4), (0, 4), 1)], 1, 4)
        with pytest.raises(ValueError):
            decompose(system, X)

    def test_slot_count_mismatch_rejected(self, klein3_pe):
        G, system, X, pe = klein3_pe
        wrong = SemicharacteristicBiset(X.orbits, X.m, X.n + 1)
        with pytest.raises(ValueError):
            decompose(system, wrong)


class TestAmbientEmbedding:
    def test_verify_embedding(self, ambient_pe):
        S, system, X, pe = ambient_pe
        assert pe.n == 7792
        ok, rep = verify_embedding(pe)
        assert ok, rep
        assert rep["top_trivial_elements"] == (0,)

    def test_slot_tables_shape(self, ambient_pe):
        S, system, X, pe = ambient_pe
        tables = pe.slot_tables()
        assert len(tables) == len(X.orbits)
        assert tables[0]["coset_representatives"] == [0]
        total = sum(len(t["coset_representatives"]) * t["multiplicity"] for t in tables)
        assert total == 7792

    def test_inner_witness_is_iota(self, ambient_pe):
        S, system, X, pe = ambient_pe
        full = tuple(range(32))
        for s in S.minimal_generators():
            phi = Morphism(full, tuple(S.conj(s, x) for x in full))
            assert pe.check_witness(phi, pe.iota(s))

    def test_generator_witnesses_by_direct_search(self, ambient_pe):
        S, system, X, pe = ambient_pe
        for gen in system.generators[:6]:
            g = pe.witness(gen)
            assert pe.check_witness(gen, g)

    def test_all_witnesses(self, ambient_pe):
        S, system, X, pe = ambient_pe
        ok, rep = verify_all_witnesses(pe)
        assert ok, rep
        assert rep["checked"] == 1036

    def test_focal_generators_land_in_derived_subgroup(self, ambient_pe):
        S, system, X, pe = ambient_pe
        sprime = S.commutator_subgroup()
        for s in S.minimal_generators():
            assert gamma_prime_member(pe.iota(s), sprime)


class TestProperties:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_iota_respects_conjugation(self, klein3_pe, data):
        G, system, X, pe = klein3_pe
        u = data.draw(st.integers(0, 3))
        v = data.draw(st.integers(0, 3))
        lhs = pe.iota(u) * pe.iota(v) * pe.iota(u).inverse()
        assert lhs == pe.iota(G.conj(u, v))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, data):
        G = catalog_group("S3")
        seed = data.draw(st.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        a = random_element(rng, G, 4)
        assert wreath_inverse(wreath_inverse(a)) == a
        assert a * wreath_inverse(a) == WreathElement.identity(G, 4)
