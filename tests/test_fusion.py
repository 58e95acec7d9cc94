"""Generated fusion systems checked morphism-for-morphism against an inline
brute-force oracle: the fusion of a subgroup inside an overgroup is exactly
the set of restrictions of overgroup conjugations, so generating from the
maximal-domain conjugation maps must reproduce it."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from automizer.fusion import (
    FusionSystem,
    Morphism,
    SubgroupLattice,
    all_injective_homs,
    generate,
)
from automizer.grouprep import (
    FiniteGroup,
    are_isomorphic,
    automorphisms_of,
    catalog_group,
    find_isomorphism,
)
from automizer.permcore import PermGroup, Permutation, compose, parse_cycles
from automizer.testkit import is_member


# -- oracle machinery ----------------------------------------------------------


def build_surrogate(g0_gens, s0_gens, degree):
    """Ambient table group on S0 plus the maximal-domain conjugation morphisms
    c_g for every g in G0, and the brute-force morphism store."""
    ambient, s0_perms = FiniteGroup.from_permutations(
        [parse_cycles(t, degree) for t in s0_gens]
    )
    index = {p.images: i for i, p in enumerate(s0_perms)}
    g0 = PermGroup([parse_cycles(t, degree) for t in g0_gens], degree=degree)
    for p in s0_perms:
        assert is_member(g0, p.extended(degree)), "surrogate subgroup must sit inside the overgroup"

    atoms = []
    seen = set()
    for g in g0.elements():
        ginv = g.inverse()
        conj = {}
        for i, p in enumerate(s0_perms):
            q = compose(g, compose(p.extended(degree), ginv)).images[: len(s0_perms[0].images)]
            q = tuple(q)
            j = index.get(q)
            if j is not None:
                conj[i] = j
        source = tuple(sorted(conj))
        images = tuple(conj[x] for x in source)
        if (source, images) not in seen:
            seen.add((source, images))
            atoms.append(Morphism(source, images))

    subs = ambient.all_subgroups()
    lattice = SubgroupLattice(ambient, subs)
    brute = {}
    for atom in atoms:
        amap = lattice.posmap[atom.source]
        for pkey in lattice.subkeys_of(atom.source):
            images = tuple(atom.images[amap[x]] for x in pkey)
            brute.setdefault(pkey, set()).add(images)
    return ambient, subs, atoms, brute


def brute_injective_homs(G, gens, H):
    """Oracle: every tuple of generator images in H, kept when the map it
    forces on <gens> by right multiplication is injective and multiplicative
    on every pair of elements."""
    out = []
    for images in itertools.product(range(H.order), repeat=len(gens)):
        f = {0: 0}
        queue = [0]
        for x in queue:
            for g, y in zip(gens, images):
                xg = G.mul(x, g)
                if xg not in f:
                    f[xg] = H.mul(f[x], y)
                    queue.append(xg)
        if len(set(f.values())) == len(f) and all(
            f[G.mul(a, b)] == H.mul(f[a], f[b]) for a in f for b in f
        ):
            out.append(f)
    return out


def apply(system, m, x):
    return m.images[system.lattice.posmap[m.source][x]]


def restrict(system, m, subkey):
    pos = system.lattice.posmap[m.source]
    return Morphism(subkey, tuple(m.images[pos[x]] for x in subkey))


def invert(m):
    return Morphism(*zip(*sorted(zip(m.images, m.source))))


def store_as_sets(system):
    return {k: set(v) for k, v in system.store.items() if v}


SURROGATES = {
    "s4_d8": (["(0 1)", "(0 1 2 3)"], ["(0 1 2 3)", "(0 2)"], 4),
    "s4_v4": (["(0 1)", "(0 1 2 3)"], ["(0 1)(2 3)", "(0 2)(1 3)"], 4),
    "a4_v4": (["(0 1 2)", "(0 1)(2 3)"], ["(0 1)(2 3)", "(0 2)(1 3)"], 4),
    "a4_c3": (["(0 1 2)", "(0 1)(2 3)"], ["(0 1 2)"], 4),
    "s5_d8": (["(0 1)", "(0 1 2 3 4)"], ["(0 1 2 3)", "(0 2)"], 5),
}


class TestSurrogateEquivalence:
    @pytest.mark.parametrize("name", sorted(SURROGATES))
    def test_generated_equals_brute(self, name):
        g0_gens, s0_gens, degree = SURROGATES[name]
        ambient, subs, atoms, brute = build_surrogate(g0_gens, s0_gens, degree)
        system = generate(ambient, subs, atoms)
        assert store_as_sets(system) == brute

    def test_a4_v4_has_order_3_fusion(self):
        ambient, subs, atoms, _ = build_surrogate(*SURROGATES["a4_v4"])
        system = generate(ambient, subs, atoms)
        full = tuple(range(4))
        assert len(system.aut(full)) == 3
        table, _ = system.aut_group_table(full)
        assert table.order == 3
        assert table.exponent() == 3

    def test_s4_v4_fusion_is_s3(self):
        ambient, subs, atoms, _ = build_surrogate(*SURROGATES["s4_v4"])
        system = generate(ambient, subs, atoms)
        table, _ = system.aut_group_table(tuple(range(4)))
        assert table.order == 6
        assert any(table.mul(a, b) != table.mul(b, a) for a in range(6) for b in range(6))


class TestInnerFusion:
    def test_d8_counts_match_brute(self):
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        for skey in system.lattice.keys:
            brute = {tuple(G.conj(s, x) for x in skey) for s in range(8)}
            assert set(system.store[skey]) == brute

    def test_focal_of_inner_is_derived(self):
        for name in ["D8", "Q8", "S4"]:
            G = catalog_group(name)
            system = generate(G, G.all_subgroups(), [])
            assert system.focal_subgroup().elements == G.commutator_subgroup().elements

    def test_only_full_source_is_nonextendable(self):
        G = catalog_group("D8")
        system = generate(G, G.all_subgroups(), [])
        sources = system.nonextendable_sources()
        assert set(sources) == {tuple(range(8))}
        assert system.core_intersection() == tuple(range(8))
        assert system.extension_core() == tuple(range(8))


@pytest.fixture(scope="module")
def s4_d8():
    ambient, subs, atoms, _ = build_surrogate(*SURROGATES["s4_d8"])
    return ambient, generate(ambient, subs, atoms)


@pytest.fixture(scope="module")
def small_system():
    ambient, subs, atoms, _ = build_surrogate(*SURROGATES["a4_v4"])
    return generate(ambient, subs, atoms)


class TestStoreLaws:
    def test_all_stored_are_injective_homs(self, s4_d8):
        G, system = s4_d8
        for skey, bucket in system.store.items():
            pos = system.lattice.posmap[skey]
            for images in bucket:
                assert len(set(images)) == len(images)
                for a in skey:
                    for b in skey:
                        assert images[pos[G.mul(a, b)]] == G.mul(images[pos[a]], images[pos[b]])

    def test_restriction_closed(self, s4_d8):
        _, system = s4_d8
        for skey in system.lattice.keys:
            for m in system.hom_set(skey):
                for subkey in system.lattice.subkeys_of(skey):
                    assert system.contains(restrict(system, m, subkey))

    def test_composition_closed(self, s4_d8):
        _, system = s4_d8
        morphs = [m for k in system.lattice.keys for m in system.hom_set(k)]
        for m in morphs:
            ikey = tuple(sorted(m.images))
            for g in system.hom_set(ikey):
                assert system.contains(system.compose(g, m))

    def test_inverse_closed(self, s4_d8):
        _, system = s4_d8
        for skey in system.lattice.keys:
            for m in system.hom_set(skey):
                assert system.contains(invert(m))

    def test_inclusions_present(self, s4_d8):
        _, system = s4_d8
        for skey in system.lattice.keys:
            assert system.contains(Morphism(skey, skey))

    def test_hom_from_trivial_is_singleton(self, s4_d8):
        _, system = s4_d8
        assert system.hom_set((0,)) == [Morphism((0,), (0,))]

    def test_closure_idempotent(self, s4_d8):
        ambient, system = s4_d8
        regenerated = generate(
            ambient,
            system.lattice.subgroups,
            [m for k in system.lattice.keys for m in system.hom_set(k)],
        )
        assert store_as_sets(regenerated) == store_as_sets(system)


class TestExtendability:
    def cycle_type_klein(self, G, elems):
        """The Klein four inside D8 whose involutions are all double
        transpositions: the normal one in S4."""
        return tuple(sorted(x for x in range(8) if G.element_order(x) <= 2
                            and all(G.mul(x, y) == G.mul(y, x) for y in elems)))

    def test_nonextendable_core_is_normal_klein(self, s4_d8):
        G, system = s4_d8
        sources = system.nonextendable_sources()
        core = system.core_intersection()
        assert len(core) == 4
        assert tuple(range(8)) in sources
        assert core in sources
        # the core is the Klein four that S4 normalizes: closed under every
        # stored automorphism of the full group and of itself
        for m in system.aut(core):
            assert set(m.images) == set(core)
        assert len(system.aut(core)) == 6

    def test_extension_core_equals_nonextendable_core(self, s4_d8):
        _, system = s4_d8
        assert system.extension_core() == system.core_intersection()

    def test_nonextendable_sources_invariant_under_full_auts(self, s4_d8):
        _, system = s4_d8
        sources = set(system.nonextendable_sources())
        for alpha in system.aut(tuple(range(8))):
            pos = system.lattice.posmap[alpha.source]
            mapped = {tuple(sorted(alpha.images[pos[x]] for x in skey)) for skey in sources}
            assert mapped == sources

    def test_focal_is_normal_klein(self, s4_d8):
        G, system = s4_d8
        foc = system.focal_subgroup()
        assert foc.order == 4
        assert foc.elements == system.core_intersection()


class TestInjectiveHoms:
    def test_involution_targets(self):
        G = catalog_group("D8")
        lattice = SubgroupLattice(G, G.all_subgroups())
        src = G.subgroup([1]).elements
        homs = all_injective_homs(G, lattice, src)
        assert len(homs) == 5  # five involutions in D8

    def test_aut_of_d8_has_order_8(self):
        G = catalog_group("D8")
        lattice = SubgroupLattice(G, G.all_subgroups())
        homs = all_injective_homs(G, lattice, tuple(range(8)))
        assert len(homs) == 8

    def test_klein_into_d8(self):
        G = catalog_group("D8")
        lattice = SubgroupLattice(G, G.all_subgroups())
        klein = next(k for k in lattice.keys if len(k) == 4
                     and all(G.mul(x, x) == 0 for x in k))
        homs = all_injective_homs(G, lattice, klein)
        assert len(homs) == 12  # two Klein targets, six isomorphisms each
        for m in homs:
            assert len(set(m.images)) == 4

    def test_trivial_source(self):
        G = catalog_group("D8")
        lattice = SubgroupLattice(G, G.all_subgroups())
        assert all_injective_homs(G, lattice, (0,)) == [Morphism((0,), (0,))]


class TestSearchAgainstBruteForce:
    """The one generator-image search behind all_injective_homs,
    automorphisms_of and find_isomorphism, against exhaustive image tuples."""

    NAMES = ["C4", "C2xC2", "S3", "D8", "Q8", "C2xC4"]

    @pytest.mark.parametrize("name", NAMES)
    def test_every_subgroup(self, name):
        G = catalog_group(name)
        lattice = SubgroupLattice(G, G.all_subgroups())
        for key in lattice.keys:
            sub = lattice.by_key[key]
            brute = brute_injective_homs(G, sub.generators, G)
            expect = sorted(tuple(f[x] for x in key) for f in brute)
            assert [m.images for m in all_injective_homs(G, lattice, key)] == expect
            autos = [tuple(t[x] for x in key) for t in automorphisms_of(G, sub)]
            assert autos == [images for images in expect if set(images) == set(key)]

    @pytest.mark.parametrize("name", NAMES)
    def test_isomorphism(self, name):
        G = catalog_group(name)
        for other in self.NAMES + ["D6", "C8"]:
            H = catalog_group(other)
            if H.order != G.order:
                continue
            iso = find_isomorphism(G, H)
            exists = bool(brute_injective_homs(G, G.minimal_generators(), H))
            assert (iso is not None) == exists == are_isomorphic(G, H), other
            if iso is not None:
                assert sorted(iso.values()) == list(range(H.order))
                for a in range(G.order):
                    for b in range(G.order):
                        assert iso[G.mul(a, b)] == H.mul(iso[a], iso[b])


class TestPayload:
    def test_round_trip(self):
        ambient, subs, atoms, _ = build_surrogate(*SURROGATES["s4_d8"])
        system = generate(ambient, subs, atoms)
        for skey in system.lattice.keys:
            for m in system.hom_set(skey)[:4]:
                payload = system.morphism_payload(m)
                assert system.morphism_from_payload(payload) == m

    @pytest.mark.parametrize("bad", [[-1], [4], [1.0], ["1"], [True], 1, [1, 3]])
    def test_rejects_entries_outside_the_group(self, bad):
        # -1 would otherwise wrap to element 3 through list indexing
        G = catalog_group("C4")
        system = generate(G, G.all_subgroups(), [])
        assert system.morphism_from_payload(
            {"source_generators": [1], "generator_images": [1]}
        ) == Morphism((0, 1, 2, 3), (0, 1, 2, 3))
        for payload in (
            {"source_generators": bad, "generator_images": [1]},
            {"source_generators": [1], "generator_images": bad},
        ):
            with pytest.raises(ValueError):
                system.morphism_from_payload(payload)


class TestProperties:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_apply_compose_consistent(self, small_system, data):
        system = small_system
        keys = [k for k in system.lattice.keys if system.hom_set(k)]
        skey = data.draw(st.sampled_from(keys))
        m = data.draw(st.sampled_from(system.hom_set(skey)))
        ikey = tuple(sorted(m.images))
        g = data.draw(st.sampled_from(system.hom_set(ikey)))
        comp = system.compose(g, m)
        x = data.draw(st.sampled_from(skey))
        assert apply(system, comp, x) == apply(system, g, apply(system, m, x))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_invert_round_trip(self, small_system, data):
        system = small_system
        keys = [k for k in system.lattice.keys if system.hom_set(k)]
        skey = data.draw(st.sampled_from(keys))
        m = data.draw(st.sampled_from(system.hom_set(skey)))
        inv = invert(m)
        for x in skey:
            assert apply(system, inv, apply(system, m, x)) == x
