"""Generated fusion systems checked morphism-for-morphism against an inline
brute-force oracle: the fusion of a subgroup inside an overgroup is exactly
the set of restrictions of overgroup conjugations, so generating from the
maximal-domain conjugation maps must reproduce it."""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from automizer.fusion import (
    FusionSystem,
    Morphism,
    SubgroupLattice,
    generate,
)
from automizer.grouprep import (
    FiniteGroup,
    InputGroupA,
    _word_map,
    are_isomorphic,
    automorphisms_of,
    build_S,
    catalog_group,
    enumerate_subgroups,
    find_isomorphism,
    homocyclic_rank2,
    injective_homs,
    permutation_closure,
)
from automizer.permcore import parse_cycles
from automizer.testkit import PermGroup, Permutation, all_injective_homs, brute_fusion, compose, corpus, is_member


# -- oracle machinery ----------------------------------------------------------


def build_surrogate(g0_gens, s0_gens, degree):
    """Ambient table group on S0 plus the maximal-domain conjugation morphisms
    c_g for every g in G0, and the brute-force morphism store."""
    ambient, s0_perms = FiniteGroup.from_permutations(
        [parse_cycles(t, degree) for t in s0_gens]
    )
    s0_perms = [Permutation(p) for p in s0_perms]
    index = {p.images: i for i, p in enumerate(s0_perms)}
    g0 = PermGroup([Permutation(parse_cycles(t, degree)) for t in g0_gens], degree=degree)
    for p in s0_perms:
        assert is_member(g0, p.extended(degree)), "surrogate subgroup must sit inside the overgroup"

    atoms = []
    seen = set()
    for g in map(Permutation, permutation_closure([p.images for p in g0.generators], degree)):
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
        assert system.store == brute

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
            assert system.store[skey] == brute

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
def s4_klein_c3():
    """S4 with one order-3 automorphism of a non-normal Klein four.  The
    generator family is not closed under S-conjugation, so c_s composed with
    the generator is reached only by the inner left-composition step."""
    G = catalog_group("S4")
    subs = G.all_subgroups()
    klein = next(
        h for h in subs
        if h.order == 4 and all(G.element_order(x) <= 2 for x in h.elements)
        and G.normalizer(h).order < G.order
    )
    a, b, c = klein.elements[1:]
    return G, generate(G, subs, [Morphism(klein.elements, (0, b, c, a))])


def per_atom_store(system):
    """FusionSystem._build's closure written out with every generator atom
    whose source holds the image set composed in turn, repeated
    restrictions and all.  Returns the store it reaches."""
    lattice, inner = system.lattice, system.inner
    full = tuple(range(system.ambient.order))
    atoms = dict.fromkeys(Morphism(full, images) for images in inner)
    for gen in system.generators:
        atoms.update(dict.fromkeys((gen, invert(gen))))
    store = {}
    queue = deque()

    def add(m):
        bucket = store.setdefault(m.source, set())
        if m.images not in bucket:
            bucket.add(m.images)
            queue.append(m)

    for atom in atoms:
        for pkey in lattice.subkeys_of(atom.source):
            add(restrict(system, atom, pkey))
    gen_atoms = list(atoms)[len(inner):]
    while queue:
        m = queue.popleft()
        for conj in inner:
            add(Morphism(m.source, tuple(conj[x] for x in m.images)))
        for atom in gen_atoms:
            if set(m.images) <= set(atom.source):
                add(Morphism(m.source, tuple(apply(system, atom, x) for x in m.images)))
    return store


def c2_ambient_system():
    S = build_S(InputGroupA.from_name("C2"))
    subs = enumerate_subgroups(S)
    gens = [
        Morphism(v.elements, tuple(t[x] for x in v.elements))
        for v in homocyclic_rank2(S, subs)
        for t in automorphisms_of(S, v)
    ]
    return generate(S, subs, gens)


@pytest.fixture(scope="module")
def small_system():
    ambient, subs, atoms, _ = build_surrogate(*SURROGATES["a4_v4"])
    return generate(ambient, subs, atoms)


class TestDistinctRestrictions:
    """The closure composes each distinct restriction of the generator atoms
    to an image set once; it must reach the store of the per-atom closure,
    with the sources in the same order."""

    @staticmethod
    def assert_same_store(system):
        ref = per_atom_store(system)
        assert list(system.store) == list(ref) and system.store == ref

    def test_c2_ambient(self):
        system = c2_ambient_system()
        assert sum(map(len, system.store.values())) == 1036
        self.assert_same_store(system)

    def test_klein3(self):
        G = catalog_group("C2xC2")
        self.assert_same_store(generate(G, G.all_subgroups(), [Morphism((0, 1, 2, 3), (0, 2, 3, 1))]))

    def test_a6_d8(self):
        pair = next(p for p in corpus() if p.name == "A6/D8")
        self.assert_same_store(brute_fusion(pair.group(), pair.subgroup_generators()))

    def test_s4_klein_c3(self, s4_klein_c3):
        self.assert_same_store(s4_klein_c3[1])


class TestStoreLaws:
    STORED = 28

    @pytest.fixture
    def law_system(self, s4_d8):
        return s4_d8

    def test_stored_count(self, law_system):
        _, system = law_system
        assert sum(len(bucket) for bucket in system.store.values()) == self.STORED

    def test_all_stored_are_injective_homs(self, law_system):
        G, system = law_system
        for skey, bucket in system.store.items():
            pos = system.lattice.posmap[skey]
            for images in bucket:
                assert len(set(images)) == len(images)
                for a in skey:
                    for b in skey:
                        assert images[pos[G.mul(a, b)]] == G.mul(images[pos[a]], images[pos[b]])

    def test_restriction_closed(self, law_system):
        _, system = law_system
        for skey in system.lattice.keys:
            for m in system.hom_set(skey):
                for subkey in system.lattice.subkeys_of(skey):
                    assert system.contains(restrict(system, m, subkey))

    def test_composition_closed(self, law_system):
        _, system = law_system
        morphs = [m for k in system.lattice.keys for m in system.hom_set(k)]
        for m in morphs:
            ikey = tuple(sorted(m.images))
            for g in system.hom_set(ikey):
                assert system.contains(system.compose(g, m))

    def test_inverse_closed(self, law_system):
        _, system = law_system
        for skey in system.lattice.keys:
            for m in system.hom_set(skey):
                assert system.contains(invert(m))

    def test_inclusions_present(self, law_system):
        _, system = law_system
        for skey in system.lattice.keys:
            assert system.contains(Morphism(skey, skey))

    def test_hom_from_trivial_is_singleton(self, law_system):
        _, system = law_system
        assert system.hom_set((0,)) == [Morphism((0,), (0,))]

    def test_closure_idempotent(self, law_system):
        ambient, system = law_system
        regenerated = generate(
            ambient,
            system.lattice.subgroups,
            [m for k in system.lattice.keys for m in system.hom_set(k)],
        )
        assert regenerated.store == system.store


class TestStoreLawsKleinC3(TestStoreLaws):
    """The same laws on a system whose closure needs inner maps composed on
    the left of a generator."""

    STORED = 372

    @pytest.fixture
    def law_system(self, s4_klein_c3):
        return s4_klein_c3


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


def reference_injective_homs(G, gens, H, targets):
    """The recursive generator-image search that the array kernel replaced:
    one candidate at a time, depth first, each full assignment extended along
    the word map and checked on the pairs that are not a step of it.  Yields
    maps on element indices in lexicographic order of the generator images."""
    words = _word_map(G, gens)
    steps = [(x, G.product(gens[gi] for gi in w[:-1]), w[-1]) for x, w in words.items() if w]
    built = {(prefix, gi) for _, prefix, gi in steps}
    checks = [
        (x, G.mul(x, g), gi) for x in words for gi, g in enumerate(gens) if (x, gi) not in built
    ]
    by_order = {}
    for y in targets:
        by_order.setdefault(H.element_order(y), []).append(y)
    gt, ht = G.table, H.table
    images = []

    def extend(k):
        if k == len(gens):
            table = {0: 0}
            for x, prefix, gi in steps:
                table[x] = ht[table[prefix]][images[gi]]
            if len(set(table.values())) == len(table) and all(
                table[xg] == ht[table[x]][images[gi]] for x, xg, gi in checks
            ):
                yield table
            return
        g = gens[k]
        for cand in by_order.get(G.element_order(g), ()):
            if all(
                H.element_order(ht[images[i]][cand]) == G.element_order(gt[gens[i]][g])
                for i in range(k)
            ):
                images.append(cand)
                yield from extend(k + 1)
                images.pop()

    return extend(0)


class TestKernelAgainstRecursiveSearch:
    """The array kernel gives the rows of the recursive search, in the same
    order, so find_isomorphism returns the same first map."""

    @staticmethod
    def assert_same_rows(G, subgroups):
        for sub in subgroups:
            gens = list(sub.generators)
            expect = [[t[x] for x in sorted(t)] for t in reference_injective_homs(G, gens, G, range(G.order))]
            assert injective_homs(G, gens, G, range(G.order)).tolist() == expect

    def test_c2_ambient_subgroups(self):
        S = build_S(InputGroupA.from_name("C2"))
        subs = enumerate_subgroups(S)
        assert len(subs) == 106
        self.assert_same_rows(S, subs)

    @pytest.mark.parametrize("name", TestSearchAgainstBruteForce.NAMES)
    def test_brute_force_groups(self, name):
        G = catalog_group(name)
        self.assert_same_rows(G, G.all_subgroups())

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_first_isomorphism(self, pair):
        # the same group with its non-identity labels reversed
        G, _ = FiniteGroup.from_permutations([p.images for p in pair.subgroup_generators()])
        r = [0] + list(range(G.order - 1, 0, -1))
        H = FiniteGroup([[r[G.mul(r[a], r[b])] for b in range(G.order)] for a in range(G.order)])
        expect = next(reference_injective_homs(G, G.minimal_generators(), H, range(H.order)))
        assert find_isomorphism(G, H) == expect


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
