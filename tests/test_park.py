"""Wreath embedding tests.

The independent oracle here is the permutation realization: a wreath element
acts on slot-times-group points, so wreath arithmetic, the embedding, witness
conjugation, and the derived-subgroup membership formula can all be checked
against plain permutation groups at small degree."""

import copy
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from automizer.biset import (
    DiagonalClasses,
    DiagonalContext,
    OrbitRecord,
    SemicharacteristicBiset,
    build_semicharacteristic,
    diagonal_orbit,
    twist_row,
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
    _RecordTables,
    decompose,
    gamma_prime_member,
    verify_embedding,
)
from automizer.realize import run_pipeline, verify_certificate
from testkit import (
    PermGroup,
    Permutation,
    Wreath,
    base_only,
    brute_fusion,
    corpus,
    derived_subgroup,
    is_member,
    to_permutation,
    top_only,
    verify_all_witnesses,
    wreath_identity,
    wreath_inverse,
    wreath_multiply,
)


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


@pytest.fixture(scope="module")
def a6_d8_system():
    """D8 as the Sylow 2-subgroup of A6: 13 slots, and the witnesses depend
    on which diagonal of a P x S class the embedding meets first."""
    pair = next(p for p in corpus() if p.name == "A6/D8")
    system = brute_fusion(pair.group(), pair.subgroup_generators())
    X = build_semicharacteristic(system, context=DiagonalContext(system))
    return system, X


def reference_witness(pe, phi):
    """The witness by a slot BFS per block with per-slot orbit matching, a
    reference for the array gathers of ParkEmbedding.witness.  It queries
    the P x S classes of the source's record in the same first-met order, so
    on a fresh embedding it must give the same bytes."""
    G = pe.G
    sub = pe.system.lattice.by_key[phi.source]
    phi_map = dict(zip(phi.source, phi.images))
    blocks = []
    offset = 0
    for tab, rec in zip(pe.records, pe.X.orbits):
        for _ in range(rec.multiplicity):
            blocks.append((tab, offset))
            offset += tab.n_slots

    def orbits_under(action):
        out = []
        for tab, off in blocks:
            seen = np.zeros(tab.n_slots, dtype=bool)
            for j0 in range(tab.n_slots):
                if seen[j0]:
                    continue
                trans = {j0: (0, 0)}
                seen[j0] = True
                queue = deque([j0])
                while queue:
                    j = queue.popleft()
                    p_j, k_j = trans[j]
                    for g in sub.generators:
                        a = action(g)
                        j2 = int(tab.sig[a][j])
                        if not seen[j2]:
                            seen[j2] = True
                            trans[j2] = (G.mul(g, p_j), G.mul(int(tab.kap[a][j2]), k_j))
                            queue.append(j2)
                vee = [p for p in sub.elements if tab.sig[action(p)][j0] == j0]
                rho = [int(tab.kap[action(p)][j0]) for p in vee]
                out.append((tab, off, j0, trans, Morphism(tuple(vee), tuple(rho))))
        return out

    def keyed(orbits):
        out = {}
        for orb in orbits:
            rep, conj = pe._side_of(phi.source).pxs[orb[-1]][:2]
            out.setdefault(rep, []).append((orb, conj))
        return out

    plain = keyed(orbits_under(lambda p: p))
    twisted = keyed(orbits_under(lambda p: phi_map[p]))
    if {k: len(v) for k, v in plain.items()} != {k: len(v) for k, v in twisted.items()}:
        raise RuntimeError("the biset is not stable for %r" % (phi,))
    base = np.zeros(pe.n, dtype=np.int32)
    top = np.full(pe.n, -1, dtype=np.int32)
    for rep in sorted(plain):
        for (o1, (p1, s1)), (o2, (p2, s2)) in zip(plain[rep], twisted[rep]):
            p0 = G.mul(G.inv(p1), p2)
            s0 = G.mul(G.inv(s1), s2)
            _, off1, _, trans, _ = o1
            tab2, off2, j2, _, _ = o2
            for k, (p_k, kap_k) in trans.items():
                w = phi_map[G.mul(p_k, p0)]
                j_t = int(tab2.sig[w][j2])
                val = G.mul(G.mul(int(tab2.kap[w][j_t]), G.inv(s0)), G.inv(kap_k))
                top[off1 + k] = off2 + j_t
                base[off2 + j_t] = val
    return WreathElement(G, base, top)


def product_check(pe, phi, g):
    """g iota(u) g^-1 = iota(phi(u)) by wreath products, for every u in the
    source of phi."""
    g = Wreath.of(g)
    gi = g.inverse()
    return all(g * pe.iota(u) * gi == pe.iota(fu) for u, fu in zip(phi.source, phi.images))


def random_element(rng, G, n):
    base = rng.integers(0, G.order, size=n)
    top = rng.permutation(n)
    return Wreath(G, base, top)


class TestArithmetic:
    def test_identity_and_inverse(self):
        G = catalog_group("S3")
        rng = np.random.default_rng(7)
        e = wreath_identity(G, 6)
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
            a = Wreath(G, x, np.arange(4))
            b = Wreath(G, y, np.arange(4))
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
            wreath_multiply(wreath_identity(G, 3), wreath_identity(G, 4))

    def test_permutation_realization_is_a_homomorphism(self):
        G = catalog_group("S3")
        rng = np.random.default_rng(23)
        for _ in range(40):
            a = random_element(rng, G, 5)
            b = random_element(rng, G, 5)
            assert to_permutation(a * b) == to_permutation(a) * to_permutation(b)
        assert to_permutation(wreath_identity(G, 5)).is_identity()

    def test_permutation_realization_degree_guard(self):
        G = catalog_group("S3")
        with pytest.raises(ScaleError):
            to_permutation(wreath_identity(G, 5), max_degree=12)

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
        derived = derived_subgroup(group)
        assert derived.order() == 233280  # (6^4 * 3) * 60
        assert derived_subgroup(derived).order() == 233280

    def test_membership_formula_matches_chain(self, gamma):
        G, n, gens, group = gamma
        derived = derived_subgroup(group)
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
            gamma_prime_member(wreath_identity(G, 4), G.commutator_subgroup())

    def test_odd_top_rejected(self, gamma):
        G, n, gens, group = gamma
        swap = top_only(G, Permutation((1, 0, 2, 3, 4)))
        assert not gamma_prime_member(swap, G.commutator_subgroup())
        assert gamma_prime_member(wreath_identity(G, n), G.commutator_subgroup())


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
        assert ok and rep["same_hom_sets"], rep
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
            assert Wreath.of(g).is_identity()

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
        pe.bases[77], pe.tops[77] = 78, 0
        ok, rep = verify_embedding(pe)
        assert not ok
        assert not rep["homomorphism"]

    def test_unstable_biset_has_no_witness(self, klein3_pe):
        # the lone identity orbit: the order-3 twist moves the stabilizer
        # diagonal of the one slot out of its class
        G, system, X, pe = klein3_pe
        full = (0, 1, 2, 3)
        lone = SemicharacteristicBiset([OrbitRecord(full, full, 1)], 1, 1)
        twist = Morphism(full, (0, 2, 3, 1))
        with pytest.raises(RuntimeError, match="not stable"):
            decompose(system, lone).witness(twist)
        with pytest.raises(RuntimeError, match="not stable"):
            reference_witness(decompose(system, lone), twist)

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


class TestWitnessReference:
    @pytest.mark.parametrize("name", ["klein3", "a6_d8"])
    def test_witnesses_match_the_slot_bfs(self, name, klein3_pe, a6_d8_system):
        system, X = {"klein3": klein3_pe[1:3], "a6_d8": a6_d8_system}[name]
        pe, ref = decompose(system, X), decompose(system, X)
        checked = 0
        for key in sorted(system.store):
            for images in system.store[key]:
                phi = Morphism(key, images)
                w, r = pe.witness(phi), reference_witness(ref, phi)
                assert (w.top.tobytes(), w.base.tobytes()) == (r.top.tobytes(), r.base.tobytes())
                checked += 1
        assert checked == sum(len(b) for b in system.store.values())
        assert pe.n > 1 and any(len(bucket) > 1 for bucket in system.store.values())


def reference_record_tables(G, source, images):
    """_RecordTables' reps, sig and kap, its cosets found by a loop over the
    elements: each element in no coset yet starts the next one."""
    phi = twist_row(G, source, images)
    coset_of = np.full(G.order, -1, dtype=np.int32)
    reps = []
    for s in range(G.order):
        if coset_of[s] < 0:
            coset_of[[G.mul(s, q) for q in source]] = len(reps)
            reps.append(s)
    mul, inv = G.np_tables
    t = np.array(reps)
    ut = mul[:, t]
    sig = coset_of[ut]
    kap = np.full_like(sig, -1)
    np.put_along_axis(kap, sig, phi[mul[inv[t[sig]], ut]], axis=1)
    return tuple(reps), sig, kap


class TestRecordTables:
    @pytest.mark.parametrize("name, records", [("ambient", 172), ("a6_d8", 5)])
    def test_cosets_by_least_element_match_the_loop(self, name, records, ambient_pe, a6_d8_system):
        """Naming each coset by its least element gives the loop's
        representatives, and the same tables at the same widths, on every
        orbit record of the biset."""
        system, X = {"ambient": ambient_pe[1:3], "a6_d8": a6_d8_system}[name]
        G = system.ambient
        assert len(X.orbits) == records
        for rec in X.orbits:
            tab = _RecordTables(G, rec.source, rec.images)
            reps, sig, kap = reference_record_tables(G, rec.source, rec.images)
            assert tab.reps == reps and tab.n_slots == len(reps)
            for got, want in ((tab.sig, sig), (tab.kap, kap)):
                assert got.dtype == want.dtype and np.array_equal(got, want)


def log_pxs_queries(monkeypatch) -> list:
    """From now on, every query the records make of their P x S classes, as
    (classes, diagonal, answer), in order.  The lookup with which a class
    just filled answers the query that filled it is not another query."""
    asked = []

    class LoggedClasses(DiagonalClasses):
        filling = False

        def __missing__(self, d):
            self.filling = True
            try:
                return super().__missing__(d)
            finally:
                self.filling = False

        def __getitem__(self, d):
            hit = super().__getitem__(d)
            if not self.filling:
                asked.append((self, d, hit))
            return hit

    monkeypatch.setattr("automizer.park.DiagonalClasses", LoggedClasses)
    return asked


def records_met(pe, phis):
    """The witnesses of phis on the embedding pe, in order, and each record
    it held for them."""
    witnesses, sides = [], []
    for phi in phis:
        witnesses.append(pe.witness(phi))
        if not sides or sides[-1] is not pe._side:
            sides.append(pe._side)
    return witnesses, sides


def assert_visits_give_pipeline_bytes(system, X, visit):
    """The witness of every generator on a fresh embedding, taken in the order
    visit gives, equals the one taken in generator order."""
    by_source = {}
    for gen in system.generators:
        by_source.setdefault(gen.source, []).append(gen)
    assert len(by_source) > 1
    order = visit(system.generators, by_source)
    assert sorted(order) == sorted(system.generators) and order != system.generators
    pipeline, visiting = decompose(system, X), decompose(system, X)
    want = {gen: pipeline.witness(gen) for gen in system.generators}
    got, sides = records_met(visiting, order)
    for gen, w in zip(order, got):
        assert (w.top.tobytes(), w.base.tobytes()) == (want[gen].top.tobytes(), want[gen].base.tobytes())
    return len(sides), len(by_source)


class TestWitnessMemo:
    """The embedding keeps one source's record at a time, so a record is
    built again each time its source comes back.  Every P x S class a
    witness meets is met first on the plain side, and that is built first on
    every visit, so the order of the witnesses must not change them."""

    def test_round_robin_sources_give_pipeline_bytes(self, ambient_pe, a6_d8_system):
        def round_robin(gens, by_source):
            return [gen for turn in itertools.zip_longest(*by_source.values()) for gen in turn if gen]

        for system, X in (ambient_pe[1:3], a6_d8_system):
            sides, sources = assert_visits_give_pipeline_bytes(system, X, round_robin)
            # some source was visited, left and visited again
            assert sides > sources

    def test_reversed_generators_give_pipeline_bytes(self, ambient_pe, a6_d8_system):
        for system, X in (ambient_pe[1:3], a6_d8_system):
            # each source once, and within it the generators in reverse
            sides, sources = assert_visits_give_pipeline_bytes(system, X, lambda gens, _: gens[::-1])
            assert sides == sources


class ReferenceCanonical:
    """The P x S class memo written out, as the embedding kept it before the
    shared DiagonalClasses: one BFS per class from the first diagonal asked
    for, over the moves of every generator of P and of S (central ones too),
    each member mapped to the least member and (p_r p_m^-1, s_r s_m^-1),
    where (p_m, s_m) is the BFS's pair moving the first diagonal onto m."""

    def __init__(self, pe):
        self.pe = pe
        self.cache = {}

    def __call__(self, skey, d):
        cache = self.cache.setdefault(skey, {})
        if d not in cache:
            G = self.pe.G
            gens = self.pe.system.lattice.by_key[skey].generators
            moves = [(g, 0) for g in gens] + [(0, g) for g in G.minimal_generators()]
            conj = diagonal_orbit(G, d, moves)
            rep = min(conj)
            p_r, s_r = conj[rep]
            for member, (p_m, s_m) in conj.items():
                cache[member] = (rep, (G.mul(p_r, G.inv(p_m)), G.mul(s_r, G.inv(s_m))))
        return cache[d]


class TestPxSClassMemo:
    def test_one_bfs_per_pxs_class(self, ambient_pe, monkeypatch):
        """Every generator witness on a fresh embedding, as realize builds
        them, runs one BFS per (source, P x S class of stabilizer diagonals),
        each in the record of the source asked about: the move lists of
        sources whose generators are all central are equal."""
        S, system, X, _ = ambient_pe
        pe = decompose(system, X)
        walked = []

        def counting_orbit(G, d, moves):
            orbit = diagonal_orbit(G, d, moves)
            walked.append((pe._side.skey, min(orbit)))
            return orbit

        monkeypatch.setattr("automizer.biset.diagonal_orbit", counting_orbit)
        _, sides = records_met(pe, system.generators)
        assert len(walked) == len(set(walked)) == 1481
        met = {(side.skey, rep) for side in sides for rep, _, _ in side.pxs.values()}
        assert len(met) == 1481 and len(sides) == len({side.skey for side in sides}) == 41

    @staticmethod
    def asked_pairs(system, X, monkeypatch):
        """The witnesses of every stored morphism on a fresh embedding, the
        records it held, and what their P x S classes were asked and
        answered, in order: each record asks for a diagonal row once."""
        logged = log_pxs_queries(monkeypatch)
        pe = decompose(system, X)
        stored = [Morphism(key, images) for key in sorted(system.store) for images in system.store[key]]
        _, sides = records_met(pe, stored)
        skey_of = {id(side.pxs): side.skey for side in sides}
        asked = [(skey_of[id(classes)], d, hit[:2]) for classes, d, hit in logged]
        assert len(asked) == sum(len(side.rows) for side in sides)
        ref = ReferenceCanonical(pe)
        assert asked and all(ref(skey, d) == hit for skey, d, hit in asked)
        return pe, sides, asked

    def test_pairs_match_the_written_out_memo_on_c2(self, ambient_pe, monkeypatch):
        """The embedding leaves out the moves of generators central in P;
        the pairs still equal those of the memo with every move.  On the C2
        ambient many sources are abelian and keep the moves of S alone."""
        S, system, X, _ = ambient_pe
        pe, sides, _ = self.asked_pairs(system, X, monkeypatch)
        assert any(side.pxs.moves == pe._s_moves for side in sides)
        assert any(side.pxs.moves != pe._s_moves for side in sides)

    def test_pairs_match_the_written_out_memo_on_a6_d8(self, a6_d8_system, monkeypatch):
        """On A6/D8 the pairs depend on which diagonal of a class is asked
        for first; every pair the witnesses use equals the written-out memo's,
        asked in the same order."""
        system, X = a6_d8_system
        pe, _, asked = self.asked_pairs(system, X, monkeypatch)
        # a BFS from each class's least member would give other pairs
        from_least = ReferenceCanonical(pe)
        moved = 0
        for skey, d, (rep, pair) in asked:
            from_least(skey, rep)
            moved += from_least(skey, d)[1] != pair
        assert moved


def collect_sides(monkeypatch) -> dict:
    """Every record the embeddings make from now on, by id."""
    sides = {}
    side_of = ParkEmbedding._side_of

    def collecting_side_of(self, skey):
        side = side_of(self, skey)
        sides[id(side)] = side
        return side

    monkeypatch.setattr(ParkEmbedding, "_side_of", collecting_side_of)
    return sides


class TestWitnessStageCounts:
    def test_c2_pipeline_counts(self, monkeypatch):
        """The C2 realize asks the P x S classes once per stabilizer-diagonal
        row first met for a source (2,396 times, not once per row: 13,069),
        runs one BFS per P x S class (1,481) and per S x S class (239), and
        calls ParkEmbedding.witness, a benchmark patch point, once per
        generator."""
        counts = dict.fromkeys(["witness", "pxs_bfs", "sxs_bfs"], 0)
        inside, asked = [], log_pxs_queries(monkeypatch)
        witness = ParkEmbedding.witness

        def counting_witness(self, phi):
            counts["witness"] += 1
            inside.append(phi)
            try:
                return witness(self, phi)
            finally:
                inside.pop()

        def counting_orbit(G, d, moves):
            counts["pxs_bfs" if inside else "sxs_bfs"] += 1
            return diagonal_orbit(G, d, moves)

        monkeypatch.setattr(ParkEmbedding, "witness", counting_witness)
        monkeypatch.setattr("automizer.biset.diagonal_orbit", counting_orbit)
        cert = run_pipeline(InputGroupA.from_name("C2"))
        assert cert.accepted
        counts["canonical"] = len(asked)
        assert counts == {"witness": 246, "canonical": 2396, "pxs_bfs": 1481, "sxs_bfs": 239}

    def test_verify_builds_no_slot_orbits(self, c2_cert, monkeypatch):
        """verify checks the certificate's witnesses and builds none, so each
        of its records holds the check side alone: no slot orbits, no plain
        side and no P x S class."""
        sides = collect_sides(monkeypatch)

        def no_orbits(self, qkey):
            raise AssertionError("slot orbits built")

        monkeypatch.setattr(ParkEmbedding, "_diagonals", no_orbits)
        ok, rep = verify_certificate(c2_cert)
        assert ok, rep
        assert len(sides) == len({side.skey for side in sides.values()}) == 41
        for side in sides.values():
            assert not (side.rows or side.orbits or side.pxs or side.plain_tables)


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

    def test_check_witness_rejects_one_edit(self, ambient_pe):
        """One base entry changed, or two top entries swapped, is no longer a
        witness by the product check g iota(u) g^-1 = iota(phi(u)), and the
        array check rejects it too."""
        S, system, X, pe = ambient_pe
        for gen in [gen for gen in system.generators if gen.source != gen.images][:6]:
            g = pe.witness(gen)
            # the first slot that iota(phi(u)) moves, for the last u
            k = int(np.flatnonzero(pe.tops[gen.images[-1]] != np.arange(pe.n))[0])
            base = g.base.copy()
            base[k] = S.mul(1, base[k])
            top = g.top.copy()
            top[[k, k + 1]] = top[[k + 1, k]]
            for edited in (WreathElement(S, base, g.top), WreathElement(S, g.base, top)):
                assert not product_check(pe, gen, edited)
                assert not pe.check_witness(gen, edited)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_generator_check_agrees_with_the_product_check(self, ambient_pe, data):
        """check_witness compares the two sides on the source's generators
        only; on a C2 witness with one base entry changed, or one pair of top
        entries swapped, or none, it must agree with the product check on
        every element of the source."""
        S, system, X, pe = ambient_pe
        gen = data.draw(st.sampled_from(system.generators))
        g = pe.witness(gen)
        base, top = g.base.copy(), g.top.copy()
        k = data.draw(st.integers(0, pe.n - 1))
        if data.draw(st.booleans()):
            base[k] = data.draw(st.integers(0, S.order - 1))
        else:
            j = data.draw(st.integers(0, pe.n - 1))
            top[[k, j]] = top[[j, k]]
        edited = WreathElement(S, base, top)
        assert pe.check_witness(gen, edited) == product_check(pe, gen, edited)

    def test_all_witnesses(self, ambient_pe):
        S, system, X, pe = ambient_pe
        ok, rep = verify_all_witnesses(pe)
        assert ok and rep["same_hom_sets"], rep
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
        lhs = Wreath.of(pe.iota(u)) * pe.iota(v) * Wreath.of(pe.iota(u)).inverse()
        assert lhs == pe.iota(G.conj(u, v))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, data):
        G = catalog_group("S3")
        seed = data.draw(st.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        a = random_element(rng, G, 4)
        assert wreath_inverse(wreath_inverse(a)) == a
        assert a * wreath_inverse(a) == wreath_identity(G, 4)


def reference_embedding_report(pe):
    """verify_embedding's verdict and report, from the wreath products of
    testkit: iota(1) is the identity, iota(g) iota(u) = iota(g u) for every
    generator g and every u, and the |S| elements iota(u) are distinct."""
    G = pe.G
    iota = [Wreath.of(pe.iota(u)) for u in range(G.order)]
    hom = iota[0].is_identity() and all(
        iota[g] * iota[u] == iota[G.mul(g, u)] for g in G.minimal_generators() for u in range(G.order)
    )
    injective = len(set(iota)) == G.order
    trivial = tuple(u for u in range(G.order) if iota[u].top.tolist() == list(range(pe.n)))
    core = set(pe.system.core_intersection)
    report = {
        "homomorphism": hom,
        "exhaustive": True,
        "injective": injective,
        "top_trivial_elements": trivial,
        "core": tuple(sorted(core)),
        "base_intersection_in_core": set(trivial) <= core,
    }
    return hom and injective and set(trivial) <= core, report


def corrupted_embedding(pe, kind, seed):
    """A copy of the embedding with its arrays copied and, by kind, one base
    entry changed, one pair of top entries swapped in a row, or one row (top
    and base) copied over another; the rows and slots are drawn from seed."""
    rng = np.random.default_rng(seed)
    bad = copy.copy(pe)
    bad.tops, bad.bases = pe.tops.copy(), pe.bases.copy()
    order, n = pe.G.order, pe.n
    u, k = int(rng.integers(order)), int(rng.integers(n))
    if kind == "base":
        bad.bases[u, k] = (bad.bases[u, k] + rng.integers(1, order)) % order
    elif kind == "top":
        j = (k + 1 + int(rng.integers(n - 1))) % n
        bad.tops[u, [k, j]] = bad.tops[u, [j, k]]
    elif kind == "row":
        v = (u + 1 + int(rng.integers(order - 1))) % order
        bad.tops[v], bad.bases[v] = bad.tops[u], bad.bases[u]
    return bad


class TestEmbeddingReference:
    """verify_embedding reads the rows of tops and bases; its verdict and
    whole report must equal those of the wreath products, on the klein3 and
    C2 embeddings and on copies with one base entry, one pair of top entries
    or one whole row corrupted."""

    @given(
        name=st.sampled_from(["klein3", "c2"]),
        kind=st.sampled_from(["none", "base", "top", "row"]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(name="klein3", kind="row", seed=0)
    @example(name="c2", kind="base", seed=1)
    @example(name="c2", kind="top", seed=2)
    @example(name="c2", kind="row", seed=3)
    @settings(max_examples=60, deadline=None)
    def test_same_report_as_the_wreath_products(self, klein3_pe, ambient_pe, name, kind, seed):
        pe = {"klein3": klein3_pe, "c2": ambient_pe}[name][-1]
        if kind != "none":
            pe = corrupted_embedding(pe, kind, seed)
        assert verify_embedding(pe) == reference_embedding_report(pe)
