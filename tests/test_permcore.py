"""Cycle text, parity and orbit labels, and the tests' permutation class and
stabilizer chains, against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from automizer.grouprep import permutation_closure
from automizer.permcore import merge_labels, parse_cycles, word_parity
from automizer.testkit import (
    PermGroup,
    Permutation,
    alternating_gens,
    compose,
    corpus,
    derived_subgroup,
    format_cycles,
    identity_perm,
    is_member,
    symmetric_gens,
)


def brute_elements(gens, degree):
    """Oracle: full element set by BFS over right multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    words = [g.images for g in gens]
    for cur in queue:
        for w in words:
            nxt = tuple(cur[j] for j in w)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def brute_normal_closure(seeds, gens, degree):
    """Oracle: smallest subgroup containing seeds, closed under conjugation."""
    conjugators = brute_elements(gens, degree)
    core = set()
    work = [s.images for s in seeds]
    while work:
        h = work.pop()
        if h in core:
            continue
        for g in conjugators:
            ginv = [0] * degree
            for i, j in enumerate(g):
                ginv[j] = i
            conj = tuple(g[h[ginv[i]]] for i in range(degree))
            if conj not in core:
                work.append(conj)
        core.add(h)
    return brute_elements([Permutation(h) for h in core], degree)


def chain_elements(group):
    """Oracle: every element as a product of one transversal element per
    level of the stabilizer chain, the deepest level applied first."""
    elems = [identity_perm(group.degree)]
    for level in reversed(group._chain()):
        elems = [compose(t, e) for t in level.transversal.values() for e in elems]
    return elems


def labels(group):
    """Orbit labels of a permutation group: the least point of each orbit."""
    label = np.arange(group.degree)
    for g in group.generators:
        label = merge_labels(label, np.asarray(g.images))
    return label


def is_transitive(group):
    return not labels(group).any()


perm_strategy = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


def same_degree_pairs(count):
    return st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            *(st.permutations(list(range(n))).map(Permutation) for _ in range(count))
        )
    )


class TestArithmetic:
    def test_compose_applies_right_factor_first(self):
        # Oracle by hand: q sends 0->1, p sends 1->2, so (p*q)(0) = 2.
        p = Permutation(parse_cycles("(1 2)", degree=3))
        q = Permutation(parse_cycles("(0 1)", degree=3))
        assert compose(p, q).images[0] == 2
        assert compose(q, p).images[0] == 1

    @settings(max_examples=60)
    @given(same_degree_pairs(3))
    def test_associativity(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=60)
    @given(perm_strategy)
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @settings(max_examples=60)
    @given(perm_strategy)
    def test_cycle_text_round_trip(self, p):
        assert Permutation(parse_cycles(format_cycles(p), degree=p.degree)) == p

    @settings(max_examples=60)
    @given(same_degree_pairs(2))
    def test_parity_is_multiplicative(self, pair):
        p, q = pair
        assert word_parity((p * q).images) == (word_parity(p.images) + word_parity(q.images)) % 2

    @settings(max_examples=60)
    @given(perm_strategy)
    def test_word_parity_of_arrays_matches_cycle_count(self, p):
        # oracle: each cycle of length L is a product of L - 1 transpositions
        expect = sum(len(c) - 1 for c in p.cycles()) % 2
        assert word_parity(np.asarray(p.images, dtype=np.int32)) == expect
        assert word_parity(p.images) == expect

    @pytest.mark.parametrize("n", [1, 150, 151, 7792])
    def test_word_parity_against_a_cycle_walk(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            images = rng.permutation(n)
            seen = np.zeros(n, dtype=bool)
            cycles = 0
            for start in range(n):
                if not seen[start]:
                    cycles += 1
                    j = start
                    while not seen[j]:
                        seen[j] = True
                        j = images[j]
            assert word_parity(images) == (n - cycles) % 2

    def test_parity_known_values(self):
        assert word_parity(parse_cycles("(0 1)", degree=4)) == 1
        assert word_parity(parse_cycles("(0 1 2)", degree=4)) == 0
        assert word_parity(parse_cycles("(0 1)(2 3)", degree=4)) == 0
        assert word_parity(identity_perm(4).images) == 0
        assert word_parity(()) == 0

    def test_parse_rejects_bad_text(self):
        with pytest.raises(ValueError):
            parse_cycles("(0 0 1)")
        with pytest.raises(ValueError):
            parse_cycles("(0 1)(1 2)")
        with pytest.raises(ValueError):
            parse_cycles("0 1 2")
        with pytest.raises(ValueError):
            parse_cycles("(0 5)", degree=3)

    @pytest.mark.parametrize("text, at", [("(0 1", 0), ("(0 1)(2 3", 5), (" (0 1) ( 2", 6)])
    def test_parse_names_an_unclosed_cycle(self, text, at):
        with pytest.raises(ValueError) as info:
            parse_cycles(text)
        assert str(info.value) == "unclosed cycle at position %d in %r" % (at, text.strip())

    def test_identity_round_trip(self):
        assert format_cycles(identity_perm(5)) == "()"
        assert Permutation(parse_cycles("()", degree=5)) == identity_perm(5)

    @settings(max_examples=100)
    @given(st.integers(1, 30).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=3)
    ))
    def test_merge_labels_matches_union_find(self, maps):
        # oracle: union-find over the pairs (j, f(j)) of every map, arbitrary
        # maps included; hooking the larger root under the smaller keeps each
        # root the least point of its class
        n = len(maps[0]) if maps else 1
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        label = np.arange(n)
        for f in maps:
            label = merge_labels(label, np.asarray(f))
            for j, fj in enumerate(f):
                a, b = find(j), find(fj)
                parent[max(a, b)] = min(a, b)
        assert label.tolist() == [find(j) for j in range(n)]


class TestChain:
    def test_sym5_order(self):
        gens = symmetric_gens(5)
        assert len(brute_elements(gens, 5)) == 120
        assert PermGroup(gens).order() == 120

    def test_alt5_order(self):
        gens = alternating_gens(5)
        assert len(brute_elements(gens, 5)) == 60
        assert PermGroup(gens).order() == 60

    def test_alt6_even_degree_gens(self):
        assert PermGroup(alternating_gens(6)).order() == 360

    def test_membership_matches_brute(self):
        gens = alternating_gens(5)
        inside = brute_elements(gens, 5)
        group = PermGroup(gens)
        assert is_member(group, Permutation((1, 0, 3, 2, 4)))
        count = 0
        for images in sorted(inside):
            assert is_member(group, Permutation(images))
            count += 1
        assert count == 60
        assert not is_member(group, Permutation(parse_cycles("(0 1)", degree=5)))

    def test_trivial_group(self):
        g = PermGroup([], degree=4)
        assert g.order() == 1
        assert list(permutation_closure([p.images for p in g.generators], 4)) == [identity_perm(4).images]

    def test_elements_enumeration(self):
        group = PermGroup(symmetric_gens(4))
        elems = list(permutation_closure([p.images for p in group.generators], group.degree))
        assert len(elems) == 24
        assert len(set(elems)) == 24
        assert set(elems) == brute_elements(symmetric_gens(4), 4)

    def test_orbit_and_transitivity(self):
        g = PermGroup([Permutation(parse_cycles("(0 1)(2 3)", degree=4))])
        assert labels(g).tolist() == [0, 0, 2, 2]
        assert not is_transitive(g)
        assert is_transitive(PermGroup(symmetric_gens(4)))

    def test_determinism(self):
        a = PermGroup(symmetric_gens(6))
        b = PermGroup(symmetric_gens(6))
        assert a.order() == b.order() == 720
        pts_a = [(lv.point, sorted(lv.transversal)) for lv in a._chain()]
        pts_b = [(lv.point, sorted(lv.transversal)) for lv in b._chain()]
        assert pts_a == pts_b


class TestOneEnumeration:
    """permutation_closure is the one enumeration of a permutation group; the
    stabilizer chain's transversal products give the same element set."""

    @pytest.mark.parametrize("pair", corpus(), ids=lambda p: p.name)
    def test_closure_matches_chain_on_corpus(self, pair):
        for group in (pair.group(), PermGroup(pair.subgroup_generators(), degree=pair.degree)):
            listed = list(permutation_closure([p.images for p in group.generators], group.degree))
            chain = {p.images for p in chain_elements(group)}
            assert len(listed) == len(set(listed)) == group.order() == len(chain)
            assert set(listed) == chain

    def test_breadth_first_from_the_identity(self):
        listed = list(permutation_closure([p.images for p in symmetric_gens(3)], 3))
        assert listed[0] == (0, 1, 2)
        assert listed[1:3] == [g.images for g in symmetric_gens(3)]


class TestNormalClosure:
    def test_three_cycle_in_sym5(self):
        seeds = [Permutation(parse_cycles("(0 1 2)", degree=5))]
        gens = symmetric_gens(5)
        expect = brute_normal_closure(seeds, gens, 5)
        assert len(expect) == 60
        nc = PermGroup(gens).normal_closure(seeds)
        assert nc.order() == 60
        assert set(permutation_closure([p.images for p in nc.generators], 5)) == expect

    def test_double_transposition_in_sym4(self):
        seeds = [Permutation(parse_cycles("(0 1)(2 3)", degree=4))]
        gens = symmetric_gens(4)
        expect = brute_normal_closure(seeds, gens, 4)
        assert len(expect) == 4
        nc = PermGroup(gens).normal_closure(seeds)
        assert nc.order() == 4

    def test_derived_subgroup_of_sym4(self):
        assert derived_subgroup(PermGroup(symmetric_gens(4))).order() == 12

    def test_derived_subgroup_of_alt5_is_itself(self):
        assert derived_subgroup(PermGroup(alternating_gens(5))).order() == 60


class TestRecognition:
    """Alt(n) and Sym(n) are told apart from their proper subgroups by the
    exact chain order against n!/2 and n!, plus transitivity and parity."""

    def test_symmetric(self):
        g = PermGroup(symmetric_gens(6))
        assert is_transitive(g) and g.order() == math.factorial(6)

    def test_alternating(self):
        g = PermGroup(alternating_gens(7))
        assert all(word_parity(p.images) == 0 for p in g.generators)
        assert is_transitive(g) and g.order() == math.factorial(7) // 2

    def test_intransitive_is_neither(self):
        g = PermGroup([Permutation(parse_cycles("(0 1)", degree=4))])
        assert not is_transitive(g)

    def test_transitive_proper_subgroup_is_neither(self):
        # Cyclic of order 5 inside Sym(5): transitive, far from Alt(5).
        g = PermGroup([Permutation(parse_cycles("(0 1 2 3 4)"))])
        assert is_transitive(g) and g.order() == 5

    def test_dihedral_is_neither(self):
        g = PermGroup(
            [Permutation(parse_cycles("(0 1 2 3 4)")), Permutation(parse_cycles("(1 4)(2 3)", degree=5))]
        )
        assert is_transitive(g)
        assert g.order() == 10
