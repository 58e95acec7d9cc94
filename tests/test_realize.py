"""Pipeline and certificate tests.

The C2 run is the flagship: one module-scoped pipeline execution backs the
flag, payload, and re-verification tests.  Tampering tests go through the
JSON payload so they exercise exactly the surface an attacker would touch."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from automizer.grouprep import (
    FiniteGroup,
    InputGroupA,
    ScaleError,
    SGroup,
    are_isomorphic,
    build_S,
    catalog_group,
)
from automizer.permcore import parse_cycles
from automizer.realize import (
    FLAG_NAMES,
    Certificate,
    VerificationPolicy,
    automizer_oracle,
    bertrand_prime,
    build_fusion_for,
    run_pipeline,
    subgroup_count_lower_bound,
    verify_certificate,
    verify_thm31,
)
from automizer.biset import orbit_from_payload
from automizer.fusion import generate
from automizer.park import ParkEmbedding, WreathElement
from automizer.testkit import PermGroup, Permutation, symmetric_gens
from automizer import cli, realize


@pytest.fixture(scope="module")
def c2_parts():
    A = InputGroupA.from_name("C2")
    S, system, U = build_fusion_for(A)
    return A, S, system, U


def payload_of(cert):
    return json.loads(cert.to_json_bytes())


class TestPolicy:
    def test_defaults(self):
        p = VerificationPolicy()
        assert p.max_subgroup_order == 4096
        assert p.max_subgroups == 20000
        assert p.max_n == 10 ** 6
        assert p.as_payload()["max_perm_degree"] == 150
        assert p.as_payload()["level"] == "full"

    def test_rejects_bad_level(self):
        for level in ("fast", "paranoid", None):
            payload = dict(VerificationPolicy().as_payload(), level=level)
            with pytest.raises(ValueError, match="level"):
                VerificationPolicy.from_payload(payload)
        with pytest.raises(TypeError):
            VerificationPolicy(level="full")

    def test_rejects_forged_perm_degree(self):
        payload = VerificationPolicy().as_payload()
        for degree in (100, 10 ** 4, True, 150.0):
            with pytest.raises(ValueError, match="max_perm_degree"):
                VerificationPolicy.from_payload(dict(payload, max_perm_degree=degree))
        del payload["max_perm_degree"]
        with pytest.raises(ValueError, match="max_perm_degree None"):
            VerificationPolicy.from_payload(payload)
        with pytest.raises(TypeError):
            VerificationPolicy(max_perm_degree=150)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            VerificationPolicy(max_n=0)

    def test_payload_round_trip(self):
        p = VerificationPolicy(max_n=5000)
        assert VerificationPolicy.from_payload(p.as_payload()) == p

    @pytest.mark.parametrize(
        "payload",
        [{"max_n": 10, "sample": 3}, {"max_n": "10"}, {"max_n": None}, {"max_n": True}],
    )
    def test_payload_rejects_unknown_key_or_type(self, payload):
        with pytest.raises(ValueError, match="sample|max_n"):
            VerificationPolicy.from_payload(dict(payload, level="full", max_perm_degree=150))


def _union_find_closure(n, seeds, conjugators, max_rounds):
    """The union-find frontier that the label arrays replaced, kept as the
    reference for _closure_transitive."""
    parent = list(range(n))

    def union(a, b):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[b] = a
        return a != b

    for s in seeds:
        for j in range(n):
            union(j, int(s[j]))
    def classes():
        return sum(parent[j] == j for j in range(n))

    frontier = list(seeds)
    rounds = 0
    while frontier and classes() > 1 and rounds < max_rounds:
        rounds += 1
        fresh = []
        for c in conjugators:
            ci = np.argsort(c)
            for sig in frontier:
                tau = c[sig[ci]]
                if any([union(j, int(tau[j])) for j in range(n)]):
                    fresh.append(tau)
                    if classes() == 1:
                        return True, {"rounds": rounds, "classes": 1}
        frontier = fresh
    return classes() == 1, {"rounds": rounds, "classes": classes()}


def _perms(n):
    """Uniform permutations of [0, n), and products of up to three
    transpositions, so that many draws leave several classes."""
    def swapped(pairs):
        p = list(range(n))
        for i, j in pairs:
            p[i], p[j] = p[j], p[i]
        return p

    index = st.integers(0, max(n - 1, 0))
    swaps = st.lists(st.tuples(index, index), max_size=3 if n else 0).map(swapped)
    return st.one_of(st.permutations(range(n)), swaps).map(lambda p: np.asarray(p, dtype=np.int32))


def _cycle(n, points):
    p = np.arange(n, dtype=np.int32)
    p[list(points)] = np.roll(list(points), -1)
    return p


def _symmetric_tops(n):
    return [np.roll(np.arange(n, dtype=np.int32), -1), _cycle(n, (0, 1))]


def _normal_closure_order(seeds, conjugators):
    """The exact order of the normal closure of the seeds under the group
    they generate with the conjugators, by the tests' stabilizer chain: the
    ground truth that the transitivity report only approximates."""
    seed_perms = [Permutation(t.tolist()) for t in seeds]
    group = PermGroup([Permutation(t.tolist()) for t in conjugators] + seed_perms)
    return group.normal_closure(seed_perms).order()


def _shuffled_subset(rng, n):
    """A permutation of [0, n) that shuffles a random subset of 2 to n points."""
    p = np.arange(n, dtype=np.int32)
    subset = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
    p[subset] = rng.permutation(subset)
    return p


def _imprimitive_tops(rng, n, count):
    """Tops that keep the blocks [i b, (i + 1) b) of [0, n): each block goes
    to a block of its own colour, and the n % b points after the last block
    are permuted among themselves.  A conjugate of a seed moves it only
    within the colours it meets, so runs end with several classes."""
    b = int(rng.integers(2, 9))
    m = n // b
    colour = rng.integers(0, int(rng.integers(1, 4)), size=m)
    tops = []
    for _ in range(count):
        blocks = np.arange(m)
        for c in np.unique(colour):
            members = np.flatnonzero(colour == c)
            blocks[members] = rng.permutation(members)
        inside = np.argsort(rng.random((m, b)), axis=1)
        rest = m * b + rng.permutation(n - m * b)
        tops.append(np.concatenate([(blocks[:, None] * b + inside).ravel(), rest]).astype(np.int32))
    return tops


class TestTopClosure:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_labels_agree_with_union_find(self, data):
        n = data.draw(st.integers(0, 40))
        seeds = data.draw(st.lists(_perms(n), max_size=3))
        conjugators = data.draw(st.lists(_perms(n), max_size=3))
        max_rounds = data.draw(st.sampled_from([1, 2, 3, 32]))
        assert realize._closure_transitive(n, seeds, conjugators, max_rounds) == (
            _union_find_closure(n, seeds, conjugators, max_rounds)
        )

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 300), max_rounds=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_labels_agree_on_block_tops(self, seed, n, max_rounds):
        rng = np.random.default_rng(seed)
        seeds = [_shuffled_subset(rng, n) for _ in range(int(rng.integers(1, 3)))]
        conjugators = _imprimitive_tops(rng, n, int(rng.integers(1, 4)))
        assert realize._closure_transitive(n, seeds, conjugators, max_rounds) == (
            _union_find_closure(n, seeds, conjugators, max_rounds)
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_three_cycle_closes_to_alternating(self, n):
        seeds, conjugators = [_cycle(n, (0, 1, 2))], _symmetric_tops(n)
        rep = realize._top_closure(n, seeds, conjugators)
        assert rep["mode"] == "transitivity_only"
        assert rep["ok"] and rep["seeds_even"] and rep["seeds_nontrivial"]
        assert rep["classes"] == 1 and "closure_order" not in rep
        assert _normal_closure_order(seeds, conjugators) == math.factorial(n) // 2

    def test_odd_seed_is_refused(self):
        seeds, conjugators = [_cycle(5, (0, 1))], _symmetric_tops(5)
        rep = realize._top_closure(5, seeds, conjugators)
        assert rep["mode"] == "transitivity_only"
        assert not rep["seeds_even"] and not rep["ok"]
        assert rep["classes"] == 1
        assert _normal_closure_order(seeds, conjugators) == 120

    def test_transitivity_above_the_bound(self):
        n = 151
        rng = np.random.default_rng(7)
        seed = _cycle(n, (0, 1, 2))
        conjugators = [rng.permutation(n).astype(np.int32) for _ in range(3)]
        rep = realize._top_closure(n, [seed], conjugators)
        assert rep["mode"] == "transitivity_only"
        assert rep["ok"] and rep["classes"] == 1
        assert "closure_order" not in rep
        # conjugators that keep each half of the points leave two classes
        halves = [
            np.concatenate([rng.permutation(76), 76 + rng.permutation(75)]).astype(np.int32)
            for _ in range(3)
        ]
        rep = realize._top_closure(n, [seed, _cycle(n, (80, 81, 82))], halves)
        assert not rep["ok"] and rep["classes"] == 2


class TestBertrand:
    def test_small_values(self):
        assert bertrand_prime(2) == 3
        assert bertrand_prime(4) == 5
        assert bertrand_prime(6) == 7

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            bertrand_prime(1)

    @given(m=st.integers(2, 200))
    @settings(max_examples=80, deadline=None)
    def test_least_prime_in_window(self, m):
        p = bertrand_prime(m)
        assert m < p < 2 * m
        assert all(p % d for d in range(2, p))
        assert all(not all(q % d for d in range(2, q)) for q in range(m + 1, p))


class TestTableIsomorphism:
    def test_distinguishes_c4_from_klein(self):
        assert not are_isomorphic(catalog_group("C4"), catalog_group("C2xC2"))

    def test_dihedral6_is_s3(self):
        assert are_isomorphic(catalog_group("D6"), catalog_group("S3"))

    def test_distinguishes_d8_from_q8(self):
        assert not are_isomorphic(catalog_group("D8"), catalog_group("Q8"))

    def test_reflexive(self):
        for name in ("1", "C2", "S4", "Q8"):
            g = catalog_group(name)
            assert are_isomorphic(g, g)


class TestSubgroupBound:
    def test_matches_brute_count_for_elementary_abelian(self):
        # (Z/2)^4 has exactly the predicted number of subgroups
        g = catalog_group("C2xC2xC2xC2")
        assert len(g.all_subgroups()) == subgroup_count_lower_bound(2, 4) == 67

    def test_rejects_next_exponent(self):
        assert subgroup_count_lower_bound(3, 6) == 56632


class TestBuildFusion:
    def test_c2_shape(self, c2_parts):
        A, S, system, U = c2_parts
        assert S.order == 32
        assert U.order == 16
        assert len(system.generators) == 246
        assert len(system.lattice.keys) == 106

    def test_c3_scale_rejection(self):
        with pytest.raises(ScaleError) as exc:
            build_fusion_for(InputGroupA.from_name("C3"))
        assert exc.value.bound_name == "max_subgroups"

    def test_c3_is_refused_before_the_ambient_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the table of S was built")

        monkeypatch.setattr(SGroup, "_build_table", no_table)
        with pytest.raises(ScaleError) as exc:
            build_fusion_for(InputGroupA.from_name("C3"))
        assert str(exc.value) == "scale bound max_subgroups=20000 exceeded (needed 56632)"

    def test_a_512_element_input_names_the_order_bound_first(self, monkeypatch):
        # the count bound costs about rank^4: minutes at rank 1024
        A = InputGroupA.from_name("x".join(["C2"] * 9))
        with pytest.raises(ScaleError) as from_s:
            build_S(A)

        def no_count(*args):
            raise AssertionError("the subgroup count bound was computed")

        monkeypatch.setattr(realize, "subgroup_count_lower_bound", no_count)
        with pytest.raises(ScaleError) as exc:
            build_fusion_for(A)
        assert exc.value.bound_name == "max_subgroup_order"
        assert exc.value.actual == 2 ** 1024 * 512
        assert str(exc.value) == str(from_s.value)

    def test_thm31_passes(self, c2_parts):
        A, S, system, U = c2_parts
        ok, rep = verify_thm31(S, system, U, A)
        assert ok, rep
        assert rep["aut_U_order"] == 2
        assert rep["largest_index"] > 4

    def test_thm31_rejects_inner_system(self, c2_parts):
        # the inner system has focal subgroup S' and full extension core
        A, S, system, U = c2_parts
        inner = generate(S, list(system.lattice.by_key.values()), [])
        ok, rep = verify_thm31(S, inner, U, A)
        assert not ok
        assert not rep["focal_full"]
        assert not rep["extension_core_trivial"]


class TestOracle:
    def test_s4_klein_automizer_is_s3(self):
        g = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
        v4 = [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)]
        aut = automizer_oracle(g, 4, v4)
        assert aut.order == 6
        assert are_isomorphic(aut, catalog_group("S3"))

    def test_a4_klein_automizer_is_c3(self):
        g = [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)]
        v4 = [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)]
        aut = automizer_oracle(g, 4, v4)
        assert aut.order == 3
        assert are_isomorphic(aut, catalog_group("C3"))

    def test_scale_guard(self):
        g = [parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)]
        with pytest.raises(ScaleError):
            automizer_oracle(g, 5, [parse_cycles("(0 1)(2 3)", 5)], max_elements=10)

    def test_scale_guard_does_not_build_a_chain(self):
        """Sym(100) is refused once its walk passes the bound, with no order
        computed first: the walk holds about a thousand tuples of degree 100."""
        g = [p.images for p in symmetric_gens(100)]
        tracemalloc.start()
        try:
            with pytest.raises(ScaleError, match="max_oracle_elements"):
                automizer_oracle(g, 100, [parse_cycles("(0 1)", 100)], max_elements=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_walk_holds_at_most_ten_million_entries(self, monkeypatch):
        """The walk's bound shrinks with the degree: at degree 1000 it is 10^4
        elements, not 10^5, so U0 = Sym(1000) is refused at its 10^4 + 1st
        element, naming max_oracle_elements, with no MemoryError on the way."""
        made = []
        closure = realize.permutation_closure

        def counting(perms, degree):
            for p in closure(perms, degree):
                made.append(degree)
                yield p

        monkeypatch.setattr(realize, "permutation_closure", counting)
        g = [p.images for p in symmetric_gens(1000)]
        tracemalloc.start()
        try:
            with pytest.raises(ScaleError, match="max_oracle_elements=10000 exceeded") as info:
                automizer_oracle([parse_cycles("(0 1)", 1000)], 1000, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.bound_value == 10 ** 4 and len(made) == 10 ** 4 + 1
        assert peak < 256 << 20


class TestPipeline:
    def test_accepted(self, c2_cert):
        assert c2_cert.accepted
        assert c2_cert.failed_stage is None
        assert all(c2_cert.flags[name] for name in FLAG_NAMES)

    def test_frozen_quantities(self, c2_cert):
        assert c2_cert.prime == 3
        assert c2_cert.exponent == 2
        assert c2_cert.biset["m"] == 8
        assert c2_cert.biset["n"] == 7792
        assert c2_cert.biset["orbit_count"] == 172
        assert len(c2_cert.fusion_generators) == 246
        assert c2_cert.embedding["top_closure_mode"] == "transitivity_only"
        assert c2_cert.embedding["base_index_convention"] == "target"

    def test_trivial_input_short_circuits(self):
        cert = run_pipeline(InputGroupA.from_name("1"))
        assert cert.accepted
        assert cert.prime is None
        assert cert.biset["n"] == 0
        ok, rep = verify_certificate(cert)
        assert ok, rep

    def test_json_round_trip(self, c2_cert, tmp_path):
        blob = c2_cert.to_json_bytes()
        again = Certificate.from_json_bytes(blob)
        assert again.to_json_bytes() == blob
        path = tmp_path / "cert.json"
        path.write_bytes(blob)
        assert Certificate.load(str(path)).flags == c2_cert.flags

    def test_acceptance_bit_is_checked_on_load(self, c2_cert):
        payload = json.loads(c2_cert.to_json_bytes())
        payload["flags"]["witnesses_ok"] = False
        with pytest.raises(ValueError):
            Certificate.from_payload(payload)

    def test_monotone_in_scale_bounds(self, c2_cert):
        raised = VerificationPolicy(
            max_subgroup_order=8192, max_subgroups=40000, max_n=10 ** 7
        )
        cert = run_pipeline(InputGroupA.from_name("C2"), raised)
        assert cert.flags == c2_cert.flags
        assert cert.accepted


# the sections the stages after the ambient one fill, in stage order
STAGE_SECTIONS = ("construction_checks", "biset", "embedding", "prime", "main_checks")


def assert_filled_through(sections, stage):
    """The sections of the stages up to the failed one are filled, and the
    rest keep the values of a stage that did not run: {}, or None for the
    prime.  sections is a certificate's fields or a verify report."""
    filled = STAGE_SECTIONS[: STAGE_SECTIONS.index(stage) + 1]
    assert [name for name in STAGE_SECTIONS if sections[name] not in ({}, None)] == list(filled)
    assert all(sections[name] == (None if name == "prime" else {}) for name in STAGE_SECTIONS if name not in filled)


class TestSharedStages:
    def test_failed_stage_is_the_same_in_realize_and_verify(self, c2_cert, monkeypatch):
        real = realize.verify_thm31

        def failing(*args):
            _, rep = real(*args)
            return False, dict(rep, family_joins=False)

        monkeypatch.setattr(realize, "verify_thm31", failing)
        cert = run_pipeline(InputGroupA.from_name("C2"))
        assert not cert.accepted
        assert cert.failed_stage == "construction_checks"
        assert cert.biset == cert.embedding == cert.main_checks == {}
        assert cert.prime is None
        ok, rep = verify_certificate(c2_cert)
        assert not ok
        assert rep["failed_stage"] == "construction_checks"
        assert "family_joins" in rep["reason"]
        for sections in (vars(cert), rep):
            assert_filled_through(sections, "construction_checks")


# the flags of the embedding stage and of every stage before it
FLAGS_TO_WITNESSES = FLAG_NAMES[: FLAG_NAMES.index("witnesses_ok") + 1]


class TestWitnessesOkRows:
    """The witnesses_ok rows of the flag matrix: a witness that fails its
    conjugation identity fails witnesses_ok alone, at the embedding stage,
    in realize and in verify; a stored witness whose runs or top are
    malformed is refused at that stage before any identity is checked."""

    @pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
    def test_a_rejected_witness_fails_witnesses_ok_alone(self, c2_cert, monkeypatch, which):
        real = ParkEmbedding.check_witness
        rejected = []

        def rejecting(pe, phi, g):
            if phi is pe.system.generators[which]:
                rejected.append(phi)
                return False
            return real(pe, phi, g)

        monkeypatch.setattr(ParkEmbedding, "check_witness", rejecting)
        cert = run_pipeline(InputGroupA.from_name("C2"))
        ok, rep = verify_certificate(c2_cert)
        assert len(rejected) == 2
        assert not cert.accepted and not ok
        assert cert.failed_stage == rep["failed_stage"] == "embedding"
        assert rep["reason"] == "a witness fails its conjugation identity"
        for flags in (cert.flags, rep["flags"]):
            assert [name for name in FLAGS_TO_WITNESSES if not flags[name]] == ["witnesses_ok"]

    @pytest.mark.parametrize("kind", ["lists", "runs"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            ("counts", "base run counts must be positive integers summing to 7792"),
            ("top", "top is not a permutation word"),
        ],
    )
    def test_a_malformed_stored_witness_fails_before_any_check(self, c2_cert, monkeypatch, kind, edit, reason):
        """The last witness with one run count raised by 1, or with its first
        top entry repeated, held as runs or given as lists."""
        calls = []
        monkeypatch.setattr(ParkEmbedding, "check_witness", lambda *args: calls.append(args) or True)
        *kept, last = c2_cert.embedding["witnesses"]
        counts, top = last.counts.copy(), last.top.copy()
        if edit == "counts":
            counts[-1] += 1
        else:
            top[1] = top[0]
        if kind == "runs":
            bad = realize._Witness(last.values, counts, top)
        else:
            bad = {"base_runs": np.column_stack((last.values, counts)).tolist(), "top": top.tolist()}
        cert = dataclasses.replace(c2_cert, embedding=dict(c2_cert.embedding, witnesses=kept + [bad]))
        ok, rep = verify_certificate(cert)
        assert (ok, rep["failed_stage"]) == (False, "embedding")
        assert rep["reason"] == "malformed witness: " + reason
        assert calls == []


def patched_verify_embedding(edit):
    """realize.verify_embedding with its report edited, and its verdict
    taken from the edited report as the real one takes it."""
    real = realize.verify_embedding

    def patched(pe):
        _, rep = real(pe)
        rep = dict(rep, **edit)
        return rep["homomorphism"] and rep["injective"] and rep["base_intersection_in_core"], rep

    return patched


def failing(name, **edit):
    """realize.<name> with its verdict false and its report edited."""
    real = getattr(realize, name)

    def patched(*args):
        _, rep = real(*args)
        return False, dict(rep, **edit)

    return patched


def failing_conjunct(key):
    """realize.verify_main with its verdict false and its report's <key>
    conjunct not ok."""
    real = realize.verify_main

    def patched(*args):
        _, rep = real(*args)
        return False, dict(rep, **{key: dict(rep[key], ok=False)})

    return patched


# one row per patched check: the name realize reads (a dotted name patches a
# method of the class realize reads), its stand-in, the flag it fails, the
# stage it stops, the reason, and the last flag its stage checks (a stage
# stops at its first false flag, and the flags after it keep their default:
# the embedding stage stops before witnesses_ok).  The biset reasons name
# the flag and quote the failure text of the check's report.
CHECK_ROWS = [
    ("aut_U_isomorphic", "are_isomorphic", lambda G1, G2: False,
     "autF_U_iso_A", "construction_checks", "construction checks fail: aut_U_isomorphic_to_input", "index_gt_2A"),
    ("focal", "FusionSystem.focal_subgroup", lambda self: self.ambient.subgroup(set()),
     "focal_is_S", "construction_checks", "construction checks fail: focal_full", "index_gt_2A"),
    ("extension_core", "FusionSystem.extension_core", lambda self: tuple(range(self.ambient.order)),
     "QF_trivial", "construction_checks", "construction checks fail: extension_core_trivial", "index_gt_2A"),
    ("large_index", "FusionSystem.nonextendable_sources", lambda self: {},
     "index_gt_2A", "construction_checks", "construction checks fail: large_index_source", "index_gt_2A"),
    ("generated", "verify_generated", failing("verify_generated", failure="multiplier disagrees with the leading orbit"),
     "biset_generated", "biset", "orbit data rejected (biset_generated): multiplier disagrees with the leading orbit",
     "biset_generated"),
    ("stability", "verify_stability", failing("verify_stability", failure="marks differ on one diagonal class"),
     "biset_stable", "biset", "orbits are not stable (biset_stable): marks differ on one diagonal class", "biset_stable"),
    ("predictions", "check_orbit_predictions", failing("check_orbit_predictions"),
     "orbit_predictions", "biset", "orbit predictions fail", "orbit_predictions"),
    ("homomorphism", "verify_embedding", patched_verify_embedding({"homomorphism": False}),
     "iota_injective_hom", "embedding", "embedding checks fail: homomorphism", "iota_base_trivial"),
    ("injective", "verify_embedding", patched_verify_embedding({"injective": False}),
     "iota_injective_hom", "embedding", "embedding checks fail: injective", "iota_base_trivial"),
    ("top_trivial_elements", "verify_embedding", patched_verify_embedding({"top_trivial_elements": (0, 1)}),
     "iota_base_trivial", "embedding", "embedding checks fail: iota_base_trivial", "iota_base_trivial"),
    ("generator_membership", "gamma_prime_member", lambda a, sprime: False,
     "witnesses_ok", "main_checks", "final battery fails: witnesses_ok", "bertrand_prime"),
    # top_closure_is_An ANDs the top closure (at C2 its transitivity check)
    # with verify_main's degree_conditions; each conjunct fails that flag
    ("closure_transitive", "_closure_transitive", failing("_closure_transitive"),
     "top_closure_is_An", "main_checks", "final battery fails: top_closure_is_An", "bertrand_prime"),
    ("degree_conditions", "verify_main", failing_conjunct("degree_conditions"),
     "top_closure_is_An", "main_checks", "final battery fails: top_closure_is_An", "bertrand_prime"),
    # _is_prime is read by bertrand_prime() too, which realize would then
    # find no prime with; the flag also reads verify_main's prime_conditions
    ("prime_conditions", "verify_main", failing_conjunct("prime_conditions"),
     "bertrand_prime", "main_checks", "final battery fails: bertrand_prime", "bertrand_prime"),
]


class TestCheckRows:
    """The flag-matrix rows of the construction checks, of the biset checks,
    of the embedding checks, of the generator membership conjunct of
    witnesses_ok, of both conjuncts of top_closure_is_An and of the prime
    conditions of bertrand_prime.  Each patched check fails its flag alone
    among the flags its stage and the stages before it check, at the same
    stage in realize and in verify, for a reason that names the flag or
    its report key; and the patched realize writes a certificate that is
    not accepted.  generator_membership fails witnesses_ok, at main_checks."""

    @pytest.mark.parametrize(
        "name, patched, flag, stage, reason, last", [row[1:] for row in CHECK_ROWS], ids=[row[0] for row in CHECK_ROWS]
    )
    def test_a_failed_check_fails_its_flag_alone(self, c2_cert, monkeypatch, name, patched, flag, stage, reason, last):
        monkeypatch.setattr("automizer.realize." + name, patched)
        cert = run_pipeline(InputGroupA.from_name("C2"))
        ok, rep = verify_certificate(c2_cert)
        assert not ok and cert.failed_stage == rep["failed_stage"] == stage
        assert rep["reason"] == reason
        checked = FLAG_NAMES[: FLAG_NAMES.index(last) + 1]
        for flags in (cert.flags, rep["flags"]):
            assert [name for name in checked if not flags[name]] == [flag]
        for sections in (vars(cert), rep):
            assert_filled_through(sections, stage)
        assert not cert.accepted
        assert verify_certificate(Certificate.from_json_bytes(cert.to_json_bytes()))[0] is False


class TestVerifyCertificate:
    def test_clean_full(self, c2_cert):
        ok, rep = verify_certificate(c2_cert)
        assert ok, rep
        assert rep["flag_mismatches"] == []

    def test_rejects_fast_level(self, c2_cert):
        payload = payload_of(c2_cert)
        payload["policy"]["level"] = "fast"
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok
        assert rep["failed_stage"] == "input"
        assert "level 'fast'" in rep["reason"]

    def test_rejects_unaccepted(self, c2_cert):
        payload = payload_of(c2_cert)
        payload["flags"]["biset_stable"] = False
        payload["accepted"] = False
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok
        assert "not accepted" in rep["reason"]

    def test_rejects_corrupt_input_table(self, c2_cert):
        payload = payload_of(c2_cert)
        payload["input"]["table"] = [[0, 1], [1, 1]]
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok

    def test_rejects_wrong_table_hash(self, c2_cert):
        payload = payload_of(c2_cert)
        payload["input"]["table_sha256"] = "0" * 64
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok
        assert "hash" in rep["reason"]

    def test_rejects_dropped_generator(self, c2_cert):
        payload = payload_of(c2_cert)
        del payload["fusion_generators"][10]
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok
        assert "generator" in rep["reason"]

    def test_rejects_corrupt_slot_count(self, c2_cert):
        payload = payload_of(c2_cert)
        payload["biset"]["n"] += 8
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok
        assert "orbit data" in rep["reason"]

    def test_rejects_corrupt_witness(self, c2_cert):
        payload = payload_of(c2_cert)
        runs = payload["embedding"]["witnesses"][0]["base_runs"]
        runs[0][0] = (runs[0][0] + 1) % 32
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok

    def test_rejects_corrupt_prime(self, c2_cert):
        payload = payload_of(c2_cert)
        payload["prime"] = 4
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok

    def test_rejects_corrupt_iota_image(self, c2_cert):
        payload = payload_of(c2_cert)
        top = payload["embedding"]["iota_generators"][0]["top"]
        top[0], top[1] = top[1], top[0]
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def run_length(values) -> list[list[int]]:
    """[value, count] for each maximal run of equal entries, in order."""
    return [[v, len(list(group))] for v, group in itertools.groupby(np.asarray(values).tolist())]


class TestWitnessText:
    """The certificate writer joins each built witness's text from its arrays
    and writes it between the chunks of the rest; the text must be exactly what
    json.dumps makes of the witness payload."""

    S3 = catalog_group("S3")

    def test_every_c2_witness(self, c2_cert):
        built = c2_cert.embedding["witnesses"]
        assert len(built) == 246
        digits = realize._digits(7792, 31)
        for w in built:
            assert isinstance(w, realize._Witness)
            expected = {"top": w.top.tolist(), "base_runs": run_length(w.base)}
            assert realize._wreath_text(w, digits) == canonical_json(expected).encode("ascii")

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 14)), max_size=6),
        st.randoms(use_true_random=False),
    )
    @example([(5, 1)], None)
    @example([(5, 12)], None)
    @example([(0, 3), (5, 10), (0, 1)], None)
    @settings(max_examples=100, deadline=None)
    def test_small_elements(self, runs, rng):
        base = [v for v, c in runs for _ in range(c)]
        top = list(range(len(base)))
        if rng is not None:
            rng.shuffle(top)
        digits = realize._digits(len(base), 5)
        expected = {"top": top, "base_runs": run_length(base)}
        w = realize._Witness.of(WreathElement(self.S3, base, top))
        assert realize._wreath_text(w, digits) == canonical_json(expected).encode("ascii")

    def test_same_verdict_in_memory_and_loaded(self, c2_cert):
        loaded = Certificate.from_json_bytes(c2_cert.to_json_bytes())
        in_memory, from_file = verify_certificate(c2_cert), verify_certificate(loaded)
        assert in_memory[0] and from_file[0]
        assert in_memory == from_file

    def test_a_string_reading_like_a_hole_is_written_plainly(self, c2_cert):
        cert = dataclasses.replace(c2_cert, input=dict(c2_cert.input, name="\0"))
        payload = payload_of(c2_cert)
        payload["input"]["name"] = "\0"
        assert cert.to_json_bytes() == (canonical_json(payload) + "\n").encode("ascii")


def reference_read(data: bytes) -> Certificate:
    """The certificate reader with no witness fast path: one json.loads of
    the whole text."""
    try:
        payload = json.loads(data.decode("ascii"), parse_constant=realize._not_a_number)
    except RecursionError:
        raise ValueError("certificate nests too deeply to parse") from None
    return Certificate.from_payload(payload)


def read_and_verify(read, data):
    """(certificate, outcome): the outcome is the verdict, failed stage and
    reason, or the type and message of the error the read raised."""
    try:
        cert = read(data)
    except ValueError as exc:
        return None, (type(exc), str(exc))
    ok, rep = verify_certificate(cert)
    return cert, (ok, rep.get("failed_stage"), rep.get("reason"))


def _first_witness(text, rewrite):
    """The text with its first witness replaced by rewrite(payload)."""
    start = text.index('"witnesses":[{') + len('"witnesses":[')
    end = text.index("]}", start) + 2
    return text[:start] + rewrite(json.loads(text[start:end])) + text[end:]


def _split_a_run(w):
    runs = w["base_runs"]
    i = next(i for i, (_, count) in enumerate(runs) if count > 1)
    runs[i:i + 1] = [[runs[i][0], 1], [runs[i][0], runs[i][1] - 1]]
    return canonical_json(w)


def _set_top(w, i, value):
    w["top"][i] = value
    return canonical_json(w)


def _set_base_value(w, value):
    w["base_runs"][0][0] = value
    return canonical_json(w)


SMALL_WITNESS = '{"base_runs":[[0,1]],"top":[0]}'


def _marker_lookalike(text):
    """The witness list [w, "\\u00001"] and a witness object under
    main_checks: the string is the marker the reader would put in place of
    that second object."""
    payload = json.loads(text)
    payload["embedding"]["witnesses"][1:] = ["\0" + "1"]
    payload["main_checks"]["a"] = json.loads(SMALL_WITNESS)
    return canonical_json(payload) + "\n"


def _non_ascii_in_top(w):
    text = canonical_json(w)
    at = text.index('"top":[') + len('"top":[') + 3
    return text[:at] + "\u00e9" + text[at:]


def _in_name(text, raw):
    """The text with raw put at the start of the input name string."""
    return text.replace('"input":{"name":"', '"input":{"name":"' + raw, 1)


# each case: (id, document, rewrite of its canonical text, whether its first
# witness is held as arrays once read, or None where the text does not
# parse).  The small document is the trivial certificate with three witnesses
# added; its verdict comes before the witness stage.  The C2 cases reach it.
READER_CASES = [
    ("witness_text_in_a_string", "small", lambda t: _in_name(t, json.dumps(SMALL_WITNESS)[1:-1]), True),
    ("raw_witness_in_a_string", "small", lambda t: _in_name(t, SMALL_WITNESS), None),
    ("escaped_quote_before_a_witness", "small", lambda t: _in_name(t, "\\" + SMALL_WITNESS), None),
    ("witness_under_main_checks", "small", lambda t: t.replace('"main_checks":{', '"main_checks":{"a":%s,' % SMALL_WITNESS), False),
    ("duplicate_embedding_first", "small", lambda t: '{"embedding":{"witnesses":[%s]},' % SMALL_WITNESS + t[1:], False),
    ("duplicate_embedding_last", "small", lambda t: t[:-2] + ',"embedding":{"witnesses":[%s]}}\n' % SMALL_WITNESS, False),
    ("nul_escape_in_a_name", "small", lambda t: _in_name(t, "\\u0000"), False),
    ("nul_marker_lookalike", "small", _marker_lookalike, False),
    ("nul_escape_in_a_key", "small", lambda t: t.replace('"main_checks":{', '"main_checks":{"\\u0000":0,'), False),
    ("leading_zero", "small", lambda t: _first_witness(t, lambda w: canonical_json(w).replace('"top":[', '"top":[0')), None),
    ("trailing_comma", "small", lambda t: _first_witness(t, lambda w: canonical_json(w)[:-2] + ",]}"), None),
    ("zero_count_run", "small", lambda t: _first_witness(t, lambda w: canonical_json(w).replace("[[", "[[0,0],[", 1)), False),
    ("non_maximal_runs", "small", lambda t: _first_witness(t, _split_a_run), False),
    ("top_entry_2_63", "small", lambda t: _first_witness(t, lambda w: _set_top(w, 0, 2 ** 63)), False),
    # above the degree, so no digit table of 10 ** 12 entries is made
    ("base_value_10_12", "small", lambda t: _first_witness(t, lambda w: _set_base_value(w, 10 ** 12)), False),
    ("spaces_after_commas", "small", lambda t: _first_witness(t, lambda w: json.dumps(w, sort_keys=True, separators=(", ", ":"))), False),
    ("non_ascii_name", "small", lambda t: _in_name(t, "\u00e9"), None),
    ("base_value_outside_the_group", "c2", lambda t: _first_witness(t, lambda w: _set_base_value(w, 32)), True),
    ("top_not_a_permutation", "c2", lambda t: _first_witness(t, lambda w: _set_top(w, 1, w["top"][0])), True),
    ("top_entry_equal_to_n", "c2", lambda t: _first_witness(t, lambda w: _set_top(w, 0, len(w["top"]))), True),
    # a byte that is not ASCII in an entry, and in the plain text after the
    # entries: the ASCII decode fails the same way either way
    ("non_ascii_in_a_witness_top", "c2", lambda t: _first_witness(t, _non_ascii_in_top), None),
    ("non_ascii_after_the_witnesses", "c2", lambda t: _in_name(t, "\u00e9"), None),
]


class TestReaderEquivalence:
    """Certificate.from_json_bytes reads witnesses in canonical text straight
    into arrays.  On every document it must give the payload, verdict and
    reason of one plain json.loads of the whole text."""

    @pytest.fixture(scope="class")
    def texts(self, c2_cert):
        small = payload_of(run_pipeline(InputGroupA.from_name("1")))
        small["embedding"]["witnesses"] = [
            {"base_runs": [[1, 2], [0, 1]], "top": [2, 0, 1]},
            {"base_runs": [[0, 3]], "top": [0, 1, 2]},
            {"base_runs": [], "top": []},
        ]
        return {"small": canonical_json(small) + "\n", "c2": c2_cert.to_json_bytes().decode("ascii")}

    def test_the_c2_certificate_is_read_as_arrays(self, c2_cert, texts):
        cert = Certificate.from_json_bytes(texts["c2"].encode("ascii"))
        assert all(isinstance(w, realize._Witness) for w in cert.embedding["witnesses"])
        assert cert.to_payload() == c2_cert.to_payload()
        assert cert.to_json_bytes() == texts["c2"].encode("ascii")

    @pytest.mark.parametrize("doc, rewrite, held", [c[1:] for c in READER_CASES], ids=[c[0] for c in READER_CASES])
    def test_same_as_one_json_loads(self, texts, doc, rewrite, held):
        text = rewrite(texts[doc])
        assert text != texts[doc]
        data = text.encode("utf-8")
        cert, outcome = read_and_verify(Certificate.from_json_bytes, data)
        ref, ref_outcome = read_and_verify(reference_read, data)
        assert outcome == ref_outcome
        if held is None:
            assert cert is None
            return
        assert isinstance(cert.embedding["witnesses"][0], realize._Witness) is held
        assert cert.to_payload() == ref.to_payload()
        assert cert.to_json_bytes() == ref.to_json_bytes()


# the reader's reference: a witness, or an iota_generators entry with its
# element between the runs and the top, whose arrays hold only digits,
# commas and brackets and whose element only digits
ENTRY_TEXT = re.compile(rb'\{"base_runs":\[([0-9,\[\]]*)\],(?:"element":([0-9]+),)?"top":\[([0-9,]*)\]\}')


def round_trip_arrays(text: bytes):
    """The entry in canonical text, or None, decided the way the reader once
    did: match ENTRY_TEXT, parse the numbers, then write the arrays back
    with _wreath_text and compare the characters.  The reader holds an
    element below 10^18, as an int64 holds it."""
    match = ENTRY_TEXT.fullmatch(text)
    if match is None:
        return None
    try:
        top = np.fromstring(match[3], dtype=np.int64, sep=",")
        runs = np.fromstring(match[1].translate(None, b"[]"), dtype=np.int64, sep=",")
    except ValueError:
        return None
    n = top.size
    if runs.size % 2 or max(top.max(initial=0), runs.max(initial=0)) > n:
        return None
    values, counts = runs[0::2], runs[1::2]
    if counts.sum() != n:
        return None
    arrays = (*realize._runs(np.repeat(values, counts)), top)
    if match[2] is None:
        w = realize._Witness(*arrays)
    elif int(match[2]) < 10 ** 18:
        w = realize._IotaImage(*arrays, int(match[2]))
    else:
        return None
    return w if realize._wreath_text(w, realize._digits(n, n)) == text else None


def read_arrays(text: bytes):
    """The reader's entry for the whole text, or None."""
    found = realize._entry_at(text, 0) if text.startswith(realize._OPEN) else None
    return found[0] if found is not None and found[1] == len(text) else None


def _witness_text(runs, top):
    return '{"base_runs":[%s],"top":[%s]}' % (runs, ",".join(map(str, top)))


def _iota_text(element, runs="[0,2]", top=(1, 0)):
    return '{"base_runs":[%s],"element":%s,"top":[%s]}' % (runs, element, ",".join(map(str, top)))


@st.composite
def edited_witness_text(draw):
    """Canonical text of a witness, or of an iota_generators entry with an
    element, with one small edit: in its arrays a digit changed, a leading
    zero, a comma, bracket or digit put in or taken out, a digit after a ],
    two runs merged by taking out their ],[ , or a run split in two; or its
    element made bad, taken out, moved out of key order or given a stray
    digit next to it.  Numbers run past the degree n now and then."""
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = rng.integers(0, n + 2, size=n).tolist()
    runs = run_length(np.repeat(rng.integers(0, n + 2, size=n), rng.integers(1, 5, size=n))[:n])
    element = draw(st.one_of(st.none(), st.integers(0, 40), st.just(10 ** 18 - 1)))
    entry = {"base_runs": runs, "top": top} if element is None else {"base_runs": runs, "element": element, "top": top}
    kinds = ["digit", "zero", "insert", "delete", "after_bracket", "merge", "split"]
    kind = draw(st.sampled_from(kinds if element is None else kinds + ["element"] * 4))
    if kind == "split":
        at = [i for i, (_, count) in enumerate(runs) if count > 1]
        if at:
            i = draw(st.sampled_from(at))
            cut = draw(st.integers(1, runs[i][1] - 1))
            runs[i:i + 1] = [[runs[i][0], cut], [runs[i][0], runs[i][1] - cut]]
        return canonical_json(entry).encode("ascii")
    text = canonical_json(entry)
    if kind == "element":
        key = '"element":%d,' % element
        at = text.index(key)
        edits = [
            text.replace(key, '"element":%s,' % draw(st.sampled_from(
                ["-1", "1.5", '"1"', "true", "null", "", "1e2", "01", "00", " 1", str(10 ** 18), "9" * 25]))),
            text.replace(key, ""),
            text.replace(key, "")[:-1] + ',"element":%d}' % element,
            '{"element":%d,' % element + text.replace(key, "")[1:],
            text[:at] + draw(st.sampled_from("0123456789")) + text[at:],
            text[:at + len(key) - 1] + draw(st.sampled_from("0123456789")) + text[at + len(key) - 1:],
            text[:at + len(key)] + draw(st.sampled_from("0123456789")) + text[at + len(key):],
            text[:at + len('"element":')] + draw(st.sampled_from("0123456789")) + text[at + len('"element":'):],
        ]
        return draw(st.sampled_from(edits)).encode("ascii")
    start, end = len('{"base_runs":['), len(text) - len("]}")
    places = {
        "digit": [i for i in range(start, end) if text[i].isdigit()],
        "zero": [i for i in range(start, end) if text[i].isdigit() and text[i - 1] in "[,:"],
        "insert": range(start, end + 1),
        "delete": range(start, end),
        "after_bracket": [i + 1 for i in range(start, end) if text[i] == "]"],
        "merge": [i for i in range(start, end) if text.startswith("],[", i)],
    }[kind]
    if not places:
        return text.encode("ascii")
    i = draw(st.sampled_from(places))
    if kind == "digit":
        text = text[:i] + draw(st.sampled_from("0123456789")) + text[i + 1:]
    elif kind == "zero":
        text = text[:i] + "0" + text[i:]
    elif kind in ("insert", "after_bracket"):
        text = text[:i] + draw(st.sampled_from(",[]0123456789" if kind == "insert" else "0123456789")) + text[i:]
    else:
        text = text[:i] + text[i + (3 if kind == "merge" else 1):]
    return text.encode("ascii")


class TestCanonicalWitnessText:
    """_entry_at accepts the text of a witness or of an iota_generators
    entry from checks on the text and on the arrays it parses.  It must
    accept exactly the texts that ENTRY_TEXT matches and that read back
    through _wreath_text to the same characters, with the same arrays and
    element; and the whole-document reader holds exactly those, with the
    payload json.loads gives."""

    @given(edited_witness_text())
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_the_round_trip(self, text):
        self.check(text)

    @pytest.mark.parametrize(
        "text",
        [
            # digit-free skeleton [,],[,] and digit total as in canonical
            # text, but the 3 lies between ] and ,
            _witness_text("[1,2]3,[4,5]", range(28)),
            _witness_text("[1,2],3[4,5]", range(7)),
            _witness_text("[[1,2]]", range(2)),
            _witness_text("[1,2,3,14]", range(16)),
            # the stray digit joins a number that passes every other check
            _witness_text("1[0,12]", range(12)),
            _witness_text("[1,1]2", range(12)),
            _witness_text("[,2]", range(2)),
            _witness_text("[2,]", range(2)),
            _witness_text("[1,02]", range(2)),
            '{"base_runs":[[0,2]],"top":[0,]}',
            '{"base_runs":[[0,2]],"top":[,0]}',
            '{"base_runs":[[0,2]],"top":[0,,1]}',
            '{"base_runs":[[0,2]],"top":[0,1]]}',
            _witness_text("[1,1],[1,1]", range(2)),
            _witness_text("[1,0],[0,2]", range(2)),
            _witness_text("[0,1],[1,2]", [3, 1, 0]),
            _witness_text("", []),
            _witness_text("[0,3]", [0, 1]),
            # iota_generators entries: canonical, a bad element, the element
            # missing or out of key order, and a stray digit next to it
            _iota_text(3),
            _iota_text(0),
            _iota_text(10 ** 18 - 1),
            _iota_text(10 ** 18),
            _iota_text("03"),
            _iota_text("-1"),
            _iota_text(""),
            _iota_text('"3"'),
            _iota_text("3.0"),
            _iota_text(3, runs="", top=()),
            '{"base_runs":[[0,2]],"top":[1,0],"element":3}',
            '{"element":3,"base_runs":[[0,2]],"top":[1,0]}',
            '{"base_runs":[[0,2]]4,"element":3,"top":[1,0]}',
            '{"base_runs":[[0,2]],4"element":3,"top":[1,0]}',
            '{"base_runs":[[0,2]],"element":3,4"top":[1,0]}',
            '{"base_runs":[[0,2]],"element":3 ,"top":[1,0]}',
            '{"base_runs":[[0,2]],"element":3,"top":[1,0],4}',
        ],
    )
    def test_hand_made_cases(self, text):
        self.check(text.encode("ascii"))

    def check(self, text):
        expected, got = round_trip_arrays(text), read_arrays(text)
        assert (got is None) == (expected is None)
        if got is not None:
            assert type(got) is type(expected)
            assert got.base.tolist() == expected.base.tolist()
            assert got.top.tolist() == expected.top.tolist()
            assert getattr(got, "element", None) == getattr(expected, "element", None)
        doc = b'{"embedding":{"iota_generators":[%s],"witnesses":[%s]}}' % (text, text)
        read = realize._read_witness_text(doc)
        assert (read is None) == (got is None)
        if read is not None:
            embedding = read["embedding"]
            assert [type(w) for w in embedding["iota_generators"] + embedding["witnesses"]] == [type(got)] * 2
            assert read == json.loads(doc)

    def test_the_c2_load_writes_no_witness_text(self, c2_cert, monkeypatch):
        data = c2_cert.to_json_bytes()
        calls = []
        monkeypatch.setattr(realize, "_wreath_text", lambda *args: calls.append(args))
        cert = Certificate.from_json_bytes(data)
        assert calls == []
        assert all(isinstance(w, realize._Witness) for w in cert.embedding["witnesses"])
        assert all(isinstance(w, realize._IotaImage) for w in cert.embedding["iota_generators"])


# the bytes a fuzz edit puts in: JSON's brackets, braces, separators, quote
# and digits, a minus, a point, a space, and four bytes that are not ASCII
EDIT_BYTES = b'[]{},:"0123456789-. \x80\xc3\xe9\xff'


def text_parts(text: bytes) -> list[bytes]:
    """The text split at each entry ENTRY_TEXT matches: plain text and
    entries in turn, plain text first and last."""
    parts, end = [], 0
    for match in ENTRY_TEXT.finditer(text):
        parts += [text[end:match.start()], match[0]]
        end = match.end()
    return parts + [text[end:]]


def edit_places(part: bytes) -> list[int]:
    """The offsets of a part where its arrays and objects start and end:
    each brace and quote, each bracket next to a bracket, a brace, a colon
    or a quote, and each digit next to such a bracket or after a colon (the
    ends of the runs and the tops, and an element)."""
    b = np.frombuffer(part, np.uint8)

    def before(mask):
        return np.r_[False, mask[:-1]]

    def after(mask):
        return np.r_[mask[1:], False]

    punct = np.isin(b, list(b'[]{}:"'))
    edges = np.isin(b, list(b"[]")) & (before(punct) | after(punct))
    digits = (b >= ord("0")) & (b <= ord("9")) & (before(edges | (b == ord(":"))) | after(edges))
    return np.flatnonzero(np.isin(b, list(b'{}"')) | edges | digits).tolist()


# the kinds of edited_text, byte edits the most often
EDIT_KINDS = ["insert", "delete", "replace"] * 3 + ["zero"] * 2 + ["swap", "copy", "marker", "truncate"]


def edited_text(parts: list[bytes], rng: np.random.Generator) -> bytes:
    """The joined parts after one edit drawn by rng, of one of EDIT_KINDS:
    - insert, delete or replace a byte at a place of edit_places, the byte
      a bracket, a comma or a 0 two times in three;
    - zero: put a 0 before a number of an entry that starts at such a place;
    - swap two entries;
    - copy an entry's text over another entry or a number of the plain text;
    - marker: move an entry's text over the first number of the plain text
      after it, and leave the string of the reader's marker for it in its
      place;
    - truncate the text at such a place."""
    parts = list(parts)
    entries = range(1, len(parts), 2)

    def pick(seq):
        return seq[rng.integers(len(seq))]

    def numbers(i):
        return [m.span() for m in re.finditer(rb"[0-9]+", parts[i])] if i % 2 == 0 else [(0, len(parts[i]))]

    kind = pick(EDIT_KINDS)
    if kind == "swap":
        i, j = pick(entries), pick(entries)
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == "copy":
        i = rng.integers(len(parts))
        spans = numbers(i)
        if spans:
            start, end = pick(spans)
            parts[i] = parts[i][:start] + parts[pick(entries)] + parts[i][end:]
    elif kind == "marker":
        i = pick(entries)
        spans = numbers(i + 1)
        if spans:
            start, end = spans[0]
            parts[i + 1] = parts[i + 1][:start] + parts[i] + parts[i + 1][end:]
            parts[i] = b'"\\u0000%d"' % (i // 2)
    else:
        i = pick(entries) if kind == "zero" or rng.random() < 0.5 else rng.integers(len(parts))
        places = edit_places(parts[i])
        if kind == "zero":
            places = [p for p in places if parts[i][p:p + 1].isdigit() and not parts[i][p - 1:p].isdigit()]
        at = pick(places or [0])
        if kind == "truncate":
            return b"".join(parts[:i]) + parts[i][:at]
        byte = b"0" if kind == "zero" else bytes([pick(b"[],0" if rng.random() < 2 / 3 else EDIT_BYTES)])
        parts[i] = parts[i][:at] + (b"" if kind == "delete" else byte) + parts[i][at + (kind == "replace"):]
    return b"".join(parts)


def read_outcome(read, data):
    """The payload of the certificate read, or the type and message of the
    ValueError the read raised."""
    try:
        return read(data).to_payload()
    except ValueError as exc:
        return type(exc), str(exc)


class TestFuzzedC2Text:
    """Byte edits of the C2 text, near its separators and entry boundaries.
    The reader must raise exactly where one json.loads of the whole text
    does, with the same error, and read an equal payload everywhere else;
    and verify on the command line must end with exit 0 or 1 and a line
    that says why, never a traceback."""

    @pytest.fixture(scope="class")
    def full_parts(self, c2_cert):
        return text_parts(c2_cert.to_json_bytes())

    @pytest.fixture(scope="class")
    def cut_parts(self, c2_cert):
        """The C2 text with only its first three witnesses: the reader's
        contract holds on any document, and a small one reads fast."""
        payload = payload_of(c2_cert)
        del payload["embedding"]["witnesses"][3:]
        return text_parts((canonical_json(payload) + "\n").encode("ascii"))

    def test_the_parts_hold_every_entry(self, full_parts, cut_parts):
        assert len(full_parts) == 2 * (3 + 246) + 1
        assert len(cut_parts) == 2 * (3 + 3) + 1

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def test_same_as_one_json_loads(self, cut_parts, seed):
        text = edited_text(cut_parts, np.random.default_rng(seed))
        assert read_outcome(Certificate.from_json_bytes, text) == read_outcome(reference_read, text)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    def test_verify_ends_with_a_reason(self, full_parts, tmp_path_factory, seed):
        path = tmp_path_factory.getbasetemp() / "fuzzed_c2.json"
        path.write_bytes(edited_text(full_parts, np.random.default_rng(seed)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--cert", str(path)])
        assert code in (0, 1)
        assert out.getvalue().startswith(("certificate verifies", "certificate REJECTED", "unreadable certificate"))


class TestStoredIotaImages:
    """_Stored.agree compares held entries as arrays, and any other entry by
    its JSON text.  Either way it must reject an embedding whose only
    difference is one iota top entry, and accept the same embedding."""

    @pytest.mark.parametrize("form", ["held", "lists"])
    def test_one_iota_top_entry_differs(self, c2_cert, form):
        loaded = Certificate.from_json_bytes(c2_cert.to_json_bytes())
        images = loaded.embedding["iota_generators"]
        assert all(isinstance(w, realize._IotaImage) for w in images)
        last = images[-1]
        top = last.top.copy()
        top[0], top[1] = top[1], top[0]
        if form == "held":
            kept, swapped = last, realize._IotaImage(last.values, last.counts, top, last.element)
        else:
            kept, swapped = (dict(last), dict(last, top=top.tolist()))
        for image, agrees in ((kept, True), (swapped, False)):
            embedding = dict(loaded.embedding, iota_generators=images[:-1] + [image])
            stored = realize._Stored(dataclasses.replace(loaded, embedding=embedding))
            if agrees:
                stored.agree(embedding=c2_cert.embedding)
            else:
                with pytest.raises(realize._Rejected, match="stored embedding differs"):
                    stored.agree(embedding=c2_cert.embedding)

    def test_same_verdict_as_the_json_text(self, c2_cert):
        """_same_json on held entries, on lists, and on the two mixed, equals
        the comparison of the json.dumps texts."""
        image = c2_cert.embedding["iota_generators"][0]
        other = realize._IotaImage(image.values, image.counts, image.top, image.element + 1)
        witness = realize._Witness(image.values, image.counts, image.top)
        forms = [image, other, witness, dict(image), dict(other), dict(witness), "\0", {"a": "\0"}]
        for a, b in itertools.product(forms, repeat=2):
            for x, y in ((a, b), ([a, "\0"], ["\0", b]), ({"k": [a]}, {"k": [b]})):
                expected = json.dumps(x, sort_keys=True, default=dict) == json.dumps(y, sort_keys=True, default=dict)
                assert realize._same_json(x, y) is expected


def traced(call):
    """call() under tracemalloc: its result, and the traced bytes it left
    held and at its peak, both counted above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


class TestStreamedCertificate:
    """The certificate is written in pieces and read without a second copy
    of its text.  A whole copy of the C2 text is 12.2 MB; the memory bounds
    are far below that."""

    def test_one_chunk_per_witness(self, c2_cert):
        """One chunk per witness and per iota_generators entry, each held as
        arrays, and one per piece of the rest between them."""
        chunks = list(c2_cert.json_chunks())
        assert len(chunks) == 2 * (246 + 3) + 1
        assert max(map(len, chunks)) < 2 ** 20

    def test_the_digit_tables_are_sized_by_the_degree_and_the_run_values(self, c2_cert, monkeypatch):
        """The "[v," table is read only at run values, below |S| = 32."""
        bounds = []
        digits = realize._digits
        monkeypatch.setattr(realize, "_digits", lambda *args: bounds.append(args) or digits(*args))
        list(c2_cert.json_chunks())
        assert bounds == [(7792, 31)]

    def test_a_foreign_object_fails_before_the_first_chunk(self, c2_cert):
        cert = dataclasses.replace(c2_cert, main_checks={"a": object()})
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            next(cert.json_chunks())

    def test_the_write_holds_no_copy_of_the_document(self, c2_cert, tmp_path):
        path = tmp_path / "c2.json"

        def write():
            with open(path, "wb") as fh:
                for chunk in c2_cert.json_chunks():
                    fh.write(chunk)

        _, _, peak = traced(write)
        assert path.stat().st_size == 12204862
        assert peak < 2 * 10 ** 6

    def test_the_read_holds_no_second_copy_of_the_text(self, c2_cert):
        data = c2_cert.to_json_bytes()
        cert, held, peak = traced(lambda: Certificate.from_json_bytes(data))
        # the witness arrays are most of what the read leaves held
        assert all(isinstance(w, realize._Witness) for w in cert.embedding["witnesses"])
        assert peak < 1.25 * held

    def test_witness_arrays_are_read_only(self, c2_cert):
        read = Certificate.from_json_bytes(c2_cert.to_json_bytes())
        for w in (c2_cert.embedding["witnesses"][0], read.embedding["witnesses"][0]):
            for array in (w.values, w.counts, w.base, w.top):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_a_witness_holds_its_top_and_runs_alone(self, c2_cert):
        """Each C2 witness, built or read, holds its top and its two run
        arrays, one-dimensional and owning their data, and no n-entry base:
        the top and the counts int16 (n = 7792 < 2^15), the run values int8
        (below |S| = 32), so 2n + 3 runs bytes."""
        read = Certificate.from_json_bytes(c2_cert.to_json_bytes())
        for cert in (c2_cert, read):
            held = cert.embedding["witnesses"]
            assert len(held) == 246
            runs = 0
            for w in held:
                assert type(w).__slots__ == ("values", "counts", "top") and not hasattr(w, "__dict__")
                arrays = (w.values, w.counts, w.top)
                assert all(a.ndim == 1 and a.base is None for a in arrays)
                assert [a.dtype for a in arrays] == [np.int8, np.int16, np.int16]
                assert w.values.size == w.counts.size < w.top.size == 7792
                assert sum(a.nbytes for a in arrays) == 2 * 7792 + 3 * w.values.size
                runs += w.values.size
            assert runs == 423044


class TestWitnessWidths:
    """A held witness's arrays are as narrow as the values they can take:
    the top and the counts by the degree n, the run values by their own
    largest.  No workload reaches n >= 2^15, so the wide path is tested on
    a witness made here."""

    C4 = catalog_group("C4")

    def test_a_narrow_witness_expands_an_int32_base(self, c2_cert):
        for w in c2_cert.embedding["witnesses"][:3] + c2_cert.embedding["iota_generators"]:
            assert (w.values.dtype, w.counts.dtype, w.top.dtype) == (np.int8, np.int16, np.int16)
            assert w.base.dtype == np.int32
            assert w.base.tolist() == [v for v, c in zip(w.values.tolist(), w.counts.tolist()) for _ in range(c)]

    def test_a_witness_past_2_15_slots_keeps_int32(self):
        """n = 40,000, with one run of 39,000 slots: built from arrays,
        written by json_chunks, read back by from_json_bytes and given as
        JSON lists, the top and the counts stay int32, with the same text
        and the same base."""
        n = 40000
        top = np.random.default_rng(5).permutation(n)
        base = np.repeat([3, 0, 2, 3], [1, 39000, 998, 1])
        built = realize._Witness.of(WreathElement(self.C4, base, top))
        text = canonical_json({"base_runs": run_length(base), "top": top.tolist()})
        cert = dataclasses.replace(run_pipeline(InputGroupA.from_name("1")), embedding={"witnesses": [built]})
        data = cert.to_json_bytes()
        assert text.encode("ascii") in data
        read = Certificate.from_json_bytes(data).embedding["witnesses"][0]
        listed = realize._checked_witness(self.C4, json.loads(text))
        for w in (built, read, listed):
            assert isinstance(w, realize._Witness)
            assert (w.values.dtype, w.counts.dtype, w.top.dtype) == (np.int8, np.int32, np.int32)
            assert realize._wreath_text(w, realize._digits(n, 3)) == text.encode("ascii")
            assert w.base.dtype == np.int32 and np.array_equal(w.base, base)
            assert np.array_equal(w.top, top)


class TestMalformedPayloads:
    """The certificate decoders accept only JSON integers, check sizes before
    allocating, and turn every malformed value into a ValueError."""

    C4 = catalog_group("C4")

    def witness(self, top, runs):
        return realize._checked_witness(self.C4, {"top": top, "base_runs": runs})

    @given(st.lists(st.integers(0, 3), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_run_length_round_trip(self, values):
        base = np.asarray(values, dtype=np.int32)
        runs = np.column_stack(realize._runs(base)).tolist()
        assert runs == [[v, len(list(group))] for v, group in itertools.groupby(values)]
        assert self.witness(list(range(len(values))), runs).base.tolist() == values

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 10 ** 4)), min_size=1, max_size=4), st.integers(0, 8))
    @settings(max_examples=50, deadline=None)
    def test_run_counts_must_sum_to_the_top_length(self, runs, n):
        runs = [list(r) for r in runs]
        if sum(c for _, c in runs) == n:
            runs[0][1] += 1
        with pytest.raises(ValueError, match="summing to"):
            self.witness(list(range(n)), runs)

    @pytest.mark.parametrize(
        "runs",
        [[[0, 2 ** 62]], [[0, "2"]], [[0, True], [1, 1]], [[0, 0], [1, 2]], [[0, 2.0]],
         [["1", 2]], [[True, 2]], [[2 ** 40, 2]], [0, 2]],
    )
    def test_rejects_bad_runs(self, runs):
        with pytest.raises(ValueError):
            self.witness([1, 0], runs)

    @pytest.mark.parametrize(
        "top", [[2 ** 40, 0], ["1", 0], [True, 0], [1.0, 0], [float("inf"), 0], "10"]
    )
    def test_rejects_bad_top(self, top):
        el = self.witness([1, 0], [[3, 1], [0, 1]])
        assert el.top.tolist() == [1, 0] and el.base.tolist() == [3, 0]
        with pytest.raises(ValueError):
            self.witness(top, [[0, 2]])

    @pytest.mark.parametrize("mult", [float("inf"), "2", True, 2.0, None])
    def test_orbit_multiplicity_must_be_an_integer(self, mult):
        system = generate(self.C4, self.C4.all_subgroups(), [])
        payload = {"source_generators": [1], "generator_images": [1], "multiplicity": 2}
        assert orbit_from_payload(system, payload).multiplicity == 2
        with pytest.raises(ValueError, match="multiplicity"):
            orbit_from_payload(system, dict(payload, multiplicity=mult))

    @pytest.mark.parametrize("m,n", [("8", 4), (8, "4"), (True, 4), (8, 4.0)])
    def test_stored_m_and_n_must_be_integers(self, m, n):
        system = generate(self.C4, self.C4.all_subgroups(), [])
        orbit = {"source_generators": [1], "generator_images": [1], "multiplicity": 1}
        stored = realize._Stored(SimpleNamespace(biset={"orbits": [orbit], "m": m, "n": n}))
        with pytest.raises(realize._Rejected, match="integers"):
            stored.biset(system, VerificationPolicy(), None)

    def test_stored_slot_count_is_bounded_before_the_embedding(self):
        system = generate(self.C4, self.C4.all_subgroups(), [])
        orbit = {"source_generators": [1], "generator_images": [1], "multiplicity": 10 ** 9}
        stored = realize._Stored(SimpleNamespace(biset={"orbits": [orbit], "m": 10 ** 9, "n": 10 ** 9}))
        with pytest.raises(ScaleError) as exc:
            stored.biset(system, VerificationPolicy(), None)
        assert exc.value.bound_name == "max_n"
        assert exc.value.bound_value == VerificationPolicy().max_n

    def test_input_table_must_hold_integers(self):
        # False passes every table check that compares or indexes with it
        payload = payload_of(run_pipeline(InputGroupA.from_name("1")))
        payload["input"]["table"] = [[False]]
        payload["input"]["table_sha256"] = hashlib.sha256(repr([[False]]).encode()).hexdigest()
        ok, rep = verify_certificate(Certificate.from_payload(payload))
        assert not ok
        assert rep["failed_stage"] == "input" and "integers" in rep["reason"]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_load_rejects_non_numbers(self, constant):
        with pytest.raises(ValueError, match="not a JSON number"):
            Certificate.from_json_bytes(b'{"format": "automizer-certificate", "prime": %s}' % constant.encode())

    def test_load_rejects_deep_nesting(self):
        with pytest.raises(ValueError, match="nests too deeply"):
            Certificate.from_json_bytes(b"[" * 200000)
