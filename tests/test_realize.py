"""Pipeline and certificate tests.

The C2 run is the flagship: one module-scoped pipeline execution backs the
flag, payload, and re-verification tests.  Tampering tests go through the
JSON payload so they exercise exactly the surface an attacker would touch."""

import copy
import hashlib
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from automizer.grouprep import FiniteGroup, InputGroupA, ScaleError, are_isomorphic, catalog_group
from automizer.permcore import PermGroup, parse_cycles
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
from automizer import realize


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

    def test_mode_follows_n(self):
        assert realize._closure_mode(150) == "normal_closure"
        assert realize._closure_mode(151) == "transitivity_only"

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_three_cycle_closes_to_alternating(self, n):
        rep = realize._top_closure(n, [_cycle(n, (0, 1, 2))], _symmetric_tops(n))
        assert rep["mode"] == "normal_closure"
        assert rep["ok"] and rep["seeds_even"] and rep["seeds_nontrivial"]
        assert rep["closure_order"] == math.factorial(n) // 2

    def test_odd_seed_is_refused(self):
        rep = realize._top_closure(5, [_cycle(5, (0, 1))], _symmetric_tops(5))
        assert rep["mode"] == "normal_closure"
        assert not rep["seeds_even"] and not rep["ok"]
        assert rep["closure_order"] == 120

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
        g = PermGroup([parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)])
        v4 = [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)]
        aut = automizer_oracle(g, v4)
        assert aut.order == 6
        assert are_isomorphic(aut, catalog_group("S3"))

    def test_a4_klein_automizer_is_c3(self):
        g = PermGroup([parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])
        v4 = [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)]
        aut = automizer_oracle(g, v4)
        assert aut.order == 3
        assert are_isomorphic(aut, catalog_group("C3"))

    def test_scale_guard(self):
        g = PermGroup([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
        with pytest.raises(ScaleError):
            automizer_oracle(g, [parse_cycles("(0 1)(2 3)", 5)], max_elements=10)


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
        path = str(tmp_path / "cert.json")
        c2_cert.save(path)
        assert Certificate.load(path).flags == c2_cert.flags

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


class TestMalformedPayloads:
    """The certificate decoders accept only JSON integers, check sizes before
    allocating, and turn every malformed value into a ValueError."""

    C4 = catalog_group("C4")

    def witness(self, top, runs):
        return realize._wreath_from_payload(self.C4, {"top": top, "base_runs": runs})

    @given(st.lists(st.integers(0, 3), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_run_length_round_trip(self, values):
        base = np.asarray(values, dtype=np.int32)
        runs = realize._run_length(base)
        assert runs == [[v, len(list(group))] for v, group in itertools.groupby(values)]
        assert realize._run_length_decode(runs, len(values), 4).tolist() == values

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 10 ** 4)), min_size=1, max_size=4), st.integers(0, 8))
    @settings(max_examples=50, deadline=None)
    def test_run_counts_must_sum_to_the_top_length(self, runs, n):
        runs = [list(r) for r in runs]
        if sum(c for _, c in runs) == n:
            runs[0][1] += 1
        with pytest.raises(ValueError, match="summing to"):
            realize._run_length_decode(runs, n, 4)

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
