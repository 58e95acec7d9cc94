"""Acceptance battery.

One test per criterion, each wrapped so the log carries a single
"[criterion k] ...: PASS/FAIL" line.  Everything here recomputes from scratch
or from the certificate file contents; nothing trusts in-memory state of the
builder beyond what the criterion itself is about."""

import hashlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

from automizer.biset import (
    DiagonalContext,
    Diagonal,
    SemicharacteristicBiset,
    orbit_from_payload,
    verify_generated,
    verify_stability,
    check_orbit_predictions,
)
from automizer.fusion import generate
from automizer.grouprep import InputGroupA, ScaleError, are_isomorphic, catalog_group
from automizer.park import WreathElement, decompose, gamma_prime_member, verify_embedding
from automizer.permcore import parse_cycles
from automizer.realize import (
    FLAG_NAMES,
    automizer_oracle,
    build_fusion_for,
    run_pipeline,
)
from testkit import (
    PermGroup,
    Permutation,
    base_only,
    brute_fusion,
    conjugation_generators,
    corpus,
    derived_subgroup,
    is_member,
    mutation_suite,
    to_permutation,
    top_only,
    verify_all_witnesses,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print("[criterion %d] %s: FAIL" % (num, label))
        raise
    print("[criterion %d] %s: PASS" % (num, label))


@pytest.fixture(scope="module")
def c2_reconstruction(c2_run):
    """The C2 ambient rebuilt from scratch plus the biset decoded from the
    certificate, so the per-stage verifiers below run against the artifact."""
    cert, _ = c2_run
    A = InputGroupA.from_name("C2")
    S, system, U = build_fusion_for(A)
    ctx = DiagonalContext(system)
    X = SemicharacteristicBiset(
        [orbit_from_payload(system, p) for p in cert.biset["orbits"]],
        cert.biset["m"],
        cert.biset["n"],
    )
    return A, S, system, U, ctx, X


def test_criterion_1_trivial_input(capsys):
    with criterion(1, "trivial input certifies in under a second"):
        t0 = time.perf_counter()
        cert = run_pipeline(InputGroupA.from_name("1"))
        elapsed = time.perf_counter() - t0
        assert cert.accepted
        assert cert.ambient["order"] == 1
        assert cert.failed_stage is None
        assert elapsed < 1.0
        data = cert.to_json_bytes()
        assert len(data) == 1040
        assert hashlib.sha256(data).hexdigest() == (
            "199f9abda00c64fd03f20cfae2ed4eda1ee0a18f3205ee4d01077e8c6b48ff9f"
        )


def test_criterion_2_c2_end_to_end(c2_run, c2_reconstruction):
    cert, elapsed = c2_run
    A, S, system, U, ctx, X = c2_reconstruction
    with criterion(2, "C2 is realized end to end with every check at full strength"):
        # the run itself: accepted, all twelve flags, inside the time budget
        assert set(cert.flags) == set(FLAG_NAMES)
        assert cert.accepted and all(cert.flags[k] is True for k in FLAG_NAMES)
        assert cert.failed_stage is None
        print("  wall clock for the certified run: %.1fs" % elapsed)
        assert elapsed <= 1800.0

        # construction stage, recomputed
        assert S.order == 32
        auts = system.aut(U.key)
        assert len(auts) == 2
        aut_table, _ = system.aut_group_table(U.key)
        assert are_isomorphic(aut_table, A.group)
        assert system.focal_subgroup().order == S.order
        assert system.extension_core() == (0,)
        indices = [S.order // len(k) for k in system.nonextendable]
        assert max(indices) > 2 * A.order

        # biset stage on the stored orbits, stability at the exact level
        gen_ok, _ = verify_generated(system, X)
        assert gen_ok
        stab_ok, stab_rep = verify_stability(system, X, context=ctx)
        assert stab_ok and stab_rep == {"checked_classes": 16019, "level": "full"}
        pred_ok, _ = check_orbit_predictions(system, X, context=ctx)
        assert pred_ok

        # embedding stage: exhaustive injective homomorphism, trivial-top
        # intersection, and a verified witness for every stored morphism,
        # derived by a reference closure whose hom sets must equal the store
        pe = decompose(system, X)
        emb_ok, emb_rep = verify_embedding(pe)
        assert emb_ok and emb_rep["exhaustive"]
        assert emb_rep["homomorphism"] and emb_rep["injective"]
        assert pe.top_trivial_set() == [0]
        wit_ok, wit_rep = verify_all_witnesses(pe)
        stored = sum(len(bucket) for bucket in system.store.values())
        assert wit_ok and wit_rep["same_hom_sets"] and wit_rep["checked"] == stored
        assert stored == 1036

        # arithmetic conditions
        assert cert.prime == 3 and S.order % 3 != 0
        assert pe.n == cert.biset["n"] and pe.n > 2 * A.order


def test_criterion_3_identity_orbit_marks(c2_reconstruction):
    A, S, system, U, ctx, X = c2_reconstruction
    with criterion(3, "identity-orbit marks at full-group diagonals equal the center order"):
        full = tuple(range(S.order))
        center = [
            x
            for x in range(S.order)
            if all(S.mul(x, y) == S.mul(y, x) for y in range(S.order))
        ]
        assert len(center) == 4
        auts = system.aut(full)
        assert len(auts) == 8
        for beta in auts:
            mark = ctx.orbit_marks([(full, full)], [Diagonal(full, beta.images)])[0][0]
            assert mark == len(center)


def test_criterion_4_derived_subgroup_oracle():
    with criterion(4, "degree-30 wreath derived subgroup agrees with the membership formula"):
        t0 = time.perf_counter()
        G = catalog_group("S3")
        n = 5
        base_gens = [base_only(G, n, {0: s}) for s in range(1, 6)]
        top_gens = [
            top_only(G, Permutation((1, 2, 3, 4, 0))),
            top_only(G, Permutation((1, 0, 2, 3, 4))),
        ]
        group = PermGroup([to_permutation(g) for g in base_gens + top_gens])
        assert group.order() == 6 ** 5 * 120

        derived = derived_subgroup(group)
        assert derived.order() == 233280
        assert derived_subgroup(derived).order() == 233280

        seeds = [
            to_permutation(k * b * k.inverse() * b.inverse())
            for k in top_gens
            for b in base_gens
        ]
        kernel = group.normal_closure(seeds)
        assert kernel.order() == 6 ** 4 * 3

        sprime = G.commutator_subgroup()
        rng = np.random.default_rng(101)
        hits = 0
        for _ in range(1000):
            el = WreathElement(G, rng.integers(0, G.order, size=n), rng.permutation(n))
            member = gamma_prime_member(el, sprime)
            assert member == is_member(derived, to_permutation(el))
            hits += member
        assert 0 < hits < 1000
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_brute_fusion_equivalence():
    with criterion(5, "closure fusion matches enumerated ambient fusion on the corpus"):
        pairs = corpus()
        assert len(pairs) >= 20
        for pair in pairs:
            G0 = pair.group()
            gens = pair.subgroup_generators()
            brute = brute_fusion(G0, gens)
            table, conj = conjugation_generators(G0, gens)
            closed = generate(table, table.all_subgroups(), conj)
            assert brute.store == closed.store, pair.name


def test_criterion_6_automizer_oracle():
    with criterion(6, "oracle automizers of the Klein four subgroup"):
        v4 = [parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)]
        s4 = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
        aut = automizer_oracle(s4, 4, v4)
        assert aut.order == 6 and are_isomorphic(aut, catalog_group("S3"))
        a4 = [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)]
        aut = automizer_oracle(a4, 4, v4)
        assert aut.order == 3 and are_isomorphic(aut, catalog_group("C3"))


# the reason each standard corruption of the C2 certificate is rejected for:
# a change that moves a rejection to another check or stage changes its text
MUTATION_REASONS = {
    "bump_multiplicity": "orbit data rejected (biset_generated): slot count mismatch: 7792 recorded, 7808 recomputed",
    "bump_multiplicity_fix_n": "orbits are not stable (biset_stable): marks differ on one diagonal class",
    "corrupt_generator_image": "stored fusion_generators differs from the recomputed section",
    "corrupt_input_table": "input table or policy invalid: table column is not a permutation of the elements",
    "corrupt_iota_image": "stored embedding differs from the recomputed section",
    "corrupt_m": "orbit data rejected (biset_generated): multiplier disagrees with the leading orbit",
    "corrupt_n": "orbit data rejected (biset_generated): slot count mismatch: 7824 recorded, 7792 recomputed",
    "corrupt_prime": "final battery fails: bertrand_prime",
    "corrupt_slot_table": "stored embedding differs from the recomputed section",
    "corrupt_witness_base": "a witness fails its conjugation identity",
    "corrupt_witness_top": "a witness fails its conjugation identity",
    "drop_generator": "stored fusion_generators differs from the recomputed section",
    "drop_orbit": "orbit data rejected (biset_generated): slot count mismatch: 7792 recorded, 7728 recomputed",
    "drop_orbit_fix_n": "orbits are not stable (biset_stable): marks differ on one diagonal class",
    "flip_flag": "certificate is not accepted",
    "forge_closure_mode": "stored embedding differs from the recomputed section",
    "forge_construction_report": "stored construction_checks differs from the recomputed section",
    "forge_perm_degree": "input table or policy invalid: policy max_perm_degree 100 is not 150, the verifier's own",
    "forge_stability_report": "stored biset differs from the recomputed section",
    "inconsistent_flag": "payload rejected: stored acceptance bit disagrees with the flags",
}


def test_criterion_7_mutation_suite(c2_cert):
    with criterion(7, "every standard certificate corruption is rejected"):
        report = mutation_suite(c2_cert)
        for name, row in sorted(report.items()):
            if name == "all_rejected":
                continue
            print("  %-26s %s" % (name, "rejected" if row["rejected"] else "MISSED"))
            assert row["rejected"], (name, row)
        assert report["all_rejected"]
        assert {name: row["reason"] for name, row in report.items() if name != "all_rejected"} == MUTATION_REASONS


def test_criterion_8_deterministic_output(c2_cert):
    with criterion(8, "an independent rerun reproduces the certificate byte for byte"):
        again = run_pipeline(InputGroupA.from_name("C2"))
        data = c2_cert.to_json_bytes()
        assert again.to_json_bytes() == data
        # the pinned bytes of the headline certificate
        assert len(data) == 12204862
        assert hashlib.sha256(data).hexdigest() == (
            "ee8f75047c69bb0a29d59019eae0cf8c694fa98097f92d5178b8dd05e6f52b49"
        )


def test_criterion_9_scale_rejection():
    with criterion(9, "the next input either certifies or is refused by a named bound"):
        try:
            cert = run_pipeline(InputGroupA.from_name("C3"))
        except ScaleError as exc:
            assert exc.bound_name == "max_subgroups"
            assert "max_subgroups" in str(exc)
        else:
            # acceptable only as a full certification, never a partial accept
            assert cert.accepted and cert.failed_stage is None
