"""End-to-end pipeline: realize a finite group as the automizer of a
homocyclic subgroup inside a perfect ambient group.

Stages: build the coordinate extension S and its fusion system, check the
structural claims (automizer type, focal subgroup, extension core, large
index), synthesize the stable semicharacteristic element, embed into the
wreath product, compute conjugation witnesses, pick a prime, and run the
final membership battery.  Every stage records its verdict in a certificate
that can be re-checked from the file alone."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .biset import (
    DiagonalContext,
    SemicharacteristicBiset,
    build_semicharacteristic,
    check_orbit_predictions,
    orbit_from_payload,
    orbit_payload,
    verify_generated,
    verify_stability,
)
from .fusion import FusionSystem, Morphism, generate
from .grouprep import (
    FiniteGroup,
    InputGroupA,
    ScaleError,
    SGroup,
    Subgroup,
    are_isomorphic,
    automorphisms_of,
    build_S,
    enumerate_subgroups,
    homocyclic_rank2,
)
from .park import ParkEmbedding, WreathElement, decompose, gamma_prime_member, verify_embedding
from .permcore import PermGroup, Permutation, merge_labels, word_parity

FLAG_NAMES = (
    "autF_U_iso_A",
    "focal_is_S",
    "QF_trivial",
    "index_gt_2A",
    "biset_generated",
    "biset_stable",
    "orbit_predictions",
    "iota_injective_hom",
    "iota_base_trivial",
    "witnesses_ok",
    "top_closure_is_An",
    "bertrand_prime",
)

# The one containment that is assumed, not computed: the ambient wreath group
# induces no fusion on the embedded copy beyond the constructed system.
UNCHECKED_ASSUMPTION = (
    "fusion induced on the embedded subgroup by the full wreath product is "
    "no larger than the constructed system; taken as an unchecked assumption, "
    "not machine-verified"
)


# The top closure is checked by Schreier-Sims up to this degree and by
# transitivity above it; the verifier fixes the bound, not the certificate.
_MAX_SCHREIER_SIMS_DEGREE = 150


@dataclass
class VerificationPolicy:
    """Scale bounds for a pipeline run; every check runs at full strength."""

    max_subgroup_order: int = 4096
    max_subgroups: int = 20000
    max_n: int = 10 ** 6

    # fixed by the verifier, not the policy; written so certificate bytes stay the same
    FIXED = {"level": "full", "max_perm_degree": _MAX_SCHREIER_SIMS_DEGREE}

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError("%s must be a positive integer" % name)

    def as_payload(self) -> dict:
        return {**{name: getattr(self, name) for name in self.__dataclass_fields__}, **self.FIXED}

    @classmethod
    def from_payload(cls, payload: dict) -> "VerificationPolicy":
        payload = dict(payload)
        for key, fixed in cls.FIXED.items():
            value = payload.pop(key, None)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError("policy %s %r is not %r, the verifier's own" % (key, value, fixed))
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError("unknown policy keys: %s" % ", ".join(unknown))
        return cls(**payload)


# -- small number theory ------------------------------------------------------------


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def bertrand_prime(m: int) -> int:
    """Least prime p with m < p < 2m (exists for every m >= 2)."""
    if m < 2:
        raise ValueError("need m >= 2; the trivial input never reaches this stage")
    for p in range(m + 1, 2 * m):
        if _is_prime(p):
            return p
    raise RuntimeError("no prime in (%d, %d)" % (m, 2 * m))


# -- stage 1: ambient group and fusion system ----------------------------------------


def _gaussian_binomial(r: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subgroup_count_lower_bound(e: int, rank: int) -> int:
    """Subspace count of the p-torsion of (Z/e)^rank for the least prime
    p | e: a cheap certified lower bound on the ambient subgroup count."""
    if e == 1:
        return 1
    p = next(d for d in range(2, e + 1) if e % d == 0 and _is_prime(d))
    return sum(_gaussian_binomial(rank, k, p) for k in range(rank + 1))


def build_fusion_for(
    A: InputGroupA, policy: Optional[VerificationPolicy] = None
) -> tuple[SGroup, FusionSystem, Subgroup]:
    """S, the fusion system generated by all automorphisms of all rank-2
    homocyclic subgroups of exponent e, and the designated subgroup U."""
    policy = policy or VerificationPolicy()
    S = build_S(A, max_order=policy.max_subgroup_order)
    bound = subgroup_count_lower_bound(S.e, S.rank)
    if bound > policy.max_subgroups:
        raise ScaleError("max_subgroups", policy.max_subgroups, bound)
    subs = enumerate_subgroups(
        S, max_order=policy.max_subgroup_order, max_count=policy.max_subgroups
    )
    gens = []
    for v in homocyclic_rank2(S, subs):
        for t in automorphisms_of(S, v):
            gens.append(Morphism(v.elements, tuple(t[x] for x in v.elements)))
    system = generate(S, subs, gens)
    return S, system, S.U_subgroup()


def verify_thm31(
    S: SGroup, system: FusionSystem, U: Subgroup, A: InputGroupA
) -> tuple[bool, dict]:
    """The six structural checks on the constructed system, recomputed from
    scratch: the automizer of U is exactly the inner one and is isomorphic to
    A; the focal subgroup is all of S; the extension core is trivial; some
    nonextendable source has index above 2|A|; and the generating family of
    rank-2 subgroups joins to S and meets in 1."""
    fus_auts = set(system.aut(U.key))
    inner_auts = set(system.aut_S(U.key))
    aut_match = fus_auts == inner_auts
    autU_group, _ = system.aut_group_table(U.key)
    iso = aut_match and are_isomorphic(autU_group, A.group)

    foc = system.focal_subgroup()
    focal_full = foc.order == S.order

    qf = system.extension_core()
    core_trivial = qf == (0,)

    two_a = 2 * A.order
    indices = {skey: S.order // len(skey) for skey in system.nonextendable_sources()}
    large = sorted(k for k, idx in indices.items() if idx > two_a)
    has_large_index = bool(large)

    family = homocyclic_rank2(S, list(system.lattice.by_key.values()))
    joined: set[int] = {0}
    met = set(range(S.order))
    for v in family:
        joined |= set(v.elements)
        met &= set(v.elements)
    family_joins = tuple(sorted(S.closure(joined))) == tuple(range(S.order))
    family_meets_trivially = met == {0}

    report = {
        "aut_U_matches_inner": aut_match,
        "aut_U_isomorphic_to_input": iso,
        "aut_U_order": len(fus_auts),
        "focal_full": focal_full,
        "focal_order": foc.order,
        "extension_core_trivial": core_trivial,
        "extension_core": list(qf),
        "large_index_source": has_large_index,
        "largest_index": max(indices.values()) if indices else 0,
        "family_joins": family_joins,
        "family_meets_trivially": family_meets_trivially,
        "family_size": len(family),
    }
    ok = all(
        (
            aut_match,
            iso,
            focal_full,
            core_trivial,
            has_large_index,
            family_joins,
            family_meets_trivially,
        )
    )
    return ok, report


# -- the brute-force automizer oracle -------------------------------------------------


def automizer_oracle(
    G0: PermGroup, U0_gens: Sequence[Permutation], max_elements: int = 10 ** 5
) -> FiniteGroup:
    """N(U0)/C(U0) inside G0 as an abstract multiplication table, by explicit
    element enumeration.  The independent cross-check for everything else."""
    order = G0.order()
    if order > max_elements:
        raise ScaleError("max_oracle_elements", max_elements, order)
    if not U0_gens:
        raise ValueError("need at least one subgroup generator")
    u_sorted = sorted(PermGroup(U0_gens).elements(), key=lambda p: p.images)
    u_index = {p: i for i, p in enumerate(u_sorted)}

    induced = set()
    for g in G0.elements():
        gi = g.inverse()
        images = []
        for u in u_sorted:
            v = g * u * gi
            if v not in u_index:
                images = None
                break
            images.append(u_index[v])
        if images is not None:
            induced.add(Permutation(tuple(images)))
    table, _ = FiniteGroup.from_permutations(sorted(induced, key=lambda p: p.images))
    table.name = "automizer"
    return table


# -- wreath-side checks ----------------------------------------------------------------


def _closure_transitive(
    n: int, seeds: list[np.ndarray], conjugators: list[np.ndarray], max_rounds: int = 32
) -> tuple[bool, dict]:
    """One-sided transitivity certificate for the normal closure of the seed
    permutations under the conjugators: a True verdict is sound because every
    merged generator is an explicit conjugate of a seed.  There is one class
    exactly when every label is 0."""
    label = np.arange(n)
    for s in seeds:
        label = merge_labels(label, s)
    frontier = list(seeds)
    rounds = 0
    while frontier and label.any() and rounds < max_rounds:
        rounds += 1
        fresh = []
        for c in conjugators:
            for sig in frontier:
                tau = np.empty_like(c)
                tau[c] = c[sig]
                if (label[tau] != label).any():
                    label = merge_labels(label, tau)
                    fresh.append(tau)
                    if not label.any():
                        return True, {"rounds": rounds, "classes": 1}
        frontier = fresh
    classes = int(np.count_nonzero(label == np.arange(n)))
    return classes == 1, {"rounds": rounds, "classes": classes}


def _closure_mode(n: int) -> str:
    return "normal_closure" if n <= _MAX_SCHREIER_SIMS_DEGREE else "transitivity_only"


def _top_closure(n: int, seed_tops: list[np.ndarray], conj_tops: list[np.ndarray]) -> dict:
    """The normal closure of the seed tops under the group they generate with
    the conjugator tops must be Alt(n): checked by Schreier-Sims up to degree
    _MAX_SCHREIER_SIMS_DEGREE, and above it only as transitivity."""
    seeds_even = all(word_parity(t) == 0 for t in seed_tops)
    seeds_nontrivial = any((t != np.arange(n)).any() for t in seed_tops)
    report = {"mode": _closure_mode(n), "seeds_even": seeds_even, "seeds_nontrivial": seeds_nontrivial}
    if report["mode"] == "normal_closure":
        seed_perms = [Permutation(tuple(t.tolist())) for t in seed_tops]
        group = PermGroup([Permutation(tuple(t.tolist())) for t in conj_tops] + seed_perms)
        report["closure_order"] = group.normal_closure(seed_perms).order()
        report["ok"] = seeds_even and report["closure_order"] == math.factorial(n) // 2
    else:
        transitive, detail = _closure_transitive(n, seed_tops, conj_tops)
        report.update(detail, ok=seeds_even and seeds_nontrivial and transitive)
    return report


def verify_main(
    S: SGroup,
    U: Subgroup,
    pe: ParkEmbedding,
    witness_elements: Sequence[WreathElement],
    p: int,
    a_order: int,
) -> tuple[bool, dict]:
    """The final battery: (a) images of the ambient generators land in the
    derived subgroup of the wreath product, (b) the normal closure of the
    embedded U-tops under the generated group covers the alternating group
    (or certifies transitivity when the degree is too large to build a
    stabilizer chain), (c) the chosen prime divides the alternating order but
    not |S|, (d) the degree is large enough."""
    n = pe.n
    sprime = S.commutator_subgroup()
    s_gens = S.minimal_generators()
    membership_failures = [
        s for s in s_gens if not gamma_prime_member(pe.iota(s), sprime, n=n)
    ]
    membership_ok = not membership_failures

    seed_tops = [pe.iota(u).top for u in U.generators]
    conj_tops = [pe.iota(s).top for s in s_gens]
    conj_tops += [w.top for w in witness_elements]
    top_closure = _top_closure(n, seed_tops, conj_tops)

    prime_ok = _is_prime(p) and S.order % p != 0 and p <= n
    degree_ok = n >= 5 and n > 2 * a_order

    report = {
        "generator_membership": {
            "checked": len(s_gens),
            "failures": [int(s) for s in membership_failures],
            "ok": membership_ok,
        },
        "top_closure": top_closure,
        "prime_conditions": {
            "prime": p,
            "divides_ambient": S.order % p == 0,
            "at_most_degree": p <= n,
            "ok": prime_ok,
        },
        "degree_conditions": {"n": n, "lower_bound": 2 * a_order, "ok": degree_ok},
    }
    return membership_ok and top_closure["ok"] and prime_ok and degree_ok, report


# -- certificate -----------------------------------------------------------------------


def _run_length(values: np.ndarray) -> list[list[int]]:
    """[value, count] for each maximal run of equal entries, in order."""
    if not values.size:
        return []
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    counts = np.diff(np.r_[starts, values.size])
    return np.column_stack((values[starts], counts)).tolist()


def _indices(values, bound: int, what: str) -> list:
    """The values, if they are a list of JSON integers in [0, bound)."""
    if (
        not isinstance(values, list)
        or set(map(type, values)) - {int}
        or (values and not 0 <= min(values) <= max(values) < bound)
    ):
        raise ValueError("%s must be a list of integers in [0, %d)" % (what, bound))
    return values


def _run_length_decode(runs, n: int, bound: int) -> np.ndarray:
    """Expand [value, count] runs of values in [0, bound); the counts must be
    positive integers summing to n, checked before anything is expanded."""
    if not isinstance(runs, list) or not all(isinstance(r, list) and len(r) == 2 for r in runs):
        raise ValueError("base runs must be [value, count] pairs")
    values = _indices([v for v, _ in runs], bound, "base run values")
    counts = [c for _, c in runs]
    if set(map(type, counts)) - {int} or min(counts, default=1) < 1 or sum(counts) != n:
        raise ValueError("base run counts must be positive integers summing to %d" % n)
    return np.repeat(values, counts)


def _not_a_number(name: str):
    raise ValueError("%s is not a JSON number" % name)


# the JSON type of every top-level certificate field besides "format"
_FIELD_TYPES = {
    "input": dict,
    "exponent": int,
    "ambient": dict,
    "fusion_generators": list,
    "construction_checks": dict,
    "biset": dict,
    "embedding": dict,
    "prime": (int, type(None)),
    "main_checks": dict,
    "flags": dict,
    "accepted": bool,
    "failed_stage": (str, type(None)),
    "policy": dict,
    "tool_version": str,
    "assumption": str,
}


@dataclass
class Certificate:
    """Everything needed to re-check a pipeline run from the file alone."""

    input: dict
    exponent: int
    ambient: dict
    fusion_generators: list
    construction_checks: dict
    biset: dict
    embedding: dict
    prime: Optional[int]
    main_checks: dict
    flags: dict
    failed_stage: Optional[str]
    policy: dict
    tool_version: str = __version__
    assumption: str = UNCHECKED_ASSUMPTION

    @property
    def accepted(self) -> bool:
        return all(self.flags.get(name) is True for name in FLAG_NAMES)

    def to_payload(self) -> dict:
        return {"format": "automizer-certificate", **{name: getattr(self, name) for name in _FIELD_TYPES}}

    @classmethod
    def from_payload(cls, payload: dict) -> "Certificate":
        if not isinstance(payload, dict) or payload.get("format") != "automizer-certificate":
            raise ValueError("not a certificate payload")
        for name, kind in _FIELD_TYPES.items():
            if name not in payload or not isinstance(payload[name], kind):
                raise ValueError("certificate field %r is missing or malformed" % name)
        cert = cls(**{name: payload[name] for name in _FIELD_TYPES if name != "accepted"})
        if payload["accepted"] != cert.accepted:
            raise ValueError("stored acceptance bit disagrees with the flags")
        return cert

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Certificate":
        try:
            payload = json.loads(data.decode("ascii"), parse_constant=_not_a_number)
        except RecursionError:
            raise ValueError("certificate nests too deeply to parse") from None
        return cls.from_payload(payload)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    @classmethod
    def load(cls, path: str) -> "Certificate":
        with open(path, "rb") as fh:
            return cls.from_json_bytes(fh.read())


def _input_payload(A: InputGroupA) -> dict:
    return {
        "name": A.name,
        "order": A.order,
        "table": [[int(x) for x in row] for row in A.group.table],
        "table_sha256": A.group.table_hash(),
    }


def _ambient_payload(S: SGroup) -> dict:
    return {
        "name": S.name,
        "order": S.order,
        "u_order": S.u_order,
        "rank": S.rank,
        "exponent": S.e,
        "table_sha256": S.table_hash(),
    }


def _wreath_payload(el: WreathElement) -> dict:
    return {
        "top": el.top.tolist(),
        "base_runs": _run_length(el.base),
    }


def _wreath_from_payload(group: FiniteGroup, payload: dict) -> WreathElement:
    top = _indices(payload["top"], len(payload["top"]), "top")
    base = _run_length_decode(payload["base_runs"], len(top), group.order)
    return WreathElement(group, base, top, validate=True)


# -- the stage list shared by realize and verify ---------------------------------------


class _Rejected(Exception):
    """Certificate data that cannot be decoded, or a stored section that differs
    from the recomputed one."""

    def __init__(self, stage: str, reason: str):
        super().__init__(reason)
        self.stage = stage


class _Built:
    """The supplied data built fresh; every recomputed section is accepted."""

    def biset(self, system, policy, ctx):
        return build_semicharacteristic(system, max_n=policy.max_n, context=ctx)

    def witnesses(self, pe, generators):
        elements = [pe.witness(g) for g in generators]
        return elements, [_wreath_payload(w) for w in elements]

    def prime(self, a_order):
        return bertrand_prime(a_order)

    def agree(self, stage, **sections):
        pass


class _Stored:
    """The supplied data decoded from a certificate; every other section must
    equal the recomputed one."""

    # the witnesses are supplied data, checked against their identities
    NOT_COMPARED = {"embedding": "witnesses"}

    def __init__(self, cert: Certificate):
        self.cert = cert

    def biset(self, system, policy, ctx):
        data = self.cert.biset
        try:
            orbits = [orbit_from_payload(system, p) for p in data["orbits"]]
            if type(data["m"]) is not int or type(data["n"]) is not int:
                raise ValueError("m and n must be integers")
        except (KeyError, TypeError, ValueError) as exc:
            raise _Rejected("biset", "orbit payload rejected: %s" % exc) from None
        if data["n"] > policy.max_n:
            raise ScaleError("max_n", policy.max_n, data["n"])
        return SemicharacteristicBiset(orbits, data["m"], data["n"])

    def witnesses(self, pe, generators):
        payloads = self.cert.embedding.get("witnesses")
        if not isinstance(payloads, list) or len(payloads) != len(generators):
            raise _Rejected("embedding", "witness count mismatch")
        try:
            elements = [_wreath_from_payload(pe.G, p) for p in payloads]
        except (KeyError, TypeError, ValueError) as exc:
            raise _Rejected("embedding", "malformed witness: %s" % exc) from None
        if any(w.n != pe.n for w in elements):
            raise _Rejected("embedding", "witness degree differs from the embedding")
        return elements, payloads

    def prime(self, a_order):
        if self.cert.prime is None:
            raise _Rejected("main_checks", "missing prime")
        return self.cert.prime

    def agree(self, stage, **sections):
        for name, section in sections.items():
            stored = getattr(self.cert, name)
            skip = self.NOT_COMPARED.get(name)
            if skip:
                stored = {k: v for k, v in stored.items() if k != skip}
                section = {k: v for k, v in section.items() if k != skip}
            if json.dumps(stored, sort_keys=True) != json.dumps(section, sort_keys=True):
                raise _Rejected(stage, "stored %s differs from the recomputed section" % name)


def _run_stages(A: InputGroupA, policy: VerificationPolicy, source):
    """Run the checks in order and stop at the first failed stage.  The source
    supplies the orbit list with m and n, the witnesses and the prime, and
    sees each section once its stage has passed.

    Returns (flags, sections, failed_stage, reason): the sections are the
    certificate fields the stages fill, and the reason names the failed check."""
    # the trivial group is realized by the trivial group: every stage is
    # skipped, and every flag holds vacuously
    flags = dict.fromkeys(FLAG_NAMES, A.order == 1)
    if A.order == 1:
        sections = {
            "exponent": 1,
            "ambient": {"name": "1", "order": 1, "u_order": 1, "rank": 2, "exponent": 1},
            "fusion_generators": [],
            "construction_checks": {"trivial": True},
            "biset": {"m": 1, "n": 0, "orbits": []},
            "embedding": {"n": 0, "mode": "trivial"},
            "prime": None,
            "main_checks": {"trivial": True},
        }
        source.agree("ambient", flags=flags, failed_stage=None, **sections)
        return flags, sections, None, None

    S, system, U = build_fusion_for(A, policy)
    sections = {
        "exponent": A.e,
        "ambient": _ambient_payload(S),
        "fusion_generators": [system.morphism_payload(m) for m in system.generators],
    }
    source.agree("ambient", **sections)
    sections.update(construction_checks={}, biset={}, embedding={}, prime=None, main_checks={})

    def stop(stage, reason):
        return flags, sections, stage, reason

    ok, rep = verify_thm31(S, system, U, A)
    sections["construction_checks"] = rep
    flags["autF_U_iso_A"] = rep["aut_U_matches_inner"] and rep["aut_U_isomorphic_to_input"]
    flags["focal_is_S"] = rep["focal_full"]
    flags["QF_trivial"] = rep["extension_core_trivial"]
    flags["index_gt_2A"] = rep["large_index_source"]
    if not ok:
        failed = ", ".join(k for k, v in rep.items() if v is False)
        return stop("construction_checks", "construction checks fail: %s" % failed)
    source.agree("construction_checks", construction_checks=rep)

    ctx = DiagonalContext(system)
    X = source.biset(system, policy, ctx)
    biset = sections["biset"] = {
        "m": X.m,
        "n": X.n,
        "orbit_count": len(X.orbits),
        "orbits": [orbit_payload(system, rec) for rec in X.orbits],
    }
    flags["biset_generated"], biset["generated"] = verify_generated(system, X)
    if not flags["biset_generated"]:
        return stop("biset", "orbit data rejected: %s" % biset["generated"]["failure"])
    flags["biset_stable"], biset["stability"] = verify_stability(system, X, context=ctx)
    if not flags["biset_stable"]:
        return stop("biset", "orbits are not stable: %s" % biset["stability"]["failure"])
    flags["orbit_predictions"], pred = check_orbit_predictions(system, X, context=ctx)
    biset["predictions"] = {
        "missing_conjugates": [list(map(list, pair)) for pair in pred["missing_conjugates"]],
        "orbit_core": list(pred["orbit_core"]),
        "nonextendable_core": list(pred["nonextendable_core"]),
    }
    if not flags["orbit_predictions"]:
        return stop("biset", "orbit predictions fail")
    source.agree("biset", biset=biset)

    pe = decompose(system, X)
    emb_ok, emb_rep = verify_embedding(pe)
    flags["iota_injective_hom"] = emb_rep["homomorphism"] and emb_rep["injective"]
    flags["iota_base_trivial"] = pe.top_trivial_set() == [0]
    embedding = sections["embedding"] = {
        "n": pe.n,
        "base_index_convention": "target",
        "slot_tables": pe.slot_tables(),
        "verification": {k: list(v) if isinstance(v, tuple) else v for k, v in emb_rep.items()},
        "iota_generators": [
            {"element": int(s), **_wreath_payload(pe.iota(s))} for s in S.minimal_generators()
        ],
        "top_closure_mode": _closure_mode(pe.n),
    }
    if not (emb_ok and flags["iota_injective_hom"] and flags["iota_base_trivial"]):
        failed = ", ".join(k for k, v in emb_rep.items() if v is False) or "iota_base_trivial"
        return stop("embedding", "embedding checks fail: %s" % failed)
    source.agree("embedding", embedding=embedding)
    witness_elements, embedding["witnesses"] = source.witnesses(pe, system.generators)
    flags["witnesses_ok"] = all(
        pe.check_witness(g, w) for g, w in zip(system.generators, witness_elements)
    )
    if not flags["witnesses_ok"]:
        return stop("embedding", "a witness fails its conjugation identity")

    p = sections["prime"] = source.prime(A.order)
    _, main_rep = verify_main(S, U, pe, witness_elements, p, A.order)
    sections["main_checks"] = main_rep
    flags["witnesses_ok"] = flags["witnesses_ok"] and main_rep["generator_membership"]["ok"]
    flags["top_closure_is_An"] = main_rep["top_closure"]["ok"] and main_rep["degree_conditions"]["ok"]
    flags["bertrand_prime"] = (
        A.order < p < 2 * A.order and _is_prime(p) and main_rep["prime_conditions"]["ok"]
    )
    if not all(flags.values()):
        failed = ", ".join(name for name in FLAG_NAMES if not flags[name])
        return stop("main_checks", "final battery fails: %s" % failed)
    source.agree("main_checks", main_checks=main_rep, flags=flags, failed_stage=None)
    return flags, sections, None, None


def run_pipeline(A: InputGroupA, policy: Optional[VerificationPolicy] = None) -> Certificate:
    """Build, check, and certify.  Scale violations raise; failed checks stop
    the pipeline and leave a partial certificate with the stage marked."""
    policy = policy or VerificationPolicy()
    flags, sections, failed_stage, _ = _run_stages(A, policy, _Built())
    return Certificate(
        input=_input_payload(A),
        flags=flags,
        failed_stage=failed_stage,
        policy=policy.as_payload(),
        **sections,
    )


# -- re-verification from the file alone -----------------------------------------------


def verify_certificate(cert: Union[Certificate, str]) -> tuple[bool, dict]:
    """Replay the stage list on the certificate's own data.  The file supplies
    the input table, the policy, the orbit list with m and n, the witnesses and
    the prime; every other section must equal the one recomputed from these."""
    if isinstance(cert, str):
        cert = Certificate.load(cert)
    report: dict = {"tool_version": cert.tool_version}

    if not cert.accepted:
        report["reason"] = "certificate is not accepted"
        report["failed_stage"] = cert.failed_stage
        return False, report

    try:
        try:
            A = InputGroupA(cert.input["name"], FiniteGroup(cert.input["table"], validate=True))
            policy = VerificationPolicy.from_payload(cert.policy)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise _Rejected("input", "input table or policy invalid: %s" % exc) from None
        if _input_payload(A) != cert.input:
            raise _Rejected("input", "input name, order or table hash disagrees with the table")
        flags, sections, failed_stage, reason = _run_stages(A, policy, _Stored(cert))
    except _Rejected as exc:
        report["failed_stage"] = exc.stage
        report["reason"] = str(exc)
        return False, report

    report.update(sections, flags=flags, failed_stage=failed_stage, reason=reason)
    report["flag_mismatches"] = sorted(n for n in FLAG_NAMES if flags[n] != cert.flags.get(n))
    return failed_stage is None, report
