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
from .permcore import PermGroup, Permutation, identity_perm, word_parity

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


@dataclass
class VerificationPolicy:
    """Scale bounds and check depth for a pipeline run."""

    max_subgroup_order: int = 4096
    max_subgroups: int = 20000
    max_n: int = 10 ** 6
    max_perm_degree: int = 150
    level: str = "full"

    def __post_init__(self):
        for name in ("max_subgroup_order", "max_subgroups", "max_n", "max_perm_degree"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.level not in ("fast", "full"):
            raise ValueError("level must be 'fast' or 'full'")

    def as_payload(self) -> dict:
        return {
            "max_subgroup_order": self.max_subgroup_order,
            "max_subgroups": self.max_subgroups,
            "max_n": self.max_n,
            "max_perm_degree": self.max_perm_degree,
            "level": self.level,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "VerificationPolicy":
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
    ident = identity_perm(U0_gens[0].degree)
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in U0_gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                queue.append(y)
    u_sorted = sorted(seen, key=lambda p: p.images)
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


class _UnionFind:
    __slots__ = ("parent", "classes")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.classes = n

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.classes -= 1
        return True


def _closure_transitive(
    n: int, seeds: list[np.ndarray], conjugators: list[np.ndarray], max_rounds: int = 32
) -> tuple[bool, dict]:
    """One-sided transitivity certificate for the normal closure of the seed
    permutations under the conjugators: a True verdict is sound because every
    merged generator is an explicit conjugate of a seed."""
    uf = _UnionFind(n)
    for s in seeds:
        for j in range(n):
            uf.union(j, int(s[j]))
    inv = []
    for c in conjugators:
        ci = np.empty(n, dtype=c.dtype)
        ci[c] = np.arange(n, dtype=c.dtype)
        inv.append((c, ci))
    frontier = list(seeds)
    rounds = 0
    while frontier and uf.classes > 1 and rounds < max_rounds:
        rounds += 1
        fresh = []
        for c, ci in inv:
            for sig in frontier:
                tau = c[sig[ci]]
                merged = False
                for j in range(n):
                    t = int(tau[j])
                    if t != j and uf.union(j, t):
                        merged = True
                if merged:
                    fresh.append(tau)
                    if uf.classes == 1:
                        return True, {"rounds": rounds, "classes": 1}
        frontier = fresh
    return uf.classes == 1, {"rounds": rounds, "classes": uf.classes}


def verify_main(
    S: SGroup,
    U: Subgroup,
    pe: ParkEmbedding,
    witness_elements: Sequence[WreathElement],
    p: int,
    a_order: int,
    policy: VerificationPolicy,
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
    seeds_even = all(word_parity(t) == 0 for t in seed_tops)
    seeds_nontrivial = any((t != np.arange(n)).any() for t in seed_tops)

    if n <= policy.max_perm_degree:
        mode = "normal_closure"
        seed_perms = [Permutation(tuple(int(x) for x in t)) for t in seed_tops]
        conj_perms = [Permutation(tuple(int(x) for x in t)) for t in conj_tops]
        group = PermGroup(conj_perms + seed_perms)
        closure = group.normal_closure(seed_perms)
        closure_ok = seeds_even and closure.order() == math.factorial(n) // 2
        closure_detail = {"closure_order": closure.order()}
    else:
        mode = "transitivity_only"
        transitive, detail = _closure_transitive(n, seed_tops, conj_tops)
        closure_ok = seeds_even and seeds_nontrivial and transitive
        closure_detail = detail

    prime_ok = _is_prime(p) and S.order % p != 0 and p <= n
    degree_ok = n >= 5 and n > 2 * a_order

    report = {
        "generator_membership": {
            "checked": len(s_gens),
            "failures": [int(s) for s in membership_failures],
            "ok": membership_ok,
        },
        "top_closure": {
            "mode": mode,
            "seeds_even": seeds_even,
            "seeds_nontrivial": bool(seeds_nontrivial),
            "ok": closure_ok,
            **{k: int(v) for k, v in closure_detail.items()},
        },
        "prime_conditions": {
            "prime": p,
            "divides_ambient": S.order % p == 0,
            "at_most_degree": p <= n,
            "ok": prime_ok,
        },
        "degree_conditions": {"n": n, "lower_bound": 2 * a_order, "ok": degree_ok},
    }
    return membership_ok and closure_ok and prime_ok and degree_ok, report


# -- certificate -----------------------------------------------------------------------


def _run_length(values) -> list[list[int]]:
    out: list[list[int]] = []
    for v in values:
        v = int(v)
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def _run_length_decode(pairs) -> list[int]:
    out: list[int] = []
    for v, c in pairs:
        out.extend([int(v)] * int(c))
    return out


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
        return {
            "format": "automizer-certificate",
            "tool_version": self.tool_version,
            "input": self.input,
            "exponent": self.exponent,
            "ambient": self.ambient,
            "fusion_generators": self.fusion_generators,
            "construction_checks": self.construction_checks,
            "biset": self.biset,
            "embedding": self.embedding,
            "prime": self.prime,
            "main_checks": self.main_checks,
            "flags": self.flags,
            "accepted": self.accepted,
            "failed_stage": self.failed_stage,
            "policy": self.policy,
            "assumption": self.assumption,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Certificate":
        if payload.get("format") != "automizer-certificate":
            raise ValueError("not a certificate payload")
        cert = cls(
            input=payload["input"],
            exponent=payload["exponent"],
            ambient=payload["ambient"],
            fusion_generators=payload["fusion_generators"],
            construction_checks=payload["construction_checks"],
            biset=payload["biset"],
            embedding=payload["embedding"],
            prime=payload["prime"],
            main_checks=payload["main_checks"],
            flags=payload["flags"],
            failed_stage=payload["failed_stage"],
            policy=payload["policy"],
            tool_version=payload["tool_version"],
            assumption=payload["assumption"],
        )
        if payload["accepted"] != cert.accepted:
            raise ValueError("stored acceptance bit disagrees with the flags")
        return cert

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Certificate":
        return cls.from_payload(json.loads(data.decode("ascii")))

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
        "top": [int(x) for x in el.top],
        "base_runs": _run_length(el.base),
    }


def _wreath_from_payload(group: FiniteGroup, payload: dict) -> WreathElement:
    base = _run_length_decode(payload["base_runs"])
    return WreathElement(group, base, [int(x) for x in payload["top"]], validate=True)


def _empty_flags() -> dict:
    return {name: False for name in FLAG_NAMES}


def _construction_flags(rep31: dict) -> dict:
    return {
        "autF_U_iso_A": rep31["aut_U_matches_inner"] and rep31["aut_U_isomorphic_to_input"],
        "focal_is_S": rep31["focal_full"],
        "QF_trivial": rep31["extension_core_trivial"],
        "index_gt_2A": rep31["large_index_source"],
    }


def _embedding_flags(pe: ParkEmbedding, emb_rep: dict) -> dict:
    return {
        "iota_injective_hom": emb_rep["homomorphism"] and emb_rep["injective"],
        "iota_base_trivial": pe.top_trivial_set() == [0],
    }


def _main_flags(p: int, a_order: int, wit_ok: bool, main_rep: dict) -> dict:
    return {
        "witnesses_ok": wit_ok and main_rep["generator_membership"]["ok"],
        "top_closure_is_An": main_rep["top_closure"]["ok"] and main_rep["degree_conditions"]["ok"],
        "bertrand_prime": a_order < p < 2 * a_order and _is_prime(p)
        and main_rep["prime_conditions"]["ok"],
    }


def _trivial_certificate(A: InputGroupA, policy: VerificationPolicy) -> Certificate:
    # everything below degree 5 is skipped: the trivial group is realized by
    # the trivial group, and every flag holds vacuously
    flags = {name: True for name in FLAG_NAMES}
    return Certificate(
        input=_input_payload(A),
        exponent=1,
        ambient={"name": "1", "order": 1, "u_order": 1, "rank": 2, "exponent": 1},
        fusion_generators=[],
        construction_checks={"trivial": True},
        biset={"m": 1, "n": 0, "orbits": []},
        embedding={"n": 0, "mode": "trivial"},
        prime=None,
        main_checks={"trivial": True},
        flags=flags,
        failed_stage=None,
        policy=policy.as_payload(),
    )


def run_pipeline(A: InputGroupA, policy: Optional[VerificationPolicy] = None) -> Certificate:
    """Build, check, and certify.  Scale violations raise; failed checks stop
    the pipeline and leave a partial certificate with the stage marked."""
    policy = policy or VerificationPolicy()
    if A.order == 1:
        return _trivial_certificate(A, policy)

    flags = _empty_flags()
    sections = {
        "construction_checks": {},
        "biset": {},
        "embedding": {},
        "main_checks": {},
    }

    def partial(stage: str, **extra) -> Certificate:
        return Certificate(
            input=_input_payload(A),
            exponent=A.e,
            ambient=extra.get("ambient", {}),
            fusion_generators=extra.get("fusion_generators", []),
            construction_checks=sections["construction_checks"],
            biset=sections["biset"],
            embedding=sections["embedding"],
            prime=extra.get("prime"),
            main_checks=sections["main_checks"],
            flags=flags,
            failed_stage=stage,
            policy=policy.as_payload(),
        )

    S, system, U = build_fusion_for(A, policy)
    ambient = _ambient_payload(S)
    gen_payloads = [system.morphism_payload(m) for m in system.generators]

    ok31, rep31 = verify_thm31(S, system, U, A)
    sections["construction_checks"] = rep31
    flags.update(_construction_flags(rep31))
    if not ok31:
        return partial("construction_checks", ambient=ambient, fusion_generators=gen_payloads)

    ctx = DiagonalContext(system)
    X = build_semicharacteristic(system, max_n=policy.max_n, context=ctx)
    gen_ok, gen_rep = verify_generated(system, X)
    flags["biset_generated"] = gen_ok
    stab_ok, stab_rep = verify_stability(system, X, level=policy.level, context=ctx)
    flags["biset_stable"] = stab_ok
    pred_ok, pred_rep = check_orbit_predictions(system, X, context=ctx)
    flags["orbit_predictions"] = pred_ok
    sections["biset"] = {
        "m": X.m,
        "n": X.n,
        "orbit_count": len(X.orbits),
        "orbits": [orbit_payload(system, rec) for rec in X.orbits],
        "generated": gen_rep,
        "stability": stab_rep,
        "predictions": {
            "missing_conjugates": [list(map(list, pair)) for pair in pred_rep["missing_conjugates"]],
            "orbit_core": list(pred_rep["orbit_core"]),
            "nonextendable_core": list(pred_rep["nonextendable_core"]),
        },
    }
    if not (gen_ok and stab_ok and pred_ok):
        return partial("biset", ambient=ambient, fusion_generators=gen_payloads)

    pe = decompose(system, X)
    emb_ok, emb_rep = verify_embedding(pe)
    flags.update(_embedding_flags(pe, emb_rep))
    witness_elements = [pe.witness(g) for g in system.generators]
    wit_ok = all(pe.check_witness(g, w) for g, w in zip(system.generators, witness_elements))
    sections["embedding"] = {
        "n": pe.n,
        "base_index_convention": "target",
        "slot_tables": pe.slot_tables(),
        "verification": {k: list(v) if isinstance(v, tuple) else v for k, v in emb_rep.items()},
        "iota_generators": [
            {"element": int(s), **_wreath_payload(pe.iota(s))}
            for s in S.minimal_generators()
        ],
        "witnesses": [_wreath_payload(w) for w in witness_elements],
    }
    if not (emb_ok and flags["iota_injective_hom"] and flags["iota_base_trivial"] and wit_ok):
        flags["witnesses_ok"] = False
        return partial("embedding", ambient=ambient, fusion_generators=gen_payloads)

    p = bertrand_prime(A.order)
    main_ok, main_rep = verify_main(S, U, pe, witness_elements, p, A.order, policy)
    sections["main_checks"] = main_rep
    flags.update(_main_flags(p, A.order, wit_ok, main_rep))
    sections["embedding"]["top_closure_mode"] = main_rep["top_closure"]["mode"]

    cert = Certificate(
        input=_input_payload(A),
        exponent=A.e,
        ambient=ambient,
        fusion_generators=gen_payloads,
        construction_checks=sections["construction_checks"],
        biset=sections["biset"],
        embedding=sections["embedding"],
        prime=p,
        main_checks=sections["main_checks"],
        flags=flags,
        failed_stage=None if main_ok else "main_checks",
        policy=policy.as_payload(),
    )
    return cert


# -- re-verification from the file alone -----------------------------------------------


def verify_certificate(cert: Union[Certificate, str]) -> tuple[bool, dict]:
    """Re-run every check from the stored data: rebuild the input group from
    its table, regenerate the fusion system from the stored generators,
    re-verify the biset, the embedding, the stored witnesses verbatim, and
    the final battery.  Nothing is trusted from the construction except the
    orbit list and the witness elements, which are exactly the data the
    certificate is allowed to supply."""
    if isinstance(cert, str):
        cert = Certificate.load(cert)
    report: dict = {"tool_version": cert.tool_version}

    if not cert.accepted:
        report["reason"] = "certificate is not accepted"
        report["failed_stage"] = cert.failed_stage
        return False, report

    table = cert.input["table"]
    try:
        A_group = FiniteGroup(table, name=cert.input["name"], validate=True)
    except (ValueError, IndexError) as exc:
        report["reason"] = "input table invalid: %s" % exc
        return False, report
    if A_group.table_hash() != cert.input["table_sha256"]:
        report["reason"] = "input table hash mismatch"
        return False, report
    if A_group.order != cert.input["order"]:
        report["reason"] = "input order mismatch"
        return False, report
    A = InputGroupA(cert.input["name"], A_group)

    if A.order == 1:
        ok = cert.failed_stage is None and cert.prime is None
        report["trivial"] = True
        return ok, report

    policy = VerificationPolicy.from_payload(cert.policy)
    flags = _empty_flags()

    S, system, U = build_fusion_for(A, policy)
    if S.table_hash() != cert.ambient["table_sha256"]:
        report["reason"] = "ambient table hash mismatch"
        return False, report
    try:
        rebuilt = [system.morphism_from_payload(p) for p in cert.fusion_generators]
    except (ValueError, KeyError, IndexError) as exc:
        report["reason"] = "fusion generator payload rejected: %s" % exc
        return False, report
    if rebuilt != system.generators:
        report["reason"] = "stored fusion generators differ from the regenerated system"
        return False, report

    ok31, rep31 = verify_thm31(S, system, U, A)
    flags.update(_construction_flags(rep31))
    report["construction_checks"] = rep31

    try:
        orbits = [orbit_from_payload(system, p) for p in cert.biset["orbits"]]
    except (KeyError, ValueError) as exc:
        report["reason"] = "orbit payload rejected: %s" % exc
        return False, report
    X = SemicharacteristicBiset(orbits, int(cert.biset["m"]), int(cert.biset["n"]))
    ctx = DiagonalContext(system)
    gen_ok, gen_rep = verify_generated(system, X)
    flags["biset_generated"] = gen_ok
    if not gen_ok:
        report["reason"] = "stored orbit data rejected: %s" % gen_rep.get("failure")
        return False, report
    # the equalizer seeds the identity orbit with weight 1, so its recorded
    # multiplicity is exactly the denominator-clearing multiplier
    if X.orbits[0].multiplicity != X.m:
        report["reason"] = "stored multiplier disagrees with the leading orbit"
        return False, report
    stab_ok, stab_rep = verify_stability(system, X, level=policy.level, context=ctx)
    flags["biset_stable"] = stab_ok
    if not stab_ok:
        report["reason"] = "stored orbits are not stable: %s" % stab_rep.get("failure")
        return False, report
    pred_ok, pred_rep = check_orbit_predictions(system, X, context=ctx)
    flags["orbit_predictions"] = pred_ok
    report["biset"] = {"generated": gen_rep, "stability": stab_rep}

    pe = decompose(system, X)
    emb_ok, emb_rep = verify_embedding(pe)
    flags.update(_embedding_flags(pe, emb_rep))
    report["embedding"] = emb_rep
    if cert.embedding.get("slot_tables") != pe.slot_tables():
        report["reason"] = "stored slot tables disagree with the embedding"
        return False, report

    try:
        stored_iota_ok = all(
            _wreath_from_payload(S, entry) == pe.iota(int(entry["element"]))
            for entry in cert.embedding["iota_generators"]
        )
    except (ValueError, KeyError) as exc:
        report["reason"] = "malformed generator image: %s" % exc
        return False, report
    if not stored_iota_ok:
        report["reason"] = "stored generator images disagree with the embedding"
        return False, report

    if len(cert.embedding["witnesses"]) != len(system.generators):
        report["reason"] = "witness count mismatch"
        return False, report
    witness_elements = []
    try:
        for payload in cert.embedding["witnesses"]:
            witness_elements.append(_wreath_from_payload(S, payload))
    except ValueError as exc:
        report["reason"] = "malformed witness: %s" % exc
        return False, report
    wit_ok = all(
        pe.check_witness(g, w) for g, w in zip(system.generators, witness_elements)
    )

    p = cert.prime
    if not isinstance(p, int):
        report["reason"] = "missing or malformed prime"
        return False, report
    main_ok, main_rep = verify_main(S, U, pe, witness_elements, p, A.order, policy)
    flags.update(_main_flags(p, A.order, wit_ok, main_rep))
    report["main_checks"] = main_rep

    mismatched = sorted(name for name in FLAG_NAMES if flags[name] != cert.flags.get(name))
    report["flags"] = flags
    report["flag_mismatches"] = mismatched
    ok = not mismatched and all(flags.values())
    if not ok and "reason" not in report:
        report["reason"] = "recomputed flags disagree or fail"
    return ok, report
