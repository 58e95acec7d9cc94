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
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

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
    permutation_closure,
)
from .park import ParkEmbedding, WreathElement, decompose, gamma_prime_member, verify_embedding
from .permcore import merge_labels, word_parity

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
    """Scale bounds for a pipeline run; every check runs at full strength."""

    max_subgroup_order: int = 4096
    max_subgroups: int = 20000
    max_n: int = 10 ** 6

    # fixed by the verifier, not the policy; written so certificate bytes stay
    # the same.  max_perm_degree is a retired bound, as the top closure takes
    # one path at every degree; the change that makes that path prove Alt(n)
    # moves the bytes and drops it.
    FIXED = {"level": "full", "max_perm_degree": 150}

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
    homocyclic subgroups of exponent e, and the designated subgroup U.

    Both scale bounds are checked before the table of S is built, the order
    first: the subgroup count bound costs about rank^4 at rank 2|A|."""
    policy = policy or VerificationPolicy()
    s_order = A.e ** (2 * A.order) * A.order
    if s_order > policy.max_subgroup_order:
        raise ScaleError("max_subgroup_order", policy.max_subgroup_order, s_order)
    bound = subgroup_count_lower_bound(A.e, 2 * A.order)
    if bound > policy.max_subgroups:
        raise ScaleError("max_subgroups", policy.max_subgroups, bound)
    S = build_S(A, max_order=policy.max_subgroup_order)
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
    rank-2 subgroups, the generators' sources, joins to S and meets in 1."""
    fus_auts = set(system.aut(U.key))
    inner_auts = set(system.aut_S(U.key))
    aut_match = fus_auts == inner_auts
    autU_group, _ = system.aut_group_table(U.key)
    iso = aut_match and are_isomorphic(autU_group, A.group)

    foc = system.focal_subgroup()
    focal_full = foc.order == S.order

    qf = system.extension_core()
    core_trivial = qf == (0,)

    largest_index = max((S.order // len(skey) for skey in system.nonextendable), default=0)

    # build_fusion_for gives every V of the family at least its identity map
    family = list(dict.fromkeys(m.source for m in system.generators))
    joined = set().union([0], *family)
    met = set(range(S.order)).intersection(*family)
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
        "large_index_source": largest_index > 2 * A.order,
        "largest_index": largest_index,
        "family_joins": family_joins,
        "family_meets_trivially": family_meets_trivially,
        "family_size": len(family),
    }
    # the verdict fails exactly on the report entries the stage's reason names
    return all(value is not False for value in report.values()), report


# -- the brute-force automizer oracle -------------------------------------------------


def _walk(perms: Sequence[tuple[int, ...]], degree: int, max_elements: int) -> Iterator[tuple[int, ...]]:
    """permutation_closure, refused as max_oracle_elements once it passes
    max_elements, or 10^7 // degree if fewer: the walk holds every element
    it has met, each a tuple of degree entries."""
    max_elements = min(max_elements, 10 ** 7 // max(degree, 1))
    for count, p in enumerate(permutation_closure(perms, degree), 1):
        if count > max_elements:
            raise ScaleError("max_oracle_elements", max_elements, "more than %d" % max_elements)
        yield p


def automizer_oracle(
    G0_gens: Sequence[tuple[int, ...]],
    degree: int,
    U0_gens: Sequence[tuple[int, ...]],
    max_elements: int = 10 ** 5,
) -> FiniteGroup:
    """N(U0)/C(U0) inside G0 as an abstract multiplication table, by explicit
    element enumeration: U0 is listed, then G0 is walked once, conjugating U0
    by tuple indexing.  Both groups are given by image tuples in
    Sym([0, degree)).  The independent cross-check for everything else."""
    if not U0_gens:
        raise ValueError("need at least one subgroup generator")
    u_sorted = sorted(_walk(U0_gens, degree, max_elements))
    u_index = {u: i for i, u in enumerate(u_sorted)}

    induced = set()
    for g in _walk(G0_gens, degree, max_elements):
        gi = sorted(range(degree), key=g.__getitem__)
        images = [0]  # the identity sorts first, and every g fixes it
        for u in u_sorted[1:]:
            v = u_index.get(tuple(g[u[j]] for j in gi))  # g u g^-1
            if v is None:
                break
            images.append(v)
        else:
            induced.add(tuple(images))
    table, _ = FiniteGroup.from_permutations(sorted(induced))
    table.name = "automizer"
    return table


# -- wreath-side checks ----------------------------------------------------------------


def _closure_transitive(
    n: int, seeds: list[np.ndarray], conjugators: list[np.ndarray], max_rounds: int = 32
) -> tuple[bool, dict]:
    """One-sided transitivity certificate for the normal closure of the seed
    permutations under the conjugators: a True verdict is sound because every
    merged generator is an explicit conjugate of a seed.  There is one class
    exactly when every label is 0.

    The conjugate tau = c sig c^-1 crosses two classes exactly when some
    label[tau(x)] != label[x].  With x = c(y) that reads lc[sig(y)] != lc[y]
    for the relabelling lc = label o c, so each pair is tested on lc, and tau
    is built only for the pairs that merge; lc is read again after a merge."""
    label = np.arange(n)
    for s in seeds:
        label = merge_labels(label, s)
    frontier = list(seeds)
    rounds = 0
    while frontier and label.any() and rounds < max_rounds:
        rounds += 1
        fresh = []
        for c in conjugators:
            lc = label.take(c)
            for sig in frontier:
                if (lc.take(sig) != lc).any():
                    tau = np.empty_like(c)
                    tau[c] = c.take(sig)
                    label = merge_labels(label, tau)
                    fresh.append(tau)
                    if not label.any():
                        return True, {"rounds": rounds, "classes": 1}
                    lc = label.take(c)
        frontier = fresh
    classes = int(np.count_nonzero(label == np.arange(n)))
    return classes == 1, {"rounds": rounds, "classes": classes}


def _top_closure(n: int, seed_tops: list[np.ndarray], conj_tops: list[np.ndarray]) -> dict:
    """The normal closure of the seed tops under the group they generate with
    the conjugator tops, checked as even, nontrivial and transitive at every
    degree: necessary for Alt(n), not sufficient."""
    seeds_even = all(word_parity(t) == 0 for t in seed_tops)
    seeds_nontrivial = any((t != np.arange(n)).any() for t in seed_tops)
    report = {"mode": "transitivity_only", "seeds_even": seeds_even, "seeds_nontrivial": seeds_nontrivial}
    transitive, detail = _closure_transitive(n, seed_tops, conj_tops)
    report.update(detail, ok=seeds_even and seeds_nontrivial and transitive)
    return report


def verify_main(
    S: SGroup,
    U: Subgroup,
    pe: ParkEmbedding,
    witness_tops: Sequence[np.ndarray],
    p: int,
    a_order: int,
) -> tuple[bool, dict]:
    """The final battery: (a) images of the ambient generators land in the
    derived subgroup of the wreath product, (b) the normal closure of the
    embedded U-tops under the group they generate with the iota tops and
    the witness tops is transitive, from even, nontrivial seeds, (c) the
    chosen prime divides the alternating order but not |S|, (d) the degree
    is large enough."""
    n = pe.n
    sprime = S.commutator_subgroup()
    s_gens = S.minimal_generators()
    membership_failures = [s for s in s_gens if not gamma_prime_member(pe.iota(s), sprime)]
    membership_ok = not membership_failures

    seed_tops = [pe.iota(u).top for u in U.generators]
    conj_tops = [pe.iota(s).top for s in s_gens]
    conj_tops += witness_tops
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


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and the length of each maximal run of equal entries, in order."""
    if not values.size:
        return values, values
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return values[starts], np.diff(np.r_[starts, values.size])


def _json_ints(values) -> Optional[np.ndarray]:
    """The values as an int64 array if they are a list of JSON integers that
    fit one, else None."""
    if not isinstance(values, list) or set(map(type, values)) - {int}:
        return None
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return None


def _in_range(values: Optional[np.ndarray], bound: int, what: str) -> np.ndarray:
    """The values, if they are integers in [0, bound); None stands for a
    field that is not a list of JSON integers."""
    if values is None or values.size and not 0 <= values.min() <= values.max() < bound:
        raise ValueError("%s must be a list of integers in [0, %d)" % (what, bound))
    return values


def _json_runs(runs) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """The run values and the run counts of [value, count] pairs read as JSON
    lists, each as _json_ints makes it."""
    if not isinstance(runs, list) or set(map(type, runs)) - {list} or set(map(len, runs)) - {2}:
        raise ValueError("base runs must be [value, count] pairs")
    return _json_ints(list(map(itemgetter(0), runs))), _json_ints(list(map(itemgetter(1), runs)))


def _checked_witness(group: FiniteGroup, witness) -> "_Witness":
    """A witness as its runs and top, checked without expanding its base.
    It is a _Witness, built or read from canonical text, or JSON lists that
    are made into the same arrays.  All get the same checks, in the
    order the fields are read and with the same messages: the top holds
    integers in [0, n), read before the runs; the run values are integers in
    the group's range; the run counts are positive and sum to n; and the top
    is a permutation."""
    held = isinstance(witness, _Witness)
    n = len(witness.top if held else witness["top"])
    top = witness.top if held else _json_ints(witness["top"])
    _in_range(top, n, "top")
    values, counts = (witness.values, witness.counts) if held else _json_runs(witness["base_runs"])
    _in_range(values, group.order, "base run values")
    if counts is None or counts.size and not 1 <= counts.min() <= counts.max() <= n or counts.sum() != n:
        raise ValueError("base run counts must be positive integers summing to %d" % n)
    # n entries in [0, n) form a permutation when none is repeated
    if n and np.bincount(top, minlength=n).max() > 1:
        raise ValueError("top is not a permutation word")
    if held:
        return witness
    return _Witness(values, counts, top)


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

    def json_chunks(self) -> Iterator[bytes]:
        """The canonical text in pieces, as ASCII bytes: sorted keys, no
        spaces, one closing newline.  The document is written with a hole
        for each witness and each iota_generators entry held as arrays, and
        its text, taken from its arrays, fills the hole as a chunk of its
        own, so no whole copy of the document is held.  Everything that can
        fail runs before the first chunk.  to_json_bytes joins the chunks,
        for a caller that wants the whole text at once."""
        payload = self.to_payload()
        text, held = _text_with_holes(payload)
        pieces = text.encode("ascii").split(json.dumps(_HOLE).encode("ascii"))
        if len(pieces) != len(held) + 1:
            # another string of the payload reads like a hole
            pieces, held = [_canonical(payload, dict).encode("ascii")], []
        if held:
            # the top entries and the run counts are at most the degree
            digits = _digits(max(w.top.size for w in held), max(int(w.values.max(initial=0)) for w in held))
        for piece, w in zip(pieces, held):
            yield piece
            yield _wreath_text(w, digits)
        yield pieces[-1] + b"\n"

    def to_json_bytes(self) -> bytes:
        return b"".join(self.json_chunks())

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Certificate":
        """Parse the text; each witness and each iota_generators entry
        written in canonical text is read straight from the bytes into
        arrays (see _read_witness_text), the rest by json.loads."""
        try:
            payload = _read_witness_text(data)
            if payload is None:
                payload = json.loads(data.decode("ascii"), parse_constant=_not_a_number)
        except RecursionError:
            raise ValueError("certificate nests too deeply to parse") from None
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path: str) -> "Certificate":
        with open(path, "rb") as fh:
            return cls.from_json_bytes(fh.read())


def _canonical(value, default) -> str:
    """The certificate's canonical JSON text of value: sorted keys, no
    spaces, ASCII; default writes what JSON does not hold."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=default)


def _text_with_holes(value) -> tuple[str, list]:
    """_canonical(value) with _HOLE written for each entry held as arrays (a
    _Witness or an _IotaImage), and those entries in the text's order."""
    held = []

    def hole(item):
        if not isinstance(item, _Witness):
            raise TypeError("%s is not JSON serializable" % type(item).__name__)
        held.append(item)
        return _HOLE

    return _canonical(value, hole), held


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


def _digits(degree: int, value_bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-width byte tables, each entry padded with NUL bytes: b"i," and
    b"i]," for every i in [0, degree], and b"[i," for every i in [0,
    value_bound]."""
    plain = np.array([b"%d," % i for i in range(degree + 1)])
    opens = np.array([b"[%d," % i for i in range(value_bound + 1)])
    closes = np.array([b"%d]," % i for i in range(degree + 1)])
    return plain, opens, closes


def _wreath_text(w: "_Witness", digits: tuple) -> bytes:
    """_canonical(dict(w), None) as ASCII bytes, taken straight from the runs
    and the top: digits is _digits of at least the degree and at least every
    run value.  Each array is one take from its table; the runs are the
    records (b"[v,", b"c],") in turn.
    The padding is cut, then the last comma; an _IotaImage's element goes
    between the runs and the top, as its key sorts."""
    plain, opens, closes = digits
    runs = np.empty(w.values.size, dtype=[("open", opens.dtype), ("close", closes.dtype)])
    runs["open"] = opens.take(w.values)
    runs["close"] = closes.take(w.counts)
    element = b'"element":%d,' % w.element if isinstance(w, _IotaImage) else b""
    # a run record is mostly padding, a top entry seldom: translate cuts many
    # NUL bytes faster, replace a few
    return b'{"base_runs":[%s],%s"top":[%s]}' % (
        runs.tobytes().translate(None, b"\0")[:-1],
        element,
        plain.take(w.top).tobytes().replace(b"\0", b"")[:-1],
    )


# _text_with_holes writes this string where an entry held as arrays goes, for
# the writer and for _same_json; the reader puts it, numbered, where it took
# one out
_HOLE = "\0"

# each payload field of a witness, made from its runs and top
_WITNESS_FIELDS = {
    "top": lambda w: w.top.tolist(),
    "base_runs": lambda w: np.column_stack((w.values, w.counts)).tolist(),
}


def _narrowest(values: np.ndarray, bound: int) -> np.ndarray:
    """A copy of the nonnegative values as int8 or int16 where that type
    holds the bound and every value, else as int32."""
    largest = int(values.max(initial=bound))
    return values.astype(np.int8 if largest < 2 ** 7 else np.int16 if largest < 2 ** 15 else np.int32)


class _Witness(Mapping):
    """A witness held as the arrays of its base runs, values and counts, and
    of its top, read as its payload: the lists are made only when asked for,
    and Certificate.json_chunks writes its text from the arrays.  The
    pipeline's witnesses are held this way, and so are the witnesses a
    certificate gives, in canonical text or as lists.  No n-entry base is
    held: the base property expands one each time a base is read.

    Each array is held at the narrowest width that holds what it can take:
    the top and the counts by the degree n (entries below n, counts at most
    n), so int16 while n < 2^15; the run values by their own largest, so
    int8 below 128.  The arrays are made read-only copies, so that no wreath
    element sharing them can change the certificate."""

    __slots__ = ("values", "counts", "top")
    _fields = _WITNESS_FIELDS

    def __init__(self, values: np.ndarray, counts: np.ndarray, top: np.ndarray):
        n = top.size
        self.values = _narrowest(values, 0)
        self.counts = _narrowest(counts, n)
        self.top = _narrowest(top, n)
        self.values.flags.writeable = self.counts.flags.writeable = self.top.flags.writeable = False

    @classmethod
    def of(cls, el: WreathElement, *fields) -> "_Witness":
        return cls(*_runs(el.base), el.top, *fields)

    @property
    def base(self) -> np.ndarray:
        """The base, expanded from the runs, read-only and int32 whatever the
        runs' width: check_witness multiplies its entries by |S|."""
        base = self.values.astype(np.int32).repeat(self.counts)
        base.flags.writeable = False
        return base

    def __getitem__(self, key):
        return self._fields[key](self)

    def __iter__(self):
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)


class _IotaImage(_Witness):
    """An iota_generators entry: a generator of S and its image under iota,
    held as a witness is, with the element as a third payload field."""

    __slots__ = ("element",)
    _fields = {**_WITNESS_FIELDS, "element": lambda w: w.element}

    def __init__(self, values: np.ndarray, counts: np.ndarray, top: np.ndarray, element: int):
        super().__init__(values, counts, top)
        self.element = element


# the writer's text of a witness, and of an iota_generators entry, whose
# element goes between its runs and its top:
#   {"base_runs":[[v,c],...],"top":[v,...]}
#   {"base_runs":[[v,c],...],"element":k,"top":[v,...]}
_OPEN, _TOP, _ELEMENT, _ELEMENT_END = b'{"base_runs":[', b'],"top":[', b'],"element":', b',"top":['
_DIGITS = b"0123456789"


def _decimal_length(values: np.ndarray, bound: int) -> int:
    """sum(len(str(v)) for v in values), for integers 0 <= v <= bound."""
    return values.size + sum(int(np.count_nonzero(values >= 10 ** j)) for j in range(1, len(str(bound))))


def _entry_at(data: bytes, at: int) -> Optional[tuple[_Witness, int]]:
    """The entry whose text opens with _OPEN at data[at], held as a _Witness
    or an _IotaImage, and the end of its text; None unless that text is
    canonical: the text _wreath_text writes for arrays whose run counts sum
    to the length n of the top, with no number above n and an element below
    10^18 (so that it fits an int64).

    The runs, the element and the top hold no quote, so the runs end two
    bytes before the next quote, the key that follows them, the element one
    byte before the quote after that, and the top at the next ] before a
    quote.  Only the text between these is read.

    That text is [v,c],[v,c],... for the runs and v,v,... for the top, each
    number in decimal with no leading zero, each count at least 1 and
    adjacent run values unequal (the runs are maximal).  The checks accept
    exactly it, without writing it back:
    - The separators are exact.  The run text has the digit-free skeleton
      [,],[,],... of k runs and starts with [ and ends with ]; what is left
      of the top text without its digits is all commas.  np.fromstring
      reads the run text inside its outer brackets with each ],[ made a
      comma, and the top text.  It stops at a bracket left over (a digit
      between a ] and a , or a , and a [) and at an empty number, which is
      a rejection here; an empty last number only shortens what it reads,
      so the run text must give 2k numbers and the top text one more than
      its commas.
    - Every value is at most n.  A number has at least as many digits as
      its value's decimal form, and as many exactly when it has no leading
      zero: a number too long for int64 saturates, and has more digits than
      any value up to n.  So the digit count of the text is the sum of the
      values' decimal lengths exactly when every number is canonical.
    - The counts are at least 1 and sum to n, and adjacent values differ.
    The digit count is bounded before the parse, by len(str(n)) digits per
    number, which no canonical text exceeds."""
    runs_at = at + len(_OPEN)
    runs_end = data.find(b'"', runs_at) - 2
    if runs_end < runs_at:
        return None
    element = None
    if data.startswith(_TOP, runs_end):
        top_at = runs_end + len(_TOP)
    elif data.startswith(_ELEMENT, runs_end):
        element_at = runs_end + len(_ELEMENT)
        element_end = data.find(b'"', element_at) - 1
        if not 0 < element_end - element_at <= 18 or not data.startswith(_ELEMENT_END, element_end):
            return None
        element = data[element_at:element_end]
        if not element.isdigit() or element[:1] == b"0" and element != b"0":
            return None
        top_at = element_end + len(_ELEMENT_END)
    else:
        return None
    # no top holds a quote: stopping there keeps a text with no ] from being
    # searched to its end once for each _OPEN in it
    quote = data.find(b'"', top_at)
    top_end = data.find(b"]", top_at, quote if quote >= 0 else len(data))
    if top_end < 0 or data[top_end + 1:top_end + 2] != b"}":
        return None
    runs_text, top_text = data[runs_at:runs_end], data[top_at:top_end]
    skeleton = runs_text.translate(None, _DIGITS)
    k = (len(skeleton) + 1) // 4
    if runs_text and not (runs_text[:1] == b"[" and runs_text[-1:] == b"]" and skeleton == b"[,]," * (k - 1) + b"[,]"):
        return None
    commas = top_text.translate(None, _DIGITS)
    if commas.count(b",") != len(commas):
        return None
    n = len(commas) + 1 if top_text else 0
    digits = len(runs_text) - len(skeleton) + len(top_text) - len(commas)
    if n >= 2 ** 31 or digits > (2 * k + n) * len(str(n)):
        return None
    try:
        top = np.fromstring(top_text, dtype=np.int64, sep=",")
        runs = np.fromstring(runs_text[1:-1].replace(b"],[", b","), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if top.size != n or runs.size != 2 * k:
        return None
    values, counts = runs[0::2], runs[1::2]
    if max(top.max(initial=0), runs.max(initial=0)) > n or counts.min(initial=1) < 1 or counts.sum() != n:
        return None
    if (values[1:] == values[:-1]).any() or _decimal_length(top, n) + _decimal_length(runs, n) != digits:
        return None
    entry = _Witness(values, counts, top) if element is None else _IotaImage(values, counts, top, int(element))
    return entry, top_end + 2


def _read_witness_text(data: bytes) -> Optional[dict]:
    """json.loads of the ASCII text data, but with each witness and each
    iota_generators entry written in the writer's own canonical text held as
    arrays, read from the bytes themselves, and only the rest of the
    document decoded and parsed by json.loads.  None where the text must be
    parsed plainly instead.

    bytes.find goes from one _OPEN to the next, and each entry that _entry_at
    finds in canonical text is taken out, with a numbered marker string in
    its place.  The result is accepted only if the text held no \\u0000
    escape (so only markers hold NUL; an entry holds no backslash, so only
    the text left needs the look), the reduced text parses, and the markers
    are found, each as a whole item and in order, in
    embedding.iota_generators and then embedding.witnesses.

    This accepts a document only if json.loads accepts it, and yields equal
    values.  An entry whose { is structural is a whole JSON object in a
    value position (its text is what the writer makes of its arrays), so
    putting a string value in its place changes nothing else.  An entry
    whose { lies inside a JSON string gives a marker whose opening quote
    either ends that string, leaving a bare \\u0000 token that fails the
    parse, or follows a backslash and is read as part of a longer string;
    either way that marker is not found as a whole item.  A marker under a
    duplicate key that json.loads drops is not found either."""
    pieces, held, end = [], [], 0
    at = data.find(_OPEN)
    with warnings.catch_warnings():
        # a numpy that warns where np.fromstring stops short, rather than
        # raising, has the warning raised: _entry_at rejects the text
        warnings.simplefilter("error", DeprecationWarning)
        while at >= 0:
            found = _entry_at(data, at)
            if found is None:
                at = data.find(_OPEN, at + 1)
                continue
            pieces += [data[end:at], json.dumps(_HOLE + str(len(held))).encode("ascii")]
            entry, end = found
            held.append(entry)
            at = data.find(_OPEN, end)
    pieces.append(data[end:])
    if not held or any(b"\\u0000" in piece for piece in pieces[::2]):
        return None
    try:
        payload = json.loads(b"".join(pieces).decode("ascii"), parse_constant=_not_a_number)
        embedding = payload["embedding"]
        lists = [embedding[key] for key in ("iota_generators", "witnesses") if key in embedding]
    except (ValueError, RecursionError, KeyError, TypeError):
        return None
    places = [
        (items, i)
        for items in lists if isinstance(items, list)
        for i, item in enumerate(items) if isinstance(item, str) and item[:1] == _HOLE
    ]
    if [items[i] for items, i in places] != [_HOLE + str(k) for k in range(len(held))]:
        return None
    for (items, i), entry in zip(places, held):
        items[i] = entry
    return payload


# -- the stage list shared by realize and verify ---------------------------------------


class _Rejected(Exception):
    """Certificate data that cannot be decoded, or a stored section that differs
    from the recomputed one.  The stage loop names the stage that raised it;
    a rejection before the first stage is the input's."""

    stage = "input"


class _Built:
    """The supplied data built fresh; every recomputed section is accepted."""

    def biset(self, system, policy, ctx):
        return build_semicharacteristic(system, ctx, max_n=policy.max_n)

    def witnesses(self, pe, generators):
        held = [_checked_witness(pe.G, _Witness.of(pe.witness(g))) for g in generators]
        return held, held

    def prime(self, a_order):
        return bertrand_prime(a_order)

    def agree(self, **sections):
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
            raise _Rejected("orbit payload rejected: %s" % exc) from None
        if data["n"] > policy.max_n:
            raise ScaleError("max_n", policy.max_n, data["n"])
        return SemicharacteristicBiset(orbits, data["m"], data["n"])

    def witnesses(self, pe, generators):
        payloads = self.cert.embedding.get("witnesses")
        if not isinstance(payloads, list) or len(payloads) != len(generators):
            raise _Rejected("witness count mismatch")
        try:
            held = [_checked_witness(pe.G, p) for p in payloads]
        except (KeyError, TypeError, ValueError) as exc:
            raise _Rejected("malformed witness: %s" % exc) from None
        if any(w.top.size != pe.n for w in held):
            raise _Rejected("witness degree differs from the embedding")
        return held, payloads

    def prime(self, a_order):
        if self.cert.prime is None:
            raise _Rejected("missing prime")
        return self.cert.prime

    def agree(self, **sections):
        for name, section in sections.items():
            stored = getattr(self.cert, name)
            skip = self.NOT_COMPARED.get(name)
            if skip:
                stored = {k: v for k, v in stored.items() if k != skip}
                section = {k: v for k, v in section.items() if k != skip}
            if not _same_json(stored, section):
                raise _Rejected("stored %s differs from the recomputed section" % name)


def _same_json(a, b) -> bool:
    """_canonical(a, dict) == _canonical(b, dict), with the entries held as
    arrays compared as arrays.  Each side is written with a hole for each
    held entry; where the two texts are equal and every hole in them is a
    held entry, the texts are equal exactly when the entries at each hole
    are of one kind, with equal arrays and equal elements.  Anywhere else
    (one side holds lists where the other holds arrays) both sides are
    written whole."""
    (text_a, held_a), (text_b, held_b) = _text_with_holes(a), _text_with_holes(b)
    if text_a == text_b and text_a.count(json.dumps(_HOLE)) == len(held_a) == len(held_b):
        return all(map(_same_entry, held_a, held_b))
    return _canonical(a, dict) == _canonical(b, dict)


def _same_entry(a: _Witness, b: _Witness) -> bool:
    return (
        type(a) is type(b)
        and np.array_equal(a.values, b.values)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.top, b.top)
        and getattr(a, "element", None) == getattr(b, "element", None)
    )


def _trivial(run):
    """The trivial group is realized by the trivial group: every section is
    fixed, and every flag holds vacuously."""
    run.flags = dict.fromkeys(FLAG_NAMES, True)
    return {
        "exponent": 1,
        "ambient": {"name": "1", "order": 1, "u_order": 1, "rank": 2, "exponent": 1},
        "fusion_generators": [],
        "construction_checks": {"trivial": True},
        "biset": {"m": 1, "n": 0, "orbits": []},
        "embedding": {"n": 0, "mode": "trivial"},
        "prime": None,
        "main_checks": {"trivial": True},
    }, None


def _ambient(run):
    run.S, run.system, run.U = build_fusion_for(run.A, run.policy)
    generators = [run.system.morphism_payload(m) for m in run.system.generators]
    return {"exponent": run.A.e, "ambient": _ambient_payload(run.S), "fusion_generators": generators}, None


def _construction_checks(run):
    ok, rep = verify_thm31(run.S, run.system, run.U, run.A)
    run.flags["autF_U_iso_A"] = rep["aut_U_matches_inner"] and rep["aut_U_isomorphic_to_input"]
    run.flags["focal_is_S"] = rep["focal_full"]
    run.flags["QF_trivial"] = rep["extension_core_trivial"]
    run.flags["index_gt_2A"] = rep["large_index_source"]
    failed = ", ".join(k for k, v in rep.items() if v is False)
    return {"construction_checks": rep}, None if ok else "construction checks fail: %s" % failed


def _biset(run):
    # the S x S class memo lives only as long as this stage
    system, flags, ctx = run.system, run.flags, DiagonalContext(run.system)
    X = run.X = run.source.biset(system, run.policy, ctx)
    orbits = [orbit_payload(system, rec) for rec in X.orbits]
    biset = {"m": X.m, "n": X.n, "orbit_count": len(X.orbits), "orbits": orbits}
    flags["biset_generated"], biset["generated"] = verify_generated(system, X)
    if not flags["biset_generated"]:
        return {"biset": biset}, "orbit data rejected (biset_generated): %s" % biset["generated"]["failure"]
    flags["biset_stable"], biset["stability"] = verify_stability(system, X, ctx)
    if not flags["biset_stable"]:
        return {"biset": biset}, "orbits are not stable (biset_stable): %s" % biset["stability"]["failure"]
    flags["orbit_predictions"], pred = check_orbit_predictions(system, X, ctx)
    biset["predictions"] = {
        "missing_conjugates": [list(map(list, pair)) for pair in pred["missing_conjugates"]],
        "orbit_core": list(pred["orbit_core"]),
        "nonextendable_core": list(pred["nonextendable_core"]),
    }
    return {"biset": biset}, None if flags["orbit_predictions"] else "orbit predictions fail"


def _embedding(run):
    pe = run.pe = decompose(run.system, run.X)
    emb_ok, emb_rep = verify_embedding(pe)
    run.flags["iota_injective_hom"] = emb_rep["homomorphism"] and emb_rep["injective"]
    run.flags["iota_base_trivial"] = emb_rep["top_trivial_elements"] == (0,)
    run.embedding = {
        "n": pe.n,
        "base_index_convention": "target",
        "slot_tables": pe.slot_tables(),
        "verification": {k: list(v) if isinstance(v, tuple) else v for k, v in emb_rep.items()},
        "iota_generators": [_IotaImage.of(pe.iota(s), int(s)) for s in run.S.minimal_generators()],
        "top_closure_mode": "transitivity_only",
    }
    ok = emb_ok and run.flags["iota_injective_hom"] and run.flags["iota_base_trivial"]
    failed = ", ".join(k for k, v in emb_rep.items() if v is False) or "iota_base_trivial"
    return {"embedding": run.embedding}, None if ok else "embedding checks fail: %s" % failed


def _witnesses(run):
    # the witnesses join the embedding section, which has agreed without them
    generators = run.system.generators
    run.held, run.embedding["witnesses"] = run.source.witnesses(run.pe, generators)
    # check_witness reads each base once, expanded from its runs, one witness at a time
    run.flags["witnesses_ok"] = all(run.pe.check_witness(g, w) for g, w in zip(generators, run.held))
    return {}, None if run.flags["witnesses_ok"] else "a witness fails its conjugation identity"


def _main_checks(run):
    A, flags = run.A, run.flags
    p = run.source.prime(A.order)
    _, main_rep = verify_main(run.S, run.U, run.pe, [w.top for w in run.held], p, A.order)
    # reached only once every witness passed, so this is witnesses_ok AND
    # generator membership: one flag holds both checks until it is split
    flags["witnesses_ok"] = main_rep["generator_membership"]["ok"]
    flags["top_closure_is_An"] = main_rep["top_closure"]["ok"] and main_rep["degree_conditions"]["ok"]
    flags["bertrand_prime"] = A.order < p < 2 * A.order and main_rep["prime_conditions"]["ok"]
    failed = ", ".join(name for name in FLAG_NAMES if not flags[name])
    return {"prime": p, "main_checks": main_rep}, "final battery fails: %s" % failed if failed else None


# The stages in order, by the name a failure reports.  Each takes the run's
# state, sets the flags it owns, and returns the sections it fills and a
# failure reason or None; it reads each check from this module when it runs.
# The embedding section agrees before any witness is read.  The trivial group
# runs its own list.
STAGES = (
    ("ambient", _ambient),
    ("construction_checks", _construction_checks),
    ("biset", _biset),
    ("embedding", _embedding),
    ("embedding", _witnesses),
    ("main_checks", _main_checks),
)
TRIVIAL_STAGES = (("ambient", _trivial),)


def _run_stages(A: InputGroupA, policy: VerificationPolicy, source):
    """Run the stages in order and stop at the first failure.  The source
    supplies the orbit list with m and n, the witnesses and the prime, sees
    the sections of each stage once it has passed, and the flags once every
    stage has.  A rejection or a scale bound raised in a stage is named by it.

    Returns (flags, sections, failed_stage, reason): the sections are the
    certificate fields the stages fill, empty for a stage that did not run,
    and the reason names the failed check."""
    run = SimpleNamespace(A=A, policy=policy, source=source, flags=dict.fromkeys(FLAG_NAMES, False))
    sections = dict(exponent=None, ambient={}, fusion_generators=[], construction_checks={}, biset={})
    sections.update(embedding={}, prime=None, main_checks={})
    try:
        for name, stage in STAGES if A.order > 1 else TRIVIAL_STAGES:
            found, reason = stage(run)
            sections.update(found)
            if reason is not None:
                return run.flags, sections, name, reason
            source.agree(**found)
        source.agree(flags=run.flags, failed_stage=None)
    except (_Rejected, ScaleError) as exc:
        exc.stage = name
        raise
    return run.flags, sections, None, None


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


def verify_certificate(cert: Certificate) -> tuple[bool, dict]:
    """Replay the stage list on the certificate's own data.  The file supplies
    the input table, the policy, the orbit list with m and n, the witnesses and
    the prime; every other section must equal the one recomputed from these."""
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
            raise _Rejected("input table or policy invalid: %s" % exc) from None
        if _input_payload(A) != cert.input:
            raise _Rejected("input name, order or table hash disagrees with the table")
        flags, sections, failed_stage, reason = _run_stages(A, policy, _Stored(cert))
    except _Rejected as exc:
        report["failed_stage"] = exc.stage
        report["reason"] = str(exc)
        return False, report

    report.update(sections, flags=flags, failed_stage=failed_stage, reason=reason)
    report["flag_mismatches"] = sorted(n for n in FLAG_NAMES if flags[n] != cert.flags.get(n))
    return failed_stage is None, report
