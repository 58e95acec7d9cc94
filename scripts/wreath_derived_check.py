"""Brute-force check of the wreath derived-subgroup membership formula.

At base S3 and five slots the wreath product has a faithful action on 30
points, small enough for a full stabilizer chain.  The script compares the
closed-form membership test (component product in the base derived subgroup,
even top) against literal membership in the derived subgroup, and measures
the commutator kernel of the base.

    python3 scripts/wreath_derived_check.py --samples 1000
"""

import argparse
import time

import numpy as np

from automizer.grouprep import catalog_group
from automizer.park import WreathElement, gamma_prime_member
from automizer.permcore import PermGroup, Permutation
from automizer.testkit import base_only, is_member, to_permutation, top_only


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()

    t0 = time.perf_counter()
    G = catalog_group("S3")
    n = 5
    base_gens = [base_only(G, n, {0: s}) for s in range(1, G.order)]
    top_gens = [
        top_only(G, Permutation((1, 2, 3, 4, 0))),
        top_only(G, Permutation((1, 0, 2, 3, 4))),
    ]
    group = PermGroup([to_permutation(g) for g in base_gens + top_gens])
    print("wreath group on %d points, order %d" % (to_permutation(top_gens[0]).degree, group.order()))

    derived = group.derived_subgroup()
    print("derived subgroup order %d (expected %d)" % (derived.order(), 6 ** 4 * 3 * 60))
    print("second derived order %d (perfect: %s)" % (
        derived.derived_subgroup().order(),
        derived.derived_subgroup().order() == derived.order()))

    seeds = [
        to_permutation(k * b * k.inverse() * b.inverse())
        for k in top_gens
        for b in base_gens
    ]
    kernel = group.normal_closure(seeds)
    print("base commutator kernel order %d (expected %d)" % (kernel.order(), 6 ** 4 * 3))

    sprime = G.commutator_subgroup()
    rng = np.random.default_rng(args.seed)
    agree = members = 0
    for _ in range(args.samples):
        el = WreathElement(G, rng.integers(0, G.order, size=n), rng.permutation(n))
        by_formula = gamma_prime_member(el, sprime)
        by_chain = is_member(derived, to_permutation(el))
        agree += by_formula == by_chain
        members += by_formula
    print("membership formula vs stabilizer chain: %d/%d agree (%d members)"
          % (agree, args.samples, members))
    print("elapsed %.1fs" % (time.perf_counter() - t0))
    return 0 if agree == args.samples else 1


if __name__ == "__main__":
    raise SystemExit(main())
