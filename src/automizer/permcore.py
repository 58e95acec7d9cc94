"""Permutations of [0, n) and deterministic stabilizer chains.

Permutations are stored in word form: ``images[i]`` is the image of point
``i``.  The composition convention throughout the package is that
``compose(p, q)`` applies ``q`` first and then ``p``, so ``(p * q)(x) =
p(q(x))``.  Stabilizer chains are built by a deterministic Schreier-Sims
procedure (no randomization, base points are always the smallest moved
point available), so orders and transversals are reproducible run to run.
Orbits of maps on [0, n) are class labels, merged by ``merge_labels``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


class Permutation:
    """An element of Sym([0, n)) in word form."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation word: %r" % (images,))
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __repr__(self) -> str:
        return "Permutation(%s)" % format_cycles(self)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def smallest_moved(self) -> Optional[int]:
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle rotated to start at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def extended(self, degree: int) -> "Permutation":
        """The same permutation viewed in Sym([0, degree))."""
        if degree < len(self.images):
            raise ValueError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(len(self.images), degree)))


def identity_perm(degree: int) -> Permutation:
    return Permutation(range(degree))


def merge_labels(label: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The class labels after merging the class of every j with the class of
    perm[j]; each label is the least point of its class.  Min-label hooking
    with pointer jumping, repeated until no pair crosses two classes; hooking
    both ends of each pair makes every pass merge, whatever the map."""
    while (label[perm] != label).any():
        a, b = label, label[perm]
        hook = np.arange(len(label))
        np.minimum.at(hook, a, b)
        np.minimum.at(hook, b, a)
        while (hook[hook] != hook).any():
            hook = hook[hook]
        label = hook[label]
    return label


def word_parity(images: Sequence[int]) -> int:
    """Parity of a permutation word (a tuple or an integer array): 0 for
    even, 1 for odd, from the count of cycles including fixed points."""
    n = len(images)
    points = np.arange(n)
    cycles = np.count_nonzero(merge_labels(points, np.asarray(images, dtype=np.intp)) == points)
    return (n - cycles) % 2


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product applying q first, then p."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch: %d vs %d" % (p.degree, q.degree))
    qi = q.images
    return Permutation(tuple(p.images[j] for j in qi))


def format_cycles(p: Permutation) -> str:
    """Cycle-notation text, smallest point first in each cycle; identity is "()"."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


def parse_cycles(text: str, degree: Optional[int] = None) -> Permutation:
    """Parse cycle-notation text such as "(0 1 2)(3 4)"; "()" is the identity."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    cycles: list[list[int]] = []
    maxpt = -1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ValueError("expected '(' at position %d in %r" % (i, text))
        j = text.index(")", i)
        body = text[i + 1:j].replace(",", " ").split()
        cyc = [int(x) for x in body]
        if len(set(cyc)) != len(cyc):
            raise ValueError("repeated point in cycle %r" % (body,))
        if cyc:
            maxpt = max(maxpt, max(cyc))
            cycles.append(cyc)
        i = j + 1
    n = maxpt + 1 if degree is None else degree
    if maxpt >= n:
        raise ValueError("point %d out of range for degree %d" % (maxpt, n))
    images = list(range(n))
    for cyc in cycles:
        for k, pt in enumerate(cyc):
            images[pt] = cyc[(k + 1) % len(cyc)]
    seen: set[int] = set()
    for cyc in cycles:
        if seen.intersection(cyc):
            raise ValueError("cycles are not disjoint in %r" % (text,))
        seen.update(cyc)
    return Permutation(images)


class _Level:
    __slots__ = ("point", "gens", "transversal", "orbit", "_done_pairs", "_frontier")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: identity_perm(degree)}
        self.orbit: list[int] = [point]
        self._done_pairs: set[tuple[int, int]] = set()
        self._frontier: dict[int, int] = {}


class PermGroup:
    """A permutation group given by generators, with a deterministic stabilizer chain."""

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = max(g.degree for g in gens)
        gens = [g.extended(degree) if g.degree < degree else g for g in gens]
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d exceeds group degree %d" % (g.degree, degree))
        self.degree = degree
        self.generators = [g for g in gens if not g.is_identity()]
        self._levels: Optional[list[_Level]] = None

    # -- deterministic Schreier-Sims -------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = []
            for g in self.generators:
                self._insert(g)
            self._run_to_fixpoint()
        return self._levels

    def _strip(self, p: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Sift p through the chain; returns (residue, level it dropped out at)."""
        levels = self._levels
        assert levels is not None
        k = start
        while k < len(levels):
            lv = levels[k]
            img = p.images[lv.point]
            rep = lv.transversal.get(img)
            if rep is None:
                return p, k
            p = compose(rep.inverse(), p)
            k += 1
        return p, len(levels)

    def _insert(self, p: Permutation) -> bool:
        """Sift p and, if a nontrivial residue remains, record it as a strong
        generator on every level whose base-point prefix it fixes."""
        residue, k = self._strip(p)
        if residue.is_identity():
            return False
        levels = self._levels
        assert levels is not None
        if k == len(levels):
            levels.append(_Level(residue.smallest_moved(), self.degree))
        for j in range(k + 1):
            levels[j].gens.append(residue)
            self._expand_orbit(j)
        return True

    def _expand_orbit(self, k: int) -> None:
        lv = self._levels[k]
        changed = True
        while changed:
            changed = False
            for gi, g in enumerate(lv.gens):
                start = lv._frontier.get(gi, 0)
                end = len(lv.orbit)
                for idx in range(start, end):
                    p = lv.orbit[idx]
                    q = g.images[p]
                    if q not in lv.transversal:
                        lv.transversal[q] = compose(g, lv.transversal[p])
                        lv.orbit.append(q)
                lv._frontier[gi] = end
                if len(lv.orbit) != end:
                    changed = True

    def _process_level(self, k: int) -> bool:
        """Process outstanding Schreier generators of level k; True if the chain grew."""
        lv = self._levels[k]
        self._expand_orbit(k)
        grew = False
        i = 0
        while i < len(lv.orbit):
            p = lv.orbit[i]
            for gi in range(len(lv.gens)):
                if (p, gi) in lv._done_pairs:
                    continue
                lv._done_pairs.add((p, gi))
                g = lv.gens[gi]
                sg = compose(lv.transversal[g.images[p]].inverse(), compose(g, lv.transversal[p]))
                if sg.is_identity():
                    continue
                residue, j = self._strip(sg, k + 1)
                if not residue.is_identity():
                    if j == len(self._levels):
                        self._levels.append(_Level(residue.smallest_moved(), self.degree))
                    for jj in range(j + 1):
                        self._levels[jj].gens.append(residue)
                        self._expand_orbit(jj)
                    grew = True
            i += 1
        return grew

    def _run_to_fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for k in range(len(self._levels)):
                if self._process_level(k):
                    changed = True

    # -- group queries ----------------------------------------------------

    def order(self) -> int:
        n = 1
        for lv in self._chain():
            n *= len(lv.orbit)
        return n

    def normal_closure(self, seeds: Iterable[Permutation]) -> "PermGroup":
        """Smallest subgroup containing the seeds and closed under conjugation
        by this group's generators."""
        closure = PermGroup([], degree=self.degree)
        closure._levels = []
        work = [s.extended(self.degree) if s.degree < self.degree else s for s in seeds]
        added: list[Permutation] = []
        while work:
            h = work.pop(0)
            if closure._insert(h):
                closure._run_to_fixpoint()
                added.append(h)
                for g in self.generators:
                    work.append(compose(g, compose(h, g.inverse())))
        closure.generators = added
        return closure
