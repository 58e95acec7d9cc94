"""Elements of Sym([0, n)) as image tuples: ``images[i]`` is the image of
point ``i``.  Cycle notation is read by ``parse_cycles``; orbits of maps on
[0, n) are class labels, merged by ``merge_labels``, which also gives the
parity of a permutation word.  The permutation class and the stabilizer
chain the tests compare against live in ``testkit``."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


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


def parse_cycles(text: str, degree: Optional[int] = None) -> tuple[int, ...]:
    """The image tuple of cycle-notation text such as "(0 1 2)(3 4)"; "()" is
    the identity."""
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
    if sorted(images) != list(range(n)):  # a negative point
        raise ValueError("not a permutation word: %r" % (tuple(images),))
    return tuple(images)
