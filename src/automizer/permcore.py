"""Elements of Sym([0, n)) as image tuples: ``images[i]`` is the image of
point ``i``.  Cycle notation is read by ``parse_cycles``, each number by
``read_decimal``, the one reader of the numbers in input text; orbits of
maps on [0, n) are class labels, merged by ``merge_labels``, which also
gives the parity of a permutation word.  The permutation class and the
stabilizer chain the tests compare against live in the tests' ``testkit``."""

from __future__ import annotations

import re
from typing import Optional, Sequence

import numpy as np

# a point of a cycle: what lies between blanks and commas
_POINT = re.compile(r"[^\s,]+")


def read_decimal(token: str, what: str, position: int) -> int:
    """The value of a token of ASCII decimal digits.  int() would also take
    a sign, underscores and non-ASCII digits; each is refused here, by a
    message that names the token and its position."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError("%s %r at position %d is not an ASCII decimal number" % (what, token, position))
    return int(token)


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
    the identity.  Positions count the characters of the stripped text."""
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
        j = text.find(")", i)
        if j < 0:
            raise ValueError("unclosed cycle at position %d in %r" % (i, text))
        points = list(_POINT.finditer(text, i + 1, j))
        cyc = [read_decimal(m.group(), "point", m.start()) for m in points]
        if len(set(cyc)) != len(cyc):
            raise ValueError("repeated point in cycle %r" % ([m.group() for m in points],))
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
    return tuple(images)
