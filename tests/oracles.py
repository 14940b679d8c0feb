"""Slow, independent reference implementations the tests compare the
package against.  They are not part of the runtime API."""

from __future__ import annotations

from fractions import Fraction

from couplingcert.groups import GroupModel
from couplingcert.windows import Window, resolved_distance


def multiply(G: GroupModel, a, b):
    """Validated product a*b in normal form."""
    G.validate(a)
    G.validate(b)
    return G.mul(a, b)


def inverse(G: GroupModel, a):
    """Validated inverse of a."""
    G.validate(a)
    return G.inv(a)


def is_discrete(W: Window, points, s) -> bool:
    s = Fraction(s)
    for i, y in enumerate(points):
        for y2 in points[i + 1:]:
            d = resolved_distance(W, y, y2)
            if d is not None and d < s:
                return False
    return True


def is_dense(W: Window, points, s) -> bool:
    s = Fraction(s)
    for e in W.elements:
        if not any(
            (d := resolved_distance(W, y, e)) is not None and d < s for y in points
        ):
            return False
    return True


def packing_number_naive(W: Window, separation, diam_bound) -> int:
    """Exhaustive subset search over the whole window.

    No translation trick, no bound pruning; only feasibility pruning.
    Intended for windows of a few dozen elements.
    """
    separation = Fraction(separation)
    diam_bound = Fraction(diam_bound)
    n = len(W.elements)
    length_of = W.length_of
    mul, inv = W.group.mul, W.group.inv

    def dist(i: int, j: int):
        return length_of(mul(inv(W.elements[i]), W.elements[j]))

    best = [0]

    def extend(start: int, current: list):
        if len(current) > best[0]:
            best[0] = len(current)
        for j in range(start, n):
            ok = True
            for i in current:
                d = dist(i, j)
                if d is None or d < separation or d > diam_bound:
                    ok = False
                    break
            if ok:
                current.append(j)
                extend(j + 1, current)
                current.pop()

    extend(0, [])
    return best[0]
