"""Finite balls in a group: exact word-metric distances, greedy maximal
nets, and packing numbers.

A :class:`Window` is the radius-R ball of the word metric as one table:
``dist`` maps each element to its word length, in the breadth-first order
of a search from the identity in the model's fixed generator order.  One
search, :func:`_bfs`, builds both the balls and the multi-source distance
fields.  Distances are resolved by normal-form lookup: ``d(a, b)`` is
``dist.get(a^-1 b)``, and a lookup miss means the distance exceeds the
window radius.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError, ResolutionError, WindowBudgetError
from .groups import GroupModel

DEFAULT_ELEMENT_BUDGET = 5_000_000

# packing search limits; beyond these the volume upper bound is returned
DEFAULT_NODE_BUDGET = 200_000
DEFAULT_CANDIDATE_CAP = 600


@dataclass
class Window:
    """The radius-``radius`` ball: ``dist`` maps each element to its word
    length in BFS order; ``elements`` and ``lengths`` are its keys and
    values as lists."""

    group: GroupModel
    radius: int
    dist: dict
    elements: list = field(init=False, repr=False)
    lengths: list = field(init=False, repr=False)

    def __post_init__(self):
        self.elements = list(self.dist)
        self.lengths = list(self.dist.values())

    def length_of(self, a) -> Optional[int]:
        """Word length of ``a``, or None when ``a`` is outside the ball."""
        return self.dist.get(a)

    def ball(self, r: int) -> list:
        """The elements of length <= r: a prefix of ``elements`` in BFS
        order, the whole window when r >= radius."""
        return self.shell(-1, r)

    def shell(self, r0: int, r1: int) -> list:
        """The elements with r0 < length <= r1, in BFS order."""
        return self.elements[bisect_right(self.lengths, r0):bisect_right(self.lengths, r1)]

    def __len__(self):
        return len(self.elements)


def _bfs(G: GroupModel, sources, depth: int, budget: int) -> dict:
    """Distance to the nearest source for every element within ``depth`` of
    ``sources``, in BFS order: level by level, each element stepping by
    right multiplication with the generators in their fixed order."""
    mul = G.mul
    gens = G.generators
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    level = 0
    while frontier and level < depth:
        level += 1
        reached = []
        for e in frontier:
            for g in gens:
                child = mul(e, g)
                if child in dist:
                    continue
                if len(dist) >= budget:
                    raise WindowBudgetError(
                        f"breadth-first search in {G.descriptor} exceeded the "
                        f"{budget}-element budget at radius {level}",
                        radius_reached=level - 1,
                    )
                dist[child] = level
                reached.append(child)
        frontier = reached
    return dist


def build_window(G: GroupModel, R: int, budget: int = DEFAULT_ELEMENT_BUDGET) -> Window:
    """Enumerate the radius-R ball by BFS in fixed generator order."""
    if R < 0:
        raise PreconditionError(f"radius must be nonnegative, got {R}")
    return Window(group=G, radius=R, dist=_bfs(G, [G.identity], R, budget))


def distances_from(W: Window, a, bs) -> list:
    """The word-metric distances d(a, b) = |a^-1 b| for b in ``bs``,
    inverting ``a`` once; raises at the first ``b`` whose distance does not
    resolve."""
    dist_get = W.dist.get
    mul = W.group.mul
    inv_a = W.group.inv(a)
    out = []
    for b in bs:
        d = dist_get(mul(inv_a, b))
        if d is None:
            raise ResolutionError(
                f"d({W.group.format_element(a)}, {W.group.format_element(b)}) exceeds "
                f"the window radius {W.radius} of {W.group.descriptor}"
            )
        out.append(d)
    return out


def resolved_distance(W: Window, a, b) -> Optional[int]:
    """d(a, b) = |a^-1 b|, or None when it exceeds the window radius."""
    G = W.group
    return W.dist.get(G.mul(G.inv(a), b))


def set_distance(W: Window, xs, ys) -> Optional[int]:
    """Least resolved distance between two finite sets; None when no pair
    resolves within the window."""
    G = W.group
    mul, inv = G.mul, G.inv
    dist_get = W.dist.get
    best = None
    for a in xs:
        inv_a = inv(a)
        for b in ys:
            d = dist_get(mul(inv_a, b))
            if d is not None and (best is None or d < best):
                best = d
                if best == 0:
                    return 0
    return best


def pair_extremes(W: Window, points: list) -> tuple:
    """(least, pair, greatest) over the unordered pairs of ``points``: the
    least resolved distance and the first pair (a, b) attaining it, both None
    when no pair resolves, and the greatest distance, None when some pair
    does not resolve (0 for fewer than two points)."""
    dist_get = W.dist.get
    mul, inv = W.group.mul, W.group.inv
    least = pair = None
    greatest = 0
    for i, a in enumerate(points):
        inv_a = inv(a)
        for b in points[i + 1:]:
            d = dist_get(mul(inv_a, b))
            if d is None:
                greatest = None
                continue
            if least is None or d < least:
                least, pair = d, (a, b)
            if greatest is not None and d > greatest:
                greatest = d
    return least, pair, greatest


def distance_field(W: Window, sources, budget: int = DEFAULT_ELEMENT_BUDGET) -> dict:
    """Distance to the nearest source, for every element within ``W.radius``
    of ``sources``.

    One multi-source BFS steps from the sources by right multiplication with
    the generators and stops at depth ``W.radius``.  It reaches x at depth
    min |b^-1 x| over the sources b, which equals min d(x, b) = |x^-1 b|
    because every built-in generating set is symmetric (|g| = |g^-1|).  So
    ``field.get(x)`` is ``set_distance(W, [x], sources)``: None exactly when
    no distance from x to the sources resolves.
    """
    return _bfs(W.group, sources, W.radius, budget)


@dataclass
class Net:
    points: list


def greedy_net(W: Window, s) -> Net:
    """Greedy maximal s-discrete subset, scanned in BFS order.

    Each chosen point e blocks the elements within distance < s of it: the
    e*b of W with |b| <= ceil(s)-1, capped at 2*radius, the largest
    distance between two elements of W.  An element is chosen when no
    earlier choice blocks it, so the result is s-discrete, and maximality
    of the scan makes it s-dense in the window.
    """
    s = Fraction(s)
    if s < 1:
        raise PreconditionError(f"net scale must be >= 1, got {s}")
    # integer d < s exactly when d <= ceil(s) - 1
    ball = build_window(W.group, min(math.ceil(s) - 1, 2 * W.radius)).elements
    dist, mul = W.dist, W.group.mul
    blocked = set()
    chosen = []
    for e in W.elements:
        if e in blocked:
            continue
        chosen.append(e)
        for b in ball:
            x = mul(e, b)
            if x in dist:
                blocked.add(x)
    return Net(points=chosen)


@dataclass
class PackingResult:
    value: int
    exact: bool
    witness: Optional[list] = None
    nodes: int = 0
    note: str = ""


def packing_number(
    W: Window,
    separation,
    diam_bound,
    node_budget: int = DEFAULT_NODE_BUDGET,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> PackingResult:
    """Maximum size of a subset with pairwise distances >= separation and
    diameter <= diam_bound.

    By left-invariance any maximizing configuration translates to one
    containing the identity, so the search runs over the centered ball of
    radius diam_bound via branch and bound, with the compatibility graph
    and the branching sets held as integer bitmasks.  When the candidate
    set or the node budget is exceeded the volume upper bound is returned
    with the exactness flag cleared; an overestimate is always safe
    downstream.
    """
    separation = Fraction(separation)
    diam_bound = Fraction(diam_bound)
    if separation <= 0 or diam_bound < 0:
        raise PreconditionError("separation must be positive and diam_bound nonnegative")
    if diam_bound + separation > 2 * W.radius:
        raise PreconditionError(
            f"need diam_bound + separation <= 2*radius, got {diam_bound} + "
            f"{separation} > {2 * W.radius}"
        )
    if diam_bound > W.radius:
        raise PreconditionError(
            f"diam_bound {diam_bound} exceeds the window radius {W.radius}; "
            "build a larger window"
        )

    # word lengths are integers: lo <= d <= hi is exactly
    # separation <= d <= diam_bound
    lo, hi = math.ceil(separation), math.floor(diam_bound)
    candidates = W.ball(hi)
    ub = _volume_upper_bound(W, lo, hi, len(candidates))
    if len(candidates) > candidate_cap:
        return PackingResult(
            value=ub,
            exact=False,
            witness=None,
            nodes=0,
            note=f"candidate set of size {len(candidates)} exceeds cap {candidate_cap}",
        )

    # compat[i] has bit j set when candidates i and j are compatible in one
    # configuration: >= separation and <= diam_bound apart.  Unresolvable
    # distances exceed the radius, hence exceed diam_bound (incompatible).
    n = len(candidates)
    dist_get = W.dist.get
    mul, inv = W.group.mul, W.group.inv
    compat = [0] * n
    for i, c in enumerate(candidates):
        inv_i = inv(c)
        bit_i = 1 << i
        row = 0
        for j in range(i + 1, n):
            d = dist_get(mul(inv_i, candidates[j]))
            if d is not None and lo <= d <= hi:
                row |= 1 << j
                compat[j] |= bit_i
        compat[i] |= row

    best = 1 if n else 0
    best_set = [0] if n else []
    nodes = 0
    aborted = False

    def extend(current: list, allowed: int):
        # branch on the members of `allowed` in increasing index order
        nonlocal best, best_set, nodes, aborted
        nodes += 1
        if nodes > node_budget:
            aborted = True
            return
        if len(current) > best:
            best = len(current)
            best_set = list(current)
        room = allowed.bit_count()
        while allowed:
            if len(current) + room <= best:
                return
            low = allowed & -allowed
            j = low.bit_length() - 1
            allowed ^= low
            room -= 1
            current.append(j)
            extend(current, allowed & compat[j])
            current.pop()
            if aborted:
                return

    if n:
        # configurations are translated so candidate 0 (the identity) is a member
        extend([0], compat[0])
    if aborted:
        return PackingResult(
            value=ub,
            exact=False,
            witness=None,
            nodes=nodes,
            note=f"node budget {node_budget} exceeded",
        )
    return PackingResult(
        value=best,
        exact=True,
        witness=[candidates[i] for i in best_set],
        nodes=nodes,
    )


def _volume_upper_bound(W: Window, lo: int, hi: int, n_candidates: int) -> int:
    """Disjoint-ball counting bound for integer bounds lo <= d <= hi; falls
    back to the candidate count."""
    r = (lo - 1) // 2
    big = hi + r
    if r >= 1 and big <= W.radius:
        outer = bisect_right(W.lengths, big)
        inner = bisect_right(W.lengths, r)
        return min(n_candidates, outer // inner)
    return n_candidates
