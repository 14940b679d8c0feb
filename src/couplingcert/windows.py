"""Finite balls in a group: exact word-metric distances, greedy maximal
nets, and packing numbers.

A :class:`Window` is the radius-R ball of the word metric as one table:
``dist`` maps each element to its word length, in the breadth-first order
of a search from the identity in the model's fixed generator order.  One
search, :func:`_bfs`, extends such tables: a ball from the identity, a
distance field from its sources, a larger ball from a window's outer level
(:func:`ball_window`).  ``d(a, b)`` is ``dist.get(a^-1 b)``, and a lookup
miss means the distance exceeds the window radius.  On ``Z^d`` the packing
search reads its distances as closed-form l1 norms instead:
:func:`_l1_codes` codes points as integers whose differences index a table
of norms.  The ``Z^d`` moduli pair scan of :mod:`couplingcert.coarse`
needs no such table: it reads its norms off byte columns, one
``bytes.translate`` per coordinate and row.

The search limits (``DEFAULT_ELEMENT_BUDGET`` for every BFS, the node
budget and candidate cap of the packing search) are module constants, read
when a search runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Optional

from .errors import PreconditionError, ResolutionError, WindowBudgetError
from .groups import GroupModel, ZdGroup

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

    def ball(self, r: int) -> list:
        """The elements of length <= r: a prefix of ``elements`` in BFS
        order, the whole window when r >= radius."""
        return self.shell(-1, r)

    def shell(self, r0: int, r1: int) -> list:
        """The elements with r0 < length <= r1, in BFS order."""
        return self.elements[bisect_right(self.lengths, r0):bisect_right(self.lengths, r1)]

    def __len__(self):
        return len(self.elements)


def _bfs(G: GroupModel, dist: dict, depth: int) -> dict:
    """Extend the BFS table ``dist`` level by level from its outermost level
    to ``depth``, each element stepping by right multiplication with the
    generators in their fixed order, up to ``DEFAULT_ELEMENT_BUDGET``
    elements."""
    budget = DEFAULT_ELEMENT_BUDGET
    mul = G.mul
    gens = G.generators
    level = max(dist.values(), default=0)
    frontier = [e for e, d in dist.items() if d == level]
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


def build_window(G: GroupModel, R: int) -> Window:
    """Enumerate the radius-R ball by BFS in fixed generator order."""
    if R < 0:
        raise PreconditionError(f"radius must be nonnegative, got {R}")
    return Window(group=G, radius=R, dist=_bfs(G, {G.identity: 0}, R))


def ball_window(W: Window, r: int) -> Window:
    """``build_window(W.group, r)`` searching nothing ``W`` holds: ``W`` at
    ``r == W.radius``, its BFS prefix below, and above a copy of its table
    grown from its outer level, so that ``W`` is never changed."""
    if r < 0:
        return build_window(W.group, r)  # refused as build_window refuses it
    if r == W.radius:
        return W
    if r < W.radius:
        return Window(group=W.group, radius=r, dist=dict(zip(W.ball(r), W.lengths)))
    return Window(group=W.group, radius=r, dist=_bfs(W.group, dict(W.dist), r))


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


def distance_field(W: Window, sources) -> dict:
    """Distance to the nearest source, for every element within ``W.radius``
    of ``sources``, under the element budget of :func:`build_window`.

    One multi-source BFS steps from the sources by right multiplication with
    the generators and stops at depth ``W.radius``.  It reaches x at depth
    min |b^-1 x| over the sources b, which equals min d(x, b) = |x^-1 b|
    because every built-in generating set is symmetric (|g| = |g^-1|).  So
    ``field.get(x)`` is ``set_distance(W, [x], sources)``: None exactly when
    no distance from x to the sources resolves.
    """
    return _bfs(W.group, dict.fromkeys(sources, 0), W.radius)


@dataclass
class Net:
    points: list


def greedy_net(W: Window, s) -> Net:
    """Greedy maximal s-discrete subset, scanned in BFS order.

    Each chosen point e blocks the elements within distance < s of it: the
    e*b of W with |b| <= ceil(s)-1, read off the prefix ``W.ball``.  An
    element is chosen when no earlier choice blocks it, so the result is
    s-discrete, and maximality of the scan makes it s-dense in the window.
    When ceil(s)-1 >= radius the ball is all of W, so the identity, first
    in BFS order, blocks every element: the net is [identity], found with
    no search past W.
    """
    s = Fraction(s)
    if s < 1:
        raise PreconditionError(f"net scale must be >= 1, got {s}")
    # integer d < s exactly when d <= ceil(s) - 1
    ball = W.ball(math.ceil(s) - 1)
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


def packing_number(W: Window, separation, diam_bound) -> PackingResult:
    """Maximum size of a subset with pairwise distances >= separation and
    diameter <= diam_bound.

    By left-invariance any maximizing configuration translates to one
    containing the identity, so the search runs over the centered ball of
    radius diam_bound via branch and bound, with the compatibility graph
    and the branching sets held as integer bitmasks.  It branches in
    increasing index order, so the compatibility rows keep only their
    upper triangle (:func:`_compat_rows`, closed-form on ``Z^d``).  A child
    that cannot branch (an empty mask, or one too small to beat the best
    size) is counted and may record a new best without a call; ``nodes``
    still counts every node.  When the candidate set exceeds
    ``DEFAULT_CANDIDATE_CAP`` or the search exceeds ``DEFAULT_NODE_BUDGET``
    nodes, the volume upper bound is returned with the exactness flag
    cleared; an overestimate is always safe downstream.
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
    node_budget, candidate_cap = DEFAULT_NODE_BUDGET, DEFAULT_CANDIDATE_CAP
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

    compat = _compat_rows(W, candidates, lo, hi)
    best, best_set = 1, [0]
    nodes = 1  # the root: configurations are translated so candidate 0 (the identity) is a member

    def extend(current: list, allowed: int, room: int) -> bool:
        # branch on the `room` members of `allowed` in increasing index
        # order; each child is counted here and called only when it can
        # branch.  True when the node budget ran out.
        nonlocal best, best_set, nodes
        depth = len(current) + 1  # of the children
        while allowed:
            if depth - 1 + room <= best:
                return False
            low = allowed & -allowed
            j = low.bit_length() - 1
            allowed ^= low
            room -= 1
            nodes += 1
            if nodes > node_budget:
                return True
            if depth > best:
                best, best_set = depth, current + [j]
            child = allowed & compat[j]
            size = child.bit_count()
            if depth + size > best:
                current.append(j)
                aborted = extend(current, child, size)
                current.pop()
                if aborted:
                    return True
        return False

    aborted = nodes > node_budget or extend([0], compat[0], compat[0].bit_count())
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


def _compat_rows(W: Window, candidates: list, lo: int, hi: int) -> list:
    """``rows[i]`` has bit ``j`` set, for ``j > i`` only, when candidates
    ``i`` and ``j`` are ``lo`` to ``hi`` apart; the search reads ``rows[j]``
    only under masks of indices above ``j``.

    On ``Z^d`` the distances are l1 norms, read off one code table
    (:func:`_l1_codes`) mapped to ``"0"``/``"1"``: row ``i`` joins the
    characters of the later candidates, highest index first, and parses
    them as one binary integer, with no group product or window lookup.
    Other groups look each distance up in ``W``; a distance the window
    misses exceeds its radius, hence ``hi``.
    """
    n = len(candidates)
    if isinstance(W.group, ZdGroup):
        col, table, offset = _l1_codes(candidates, 1)
        # the candidates are B(hi): every coordinate spans [-hi, hi], so the
        # table has (4*hi+1)^d entries, at most 17^4 = 83,521 under the
        # default candidate cap (Z^4 at hi = 4)
        assert len(table) == (4 * hi + 1) ** W.group.d
        bits = "".join(["1" if lo <= v <= hi else "0" for v in table])
        later = col[::-1]  # later[:n-1-i] holds the codes of candidates n-1, ..., i+1
        return [int("".join(map(bits[offset - c:].__getitem__, later[:n - 1 - i])), 2) << (i + 1)
                for i, c in enumerate(col[:-1])] + [0]
    dist_get = W.dist.get
    mul, inv = W.group.mul, W.group.inv
    rows = []
    for i, c in enumerate(candidates):
        inv_i = inv(c)
        row = 0
        for j in range(i + 1, n):
            d = dist_get(mul(inv_i, candidates[j]))
            if d is not None and lo <= d <= hi:
                row |= 1 << j
        rows.append(row)
    return rows


def _l1_codes(points: list, scale: int) -> tuple:
    """``(column, table, offset)`` with ``scale`` times the l1 distance of
    points ``a`` and ``b`` equal to ``table[col[b] - col[a] + offset]``.

    The points are coded in mixed radix, with base ``2*span + 1`` for a
    coordinate of spread ``span`` over the points, so a code difference
    names exactly one difference vector and the table holds its norm: the
    table has the product of the bases as its size.  The column is shifted
    to least code 0, so it is at most ``offset``: row ``a`` of the table is
    the slice from ``offset - col[a]``, indexed by ``col[b]``.  Equal table
    values share one int object.
    """
    code = [0] * len(points)
    table = [0]
    radix = 1
    for col in zip(*points):
        span = max(col) - min(col)
        code = list(map(add, code, [radix * x for x in col]))
        table = [a + abs(x) for x in range(-span, span + 1) for a in table]
        radix *= 2 * span + 1
    low = min(code)
    scaled = [scale * v for v in range(max(table) + 1)]
    return [c - low for c in code], list(map(scaled.__getitem__, table)), radix // 2


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
