"""Finite balls in a group: exact word-metric distances, greedy maximal
nets, and packing numbers with their volume bound.

A :class:`Window` is the radius-R ball of the word metric as one table:
``dist`` maps each element to its word length, in the breadth-first order
of a search from the identity in the model's fixed generator order.  A
ball, and a larger ball from a window's outer level (:func:`ball_window`),
is listed sphere by sphere where the model knows its spheres in that order
(``GroupModel.sphere``), once their sizes are within the element budget,
else searched by :func:`_bfs`, which also builds
distance fields.  ``d(a, b)`` is ``dist.get(a^-1 b)``, and a lookup miss
means the distance exceeds the window radius.

The pipeline reads the packing constant ``M`` as the disjoint-ball volume
bound of :func:`packing_bound`, two prefix lengths of a window; only the
``packing`` subcommand runs the exact search of :func:`packing_number`.
That search reads rows of pairwise distances, row ``i`` holding those from
``points[i]`` to ``points[i+1:]``: :func:`_l1_rows` as ``bytes`` on
``Z^d`` within the byte limit of :func:`_byte_rows_fit`,
:func:`_lookup_rows` otherwise.  The moduli pair scans of
:mod:`couplingcert.coarse` read them too: the lane scan reads byte rows on
both sides, and the row scan reads each side's byte rows within the limit
and its lookup rows past it.  Past the limit are the packing search on
``Z^1`` from ``diam_bound = 128``, and moduli source windows from ``R_H =
128`` on ``Z^1`` and ``R_H = 64`` on ``Z^2``.

Net scales and packing bounds are ``int`` word-length thresholds; any
other value is refused.  The search limits (``DEFAULT_ELEMENT_BUDGET`` for
every ball and field, the node budget and candidate cap of the packing
search) are module constants, read when a search runs.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Optional

from .errors import PreconditionError, ResolutionError, WindowBudgetError, require_int
from .groups import GroupModel, ZdGroup

DEFAULT_ELEMENT_BUDGET = 5_000_000

# limits of the packing search that only the packing subcommand runs;
# beyond them packing_number returns packing_bound, the pipeline's M
DEFAULT_NODE_BUDGET = 200_000
DEFAULT_CANDIDATE_CAP = 600


class Window:
    """The radius-``radius`` ball: ``dist`` maps each element to its word
    length in BFS order; ``elements`` and ``lengths``, its keys and values
    as lists, are derived in ``__init__``.  ``kernels`` memoizes, per centre
    difference ``w``, the block kernel that :mod:`couplingcert.coupling`
    reads distances between unit-ball blocks from."""

    def __init__(self, group: GroupModel, radius: int, dist: dict):
        self.group = group
        self.radius = radius
        self.dist = dist
        self.elements = list(dist)
        self.lengths = list(dist.values())
        self.kernels = {}

    def ball(self, r: int) -> list:
        """The elements of length <= r: a prefix of ``elements`` in BFS
        order, the whole window when r >= radius."""
        return self.shell(-1, r)

    def shell(self, r0: int, r1: int) -> list:
        """The elements with r0 < length <= r1, in BFS order."""
        return self.elements[bisect_right(self.lengths, r0):bisect_right(self.lengths, r1)]

    def __len__(self):
        return len(self.elements)


def _bfs(G: GroupModel, dist: dict, frontier: list, level: int, depth: int) -> dict:
    """Extend the BFS table ``dist`` level by level from its outermost level
    ``level``, ``frontier`` in table order, to ``depth``, each element
    stepping by right multiplication with the generators in their fixed
    order, up to ``DEFAULT_ELEMENT_BUDGET`` elements."""
    budget = DEFAULT_ELEMENT_BUDGET
    mul = G.mul
    gens = G.generators
    while frontier and level < depth:
        level += 1
        reached = []
        for e in frontier:
            for g in gens:
                child = mul(e, g)
                if child in dist:
                    continue
                if len(dist) >= budget:
                    raise _over_budget(G, level)
                dist[child] = level
                reached.append(child)
        frontier = reached
    return dist


def _over_budget(G: GroupModel, level: int) -> WindowBudgetError:
    return WindowBudgetError(
        f"breadth-first search in {G.descriptor} exceeded the "
        f"{DEFAULT_ELEMENT_BUDGET}-element budget at radius {level}",
        radius_reached=level - 1,
    )


def _grow(G: GroupModel, dist: dict, shell: list, level: int, depth: int) -> dict:
    """Extend the ball ``dist`` from its outer level ``level``, ``shell``,
    to ``depth``: by ``G.sphere``, the sizes of all the spheres up to
    ``depth`` checked against the budget before any sphere is listed, else
    by :func:`_bfs`, which checks each element as it meets it."""
    total = len(dist)
    for r in range(level + 1, depth + 1):
        known = G.sphere(r, shell)
        if known is None:
            return _bfs(G, dist, shell, level, depth)
        total += known[0]
        if total > DEFAULT_ELEMENT_BUDGET:
            raise _over_budget(G, r)
    for r in range(level + 1, depth + 1):
        shell = G.sphere(r, shell)[1]()
        dist.update(zip(shell, repeat(r)))
    return dist


def build_window(G: GroupModel, R: int) -> Window:
    """Enumerate the radius-R ball in BFS order (:func:`_grow`)."""
    if R < 0:
        raise PreconditionError(f"radius must be nonnegative, got {R}")
    return Window(group=G, radius=R, dist=_grow(G, {G.identity: 0}, [G.identity], 0, R))


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
    shell = W.shell(W.radius - 1, W.radius)
    return Window(group=W.group, radius=r, dist=_grow(W.group, dict(W.dist), shell, W.radius, r))


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
    field = dict.fromkeys(sources, 0)
    return _bfs(W.group, field, list(field), 0, W.radius)


class Net:
    def __init__(self, points: list):
        self.points = points

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


def greedy_net(W: Window, s: int) -> Net:
    """Greedy maximal s-discrete subset, scanned in BFS order.

    Each chosen point e blocks the elements within distance < s of it: the
    e*b of W with |b| <= s-1, read off the prefix ``W.ball``.  An element
    is chosen when no earlier choice blocks it, so the result is
    s-discrete, and maximality of the scan makes it s-dense in the window.
    When s-1 >= radius the ball is all of W, so the identity, first in BFS
    order, blocks every element: the net is [identity], found with no
    search past W.
    """
    require_int("net scale", s)
    if s < 1:
        raise PreconditionError(f"net scale must be >= 1, got {s}")
    ball = W.ball(s - 1)
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


class PackingResult:
    """The packing bound ``value``, exact when ``exact``; ``nodes`` counts
    the search nodes visited, and ``note`` says why the search gave up."""

    def __init__(self, value: int, exact: bool, nodes: int = 0, note: str = ""):
        self.value = value
        self.exact = exact
        self.nodes = nodes
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


def packing_bound(W: Window, separation: int, diam_bound: int) -> int:
    """The disjoint-ball volume bound on the packing number: at least the
    size of every subset with pairwise distances >= separation and diameter
    <= diam_bound, which :func:`packing_number` computes.

    Translated to contain the identity, such a subset lies in the ball of
    radius diam_bound, and the balls of radius r = (separation-1)//2 about
    its members are disjoint and lie in the ball of radius diam_bound + r.
    So it has at most ``|B(diam_bound + r)| // |B(r)|`` members when r >= 1
    and that ball fits in ``W``, and never more than ``|B(diam_bound)|``.
    Each ball size is a prefix length of ``W.lengths``.
    """
    require_int("separation", separation)
    require_int("diam_bound", diam_bound)
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
    n_candidates = bisect_right(W.lengths, diam_bound)
    r = (separation - 1) // 2
    big = diam_bound + r
    if r >= 1 and big <= W.radius:
        return min(n_candidates, bisect_right(W.lengths, big) // bisect_right(W.lengths, r))
    return n_candidates


def packing_number(W: Window, separation: int, diam_bound: int) -> PackingResult:
    """Maximum size of a subset with pairwise distances >= separation and
    diameter <= diam_bound, refused as :func:`packing_bound` refuses it.

    By left-invariance any maximizing configuration translates to one
    containing the identity, so the search runs over the centered ball of
    radius diam_bound via branch and bound, with the compatibility graph
    and the branching sets held as integer bitmasks.  It branches in
    increasing index order, so the compatibility rows keep only their
    upper triangle (:func:`_compat_rows`).  The search keeps only the size
    of its best set, never its members.  A child that cannot branch (an
    empty mask, or one too small to beat the best size) is counted and may
    raise the best size without a call; ``nodes`` still counts every node.
    When the candidate set exceeds ``DEFAULT_CANDIDATE_CAP`` or the search
    exceeds ``DEFAULT_NODE_BUDGET`` nodes, it returns :func:`packing_bound`
    with the exactness flag cleared.  Only the ``packing`` subcommand runs
    this search; the pipeline reads :func:`packing_bound` alone.
    """
    ub = packing_bound(W, separation, diam_bound)
    node_budget, candidate_cap = DEFAULT_NODE_BUDGET, DEFAULT_CANDIDATE_CAP
    candidates = W.ball(diam_bound)
    if len(candidates) > candidate_cap:
        return PackingResult(
            value=ub,
            exact=False,
            nodes=0,
            note=f"candidate set of size {len(candidates)} exceeds cap {candidate_cap}",
        )

    compat = _compat_rows(W, candidates, separation, diam_bound)
    best = 1
    nodes = 1  # the root: configurations are translated so candidate 0 (the identity) is a member

    def extend(depth: int, allowed: int, room: int) -> bool:
        # branch on the `room` members of `allowed` in increasing index
        # order, each child a set of `depth` members; each child is counted
        # here and called only when it can branch.  True when the node
        # budget ran out.
        nonlocal best, nodes
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
                best = depth
            child = allowed & compat[j]
            size = child.bit_count()
            if depth + size > best and extend(depth + 1, child, size):
                return True
        return False

    aborted = nodes > node_budget or extend(2, compat[0], compat[0].bit_count())
    if aborted:
        return PackingResult(
            value=ub,
            exact=False,
            nodes=nodes,
            note=f"node budget {node_budget} exceeded",
        )
    return PackingResult(value=best, exact=True, nodes=nodes)


def _compat_rows(W: Window, candidates: list, lo: int, hi: int) -> list:
    """``rows[i]`` has bit ``j`` set, for ``j > i`` only, when candidates
    ``i`` and ``j`` are ``lo`` to ``hi`` apart; the search reads ``rows[j]``
    only under masks of indices above ``j``.

    Each distance row (:func:`_l1_rows` when :func:`_byte_rows_fit`, else
    :func:`_lookup_rows`) is mapped to ``"0"``/``"1"`` per later
    candidate and parsed, highest index first, as one binary integer.
    """
    if _byte_rows_fit(W.group, candidates):
        bits = bytes(b"01"[lo <= d <= hi] for d in range(256))
        rows = (row.translate(bits) for row in _l1_rows(candidates))
    else:
        # a window miss exceeds the radius, hence hi
        bits = {d: "01"[lo <= d <= hi] for d in range(W.radius + 1)} | {None: "0"}
        rows = ("".join(map(bits.__getitem__, row)) for row in _lookup_rows(W, candidates))
    return [int(row[::-1], 2) << (i + 1) for i, row in enumerate(rows)] + [0]


def _byte_rows_fit(G: GroupModel, points: list) -> bool:
    """Whether :func:`_l1_rows` serves ``points``: ``G`` is ``Z^d`` and
    their :func:`_l1_spread` is at most 255, so no distance between two of
    them exceeds one byte."""
    return isinstance(G, ZdGroup) and _l1_spread(points) <= 255


def _l1_spread(points: list) -> int:
    """The sum over coordinates of the spread ``max - min`` of ``points``:
    the largest l1 distance between two of them."""
    return sum(max(c) - min(c) for c in zip(*points))


# _V[255 - c:511 - c] maps each byte x to |x - c|, for every byte c
_V = bytes(range(255, 0, -1)) + bytes(range(256))


def _l1_rows(points: list):
    """Yield, for each point of ``Z^d`` but the last, its l1 distances to
    the later points as ``bytes``, one byte each, when
    :func:`_byte_rows_fit`.

    Each coordinate is one ``bytes`` column, shifted to least value 0.  Row
    ``i`` translates the later bytes of a column by the table ``x -> |x -
    col[i]|`` (a slice of ``_V``), which gives that coordinate's distance
    from point ``i`` to every later point in one call; the coordinates are
    added as integers, one byte lane per pair, and no lane carries since
    the spreads sum to at most 255.
    """
    cols = [bytes([x - low for x in c]) for c in zip(*points) for low in [min(c)]]
    for i in range(len(points) - 1):
        total = 0
        for col in cols:
            c = col[i]
            total += int.from_bytes(col[i + 1:].translate(_V[255 - c:511 - c]), "little")
        yield total.to_bytes(len(points) - 1 - i, "little")


def _lookup_rows(W: Window, points: list):
    """Yield, for each point but the last, its distances to the later
    points as a list, each the length of ``a^-1 b`` in ``W``, ``None``
    where the window misses; each point is inverted once."""
    dist_get, mul = W.dist.get, W.group.mul
    for i, a in enumerate(points[:-1]):
        yield list(map(dist_get, map(mul, repeat(W.group.inv(a)), points[i + 1:])))
