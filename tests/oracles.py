"""Slow, independent reference implementations the tests compare the
package against.  They are not part of the runtime API."""

from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import repeat
from operator import add, sub
from typing import Optional

from couplingcert.coarse import Moduli, apply
from couplingcert.coupling import PartitionOfUnity, SparseDensity
from couplingcert.errors import PreconditionError, ResolutionError, WindowBudgetError
from couplingcert.groups import GroupModel
from couplingcert.windows import (DEFAULT_CANDIDATE_CAP, DEFAULT_ELEMENT_BUDGET,
                                  DEFAULT_NODE_BUDGET, Net, PackingResult, Window,
                                  _volume_upper_bound, resolved_distance, set_distance)


def multiply(G: GroupModel, a, b):
    """Validated product a*b in normal form."""
    G.validate(a)
    G.validate(b)
    return G.mul(a, b)


def inverse(G: GroupModel, a):
    """Validated inverse of a."""
    G.validate(a)
    return G.inv(a)


def build_window(G: GroupModel, R: int, budget: int = DEFAULT_ELEMENT_BUDGET) -> Window:
    """The radius-R ball from one deque BFS in fixed generator order, with
    its elements and lengths kept as parallel lists beside a position
    index."""
    if R < 0:
        raise PreconditionError(f"radius must be nonnegative, got {R}")
    identity = G.identity
    elements = [identity]
    index = {identity: 0}
    lengths = [0]
    frontier = deque([identity])
    level = 0
    while frontier and level < R:
        level += 1
        for _ in range(len(frontier)):
            e = frontier.popleft()
            for g in G.generators:
                child = G.mul(e, g)
                if child in index:
                    continue
                if len(elements) >= budget:
                    raise WindowBudgetError(
                        f"ball of {G.descriptor} exceeded the {budget}-element "
                        f"budget at radius {level}",
                        radius_reached=level - 1,
                    )
                index[child] = len(elements)
                elements.append(child)
                lengths.append(level)
                frontier.append(child)
    return Window(group=G, radius=R, dist=dict(zip(elements, lengths)))


def ball_window(W: Window, r: int) -> Window:
    """The radius-r ball of ``W.group`` from a fresh deque BFS, whatever
    ``W`` holds."""
    return build_window(W.group, r)


def distances_from(W: Window, a, bs) -> list:
    """One ``resolved_distance`` per b of ``bs``; raises ResolutionError at
    the first that exceeds the window radius."""
    G = W.group
    out = []
    for b in bs:
        d = resolved_distance(W, a, b)
        if d is None:
            raise ResolutionError(
                f"d({G.format_element(a)}, {G.format_element(b)}) exceeds "
                f"the window radius {W.radius} of {G.descriptor}"
            )
        out.append(d)
    return out


def distance(W: Window, a, b) -> int:
    """Word-metric distance d(a, b) = |a^-1 b|; raises ResolutionError when
    it exceeds the window radius."""
    return distances_from(W, a, [b])[0]


def distance_field(W: Window, sources) -> dict:
    """``set_distance(W, [x], sources)`` for every x it resolves, probed
    over the balls of radius ``W.radius + 1`` around the sources: one step
    past the cutoff, so every resolved x is probed."""
    G = W.group
    reach = build_window(G, W.radius + 1).elements
    probe = dict.fromkeys(G.mul(b, e) for b in sources for e in reach)
    return {x: d for x in probe if (d := set_distance(W, [x], sources)) is not None}


def homomorphic_moduli(phi, W_H: Window, W_G: Window, t_max: int) -> Moduli:
    """The truncating pair scan of ``estimate_moduli`` over the unordered
    pairs of W_H, with both distances from ``resolved_distance``:
    truncated below the least source distance whose image distance does
    not resolve (recorded as ``truncated_at``), trimmed to the last
    distance with a pair, and ``pair_counts`` dropped."""
    diff = build_window(phi.source, t_max)
    elements = W_H.elements
    images = [apply(phi, h) for h in elements]
    pairs = [(0, 0)]  # the diagonal
    for i, (a, img_a) in enumerate(zip(elements, images)):
        for b, img_b in zip(elements[i + 1:], images[i + 1:]):
            dH = resolved_distance(diff, a, b)
            if dH is not None:
                pairs.append((dH, resolved_distance(W_G, img_a, img_b)))
    t_bad = min((dH for dH, dG in pairs if dG is None), default=t_max + 1)
    kept = [(dH, dG) for dH, dG in pairs if dG is not None and dH < t_bad]
    eff = max(dH for dH, _ in kept)
    return Moduli(
        t_max=eff,
        kappa=[min(dG for dH, dG in kept if dH >= t) for t in range(eff + 1)],
        omega=[max(dG for dH, dG in kept if dH <= t) for t in range(eff + 1)],
        provenance="window-estimated",
        requested_t_max=t_max,
        truncated_at=t_bad if t_bad <= t_max else None,
    )


def window_table(keys: Counter, T: int, radius_G: int, t_max: int, counted: bool) -> Moduli:
    """The table of ``coarse._window_table`` from its definitions: the
    counted keys expanded into (dH, dG) pairs with their multiplicities,
    those past ``t_max`` dropped, truncated below the least dH whose dG
    exceeds ``radius_G``, trimmed to the last dH with a pair, and kappa and
    omega taken as minima and maxima over distance ranges."""
    pairs = [(key % T, key // T, c) for key, c in keys.items() if key % T <= t_max]
    t_bad = min((dH for dH, dG, _ in pairs if dG > radius_G), default=t_max + 1)
    kept = [(dH, dG, c) for dH, dG, c in pairs if dH < t_bad]
    eff = max(dH for dH, _, _ in kept)
    return Moduli(
        t_max=eff,
        kappa=[min(dG for dH, dG, _ in kept if dH >= t) for t in range(eff + 1)],
        omega=[max(dG for dH, dG, _ in kept if dH <= t) for t in range(eff + 1)],
        provenance="window-estimated",
        pair_counts=([sum(c for dH, _, c in kept if dH == t) for t in range(eff + 1)]
                     if counted else None),
        requested_t_max=t_max,
        truncated_at=t_bad if t_bad <= t_max else None,
    )


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


def pair_extremes(W: Window, points: list) -> tuple:
    """(least, first least pair, greatest or None) from every unordered pair's
    ``resolved_distance``, listed in walk order."""
    pairs = [(a, b, resolved_distance(W, a, b))
             for i, a in enumerate(points) for b in points[i + 1:]]
    resolved = [(d, (a, b)) for a, b, d in pairs if d is not None]
    least = min(d for d, _ in resolved) if resolved else None
    pair = next((p for d, p in resolved if d == least), None)
    greatest = None if len(resolved) < len(pairs) else max((d for d, _ in resolved), default=0)
    return least, pair, greatest


def l1_pair_keys(elements: list, images: list, T: int) -> Counter:
    """Counter of ``dH + T*dG`` over the unordered pairs of ``elements``,
    from one list per coordinate of the points ``(h, T*phi(h))`` of
    ``Z^(d+e)``: per row, ``abs`` of the column differences, summed."""
    cols = [list(c) for c in zip(*elements)] + [[T * x for x in c] for c in zip(*images)]
    keys = Counter()
    for i in range(len(elements)):
        dist = None
        for col in cols:
            d = map(abs, map(sub, col[i + 1:], repeat(col[i])))
            dist = d if dist is None else map(add, dist, d)
        keys.update(dist)
    return keys


def packing_number_naive(W: Window, separation, diam_bound) -> int:
    """Exhaustive subset search over the whole window.

    No translation trick, no bound pruning; only feasibility pruning.
    Intended for windows of a few dozen elements.
    """
    separation = Fraction(separation)
    diam_bound = Fraction(diam_bound)
    n = len(W.elements)
    dist_get = W.dist.get
    mul, inv = W.group.mul, W.group.inv

    def dist(i: int, j: int):
        return dist_get(mul(inv(W.elements[i]), W.elements[j]))

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


def packing_number_lookup(
    W: Window,
    separation,
    diam_bound,
    node_budget: int = DEFAULT_NODE_BUDGET,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> PackingResult:
    """Maximum size of a subset with pairwise distances >= separation and
    diameter <= diam_bound: the search of ``windows.packing_number`` on
    symmetric compatibility masks built by one window lookup per pair, with
    one call per search node.

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


def _weights(d: SparseDensity) -> dict:
    """Each atom's measure as its own Fraction."""
    return {a: Fraction(n, d.denominator) for a, n in d.atoms.items()}


def mass(d: SparseDensity) -> Fraction:
    return sum(_weights(d).values(), Fraction(0))


def inner_product(d: SparseDensity, subset) -> Fraction:
    total = Fraction(0)
    for a, w in _weights(d).items():
        if a in subset:
            total += w
    return total


def l1_distance(xi: SparseDensity, eta: SparseDensity) -> Fraction:
    """Fraction add and abs per atom, no shared denominator."""
    if xi.group.descriptor != eta.group.descriptor:
        raise PreconditionError("densities live on different measured groups")
    w_xi, w_eta = _weights(xi), _weights(eta)
    total = Fraction(0)
    for a, w in w_xi.items():
        total += abs(w - w_eta.get(a, Fraction(0)))
    for a, w in w_eta.items():
        if a not in w_xi:
            total += abs(w)
    return total


def n_empirical(P: PartitionOfUnity) -> Fraction:
    """Worst alpha increment over adjacent inner pairs, with the bumps
    theta_y(h) = s+1 - d(y, h) computed from distances, in Fractions."""
    W = P.window_H
    H = W.group
    s1 = P.scale + 1
    alphas = {}
    for h in P.inner_elements:
        thetas = {}
        for i, y in enumerate(P.net.points):
            d = resolved_distance(W, y, h)
            if d is not None and d < s1:
                thetas[i] = s1 - d
        Theta = sum(thetas.values(), Fraction(0))
        alphas[h] = {i: v / Theta for i, v in thetas.items()}
    worst = Fraction(0)
    for h, a_h in alphas.items():
        for g in H.generators:
            a_h2 = alphas.get(H.mul(h, g))
            if a_h2 is None:
                continue
            for i in set(a_h) | set(a_h2):
                worst = max(worst, abs(a_h.get(i, Fraction(0)) - a_h2.get(i, Fraction(0))))
    return worst


def greedy_net_scan(W: Window, s) -> Net:
    """The greedy s-discrete net, each element of W in BFS
    order looked up against every point chosen so far; when s exceeds
    radius+1 the lookups resolve in a ball that reaches just below s
    (pairwise distances in W stay <= 2*radius)."""
    s = Fraction(s)
    G = W.group
    below = math.ceil(s) - 1
    lookup = build_window(G, min(below, 2 * W.radius)) if s > W.radius + 1 else W
    chosen = []
    for e in W.elements:
        if all((d := resolved_distance(lookup, y, e)) is None or d > below for y in chosen):
            chosen.append(e)
    return Net(points=chosen)


def bump_walk(W: Window, points, s) -> tuple:
    """(thetas, overlap count) of the bumps theta_y(h) = s+1 - d(y, h), from
    the ``resolved_distance`` of every (h, y) pair in Fractions: thetas
    maps each h of the inner window (radius ``W.radius - floor(s+1)``) with
    some bump above 0 to [(i, theta * q)] in point order, q the
    denominator of s+1."""
    s1 = Fraction(s) + 1
    thetas = {}
    for h in W.ball(W.radius - math.floor(s1)):
        terms = [(i, int((s1 - d) * s1.denominator)) for i, y in enumerate(points)
                 if (d := resolved_distance(W, y, h)) is not None and d < s1]
        if terms:
            thetas[h] = terms
    return thetas, overlap_count(W, points, math.floor(s1))


def overlap_count(W: Window, points, reach: int) -> int:
    """The most ``points`` within ``reach`` of one element of W, from every
    element against every point inverse."""
    mul, inv, dist_get = W.group.mul, W.group.inv, W.dist.get
    inverses = [inv(y) for y in points]
    best = 0
    for h in W.elements:
        cnt = 0
        for y_inv in inverses:
            d = dist_get(mul(y_inv, h))
            if d is not None and d <= reach:
                cnt += 1
        best = max(best, cnt)
    return best


def g_properness(phi, qualifying: list, K_G: list, W_G: Window, g_candidates: list,
                 field_of_K=None) -> tuple:
    """(margin, witness, margin_is_floor, population) of the left-action
    properness loop, with a witness built for every (candidate, sample) pair
    and every support-to-K_G distance looked up pair by pair; neither the
    candidates' word lengths nor the distance field ``field_of_K`` is
    read."""
    G = phi.target
    fmtG = G.format_element
    K_set = set(K_G)
    margin = witness = None
    margin_is_floor = False
    population = 0
    for gc, _ in g_candidates:
        for g, h, xi_1 in qualifying:
            moved = [G.mul(gc, a) for a in xi_1.support()]
            hit = [a for a in moved if a in K_set]
            wit = {"g": fmtG(gc), "xi": [fmtG(g), phi.source.format_element(h)]}
            if hit:
                m, wit = Fraction(-1), dict(wit, meeting_point=fmtG(hit[0]))
            else:
                ds = [d for a in moved for k in K_G
                      if (d := resolved_distance(W_G, a, k)) is not None]
                if not ds:
                    margin_is_floor = True
                    ds = [W_G.radius + 1]
                m = Fraction(min(ds) - 1)
            if margin is None or m < margin:
                margin, witness = m, wit
            population += 1
    return margin, witness, margin_is_floor, population


def kappa_sublevel_radius(m: Moduli, bound) -> Optional[int]:
    """Largest t with kappa(t) <= bound (-1 when there is none), by a scan of
    the whole table; None when the whole table stays below the bound."""
    if bound < 0:
        return -1
    top = m.kappa_at(m.t_max)
    if top is not None and top <= bound:
        return None
    r = -1
    for t in range(m.t_max + 1):
        k = m.kappa_at(t)
        if k is not None and k <= bound:
            r = t
    return r


def far_shell(W: Window, m: Moduli, threshold) -> list:
    """The elements h of W with kappa(|h|) above ``threshold``, by reading
    kappa at every element's length."""
    return [h for h, lh in zip(W.elements, W.lengths)
            if (k := m.kappa_at(lh)) is not None and k > threshold]


def slice_K_margin(W_G: Window, g, slice_supp: list, K: list) -> tuple:
    """(margin, meeting atom, is_floor) of a slice against K by moving K
    back by g^-1: -1 and the first atom of the slice in g^-1 K, else the
    set distance of the slice to g^-1 K minus 1, or the floor W_G.radius
    when it does not resolve."""
    G = W_G.group
    g_inv = G.inv(g)
    K_back = [G.mul(g_inv, k) for k in K]
    hit = [a for a in slice_supp if a in set(K_back)]
    if hit:
        return -1, hit[0], False
    d = set_distance(W_G, slice_supp, K_back)
    return (W_G.radius, None, True) if d is None else (d - 1, None, False)
