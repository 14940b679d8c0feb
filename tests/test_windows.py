"""Windows, distances, greedy nets, packing numbers."""

from __future__ import annotations

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplingcert import windows
from couplingcert.coarse import analytic_moduli, make_coarse_map
from couplingcert.coupling import build_partition
from couplingcert.errors import PreconditionError, ResolutionError, WindowBudgetError
from couplingcert.groups import make_group
from couplingcert.windows import (
    DEFAULT_NODE_BUDGET,
    ball_window,
    build_window,
    distance_field,
    distances_from,
    greedy_net,
    packing_bound,
    packing_number,
    pair_extremes,
    resolved_distance,
    set_distance,
)

import oracles
from oracles import distance, is_dense, is_discrete, packing_number_lookup, packing_number_naive
from test_coarse import _byte_points


@pytest.mark.parametrize(
    "desc,radius,count",
    [
        ("Z^1", 3, 7),
        ("Z^2", 2, 13),
        ("F_2", 2, 17),
        ("Z^1", 0, 1),
        ("Heis", 2, 17),  # x*y != y*x: 1 + 4 + 12
    ],
)
def test_ball_sizes(desc, radius, count):
    W = build_window(make_group(desc), radius)
    assert len(W) == count
    assert W.elements[0] == W.group.identity
    assert W.lengths[0] == 0


def test_bfs_levels_and_determinism():
    W = build_window(make_group("Z^1"), 3)
    assert W.elements == [(0,), (1,), (-1,), (2,), (-2,), (3,), (-3,)]
    assert W.lengths == [0, 1, 1, 2, 2, 3, 3]


def test_bfs_levels_match_l1_norm_on_z2():
    W = build_window(make_group("Z^2"), 4)
    for e, l in zip(W.elements, W.lengths):
        assert l == abs(e[0]) + abs(e[1])


def test_product_word_metric_is_l1_sum_of_factors():
    W = build_window(make_group("Z^1 x F_2"), 4)
    for (z, w), l in zip(W.elements, W.lengths):
        assert l == abs(z[0]) + len(w)


@pytest.mark.parametrize(
    "desc,radius",
    [("Z^1", 4), ("Z^2", 3), ("F_2", 3), ("Heis", 3), ("C_5", 3), ("C_5 x Z^1", 3),
     ("Z^1 x F_2", 2)],
)
def test_ball_is_the_length_prefix(desc, radius):
    W = build_window(make_group(desc), radius)
    assert W.ball(-1) == []
    for r in range(radius + 2):
        assert W.ball(r) == [e for e, l in zip(W.elements, W.lengths) if l <= r]
    assert W.ball(radius + 1) == W.elements
    for r0 in range(-1, radius + 2):
        for r1 in range(-1, radius + 2):
            assert W.shell(r0, r1) == [e for e, l in zip(W.elements, W.lengths) if r0 < l <= r1]


@pytest.mark.parametrize(
    "desc,radius",
    [("Z^2", 3), ("Heis", 2), ("F_2", 2), ("C_5 x Z^1", 3)],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_set_distance_matches_least_resolved_distance(desc, radius, data):
    G = make_group(desc)
    W = build_window(G, radius)
    # drawn from beyond the window, so some sets lie out of each other's reach
    pool = build_window(G, radius + 2).elements
    xs = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    ys = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    ds = [d for a in xs for b in ys if (d := resolved_distance(W, a, b)) is not None]
    assert set_distance(W, xs, ys) == (min(ds) if ds else None)


@pytest.mark.parametrize(
    "desc,radius",
    [("Z^2", 3), ("Heis", 2), ("F_2", 2), ("C_5 x Z^1", 3)],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pair_extremes_match_all_pairs_resolved_distance(desc, radius, data):
    G = make_group(desc)
    W = build_window(G, radius)
    # drawn from beyond the window, so some pairs do not resolve; repeats
    # give pairs at distance 0
    pool = build_window(G, radius + 2).elements
    points = data.draw(st.lists(st.sampled_from(pool), max_size=7))
    assert pair_extremes(W, points) == oracles.pair_extremes(W, points)


def test_pair_extremes_examples():
    Z = make_group("Z^1")
    W = build_window(Z, 3)
    assert pair_extremes(W, [(0,)]) == (None, None, 0)
    assert pair_extremes(W, [(0,), (2,), (9,), (3,)]) == (1, ((2,), (3,)), None)
    assert pair_extremes(W, [(0,), (2,), (-1,), (1,)]) == (1, ((0,), (-1,)), 3)


def test_set_distance_of_far_sets_is_none():
    Z = make_group("Z^1")
    W = build_window(Z, 3)
    assert set_distance(W, [(0,), (1,)], [(5,), (9,)]) is None
    assert set_distance(W, [(0,), (1,)], [(9,), (4,)]) == 3


def test_budget_error_reports_radius(monkeypatch):
    # the error of the deque BFS, from the ball and from its growth; B(3)
    # of F_2 holds exactly 53 elements
    for desc, budget in [("F_2", 50), ("F_2", 53), ("F_3", 200), ("Z^2", 60)]:
        G = make_group(desc)
        with pytest.raises(WindowBudgetError) as expected:
            oracles.build_window(G, 10, budget=budget)
        W = build_window(G, 2)
        monkeypatch.setattr(windows, "DEFAULT_ELEMENT_BUDGET", budget)
        for build in (lambda: build_window(G, 10), lambda: ball_window(W, 10)):
            with pytest.raises(WindowBudgetError) as exc:
                build()
            assert str(exc.value) == str(expected.value)
            assert exc.value.radius_reached == expected.value.radius_reached
        monkeypatch.undo()


def test_a_sphere_over_the_budget_is_refused_before_it_is_listed(monkeypatch):
    # the sphere sizes are summed before any sphere of the ball is listed.
    # B(4) of F_3 holds 937 elements, and its radius-5 sphere 3,750 more;
    # B(5) of F_2 holds 485 elements and B(6) 1,457, so growing a listed
    # B(3) to B(40) raises at radius 6 as the fresh ball does
    for desc, budget, grown_from, radius_reached in [("F_3", 4_000, None, 4),
                                                      ("F_2", 1_000, 3, 5)]:
        G = make_group(desc)
        W = None if grown_from is None else build_window(G, grown_from)
        listed = []
        sphere = G.sphere

        def spy(r, prev):
            size, listing = sphere(r, prev)
            return size, lambda: listed.append(r) or listing()

        monkeypatch.setattr(G, "sphere", spy)
        monkeypatch.setattr(windows, "DEFAULT_ELEMENT_BUDGET", budget)
        with pytest.raises(WindowBudgetError) as exc:
            build_window(G, 40) if W is None else ball_window(W, 40)
        assert str(exc.value) == (f"breadth-first search in {desc} exceeded the "
                                  f"{budget}-element budget at radius {radius_reached + 1}")
        assert exc.value.radius_reached == radius_reached
        assert listed == []
        monkeypatch.undo()


@pytest.mark.parametrize(
    "desc,radius,source_radius",
    [("Z^2", 4, 3), ("Heis", 3, 2), ("F_2", 2, 2), ("C_5 x Z^1", 3, 3)],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_distance_field_matches_set_distance_oracle(desc, radius, source_radius, data):
    G = make_group(desc)
    W = build_window(G, radius)
    pool = build_window(G, source_radius).elements
    sources = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    field = distance_field(W, sources)
    # the probe ball reaches one step past the field's cutoff
    probe = build_window(G, source_radius + radius + 1)
    assert set(field) <= set(probe.dist)
    for x in probe.elements:
        assert field.get(x) == set_distance(W, [x], sources)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("Z^2", "Heis", "F_2", "C_5 x Z^1")), st.integers(0, 4), st.data())
def test_one_bfs_builds_balls_and_distance_fields(desc, radius, data):
    # any generator order: the table keeps the order of the deque BFS, and
    # the field from the identity is the window's own table
    G = make_group(desc)
    G.generators = data.draw(st.permutations(G.generators))
    W = build_window(G, radius)
    assert list(W.dist.items()) == list(oracles.build_window(G, radius).dist.items())
    assert list(distance_field(W, [G.identity]).items()) == list(W.dist.items())


# the largest radius drawn for each model that lists its spheres
SPHERE_RADII = {"Z^1": 12, "Z^2": 9, "Z^3": 6, "Z^4": 5, "F_1": 12, "F_2": 6, "F_3": 4}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SPHERE_RADII)), st.data())
def test_balls_listed_by_sphere_are_the_bfs_balls(desc, data):
    # the closed-form Z^d spheres, and the F_k recurrence in any generator
    # order, give the deque BFS table, built afresh or grown from a smaller
    # ball's outer shell; Z^2 with its generators permuted is searched
    G = make_group(desc)
    if desc.startswith("F") or desc == "Z^2" and data.draw(st.booleans()):
        G.generators = data.draw(st.permutations(G.generators))
    R = data.draw(st.integers(0, SPHERE_RADII[desc]))
    r0 = data.draw(st.integers(0, R + 1))
    expected = list(oracles.build_window(G, R).dist.items())
    assert list(build_window(G, R).dist.items()) == expected
    assert list(ball_window(build_window(G, r0), R).dist.items()) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("Z^2", "Heis", "F_2", "C_5 x Z^1", "C_5")), st.integers(0, 3),
       st.integers(0, 6))
@example("C_5", 3, 6)  # the BFS of C_5 ends at radius 2
def test_ball_window_is_the_fresh_ball(desc, radius, r):
    # below, at and above W.radius: the prefix or growth is the table a
    # fresh BFS builds, and W is left as it was
    G = make_group(desc)
    W = build_window(G, radius)
    before = list(W.dist.items())
    r = min(r, 2 * radius)
    fresh = build_window(G, r)
    B = ball_window(W, r)
    assert list(B.dist.items()) == list(fresh.dist.items())
    assert (B.radius, B.elements, B.lengths) == (r, fresh.elements, fresh.lengths)
    assert (B is W) == (r == radius)
    assert list(W.dist.items()) == before


@pytest.mark.parametrize("desc,radius,s", [
    ("Z^2", 3, 4), ("Heis", 2, 3), ("Z^2", 3, 5), ("Z^2", 3, 8), ("F_2", 2, 9), ("C_5", 3, 6)])
def test_greedy_net_searches_nothing(monkeypatch, desc, radius, s):
    # the blocking ball B(s-1) is a prefix of W, or all of W when it
    # would reach past it, and then the net is the identity alone: no
    # ball is grown and no field searched
    calls = []

    def spy(search):
        def run(*args):
            calls.append(args[-1])
            return search(*args)
        return run

    W = build_window(make_group(desc), radius)
    for name in ("_grow", "_bfs"):
        monkeypatch.setattr(windows, name, spy(getattr(windows, name)))
    net = greedy_net(W, s)
    assert net.points == oracles.greedy_net_scan(W, s).points
    assert calls == []
    if s > W.radius:
        assert net.points == [W.group.identity]


def test_distance_field_budget_error(monkeypatch):
    W = build_window(make_group("F_2"), 6)
    monkeypatch.setattr(windows, "DEFAULT_ELEMENT_BUDGET", 20)
    with pytest.raises(WindowBudgetError) as exc:
        distance_field(W, [W.group.identity])
    assert exc.value.radius_reached == 2


@pytest.mark.parametrize(
    "desc,a,b,d",
    [
        ("Z^1", (3,), (-2,), 5),
        ("F_2", (1, 2), (2, 1), 4),  # (ab)^-1(ba) = b^-1 a^-1 b a
        ("Z^2", (1, 1), (1, 1), 0),
    ],
)
def test_distance_examples(desc, a, b, d):
    W = build_window(make_group(desc), 6)
    assert distance(W, a, b) == d


def test_distance_outside_window_errors():
    W = build_window(make_group("Z^1"), 4)
    with pytest.raises(ResolutionError, match=r"^d\(-4, 4\) exceeds the window radius 4 of Z\^1$"):
        distance(W, (-4,), (4,))


@pytest.mark.parametrize("desc,radius", [("Z^2", 3), ("Heis", 2), ("F_2", 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_distances_from_match_distance(desc, radius, data):
    # points drawn from beyond the window: the first pair that does not
    # resolve raises the error of distance() on that pair
    G = make_group(desc)
    W = build_window(G, radius)
    pool = build_window(G, radius + 2).elements
    a = data.draw(st.sampled_from(pool))
    bs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    ds = [resolved_distance(W, a, b) for b in bs]
    if None not in ds:
        assert distances_from(W, a, bs) == ds
        return
    with pytest.raises(ResolutionError) as want:
        distance(W, a, bs[ds.index(None)])
    with pytest.raises(ResolutionError) as got:
        distances_from(W, a, bs)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("desc,r", [("Z^1", 4), ("F_2", 2), ("Heis", 2)])
def test_metric_axioms_exhaustive(desc, r):
    G = make_group(desc)
    small = build_window(G, r)
    big = build_window(G, 4 * r)  # resolves every distance among the points
    pts = small.elements
    for a in pts:
        assert distance(big, a, a) == 0
        for b in pts:
            dab = distance(big, a, b)
            assert dab == distance(big, b, a)
            assert (dab == 0) == (a == b)
            for c in pts:
                assert dab <= distance(big, a, c) + distance(big, c, b)


def test_greedy_net_z_example():
    W = build_window(make_group("Z^1"), 10)
    net = greedy_net(W, 3)
    assert net.points == [(0,), (3,), (-3,), (6,), (-6,), (9,), (-9,)]


def test_greedy_net_scale_one_is_everything():
    W = build_window(make_group("F_2"), 3)
    assert greedy_net(W, 1).points == W.elements


def test_greedy_net_coarser_than_diameter():
    W = build_window(make_group("Z^2"), 2)
    assert greedy_net(W, 5).points == [W.group.identity]


# radii 0 and 1 put some scales beyond radius+1, and radius 0 puts some
# beyond 2*radius+1
NET_WINDOWS = {(desc, r): build_window(make_group(desc), r)
               for desc in ("Z^2", "Heis", "F_2", "C_5 x Z^1") for r in (0, 1, 2, 4)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NET_WINDOWS)),
       st.sampled_from((1, 2, 3)))
def test_greedy_net_matches_the_pairwise_scan(key, s):
    W = NET_WINDOWS[key]
    assert greedy_net(W, s) == oracles.greedy_net_scan(W, s)


@pytest.mark.parametrize("desc,radius,s", [("Z^1", 10, 3), ("Z^2", 4, 2),
                                           ("F_2", 4, 3), ("Heis", 3, 2)])
def test_net_invariants_exhaustive(desc, radius, s):
    G = make_group(desc)
    W = build_window(G, radius)
    net = greedy_net(W, s)
    assert is_discrete(W, net.points, s)
    assert is_dense(W, net.points, s)


@pytest.mark.parametrize(
    "sep,diam,value",
    [(3, 16, 6), (3, 12, 5), (3, 0, 1), (3, 8, 3), (2, 10, 6)],
)
def test_packing_examples_on_z(sep, diam, value):
    W = build_window(make_group("Z^1"), 20)
    res = packing_number(W, sep, diam)
    assert res.exact
    assert res.value == value


def test_packing_invariant_under_enumeration_order():
    G = make_group("Z^2")
    W = build_window(G, 6)
    v1 = packing_number(W, 3, 6)
    G2 = make_group("Z^2")
    G2.generators = list(reversed(G2.generators))
    W2 = build_window(G2, 6)
    v2 = packing_number(W2, 3, 6)
    assert v1.exact and v2.exact
    assert v1.value == v2.value


def test_packing_budget_paths_give_safe_upper_bounds():
    W = build_window(make_group("Z^1"), 20)
    exact = packing_number(W, 3, 16)
    with mock.patch.object(windows, "DEFAULT_CANDIDATE_CAP", 5):
        capped = packing_number(W, 3, 16)
    with mock.patch.object(windows, "DEFAULT_NODE_BUDGET", 2):
        starved = packing_number(W, 3, 16)
    for res in (capped, starved):
        assert not res.exact
        assert res.value >= exact.value
        assert res.note


def test_packing_preconditions():
    # the search and the volume bound the pipeline reads refuse alike
    W = build_window(make_group("Z^1"), 5)
    for packing in (packing_number, packing_bound):
        with pytest.raises(PreconditionError):
            packing(W, 3, 9)  # diam + sep > 2*radius... (9+3 > 10)
        with pytest.raises(PreconditionError):
            packing(W, 0, 2)
        # 6 + 3 <= 10, but the candidates B(6) leave the window
        too_wide = "^diam_bound 6 exceeds the window radius 5; build a larger window$"
        with pytest.raises(PreconditionError, match=too_wide):
            packing(W, 3, 6)
        for value in (Fraction(5, 2), Fraction(3), 3.0, True):
            name = re.escape(repr(value))
            with pytest.raises(PreconditionError,
                               match=f"^separation must be an integer, got {name}$"):
                packing(W, value, 4)
            with pytest.raises(PreconditionError,
                               match=f"^diam_bound must be an integer, got {name}$"):
                packing(W, 3, value)


def test_negative_radii_and_net_scales_below_one_are_refused():
    Z = make_group("Z^1")
    W = build_window(Z, 3)
    for build in (lambda: build_window(Z, -1), lambda: ball_window(W, -1)):
        with pytest.raises(PreconditionError, match="^radius must be nonnegative, got -1$"):
            build()
    with pytest.raises(PreconditionError, match="^net scale must be >= 1, got 0$"):
        greedy_net(W, 0)


def test_non_integer_scales_and_bounds_are_refused():
    # Fraction(5) equals 5 but is refused too: scales and bounds are ints
    Z = make_group("Z^1")
    phi = make_coarse_map("identity", Z, Z)
    W, W_G = build_window(Z, 10), build_window(Z, 20)
    m = analytic_moduli(phi, 20)
    for value in (Fraction(5, 2), Fraction(5)):
        name = re.escape(repr(value))
        with pytest.raises(PreconditionError, match=f"^net scale must be an integer, got {name}$"):
            greedy_net(W, value)
        with pytest.raises(PreconditionError, match=f"^scale must be an integer, got {name}$"):
            build_partition(W, W_G, phi, m, value)
        with pytest.raises(PreconditionError, match=f"^separation must be an integer, got {name}$"):
            packing_number(W, value, 4)
        with pytest.raises(PreconditionError, match=f"^diam_bound must be an integer, got {name}$"):
            packing_number(W, 3, value)


def test_packing_matches_naive_oracle_small():
    # the exhaustive search shows that each exact value is reached, and
    # that the volume bound the pipeline reads as M is never below it
    for desc, radius in [("Z^1", 6), ("Z^2", 3), ("Heis", 3), ("F_2", 3), ("C_5 x Z^1", 3)]:
        W = build_window(make_group(desc), radius)
        for sep in (2, 3, 4):
            for diam in range(radius + 1):
                if diam + sep > 2 * radius:
                    continue
                res = packing_number(W, sep, diam)
                naive = packing_number_naive(W, sep, diam)
                assert res.exact
                assert res.value == naive, (desc, sep, diam)
                assert packing_bound(W, sep, diam) >= naive, (desc, sep, diam)


# Full PackingResult on a grid of windows, pinned from the list-based
# branch and bound: a faster search must visit the same nodes in the same
# order, so value, exact, nodes and note all stay put.  The dict holds the
# search limits a case patches in ``windows``.
_PINNED_PACKINGS = [
    ("Z^2", 12, 3, 6, {}, (6, True, 1984, "")),
    ("Z^2", 12, 3, 8, {}, (9, True, 191345, "")),
    ("Z^2", 30, 3, 12, {}, (73, False, 200001, "node budget 200000 exceeded")),
    ("Z^2", 8, 3, 3, {}, (2, True, 12, "")),
    ("Z^3", 6, 3, 4, {}, (6, True, 1926, "")),
    ("Z^3", 6, 3, 6, {"DEFAULT_NODE_BUDGET": 20000},
     (377, False, 20001, "node budget 20000 exceeded")),
    ("Heis", 6, 3, 4, {}, (6, True, 2829, "")),
    ("Heis", 6, 2, 3, {}, (6, True, 190, "")),
    ("Heis", 6, 3, 6, {"DEFAULT_NODE_BUDGET": 20000},
     (593, False, 20001, "node budget 20000 exceeded")),
    ("F_2", 6, 3, 4, {}, (4, True, 1078, "")),
    ("F_2", 6, 3, 5, {}, (6, True, 68684, "")),
    ("F_2", 5, 2, 3, {}, (6, True, 87, "")),
    ("F_2", 6, 3, 6, {}, (1457, False, 0, "candidate set of size 1457 exceeds cap 600")),
    ("Z^1 x C_4", 8, 3, 6, {}, (4, True, 232, "")),
    ("Z^1 x C_4", 8, 2, 5, {}, (8, True, 759, "")),
    ("Z^1 x C_4", 8, 3, 5, {}, (4, True, 68, "")),
]


@pytest.mark.parametrize("desc,radius,sep,diam,kwargs,pinned", _PINNED_PACKINGS)
def test_packing_result_pinned(monkeypatch, desc, radius, sep, diam, kwargs, pinned):
    W = build_window(make_group(desc), radius)
    for name, value in kwargs.items():
        monkeypatch.setattr(windows, name, value)
    res = packing_number(W, sep, diam)
    assert (res.value, res.exact, res.nodes, res.note) == pinned


# radii that keep the lookup oracle's search short on every group
_PACKING_RADII = {"Z^1": 12, "Z^2": 6, "Z^3": 4, "Z^4": 3, "C_5 x Z^1": 5, "Heis": 4, "F_2": 3}
_PACKING_WINDOWS = {desc: build_window(make_group(desc), r) for desc, r in _PACKING_RADII.items()}


# the whole PackingResult against the lookup-built symmetric masks and the
# call-per-node search: the same nodes in the same order, the same abort
# point and the same value, under node budgets 0, 1, 2, small ones and
# the default
@settings(max_examples=80, deadline=None)
@given(desc=st.sampled_from(sorted(_PACKING_RADII)), diam=st.integers(0, 12),
       sep=st.integers(1, 12),
       budget=st.one_of(st.sampled_from([0, 1, 2, DEFAULT_NODE_BUDGET]), st.integers(3, 300)))
@example(desc="Z^2", diam=4, sep=3, budget=DEFAULT_NODE_BUDGET)
@example(desc="Heis", diam=3, sep=3, budget=DEFAULT_NODE_BUDGET)
@example(desc="F_2", diam=3, sep=2, budget=40)
def test_packing_result_matches_the_lookup_search(desc, diam, sep, budget):
    W = _PACKING_WINDOWS[desc]
    diam = min(diam, W.radius)
    sep = min(sep, 2 * W.radius - diam)
    with mock.patch.object(windows, "DEFAULT_NODE_BUDGET", budget):
        res = packing_number(W, sep, diam)
    assert res == packing_number_lookup(W, sep, diam, budget)


def _symmetric_rows(W, candidates, lo, hi):
    """Symmetric compatibility masks, one window lookup per ordered pair;
    a distance the window misses exceeds ``hi``."""
    rows = []
    for i, a in enumerate(candidates):
        ds = [resolved_distance(W, a, b) for b in candidates]
        rows.append(sum(1 << j for j, d in enumerate(ds)
                        if j != i and d is not None and lo <= d <= hi))
    return rows


@pytest.mark.parametrize("desc,radius", [("Z^1", 9), ("Z^2", 6), ("Z^3", 4), ("Z^4", 3)])
def test_l1_rows_are_the_upper_triangle_of_the_lookup_rows(desc, radius):
    W = build_window(make_group(desc), radius)
    for hi in range(radius + 1):
        candidates = W.ball(hi)
        for lo in range(1, 2 * radius - hi + 1):
            rows = windows._compat_rows(W, candidates, lo, hi)
            full = _symmetric_rows(W, candidates, lo, hi)
            assert rows == [row >> (i + 1) << (i + 1) for i, row in enumerate(full)]


@pytest.mark.parametrize("hi,source", [(127, "_l1_rows"), (128, "_lookup_rows")])
def test_compat_rows_take_byte_rows_up_to_the_byte_limit(monkeypatch, hi, source):
    # B(127) of Z^1 spreads 254, within one byte; B(128) spreads 256
    W = build_window(make_group("Z^1"), hi)
    candidates = W.ball(hi)
    calls = []
    for name in ("_l1_rows", "_lookup_rows"):
        def spy(*args, name=name, fn=getattr(windows, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(windows, name, spy)
    for lo in (1, 64, hi):
        rows = windows._compat_rows(W, candidates, lo, hi)
        full = _symmetric_rows(W, candidates, lo, hi)
        assert rows == [row >> (i + 1) << (i + 1) for i, row in enumerate(full)]
    assert calls == [source] * 3


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 4))
def test_l1_rows_are_the_l1_distances_to_later_points(data, d):
    points = _byte_points(data, d, data.draw(st.integers(2, 30)))
    assert windows._byte_rows_fit(make_group(f"Z^{d}"), points)
    assert list(windows._l1_rows(points)) == [
        bytes(sum(abs(x - y) for x, y in zip(a, b)) for b in points[i + 1:])
        for i, a in enumerate(points[:-1])]
    assert list(windows._l1_rows(points[:1])) == []
