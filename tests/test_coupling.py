"""Partition of unity, psi densities, L1 geometry, group actions."""

from __future__ import annotations

from copy import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingcert.coarse import (
    analytic_moduli,
    choose_scale,
    estimate_moduli,
    make_coarse_map,
    pipeline_moduli,
    table_map,
)
from couplingcert.coupling import (
    PartitionOfUnity,
    _bump_walk,
    SparseDensity,
    act_left,
    build_partition,
    l1_distance,
    orbit_point,
    psi,
    serialize_density,
    support_diameter,
    support_distance,
    unit_ball,
)
from couplingcert.errors import CouplingCertError, PreconditionError, ResolutionError
from couplingcert.groups import make_group
from couplingcert.windows import Net, ball_window, build_window, greedy_net

import oracles
from oracles import distance

Z = make_group("Z^1")


@pytest.fixture(scope="module")
def z_identity():
    """The (Z, identity, s=3) reference configuration."""
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 24)
    W_G = build_window(Z, 40)
    m = analytic_moduli(phi, 2 * (24 + 40) + 8)
    P = build_partition(W_H, W_G, phi, m, 3)
    return P, phi, W_H, W_G


def _Theta(P, h) -> int:
    return sum(n for _, n in P.thetas[h])


def _alphas(P, h) -> dict:
    terms, total = P.alpha_terms(h)
    return {P.net.points[i]: Fraction(n, total) for i, n in terms}


def test_partition_reference_values(z_identity):
    P, phi, W_H, W_G = z_identity
    assert _Theta(P, (0,)) == 6  # 4 + 1 + 1
    assert _Theta(P, (1,)) == 5  # 3 + 2, only y = 0 and y = 3 contribute
    alpha0 = _alphas(P, (0,))
    assert alpha0 == {(0,): Fraction(2, 3), (3,): Fraction(1, 6), (-3,): Fraction(1, 6)}
    alpha1 = _alphas(P, (1,))
    assert alpha1 == {(0,): Fraction(3, 5), (3,): Fraction(2, 5)}
    assert sum(alpha1.values()) == 1


def test_partition_constants(z_identity):
    P, *_ = z_identity
    assert P.M == 6
    assert P.omega_s1 == 4
    assert P.inner_radius == 20
    assert P.N_empirical == Fraction(7, 30)
    assert P.N_apriori == 13  # 1 + C*(s+1) with C = 3
    assert P.N == 13


def test_partition_sums_exactly_one_everywhere(z_identity):
    P, *_ = z_identity
    for h in P.inner_elements:
        assert sum(_alphas(P, h).values()) == 1
        assert _Theta(P, h) >= 1


def test_bumps_are_one_lipschitz(z_identity):
    P, phi, W_H, _ = z_identity
    s1 = P.scale + 1
    pair_window = build_window(Z, 2 * W_H.radius)

    def theta(yi, h):
        d = distance(pair_window, P.net.points[yi], h)
        return max(0, s1 - d)

    pts = W_H.elements[::3]
    for yi in range(len(P.net.points)):
        for h in pts:
            for h2 in pts:
                lhs = abs(theta(yi, h) - theta(yi, h2))
                assert lhs <= distance(pair_window, h, h2)


def test_psi_reference_density(z_identity):
    P, phi, _, _ = z_identity
    d0 = psi(P, phi, (0,))
    assert d0.block_coefficients() == [((0,), Fraction(2, 3)), ((3,), Fraction(1, 6)),
                                       ((-3,), Fraction(1, 6))]
    assert d0.denominator == 6 * 3  # Theta(0) = 6, B = {-1, 0, 1}
    assert d0.mass() == 1
    assert sorted(d0.support()) == [(-4,), (-3,), (-2,), (-1,), (0,), (1,),
                                    (2,), (3,), (4,)]


def test_psi_single_block_case():
    # a one-point net makes alpha identically 1 and psi a single block
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 8)
    m = analytic_moduli(phi, 40)
    P = PartitionOfUnity(
        scale=3, net=Net(points=[(0,)]),
        images=[(0,)], window_H=W_H, inner_radius=2,
        N_empirical=Fraction(0), N_apriori=Fraction(1), overlap_count=1,
        M=1, omega_s1=4, thetas={(0,): [(0, 4)]},
    )
    d = psi(P, phi, (0,))
    assert d.block_coefficients() == [((0,), Fraction(1))]
    assert d.mass() == 1


def test_net_images_closer_than_3_are_refused():
    # the identity on [-10, 10] except 9 -> 1: a moduli table up to t = 4
    # misses the collision, so the scale it gives puts the net points 0
    # and 9 in the net, and their images are 1 apart
    phi = table_map(Z, Z, {(n,): (1 if n == 9 else n,) for n in range(-10, 11)})
    W_H, W_G = build_window(Z, 10), build_window(Z, 40)
    m = estimate_moduli(phi, W_H, W_G, 4)
    with pytest.raises(CouplingCertError, match="^net images 0 and 1 are only 1 apart"):
        build_partition(W_H, W_G, phi, m, choose_scale(m))


@pytest.mark.parametrize("radius_H,t_max,s,message", [
    (24, 136, 2, "kappa(2) = 2 < 3; pick a larger scale"),
    (3, 136, 3, "window radius 3 below s+1 = 4; no inner window"),
    (24, 3, 3, "omega(4) is not available in the moduli table"),
], ids=["kappa-below-3", "no-inner-window", "omega-beyond-table"])
def test_partition_preconditions(radius_H, t_max, s, message):
    phi = make_coarse_map("identity", Z, Z)
    with pytest.raises(PreconditionError) as exc:
        build_partition(build_window(Z, radius_H), build_window(Z, 40), phi,
                        analytic_moduli(phi, t_max), s)
    assert str(exc.value) == message


def test_alpha_terms_refuse_a_point_no_bump_reaches(z_identity):
    # the weights are kept on the inner window (radius 20) only
    P, *_ = z_identity
    with pytest.raises(CouplingCertError) as exc:
        P.alpha_terms((24,))
    assert str(exc.value) == ("Theta < 1 at 24; point is outside the region covered "
                              "by the net")


def test_psi_outside_inner_window_rejected(z_identity):
    P, phi, *_ = z_identity
    with pytest.raises(PreconditionError):
        psi(P, phi, (21,))


def test_psi_refuses_overlapping_blocks(z_identity):
    # psi_0 has blocks at 0, 3 and -3; moving the image 3 to 2 makes the
    # blocks at 0 and 2 share the atom 1
    P, phi, *_ = z_identity
    moved = copy(P)
    moved.images = [(2,) if z == (3,) else z for z in P.images]
    with pytest.raises(CouplingCertError, match="^blocks of psi_h overlap; Z_h is not "
                                                "3-discrete"):
        psi(moved, phi, (0,))
    with pytest.raises(CouplingCertError, match="^blocks overlap at 1$"):
        oracles.psi_atoms(moved, phi, (0,))


def test_z_h_bounded_by_m(z_identity):
    P, phi, *_ = z_identity
    sizes = {len(psi(P, phi, h).blocks) for h in P.inner_elements}
    assert max(sizes) <= P.M
    assert max(sizes) == 3


def test_block_disjointness_and_support_containment(z_identity):
    P, phi, W_H, W_G = z_identity
    from couplingcert.coarse import apply

    for h in P.inner_elements:
        d = psi(P, phi, h)
        seen = set()
        for z, _ in d.blocks:
            blk = {W_G.group.mul(z, b) for b in unit_ball(W_G.group)}
            assert not (blk & seen)
            seen |= blk
            assert distance(W_G, apply(phi, h), z) <= P.omega_s1
        for a in d.support():
            assert distance(W_G, apply(phi, h), a) <= P.omega_s1 + 1


def test_l1_examples(z_identity):
    P, phi, _, _ = z_identity
    d0 = psi(P, phi, (0,))
    d1 = psi(P, phi, (1,))
    assert l1_distance(d0, d0) == 0
    assert l1_distance(d0, d1) == Fraction(7, 15)
    far = act_left((20,), d0)
    assert l1_distance(d0, far) == 2  # disjoint unit masses


def test_lipschitz_bound_over_inner_pairs(z_identity):
    P, phi, W_H, _ = z_identity
    pair_window = build_window(Z, 2 * P.inner_radius)
    bound = 2 * P.M * P.N
    cache = {h: psi(P, phi, h) for h in P.inner_elements}
    for i, f1 in enumerate(P.inner_elements):
        for f2 in P.inner_elements[i + 1:]:
            t = distance(pair_window, f1, f2)
            assert l1_distance(cache[f1], cache[f2]) <= bound * t


def test_support_distance_examples(z_identity):
    P, phi, _, W_G = z_identity
    d0 = psi(P, phi, (0,))
    assert support_distance(d0, d0, W_G) == 0
    b0 = act_left((0,), _single_block(W_G.group))
    b10 = act_left((10,), _single_block(W_G.group))
    assert support_distance(b0, b10, W_G) == 8  # {0 +-1} vs {10 +-1}
    assert support_distance(d0, psi(P, phi, (1,)), W_G) == 0  # overlap
    with pytest.raises(ResolutionError, match="^no support distance resolves within the "
                                              "target window; enlarge it$"):
        support_distance(b0, b10, build_window(Z, 7))


def test_support_diameter_examples(z_identity):
    P, phi, _, W_G = z_identity
    d0 = psi(P, phi, (0,))  # blocks at 0, 3 and -3
    assert support_diameter(d0, W_G) == 8
    assert support_diameter(act_left((7,), d0), W_G) == 8
    assert support_diameter(d0, build_window(Z, 7)) is None
    assert support_diameter(_single_block(Z), W_G) == 2
    assert support_diameter(_single_block(Z), build_window(Z, 1)) is None
    empty = SparseDensity(group=Z, denominator=1, blocks=[])
    assert support_diameter(empty, W_G) == 0


def _single_block(G):
    return SparseDensity(group=G, denominator=len(unit_ball(G)), blocks=[(G.identity, 1)])


def test_act_left_examples(z_identity):
    P, phi, _, _ = z_identity
    d0 = psi(P, phi, (0,))
    assert act_left((0,), d0).atoms == d0.atoms
    moved = act_left((5,), _single_block(Z))
    assert sorted(moved.atoms) == [(4,), (5,), (6,)]
    assert moved.mass() == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8),
       st.integers(min_value=-6, max_value=6))
def test_left_action_law(g1, g2, h):
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 12)
    W_G = build_window(Z, 16)
    m = analytic_moduli(phi, 60)
    P = build_partition(W_H, W_G, phi, m, 3)
    if abs(h) > P.inner_radius:
        return
    xi = psi(P, phi, (h,))
    lhs = act_left((g1,), act_left((g2,), xi))
    rhs = act_left((g1 + g2,), xi)
    assert lhs.atoms == rhs.atoms and lhs.blocks == rhs.blocks


def test_orbit_point_reference(z_identity):
    P, phi, W_H, _ = z_identity
    ew = build_window(Z, 3)
    base = orbit_point(P, phi, (0,), (0,), ew)
    for f in ew.elements:
        assert base.coord(f).atoms == psi(P, phi, f).atoms
    # (5 . psi . 0)_0 = translate of psi_0 by 5: blocks at 5, 8, 2
    pt = orbit_point(P, phi, (5,), (0,), ew)
    assert [z for z, _ in pt.coord((0,)).blocks] == [(5,), (8,), (2,)]


def test_actions_commute_and_right_action_composes(z_identity):
    P, phi, W_H, _ = z_identity
    ew = build_window(Z, 2)
    g, h1, h2 = (4,), (3,), (-2,)
    left_then_right = orbit_point(P, phi, g, Z.mul(h1, h2), ew)
    plain = orbit_point(P, phi, (0,), Z.mul(h1, h2), ew)
    for f in ew.elements:
        # commuting: g . (psi . h) evaluated at f = lambda(g)(psi_{hf})
        assert left_then_right.coord(f).atoms == act_left(g, plain.coord(f)).atoms
        # right action composes through the index: ((psi . h1) . h2)_f = psi_{h1 h2 f}
        assert plain.coord(f).atoms == psi(P, phi, Z.mul(Z.mul(h1, h2), f)).atoms


def test_orbit_point_escape_rejected(z_identity):
    P, phi, *_ = z_identity
    ew = build_window(Z, 3)
    with pytest.raises(PreconditionError):
        orbit_point(P, phi, (0,), (19,), ew)


def test_support_sandwich_on_orbit_pairs(z_identity):
    P, phi, W_H, W_G = z_identity
    m = analytic_moduli(phi, 140)
    ew = build_window(Z, 4)
    pair_window = build_window(Z, 8)
    pt = orbit_point(P, phi, (3,), (2,), ew)
    pad = 2 * P.omega_s1 + 2
    fs = ew.elements
    for i, f1 in enumerate(fs):
        for f2 in fs[i + 1:]:
            t = distance(pair_window, f1, f2)
            sd = support_distance(pt.coord(f1), pt.coord(f2), W_G)
            assert m.kappa[t] - pad <= sd <= m.omega[t] + pad


def test_serialization_is_stable(z_identity):
    P, phi, *_ = z_identity
    d1 = serialize_density(psi(P, phi, (1,)))
    assert d1 == serialize_density(psi(P, phi, (1,)))
    assert "# block 0 3/5" in d1
    assert "# block 3 2/5" in d1
    assert d1.endswith("\n")
    first = d1.splitlines()[0].split()
    assert first[0] == "-1"  # atoms sorted by element


# psi partitions for the integer-arithmetic oracle tests; the last one takes
# a scale above the chosen s = 3
ORACLE_CASES = {
    "shear Z^2": ("Z^2", "matrix:1,1,0,1", 10, 30, None),
    "Heis": ("Heis", "identity", 6, 10, None),
    "F_2": ("F_2", "identity", 5, 8, None),
    "C_5 x Z^1": ("C_5 x Z^1", "identity", 8, 14, None),
    "Z^1, s = 4": ("Z^1", "identity", 16, 40, 4),
}


@pytest.fixture(scope="module")
def oracle_partitions():
    out = {}
    for name, (desc, descriptor, rH, rG, s) in ORACLE_CASES.items():
        G = make_group(desc)
        phi = make_coarse_map(descriptor, G, G)
        W_H, W_G = build_window(G, rH), build_window(G, rG)
        m = pipeline_moduli(phi, W_H, W_G)
        P = build_partition(W_H, W_G, phi, m, choose_scale(m) if s is None else s)
        out[name] = (P, phi, W_G)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CASES)), st.data())
def test_integer_density_arithmetic_matches_fraction_oracle(oracle_partitions, name, data):
    P, phi, W_G = oracle_partitions[name]
    near = [g for g, l in zip(W_G.elements, W_G.lengths) if l <= 2]
    f1, f2 = (data.draw(st.sampled_from(P.inner_elements)) for _ in range(2))
    g1, g2 = (data.draw(st.sampled_from(near)) for _ in range(2))
    xi = act_left(g1, psi(P, phi, f1))
    eta = act_left(g2, psi(P, phi, f2))
    assert l1_distance(xi, eta) == oracles.l1_distance(xi, eta)
    assert l1_distance(eta, xi) == oracles.l1_distance(eta, xi)
    assert xi.mass() == oracles.mass(xi) == 1
    pool = sorted(set(xi.support()) | set(eta.support()) | set(near))
    K = data.draw(st.sets(st.sampled_from(pool)))
    assert xi.inner_product(K) == oracles.inner_product(xi, K)
    assert eta.inner_product(K) == oracles.inner_product(eta, K)


def _outcome(routine, *args):
    """The value of ``routine(*args)``, or the message of its
    ResolutionError."""
    try:
        return routine(*args)
    except ResolutionError as exc:
        return str(exc)


def _assert_block_routines_match_the_oracles(xi, eta, W):
    assert l1_distance(xi, eta) == oracles.l1_distance(xi, eta)
    assert l1_distance(eta, xi) == oracles.l1_distance(eta, xi)
    assert (_outcome(support_distance, xi, eta, W)
            == _outcome(oracles.support_distance, xi, eta, W))
    for d in (xi, eta):
        assert support_diameter(d, W) == oracles.support_diameter(d, W)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CASES)), st.data())
def test_block_routines_match_the_atom_oracles_on_psi(oracle_partitions, name, data):
    # psi pairs of one partition, or translates by two different g, whose
    # blocks can overlap partially; on the target window, or on a window
    # too small to resolve every kernel entry
    P, phi, W_G = oracle_partitions[name]
    near = [g for g, l in zip(W_G.elements, W_G.lengths) if l <= 2]
    f1, f2 = (data.draw(st.sampled_from(P.inner_elements)) for _ in range(2))
    g1 = data.draw(st.sampled_from(near))
    g2 = g1 if data.draw(st.booleans()) else data.draw(st.sampled_from(near))
    W = data.draw(st.sampled_from([W_G, ball_window(W_G, 1), ball_window(W_G, 4)]))
    xi = act_left(g1, psi(P, phi, f1))
    eta = act_left(g2, psi(P, phi, f2))
    _assert_block_routines_match_the_oracles(xi, eta, W)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CASES)), st.data())
def test_derived_atoms_match_the_per_atom_oracles(oracle_partitions, name, data):
    # the atoms psi and act_left derive from their blocks are the ones, in
    # the order, that a per-block build and an atom-by-atom translation give
    P, phi, W_G = oracle_partitions[name]
    h = data.draw(st.sampled_from(P.inner_elements))
    g = data.draw(st.sampled_from(W_G.ball(3)))
    xi = psi(P, phi, h)
    assert list(xi.atoms.items()) == list(oracles.psi_atoms(P, phi, h).items())
    assert list(act_left(g, xi).atoms.items()) == list(oracles.act_left(g, xi).items())


# radius 6 holds every atom of a block centred at most 5 from the identity
BLOCK_GROUPS = {desc: build_window(make_group(desc), 6)
                for desc in ("Z^1", "Z^2", "Heis", "F_2")}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BLOCK_GROUPS)), st.data())
def test_block_routines_match_the_atom_oracles_on_blocks_one_and_two_apart(desc, data):
    # unshared blocks 1 or 2 apart overlap partially, so l1_distance walks
    # them; a block both densities share, 5 from the identity and so at
    # least 3 from both, sits beside them or not
    W = BLOCK_GROUPS[desc]
    G = W.group
    w = data.draw(st.sampled_from(W.shell(0, 2)))
    c = data.draw(st.sampled_from(W.shell(4, 5)))
    shared = data.draw(st.booleans())
    nums = st.integers(1, 9)
    xi = SparseDensity(G, blocks=[(G.identity, data.draw(nums))] + [(c, data.draw(nums))] * shared,
                       denominator=data.draw(st.integers(1, 60)))
    eta = SparseDensity(G, blocks=[(w, data.draw(nums))] + [(c, data.draw(nums))] * shared,
                        denominator=data.draw(st.integers(1, 60)))
    assert len(xi.atoms.keys() & eta.atoms.keys()) > len(unit_ball(G)) * shared
    _assert_block_routines_match_the_oracles(
        xi, eta, data.draw(st.sampled_from([W, ball_window(W, 1)])))


def test_oracle_pairs_have_different_denominators(oracle_partitions):
    # the cross-multiplication in l1_distance is exercised, not only the
    # shared-denominator case
    for name, (P, phi, _) in oracle_partitions.items():
        dens = {psi(P, phi, h).denominator for h in P.inner_elements}
        assert len(dens) > 1, name


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_empirical_constant_matches_fraction_oracle(oracle_partitions, name):
    P, *_ = oracle_partitions[name]
    assert P.N_empirical == oracles.n_empirical(P)


# each group at two radii: radius 1 puts s+1 beyond the radius for every
# scale above 1
OVERLAP_GROUPS = {desc: [build_window(make_group(desc), r) for r in (1, full)]
                  for desc, full in (("Z^2", 6), ("Heis", 4), ("F_2", 4), ("C_5 x Z^1", 5))}
BUMP_SCALES = (1, 2, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(OVERLAP_GROUPS)), st.sampled_from(BUMP_SCALES), st.data())
def test_overlap_walk_matches_the_double_loop(desc, s, data):
    W = data.draw(st.sampled_from(OVERLAP_GROUPS[desc]))
    points = data.draw(st.lists(st.sampled_from(W.elements), max_size=20, unique=True))
    inner = data.draw(st.integers(-1, W.radius))
    assert _bump_walk(W, points, s, inner) == oracles.bump_walk(W, points, s, inner)


@pytest.mark.parametrize("desc", sorted(OVERLAP_GROUPS))
def test_overlap_walk_matches_the_double_loop_on_nets(desc):
    for W in OVERLAP_GROUPS[desc]:
        for s in BUMP_SCALES:
            net, inner = greedy_net(W, s).points, W.radius - (s + 1)
            assert _bump_walk(W, net, s, inner) == oracles.bump_walk(W, net, s, inner)


def test_l1_rejects_densities_on_different_groups():
    Z2 = make_group("Z^2")
    with pytest.raises(PreconditionError):
        l1_distance(_single_block(Z), _single_block(Z2))
