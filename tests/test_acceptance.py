"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is exact (rational arithmetic end to end); runtime caps
are asserted with wall-clock measurements of the full pipeline runs.
"""

from __future__ import annotations

import time
from copy import copy
from fractions import Fraction

import pytest

from couplingcert.certify import (
    check_cocompactness_h,
    check_g_action,
    check_lipschitz,
    check_membership_x,
    check_properness_h,
    check_sandwich,
    run_all,
)
from couplingcert.cli import RunConfig, render_report
from couplingcert.coarse import analytic_moduli, apply, estimate_moduli, make_coarse_map
from couplingcert.coupling import (
    SparseDensity,
    act_left,
    build_partition,
    psi,
    unit_ball,
)
from couplingcert.groups import make_group
from couplingcert.windows import (
    PackingResult,
    build_window,
    greedy_net,
    packing_number,
)

from oracles import distance, is_dense, is_discrete, packing_number_naive

CONFIG_1 = RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor="identity",
                     radius_H=24, radius_G=40, eval_radius=8, seed=7)
CONFIG_2 = RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor="scale:2",
                     radius_H=16, radius_G=40, eval_radius=6)
CONFIG_3 = RunConfig(group_H="Z^2", group_G="Z^2", map_descriptor="matrix:1,1,0,1",
                     radius_H=10, radius_G=30, eval_radius=2)
CONFIG_4 = RunConfig(group_H="F_2", group_G="F_2", map_descriptor="identity",
                     radius_H=6, radius_G=10, eval_radius=2,
                     checks=["membership_x", "lipschitz", "sandwich"])


def _timed_run(cfg):
    t0 = time.perf_counter()
    cert = run_all(cfg)
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cert1():
    return _timed_run(CONFIG_1)


@pytest.fixture(scope="module")
def cert2():
    return _timed_run(CONFIG_2)


@pytest.fixture(scope="module")
def cert3():
    return _timed_run(CONFIG_3)


@pytest.fixture(scope="module")
def cert4():
    return _timed_run(CONFIG_4)


def _verdict(name: str, ok: bool, extra: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_identity_pipeline(cert1):
    cert, elapsed = cert1
    ok = cert.constants["s"] == 3
    ok &= all(c.status == "pass" for c in cert.checks)
    ok &= all(c.margin is not None and c.margin >= 0 for c in cert.checks)

    # partition sums and unit masses, exhaustively over the inner window
    phi = make_coarse_map("identity", make_group("Z^1"), make_group("Z^1"))
    W_H = build_window(phi.source, 24)
    W_G = build_window(phi.target, 40)
    m = analytic_moduli(phi, 136)
    P = build_partition(W_H, W_G, phi, m, 3)
    for h in P.inner_elements:
        terms, total = P.alpha_terms(h)
        assert sum(Fraction(n, total) for _, n in terms) == 1
        assert psi(P, phi, h).mass() == 1
    ok &= elapsed < 10
    _verdict("1 identity pipeline (s=3, all checks, <10s)", ok,
             f"{elapsed:.2f}s, margins all >= 0")


def test_criterion_2_scaling_pipeline(cert2):
    cert, elapsed = cert2
    Z = make_group("Z^1")
    phi = make_coarse_map("scale:2", Z, Z)
    m = estimate_moduli(phi, build_window(Z, 16), build_window(Z, 40), 12)
    ok = m.kappa == [2 * t for t in range(13)]
    ok &= m.omega == [2 * t for t in range(13)]
    ok &= cert.constants["s"] == 2
    ok &= all(c.status == "pass" for c in cert.checks)
    ok &= elapsed < 10
    _verdict("2 scaling pipeline (moduli 2t, s=2, all checks, <10s)", ok,
             f"{elapsed:.2f}s")


def test_criterion_3_planar_gl2_pipeline(cert3):
    cert, elapsed = cert3
    ok = not any(c.status == "fail" for c in cert.checks)

    Z2 = make_group("Z^2")
    phi = make_coarse_map("matrix:1,1,0,1", Z2, Z2)
    W_H = build_window(Z2, 10)
    W_G = build_window(Z2, 30)
    m = estimate_moduli(phi, W_H, W_G, 20)
    ok &= all(a <= b for a, b in zip(m.kappa, m.kappa[1:]))
    ok &= all(a <= b for a, b in zip(m.omega, m.omega[1:]))

    s = int(cert.constants["s"])
    P = build_partition(W_H, W_G, phi, m, s)
    for h in P.inner_elements:
        img = apply(phi, h)
        for a in psi(P, phi, h).support():
            assert distance(W_G, img, a) <= P.omega_s1 + 1
    ok &= elapsed < 60
    vac = [c.name for c in cert.checks if c.status == "vacuous"]
    _verdict("3 planar GL2 pipeline (no failures, monotone moduli, "
             "support containment, <60s)", ok,
             f"{elapsed:.2f}s, vacuous={vac or 'none'}")


def test_criterion_4_nonabelian_pipeline(cert4):
    cert, elapsed = cert4
    ok = not any(c.status == "fail" for c in cert.checks)
    lip = next(c for c in cert.checks if c.name == "lipschitz")
    ok &= lip.status == "pass"

    F2 = make_group("F_2")
    phi = make_coarse_map("identity", F2, F2)
    W_H = build_window(F2, 6)
    W_G = build_window(F2, 10)
    s = int(cert.constants["s"])
    net = greedy_net(W_H, s)
    ok &= is_discrete(W_H, net.points, s)
    ok &= is_dense(W_H, net.points, s)

    m = analytic_moduli(phi, 40)
    P = build_partition(W_H, W_G, phi, m, s)
    for h in P.inner_elements:
        d = psi(P, phi, h)  # psi itself raises on any block overlap
        blocks = [{F2.mul(z, b) for b in unit_ball(F2)} for z, _ in d.blocks]
        for i, blk in enumerate(blocks):
            for blk2 in blocks[i + 1:]:
                assert not (blk & blk2)
    ok &= elapsed < 60
    _verdict("4 nonabelian pipeline (net invariants, lipschitz, disjoint "
             "blocks, <60s)", ok, f"{elapsed:.2f}s")


def test_criterion_5_packing_oracle_equivalence():
    checked = 0
    for desc, radii in (("Z^1", (6, 12)), ("Z^2", (2, 3))):
        G = make_group(desc)
        for r in radii:
            W = build_window(G, r)
            assert len(W) <= 25
            for sep in (2, 3, 4, 5):
                for diam in range(0, r + 1):
                    if diam + sep > 2 * r or diam > r:
                        continue
                    got = packing_number(W, sep, diam)
                    want = packing_number_naive(W, sep, diam)
                    assert got.exact
                    assert got.value == want, (desc, r, sep, diam)
                    checked += 1
    _verdict("5 packing equals the naive oracle", checked > 40,
             f"{checked} instances, exact match")


def test_criterion_6_checker_liveness():
    Z = make_group("Z^1")
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 24)
    W_G = build_window(Z, 40)
    m = analytic_moduli(phi, 136)
    P = build_partition(W_H, W_G, phi, m, 3)
    pair_window = build_window(Z, 2 * P.inner_radius)
    cache = {}

    def psi_of(h):
        if h not in cache:
            cache[h] = psi(P, phi, h)
        return cache[h]

    failures = {}

    # membership: two blocks at distance 2 break 3-discreteness; each has
    # weight 1/2, numerator 1 over the denominator 2*|B| = 6
    bad = SparseDensity(group=Z, denominator=6, blocks=[((0,), 1), ((2,), 1)])
    failures["membership_x"] = check_membership_x([("bad", bad)], W_G, 8).status

    # lipschitz: a constant far below the true slope
    tiny_N = copy(P)
    tiny_N.N_empirical = tiny_N.N_apriori = Fraction(1, 1000)
    failures["lipschitz"] = check_lipschitz(tiny_N, pair_window, psi_of).status

    # sandwich: one slice translated far beyond the expansion bound

    def tampered(h):
        d = psi_of(h)
        return act_left((20,), d) if h == (1,) else d

    failures["sandwich"] = check_sandwich(
        P, [((0,), (0,))], 2, m, W_G, pair_window, tampered).status

    # properness: threshold hand-shrunk to 0 qualifies adjacent slices
    K = psi_of(Z.identity).support()
    failures["properness_h"] = check_properness_h(
        P, phi, [((0,), (0,))], K, m, W_G, Fraction(1, 2), psi_of, 8, 0).status

    # cocompactness: an empty target set can never absorb half the mass
    failures["cocompactness_h"] = check_cocompactness_h(
        P, phi, [((0,), (0,))], m, 0, W_G, psi_of, -1).status

    # g-action: recentring ball shrunk to a point
    failures["g_action"] = check_g_action(
        P, phi, [((0,), (0,))], K, Fraction(1, 2), W_G, [], psi_of,
        2 * P.omega_s1 + 2 + 2 * 8, 0).status

    ok = all(status == "fail" for status in failures.values())
    _verdict("6 constructed violations all fail", ok, str(failures))


def test_criterion_7_byte_identical_reports():
    a = render_report(run_all(CONFIG_1))
    b = render_report(run_all(CONFIG_1))
    ok = a.encode() == b.encode()
    _verdict("7 determinism (byte-identical reports)", ok,
             f"{len(a)} bytes")


def _bumped_packing(*args):
    """packing_number with M -> M+3, flagged inexact: a looser safe bound."""
    res = packing_number(*args)
    return PackingResult(res.value + 3, False, res.witness, res.nodes, res.note)


def test_criterion_8_monotone_safety(cert1, monkeypatch):
    cert, _ = cert1
    monkeypatch.setattr("couplingcert.coupling.packing_number", _bumped_packing)
    bumped = run_all(CONFIG_1)
    before = {c.name: c.status for c in cert.checks}
    after = {c.name: c.status for c in bumped.checks}
    flipped = [n for n, st in before.items() if st == "pass" and after[n] != "pass"]
    ok = not flipped and bumped.constants["M"] == cert.constants["M"] + 3
    _verdict("8 monotone safety under M -> M+3", ok,
             f"flipped={flipped or 'none'}")
