"""Certificate checks: pass on the honest pipeline, fail on constructed
violations, and compose deterministically."""

from __future__ import annotations

import importlib.util
import inspect
from collections import Counter
from copy import copy
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingcert import certify, coarse, coupling, windows
from couplingcert.certify import (
    CHECK_NAMES,
    _far_shell,
    _g_properness,
    _K_margin,
    _kappa_sublevel_radius,
    _meeting_K,
    check_cocompactness_h,
    check_g_action,
    check_lipschitz,
    check_membership_x,
    check_properness_h,
    check_sandwich,
    run_all,
    validate_config,
)
from couplingcert.cli import DEMO_CONFIGS, RunConfig
from couplingcert.coarse import (
    Moduli,
    analytic_moduli,
    choose_scale,
    make_coarse_map,
    pipeline_moduli,
)
from couplingcert.coupling import (
    SparseDensity,
    act_left,
    build_partition,
    psi,
    unit_ball,
)
from couplingcert.errors import (
    PipelineError,
    PreconditionError,
    ResolutionError,
    WindowBudgetError,
)
from couplingcert.groups import make_group
from couplingcert.windows import build_window, distance_field, pair_extremes

import oracles

Z = make_group("Z^1")


@pytest.fixture(scope="module")
def pipeline():
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 24)
    W_G = build_window(Z, 40)
    m = analytic_moduli(phi, 2 * (24 + 40) + 8)
    P = build_partition(W_H, W_G, phi, m, 3)
    pair_window = build_window(Z, 2 * P.inner_radius)
    cache = {}

    def psi_of(h):
        if h not in cache:
            cache[h] = psi(P, phi, h)
        return cache[h]

    return P, phi, m, W_H, W_G, pair_window, psi_of


def test_membership_passes_on_pipeline_densities(pipeline):
    P, phi, m, W_H, W_G, _, psi_of = pipeline
    pts = [(str(h[0]), psi_of(h)) for h in P.inner_elements]
    res = check_membership_x(pts, W_G, 2 * P.omega_s1)
    assert res.status == "pass"
    assert res.details["worst_diameter_margin"] == 2  # diam 6 vs bound 8
    assert res.population == len(P.inner_elements)


def test_membership_fails_on_two_close_blocks():
    # each block has weight 1/2: numerator 1 over the denominator 2*|B| = 6
    dens = SparseDensity(group=Z, denominator=6, blocks=[((0,), 1), ((2,), 1)])
    res = check_membership_x([("bad", dens)], build_window(Z, 12), 8)
    assert res.status == "fail"
    assert res.margin == -1  # separation 2 against the 3-discreteness bound


def test_membership_passes_single_block():
    dens = SparseDensity(group=Z, denominator=len(unit_ball(Z)), blocks=[((0,), 1)])
    res = check_membership_x([("one", dens)], build_window(Z, 12), 8)
    assert res.status == "pass"
    assert res.details["worst_diameter_margin"] == 8


@pytest.mark.parametrize("blocks,denominator,reason,margin", [
    ([((0,), 2)], 3, "not a convex combination", -1),  # one block of weight 2
    # 13 apart in a radius-12 window: the diameter counts as 13 against 8
    ([((0,), 1), ((13,), 1)], 6, "diameter exceeds window radius", -5),
], ids=["not-convex", "diameter-unresolved"])
def test_membership_names_each_failure_reason(blocks, denominator, reason, margin):
    dens = SparseDensity(group=Z, denominator=denominator, blocks=blocks)
    res = check_membership_x([("p", dens)], build_window(Z, 12), 8)
    assert res.status == "fail"
    assert res.margin == margin
    assert res.witness == {"point": "p", "reason": reason}


def test_lipschitz_passes_and_reports_tightest(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    res = check_lipschitz(P, pair_window, psi_of)
    assert res.status == "pass"
    assert res.margin >= 0
    assert res.details["tightest_constant"] <= 2 * P.M * P.N
    assert res.details["tightest_constant"] >= Fraction(7, 15)


def test_lipschitz_fails_with_shrunk_constant(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    tiny_N = copy(P)
    tiny_N.N_empirical = tiny_N.N_apriori = Fraction(1, 1000)
    res = check_lipschitz(tiny_N, pair_window, psi_of)
    assert res.status == "fail"
    assert res.margin < 0


def test_lipschitz_insensitive_to_map_jumps():
    # a lookup map with a huge jump: the bound depends only on the alphas
    W_H = build_window(Z, 10)
    W_G = build_window(Z, 60)
    from couplingcert.coarse import estimate_moduli, table_map

    jump = {h: (h[0] * 5,) for h in W_H.elements}  # kappa(1) = 5 >= 3
    phi = table_map(Z, Z, jump)
    m = estimate_moduli(phi, W_H, W_G, 8)
    P = build_partition(W_H, W_G, phi, m, 1)
    pair_window = build_window(Z, 2 * P.inner_radius)
    cache = {}

    def psi_of(h):
        if h not in cache:
            cache[h] = psi(P, phi, h)
        return cache[h]

    res = check_lipschitz(P, pair_window, psi_of)
    assert res.status == "pass"


def test_sandwich_passes_on_orbit_points(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    samples = [(g, h) for g in [(0,), (3,)] for h in [(0,), (-2,)]]
    res = check_sandwich(P, samples, 4, m, W_G, pair_window, psi_of)
    assert res.status == "pass"
    assert res.details["lower_margin"] >= 0
    assert res.details["upper_margin"] >= 0


def test_sandwich_vacuous_on_single_point_eval(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    res = check_sandwich(P, [((0,), (0,))], 0, m, W_G, pair_window, psi_of)
    assert res.status == "vacuous"


def test_sandwich_fails_on_tampered_slice(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline

    def tampered(h):
        d = psi_of(h)
        return act_left((20,), d) if h == (1,) else d

    res = check_sandwich(P, [((0,), (0,))], 2, m, W_G, pair_window, tampered)
    assert res.status == "fail"


def test_sandwich_counts_repeated_h_by_multiplicity(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    # a table cut at t = 2: the evaluation pairs of B(2) at distances 3, 4
    # are unsupported (3 of 10 pairs)
    short = Moduli(t_max=2, kappa=m.kappa[:3], omega=m.omega[:3], provenance="analytic")
    once = check_sandwich(P, [((0,), (0,)), ((0,), (-2,))], 2, short, W_G,
                          pair_window, psi_of)
    assert (once.population, once.details["skipped_unsupported_t"]) == (14, 6)
    # h = 0 three times under different g, h = -2 once
    samples = [((0,), (0,)), ((3,), (-2,)), ((5,), (0,)), ((-7,), (0,))]
    res = check_sandwich(P, samples, 2, short, W_G, pair_window, psi_of)
    assert res.population == 7 * 4
    assert res.details["skipped_unsupported_t"] == 3 * 4
    assert res.details["distinct_coordinate_pairs"] == once.details["distinct_coordinate_pairs"]
    assert (res.status, res.margin, res.witness) == (once.status, once.margin, once.witness)


@pytest.mark.parametrize("samples,eval_radius", [
    ([((0,), (0,))], -1),
    ([], -1),
    ([], 21),              # the inner radius is 20
    ([((0,), (0,))], 21),
    ([((0,), (19,))], 3),  # 19 + 3 leaves the inner window
    ([((0,), (30,))], 3),  # h itself lies outside the source window
])
def test_sandwich_rejects_translates_outside_the_inner_window(pipeline, samples,
                                                              eval_radius):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    assert P.inner_radius == 20
    with pytest.raises(PreconditionError):
        check_sandwich(P, samples, eval_radius, m, W_G, pair_window, psi_of)


@settings(max_examples=200, deadline=None)
@given(incs=st.lists(st.integers(0, 4), min_size=1, max_size=12), data=st.data())
def test_kappa_sublevel_radius_matches_scan_on_random_tables(incs, data):
    kappa = list(accumulate(incs))  # nondecreasing and nonnegative
    m = Moduli(t_max=len(kappa) - 1, kappa=kappa, omega=kappa, provenance="window-estimated")
    bound = data.draw(st.integers(-2, m.kappa[-1] + 2))
    assert _kappa_sublevel_radius(m, bound) == oracles.kappa_sublevel_radius(m, bound)
    # the window reaches past t_max, where kappa is not tabulated
    W = build_window(Z, m.t_max + 2)
    assert _far_shell(W, m, bound) == oracles.far_shell(W, m, bound)


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["shear-z2", "table-z2", "heis-id", "f2-id"])
def test_kappa_sublevel_radius_matches_scan_on_workload_tables(tmp_path, name):
    workloads = _load_workloads()
    cfg = workloads.config(name, workloads.DEFAULT_SEED)
    if name == "table-z2":
        table = tmp_path / "table.map"
        table.write_text(workloads.table_text(workloads.DEFAULT_SEED))
        cfg["map_descriptor"] = f"table:{table}"
    H, G = make_group(cfg["group_H"]), make_group(cfg["group_G"])
    phi = make_coarse_map(cfg["map_descriptor"], H, G)
    W_H = build_window(H, cfg["radius_H"])
    m = pipeline_moduli(phi, W_H, build_window(G, cfg["radius_G"]))
    for bound in range(-2, m.kappa[m.t_max] + 3):
        assert _kappa_sublevel_radius(m, bound) == oracles.kappa_sublevel_radius(m, bound)
        assert _far_shell(W_H, m, bound) == oracles.far_shell(W_H, m, bound)


def test_properness_h_passes_nonvacuously(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    diam_K = pair_extremes(W_G, K)[2]
    assert diam_K == 8
    res = check_properness_h(P, _meeting_K([((0,), (0,))], K, psi_of), K, m, W_G,
                             psi_of, diam_K, diam_K + 2 * P.omega_s1 + 2)
    assert res.status == "pass"
    assert res.population == 4  # h in {+-19, +-20}: kappa(|h|) > 18
    assert res.margin == 10  # confinement slack 2w+2 - 0 beats gap 13 - 1
    assert res.details["confinement_margin"] == 10


def test_properness_h_fails_with_zero_threshold(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    res = check_properness_h(P, _meeting_K([((0,), (0,))], K, psi_of), K, m, W_G,
                             psi_of, 8, 0)
    assert res.status == "fail"
    assert res.witness["h"] in {"1", "-1"}  # first violators are adjacent slices


def test_properness_h_meeting_point_lies_in_K(pipeline):
    # the slice of zeta = (-1).psi_0 at h = 7 meets K at -1 + 5 = 4, the
    # translate of its atom 5
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    res = check_properness_h(P, _meeting_K([((-1,), (0,))], K, psi_of), K, m, W_G,
                             psi_of, 8, 6)
    assert res.status == "fail"
    assert res.witness == {"h": "7", "zeta": ["-1", "0"], "meeting_point": "4"}
    assert Z.parse_element(res.witness["meeting_point"]) in K


def test_properness_h_vacuous_in_tiny_window():
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 8)
    W_G = build_window(Z, 16)
    m = analytic_moduli(phi, 60)
    P = build_partition(W_H, W_G, phi, m, 3)
    cache = {}

    def psi_of(h):
        if h not in cache:
            cache[h] = psi(P, phi, h)
        return cache[h]

    K = psi_of(Z.identity).support()
    diam_K = pair_extremes(W_G, K)[2]
    res = check_properness_h(P, _meeting_K([((0,), (0,))], K, psi_of), K, m, W_G,
                             psi_of, diam_K, diam_K + 2 * P.omega_s1 + 2)
    assert res.status == "vacuous"
    assert res.population == 0


def _outcome(res) -> tuple:
    return res.status, res.margin, res.witness, res.population, res.details


def _far_first_grid(pipeline) -> tuple:
    """(K, grid, expected): a grid whose g runs from the far sphere in, so
    misses of [K, 1/2] open it, and the first 8 of its samples that meet
    [K, 1/2]."""
    _, _, _, W_H, W_G, _, psi_of = pipeline
    K = psi_of(Z.identity).support()
    grid = [(g, h) for h in W_H.ball(2) for g in W_G.ball(8)[::-1]]
    expected = [(g, h) for g, h in grid
                if act_left(g, psi_of(h)).inner_product(set(K)) >= Fraction(1, 2)][:8]
    assert len(expected) == 8 and grid.index(expected[0]) > 0
    return K, grid, expected


def test_properness_h_takes_the_first_8_samples_meeting_K(pipeline):
    # the zetas are the first 8 samples whose orbit point meets [K, 1/2]; a
    # sample that misses it is skipped, and with none left the check is
    # vacuous
    P, _, m, _, W_G, _, psi_of = pipeline
    K, grid, expected = _far_first_grid(pipeline)
    zetas = partial(_meeting_K, K=K, psi_of=psi_of)
    check = partial(check_properness_h, P, K=K, m=m, W_G=W_G, psi_of=psi_of, diam_K=8,
                    threshold=0)
    assert [zeta[:2] for zeta in zetas(grid)] == expected
    assert _outcome(check(zetas(grid))) == _outcome(check(zetas(expected)))
    # g = 30 carries the identity's density off K
    identity = _outcome(check(zetas([((0,), (0,))])))
    assert identity[2]["zeta"] == ["0", "0"]
    assert _outcome(check(zetas([((30,), (0,)), ((0,), (0,))]))) == identity
    assert zetas([((30,), (0,))]) == []
    res = check([])
    assert (res.status, res.population) == ("vacuous", 0)


def test_g_action_takes_the_first_8_samples_meeting_K(pipeline):
    # g_action recentres the zetas properness_h takes, not those of the
    # grid's first 8 samples, which all miss [K, 1/2]
    P, _, _, _, W_G, _, psi_of = pipeline
    K, grid, expected = _far_first_grid(pipeline)
    check = partial(check_g_action, P, K_G=K, W_G=W_G, g_candidates=[((30,), 30)],
                    psi_of=psi_of, tau=2 * P.omega_s1 + 2 + 2 * 8,  # diam K = 8
                    recenter_bound=4 * P.omega_s1 + 4)
    res = check(_meeting_K(grid, K, psi_of))
    assert res.details["recenter_population"] == 8
    assert _outcome(res) == _outcome(check(_meeting_K(expected, K, psi_of)))


@pytest.mark.parametrize("checks,runs", [
    (None, 1),
    (["membership_x", "lipschitz", "sandwich"], 0),  # f2-id's selection
    (["properness_h"], 1),
    (["g_action"], 1),
], ids=["all", "f2-id", "properness_h", "g_action"])
def test_run_all_picks_the_zetas_once_for_both_action_checks(monkeypatch, checks, runs):
    # run_all picks the zetas once, and only for a selection that reads
    # them; both action checks are handed that one list
    picked, handed = [], []
    meeting = certify._meeting_K

    def spy(*args):
        picked.append(meeting(*args))
        return picked[-1]

    monkeypatch.setattr(certify, "_meeting_K", spy)
    for name in ("check_properness_h", "check_g_action"):
        def marked(P, zetas, *rest, run=getattr(certify, name)):
            handed.append(zetas)
            return run(P, zetas, *rest)

        monkeypatch.setattr(certify, name, marked)
    run_all(RunConfig(radius_H=12, radius_G=24, eval_radius=3, checks=checks))
    assert len(picked) == runs
    assert len(handed) == len({"properness_h", "g_action"}.intersection(checks or CHECK_NAMES))
    assert all(zetas is picked[0] for zetas in handed)


def test_cocompactness_passes(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    res = check_cocompactness_h(P, [((0,), (0,)), ((4,), (4,)), ((20,), (0,))],
                                m, 1, W_G, psi_of, 1 + P.omega_s1 + 1)
    assert res.status == "pass"
    assert res.margin >= 0
    assert "no 1/(5MN) net" in res.details["search"]


def test_cocompactness_trivial_witness_at_identity(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    res = check_cocompactness_h(P, [((0,), (0,))], m, 1, W_G, psi_of,
                                1 + P.omega_s1 + 1)
    assert res.status == "pass"
    assert res.witness["f"] == "0"  # f = identity already recenters fully
    assert res.margin == Fraction(1, 2)  # inner product 1 against 1/2


def test_cocompactness_fails_with_empty_target_set(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    res = check_cocompactness_h(P, [((0,), (0,))], m, 0, W_G, psi_of, -1)
    assert res.status == "fail"


def test_g_action_passes(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    tau = 2 * P.omega_s1 + 2 + 2 * 8  # diam K = 8
    ring = [(e, l) for e, l in zip(W_G.elements, W_G.lengths) if tau < l <= tau + 2]
    res = check_g_action(P, _meeting_K([((0,), (0,)), ((2,), (1,))], K, psi_of), K,
                         W_G, ring, psi_of, tau, 4 * P.omega_s1 + 4)
    assert res.status == "pass"
    assert res.details["properness_population"] > 0
    assert res.details["recenter_bound"] == 20


def test_g_action_fails_with_shrunk_recenter_ball(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    res = check_g_action(P, _meeting_K([((0,), (0,))], K, psi_of), K, W_G, [],
                         psi_of, 2 * P.omega_s1 + 2 + 2 * 8, 0)
    assert res.status == "fail"


def test_g_action_recentring_ball_is_closed(pipeline):
    # psi_0 is supported on [-4, 4]: the closed ball of radius 4 holds all
    # of its mass, so the recentring part of the margin is exactly 0
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    res = check_g_action(P, _meeting_K([((0,), (0,))], K, psi_of), K, W_G, [],
                         psi_of, 2 * P.omega_s1 + 2 + 2 * 8, 4)
    assert res.status == "pass"
    assert res.margin == 0


def test_g_action_vacuous_properness_population(pipeline):
    # one atom carries at most 1/|B| = 1/3 of a density's mass, so no
    # sample meets [K, 1/2] for a one-point K
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = [(0,)]
    res = check_g_action(P, _meeting_K([((0,), (0,))], K, psi_of), K, W_G,
                         [((30,), 30)], psi_of, 2 * P.omega_s1 + 2,  # diam K = 0
                         4 * P.omega_s1 + 4)
    assert res.details["properness_population"] == 0
    assert res.status == "pass"  # the diameter part still runs


def test_action_checks_certify_no_sample_off_K(pipeline):
    # one atom carries at most 1/3 of a density's mass, so no sample meets
    # [K, 1/2] for a one-point K, and neither check recentres or measures
    # a sample it was not handed
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = [(0,)]
    assert _meeting_K([((0,), (0,))], K, psi_of) == []
    res = check_properness_h(P, [], K, m, W_G, psi_of, 0, 10)
    assert (res.status, res.population) == ("vacuous", 0)
    res = check_g_action(P, [], K, W_G,
                         [((30,), 30)], psi_of, 2 * P.omega_s1 + 2,
                         4 * P.omega_s1 + 4)
    assert res.details["recenter_population"] == 0
    assert res.population == res.details["diameter_population"] == 41


def test_g_action_fails_where_a_candidate_translate_meets_k(pipeline):
    P, phi, m, W_H, W_G, pair_window, psi_of = pipeline
    K = psi_of(Z.identity).support()
    res = check_g_action(P, _meeting_K([((0,), (0,))], K, psi_of), K, W_G,
                         [((3,), 3), ((1,), 1)], psi_of, 2 * P.omega_s1 + 2 + 2 * 8,
                         4 * P.omega_s1 + 4)
    assert res.status == "fail"
    assert res.margin == -1
    # the first candidate wins; its first moved atom inside K is the witness
    assert res.witness == {"g": "3", "xi": ["0", "0"], "meeting_point": "3"}
    assert res.details["margin_is_floor"] is False


# (group, map, rH, rG) of the left-action properness cases: the samples
# xi_1 = g.psi_h sit near the identity, the candidates are W_G's elements,
# and a small distance window makes some translates meet K_G, some resolve
# and some lie past the window floor
G_ACTION_CASES = {
    "Z^1": ("Z^1", "identity", 16, 24),
    "shear Z^2": ("Z^2", "matrix:1,1,0,1", 10, 30),
    "Heis": ("Heis", "identity", 6, 10),
}


@pytest.fixture(scope="module")
def g_action_cases():
    out = {}
    for name, (desc, descriptor, rH, rG) in G_ACTION_CASES.items():
        H = make_group(desc)
        phi = make_coarse_map(descriptor, H, H)
        W_H, W_G = build_window(H, rH), build_window(H, rG)
        m = pipeline_moduli(phi, W_H, W_G)
        P = build_partition(W_H, W_G, phi, m, choose_scale(m))
        K = psi(P, phi, H.identity).support()
        near_h = [h for h in P.inner_elements if W_H.dist.get(h) <= 1]
        xis = [(g, h, act_left(g, psi(P, phi, h)))
                      for g in W_G.elements[:3] for h in near_h[:2]]
        out[name] = (H, xis, K, W_G)
    return out


def with_lengths(W, elements) -> list:
    """The (element, word length) candidates of ``_g_properness``, with
    the lengths read from the window the elements are drawn from."""
    return [(g, W.dist[g]) for g in elements]


@pytest.mark.parametrize("name", sorted(G_ACTION_CASES))
def test_g_properness_matches_per_pair_oracle_on_each_kind(g_action_cases, name):
    H, xis, K, W_G = g_action_cases[name]
    dist_window = build_window(H, 3)
    kinds = {"meets": [], "resolved": [], "floor": []}
    for g in with_lengths(W_G, W_G.elements[::len(W_G.elements) // 400 + 1]):
        margin, _, floor, _ = _g_properness(H, xis[:1], K, dist_window, [g])
        kind = "meets" if margin == -1 else "floor" if floor else "resolved"
        kinds[kind].append(g)
    for kind, pool in kinds.items():
        candidates = pool[:3] + pool[-3:]
        got = _g_properness(H, xis, K, dist_window, candidates)
        assert got == oracles.g_properness(H, xis, K, dist_window, candidates), kind
        assert got[3] == len(candidates) * len(xis)
    assert "meeting_point" in _g_properness(H, xis, K, dist_window,
                                            kinds["meets"][:1])[1]
    assert 0 <= _g_properness(H, xis[:1], K, dist_window,
                              kinds["resolved"])[0] < dist_window.radius
    assert _g_properness(H, xis, K, dist_window, kinds["floor"][-3:])[2] is True


@pytest.mark.parametrize("name", sorted(G_ACTION_CASES))
def test_K_margin_matches_the_moved_back_K_oracle(g_action_cases, name):
    # t.atoms against a field of K, and the atoms against t^-1 K by set
    # distance, must agree on meeting, resolved and floor translates
    H, xis, K, W_G = g_action_cases[name]
    dist_window = build_window(H, 3)
    to_K_get = distance_field(dist_window, K).get
    kinds = set()
    for t in W_G.elements[::len(W_G.elements) // 60 + 1]:
        for _, _, xi in xis[::2]:
            got = _K_margin(to_K_get, H.mul, t, xi.atoms, dist_window.radius)
            assert got == oracles.slice_K_margin(dist_window, t, xi.support(), K)
            kinds.add("meets" if got[1] is not None else "floor" if got[2] else "resolved")
    assert kinds == {"meets", "resolved", "floor"}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(G_ACTION_CASES)), st.integers(1, 6), st.data())
def test_g_properness_matches_per_pair_oracle(g_action_cases, name, dist_radius, data):
    H, xis, K, W_G = g_action_cases[name]
    dist_window = build_window(H, dist_radius)
    candidates = with_lengths(W_G, data.draw(st.lists(st.sampled_from(W_G.elements),
                                                      max_size=12)))
    drawn = data.draw(st.lists(st.sampled_from(xis), max_size=4))
    assert (_g_properness(H, drawn, K, dist_window, candidates)
            == oracles.g_properness(H, drawn, K, dist_window, candidates))


def one_block_sample(z) -> list:
    """One qualifying (g, h, xi_1) entry whose density is the unit block zB."""
    return [((0,), (0,), SparseDensity(group=Z, denominator=len(unit_ball(Z)), blocks=[(z, 1)]))]


@pytest.fixture
def field_builds(monkeypatch) -> list:
    """The sources of every distance field ``certify`` builds."""
    builds = []
    field = certify.distance_field

    def counted(W, sources, *rest):
        builds.append(list(sources))
        return field(W, sources, *rest)

    monkeypatch.setattr(certify, "distance_field", counted)
    return builds


def test_g_properness_bound_stops_at_the_radius(field_builds):
    # the block at 0 reaches 1, so |gc| - reach(atoms) - reach(K) equals the
    # radius 3 for gc = 5, k = 1, and d(gc.(-1), k) = d(4, 1) = 3 resolves:
    # the bound must not settle this pair, whose margin is radius - 1.  Nor
    # gc = -5, whose translate is 5 from k: one field serves both pairs
    W = build_window(Z, 3)
    xis, K = one_block_sample((0,)), [(1,)]
    got = _g_properness(Z, xis, K, W, [((5,), 5)])
    assert got == (2, {"g": "5", "xi": ["0", "0"]}, False, 1)
    assert got == oracles.g_properness(Z, xis, K, W, [((5,), 5)])
    field_builds.clear()
    got = _g_properness(Z, xis, K, W, [((5,), 5), ((-5,), 5)])
    assert got == (2, {"g": "5", "xi": ["0", "0"]}, True, 2)
    assert got == oracles.g_properness(Z, xis, K, W, [((5,), 5), ((-5,), 5)])
    assert field_builds == [K]
    # one step further the bound settles the pair without a field
    field_builds.clear()
    got = _g_properness(Z, xis, K, W, [((6,), 6), ((-6,), 6)])
    assert got == (3, {"g": "6", "xi": ["0", "0"]}, True, 2)
    assert got == oracles.g_properness(Z, xis, K, W, [((6,), 6), ((-6,), 6)])
    assert field_builds == []


@pytest.mark.parametrize("atom,K,gc", [
    ((4,), [(0,)], (-4,)),  # the block's centre lies outside the radius-3 window
    ((0,), [(5,)], (5,)),   # the point of K does
])
def test_g_properness_bound_is_off_outside_the_window(field_builds, atom, K, gc):
    # with the outside point's length taken as 0 the bound would call the
    # pair a floor pair, yet the translate meets K
    W = build_window(Z, 3)
    xis = one_block_sample(atom)
    got = _g_properness(Z, xis, K, W, [(gc, abs(gc[0]))])
    assert got[0] == -1 and got[1]["meeting_point"] == Z.format_element(K[0])
    assert got == oracles.g_properness(Z, xis, K, W, [(gc, abs(gc[0]))])
    assert field_builds == [K]


def test_g_action_builds_no_distance_field_on_shear_z2(field_builds, monkeypatch):
    # every g_action pair of the shear-z2 demo is settled by the triangle
    # bound, so check_g_action builds no distance field of K_G
    in_g_action = []
    g_action = certify.check_g_action

    def marked(*args):
        start = len(field_builds)
        result = g_action(*args)
        in_g_action.append((len(field_builds) - start, result))
        return result

    monkeypatch.setattr(certify, "check_g_action", marked)
    run_all(dict(DEMO_CONFIGS)["shear-z2"])
    (built, result), = in_g_action
    assert built == 0
    assert result.details["properness_population"] == 3680
    assert result.details["margin_is_floor"] is True


@pytest.mark.parametrize("name", [name for name, _ in DEMO_CONFIGS])
def test_each_check_builds_at_most_one_distance_field(field_builds, monkeypatch, name):
    # only check_properness_h and check_g_action read a field of K, each
    # builds at most one, and shear-z2 needs none
    built = Counter()
    for check in ("check_properness_h", "check_g_action"):
        def marked(*args, check=check, run=getattr(certify, check)):
            start = len(field_builds)
            result = run(*args)
            built[check] += len(field_builds) - start
            return result

        monkeypatch.setattr(certify, check, marked)
    run_all(dict(DEMO_CONFIGS)[name])
    assert sum(built.values()) == len(field_builds)
    assert max(built.values()) <= (0 if name == "shear-z2" else 1)


@pytest.mark.parametrize("name", [name for name, _ in DEMO_CONFIGS])
def test_a_run_computes_each_block_kernel_at_most_once_per_window(monkeypatch, name):
    computed = []  # (window, w); holding the window keeps its id unique
    kernel = coupling._block_kernel

    def spy(W, w):
        computed.append((W, w))
        return kernel(W, w)

    monkeypatch.setattr(coupling, "_block_kernel", spy)
    run_all(dict(DEMO_CONFIGS)[name])
    keys = Counter((id(W), w) for W, w in computed)
    assert keys and max(keys.values()) == 1


def test_run_all_reports_every_check_pass():
    cfg = RunConfig(group_H="Z^1", group_G="Z^1", map_descriptor="identity",
                    radius_H=24, radius_G=40, eval_radius=8, seed=7)
    cert = run_all(cfg)
    assert {c.name for c in cert.checks} == {
        "cocompactness_h", "g_action", "lipschitz", "membership_x",
        "properness_h", "sandwich"}
    assert all(c.status == "pass" for c in cert.checks)
    assert all(c.margin >= 0 for c in cert.checks)
    assert cert.constants["s"] == 3
    assert cert.constants["M"] == 6


def test_run_all_is_deterministic():
    cfg = RunConfig(radius_H=12, radius_G=24, eval_radius=3, seed=5)
    a = run_all(cfg).to_report()
    b = run_all(cfg).to_report()
    assert a == b


def test_run_all_check_subset():
    cfg = RunConfig(radius_H=12, radius_G=24, eval_radius=3,
                    checks=["lipschitz", "membership_x"])
    cert = run_all(cfg)
    assert {c.name for c in cert.checks} == {"lipschitz", "membership_x"}


@pytest.mark.parametrize("name,cfg", DEMO_CONFIGS, ids=[n for n, _ in DEMO_CONFIGS])
def test_run_all_builds_two_windows_and_derives_every_other_ball(monkeypatch, name, cfg):
    # W_H and W_G come from build_window; the core, pair, difference,
    # blocking and candidate balls are prefixes or growths of them
    built = []
    fresh = windows.build_window

    def spy(G, R, *args):
        built.append((G.descriptor, R))
        return fresh(G, R, *args)

    for module in (certify, coarse, coupling, windows):
        if hasattr(module, "build_window"):
            monkeypatch.setattr(module, "build_window", spy)
    run_all(cfg)
    assert built == [(cfg.group_H, cfg.radius_H), (cfg.group_G, cfg.radius_G)]


def test_run_all_rejects_a_negative_eval_radius_at_configure():
    cfg = RunConfig(eval_radius=-1, checks=["membership_x", "lipschitz"])
    with pytest.raises(PipelineError) as exc:
        run_all(cfg)
    assert exc.value.stage == "configure"


def test_run_all_stage_tagged_error_on_constant_map(tmp_path):
    table = tmp_path / "const.txt"
    lines = [f"{n} -> 0" for n in range(-12, 13)]
    table.write_text("\n".join(lines) + "\n")
    cfg = RunConfig(map_descriptor=f"table:{table}", radius_H=12, radius_G=24,
                    eval_radius=3)
    with pytest.raises(PipelineError) as exc:
        run_all(cfg)
    assert exc.value.stage == "scale"


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_an_error_inside_a_check_is_tagged_with_its_name(monkeypatch, name):
    # each check runs as its own stage, and run_all calls the check_* it
    # finds in the module when that stage runs
    def refuse(*args):
        raise ResolutionError(f"refused by {name}")

    monkeypatch.setattr(certify, f"check_{name}", refuse)
    with pytest.raises(PipelineError) as exc:
        run_all(RunConfig(radius_H=12, radius_G=24, eval_radius=3))
    assert exc.value.stage == name and str(exc.value) == f"[{name}] refused by {name}"


def test_an_over_budget_g_action_candidate_ball_is_a_g_action_error():
    # F_2 swap passes every stage before g_action, whose candidate ball
    # B(tau + 2) passes the element budget at radius 14
    cfg = RunConfig(group_H="F_2", group_G="F_2", map_descriptor="swap",
                    radius_H=6, radius_G=10, eval_radius=1)
    with pytest.raises(PipelineError) as exc:
        run_all(cfg)
    assert exc.value.stage == "g_action" and type(exc.value.cause) is WindowBudgetError
    assert str(exc.value) == ("[g_action] breadth-first search in F_2 exceeded the "
                              "5000000-element budget at radius 14")


@pytest.mark.parametrize("field,value", [
    ("radius_H", "10"),
    ("radius_H", 10.5),
    ("eval_radius", 2.5),
    ("seed", True),
    ("checks", "lipschitz"),
    ("checks", ["lipschitz", 3]),
    ("checks", []),  # an empty selection is not "all" (None is)
    ("checks", ()),
    ("group_H", 2),
    ("group_G", None),
    ("map_descriptor", None),
    ("output_path", 3),
])
def test_run_all_rejects_a_wrong_typed_value_at_configure(field, value):
    # a library caller's value of the wrong type is input error, not a
    # TypeError or AttributeError deep in a stage, and not a float radius
    # taken as is
    with pytest.raises(PipelineError) as exc:
        run_all(RunConfig(**{field: value}))
    assert exc.value.stage == "configure" and f"{field} must be" in str(exc.value)


def _wrong_typed(name: str):
    """Values of the wrong type for the RunConfig field ``name``: None
    where it selects nothing, floats, bools, bytes, lists, dicts, a bare
    object, and a Fraction for the int fields."""
    values = [st.floats(), st.booleans(), st.binary(max_size=3),
              st.lists(st.integers(), max_size=3),
              st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
              st.builds(object)]
    if name not in ("checks", "output_path"):
        values.append(st.none())
    if name in certify.INT_FIELDS:
        values.append(st.fractions())
    return st.one_of(values)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(inspect.signature(RunConfig).parameters)))
def test_every_field_refuses_a_wrong_typed_value_at_configure(data, name):
    cfg = RunConfig(**{name: data.draw(_wrong_typed(name), label=name)})
    with pytest.raises(PreconditionError):
        validate_config(cfg)
    with pytest.raises(PipelineError) as exc:
        run_all(cfg)
    assert exc.value.stage == "configure"


@pytest.mark.parametrize("path", [None, "report.json"])
def test_output_path_may_be_none_or_a_string(path):
    validate_config(RunConfig(output_path=path))


# id -> (call(P, m, W_G, psi_of, K), error type, message) for each
# refusal of a check whose window or inputs cannot support it, on the
# identity of Z with W_G of radius 40 and K the support of psi_0
CHECK_REFUSALS = {
    # 2.psi_0 puts 8/9 of its mass on K = [-4, 4], and its atom 6 is 2 > 1
    # from K
    "properness-atom-unresolved": (
        lambda P, m, W_G, psi_of, K: check_properness_h(
            P, _meeting_K([((2,), (0,))], K, psi_of), K, m, build_window(Z, 1), psi_of,
            0, 1000),
        ResolutionError, "support-to-K distance does not resolve"),
    "cocompactness-K-radius": (
        lambda P, m, W_G, psi_of, K: check_cocompactness_h(
            P, [], m, 0, W_G, psi_of, 41),
        PreconditionError, "K radius 41 exceeds the target window radius 40"),
    "cocompactness-straddle": (
        lambda P, m, W_G, psi_of, K: check_cocompactness_h(
            P, [((0,), (0,))], m, 0, build_window(Z, 2), psi_of, 0),
        ResolutionError, "the support of a sampled orbit point straddles the target window "
                         "edge; enlarge the window or shrink the sample radii"),
    # h = 20 sits on the inner edge, so the search stops at radius 0, where
    # an empty K (radius -1) absorbs no mass
    "cocompactness-truncated": (
        lambda P, m, W_G, psi_of, K: check_cocompactness_h(
            P, [((0,), (20,))], m, 0, W_G, psi_of, -1),
        ResolutionError, "witness search truncated at radius 0 below r=27; "
                         "enlarge the source window"),
    # psi_0 meets K = supp psi_0, so its support is recentred
    "g_action-support-leaves": (
        lambda P, m, W_G, psi_of, K: check_g_action(
            P, _meeting_K([((0,), (0,))], K, psi_of), K, build_window(Z, 1), [], psi_of,
            0, 20),
        ResolutionError, "support of a sample leaves the target window"),
    # psi_1 (diameter 5) recentres within radius 5; psi_0 has diameter 8
    "g_action-inner-diameter": (
        lambda P, m, W_G, psi_of, K: check_g_action(
            P, _meeting_K([((0,), (1,))], psi_of((1,)).support(), psi_of),
            psi_of((1,)).support(), build_window(Z, 5), [], psi_of, 0, 20),
        ResolutionError, "inner support diameter does not resolve"),
}


@pytest.mark.parametrize("case", list(CHECK_REFUSALS))
def test_a_check_refuses_inputs_its_window_cannot_support(pipeline, case):
    P, _, m, _, W_G, _, psi_of = pipeline
    call, error, message = CHECK_REFUSALS[case]
    with pytest.raises(error) as exc:
        call(P, m, W_G, psi_of, psi_of((0,)).support())
    assert type(exc.value) is error and str(exc.value) == message


def test_an_unresolved_diameter_of_K_is_a_samples_stage_error(monkeypatch):
    # a stand-in support_diameter that resolves no pair
    monkeypatch.setattr(certify, "support_diameter", lambda xi, W: None)
    with pytest.raises(PipelineError) as exc:
        run_all(RunConfig())
    assert exc.value.stage == "samples" and type(exc.value.cause) is ResolutionError
    assert str(exc.value) == "[samples] diameter of K does not resolve in the target window"


def test_scale_stage_error_prints_the_sum():
    # the identity's moduli give s = 3
    cfg = RunConfig(radius_H=5, radius_G=40, eval_radius=3)
    with pytest.raises(PipelineError) as exc:
        run_all(cfg)
    assert str(exc.value) == "[scale] eval radius 3 + (s+1) = 7 exceeds radius_H = 5"


def test_monotone_safety_of_m(monkeypatch):
    cfg = RunConfig(radius_H=24, radius_G=40, eval_radius=8, seed=7)
    base = run_all(cfg)
    bound = windows.packing_bound

    def bumped_bound(*args):
        # M -> M+3: a looser bound is still a safe one
        return bound(*args) + 3

    monkeypatch.setattr(coupling, "packing_bound", bumped_bound)
    bumped = run_all(cfg)
    assert (bumped.constants["M"], bumped.constants["M_exact"]) == (base.constants["M"] + 3,
                                                                     False)
    before = {c.name: c.status for c in base.checks}
    after = {c.name: c.status for c in bumped.checks}
    for name, status in before.items():
        if status == "pass":
            assert after[name] == "pass"
