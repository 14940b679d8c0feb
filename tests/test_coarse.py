"""Coarse maps, moduli estimation, scale selection, coboundedness."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplingcert import coarse, windows
from couplingcert.coarse import (
    analytic_moduli,
    apply,
    choose_scale,
    cobounded_radius,
    estimate_moduli,
    homomorphic_moduli,
    load_map_table,
    make_coarse_map,
    pipeline_moduli,
    table_map,
)
from couplingcert.errors import (
    DescriptorError,
    ResolutionError,
    ScaleSelectionError,
    TableMapError,
)
from couplingcert.groups import ZdGroup, make_group
from couplingcert.windows import build_window, resolved_distance

import oracles
from oracles import distance

Z = make_group("Z^1")
Z2 = make_group("Z^2")
F2 = make_group("F_2")


def test_apply_examples():
    ident = make_coarse_map("identity", Z2, Z2)
    assert apply(ident, (3, -1)) == (3, -1)
    double = make_coarse_map("scale:2", Z, Z)
    assert apply(double, (5,)) == (10,)
    # inclusion (2Z)^2 in Z^2: source generators are rescaled steps
    incl = make_coarse_map("scale:2", Z2, Z2)
    assert apply(incl, (1, 1)) == (2, 2)
    shear = make_coarse_map("matrix:1,1,0,1", Z2, Z2)
    assert apply(shear, (2, 3)) == (5, 3)
    swap = make_coarse_map("swap", F2, F2)
    assert apply(swap, (1, -2, 1)) == (2, -1, 2)


def test_map_descriptor_validation():
    with pytest.raises(DescriptorError):
        make_coarse_map("matrix:2,0,0,2", Z2, Z2)  # det 4, not GL_2(Z)
    with pytest.raises(DescriptorError):
        make_coarse_map("identity", Z, Z2)
    with pytest.raises(DescriptorError):
        make_coarse_map("scale:0", Z, Z)
    with pytest.raises(DescriptorError):
        make_coarse_map("warp", Z, Z)


def test_estimate_moduli_identity_on_z():
    phi = make_coarse_map("identity", Z, Z)
    m = estimate_moduli(phi, build_window(Z, 10), build_window(Z, 25), 8)
    assert m.kappa == list(range(9))
    assert m.omega == list(range(9))
    assert m.provenance == "window-estimated"
    assert all(c > 0 for c in m.pair_counts)


def test_estimate_moduli_trims_distances_without_pairs():
    # C_5 has diameter 2: no pair lies at distance 3..8, so the table ends
    # at 2 and every entry it keeps answers
    C5 = make_group("C_5")
    m = estimate_moduli(make_coarse_map("identity", C5, C5),
                        build_window(C5, 4), build_window(C5, 4), 8)
    assert (m.t_max, m.requested_t_max, m.pair_counts) == (2, 8, [5, 5, 5])
    assert m.truncated_at is None  # trimmed, not truncated
    assert [m.kappa_at(t) for t in range(4)] == [0, 1, 2, None]
    assert [m.omega_at(t) for t in range(4)] == [0, 1, 2, None]


def test_estimate_moduli_scaling():
    phi = make_coarse_map("scale:2", Z, Z)
    m = estimate_moduli(phi, build_window(Z, 10), build_window(Z, 40), 10)
    assert m.kappa == [2 * t for t in range(11)]
    assert m.omega == [2 * t for t in range(11)]


def test_constant_table_map_has_zero_moduli():
    W_H = build_window(Z, 2)
    phi = table_map(Z, Z, {h: (0,) for h in W_H.elements})
    m = estimate_moduli(phi, W_H, build_window(Z, 4), 4)
    assert all(k == 0 for k in m.kappa)
    assert all(o == 0 for o in m.omega)
    with pytest.raises(ScaleSelectionError) as exc:
        choose_scale(m)
    assert exc.value.kind == "kappa-bounded"


def test_choose_scale_examples():
    phi = make_coarse_map("identity", Z, Z)
    m = estimate_moduli(phi, build_window(Z, 10), build_window(Z, 25), 8)
    assert choose_scale(m) == 3
    phi2 = make_coarse_map("scale:2", Z, Z)
    m2 = estimate_moduli(phi2, build_window(Z, 10), build_window(Z, 40), 10)
    assert choose_scale(m2) == 2


def test_choose_scale_distinguishes_small_t_max():
    phi = make_coarse_map("identity", Z, Z)
    m = estimate_moduli(phi, build_window(Z, 10), build_window(Z, 25), 2)
    with pytest.raises(ScaleSelectionError) as exc:
        choose_scale(m)
    assert exc.value.kind == "t-max-too-small"


def test_moduli_monotone_and_pair_sandwich():
    phi = make_coarse_map("matrix:1,1,0,1", Z2, Z2)
    W_H = build_window(Z2, 5)
    W_G = build_window(Z2, 22)
    m = estimate_moduli(phi, W_H, W_G, 10)
    assert all(a <= b for a, b in zip(m.kappa, m.kappa[1:]))
    assert all(a <= b for a, b in zip(m.omega, m.omega[1:]))
    # every scanned pair is bracketed by the tables at its distance
    big = build_window(Z2, 10)
    for i, h1 in enumerate(W_H.elements):
        for h2 in W_H.elements[i + 1:]:
            t = distance(big, h1, h2)
            if t > m.t_max:
                continue
            d_img = distance(W_G, apply(phi, h1), apply(phi, h2))
            assert m.kappa[t] <= d_img <= m.omega[t]


def test_window_monotonicity_of_moduli():
    phi = make_coarse_map("matrix:1,1,0,1", Z2, Z2)
    W_G = build_window(Z2, 30)
    small = estimate_moduli(phi, build_window(Z2, 4), W_G, 8)
    large = estimate_moduli(phi, build_window(Z2, 6), W_G, 8)
    for t in range(min(small.t_max, large.t_max) + 1):
        assert large.kappa[t] <= small.kappa[t]
        assert large.omega[t] >= small.omega[t]


@pytest.mark.parametrize("desc,H,G", [
    ("identity", Z, Z),
    ("scale:3", Z, Z),
    ("embed", Z, Z2),
    ("swap", F2, F2),
])
def test_window_estimates_bracket_analytic_moduli(desc, H, G):
    phi = make_coarse_map(desc, H, G)
    assert phi.stretch is not None
    W_H = build_window(H, 4)
    W_G = build_window(G, 10 if G is F2 else 30)
    est = estimate_moduli(phi, W_H, W_G, 8)
    ana = analytic_moduli(phi, est.t_max)
    for t in range(est.t_max + 1):
        assert est.kappa[t] >= ana.kappa[t]
        assert est.omega[t] <= ana.omega[t]


def test_estimation_truncates_on_unresolvable_images():
    phi = make_coarse_map("identity", Z, Z)
    W_H = build_window(Z, 10)
    W_G = build_window(Z, 6)
    m = estimate_moduli(phi, W_H, W_G, 12)
    assert m.t_max == 6  # truncated below the first unresolvable distance
    assert m.truncated_at == 7
    assert m.kappa == list(range(7))


def test_a_truncated_table_leaves_the_scale_to_a_larger_window():
    # v -> 5v on B(4) with W_G = B(3): every pair at distance 1 already
    # leaves the target window, so the table stops at t = 0.  That says
    # nothing about whether kappa is bounded.
    phi = table_map(Z, Z, {(v,): (5 * v,) for v in range(-4, 5)})
    m = estimate_moduli(phi, build_window(Z, 4), build_window(Z, 3), 8)
    assert (m.t_max, m.truncated_at, m.kappa) == (0, 1, [0])
    with pytest.raises(ScaleSelectionError) as exc:
        choose_scale(m)
    assert exc.value.kind == "t-max-too-small"
    assert "truncated at t=1" in str(exc.value)


def test_cobounded_radius_examples():
    ident = make_coarse_map("identity", Z, Z)
    assert cobounded_radius(ident, build_window(Z, 24), build_window(Z, 5)) == 1
    double = make_coarse_map("scale:2", Z, Z)
    assert cobounded_radius(double, build_window(Z, 10), build_window(Z, 6)) == 2
    emb = make_coarse_map("embed", Z, Z2)
    assert cobounded_radius(emb, build_window(Z, 10), build_window(Z2, 3)) == 4


def test_cobounded_radius_unresolvable():
    far = table_map(Z, Z, {h: (30,) for h in build_window(Z, 4).elements})
    with pytest.raises(ResolutionError):
        cobounded_radius(far, build_window(Z, 4), build_window(Z, 3))


def test_table_map_io(tmp_path):
    p = tmp_path / "phi.txt"
    p.write_text("# a simple shift\n0 -> 1\n1 -> 2\n-1 -> 0\n")
    phi = load_map_table(p, Z, Z)
    assert apply(phi, (0,)) == (1,)
    assert apply(phi, (-1,)) == (0,)
    with pytest.raises(TableMapError):
        apply(phi, (5,))


def test_table_map_with_a_byte_order_mark_reads_as_without(tmp_path):
    text = "# a shift\n0 -> 1\n1 -> 2\n-1 -> 0\n"
    plain, bom = tmp_path / "plain.map", tmp_path / "bom.map"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    maps = [load_map_table(p, Z, Z) for p in (plain, bom)]
    assert [[apply(phi, (n,)) for n in (-1, 0, 1)] for phi in maps] == [[(0,), (1,), (2,)]] * 2


def test_table_map_bad_line_names_line_number(tmp_path):
    p = tmp_path / "phi.txt"
    p.write_text("0 -> 0\nnot a mapping\n")
    with pytest.raises(TableMapError) as exc:
        load_map_table(p, Z, Z)
    assert ":2:" in str(exc.value)


@pytest.mark.parametrize("text,lines", [
    ("(0,0) -> (0,0)\n(1,0) -> (1,0)\n\n# again\n(0, 0) -> (7,7)\n", (":5:", "line 1")),
    ("(1,0) -> (1,0)\n(1,0) -> (1,0)\n", (":2:", "line 1")),
], ids=["other-target", "same-target"])
def test_table_map_repeated_source_names_both_lines(tmp_path, text, lines):
    # the file must define the map uniquely, whichever target the repeat names
    p = tmp_path / "phi.txt"
    p.write_text(text)
    with pytest.raises(TableMapError) as exc:
        load_map_table(p, Z2, Z2)
    assert all(line in str(exc.value) for line in lines)


def test_a_table_source_outside_the_c_n_normal_forms_is_refused(tmp_path):
    # 7 would otherwise define the image of 2 on C_5
    C5 = make_group("C_5")
    p = tmp_path / "phi.txt"
    p.write_text("0 -> 0\n7 -> 1\n")
    with pytest.raises(TableMapError) as exc:
        load_map_table(p, C5, C5)
    assert str(exc.value) == f"{p}:2: not a C_5 normal form: 7"


def test_a_fault_inside_an_element_parser_is_no_table_error(tmp_path):
    # only input errors become table syntax errors; an internal fault propagates
    p = tmp_path / "phi.txt"
    p.write_text("0 -> 0\n")
    H = make_group("Z^1")

    def broken(text):
        raise RuntimeError("parser fault")

    H.parse_element = broken
    with pytest.raises(RuntimeError, match="^parser fault$"):
        load_map_table(p, H, Z)


def _seeded_table_map(seed: int, radius: int):
    """v -> v + e(v) on the radius ball of Z^2, e(v) drawn from {0, e1, e2}:
    not a homomorphism, and not injective."""
    rnd = random.Random(seed)
    mapping = {v: (v[0] + dx, v[1] + dy)
               for v in build_window(Z2, radius).elements
               for dx, dy in [rnd.choice(((0, 0), (1, 0), (0, 1)))]}
    return table_map(Z2, Z2, mapping)


def _reference_moduli(phi, W_H, W_G, t_max):
    """The moduli table straight from its definition: every scanned pair
    with its two distances, then minima and maxima over distance ranges."""
    diff = build_window(phi.source, max(t_max, W_H.radius))
    els = W_H.elements
    scanned = []
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            dH = resolved_distance(diff, a, b)
            if dH is not None and dH <= t_max:
                scanned.append((a, b, dH, resolved_distance(W_G, phi.fn(a), phi.fn(b))))
    bad = min([dH for _, _, dH, dG in scanned if dG is None], default=None)
    eff = t_max if bad is None else min(t_max, bad - 1)
    pairs = [(els[0], els[0], 0, 0)] + [p for p in scanned if p[3] is not None]
    counts = [len(els) if t == 0 else 0 for t in range(t_max + 1)]
    for _, _, dH, _ in pairs[1:]:
        counts[dH] += 1
    while eff > 0 and counts[eff] == 0:
        eff -= 1
    pairs = [p for p in pairs if p[2] <= eff]
    return {
        "t_max": eff,
        "kappa": [min(p[3] for p in pairs if p[2] >= t) for t in range(eff + 1)],
        "omega": [max(p[3] for p in pairs if p[2] <= t) for t in range(eff + 1)],
        "pair_counts": counts[: eff + 1],
        "requested_t_max": t_max,
        "truncated_at": bad,
    }


def _random_table_map(seed: int, H, e: int, radius: int, spread: int, shift: int = 0):
    """A table on the radius ball of ``H`` into ``Z^e``: a ``Z^d`` source
    element padded or cut to ``e`` coordinates (any other source: the
    origin), plus noise uniform in ``[-spread, spread]`` per coordinate,
    plus ``shift`` on every coordinate.  A large ``spread`` puts images
    outside a small target window; a ``shift`` makes the images' spans
    asymmetric about the origin."""
    rnd = random.Random(seed)
    G = make_group(f"Z^{e}")
    mapping = {}
    for h in build_window(H, radius).elements:
        base = (h if isinstance(H, ZdGroup) else ()) + (0,) * e
        mapping[h] = tuple(x + shift + rnd.randint(-spread, spread) for x in base[:e])
    return table_map(H, G, mapping)


# Z^d -> Z^e tables whose coordinate spreads sum to at most 255 on each side
# take the closed-form l1 scan, the rest the lookup scan; small targets
# truncate and t_max above r_H builds the separate difference window.  The
# first three examples run the l1 scan and truncate (Z^2 at t = 3, Z^1 -> Z^3
# at 8, Z^3 -> Z^1 at 2); the fourth has far images.  The next two run the
# lookup scan on C_5 x Z^1, truncated and whole, and the seventh on Z^2 with
# images one past the limit (spread sum 256).  The last two run the l1 scan
# with shifted images, on Z^2 and on Z^4.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       source=st.sampled_from(["Z^1", "Z^2", "Z^3", "Z^4", "C_5 x Z^1"]), e=st.integers(1, 4),
       r_H=st.integers(2, 4), t_frac=st.integers(1, 4), r_G=st.integers(1, 12),
       spread=st.sampled_from([0, 1, 2, 30, 70]), shift=st.integers(-3, 3))
@example(seed=1, source="Z^2", e=2, r_H=3, t_frac=3, r_G=6, spread=1, shift=0)
@example(seed=1, source="Z^1", e=3, r_H=4, t_frac=4, r_G=10, spread=1, shift=0)
@example(seed=1, source="Z^3", e=1, r_H=2, t_frac=3, r_G=3, spread=1, shift=0)
@example(seed=4, source="Z^2", e=2, r_H=3, t_frac=4, r_G=4, spread=30, shift=0)
@example(seed=5, source="C_5 x Z^1", e=2, r_H=3, t_frac=4, r_G=5, spread=2, shift=0)
@example(seed=2, source="C_5 x Z^1", e=3, r_H=3, t_frac=4, r_G=12, spread=1, shift=0)
@example(seed=2, source="Z^2", e=2, r_H=3, t_frac=4, r_G=12, spread=70, shift=0)
@example(seed=2, source="Z^2", e=2, r_H=3, t_frac=4, r_G=12, spread=1, shift=2)
@example(seed=3, source="Z^4", e=4, r_H=2, t_frac=4, r_G=12, spread=1, shift=-1)
def _check_moduli_against_reference(seed, source, e, r_H, t_frac, r_G, spread, shift):
    H = make_group(source)
    phi = _random_table_map(seed, H, e, r_H, spread, shift)
    W_H, W_G = build_window(H, r_H), build_window(phi.target, r_G)
    t_max = max(1, 2 * r_H * t_frac // 4)
    m = estimate_moduli(phi, W_H, W_G, t_max)
    want = _reference_moduli(phi, W_H, W_G, t_max)
    assert m.provenance == "window-estimated"
    for name, value in want.items():
        assert getattr(m, name) == value, name
    # the table is trimmed to supported entries: every one answers
    for t in range(m.t_max + 1):
        assert m.kappa_at(t) == m.kappa[t] and m.omega_at(t) == m.omega[t]
    assert m.kappa_at(m.t_max + 1) is None and m.omega_at(m.t_max + 1) is None


def _spy_scans(monkeypatch) -> list:
    """From now on, one set per :func:`estimate_moduli` call naming what
    its pair scan ran: ``lane scan`` when it took :func:`_l1_pair_keys`
    (else it took the row scan), each side's rows (``source l1``, ``image
    lookup``, ...), and ``difference ball`` when it called ``ball_window``.
    Rows read after the call, for the pair counts, are not recorded."""
    scans, sources = [], []
    estimate = coarse.estimate_moduli

    def scan(phi, W_H, W_G, t_max):
        scans.append(set())
        sources.append(W_H.elements)
        try:
            return estimate(phi, W_H, W_G, t_max)
        finally:
            sources.pop()

    def spy(name, fn, rows=False):
        # a row source takes its points last; the source's are W_H.elements
        def run(*args):
            if sources:
                side = ("source " if args[-1] is sources[-1] else "image ") if rows else ""
                scans[-1].add(side + name)
            return fn(*args)
        return run

    monkeypatch.setitem(globals(), "estimate_moduli", scan)
    monkeypatch.setattr(coarse, "_l1_pair_keys", spy("lane scan", coarse._l1_pair_keys))
    monkeypatch.setattr(coarse, "ball_window", spy("difference ball", coarse.ball_window))
    monkeypatch.setattr(coarse, "_l1_rows", spy("l1", coarse._l1_rows, rows=True))
    monkeypatch.setattr(coarse, "_lookup_rows", spy("lookup", coarse._lookup_rows, rows=True))
    return scans


LANE = {"lane scan", "source l1", "image l1"}
BYTE_ROWS = {"source l1", "image l1"}
LOOKUP_IMAGES = {"source l1", "image lookup"}
LOOKUP_SOURCE = {"difference ball", "source lookup", "image l1"}
LOOKUP_BOTH = {"difference ball", "source lookup", "image lookup"}


def test_estimate_moduli_matches_reference_pair_scan(monkeypatch):
    scans = _spy_scans(monkeypatch)
    _check_moduli_against_reference()
    assert LANE in scans and any("lane scan" not in scan for scan in scans), scans


def _spread_table_map(H, r_H: int, top: int):
    """A table on B(r_H) of ``Z^d`` into ``Z^2`` whose images spread
    ``top``: in the order of ``h[0]``, from ``-r_H`` to ``r_H``, ``h``
    goes to a point on the segment from the origin to ``(top//2, top -
    top//2)``."""
    x, y, n = top // 2, top - top // 2, 2 * r_H
    return table_map(H, Z2, {h: ((h[0] + r_H) * x // n, (h[0] + r_H) * y // n)
                             for h in build_window(H, r_H).elements})


@pytest.mark.parametrize("phi,r_H,r_G,scan", [
    # 41 points of Z^2 with images spread 2*(8 + 2) = 20; all 41 images,
    # then 5 of them, leave the target window
    (_random_table_map(7, Z2, 2, 4, 1, 10), 4, 8, LANE),
    (_random_table_map(7, Z2, 2, 4, 1, 3), 4, 9, LANE),
    # 41 points of Z^4, spread 4*4 = 16 at the source; no image, then 6 of
    # them, leave the target window
    (_random_table_map(7, make_group("Z^4"), 4, 2, 0, 0), 2, 12, LANE),
    (_random_table_map(7, make_group("Z^4"), 4, 2, 1, -1), 2, 6, LANE),
    # images spread 127, the most the lane test allows, and one past it
    (_spread_table_map(Z, 4, 127), 4, 60, LANE),
    (_spread_table_map(Z, 4, 128), 4, 60, BYTE_ROWS),
    # images spread 129: the lane test would read the lane 128 - 129 as
    # 255, bit 7 set, and skip the row of (0,)
    (table_map(Z, Z, {(0,): (0,), (1,): (129,), (-1,): (0,)}), 1, 130, BYTE_ROWS),
    # images spread to the largest byte, and one past it
    (_spread_table_map(Z, 4, 255), 4, 60, BYTE_ROWS),
    (_spread_table_map(Z, 4, 256), 4, 60, LOOKUP_IMAGES),
    # a Z^2 source within the byte limit keeps its byte rows, and builds no
    # difference ball, when the images take lookups
    (_spread_table_map(Z2, 4, 300), 4, 60, LOOKUP_IMAGES),
    # sources spread 254 (a ball of Z^d spreads 2dR: the widest under the
    # byte limit) and 256, with images spread 20, then 300
    (_spread_table_map(Z, 127, 20), 127, 20, LANE),
    (_spread_table_map(Z, 128, 20), 128, 20, LOOKUP_SOURCE),
    (_spread_table_map(Z, 128, 300), 128, 60, LOOKUP_BOTH),
    # a source with no byte rows, images with them
    (_random_table_map(5, make_group("C_5 x Z^1"), 2, 3, 2), 3, 5, LOOKUP_SOURCE),
], ids=["Z^2-2-4-8-1-10-closed form", "Z^2-2-4-9-1-3-closed form",
        "Z^4-4-2-12-0-0-closed form", "Z^4-4-2-6-1--1-closed form",
        "Z^1-2-4-60-127-closed form", "Z^1-2-4-60-128-byte rows",
        "Z^1-1-1-130-129-byte rows",
        "Z^1-2-4-60-255-byte rows", "Z^1-2-4-60-256-lookup", "Z^2-2-4-60-300-lookup",
        "Z^1-2-127-20-20-closed form", "Z^1-2-128-20-20-lookup", "Z^1-2-128-60-300-lookup",
        "C_5 x Z^1-2-3-5-2-0-lookup"])
def test_estimate_moduli_scan_is_chosen_by_spread(monkeypatch, phi, r_H, r_G, scan):
    W_H, W_G = build_window(phi.source, r_H), build_window(phi.target, r_G)
    scans = _spy_scans(monkeypatch)
    m = estimate_moduli(phi, W_H, W_G, 2 * r_H)
    assert scans == [scan]
    for name, value in _reference_moduli(phi, W_H, W_G, 2 * r_H).items():
        assert getattr(m, name) == value, name


def _byte_points(data, k: int, n: int, top: int = 255, low: int = 0) -> list:
    """``n`` points of ``Z^k`` whose coordinate spreads sum to a drawn total
    from ``low`` to ``top``, exactly ``top`` when so drawn: two of the
    points are the corners that make every spread exact."""
    total = data.draw(st.one_of(st.just(top), st.integers(low, top)))
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    spans = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    shift = data.draw(st.integers(-300, 300))
    points = data.draw(st.lists(st.tuples(*[st.integers(shift, shift + s) for s in spans]),
                                min_size=n - 2, max_size=n - 2))
    for corner in (tuple(shift for _ in spans), tuple(shift + s for s in spans)):
        points.insert(data.draw(st.integers(0, len(points))), corner)
    assert windows._l1_spread(points) == total
    return points


def _extremes(keys: set) -> set:
    """Per source distance ``dH`` of ``keys`` (None too), the keys of
    least and of greatest image distance ``dG``, a ``None`` ``dG`` above
    every integer."""
    by_dH = {}
    for dH, dG in keys:
        by_dH.setdefault(dH, []).append(dG)
    return {(dH, pick(dGs, key=lambda dG: (dG is None, dG or 0)))
            for dH, dGs in by_dH.items() for pick in (min, max)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), e=st.integers(1, 4))
def test_coded_l1_pair_keys_match_the_column_oracle(data, d, e):
    # the scan keeps only the per-distance extremes of the oracle's keys;
    # it serves images spread at most 127
    n = data.draw(st.integers(2, 30))
    elements, images = _byte_points(data, d, n), _byte_points(data, e, n, top=127)
    want = _extremes(oracles.l1_pair_keys(elements, images))
    assert coarse._l1_pair_keys(elements, images) == want
    assert coarse._l1_pair_keys(elements[:1], images[:1]) == set()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), e=st.integers(1, 2),
       r_G=st.sampled_from([4, 40, 130, 260]))
def test_wide_image_tables_match_the_reference(data, d, e, r_G):
    # images spread 128 to 255, past the lane scan: the row scan zips both
    # sides' byte rows
    H = make_group(f"Z^{d}")
    W_H = build_window(H, 2)
    images = _byte_points(data, e, len(W_H), top=255, low=128)
    phi = table_map(H, make_group(f"Z^{e}"), dict(zip(W_H.elements, images)))
    W_G = build_window(phi.target, r_G)
    m = estimate_moduli(phi, W_H, W_G, 4)
    for name, value in _reference_moduli(phi, W_H, W_G, 4).items():
        assert getattr(m, name) == value, name


@pytest.mark.parametrize("spread", [127, 128])
@pytest.mark.parametrize("seed", range(4))
def test_l1_pair_keys_on_both_sides_of_the_lane_guard(monkeypatch, spread, seed):
    # images spread 127 take the lane scan, 128 the row scan of byte rows
    rng = random.Random(seed)
    W_H = build_window(Z2, 6)
    a = rng.randint(0, spread)
    images = [(0, 0), *[(rng.randint(0, a), rng.randint(0, spread - a))
                        for _ in W_H.elements[2:]], (a, spread - a)]
    assert windows._l1_spread(images) == spread
    if spread == 127:
        want = _extremes(oracles.l1_pair_keys(W_H.elements, images))
        assert coarse._l1_pair_keys(W_H.elements, images) == want
    phi = table_map(Z2, Z2, dict(zip(W_H.elements, images)))
    W_G = build_window(Z2, 40)
    scans = _spy_scans(monkeypatch)
    m = estimate_moduli(phi, W_H, W_G, 12)
    assert scans == [LANE if spread == 127 else BYTE_ROWS]
    for name, value in _reference_moduli(phi, W_H, W_G, 12).items():
        assert getattr(m, name) == value, name


@pytest.mark.parametrize("images,want", [
    # not injective: the only pair at dH = 2 has dG = 0
    ([0, 1, 0], {(1, 1), (2, 0)}),
    ([3, 3, 3, 3], {(1, 0), (2, 0), (3, 0)}),
    # the only new extreme, dG = 4 at dH = 1, is in the last row
    ([0, 1, 5], {(1, 1), (1, 4), (2, 5)}),
], ids=["non-injective", "constant", "last-row"])
def test_l1_pair_keys_examples(images, want):
    elements = [(i,) for i in range(len(images))]
    images = [(x,) for x in images]
    assert _extremes(oracles.l1_pair_keys(elements, images)) == want
    assert coarse._l1_pair_keys(elements, images) == want


@settings(max_examples=200, deadline=None)
@given(keys=st.sets(st.tuples(st.none() | st.integers(0, 8), st.none() | st.integers(0, 8)),
                    max_size=40),
       radius_G=st.integers(0, 6), t_max=st.integers(0, 6))
def test_window_table_reads_only_the_extremes(keys, radius_G, t_max):
    # keys outside the table (dH None or above t_max) and misses (dG None
    # or above radius_G) are drawn too
    full = coarse._window_table(keys, radius_G, t_max)
    ext = coarse._window_table(_extremes(keys), radius_G, t_max)
    for name in ("t_max", "kappa", "omega", "truncated_at", "requested_t_max"):
        assert getattr(ext, name) == getattr(full, name), name


def test_one_l1_pair_scan_stays_under_a_mebibyte():
    # per-row byte lanes: a buffer across all 720,600 pairs of B(24) would
    # take megabytes
    phi = _seeded_table_map(0, 24)
    elements = build_window(Z2, 24).elements
    images = [phi.fn(h) for h in elements]
    tracemalloc.start()
    try:
        coarse._l1_pair_keys(elements, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_estimate_moduli_truncates_on_a_small_target():
    phi = _seeded_table_map(3, 4)
    W_H, W_G = build_window(Z2, 4), build_window(Z2, 5)
    m = estimate_moduli(phi, W_H, W_G, 8)
    want = _reference_moduli(phi, W_H, W_G, 8)
    assert 0 < m.t_max < 8
    for name, value in want.items():
        assert getattr(m, name) == value, name


MODULI_FIELDS = ("t_max", "kappa", "omega", "requested_t_max", "provenance", "truncated_at")

# generators of GL_2(Z): elementary shears, the coordinate swap, a reflection
GL2_GENERATORS = [(1, k, 0, 1) for k in (-2, -1, 1, 2)] + [
    (1, 0, k, 1) for k in (-2, -1, 1, 2)] + [(0, 1, 1, 0), (-1, 0, 0, 1)]


def _matmul(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.sampled_from(GL2_GENERATORS), max_size=4),
       r_H=st.integers(1, 5), t_frac=st.integers(1, 4), r_G=st.integers(1, 16))
def test_homomorphic_pass_matches_the_pair_scan_on_gl2z(word, r_H, t_frac, r_G):
    # small target windows truncate the table; t_max above r_H builds the
    # separate difference ball
    A = (1, 0, 0, 1)
    for M in word:
        A = _matmul(A, M)
    phi = make_coarse_map("matrix:" + ",".join(map(str, A)), Z2, Z2)
    assert phi.homomorphic and phi.stretch is None
    W_H, W_G = build_window(Z2, r_H), build_window(Z2, r_G)
    t_max = max(1, 2 * r_H * t_frac // 4)
    fast = homomorphic_moduli(phi, W_H, W_G, t_max)
    scan = estimate_moduli(phi, W_H, W_G, t_max)
    for name in MODULI_FIELDS:
        assert getattr(fast, name) == getattr(scan, name), name


@pytest.mark.parametrize("desc,r_H,r_G,t_max", [
    ("C_5 x Z^1", 4, 3, 8),
    ("C_5", 4, 4, 8),
    ("F_2", 3, 4, 6),
    ("Heis", 3, 3, 5),
    ("Heis", 3, 8, 6),
])
def test_homomorphic_pass_matches_the_pair_scan_on_other_groups(desc, r_H, r_G, t_max):
    # C_5 runs out of spheres (trim); the small targets truncate
    G = make_group(desc)
    phi = make_coarse_map("identity", G, G)
    W_H, W_G = build_window(G, r_H), build_window(G, r_G)
    fast = homomorphic_moduli(phi, W_H, W_G, t_max)
    scan = estimate_moduli(phi, W_H, W_G, t_max)
    for name in MODULI_FIELDS:
        assert getattr(fast, name) == getattr(scan, name), name


def test_pipeline_takes_the_homomorphic_pass_only_for_homomorphisms():
    # t_max 0 is capped at 2*rH, as in the pair scan
    W_H, W_G = build_window(Z2, 4), build_window(Z2, 16)
    shear = make_coarse_map("matrix:1,1,0,1", Z2, Z2)
    m = pipeline_moduli(shear, W_H, W_G)
    assert (m.t_max, m.requested_t_max, m.pair_counts) == (8, 8, None)
    table = _seeded_table_map(1, 4)
    assert not table.homomorphic
    assert pipeline_moduli(table, W_H, W_G).pair_counts is not None


@pytest.mark.parametrize("desc,H,G", [
    ("identity", Z2, Z2),
    ("scale:2", Z2, Z2),
    ("embed", Z, Z2),
    ("swap", F2, F2),
    ("matrix:2,1,1,1", Z2, Z2),
])
def test_homomorphic_flag_is_truthful(desc, H, G):
    phi = make_coarse_map(desc, H, G)
    assert phi.homomorphic
    ball = build_window(H, 3).elements
    for a in ball:
        for b in ball:
            assert apply(phi, H.mul(a, b)) == G.mul(apply(phi, a), apply(phi, b))


@pytest.mark.parametrize("desc,H,G", [
    ("identity", Z2, Z2),
    ("scale:3", Z2, Z2),
    ("embed", Z, Z2),
    ("swap", F2, F2),
])
def test_stretch_is_truthful(desc, H, G):
    # the stretch is exact, not only a bound: every distance is multiplied by it
    phi = make_coarse_map(desc, H, G)
    ball = build_window(H, 3).elements
    far = build_window(H, 6)
    near = build_window(G, 6 * phi.stretch)
    for a in ball:
        for b in ball:
            assert (distance(near, apply(phi, a), apply(phi, b))
                    == phi.stretch * distance(far, a, b))
