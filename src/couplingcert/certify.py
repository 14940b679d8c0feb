"""Executable verdicts for the quantitative claims of the coupling
construction, restricted to orbit points and finite windows.

Every check returns a :class:`CheckResult` with an extremal witness, an
exact rational margin and the population of instances examined; its
status in ``{pass, fail, vacuous}`` follows from them: ``vacuous`` when
the population is empty (always reported, never silently passed), else
``pass`` iff the margin is >= 0.

Checks run on orbit points g.psi.h only; the closure of the orbit is not
materializable, and the underlying estimates transfer to limits by
continuity.  Certificates are orbit-scale statements.  The pipeline
certifies an orbit point from its ``(g, h)`` pair: each check reads the
coordinates it needs through ``psi`` and builds no orbit-point object.

:func:`validate_config` holds the one copy of every rule on a run's
input, a :class:`RunConfig` (integer and string fields, radii, eval
radius, check names, epsilon); ``run_all`` calls it at its ``configure``
stage, and the CLI before any subcommand runs.  :func:`make_models` turns
its descriptors into the group models and the map, for both.  A run sets
no scale, core radius or moduli extent: ``run_all`` derives the scale
``s`` from the moduli table (:func:`couplingcert.coarse.choose_scale`), the
core radius from ``radius_G``, and the table's extent from ``radius_H``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from typing import Callable, Optional, Union, get_type_hints

from .coarse import (
    CoarseMap,
    Moduli,
    choose_scale,
    cobounded_radius,
    make_coarse_map,
    pipeline_moduli,
)
from .coupling import (
    PartitionOfUnity,
    act_left,
    build_partition,
    l1_distance,
    psi,
    support_diameter,
    support_distance,
)
from .errors import (
    CouplingCertError,
    PipelineError,
    PreconditionError,
    ResolutionError,
    require_int,
)
from .groups import make_group
from .windows import (Window, ball_window, build_window, distance_field, distances_from,
                      pair_extremes, set_distance)

SAMPLE_CAP = 10_000

CHECK_NAMES = (
    "cocompactness_h",
    "g_action",
    "lipschitz",
    "membership_x",
    "properness_h",
    "sandwich",
)


class RunConfig:
    def __init__(self, group_H: str = "Z^1", group_G: str = "Z^1",
                 map_descriptor: str = "identity", radius_H: int = 24, radius_G: int = 40,
                 eval_radius: int = 8, seed: int = 0, epsilon: Union[str, Fraction] = "1/2",
                 checks: Optional[list] = None, output_path: Optional[str] = None):
        self.group_H = group_H
        self.group_G = group_G
        self.map_descriptor = map_descriptor
        self.radius_H = radius_H
        self.radius_G = radius_G
        self.eval_radius = eval_radius
        self.seed = seed
        self.epsilon = epsilon
        self.checks = checks
        self.output_path = output_path

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


_HINTS = get_type_hints(RunConfig.__init__)
INT_FIELDS = tuple(name for name, hint in _HINTS.items() if hint is int)
# fields annotated str, or Optional[str] (None allowed)
STR_FIELDS = tuple(name for name, hint in _HINTS.items() if hint in (str, Optional[str]))


class CheckResult:
    def __init__(self, name: str, witness: Optional[dict], margin: Optional[Fraction],
                 population: int, details: Optional[dict] = None):
        self.name = name
        self.witness = witness
        self.margin = margin
        self.population = population
        self.details = {} if details is None else details

    @property
    def status(self) -> str:
        if self.population == 0:
            return "vacuous"
        return "pass" if self.margin >= 0 else "fail"


class Certificate:
    def __init__(self, constants: dict, checks: list, window_metadata: dict):
        self.constants = constants
        self.checks = checks
        self.window_metadata = window_metadata

    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_report(self) -> dict:
        return {
            "constants": _canon(self.constants),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "margin": _canon(c.margin),
                    "witness": _canon(c.witness),
                    "population": c.population,
                    "details": _canon(c.details),
                }
                for c in sorted(self.checks, key=lambda c: c.name)
            ],
            "window_metadata": _canon(self.window_metadata),
        }


def fmt_rat(x) -> str:
    return str(Fraction(x))


def validate_config(config: RunConfig) -> tuple:
    """(selected check names, epsilon) of a run configuration; a
    PreconditionError names the first value of the wrong type or out of
    range."""
    for name in INT_FIELDS:
        require_int(name, getattr(config, name))
    for name in STR_FIELDS:
        value = getattr(config, name)
        optional = _HINTS[name] is not str
        if not (isinstance(value, str) or optional and value is None):
            raise PreconditionError(
                f"{name} must be a string{' or None' if optional else ''}, got {value!r}")
    checks = config.checks
    if checks is not None and not (isinstance(checks, (list, tuple)) and checks
                                   and all(isinstance(c, str) for c in checks)):
        # None selects all six; an empty selection is refused rather than read as all
        raise PreconditionError(f"checks must be a nonempty list of check names, got {checks!r}")
    if config.radius_H <= 0 or config.radius_G <= 0 or config.eval_radius < 0:
        raise PreconditionError("window radii must be positive and eval radius nonnegative")
    selected = set(CHECK_NAMES) if checks is None else set(checks)
    unknown = selected - set(CHECK_NAMES)
    if unknown:
        raise PreconditionError(f"unknown checks: {sorted(unknown)}")
    return selected, parse_epsilon(config.epsilon)


def make_models(config: RunConfig) -> tuple:
    """(H, G, phi): the group models and the coarse map that a run
    configuration's descriptors name."""
    H = make_group(config.group_H)
    G = make_group(config.group_G)
    return H, G, make_coarse_map(config.map_descriptor, H, G)


def parse_epsilon(value) -> Fraction:
    """The [K, eps] membership threshold as an exact rational in (0, 1]; a
    float (binary, so 0.1 is not 1/10) or a bool is refused."""
    if isinstance(value, (float, bool)):
        raise PreconditionError(f"epsilon must be an exact rational, got {value!r}")
    try:
        eps = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise PreconditionError(f"epsilon must be an exact rational, got {value!r}") from None
    if not 0 < eps <= 1:
        raise PreconditionError(f"epsilon must lie in (0, 1], got {value!r}")
    return eps


def _canon(value):
    """Canonical JSON form: rationals become num/den strings, dict keys
    are sorted, tuples become lists."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, Fraction):
        return fmt_rat(value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(value[k]) for k in sorted(value, key=str)}
    raise TypeError(f"value {value!r} is not canonically serializable")


class _Worst:
    """Track the minimum margin and its witness; the first one wins ties.

    ``update`` compares the raw int or Fraction margin against the raw
    least one, and only a strict improvement builds the Fraction and the
    witness: a callable witness is called then, so hot loops format nothing
    for the instances that lose.
    """

    def __init__(self):
        self.margin: Optional[Fraction] = None
        self.witness: Optional[dict] = None
        self._least = None

    def update(self, margin, witness) -> None:
        if self._least is None or margin < self._least:
            self._least = margin
            self.margin = Fraction(margin)
            self.witness = witness() if callable(witness) else witness


def check_membership_x(
    labeled_points: list,
    W_G: Window,
    two_omega: int,
) -> CheckResult:
    """Each density must be a convex combination of unit-ball blocks over a
    3-discrete center set of diameter <= 2*omega(s+1)."""
    worst = _Worst()
    diam_worst = _Worst()
    sep_worst = _Worst()
    fmt = W_G.group.format_element
    for label, dens in labeled_points:
        coeffs = [a for _, a in dens.block_coefficients()]
        if any(a < 0 for a in coeffs) or sum(coeffs, Fraction(0)) != 1:
            worst.update(-1, {"point": label, "reason": "not a convex combination"})
            continue
        # an unresolved distance exceeds the window radius >= 3
        least, pair, diam = pair_extremes(W_G, [z for z, _ in dens.blocks])
        if least is not None:
            sep_worst.update(least - 3, lambda: {"point": label, "pair": [fmt(z) for z in pair],
                                                 "reason": "center separation"})
        if diam is None:
            diam_worst.update(two_omega - (W_G.radius + 1),
                              {"point": label, "reason": "diameter exceeds window radius"})
        else:
            diam_worst.update(two_omega - diam, {"point": label, "reason": "diameter",
                                                 "diameter": diam})
    if not labeled_points:
        return CheckResult("membership_x", None, None, 0)
    for w in (diam_worst, sep_worst):
        if w.margin is not None:
            worst.update(w.margin, w.witness)
    return CheckResult(
        "membership_x", worst.witness, worst.margin, len(labeled_points),
        details={"diameter_bound": two_omega,
                 "worst_diameter_margin": diam_worst.margin,
                 "worst_separation_margin": sep_worst.margin},
    )


def check_lipschitz(
    P: PartitionOfUnity,
    pair_window: Window,
    psi_of: Callable,
) -> CheckResult:
    """L1 increments of psi are bounded by 2*M*N times the source distance,
    over every unordered pair of inner-window points."""
    M, N = P.M, P.N
    coeff = 2 * M * N
    c_num, c_den = coeff.numerator, coeff.denominator
    # rationals are compared as integer pairs by cross-multiplication: the
    # least margin coeff*t - l1 (first one wins ties) and the largest l1/t
    worst = None  # (margin numerator, margin denominator, f1, f2, t, l1)
    top_num, top_den = 0, 1
    population = 0
    inner = P.inner_elements
    for i, f1 in enumerate(inner):
        d1 = psi_of(f1)
        rest = inner[i + 1:]
        for f2, t in zip(rest, distances_from(pair_window, f1, rest)):
            val = l1_distance(d1, psi_of(f2))
            p, r = val.numerator, val.denominator
            m_num, m_den = c_num * t * r - p * c_den, c_den * r
            if worst is None or m_num * worst[1] < worst[0] * m_den:
                worst = (m_num, m_den, f1, f2, t, val)
            if p * top_den > top_num * r * t:
                top_num, top_den = p, r * t
            population += 1
    if population == 0:
        return CheckResult("lipschitz", None, None, 0)
    m_num, m_den, f1, f2, t, val = worst
    fmt = P.window_H.group.format_element
    return CheckResult(
        "lipschitz", {"pair": [fmt(f1), fmt(f2)], "distance": t, "l1": val},
        Fraction(m_num, m_den), population,
        details={"bound_coefficient": coeff,
                 "tightest_constant": Fraction(top_num, top_den), "M": M, "N": N},
    )


def check_sandwich(
    P: PartitionOfUnity,
    samples: list,
    eval_radius: int,
    m: Moduli,
    W_G: Window,
    pair_window: Window,
    psi_of: Callable,
) -> CheckResult:
    """Support distances of orbit coordinates are sandwiched between
    kappa(d) - 2*omega(s+1) - 2 and omega(d) + 2*omega(s+1) + 2.

    A sample (g, h) is the orbit point g.psi.h on the f's of B(eval_radius).
    By left-invariance the support distance of (g.psi.h)_f1 and
    (g.psi.h)_f2 is that of psi_{h f1} and psi_{h f2}, so the witness
    carries no g: distinct h are walked once, in first-seen order, and
    counted with their multiplicity.  The evaluation pairs do not depend
    on h and distinct coordinate pairs are evaluated once.
    """
    if not 0 <= eval_radius <= P.inner_radius:
        raise PreconditionError(f"eval radius {eval_radius} is outside [0, {P.inner_radius}]")
    fs = P.window_H.ball(eval_radius)
    pairs = []   # (i, j, t, kappa(t), omega(t)) for f_i, f_j at distance t
    unsupported = 0
    for i, f1 in enumerate(fs):
        for j, t in enumerate(distances_from(pair_window, f1, fs[i + 1:]), start=i + 1):
            kap, ome = m.kappa_at(t), m.omega_at(t)
            if kap is None or ome is None:
                unsupported += 1
            else:
                pairs.append((i, j, t, kap, ome))
    pad = P.support_diameter_bound
    fmt = P.window_H.group.format_element
    lower_worst = _Worst()
    upper_worst = _Worst()
    cache: dict = {}
    population = 0
    skipped = 0
    for h, mult in Counter(h for _, h in samples).items():
        hf = P.inner_translates(h, fs)
        for i, j, t, kap, ome in pairs:
            a, b = hf[i], hf[j]
            key = (a, b) if a <= b else (b, a)
            sd = cache.get(key)
            if sd is None:
                sd = support_distance(psi_of(a), psi_of(b), W_G)
                cache[key] = sd
            wit = lambda: {"pair": [fmt(fs[i]), fmt(fs[j])], "h": fmt(h),
                           "distance": t, "support_distance": sd}
            lower_worst.update(sd - (kap - pad), wit)
            upper_worst.update((ome + pad) - sd, wit)
        population += len(pairs) * mult
        skipped += unsupported * mult
    if population == 0:
        return CheckResult("sandwich", None, None, 0,
                           details={"skipped_unsupported_t": skipped})
    margin = min(lower_worst.margin, upper_worst.margin)
    witness = (lower_worst if lower_worst.margin <= upper_worst.margin else upper_worst).witness
    return CheckResult(
        "sandwich", witness, margin, population,
        details={
            "lower_margin": lower_worst.margin,
            "upper_margin": upper_worst.margin,
            "skipped_unsupported_t": skipped,
            "distinct_coordinate_pairs": len(cache),
        },
    )


def check_properness_h(
    P: PartitionOfUnity,
    phi: CoarseMap,
    zeta_samples: list,
    K: list,
    m: Moduli,
    W_G: Window,
    epsilon: Fraction,
    psi_of: Callable,
    diam_K: int,
    threshold,
    field_of_K: Optional[Callable[[], dict]] = None,
) -> CheckResult:
    """For h with kappa(d(h,1)) above ``threshold``, the h-slice of any
    orbit point meeting [K, eps] at the identity has support disjoint from
    K.  The pipeline's threshold is diam(K) + 2*omega(s+1) + 2.

    kappa is nondecreasing, so those h are one shell of the source window.
    By left-invariance d(a, g^-1 k) = d(g.a, k): a slice of the sample
    zeta = g.psi_h0 is measured untranslated against one distance field of
    K, built only when the shell is non-empty: ``field_of_K()``, which a
    run shares with :func:`check_g_action` (:func:`_field_once`).
    """
    G = phi.target
    H = phi.source
    K_set = set(K)
    worst = _Worst()
    confinement = _Worst()
    population = 0
    margin_is_floor = False
    far = _far_shell(P.window_H, m, threshold)
    to_K_get = (field_of_K or _field_once(W_G, K))().get if far else None
    for g, h0 in zeta_samples:
        zeta_1 = act_left(g, psi_of(h0))
        if zeta_1.inner_product(K_set) < epsilon:
            raise PreconditionError(
                "a zeta sample does not meet [K, epsilon] at the identity"
            )
        # members of [K, eps] stay confined near K: the finite-window
        # analogue of the compactness of [K, eps]
        for a in zeta_1.support():
            d = set_distance(W_G, [a], K)
            if d is None:
                raise ResolutionError("support-to-K distance does not resolve")
            confinement.update(P.support_diameter_bound - d,
                               lambda: {"zeta": [G.format_element(g), H.format_element(h0)],
                                        "atom": G.format_element(a)})
        for h in far:
            h0h = H.mul(h0, h)
            if not P.is_inner(h0h):
                continue
            margin, meet, floor = _K_margin(to_K_get, G.mul, g, psi_of(h0h).atoms, W_G.radius)
            margin_is_floor |= floor
            worst.update(margin, lambda: {
                "h": H.format_element(h), "zeta": [G.format_element(g), H.format_element(h0)],
                **({} if meet is None else {"meeting_point": G.format_element(G.mul(g, meet))})})
            population += 1
    if population == 0:
        return CheckResult(
            "properness_h", None, None, 0,
            details={"threshold": threshold, "diam_K": diam_K,
                     "confinement_margin": confinement.margin},
        )
    if confinement.margin is not None:
        worst.update(confinement.margin, confinement.witness)
    return CheckResult(
        "properness_h", worst.witness, worst.margin, population,
        details={"threshold": threshold, "diam_K": diam_K,
                 "margin_is_floor": margin_is_floor,
                 "confinement_margin": confinement.margin},
    )


def check_cocompactness_h(
    P: PartitionOfUnity,
    phi: CoarseMap,
    samples: list,
    m: Moduli,
    R: int,
    W_G: Window,
    psi_of: Callable,
    K_radius: int,
) -> CheckResult:
    """Every sampled orbit point right-translates into
    {xi : xi_1 in [K, 1/2]} for K the ball of radius ``K_radius``; the
    pipeline's is R + omega(s+1) + 1.

    The witness f is searched in BFS order; integer word metrics make the
    search exhaustive over the ball of radius r, so no 1/(5MN)-dense net
    is needed.  When the inner window truncates the search below r, a
    found witness still certifies the instance; exhausting the full
    r-ball without one is a failure, and truncation without a witness is
    a window-size error.
    """
    H, G = phi.source, phi.target
    if K_radius > W_G.radius:
        raise PreconditionError(
            f"K radius {K_radius} exceeds the target window radius {W_G.radius}"
        )
    K_set = set(W_G.ball(K_radius))
    half = Fraction(1, 2)
    worst = _Worst()
    population = 0
    truncated = 0
    r_seen = []
    for g, h in samples:
        xi_1 = act_left(g, psi_of(h))
        diam_C = support_diameter(xi_1, W_G)
        dists = [W_G.dist.get(c) for c in xi_1.atoms]
        if diam_C is None or any(d is None for d in dists):
            raise ResolutionError(
                "the support of a sampled orbit point straddles the target "
                "window edge; enlarge the window or shrink the sample radii"
            )
        d_C1 = min(dists)
        bound = P.omega_s1 + 1 + diam_C + d_C1 + R
        r = _kappa_sublevel_radius(m, bound)
        f_cap = P.inner_radius - P.window_H.dist.get(h)
        search_radius = f_cap if r is None else min(r, f_cap)
        found = None
        best_ip = Fraction(0)
        for f in P.window_H.ball(search_radius):
            ip = act_left(g, psi_of(H.mul(h, f))).inner_product(K_set)
            if ip > best_ip:
                best_ip = ip
            if ip >= half:
                found = f
                break
        wit = {"g": G.format_element(g), "h": H.format_element(h),
               "r": "unresolved" if r is None else r}
        r_seen.append(-1 if r is None else r)
        if found is not None:
            worst.update(best_ip - half, dict(wit, f=H.format_element(found)))
            if r is None or r > f_cap:
                truncated += 1
        elif r is not None and r <= f_cap:
            worst.update(best_ip - half, wit)
        else:
            raise ResolutionError(
                f"witness search truncated at radius {search_radius} below "
                f"r={'>' + str(m.t_max) if r is None else r}; enlarge the source window"
            )
        population += 1
    if population == 0:
        return CheckResult("cocompactness_h", None, None, 0)
    return CheckResult(
        "cocompactness_h", worst.witness, worst.margin, population,
        details={
            "K_radius": K_radius,
            "R": R,
            "max_r": max(r_seen),
            "witness_searches_truncated": truncated,
            "search": "exhaustive over the r-ball (integer metric); no 1/(5MN) net",
        },
    )


def _kappa_sublevel_radius(m: Moduli, bound) -> Optional[int]:
    """Largest t with kappa(t) <= bound, -1 if none; None when the whole table
    stays below the bound.  Every kappa table is nondecreasing: one bisection."""
    r = bisect_right(m.kappa, bound, 0, m.t_max + 1) - 1
    return None if r == m.t_max else r


def _far_shell(W: Window, m: Moduli, threshold) -> list:
    """The h of W with kappa(|h|) > threshold, in BFS order: one shell."""
    r = _kappa_sublevel_radius(m, threshold)
    return [] if r is None else W.shell(r, m.t_max)


def _K_margin(to_K_get, mul, t, atoms, floor) -> tuple:
    """(margin, meeting atom, is_floor) of the translate t.atoms against K,
    read off a distance field of K: -1 and the first atom a with t.a in K;
    else the least distance minus 1, or ``floor`` when none resolves."""
    d = None
    for a in atoms:
        da = to_K_get(mul(t, a))
        if da == 0:
            return -1, a, False
        if da is not None and (d is None or da < d):
            d = da
    return (floor, None, True) if d is None else (d - 1, None, False)


def _field_once(W: Window, sources: list) -> Callable[[], dict]:
    """``distance_field(W, sources)``, built at the first call and returned
    again by every later one."""
    return cache(partial(distance_field, W, sources))


def _reach(dist_get, points) -> Optional[int]:
    """The largest window length over ``points`` (0 for none), or None when
    one of them lies outside the window."""
    lengths = [dist_get(x) for x in points]
    return None if None in lengths else max(lengths, default=0)


def _g_properness(
    phi: CoarseMap,
    qualifying: list,
    K_G: list,
    W_G: Window,
    g_candidates: list,
    field_of_K: Optional[Callable[[], dict]] = None,
) -> tuple:
    """The properness part of :func:`check_g_action`: (least margin, its
    witness, margin_is_floor, population) over every (candidate, sample)
    pair, the first pair winning ties; margin and witness are None when
    the population is empty.  ``g_candidates`` are (element, word length)
    pairs.

    A pair's margin is :func:`_K_margin` of the candidate's translate of
    the sample's support: -1 when it meets K_G, else the least
    support-to-K_G distance minus 1, and the floor W_G.radius when no
    distance resolves in the window.  The generating sets are symmetric,
    so d(gc.a, k) >= |gc| - |a| - |k|: a pair with
    |gc| - reach(atoms) - reach(K_G) > W_G.radius, reach being the largest
    W_G length over a set, resolves no distance and takes the floor
    without translating an atom.  The distance field of K_G,
    ``field_of_K()``, is read from the first pair this bound cannot
    settle, so never built when all are floor pairs; a point outside W_G
    has no reach and turns the bound off.
    """
    if not (g_candidates and qualifying):
        return None, None, False, 0
    dist_get = W_G.dist.get
    reach_K = _reach(dist_get, K_G)
    # reach(atoms) + reach(K_G) per sample, None when the bound is off
    reaches = [None if reach_K is None or (r_a := _reach(dist_get, xi_1.atoms)) is None
               else r_a + reach_K for _, _, xi_1 in qualifying]
    radius = W_G.radius
    to_K_get = None
    mul = phi.target.mul
    margin_is_floor = False
    best = None  # (margin, candidate, sample g, sample h, meeting atom)
    for gc, length in g_candidates:
        for (g, h, xi_1), reach in zip(qualifying, reaches):
            if reach is not None and length - reach > radius:
                margin, meet, floor = radius, None, True
            else:
                if to_K_get is None:
                    # one BFS from K_G resolves every support-to-K_G distance;
                    # the field holds exactly the points of K_G at 0, so a 0
                    # is a meeting point
                    to_K_get = (field_of_K or _field_once(W_G, K_G))().get
                margin, meet, floor = _K_margin(to_K_get, mul, gc, xi_1.atoms, radius)
            margin_is_floor |= floor
            if best is None or margin < best[0]:
                best = (margin, gc, g, h, meet)
    margin, gc, g, h, meet = best
    fmtG = phi.target.format_element
    witness = {"g": fmtG(gc), "xi": [fmtG(g), phi.source.format_element(h)]}
    if meet is not None:
        witness["meeting_point"] = fmtG(mul(gc, meet))
    return margin, witness, margin_is_floor, len(g_candidates) * len(qualifying)


def check_g_action(
    P: PartitionOfUnity,
    phi: CoarseMap,
    xi_samples: list,
    K_G: list,
    epsilon: Fraction,
    W_G: Window,
    g_candidates: list,
    psi_of: Callable,
    tau: int,
    recenter_bound: int,
    field_of_K: Optional[Callable[[], dict]] = None,
) -> CheckResult:
    """Properness and cocompactness of the left action.

    (a) properness: translates of [K_G, eps] by far g miss it -- supports
    become disjoint from K_G beyond tau = 2*omega(s+1) + 2 + 2*diam(K_G),
    the bound the caller drew ``g_candidates``, (element, word length)
    pairs, past.  A pair whose length alone puts every translate beyond
    W_G by the triangle bound takes the floor margin untranslated, and the
    distance field of K_G, ``field_of_K()`` (shared with
    :func:`check_properness_h` in a run), is built only for a pair the
    bound cannot settle (see :func:`_g_properness`);
    (b) cocompactness: recentring the BFS-least support point confines any
    sampled orbit support in the ball of radius ``recenter_bound`` (the
    pipeline's is 4*omega(s+1) + 4) with full mass;
    (c) the ingredient diameter bound diam(supp psi_h) <= 2*omega(s+1) + 2,
    exhaustively over the inner window.
    """
    G = phi.target
    fmtG = G.format_element
    K_set = set(K_G)
    worst = _Worst()
    qualifying = []
    for g, h in xi_samples:
        xi_1 = act_left(g, psi_of(h))
        if xi_1.inner_product(K_set) >= epsilon:
            qualifying.append((g, h, xi_1))
    margin, witness, margin_is_floor, pop_proper = _g_properness(
        phi, qualifying, K_G, W_G, g_candidates, field_of_K)
    if pop_proper:
        worst.update(margin, witness)

    pop_recenter = 0
    for g, h, xi_1 in qualifying or [
        (W_G.group.identity, phi.source.identity,
         act_left(W_G.group.identity, psi_of(phi.source.identity)))
    ]:
        supp = xi_1.support()
        if not all(map(W_G.dist.__contains__, supp)):
            raise ResolutionError("support of a sample leaves the target window")
        least = next(a for a in W_G.elements if a in xi_1.atoms)
        lengths = distances_from(W_G, least, supp)
        m_len = max(lengths)
        # mass of the recentred density inside the recentring ball
        ip = xi_1.inner_product({a for a, l in zip(supp, lengths) if l <= recenter_bound})
        wit = {"xi": [fmtG(g), phi.source.format_element(h)],
               "recentring_g": fmtG(G.inv(least)), "max_length": m_len}
        worst.update(recenter_bound - m_len, wit)
        worst.update(ip - 1, wit)  # full mass must sit inside the ball
        pop_recenter += 1

    pop_diam = 0
    for h in P.inner_elements:
        diam = support_diameter(psi_of(h), W_G)
        if diam is None:
            raise ResolutionError("inner support diameter does not resolve")
        worst.update(P.support_diameter_bound - diam,
                     lambda: {"h": phi.source.format_element(h), "diameter": diam,
                              "reason": "support diameter"})
        pop_diam += 1

    population = pop_proper + pop_recenter + pop_diam
    if population == 0:
        return CheckResult("g_action", None, None, 0,
                           details={"properness_threshold": tau})
    return CheckResult(
        "g_action", worst.witness, worst.margin, population,
        details={
            "properness_threshold": tau,
            "properness_population": pop_proper,
            "recenter_bound": recenter_bound,
            "recenter_population": pop_recenter,
            "diameter_population": pop_diam,
            "margin_is_floor": margin_is_floor,
        },
    )


def _stratified_sample(pairs: list, stratum: Callable, cap: int, seed: int) -> list:
    """Deterministic seeded subsample, proportionally by ``stratum(pair)``;
    strata are computed only when the pairs exceed the cap."""
    if len(pairs) <= cap:
        return pairs
    rnd = random.Random(seed)
    by_stratum: dict = {}
    for p in pairs:
        by_stratum.setdefault(stratum(p), []).append(p)
    out = []
    for s in sorted(by_stratum):
        bucket = by_stratum[s]
        want = max(1, cap * len(bucket) // len(pairs))
        out.extend(bucket if len(bucket) <= want else rnd.sample(bucket, want))
    return out


def run_all(config) -> Certificate:
    """Run the full pipeline and aggregate the certificate.

    Deterministic given the config (including the seed): windows are BFS
    ordered, samples are enumerated exhaustively below the sample cap, and
    every margin is an exact rational.  An input out of range fails at the
    ``configure`` stage, before any group is built.
    """
    stage = "configure"
    try:
        selected, epsilon = validate_config(config)

        stage = "groups"
        H, G, phi = make_models(config)

        stage = "windows"
        W_H = build_window(H, config.radius_H)
        W_G = build_window(G, config.radius_G)

        stage = "moduli"
        m = pipeline_moduli(phi, W_H, W_G)

        stage = "scale"
        s = choose_scale(m)
        if config.eval_radius + (s + 1) > config.radius_H:
            raise PreconditionError(
                f"eval radius {config.eval_radius} + (s+1) = "
                f"{config.eval_radius + s + 1} exceeds radius_H = {config.radius_H}"
            )

        stage = "coboundedness"
        core_radius = max(2, min(5, config.radius_G // 8))
        core = ball_window(W_G, core_radius)
        R = cobounded_radius(phi, W_H, core)

        stage = "partition"
        P = build_partition(W_H, W_G, phi, m, s)

        stage = "samples"
        if selected & {"lipschitz", "sandwich"}:
            pair_radius = 2 * P.inner_radius
            pair_window = ball_window(W_H, pair_radius)
        cache: dict = {}

        def psi_of(h):
            d = cache.get(h)
            if d is None:
                d = psi(P, phi, h)
                cache[h] = d
            return d

        h_rad = max(0, min(4, P.inner_radius - config.eval_radius))
        g_rad = min(core_radius, 4)
        hs = W_H.ball(h_rad)
        grid = [(g, h) for g in W_G.ball(g_rad) for h in hs]
        samples = _stratified_sample(
            grid, lambda p: W_G.dist.get(p[0]) + W_H.dist.get(p[1]),
            SAMPLE_CAP, config.seed)

        K_base = psi_of(H.identity).support()
        field_of_K = _field_once(W_G, K_base)
        diam_K = support_diameter(psi_of(H.identity), W_G)
        if diam_K is None:
            raise ResolutionError("diameter of K does not resolve in the target window")
        supp_bound = P.support_diameter_bound
        h_threshold = diam_K + supp_bound
        tau = supp_bound + 2 * diam_K
        K_radius = R + P.omega_s1 + 1
        recenter_bound = 2 * supp_bound

        checks = []
        if "membership_x" in selected:
            stage = "membership_x"
            pts = [(H.format_element(h), psi_of(h)) for h in P.inner_elements]
            checks.append(check_membership_x(pts, W_G, 2 * P.omega_s1))
        if "lipschitz" in selected:
            stage = "lipschitz"
            checks.append(check_lipschitz(P, pair_window, psi_of))
        if "sandwich" in selected:
            stage = "sandwich"
            checks.append(check_sandwich(P, samples, config.eval_radius, m, W_G,
                                         pair_window, psi_of))
        if "properness_h" in selected:
            stage = "properness_h"
            K_set = set(K_base)
            zetas = list(islice(
                ((g, h) for g, h in samples
                 if act_left(g, psi_of(h)).inner_product(K_set) >= epsilon), 8))
            checks.append(check_properness_h(
                P, phi, zetas or [(G.identity, H.identity)], K_base, m, W_G,
                epsilon, psi_of, diam_K, h_threshold, field_of_K))
        if "cocompactness_h" in selected:
            stage = "cocompactness_h"
            h_cc = min(h_rad, max(0, (P.inner_radius - config.eval_radius) // 3))
            cc_samples = [(g, h) for g, h in samples
                          if W_H.dist.get(h) <= h_cc][:64]
            checks.append(check_cocompactness_h(
                P, phi, cc_samples, m, R, W_G, psi_of, K_radius))
        if "g_action" in selected:
            stage = "g_action"
            aux = ball_window(W_G, tau + 2)
            g_candidates = [(gc, aux.dist[gc]) for gc in aux.shell(tau, tau + 2)[:512]]
            checks.append(check_g_action(
                P, phi, samples[:8], K_base, epsilon, W_G, g_candidates, psi_of, tau,
                recenter_bound, field_of_K))

        stage = "assemble"
        constants = {
            "s": Fraction(s),
            "M": P.M,
            "M_exact": P.M_exact,
            "m_slack": 0,  # no slack; kept for the pinned report digests
            "N_empirical": P.N_empirical,
            "N_apriori": P.N_apriori,
            "N_used": P.N,
            "omega_s_plus_1": P.omega_s1,
            "lipschitz_bound_2MN": 2 * P.M * P.N,
            "R": R,
            "core_radius": core_radius,
            "inner_radius": P.inner_radius,
            "cocompact_K_radius": K_radius,
            "properness_h_threshold": h_threshold,
            "g_properness_threshold": tau,
            "g_recenter_radius": recenter_bound,
            "net_size": len(P.net.points),
            "overlap_count": P.overlap_count,
        }
        window_metadata = {
            "group_H": H.descriptor,
            "group_G": G.descriptor,
            "map": phi.descriptor,
            "radius_H": config.radius_H,
            "radius_G": config.radius_G,
            "eval_radius": config.eval_radius,
            "seed": config.seed,
            "epsilon": epsilon,
            "moduli_provenance": m.provenance,
            "moduli_t_max": m.t_max,
            "sample_count": len(samples),
            "sample_g_radius": g_rad,
            "sample_h_radius": h_rad,
            "checks_selected": sorted(selected),
            "scope": "orbit-scale certificate on finite windows",
        }
        return Certificate(constants=constants, checks=checks,
                           window_metadata=window_metadata)
    except CouplingCertError as exc:
        raise PipelineError(stage, exc) from exc
