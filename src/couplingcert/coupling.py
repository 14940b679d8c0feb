"""The partition of unity, the map psi into exact sparse densities, and
the commuting left/right actions on orbit points.

All masses are exact rationals.  Haar measure on a discrete group is
counting measure scaled by 1/|B|, where B is the closed unit ball
(identity plus generators), so each indicator block ``zB`` has L1 mass
exactly 1 and every ``psi_h`` is a convex combination of disjointly
supported blocks.

The inner window is the ball of radius ``window_radius - (s+1)``: for h
inside it, every net point whose bump touches h lies in the window, so
Theta and the alpha weights are truncation-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coarse import CoarseMap, Moduli, apply
from .errors import CouplingCertError, PreconditionError, ResolutionError
from .windows import Net, Window, greedy_net, packing_number, resolved_distance


@dataclass
class PartitionOfUnity:
    scale: Fraction                     # s
    net: Net                            # Y, subset of the H-window
    images: list                        # Z = phi[Y], aligned with net.points
    window_H: Window
    inner_radius: int
    inner_elements: list
    N_empirical: Fraction
    N_apriori: Fraction
    overlap_count: int                  # max net points within s+1 of a window point
    M: int
    M_exact: bool
    omega_s1: int                       # omega(s+1)
    _theta_cache: dict = field(default_factory=dict, repr=False)
    net_inverses: list = field(init=False, repr=False)  # aligned with net.points

    def __post_init__(self):
        inv = self.window_H.group.inv
        self.net_inverses = [inv(y) for y in self.net.points]

    @property
    def N(self) -> Fraction:
        """Lipschitz constant used in certified bounds: the safe maximum."""
        return max(self.N_empirical, self.N_apriori)

    def theta_terms(self, h) -> list:
        """[(net index, theta_y(h))] for the net points with theta > 0."""
        hit = self._theta_cache.get(h)
        if hit is not None:
            return hit
        s1 = self.scale + 1
        below = math.ceil(s1) - 1  # integer d < s+1 exactly when d <= below
        W = self.window_H
        index_get, lengths, mul = W.index.get, W.lengths, W.group.mul
        terms = []
        for i, y_inv in enumerate(self.net_inverses):
            k = index_get(mul(y_inv, h))
            if k is not None and lengths[k] <= below:
                terms.append((i, s1 - lengths[k]))
        self._theta_cache[h] = terms
        return terms

    def Theta(self, h) -> Fraction:
        return sum((v for _, v in self.theta_terms(h)), Fraction(0))

    def alpha_terms(self, h) -> list:
        """[(net index, alpha_z(h))] over the support Z_h, in net order."""
        terms = self.theta_terms(h)
        total = sum((v for _, v in terms), Fraction(0))
        if total < 1:
            raise CouplingCertError(
                f"Theta < 1 at {self.window_H.group.format_element(h)}; "
                "point is outside the region covered by the net"
            )
        return [(i, v / total) for i, v in terms]

    def is_inner(self, h) -> bool:
        l = self.window_H.length_of(h)
        return l is not None and l <= self.inner_radius


def unit_ball(G) -> tuple:
    """The closed unit ball B = {identity} + generators, in fixed order."""
    return (G.identity, *G.generators)


@dataclass
class SparseDensity:
    """Finitely supported nonnegative rational density on the target group.

    ``atoms`` maps group elements to coefficients; the L1 mass of the
    density is ``sum(atoms.values()) * normalizer``.  Densities produced
    by ``psi`` keep their block decomposition ``[(z, alpha_z)]``.
    """

    group: object
    normalizer: Fraction
    atoms: dict
    blocks: Optional[list] = None

    def mass(self) -> Fraction:
        return sum(self.atoms.values(), Fraction(0)) * self.normalizer

    def support(self) -> list:
        return list(self.atoms.keys())

    def inner_product(self, subset) -> Fraction:
        """<xi | chi_K> = sum of atom weights over K, scaled by the measure."""
        if not isinstance(subset, (set, frozenset, dict)):
            subset = set(subset)
        total = Fraction(0)
        for a, w in self.atoms.items():
            if a in subset:
                total += w
        return total * self.normalizer


def build_partition(
    W_H: Window,
    W_G: Window,
    phi: CoarseMap,
    m: Moduli,
    s,
    m_slack: int = 0,
) -> PartitionOfUnity:
    """Assemble net, bumps, weights and the constants N and M."""
    s = Fraction(s)
    ks = m.kappa_at(int(s))
    if ks is None or ks < 3:
        raise PreconditionError(f"kappa({s}) = {ks} < 3; pick a larger scale")
    s1 = s + 1
    inner_radius = W_H.radius - int(s1)
    if inner_radius < 0:
        raise PreconditionError(
            f"window radius {W_H.radius} below s+1 = {s1}; no inner window"
        )
    omega_s1 = m.omega_at(int(s1))
    if omega_s1 is None:
        raise PreconditionError(f"omega({s1}) is not available in the moduli table")

    net = greedy_net(W_H, s)
    images = [apply(phi, y) for y in net.points]
    # kappa(s) >= 3 promises 3-discreteness of Z; verify it concretely
    for i, z in enumerate(images):
        for z2 in images[i + 1:]:
            d = resolved_distance(W_G, z, z2)
            if d is not None and d < 3:
                raise CouplingCertError(
                    f"net images {phi.target.format_element(z)} and "
                    f"{phi.target.format_element(z2)} are only {d} apart; "
                    "the moduli table overestimates kappa on this window"
                )

    P = PartitionOfUnity(
        scale=s,
        net=net,
        images=images,
        window_H=W_H,
        inner_radius=inner_radius,
        inner_elements=[e for e, l in zip(W_H.elements, W_H.lengths) if l <= inner_radius],
        N_empirical=Fraction(0),
        N_apriori=Fraction(0),
        overlap_count=0,
        M=0,
        M_exact=False,
        omega_s1=omega_s1,
    )

    # a-priori Lipschitz constant for the alphas: 1 + C*(s+1), C the worst
    # bump overlap over the window
    reach = math.floor(s1)  # integer d <= s+1 exactly when d <= reach
    index_get, lengths, mulH = W_H.index.get, W_H.lengths, W_H.group.mul
    C = 0
    for h in W_H.elements:
        cnt = 0
        for y_inv in P.net_inverses:
            k = index_get(mulH(y_inv, h))
            if k is not None and lengths[k] <= reach:
                cnt += 1
        C = max(C, cnt)
    P.overlap_count = C
    P.N_apriori = Fraction(1) + C * s1

    # empirical constant: worst alpha increment over adjacent inner pairs
    H = W_H.group
    alphas = {h: dict(P.alpha_terms(h)) for h in P.inner_elements}
    n_emp = Fraction(0)
    for h, a_h in alphas.items():
        for g in H.generators:
            a_h2 = alphas.get(H.mul(h, g))
            if a_h2 is None:
                continue
            for i in set(a_h) | set(a_h2):
                slope = abs(a_h.get(i, Fraction(0)) - a_h2.get(i, Fraction(0)))
                if slope > n_emp:
                    n_emp = slope
    P.N_empirical = n_emp

    pk = packing_number(W_G, 3, 2 * omega_s1)
    P.M = pk.value + m_slack
    P.M_exact = pk.exact and m_slack == 0
    return P


def psi(P: PartitionOfUnity, phi: CoarseMap, h) -> SparseDensity:
    """psi_h: the convex combination of indicator blocks zB over Z_h."""
    if not P.is_inner(h):
        raise PreconditionError(
            f"{P.window_H.group.format_element(h)} is outside the inner window "
            f"(radius {P.inner_radius})"
        )
    G = phi.target
    B = unit_ball(G)
    weights = P.alpha_terms(h)
    total = sum((a for _, a in weights), Fraction(0))
    if total != 1:
        raise CouplingCertError(f"partition weights sum to {total} != 1")
    if len(weights) > P.M:
        raise CouplingCertError(
            f"|Z_h| = {len(weights)} exceeds M = {P.M}; the packing bound is broken"
        )
    atoms = {}
    blocks = []
    for i, a in weights:
        z = P.images[i]
        blocks.append((z, a))
        for b in B:
            pt = G.mul(z, b)
            if pt in atoms:
                raise CouplingCertError(
                    f"blocks overlap at {G.format_element(pt)}; "
                    "Z_h is not 3-discrete (internal bug)"
                )
            atoms[pt] = a
    d = SparseDensity(
        group=G,
        normalizer=Fraction(1, len(B)),
        atoms=atoms,
        blocks=blocks,
    )
    if d.mass() != 1:
        raise CouplingCertError(f"psi mass {d.mass()} != 1")
    return d


def l1_distance(xi: SparseDensity, eta: SparseDensity) -> Fraction:
    """Exact L1 distance with respect to the scaled counting measure."""
    if xi.normalizer != eta.normalizer or xi.group.descriptor != eta.group.descriptor:
        raise PreconditionError("densities live on different measured groups")
    total = Fraction(0)
    for a, w in xi.atoms.items():
        total += abs(w - eta.atoms.get(a, Fraction(0)))
    for a, w in eta.atoms.items():
        if a not in xi.atoms:
            total += abs(w)
    return total * xi.normalizer


def support_distance(xi: SparseDensity, eta: SparseDensity, W_G: Window) -> int:
    """min d_G over supp(xi) x supp(eta); supports are genuine (no null sets)."""
    G = W_G.group
    mul, inv = G.mul, G.inv
    length_of = W_G.length_of
    best = None
    for a in xi.atoms:
        inv_a = inv(a)
        for b in eta.atoms:
            d = length_of(mul(inv_a, b))
            if d is not None and (best is None or d < best):
                best = d
                if best == 0:
                    return 0
    if best is None:
        raise ResolutionError(
            "no support distance resolves within the target window; enlarge it"
        )
    return best


def act_left(g, xi: SparseDensity) -> SparseDensity:
    """Left-regular translation: atoms move from a to g*a, weights fixed."""
    G = xi.group
    mul = G.mul
    return SparseDensity(
        group=G,
        normalizer=xi.normalizer,
        atoms={mul(g, a): w for a, w in xi.atoms.items()},
        blocks=None if xi.blocks is None else [(mul(g, z), a) for z, a in xi.blocks],
    )


@dataclass
class OrbitPoint:
    """g.psi.h on a finite evaluation window of f's, with coordinates
    (g.psi.h)_f = lambda(g) psi_{hf} computed on demand."""

    g: object
    h: object
    eval_window: Window
    P: PartitionOfUnity = field(repr=False)
    phi: CoarseMap = field(repr=False)

    def coord(self, f) -> SparseDensity:
        return act_left(self.g, psi(self.P, self.phi, self.phi.source.mul(self.h, f)))


def orbit_point(P: PartitionOfUnity, phi: CoarseMap, g, h, eval_window: Window) -> OrbitPoint:
    """Check that h*f stays in the inner window for every f of the
    evaluation window, so every coordinate is defined."""
    H = phi.source
    for f in eval_window.elements:
        hf = H.mul(h, f)
        if not P.is_inner(hf):
            raise PreconditionError(
                f"h*f = {H.format_element(hf)} escapes the inner window; "
                "shrink the evaluation radius or enlarge the source window"
            )
    return OrbitPoint(g=g, h=h, eval_window=eval_window, P=P, phi=phi)


def serialize_density(d: SparseDensity) -> str:
    """Stable text form: sorted atom lines, then block structure as comments."""
    G = d.group
    lines = []
    for a in sorted(d.atoms.keys()):
        w = d.atoms[a]
        lines.append(f"{G.format_element(a)} {w.numerator}/{w.denominator}")
    lines.append(f"# normalizer 1/{d.normalizer.denominator}")
    if d.blocks is not None:
        for z, a in d.blocks:
            lines.append(f"# block {G.format_element(z)} {a.numerator}/{a.denominator}")
    return "\n".join(lines) + "\n"
