"""The partition of unity, the map psi into exact sparse densities, and
the commuting left/right actions on orbit points.

All masses are exact rationals.  Haar measure on a discrete group is
counting measure scaled by 1/|B|, where B is the closed unit ball
(identity plus generators), so each indicator block ``zB`` has L1 mass
exactly 1 and every ``psi_h`` is a convex combination of disjointly
supported blocks.  A :class:`SparseDensity` is held as its blocks
``[(z, n_z)]`` and derives its atoms only when they are read: :func:`psi`
builds blocks only, and :func:`act_left` moves the centres only.

The scale s is an integer, as every word length is, so each bump value
theta_y(h) = s+1 - d(y, h) is a positive integer, and every atom of the
block zB of ``psi_h``, z = phi(y), carries theta_y(h) over the denominator
Theta(h)*|B|.  ``build_partition`` finds every theta_y(h) by walking each
net point's ball y*B(s+1) once; the same walk counts the bump overlap.
Inner products sum integers and build one ``Fraction`` per call, at the
boundary where a margin or report reads it; :func:`l1_sum`
returns an integer pair, which the Lipschitz check compares as it is.

Distances between two block densities depend only on their block centres:
the atom pairs of zB x z'B read the window lengths of b^-1 w b' over b, b'
in B, for w = z^-1 z'.  :func:`support_distance` and
:func:`support_diameter` read the least and greatest of those, the block
kernel of w, memoized per target window; :func:`l1_sum` matches the
centres the two densities share.

The inner window is the ball of radius ``window_radius - (s+1)``: for h
inside it, every net point whose bump touches h lies in the window, so
Theta and the alpha weights are truncation-free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .coarse import CoarseMap, Moduli, apply
from .errors import CouplingCertError, PreconditionError, ResolutionError, require_int
from .windows import Net, Window, greedy_net, packing_bound, pair_extremes


class PartitionOfUnity:
    def __init__(self, scale: int, net: Net, images: list, window_H: Window, inner_radius: int,
                 N_empirical: Fraction, N_apriori: Fraction, overlap_count: int, M: int,
                 omega_s1: int, thetas: dict):
        self.scale = scale                  # s
        self.net = net                      # Y, subset of the H-window
        self.images = images                # Z = phi[Y], aligned with net.points
        self.window_H = window_H
        self.inner_radius = inner_radius
        self.N_empirical = N_empirical
        self.N_apriori = N_apriori
        self.overlap_count = overlap_count  # max net points within s+1 of a window point
        self.M = M                          # volume bound on every |Z_h| (packing_bound)
        self.omega_s1 = omega_s1            # omega(s+1)
        self.thetas = thetas                # inner h -> [(net index, theta_y(h) > 0)]

    @property
    def N(self) -> Fraction:
        """Lipschitz constant used in certified bounds: the safe maximum."""
        return max(self.N_empirical, self.N_apriori)

    @property
    def inner_elements(self) -> list:
        """The inner window, in BFS order."""
        return self.window_H.ball(self.inner_radius)

    @property
    def support_diameter_bound(self) -> int:
        """2*omega(s+1) + 2: every supp psi_h has at most this diameter."""
        return 2 * self.omega_s1 + 2

    def alpha_terms(self, h) -> tuple:
        """(terms, total): alpha_y(h) = n/total for each (net index, n) of
        ``thetas[h]``, over the support Z_h in net order; total is Theta(h).
        Every n is at least 1, so Theta(h) < 1 exactly when Z_h is empty."""
        terms = self.thetas.get(h)
        if not terms:
            raise CouplingCertError(
                f"Theta < 1 at {self.window_H.group.format_element(h)}; "
                "point is outside the region covered by the net"
            )
        return terms, sum(n for _, n in terms)

    def is_inner(self, h) -> bool:
        l = self.window_H.dist.get(h)
        return l is not None and l <= self.inner_radius

    def inner_translates(self, h, fs) -> list:
        """[h*f for f in fs], each checked to lie in the inner window."""
        H = self.window_H.group
        out = [H.mul(h, f) for f in fs]
        for hf in out:
            if not self.is_inner(hf):
                raise PreconditionError(
                    f"h*f = {H.format_element(hf)} escapes the inner window; "
                    "shrink the evaluation radius or enlarge the source window"
                )
        return out


def unit_ball(G) -> tuple:
    """The closed unit ball B = {identity} + generators, in fixed order."""
    return (G.identity, *G.generators)


class SparseDensity:
    """Finitely supported nonnegative rational density on the target group,
    held as its blocks ``[(z, n_z)]``: each atom of the unit ball ``zB``
    carries the integer numerator ``n_z`` over the one integer
    ``denominator``.  The property ``atoms`` is derived from them on its
    first read (bind it once per call), as ``{z*b: n_z}`` in block order
    and then :func:`unit_ball` order, so the L1 mass is
    ``sum(atoms.values()) / denominator``.  The blocks of :func:`psi` are
    disjoint; where blocks overlap, the atoms count once.
    """

    def __init__(self, group, denominator: int, blocks: list):
        self.group = group
        self.denominator = denominator
        self.blocks = blocks
        self._atoms = None

    @property
    def atoms(self) -> dict:
        if self._atoms is None:
            mul = self.group.mul
            self._atoms = {mul(z, b): n for z, n in self.blocks for b in unit_ball(self.group)}
        return self._atoms

    def support(self) -> list:
        return list(self.atoms.keys())

    def inner_product(self, subset) -> Fraction:
        """<xi | chi_K> = the measure of the atoms in K."""
        if not isinstance(subset, (set, frozenset, dict)):
            subset = set(subset)
        return Fraction(sum(n for a, n in self.atoms.items() if a in subset),
                        self.denominator)

    def block_coefficients(self) -> list:
        """[(z, alpha_z)]: the convex weight of each block zB, so that the
        density is the sum of alpha_z * chi_{zB} under Haar measure."""
        size = len(unit_ball(self.group))
        return [(z, Fraction(n * size, self.denominator)) for z, n in self.blocks]


def build_partition(
    W_H: Window,
    W_G: Window,
    phi: CoarseMap,
    m: Moduli,
    s: int,
) -> PartitionOfUnity:
    """Assemble net, bumps, weights and the constants N and M."""
    require_int("scale", s)
    ks = m.kappa_at(s)
    if ks is None or ks < 3:
        raise PreconditionError(f"kappa({s}) = {ks} < 3; pick a larger scale")
    s1 = s + 1
    inner_radius = W_H.radius - s1
    if inner_radius < 0:
        raise PreconditionError(
            f"window radius {W_H.radius} below s+1 = {s1}; no inner window"
        )
    omega_s1 = m.omega_at(s1)
    if omega_s1 is None:
        raise PreconditionError(f"omega({s1}) is not available in the moduli table")

    net = greedy_net(W_H, s)
    images = [apply(phi, y) for y in net.points]
    # kappa(s) >= 3 promises 3-discreteness of Z; verify it concretely
    d, pair, _ = pair_extremes(W_G, images)
    if d is not None and d < 3:
        z, z2 = map(phi.target.format_element, pair)
        raise CouplingCertError(
            f"net images {z} and {z2} are only {d} apart; "
            "the moduli table overestimates kappa on this window"
        )

    # the bumps, and their worst overlap C over the window for the a-priori
    # Lipschitz constant 1 + C*(s+1) of the alphas
    thetas, C = _bump_walk(W_H, net.points, s, inner_radius)
    P = PartitionOfUnity(
        scale=s,
        net=net,
        images=images,
        window_H=W_H,
        inner_radius=inner_radius,
        N_empirical=Fraction(0),
        N_apriori=Fraction(1 + C * s1),
        overlap_count=C,
        M=0,
        omega_s1=omega_s1,
        thetas=thetas,
    )

    # empirical constant: worst alpha increment over the inner edges, each
    # walked once by one generator of each {g, g^-1} (the increment is
    # symmetric); |n1/T1 - n2/T2| is compared as |n1*T2 - n2*T1| over T1*T2
    H = W_H.group
    steps = [g for i, g in enumerate(H.generators) if H.inv(g) not in H.generators[:i]]
    alphas = {}
    for h in P.inner_elements:
        terms, total = P.alpha_terms(h)
        alphas[h] = (dict(terms), total)
    best_num, best_den = 0, 1
    for h, (a_h, t_h) in alphas.items():
        for g in steps:
            hit = alphas.get(H.mul(h, g))
            if hit is None:
                continue
            a_h2, t_h2 = hit
            den = t_h * t_h2
            for i in a_h.keys() | a_h2.keys():
                num = abs(a_h.get(i, 0) * t_h2 - a_h2.get(i, 0) * t_h)
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
    P.N_empirical = Fraction(best_num, best_den)

    P.M = packing_bound(W_G, 3, 2 * omega_s1)
    return P


def _bump_walk(W: Window, points: list, s: int, inner_radius: int) -> tuple:
    """(thetas, overlap count) of the bumps theta_y(h) = s+1 - d(y, h).

    The elements within distance d of y are y*B(d), so each point walks
    its ball y*B(s+1) once, keeping the hits inside W.  ``thetas`` maps each
    h to ``[(i, theta_{points[i]}(h))]`` in net order, for the bumps above
    0 and the h of length <= ``inner_radius`` only, the ball where the
    weights are read; the overlap count is the most points within distance
    s+1 of one element of W.
    """
    # the ball is a BFS prefix of W, so W.lengths holds each |b|
    ball = W.ball(s + 1)
    dist_get, mul = W.dist.get, W.group.mul
    thetas = {}
    counts = {}
    for i, y in enumerate(points):
        for b, d in zip(ball, W.lengths):
            h = mul(y, b)
            l = dist_get(h)
            if l is not None:
                counts[h] = counts.get(h, 0) + 1
                if d <= s and l <= inner_radius:
                    thetas.setdefault(h, []).append((i, s + 1 - d))
    return thetas, max(counts.values(), default=0)


def psi(P: PartitionOfUnity, phi: CoarseMap, h) -> SparseDensity:
    """psi_h: the convex combination of indicator blocks zB over Z_h.

    Its blocks are disjoint, so it holds |B| atoms per block and has mass 1
    with no atom built to check it: zB, z'B meet only if d(z, z') <= 2, and
    ``build_partition`` refuses images that resolve closer than 3, while an
    unresolved pair lies beyond W_G.radius >= kappa(s) >= 3 (window kappa)
    or is kappa(s) >= 3 apart (exact analytic kappa, net points s apart).
    """
    if not P.is_inner(h):
        raise PreconditionError(
            f"{P.window_H.group.format_element(h)} is outside the inner window "
            f"(radius {P.inner_radius})"
        )
    G = phi.target
    weights, total = P.alpha_terms(h)
    if len(weights) > P.M:
        raise CouplingCertError(
            f"|Z_h| = {len(weights)} exceeds M = {P.M}; the packing bound is broken"
        )
    return SparseDensity(group=G, denominator=total * len(unit_ball(G)),
                         blocks=[(P.images[i], n) for i, n in weights])


def l1_distance(xi: SparseDensity, eta: SparseDensity) -> Fraction:
    """Exact L1 distance with respect to Haar measure, from :func:`l1_sum`."""
    return Fraction(*l1_sum(xi, eta))


def l1_sum(xi: SparseDensity, eta: SparseDensity) -> tuple:
    """The exact L1 distance as an unreduced integer pair,
    (sum_a |n_a*D_eta - m_a*D_xi|, D_xi*D_eta), read off the blocks.

    The centres of one density are at least 3 apart, so a block on a
    centre both densities share meets no other block and adds
    |B|*|n*D_eta - m*D_xi|; a block on an unshared centre adds its whole
    mass.  Only unshared blocks can overlap partially, and only when the
    densities share more atoms than their shared blocks hold (one count,
    of the atoms of both) is the sum taken atom by atom instead.  Atoms
    are read only when both densities have an unshared block.
    """
    if xi.group.descriptor != eta.group.descriptor:
        raise PreconditionError("densities live on different measured groups")
    xi_blocks, eta_blocks = dict(xi.blocks), dict(eta.blocks)
    d_xi, d_eta = xi.denominator, eta.denominator
    total = shared = 0
    for z, n in xi_blocks.items():
        m = eta_blocks.get(z)
        if m is None:
            total += n * d_eta
        else:
            total += abs(n * d_eta - m * d_xi)
            shared += 1
    for z, m in eta_blocks.items():
        if z not in xi_blocks:
            total += m * d_xi
    size = len(xi.group.generators) + 1  # |B|
    if shared < len(xi_blocks) and shared < len(eta_blocks):
        xi_atoms, eta_atoms = xi.atoms, eta.atoms
        if len(union := xi_atoms | eta_atoms) != len(xi_atoms) + len(eta_atoms) - size * shared:
            return (sum(abs(xi_atoms.get(a, 0) * d_eta - eta_atoms.get(a, 0) * d_xi)
                        for a in union), d_xi * d_eta)
    return total * size, d_xi * d_eta


def support_distance(xi: SparseDensity, eta: SparseDensity, W_G: Window) -> int:
    """min d_G over supp(xi) x supp(eta): the least block kernel over the
    pairs of blocks, stopping at 0; supports are genuine (no null sets)."""
    G = W_G.group
    mul, inv = G.mul, G.inv
    kernels = W_G.kernels
    eta_centres = [z for z, _ in eta.blocks]
    best = None
    for z, _ in xi.blocks:
        inv_z = inv(z)
        for z2 in eta_centres:
            w = mul(inv_z, z2)
            least = (kernels.get(w) or _block_kernel(W_G, w))[0]
            if least is not None and (best is None or least < best):
                best = least
                if best == 0:
                    return 0
    if best is None:
        raise ResolutionError(
            "no support distance resolves within the target window; enlarge it")
    return best


def support_diameter(xi: SparseDensity, W_G: Window) -> Optional[int]:
    """The greatest d_G between two atoms of ``xi`` (0 for fewer than two),
    or None when one such distance exceeds the window radius: the greatest
    block kernel over the pairs of blocks, each block with itself
    included."""
    G = W_G.group
    mul, inv = G.mul, G.inv
    kernels = W_G.kernels
    centres = [z for z, _ in xi.blocks]
    if not centres:
        return 0
    greatest = (kernels.get(G.identity) or _block_kernel(W_G, G.identity))[1]
    if greatest is None:
        return None
    for i, z in enumerate(centres):
        inv_z = inv(z)
        for z2 in centres[i + 1:]:
            w = mul(inv_z, z2)
            d = (kernels.get(w) or _block_kernel(W_G, w))[1]
            if d is None:
                return None
            if d > greatest:
                greatest = d
    return greatest


def _block_kernel(W: Window, w) -> tuple:
    """(least, greatest) window length of b^-1 w b' over b, b' in B: the
    distances between the atoms of zB and z'B for any z^-1 z' = w.  The
    least is None when none resolves, the greatest when one misses.  The
    kernel is stored in ``W.kernels``, so each w is looked up once per
    window."""
    G = W.group
    B = unit_ball(G)
    mul, dist_get = G.mul, W.dist.get
    moved = [mul(w, b) for b in B]
    lengths = [dist_get(mul(b_inv, x)) for b_inv in map(G.inv, B) for x in moved]
    resolved = [d for d in lengths if d is not None]
    kernel = (min(resolved, default=None),
              max(resolved) if len(resolved) == len(lengths) else None)
    W.kernels[w] = kernel
    return kernel


def act_left(g, xi: SparseDensity) -> SparseDensity:
    """Left-regular translation: block centres move from z to g*z, weights
    fixed, so each atom moves from a to g*a."""
    mul = xi.group.mul
    return SparseDensity(group=xi.group, denominator=xi.denominator,
                         blocks=[(mul(g, z), n) for z, n in xi.blocks])


class OrbitPoint:
    """g.psi.h on a finite evaluation window of f's, with coordinates
    (g.psi.h)_f = lambda(g) psi_{hf} computed on demand."""

    def __init__(self, g, h, eval_window: Window, P: PartitionOfUnity, phi: CoarseMap):
        self.g = g
        self.h = h
        self.eval_window = eval_window
        self.P = P
        self.phi = phi

    def coord(self, f) -> SparseDensity:
        return act_left(self.g, psi(self.P, self.phi, self.phi.source.mul(self.h, f)))


def orbit_point(P: PartitionOfUnity, phi: CoarseMap, g, h, eval_window: Window) -> OrbitPoint:
    """Check that h*f stays in the inner window for every f of the
    evaluation window, so every coordinate is defined."""
    P.inner_translates(h, eval_window.elements)
    return OrbitPoint(g=g, h=h, eval_window=eval_window, P=P, phi=phi)


def serialize_density(d: SparseDensity) -> str:
    """Stable text form: sorted atom lines, then block structure as comments.

    Weights are printed against Haar measure 1/|B| (the ``# normalizer``
    line): an atom line shows its measure times |B|, a block line its
    convex weight alpha_z.
    """
    G = d.group
    size = len(unit_ball(G))
    lines = []
    for a, n in sorted(d.atoms.items()):
        w = Fraction(n * size, d.denominator)
        lines.append(f"{G.format_element(a)} {w.numerator}/{w.denominator}")
    lines.append(f"# normalizer 1/{size}")
    for z, a in d.block_coefficients():
        lines.append(f"# block {G.format_element(z)} {a.numerator}/{a.denominator}")
    return "\n".join(lines) + "\n"
