"""Coarse maps between group models and their compression / expansion
moduli.

``kappa[t]`` is the least image distance over scanned pairs at source
distance >= t, ``omega[t]`` the largest over pairs at source distance
<= t.  A built-in map that multiplies every word distance by one factor
carries it as ``stretch``; its moduli ``stretch*t`` hold at every scale
and are preferred by the certificate pipeline.

Every window scan only counts pairs by their source and image distances
``(dH, dG)``, with ``None`` for a distance a window misses;
:func:`_window_table` is the one reducer that turns the count into a
table.  The pipeline's window tables run to ``t_max = 2*W_H.radius``, the
largest source distance of a pair in the source window.  For a
homomorphism without a stretch (the ``matrix:`` maps) the pipeline counts
one pass over the difference ball ``B(t_max)``; the pair scan serves every
other map and the ``moduli`` subcommand, which prints the pair counts.  On
``Z^d -> Z^e`` within the byte limit it reads both sides' l1 byte rows of
:mod:`couplingcert.windows`, interleaved and counted per row; otherwise
one window lookup per pair and side (:func:`_lookup_pair_keys`).
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    CouplingCertError,
    DescriptorError,
    PreconditionError,
    ResolutionError,
    ScaleSelectionError,
    TableMapError,
)
from .groups import FreeGroup, GroupModel, ZdGroup
from .windows import Window, _byte_rows_fit, _l1_rows, ball_window, set_distance


class CoarseMap:
    def __init__(self, source: GroupModel, target: GroupModel, descriptor: str, fn: Callable,
                 stretch: Optional[int] = None, homomorphic: bool = False):
        self.source = source
        self.target = target
        self.descriptor = descriptor
        self.fn = fn
        # fn multiplies every word distance by exactly this factor:
        # d(fn(a), fn(b)) = stretch * d(a, b), so kappa(t) = omega(t) = stretch*t
        self.stretch = stretch
        # fn is a group homomorphism: d(fn(a), fn(b)) = |fn(a^-1 b)|
        self.homomorphic = homomorphic


def apply(phi: CoarseMap, h):
    """Evaluate phi at h, returning a target normal form."""
    phi.source.validate(h)
    out = phi.fn(h)
    phi.target.validate(out)
    return out


def identity_map(H: GroupModel, G: GroupModel) -> CoarseMap:
    if H.descriptor != G.descriptor:
        raise DescriptorError(
            f"identity map needs matching groups, got {H.descriptor} vs {G.descriptor}"
        )
    return CoarseMap(H, G, "identity", lambda h: h, stretch=1, homomorphic=True)


def scale_map(H: GroupModel, G: GroupModel, k: int) -> CoarseMap:
    """Componentwise n -> k*n on Z^d; also models finite-index inclusions
    such as (2Z)^d in Z^d, with the source carrying its own word metric."""
    if not (isinstance(H, ZdGroup) and isinstance(G, ZdGroup) and H.d == G.d):
        raise DescriptorError("scale map needs Z^d source and target of equal rank")
    if k < 1:
        raise DescriptorError(f"scale factor must be >= 1, got {k}")
    return CoarseMap(H, G, f"scale:{k}", lambda h: tuple(k * x for x in h),
                     stretch=k, homomorphic=True)


def embed_map(H: GroupModel, G: GroupModel) -> CoarseMap:
    """Coordinate embedding Z^d -> Z^e, d <= e (an l1 isometry)."""
    if not (isinstance(H, ZdGroup) and isinstance(G, ZdGroup) and H.d <= G.d):
        raise DescriptorError("embed map needs Z^d -> Z^e with d <= e")
    pad = (0,) * (G.d - H.d)
    return CoarseMap(H, G, "embed", lambda h: h + pad, stretch=1, homomorphic=True)


def swap_map(H: GroupModel, G: GroupModel) -> CoarseMap:
    """The automorphism of F_k exchanging the first two letters; it permutes
    the generating set, hence is an isometry."""
    if not (isinstance(H, FreeGroup) and isinstance(G, FreeGroup) and H.k == G.k and H.k >= 2):
        raise DescriptorError("swap map needs F_k source and target with k >= 2")

    def sw(x: int) -> int:
        a = abs(x)
        if a == 1:
            a = 2
        elif a == 2:
            a = 1
        return a if x > 0 else -a

    return CoarseMap(H, G, "swap", lambda h: tuple(sw(x) for x in h),
                     stretch=1, homomorphic=True)


def matrix_map(H: GroupModel, G: GroupModel, entries: tuple) -> CoarseMap:
    """v -> Av for A in GL_2(Z), acting on Z^2."""
    if not (isinstance(H, ZdGroup) and isinstance(G, ZdGroup) and H.d == 2 and G.d == 2):
        raise DescriptorError("matrix map needs Z^2 source and target")
    a, b, c, d = entries
    if a * d - b * c not in (1, -1):
        raise DescriptorError(f"matrix {entries} is not in GL_2(Z)")
    desc = "matrix:" + ",".join(str(x) for x in entries)
    return CoarseMap(H, G, desc,
                     lambda h: (a * h[0] + b * h[1], c * h[0] + d * h[1]),
                     homomorphic=True)


def table_map(H: GroupModel, G: GroupModel, mapping: dict, descriptor: str = "table") -> CoarseMap:
    def look(h):
        try:
            return mapping[h]
        except KeyError:
            raise TableMapError(
                f"lookup-table map has no entry for {H.format_element(h)}"
            ) from None

    return CoarseMap(H, G, descriptor, look)


def separated_lines(path, sep: str, kind: str, form: str, error: type):
    """Yield ``(line number, left, right)`` for each line of the text file
    ``path`` that is not blank or a ``#`` comment, split at its first
    ``sep`` and stripped.  ``error`` names the file, as a ``kind``, when it
    cannot be read, and ``path:line`` and the expected ``form`` for a line
    without ``sep``.  The one reader of config files and lookup tables."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {kind} {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, found, right = line.partition(sep)
        if not found:
            raise error(f"{path}:{lineno}: expected {form!r}, got {raw!r}")
        yield lineno, left.strip(), right.strip()


def load_map_table(path, H: GroupModel, G: GroupModel) -> CoarseMap:
    """Read a lookup table: one ``<source> -> <target>`` per line, ``#``
    comments and blank lines ignored.  A source on two lines is an error,
    even with equal targets: the file must define the map uniquely."""
    mapping = {}
    line_of = {}
    for lineno, left, right in separated_lines(path, "->", "lookup table",
                                               "<src> -> <tgt>", TableMapError):
        try:
            src = H.parse_element(left)
            tgt = G.parse_element(right)
        except CouplingCertError as exc:
            raise TableMapError(f"{path}:{lineno}: {exc}") from None
        if src in line_of:
            raise TableMapError(
                f"{path}:{lineno}: source {H.format_element(src)} already "
                f"mapped on line {line_of[src]}"
            )
        line_of[src] = lineno
        mapping[src] = tgt
    return table_map(H, G, mapping, descriptor=f"table:{path}")


def make_coarse_map(descriptor: str, H: GroupModel, G: GroupModel) -> CoarseMap:
    """Parse a map descriptor: identity, scale:k, embed, swap,
    matrix:a,b,c,d, or table:path."""
    if descriptor == "identity":
        return identity_map(H, G)
    if descriptor == "embed":
        return embed_map(H, G)
    if descriptor == "swap":
        return swap_map(H, G)
    if descriptor.startswith("scale:"):
        try:
            k = int(descriptor.split(":", 1)[1])
        except ValueError:
            raise DescriptorError(f"bad scale descriptor: {descriptor!r}") from None
        return scale_map(H, G, k)
    if descriptor.startswith("matrix:"):
        parts = descriptor.split(":", 1)[1].split(",")
        if len(parts) != 4:
            raise DescriptorError(f"matrix descriptor needs 4 entries: {descriptor!r}")
        try:
            entries = tuple(int(p) for p in parts)
        except ValueError:
            raise DescriptorError(f"bad matrix descriptor: {descriptor!r}") from None
        return matrix_map(H, G, entries)
    if descriptor.startswith("table:"):
        return load_map_table(descriptor.split(":", 1)[1], H, G)
    raise DescriptorError(f"unknown map descriptor: {descriptor!r}")


class Moduli:
    def __init__(self, t_max: int, kappa: list, omega: list, provenance: str,
                 pair_counts: Optional[list] = None, requested_t_max: Optional[int] = None,
                 truncated_at: Optional[int] = None):
        self.t_max = t_max
        self.kappa = kappa
        self.omega = omega
        self.provenance = provenance  # "window-estimated" | "analytic"
        # per t: number of scanned pairs at source distance exactly t
        self.pair_counts = pair_counts
        self.requested_t_max = requested_t_max
        # the least source distance with an image distance the target window
        # misses, when it cut the table below requested_t_max
        self.truncated_at = truncated_at

    def kappa_at(self, t: int) -> Optional[int]:
        """kappa at integer t (step interpolation); None beyond the table."""
        return None if t > self.t_max else self.kappa[max(t, 0)]

    def omega_at(self, t: int) -> Optional[int]:
        """omega at integer t (step interpolation); None beyond the table."""
        return None if t > self.t_max else self.omega[max(t, 0)]


def analytic_moduli(phi: CoarseMap, t_max: int) -> Moduli:
    if phi.stretch is None:
        raise PreconditionError(f"map {phi.descriptor} has no analytic moduli")
    ts = [phi.stretch * t for t in range(t_max + 1)]
    return Moduli(t_max=t_max, kappa=ts, omega=ts, provenance="analytic",
                  requested_t_max=t_max)


def estimate_moduli(phi: CoarseMap, W_H: Window, W_G: Window, t_max: int) -> Moduli:
    """Exhaustive pair scan over the source window, counted for
    :func:`_window_table`; pairs at source distance above ``t_max`` are
    outside the table.

    When both sides fit the byte limit of
    :func:`~couplingcert.windows._byte_rows_fit`, :func:`_l1_pair_keys`
    counts the pairs off the l1 byte rows, with no group product, window
    lookup or difference ball.  :func:`_window_table` reads a pair with
    ``dG > W_G.radius`` as a miss, exactly as the lookup would, so images
    outside ``W_G`` give the same table.  Every other input is counted by
    :func:`_lookup_pair_keys`, with source distances read in the difference
    ball ``B(t_max)`` (a prefix of ``W_H``, or ``W_H`` grown) and image
    distances in ``W_G``.
    """
    if t_max < 0 or t_max > 2 * W_H.radius:
        raise PreconditionError(f"need 0 <= t_max <= 2*radius_H, got {t_max}")
    H, G = phi.source, phi.target
    elements = W_H.elements
    images = [apply(phi, h) for h in elements]
    if _byte_rows_fit(H, elements) and _byte_rows_fit(G, images):
        counts = _l1_pair_keys(elements, images)
    else:
        counts = _lookup_pair_keys(ball_window(W_H, t_max), W_G, elements, images)
    counts[0, 0] += len(elements)  # the diagonal: each element with itself
    return _window_table(counts, W_G.radius, t_max, counted=True)


def _window_table(counts: Counter, radius_G: int, t_max: int, counted: bool) -> Moduli:
    """The window-estimated table from a count of scanned pairs by
    ``(dH, dG)``, the source and the image distance, ``None`` where a
    window misses.

    A pair with ``dH`` None or above ``t_max`` is outside the table; one
    with ``dG`` None or above ``radius_G`` is an image distance the target
    window misses.  A missed image distance truncates the table below the
    least such ``dH`` (enlarging the source window can only shrink kappa
    and grow omega, so truncation keeps every recorded entry exact for the
    scanned window), recorded as ``truncated_at``.  The table is also trimmed to the last distance with
    a counted pair, so every entry is supported; below it the running
    minimum and maximum never hold a sentinel.  ``pair_counts`` is kept
    when ``counted``.
    """
    min_img = [radius_G + 1] * (t_max + 1)
    max_img = [-1] * (t_max + 1)
    pairs = [0] * (t_max + 1)
    bad = t_max + 1
    for (dH, dG), c in counts.items():
        if dH is None or dH > t_max:
            continue
        if dG is None or dG > radius_G:
            bad = min(bad, dH)
        else:
            pairs[dH] += c
            min_img[dH] = min(min_img[dH], dG)
            max_img[dH] = max(max_img[dH], dG)
    eff = bad - 1
    while eff > 0 and not pairs[eff]:
        eff -= 1
    return Moduli(
        t_max=eff,
        kappa=list(accumulate(reversed(min_img[: eff + 1]), min))[::-1],
        omega=list(accumulate(max_img[: eff + 1], max)),
        provenance="window-estimated",
        pair_counts=pairs[: eff + 1] if counted else None,
        requested_t_max=t_max,
        truncated_at=bad if bad <= t_max else None,
    )


def _l1_pair_keys(elements: list, images: list) -> Counter:
    """Counter of ``(dH, dG)`` over the unordered pairs of ``elements``,
    with ``dH``, ``dG`` the l1 distances of the elements and of their
    ``images``, both sides under the byte limit of
    :func:`~couplingcert.windows._byte_rows_fit`.

    The two sides' byte rows (:func:`~couplingcert.windows._l1_rows`) are
    interleaved into one buffer of native 16-bit keys ``dH + 256*dG``,
    counted with no Python bytecode per pair and split into ``(dH, dG)``
    at the end; the buffer holds one row, so the scan's memory does not
    grow with the number of pairs.
    """
    lo, hi = (0, 1) if sys.byteorder == "little" else (1, 0)
    buf = bytearray(2 * len(elements))
    keys16 = memoryview(buf).cast("H")
    counts = Counter()
    for dH, dG in zip(_l1_rows(elements), _l1_rows(images)):
        m = len(dH)
        buf[lo:2 * m:2] = dH
        buf[hi:2 * m:2] = dG
        counts.update(keys16[:m])
    return Counter({(k & 255, k >> 8): c for k, c in counts.items()})


def _lookup_pair_keys(W_D: Window, W_G: Window, elements: list, images: list) -> Counter:
    """Counter of ``(dH, dG)`` over the unordered pairs of ``elements`` whose
    distance ``dH`` resolves in the difference ball ``W_D``, with ``dG`` the
    distance of their ``images`` in ``W_G``, ``None`` where it misses.

    One window lookup of ``a^-1 b`` per pair on each side, each point
    inverted once; the image distance is looked up only where the source
    one resolves, so a pair past ``W_D`` costs one product.  Each counted
    pair is one ``int`` key ``dG*stride + dH`` (``dG = -1`` for a miss),
    split into ``(dH, dG)`` at the end.
    """
    H, G = W_D.group, W_G.group
    dH_get, dG_get, mul_H, mul_G = W_D.dist.get, W_G.dist.get, H.mul, G.mul
    stride = W_D.radius + 1
    counts = Counter()
    for i, (a, x) in enumerate(zip(elements, images)):
        a_inv, x_inv = H.inv(a), G.inv(x)
        counts.update([dG_get(mul_G(x_inv, y), -1) * stride + dH
                       for b, y in zip(elements[i + 1:], images[i + 1:])
                       if (dH := dH_get(mul_H(a_inv, b))) is not None])
    pairs = Counter()
    for k, c in counts.items():
        dG, dH = divmod(k, stride)
        pairs[dH, None if dG < 0 else dG] = c
    return pairs


def homomorphic_moduli(phi: CoarseMap, W_H: Window, W_G: Window, t_max: int) -> Moduli:
    """The table of :func:`estimate_moduli` for a homomorphism, from one
    pass over the difference ball ``B(t_max)``: a prefix of ``W_H``, or
    ``W_H`` grown (:func:`ball_window`).

    In a word metric ``{a^-1 b : a, b in B(R)} = B(2R)``: split a geodesic
    word for ``x`` in two halves of length <= R.  A homomorphism has
    ``d(phi a, phi b) = |phi(a^-1 b)|``, so the scanned pairs at source
    distance t have exactly the image distances ``|phi x|`` over the
    sphere of radius t, for every t <= t_max <= 2R.  The pass counts one
    pair ``(|x|, |phi x|)`` per ``x`` for :func:`_window_table`, up to the
    first image the target window misses; ``pair_counts`` is not
    computed.
    """
    if t_max < 0 or t_max > 2 * W_H.radius:
        raise PreconditionError(f"need 0 <= t_max <= 2*radius_H, got {t_max}")
    diff = ball_window(W_H, t_max)
    g_get = W_G.dist.get
    pairs = []
    for x, dH in diff.dist.items():
        dG = g_get(apply(phi, x))
        pairs.append((dH, dG))
        if dG is None:  # BFS order: every later x is at least as long
            break
    # a finite group's spheres run out; the identity fills distance 0
    return _window_table(Counter(pairs), W_G.radius, t_max, counted=False)


def pipeline_moduli(phi: CoarseMap, W_H: Window, W_G: Window) -> Moduli:
    """The moduli table of the certificate pipeline: ``stretch*t`` when the
    map has a stretch, else the window table up to ``2*W_H.radius``, the
    largest source distance of a pair in ``W_H`` -- one pass over the
    difference ball for a homomorphism, the pair scan of
    :func:`estimate_moduli` for any other map."""
    if phi.stretch is not None:
        return analytic_moduli(phi, 2 * (W_G.radius + W_H.radius) + 8)
    scan = homomorphic_moduli if phi.homomorphic else estimate_moduli
    return scan(phi, W_H, W_G, 2 * W_H.radius)


def choose_scale(m: Moduli) -> int:
    """Least integer s with kappa(s) >= 3."""
    for t in range(1, m.t_max + 1):
        if m.kappa[t] >= 3:
            return t
    tail = m.kappa[m.t_max]
    if m.truncated_at is not None:
        raise ScaleSelectionError(
            f"kappa reaches only {tail} at t_max={m.t_max}: the table is truncated "
            f"at t={m.truncated_at}, where an image distance exceeds the target "
            "window; enlarge the target window",
            kind="t-max-too-small",
        )
    if m.t_max >= 1 and tail > m.kappa[max(0, m.t_max - 2)]:
        raise ScaleSelectionError(
            f"kappa reaches only {tail} at t_max={m.t_max} but is still "
            "growing; enlarge the source window",
            kind="t-max-too-small",
        )
    raise ScaleSelectionError(
        f"kappa is bounded (value {tail} at t_max={m.t_max}); the map does "
        "not expand distances and is not a coarse equivalence at this scale",
        kind="kappa-bounded",
    )


def cobounded_radius(phi: CoarseMap, W_H: Window, W_G_core: Window) -> int:
    """R = 1 + max over core g of the distance from g to the image of the
    source window, each a point-to-set :func:`set_distance` resolved in the
    core window; the +1 keeps the coboundedness inequality strict."""
    images = [apply(phi, h) for h in W_H.elements]
    worst = 0
    for g in W_G_core.elements:
        dmin = set_distance(W_G_core, [g], images)
        if dmin is None:
            raise ResolutionError(
                f"no image of the source window is visible from "
                f"{phi.target.format_element(g)} within the core window; enlarge windows"
            )
        worst = max(worst, dmin)
    return worst + 1
