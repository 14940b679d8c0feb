"""Finitely generated group models with canonical normal forms.

Every element is a plain hashable value (an int or a tuple of ints); the
model object owns multiplication, inversion, validation and the string
syntax.  Equality of normal forms is equality of group elements, and the
identity is always the designated zero form.

Built-in models, their encodings and their element text; ``parse_element``
refuses, with ``NormalFormError``, text that does not spell a normal form:

* ``Z^d``   -- tuple of ``d`` ints, generators ``+-e_i``; written
  ``(3,-1)``, and ``Z^1`` as the bare integer ``3`` (``(3)`` is read too).
* ``C_n``   -- int in ``[0, n)``, generators ``+-1 mod n`` (none for
  ``n = 1``); written as that integer, so ``7`` on ``C_5`` is refused.
* ``F_k``   -- reduced word as a tuple of nonzero ints in ``+-{1..k}``
  (``1 -> a``, ``-1 -> a^-1``, ...), generators ``a, a^-1, b, b^-1, ...``;
  written as letters, capitals for inverses (``aBa``), the identity ``1``.
* ``Heis``  -- triple ``(a, b, c)`` meaning ``x^a y^b z^c`` with
  ``(a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')``; generators ``x^-+1,
  y^-+1`` and ``z = [x, y]`` derived; written ``(1,2,-3)``.
* ``A x B`` -- tuple of factor normal forms; generators are the factor
  generators embedded with identity elsewhere, so the word metric is the
  l1-sum of the factor word metrics; written as the factor texts joined by
  ``|`` (``4|ab``).
"""

from __future__ import annotations

import re
from math import comb
from typing import Iterable

from .errors import DescriptorError, NormalFormError

MAX_ZD_RANK = 4
MAX_FREE_RANK = 3
MAX_CYCLIC_ORDER = 10**6

_FREE_LETTERS = "abc"


class GroupModel:
    """Base class; concrete models fill in the arithmetic."""

    descriptor: str
    generators: list
    identity: object

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def validate(self, a) -> None:
        """Raise NormalFormError unless ``a`` is a canonical normal form."""
        raise NotImplementedError

    def format_element(self, a) -> str:
        raise NotImplementedError

    def parse_element(self, s: str):
        raise NotImplementedError

    def sphere(self, r: int, prev: list):
        """``(size, listing)`` for the sphere of length ``r >= 1``: its exact
        size, which does not depend on ``prev``, and a function listing it
        in the order ``windows._bfs`` meets it, given ``prev``, the sphere of
        length r-1 in that order; None, for every ``r``, where ``_bfs``
        must search.  ``_bfs`` meets each element first from
        its parent of least position in ``prev``, by the least generator
        that steps there, so by induction on ``r`` a sphere comes in the
        lexicographic order of its elements' least geodesic words, letters
        ranked by generator index."""
        return None

    def __repr__(self):
        return f"<GroupModel {self.descriptor}>"


class _IntTupleGroup(GroupModel):
    """A model whose normal forms are tuples of ``width`` ints, written
    ``(a,b,...)``; a width-1 tuple is written as its bare integer, and read
    from either form."""

    width: int

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == self.width
                and all(isinstance(x, int) for x in a)):
            raise NormalFormError(f"not a {self.descriptor} normal form: {a!r}")

    def format_element(self, a):
        if self.width == 1:
            return str(a[0])
        return "(" + ",".join(str(x) for x in a) + ")"

    def parse_element(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            parts = s[1:-1].split(",")
        elif self.width == 1:
            parts = [s]
        else:
            raise NormalFormError(f"bad {self.descriptor} element: {s!r}")
        if len(parts) != self.width:
            raise NormalFormError(f"expected {self.width} coordinates: {s!r}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise NormalFormError(f"bad {self.descriptor} element: {s!r}") from None


class ZdGroup(_IntTupleGroup):
    """``Z^d``.  ``ZdGroup(d)`` is an instance of the rank-``d`` subclass,
    whose ``mul``/``inv`` spell out the coordinates: the pair scans call
    them millions of times, and a generator expression per call costs about
    five times the whole method."""

    def __new__(cls, d: int):
        return super().__new__(_ZD_BY_RANK.get(d, cls) if cls is ZdGroup else cls)

    def __getnewargs__(self):
        return (self.d,)

    def __init__(self, d: int):
        if not 1 <= d <= MAX_ZD_RANK:
            raise DescriptorError(f"Z^d supports 1 <= d <= {MAX_ZD_RANK}, got d={d}")
        self.d = self.width = d
        self.descriptor = f"Z^{d}"
        self.identity = (0,) * d
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        self.generators = gens
        self._canonical = list(gens)

    def sphere(self, r, prev):
        """The l1 sphere, for the generators ``+e_1, -e_1, ..., -e_d`` in
        that order (else None): ``y_1`` runs ``r, ..., 1, -r, ..., -1, 0``,
        each value followed by the radius ``r-|y_1|`` sphere of the other
        coordinates in the same order.  Proof: the least geodesic word of
        ``y`` is ``(s_1 e_1)^|y_1| ... (s_d e_d)^|y_d|``, ``s_i`` the sign
        of ``y_i``.  Where ``y`` and ``y'`` first differ, at ``i``, ``y``
        comes first if ``y_i > 0 > y'_i`` (it reads ``+e_i`` against
        ``-e_i``), or if their signs are not opposite and ``|y_i| >
        |y'_i|`` (it reads ``+-e_i`` where ``y'`` reads a later letter)."""
        if self.generators != self._canonical:
            return None
        d = self.d
        size = sum(2**i * comb(d, i) * comb(r - 1, i - 1) for i in range(1, d + 1))
        return size, lambda: _zd_sphere(d, r)


class _Z1(ZdGroup):
    def mul(self, a, b):
        return (a[0] + b[0],)

    def inv(self, a):
        return (-a[0],)


class _Z2(ZdGroup):
    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])


class _Z3(ZdGroup):
    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def inv(self, a):
        return (-a[0], -a[1], -a[2])


class _Z4(ZdGroup):
    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def inv(self, a):
        return (-a[0], -a[1], -a[2], -a[3])


# one subclass per rank up to MAX_ZD_RANK
_ZD_BY_RANK = {1: _Z1, 2: _Z2, 3: _Z3, 4: _Z4}


def _zd_sphere(d: int, r: int) -> list:
    """The radius-r l1 sphere of ``Z^d`` in the order of ZdGroup.sphere."""
    if d == 1:
        return [(r,), (-r,)] if r else [(0,)]
    return [(x,) + t for x in [*range(r, 0, -1), *range(-r, 1)]
            for t in _zd_sphere(d - 1, r - abs(x))]


class CyclicGroup(GroupModel):
    def __init__(self, n: int):
        if not 1 <= n <= MAX_CYCLIC_ORDER:
            raise DescriptorError(f"C_n supports 1 <= n <= {MAX_CYCLIC_ORDER}, got n={n}")
        self.n = n
        self.descriptor = f"C_{n}"
        self.identity = 0
        # +-1 coincide for n <= 2 and are the identity for n = 1: keep the
        # generating set duplicate-free and without the identity
        self.generators = sorted({1 % n, (n - 1) % n} - {0})

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def validate(self, a):
        if not (isinstance(a, int) and 0 <= a < self.n):
            raise NormalFormError(f"not a C_{self.n} normal form: {a!r}")

    def format_element(self, a):
        return str(a)

    def parse_element(self, s):
        try:
            a = int(s)
        except ValueError:
            raise NormalFormError(f"bad C_{self.n} element: {s!r}") from None
        self.validate(a)
        return a


class FreeGroup(GroupModel):
    def __init__(self, k: int):
        if not 1 <= k <= MAX_FREE_RANK:
            raise DescriptorError(f"F_k supports 1 <= k <= {MAX_FREE_RANK}, got k={k}")
        self.k = k
        self.descriptor = f"F_{k}"
        self.identity = ()
        gens = []
        for i in range(1, k + 1):
            gens.append((i,))
            gens.append((-i,))
        self.generators = gens

    def mul(self, a, b):
        # free reduction at the seam only; both inputs are already reduced
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def sphere(self, r, prev):
        """Each reduced word of length r, ``w + (g,)`` for ``w`` in ``prev``
        and ``g`` a generator not cancelling ``w``'s last letter, in that
        order, for any generator order: a word's one geodesic is itself and
        its one parent is ``w``, so no child needs a membership test."""
        gens, k = self.generators, self.k
        return 2 * k * (2 * k - 1) ** (r - 1), lambda: [
            w + g for w in prev for g in gens if not (w and w[-1] == -g[0])]

    def validate(self, a):
        if not isinstance(a, tuple):
            raise NormalFormError(f"not an F_{self.k} normal form: {a!r}")
        for x in a:
            if not isinstance(x, int) or x == 0 or abs(x) > self.k:
                raise NormalFormError(f"letter out of range in {a!r}")
        for u, v in zip(a, a[1:]):
            if u == -v:
                raise NormalFormError(f"word not reduced: {a!r}")

    def format_element(self, a):
        if not a:
            return "1"
        out = []
        for x in a:
            c = _FREE_LETTERS[abs(x) - 1]
            out.append(c if x > 0 else c.upper())
        return "".join(out)

    def parse_element(self, s):
        s = s.strip()
        if s == "1":
            return ()
        if not s:
            raise NormalFormError(f"empty F_{self.k} word; the identity is written 1")
        word = []
        for ch in s:
            low = ch.lower()
            if low not in _FREE_LETTERS[: self.k]:
                raise NormalFormError(f"bad F_{self.k} letter {ch!r} in {s!r}")
            x = _FREE_LETTERS.index(low) + 1
            word.append(x if ch.islower() else -x)
        w = tuple(word)
        self.validate(w)
        return w


class HeisenbergGroup(_IntTupleGroup):
    """Discrete Heisenberg group on generators x, y with z = [x, y]."""

    width = 3

    def __init__(self):
        self.descriptor = "Heis"
        self.identity = (0, 0, 0)
        self.generators = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inv(self, a):
        # (a,b,c)(-a,-b,ab-c) = (0,0,0)
        return (-a[0], -a[1], a[0] * a[1] - a[2])


class ProductGroup(GroupModel):
    def __init__(self, factors: Iterable[GroupModel]):
        self.factors = list(factors)
        if len(self.factors) < 2:
            raise DescriptorError("a product needs at least two factors")
        self.descriptor = " x ".join(f.descriptor for f in self.factors)
        self.identity = tuple(f.identity for f in self.factors)
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators:
                gens.append(tuple(g if j == i else other.identity
                                  for j, other in enumerate(self.factors)))
        self.generators = gens

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == len(self.factors)):
            raise NormalFormError(f"not a {self.descriptor} normal form: {a!r}")
        for f, x in zip(self.factors, a):
            f.validate(x)

    def format_element(self, a):
        return "|".join(f.format_element(x) for f, x in zip(self.factors, a))

    def parse_element(self, s):
        parts = s.strip().split("|")
        if len(parts) != len(self.factors):
            raise NormalFormError(f"expected {len(self.factors)} factors: {s!r}")
        return tuple(f.parse_element(p) for f, p in zip(self.factors, parts))


_ZD_RE = re.compile(r"^Z(?:\^(\d+))?$")
_FREE_RE = re.compile(r"^F_?(\d+)$")
_CYCLIC_RE = re.compile(r"^C_?(\d+)$")


def make_group(descriptor: str) -> GroupModel:
    """Build a group model from a descriptor string.

    Accepted: ``Z^d`` (``Z`` means ``Z^1``), ``F_k``, ``Heis``, ``C_n``,
    and products ``A x B`` (flattened left to right).
    """
    parts = [p.strip() for p in descriptor.split(" x ")]
    if any(not p for p in parts):
        raise DescriptorError(f"bad group descriptor: {descriptor!r}")
    factors = [_make_atomic(p) for p in parts]
    if len(factors) == 1:
        return factors[0]
    return ProductGroup(factors)


def _make_atomic(part: str) -> GroupModel:
    m = _ZD_RE.match(part)
    if m:
        return ZdGroup(int(m.group(1) or "1"))
    m = _FREE_RE.match(part)
    if m:
        return FreeGroup(int(m.group(1)))
    m = _CYCLIC_RE.match(part)
    if m:
        return CyclicGroup(int(m.group(1)))
    if part == "Heis":
        return HeisenbergGroup()
    raise DescriptorError(f"unknown group descriptor: {part!r}")

