"""Group models: normal forms, group laws, descriptor parsing."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingcert.errors import DescriptorError, NormalFormError
from couplingcert.groups import ZdGroup, make_group
from couplingcert.windows import build_window

from oracles import inverse, multiply


def test_z1_standard_presentation():
    G = make_group("Z^1")
    assert G.identity == (0,)
    assert set(G.generators) == {(1,), (-1,)}


def test_f2_standard_presentation():
    G = make_group("F_2")
    assert G.identity == ()
    assert len(G.generators) == 4
    assert set(G.generators) == {(1,), (-1,), (2,), (-2,)}


def test_generating_sets_symmetric():
    # symmetric, without the identity and without a repeat: C_1 has no
    # generator, and C_2's +1 and -1 coincide
    for desc in ("Z^3", "F_1", "F_2", "Heis", "C_1", "C_2", "C_5", "C_7", "Z^1 x F_2",
                 "Z^1 x C_1", "C_1 x F_2", "C_2 x C_1"):
        G = make_group(desc)
        gens = set(G.generators)
        assert all(G.inv(g) in gens for g in gens), desc
        assert G.identity not in gens and len(gens) == len(G.generators), desc


@pytest.mark.parametrize(
    "desc,a,b,expected",
    [
        ("Z^2", (1, 2), (3, -1), (4, 1)),
        ("F_2", (1, 2), (-2, 1), (1, 1)),  # (ab)(b^-1 a) = aa
        ("Heis", (1, 0, 0), (0, 1, 0), (1, 1, 1)),
        ("C_5", 3, 4, 2),
    ],
)
def test_multiply_examples(desc, a, b, expected):
    G = make_group(desc)
    assert multiply(G, a, b) == expected


@pytest.mark.parametrize(
    "desc,a,expected",
    [
        ("Z^2", (3, -1), (-3, 1)),
        ("F_2", (1, 2), (-2, -1)),  # (ab)^-1 = b^-1 a^-1
        ("Heis", (1, 1, 1), (-1, -1, 0)),
    ],
)
def test_inverse_examples(desc, a, expected):
    G = make_group(desc)
    assert inverse(G, a) == expected
    assert multiply(G, a, expected) == G.identity
    assert multiply(G, expected, a) == G.identity


def test_heisenberg_associativity_brute_force():
    # every triple with entries in {-2..2}; the multiplication rule inlined
    rng = range(-2, 3)
    elems = [(a, b, c) for a in rng for b in rng for c in rng]

    def mul(p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    for x in elems:
        for y in elems:
            xy = mul(x, y)
            for z in elems:
                assert mul(xy, z) == mul(x, mul(y, z))


def test_heisenberg_matches_matrix_representation():
    # (a,b,c) <-> upper triangular [[1,a,c],[0,1,b],[0,0,1]]
    G = make_group("Heis")

    def to_matrix(e):
        a, b, c = e
        return ((1, a, c), (0, 1, b), (0, 0, 1))

    def mat_mul(m, n):
        return tuple(
            tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    ents = range(-2, 3)
    for x in itertools.product(ents, repeat=3):
        for y in itertools.product(ents, repeat=3):
            assert to_matrix(G.mul(x, y)) == mat_mul(to_matrix(x), to_matrix(y))


@pytest.mark.parametrize("desc", ["Z^2", "F_2", "Heis", "C_9", "Z^1 x C_4"])
def test_group_laws_on_radius_5_window(desc):
    G = make_group(desc)
    W = build_window(G, 5)
    sample = W.elements[:: max(1, len(W) // 24)]
    for a in sample:
        assert G.mul(a, G.inv(a)) == G.identity
        assert G.mul(G.inv(a), a) == G.identity
    for a in sample[:8]:
        for b in sample[:8]:
            for c in sample[:8]:
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


@pytest.mark.parametrize("desc", ["Z^2", "F_2", "Heis"])
def test_normal_form_uniqueness_against_bfs(desc):
    # folding every generator word of length <= 4 must reproduce the ball
    G = make_group(desc)
    W = build_window(G, 4)
    reached = {G.identity}
    frontier = {G.identity}
    for _ in range(4):
        frontier = {G.mul(e, g) for e in frontier for g in G.generators}
        reached |= frontier
    assert reached == set(W.elements)


def test_product_group_structure():
    G = make_group("Z^1 x F_2")
    assert G.identity == ((0,), ())
    assert len(G.generators) == 6
    a = ((3,), (1, 2))
    b = ((-1,), (-2,))
    assert G.mul(a, b) == ((2,), (1,))
    assert G.mul(a, G.inv(a)) == G.identity


@pytest.mark.parametrize(
    "desc", ["Z", "Z^1", "Z^4", "F_1", "F_3", "Heis", "C_2", "C_1000000", "Z^2 x Heis"]
)
def test_descriptors_accepted(desc):
    make_group(desc)


@pytest.mark.parametrize("desc", ["Z^5", "F_4", "C_1000001", "Q", "Z^0", "F_0", ""])
def test_descriptors_rejected(desc):
    with pytest.raises(DescriptorError):
        make_group(desc)


def test_malformed_normal_forms_rejected():
    Z2 = make_group("Z^2")
    with pytest.raises(NormalFormError):
        multiply(Z2, (1, 2, 3), (0, 0))
    F2 = make_group("F_2")
    with pytest.raises(NormalFormError):
        multiply(F2, (1, -1), ())  # not reduced
    with pytest.raises(NormalFormError):
        multiply(F2, (3,), ())  # letter out of range
    C5 = make_group("C_5")
    with pytest.raises(NormalFormError):
        inverse(C5, 7)
    # the identity of F_k is written 1; a blank word is no element
    for desc, text in [("F_2", ""), ("F_2", "  "), ("F_1", "\t"), ("Z^1 x F_2", "3|"),
                       ("Z^1 x F_2", "3| ")]:
        with pytest.raises(NormalFormError):
            make_group(desc).parse_element(text)


@pytest.mark.parametrize(
    "desc,text,elem",
    [
        ("Z^1", "-7", (-7,)),
        ("Z^2", "(3,-1)", (3, -1)),
        ("F_2", "aBa", (1, -2, 1)),
        ("F_2", "1", ()),
        ("Heis", "(1,2,-3)", (1, 2, -3)),
        ("Z^1 x F_2", "4|ab", ((4,), (1, 2))),
        ("C_5", "4", 4),
    ],
)
def test_parse_format_roundtrip(desc, text, elem):
    G = make_group(desc)
    assert G.parse_element(text) == elem
    assert G.parse_element(G.format_element(elem)) == elem


@pytest.mark.parametrize("desc,text,message", [
    ("C_5", "7", "not a C_5 normal form: 7"),
    ("C_5", "-1", "not a C_5 normal form: -1"),
    ("C_5", "x", "bad C_5 element: 'x'"),
    ("Z^1", "abc", "bad Z^1 element: 'abc'"),
    ("Z^1", "(x)", "bad Z^1 element: '(x)'"),
    ("Z^1", "(1,2)", "expected 1 coordinates: '(1,2)'"),
    ("Z^2", "3,4", "bad Z^2 element: '3,4'"),
    ("Z^2", "(3)", "expected 2 coordinates: '(3)'"),
    ("Z^2", "(3,x)", "bad Z^2 element: '(3,x)'"),
    ("Heis", "1,2,3", "bad Heis element: '1,2,3'"),
    ("Heis", "(1,2)", "expected 3 coordinates: '(1,2)'"),
    ("Heis", "(1,2,z)", "bad Heis element: '(1,2,z)'"),
    ("F_2", "abc", "bad F_2 letter 'c' in 'abc'"),
    ("F_2", "aA", "word not reduced: (1, -1)"),
    ("Z^1 x F_2", "3|a|b", "expected 2 factors: '3|a|b'"),
    ("Z^1 x F_2", "3", "expected 2 factors: '3'"),
])
def test_text_that_spells_no_normal_form_is_refused(desc, text, message):
    # C_n text is read as written, not reduced mod n, as F_k words are not reduced
    with pytest.raises(NormalFormError) as exc:
        make_group(desc).parse_element(text)
    assert str(exc.value) == message


def test_heis_shares_the_tuple_text_of_z_d_without_being_one():
    # coarse's Z^d maps test isinstance(G, ZdGroup); Heis must fail it
    Heis = make_group("Heis")
    assert not isinstance(Heis, ZdGroup)
    assert not {"validate", "format_element", "parse_element"} & vars(type(Heis)).keys()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2))
def test_z2_associativity_property(xs, ys, zs):
    G = make_group("Z^2")
    a, b, c = tuple(xs), tuple(ys), tuple(zs)
    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8))
def test_free_reduction_property(xs, ys):
    G = make_group("F_2")
    a = G.identity
    for x in xs:
        a = G.mul(a, (x,))
    b = G.identity
    for y in ys:
        b = G.mul(b, (y,))
    G.validate(a)
    G.validate(b)
    ab = G.mul(a, b)
    G.validate(ab)
    assert G.mul(G.inv(b), G.mul(G.inv(a), ab)) == G.identity


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zd_arithmetic_is_componentwise(d, data):
    # the rank-specialised mul/inv against componentwise +/-, alone and as
    # a product factor
    vec = st.tuples(*[st.integers(min_value=-10**9, max_value=10**9)] * d)
    a, b = data.draw(vec), data.draw(vec)
    G = ZdGroup(d)
    assert G.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert G.inv(a) == tuple(-x for x in a)
    P = make_group(f"C_5 x Z^{d}")
    u, v = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    assert P.mul((u, a), (v, b)) == ((u + v) % 5, tuple(x + y for x, y in zip(a, b)))
    assert P.inv((u, a)) == (-u % 5, tuple(-x for x in a))
