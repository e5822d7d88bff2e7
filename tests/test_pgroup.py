"""The finite p-group witness family: relations, classes, and the twist map."""

import random

import pytest

from raag.pgroup import (
    ENUMERATION_GUARD,
    PGroupElement,
    WitnessGroup,
    WitnessParams,
)
from oracles import enumerated_conjugacy_class, group_elements

CONFIRMED = [(2, 2, 1, 1), (3, 2, 1, 1), (2, 3, 1, 2), (2, 3, 2, 1)]


@pytest.fixture(params=CONFIRMED, ids=lambda t: "p%dn%dr%ds%d" % t)
def group(request):
    return WitnessGroup(WitnessParams(*request.param))


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        WitnessParams(4, 2, 1, 1)
    with pytest.raises(ValueError):
        WitnessParams(2, 1, 1, 1)
    with pytest.raises(ValueError):
        WitnessParams(2, 2, 2, 1)
    with pytest.raises(ValueError):
        WitnessParams(2, 2, 1, 0)


def test_orders(group):
    p = group.params
    assert p.order_a == p.p ** (p.n + p.s * (p.p**p.r - 1) + p.r)
    assert p.order_b == p.p ** (p.n + p.s * (p.p**p.r - 1) + 2 * p.r)


def test_small_case_orders():
    params = WitnessParams(2, 2, 1, 1)
    assert params.order_a == 16
    assert params.order_b == 32


@pytest.mark.parametrize("args", [(2, 3, 2, 1), (3, 2, 1, 1), (5, 3, 2, 1)])
def test_order_a_is_the_product_of_the_moduli(args):
    params = WitnessParams(*args)
    product = 1
    for q in params.moduli:
        product *= q
    assert params.order_a == product
    assert params.order_b == params.order_a * params.p**params.r


def test_alpha_order_is_p_to_r(group):
    p = group.params
    assert group.alpha_order() == p.p**p.r


def test_alpha_fixes_last_generator(group):
    m = group.params.m
    xm = group.generator(m - 1)
    assert group.alpha_apply(xm.vector) == xm.vector


def test_alpha_squared_test_vector():
    # for m >= 4: alpha^2(x1) = x1 x2 x3 xm^2
    for tup in ((3, 2, 1, 1), (2, 3, 2, 1)):
        params = WitnessParams(*tup)
        group = WitnessGroup(params)
        m = params.m
        got = group.alpha_apply(group.phi("g").vector, 2)
        expect = [0] * m
        expect[0] = expect[1] = expect[2] = 1
        expect[m - 1] = 2
        assert got == group.element(expect).vector


def test_relations_hold(group):
    assert group.verify_relations()


def test_corrupted_alpha_breaks_relations():
    params = WitnessParams(2, 3, 2, 1)
    group = WitnessGroup(params)
    group.alpha_matrix[0][params.m - 1] = 0
    assert not group.verify_relations()


def test_group_laws(group):
    rng = random.Random(7)
    els = []
    for _ in range(6):
        vec = [rng.randrange(q) for q in group.moduli]
        els.append(group.element(vec, rng.randrange(group.params.p**group.params.r)))
    one = group.identity()
    for x in els:
        assert group.multiply(x, group.inverse(x)) == one
        assert group.multiply(one, x) == x
    for x, y, z in zip(els, els[1:], els[2:]):
        left = group.multiply(group.multiply(x, y), z)
        right = group.multiply(x, group.multiply(y, z))
        assert left == right


def test_element_normalization(group):
    p = group.params
    wrapped = group.element((p.p**p.n,) + (0,) * (p.m - 1), p.p**p.r)
    assert wrapped == group.identity()
    with pytest.raises(ValueError):
        group.element((0,) * (p.m + 1))


def test_conjugation_of_a_part_twists_only(group):
    # (b, j)(a, 0)(b, j)^-1 = (alpha^j(a), 0) regardless of b
    rng = random.Random(11)
    for _ in range(5):
        a = group.element([rng.randrange(q) for q in group.moduli])
        j = rng.randrange(group.params.p**group.params.r)
        b = group.element([rng.randrange(q) for q in group.moduli], j)
        got = group.conjugate(a, b)
        assert got == group.element(group.alpha_apply(a.vector, j))


def test_class_of_g_matches_formula(group):
    p = group.params
    g = group.phi("g")
    cls = group.conjugacy_class(g)
    formula = {
        group.element(group.alpha_apply(g.vector, k)) for k in range(p.p**p.r)
    }
    assert cls == formula
    assert len(cls) == p.p**p.r


def test_class_matches_conjugating_by_every_element():
    small = WitnessGroup(WitnessParams(2, 2, 1, 1))
    order = small.params.p**small.params.r
    for x in group_elements(small):
        cls = enumerated_conjugacy_class(small, x)
        assert small.conjugacy_class(x) == cls
        # an unreduced exponent names the same element
        for k in (x.alpha_exp + order, x.alpha_exp - 3 * order):
            assert small.conjugacy_class(PGroupElement(x.vector, k)) == cls
    for args in ((2, 3, 2, 1), (3, 2, 1, 1)):
        group = WitnessGroup(WitnessParams(*args))
        g, h, t = group.phi("g"), group.phi("h"), group.phi("t")
        xs = [g, h, group.multiply(t, g), group.multiply(group.power(t, 2), h)]
        before = [group.conjugacy_class(x) for x in xs]
        assert before == [enumerated_conjugacy_class(group, x) for x in xs]
        # alpha is tabled per call: a corrupted matrix shows in the next class
        group.alpha_matrix[0][group.params.m - 1] = 0
        after = [group.conjugacy_class(x) for x in xs]
        assert after == [enumerated_conjugacy_class(group, x) for x in xs]
        assert after[0] != before[0]


def test_images_of_g_and_h_not_conjugate(group):
    cls = group.conjugacy_class(group.phi("g"))
    assert group.phi("h") not in cls


def test_class_of_identity(group):
    assert group.conjugacy_class(group.identity()) == {group.identity()}


def test_phi_images():
    group = WitnessGroup(WitnessParams(2, 2, 1, 1))
    assert group.phi("g") == PGroupElement((1, 0, 0), 0)
    assert group.phi("h") == PGroupElement((1, 0, 1), 0)
    assert group.phi("t") == PGroupElement((0, 0, 0), 1)
    with pytest.raises(ValueError):
        group.phi("x")


def test_fresh_group_relations_and_class():
    group = WitnessGroup(WitnessParams(2, 2, 1, 1))
    assert group.verify_relations()
    cls = group.conjugacy_class(group.phi("g"))
    assert len(cls) == 2


def test_enumeration_guard():
    params = WitnessParams(2, 19, 1, 1)
    group = WitnessGroup(params)
    with pytest.raises(ValueError):
        group.conjugacy_class(group.identity())
    assert not params.enumerable


def test_enumerable_matches_order():
    for args in CONFIRMED + [(2, 19, 1, 1), (2, 5, 4, 4), (5, 3, 1, 1)]:
        params = WitnessParams(*args)
        assert params.enumerable == (params.order_b <= ENUMERATION_GUARD)
    # p^r + 1 generators: refused without building anything of that size
    assert not WitnessParams(2, 60, 59, 1).enumerable
    assert not WitnessParams(1_000_003, 2, 1, 1).enumerable


def test_power_matches_repeated_multiplication(group):
    rng = random.Random(11)
    x = group.element(
        [rng.randrange(q) for q in group.moduli], rng.randrange(group.params.p)
    )
    step = group.identity()
    for k in range(12):
        assert group.power(x, k) == step
        assert group.power(x, -k) == group.inverse(step)
        step = group.multiply(step, x)


def test_power_of_huge_exponent_is_fast():
    group = WitnessGroup(WitnessParams(2, 30, 1, 1))
    g = group.phi("g")
    assert group.power(g, 2**30) == group.identity()
    assert group.power(g, 2**29) != group.identity()
    assert group.verify_relations()
