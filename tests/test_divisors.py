import pytest

from uniloc.abgroup import GroupStructure
from uniloc.divisors import Divisor, DivisorClassModel, quotient_by_divisor
from uniloc.errors import InputError


def test_divisor_normalization():
    d = Divisor.of({"q": 2, "p": 1, "r": 0})
    assert d.coefficients == (("p", 1), ("q", 2))
    assert d.coefficient("p") == 1
    assert d.coefficient("missing") == 0
    assert d.support == ("p", "q")


def test_divisor_raw_constructor_validation():
    with pytest.raises(InputError):
        Divisor((("q", 1), ("p", 1)))  # unsorted
    with pytest.raises(InputError):
        Divisor((("p", 1), ("p", 2)))
    with pytest.raises(InputError):
        Divisor((("p", 0),))


def test_model_validation():
    with pytest.raises(InputError):
        DivisorClassModel.on(("p", "p"))
    with pytest.raises(InputError):
        DivisorClassModel.on(("p",), (Divisor.of({"q": 1}),))


def test_free_model_structure():
    m = DivisorClassModel.on(("p", "q"))
    assert m.structure() == GroupStructure(2, ())


def test_unknown_label_rejected():
    m = DivisorClassModel.on(("p",))
    with pytest.raises(InputError):
        quotient_by_divisor(m, Divisor.of({"q": 1}))


def test_cone_style_model():
    # Z + Z/6 presented on a hyperplane class h and a point class p
    m = DivisorClassModel.on(("h", "p"), (Divisor.of({"p": 6}),))
    assert m.structure() == GroupStructure(1, (6,))


def test_quotient_by_divisor():
    m = DivisorClassModel.on(("h", "p"), (Divisor.of({"p": 6}),))
    q = quotient_by_divisor(m, Divisor.of({"h": 3}))
    assert q.structure() == GroupStructure(0, (3, 6))


def test_quotient_by_zero_is_identity():
    m = DivisorClassModel.on(("h",))
    assert quotient_by_divisor(m, Divisor.of({})) is m


def test_quotient_validates_support():
    m = DivisorClassModel.on(("h",))
    with pytest.raises(InputError):
        quotient_by_divisor(m, Divisor.of({"x": 1}))


def test_quotient_kills_exactly_the_cyclic_subgroup():
    # Z^2 mod (2, 0): quotient by (0, 5) leaves Z/2 + Z/5 = Z/10
    m = DivisorClassModel.on(("a", "b"), (Divisor.of({"a": 2}),))
    q = quotient_by_divisor(m, Divisor.of({"b": 5}))
    assert q.structure() == GroupStructure(0, (10,))
