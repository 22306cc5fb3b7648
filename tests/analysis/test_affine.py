"""Affine algebra tests (unit + property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.affine import Affine, to_affine, try_affine
from repro.errors import NotAffineError
from repro.lang import parse_expr


class TestConstruction:
    def test_constant(self):
        a = Affine.constant(5)
        assert a.is_constant and a.const == 5

    def test_variable(self):
        a = Affine.variable("i", 3)
        assert a.coeff("i") == 3 and a.const == 0

    def test_zero_coeff_normalized(self):
        a = Affine.from_dict({"i": 0, "j": 2})
        assert a.variables == ("j",)

    def test_equality_is_structural(self):
        assert Affine.from_dict({"i": 1}, 2) == Affine.variable("i").shift(2)


class TestArithmetic:
    def test_add(self):
        a = to_affine(parse_expr("2*i + 1"))
        b = to_affine(parse_expr("3*i - 4"))
        assert a + b == to_affine(parse_expr("5*i - 3"))

    def test_sub_cancels(self):
        a = to_affine(parse_expr("i + j"))
        assert (a - a) == Affine.constant(0)

    def test_scale(self):
        a = to_affine(parse_expr("i - 2"))
        assert a.scale(3) == to_affine(parse_expr("3*i - 6"))

    def test_neg(self):
        a = to_affine(parse_expr("i - 2"))
        assert -a == to_affine(parse_expr("2 - i"))

    def test_exact_div(self):
        a = to_affine(parse_expr("4*i + 8"))
        assert a.exact_div(4) == to_affine(parse_expr("i + 2"))
        assert a.exact_div(3) is None

    def test_substitute(self):
        a = to_affine(parse_expr("2*i + j"))
        out = a.substitute("i", to_affine(parse_expr("k - 1")))
        assert out == to_affine(parse_expr("2*k + j - 2"))

    def test_evaluate(self):
        a = to_affine(parse_expr("2*i - j"))
        assert a.evaluate({"i": 4, "j": 3}) == 5

    def test_evaluate_unbound_raises(self):
        with pytest.raises(NotAffineError):
            Affine.variable("i").evaluate({})


class TestConversion:
    @pytest.mark.parametrize(
        "src,coeffs,const",
        [
            ("7", {}, 7),
            ("i", {"i": 1}, 0),
            ("-i", {"i": -1}, 0),
            ("i + 2*j - 3", {"i": 1, "j": 2}, -3),
            ("2*(i + 1)", {"i": 2}, 2),
            ("(i + j) - (i - j)", {"j": 2}, 0),
            ("4*i/2", {"i": 2}, 0),
            ("2**3", {}, 8),
        ],
    )
    def test_affine_exprs(self, src, coeffs, const):
        a = to_affine(parse_expr(src))
        assert a == Affine.from_dict(coeffs, const)

    def test_params_fold(self):
        a = to_affine(parse_expr("nx / np"), {"nx": 16, "np": 4})
        assert a == Affine.constant(4)

    def test_mod_of_constants_folds(self):
        assert to_affine(parse_expr("mod(7, 4)")) == Affine.constant(3)

    def test_min_max_constants_fold(self):
        assert to_affine(parse_expr("min(3, 5)")) == Affine.constant(3)
        assert to_affine(parse_expr("max(3, 5)")) == Affine.constant(5)

    @pytest.mark.parametrize(
        "src",
        [
            "i * j",
            "i / 2",
            "mod(i, 4)",
            "i ** 2",
            "sqrt(x)",
            "a(i)",
            "2.5",
        ],
    )
    def test_non_affine_raises(self, src):
        with pytest.raises(NotAffineError):
            to_affine(parse_expr(src))

    def test_try_affine_returns_none(self):
        assert try_affine(parse_expr("i * j")) is None
        assert try_affine(parse_expr("i + j")) is not None


@given(
    st.dictionaries(st.sampled_from("ijkmn"), st.integers(-5, 5), max_size=4),
    st.integers(-10, 10),
    st.dictionaries(st.sampled_from("ijkmn"), st.integers(-5, 5), max_size=4),
    st.integers(-10, 10),
    st.dictionaries(st.sampled_from("ijkmn"), st.integers(-9, 9), min_size=5, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_pointwise_semantics(c1, k1, c2, k2, env):
    """(a op b).evaluate(env) == a.evaluate(env) op b.evaluate(env)."""
    env = {v: env.get(v, 0) for v in "ijkmn"}
    a = Affine.from_dict(c1, k1)
    b = Affine.from_dict(c2, k2)
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)
    assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)
    assert a.scale(3).evaluate(env) == 3 * a.evaluate(env)
    assert (-a).evaluate(env) == -a.evaluate(env)


@given(
    st.dictionaries(st.sampled_from("ijk"), st.integers(-5, 5), max_size=3),
    st.integers(-10, 10),
    st.dictionaries(st.sampled_from("mn"), st.integers(-5, 5), max_size=2),
    st.integers(-10, 10),
    st.dictionaries(st.sampled_from("ijkmn"), st.integers(-9, 9), min_size=5, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_substitution_matches_evaluation(c1, k1, c2, k2, env):
    """Substituting then evaluating == evaluating with the bound value."""
    env = {v: env.get(v, 0) for v in "ijkmn"}
    a = Affine.from_dict(c1, k1)
    rep = Affine.from_dict(c2, k2)
    substituted = a.substitute("i", rep)
    env2 = dict(env)
    env2["i"] = rep.evaluate(env)
    assert substituted.evaluate(env) == a.evaluate(env2)
