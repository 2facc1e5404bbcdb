"""Equality, hash, repr and immutability of the package's small value types.

These are the behaviours a frozen dataclass gives; the types may be built
any other way as long as they keep them.
"""

import pytest

from abeta.bounds import LogCoeffPair
from abeta.extremal import BetaParam
from abeta.radii import AreaPolynomial, RadiusProblem, RootResult, Variant


def rogosinski(beta=0.3, **kw):
    fields = dict(m=2, p=1.5, N=5, F=AreaPolynomial((0.2,)))
    return RadiusProblem(Variant.BOHR_ROGOSINSKI, beta, **{**fields, **kw})


# (value, an equal value built another way, unequal values, its fields in
# order, its exact repr)
CASES = {
    "BetaParam": (
        BetaParam(0.3),
        BetaParam(value=0.3),
        [BetaParam(0.4), BetaParam(0.0)],
        {"value": 0.3},
        "BetaParam(value=0.3)",
    ),
    "AreaPolynomial": (
        AreaPolynomial((0.5, 1.0)),
        AreaPolynomial(lambdas=[0.5, 1]),
        [AreaPolynomial((0.5,)), AreaPolynomial(), AreaPolynomial((0.5, 1.0, 0.0))],
        {"lambdas": (0.5, 1.0)},
        "AreaPolynomial(lambdas=(0.5, 1.0))",
    ),
    "RadiusProblem": (
        rogosinski(),
        rogosinski(beta=BetaParam(0.3)),
        [rogosinski(beta=0.4), rogosinski(m=3), rogosinski(p=2.0), rogosinski(N=6),
         rogosinski(F=AreaPolynomial()),
         RadiusProblem(Variant.BOHR_SCHWARZ, 0.3, m=2, p=1.5, N=5, F=AreaPolynomial((0.2,)))],
        {"variant": Variant.BOHR_ROGOSINSKI, "beta": BetaParam(0.3), "m": 2, "p": 1.5,
         "N": 5, "F": AreaPolynomial((0.2,))},
        "RadiusProblem(variant=<Variant.BOHR_ROGOSINSKI: 'rogosinski'>, "
        "beta=BetaParam(value=0.3), m=2, p=1.5, N=5, F=AreaPolynomial(lambdas=(0.2,)))",
    ),
    "RootResult": (
        RootResult(0.25, (0.2, 0.3), -1e-12, 7),
        RootResult(root=0.25, bracket=(0.2, 0.3), residual=-1e-12, iterations=7),
        [RootResult(0.25, (0.2, 0.3), -1e-12, 8), RootResult(0.5, (0.2, 0.3), -1e-12, 7)],
        {"root": 0.25, "bracket": (0.2, 0.3), "residual": -1e-12, "iterations": 7},
        "RootResult(root=0.25, bracket=(0.2, 0.3), residual=-1e-12, iterations=7)",
    ),
    "LogCoeffPair": (
        LogCoeffPair(1 + 2j, complex(0, -0.5)),
        LogCoeffPair(first=complex(1, 2), second=complex(0, -0.5)),
        [LogCoeffPair(1 + 2j, 0.5j), LogCoeffPair(-0.5j, 1 + 2j)],
        {"first": 1 + 2j, "second": complex(0, -0.5)},
        "LogCoeffPair(first=(1+2j), second=-0.5j)",
    ),
}


@pytest.mark.parametrize("name", CASES)
class TestValueTypes:
    def test_equality_and_hash_follow_the_fields(self, name):
        value, same, others, fields, _ = CASES[name]
        assert value == same and not value != same
        assert hash(value) == hash(same) == hash(tuple(fields.values()))
        for other in others:
            assert value != other and not value == other
        assert value != object()

    def test_fields(self, name):
        value, _, _, fields, _ = CASES[name]
        assert {field: getattr(value, field) for field in fields} == fields

    def test_repr(self, name):
        value, _, _, _, text = CASES[name]
        assert repr(value) == text

    def test_immutable(self, name):
        value, _, _, fields, text = CASES[name]
        for field in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, field, 0.1)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == text

