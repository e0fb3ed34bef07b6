from fractions import Fraction as Q

import pytest

from polinv.specs import (binary_form_from_spec, group_from_spec, poly_from_spec,
                          weight_system_from_spec)


def test_spec_file_parsing():
    ws = weight_system_from_spec({"torus_rank": 2, "weights": [[1, 0], [0, -1]]})
    assert ws.coordinates == 2
    f = binary_form_from_spec({"degree": 2, "coeffs": ["1", "0", "-2/3"]})
    assert f.coeffs == (1, 0, Q(-2, 3))
    with pytest.raises(ValueError):
        weight_system_from_spec({"torus_rank": 2, "weights": [[1]]})
    with pytest.raises(ValueError):
        binary_form_from_spec({"degree": 3, "coeffs": ["1"]})


def test_group_spec_parsing():
    g = group_from_spec({"builtin": {"family": "B", "m": 2}})
    assert g.order == 8
    h = group_from_spec({"generators": [["0", "1", "1", "0"]]})
    assert h.order == 2
    with pytest.raises(ValueError):
        group_from_spec({"generators": [["1", "0", "0"]]})
    with pytest.raises(ValueError):
        group_from_spec({})


@pytest.mark.parametrize("value", [2, 2.0, "2", " 2 "])
def test_integer_fields_take_what_int_takes(value):
    # the meaning int() gave these fields before the spec layer
    assert group_from_spec({"builtin": {"family": "B", "m": value}}).order == 8
    layout, _ = poly_from_spec({"vars": value, "poly": "x1*x2"})
    assert layout.vars_per_block == 2


@pytest.mark.parametrize("value", [True, 2.5, "2.0", None, [2], float("inf")])
def test_integer_fields_refuse_bools_fractions_and_non_numbers(value):
    with pytest.raises(ValueError, match=r"^group file: 'builtin\.m' must be an integer$"):
        group_from_spec({"builtin": {"family": "B", "m": value}})


@pytest.mark.parametrize("value, expected", [
    ("-2/3", Q(-2, 3)), (3, Q(3)), (0.5, Q(1, 2)), ("1e2", Q(100)),
])
def test_rational_fields_mean_fraction_of_str(value, expected):
    assert binary_form_from_spec({"degree": 0, "coeffs": [value]}).coeffs == (expected,)
