from dataclasses import dataclass

import numpy as np
import pytest

from qsodyn import reports
from qsodyn.simplex import SimplexPoint


@dataclass
class Inner:
    point: SimplexPoint
    eigenvalue: complex


@dataclass
class Outer:
    name: str
    inner: Inner
    empty: tuple


# one value of every kind a report can hold
DOCUMENT = {
    "none": None,
    "true": True,
    "false": False,
    "int": -3,
    "np_int64": np.int64(12),
    "float": 0.1,
    "np_float64": np.float64(1 / 3),
    "negative_zero": -0.0,
    "complex": complex(3.0, -4.0),
    "point": SimplexPoint((0.2, 0.3, 0.5)),
    "nested": Outer('quoted "name" é', Inner(SimplexPoint((1.0, 0.0)), 1j), ()),
    7: "a non-str key",
    "tuple": (1, "two", 3.0),
    "empty_dict": {},
    "empty_list": [],
}

# the text of DOCUMENT before the serializer became one walk
DOCUMENT_TEXT = r'''{
  "none": null,
  "true": true,
  "false": false,
  "int": -3,
  "np_int64": 12,
  "float": 0.10000000000000001,
  "np_float64": 0.33333333333333331,
  "negative_zero": -0,
  "complex": {
    "re": 3,
    "im": -4,
    "abs": 5
  },
  "point": [
    0.20000000000000001,
    0.29999999999999999,
    0.5
  ],
  "nested": {
    "name": "quoted \"name\" \u00e9",
    "inner": {
      "point": [
        1,
        0
      ],
      "eigenvalue": {
        "re": 0,
        "im": 1,
        "abs": 1
      }
    },
    "empty": []
  },
  "7": "a non-str key",
  "tuple": [
    1,
    "two",
    3
  ],
  "empty_dict": {},
  "empty_list": []
}
'''


def test_every_kind_of_value_keeps_its_text():
    assert reports.dumps(DOCUMENT) == DOCUMENT_TEXT


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"),
    complex(float("inf"), 0.0),
], ids=["nan", "inf", "-inf", "np_nan", "complex_inf"])
def test_a_non_finite_number_is_refused(value):
    with pytest.raises(ValueError, match="cannot serialize non-finite number"):
        reports.dumps({"results": [value]})


# no report holds an array or a set, so neither has a text
@pytest.mark.parametrize("value", [object(), b"bytes", np.complex64(1j), np.array([0.5]), {1}],
                         ids=["object", "bytes", "complex64", "ndarray", "set"])
def test_an_unknown_type_is_refused(value):
    with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
        reports.dumps({"results": {"value": value}})


@pytest.mark.parametrize("keys", [(1, 1.0, True), (True, 1.0, 1), (1.0, True, 1)])
def test_equal_keys_of_other_types_keep_their_own_text(keys):
    # 1, 1.0 and True are one dict key: key texts cached by the key itself
    # would give the later ones the text of the first
    assert [reports.dumps({k: None}) for k in keys] == [
        f'{{\n  "{k}": null\n}}\n' for k in keys]
