from dataclasses import dataclass

import numpy as np
import pytest

from qsodyn import reports
from qsodyn.simplex import SimplexPoint, parse_cycles


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
    "permutation": parse_cycles("(1 3)(2 4 5)", 5),
    "nested": Outer('quoted "name" é', Inner(SimplexPoint((1.0, 0.0)), 1j), ()),
    "array": np.array([[1.0, 0.5], [0.0, -2.5e-300]]),
    7: "a non-str key",
    "tuple": (1, "two", 3.0),
    "set": {3, 1, 2},
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
  "permutation": "(1 3)(2 4 5)",
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
  "array": [
    [
      1,
      0.5
    ],
    [
      0,
      -2.5e-300
    ]
  ],
  "7": "a non-str key",
  "tuple": [
    1,
    "two",
    3
  ],
  "set": [
    1,
    2,
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
    complex(float("inf"), 0.0), np.array([0.5, float("nan")]),
], ids=["nan", "inf", "-inf", "np_nan", "complex_inf", "array_nan"])
def test_a_non_finite_number_is_refused(value):
    with pytest.raises(ValueError, match="cannot serialize non-finite number"):
        reports.dumps({"results": [value]})


@pytest.mark.parametrize("value", [object(), b"bytes", np.complex64(1j)],
                         ids=["object", "bytes", "complex64"])
def test_an_unknown_type_is_refused(value):
    with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
        reports.dumps({"results": {"value": value}})


@pytest.mark.parametrize("keys", [(1, 1.0, True), (True, 1.0, 1), (1.0, True, 1)])
def test_equal_keys_of_other_types_keep_their_own_text(keys):
    # 1, 1.0 and True are one dict key: key texts cached by the key itself
    # would give the later ones the text of the first
    assert [reports.dumps({k: None}) for k in keys] == [
        f'{{\n  "{k}": null\n}}\n' for k in keys]
