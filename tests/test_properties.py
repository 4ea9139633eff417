"""Property-based tests, deterministic: ``derandomize=True`` and a fixed
example budget, so every run draws the same examples."""
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sgs.graphio import canonical_json  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)

# edge cases beside hypothesis's own draws: signed zero, the smallest
# subnormal, a subnormal mid-range, the largest float
SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310,
                                  1.7976931348623157e308, 1e16, 1e-7])
KEYS = st.text() | st.sampled_from(["", "été", "\U0001d11e",
                                    " ", 'say "hi"', "a\\b", "\x00"])


def _values(floats):
    leaves = (st.none() | st.booleans() | st.integers()
              | st.integers(min_value=-2**300, max_value=2**300)
              | floats | SPECIAL_FLOATS | st.text()
              | st.sampled_from(["é", "\U0001d11e ", "\x7f"]))
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                       | st.dictionaries(KEYS, inner)),
        max_leaves=25)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def _strict(node):
    """``node`` with each non-finite float as the string "inf", "-inf"
    or "nan", as reports write them."""
    if isinstance(node, dict):
        return {key: _strict(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict(value) for value in node]
    if isinstance(node, float) and not math.isfinite(node):
        return str(float(node))
    return node


@PROPERTY
@given(_values(st.floats(allow_nan=False, allow_infinity=False)
               | st.floats(allow_nan=False, allow_infinity=False)
               .map(np.float64)))
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == _dumps(value)


@PROPERTY
@given(_values(st.floats() | st.floats().map(np.float64)))
def test_canonical_json_writes_non_finite_floats_as_strings(value):
    assert canonical_json(value) == _dumps(_strict(value))
