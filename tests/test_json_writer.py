"""The envelope writer writes exactly the text of ``json.dumps(..., indent=2)``.

``cli._write_json`` hands each plain container to json's C encoder and walks
the rest; whatever the mix, its text must equal the pure-Python encoder's
with ``sort_keys=True``, ``indent=2`` and ``default=cli._leaf``, or both
must raise the same error class.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwave import cli


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the class is the outcome
        return type(exc)


def _written(obj):
    buf = io.StringIO()
    cli._write_json(buf, obj)
    return buf.getvalue()


def _same_as_json(obj):
    expected = _outcome(lambda: json.dumps(obj, sort_keys=True, indent=2, default=cli._leaf))
    assert _outcome(lambda: _written(obj)) == expected


TEXT = ["", 'say "hi"', "back\\slash", "\x00\x01\x1f\t\n\r", "ünïcødé ∮ 𝄞", " ퟿"]
FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 5e-324, 1.7976931348623157e308,
          0.1, -2.5]

CASES = {
    "numpy bool_": [np.bool_(True), np.bool_(False)],
    "numpy integers": {"a": np.int8(-3), "b": np.int64(2**62), "c": np.uint16(7)},
    "numpy floats": [np.float32(0.1), np.float64(1 / 3), np.float32(np.nan),
                     np.float64(-np.inf), np.float64(-0.0)],
    "complex": {"py": 1 - 2j, "np64": np.complex64(3j), "np128": np.complex128(-0.0 + 1e-310j)},
    "0-d arrays": [np.array(2.5), np.array(7), np.array(True), np.array(1j)],
    "empty arrays": [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))],
    "2-D array": {"m": np.arange(6.0).reshape(2, 3)},
    "complex array": np.array([[1 + 1j, -2j], [0j, np.nan * 1j]]),
    "empty containers": {"d": {}, "l": [], "t": (), "nested": [[], {}, [[{}]]]},
    "special floats": {"floats": FLOATS, "big int": 10**20, "huge": -(10**40)},
    "strings": {s or "empty": s for s in TEXT},
    "string keys": {s: [s] for s in TEXT},
    "tuples": (1, (2.5, ("x", None)), [True, (False,)]),
    "deep": {"a": [{"b": [{"c": [1, [2, {"d": np.float64(0.5)}]]}]}]},
    "scalar": 3.25,
    "bare string": "a\tb",
    "None": None,
}


@pytest.mark.parametrize("obj", list(CASES.values()), ids=list(CASES))
def test_writer_matches_json_on_each_kind_of_leaf(obj):
    _same_as_json(obj)


@pytest.mark.parametrize("obj", [
    {1: [1], 2.5: {"z": 1}, 3: [None]},   # numbers as keys, in a nested dict
    {1: "a", 2.5: "b"},                   # numbers as keys, in a plain dict
    {True: [0], False: {}},               # bools as keys
    {None: [1], math.nan: [2]},           # incomparable keys: both fail to sort
    {math.inf: [1]},
    {None: [1]},
    {np.int64(1): [1]},                   # not a key json accepts
    {(1, 2): 1},
], ids=["numbers-nested", "numbers-plain", "bools", "mixed", "inf", "none", "numpy-int",
        "tuple"])
def test_writer_treats_non_string_keys_as_json_does(obj):
    _same_as_json(obj)


def test_writer_rejects_an_unknown_leaf_as_json_does():
    _same_as_json({"ok": 1, "bad": [object()]})


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.sampled_from([np.bool_(True), np.int32(-5), np.float32(0.25), np.float64(-0.0),
                     np.complex128(1 - 1j), 2 + 0.5j, np.array(1.5), np.zeros((0,)),
                     np.arange(4).reshape(2, 2), np.array([1j, 2])]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(st.text(max_size=5), kids, max_size=4)),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_TREES)
def test_writer_matches_json_on_nested_documents(obj):
    _same_as_json(obj)
