"""Fuzzing of the input parsers: whatever the input, only ParseError escapes."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trilin.errors import ParseError
from trilin.graph import parse_edgelist, parse_json
from trilin.operators import PreimageWitness
from trilin.reduction import parse_dimacs

PARSERS = {
    "edgelist": parse_edgelist,
    "json": parse_json,
    "dimacs": parse_dimacs,
    "witness": PreimageWitness.from_json,
}

fuzz = settings(max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-2, 6)
graph_objs = st.fixed_dictionaries(
    {"n": small_ints | json_values},
    optional={
        "edges": st.lists(st.lists(small_ints, max_size=3) | json_values, max_size=5)
        | json_values,
        "labels": st.dictionaries(small_ints.map(str) | st.text(max_size=2),
                                  st.text(max_size=2) | json_values, max_size=3)
        | json_values,
    },
)
witness_objs = st.fixed_dictionaries(
    {"target": graph_objs | json_values, "candidate": graph_objs | json_values},
    optional={"map": st.lists(st.lists(small_ints, max_size=4) | json_values,
                              max_size=5) | json_values},
)
# line-structured text built from the tokens the text formats know
tokens = st.sampled_from(["p", "cnf", "c", "#", "n", "0", "1", "2", "3", "-1",
                          "-3", "7", "99", "x", "1.5", "", " "])
lines = st.lists(st.lists(tokens, max_size=5).map(" ".join), max_size=6).map("\n".join)


def only_parse_errors(text: str) -> None:
    for parse in PARSERS.values():
        try:
            parse(text)
        except ParseError:
            pass


@fuzz
@given(text=st.text(max_size=200) | lines)
def test_arbitrary_text_raises_only_parse_error(text):
    only_parse_errors(text)


@fuzz
@given(obj=json_values | graph_objs | witness_objs)
def test_json_shaped_input_raises_only_parse_error(obj):
    only_parse_errors(json.dumps(obj))


DEEP = "[" * 100_000
HUGE_INT = "1" * 5000


@pytest.mark.parametrize("name", ["json", "witness"])
@pytest.mark.parametrize("text", [
    DEEP,
    HUGE_INT,
    '{"n": ' + HUGE_INT + ', "edges": []}',
    '{"target": {"n": 1, "edges": []}, "candidate": ' + DEEP + "}",
], ids=["deep", "huge_int", "huge_n", "deep_candidate"])
def test_json_decoder_limits_are_parse_errors(name, text):
    # the decoder raises ValueError past Python's integer digit limit and
    # RecursionError past its nesting depth; both must read as bad input
    with pytest.raises(ParseError):
        PARSERS[name](text)
