"""Span self time."""

import pytest

from spine.trace import Recorder, engine_self_ms, self_times


def _recorder(ticks):
    it = iter(ticks)
    return Recorder(now=lambda: next(it))


def test_self_time_with_nested_and_sibling_spans():
    #            root [0,10]
    #   a [1,4]         b [5,9]
    #                 c [6,8]
    rec = _recorder([0, 1, 4, 5, 6, 8, 9, 10])
    with rec.span("root", request=7):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    own = self_times(rec.spans)
    by_name = {span["name"]: own[span["id"]] for span in rec.spans}
    assert by_name == {"root": 10 - 3 - 4, "a": 3, "b": 4 - 2, "c": 2}
    assert sum(by_name.values()) == 10  # self times add up to the root
    assert {span["request"] for span in rec.spans} == {7}
    assert [span["parent"] for span in rec.spans] == [None, 0, 0, 2]


def test_span_closes_when_the_block_raises():
    rec = _recorder([0, 1, 2, 3])
    with pytest.raises(RuntimeError):
        with rec.span("outer"):
            with rec.span("inner"):
                raise RuntimeError
    assert [span["end"] for span in rec.spans] == [3, 2]


def test_engine_self_time_clamps_pipelined_children():
    tree = {
        "name": "query", "wall_ms": 10.0, "children": [
            {"name": "native.join", "wall_ms": 6.0, "children": [
                # A pipelined child outlives its parent's structural extent.
                {"name": "native.relation", "wall_ms": 7.0},
            ]},
            {"name": "gbu.prefer", "wall_ms": 3.0},
        ],
    }
    assert engine_self_ms(tree) == {
        "query": 1.0, "native.join": 0.0, "native.relation": 7.0, "gbu.prefer": 3.0,
    }
