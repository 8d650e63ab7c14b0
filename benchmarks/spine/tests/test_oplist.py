"""Op lists are a pure function of (workload, seed, seconds)."""

import json

import pytest

from spine.embed import CUTOFFS, Embedded
from spine.serve import INSERT_EVERY, WRITE_EVERY, Served


def _make(name, seed, seconds=10):
    if name.startswith("embed"):
        return Embedded(name, seed, seconds)
    return Served(name, seed, seconds, scratch="unused")


def _text(workload):
    return json.dumps([workload.ops, getattr(workload, "replay_ops", None)], sort_keys=True)


@pytest.mark.parametrize("name", ["embed_join", "embed_prefs", "serve_hot", "serve_churn"])
def test_same_seed_same_ops_other_seed_other_ops(name):
    assert _text(_make(name, 3)) == _text(_make(name, 3))
    assert _text(_make(name, 3)) != _text(_make(name, 4))


@pytest.mark.parametrize("name", ["embed_join", "embed_prefs"])
def test_embedded_mix(name):
    ops = _make(name, 1).ops
    queries = [op for op in ops if op[0] == "query"]
    writes = [op for op in ops if op[0] == "write"]
    assert len(queries) >= 100 and len(writes) >= 100  # p90 needs them
    # Every cut-off is on exactly a fifth of the queries.
    for cutoff in CUTOFFS[name]:
        assert sum(f"year >= {cutoff} " in q[1] for q in queries) * 5 == len(queries)


def test_serve_hot_mix():
    workload = _make("serve_hot", 1)
    writes = [op for op in workload.ops if op[0] != "query"]
    assert len(writes) * WRITE_EVERY == len(workload.ops)
    assert len(writes) >= 100
    cold = set(workload.users[len(workload.users) // 2:])
    assert {op[1] for op in writes} <= cold
    # The replayed queries only touch users no write ever touches.
    assert not {op[1] for op in workload.replay_ops if op[0] == "query"} & cold


def test_serve_churn_writes_before_every_query():
    workload = _make("serve_churn", 1)
    ops = workload.ops + workload.replay_ops
    has_private = set()
    for before, op in zip([("query",)] + ops, ops):
        if op[0] == "query":
            assert before[0] in ("add", "insert") and before[1] in (op[1], "GENRES")
        elif op[0] == "add":
            assert op[1] not in has_private  # never a failing op
            has_private.add(op[1])
        elif op[0] == "remove":
            has_private.remove(op[1])
    inserts = sum(op[0] == "insert" for op in ops)
    queries = sum(op[0] == "query" for op in ops)
    assert inserts == queries // INSERT_EVERY
