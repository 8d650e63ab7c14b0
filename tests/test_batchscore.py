"""Fused batch scoring equals the sequential per-preference fold — exactly.

Three layers of evidence:

* Hypothesis property tests: random preference pools over random row
  multisets (duplicate keys included) produce *identical* score pairs and
  score relations under the fused pass and the sequential fold, for both
  F_S and F_max.
* Conformance: every workload query and every plan of the fixed generated
  corpus returns the same result multiset fused (the default) and under
  ``use_batch_scoring(False)`` on every physical strategy.
* Chaos: a full chaos run stays conformant with fused scoring disabled.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import F_MAX, F_S
from repro.core.prefer import prefer, prefer_seq
from repro.core.preference import Preference
from repro.core.prefgroup import PreferenceGroup
from repro.core.prelation import PRelation
from repro.core.scoring import ConstantScore
from repro.engine.expressions import TRUE, InList, cmp, col, eq
from repro.pexec.batchscore import (
    batch_scoring_enabled,
    prefer_group,
    use_batch_scoring,
)
from repro.pexec.engine import ExecutionEngine
from repro.pexec.scorerel import Intermediate, apply_prefer, apply_prefer_seq
from repro.plan.builder import scan
from repro.workloads.queries import all_queries

from tests.conformance import assert_identical
from tests.conftest import build_movie_db
from tests.test_strategy_conformance import PHYSICAL, generated_plan

MOVIE_DB = build_movie_db()
MOVIE_ENGINE = ExecutionEngine(MOVIE_DB)
GENRES_SCHEMA = scan("GENRES").build().schema(MOVIE_DB.catalog)

GENRES = st.sampled_from(["Drama", "Comedy", "Action", "Horror", None])
AGGREGATES = st.sampled_from([F_S, F_MAX])


@st.composite
def preferences(draw):
    """One random preference over GENRES: indexed, residual, or catch-all."""
    kind = draw(st.sampled_from(["eq", "in", "range", "true"]))
    if kind == "eq":
        condition = eq("GENRES.genre", draw(GENRES.filter(lambda g: g is not None)))
    elif kind == "in":
        values = draw(
            st.lists(
                GENRES.filter(lambda g: g is not None),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        condition = InList(col("GENRES.genre"), tuple(values))
    elif kind == "range":
        condition = cmp("GENRES.m_id", ">=", draw(st.integers(0, 5)))
    else:
        condition = TRUE
    score = draw(st.floats(0.0, 1.0, allow_nan=False, width=32))
    conf = draw(st.floats(0.0, 1.0, allow_nan=False, width=32))
    name = f"h{draw(st.integers(0, 10**6))}"
    return Preference(name, "GENRES", condition, ConstantScore(score), conf)


ROWS = st.lists(
    st.tuples(st.integers(1, 4), GENRES), min_size=0, max_size=12
)
POOLS = st.lists(preferences(), min_size=1, max_size=8)


@given(rows=ROWS, pool=POOLS, aggregate=AGGREGATES)
@settings(max_examples=60, deadline=None)
def test_fused_pairs_equal_sequential_fold(rows, pool, aggregate):
    relation = PRelation(GENRES_SCHEMA, rows)
    sequential = relation
    for preference in pool:  # noqa: LN201 — reference fold
        sequential = prefer(sequential, preference, aggregate)
    fused = prefer_group(relation, pool, aggregate)
    assert fused.pairs == sequential.pairs
    assert prefer_seq(relation, pool, aggregate).pairs == sequential.pairs


@given(rows=ROWS, pool=POOLS, aggregate=AGGREGATES)
@settings(max_examples=60, deadline=None)
def test_fused_score_relation_equals_sequential_fold(rows, pool, aggregate):
    # Key on m_id only: duplicate keys force the per-key replay path.
    inter = Intermediate(GENRES_SCHEMA, rows, ["GENRES.m_id"], {})
    sequential = inter
    for preference in pool:  # noqa: LN201 — reference fold
        sequential = apply_prefer(sequential, preference, aggregate)
    compiled = PreferenceGroup(pool, aggregate).compile(GENRES_SCHEMA)
    fused = compiled.score_rows(rows, inter.key_fn(), inter.scores)
    assert fused == sequential.scores
    assert apply_prefer_seq(inter, pool, aggregate).scores == sequential.scores


@pytest.mark.parametrize("seed", range(0, 50, 2))
def test_generated_plans_identical_fused_and_unfused(seed):
    plan = generated_plan(seed)
    for strategy in PHYSICAL:
        fused = MOVIE_ENGINE.run(plan, strategy)
        with use_batch_scoring(False):
            unfused = MOVIE_ENGINE.run(plan, strategy)
        assert_identical(
            unfused,
            fused,
            context=f"{strategy} seed {seed}",
            labels=("unfused", "fused"),
        )


@pytest.mark.parametrize("workload_query", all_queries(), ids=lambda q: q.name)
def test_workload_queries_identical_fused_and_unfused(
    workload_query, imdb_tiny, dblp_tiny
):
    db = imdb_tiny if workload_query.dataset == "imdb" else dblp_tiny
    session = workload_query.session(db)
    compiled = session.compile(workload_query.sql)
    for strategy in PHYSICAL:
        fused = session.execute(compiled, strategy=strategy)
        with use_batch_scoring(False):
            unfused = session.execute(compiled, strategy=strategy)
        assert_identical(
            unfused,
            fused,
            context=f"{strategy} on {workload_query.name}",
            labels=("unfused", "fused"),
        )


def test_chaos_conformant_with_fused_scoring_disabled():
    from repro.resilience.chaos import run_chaos

    with use_batch_scoring(False):
        report = run_chaos(seed=7, scale=0.0005, strategies=("gbu",))
    assert report.ok, report.describe()


def test_context_flag_round_trips():
    assert batch_scoring_enabled()  # fused is the default
    with use_batch_scoring(False):
        assert not batch_scoring_enabled()
        with use_batch_scoring(True):
            assert batch_scoring_enabled()
        assert not batch_scoring_enabled()
    assert batch_scoring_enabled()
