"""Cross-strategy equivalence: every execution strategy vs the reference oracle.

This is the library's central correctness suite: for a spectrum of plan
shapes (SPJ with prefers anywhere, filters, set operations, membership and
multi-relational preferences) each strategy must return exactly the
p-relation the reference evaluator computes.
"""

import pytest

from repro.core.aggregates import F_MAX
from repro.core.preference import Preference
from repro.core.scoring import rating_score, recency_score
from repro.engine.expressions import TRUE, cmp, eq
from repro.pexec.engine import STRATEGIES, ExecutionEngine
from repro.plan.builder import scan

PHYSICAL = [s for s in STRATEGIES if s != "reference"]


def check_all(db, plan, aggregate=None):
    engine = ExecutionEngine(db) if aggregate is None else ExecutionEngine(db, aggregate)
    reference = engine.run(plan, "reference")
    for strategy in PHYSICAL:
        result = engine.run(plan, strategy)
        assert result.relation.same_contents(reference.relation), (
            f"{strategy} diverges from the reference on {plan!r}"
        )
    return reference


@pytest.fixture
def p(example_preferences):
    return example_preferences


class TestSingleRelation:
    def test_prefer_only(self, movie_db, p):
        check_all(movie_db, scan("GENRES").prefer(p["p1"]).build())

    def test_prefer_after_select(self, movie_db, p):
        plan = scan("GENRES").select(eq("genre", "Comedy")).prefer(p["p1"]).build()
        check_all(movie_db, plan)

    def test_select_after_prefer(self, movie_db, p):
        plan = scan("GENRES").prefer(p["p1"]).select(cmp("m_id", ">", 2)).build()
        check_all(movie_db, plan)

    def test_projection(self, movie_db, p):
        plan = scan("GENRES").prefer(p["p1"]).project(["genre"]).build()
        check_all(movie_db, plan)

    def test_topk_by_score(self, movie_db, p):
        plan = scan("GENRES").prefer(p["p1"]).top(2, by="score").build()
        result = check_all(movie_db, plan)
        assert result.stats.rows == 2

    def test_topk_by_conf(self, movie_db, p):
        plan = scan("GENRES").prefer(p["p1"]).top(3, by="conf").build()
        check_all(movie_db, plan)

    def test_conf_threshold(self, movie_db, p):
        plan = scan("GENRES").prefer(p["p1"]).select(cmp("conf", ">=", 0.5)).build()
        result = check_all(movie_db, plan)
        assert result.stats.rows == 2

    def test_preference_chain(self, movie_db, p):
        chain = [
            p["p1"],
            Preference("drama", "GENRES", eq("genre", "Drama"), 0.3, 0.4),
            Preference("m4", "GENRES", eq("m_id", 4), 1.0, 1.0),
        ]
        plan = scan("GENRES").prefer_all(chain).build()
        check_all(movie_db, plan)

    def test_no_preferences_at_all(self, movie_db):
        plan = scan("MOVIES").select(cmp("year", ">", 2005)).project(["title"]).build()
        result = check_all(movie_db, plan)
        assert result.stats.rows == 3


class TestJoins:
    def test_prefer_below_join(self, movie_db, p):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS").prefer(p["p2"]), movie_db.catalog)
            .build()
        )
        check_all(movie_db, plan)

    def test_prefer_above_join(self, movie_db, p):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(p["p2"])
            .build()
        )
        check_all(movie_db, plan)

    def test_prefers_on_both_sides(self, movie_db, p):
        pm = Preference("pm", "MOVIES", cmp("year", ">", 2005), recency_score("year", 2011), 0.7)
        plan = (
            scan("MOVIES").prefer(pm)
            .natural_join(scan("DIRECTORS").prefer(p["p2"]), movie_db.catalog)
            .build()
        )
        check_all(movie_db, plan)

    def test_fan_out_join(self, movie_db, p):
        # GENRES fans out movies (movie 4 has two genres).
        plan = (
            scan("MOVIES")
            .natural_join(scan("GENRES").prefer(p["p1"]), movie_db.catalog)
            .build()
        )
        check_all(movie_db, plan)

    def test_three_way_join_q1_shape(self, movie_db, p):
        """The paper's Q1 (Example 9)."""
        plan = (
            scan("MOVIES")
            .select(cmp("year", ">=", 2005))
            .natural_join(scan("GENRES").prefer(p["p1"]), movie_db.catalog)
            .natural_join(scan("DIRECTORS").prefer(p["p2"]), movie_db.catalog)
            .natural_join(scan("CAST"), movie_db.catalog)
            .natural_join(scan("ACTORS").prefer(p["p3"]), movie_db.catalog)
            .project(["title", "director"])
            .top(3, by="score")
            .build()
        )
        check_all(movie_db, plan)

    def test_q2_confidence_threshold(self, movie_db, p):
        """The paper's Q2 (Example 10)."""
        plan = (
            scan("MOVIES")
            .select(cmp("year", ">=", 2005))
            .natural_join(scan("GENRES").prefer(p["p1"]), movie_db.catalog)
            .natural_join(scan("DIRECTORS").prefer(p["p2"]), movie_db.catalog)
            .project(["title", "director"])
            .select(cmp("conf", ">=", 0.8))
            .build()
        )
        check_all(movie_db, plan)

    def test_multi_relational_preference(self, movie_db):
        p6 = Preference(
            "p6", ("MOVIES", "GENRES"), eq("genre", "Drama"), recency_score("year", 2011), 0.8
        )
        plan = (
            scan("MOVIES")
            .natural_join(scan("GENRES"), movie_db.catalog)
            .prefer(p6)
            .build()
        )
        check_all(movie_db, plan)

    def test_membership_preference(self, movie_db):
        from repro.engine.expressions import Attr, Comparison

        p7 = Preference.membership(("MOVIES", "AWARDS"), 1.0, 0.9, name="p7")
        plan = (
            scan("MOVIES")
            .join(
                scan("AWARDS"),
                on=Comparison("=", Attr("MOVIES.m_id"), Attr("AWARDS.m_id")),
            )
            .prefer(p7)
            .build()
        )
        check_all(movie_db, plan)


class TestSetOperations:
    def _recent(self, db, p):
        return (
            scan("MOVIES")
            .select(cmp("year", ">=", 2005))
            .prefer(p)
            .project(["title", "MOVIES.m_id"])
        )

    def _long(self, db, p):
        return (
            scan("MOVIES")
            .select(cmp("duration", ">=", 120))
            .prefer(p)
            .project(["title", "MOVIES.m_id"])
        )

    @pytest.fixture
    def pm(self):
        return Preference("pm", "MOVIES", cmp("year", ">", 2006), 0.9, 0.6)

    @pytest.fixture
    def pd(self):
        return Preference("pd", "MOVIES", cmp("duration", ">", 125), 0.4, 0.8)

    def test_union_of_preferred_branches(self, movie_db, pm, pd):
        plan = self._recent(movie_db, pm).union(self._long(movie_db, pd)).build()
        check_all(movie_db, plan)

    def test_intersect(self, movie_db, pm, pd):
        plan = self._recent(movie_db, pm).intersect(self._long(movie_db, pd)).build()
        check_all(movie_db, plan)

    def test_difference(self, movie_db, pm, pd):
        plan = self._recent(movie_db, pm).difference(self._long(movie_db, pd)).build()
        check_all(movie_db, plan)

    def test_q3_shape_blending(self, movie_db, pm, pd):
        """The paper's Q3 (Example 11): filters between set-op branches."""
        left = self._recent(movie_db, pm).select(cmp("conf", ">", 0.0))
        right = self._long(movie_db, pd).select(cmp("score", ">", 0.0))
        plan = left.union(right).top(4, by="score").build()
        check_all(movie_db, plan)

    def test_prefer_above_union(self, movie_db, pm):
        pt = Preference("pt", "MOVIES", cmp("m_id", "<=", 3), 0.5, 0.5)
        left = self._recent(movie_db, pm)
        right = self._long(movie_db, pm)
        plan = left.union(right).prefer(pt).build()
        check_all(movie_db, plan)


class TestAggregates:
    def test_f_max_everywhere(self, movie_db, p):
        plan = (
            scan("MOVIES")
            .natural_join(scan("GENRES").prefer(p["p1"]), movie_db.catalog)
            .natural_join(scan("DIRECTORS").prefer(p["p2"]), movie_db.catalog)
            .build()
        )
        check_all(movie_db, plan, aggregate=F_MAX)


class TestOnSyntheticData:
    """Workload queries over the synthetic generators (larger, skewed data)."""

    @pytest.mark.parametrize("index", range(3))
    def test_imdb_queries(self, imdb_tiny, index):
        from repro.workloads import imdb_queries

        q = imdb_queries()[index]
        session = q.session(imdb_tiny)
        reference = session.execute(q.sql, strategy="reference")
        for strategy in PHYSICAL:
            result = session.execute(q.sql, strategy=strategy)
            assert result.relation.same_contents(reference.relation), (
                f"{q.name}/{strategy} diverges"
            )

    @pytest.mark.parametrize("index", range(3))
    def test_dblp_queries(self, dblp_tiny, index):
        from repro.workloads import dblp_queries

        q = dblp_queries()[index]
        session = q.session(dblp_tiny)
        reference = session.execute(q.sql, strategy="reference")
        for strategy in PHYSICAL:
            result = session.execute(q.sql, strategy=strategy)
            assert result.relation.same_contents(reference.relation), (
                f"{q.name}/{strategy} diverges"
            )


class TestEngineBehaviour:
    def test_unknown_strategy_rejected(self, movie_db):
        from repro.errors import ExecutionError

        engine = ExecutionEngine(movie_db)
        with pytest.raises(ExecutionError, match="unknown strategy"):
            engine.run(scan("MOVIES").build(), "magic")

    def test_presented_trims_carried_attributes(self, movie_db, p):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS").prefer(p["p2"]), movie_db.catalog)
            .project(["title"])
            .build()
        )
        engine = ExecutionEngine(movie_db)
        result = engine.run(plan, "gbu")
        assert len(result.relation.schema) > 1  # carries keys + pref attrs
        presented = result.presented()
        assert presented.schema.attribute_names == ("MOVIES.title",)
        assert len(presented) == len(result.relation)

    def test_stats_populated(self, movie_db, p):
        engine = ExecutionEngine(movie_db)
        result = engine.run(scan("GENRES").prefer(p["p1"]).build(), "gbu")
        assert result.stats.rows == 6
        assert result.stats.wall_time > 0
        assert result.stats.cost["total_io"] > 0
        assert "gbu" in result.stats.summary()

    def test_result_column_order_matches_plan(self, movie_db, p):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(p["p2"])
            .build()
        )
        engine = ExecutionEngine(movie_db)
        gbu = engine.run(plan, "gbu")
        ref = engine.run(plan, "reference")
        assert gbu.relation.schema.attribute_names == ref.relation.schema.attribute_names


class TestFtPFoldOrder:
    def test_a_region_folds_runs_in_reverse_preorder(self, movie_db, monkeypatch):
        # FtP folds a region's preferences as one group.  Floating-point
        # folds differ by ULPs and top-k cuts on them, so the order is
        # pinned: the runs in reverse pre-order, each as written.
        from repro.pexec import ftp
        from repro.plan.builder import natural_join_condition
        from repro.plan.nodes import Join, Prefer, Relation

        def movie(name, year):
            return Preference(name, "MOVIES", cmp("MOVIES.year", ">=", year), 0.5, 0.6)

        def genre(name, value):
            return Preference(name, "GENRES", eq("GENRES.genre", value), 0.7, 0.3)

        left = Prefer(Relation("MOVIES"), [movie("a", 2005), movie("b", 2008)])
        right = Prefer(Relation("GENRES"), [genre("c", "Drama"), genre("d", "Comedy")])
        join = Join(left, right, natural_join_condition(movie_db.catalog, left, right))
        plan = Prefer(join, [movie("e", 2006), genre("f", "Drama")])
        folded = []
        original = ftp.prefer_group

        def spy(relation, preferences, aggregate):
            folded.append([p.name for p in preferences])
            return original(relation, preferences, aggregate)

        monkeypatch.setattr(ftp, "prefer_group", spy)
        check_all(movie_db, plan)
        assert folded == [["c", "d", "a", "b", "e", "f"]]

