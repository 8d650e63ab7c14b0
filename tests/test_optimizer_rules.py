"""Unit tests for the preference optimizer's heuristic rules 1–5 (§VI-A).

Beyond the per-rule cases: :func:`rewrite_violations` states what any sound
rewrite preserves (output attributes, the reference answer, preferences and
base relations), a Hypothesis property checks every rule against it on
random plans, and the six Table II queries' optimized plans are checked
against the reference executor and rule 5.
"""

from collections import Counter

import pytest

from repro.core.aggregates import F_MAX
from repro.core.preference import Preference
from repro.core.scoring import recency_score
from repro.engine.expressions import TRUE, And, cmp, eq
from repro.errors import ReproError
from repro.optimizer.rules import (
    push_prefers,
    push_projections,
    push_selections,
    reorder_prefers,
)
from repro.optimizer.selectivity import preference_selectivity
from repro.pexec.conform import conform
from repro.pexec.reference import evaluate_reference
from repro.plan.analysis import qualify_preferences
from repro.plan.builder import natural_join_condition, scan
from repro.plan.nodes import (
    Intersect,
    Join,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)


def qualified(db, plan):
    return qualify_preferences(plan, db.catalog)


class TestRule2Projections:
    def test_projection_inserted_above_relations(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .project(["title"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pruned = push_projections(plan, movie_db.catalog)
        inner = [
            n for n in pruned.walk() if isinstance(n, Project) and isinstance(n.child, Relation)
        ]
        assert inner, "expected pushed-down projections above base relations"
        movies_proj = next(p for p in inner if p.child.name == "MOVIES")
        kept = {a.lower() for a in movies_proj.attrs}
        assert "movies.duration" not in kept  # unused column pruned

    def test_needed_attributes_survive(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .project(["title"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pruned = push_projections(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(pruned, movie_db.catalog)
        assert before.same_contents(after)

    def test_no_projection_means_no_pruning(self, movie_db):
        plan = scan("MOVIES").select(eq("year", 2008)).build()
        assert push_projections(plan, movie_db.catalog) == plan

    def test_union_under_project_keeps_full_width(self, movie_db):
        plan = Project(
            Union(Relation("MOVIES"), Relation("MOVIES")), ["title"]
        )
        assert push_projections(plan, movie_db.catalog) == plan


class TestRules34PreferPushdown:
    def test_prefer_pushed_to_owning_join_side(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert isinstance(pushed, Join)
        prefer_node = next(n for n in pushed.walk() if isinstance(n, Prefer))
        assert isinstance(prefer_node.child, Relation)
        assert prefer_node.child.name == "DIRECTORS"

    def test_prefer_stops_on_top_of_select(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .select(eq("m_id", 4))
            .prefer(example_preferences["p1"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert isinstance(pushed, Prefer)
        assert isinstance(pushed.child, Select)

    def test_multi_relational_preference_stays(self, movie_db):
        from repro.core.scoring import recency_score

        # p6 reads genre (GENRES) in the condition and year (MOVIES) in the
        # scoring part: neither join side owns all attributes.
        p6 = Preference(
            "p6",
            ("MOVIES", "GENRES"),
            eq("genre", "Action"),
            recency_score("year", 2011),
            0.8,
        )
        plan = (
            scan("MOVIES")
            .natural_join(scan("GENRES"), movie_db.catalog)
            .prefer(p6)
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert isinstance(pushed, Prefer)  # cannot sink into either side alone

    def test_membership_preference_stays_on_product(self, movie_db):
        p7 = Preference.membership(("MOVIES", "AWARDS"), 1.0, 0.9)
        plan = (
            scan("MOVIES")
            .join(scan("AWARDS"), on=eq("MOVIES.m_id", 1))
            .prefer(p7)
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        assert isinstance(pushed, Prefer)

    def test_prefer_not_pushed_through_union(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .union(scan("GENRES"))
            .prefer(example_preferences["p1"])
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        assert isinstance(pushed, Prefer)
        assert isinstance(pushed.child, Union)

    def test_prefer_pushed_through_intersection(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .intersect(scan("GENRES"))
            .prefer(example_preferences["p1"])
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        assert isinstance(pushed, Intersect)
        assert isinstance(pushed.children()[0], Prefer)

    def test_chain_sinks_through_sibling_prefers(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .prefer(
                Preference("pm", "MOVIES", cmp("year", ">", 2005), 0.5, 0.5)
            )
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        prefer_nodes = [n for n in pushed.walk() if isinstance(n, Prefer)]
        assert len(prefer_nodes) == 2
        children = {n.child.name for n in prefer_nodes if isinstance(n.child, Relation)}
        assert children == {"MOVIES", "DIRECTORS"}

    def test_semantics_preserved(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .natural_join(scan("GENRES"), movie_db.catalog)
            .prefer(example_preferences["p1"])
            .prefer(example_preferences["p2"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert evaluate_reference(plan, movie_db.catalog).same_contents(
            evaluate_reference(pushed, movie_db.catalog)
        )

    def test_a_run_splits_by_side_in_written_order(self, movie_db):
        m1, m2, g1 = _since(2001), _since(2002), _genre(1)
        both = Preference(
            "both", ("MOVIES", "GENRES"), eq("GENRES.genre", "Drama"),
            recency_score("MOVIES.year", 2011), 0.5,
        )
        below = Prefer(Relation("MOVIES"), [m2])  # already on the left input
        join = _movies_genres(movie_db, below)
        pushed = push_prefers(Prefer(join, [m1, g1, both]), movie_db.catalog)
        assert pushed == Prefer(
            Join(
                Prefer(Relation("MOVIES"), [m2, m1]),
                Prefer(Relation("GENRES"), [g1]),
                join.condition,
            ),
            [both],
        )

    def test_an_override_is_a_barrier(self, movie_db):
        m1, m2 = _since(2001), _since(2002)
        override = Prefer(_movies_genres(movie_db, Relation("MOVIES")), [m1], F_MAX)
        plan = Prefer(override, [m2])
        assert push_prefers(plan, movie_db.catalog) == plan

    @pytest.mark.parametrize("count", [6, 12, 24])
    def test_prefer_nodes_built_grow_linearly(self, movie_db, monkeypatch, count):
        # One pass splits a run by side: the nodes built grow linearly in λ.
        original = Prefer.__init__
        built = []

        def counting(node, *args, **kwargs):
            built.append(node)
            original(node, *args, **kwargs)

        def nodes_built(size):
            run = [_genre(n) if n % 2 else _since(1990 + n) for n in range(size)]
            plan = Prefer(_movies_genres(movie_db, Relation("MOVIES")), run)
            built.clear()
            monkeypatch.setattr(Prefer, "__init__", counting)
            pushed = push_prefers(plan, movie_db.catalog)
            monkeypatch.setattr(Prefer, "__init__", original)
            assert {len(n.run) for n in pushed.walk() if isinstance(n, Prefer)} == {size // 2}
            return len(built)

        assert nodes_built(2 * count) <= 2 * nodes_built(count) + 4


def _movies_genres(db, left):
    genres = Relation("GENRES")
    return Join(left, genres, natural_join_condition(db.catalog, left, genres))


def _since(year):
    return Preference(f"m{year}", "MOVIES", cmp("MOVIES.year", ">=", year), 0.5, 0.5)


def _genre(n):
    return Preference(f"g{n}", "GENRES", eq("GENRES.genre", "Drama"), 0.5, 0.5)


class TestRule5Reordering:
    def test_more_selective_preference_goes_lower(self, movie_db):
        broad = Preference("broad", "GENRES", eq("genre", "Drama"), 0.5, 0.5)
        narrow = Preference("narrow", "GENRES", eq("genre", "Comedy"), 0.5, 0.5)
        base = Relation("GENRES")
        assert preference_selectivity(narrow, base, movie_db.catalog) < (
            preference_selectivity(broad, base, movie_db.catalog)
        )
        plan = Prefer(base, [narrow, broad])  # narrow evaluated first: OK
        assert reorder_prefers(plan, movie_db.catalog) == plan
        ordered = reorder_prefers(Prefer(base, [broad, narrow]), movie_db.catalog)
        assert ordered == plan

    def test_single_prefer_untouched(self, movie_db, example_preferences):
        plan = Prefer(Relation("GENRES"), [example_preferences["p1"]])
        assert reorder_prefers(plan, movie_db.catalog) == plan

    def test_semantics_preserved(self, movie_db):
        a = Preference("a", "GENRES", eq("genre", "Drama"), 0.4, 0.6)
        b = Preference("b", "GENRES", eq("genre", "Comedy"), 0.9, 0.2)
        plan = Prefer(Relation("GENRES"), [a, b])
        ordered = reorder_prefers(plan, movie_db.catalog)
        assert evaluate_reference(plan, movie_db.catalog).same_contents(
            evaluate_reference(ordered, movie_db.catalog)
        )


P_YEAR = Preference("p_year", "MOVIES", cmp("year", ">=", 2005), 0.8, 0.9)


def rewrite_violations(before, after, catalog) -> list[str]:
    """The invariants any sound rewrite preserves; empty when all hold.

    The same root attribute-name set (join reordering may permute columns,
    so order is not compared), the same answer under the reference
    executor once conformed to *before*'s column order, the same multiset
    of preferences and the same multiset of base relations.  A typed error
    evaluating *after* is reported as a violation.
    """
    problems = []
    try:
        names_before = _attribute_names(before, catalog)
        names_after = _attribute_names(after, catalog)
        if names_before != names_after:
            problems.append(f"output attributes {names_before} -> {names_after}")
        else:
            expected = evaluate_reference(before, catalog)
            answer = conform(evaluate_reference(after, catalog), before.schema(catalog))
            if not expected.same_contents(answer):
                problems.append("reference answer changed")
    except ReproError as err:
        problems.append(f"{type(err).__name__}: {err}")
    if Counter(before.preferences()) != Counter(after.preferences()):
        problems.append("preference multiset changed")
    if _relation_leaves(before) != _relation_leaves(after):
        problems.append("base-relation multiset changed")
    return problems


def _attribute_names(plan, catalog) -> set[str]:
    return {name.lower() for name in plan.schema(catalog).attribute_names}


def _relation_leaves(plan) -> Counter:
    return Counter(
        (node.name, node.alias) for node in plan.walk() if isinstance(node, Relation)
    )


class TestRewriteInvariants:
    """The checker behind the per-rule property catches each broken rewrite."""

    def test_prefer_pushed_to_the_wrong_join_input_is_caught(self, movie_db):
        # A "pushdown" landing the preference on the input lacking its
        # attribute: the reference executor refuses the rewritten plan.
        before = Prefer(
            Join(Relation("MOVIES"), Relation("DIRECTORS"), cmp("year", ">", 0)),
            [P_YEAR],
        )
        after = Join(
            Relation("MOVIES"),
            Prefer(Relation("DIRECTORS"), [P_YEAR]),
            cmp("year", ">", 0),
        )
        [problem] = rewrite_violations(before, after, movie_db.catalog)
        assert problem.startswith("SchemaError: unknown attribute 'year'")

    def test_changing_the_answer_is_caught(self, movie_db):
        before = Prefer(Relation("MOVIES"), [P_YEAR])
        after = Select(Prefer(Relation("MOVIES"), [P_YEAR]), eq("m_id", 1))
        assert rewrite_violations(before, after, movie_db.catalog) == [
            "reference answer changed"
        ]

    def test_changing_output_attributes_is_caught(self, movie_db):
        before = Relation("MOVIES")
        after = Project(Relation("MOVIES"), ["title"])
        [problem] = rewrite_violations(before, after, movie_db.catalog)
        assert problem.startswith("output attributes")

    def test_column_permutation_is_allowed(self, movie_db):
        before = Join(Relation("MOVIES"), Relation("DIRECTORS"), cmp("year", ">", 0))
        after = Join(Relation("DIRECTORS"), Relation("MOVIES"), cmp("year", ">", 0))
        assert rewrite_violations(before, after, movie_db.catalog) == []

    def test_dropping_a_prefer_is_caught(self, movie_db):
        before = Prefer(Relation("MOVIES"), [P_YEAR])
        after = Relation("MOVIES")
        assert rewrite_violations(before, after, movie_db.catalog) == [
            "reference answer changed",
            "preference multiset changed",
        ]

    def test_duplicating_a_prefer_is_caught(self, movie_db):
        before = Prefer(Relation("MOVIES"), [P_YEAR])
        after = Prefer(Relation("MOVIES"), [P_YEAR, P_YEAR])
        assert rewrite_violations(before, after, movie_db.catalog) == [
            "reference answer changed",
            "preference multiset changed",
        ]

    def test_changing_relation_leaves_is_caught(self, movie_db):
        before = Relation("MOVIES")
        after = Intersect(Relation("MOVIES"), Relation("MOVIES"))
        assert rewrite_violations(before, after, movie_db.catalog) == [
            "base-relation multiset changed"
        ]

    def test_legal_pushdown_is_clean(self, movie_db):
        before = Prefer(Select(Relation("MOVIES"), cmp("year", ">", 2000)), [P_YEAR])
        after = Select(Prefer(Relation("MOVIES"), [P_YEAR]), cmp("year", ">", 2000))
        assert rewrite_violations(before, after, movie_db.catalog) == []


class TestVerifiedRewritesProperty:
    """Property: on random plans, every optimizer rule applied on its own
    preserves the rewrite invariants, and the whole pipeline's output
    agrees with the unoptimized reference executor."""

    def test_random_plans(self):
        from hypothesis import HealthCheck, example, given, settings

        from repro.optimizer import (
            PreferenceOptimizer,
            left_deepen,
            match_native_join_order,
        )
        from tests.conformance import prefer_runs_normal
        from tests.conftest import examples
        from tests.test_strategy_fuzz import DB, plans

        rules = (
            push_selections,
            push_projections,
            push_prefers,
            reorder_prefers,
            match_native_join_order,
            left_deepen,
        )
        optimizer = PreferenceOptimizer(DB.catalog)
        movies, ratings = Relation("MOVIES"), Relation("RATINGS")
        # A positional union whose inputs carry different attribute names.
        renaming_union = Union(
            Project(Relation("DIRECTORS"), ["d_id"]),
            Project(
                Join(movies, ratings, natural_join_condition(DB.catalog, movies, ratings)),
                ["MOVIES.m_id"],
            ),
        )

        @settings(
            max_examples=examples(40),
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(plans())
        @example(renaming_union)
        def check(plan):
            plan = qualify_preferences(plan, DB.catalog)
            for rule in rules:
                rewritten = rule(plan, DB.catalog)
                problems = rewrite_violations(plan, rewritten, DB.catalog)
                assert problems == [], f"{rule.__name__}: {problems}"
                assert prefer_runs_normal(rewritten), rule.__name__
            optimized = optimizer.optimize(plan)
            before = evaluate_reference(plan, DB.catalog)
            after = conform(
                evaluate_reference(optimized, DB.catalog), plan.schema(DB.catalog)
            )
            assert before.same_contents(after)

        check()


class TestWorkloadAcceptance:
    """The six Table II queries: optimized plans agree with the reference
    executor, are already in rule 5's order, and execute."""

    @pytest.fixture(scope="class")
    def sessions(self, imdb_tiny, dblp_tiny):
        from repro.workloads import all_queries

        out = []
        for query in all_queries():
            db = imdb_tiny if query.dataset == "imdb" else dblp_tiny
            out.append((query, query.session(db), db))
        return out

    def test_optimizer_output_matches_reference(self, sessions):
        for query, session, db in sessions:
            compiled = session.compile(query.sql)
            prepared = session.engine.prepare(compiled.plan)
            optimized = session.engine.optimizer.optimize(prepared)
            baseline = evaluate_reference(prepared, db.catalog)
            rewritten = conform(
                evaluate_reference(optimized, db.catalog),
                prepared.schema(db.catalog),
            )
            assert baseline.same_contents(rewritten), query.name

    def test_optimized_plans_are_fixed_points_of_rule5(self, sessions):
        # The optimizer's last word on prefer chains: reordering its output
        # again by ascending selectivity (Property 4.3) changes nothing.
        for query, session, db in sessions:
            prepared = session.engine.prepare(session.compile(query.sql).plan)
            optimized = session.engine.optimizer.optimize(prepared)
            assert reorder_prefers(optimized, db.catalog) == optimized, query.name

    def test_optimized_execution_runs(self, sessions):
        for query, session, _db in sessions:
            result = session.execute(query.sql)
            assert result.stats.rows == len(result.relation)
