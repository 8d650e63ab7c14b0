"""Static plan verifier tests: one triggering plan per diagnostic code.

Every negative-path test hand-builds an illegal plan and asserts the exact
diagnostic code(s); the acceptance half checks that all six workload queries
verify clean — parsed and optimized — and that verifier-approved optimizer
output agrees with the unoptimized reference executor.  The rewrite half
checks every optimizer rule, one at a time, for the invariants a sound
rewrite preserves.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis_static import Severity, verify_plan
from repro.core.aggregates import F_MAX, F_MIN, F_S
from repro.core.preference import Preference
from repro.engine.expressions import TRUE, cmp, eq
from repro.errors import PlanError
from repro.plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)

P_YEAR = Preference("p_year", "MOVIES", cmp("year", ">=", 2005), 0.8, 0.9)
P_GENRE = Preference("p_genre", "GENRES", eq("genre", "Comedy"), 0.8, 0.9)
P_MID = Preference("p_mid", "MOVIES", eq("m_id", 1), 1.0, 1.0)
P_ALL = Preference("p_all", "MOVIES", TRUE, 0.5, 0.5)


def codes(diagnostics):
    return [d.code for d in diagnostics]


@pytest.fixture
def catalog(movie_db):
    return movie_db.catalog


class TestSchemaFaults:
    def test_unknown_relation_is_pv100(self, catalog):
        found = verify_plan(Relation("NO_SUCH_TABLE"), catalog)
        assert codes(found) == ["PV100"]

    def test_projection_of_missing_attribute_is_pv100(self, catalog):
        plan = Project(Relation("MOVIES"), ["title", "no_such_attr"])
        found = verify_plan(plan, catalog)
        assert codes(found) == ["PV100"]

    def test_join_condition_on_reserved_attribute_is_pv100(self, catalog):
        plan = Join(
            Relation("MOVIES"), Relation("GENRES"), cmp("score", ">=", 0.5)
        )
        assert "PV100" in codes(verify_plan(plan, catalog))

    def test_broken_subtree_reports_once_not_per_ancestor(self, catalog):
        # Manual schema derivation: the bad leaf yields one PV100, the
        # Select/Project ancestors do not cascade.
        plan = Project(
            Select(Relation("NO_SUCH_TABLE"), cmp("year", ">", 2000)), ["title"]
        )
        assert codes(verify_plan(plan, catalog)) == ["PV100"]


class TestFilteringOrder:
    def test_score_selection_below_prefer_is_pv101(self, catalog):
        plan = Prefer(
            Select(Prefer(Relation("MOVIES"), P_YEAR), cmp("score", ">=", 0.5)),
            P_MID,
        )
        assert codes(verify_plan(plan, catalog)) == ["PV101"]

    def test_topk_below_prefer_is_pv102(self, catalog):
        plan = Prefer(TopK(Prefer(Relation("MOVIES"), P_YEAR), 3), P_MID)
        assert codes(verify_plan(plan, catalog)) == ["PV102"]

    def test_score_selection_above_prefer_is_clean(self, catalog):
        plan = Select(Prefer(Relation("MOVIES"), P_YEAR), cmp("score", ">=", 0.5))
        assert verify_plan(plan, catalog) == []

    def test_score_filter_without_any_prefer_is_pv110(self, catalog):
        plan = Select(Relation("MOVIES"), cmp("conf", ">=", 0.5))
        assert codes(verify_plan(plan, catalog)) == ["PV110"]

    def test_topk_without_any_prefer_is_pv110(self, catalog):
        plan = TopK(Relation("MOVIES"), 5, "score")
        assert codes(verify_plan(plan, catalog)) == ["PV110"]


class TestPreferPlacement:
    def test_prefer_on_wrong_input_is_pv103(self, catalog):
        # P_YEAR needs MOVIES.year but sits over DIRECTORS.
        plan = Prefer(Relation("DIRECTORS"), P_YEAR)
        found = verify_plan(plan, catalog)
        assert codes(found) == ["PV103"]
        assert found[0].severity is Severity.ERROR

    def test_ambiguous_owner_under_join_is_pv104(self, catalog):
        # m_id resolves in GENRES too, so the owning side is ambiguous.
        plan = Join(
            Prefer(Relation("MOVIES"), P_MID),
            Relation("GENRES"),
            cmp("year", ">", 0),
        )
        found = verify_plan(plan, catalog)
        assert "PV104" in codes(found)

    def test_single_owner_under_join_is_clean(self, catalog):
        plan = Join(
            Prefer(Relation("MOVIES"), P_YEAR),
            Relation("DIRECTORS"),
            cmp("year", ">", 0),
        )
        assert verify_plan(plan, catalog) == []


class TestSetOperations:
    def test_incompatible_union_is_pv106(self, catalog):
        plan = Union(Relation("MOVIES"), Relation("DIRECTORS"))
        assert codes(verify_plan(plan, catalog)) == ["PV106"]

    def test_prefer_in_subtracted_input_is_pv107(self, catalog):
        plan = Difference(Relation("MOVIES"), Prefer(Relation("MOVIES"), P_YEAR))
        found = verify_plan(plan, catalog)
        assert codes(found) == ["PV107"]
        assert found[0].severity is Severity.WARNING

    def test_prefer_in_kept_input_is_clean(self, catalog):
        plan = Intersect(Prefer(Relation("MOVIES"), P_YEAR), Relation("MOVIES"))
        assert verify_plan(plan, catalog) == []

    def test_prefer_in_unpreserved_leftjoin_input_is_pv109(self, catalog):
        plan = LeftJoin(
            Relation("MOVIES"),
            Prefer(Relation("GENRES"), P_GENRE),
            cmp("year", ">", 0),
        )
        assert codes(verify_plan(plan, catalog)) == ["PV109"]


class TestAggregateAgreement:
    def test_conflicting_overrides_are_pv108(self, catalog):
        plan = Prefer(Prefer(Relation("MOVIES"), P_YEAR, F_MAX), P_MID, F_MIN)
        assert codes(verify_plan(plan, catalog)) == ["PV108"]

    def test_override_conflicting_with_query_default_is_pv108(self, catalog):
        plan = Prefer(Relation("MOVIES"), P_YEAR, F_MAX)
        found = verify_plan(plan, catalog, default_aggregate=F_S)
        assert codes(found) == ["PV108"]

    def test_matching_overrides_are_clean(self, catalog):
        plan = Prefer(Prefer(Relation("MOVIES"), P_YEAR, F_MAX), P_MID, F_MAX)
        assert verify_plan(plan, catalog, default_aggregate=F_MAX) == []


class TestChainOrder:
    def chain(self):
        # Selective condition (m_id = 1) on top, unconditional below:
        # execution runs the expensive preference first — out of order.
        return Prefer(Prefer(Relation("MOVIES"), P_ALL), P_MID)

    def test_out_of_order_chain_is_pv105_when_opted_in(self, catalog):
        found = verify_plan(self.chain(), catalog, ordered_chains=True)
        assert codes(found) == ["PV105"]
        assert found[0].severity is Severity.WARNING

    def test_chain_order_not_checked_by_default(self, catalog):
        # User-written plans may order chains any way (Property 4.3).
        assert verify_plan(self.chain(), catalog) == []

    def test_ascending_chain_is_clean(self, catalog):
        plan = Prefer(Prefer(Relation("MOVIES"), P_MID), P_ALL)
        assert verify_plan(plan, catalog, ordered_chains=True) == []


class TestCatalog:
    def test_every_code_is_documented(self):
        # The catalog docstring promises docs/STATIC_ANALYSIS.md membership.
        import os

        from repro.analysis_static.diagnostics import CATALOG

        doc = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "STATIC_ANALYSIS.md"
        )
        with open(doc, encoding="utf-8") as handle:
            text = handle.read()
        undocumented = sorted(code for code in CATALOG if code not in text)
        assert undocumented == []

    def test_unknown_code_raises(self):
        from repro.analysis_static.diagnostics import make_diagnostic

        with pytest.raises(KeyError):
            make_diagnostic("PV999", "nope")

    def test_rendering_includes_location(self):
        from repro.analysis_static.diagnostics import make_diagnostic

        rendered = str(make_diagnostic("PV106", "mismatch", where="∪"))
        assert rendered == "PV106 [error] at ∪: mismatch"


class TestDispatch:
    def test_unknown_node_class_raises(self, catalog):
        class Mystery:
            pass

        with pytest.raises(PlanError, match="unknown plan node"):
            verify_plan(Mystery(), catalog)


class TestWorkloadAcceptance:
    """All six workload queries verify clean, parsed and optimized, and the
    verifier-approved optimizer output agrees with the reference executor."""

    @pytest.fixture(scope="class")
    def sessions(self, imdb_tiny, dblp_tiny):
        from repro.workloads import all_queries

        out = []
        for query in all_queries():
            db = imdb_tiny if query.dataset == "imdb" else dblp_tiny
            out.append((query, query.session(db), db))
        return out

    def test_parsed_plans_verify_clean(self, sessions):
        for query, session, _db in sessions:
            assert session.verify(query.sql) == [], query.name

    def test_optimized_plans_verify_clean(self, sessions):
        for query, session, _db in sessions:
            assert session.verify(query.sql, optimized=True) == [], query.name

    def test_verified_optimizer_output_matches_reference(self, sessions):
        from repro.pexec.conform import conform
        from repro.pexec.reference import evaluate_reference

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

    def test_optimized_execution_runs(self, sessions):
        for query, session, _db in sessions:
            result = session.execute(query.sql)
            assert result.stats.rows == len(result.relation)


def rewrite_violations(before, after, catalog) -> list[str]:
    """The invariants any sound rewrite preserves; empty when all hold.

    No new error-severity verifier code, the same root attribute-name set
    (join reordering may permute columns, so order is not compared), the
    same multiset of preferences and the same multiset of base relations.
    """
    errors_before = _error_codes(before, catalog)
    new_errors = _error_codes(after, catalog) - errors_before
    problems = []
    if new_errors:
        problems.append(f"new verifier errors {sorted(new_errors.elements())}")
    elif not errors_before:
        names_before = _attribute_names(before, catalog)
        names_after = _attribute_names(after, catalog)
        if names_before != names_after:
            problems.append(f"output attributes {names_before} -> {names_after}")
    if Counter(before.preferences()) != Counter(after.preferences()):
        problems.append("preference multiset changed")
    if _relation_leaves(before) != _relation_leaves(after):
        problems.append("base-relation multiset changed")
    return problems


def _error_codes(plan, catalog) -> Counter:
    return Counter(
        d.code for d in verify_plan(plan, catalog) if d.severity is Severity.ERROR
    )


def _attribute_names(plan, catalog) -> set[str]:
    return {name.lower() for name in plan.schema(catalog).attribute_names}


def _relation_leaves(plan) -> Counter:
    return Counter(
        (node.name, node.alias) for node in plan.walk() if isinstance(node, Relation)
    )


class TestRewriteInvariants:
    """The checker behind the per-rule property catches each broken rewrite."""

    def test_introducing_a_verifier_error_is_caught(self, catalog):
        # A "pushdown" landing the preference on the wrong join input.
        before = Prefer(
            Join(Relation("MOVIES"), Relation("DIRECTORS"), cmp("year", ">", 0)),
            P_YEAR,
        )
        after = Join(
            Relation("MOVIES"),
            Prefer(Relation("DIRECTORS"), P_YEAR),
            cmp("year", ">", 0),
        )
        assert rewrite_violations(before, after, catalog) == [
            "new verifier errors ['PV103']"
        ]

    def test_changing_output_attributes_is_caught(self, catalog):
        before = Relation("MOVIES")
        after = Project(Relation("MOVIES"), ["title"])
        [problem] = rewrite_violations(before, after, catalog)
        assert problem.startswith("output attributes")

    def test_column_permutation_is_allowed(self, catalog):
        before = Join(Relation("MOVIES"), Relation("DIRECTORS"), cmp("year", ">", 0))
        after = Join(Relation("DIRECTORS"), Relation("MOVIES"), cmp("year", ">", 0))
        assert rewrite_violations(before, after, catalog) == []

    def test_dropping_a_prefer_is_caught(self, catalog):
        before = Prefer(Relation("MOVIES"), P_YEAR)
        after = Relation("MOVIES")
        assert rewrite_violations(before, after, catalog) == [
            "preference multiset changed"
        ]

    def test_duplicating_a_prefer_is_caught(self, catalog):
        before = Prefer(Relation("MOVIES"), P_YEAR)
        after = Prefer(Prefer(Relation("MOVIES"), P_YEAR), P_YEAR)
        assert rewrite_violations(before, after, catalog) == [
            "preference multiset changed"
        ]

    def test_changing_relation_leaves_is_caught(self, catalog):
        before = Relation("MOVIES")
        after = Intersect(Relation("MOVIES"), Relation("MOVIES"))
        assert rewrite_violations(before, after, catalog) == [
            "base-relation multiset changed"
        ]

    def test_legal_pushdown_is_clean(self, catalog):
        before = Prefer(Select(Relation("MOVIES"), cmp("year", ">", 2000)), P_YEAR)
        after = Select(Prefer(Relation("MOVIES"), P_YEAR), cmp("year", ">", 2000))
        assert rewrite_violations(before, after, catalog) == []


class TestVerifiedRewritesProperty:
    """Property: on random plans, every optimizer rule applied on its own
    preserves the rewrite invariants, and the whole pipeline's output is
    verifier-approved and agrees with the unoptimized reference executor."""

    def test_random_plans(self):
        from hypothesis import HealthCheck, example, given, settings

        from repro.optimizer import (
            PreferenceOptimizer,
            left_deepen,
            match_native_join_order,
            push_prefers,
            push_projections,
            push_selections,
            reorder_prefers,
        )
        from repro.pexec.conform import conform
        from repro.pexec.reference import evaluate_reference
        from repro.plan.analysis import qualify_preferences
        from repro.plan.builder import natural_join_condition
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
            max_examples=40,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(plans())
        @example(renaming_union)
        def check(plan):
            qualified = qualify_preferences(plan, DB.catalog)
            for rule in rules:
                problems = rewrite_violations(
                    qualified, rule(qualified, DB.catalog), DB.catalog
                )
                assert problems == [], f"{rule.__name__}: {problems}"
            optimized = optimizer.optimize(qualified)
            errors = [
                d
                for d in verify_plan(optimized, DB.catalog, ordered_chains=True)
                if d.severity is Severity.ERROR
            ]
            assert errors == [], f"verifier rejected optimizer output: {errors}"
            before = evaluate_reference(qualified, DB.catalog)
            after = conform(
                evaluate_reference(optimized, DB.catalog),
                qualified.schema(DB.catalog),
            )
            assert before.same_contents(after)

        check()
