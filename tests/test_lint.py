"""Tests for the algebraic-safety source linter (``python -m repro.lint``).

Each LN code gets a minimal triggering source snippet; the final test runs
the real linter over the real source tree and requires it to be clean —
which is exactly what the CI lint job enforces.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis_static.lint import lint_paths, lint_source, run_lint


def codes(findings):
    return [f.code for f in findings]


def lint_snippet(source, path="snippet.py"):
    return lint_source(path, source)


class TestLN100Syntax:
    def test_unparsable_file_is_ln100(self):
        found = lint_snippet("def broken(:\n")
        assert codes(found) == ["LN100"]


class TestLN101ScoreEquality:
    def test_raw_equality_on_score_name_is_ln101(self):
        found = lint_snippet("if a.score == b.score:\n    pass\n")
        assert codes(found) == ["LN101"]

    def test_inequality_counts_too(self):
        found = lint_snippet("ok = my_score != 0.5\n")
        assert codes(found) == ["LN101"]

    def test_ordered_comparison_is_fine(self):
        assert lint_snippet("ok = a.score >= 0.5\n") == []

    def test_non_score_names_are_fine(self):
        assert lint_snippet("ok = a.year == b.year\n") == []


class TestLN102BottomLiterals:
    def test_scorepair_none_literal_is_ln102(self):
        found = lint_snippet("p = ScorePair(None, 0.5)\n")
        assert codes(found) == ["LN102"]

    def test_pair_bottom_name_is_ln102(self):
        found = lint_snippet("p = pair(BOTTOM, 1.0)\n")
        assert codes(found) == ["LN102"]

    def test_score_keyword_is_ln102(self):
        found = lint_snippet("p = ScorePair(conf=0.5, score=None)\n")
        assert codes(found) == ["LN102"]

    def test_known_score_is_fine(self):
        assert lint_snippet("p = ScorePair(0.5, 0.5)\n") == []

    def test_scorepair_module_is_exempt(self):
        source = "p = ScorePair(None, 0.0)\n"
        assert lint_source("src/repro/core/scorepair.py", source) == []


class TestLN103ExhaustiveDispatch:
    def test_incomplete_strict_dispatcher_is_ln103(self):
        source = (
            "def visit(plan):\n"
            "    if isinstance(plan, Relation):\n"
            "        return 1\n"
            "    if isinstance(plan, (Select, Project, Join)):\n"
            "        return 2\n"
            "    raise ValueError(plan)\n"
        )
        found = lint_snippet(source)
        assert codes(found) == ["LN103"]
        assert "Prefer" in found[0].message  # one of the missing classes

    def test_exhaustive_dispatcher_is_fine(self):
        source = (
            "def visit(plan):\n"
            "    if isinstance(plan, (Relation, Materialized, Select, Project)):\n"
            "        return 1\n"
            "    if isinstance(plan, (Join, LeftJoin, Union, Intersect, Difference)):\n"
            "        return 2\n"
            "    if isinstance(plan, (Prefer, TopK)):\n"
            "        return 3\n"
            "    raise ValueError(plan)\n"
        )
        assert lint_snippet(source) == []

    def test_abstract_base_covers_its_subclasses(self):
        # Dispatching on PlanNode subtree bases (e.g. the set-op base) counts
        # as covering every concrete class below them.
        source = (
            "def visit(plan):\n"
            "    if isinstance(plan, (Relation, Materialized, Select, Project)):\n"
            "        return 1\n"
            "    if isinstance(plan, (Join, LeftJoin, _SetOperation)):\n"
            "        return 2\n"
            "    if isinstance(plan, (Prefer, TopK)):\n"
            "        return 3\n"
            "    raise ValueError(plan)\n"
        )
        assert lint_snippet(source) == []

    def test_small_dispatchers_are_not_flagged(self):
        source = (
            "def only_joins(plan):\n"
            "    if isinstance(plan, Join):\n"
            "        return 1\n"
            "    raise ValueError(plan)\n"
        )
        assert lint_snippet(source) == []

    def test_non_raising_fallthrough_is_not_flagged(self):
        source = (
            "def visit(plan):\n"
            "    if isinstance(plan, (Relation, Select, Project, Join)):\n"
            "        return 1\n"
            "    return None\n"
        )
        assert lint_snippet(source) == []


class TestLN104RegistryMutation:
    def test_direct_registry_write_is_ln104(self):
        found = lint_snippet("_REGISTRY['mine'] = fn\n")
        assert codes(found) == ["LN104"]

    def test_registry_update_call_is_ln104(self):
        found = lint_snippet("aggregates._REGISTRY.update(other)\n")
        assert codes(found) == ["LN104"]

    def test_registrar_function_is_exempt(self):
        source = (
            "def register_aggregate(fn):\n"
            "    _REGISTRY[fn.name] = fn\n"
        )
        assert lint_snippet(source) == []


class TestLN105AggregateLaws:
    def test_live_registry_passes_the_law_suite(self):
        from repro.core.aggregates import verify_registered_aggregates

        assert verify_registered_aggregates() == []

    def test_law_breaking_aggregate_is_reported(self):
        from repro.core.aggregates import AggregateFunction, failed_laws

        class Subtraction(AggregateFunction):
            # Not commutative, no identity: every law should have a witness.
            name = "f_sub"

            def combine(self, a, b):
                from repro.core.scorepair import ScorePair

                return ScorePair(
                    (a.score or 0.0) - (b.score or 0.0), a.conf - b.conf
                )

        messages = failed_laws(Subtraction())
        assert messages  # at least one broken law with a witness
        assert any("commut" in m or "identity" in m or "assoc" in m for m in messages)


class TestSuppression:
    def test_bare_noqa_suppresses(self):
        assert lint_snippet("ok = a.score == b.score  # noqa\n") == []

    def test_matching_code_suppresses(self):
        assert lint_snippet("ok = a.score == b.score  # noqa: LN101\n") == []

    def test_other_code_does_not_suppress(self):
        found = lint_snippet("ok = a.score == b.score  # noqa: LN104\n")
        assert codes(found) == ["LN101"]


class TestRunner:
    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "bad.py").write_text("x = total_score == 1.0\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        found = lint_paths([str(tmp_path)], check_aggregates=False)
        assert codes(found) == ["LN101"]
        assert found[0].path.endswith("bad.py")

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = total_score == 1.0\n")
        assert run_lint([str(bad)]) == 1
        assert "LN101" in capsys.readouterr().out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert run_lint([str(good)]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_repo_source_tree_is_clean(self):
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        assert lint_paths([package_root]) == []


class TestLN302FaultSiteTypos:
    def test_typo_in_faultplan_constructor_is_ln302(self):
        found = lint_snippet('plan = FaultPlan.transient("net.raed")\n')
        assert codes(found) == ["LN302"]

    def test_typo_in_faultspec_site_keyword(self):
        found = lint_snippet('spec = FaultSpec(site="net.writes")\n')
        assert codes(found) == ["LN302"]

    def test_typo_in_site_constant(self):
        found = lint_snippet('FAULT_SITE = "net.acept"\n')
        assert codes(found) == ["LN302"]

    def test_typo_in_site_default_parameter(self):
        found = lint_snippet('def f(site: str = "net.clse"):\n    pass\n')
        assert codes(found) == ["LN302"]

    def test_typo_in_at_call(self):
        found = lint_snippet('faults.at("net.readd")\n')
        assert codes(found) == ["LN302"]

    def test_known_sites_and_prefix_patterns_are_fine(self):
        found = lint_snippet(
            'a = FaultPlan.transient("net.accept")\n'
            'b = FaultPlan.corrupting("net.write")\n'
            'c = FaultSpec("net.read", "latency")\n'
            'd = FaultPlan.transient("net.*")\n'
            'CLOSE_SITE = "net.close"\n'
        )
        assert found == []

    @pytest.mark.parametrize(
        "site", ["strategy.gbu", "iosim.scan", "native.dispatch", "pexec.scores"]
    )
    def test_deleted_engine_site_is_ln302(self, site):
        found = lint_snippet(f'plan = FaultPlan.transient("{site}")\n')
        assert codes(found) == ["LN302"]

    def test_prefix_pattern_matching_nothing_is_ln302(self):
        found = lint_snippet('plan = FaultPlan.transient("strategy.*")\n')
        assert codes(found) == ["LN302"]

    def test_undotted_at_argument_is_ignored(self):
        # .at() is a common method name; only dotted site-shaped literals
        # are validated, so unrelated APIs never false-positive.
        found = lint_snippet('calendar.at("monday")\n')
        assert found == []


class TestLN305DurabilityIO:
    def test_bare_open_in_durability_module_is_ln305(self):
        found = lint_source("src/repro/serve/wal.py", "h = open('x', 'w')\n")
        assert codes(found) == ["LN305"]

    def test_os_fsync_in_durability_module_is_ln305(self):
        found = lint_source(
            "src/repro/engine/persist.py", "os.fsync(handle.fileno())\n"
        )
        assert codes(found) == ["LN305"]

    def test_os_replace_and_remove_are_ln305(self):
        found = lint_source(
            "src/repro/serve/server.py",
            "os.replace('a.tmp', 'a')\nos.remove('b')\n",
        )
        assert codes(found) == ["LN305", "LN305"]

    def test_vfs_calls_are_fine(self):
        found = lint_source(
            "src/repro/serve/wal.py",
            "vfs = current_vfs()\n"
            "with vfs.open('x', 'w') as h:\n"
            "    vfs.fsync(h)\n"
            "vfs.replace('a.tmp', 'a')\n",
        )
        assert found == []

    def test_other_modules_may_do_direct_io(self):
        assert lint_snippet("h = open('x', 'w')\nos.replace('a', 'b')\n") == []

    def test_other_os_calls_are_fine_in_durability_modules(self):
        found = lint_source(
            "src/repro/serve/server.py", "p = os.path.join(a, b)\nos.listdir(a)\n"
        )
        assert found == []

    def test_noqa_suppresses_a_sanctioned_bypass(self):
        found = lint_source(
            "src/repro/serve/server.py",
            "os.remove(path)  # noqa: LN305 - GC of a superseded file\n",
        )
        assert found == []


class TestPlanCoverageScoping:
    def test_foreign_plan_subclasses_do_not_poison_ln103(self):
        # Plan-node subclasses defined outside the repro package (test
        # doubles like the fallback matrix's trigger node) must not count
        # as concrete nodes every dispatcher has to cover.
        from repro.analysis_static.lint import _plan_class_coverage
        from repro.plan.nodes import PlanNode

        class _TestOnlyNode(PlanNode):  # pragma: no cover - definition only
            pass

        concrete, _ = _plan_class_coverage()
        assert "_TestOnlyNode" not in concrete
        assert not any(name.startswith("_TestOnly") for name in concrete)


class TestLN401ServingLayerWrites:
    def test_store_mutation_in_net_server_is_ln401(self):
        found = lint_source(
            "src/repro/serve/net/server.py",
            "def handle(self, user, pref):\n"
            "    self.server.store.add(user, pref)\n",
        )
        assert codes(found) == ["LN401"]

    def test_db_insert_in_cache_module_is_ln401(self):
        found = lint_source(
            "src/repro/cache/service.py",
            "def apply(self, table, values):\n"
            "    self.db.insert(table, values)\n",
        )
        assert codes(found) == ["LN401"]

    def test_bare_store_name_is_flagged_too(self):
        found = lint_source(
            "src/repro/serve/net/load.py",
            "def seed(store, user):\n"
            "    store.clear(user)\n",
        )
        assert codes(found) == ["LN401"]

    def test_single_writer_path_is_exempt(self):
        # serve/server.py owns the mutex, the WAL and the commit feed; its
        # store/db calls are the sanctioned write path.
        found = lint_source(
            "src/repro/serve/server.py",
            "def add_preference(self, user, pref):\n"
            "    self.store.add(user, pref)\n"
            "    self.db.insert('T', (1,))\n",
        )
        assert found == []

    def test_reads_and_server_mutators_are_fine(self):
        found = lint_source(
            "src/repro/serve/net/server.py",
            "def query(self, user):\n"
            "    prefs = snapshot.store.preferences_of(user)\n"
            "    self.server.add_preference(user, prefs[0])\n"
            "    rows = snapshot.db.table('T').rows\n",
        )
        assert found == []

    def test_outside_the_serving_layer_is_out_of_scope(self):
        found = lint_source(
            "src/repro/engine/database.py",
            "def reseed(self):\n"
            "    self.db.insert('T', (1,))\n"
            "    self.store.clear('u')\n",
        )
        assert found == []

    def test_noqa_suppresses_a_sanctioned_write(self):
        found = lint_source(
            "src/repro/cache/service.py",
            "store.add(user, pref)  # noqa: LN401 - test fixture seeding\n",
        )
        assert found == []
