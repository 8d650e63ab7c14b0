"""repro — a preference-aware relational database engine in pure Python.

Reproduction of Arvanitis & Koutrika, *"Towards Preference-aware Relational
Databases"* (ICDE 2012): the three-dimensional preference model
(conditional / scoring / confidence), p-relations, the extended relational
algebra with the prefer operator, the heuristic preference-aware query
optimizer, and the FtP / BU / GBU execution strategies with plug-in
baselines — all on top of a self-contained in-memory relational engine.

Quickstart::

    from repro import Database, DataType, ExecutionEngine, Preference, scan
    from repro import eq, recency_score

    db = Database()
    db.create_table("MOVIES", [("m_id", DataType.INT), ("title", DataType.TEXT),
                               ("year", DataType.INT)], primary_key=["m_id"])
    db.insert_many("MOVIES", [(1, "Gran Torino", 2008), (2, "Scoop", 2006)])
    db.analyze()

    p = Preference("recent", "MOVIES", eq("year", 2008),
                   recency_score("year", 2011), confidence=0.9)
    plan = scan("MOVIES").prefer(p).top(5, by="score").build()
    result = ExecutionEngine(db).run(plan, strategy="gbu")
    for row, score, conf in result.relation.triples():
        print(row, score, conf)
"""

from .core import (
    F_MAX,
    F_MIN,
    F_S,
    AggregateFunction,
    CallableScore,
    ConstantScore,
    ExprScore,
    PRelation,
    Preference,
    ScorePair,
    around_score,
    get_aggregate,
    prefer,
    rating_score,
    recency_score,
    weighted,
)
from .engine import (
    TRUE,
    Between,
    Comparison,
    CostModel,
    Database,
    DataType,
    InList,
    TableSchema,
    cmp,
    col,
    eq,
    lit,
)
from .errors import ReproError
from .core.context import ContextualPreference, active_preferences
from .filtering import (
    conf_at_least,
    ranked,
    score_at_least,
    skyline,
    skyline_pairs,
    topk,
)
from .obs import Tracer, current_tracer, use_tracer
from .optimizer import OptimizerConfig, PreferenceOptimizer, optimize
from .resilience import (
    CancellationToken,
    FaultPlan,
    FaultSpec,
    QueryGuard,
    RetryPolicy,
    use_guard,
)
from .pexec import STRATEGIES, ExecutionEngine, QueryResult, evaluate_reference
from .plan import PlanBuilder, explain, scan
from .query import Session

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # engine
    "Database",
    "DataType",
    "TableSchema",
    "CostModel",
    # expressions
    "col",
    "lit",
    "eq",
    "cmp",
    "TRUE",
    "Comparison",
    "Between",
    "InList",
    # core model
    "Preference",
    "PRelation",
    "ScorePair",
    "prefer",
    "AggregateFunction",
    "F_S",
    "F_MAX",
    "F_MIN",
    "get_aggregate",
    "ConstantScore",
    "ExprScore",
    "CallableScore",
    "rating_score",
    "recency_score",
    "around_score",
    "weighted",
    # plans and optimization
    "scan",
    "PlanBuilder",
    "explain",
    "optimize",
    "PreferenceOptimizer",
    "OptimizerConfig",
    # execution
    "ExecutionEngine",
    "QueryResult",
    "STRATEGIES",
    "evaluate_reference",
    # filtering
    "topk",
    "ranked",
    "score_at_least",
    "conf_at_least",
    "skyline",
    "skyline_pairs",
    # sessions and context
    "Session",
    "ContextualPreference",
    "active_preferences",
    # observability
    "Tracer",
    "current_tracer",
    "use_tracer",
    # resilience
    "QueryGuard",
    "CancellationToken",
    "use_guard",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
]
