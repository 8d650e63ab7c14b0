"""Logical plan nodes for extended (preference-aware) query plans.

An *extended query plan* is an expression tree whose leaves are p-relations
(base tables lifted with default pairs) and whose internal nodes are extended
relational operators plus the prefer operator (§VI, Fig. 7).  Plans are
immutable values: rewrites build new trees.

Filtering operators (``TopK``, selections over ``score``/``conf``) are plain
plan nodes too — the paper's point is precisely that preference *evaluation*
(Prefer) is separate from preferred-tuple *filtering*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # break the core ↔ plan import cycle: hints only
    from ..core.aggregates import AggregateFunction
    from ..core.preference import Preference
    from ..core.prefgroup import CompiledGroup

from ..engine.catalog import Catalog
from ..engine.expressions import Expr
from ..engine.schema import TableSchema
from ..errors import PlanError


class PlanNode:
    """Base class of all logical plan nodes."""

    #: Operator name used by the printer and the execution engines.
    kind = "abstract"

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """Rebuild this node with new children (same arity)."""
        raise NotImplementedError

    def schema(self, catalog: Catalog) -> TableSchema:
        """Output schema of this subtree."""
        raise NotImplementedError

    # -- tree utilities --------------------------------------------------------

    def walk(self):
        """Yield every node of the subtree, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def contains_prefer(self) -> bool:
        return any(isinstance(node, Prefer) for node in self.walk())

    def relations(self) -> set[str]:
        """Names of the base relations referenced in this subtree."""
        return {node.name for node in self.walk() if isinstance(node, Relation)}

    def preferences(self) -> list[Preference]:
        """All preferences of the subtree in one fold order: the prefer runs
        in reverse pre-order (a run before the runs above it), each run's
        preferences in its own fold order."""
        runs = [node.run for node in self.walk() if isinstance(node, Prefer)]
        return [preference for run in reversed(runs) for preference in run]

    def label(self) -> str:
        """One-line description used by the plan printer."""
        return self.kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanNode):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._key() == other._key()
            and self.children() == other.children()
        )

    #: The node's hash once computed: plans are immutable values.
    _hash: int | None = None

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._key(), self.children()))
        return self._hash

    def _key(self) -> tuple:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.label()


class Relation(PlanNode):
    """A base table leaf, optionally aliased."""

    kind = "relation"

    def __init__(self, name: str, alias: str | None = None):
        self.name = name.upper()
        self.alias = alias.upper() if alias else None

    def with_children(self, children: Sequence[PlanNode]) -> "Relation":
        if children:
            raise PlanError("relation nodes have no children")
        return self

    def schema(self, catalog: Catalog) -> TableSchema:
        schema = catalog.table(self.name).schema
        if self.alias and self.alias != self.name:
            return schema.rename(self.alias)
        return schema

    @property
    def effective_name(self) -> str:
        return self.alias or self.name

    def label(self) -> str:
        if self.alias and self.alias != self.name:
            return f"{self.name} AS {self.alias}"
        return self.name

    def _key(self) -> tuple:
        return (self.name, self.alias)


class Materialized(PlanNode):
    """A leaf carrying an already-computed intermediate relation.

    The execution strategies (notably GBU) materialize partial results and
    feed them back into native subqueries; this node is how such data enters
    a plan.  Identity-based equality: two materializations are never "the
    same subtree".
    """

    kind = "materialized"

    def __init__(self, schema: TableSchema, rows: Sequence[tuple], name: str | None = None):
        self._schema = schema
        self.rows = list(rows)
        self.name = name or schema.name or "tmp"

    def with_children(self, children: Sequence[PlanNode]) -> "Materialized":
        if children:
            raise PlanError("materialized nodes have no children")
        return self

    def schema(self, catalog: Catalog) -> TableSchema:
        return self._schema

    def label(self) -> str:
        return f"[{self.name}: {len(self.rows)} rows]"

    def _key(self) -> tuple:
        return (id(self),)


class Select(PlanNode):
    """``σ_φ(child)``; φ may reference ``score``/``conf`` (post-filtering)."""

    kind = "select"

    def __init__(self, child: PlanNode, condition: Expr):
        self.child = child
        self.condition = condition

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "Select":
        (child,) = children
        return Select(child, self.condition)

    def schema(self, catalog: Catalog) -> TableSchema:
        return self.child.schema(catalog)

    def label(self) -> str:
        return f"σ[{self.condition!r}]"

    def _key(self) -> tuple:
        return (self.condition,)


class Project(PlanNode):
    """``π_attrs(child)`` — score/conf always survive (p-relation output)."""

    kind = "project"

    def __init__(self, child: PlanNode, attrs: Sequence[str]):
        if not attrs:
            raise PlanError("projection requires at least one attribute")
        self.child = child
        self.attrs = tuple(attrs)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "Project":
        (child,) = children
        return Project(child, self.attrs)

    def schema(self, catalog: Catalog) -> TableSchema:
        return self.child.schema(catalog).project(self.attrs)

    def label(self) -> str:
        return f"π[{', '.join(self.attrs)}]"

    def _key(self) -> tuple:
        return (self.attrs,)


class Join(PlanNode):
    """``left ⋈_{φ,F} right`` — matched pairs combined through F."""

    kind = "join"

    def __init__(self, left: PlanNode, right: PlanNode, condition: Expr):
        self.left = left
        self.right = right
        self.condition = condition

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> "Join":
        left, right = children
        return Join(left, right, self.condition)

    def schema(self, catalog: Catalog) -> TableSchema:
        return self.left.schema(catalog).join(self.right.schema(catalog))

    def label(self) -> str:
        return f"⋈[{self.condition!r}]"

    def _key(self) -> tuple:
        return (self.condition,)


class LeftJoin(PlanNode):
    """``left ⟕_{φ,F} right`` — left outer join on p-relations.

    Matched pairs combine through F like an inner join; unmatched left
    tuples survive padded with NULLs on the right side and keep their own
    pair.  Useful for *membership* preferences that should boost tuples with
    a join partner without eliminating the rest (the paper's p7 evaluated
    non-restrictively).
    """

    kind = "left-join"

    def __init__(self, left: PlanNode, right: PlanNode, condition: Expr):
        self.left = left
        self.right = right
        self.condition = condition

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> "LeftJoin":
        left, right = children
        return LeftJoin(left, right, self.condition)

    def schema(self, catalog: Catalog) -> TableSchema:
        return self.left.schema(catalog).join(self.right.schema(catalog))

    def label(self) -> str:
        return f"⟕[{self.condition!r}]"

    def _key(self) -> tuple:
        return (self.condition,)


class _SetOperation(PlanNode):
    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[PlanNode]) -> "_SetOperation":
        left, right = children
        return type(self)(left, right)

    def schema(self, catalog: Catalog) -> TableSchema:
        left = self.left.schema(catalog)
        right = self.right.schema(catalog)
        if not left.union_compatible(right):
            raise PlanError(f"{self.kind}: inputs are not union-compatible")
        return left


class Union(_SetOperation):
    kind = "union"

    def label(self) -> str:
        return "∪"


class Intersect(_SetOperation):
    kind = "intersect"

    def label(self) -> str:
        return "∩"


class Difference(_SetOperation):
    kind = "difference"

    def label(self) -> str:
        return "−"


class Prefer(PlanNode):
    """``λ_{p1,F} … λ_{pn,F}(child)`` — a run of preferences over the child.

    By Property 4.3 a run of prefer operators under one F is one operator:
    ``run`` holds its preferences in fold order, innermost (first written)
    first, and a single preference is a run of one.  ``aggregate`` of
    ``None`` means the query's default F.  Any other aggregate is honoured
    for this run; the optimizer neither moves such a run nor sinks another
    run through it.  :meth:`over` builds runs in normal form, where no run
    sits directly on a run with the same aggregate.
    """

    kind = "prefer"

    #: The run compiled for one row schema, as ``(key, compiled group)``:
    #: derived from the node's value like ``_hash`` (see :meth:`compiled`).
    _compiled: tuple | None = None

    def __init__(
        self,
        child: PlanNode,
        preferences: Sequence[Preference],
        aggregate: AggregateFunction | None = None,
    ):
        self.child = child
        self.run: tuple[Preference, ...] = tuple(preferences)
        if not self.run:
            raise PlanError("a prefer run needs at least one preference")
        self.aggregate = aggregate

    @classmethod
    def over(
        cls,
        child: PlanNode,
        preferences: Sequence[Preference],
        aggregate: AggregateFunction | None = None,
    ) -> "Prefer":
        """*preferences* folded after *child*'s, as one run when *child* is a
        run with the same aggregate."""
        if isinstance(child, Prefer) and child.aggregate == aggregate:
            return cls(child.child, child.run + tuple(preferences), aggregate)
        return cls(child, preferences, aggregate)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "Prefer":
        (child,) = children
        return Prefer(child, self.run, self.aggregate)

    def schema(self, catalog: Catalog) -> TableSchema:
        return self.child.schema(catalog)

    def compiled(self, aggregate: AggregateFunction, schema: TableSchema) -> CompiledGroup:
        """The run compiled against *schema* under *aggregate* (the node's
        own, or the query default it stands for), on a fresh copy.

        A memoized plan hands one node to every query at a data version, and
        compiling costs more than scoring the few rows a σ_φ answer holds:
        the compilation is kept from the first call and only ever copied
        (stored without a lock: two threads compiling one run compile alike).
        """
        from ..core.prefgroup import PreferenceGroup  # the core ↔ plan cycle

        key = (aggregate, schema)
        kept = self._compiled
        if kept is None or kept[0] != key:
            kept = self._compiled = (key, PreferenceGroup(self.run, aggregate).compile(schema))
        return kept[1].fresh()

    def label(self) -> str:
        return f"λ[{', '.join(p.name for p in self.run)}]"

    def _key(self) -> tuple:
        return (self.run, self.aggregate)


class TopK(PlanNode):
    """``top(k, score|conf)`` — order by the pair component, keep k (Ex. 9).

    Tuples with ⊥ score order below every known score.  A filtering
    operator: it runs after all preference evaluation below it.
    """

    kind = "topk"

    def __init__(self, child: PlanNode, k: int, by: str = "score"):
        if k <= 0:
            raise PlanError(f"top-k requires k >= 1, got {k}")
        if by not in ("score", "conf"):
            raise PlanError(f"top-k orders by 'score' or 'conf', got {by!r}")
        self.child = child
        self.k = k
        self.by = by

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[PlanNode]) -> "TopK":
        (child,) = children
        return TopK(child, self.k, self.by)

    def schema(self, catalog: Catalog) -> TableSchema:
        return self.child.schema(catalog)

    def label(self) -> str:
        return f"top({self.k}, {self.by})"

    def _key(self) -> tuple:
        return (self.k, self.by)
