"""Preference groups — fused single-pass evaluation of many preferences.

A :class:`PreferenceGroup` is an *ordered* sequence of preferences sharing
one aggregate function F.  Evaluating the group sequentially — one full pass
over the input per preference, the shape of the naive prefer fold — costs
O(|R|·|λ|) condition checks.  Compiling the group against a schema yields a
:class:`CompiledGroup` that evaluates every preference in a **single pass**
over the rows.  Each preference is served by one of three structures,
chosen at compile time:

* **Column tables** — a preference whose condition and scoring read exactly
  one resolvable column (``year >= 1990`` scored by ``S_m(year)``,
  ``genre IN (…)``) joins that column's table ``value → [(index, ⟨S,C⟩)]``.
  Equality/IN probes with constant scores pre-fill it at compile time; the
  other members are evaluated lazily, once per *distinct value* of the
  column, and the table keeps every value it has seen.
* **Preference dispatch index** — a multi-column condition with an
  equality conjunct (``genre = 'Drama' AND year >= 2000``, or
  ``attr IN (v1..vk)``) is bucketed into a per-attribute hash map
  ``value → [preferences]``; a row probes the map and checks only the
  remaining conjuncts.
* **Residual list** — every other condition is checked per computed key,
  so the tables are a pure optimization, never a semantic restriction.

A pass does Python work per distinct *match key*, not per row:

* **Match keys** — a row's matches depend only on its column tables' match
  lists (shared list objects, so every value a table answers alike — above
  all, every value matching nothing — maps to one list) and on its values
  of the dispatch and residual preferences' attributes.  A row's key is the
  identity of each column list plus that projection; both are built with
  ``map``/``zip`` over the rows at C speed, so an id-like column under a
  range preference costs one evaluation per distinct value and no per-row
  Python.  When the column tables serve every preference, a row they all
  miss matches nothing, so only the rows some table answers are keyed.
  Each distinct key's match list is computed once and mapped back to its
  rows; rows that all hold one value (σ_φ's answer to an equality) are
  seen in one pass and share one key.  Keys, column tables and lists live
  on the compiled group — created per evaluation, on the
  Intermediate/PRelation side — never on shared tables, so snapshot
  isolation is preserved.
* **Fused combining** — all matching ⟨S, C⟩ pairs of a row are folded
  through F in one call to :meth:`AggregateFunction.fold` (F_S folds on
  bare floats there).  Fold safety rests on Definition 3: F is
  associative and commutative (asserted via the registered-aggregate law
  checks before any group is built), which is exactly what makes the
  per-row fused fold order equivalent to the per-preference sequential
  order.  Where float identity matters (duplicate score-relation keys) the
  fold replays the sequential ``(preference, row)`` order bit-for-bit.
* **One fold per distinct input** — :meth:`CompiledGroup.score_pairs` folds
  each distinct (match list, input pair object) once;
  :meth:`CompiledGroup.score_rows` folds each distinct match list once for
  the score-relation keys one row owns and *base* lacks, and replays the
  exact order only for keys several rows share or *base* already holds
  (counting owners only when the result shows some repeat).

Chomicki's semantic-optimization line of work (see PAPERS.md) prunes and
reuses preference evaluation by exploiting the structure of the preference
formula; this module is the same idea applied at the physical layer.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import eq, itemgetter, not_
from typing import Callable, Sequence

from ..engine.expressions import (
    Attr,
    Comparison,
    Expr,
    InList,
    Literal,
    conjoin,
    conjuncts,
    is_true,
)
from ..engine.schema import TableSchema
from ..engine.table import Row
from ..errors import PreferenceError, SchemaError
from .aggregates import AggregateFunction, failed_laws
from .preference import Preference
from .scorepair import IDENTITY, ScorePair
from .scoring import ConstantScore

#: Aggregate instances whose Definition 3 laws have been verified for fused
#: folding (value keeps the instance alive so ids stay unambiguous).
_FOLD_SAFE: dict[int, AggregateFunction] = {}


def ensure_fold_safe(aggregate: AggregateFunction) -> None:
    """Assert (once per instance) that *aggregate* may be folded in any order.

    The fused combiner reorders applications relative to the sequential
    per-preference fold; that is only sound for an associative, commutative
    F with identity ⟨⊥,0⟩ — Definition 3, re-checked here via the same law
    suite :func:`repro.core.aggregates.register_aggregate` runs.
    """
    if id(aggregate) in _FOLD_SAFE:
        return
    failures = failed_laws(aggregate)
    if failures:
        raise PreferenceError(
            f"aggregate {aggregate.name!r} is not safe for fused batch "
            "scoring; Definition 3 violations: " + "; ".join(failures)
        )
    _FOLD_SAFE[id(aggregate)] = aggregate


class GroupStats:
    """Counters of one fused evaluation pass (reported as ``prefer.batch``).

    ``keys`` counts the distinct match keys whose match lists were computed,
    ``probes`` the table lookups those computations made (column tables and
    dispatch index), ``dispatch_hits`` the preference matches the lookups
    returned, ``residual_checks`` the conditions actually evaluated,
    ``fused_combines`` the F applications actually performed, and
    ``matches`` the matches of the sequential fold (one per combiner
    application it would make).
    """

    __slots__ = (
        "rows_in",
        "keys",
        "probes",
        "dispatch_hits",
        "residual_checks",
        "fused_combines",
        "matches",
    )

    def __init__(self) -> None:
        self.rows_in = 0
        self.keys = 0
        self.probes = 0
        self.dispatch_hits = 0
        self.residual_checks = 0
        self.fused_combines = 0
        self.matches = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Entry:
    """One compiled preference: dispatch metadata plus row closures."""

    __slots__ = ("index", "condition", "residual", "scoring", "confidence", "pair")

    def __init__(self, index, condition, residual, scoring, confidence, pair=None):
        self.index = index
        #: Full compiled condition (residual list and lazy column members).
        self.condition = condition
        #: Non-equality conjuncts of an indexed condition; ``None`` when the
        #: dispatch probe alone decides the match.
        self.residual = residual
        self.scoring = scoring
        self.confidence = confidence
        #: Precomputed ⟨S,C⟩ when S is row-independent (``ConstantScore``) —
        #: the common workload shape; saves a NamedTuple build per match.
        self.pair = pair

    def match(self, row: Row) -> "tuple[int, ScorePair]":
        pair = self.pair
        if pair is None:
            pair = ScorePair(self.scoring(row), self.confidence)
        return (self.index, pair)


class _ColumnTable:
    """The preferences reading only one column, as ``value → matches``.

    ``fixed`` holds the pure equality/IN probes with constant scores, filled
    at compile time; ``lazy`` the members whose condition and scoring must
    run.  With no lazy member ``table`` *is* ``fixed`` and complete;
    otherwise it holds each distinct value's match list once seen.
    """

    __slots__ = ("position", "value_of", "fixed", "lazy", "table")

    def __init__(self, position: int):
        self.position = position
        self.value_of = itemgetter(position)
        self.fixed: dict = {}
        self.lazy: list[_Entry] = []
        self.table: dict = {}

    def seal(self) -> None:
        """Finish compilation: a table without lazy members is complete."""
        if not self.lazy:
            self.table = self.fixed

    def fresh(self) -> "_ColumnTable":
        """This table with no lazy member evaluated (itself when it has none:
        a complete table is only read)."""
        if not self.lazy:
            return self
        copy = _ColumnTable(self.position)
        copy.fixed = self.fixed
        copy.lazy = self.lazy
        return copy

    def lists(self, rows: Sequence[Row], stats: GroupStats) -> list:
        """Each row's match list for this column, in group order (shared lists)."""
        table = self.table
        if not self.lazy:
            return list(map(table.get, map(self.value_of, rows), repeat(_NO_MATCHES)))
        values = list(map(self.value_of, rows))
        # One row per distinct value evaluates the lazy members for it.
        for value, row in dict(zip(values, rows)).items():
            if value not in table:
                table[value] = self._evaluate(value, row, stats)
        return list(map(table.__getitem__, values))

    def _evaluate(self, value, row: Row, stats: GroupStats) -> list:
        fixed = self.fixed.get(value)
        found = list(fixed) if fixed else []
        for entry in self.lazy:
            if entry.condition(row):
                found.append(entry.match(row))
        stats.residual_checks += len(self.lazy)
        if fixed and len(found) > len(fixed):
            found.sort(key=_match_index)
        return found or _NO_MATCHES


def dispatch_probe(condition: Expr) -> "tuple[str, tuple, Expr | None] | None":
    """Extract an equality probe ``(attr, values, residual)`` from *condition*.

    Returns ``None`` when the condition has no top-level equality conjunct a
    hash index can serve — the preference then joins the residual list.
    ``values`` is every constant the attribute may equal (one for ``=``,
    several for ``IN``); ``residual`` is the conjunction of the remaining
    conjuncts, or ``None`` when the probe alone is the condition.

    NULL care: ``attr = NULL`` never matches (engine NULL semantics), and an
    ``IN`` list containing NULL *does* match NULL rows — a hash probe keyed
    on the row value cannot honour both, so the former is registered with no
    values and the latter is declared non-indexable.
    """
    parts = conjuncts(condition)
    for position, part in enumerate(parts):
        probe = _single_probe(part)
        if probe is None:
            continue
        attr, values = probe
        rest = conjoin(parts[:position] + parts[position + 1 :])
        return attr, values, (None if is_true(rest) else rest)
    return None


def _single_probe(part: Expr) -> "tuple[str, tuple] | None":
    if isinstance(part, Comparison) and part.op == "=":
        left, right = part.left, part.right
        if isinstance(left, Literal) and isinstance(right, Attr):
            left, right = right, left
        if isinstance(left, Attr) and isinstance(right, Literal):
            if right.value is None:
                return left.name, ()  # attr = NULL: matches nothing
            return left.name, (right.value,)
        return None
    if isinstance(part, InList) and isinstance(part.expr, Attr):
        if any(value is None for value in part.values):
            return None  # IN (... NULL ...) matches NULL rows; not probe-able
        return part.expr.name, tuple(part.values)
    return None


class PreferenceGroup:
    """An ordered run of preferences evaluated under one aggregate F.

    Order is semantic: it is the sequential fold order the fused evaluation
    replays exactly (innermost/first preference applied first).
    """

    __slots__ = ("preferences", "aggregate")

    def __init__(
        self, preferences: Sequence[Preference], aggregate: AggregateFunction
    ):
        if not preferences:
            raise PreferenceError("a preference group needs at least one preference")
        ensure_fold_safe(aggregate)
        self.preferences: tuple[Preference, ...] = tuple(preferences)
        self.aggregate = aggregate

    def __len__(self) -> int:
        return len(self.preferences)

    def compile(self, schema: TableSchema) -> "CompiledGroup":
        return CompiledGroup(self, schema)


class CompiledGroup:
    """A :class:`PreferenceGroup` compiled against one row schema."""

    __slots__ = (
        "group",
        "schema",
        "fold",
        "stats",
        "_columns",
        "_dispatch",
        "_residual",
        "_project",
        "_column_count",
        "_indexed_count",
    )

    def __init__(self, group: PreferenceGroup, schema: TableSchema):
        self.group = group
        self.schema = schema
        self.fold = group.aggregate.fold
        self.stats = GroupStats()
        columns: dict[int, _ColumnTable] = {}
        dispatch_tables: dict[int, dict] = {}
        self._residual: list[_Entry] = []
        self._column_count = 0
        self._indexed_count = 0
        #: Attributes of the preferences no column table serves.
        unserved: set[str] = set()
        for index, preference in enumerate(group.preferences):
            attributes = preference.attributes()
            scoring = preference.scoring.compile(schema)
            confidence = preference.confidence
            pair = (
                ScorePair(preference.scoring.value, confidence)
                if isinstance(preference.scoring, ConstantScore)
                else None
            )
            probe = dispatch_probe(preference.condition)
            position = _sole_position(schema, attributes)
            if position is not None:
                column = columns.get(position)
                if column is None:
                    column = columns[position] = _ColumnTable(position)
                if probe is not None and probe[2] is None and pair is not None:
                    for value in probe[1]:
                        column.fixed.setdefault(value, []).append((index, pair))
                else:
                    condition = preference.condition.compile(schema)
                    column.lazy.append(
                        _Entry(index, condition, None, scoring, confidence, pair)
                    )
                self._column_count += 1
                continue
            unserved |= attributes
            probe_position = None if probe is None else _position(schema, probe[0])
            if probe_position is not None:
                _, values, residual_expr = probe
                residual = (
                    None if residual_expr is None else residual_expr.compile(schema)
                )
                entry = _Entry(index, None, residual, scoring, confidence, pair)
                table = dispatch_tables.setdefault(probe_position, {})
                for value in values:
                    table.setdefault(value, []).append(entry)
                self._indexed_count += 1
            else:
                condition = preference.condition.compile(schema)
                self._residual.append(
                    _Entry(index, condition, None, scoring, confidence, pair)
                )
        for column in columns.values():
            column.seal()
        #: Column tables, then the dispatch index, each in row-position order.
        self._columns: list[_ColumnTable] = [columns[p] for p in sorted(columns)]
        self._dispatch: list[tuple[int, dict]] = sorted(dispatch_tables.items())
        #: A row's projection onto the attributes the dispatch index and the
        #: residual list read (the whole row if one does not resolve), or
        #: ``None`` when the column tables serve every preference.
        self._project: "Callable[[Row], object] | None" = None
        if self._dispatch or self._residual:
            positions = {_position(schema, a) for a in unserved}
            if None in positions:
                self._project = _whole_row
            elif positions:
                # With one position itemgetter yields a bare value, an
                # equally good (and cheaper) key part than a 1-tuple.
                self._project = itemgetter(*sorted(positions))
            else:
                self._project = _EMPTY_KEY

    def fresh(self) -> "CompiledGroup":
        """A copy for one more evaluation: it shares the compiled structures
        and starts with its own counters and unfilled lazy column tables."""
        copy = object.__new__(CompiledGroup)
        copy.group = self.group
        copy.schema = self.schema
        copy.fold = self.fold
        copy.stats = GroupStats()
        copy._columns = [column.fresh() for column in self._columns]
        copy._dispatch = self._dispatch
        copy._residual = self._residual
        copy._project = self._project
        copy._column_count = self._column_count
        copy._indexed_count = self._indexed_count
        return copy

    # -- introspection (unit tests / docs) -----------------------------------

    @property
    def column_count(self) -> int:
        """How many preferences the per-column tables serve."""
        return self._column_count

    @property
    def indexed_count(self) -> int:
        """How many preferences the dispatch index serves."""
        return self._indexed_count

    @property
    def residual_count(self) -> int:
        """How many preferences fall back to the always-check list."""
        return len(self._residual)

    def matches(self, row: Row) -> "list[tuple[int, ScorePair]]":
        """The row's matching ``(preference index, ⟨S,C⟩)`` list, in group order."""
        _, keys, lists = self._match_lists((row,))
        found = lists[keys[0]] if keys else _NO_MATCHES
        self.stats.matches += len(found)
        return found

    # -- per-key match computation -------------------------------------------

    def _match_lists(self, rows: Sequence[Row]) -> "tuple[Sequence[int], list, dict]":
        """The rows that can match, their match keys, and each key's match list.

        Returns ``(where, keys, lists)``: the positions in *rows* that can
        match some preference, each one's match key (aligned with
        ``where``) and each distinct key's match list.  When the column
        tables serve every preference, a row they all miss matches nothing
        and is left out.  Rows with one key have one match list (see the
        module docstring), so it is computed once, from one of them.
        """
        stats = self.stats
        stats.rows_in += len(rows)
        where: Sequence[int] = range(len(rows))
        if self._project is None and len(self._columns) == 1 and rows:
            (column,) = self._columns
            first = column.value_of(rows[0])
            if all(map(eq, map(column.value_of, rows), repeat(first))):
                # One value in every row (the σ_φ rows of an equality):
                # one match list, one key.
                (matched,) = column.lists(rows[:1], stats)
                if not matched:
                    return [], [], {}
                keys = [id(matched)] * len(rows)
                stats.keys += 1
                return where, keys, {keys[0]: self._match_list([matched], rows[0])}
        per_column = [column.lists(rows, stats) for column in self._columns]
        if self._project is None:
            # A match list is a list, empty exactly when nothing matched.
            if len(per_column) == 1:
                if not all(per_column[0]):
                    where = list(compress(where, per_column[0]))
            else:
                where = sorted(set().union(*(compress(where, found) for found in per_column)))
            if len(where) < len(rows):
                per_column = [list(map(found.__getitem__, where)) for found in per_column]
                rows = list(map(rows.__getitem__, where))
        parts = [map(id, found) for found in per_column]
        if self._project is not None:
            parts.append(map(self._project, rows))
        keys = list(parts[0] if len(parts) == 1 else zip(*parts))
        match_list = self._match_list
        lists = {
            key: match_list([found[index] for found in per_column], rows[index])
            for key, index in dict(zip(keys, range(len(keys)))).items()
        }
        stats.keys += len(lists)
        return where, keys, lists

    def _match_list(
        self, column_lists: list, row: Row
    ) -> "list[tuple[int, ScorePair]]":
        """Merge a key's column lists with its dispatch and residual matches."""
        stats = self.stats
        found: "list[tuple[int, ScorePair]] | None" = None
        merged = False
        dispatch_hits = 0
        for matched in column_lists:
            if not matched:
                continue
            dispatch_hits += len(matched)
            if found is None:
                found = matched  # a shared table list; never mutated
            else:
                found = found + matched
                merged = True
        hits: list[_Entry] = []
        residual_checks = 0
        for position, table in self._dispatch:
            value = row[position]
            if value is None:
                continue  # equality never matches NULL
            entries = table.get(value)
            if not entries:
                continue
            dispatch_hits += len(entries)
            for entry in entries:
                residual = entry.residual
                if residual is not None:
                    residual_checks += 1
                    if not residual(row):
                        continue
                hits.append(entry)
        for entry in self._residual:
            residual_checks += 1
            if entry.condition(row):
                hits.append(entry)
        stats.probes += len(self._columns) + len(self._dispatch)
        stats.dispatch_hits += dispatch_hits
        stats.residual_checks += residual_checks
        if hits:
            extra = [entry.match(row) for entry in hits]
            found = extra if found is None else found + extra
            merged = True
        if found is None:
            return _NO_MATCHES
        if merged:
            # Concatenation of per-source lists: restore group order.
            found.sort(key=_match_index)
        return found

    # -- fused evaluation ----------------------------------------------------

    def score_pairs(self, rows: Sequence[Row], pairs: Sequence[ScorePair]) -> list[ScorePair]:
        """Fused prefer fold over parallel (row, pair) arrays (PRelation form).

        Bit-identical to folding each preference over the arrays in group
        order: rows are independent here, so the per-row fused fold *is* the
        sequential order.  A row's result depends only on its match list and
        its input pair, so each distinct (match key, input pair object) is
        folded once — and each distinct (list, pair object) at most once.
        """
        where, keys, lists = self._match_lists(rows)
        starts = list(map(pairs.__getitem__, where))
        inputs = list(zip(keys, map(id, starts)))
        # (key, id(pair)) → the input pair, then its folded result; holding
        # the pairs keeps their ids from being reused within the pass.
        results = dict(zip(inputs, starts))
        folds: dict[tuple, ScorePair] = {}
        fold = self.fold
        combines = 0
        for entry, start in results.items():
            matched = lists[entry[0]]
            if not matched:
                continue
            done = (id(matched), entry[1])
            current = folds.get(done)
            if current is None:
                current, count = fold(start, map(_match_pair, matched))
                combines += count
                folds[done] = current = IDENTITY if current is None else current
            results[entry] = current
        stats = self.stats
        stats.matches += sum(map(len, map(lists.__getitem__, keys)))
        stats.fused_combines += combines
        # Rows left out of ``where`` match nothing and keep their pair.
        folded = dict(zip(where, map(results.__getitem__, inputs)))
        return list(map(folded.get, range(len(pairs)), pairs))

    def score_rows(
        self,
        rows: Sequence[Row],
        key_fn: "Callable[[Row], tuple] | None",
        base: "dict[tuple, ScorePair] | None" = None,
    ) -> "dict[tuple, ScorePair]":
        """Fused prefer fold into a sparse score relation (Intermediate form).

        *key_fn* maps a row to its score-relation key; None when the key is
        the whole row in order, so a row is its own key and none is built.

        Replays the per-preference score-relation fold exactly (§VI prefer
        UDF: a qualifying key's fresh pair is inserted, or combined into the
        pair it already has), including the removal of keys whose pair
        collapses to the default, and inserts keys in the order the
        sequential fold first meets them.  A score-relation key one matching
        row owns and *base* lacks folds from nothing, so its result depends
        on its match list alone and is folded once per distinct list.  The
        other keys — shared by several matching rows or already in *base* —
        fold their matches in ``(preference, row)`` order, the order |λ|
        separate passes would have produced, so results stay bit-identical.
        """
        scores: dict[tuple, ScorePair] = dict(base) if base else {}
        where, keys, lists = self._match_lists(rows)
        stats = self.stats
        # Only the rows matching some preference reach the score relation.
        if len(lists) == 1:
            (matched,) = lists.values()
            stats.matches += len(matched) * len(keys)
            found = None if matched else ()
        else:
            found = list(map(lists.__getitem__, keys))
            stats.matches += sum(map(len, found))
            if all(found):
                found = None
        if found is None:
            hit_keys = keys
            hit_rows = rows if len(where) == len(rows) else list(map(rows.__getitem__, where))
        else:
            hit_keys = list(compress(keys, found))
            if not hit_keys:
                return scores
            hit_rows = list(compress(map(rows.__getitem__, where), found))
        if not base:
            # Owners are usually distinct (one key per row): fold each
            # distinct list once and keep the result when no owner repeats.
            folded, combines = self._fold_lists(lists, compress(lists, lists.values()))
            owners = hit_rows if key_fn is None else map(key_fn, hit_rows)
            if len(folded) == 1:
                fresh = dict.fromkeys(owners, *folded.values())
            else:
                fresh = dict(zip(owners, map(folded.__getitem__, hit_keys)))
            if len(fresh) == len(hit_keys):
                stats.fused_combines += combines
                if None in folded.values():
                    return {owner: pair for owner, pair in fresh.items() if pair is not None}
                return fresh
        owners = list(hit_rows if key_fn is None else map(key_fn, hit_rows))
        counts = Counter(owners)
        replayed = set(compress(counts, map((1).__lt__, counts.values())))
        if base:
            replayed.update(counts.keys() & base.keys())
        if replayed:
            shared = list(map(replayed.__contains__, owners))
            alone = compress(hit_keys, map(not_, shared))
        else:
            alone = hit_keys
        folded, combines = self._fold_lists(lists, dict.fromkeys(alone))
        # Inserts every owner where the sequential fold would first insert
        # it; a replayed owner's value is overwritten (in place) below.
        scores.update(zip(owners, map(folded.get, hit_keys)))
        if replayed:
            per_owner: dict[tuple, list] = {}
            for owner, key in compress(zip(owners, hit_keys), shared):
                per_owner.setdefault(owner, []).append(lists[key])
            for owner, per_row in per_owner.items():
                # Re-serialize to the sequential fold order: preference-major,
                # then row order — what per-preference passes would have done.
                triples = [
                    (index, sequence, fresh)
                    for sequence, matched in enumerate(per_row)
                    for index, fresh in matched
                ]
                triples.sort(key=_triple_order)
                scores[owner], count = self.fold(
                    base.get(owner) if base else None,
                    [fresh for _, _, fresh in triples],
                )
                combines += count
        stats.fused_combines += combines
        if None in scores.values():
            # Pairs that folded to the default leave the relation.
            for owner in [owner for owner, pair in scores.items() if pair is None]:
                del scores[owner]
        return scores

    def _fold_lists(self, lists: dict, keys) -> "tuple[dict, int]":
        """Each of *keys*' fold of its match list from no pair (None when it
        folds to the default), each distinct list folded once; and how many
        pairs went through F."""
        fold = self.fold
        combines = 0
        # id(match list) → its fold; ``lists`` holds every list.
        by_list: dict[int, "ScorePair | None"] = {}
        folded: dict = {}
        for key in keys:
            matched = lists[key]
            previous = by_list.get(id(matched), _UNFOLDED)
            if previous is _UNFOLDED:
                previous, count = fold(None, map(_match_pair, matched))
                combines += count
                by_list[id(matched)] = previous
            folded[key] = previous
        return folded, combines


#: Shared result for rows matching no preference — by far the common case
#: under selective pools; never mutated by callers.
_NO_MATCHES: "list[tuple[int, ScorePair]]" = []

#: Marks a match list :meth:`CompiledGroup.score_rows` has not folded yet.
_UNFOLDED = object()


def _EMPTY_KEY(row: Row) -> tuple:
    """Projection of attribute-free preferences: every row projects to ``()``."""
    return ()


def _whole_row(row: Row) -> Row:
    """Projection when an attribute does not resolve: the row itself."""
    return row


#: Sort key restoring group order after merging per-source match lists.
_match_index = itemgetter(0)
#: A match's ⟨S,C⟩, the part the aggregate folds.
_match_pair = itemgetter(1)


def _triple_order(triple) -> tuple[int, int]:
    return (triple[0], triple[1])


def _position(schema: TableSchema, attr: str) -> "int | None":
    """*attr*'s row position in *schema*, or ``None`` when it does not resolve."""
    try:
        return schema.index_of(attr)
    except SchemaError:
        return None


def _sole_position(schema: TableSchema, attributes: set[str]) -> "int | None":
    """The one row position all of *attributes* resolve to, else ``None``."""
    positions = {_position(schema, attr) for attr in attributes}
    if len(positions) != 1 or None in positions:
        return None
    return positions.pop()
