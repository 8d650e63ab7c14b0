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
  column instead of once per row.  A table whose values prove near-unique
  stops caching under the memo's bailout rule (``MEMO_BAILOUT_*``).
* **Preference dispatch index** — a multi-column condition with an
  equality conjunct (``genre = 'Drama' AND year >= 2000``, or
  ``attr IN (v1..vk)``) is bucketed into a per-attribute hash map
  ``value → [preferences]``; a row probes the map and checks only the
  remaining conjuncts.
* **Residual list** — every other condition is checked per computed row,
  so the tables are a pure optimization, never a semantic restriction.

The per-row match lists then go through three cooperating steps:

* **Memoized distinct-value matching** — condition and scoring outcomes
  depend only on the *preference-relevant* attributes, and workload rows
  share few distinct values on preferred attributes.  The compiled group
  caches the full match list per projection of those attributes, so a
  repeated value combination costs one dict lookup.  Memo and column tables
  key on Python value equality.  Caches live on the compiled group —
  created per evaluation, on the Intermediate/PRelation side — never on
  shared tables, so snapshot isolation is preserved.
* **Fused combining** — all matching ⟨S, C⟩ pairs of a row are folded
  through F in one call to :meth:`AggregateFunction.fold` (F_S folds on
  bare floats there).  Fold safety rests on Definition 3: F is
  associative and commutative (asserted via the registered-aggregate law
  checks before any group is built), which is exactly what makes the
  per-row fused fold order equivalent to the per-preference sequential
  order.  Where float identity matters (duplicate score-relation keys) the
  fold replays the sequential ``(preference, row)`` order bit-for-bit.
* **One fold per distinct match list** — rows sharing a projection share
  one match list, and a pass folds each list once.  The cached fold is used
  only where it is exact: in :meth:`CompiledGroup.score_pairs` when the
  row's input pair is the same object, in :meth:`CompiledGroup.score_rows`
  when the key is alone in its bucket and absent from ``base``.

Chomicki's semantic-optimization line of work (see PAPERS.md) prunes and
reuses preference evaluation by exploiting the structure of the preference
formula; this module is the same idea applied at the physical layer.
"""

from __future__ import annotations

from operator import itemgetter
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

#: Memoization is skipped when a group reads more than this many distinct
#: attributes: building a wide projection tuple per row would cost more than
#: the dispatch probes it saves.
MEMO_MAX_ATTRS = 8

#: Adaptive memo bailout: after this many distinct projections, a pass whose
#: hit rate is below one hit per ``MEMO_BAILOUT_RATIO`` misses abandons the
#: memo — the projections are evidently near-unique (e.g. keyed on an id
#: column), so every lookup is a wasted key build.  Column tables obey the
#: same rule per column.
MEMO_BAILOUT_MISSES = 512
MEMO_BAILOUT_RATIO = 4

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

    ``probes`` counts table lookups (column tables and dispatch index),
    ``dispatch_hits`` the preference matches those lookups returned,
    ``residual_checks`` the conditions actually evaluated, ``fused_combines``
    the F applications actually performed, and ``matches`` the matches of
    the sequential fold (one per combiner application it would make).
    """

    __slots__ = (
        "rows_in",
        "probes",
        "dispatch_hits",
        "residual_checks",
        "memo_hits",
        "fused_combines",
        "matches",
    )

    def __init__(self) -> None:
        self.rows_in = 0
        self.probes = 0
        self.dispatch_hits = 0
        self.residual_checks = 0
        self.memo_hits = 0
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
    otherwise it caches each distinct value's match list on first sight,
    until the values prove near-unique and ``table`` becomes ``None``.
    """

    __slots__ = ("position", "fixed", "lazy", "table", "hits", "misses")

    def __init__(self, position: int):
        self.position = position
        self.fixed: dict = {}
        self.lazy: list[_Entry] = []
        self.table: "dict | None" = None
        self.hits = 0
        self.misses = 0

    def seal(self) -> None:
        """Finish compilation: a table without lazy members is complete."""
        self.table = {} if self.lazy else self.fixed

    def lookup(self, row: Row, stats: GroupStats) -> "list[tuple[int, ScorePair]]":
        """The column's matches for *row*, in group order (a shared list)."""
        value = row[self.position]
        table = self.table
        if table is not None:
            found = table.get(value)
            if found is not None:
                self.hits += 1
                return found
        if not self.lazy:
            return _NO_MATCHES
        found = self._evaluate(value, row, stats)
        if table is not None:
            table[value] = found
            self.misses += 1
            if (
                self.misses == MEMO_BAILOUT_MISSES
                and self.hits * MEMO_BAILOUT_RATIO < self.misses
            ):
                self.table = None  # near-unique values: stop caching
        return found

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
        "_memo",
        "_memo_positions",
        "_memo_key",
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
        relevant: set[str] = set()
        for index, preference in enumerate(group.preferences):
            attributes = preference.attributes()
            relevant |= attributes
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
        self._memo: dict[tuple, list] = {}
        positions = {_position(schema, a) for a in relevant}
        if None not in positions and len(positions) <= MEMO_MAX_ATTRS:
            ordered = sorted(positions)
            self._memo_positions: tuple[int, ...] | None = tuple(ordered)
            # itemgetter builds the projection key at C speed; with one
            # position it yields a bare value, which is an equally good (and
            # cheaper) dict key than a 1-tuple.
            self._memo_key: "Callable[[Row], object] | None" = (
                itemgetter(*ordered) if ordered else _EMPTY_KEY
            )
        else:
            # Wide or unresolvable projections: memoization would cost more
            # than it saves (or would be unsound); the tables still apply.
            self._memo_positions = None
            self._memo_key = None

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

    @property
    def memo_enabled(self) -> bool:
        return self._memo_positions is not None

    # -- per-row match computation -------------------------------------------

    def matches(self, row: Row) -> "list[tuple[int, ScorePair]]":
        """The row's matching ``(preference index, ⟨S,C⟩)`` list, in group order."""
        stats = self.stats
        stats.rows_in += 1
        memo_key = self._memo_key
        if memo_key is not None:
            key = memo_key(row)
            cached = self._memo.get(key)
            if cached is not None:
                stats.memo_hits += 1
                stats.matches += len(cached)
                return cached
            result = self._compute_matches(row)
            self._memo[key] = result
            stats.matches += len(result)
            return result
        result = self._compute_matches(row)
        stats.matches += len(result)
        return result

    def _compute_matches(self, row: Row) -> "list[tuple[int, ScorePair]]":
        stats = self.stats
        found: "list[tuple[int, ScorePair]] | None" = None
        merged = False
        dispatch_hits = 0
        for column in self._columns:
            matched = column.lookup(row, stats)
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

    def _bail_out_of_memo(self) -> None:
        """Drop the memo for this group: projections proved near-unique.

        Called from the bulk loops once ``MEMO_BAILOUT_MISSES`` distinct
        projections accumulated with a sub-``1/MEMO_BAILOUT_RATIO`` hit rate;
        returns ``None`` so callers can rebind their local ``memo_key``.
        """
        self._memo_key = None
        self._memo_positions = None
        self._memo.clear()
        return None

    # -- fused evaluation ----------------------------------------------------

    def score_pairs(self, rows: Sequence[Row], pairs: Sequence[ScorePair]) -> list[ScorePair]:
        """Fused prefer fold over parallel (row, pair) arrays (PRelation form).

        Bit-identical to folding each preference over the arrays in group
        order: rows are independent here, so the per-row fused fold *is* the
        sequential order.  A match list's fold is reused for every row whose
        input pair is the very object the fold started from.
        """
        fold = self.fold
        memo = self._memo
        memo_key = self._memo_key
        compute = self._compute_matches
        memo_hits = 0
        misses = 0
        match_count = 0
        combines = 0
        # id(match list) → (list, input pair, folded pair); holding the list
        # keeps its id from being reused within the pass.
        folds: dict[int, tuple] = {}
        out: list[ScorePair] = []
        append = out.append
        for row, current in zip(rows, pairs):
            if memo_key is not None:
                key = memo_key(row)
                matched = memo.get(key)
                if matched is None:
                    matched = compute(row)
                    memo[key] = matched
                    misses += 1
                    if (
                        misses == MEMO_BAILOUT_MISSES
                        and memo_hits * MEMO_BAILOUT_RATIO < misses
                    ):
                        memo_key = self._bail_out_of_memo()
                else:
                    memo_hits += 1
            else:
                matched = compute(row)
            if matched:
                match_count += len(matched)
                cached = folds.get(id(matched))
                if cached is not None and cached[1] is current:
                    current = cached[2]
                else:
                    start = current
                    current, count = fold(start, map(_match_pair, matched))
                    if current is None:
                        current = IDENTITY
                    combines += count
                    folds[id(matched)] = (matched, start, current)
            append(current)
        stats = self.stats
        stats.rows_in += len(out)
        stats.memo_hits += memo_hits
        stats.matches += match_count
        stats.fused_combines += combines
        return out

    def score_rows(
        self,
        rows: Sequence[Row],
        key_fn: Callable[[Row], tuple],
        base: "dict[tuple, ScorePair] | None" = None,
    ) -> "dict[tuple, ScorePair]":
        """Fused prefer fold into a sparse score relation (Intermediate form).

        Replays the per-preference score-relation fold exactly (§VI prefer
        UDF: a qualifying key's fresh pair is inserted, or combined into the
        pair it already has), including the removal of keys whose pair
        collapses to the default:
        matches are folded per key in ``(preference, row)`` order — the order
        |λ| separate passes would have produced — so results stay
        bit-identical even when several rows share a score-relation key.  A
        key alone in its bucket and absent from *base* folds from nothing,
        so its result depends on its match list alone and is folded once
        per distinct list.
        """
        stats = self.stats
        fold = self.fold
        memo = self._memo
        memo_key = self._memo_key
        compute = self._compute_matches
        memo_hits = 0
        misses = 0
        match_count = 0
        rows_in = 0
        scores: dict[tuple, ScorePair] = dict(base) if base else {}
        buckets: dict[tuple, list] = {}
        for sequence, row in enumerate(rows):
            rows_in += 1
            if memo_key is not None:
                mkey = memo_key(row)
                matched = memo.get(mkey)
                if matched is None:
                    matched = compute(row)
                    memo[mkey] = matched
                    misses += 1
                    if (
                        misses == MEMO_BAILOUT_MISSES
                        and memo_hits * MEMO_BAILOUT_RATIO < misses
                    ):
                        memo_key = self._bail_out_of_memo()
                else:
                    memo_hits += 1
            else:
                matched = compute(row)
            if not matched:
                continue
            match_count += len(matched)
            key = key_fn(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [(sequence, matched)]
            else:
                bucket.append((sequence, matched))
        stats.rows_in += rows_in
        stats.memo_hits += memo_hits
        stats.matches += match_count
        combines = 0
        # id(match list) → its fold from no pair; ``buckets`` holds every
        # list until the loop ends, so no id is reused within it.
        folds: dict[int, "ScorePair | None"] = {}
        for key, per_row in buckets.items():
            if len(per_row) == 1:
                matched = per_row[0][1]
                if key not in scores:
                    previous = folds.get(id(matched), _UNFOLDED)
                    if previous is _UNFOLDED:
                        previous, count = fold(None, map(_match_pair, matched))
                        combines += count
                        folds[id(matched)] = previous
                    if previous is not None:
                        scores[key] = previous
                    continue
                flat = map(_match_pair, matched)
            else:
                # Re-serialize to the sequential fold order: preference-major,
                # then row order — what per-preference passes would have done.
                triples = [
                    (index, sequence, fresh)
                    for sequence, matched in per_row
                    for index, fresh in matched
                ]
                triples.sort(key=_triple_order)
                flat = [fresh for _, _, fresh in triples]
            previous, count = fold(scores.get(key), flat)
            combines += count
            if previous is None:
                scores.pop(key, None)
            else:
                scores[key] = previous
        stats.fused_combines += combines
        return scores


#: Shared result for rows matching no preference — by far the common case
#: under selective pools; never mutated by callers.
_NO_MATCHES: "list[tuple[int, ScorePair]]" = []

#: Marks a match list :meth:`CompiledGroup.score_rows` has not folded yet.
_UNFOLDED = object()


def _EMPTY_KEY(row: Row) -> tuple:
    """Memo key for attribute-free groups: every row projects to ``()``."""
    return ()


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
