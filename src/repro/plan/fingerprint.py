"""Stable value fingerprints for extended query plans.

The result cache (:mod:`repro.cache`) keys entries by *what will be
computed*: a sha256 over a canonical JSON rendering of the plan tree plus
the execution knobs that change the answer (strategy, aggregate,
presentation order).  Two queries fingerprint equal iff they denote the
same computation, so the fingerprint can stand in for the plan inside a
cache key — the data side of the key is covered separately by per-table
content digests (:func:`repro.serve.server.table_digest`).

Not every plan has a value identity.  :class:`~repro.plan.nodes.Materialized`
leaves compare by object identity (two materializations are never "the same
subtree"), and a preference carrying an opaque ``CallableScore`` or a
predicate context has no canonical serialization.  Those raise
:class:`UncacheablePlan`; callers bypass the cache for such queries instead
of risking a wrong hit.
"""

from __future__ import annotations

import hashlib

from ..errors import PlanError, PreferenceError
from .nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    Materialized,
    PlanNode,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)

#: Bump when the payload layout changes, so stale persisted fingerprints
#: (should any ever be stored) can never collide with current ones.
FINGERPRINT_VERSION = 2


class UncacheablePlan(PlanError):
    """The plan has no stable value identity; its results must not be cached."""


def fingerprint_payload(plan: PlanNode) -> dict:
    """Recursive value rendering of *plan* as canonical-JSON-able data.

    Every concrete node kind contributes exactly the fields its ``_key()``
    compares, serialized through :mod:`repro.serve.codec` (imported lazily:
    ``plan`` must stay importable without the serving layer).
    """
    from ..serve.codec import expr_to_dict, preference_to_dict

    def serialized(preference) -> dict:
        try:
            return preference_to_dict(preference)
        except PreferenceError as err:
            raise UncacheablePlan(
                f"preference {preference.name!r} has no canonical "
                f"serialization: {err}"
            ) from err

    def node(current: PlanNode) -> dict:
        if isinstance(current, Materialized):
            raise UncacheablePlan(
                "materialized plan leaves compare by identity and have no "
                "stable fingerprint"
            )
        if isinstance(current, Relation):
            data: dict = {
                "kind": current.kind,
                "name": current.name,
                "alias": current.alias,
            }
        elif isinstance(current, Select):
            data = {"kind": current.kind, "condition": expr_to_dict(current.condition)}
        elif isinstance(current, Project):
            data = {"kind": current.kind, "attrs": list(current.attrs)}
        elif isinstance(current, (Join, LeftJoin)):
            data = {"kind": current.kind, "condition": expr_to_dict(current.condition)}
        elif isinstance(current, (Union, Intersect, Difference)):
            data = {"kind": current.kind}
        elif isinstance(current, Prefer):
            data = {
                "kind": current.kind,
                "preferences": [serialized(p) for p in current.run],
                "aggregate": getattr(current.aggregate, "name", None),
            }
        elif isinstance(current, TopK):
            data = {"kind": current.kind, "k": current.k, "by": current.by}
        else:
            # A node kind this module does not know cannot be keyed by value.
            raise UncacheablePlan(
                f"plan node kind {current.kind!r} has no fingerprint rule"
            )
        children = current.children()
        if children:
            data["children"] = [node(child) for child in children]
        return data

    return node(plan)


def plan_fingerprint(
    plan: PlanNode,
    *,
    strategy: str = "",
    aggregate: str | None = None,
    order_by: str | None = None,
    extra: dict | None = None,
) -> str:
    """sha256 identifying the computation *plan* denotes under the given knobs.

    *strategy*, *aggregate* (the query-level default F's name) and
    *order_by* are part of the identity: the same tree executed under a
    different strategy or presented in a different rank order is a
    different cacheable computation.  *extra* folds in any further
    caller-specific discriminators (already JSON-able).

    Raises :class:`UncacheablePlan` when the plan (or anything in *extra*)
    cannot be canonically serialized.
    """
    from ..serve.codec import canonical_json

    payload = {
        "v": FINGERPRINT_VERSION,
        "plan": fingerprint_payload(plan),
        "strategy": strategy,
        "aggregate": aggregate,
        "order_by": order_by,
    }
    if extra:
        payload["extra"] = dict(extra)
    try:
        text = canonical_json(payload)
    except (TypeError, ValueError) as err:
        raise UncacheablePlan(f"plan fingerprint is not serializable: {err}") from err
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
