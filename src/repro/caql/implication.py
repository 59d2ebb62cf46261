"""Implication between conjunctions of PSJ conditions.

Subsumption (Section 5.3.2) reduces to two questions about conjunctions of
``column op column`` / ``column op literal`` conditions:

* does the query's condition set imply each condition of a cache element
  (the element is *no more restrictive* than the query), and
* does the element's condition set imply a query condition (so the
  remainder selection can skip it)?

The paper notes this is "more constrained than the more general implication
problem [SUN89]" because queries are limited to PSJ expressions.  The
engine below is sound and incomplete in the safe direction: ``implies``
never answers True unless the implication holds; a False merely forgoes an
optimization.

Method: build equivalence classes of columns from equality conditions, then
derive per-class bounds (lower/upper with strictness), pinned constants,
and excluded values; check each candidate condition against those, plus a
syntactic check for general column-column comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.relational.expressions import Col, Comparison, Lit, holds


@dataclass
class _Bound:
    value: object
    strict: bool  # True for < / >, False for <= / >=


@dataclass
class _ClassInfo:
    """Derived constraints for one equivalence class of columns."""

    pinned: object | None = None  # equality constant (None = unpinned)
    has_pin: bool = False
    lower: _Bound | None = None
    upper: _Bound | None = None
    excluded: set = field(default_factory=set)
    contradictory: bool = False

    def pin(self, value: object) -> None:
        if self.has_pin and self.pinned != value:
            self.contradictory = True
            return
        self.pinned = value
        self.has_pin = True

    def tighten_lower(self, value: object, strict: bool) -> None:
        current = self.lower
        if current is None or holds(value, ">", current.value) or (
            value == current.value and strict and not current.strict
        ):
            self.lower = _Bound(value, strict)

    def tighten_upper(self, value: object, strict: bool) -> None:
        current = self.upper
        if current is None or holds(value, "<", current.value) or (
            value == current.value and strict and not current.strict
        ):
            self.upper = _Bound(value, strict)

    def is_unsatisfiable(self) -> bool:
        if self.contradictory:
            return True
        if self.has_pin:
            if self.pinned in self.excluded:
                return True
            if self.lower is not None and not _within_lower(self.pinned, self.lower):
                return True
            if self.upper is not None and not _within_upper(self.pinned, self.upper):
                return True
        if self.lower is not None and self.upper is not None:
            if holds(self.lower.value, ">", self.upper.value):
                return True
            if self.lower.value == self.upper.value and (self.lower.strict or self.upper.strict):
                return True
        return False


def _within_lower(value: object, bound: _Bound) -> bool:
    op = ">" if bound.strict else ">="
    return holds(value, op, bound.value)


def _within_upper(value: object, bound: _Bound) -> bool:
    op = "<" if bound.strict else "<="
    return holds(value, op, bound.value)


class ConditionSet:
    """A conjunction of conditions, digested for implication queries."""

    def __init__(self, conditions: Iterable[Comparison]):
        self._conditions = [c.normalized() for c in conditions]
        self._parent: dict[str, str] = {}
        self._general: list[Comparison] = []  # non-equality col-col conditions
        self._build()

    # -- union-find ------------------------------------------------------------
    def _find(self, col: str) -> str:
        parent = self._parent.setdefault(col, col)
        if parent == col:
            return col
        root = self._find(parent)
        self._parent[col] = root
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    # -- digestion --------------------------------------------------------------
    def _build(self) -> None:
        for condition in self._conditions:
            if condition.op == "=" and condition.is_col_col():
                self._union(condition.left.name, condition.right.name)
        self._classes: dict[str, _ClassInfo] = {}
        for condition in self._conditions:
            left, op, right = condition.left, condition.op, condition.right
            if isinstance(left, Col) and isinstance(right, Lit):
                info = self._class_info(left.name)
                value = right.value
                if op == "=":
                    info.pin(value)
                elif op == "!=":
                    info.excluded.add(value)
                elif op == "<":
                    info.tighten_upper(value, strict=True)
                elif op == "<=":
                    info.tighten_upper(value, strict=False)
                elif op == ">":
                    info.tighten_lower(value, strict=True)
                elif op == ">=":
                    info.tighten_lower(value, strict=False)
            elif isinstance(left, Col) and isinstance(right, Col) and op != "=":
                self._general.append(condition)
        self._satisfiable = not any(i.is_unsatisfiable() for i in self._classes.values())

    def _class_info(self, col: str) -> _ClassInfo:
        root = self._find(col)
        info = self._classes.get(root)
        if info is None:
            info = _ClassInfo()
            self._classes[root] = info
        return info

    def _info(self, col: str) -> _ClassInfo:
        """Read-only class info (empty default)."""
        return self._classes.get(self._find(col), _ClassInfo())

    # -- queries -----------------------------------------------------------------
    def same_class(self, a: str, b: str) -> bool:
        """True when equalities force the two columns equal."""
        return self._find(a) == self._find(b)

    def pinned_value(self, col: str) -> tuple[bool, object]:
        """(True, v) when the column is forced to the single value v."""
        info = self._info(col)
        if info.has_pin:
            return True, info.pinned
        # A closed [v, v] range also pins the class.
        if (
            info.lower is not None
            and info.upper is not None
            and info.lower.value == info.upper.value
            and not info.lower.strict
            and not info.upper.strict
        ):
            return True, info.lower.value
        return False, None

    def is_satisfiable(self) -> bool:
        """A cheap (sound, incomplete) satisfiability check."""
        return self._satisfiable

    def implies(self, condition: Comparison) -> bool:
        """True only if every assignment satisfying this set satisfies
        ``condition``.  (An unsatisfiable set implies everything.)"""
        if not self._satisfiable:
            return True
        condition = condition.normalized()
        left, op, right = condition.left, condition.op, condition.right

        if isinstance(left, Col) and isinstance(right, Lit):
            return self._implies_col_lit(left.name, op, right.value)
        if isinstance(left, Col) and isinstance(right, Col):
            return self._implies_col_col(left.name, op, right.name)
        if isinstance(left, Lit) and isinstance(right, Lit):
            return holds(left.value, op, right.value)
        return False

    def implies_all(self, conditions: Iterable[Comparison]) -> bool:
        """True when every condition is implied."""
        return all(self.implies(c) for c in conditions)

    # -- implication cases ---------------------------------------------------------
    def _implies_col_lit(self, col: str, op: str, value: object) -> bool:
        info = self._info(col)
        pinned, pin = self.pinned_value(col)
        if pinned:
            return holds(pin, op, value)
        if op == "=":
            return False  # unpinned class can take other values
        if op == "!=":
            if value in info.excluded:
                return True
            if info.lower is not None and not _within_lower(value, info.lower):
                return True
            if info.upper is not None and not _within_upper(value, info.upper):
                return True
            return False
        if op in ("<", "<="):
            if info.upper is None:
                return False
            if op == "<":
                # col <= u (< u) must guarantee col < value.
                if info.upper.strict:
                    return holds(info.upper.value, "<=", value)
                return holds(info.upper.value, "<", value)
            return holds(info.upper.value, "<=", value)
        if op in (">", ">="):
            if info.lower is None:
                return False
            if op == ">":
                if info.lower.strict:
                    return holds(info.lower.value, ">=", value)
                return holds(info.lower.value, ">", value)
            return holds(info.lower.value, ">=", value)
        return False

    def _implies_col_col(self, a: str, op: str, b: str) -> bool:
        if op == "=":
            if self.same_class(a, b):
                return True
            pa, va = self.pinned_value(a)
            pb, vb = self.pinned_value(b)
            return pa and pb and va == vb
        # Syntactic presence (through equivalence classes).
        for general in self._general:
            if general.op == op and self.same_class(general.left.name, a) and self.same_class(
                general.right.name, b
            ):
                return True
        # Derivation from pinned values / bounds.
        pa, va = self.pinned_value(a)
        pb, vb = self.pinned_value(b)
        if pa and pb:
            return holds(va, op, vb)
        info_a, info_b = self._info(a), self._info(b)
        if op in ("<", "<="):
            upper_a = _Bound(va, False) if pa else info_a.upper
            lower_b = _Bound(vb, False) if pb else info_b.lower
            if upper_a is None or lower_b is None:
                return False
            if op == "<":
                if upper_a.strict or lower_b.strict:
                    return holds(upper_a.value, "<=", lower_b.value)
                return holds(upper_a.value, "<", lower_b.value)
            return holds(upper_a.value, "<=", lower_b.value)
        if op in (">", ">="):
            return self._implies_col_col(b, "<" if op == ">" else "<=", a)
        if op == "!=":
            # Disjoint ranges imply inequality.
            upper_a = _Bound(va, False) if pa else info_a.upper
            lower_b = _Bound(vb, False) if pb else info_b.lower
            if upper_a is not None and lower_b is not None:
                if holds(upper_a.value, "<", lower_b.value) or (
                    upper_a.value == lower_b.value and (upper_a.strict or lower_b.strict)
                ):
                    return True
            upper_b = _Bound(vb, False) if pb else info_b.upper
            lower_a = _Bound(va, False) if pa else info_a.lower
            if upper_b is not None and lower_a is not None:
                if holds(upper_b.value, "<", lower_a.value) or (
                    upper_b.value == lower_a.value and (upper_b.strict or lower_a.strict)
                ):
                    return True
            return False
        return False
