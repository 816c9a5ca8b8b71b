"""Domains, finite operations, relations with three encodings, algebras, structures.

A relation can be carried as an explicit tuple list, as a quantifier-free
formula over equalities (connectives ``&``, ``|``, ``!``), or as a DNF
formula restricted to disjunctions of conjunctions of positive equality
literals.  All three materialize to the same tuple set; membership of a
single tuple never requires materialization, so formula-backed relations of
large arity stay usable.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import BudgetError, ParseError, ValidationError

#: largest assignment space size**arity a formula-backed relation will
#: materialize; beyond this, callers must use membership queries.
MATERIALIZE_CAP = 3**12


@dataclass(frozen=True, order=True)
class Domain:
    """The set {0, .., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"domain size must be >= 1, got {self.size}")

    def elements(self) -> range:
        return range(self.size)

    def check_element(self, value: int) -> None:
        if not 0 <= value < self.size:
            raise ValidationError(f"element {value} out of range for domain of size {self.size}")


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class OpTable:
    """A total finitary operation as a flat row-major table.

    ``table[i]`` is the value on the i-th argument tuple in lexicographic
    order, i.e. index = sum(args[j] * size**(arity-1-j)).
    """

    arity: int
    domain: Domain
    table: tuple[int, ...]
    idempotent: bool = False

    def __post_init__(self):
        size = self.domain.size
        if self.arity < 0:
            raise ValidationError("operation arity must be >= 0")
        if len(self.table) != size**self.arity:
            raise ValidationError(
                f"table length {len(self.table)} != {size}**{self.arity}"
            )
        for v in self.table:
            self.domain.check_element(v)
        if self.idempotent and not self.check_idempotent():
            raise ValidationError("operation flagged idempotent is not")

    def apply(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise ValidationError(f"expected {self.arity} arguments, got {len(args)}")
        size = self.domain.size
        idx = 0
        for a in args:
            if not 0 <= a < size:
                raise ValidationError(f"argument {a} out of range")
            idx = idx * size + a
        return self.table[idx]

    def __call__(self, *args: int) -> int:
        return self.apply(args)

    def check_idempotent(self) -> bool:
        size = self.domain.size
        return all(self.apply((a,) * self.arity) == a for a in range(size))

    def rows(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (argument tuple, value) pairs in lexicographic order."""
        for i, args in enumerate(itertools.product(self.domain.elements(), repeat=self.arity)):
            yield args, self.table[i]


def op_from_function(domain: Domain, arity: int, fn, idempotent: bool = False) -> OpTable:
    """Tabulate a python function into an OpTable."""
    table = tuple(fn(*args) for args in itertools.product(domain.elements(), repeat=arity))
    return OpTable(arity, domain, table, idempotent=idempotent)


def projection(domain: Domain, arity: int, coord: int) -> OpTable:
    """The projection onto ``coord`` (0-based)."""
    if not 0 <= coord < arity:
        raise ValidationError(f"projection coordinate {coord} out of range for arity {arity}")
    return op_from_function(domain, arity, lambda *args: args[coord], idempotent=True)


# ---------------------------------------------------------------------------
# quantifier-free formulas over equality literals


@dataclass(frozen=True)
class VarEq:
    left: int
    right: int


@dataclass(frozen=True)
class ConstEq:
    var: int
    value: int


@dataclass(frozen=True)
class Not:
    arg: "FormulaNode"


@dataclass(frozen=True)
class And:
    parts: tuple["FormulaNode", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["FormulaNode", ...]


FormulaNode = Union[VarEq, ConstEq, Not, And, Or]

TRUE = And(())
FALSE = Or(())


def eval_formula(node: FormulaNode, assignment: Sequence[int]) -> bool:
    if isinstance(node, VarEq):
        return assignment[node.left] == assignment[node.right]
    if isinstance(node, ConstEq):
        return assignment[node.var] == node.value
    if isinstance(node, Not):
        return not eval_formula(node.arg, assignment)
    if isinstance(node, And):
        return all(eval_formula(p, assignment) for p in node.parts)
    if isinstance(node, Or):
        return any(eval_formula(p, assignment) for p in node.parts)
    raise ValidationError(f"not a formula node: {node!r}")


def formula_to_text(node: FormulaNode) -> str:
    """Serialize; output re-parses to an equal tree."""
    if isinstance(node, VarEq):
        return f"x{node.left}=x{node.right}"
    if isinstance(node, ConstEq):
        return f"x{node.var}={node.value}"
    if isinstance(node, Not):
        return f"!({formula_to_text(node.arg)})"
    if isinstance(node, And):
        if not node.parts:
            return "true"
        return "&".join(_paren_for_and(p) for p in node.parts)
    if isinstance(node, Or):
        if not node.parts:
            return "false"
        return "|".join(_paren_for_or(p) for p in node.parts)
    raise ValidationError(f"not a formula node: {node!r}")


def _paren_for_and(p: FormulaNode) -> str:
    text = formula_to_text(p)
    return f"({text})" if isinstance(p, Or) and p.parts else text


def _paren_for_or(p: FormulaNode) -> str:
    return formula_to_text(p)


class _FormulaParser:
    """Recursive descent over: or := and ('|' and)*; and := not ('&' not)*;
    not := '!' not | '(' or ')' | 'true' | 'false' | literal."""

    def __init__(self, text: str, arity: int, domain: Domain):
        self.text = text
        self.pos = 0
        self.arity = arity
        self.domain = domain

    def error(self, message: str):
        raise ParseError(message, line=1, column=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> FormulaNode:
        node = self.parse_or()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input after formula")
        return node

    def parse_or(self) -> FormulaNode:
        parts = [self.parse_and()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> FormulaNode:
        parts = [self.parse_not()]
        while self.peek() == "&":
            self.pos += 1
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not(self) -> FormulaNode:
        if self.peek() == "!":
            self.pos += 1
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> FormulaNode:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.parse_or()
            self.eat(")")
            return node
        if self.text.startswith("true", self.pos):
            self.pos += 4
            return TRUE
        if self.text.startswith("false", self.pos):
            self.pos += 5
            return FALSE
        if ch != "x":
            self.error("expected literal, '(', 'true' or 'false'")
        self.pos += 1
        left = self.parse_int("variable index")
        if left >= self.arity:
            self.error(f"variable x{left} out of range for arity {self.arity}")
        self.eat("=")
        if self.peek() == "x":
            self.pos += 1
            right = self.parse_int("variable index")
            if right >= self.arity:
                self.error(f"variable x{right} out of range for arity {self.arity}")
            return VarEq(left, right)
        value = self.parse_int("domain element")
        if value >= self.domain.size:
            self.error(f"element {value} out of range for domain of size {self.domain.size}")
        return ConstEq(left, value)

    def parse_int(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        return int(self.text[start:self.pos])


def parse_formula(text: str, arity: int, domain: Domain) -> FormulaNode:
    return _FormulaParser(text, arity, domain).parse()


def is_dnf(node: FormulaNode) -> bool:
    """Disjunction of conjunctions of positive equality literals.

    A bare literal or a single conjunction also counts; ``false`` (empty
    disjunction) and ``true`` (empty conjunction) are the degenerate forms.
    """

    def is_literal(n):
        return isinstance(n, (VarEq, ConstEq))

    def is_conj(n):
        if is_literal(n):
            return True
        return isinstance(n, And) and all(is_literal(p) for p in n.parts)

    if is_conj(node):
        return True
    return isinstance(node, Or) and all(is_conj(p) for p in node.parts)


# ---------------------------------------------------------------------------
# relations

ENC_TUPLES = "tuples"
ENC_QF = "qf"
ENC_DNF = "dnf"


class Relation:
    """Finite relation with one of three interchangeable encodings."""

    def __init__(
        self,
        arity: int,
        domain: Domain,
        encoding: str,
        *,
        tuple_set: Optional[Iterable[tuple[int, ...]]] = None,
        formula: Optional[FormulaNode] = None,
    ):
        if arity < 0:
            raise ValidationError("relation arity must be >= 0")
        self.arity = arity
        self.domain = domain
        self.encoding = encoding
        self._tuples: Optional[frozenset] = None
        self.formula: Optional[FormulaNode] = None
        if encoding == ENC_TUPLES:
            if tuple_set is None:
                raise ValidationError("tuple encoding requires a tuple set")
            ts = frozenset(tuple(t) for t in tuple_set)
            for t in ts:
                if len(t) != arity:
                    raise ValidationError(f"tuple {t} has length {len(t)}, expected {arity}")
                for v in t:
                    domain.check_element(v)
            self._tuples = ts
        elif encoding in (ENC_QF, ENC_DNF):
            if formula is None:
                raise ValidationError("formula encoding requires a formula")
            if encoding == ENC_DNF and not is_dnf(formula):
                raise ValidationError("formula is not in DNF (positive literals only)")
            self.formula = formula
        else:
            raise ValidationError(f"unknown encoding {encoding!r}")

    # constructors ---------------------------------------------------------

    @classmethod
    def from_tuples(cls, domain: Domain, arity: int, tuples: Iterable) -> "Relation":
        return cls(arity, domain, ENC_TUPLES, tuple_set=tuples)

    @classmethod
    def from_qf(cls, domain: Domain, arity: int, formula) -> "Relation":
        if isinstance(formula, str):
            formula = parse_formula(formula, arity, domain)
        return cls(arity, domain, ENC_QF, formula=formula)

    @classmethod
    def from_dnf(cls, domain: Domain, arity: int, formula) -> "Relation":
        if isinstance(formula, str):
            formula = parse_formula(formula, arity, domain)
        return cls(arity, domain, ENC_DNF, formula=formula)

    @classmethod
    def full(cls, domain: Domain, arity: int) -> "Relation":
        return cls.from_qf(domain, arity, TRUE)

    # queries --------------------------------------------------------------

    def contains(self, t: Sequence[int]) -> bool:
        t = tuple(t)
        if len(t) != self.arity:
            raise ValidationError(f"tuple {t} has length {len(t)}, expected {self.arity}")
        if self._tuples is not None:
            return t in self._tuples
        return eval_formula(self.formula, t)

    def tuples(self) -> frozenset:
        """The materialized tuple set (cached)."""
        if self._tuples is None:
            space = self.domain.size**self.arity
            if space > MATERIALIZE_CAP:
                raise BudgetError(
                    f"refusing to materialize arity-{self.arity} relation over "
                    f"domain {self.domain.size} ({space} assignments)"
                )
            self._tuples = frozenset(
                t
                for t in itertools.product(self.domain.elements(), repeat=self.arity)
                if eval_formula(self.formula, t)
            )
        return self._tuples

    def is_empty(self) -> bool:
        return not self.tuples()

    def same_tuples(self, other: "Relation") -> bool:
        return (
            self.arity == other.arity
            and self.domain == other.domain
            and self.tuples() == other.tuples()
        )

    # re-encodings ---------------------------------------------------------

    def to_tuples(self) -> "Relation":
        return Relation.from_tuples(self.domain, self.arity, self.tuples())

    def to_dnf(self) -> "Relation":
        if self.encoding == ENC_DNF:
            return self
        disjuncts = []
        for t in materialize(self):
            lits = tuple(ConstEq(i, v) for i, v in enumerate(t))
            disjuncts.append(And(lits) if len(lits) != 1 else lits[0])
        return Relation.from_dnf(self.domain, self.arity, Or(tuple(disjuncts)))

    def to_qf(self) -> "Relation":
        base = self.formula if self.formula is not None else self.to_dnf().formula
        return Relation.from_qf(self.domain, self.arity, base)

    def __repr__(self):
        return f"Relation(arity={self.arity}, domain={self.domain.size}, encoding={self.encoding!r})"


def materialize(rel: Relation) -> list[tuple[int, ...]]:
    """Exact tuple set of any encoding, in lexicographic order."""
    return sorted(rel.tuples())


# ---------------------------------------------------------------------------
# algebras and structures


class Algebra:
    """A named set of operation tables over one domain."""

    def __init__(self, domain: Domain, ops: dict[str, OpTable], idempotent: bool = False):
        for name, op in ops.items():
            if op.domain != domain:
                raise ValidationError(f"operation {name!r} is over a different domain")
            if idempotent and not op.check_idempotent():
                raise ValidationError(f"operation {name!r} breaks the declared idempotency")
        self.domain = domain
        self.ops = dict(ops)
        self.idempotent = idempotent

    def op(self, name: str) -> OpTable:
        if name not in self.ops:
            raise ValidationError(f"unknown operation {name!r}")
        return self.ops[name]

    def is_idempotent(self) -> bool:
        return all(op.check_idempotent() for op in self.ops.values())

    def __repr__(self):
        return f"Algebra(domain={self.domain.size}, ops={list(self.ops)})"


class Structure:
    """A named set of relations (plus optional named constants) over one domain."""

    def __init__(
        self,
        domain: Domain,
        relations: dict[str, Relation],
        constants: Optional[dict[str, int]] = None,
    ):
        for name, rel in relations.items():
            if rel.domain != domain:
                raise ValidationError(f"relation {name!r} is over a different domain")
        constants = dict(constants or {})
        for name, value in constants.items():
            domain.check_element(value)
        self.domain = domain
        self.relations = dict(relations)
        self.constants = constants

    def relation(self, name: str) -> Relation:
        if name not in self.relations:
            raise ValidationError(f"unknown relation {name!r}")
        return self.relations[name]

    def __repr__(self):
        return (
            f"Structure(domain={self.domain.size}, relations={list(self.relations)}, "
            f"constants={self.constants})"
        )
