"""The two-subset gadget relations, their DNF encodings, and the canon tests.

Everything is parameterized by a covering pair (alpha, beta) of strict
subsets of the domain.  The block gadgets are disjunctions of a fixed base
relation over consecutive variable blocks, so their DNF encodings grow
linearly in the block count while the tuple encodings grow exponentially;
builders above the materialization threshold return DNF-backed relations
only, and the canon tests read those disjunct by disjunct, never as tuples.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetError, ValidationError
from .model import (
    And,
    ConstEq,
    Domain,
    ENC_DNF,
    ENC_TUPLES,
    OpTable,
    Or,
    Relation,
    Structure,
    VarEq,
)

TUPLE_ENCODING_MAX_K = 3


@dataclass(frozen=True)
class AlphaBeta:
    """A covering pair of strict subsets of the domain."""

    alpha: frozenset
    beta: frozenset

    @classmethod
    def of(cls, alpha: Iterable[int], beta: Iterable[int]) -> "AlphaBeta":
        return cls(frozenset(alpha), frozenset(beta))

    def validate(self, domain: Domain, need_overlap: bool = False) -> None:
        full = frozenset(domain.elements())
        if not self.alpha or not self.beta:
            raise ValidationError("alpha and beta must be nonempty")
        if not (self.alpha < full and self.beta < full):
            raise ValidationError("alpha and beta must be strict subsets")
        if self.alpha | self.beta != full:
            raise ValidationError("alpha and beta must cover the domain")
        if need_overlap and not self.alpha & self.beta:
            raise ValidationError("this construction needs alpha and beta to intersect")

    def overlap(self) -> frozenset:
        return self.alpha & self.beta


def _block_dnf(ab: AlphaBeta, block_vars: list[tuple[int, ...]], width: int):
    """One DNF disjunct list: all width-tuples over alpha, then over beta,
    per block, matching the displayed enumeration."""
    disjuncts = []
    for positions in block_vars:
        for side in (sorted(ab.alpha), sorted(ab.beta)):
            for values in itertools.product(side, repeat=width):
                disjuncts.append(
                    And(tuple(ConstEq(p, v) for p, v in zip(positions, values)))
                )
    return Or(tuple(disjuncts))


def _block_relation(
    domain: Domain, ab: AlphaBeta, k: int, width: int, encoding: str
) -> Relation:
    ab.validate(domain)
    if k < 1:
        raise ValidationError("block count must be >= 1")
    arity = width * k
    blocks = [tuple(range(i * width, (i + 1) * width)) for i in range(k)]
    if encoding == ENC_DNF:
        return Relation.from_dnf(domain, arity, _block_dnf(ab, blocks, width))
    if encoding == ENC_TUPLES:
        if k > TUPLE_ENCODING_MAX_K:
            raise BudgetError(
                f"tuple encoding materializes {domain.size}**{arity} assignments; "
                f"use DNF beyond k={TUPLE_ENCODING_MAX_K}"
            )
        base = {
            t for side in (ab.alpha, ab.beta) for t in itertools.product(sorted(side), repeat=width)
        }
        members = [
            t
            for t in itertools.product(domain.elements(), repeat=arity)
            if any(tuple(t[p] for p in block) in base for block in blocks)
        ]
        return Relation.from_tuples(domain, arity, members)
    raise ValidationError(f"unsupported gadget encoding {encoding!r}")


def build_rho(domain: Domain, ab: AlphaBeta, encoding: str = ENC_TUPLES) -> Relation:
    """Binary: both coordinates in alpha, or both in beta."""
    return _block_relation(domain, ab, 1, 2, encoding)


def build_rho_prime(domain: Domain, ab: AlphaBeta, encoding: str = ENC_TUPLES) -> Relation:
    """Ternary: all three coordinates in alpha, or all in beta."""
    return _block_relation(domain, ab, 1, 3, encoding)


def build_sigma_k(
    domain: Domain, ab: AlphaBeta, k: int, encoding: str = ENC_TUPLES
) -> Relation:
    """Arity 2k: some pair block (x_i, y_i) lies in the binary base relation."""
    return _block_relation(domain, ab, k, 2, encoding)


def build_tau_k(
    domain: Domain, ab: AlphaBeta, k: int, encoding: str = ENC_TUPLES
) -> Relation:
    """Arity 3k: some triple block (x_i, y_i, z_i) lies in the ternary base."""
    return _block_relation(domain, ab, k, 3, encoding)


def verify_pp_definition(domain: Domain, ab: AlphaBeta, k: int) -> bool:
    """Check that the 3k-ary triple gadget equals the conjunction of 3**k
    instances of the 2k-ary pair gadget, one per way of picking two variables
    out of every block.

    Brute force over all domain**(3k) assignments; capped at k <= 2.
    """
    if k > 2:
        raise BudgetError("pp-definition verification enumerates 3^(3k) assignments; k <= 2")
    sigma = build_sigma_k(domain, ab, k, ENC_DNF)
    tau = build_tau_k(domain, ab, k, ENC_DNF)
    pair_choices = [(0, 1), (1, 2), (0, 2)]
    conjuncts = []
    for choice in itertools.product(pair_choices, repeat=k):
        positions = []
        for i, (a, b) in enumerate(choice):
            positions.extend((3 * i + a, 3 * i + b))
        conjuncts.append(tuple(positions))
    for t in itertools.product(domain.elements(), repeat=3 * k):
        phi = all(sigma.contains(tuple(t[p] for p in pos)) for pos in conjuncts)
        if phi != tau.contains(t):
            return False
    return True


def build_Z(domain: Optional[Domain] = None) -> Relation:
    """The binary universal-variable gadget on domain 3."""
    domain = domain or Domain(3)
    if domain.size != 3:
        raise ValidationError("this gadget lives on domain 3")
    return Relation.from_tuples(domain, 2, [(0, 0), (2, 1), (2, 2), (0, 2)])


def build_R(domain: Optional[Domain] = None) -> Relation:
    """Not-all-equal over {0,2}: all {0,2}-triples except the two constants."""
    domain = domain or Domain(3)
    if domain.size != 3:
        raise ValidationError("this gadget lives on domain 3")
    members = [t for t in itertools.product((0, 2), repeat=3) if len(set(t)) > 1]
    return Relation.from_tuples(domain, 3, members)


def build_nu_for_sigma(domain: Domain, ab: AlphaBeta, m: int) -> OpTable:
    """(3m+1)-ary near-unanimity operation: tuples where all coordinates but
    one agree map to the repeated value; every other tuple maps to the least
    element of alpha-intersect-beta."""
    ab.validate(domain, need_overlap=True)
    if m < 1:
        raise ValidationError("m must be >= 1")
    arity = 3 * m + 1
    if domain.size**arity > 3**9:
        raise BudgetError(f"near-unanimity table of arity {arity} over budget")
    catch_all = min(ab.overlap())
    table = []
    for t in itertools.product(domain.elements(), repeat=arity):
        counts = {v: t.count(v) for v in set(t)}
        majority = [v for v, c in counts.items() if c >= arity - 1]
        table.append(majority[0] if majority else catch_all)
    return OpTable(arity, domain, tuple(table), idempotent=True)


# ---------------------------------------------------------------------------
# disjunct classes, forced coordinates and canons
#
# A relation is read as a list of disjunct keys, one entry per coordinate
# (or atom variable): the element the disjunct forces there, else the label
# -1 - j of the position's equality class, j its first position.  Each
# disjunct is the product over its classes, so equal keys mean equal sets;
# a tuple is a key without labels.


def _merge(pairs, nodes) -> Optional[tuple]:
    """Identify each pair of nodes (labels, variables or elements; distinct
    elements never merge) and return the key of `nodes`, None on a clash."""
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for x, y in pairs:
        x, y = find(x), find(y)
        if x != y and isinstance(x, int) and x >= 0:
            if isinstance(y, int) and y >= 0:
                return None
            x, y = y, x
        if x != y:
            parent[x] = y
    first: dict = {}
    return tuple(
        r if isinstance(r, int) and r >= 0 else first.setdefault(r, -1 - j)
        for j, r in enumerate(map(find, nodes))
    )


def _keys(rel: Relation) -> list:
    """The satisfiable disjuncts of a DNF relation, read from its formula;
    the tuples of any other encoding (a QF relation materializes)."""
    if rel.encoding != ENC_DNF:
        return list(rel.tuples())
    node, labels = rel.formula, [-1 - j for j in range(rel.arity)]
    merged = (
        _merge([(-1 - l.left, -1 - l.right) if isinstance(l, VarEq) else (-1 - l.var, l.value)
                for l in (d.parts if isinstance(d, And) else (d,))], labels)
        for d in (node.parts if isinstance(node, Or) else (node,))
    )
    return list(dict.fromkeys(k for k in merged if k is not None))


@dataclass
class Forcing:
    """What a relation forces on an atom's variables, from one pass over its
    disjuncts: the satisfiable ones as keys over the variables, the
    variables forced to a constant (the union of their class values is one
    element) and (kept, dropped) pairs forced equal (every disjunct puts
    them in one class or pins both to one element).  Exact, since each
    disjunct is a product over its classes."""

    keys: list
    full: frozenset
    consts: dict
    equal: list

    @classmethod
    def of(cls, rel: Relation, args=None) -> Optional["Forcing"]:
        """Substitute the atom arguments `args` (variable names, and domain
        elements as constants; None for the coordinates themselves) into
        every disjunct of `rel`.  None when no disjunct survives."""
        keys, variables = _keys(rel), tuple(range(rel.arity))
        if args is not None:
            variables = tuple(dict.fromkeys(a for a in args if isinstance(a, str)))
            merged = (_merge(zip(key, args), variables) for key in keys)
            keys = list(dict.fromkeys(k for k in merged if k is not None))
        if not keys:
            return None
        forcing = cls(keys, frozenset(rel.domain.elements()), {}, [])
        groups: dict = {}
        for j, v in enumerate(variables):
            values = forcing.values(j)
            if len(values) == 1:
                forcing.consts[v] = next(iter(values))
            else:
                groups.setdefault(tuple(key[j] for key in keys), []).append(v)
        forcing.equal = [(g[0], v) for g in groups.values() for v in g[1:]]
        return forcing

    def _allowed(self, x: int):
        return (x,) if x >= 0 else self.full

    def values(self, j: int) -> frozenset:
        """Projection to the j-th variable."""
        return frozenset(v for key in self.keys for v in self._allowed(key[j]))

    def pairs(self, i: int, j: int) -> frozenset:
        """Projection to the i-th and j-th variables."""
        out = set()
        for key in self.keys:
            if key[i] == key[j]:
                out.update((v, v) for v in self._allowed(key[i]))
            else:
                out.update(itertools.product(self._allowed(key[i]), self._allowed(key[j])))
        return frozenset(out)


def proj_single(rel: Relation, i: int) -> frozenset:
    """Unary projection to coordinate i; DNF relations are read through
    their disjunct classes and never materialized."""
    if not 0 <= i < rel.arity:
        raise ValidationError(f"coordinate {i} out of range")
    forcing = Forcing.of(rel)
    return forcing.values(i) if forcing else frozenset()


def proj_pair(rel: Relation, i: int, j: int) -> frozenset:
    """Binary projection to coordinates (i, j), the same way."""
    for c in (i, j):
        if not 0 <= c < rel.arity:
            raise ValidationError(f"coordinate {c} out of range")
    forcing = Forcing.of(rel)
    return forcing.pairs(i, j) if forcing else frozenset()


def is_existentially_trivial(struct: Structure) -> Optional[int]:
    """Least element substitutable into any coordinate of any tuple of every
    relation without leaving it, or None.  Declared constants do not take
    part (they surface as equality atoms and are eliminated separately).

    Decided per disjunct, never by materializing a DNF relation: the
    disjunct with coordinate i set to c must lie inside the relation.
    """
    keyed = [_keys(rel) for rel in struct.relations.values()]
    for c in struct.domain.elements():
        if all(_canon_ok(keys, c, struct.domain.size) for keys in keyed):
            return c
    return None


def _canon_ok(keys: list, c: int, size: int) -> bool:
    known = set(keys)
    for key in keys:
        counts = Counter(key)
        for i, x in enumerate(key):
            if x == c or (x < 0 and counts[x] == 1):
                continue  # the moved disjunct lies inside this one
            moved = key[:i] + (c,) + key[i + 1 :]
            moved = _merge((), moved) if x < 0 else moved  # relabel a split class
            if moved not in known and _escapes(keys, moved, {}, size):
                return False
    return True


def _escapes(keys: list, moved: tuple, chosen: dict, size: int) -> bool:
    """Some tuple of the disjunct `moved` whose classes agree with `chosen`
    satisfies none of `keys`: depth first, branching on an open class of
    the first disjunct not yet refuted; a disjunct that already holds
    closes the branch."""
    branch = None
    for key in keys:
        open_class = None
        for j, x in enumerate(key):
            a, b = moved[j], (x if x >= 0 else moved[-1 - x])
            if a == b:
                continue
            a, b = chosen.get(a, a), chosen.get(b, b)
            if a < 0 or b < 0:
                open_class = a if a < 0 else b
            elif a != b:
                break
        else:
            if open_class is None:
                return False
            if branch is None:
                branch = open_class
    if branch is None:
        return True
    for v in range(size):
        chosen[branch] = v
        if _escapes(keys, moved, chosen, size):
            return True
    del chosen[branch]
    return False


@dataclass
class Reduction:
    """Forcings stripped from one relation: ("const", coord, value) and
    ("eq", coord, coord) entries, in the order they were applied."""

    name: str
    forcings: list
    residual: Relation


@dataclass
class AlmostTrivialVerdict:
    trivial: bool
    canon: Optional[int]
    reductions: list


def is_almost_existentially_trivial(struct: Structure) -> AlmostTrivialVerdict:
    """Strip the coordinates each relation forces to a constant or equal to
    an earlier one (`Forcing.of` with the identity arguments), then look
    for a common canon of the residual relations."""
    reductions, residuals = [], {}
    for name, rel in struct.relations.items():
        forcing = Forcing.of(rel) or Forcing([], frozenset(), {}, [])  # empty rel
        forcings = [("const", j, c) for j, c in forcing.consts.items()]
        forcings += [("eq", i, j) for i, j in forcing.equal]
        dropped = set(forcing.consts) | {j for _, j in forcing.equal}
        residual = _drop_coordinates(rel, forcing.keys, dropped) if dropped else rel
        reductions.append(Reduction(name, forcings, residual))
        residuals[name] = residual
    canon = is_existentially_trivial(Structure(struct.domain, residuals))
    return AlmostTrivialVerdict(canon is not None, canon, reductions)


def _drop_coordinates(rel: Relation, keys: list, dropped: set) -> Relation:
    """Project away coordinates that the kept ones determine, disjunct by
    disjunct."""
    kept = [j for j in range(rel.arity) if j not in dropped]
    projected = sorted({_merge((), [key[j] for j in kept]) for key in keys})
    if rel.encoding != ENC_DNF:
        return Relation.from_tuples(rel.domain, len(kept), projected)
    return Relation.from_dnf(rel.domain, len(kept), Or(tuple(
        And(tuple(ConstEq(j, x) if x >= 0 else VarEq(-1 - x, j)
                  for j, x in enumerate(key) if x != -1 - j))
        for key in projected
    )))
