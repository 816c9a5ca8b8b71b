"""Prenex sentences over conjunctions of atoms, their brute-force evaluation
(optionally against an adversary), a backtracking CSP solver, and the
reductions between the quantified and unquantified problems.

Sentence terms are either variable names (str) or domain elements (int).
Truth against an adversary follows the strategy-function reading: universal
variables jointly range over the adversary tuples, and an existential
response may depend exactly on the universal values quantified before it.
The evaluator realizes this by branching over the adversary's prefix tree,
which makes restriction to the full adversary coincide with plain
evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from . import gadgets, powers
from .errors import BudgetError, ValidationError
from .model import Domain, Relation, Structure

Term = Union[str, int]

FORALL = "forall"
EXISTS = "exists"

DEFAULT_VAR_BUDGET = 12


@dataclass(frozen=True)
class RelAtom:
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class EqAtom:
    left: Term
    right: Term


Atom = Union[RelAtom, EqAtom]


@dataclass(frozen=True)
class SentencePH:
    """Quantifier prefix over a conjunction of atoms."""

    prefix: tuple[tuple[str, str], ...]
    atoms: tuple[Atom, ...]

    def variables(self) -> list[str]:
        return [v for _, v in self.prefix]

    def universals(self) -> list[str]:
        return [v for q, v in self.prefix if q == FORALL]

    def existentials(self) -> list[str]:
        return [v for q, v in self.prefix if q == EXISTS]


def sentence(prefix: Iterable, atoms: Iterable) -> SentencePH:
    return SentencePH(tuple((q, v) for q, v in prefix), tuple(atoms))


def _atom_vars(atom: Atom) -> list[str]:
    if isinstance(atom, RelAtom):
        return [a for a in atom.args if isinstance(a, str)]
    return [a for a in (atom.left, atom.right) if isinstance(a, str)]


def validate_sentence(struct: Structure, phi: SentencePH) -> None:
    seen = set()
    for q, v in phi.prefix:
        if q not in (FORALL, EXISTS):
            raise ValidationError(f"unknown quantifier {q!r}")
        if v in seen:
            raise ValidationError(f"variable {v!r} quantified twice")
        seen.add(v)
    for atom in phi.atoms:
        for v in _atom_vars(atom):
            if v not in seen:
                raise ValidationError(f"unbound variable {v!r}")
        if isinstance(atom, RelAtom):
            rel = struct.relation(atom.rel)
            if len(atom.args) != rel.arity:
                raise ValidationError(
                    f"relation {atom.rel!r} has arity {rel.arity}, got {len(atom.args)} arguments"
                )
            for a in atom.args:
                if isinstance(a, int):
                    struct.domain.check_element(a)
        else:
            for a in (atom.left, atom.right):
                if isinstance(a, int):
                    struct.domain.check_element(a)


def alternation_class(phi: SentencePH) -> tuple[str, int]:
    """Quantifier-block count: ("Pi", k) when the leading block is universal,
    ("Sigma", k) otherwise; quantifier-free sentences are ("Pi", 0)."""
    blocks = [q for q, _ in phi.prefix]
    if not blocks:
        return ("Pi", 0)
    count = 1 + sum(1 for a, b in zip(blocks, blocks[1:]) if a != b)
    return ("Pi" if blocks[0] == FORALL else "Sigma", count)


# ---------------------------------------------------------------------------
# evaluation


def _check_atoms(struct: Structure, atoms, env) -> bool:
    for atom in atoms:
        if isinstance(atom, RelAtom):
            values = tuple(env[a] if isinstance(a, str) else a for a in atom.args)
            if not struct.relation(atom.rel).contains(values):
                return False
        else:
            lv = env[atom.left] if isinstance(atom.left, str) else atom.left
            rv = env[atom.right] if isinstance(atom.right, str) else atom.right
            if lv != rv:
                return False
    return True


def qcsp_eval(
    struct: Structure,
    phi: SentencePH,
    adversary: Optional[powers.Adversary] = None,
    max_vars: int = DEFAULT_VAR_BUDGET,
) -> bool:
    """Exact truth value by quantifier recursion.

    With an adversary, universal variables range jointly over its tuples:
    at the i-th universal the branch values are the possible i-th entries of
    adversary tuples extending the universal prefix chosen so far.
    """
    validate_sentence(struct, phi)
    if len(phi.prefix) > max_vars:
        raise BudgetError(f"{len(phi.prefix)} variables exceed the budget {max_vars}")
    elements = list(struct.domain.elements())
    n_universals = len(phi.universals())
    children = None
    if adversary is not None:
        if adversary.length != n_universals:
            raise ValidationError(
                f"adversary length {adversary.length} != {n_universals} universal variables"
            )
        children = {}
        for t in adversary.tuples:
            for j in range(adversary.length):
                children.setdefault(t[:j], set()).add(t[j])

    prefix = phi.prefix
    env: dict = {}

    def rec(pos: int, upast: tuple) -> bool:
        if pos == len(prefix):
            return _check_atoms(struct, phi.atoms, env)
        q, v = prefix[pos]
        if q == EXISTS:
            for value in elements:
                env[v] = value
                if rec(pos + 1, upast):
                    del env[v]
                    return True
            env.pop(v, None)
            return False
        branch = elements if children is None else sorted(children.get(upast, ()))
        for value in branch:
            env[v] = value
            if not rec(pos + 1, upast + (value,)):
                del env[v]
                return False
        env.pop(v, None)
        return True

    return rec(0, ())


# ---------------------------------------------------------------------------
# CSP instances and solving


@dataclass
class CspInstance:
    """Conjunction of named-relation constraints; scopes may mix variables
    and constants.  ``local_relations`` resolve before the structure's."""

    variables: tuple[str, ...]
    constraints: tuple[tuple[str, tuple[Term, ...]], ...]
    local_relations: dict = field(default_factory=dict)

    def relation(self, struct: Structure, name: str) -> Relation:
        if name in self.local_relations:
            return self.local_relations[name]
        return struct.relation(name)


def _diagonal(domain: Domain) -> Relation:
    return Relation.from_tuples(domain, 2, [(a, a) for a in domain.elements()])


def csp_solve(inst: CspInstance, struct: Structure) -> Optional[dict]:
    """Backtracking with arc-consistency propagation; returns a verified
    satisfying assignment or None (definitive at this desk scale)."""
    elements = set(struct.domain.elements())
    domains = {v: set(elements) for v in inst.variables}
    resolved = []
    for name, scope in inst.constraints:
        rel = inst.relation(struct, name)
        if len(scope) != rel.arity:
            raise ValidationError(f"constraint {name!r} arity mismatch")
        resolved.append((sorted(rel.tuples()), scope))

    def propagate(domains) -> Optional[dict]:
        changed = True
        while changed:
            changed = False
            for tuples, scope in resolved:
                supported = {a: set() for a in scope if isinstance(a, str)}
                matched = False
                for t in tuples:
                    ok = True
                    for a, value in zip(scope, t):
                        if isinstance(a, int):
                            if a != value:
                                ok = False
                                break
                        elif value not in domains[a]:
                            ok = False
                            break
                    if ok:
                        matched = True
                        for a, value in zip(scope, t):
                            if isinstance(a, str):
                                supported[a].add(value)
                if not matched:
                    # also catches all-constant scopes with no witness
                    return None
                for var, values in supported.items():
                    if not domains[var] >= values:
                        values &= domains[var]
                    if values != domains[var]:
                        domains[var] = values
                        changed = True
                    if not domains[var]:
                        return None
        return domains

    def search(domains) -> Optional[dict]:
        domains = propagate(domains)
        if domains is None:
            return None
        unassigned = [v for v in inst.variables if len(domains[v]) > 1]
        if not unassigned:
            return {v: next(iter(domains[v])) for v in inst.variables}
        var = min(unassigned, key=lambda v: len(domains[v]))
        for value in sorted(domains[var]):
            trial = {v: set(d) for v, d in domains.items()}
            trial[var] = {value}
            result = search(trial)
            if result is not None:
                return result
        return None

    assignment = search(domains)
    if assignment is not None:
        for tuples, scope in resolved:
            values = tuple(assignment[a] if isinstance(a, str) else a for a in scope)
            if values not in set(tuples):
                raise ValidationError("solver returned an assignment violating a constraint")
    return assignment


def qcsp_to_csp(
    struct: Structure,
    phi: SentencePH,
    switching_k: int,
    algebra=None,
    assume_verified: bool = False,
) -> CspInstance:
    """Expand the sentence over the at-most-k-switches adversary into one
    CSP whose satisfiability equals the restricted truth value.

    One matrix copy is emitted per adversary tuple; an existential variable
    is shared between two copies exactly when their tuples agree on all
    universal values preceding it (the prefix tree of strategy functions).

    The caller must have verified k-switchability of the invariance algebra
    at length m = number of universals; pass the algebra to have that checked
    here, or assume_verified=True to take responsibility.
    """
    validate_sentence(struct, phi)
    universals = phi.universals()
    m = len(universals)
    if not assume_verified and algebra is None:
        raise ValidationError(
            "switchability unverified: pass the algebra or assume_verified=True"
        )
    if algebra is not None and m >= 1:
        adv = powers.build_switch_adversary(struct.domain, m, switching_k)
        closed = powers.power_closure(algebra, adv.tuples)
        if len(closed) != struct.domain.size**m:
            raise ValidationError(
                f"the {switching_k}-switch adversary does not generate at length {m}"
            )

    upos = {v: i for i, v in enumerate(universals)}
    # number of universals quantified before each existential
    before: dict[str, int] = {}
    count = 0
    for q, v in phi.prefix:
        if q == FORALL:
            count += 1
        else:
            before[v] = count

    def copy_name(var: str, t: tuple) -> str:
        prefix = t[: before[var]]
        return var + "#" + "".join(str(d) for d in prefix)

    if m == 0:
        tuples = [()]
    else:
        tuples = sorted(powers.build_switch_adversary(struct.domain, m, switching_k).tuples)

    variables: list[str] = []
    seen = set()
    constraints = []
    local = {"=": _diagonal(struct.domain)}
    for t in tuples:
        def term_map(a: Term) -> Term:
            if isinstance(a, int):
                return a
            if a in upos:
                return t[upos[a]]
            name = copy_name(a, t)
            if name not in seen:
                seen.add(name)
                variables.append(name)
            return name

        for atom in phi.atoms:
            if isinstance(atom, RelAtom):
                constraints.append((atom.rel, tuple(term_map(a) for a in atom.args)))
            else:
                constraints.append(("=", (term_map(atom.left), term_map(atom.right))))
    deduped = tuple(dict.fromkeys(constraints))
    return CspInstance(tuple(variables), deduped, local)


# ---------------------------------------------------------------------------
# preprocessing and special-case decision procedures


def eliminate_constant_atoms(phi: SentencePH, domain: Domain) -> Optional[SentencePH]:
    """Remove every equality atom involving a constant; None means the
    sentence is decided false.

    A constant equality on a universal variable falsifies the sentence
    (domains here have at least two elements); on an existential variable the
    constant is substituted through all atoms, which also surfaces clashes
    v=a, v=a' as constant/constant mismatches.  Idempotent.
    """
    quant = {v: q for q, v in phi.prefix}
    prefix, atoms = list(phi.prefix), list(phi.atoms)
    while True:
        atom = next(
            (a for a in atoms
             if isinstance(a, EqAtom) and (isinstance(a.left, int) or isinstance(a.right, int))),
            None,
        )
        if atom is None:
            return SentencePH(tuple(prefix), tuple(atoms))
        atoms.remove(atom)
        var, value = (atom.right, atom.left) if isinstance(atom.left, int) else (atom.left, atom.right)
        if isinstance(var, int):
            if var != value:
                return None
            continue
        if quant[var] == FORALL and domain.size > 1:
            return None
        prefix = [(q, v) for q, v in prefix if v != var]
        atoms = [_substitute(a, var, value) for a in atoms]


def _substitute(atom: Atom, var: str, replacement: Term) -> Atom:
    if isinstance(atom, RelAtom):
        return RelAtom(atom.rel, tuple(replacement if a == var else a for a in atom.args))
    return EqAtom(
        replacement if atom.left == var else atom.left,
        replacement if atom.right == var else atom.right,
    )


def solve_universal_conjunction(struct: Structure, phi: SentencePH) -> bool:
    """Evaluate a purely universal conjunction atom by atom: the sentence is
    true exactly when each atom is true over its own variables alone."""
    if any(q != FORALL for q, _ in phi.prefix):
        raise ValidationError("expected a purely universal sentence")
    validate_sentence(struct, phi)
    size = struct.domain.size
    for atom in phi.atoms:
        variables = sorted(set(_atom_vars(atom)))
        for values in itertools.product(range(size), repeat=len(variables)):
            env = dict(zip(variables, values))
            if not _check_atoms(struct, [atom], env):
                return False
    return True


def solve_via_canon(
    struct: Structure, phi: SentencePH, canon: Optional[int] = None
) -> bool:
    """Decide the sentence by preprocessing away constants, equalities and
    forced coordinates, instantiating every surviving existential variable
    with the canon, and brute-forcing the purely universal residue.

    Correct when the structure's relations are (almost) existentially
    trivial; the canon is computed from them when not supplied.  Forcings
    and canons are read from each relation's disjuncts (`gadgets.Forcing`),
    so DNF- and tuple-backed relations are never materialized; QF-backed
    ones materialize up to `model.MATERIALIZE_CAP` assignments.
    """
    validate_sentence(struct, phi)
    domain = struct.domain
    if domain.size == 1:
        return qcsp_eval(struct, phi)
    if canon is None:
        verdict = gadgets.is_almost_existentially_trivial(struct)
        if not verdict.trivial:
            raise ValidationError("structure is not (almost) existentially trivial")
        canon = verdict.canon

    current, changed = phi, True
    while changed:
        current = eliminate_constant_atoms(current, domain)
        resolved = None if current is None else _resolve_equalities(current)
        forced = None if resolved is None else _force_atom_coordinates(struct, resolved[0])
        if forced is None:
            return False
        current, changed = forced[0], resolved[1] or forced[1]

    atoms = list(current.atoms)
    for q, v in current.prefix:
        if q == EXISTS:
            atoms = [_substitute(a, v, canon) for a in atoms]
    residue = SentencePH(
        tuple((q, v) for q, v in current.prefix if q == FORALL), tuple(atoms)
    )
    return solve_universal_conjunction(struct, residue)


def _resolve_equalities(phi: SentencePH):
    """Remove variable/variable equality atoms by substituting the earlier
    variable for the later one, which must be existential; None = decided
    false (the domain has at least two elements)."""
    prefix, atoms, changed = list(phi.prefix), list(phi.atoms), False
    while True:
        target = next(
            (a for a in atoms
             if isinstance(a, EqAtom) and isinstance(a.left, str) and isinstance(a.right, str)),
            None,
        )
        if target is None:
            return SentencePH(tuple(prefix), tuple(atoms)), changed
        changed = True
        atoms.remove(target)
        order = [v for _, v in prefix]
        keep, drop = sorted((target.left, target.right), key=order.index)
        if keep == drop:
            continue
        if prefix[order.index(drop)][0] == FORALL:
            return None
        prefix = [(q, v) for q, v in prefix if v != drop]
        atoms = [_substitute(x, drop, keep) for x in atoms]


def _force_atom_coordinates(struct: Structure, phi: SentencePH):
    """Emit the constants and equalities each relation atom forces on its
    variables (`gadgets.Forcing`) as equality atoms.  None = some atom is
    unsatisfiable outright."""
    new_atoms: list[Atom] = []
    changed = False
    for atom in phi.atoms:
        new_atoms.append(atom)
        if not isinstance(atom, RelAtom) or not _atom_vars(atom):
            continue
        forcing = gadgets.Forcing.of(struct.relation(atom.rel), atom.args)
        if forcing is None:
            return None
        for left, right in list(forcing.consts.items()) + forcing.equal:
            eq = EqAtom(left, right)
            if eq not in new_atoms:
                new_atoms.append(eq)
                changed = True
    return SentencePH(phi.prefix, tuple(new_atoms)), changed


# ---------------------------------------------------------------------------
# not-all-equal reductions


@dataclass(frozen=True)
class NaeInstance:
    """Monotone not-all-equal triples over named variables."""

    variables: tuple[str, ...]
    clauses: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        _check_clauses(self.clauses, self.variables)


def _check_clauses(clauses, *blocks) -> None:
    known = set().union(*blocks)
    for v in (v for clause in clauses for v in clause if v not in known):
        raise ValidationError(f"clause variable {v!r} not declared")


def naesat_brute(inst: NaeInstance) -> bool:
    """Independent 2**m oracle: some boolean assignment leaves every clause
    non-constant."""
    if len(inst.variables) > 20:
        raise BudgetError("brute force capped at 20 variables")
    for values in itertools.product((0, 1), repeat=len(inst.variables)):
        env = dict(zip(inst.variables, values))
        if all(len({env[a], env[b], env[c]}) > 1 for a, b, c in inst.clauses):
            return True
    return False


def naesat_to_qcsp(
    inst: NaeInstance, domain: Domain, ab: gadgets.AlphaBeta
) -> tuple[SentencePH, Structure]:
    """Universal sentence over the k-block triple gadget whose truth value is
    the complement of the instance's satisfiability."""
    k = len(inst.clauses)
    if k < 1:
        raise ValidationError("need at least one clause")
    name = f"tau{k}"
    rel = gadgets.build_tau_k(domain, ab, k, "dnf")
    struct = Structure(domain, {name: rel})
    args: list[Term] = [v for clause in inst.clauses for v in clause]
    phi = sentence([(FORALL, v) for v in inst.variables], [RelAtom(name, tuple(args))])
    return phi, struct


@dataclass(frozen=True)
class Pi2NaeInstance:
    """Not-all-equal triples with a universal and an existential block."""

    universals: tuple[str, ...]
    existentials: tuple[str, ...]
    clauses: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        if set(self.universals) & set(self.existentials):
            raise ValidationError("universal and existential blocks must be disjoint")
        _check_clauses(self.clauses, self.universals, self.existentials)


def _pi2_brute(inst: Pi2NaeInstance, matrix) -> bool:
    """For all universal booleans, some existential booleans satisfy
    `matrix` (a predicate on the assignment)."""
    bits = lambda names: [dict(zip(names, v)) for v in itertools.product((0, 1), repeat=len(names))]
    return all(
        any(matrix({**u, **e}) for e in bits(inst.existentials)) for u in bits(inst.universals)
    )


def pi2_nae_brute(inst: Pi2NaeInstance) -> bool:
    """For all universal booleans, some existential booleans make every
    clause not-all-equal."""
    return _pi2_brute(
        inst, lambda env: all(len({env[a], env[b], env[c]}) > 1 for a, b, c in inst.clauses)
    )


def pi2_allequal_brute(inst: Pi2NaeInstance) -> bool:
    """For all universal booleans, some existential booleans make SOME
    clause constant (the complementary game)."""
    return _pi2_brute(
        inst, lambda env: any(env[a] == env[b] == env[c] for a, b, c in inst.clauses)
    )


CASE_A = "A"
CASE_B = "B"


def pi2_naesat_gadget(
    inst: Pi2NaeInstance, case: str, domain: Optional[Domain] = None
) -> tuple[SentencePH, Structure]:
    """Alternating variants of the not-all-equal encodings, with the covering
    pair fixed to alpha={0,2}, beta={1,2}.

    Case A keeps the complement encoding through the triple gadget and pins
    existential variables to the two-element set {0,1}: the sentence is true
    iff pi2_allequal_brute holds.

    Case B encodes the not-all-equal game itself over {0,2}: each universal
    boolean v becomes a fresh universal v' driving an existential v through
    the binary forcing gadget, clauses become ternary not-all-equal atoms,
    and all auxiliary existentials sit innermost, keeping the prefix at one
    universal block followed by one existential block: the sentence is true
    iff pi2_nae_brute holds.
    """
    domain = domain or Domain(3)
    if domain.size != 3:
        raise ValidationError("the alternating gadgets live on domain 3")
    if not inst.clauses:
        raise ValidationError("need at least one clause")
    ab = gadgets.AlphaBeta.of({0, 2}, {1, 2})
    if case == CASE_A:
        k = len(inst.clauses)
        tau = gadgets.build_tau_k(
            domain, ab, k, "tuples" if k <= gadgets.TUPLE_ENCODING_MAX_K else "dnf"
        )
        sub01 = Relation.from_dnf(domain, 1, "x0=0|x0=1")
        struct = Structure(domain, {f"tau{k}": tau, "sub01": sub01})
        prefix = [(FORALL, v) for v in inst.universals] + [
            (EXISTS, v) for v in inst.existentials
        ]
        atoms: list[Atom] = [RelAtom("sub01", (v,)) for v in inst.existentials]
        args = tuple(v for clause in inst.clauses for v in clause)
        atoms.append(RelAtom(f"tau{k}", args))
        return sentence(prefix, atoms), struct
    if case == CASE_B:
        z = gadgets.build_Z(domain)
        r = gadgets.build_R(domain)
        sub02 = Relation.from_dnf(domain, 1, "x0=0|x0=2")
        struct = Structure(domain, {"zgad": z, "nae02": r, "sub02": sub02})
        taken = set(inst.universals) | set(inst.existentials)
        aux = {}
        for v in inst.universals:
            name = v + "_aux"
            while name in taken:
                name += "_"
            taken.add(name)
            aux[v] = name
        prefix = [(FORALL, aux[v]) for v in inst.universals]
        prefix += [(EXISTS, v) for v in inst.universals]
        prefix += [(EXISTS, v) for v in inst.existentials]
        atoms = [RelAtom("zgad", (v, aux[v])) for v in inst.universals]
        atoms += [RelAtom("sub02", (v,)) for v in inst.existentials]
        atoms += [RelAtom("nae02", clause) for clause in inst.clauses]
        return sentence(prefix, atoms), struct
    raise ValidationError(f"unknown case {case!r}")
