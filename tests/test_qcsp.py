import itertools
import random

import pytest

from qforge import qcsp
from qforge.errors import BudgetError, ValidationError
from qforge.gadgets import build_rho, build_rho_prime, build_tau_k
from qforge.model import Relation, Structure
from qforge.powers import Adversary
from qforge.qcsp import (
    CASE_A,
    CASE_B,
    CspInstance,
    EXISTS,
    EqAtom,
    FORALL,
    NaeInstance,
    Pi2NaeInstance,
    RelAtom,
    alternation_class,
    csp_solve,
    eliminate_constant_atoms,
    naesat_brute,
    naesat_to_qcsp,
    pi2_allequal_brute,
    pi2_nae_brute,
    pi2_naesat_gadget,
    qcsp_eval,
    qcsp_to_csp,
    sentence,
    solve_universal_conjunction,
    solve_via_canon,
    validate_sentence,
)


@pytest.fixture
def rho_struct(d3, ab):
    return Structure(d3, {"rho": build_rho(d3, ab), "rho3": build_rho_prime(d3, ab)})


@pytest.fixture
def tau_struct(d3, ab):
    return Structure(
        d3,
        {
            "tau1": build_tau_k(d3, ab, 1, "dnf"),
            "tau2": build_tau_k(d3, ab, 2, "dnf"),
        },
        {"a0": 0, "a1": 1, "a2": 2},
    )


def random_sentence(rng, relations, max_forall=3, max_exists=4, n_atoms=(1, 4),
                    with_equalities=False, with_constants=False):
    """relations: {name: arity}."""
    n_u = rng.randint(0, max_forall)
    n_e = rng.randint(0, max_exists)
    if n_u + n_e == 0:
        n_u = 1
    names = [f"u{i}" for i in range(n_u)] + [f"e{i}" for i in range(n_e)]
    quants = [FORALL] * n_u + [EXISTS] * n_e
    order = list(range(len(names)))
    rng.shuffle(order)
    prefix = [(quants[i], names[i]) for i in order]
    atoms = []
    for _ in range(rng.randint(*n_atoms)):
        kinds = ["rel"]
        if with_equalities:
            kinds.append("eq")
        if with_constants:
            kinds.append("const")
        kind = rng.choice(kinds)
        if kind == "rel":
            name = rng.choice(sorted(relations))
            args = tuple(rng.choice(names) for _ in range(relations[name]))
            atoms.append(RelAtom(name, args))
        elif kind == "eq":
            atoms.append(EqAtom(rng.choice(names), rng.choice(names)))
        else:
            atoms.append(EqAtom(rng.choice(names), rng.randrange(3)))
    return sentence(prefix, atoms)


class TestEval:
    def test_forall_exists_pair(self, rho_struct):
        phi = sentence([(FORALL, "x"), (EXISTS, "y")], [RelAtom("rho", ("x", "y"))])
        assert qcsp_eval(rho_struct, phi)

    def test_forall_forall_pair(self, rho_struct):
        phi = sentence([(FORALL, "x"), (FORALL, "y")], [RelAtom("rho", ("x", "y"))])
        assert not qcsp_eval(rho_struct, phi)

    def test_full_adversary_matches_unrestricted(self, d3, rho_struct):
        rng = random.Random(41)
        rels = {"rho": 2, "rho3": 3}
        for _ in range(40):
            phi = random_sentence(rng, rels, max_forall=2, max_exists=2)
            m = len(phi.universals())
            plain = qcsp_eval(rho_struct, phi)
            if m >= 1:
                restricted = qcsp_eval(rho_struct, phi, Adversary.full(d3, m))
                assert plain == restricted

    def test_adversary_monotone(self, d3, rho_struct):
        rng = random.Random(43)
        rels = {"rho": 2, "rho3": 3}
        pool3 = list(itertools.product(range(3), repeat=3))
        trials = 0
        while trials < 60:
            phi = random_sentence(rng, rels, max_forall=3, max_exists=2)
            m = len(phi.universals())
            if m == 0:
                continue
            pool = list(itertools.product(range(3), repeat=m))
            big = rng.sample(pool, rng.randint(1, len(pool)))
            small = rng.sample(big, rng.randint(1, len(big)))
            v_big = qcsp_eval(rho_struct, phi, Adversary.from_tuples(big))
            v_small = qcsp_eval(rho_struct, phi, Adversary.from_tuples(small))
            if v_big:
                assert v_small
            trials += 1

    def test_unbound_variable_rejected(self, rho_struct):
        phi = sentence([(FORALL, "x")], [RelAtom("rho", ("x", "y"))])
        with pytest.raises(ValidationError):
            qcsp_eval(rho_struct, phi)

    def test_arity_mismatch_rejected(self, rho_struct):
        phi = sentence([(FORALL, "x")], [RelAtom("rho", ("x", "x", "x"))])
        with pytest.raises(ValidationError):
            qcsp_eval(rho_struct, phi)

    def test_variable_budget(self, rho_struct):
        prefix = [(EXISTS, f"v{i}") for i in range(13)]
        phi = sentence(prefix, [])
        with pytest.raises(BudgetError):
            qcsp_eval(rho_struct, phi)

    def test_adversary_length_mismatch(self, d3, rho_struct):
        phi = sentence([(FORALL, "x")], [RelAtom("rho", ("x", "x"))])
        with pytest.raises(ValidationError):
            qcsp_eval(rho_struct, phi, Adversary.full(d3, 2))

    def test_existential_before_universal_sees_nothing(self, d3):
        # the diagonal has no constant column: quantifier order must matter
        diag = Relation.from_tuples(d3, 2, [(a, a) for a in range(3)])
        struct = Structure(d3, {"diag": diag})
        after = sentence([(FORALL, "x"), (EXISTS, "y")], [RelAtom("diag", ("x", "y"))])
        before = sentence([(EXISTS, "y"), (FORALL, "x")], [RelAtom("diag", ("x", "y"))])
        assert qcsp_eval(struct, after)
        assert not qcsp_eval(struct, before)


class TestAlternation:
    def test_examples(self):
        assert alternation_class(
            sentence([(FORALL, "x"), (EXISTS, "y")], [])
        ) == ("Pi", 2)
        assert alternation_class(
            sentence([(EXISTS, "x"), (FORALL, "y"), (EXISTS, "z")], [])
        ) == ("Sigma", 3)
        assert alternation_class(sentence([], [])) == ("Pi", 0)


class TestCspSolve:
    def test_single_constraint(self, d3, rho_struct):
        inst = CspInstance(("x", "y"), (("rho", ("x", "y")),))
        solution = csp_solve(inst, rho_struct)
        assert solution is not None
        assert rho_struct.relation("rho").contains((solution["x"], solution["y"]))

    def test_forced_unsat(self, d3, rho_struct):
        inst = CspInstance(("x", "y"), (("rho", ("x", "y")), ("rho", (0, "x")), ("=", ("x", 0)), ("=", ("y", 1))),
                           {"=": qcsp._diagonal(d3)})
        assert csp_solve(inst, rho_struct) is None

    def test_empty_instance(self, rho_struct):
        assert csp_solve(CspInstance((), ()), rho_struct) == {}

    def test_constants_in_scope(self, d3, rho_struct):
        inst = CspInstance(("x",), (("rho", (1, "x")),))
        solution = csp_solve(inst, rho_struct)
        assert solution["x"] in {1, 2}


class TestQcspToCsp:
    def test_no_universals_is_plain_matrix(self, switchable, rho_struct):
        phi = sentence([(EXISTS, "x"), (EXISTS, "y")], [RelAtom("rho", ("x", "y"))])
        inst = qcsp_to_csp(rho_struct, phi, 2, assume_verified=True)
        assert len(inst.constraints) == 1
        assert len(inst.variables) == 2

    def test_prefix_sharing(self, d3, rho_struct):
        # exists between the universals: copies keyed by the first value only
        phi = sentence(
            [(FORALL, "u0"), (EXISTS, "e0"), (FORALL, "u1")],
            [RelAtom("rho", ("u0", "e0")), RelAtom("rho", ("e0", "u1"))],
        )
        inst = qcsp_to_csp(rho_struct, phi, 2, assume_verified=True)
        # adversary is full at m=2; e0 has 3 copies (one per u0 value)
        assert sorted(inst.variables) == ["e0#0", "e0#1", "e0#2"]

    def test_refuses_without_verification(self, rho_struct):
        phi = sentence([(FORALL, "x"), (EXISTS, "y")], [RelAtom("rho", ("x", "y"))])
        with pytest.raises(ValidationError):
            qcsp_to_csp(rho_struct, phi, 2)

    def test_requires_generation(self, semilattice, rho_struct):
        # the semilattice has exponential growth: verification must refuse
        phi = sentence(
            [(FORALL, "x"), (FORALL, "y"), (FORALL, "z"), (FORALL, "w")],
            [RelAtom("rho", ("x", "y"))],
        )
        with pytest.raises(ValidationError):
            qcsp_to_csp(rho_struct, phi, 1, algebra=semilattice)

    def _invariant_structure(self, d3, switchable):
        from qforge.clone import preserves

        pool = {}
        # all unary invariant relations
        for bits in range(1, 8):
            members = [(v,) for v in range(3) if bits >> v & 1]
            rel = Relation.from_tuples(d3, 1, members)
            if all(preserves(op, rel) for op in switchable.ops.values()):
                pool[f"u{bits}"] = rel
        # a deterministic sample of binary invariant relations
        rng = random.Random(5)
        found = 0
        while found < 6:
            members = {
                t for t in itertools.product(range(3), repeat=2) if rng.random() < 0.5
            }
            if not members:
                continue
            rel = Relation.from_tuples(d3, 2, members)
            if all(preserves(op, rel) for op in switchable.ops.values()):
                pool[f"b{found}"] = rel
                found += 1
        return Structure(d3, pool)

    def test_equivalence_on_random_sentences(self, d3, switchable):
        struct = self._invariant_structure(d3, switchable)
        rels = {name: rel.arity for name, rel in struct.relations.items()}
        rng = random.Random(47)
        for _ in range(40):
            phi = random_sentence(rng, rels, max_forall=3, max_exists=3,
                                  with_equalities=True)
            inst = qcsp_to_csp(struct, phi, 2, algebra=switchable)
            csp_answer = csp_solve(inst, struct) is not None
            assert csp_answer == qcsp_eval(struct, phi)

    def test_equivalence_at_length_four(self, d3, switchable):
        # at four universals the two-switch adversary is a strict subset,
        # so this also exercises the generation claim behind the reduction
        struct = self._invariant_structure(d3, switchable)
        rels = {name: rel.arity for name, rel in struct.relations.items()}
        rng = random.Random(53)
        done = 0
        while done < 12:
            phi = random_sentence(rng, rels, max_forall=4, max_exists=2)
            if len(phi.universals()) != 4:
                continue
            inst = qcsp_to_csp(struct, phi, 2, algebra=switchable)
            csp_answer = csp_solve(inst, struct) is not None
            assert csp_answer == qcsp_eval(struct, phi)
            done += 1


class TestEliminateConstants:
    def test_universal_constant_is_false(self, d3):
        phi = sentence([(FORALL, "v")], [EqAtom("v", 0)])
        assert eliminate_constant_atoms(phi, d3) is None

    def test_contradictory_constants(self, d3):
        phi = sentence([(EXISTS, "v")], [EqAtom("v", 0), EqAtom("v", 1)])
        assert eliminate_constant_atoms(phi, d3) is None

    def test_substitution(self, d3):
        phi = sentence(
            [(EXISTS, "v"), (FORALL, "y"), (EXISTS, "z")],
            [EqAtom("v", 0), RelAtom("tau1", ("v", "y", "z"))],
        )
        result = eliminate_constant_atoms(phi, d3)
        assert result.prefix == ((FORALL, "y"), (EXISTS, "z"))
        assert result.atoms == (RelAtom("tau1", (0, "y", "z")),)

    def test_idempotent(self, d3):
        phi = sentence(
            [(EXISTS, "v"), (EXISTS, "w")],
            [EqAtom("v", 2), EqAtom("v", "w")],
        )
        once = eliminate_constant_atoms(phi, d3)
        assert eliminate_constant_atoms(once, d3) == once
        assert once.prefix == ()

    def test_truth_preserved(self, d3, tau_struct):
        rng = random.Random(59)
        rels = {"tau1": 3, "tau2": 6}
        for _ in range(100):
            phi = random_sentence(rng, rels, max_forall=2, max_exists=3,
                                  with_equalities=True, with_constants=True)
            before = qcsp_eval(tau_struct, phi)
            after = eliminate_constant_atoms(phi, d3)
            if after is None:
                assert before is False
            else:
                assert qcsp_eval(tau_struct, after) == before


class TestCanonSolver:
    def test_simple_forall_exists(self, tau_struct):
        phi = sentence(
            [(FORALL, "x"), (EXISTS, "y")], [RelAtom("tau1", ("x", "x", "y"))]
        )
        assert solve_via_canon(tau_struct, phi) is True
        assert qcsp_eval(tau_struct, phi) is True

    def test_no_existentials_matches_eval(self, tau_struct):
        phi = sentence(
            [(FORALL, "x"), (FORALL, "y")], [RelAtom("tau1", ("x", "x", "y"))]
        )
        assert solve_via_canon(tau_struct, phi) == qcsp_eval(tau_struct, phi)

    def test_requires_trivial_structure(self, d2):
        struct = Structure(d2, {"neq": Relation.from_tuples(d2, 2, [(0, 1), (1, 0)])})
        phi = sentence([(EXISTS, "x")], [RelAtom("neq", ("x", "x"))])
        with pytest.raises(ValidationError):
            solve_via_canon(struct, phi)

    def test_random_agreement(self, d3, tau_struct):
        rng = random.Random(61)
        rels = {"tau1": 3, "tau2": 6}
        for _ in range(60):
            phi = random_sentence(rng, rels, max_forall=2, max_exists=3,
                                  with_equalities=True, with_constants=True)
            assert solve_via_canon(tau_struct, phi) == qcsp_eval(tau_struct, phi)

    def test_agreement_on_forced_coordinate_structure(self, d3, ab):
        # first coordinate pinned to 0; residual is the triple gadget, so the
        # structure is only trivial after stripping the forced coordinate
        base = build_rho_prime(d3, ab)
        pinned = Relation.from_tuples(
            d3, 4, {(0,) + t for t in base.tuples()}
        )
        struct = Structure(d3, {"pinned": pinned})
        from qforge.gadgets import is_almost_existentially_trivial, is_existentially_trivial

        assert is_existentially_trivial(struct) is None
        assert is_almost_existentially_trivial(struct).canon == 2
        rng = random.Random(63)
        for _ in range(40):
            phi = random_sentence(rng, {"pinned": 4}, max_forall=2, max_exists=2,
                                  with_equalities=True, with_constants=True)
            assert solve_via_canon(struct, phi) == qcsp_eval(struct, phi)


class TestCanonWithoutMaterialization:
    # the three fixed clause sets of the benchmark's canon workload
    FIXED = [
        (("p", "q", "r", "s", "t"),
         (("p", "q", "r"), ("q", "r", "s"), ("r", "s", "t"), ("p", "s", "t"), ("p", "q", "t"))),
        (("p", "q", "r", "s"),
         (("p", "q", "r"), ("p", "q", "s"), ("p", "r", "s"), ("q", "r", "s"), ("p", "p", "q"))),
        (("p", "q", "r", "s", "t", "w"),
         (("p", "q", "r"), ("q", "r", "s"), ("r", "s", "t"), ("s", "t", "w"), ("p", "t", "w"),
          ("p", "q", "w"))),
    ]
    # the lines of the Fano plane: not 2-colourable, so the sentence is true
    FANO = (tuple("abcdefg"), (("a", "b", "c"), ("a", "d", "e"), ("a", "f", "g"), ("b", "d", "f"),
                               ("b", "e", "g"), ("c", "d", "g"), ("c", "e", "f")))

    def test_naesat_reductions(self, d3, ab, no_dnf_materialization):
        rng = random.Random(67)
        six = tuple(f"v{i}" for i in range(6))
        ten = tuple(tuple(rng.choice(six) for _ in range(3)) for _ in range(10))
        for variables, clauses in self.FIXED + [(six, ten), self.FANO]:
            inst = NaeInstance(variables, clauses)
            phi, struct = naesat_to_qcsp(inst, d3, ab)
            assert solve_via_canon(struct, phi) == (not naesat_brute(inst))
        assert not naesat_brute(NaeInstance(*self.FANO))

    def test_tau_8_canon(self, d3, ab, no_dnf_materialization):
        from qforge.gadgets import is_almost_existentially_trivial

        tau8 = build_tau_k(d3, ab, 8, "dnf")
        assert tau8.arity == 24
        verdict = is_almost_existentially_trivial(Structure(d3, {"tau8": tau8}))
        assert verdict.trivial and verdict.canon == 2
        assert verdict.reductions[0].forcings == []


class TestUniversalConjunction:
    def test_atomwise_identity(self, d3, rho_struct):
        phi = sentence(
            [(FORALL, v) for v in "xyzw"],
            [RelAtom("rho3", ("x", "y", "z")), RelAtom("rho3", ("y", "z", "w"))],
        )
        direct = qcsp_eval(rho_struct, phi)
        atomwise = solve_universal_conjunction(rho_struct, phi)
        assert direct == atomwise is False

    def test_true_atoms(self, d3):
        struct = Structure(d3, {"all": Relation.full(d3, 2)})
        phi = sentence(
            [(FORALL, "x"), (FORALL, "y"), (FORALL, "z")],
            [RelAtom("all", ("x", "y")), RelAtom("all", ("y", "z"))],
        )
        assert solve_universal_conjunction(struct, phi)
        assert qcsp_eval(struct, phi)

    def test_tau_atom_false(self, d3, tau_struct):
        phi = sentence(
            [(FORALL, v) for v in "xyz"], [RelAtom("tau1", ("x", "y", "z"))]
        )
        assert not solve_universal_conjunction(tau_struct, phi)

    def test_rejects_existentials(self, tau_struct):
        phi = sentence([(EXISTS, "x")], [])
        with pytest.raises(ValidationError):
            solve_universal_conjunction(tau_struct, phi)

    def test_matches_eval_on_random_universal_sentences(self, d3, rho_struct):
        rng = random.Random(67)
        rels = {"rho": 2, "rho3": 3}
        for _ in range(40):
            phi = random_sentence(rng, rels, max_forall=3, max_exists=0)
            if not phi.prefix:
                continue
            assert solve_universal_conjunction(rho_struct, phi) == qcsp_eval(
                rho_struct, phi
            )


class TestNaesat:
    def test_single_satisfiable_clause(self, d3, ab):
        inst = NaeInstance(("x", "y", "z"), (("x", "y", "z"),))
        phi, struct = naesat_to_qcsp(inst, d3, ab)
        assert naesat_brute(inst) is True
        assert qcsp_eval(struct, phi) is False

    def test_constant_clause_unsatisfiable(self, d3, ab):
        inst = NaeInstance(("x",), (("x", "x", "x"),))
        phi, struct = naesat_to_qcsp(inst, d3, ab)
        assert naesat_brute(inst) is False
        assert qcsp_eval(struct, phi) is True

    def test_complementation_on_two_clause_instances(self, d3, ab):
        rng = random.Random(71)
        variables = ("a", "b", "c", "d")
        for _ in range(40):
            clauses = tuple(
                tuple(rng.choice(variables) for _ in range(3)) for _ in range(2)
            )
            inst = NaeInstance(variables, clauses)
            phi, struct = naesat_to_qcsp(inst, d3, ab)
            assert qcsp_eval(struct, phi) == (not naesat_brute(inst))


class TestPi2Gadgets:
    def test_case_b_is_pi2(self):
        inst = Pi2NaeInstance(("u",), ("v",), (("u", "u", "v"),))
        phi, struct = pi2_naesat_gadget(inst, CASE_B)
        assert alternation_class(phi) == ("Pi", 2)
        validate_sentence(struct, phi)

    def test_tiny_instance_case_a(self):
        inst = Pi2NaeInstance(("u",), ("v",), (("u", "u", "v"),))
        phi, struct = pi2_naesat_gadget(inst, CASE_A)
        assert qcsp_eval(struct, phi) == pi2_allequal_brute(inst) == True

    def test_tiny_instance_case_b(self):
        inst = Pi2NaeInstance(("u",), ("v",), (("u", "u", "v"),))
        phi, struct = pi2_naesat_gadget(inst, CASE_B)
        assert qcsp_eval(struct, phi) == pi2_nae_brute(inst) == True

    def test_randomized_equivalences(self):
        rng = random.Random(73)
        for _ in range(40):
            n_u = rng.randint(0, 2)
            n_e = rng.randint(0, 2)
            universals = tuple(f"u{i}" for i in range(n_u))
            existentials = tuple(f"e{i}" for i in range(n_e))
            names = universals + existentials
            if not names:
                continue
            clauses = tuple(
                tuple(rng.choice(names) for _ in range(3))
                for _ in range(rng.randint(1, 2))
            )
            inst = Pi2NaeInstance(universals, existentials, clauses)
            phi_a, struct_a = pi2_naesat_gadget(inst, CASE_A)
            assert qcsp_eval(struct_a, phi_a) == pi2_allequal_brute(inst)
            phi_b, struct_b = pi2_naesat_gadget(inst, CASE_B)
            assert qcsp_eval(struct_b, phi_b) == pi2_nae_brute(inst)
