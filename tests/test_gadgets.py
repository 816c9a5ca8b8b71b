import itertools
import random

import pytest

from qforge.clone import is_alpha_beta_projective, preserves
from qforge.errors import BudgetError, ValidationError
from qforge.gadgets import (
    AlphaBeta,
    build_R,
    build_Z,
    build_nu_for_sigma,
    build_rho,
    build_rho_prime,
    build_sigma_k,
    build_tau_k,
    is_almost_existentially_trivial,
    is_existentially_trivial,
    proj_pair,
    proj_single,
    verify_pp_definition,
)
from qforge.model import OpTable, Relation, Structure


def block_member_oracle(ab, width, blocks, t):
    """Direct reading: some block lies wholly in alpha or wholly in beta."""
    for positions in blocks:
        values = [t[p] for p in positions]
        if all(v in ab.alpha for v in values) or all(v in ab.beta for v in values):
            return True
    return False


class TestBaseRelations:
    def test_rho_size_and_membership(self, d3, ab):
        rho = build_rho(d3, ab)
        assert len(rho.tuples()) == 7
        assert not rho.contains((0, 1))
        assert rho.contains((2, 2)) and rho.contains((0, 0))

    def test_rho_prime_size(self, d3, ab):
        assert len(build_rho_prime(d3, ab).tuples()) == 15

    def test_validation(self, d3):
        with pytest.raises(ValidationError):
            build_rho(d3, AlphaBeta.of({0, 1, 2}, {1}))
        with pytest.raises(ValidationError):
            build_rho(d3, AlphaBeta.of({0}, {1}))

    def test_other_pairs(self, d3):
        # the pair need not intersect for the base relations
        rho = build_rho(d3, AlphaBeta.of({0, 1}, {2}))
        assert len(rho.tuples()) == 5


class TestBlockGadgets:
    def test_tau_1_equals_rho_prime(self, d3, ab):
        assert build_tau_k(d3, ab, 1).same_tuples(build_rho_prime(d3, ab))

    def test_sigma_2_membership(self, d3, ab):
        sigma2 = build_sigma_k(d3, ab, 2)
        assert sigma2.contains((0, 1, 0, 0))  # second block inside alpha
        assert not sigma2.contains((0, 1, 1, 0))

    def test_matches_block_oracle(self, d3, ab):
        for k, width, builder in ((2, 2, build_sigma_k), (2, 3, build_tau_k)):
            rel = builder(d3, ab, k)
            blocks = [tuple(range(i * width, (i + 1) * width)) for i in range(k)]
            for t in itertools.product(range(3), repeat=width * k):
                assert rel.contains(t) == block_member_oracle(ab, width, blocks, t)

    def test_dnf_and_tuple_encodings_agree(self, d3, ab):
        for k in (1, 2):
            assert build_sigma_k(d3, ab, k, "dnf").same_tuples(build_sigma_k(d3, ab, k))
            assert build_tau_k(d3, ab, k, "dnf").same_tuples(build_tau_k(d3, ab, k))

    def test_block_permutation_symmetry(self, d3, ab):
        sigma2 = build_sigma_k(d3, ab, 2)
        tau2 = build_tau_k(d3, ab, 2)
        assert sigma2.tuples() == {t[2:] + t[:2] for t in sigma2.tuples()}
        assert tau2.tuples() == {t[3:] + t[:3] for t in tau2.tuples()}

    def test_large_k_requires_dnf(self, d3, ab):
        with pytest.raises(BudgetError):
            build_tau_k(d3, ab, 4)
        rel = build_tau_k(d3, ab, 4, "dnf")
        assert rel.arity == 12
        assert rel.contains((0,) * 12)
        assert not rel.contains((0, 1, 0) * 4)

    def test_dnf_size_is_linear_in_k(self, d3, ab):
        sizes = [len(build_tau_k(d3, ab, k, "dnf").formula.parts) for k in (1, 2, 3)]
        assert sizes[1] - sizes[0] == sizes[2] - sizes[1]

    def test_preserved_by_projective_operations(self, d3, ab):
        rng = random.Random(23)
        tau1 = build_tau_k(d3, ab, 1)
        found = 0
        while found < 8:
            table = tuple(rng.randrange(3) for _ in range(9))
            op = OpTable(2, d3, table)
            if is_alpha_beta_projective(op, ab.alpha, ab.beta).coord is None:
                continue
            found += 1
            assert preserves(op, tau1)


class TestPpDefinition:
    def test_k1(self, d3, ab):
        assert verify_pp_definition(d3, ab, 1)

    def test_k2(self, d3, ab):
        assert verify_pp_definition(d3, ab, 2)

    def test_containment_direction_rowwise(self, d3, ab):
        # every triple-gadget member satisfies each pair-gadget conjunct
        sigma1 = build_sigma_k(d3, ab, 1)
        tau1 = build_tau_k(d3, ab, 1)
        for t in tau1.tuples():
            for i, j in ((0, 1), (1, 2), (0, 2)):
                assert sigma1.contains((t[i], t[j]))

    def test_budget(self, d3, ab):
        with pytest.raises(BudgetError):
            verify_pp_definition(d3, ab, 3)


class TestFixedGadgets:
    def test_z_membership(self):
        z = build_Z()
        assert z.contains((2, 1))
        assert z.tuples() == {(0, 0), (2, 1), (2, 2), (0, 2)}

    def test_z_forcing_rows(self):
        z = build_Z()
        assert {v for v, w in z.tuples() if w == 1} == {2}
        assert {v for v, w in z.tuples() if w == 0} == {0}
        assert {v for v, w in z.tuples() if w == 2} == {0, 2}

    def test_r_gadget(self):
        r = build_R()
        assert len(r.tuples()) == 6
        assert not r.contains((0, 0, 0))
        assert not r.contains((2, 2, 2))
        assert r.contains((0, 2, 2))


class TestNearUnanimity:
    def test_near_unanimity_rows(self, d3, ab):
        nu = build_nu_for_sigma(d3, ab, 1)
        for x in range(3):
            for y in range(3):
                assert nu(y, x, x, x) == x
                assert nu(x, y, x, x) == x
                assert nu(x, x, y, x) == x
                assert nu(x, x, x, y) == x

    def test_catch_all_value(self, d3, ab):
        nu = build_nu_for_sigma(d3, ab, 1)
        assert nu(0, 1, 2, 1) == 2  # least element of the overlap

    def test_preserves_sigma_and_constants(self, d3, ab):
        nu = build_nu_for_sigma(d3, ab, 1)
        assert preserves(nu, build_sigma_k(d3, ab, 1))
        assert nu.check_idempotent()

    def test_needs_overlap(self, d3):
        with pytest.raises(ValidationError):
            build_nu_for_sigma(d3, AlphaBeta.of({0, 1}, {2}), 1)


class TestExistentialTriviality:
    def test_tau_family_canon(self, d3, ab):
        struct = Structure(
            d3,
            {"tau1": build_tau_k(d3, ab, 1), "tau2": build_tau_k(d3, ab, 2)},
            {"a0": 0, "a1": 1, "a2": 2},
        )
        assert is_existentially_trivial(struct) == 2

    def test_disequality_has_no_canon(self, d2):
        struct = Structure(d2, {"neq": Relation.from_tuples(d2, 2, [(0, 1), (1, 0)])})
        assert is_existentially_trivial(struct) is None

    def test_full_relations_least_canon(self, d3):
        struct = Structure(d3, {"all": Relation.full(d3, 2)})
        assert is_existentially_trivial(struct) == 0

    def test_almost_trivial_strips_forced_constant(self, d3):
        rel = Relation.from_tuples(d3, 2, [(0, 1), (0, 2)])
        verdict = is_almost_existentially_trivial(Structure(d3, {"r": rel}))
        assert verdict.trivial
        assert ("const", 0, 0) in verdict.reductions[0].forcings

    def test_almost_trivial_strips_forced_equality(self, d3):
        diag = Relation.from_tuples(d3, 2, [(a, a) for a in range(3)])
        verdict = is_almost_existentially_trivial(Structure(d3, {"diag": diag}))
        assert verdict.trivial
        assert any(f[0] == "eq" for f in verdict.reductions[0].forcings)

    def test_almost_trivial_respects_residual(self, d2):
        # after stripping nothing, the disequality residual still blocks
        neq = Relation.from_tuples(d2, 2, [(0, 1), (1, 0)])
        verdict = is_almost_existentially_trivial(Structure(d2, {"neq": neq}))
        assert not verdict.trivial


class TestProjections:
    def test_syntactic_dnf_projections_match_materialized(self, d3):
        rng = random.Random(31)
        pool = list(itertools.product(range(3), repeat=3))
        for _ in range(25):
            members = set(rng.sample(pool, rng.randint(1, 10)))
            rel = Relation.from_tuples(d3, 3, members).to_dnf()
            for i in range(3):
                assert proj_single(rel, i) == {t[i] for t in members}
            for i, j in itertools.combinations(range(3), 2):
                assert proj_pair(rel, i, j) == {(t[i], t[j]) for t in members}

    def test_projection_with_variable_equalities(self, d3):
        rel = Relation.from_dnf(d3, 3, "(x0=x1&x2=0)|(x0=2&x1=2&x2=1)")
        assert proj_single(rel, 2) == {0, 1}
        assert proj_pair(rel, 0, 1) == {(0, 0), (1, 1), (2, 2)}


class TestForcingOracle:
    """The forced-coordinate routine, the projections and the least canon
    against brute force over the materialized tuple set.  The oracle reads
    the generated literals itself and never calls the routine."""

    @staticmethod
    def random_dnf(rng, arity):
        disjuncts = []
        shared = []  # literals added to every disjunct, so that some coordinates are forced
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(arity)
            shared.append(
                ("const", i, rng.randrange(3)) if rng.random() < 0.5
                else ("eq", i, rng.randrange(arity))
            )
        for _ in range(rng.randint(0, 5)):
            lits = list(shared)
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randrange(arity), rng.randrange(arity)
                lits.append(("eq", i, j) if rng.random() < 0.4 else ("const", i, rng.randrange(3)))
            if rng.random() < 0.15:  # an unsatisfiable disjunct
                i = rng.randrange(arity)
                lits += [("const", i, 0), ("const", i, 1)]
            disjuncts.append(lits)
        return disjuncts

    @staticmethod
    def members(disjuncts, arity):
        def holds(t, lit):
            kind, i, x = lit
            return t[i] == (t[x] if kind == "eq" else x)

        return {
            t
            for t in itertools.product(range(3), repeat=arity)
            if any(all(holds(t, lit) for lit in d) for d in disjuncts)
        }

    @staticmethod
    def least_canon(tuples, arity):
        for c in range(3):
            if all(t[:i] + (c,) + t[i + 1 :] in tuples for t in tuples for i in range(arity)):
                return c
        return None

    @staticmethod
    def oracle_forcing(tuples, args):
        """(forced constants, classes of variables forced equal) or None."""
        variables = list(dict.fromkeys(a for a in args if isinstance(a, str)))
        solutions = set()
        for t in tuples:
            env = {}
            if all(
                a == v if isinstance(a, int) else env.setdefault(a, v) == v
                for a, v in zip(args, t)
            ):
                solutions.add(tuple(env[x] for x in variables))
        if not solutions:
            return None
        consts, free = {}, []
        for j, x in enumerate(variables):
            values = {s[j] for s in solutions}
            if len(values) == 1:
                consts[x] = values.pop()
            else:
                free.append(j)
        classes = {
            frozenset(variables[j2] for j2 in free if all(s[j] == s[j2] for s in solutions))
            for j in free
        }
        return consts, {c for c in classes if len(c) > 1}

    @staticmethod
    def reported_classes(equal):
        classes = {}
        for kept, dropped in equal:
            classes.setdefault(kept, {kept}).add(dropped)
        return {frozenset(c) for c in classes.values()}

    def test_against_brute_force(self, d3):
        from qforge.gadgets import Forcing
        from qforge.model import And, ConstEq, Or, VarEq

        rng = random.Random(4099)
        hits = {"forced": 0, "unsat_atoms": 0, "canon": 0, "no_canon": 0}
        for _ in range(300):
            arity = rng.randint(1, 6)
            disjuncts = self.random_dnf(rng, arity)
            formula = Or(tuple(
                And(tuple(VarEq(i, x) if kind == "eq" else ConstEq(i, x) for kind, i, x in d))
                for d in disjuncts
            ))
            tuples = self.members(disjuncts, arity)
            dnf = Relation.from_dnf(d3, arity, formula)
            for rel in (dnf, Relation.from_tuples(d3, arity, tuples)):
                for i in range(arity):
                    assert proj_single(rel, i) == {t[i] for t in tuples}
                    for j in range(arity):
                        assert proj_pair(rel, i, j) == {(t[i], t[j]) for t in tuples}

                identity = tuple(f"x{i}" for i in range(arity))
                expected = self.oracle_forcing(tuples, identity)
                verdict = is_almost_existentially_trivial(Structure(d3, {"r": rel}))
                forcings = verdict.reductions[0].forcings
                kept = list(range(arity))
                if expected is None:
                    assert Forcing.of(rel) is None and forcings == []
                else:
                    consts, classes = expected
                    assert {("const", int(x[1:]), v) for x, v in consts.items()} == {
                        f for f in forcings if f[0] == "const"
                    }
                    eq = [f[1:] for f in forcings if f[0] == "eq"]
                    assert self.reported_classes([(f"x{a}", f"x{b}") for a, b in eq]) == classes
                    hits["forced"] += bool(forcings)
                    dropped = {f[1] for f in forcings if f[0] == "const"} | {b for _, b in eq}
                    kept = [j for j in kept if j not in dropped]
                residual = {tuple(t[j] for j in kept) for t in tuples}
                assert verdict.reductions[0].residual.tuples() == residual
                canon = self.least_canon(residual, len(kept))
                assert verdict.canon == canon
                assert is_existentially_trivial(Structure(d3, {"r": rel})) == self.least_canon(
                    tuples, arity
                )
                hits["canon" if canon is not None else "no_canon"] += 1

                for _ in range(5):
                    args = tuple(
                        rng.choice("uvw") if rng.random() < 0.75 else rng.randrange(3)
                        for _ in range(arity)
                    )
                    expected = self.oracle_forcing(tuples, args)
                    forcing = Forcing.of(rel, args)
                    if expected is None:
                        assert forcing is None
                        hits["unsat_atoms"] += 1
                        continue
                    consts, classes = expected
                    assert forcing.consts == consts
                    assert self.reported_classes(forcing.equal) == classes
        assert min(hits.values()) >= 20, hits
