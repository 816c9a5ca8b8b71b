import itertools

import pytest
from hypothesis import given, strategies as st

from qforge.clone import switchable_r, semilattice_s
from qforge.errors import BudgetError, ParseError, ValidationError
from qforge.model import (
    Domain,
    OpTable,
    Relation,
    formula_to_text,
    is_dnf,
    materialize,
    op_from_function,
    parse_formula,
    projection,
)


def all_tuples(size, arity):
    return list(itertools.product(range(size), repeat=arity))


@st.composite
def small_relations(st_draw):
    size = st_draw(st.integers(1, 3))
    arity = st_draw(st.integers(0, 3))
    pool = all_tuples(size, arity)
    members = st_draw(st.sets(st.sampled_from(pool)))
    return Relation.from_tuples(Domain(size), arity, members)


class TestDomainAndOps:
    def test_domain_must_be_positive(self):
        with pytest.raises(ValidationError):
            Domain(0)

    def test_table_length_checked(self, d3):
        with pytest.raises(ValidationError):
            OpTable(2, d3, (0,) * 8)

    def test_entries_range_checked(self, d3):
        with pytest.raises(ValidationError):
            OpTable(1, d3, (0, 1, 3))

    def test_idempotent_flag_verified(self, d3):
        with pytest.raises(ValidationError):
            OpTable(1, d3, (1, 1, 1), idempotent=True)

    def test_arity_mismatch(self, d3):
        with pytest.raises(ValidationError):
            semilattice_s(d3).apply((0, 1, 2))

    def test_switchable_r_rows(self, d3):
        r = switchable_r(d3)
        assert r.apply((0, 1, 1, 1)) == 1
        assert r.apply((2, 2, 2, 2)) == 2
        assert r.apply((0, 0, 0, 1)) == 0
        assert r.apply((0, 0, 1, 0)) == 0
        assert r.apply((1, 0, 1, 1)) == 1
        assert r.apply((0, 1, 2, 0)) == 2

    def test_semilattice_rows(self, d3):
        s = semilattice_s(d3)
        assert s(0, 1) == 2
        assert all(s(a, a) == a for a in range(3))
        assert all(s(a, b) == 2 for a in range(3) for b in range(3) if a != b)

    def test_apply_agrees_with_direct_indexing(self, d3):
        for op in (semilattice_s(d3), switchable_r(d3), projection(d3, 3, 1)):
            size = op.domain.size
            for i, args in enumerate(all_tuples(size, op.arity)):
                idx = 0
                for a in args:
                    idx = idx * size + a
                assert i == idx
                assert op.apply(args) == op.table[idx]

    def test_projection_tables(self, d3):
        assert projection(d3, 2, 0).table == tuple(a for a, _ in all_tuples(3, 2))
        assert projection(d3, 2, 1).table == tuple(b for _, b in all_tuples(3, 2))


class TestFormulas:
    def test_dnf_diagonal(self):
        rel = Relation.from_dnf(Domain(2), 2, "(x0=0&x1=0)|(x0=1&x1=1)")
        assert materialize(rel) == [(0, 0), (1, 1)]

    def test_qf_disequality(self):
        rel = Relation.from_qf(Domain(2), 2, "!(x0=x1)")
        assert materialize(rel) == [(0, 1), (1, 0)]

    def test_negation_is_not_dnf(self):
        node = parse_formula("!(x0=x1)", 2, Domain(2))
        assert not is_dnf(node)
        with pytest.raises(ValidationError):
            Relation.from_dnf(Domain(2), 2, "!(x0=x1)")

    def test_true_false_tokens(self, d3):
        assert len(Relation.from_qf(d3, 2, "true").tuples()) == 9
        assert len(Relation.from_dnf(d3, 2, "false").tuples()) == 0

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_formula("x0=", 2, Domain(2))
        with pytest.raises(ParseError):
            parse_formula("x5=0", 2, Domain(2))
        with pytest.raises(ParseError):
            parse_formula("x0=7", 2, Domain(2))
        with pytest.raises(ParseError):
            parse_formula("(x0=0", 2, Domain(2))

    def test_precedence(self, d3):
        # & binds tighter than |
        rel = Relation.from_qf(d3, 2, "x0=0&x1=0|x0=1")
        expected = {(0, 0)} | {(1, b) for b in range(3)}
        assert rel.tuples() == expected

    @given(small_relations())
    def test_formula_text_round_trip(self, rel):
        # reparsing preserves the tuple set and the rendering is stable
        dnf = rel.to_dnf()
        text = formula_to_text(dnf.formula)
        again = parse_formula(text, rel.arity, rel.domain)
        assert Relation.from_qf(rel.domain, rel.arity, again).tuples() == rel.tuples()
        assert formula_to_text(again) == text


class TestRelations:
    def test_rho_prime_size_by_enumeration(self, d3):
        alpha, beta = {0, 2}, {1, 2}
        oracle = set(itertools.product(alpha, repeat=3)) | set(
            itertools.product(beta, repeat=3)
        )
        assert len(oracle) == 15
        rel = Relation.from_tuples(d3, 3, oracle)
        assert len(materialize(rel)) == 15

    def test_materialize_is_sorted(self, d3):
        rel = Relation.from_tuples(d3, 2, [(2, 1), (0, 0), (1, 2)])
        assert materialize(rel) == [(0, 0), (1, 2), (2, 1)]

    @given(small_relations())
    def test_encoding_independence(self, rel):
        base = rel.tuples()
        assert rel.to_dnf().tuples() == base
        assert rel.to_qf().tuples() == base
        assert rel.to_dnf().to_qf().to_tuples().tuples() == base

    def test_arity_zero(self, d3):
        empty = Relation.from_tuples(d3, 0, [])
        full = Relation.from_tuples(d3, 0, [()])
        assert materialize(empty) == []
        assert materialize(full) == [()]
        assert full.to_dnf().tuples() == {()}
        assert empty.to_dnf().tuples() == frozenset()

    def test_membership_without_materialization(self):
        # arity 15 would be far over the materialization cap
        big = Relation.from_dnf(Domain(3), 15, "x0=0")
        assert big.contains((0,) * 15)
        assert not big.contains((1,) + (0,) * 14)
        with pytest.raises(BudgetError):
            big.tuples()

    def test_tuple_shape_validation(self, d3):
        with pytest.raises(ValidationError):
            Relation.from_tuples(d3, 2, [(0, 1, 2)])
        with pytest.raises(ValidationError):
            Relation.from_tuples(d3, 2, [(0, 3)])

    def test_op_from_function(self, d3):
        op = op_from_function(d3, 2, max)
        assert op(2, 1) == 2 and op(0, 1) == 1
