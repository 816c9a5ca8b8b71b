import itertools
import os
import random

import pytest

from hypothesis import given, strategies as st

from qforge import catalog, files, powers, qcsp
from qforge.clone import (
    build_f_a_n,
    build_f_b_n,
    build_f_hat_a_n,
    build_f_hat_b_n,
    semilattice_s,
)
from qforge.errors import BudgetError, ValidationError
from qforge.gadgets import build_rho
from qforge.model import Algebra, Domain, Structure, op_from_function, projection
from qforge.powers import (
    Adversary,
    PowersBudget,
    adversary_game_transfer_test,
    build_collapse_adversaries,
    build_switch_adversary,
    collapse_tuples,
    is_k_collapsible,
    is_k_switchable,
    min_generating_size,
    power_closure,
    reactive_compose_check,
    rect_compose_check,
    switch_count,
    _DeriveSearch,
)

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")

# --- independent oracles ----------------------------------------------------


def naive_closure(algebra, seed):
    """Reference fixpoint: apply every operation to every argument tuple."""
    closed = {tuple(t) for t in seed}
    size = algebra.domain.size
    ops = [(op.arity, op.table) for op in algebra.ops.values()]
    changed = True
    while changed:
        changed = False
        current = list(closed)
        for arity, table in ops:
            for combo in itertools.product(current, repeat=arity):
                image = []
                for col in zip(*combo):
                    code = 0
                    for v in col:
                        code = code * size + v
                    image.append(table[code])
                image = tuple(image)
                if image not in closed:
                    closed.add(image)
                    changed = True
    return frozenset(closed)


def oracle_min_gen(algebra, m):
    """Smallest-first subset search built on the naive closure."""
    size = algebra.domain.size
    pool = sorted(itertools.product(range(size), repeat=m))
    full = frozenset(pool)
    for s in range(1, len(pool) + 1):
        for subset in itertools.combinations(pool, s):
            if naive_closure(algebra, subset) == full:
                return s, subset
    raise AssertionError("unreachable")


def two_element_projection_algebra():
    d = Domain(2)
    return Algebra(d, {"e0": projection(d, 2, 0), "e1": projection(d, 2, 1)})


# --- adversaries ------------------------------------------------------------


class TestAdversaries:
    def test_switch_count(self):
        assert switch_count((0, 0, 1, 1, 2)) == 2
        assert switch_count((1, 1, 1)) == 0
        assert switch_count((0,)) == 0

    def test_switch_adversary_size(self, d3):
        # 3 constants plus 3 switch positions times 6 ordered value pairs
        assert len(build_switch_adversary(d3, 4, 1).tuples) == 3 + 3 * 6

    def test_switch_adversary_matches_filter(self, d2, d3):
        for domain in (d2, d3):
            for m in range(1, 7):
                for k in range(m + 1):
                    expected = {
                        t
                        for t in itertools.product(range(domain.size), repeat=m)
                        if sum(t[i] != t[i + 1] for i in range(m - 1)) <= k
                    }
                    assert build_switch_adversary(domain, m, k).tuples == expected

    def test_switch_monotone_in_k(self, d3):
        for m in range(1, 6):
            for k in range(m):
                small = build_switch_adversary(d3, m, k).tuples
                large = build_switch_adversary(d3, m, k + 1).tuples
                assert small <= large

    def test_collapse_adversaries_are_rectangular(self, d3):
        advs = build_collapse_adversaries(d3, 4, 2, [0])
        assert len(advs) == 6  # positions of the two free coordinates
        for adv in advs:
            assert adv.rectangular is not None

    def test_collapse_tuples_within_double_switch(self, d3):
        for m in range(1, 6):
            for p in range(m + 1):
                xi = build_switch_adversary(d3, m, min(2 * p, m)).tuples
                assert collapse_tuples(d3, m, p, range(3)) <= xi

    def test_rectangular_validation(self):
        with pytest.raises(ValidationError):
            Adversary(2, frozenset({(0, 0)}), (frozenset({0}), frozenset({0, 1})))
        with pytest.raises(ValidationError):
            Adversary(2, frozenset())


# --- closure ----------------------------------------------------------------


class TestPowerClosure:
    def test_unary_seed(self, semilattice):
        assert power_closure(semilattice, [(0,), (1,)]) == {(0,), (1,), (2,)}

    def test_already_closed(self, switchable):
        full = frozenset(itertools.product(range(3), repeat=2))
        assert power_closure(switchable, full) == full

    def test_pair_seed(self, semilattice):
        closed = power_closure(semilattice, [(0, 1), (1, 0)])
        assert closed == {(0, 1), (1, 0), (2, 2)}

    def test_matches_naive_oracle(self, semilattice, switchable):
        rng = random.Random(7)
        for _ in range(30):
            algebra = rng.choice([semilattice, switchable])
            # the reference fixpoint enumerates |S|**4 argument tuples for the
            # 4-ary operation, so keep its spaces small
            m = rng.randint(1, 3 if algebra is semilattice else 2)
            seed = {
                tuple(rng.randrange(3) for _ in range(m))
                for _ in range(rng.randint(1, 5))
            }
            assert power_closure(algebra, seed) == naive_closure(algebra, seed)

    def test_matches_naive_oracle_quaternary_m3(self, switchable):
        for seed in [
            {(0, 1, 2)},
            {(0, 0, 1), (1, 1, 0)},
            {(0, 1, 1), (2, 0, 1), (1, 1, 0)},
        ]:
            assert power_closure(switchable, seed) == naive_closure(switchable, seed)

    @given(
        small=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1),
        extra=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2))),
    )
    def test_monotone_extensive_idempotent(self, small, extra):
        semilattice = catalog.semilattice_algebra()
        big = small | extra
        c_small = power_closure(semilattice, small)
        c_big = power_closure(semilattice, big)
        assert small <= c_small  # extensive
        assert c_small <= c_big  # monotone
        assert power_closure(semilattice, c_small) == c_small  # idempotent

    def test_empty_seed_rejected(self, semilattice):
        with pytest.raises(ValidationError):
            power_closure(semilattice, [])

    def test_space_budget(self, semilattice):
        # the 81 tuples of the 1-switch seed at m = 14 store 1134 cells
        seed = build_switch_adversary(semilattice.domain, 14, 1).tuples
        with pytest.raises(BudgetError):
            power_closure(semilattice, seed, PowersBudget(max_cells=1000))

    def test_binary_only_closure_never_walks_the_power(self, semilattice):
        # m * 3**m cells exceed the default cap, but a binary-only closure
        # stores only a few hundred tuples and never walks the power
        for m in (12, 14):
            seed = build_switch_adversary(semilattice.domain, m, 1).tuples
            assert m * 3**m > PowersBudget().max_cells
            assert power_closure(semilattice, seed) == naive_closure(semilattice, seed)

    @given(
        seed=st.integers(1, 6).flatmap(
            lambda m: st.sets(st.tuples(*[st.integers(0, 2)] * m), min_size=1, max_size=6)
        )
    )
    def test_semilattice_matches_naive_oracle_up_to_six(self, seed):
        semilattice = catalog.semilattice_algebra()
        assert power_closure(semilattice, seed) == naive_closure(semilattice, seed)

    def test_node_budget_on_quaternary_closure(self, switchable):
        # a single tuple is closed, so every other tuple needs a search
        seed = [(0, 1, 2, 0)]
        assert power_closure(switchable, seed) == {(0, 1, 2, 0)}
        with pytest.raises(BudgetError):
            power_closure(switchable, seed, PowersBudget(max_nodes=2))


def _quaternary_ops():
    r = files.load_algebra(os.path.join(SAMPLES, "switchable.alg")).ops["r"]
    return {
        "r": r,
        "f_a_3": build_f_a_n(3),
        "f_b_3": build_f_b_n(3),
        "f_hat_a_2": build_f_hat_a_n(2),
        "f_hat_b_2": build_f_hat_b_n(2),
    }


@pytest.mark.parametrize("with_s", [False, True])
@pytest.mark.parametrize("name", ["r", "f_a_3", "f_b_3", "f_hat_a_2", "f_hat_b_2"])
def test_exact_closure_matches_naive_oracle(name, with_s):
    op = _quaternary_ops()[name]
    ops = {name: op, "s": semilattice_s()} if with_s else {name: op}
    algebra = Algebra(op.domain, ops)
    rng = random.Random(f"closure-{name}-{with_s}")
    for _ in range(12):
        m = rng.randint(1, 3)
        alphabet = (0, 1) if rng.random() < 0.5 else (0, 1, 2)
        seed = {
            tuple(rng.choice(alphabet) for _ in range(m))
            for _ in range(rng.randint(1, 6))
        }
        assert power_closure(algebra, seed) == naive_closure(algebra, seed)


class TestDerivabilitySearch:
    """The depth-first search against an exhaustive search over members**4."""

    @pytest.mark.parametrize("name", ["r", "f_a_3", "f_b_3", "f_hat_a_2", "f_hat_b_2"])
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_witnesses_replay_and_misses_are_exhaustive(self, name, m):
        op = _quaternary_ops()[name]
        assert op.arity == 4
        size, table = op.domain.size, op.table
        preimages = {v: [] for v in range(size)}
        for idx, args in enumerate(itertools.product(range(size), repeat=4)):
            preimages[table[idx]].append(args)

        def apply_rows(rows):
            image = []
            for j in range(m):
                code = 0
                for row in rows:
                    code = code * size + row[j]
                image.append(table[code])
            return tuple(image)

        rng = random.Random(f"{name}-{m}")
        hits = misses = 0
        for _ in range(3):
            members = set()
            for _ in range(rng.randint(2, 10)):
                alphabet = (0, 1) if rng.random() < 0.6 else (0, 1, 2)
                members.add(tuple(rng.choice(alphabet) for _ in range(m)))
            images = {apply_rows(rows) for rows in itertools.product(members, repeat=4)}
            perms = [tuple(range(m)), tuple(rng.sample(range(m), m))]
            searches = [
                _DeriveSearch(size, m, sorted(members), p, preimages, 4) for p in perms
            ]
            for t in itertools.product(range(size), repeat=m):
                for search in searches:
                    witness = search.derivable(t, [0], 10**9)
                    if witness is None:
                        assert t not in images
                        misses += 1
                    else:
                        assert len(witness) == 4
                        assert all(row in members for row in witness)
                        assert apply_rows(witness) == t
                        hits += 1
        assert hits and misses


# --- generating sets --------------------------------------------------------


class TestMinGeneratingSize:
    def test_semilattice_m1(self, semilattice):
        report = min_generating_size(semilattice, 1)
        assert report.size == 2
        assert report.method == "exact"
        assert report.witness == ((0,), (1,))

    def test_semilattice_m2_against_oracle(self, semilattice):
        expected, _ = oracle_min_gen(semilattice, 2)
        report = min_generating_size(semilattice, 2)
        assert report.method == "exact"
        assert report.size == expected

    def test_projections_on_two_elements(self):
        algebra = two_element_projection_algebra()
        report = min_generating_size(algebra, 2)
        assert report.size == 4  # nothing is generated beyond the seed
        assert naive_closure(algebra, report.witness) == frozenset(
            itertools.product(range(2), repeat=2)
        )

    def test_witness_generates(self, semilattice):
        for m in (1, 2):
            report = min_generating_size(semilattice, m)
            closed = power_closure(semilattice, report.witness)
            assert closed == frozenset(itertools.product(range(3), repeat=m))

    def test_beyond_exact_cap(self, semilattice):
        # 3**3 = 27 points is beyond the exact cap; the absorbing element
        # never produces a 2-free tuple, so the true minimum is 2**3 = 8
        report = min_generating_size(semilattice, 3, search_nodes=20_000)
        assert report.method == "forced"
        assert report.size == 8 == len(set(report.witness))
        full = frozenset(itertools.product(range(3), repeat=3))
        assert naive_closure(semilattice, report.witness) == full
        # each witness tuple is forced: the rest of the power misses it
        for t in report.witness:
            assert t not in naive_closure(semilattice, full - {t})


# --- switchability / collapsibility probes ----------------------------------


class TestProbes:
    def test_extension_two_switchable_up_to_four(self, switchable):
        verdict = is_k_switchable(switchable, 2, 4)
        assert verdict.all_generate()

    def test_switch_adversary_trivial_cases(self, semilattice):
        # every 2-tuple has at most one switch, so the adversary is full
        adv = build_switch_adversary(semilattice.domain, 2, 1)
        assert len(adv.tuples) == 9
        assert is_k_switchable(semilattice, 1, 2).verdicts[2] is True

    def test_k_equals_m_always_generates(self, semilattice):
        adv = build_switch_adversary(semilattice.domain, 3, 3)
        assert len(adv.tuples) == 27

    def test_semilattice_egp_growth_probe(self, semilattice):
        # exponential growth shows as switch adversaries failing to generate
        for k in (1, 2):
            verdict = is_k_switchable(semilattice, k, 6)
            failure = verdict.first_failure()
            assert failure is not None and failure <= 6

    def test_extension_two_switchable_at_six(self, switchable):
        assert is_k_switchable(switchable, 2, 6).all_generate()

    def test_single_source_union_closes_once(self, switchable, monkeypatch):
        calls = []
        real = powers.power_closure

        def counting(algebra, seed, budget=None):
            calls.append(len(seed))
            return real(algebra, seed, budget)

        monkeypatch.setattr(powers, "power_closure", counting)
        verdicts = is_k_collapsible(switchable, 1, 4, sources=[1])
        assert len(calls) == 4  # one closure per length
        assert set(verdicts) == {1, "union"}
        assert verdicts["union"].verdicts == verdicts[1].verdicts

    def test_extension_collapsibility_fails_at_five(self, switchable):
        verdicts = is_k_collapsible(switchable, 1, 5)
        union = verdicts["union"]
        assert union.verdicts[3] is True
        assert union.verdicts[4] is True
        assert union.first_failure() == 5
        for source in (0, 1, 2):
            assert verdicts[source].first_failure() is not None

    def test_slice_surjectivity_grants_collapsibility_from_source(self, d3):
        # an operation whose every source-1 slice is surjective generates
        # each power from the tuples pinned to 1 outside three coordinates
        from qforge.clone import build_f_a_n, is_slice_surjective

        f = build_f_a_n(3)
        assert is_slice_surjective(f, 1)
        algebra = Algebra(d3, {"f": f})
        for m in (4, 5):
            seed = collapse_tuples(d3, m, min(3, m - 1), [1])
            closed = power_closure(algebra, seed)
            assert len(closed) == 3**m


# --- composition ------------------------------------------------------------


class TestComposition:
    def test_rectangular_semilattice_example(self, d3, semilattice):
        s = semilattice_s(d3)
        target = Adversary.rect([{2}, {2}])
        parts = [Adversary.rect([{0}, {0}]), Adversary.rect([{1}, {1}])]
        assert rect_compose_check(target, s, parts)

    def test_rectangular_failure(self, d3):
        s = semilattice_s(d3)
        target = Adversary.rect([{0, 1}, {2}])
        parts = [Adversary.rect([{0}, {0}]), Adversary.rect([{1}, {1}])]
        assert not rect_compose_check(target, s, parts)

    def test_identity_reactive_composition(self, d3):
        identity = op_from_function(d3, 1, lambda x: x)
        rng = random.Random(11)
        pool = list(itertools.product(range(3), repeat=3))
        for _ in range(10):
            adv = Adversary.from_tuples(rng.sample(pool, rng.randint(1, 6)))
            assert reactive_compose_check(adv, identity, [adv])

    def test_reactive_matches_rectangular_on_rectangles(self, d3):
        s = semilattice_s(d3)
        rng = random.Random(13)
        subsets = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(range(3), r)]
        for _ in range(25):
            m = rng.randint(1, 3)
            target = Adversary.rect([rng.choice(subsets) for _ in range(m)])
            parts = [Adversary.rect([rng.choice(subsets) for _ in range(m)]) for _ in range(2)]
            rect = rect_compose_check(target, s, parts)
            reactive = reactive_compose_check(target, s, parts)
            # ordinary composition is a special case of the reactive search
            if rect:
                assert reactive

    def test_reactive_budget(self, d3):
        identity = op_from_function(d3, 1, lambda x: x)
        adv = Adversary.rect([{0}] * 4)
        with pytest.raises(BudgetError):
            reactive_compose_check(adv, identity, [adv])


class TestTransfer:
    def _structure(self, d3, ab):
        return Structure(d3, {"rho": build_rho(d3, ab)})

    def _sentence(self, m):
        prefix = [(qcsp.FORALL, f"u{i}") for i in range(m)] + [(qcsp.EXISTS, "y")]
        atoms = [qcsp.RelAtom("rho", (f"u{i}", "y")) for i in range(m)]
        return qcsp.sentence(prefix, atoms)

    def test_full_adversary_trivial(self, d3, ab):
        struct = self._structure(d3, ab)
        full = Adversary.full(d3, 2)
        identity = op_from_function(d3, 1, lambda x: x)
        assert adversary_game_transfer_test(struct, self._sentence(2), full, [full], identity)

    def test_semilattice_composition_transfer(self, d3, ab, semilattice):
        struct = self._structure(d3, ab)
        s = semilattice_s(d3)
        target = Adversary.rect([{2}, {2}])
        parts = [Adversary.rect([{0}, {0}]), Adversary.rect([{1}, {1}])]
        assert adversary_game_transfer_test(struct, self._sentence(2), target, parts, s)

    def test_randomized_trials(self, d3, ab, semilattice):
        struct = self._structure(d3, ab)
        s = semilattice_s(d3)
        rng = random.Random(17)
        subsets = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(range(3), r)]
        checked = 0
        for _ in range(200):
            m = rng.randint(1, 3)
            parts = [Adversary.rect([rng.choice(subsets) for _ in range(m)]) for _ in range(2)]
            images = [
                frozenset(s(a, b) for a in parts[0].rectangular[i] for b in parts[1].rectangular[i])
                for i in range(m)
            ]
            target = Adversary.rect(
                [frozenset(rng.sample(sorted(img), rng.randint(1, len(img)))) for img in images]
            )
            assert rect_compose_check(target, s, parts)
            assert adversary_game_transfer_test(struct, self._sentence(m), target, parts, s)
            checked += 1
        assert checked >= 50
