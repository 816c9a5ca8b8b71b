"""Coordinatewise closure of tuple sets, minimal generating sets, and the
switching/collapsing adversary probes.

The closure engine alternates two exact steps until neither adds a tuple.
Operations of arity <= 2 are swept forward semi-naively: members already
closed under them are never combined again, and each new pair is combined
once, when the later of its two members leaves the worklist.  Then one
search round gives each missing tuple, for each higher-arity operation, a
*derivability search*: pick, for every coordinate j, a preimage column of
the target value t_j, such that the rows assembled from those columns are
all members of the current set.  Coordinates are processed
smallest-preimage-first (closure commutes with coordinate permutation).  The
search runs depth-first over a trie of the members whose nodes are merged by
suffix set, remembers the (depth, nodes) states it has seen fail, and stops
at the first witness, so a round that certifies "nothing new is derivable"
is exact without enumerating |S|**arity argument combinations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, ValidationError
from .model import Algebra, Domain, OpTable, Structure


@dataclass
class PowersBudget:
    """Caps for closure work: cells stored or walked, and derivability tests."""

    # m * |S| while sweeping; m * size**m before a search round walks the power
    max_cells: int = 4_000_000
    max_nodes: int = 80_000_000  # (alive entry, column) tests per closure call


# ---------------------------------------------------------------------------
# adversaries


@dataclass(frozen=True)
class Adversary:
    """A nonempty set of m-tuples restricting the universal player.

    ``rectangular`` carries the factor sets when the adversary is a product
    B_1 x ... x B_m; the tuple set then equals that product.
    """

    length: int
    tuples: frozenset
    rectangular: Optional[tuple[frozenset, ...]] = None

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError("adversary length must be >= 1")
        if not self.tuples:
            raise ValidationError("adversary must be nonempty")
        for t in self.tuples:
            if len(t) != self.length:
                raise ValidationError(f"tuple {t} does not have length {self.length}")
        if self.rectangular is not None:
            if len(self.rectangular) != self.length:
                raise ValidationError("rectangular factors must match the length")
            product = frozenset(itertools.product(*self.rectangular))
            if product != self.tuples:
                raise ValidationError("tuple set is not the product of the factors")

    @classmethod
    def from_tuples(cls, tuples: Iterable) -> "Adversary":
        ts = frozenset(tuple(t) for t in tuples)
        if not ts:
            raise ValidationError("adversary must be nonempty")
        return cls(len(next(iter(ts))), ts)

    @classmethod
    def rect(cls, factors: Sequence[Iterable[int]]) -> "Adversary":
        sets = tuple(frozenset(f) for f in factors)
        return cls(len(sets), frozenset(itertools.product(*sets)), sets)

    @classmethod
    def full(cls, domain: Domain, m: int) -> "Adversary":
        return cls.rect([domain.elements()] * m)


def switch_count(t: Sequence[int]) -> int:
    """Number of indices where the tuple changes value."""
    return sum(1 for i in range(1, len(t)) if t[i] != t[i - 1])


def build_switch_adversary(domain: Domain, m: int, k: int) -> Adversary:
    """All m-tuples with at most k switches."""
    if not 0 <= k:
        raise ValidationError("switch bound must be >= 0")
    # built run by run: choose the switch positions, then a value per run
    # that differs from the previous run's, instead of filtering size**m tuples
    tuples = []
    for s in range(min(k, m - 1) + 1):
        run_values = [
            vs
            for vs in itertools.product(domain.elements(), repeat=s + 1)
            if all(vs[i] != vs[i + 1] for i in range(s))
        ]
        for cuts in itertools.combinations(range(1, m), s):
            bounds = (0,) + cuts + (m,)
            lengths = [bounds[i + 1] - bounds[i] for i in range(s + 1)]
            for vs in run_values:
                t: tuple = ()
                for v, n in zip(vs, lengths):
                    t += (v,) * n
                tuples.append(t)
    return Adversary(m, frozenset(tuples))


def build_collapse_adversaries(
    domain: Domain, m: int, p: int, sources: Iterable[int]
) -> list[Adversary]:
    """Rectangular adversaries with exactly p free coordinates and the rest
    pinned to a source value, for every source and every position choice."""
    if not 0 <= p <= m:
        raise ValidationError("free-coordinate count must be within 0..m")
    sources = sorted(set(sources))
    if not sources:
        raise ValidationError("sources must be nonempty")
    full = frozenset(domain.elements())
    out = []
    for x in sources:
        domain.check_element(x)
        for free in itertools.combinations(range(m), p):
            factors = [full if i in free else frozenset((x,)) for i in range(m)]
            out.append(Adversary.rect(factors))
    return out


def collapse_tuples(domain: Domain, m: int, p: int, sources: Iterable[int]) -> frozenset:
    """Union of the tuple sets of build_collapse_adversaries."""
    out = set()
    for adv in build_collapse_adversaries(domain, m, p, sources):
        out |= adv.tuples
    return frozenset(out)


# ---------------------------------------------------------------------------
# closure under coordinatewise application of the basic operations


class _DeriveSearch:
    """Per-(closure round, op, coordinate permutation) search machinery.

    The member rows, read in ``perm`` order, form a trie.  Two trie nodes at
    the same depth with the same set of suffixes behave identically in any
    search, so each node is replaced by the id of its suffix class:
    ``kids[j][c][d]`` is the class reached from class ``c`` at depth ``j``
    by digit ``d``, or -1 when no member continues that way.
    """

    def __init__(
        self, size: int, m: int, members: list, perm: tuple[int, ...], preimages: dict, k: int
    ):
        self.m = m
        self.perm = perm
        self.preimages = preimages
        self.k = k
        # every member as one code: its digits in perm order, base size
        codes = [0] * len(members)
        for pj in perm:
            codes = [code * size + u[pj] for code, u in zip(codes, members)]
        # suffix classes, bottom-up: every full row has class 0
        kids: list = [None] * m
        cls_of = dict.fromkeys(codes, 0)
        for j in range(m - 1, -1, -1):
            sigs: dict = {}
            for code, c in cls_of.items():
                parent, d = divmod(code, size)
                sig = sigs.get(parent)
                if sig is None:
                    sig = sigs[parent] = [-1] * size
                sig[d] = c
            ids: dict = {}
            cls_of = {}
            for parent, sig in sigs.items():
                cls_of[parent] = ids.setdefault(tuple(sig), len(ids))
            kids[j] = list(ids)  # insertion order = class id order
        self.kids = kids
        # (depth, classes, target value) -> [(column, next classes)], shared
        # by every target searched in this round
        self.moves: dict = {}

    def derivable(self, t, counter: list, max_nodes: int) -> Optional[list]:
        """The k argument rows of one witness that the op maps onto ``t``,
        in coordinate order, or None when no members combine into ``t``.

        Depth-first over coordinates in perm order; each (depth, classes)
        state found to be a dead end is remembered for the rest of the call.
        """
        m, perm, kids, moves = self.m, self.perm, self.kids, self.moves
        values = [t[perm[j]] for j in range(m)]
        dead: set = set()
        path: list = []

        def extend(j: int, state: tuple) -> bool:
            if j == m:
                return True
            if (j, state) in dead:
                return False
            cols = self.preimages[values[j]]
            counter[0] += len(cols)
            if counter[0] > max_nodes:
                raise BudgetError("closure derivability search exceeded its node budget")
            key = (j, state, values[j])
            options = moves.get(key)
            if options is None:
                rows = [kids[j][c] for c in state]
                options = []
                for col in cols:
                    nxt = tuple([row[d] for row, d in zip(rows, col)])
                    if -1 not in nxt:
                        options.append((col, nxt))
                moves[key] = options
            for col, nxt in options:
                path.append(col)
                if extend(j + 1, nxt):
                    return True
                path.pop()
            dead.add((j, state))
            return False

        if not extend(0, (0,) * self.k):
            return None
        witness = [[0] * m for _ in range(self.k)]
        for j, col in enumerate(path):
            for i, d in enumerate(col):
                witness[i][perm[j]] = d
        return [tuple(row) for row in witness]


def power_closure(
    algebra: Algebra,
    seed: Iterable,
    budget: Optional[PowersBudget] = None,
) -> frozenset:
    """Least superset of seed closed under every basic operation applied
    coordinatewise (equivalently, under all term operations).

    Alternates the forward sweep of the operations of arity <= 2 with one
    exact search round over every missing m-tuple for the higher-arity ones,
    until a round adds nothing.  ``budget.max_cells`` bounds the cells the
    closure stores (m * |S|, checked by the sweep) and, before each search
    round, the cells that round walks (m * size**m); a binary-only algebra
    never walks the power.
    """
    budget = budget or PowersBudget()
    seed = [tuple(t) for t in seed]
    if not seed:
        raise ValidationError("seed must be nonempty")
    m = len(seed[0])
    size = algebra.domain.size
    for t in seed:
        if len(t) != m:
            raise ValidationError("seed tuples must share one length")
        for v in t:
            algebra.domain.check_element(v)
    full_count = size**m
    S = set(seed)
    small = [op for op in algebra.ops.values() if op.arity <= 2]
    big = [op for op in algebra.ops.values() if op.arity > 2]
    # constants from 0-ary ops enter once
    for op in small:
        if op.arity == 0:
            S.add((op.table[0],) * m)
    # seeds were range-checked above and table values when each OpTable was
    # built, so the sweep indexes the tables directly
    unary = [op.table for op in small if op.arity == 1]
    # binary[i] = (rows, cols): rows[a][b] = op(a, b) and cols[a][b] = op(b, a);
    # cols is None for a commutative op, whose two orders agree
    binary = []
    for op in small:
        if op.arity == 2:
            rows = [op.table[a * size : (a + 1) * size] for a in range(size)]
            cols = [op.table[a::size] for a in range(size)]
            binary.append((rows, None if rows == cols else cols))

    def forward_sweep(frontier: set) -> None:
        """Close S under the small operations, given that every member
        outside ``frontier`` is already closed under them.  Each pair is
        combined once, when the later of its two members is popped."""
        done = [u for u in S if u not in frontier]
        work = list(frontier)
        while work:
            if m * len(S) > budget.max_cells:
                raise BudgetError(f"closure stores m*|S| = {m * len(S)} cells, over budget")
            u = work.pop()
            done.append(u)
            new = [tuple([table[a] for a in u]) for table in unary]
            for rows, cols in binary:
                urows = [rows[a] for a in u]
                new += [tuple(map(getitem, urows, v)) for v in done]
                if cols is not None:
                    ucols = [cols[a] for a in u]
                    new += [tuple(map(getitem, ucols, v)) for v in done]
            for w in new:
                if w not in S:
                    S.add(w)
                    work.append(w)
            if len(S) == full_count:
                return

    preimages_by_op = []
    for op in big:
        pre = {v: [] for v in range(size)}
        for args, v in op.rows():
            pre[v].append(args)
        preimages_by_op.append(pre)

    counter = [0]
    frontier = set(S)
    while True:
        forward_sweep(frontier)
        if len(S) == full_count or not big:
            return frozenset(S)
        if m * full_count > budget.max_cells:
            raise BudgetError(f"search round walks m*size**m = {m * full_count} cells, over budget")
        members = sorted(S)
        searches: dict[tuple, _DeriveSearch] = {}
        added = set()
        for t in itertools.product(range(size), repeat=m):
            if t in S:
                continue
            for i, (op, pre) in enumerate(zip(big, preimages_by_op)):
                # smallest preimages first; stable, so permutations dedupe well
                perm = tuple(sorted(range(m), key=lambda j: len(pre[t[j]])))
                search = searches.get((i, perm))
                if search is None:
                    search = _DeriveSearch(size, m, members, perm, pre, op.arity)
                    searches[i, perm] = search
                if search.derivable(t, counter, budget.max_nodes) is not None:
                    added.add(t)
                    break
        if not added:
            return frozenset(S)
        S |= added
        frontier = added
        if len(S) == full_count:
            return frozenset(S)


# ---------------------------------------------------------------------------
# minimal generating sets


@dataclass
class GenReport:
    """Size of a minimal generating set of the m-th power, with witness.

    ``method`` records how the number was obtained: "exact" (full subset
    search), "forced" (the greedy bound equals the number of forced tuples,
    those the rest of the power does not generate, which every generating
    set must contain), "branch-and-bound" (completed bounded search), or
    "greedy-upper" (upper bound only, search budget hit).
    """

    m: int
    size: int
    witness: tuple
    method: str
    budget_hit: bool = False


EXACT_SPACE_CAP = 12  # full smallest-first subset search up to this many points


def min_generating_size(
    algebra: Algebra,
    m: int,
    budget: Optional[PowersBudget] = None,
    search_nodes: int = 200_000,
) -> GenReport:
    """Cardinality of a minimal generating set of the m-th power.

    Exact (smallest-first over all subsets) when size**m <= 12; otherwise a
    greedy upper bound, decided at once when the forced tuples lower bound
    meets it, or else refined by branch-and-bound under a node budget.
    """
    size = algebra.domain.size
    space = size**m
    if space > 2**20:
        raise BudgetError(f"size**m = {space} too large")
    all_tuples = sorted(itertools.product(range(size), repeat=m))
    full = frozenset(all_tuples)

    def generates(subset) -> bool:
        return power_closure(algebra, subset, budget) == full

    if space <= EXACT_SPACE_CAP:
        for s in range(1, space + 1):
            for subset in itertools.combinations(all_tuples, s):
                if generates(subset):
                    return GenReport(m, s, subset, "exact")
        raise ValidationError("unreachable: the full space generates itself")

    # greedy upper bound
    chosen: list = []
    closed: frozenset = frozenset()
    while closed != full:
        best, best_gain = None, -1
        for t in all_tuples:
            if t in closed:
                continue
            gain = len(power_closure(algebra, list(chosen) + [t], budget))
            if gain > best_gain:
                best, best_gain = t, gain
        chosen.append(best)
        closed = power_closure(algebra, chosen, budget)
    upper = len(chosen)

    # t is forced when the rest of the power does not generate it; every
    # generating set contains all forced tuples, so they bound the size below
    forced = [t for t in all_tuples if t not in power_closure(algebra, full - {t}, budget)]
    if len(forced) == upper:
        return GenReport(m, upper, tuple(forced), "forced")

    # branch and bound between the two bounds
    nodes = [0]

    def dfs(prefix: list, start: int, slots: int) -> Optional[tuple]:
        nodes[0] += 1
        if nodes[0] > search_nodes:
            raise BudgetError("generating-set search budget")
        if slots == 0:
            return tuple(prefix) if generates(prefix) else None
        for idx in range(start, len(all_tuples) - slots + 1):
            prefix.append(all_tuples[idx])
            found = dfs(prefix, idx + 1, slots - 1)
            prefix.pop()
            if found is not None:
                return found
        return None

    try:
        for s in range(max(1, len(forced)), upper):
            witness = dfs([], 0, s)
            if witness is not None:
                return GenReport(m, s, witness, "branch-and-bound")
        return GenReport(m, upper, tuple(chosen), "branch-and-bound")
    except BudgetError:
        return GenReport(m, upper, tuple(chosen), "greedy-upper", budget_hit=True)


# ---------------------------------------------------------------------------
# bounded switchability / collapsibility probes


@dataclass
class PerLengthVerdict:
    """Per-m outcome of a generation probe: True (generates), False, or the
    string "budget" when the closure ran out of budget."""

    k: int
    verdicts: dict
    kind: str = "switch"

    def all_generate(self) -> bool:
        return all(v is True for v in self.verdicts.values())

    def first_failure(self) -> Optional[int]:
        for m in sorted(self.verdicts):
            if self.verdicts[m] is False:
                return m
        return None

    def inconclusive(self) -> bool:
        return any(v == "budget" for v in self.verdicts.values())


def is_k_switchable(
    algebra: Algebra, k: int, m_max: int, budget: Optional[PowersBudget] = None
) -> PerLengthVerdict:
    """For each m <= m_max: does the at-most-k-switches adversary generate the
    full m-th power?"""
    verdicts = {}
    size = algebra.domain.size
    for m in range(1, m_max + 1):
        adv = build_switch_adversary(algebra.domain, m, k)
        try:
            closed = power_closure(algebra, adv.tuples, budget)
            verdicts[m] = len(closed) == size**m
        except BudgetError:
            verdicts[m] = "budget"
    return PerLengthVerdict(k, verdicts, "switch")


def is_k_collapsible(
    algebra: Algebra,
    k: int,
    m_max: int,
    sources: Optional[Iterable[int]] = None,
    budget: Optional[PowersBudget] = None,
) -> dict:
    """Per source x (and for the union over sources): for each m <= m_max,
    does the all-but-k-coordinates-pinned-to-x tuple set generate?

    Returns {source or "union": PerLengthVerdict}.
    """
    size = algebra.domain.size
    sources = sorted(set(sources)) if sources is not None else list(algebra.domain.elements())
    out = {}
    labelled = [(x, [x]) for x in sources]
    if len(sources) > 1:
        labelled.append(("union", sources))
    for label, srcs in labelled:
        verdicts = {}
        for m in range(1, m_max + 1):
            seed = collapse_tuples(algebra.domain, m, min(k, m), srcs)
            try:
                closed = power_closure(algebra, seed, budget)
                verdicts[m] = len(closed) == size**m
            except BudgetError:
                verdicts[m] = "budget"
        out[label] = PerLengthVerdict(k, verdicts, "collapse")
    if len(sources) == 1:
        # the union over one source is that source's seed
        out["union"] = out[sources[0]]
    return out


# ---------------------------------------------------------------------------
# reactive and rectangular composition


def rect_compose_check(target: Adversary, f: OpTable, parts: Sequence[Adversary]) -> bool:
    """Ordinary composition for rectangular adversaries: at every coordinate,
    f applied to the part factors must cover the target factor."""
    if target.rectangular is None or any(p.rectangular is None for p in parts):
        raise ValidationError("rectangular composition needs rectangular adversaries")
    if len(parts) != f.arity:
        raise ValidationError(f"need {f.arity} parts for a {f.arity}-ary operation")
    if any(p.length != target.length for p in parts):
        raise ValidationError("adversary lengths differ")
    for i in range(target.length):
        image = {
            f.apply(combo)
            for combo in itertools.product(*(p.rectangular[i] for p in parts))
        }
        if not target.rectangular[i] <= image:
            return False
    return True


REACTIVE_MAX_LENGTH = 3
REACTIVE_MAX_DOMAIN = 3


def reactive_compose_check(
    target: Adversary, f: OpTable, parts: Sequence[Adversary]
) -> bool:
    """Exact existence check for the prefix-respecting partial-function family
    carrying every target tuple into the parts through f.

    The search is exponential, hence the hard length/domain budget.
    """
    if len(parts) != f.arity:
        raise ValidationError(f"need {f.arity} parts for a {f.arity}-ary operation")
    if any(p.length != target.length for p in parts):
        raise ValidationError("adversary lengths differ")
    m, k = target.length, f.arity
    size = f.domain.size
    if m > REACTIVE_MAX_LENGTH or size > REACTIVE_MAX_DOMAIN:
        raise BudgetError(
            f"reactive search limited to length <= {REACTIVE_MAX_LENGTH} on domains "
            f"<= {REACTIVE_MAX_DOMAIN}"
        )

    part_prefixes = []
    for p in parts:
        prefixes = [set() for _ in range(m + 1)]
        for t in p.tuples:
            for j in range(m + 1):
                prefixes[j].add(t[:j])
        part_prefixes.append(prefixes)

    # children of each target prefix
    children: dict = {}
    for t in target.tuples:
        for j in range(m):
            children.setdefault(t[:j], set()).add(t[j])

    by_value = {v: [] for v in range(size)}
    for args, v in f.rows():
        by_value[v].append(args)

    memo: dict = {}

    def node_ok(prefix: tuple, carried: tuple) -> bool:
        # carried[j] = the per-part prefix accumulated along `prefix`
        key = (prefix, carried)
        if key in memo:
            return memo[key]
        if len(prefix) == m:
            out = all(carried[j] in part_prefixes[j][m] for j in range(k))
            memo[key] = out
            return out
        out = True
        for d in sorted(children.get(prefix, ())):
            ok_choice = False
            for vec in by_value[d]:
                new_carried = tuple(carried[j] + (vec[j],) for j in range(k))
                if all(
                    new_carried[j] in part_prefixes[j][len(prefix) + 1] for j in range(k)
                ):
                    if node_ok(prefix + (d,), new_carried):
                        ok_choice = True
                        break
            if not ok_choice:
                out = False
                break
        memo[key] = out
        return out

    return node_ok((), tuple(() for _ in range(k)))


def adversary_game_transfer_test(
    struct: Structure,
    sentence,
    target: Adversary,
    parts: Sequence[Adversary],
    f: OpTable,
) -> bool:
    """Empirical check of strategy transfer: if the sentence holds against
    every part and the target composes from the parts through f, the sentence
    must hold against the target.  Returns whether that implication held
    (False exposes a bug, never a legitimate outcome)."""
    from . import qcsp  # local import; qcsp depends on this module

    rectangular = target.rectangular is not None and all(
        p.rectangular is not None for p in parts
    )
    if rectangular:
        composes = rect_compose_check(target, f, parts)
    else:
        composes = reactive_compose_check(target, f, parts)
    if not composes:
        return True
    if not all(qcsp.qcsp_eval(struct, sentence, adversary=p) for p in parts):
        return True
    return qcsp.qcsp_eval(struct, sentence, adversary=target)
