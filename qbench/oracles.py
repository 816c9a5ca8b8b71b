"""Independent answers for the benchmark's questions.

Nothing here imports qforge.  Every routine is a plain brute-force or
fixpoint computation written from the definitions, so a wrong answer from
qforge cannot be mirrored by a shared helper.

Algebras are lists of ``(arity, table)`` pairs over the domain {0, 1, 2};
a table is row-major: the value on ``args`` sits at index
``sum(args[j] * 3**(arity-1-j))``.
"""

from __future__ import annotations

import itertools

N = 3  # every algebra and structure of the benchmark lives on {0, 1, 2}
ELEMENTS = range(N)


def row_index(args) -> int:
    code = 0
    for a in args:
        code = code * N + a
    return code


def apply(table, args) -> int:
    return table[row_index(args)]


# ---------------------------------------------------------------------------
# subpowers


def switch_tuples(m: int, k: int) -> list:
    """All m-tuples that change value at most k times."""
    return [
        t
        for t in itertools.product(ELEMENTS, repeat=m)
        if sum(1 for i in range(1, m) if t[i] != t[i - 1]) <= k
    ]


def collapse_tuples(m: int, k: int, sources) -> set:
    """All m-tuples with every coordinate outside some min(k, m)-set equal to
    one of the sources."""
    free_count = min(k, m)
    out = set()
    for x in sources:
        for free in itertools.combinations(range(m), free_count):
            factors = [ELEMENTS if i in free else (x,) for i in range(m)]
            out.update(itertools.product(*factors))
    return out


def naive_closure(ops, seed) -> frozenset:
    """Least superset of seed closed under every operation applied
    coordinatewise.  Semi-naive rounds: each round applies the operations only
    to argument lists holding at least one tuple added by the round before.
    Stops early once the whole power is reached."""
    closed = {tuple(t) for t in seed}
    m = len(next(iter(closed)))
    full = N**m
    lookups = [
        (arity, dict(zip(itertools.product(ELEMENTS, repeat=arity), table)))
        for arity, table in ops
    ]
    new = set(closed)
    while new and len(closed) < full:
        old = [t for t in closed if t not in new]
        everything = list(closed)
        fresh = set()
        for arity, lookup in lookups:
            for pos in range(arity):
                pools = [old] * pos + [list(new)] + [everything] * (arity - pos - 1)
                for combo in itertools.product(*pools):
                    image = tuple(map(lookup.__getitem__, zip(*combo)))
                    if image not in closed and image not in fresh:
                        fresh.add(image)
                        if len(closed) + len(fresh) == full:
                            return frozenset(closed | fresh)
        closed |= fresh
        new = fresh
    return frozenset(closed)


def generates(ops, seed) -> bool:
    seed = list(seed)
    return len(naive_closure(ops, seed)) == N ** len(seed[0])


def min_generating_size(ops, m: int) -> int:
    """Smallest number of m-tuples whose closure is the whole m-th power."""
    pool = list(itertools.product(ELEMENTS, repeat=m))
    for size in range(1, len(pool) + 1):
        if any(generates(ops, subset) for subset in itertools.combinations(pool, size)):
            return size
    raise AssertionError("the full power generates itself")


# ---------------------------------------------------------------------------
# projectivity, subalgebras, congruences, permutational factors


def covering_pairs():
    subsets = [
        frozenset(x for x in ELEMENTS if mask >> x & 1) for mask in range(1, 2**N - 1)
    ]
    full = frozenset(ELEMENTS)
    for i, a in enumerate(subsets):
        for b in subsets[i + 1 :]:
            if a | b == full:
                yield a, b


def projective(arity, table, alpha, beta) -> bool:
    """Some coordinate i with: x_i in alpha forces the value into alpha, and
    x_i in beta forces it into beta."""
    rows = list(itertools.product(ELEMENTS, repeat=arity))
    for i in range(arity):
        if all(
            (args[i] not in alpha or table[row_index(args)] in alpha)
            and (args[i] not in beta or table[row_index(args)] in beta)
            for args in rows
        ):
            return True
    return False


def projective_pairs(ops) -> list:
    return [
        (a, b) for a, b in covering_pairs() if all(projective(r, t, a, b) for r, t in ops)
    ]


def _closed(ops, subset) -> bool:
    return all(
        apply(table, args) in subset
        for arity, table in ops
        for args in itertools.product(sorted(subset), repeat=arity)
    )


def _partitions(elements):
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in _partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _respects(ops, subset, blocks) -> bool:
    """The partition of `subset` is compatible with every operation restricted
    to the subset: related argument lists give related values."""
    block = {x: i for i, b in enumerate(blocks) for x in b}
    for arity, table in ops:
        for args in itertools.product(sorted(subset), repeat=arity):
            for other in itertools.product(*[sorted(blocks[block[a]]) for a in args]):
                if block[apply(table, other)] != block[apply(table, args)]:
                    return False
    return True


def _quotient_is_gset(ops, subset, blocks) -> bool:
    """More than one block, and each operation acts on the blocks as a
    permutation of one coordinate."""
    if len(blocks) < 2:
        return False
    block = {x: i for i, b in enumerate(blocks) for x in b}
    reps = [min(b) for b in blocks]
    for arity, table in ops:
        if arity == 0:
            return False
        acts = False
        for i in range(arity):
            mapping = {}
            ok = True
            for args in itertools.product(range(len(blocks)), repeat=arity):
                value = block[apply(table, [reps[a] for a in args])]
                if mapping.setdefault(args[i], value) != value:
                    ok = False
                    break
            if ok and sorted(mapping.values()) == list(range(len(blocks))):
                acts = True
                break
        if not acts:
            return False
    return True


def gset_factors(ops) -> list:
    """Every (subalgebra, partition of it) whose quotient is permutational;
    the partition is given on the subalgebra's own elements."""
    out = []
    for r in range(1, N + 1):
        for subset in itertools.combinations(ELEMENTS, r):
            sub = frozenset(subset)
            if not _closed(ops, sub):
                continue
            for blocks in _partitions(subset):
                blocks = [sorted(b) for b in blocks]
                if _respects(ops, sub, blocks) and _quotient_is_gset(ops, sub, blocks):
                    out.append((sorted(sub), sorted(blocks)))
    return out


# ---------------------------------------------------------------------------
# terms and clones


def parse_term(text: str):
    """`x3` -> ("var", 3); `f(t1,...,tr)` -> ("app", "f", [subterms])."""
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "x":
            end = pos + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            index = int(text[pos + 1 : end])
            pos = end
            return ("var", index)
        start = pos
        while text[pos] != "(":
            pos += 1
        name = text[start:pos]
        pos += 1
        args = [node()]
        while text[pos] == ",":
            pos += 1
            args.append(node())
        if text[pos] != ")":
            raise ValueError(f"bad term {text!r}")
        pos += 1
        return ("app", name, args)

    tree = node()
    if pos != len(text):
        raise ValueError(f"trailing text in term {text!r}")
    return tree


def term_table(named_ops: dict, text: str, arity: int) -> tuple:
    tree = parse_term(text)

    def value(t, args):
        if t[0] == "var":
            return args[t[1]]
        _, table = named_ops[t[1]]
        return apply(table, [value(a, args) for a in t[2]])

    return tuple(value(tree, args) for args in itertools.product(ELEMENTS, repeat=arity))


def is_closed_table_set(ops, tables, arity) -> bool:
    """The set contains the projections and is closed under composition with
    every operation, i.e. it is the whole clone at this arity."""
    tables = set(tables)
    rows = list(itertools.product(ELEMENTS, repeat=arity))
    for i in range(arity):
        if tuple(r[i] for r in rows) not in tables:
            return False
    listed = list(tables)
    for op_arity, table in ops:
        for combo in itertools.product(listed, repeat=op_arity):
            image = tuple(
                table[row_index(col)] for col in zip(*combo)
            )
            if image not in tables:
                return False
    return True


def clone_levels(ops, arity: int, depth: int, cap: int = 20_000) -> set:
    """Tables of every term of depth <= `depth` at this arity."""
    rows = list(itertools.product(ELEMENTS, repeat=arity))
    known = {tuple(r[i] for r in rows) for i in range(arity)}
    for _ in range(depth):
        current = list(known)
        added = set()
        for op_arity, table in ops:
            for combo in itertools.product(current, repeat=op_arity):
                image = tuple(table[row_index(col)] for col in zip(*combo))
                if image not in known:
                    added.add(image)
        if not added:
            break
        known |= added
        if len(known) > cap:
            raise ValueError("clone level enumeration over its cap")
    return known


#: the pinned binary/ternary row conditions of the two witness regimes
PINNED_ROWS = {
    1: (
        [((0, 1), 0), ((0, 2), 2)],
        [((0, 0, 1), 0), ((0, 1, 0), 0), ((0, 1, 1), 2)],
    ),
    2: (
        [((0, 1), 1), ((2, 1), 2)],
        [((1, 0, 1), 1), ((1, 1, 0), 1), ((1, 0, 0), 2)],
    ),
}


def meets_rows(table, rows) -> bool:
    return all(apply(table, args) == value for args, value in rows)


def regimes_within_depth(ops, depth: int) -> list:
    """Regimes for which both the binary and the ternary condition are met by
    some term of depth <= `depth`."""
    binary = clone_levels(ops, 2, depth)
    ternary = clone_levels(ops, 3, depth)
    out = []
    for regime, (p_rows, r3_rows) in PINNED_ROWS.items():
        if any(meets_rows(t, p_rows) for t in binary) and any(
            meets_rows(t, r3_rows) for t in ternary
        ):
            out.append(regime)
    return out


# ---------------------------------------------------------------------------
# quantified sentences


def in_tau(block_count: int, t) -> bool:
    """The k-block triple gadget for alpha = {0, 2}, beta = {1, 2}: some
    consecutive triple lies wholly in alpha or wholly in beta."""
    for i in range(block_count):
        block = t[3 * i : 3 * i + 3]
        if all(v in (0, 2) for v in block) or all(v in (1, 2) for v in block):
            return True
    return False


def evaluate(prefix, atoms, member) -> bool:
    """Truth of a prenex sentence by quantifier recursion over {0, 1, 2}.

    prefix: [(\"forall\"|\"exists\", var)]; atoms: (\"rel\", name, args) or
    (\"eq\", left, right), terms being variable names or ints;
    member(name, values) decides a relation atom.  Each atom is checked as
    soon as all its variables are bound.
    """
    order = {v: i for i, (_, v) in enumerate(prefix)}

    def terms(atom):
        return atom[2] if atom[0] == "rel" else (atom[1], atom[2])

    ready = [[] for _ in range(len(prefix) + 1)]
    for atom in atoms:
        last = max((order[a] + 1 for a in terms(atom) if isinstance(a, str)), default=0)
        ready[last].append(atom)
    env = {}

    def holds(atom) -> bool:
        values = [env[a] if isinstance(a, str) else a for a in terms(atom)]
        if atom[0] == "rel":
            return member(atom[1], tuple(values))
        return values[0] == values[1]

    if not all(holds(a) for a in ready[0]):
        return False

    def rec(pos: int) -> bool:
        if pos == len(prefix):
            return True
        q, v = prefix[pos]
        for value in ELEMENTS:
            env[v] = value
            ok = all(holds(a) for a in ready[pos + 1]) and rec(pos + 1)
            if q == "exists" and ok:
                return True
            if q == "forall" and not ok:
                return False
        return q == "forall"

    return rec(0)


def nae_satisfiable(variables, clauses) -> bool:
    """Some 0/1 assignment leaves no clause constant."""
    for values in itertools.product((0, 1), repeat=len(variables)):
        env = dict(zip(variables, values))
        if all(len({env[a], env[b], env[c]}) == 2 for a, b, c in clauses):
            return True
    return False


def preserves(arity, table, tuples) -> bool:
    """The operation maps every arity-long list of member tuples, applied
    coordinatewise, back into the relation."""
    members = set(tuples)
    listed = sorted(members)
    for combo in itertools.product(listed, repeat=arity):
        if tuple(table[row_index(col)] for col in zip(*combo)) not in members:
            return False
    return True
