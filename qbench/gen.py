"""Seeded inputs and oracle answers for one benchmark workload.

    python3 qbench/gen.py --workload probe --seed 1 --out .qbench_work/probe-s1

writes the workload's ``.alg``, ``.struct``, ``.sentence`` and ``.nae`` files
into the output directory, together with ``questions.json``: every question
as a qforge argv, the answer the oracles in ``oracles.py`` give for it, and
the list of input files.  Nothing here imports qforge; the same seed always
gives the same files and answers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

SAMPLES = "samples"
#: marks a question asked once per round instead of once per pass
HEAVY = {"asks": 1}
ALPHA, BETA = (0, 2), (1, 2)


# ---------------------------------------------------------------------------
# file formats, written and read without qforge


def read_algebra(path: str) -> dict:
    """{op name: (arity, table)} from an algebra file on domain 3."""
    ops, current = {}, None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "domain":
                if parts[1] != str(oracles.N):
                    raise ValueError(f"{path}: the benchmark expects domain {oracles.N}")
            elif parts[0] == "op":
                current = parts[1]
                ops[current] = (int(parts[2]), [])
            else:
                values = parts[1:] if parts[0] == "table:" else parts
                ops[current][1].extend(int(v) for v in values)
    return {name: (arity, tuple(table)) for name, (arity, table) in ops.items()}


def algebra_text(ops: dict) -> str:
    out = [f"domain {oracles.N}"]
    for name, (arity, table) in ops.items():
        out.append(f"op {name} {arity}")
        out.append("table: " + " ".join(map(str, table)))
    return "\n".join(out) + "\n"


def tuples_structure_text(relations: dict) -> str:
    out = [f"domain {oracles.N}"]
    for name, tuples in relations.items():
        arity = len(tuples[0])
        tokens = " ".join("".join(map(str, t)) for t in tuples)
        out.append(f"rel {name} {arity} tuples {tokens}")
    return "\n".join(out) + "\n"


def tau_dnf(block_count: int) -> str:
    """The k-block triple gadget as a DNF: per block, every triple over alpha,
    then every triple over beta."""
    disjuncts = []
    for block in range(block_count):
        x = [3 * block + j for j in range(3)]
        for side in (ALPHA, BETA):
            for values in itertools.product(side, repeat=3):
                disjuncts.append("&".join(f"x{p}={v}" for p, v in zip(x, values)))
    return "|".join(disjuncts)


def tau_structure_text() -> str:
    return (
        f"domain {oracles.N}\n"
        f"rel tau1 3 dnf {tau_dnf(1)}\n"
        f"rel tau2 6 dnf {tau_dnf(2)}\n"
        "const a0 0\nconst a1 1\nconst a2 2\n"
    )


def sentence_text(prefix, atoms) -> str:
    out = [f"{q} {v}" for q, v in prefix]
    rendered = []
    for atom in atoms:
        if atom[0] == "rel":
            rendered.append(f"{atom[1]}({','.join(map(str, atom[2]))})")
        else:
            rendered.append(f"{atom[1]}={atom[2]}")
    out.append("matrix: " + " & ".join(rendered))
    return "\n".join(out) + "\n"


def nae_text(variables, clauses) -> str:
    used = {v for clause in clauses for v in clause}
    out = [f"var {v}" for v in variables if v not in used]
    out += [f"nae {a} {b} {c}" for a, b, c in clauses]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the paper's one-operation collapsibility families, from their definitions


def _family(arity: int, special) -> tuple:
    """(arity, table): constant rows keep their value, `special` decides the
    others, and the rows it leaves open go to 2."""
    table = []
    for t in itertools.product(oracles.ELEMENTS, repeat=arity):
        if len(set(t)) == 1:
            table.append(t[0])
        else:
            value = special(t)
            table.append(2 if value is None else value)
    return arity, tuple(table)


def f_a(n: int) -> tuple:
    """Arity n+1: exactly one 1 among 0s -> 0; other non-constant rows -> 2."""
    return _family(n + 1, lambda t: 0 if set(t) <= {0, 1} and t.count(1) == 1 else None)


def f_b(n: int) -> tuple:
    """Mirror of f_a with 0 and 1 swapped."""
    return _family(n + 1, lambda t: 1 if set(t) <= {0, 1} and t.count(0) == 1 else None)


def f_hat_a(n: int) -> tuple:
    """Arity n+2: first coordinate 1 and exactly one more 1 among 0s -> 0."""
    return _family(
        n + 2,
        lambda t: 0 if set(t) <= {0, 1} and t[0] == 1 and t[1:].count(1) == 1 else None,
    )


def f_hat_b(n: int) -> tuple:
    """Mirror of f_hat_a with 0 and 1 swapped."""
    return _family(
        n + 2,
        lambda t: 1 if set(t) <= {0, 1} and t[0] == 0 and t[1:].count(0) == 1 else None,
    )


# ---------------------------------------------------------------------------
# question builders


class Builder:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.questions: list = []
        self.inputs: list = []

    def write(self, name: str, text: str, kind: str) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.inputs.append([kind, path])
        return path

    def ask(self, argv, kind: str, expect: dict, **extra) -> str:
        qid = f"q{len(self.questions):03d}"
        self.questions.append({"id": qid, "argv": argv, "kind": kind, "expect": expect, **extra})
        return qid


def probe_expect(ops: list, m_max: int, seed_of, theory: bool) -> dict:
    """Per-length verdicts the naive closure can settle (m <= 3, or any m for
    binary-only algebras); `theory` marks probes that must generate at every
    length."""
    binary_only = all(arity <= 2 for arity, _ in ops)
    exact = {}
    for m in range(1, m_max + 1):
        if m <= 3 or binary_only:
            exact[str(m)] = oracles.generates(ops, seed_of(m))
    return {"m_max": m_max, "exact": exact, "theory": theory}


def switch_question(b: Builder, path: str, ops: list, k: int, m_max: int, theory=False, **extra):
    argv = ["powers", "switchable", path, "--k", str(k), "--budget-m", str(m_max)]
    expect = probe_expect(ops, m_max, lambda m: oracles.switch_tuples(m, k), theory)
    expect["k"] = k
    return b.ask(argv, "switchable", expect, **extra)


def collapse_question(b: Builder, path, ops, k, m_max, sources=None, theory=(), **extra):
    argv = ["powers", "collapsible", path, "--k", str(k), "--budget-m", str(m_max)]
    if sources is not None:
        argv += ["--sources", ",".join(map(str, sources))]
    labels = [[str(x), [x]] for x in (sources or oracles.ELEMENTS)]
    labels.append(["union", sorted(sources or oracles.ELEMENTS)])
    per_label = {}
    for label, srcs in labels:
        per_label[label] = probe_expect(
            ops,
            m_max,
            lambda m, srcs=srcs: oracles.collapse_tuples(m, k, srcs),
            label in theory,
        )
    return b.ask(argv, "collapsible", {"k": k, "m_max": m_max, "sources": per_label}, **extra)


ALL_VERBS = ("classify3", "egp", "witnesses", "clone", "gen")


def algebra_questions(b: Builder, path, named, verbs=ALL_VERBS, depths=None, **options):
    """Algebra verbs and ``powers gen --m 2`` on one algebra.

    `depths` gives the (witness search, clone) depth budgets, None the CLI
    default; options: `switch_theory` (the 2-switch probe must generate at
    every length) and `heavy_gen` (gen is asked once per round).
    """
    ops = list(named.values())
    binary_only = all(arity <= 2 for arity, _ in ops)
    if "classify3" in verbs or "egp" in verbs:
        pairs = [[sorted(a), sorted(c)] for a, c in oracles.projective_pairs(ops)]
    if "classify3" in verbs:
        factors = oracles.gset_factors(ops) if pairs else []
        klass = "NP" if not pairs else ("Pi2p-hard" if factors else "coNP-complete")
        switch = {}
        if klass == "NP":
            for m in range(1, 5):
                if m <= 3 or binary_only:
                    switch[str(m)] = oracles.generates(ops, oracles.switch_tuples(m, 2))
        expect = {"class": klass, "pairs": pairs, "factors": factors, "switch": switch}
        expect["switch_theory"] = options.get("switch_theory", False)
        b.ask(["algebra", "classify3", path], "classify3", expect)
    if "egp" in verbs:
        b.ask(["algebra", "egp", path], "egp", {"pairs": pairs})
    witness_depth, clone_depth = depths or (None, None)
    if "witnesses" in verbs:
        depth = witness_depth or DEFAULT_DEPTH
        # the first regime whose two conditions hold within the depth budget
        first = None
        for d in range(1, depth + 1):
            found = oracles.regimes_within_depth(ops, d)
            if 1 in found:
                first = 1
                break
            if d == depth and found:
                first = found[0]
        budget = ["--budget-depth", str(witness_depth)] if witness_depth else []
        b.ask(
            budget + ["algebra", "witnesses", path],
            "witnesses",
            {"depth": depth, "regime": first, "algebra": named},
        )
    if "clone" in verbs:
        budget = ["--budget-depth", str(clone_depth)] if clone_depth else []
        b.ask(budget + ["algebra", "clone", path], "clone", {"arity": 2, "algebra": named})
    if "gen" in verbs:
        b.ask(
            ["powers", "gen", path, "--m", "2"],
            "gen",
            {"m": 2, "size": oracles.min_generating_size(ops, 2), "algebra": named},
            **(HEAVY if options.get("heavy_gen") else {}),
        )


def random_idempotent_binary(rng: random.Random) -> tuple:
    return tuple(
        a if a == c else rng.randrange(oracles.N)
        for a, c in itertools.product(oracles.ELEMENTS, repeat=2)
    )


#: seeded random algebras per probe round
PROBE_RANDOM_ALGEBRAS = 14
#: the CLI's default depth budget, and the (witness search, clone) depth
#: budgets on the random algebras: deeper searches cost seconds on some
#: algebras and milliseconds on others, which no seed-to-seed median hides
DEFAULT_DEPTH = 4
RANDOM_DEPTHS = (2, 3)
#: the classes the theory fixes for the bundled algebras
BUNDLED_CLASSES = {"switchable": "NP", "semilattice": "coNP-complete", "projections3": "Pi2p-hard"}


def build_probe(b: Builder, rng: random.Random):
    algebras = {
        name: read_algebra(os.path.join(SAMPLES, f"{name}.alg")) for name in BUNDLED_CLASSES
    }
    paths = {name: os.path.join(SAMPLES, f"{name}.alg") for name in algebras}
    for path in paths.values():
        b.inputs.append(["algebra", path])
    families = {"f_a_3": f_a(3), "f_b_3": f_b(3), "f_hat_a_2": f_hat_a(2), "f_hat_b_2": f_hat_b(2)}
    for name, op in families.items():
        algebras[name] = {"f": op}
        paths[name] = b.write(f"{name}.alg", algebra_text(algebras[name]), "algebra")

    def switch(name, k, m_max, **extra):
        return switch_question(b, paths[name], list(algebras[name].values()), k, m_max, **extra)

    def collapse(name, k, m_max, sources=None, **extra):
        ops = list(algebras[name].values())
        return collapse_question(b, paths[name], ops, k, m_max, sources, **extra)

    # generation probes: a round asks those that cost a third of a second or
    # more once
    low = switch("switchable", 1, 5, **HEAVY)
    switch("switchable", 2, 5, theory=True, above=low, **HEAVY)
    switch("semilattice", 1, 11, **HEAVY)
    low = collapse("f_hat_a_2", 2, 5, [1], **HEAVY)
    collapse("f_hat_a_2", 3, 4, [1], theory=("1", "union"), above=low)
    collapse("f_a_3", 3, 4, [1], theory=("1", "union"))
    collapse("f_b_3", 3, 4, [0], theory=("0", "union"))
    collapse("f_a_3", 1, 4)

    for name in BUNDLED_CLASSES:
        algebra_questions(
            b, paths[name], algebras[name],
            switch_theory=name == "switchable", heavy_gen=name == "switchable",
        )
    # the families' clones are too large for the clone and witness oracles
    for name in families:
        algebra_questions(b, paths[name], algebras[name], ("classify3", "egp"))
    for i in range(PROBE_RANDOM_ALGEBRAS):
        named = {"f": (2, random_idempotent_binary(rng))}
        path = b.write(f"rand{i:02d}.alg", algebra_text(named), "algebra")
        algebra_questions(b, path, named, depths=RANDOM_DEPTHS)

    for q in b.questions:
        name = next((n for n in BUNDLED_CLASSES if q["argv"][-1] == paths[n]), None)
        if q["kind"] == "classify3" and name and q["expect"]["class"] != BUNDLED_CLASSES[name]:
            raise AssertionError(f"the oracle classifies {name} as {q['expect']['class']}")


# ---------------------------------------------------------------------------
# reduce: sentences over relations invariant under the switchable algebra


def invariant_pool(ops: list) -> list:
    """Every nonempty unary and binary relation preserved by all operations
    (lowest arity first, so the cheap binary check filters the candidates)."""
    ops = sorted(ops)
    pool = []
    for arity in (1, 2):
        rows = list(itertools.product(oracles.ELEMENTS, repeat=arity))
        for bits in range(1, 2 ** len(rows)):
            members = [t for i, t in enumerate(rows) if bits >> i & 1]
            if all(oracles.preserves(a, t, members) for a, t in ops):
                pool.append(members)
    return pool


def random_sentence(rng, relations: dict, n_forall: int, n_exists, n_atoms, extras=False):
    """Random prefix order over u0.. and e0..; relation atoms (and, with
    extras, variable and constant equalities) over random variables."""
    names = [f"u{i}" for i in range(n_forall)] + [f"e{i}" for i in range(n_exists)]
    quants = ["forall"] * n_forall + ["exists"] * n_exists
    order = list(range(len(names)))
    rng.shuffle(order)
    prefix = [(quants[i], names[i]) for i in order]
    atoms = []
    for _ in range(n_atoms):
        kind = rng.choice(["rel", "eq", "const"]) if extras else "rel"
        if kind == "rel":
            rel = rng.choice(sorted(relations))
            atoms.append(("rel", rel, [rng.choice(names) for _ in range(relations[rel])]))
        elif kind == "eq":
            atoms.append(("eq", rng.choice(names), rng.choice(names)))
        else:
            atoms.append(("eq", rng.choice(names), rng.randrange(oracles.N)))
    return prefix, atoms


#: (universals, sentences whose answer is true, sentences whose answer is false)
REDUCE_GROUPS = [(1, 9, 9), (2, 9, 9), (3, 9, 9), (4, 8, 8), (5, 2, 2)]
#: the same for the --assume-switchable sentences
REDUCE_ASSUMED_GROUPS = [(6, 4, 6), (7, 4, 6), (8, 4, 6)]
#: most existential copies in the expansion of a sentence; the solver's
#: time grows steeply with the copy count, and a few instances with hundreds
#: of copies would decide a run's throughput and tail latency alone
MAX_COPIES = 60


def expansion_copies(prefix, atoms) -> int:
    """Existential variables of the expansion over the 2-switch adversary:
    one per existential occurring in an atom and per distinct choice of the
    universals quantified before it."""
    used = {a for atom in atoms for a in atom[2] if isinstance(a, str)}
    copies, before = 0, 0
    for q, v in prefix:
        if q == "forall":
            before += 1
        elif v in used:
            copies += len(oracles.switch_tuples(before, 2)) if before else 1
    return copies


def build_reduce(b: Builder, rng: random.Random):
    algebra_path = os.path.join(SAMPLES, "switchable.alg")
    b.inputs.append(["algebra", algebra_path])
    pool = invariant_pool(list(read_algebra(algebra_path).values()))
    count = 0
    for groups, flags in (
        (REDUCE_GROUPS, ["--algebra", algebra_path]),
        (REDUCE_ASSUMED_GROUPS, ["--assume-switchable"]),
    ):
        for n_forall, want_true, want_false in groups:
            wanted = {True: want_true, False: want_false}
            while wanted[True] or wanted[False]:
                chosen = rng.sample(range(len(pool)), rng.randint(2, 4))
                relations = {f"r{i}": pool[i] for i in sorted(chosen)}
                prefix, atoms = random_sentence(
                    rng,
                    {name: len(ts[0]) for name, ts in relations.items()},
                    n_forall,
                    rng.randint(1, 4),
                    rng.randint(2, 5),
                )
                if expansion_copies(prefix, atoms) > MAX_COPIES:
                    continue
                members = {name: set(ts) for name, ts in relations.items()}
                truth = oracles.evaluate(prefix, atoms, lambda r, t: t in members[r])
                if not wanted[truth]:
                    continue
                wanted[truth] -= 1
                stem = f"red{count:03d}"
                count += 1
                struct = b.write(f"{stem}.struct", tuples_structure_text(relations), "structure")
                phi = b.write(f"{stem}.sentence", sentence_text(prefix, atoms), "sentence")
                b.ask(
                    ["qcsp", "reduce", struct, phi, "--k", "2"] + flags,
                    "reduce",
                    {"satisfiable": truth, "universals": n_forall},
                    **(HEAVY if n_forall == 5 else {}),
                )


# ---------------------------------------------------------------------------
# canon: the clause-set reduction and sentences over the DNF gadgets

#: (clause count, instances) drawn from the seed per round
NAE_GROUPS = [(1, 10), (2, 10), (3, 4)]
#: fixed instances on which the canon method refuses today (arity >= 15)
NAE_FIXED = [
    (("p", "q", "r", "s", "t"), [("p", "q", "r"), ("q", "r", "s"), ("r", "s", "t"),
                                 ("p", "s", "t"), ("p", "q", "t")]),
    (("p", "q", "r", "s"), [("p", "q", "r"), ("p", "q", "s"), ("p", "r", "s"),
                            ("q", "r", "s"), ("p", "p", "q")]),
    (("p", "q", "r", "s", "t", "w"), [("p", "q", "r"), ("q", "r", "s"), ("r", "s", "t"),
                                      ("s", "t", "w"), ("p", "t", "w"), ("p", "q", "w")]),
]
KNOWN_CANON_REFUSAL = "solve_via_canon materializes the arity-3k DNF gadget (k >= 5)"
TAU_SENTENCES = 30


def nae_questions(b: Builder, stem: str, variables, clauses, known_failure=None):
    nae = b.write(f"{stem}.nae", nae_text(variables, clauses), "nae")
    out_sentence = os.path.join(b.out_dir, f"{stem}.out.sentence")
    out_struct = os.path.join(b.out_dir, f"{stem}.out.struct")
    sat = oracles.nae_satisfiable(variables, clauses)
    b.ask(
        ["reduce", "naesat", nae, "--eval", "--out", out_sentence, "--out-structure", out_struct],
        "naesat",
        {
            "variables": len(variables),
            "clauses": len(clauses),
            "true": not sat,
            "brute_satisfiable": sat,
        },
    )
    # the canon method materializes the arity-3k gadget: a second at k = 3
    canon_extra = dict(HEAVY) if len(clauses) >= 3 else {}
    if known_failure:
        canon_extra["known_failure"] = known_failure
    for method in ("canon", "brute"):
        b.ask(
            ["qcsp", "solve", out_struct, out_sentence, "--method", method],
            "solve",
            {"true": not sat, "method": method, "clauses": len(clauses)},
            **(canon_extra if method == "canon" else {}),
        )


def build_canon(b: Builder, rng: random.Random):
    count = 0
    for k, instances in NAE_GROUPS:
        for _ in range(instances):
            variables = [f"v{i}" for i in range(rng.randint(3, 6))]
            clauses = [tuple(rng.choice(variables) for _ in range(3)) for _ in range(k)]
            nae_questions(b, f"nae{count:03d}", variables, clauses)
            count += 1
    for i, (variables, clauses) in enumerate(NAE_FIXED):
        nae_questions(b, f"fixed{i}", variables, clauses, KNOWN_CANON_REFUSAL)

    struct = b.write("tau.struct", tau_structure_text(), "structure")
    arities = {"tau1": 3, "tau2": 6}
    for i in range(TAU_SENTENCES):
        n_forall, n_exists = rng.randint(0, 2), rng.randint(0, 3)
        if n_forall + n_exists == 0:
            n_forall = 1
        prefix, atoms = random_sentence(
            rng, arities, n_forall, n_exists, rng.randint(1, 4), extras=True
        )
        truth = oracles.evaluate(prefix, atoms, lambda r, t: oracles.in_tau(len(t) // 3, t))
        phi = b.write(f"tau{i:03d}.sentence", sentence_text(prefix, atoms), "sentence")
        for method in ("canon", "brute"):
            b.ask(
                ["qcsp", "solve", struct, phi, "--method", method],
                "solve",
                {"true": truth, "method": method},
            )


WORKLOADS = {"probe": build_probe, "reduce": build_reduce, "canon": build_canon}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    b = Builder(out_dir)
    WORKLOADS[workload](b, random.Random(f"{workload}-{seed}"))
    spec = {"workload": workload, "seed": seed, "questions": b.questions, "inputs": b.inputs}
    with open(os.path.join(out_dir, "questions.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = generate(args.workload, args.seed, args.out)
    print(f"{len(spec['questions'])} questions, {len(spec['inputs'])} input files in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
