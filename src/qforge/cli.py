"""Command-line front end and suite runner.

Every verb computes a report dict; ``--json`` renders it as sorted-key JSON,
otherwise a terse text form is printed.  Exit codes follow a three-valued
protocol: 0 the question was decided, 2 a bounded search ended without an
answer (budget-inconclusive), 1 error.

``suite run MANIFEST`` executes a JSON manifest of verbs, persists one
line-delimited JSON record per step, and compares each report against the
step's stored expectations (recursive subset match after dropping volatile
keys such as wall time); any mismatch fails the suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

from . import catalog, classify, clone, files, gadgets, powers, qcsp
from .errors import BudgetError, QforgeError
from .model import Algebra, Domain, ENC_DNF, ENC_TUPLES, Structure

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

VOLATILE_KEYS = {"wall_ms", "inputs"}


@dataclass
class Budgets:
    depth: int = 4
    m: int = 5
    nodes: int = 80_000_000
    vars: int = 12

    @classmethod
    def from_env(cls) -> "Budgets":
        budgets = cls()
        raw = os.environ.get("QFORGE_BUDGET", "")
        for item in raw.split(","):
            if not item.strip():
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            if key in ("depth", "m", "nodes", "vars") and value.strip().isdigit():
                setattr(budgets, key, int(value))
        return budgets

    def powers(self) -> powers.PowersBudget:
        return powers.PowersBudget(max_nodes=self.nodes)

    def clone(self) -> clone.CloneBudget:
        return clone.CloneBudget(depth=self.depth)


def _parse_elements(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _ab(args) -> gadgets.AlphaBeta:
    return gadgets.AlphaBeta.of(_parse_elements(args.alpha), _parse_elements(args.beta))


def _verdict_map(v: powers.PerLengthVerdict) -> dict:
    return {str(m): val for m, val in sorted(v.verdicts.items())}


# ---------------------------------------------------------------------------
# verb handlers: each returns (exit_code, report)


def _cmd_algebra_egp(args, budgets):
    algebra = files.load_algebra(args.file)
    pair = clone.egp_test(algebra)
    if pair is None:
        return EXIT_DECIDED, {"growth": "PGP", "egp": False}
    return EXIT_DECIDED, {
        "growth": "EGP",
        "egp": True,
        "alpha": sorted(pair[0]),
        "beta": sorted(pair[1]),
    }


def _cmd_algebra_clone(args, budgets):
    algebra = files.load_algebra(args.file)
    result = clone.clone_closure(algebra, args.arity, budgets.clone())
    report = {
        "arity": args.arity,
        "tables": len(result.tables),
        "rounds": result.rounds,
        "exhausted": result.exhausted,
        "terms": sorted(clone.format_term(t) for t in result.tables.values()),
    }
    return (EXIT_INCONCLUSIVE if result.exhausted else EXIT_DECIDED), report


def _cmd_algebra_classify3(args, budgets):
    algebra = files.load_algebra(args.file)
    verdict = classify.classify3(algebra, budget=budgets.powers())
    return EXIT_DECIDED, verdict.as_report()


def _cmd_algebra_witnesses(args, budgets):
    algebra = files.load_algebra(args.file)
    witness = clone.find_pinned_term_pair(algebra, budgets.clone())
    if witness is None:
        return EXIT_INCONCLUSIVE, {
            "found": False,
            "note": "no witness within budget",
            "budget_depth": budgets.depth,
        }
    return EXIT_DECIDED, {
        "found": True,
        "regime": witness.regime,
        "p": clone.format_term(witness.p),
        "p_table": list(clone.flatten_term(witness.p, algebra, 2).table),
        "r3": clone.format_term(witness.r3),
        "r3_table": list(clone.flatten_term(witness.r3, algebra, 3).table),
        "budget_depth": budgets.depth,
    }


def _cmd_powers_gen(args, budgets):
    algebra = files.load_algebra(args.file)
    report = powers.min_generating_size(algebra, args.m, budgets.powers())
    code = EXIT_INCONCLUSIVE if report.method == "greedy-upper" else EXIT_DECIDED
    return code, {
        "m": report.m,
        "size": report.size,
        "method": report.method,
        "witness": ["".join(str(v) for v in t) for t in report.witness],
    }


def _cmd_powers_switchable(args, budgets):
    algebra = files.load_algebra(args.file)
    verdict = powers.is_k_switchable(algebra, args.k, args.budget_m, budgets.powers())
    code = EXIT_INCONCLUSIVE if verdict.inconclusive() else EXIT_DECIDED
    return code, {
        "k": args.k,
        "m_max": args.budget_m,
        "generates": _verdict_map(verdict),
        "all_generate": verdict.all_generate(),
        "first_failure": verdict.first_failure(),
    }


def _cmd_powers_collapsible(args, budgets):
    algebra = files.load_algebra(args.file)
    sources = _parse_elements(args.sources) if args.sources else None
    verdicts = powers.is_k_collapsible(
        algebra, args.k, args.budget_m, sources, budgets.powers()
    )
    report = {"k": args.k, "m_max": args.budget_m, "sources": {}}
    inconclusive = False
    for label, verdict in verdicts.items():
        report["sources"][str(label)] = {
            "generates": _verdict_map(verdict),
            "first_failure": verdict.first_failure(),
        }
        inconclusive |= verdict.inconclusive()
    return (EXIT_INCONCLUSIVE if inconclusive else EXIT_DECIDED), report


def _emit_structure(args, struct: Structure) -> dict:
    text = files.serialize_structure(struct)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    report = {"structure": text}
    return report


def _cmd_gadgets_block(args, budgets, builder, width_name):
    domain = Domain(args.domain)
    ab = _ab(args)
    encoding = ENC_DNF if args.dnf else ENC_TUPLES
    rel = builder(domain, ab, args.k, encoding)
    name = f"{width_name}{args.k}"
    report = _emit_structure(args, Structure(domain, {name: rel}))
    report.update({"name": name, "arity": rel.arity, "encoding": rel.encoding})
    return EXIT_DECIDED, report


def _cmd_gadgets_fixed(args, budgets, builder, name):
    rel = builder(Domain(3))
    report = _emit_structure(args, Structure(Domain(3), {name: rel}))
    report.update({"name": name, "tuples": len(rel.tuples())})
    return EXIT_DECIDED, report


def _cmd_gadgets_nu(args, budgets):
    domain = Domain(args.domain)
    ab = _ab(args)
    op = gadgets.build_nu_for_sigma(domain, ab, args.m)
    sigma_ok = all(
        clone.preserves(op, gadgets.build_sigma_k(domain, ab, i)) for i in range(1, args.m + 1)
    )
    const_ok = op.check_idempotent()
    text = files.serialize_algebra(Algebra(domain, {"nu": op}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_DECIDED, {
        "algebra": text,
        "arity": op.arity,
        "preserves_sigma": sigma_ok,
        "fixes_constants": const_ok,
    }


def _cmd_qcsp_solve(args, budgets):
    struct = files.load_structure(args.structure)
    phi = files.load_sentence(args.sentence)
    if args.method == "canon":
        value = qcsp.solve_via_canon(struct, phi)
    elif args.method == "universal":
        value = qcsp.solve_universal_conjunction(struct, phi)
    else:
        value = qcsp.qcsp_eval(struct, phi, max_vars=budgets.vars)
    kind, level = qcsp.alternation_class(phi)
    return EXIT_DECIDED, {
        "true": value,
        "method": args.method,
        "alternation": f"{kind}_{level}",
    }


def _cmd_qcsp_reduce(args, budgets):
    struct = files.load_structure(args.structure)
    phi = files.load_sentence(args.sentence)
    algebra = files.load_algebra(args.algebra) if args.algebra else None
    inst = qcsp.qcsp_to_csp(
        struct, phi, args.k, algebra=algebra, assume_verified=args.assume_switchable
    )
    assignment = qcsp.csp_solve(inst, struct)
    return EXIT_DECIDED, {
        "k": args.k,
        "csp_variables": len(inst.variables),
        "csp_constraints": len(inst.constraints),
        "satisfiable": assignment is not None,
    }


def _cmd_qcsp_preprocess(args, budgets):
    phi = files.load_sentence(args.sentence)
    result = qcsp.eliminate_constant_atoms(phi, Domain(args.domain))
    if result is None:
        return EXIT_DECIDED, {"false": True}
    return EXIT_DECIDED, {"false": False, "sentence": files.serialize_sentence(result)}


def _cmd_reduce_naesat(args, budgets):
    inst = files.load_nae(args.file)
    domain = Domain(args.domain)
    phi, struct = qcsp.naesat_to_qcsp(inst, domain, _ab(args))
    report = {
        "variables": len(inst.variables),
        "clauses": len(inst.clauses),
        "sentence": files.serialize_sentence(phi),
        "structure": files.serialize_structure(struct),
    }
    if args.eval:
        value = qcsp.qcsp_eval(struct, phi, max_vars=budgets.vars)
        report["true"] = value
        report["brute_satisfiable"] = qcsp.naesat_brute(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report["sentence"])
    if args.out_structure:
        with open(args.out_structure, "w", encoding="utf-8") as fh:
            fh.write(report["structure"])
    return EXIT_DECIDED, report


def _cmd_reduce_pi2(args, budgets):
    with open(args.file, encoding="utf-8") as fh:
        inst = files.parse_pi2_nae(fh.read())
    phi, struct = qcsp.pi2_naesat_gadget(inst, args.case)
    kind, level = qcsp.alternation_class(phi)
    report = {
        "case": args.case,
        "alternation": f"{kind}_{level}",
        "sentence": files.serialize_sentence(phi),
        "structure": files.serialize_structure(struct),
    }
    if args.eval:
        report["true"] = qcsp.qcsp_eval(struct, phi, max_vars=budgets.vars)
    return EXIT_DECIDED, report


def _cmd_relations_essential(args, budgets):
    struct = files.load_structure(args.file)
    names = [args.rel] if args.rel else sorted(struct.relations)
    report = {"relations": {}}
    for name in names:
        rel = struct.relation(name)
        ess = clone.essential_tuples(rel)
        report["relations"][name] = {
            "essential": bool(ess),
            "essential_tuples": ["".join(str(v) for v in t) for t in sorted(ess)[:20]],
            "count": len(ess),
        }
    return EXIT_DECIDED, report


def _cmd_relations_ppverify(args, budgets):
    domain = Domain(args.domain)
    verified = gadgets.verify_pp_definition(domain, _ab(args), args.k)
    return EXIT_DECIDED, {"k": args.k, "verified": verified}


def _cmd_bench_vignette(args, budgets):
    cases = {
        "semilattice": catalog.semilattice_algebra(),
        "switchable": catalog.switchable_algebra(),
        "projections": catalog.projections_algebra(),
    }
    report = {}
    for name, algebra in cases.items():
        verdict = classify.classify3(algebra, budget=budgets.powers())
        report[name] = verdict.as_report()
    return EXIT_DECIDED, report


# ---------------------------------------------------------------------------
# suite runner


def _scrub(value):
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def _subset_match(expected, actual) -> bool:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(k in actual and _subset_match(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        return isinstance(actual, list) and expected == actual
    return expected == actual


def _hash_inputs(argv) -> dict:
    out = {}
    for token in argv:
        if isinstance(token, str) and os.path.isfile(token):
            with open(token, "rb") as fh:
                out[token] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_suite(manifest_path: str, out_path: str | None = None) -> tuple[int, dict]:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    steps = manifest.get("steps", [])

    def run_step(step):
        argv = step["argv"]
        start = time.monotonic()
        code, report = cli_dispatch(argv)
        wall_ms = int((time.monotonic() - start) * 1000)
        record = {
            "name": step.get("name", " ".join(argv)),
            "argv": argv,
            "inputs": _hash_inputs(argv),
            "exit": code,
            "report": report,
            "wall_ms": wall_ms,
        }
        status = "pass"
        if code == EXIT_ERROR:
            status = "error"
        elif code == EXIT_INCONCLUSIVE:
            status = "inconclusive"
        if "expect_exit" in step and step["expect_exit"] != code:
            status = "drift"
        if "expect_report" in step and not _subset_match(
            _scrub(step["expect_report"]), _scrub(report)
        ):
            status = "drift"
        record["status"] = status
        return record

    records = [run_step(s) for s in steps]

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    statuses = [r["status"] for r in records]
    if any(s in ("error", "drift") for s in statuses):
        code = EXIT_ERROR
    elif any(s == "inconclusive" for s in statuses):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_DECIDED
    summary = {
        "steps": len(records),
        "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
        "records": [_scrub(r) for r in records],
        "result": {EXIT_DECIDED: "pass", EXIT_INCONCLUSIVE: "inconclusive", EXIT_ERROR: "fail"}[
            code
        ],
    }
    return code, summary


def _cmd_suite_run(args, budgets):
    return run_suite(args.manifest, out_path=args.out)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qforge",
        description="finite-domain algebra and quantified-constraint workbench",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--budget-depth", type=int, help="term-search depth budget")
    parser.add_argument("--budget-m", type=int, help="default power-length budget")
    top = parser.add_subparsers(dest="group", required=True)

    def add(group, name, handler, configure):
        sub = group.add_parser(name)
        configure(sub)
        sub.set_defaults(handler=handler)

    g_algebra = top.add_parser("algebra").add_subparsers(dest="verb", required=True)
    add(g_algebra, "egp", _cmd_algebra_egp, lambda p: p.add_argument("file"))
    add(
        g_algebra,
        "clone",
        _cmd_algebra_clone,
        lambda p: (p.add_argument("file"), p.add_argument("--arity", type=int, default=2)),
    )
    add(g_algebra, "classify3", _cmd_algebra_classify3, lambda p: p.add_argument("file"))
    add(g_algebra, "witnesses", _cmd_algebra_witnesses, lambda p: p.add_argument("file"))

    g_powers = top.add_parser("powers").add_subparsers(dest="verb", required=True)
    add(
        g_powers,
        "gen",
        _cmd_powers_gen,
        lambda p: (p.add_argument("file"), p.add_argument("--m", type=int, required=True)),
    )
    add(
        g_powers,
        "switchable",
        _cmd_powers_switchable,
        lambda p: (
            p.add_argument("file"),
            p.add_argument("--k", type=int, required=True),
            p.add_argument("--budget-m", dest="budget_m", type=int, default=4),
        ),
    )
    add(
        g_powers,
        "collapsible",
        _cmd_powers_collapsible,
        lambda p: (
            p.add_argument("file"),
            p.add_argument("--k", type=int, required=True),
            p.add_argument("--budget-m", dest="budget_m", type=int, default=4),
            p.add_argument("--sources", default=""),
        ),
    )

    def gadget_common(p, with_k=True):
        if with_k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--alpha", default="0,2")
        p.add_argument("--beta", default="1,2")
        p.add_argument("--domain", type=int, default=3)
        p.add_argument("--dnf", action="store_true")
        p.add_argument("--tuples", dest="dnf", action="store_false")
        p.add_argument("--out")
        p.set_defaults(dnf=True)  # DNF works at every k; tuples only up to k=3

    g_gadgets = top.add_parser("gadgets").add_subparsers(dest="verb", required=True)
    add(
        g_gadgets,
        "tau",
        lambda a, b: _cmd_gadgets_block(a, b, gadgets.build_tau_k, "tau"),
        gadget_common,
    )
    add(
        g_gadgets,
        "sigma",
        lambda a, b: _cmd_gadgets_block(a, b, gadgets.build_sigma_k, "sigma"),
        gadget_common,
    )
    add(
        g_gadgets,
        "z",
        lambda a, b: _cmd_gadgets_fixed(a, b, gadgets.build_Z, "zgad"),
        lambda p: p.add_argument("--out"),
    )
    add(
        g_gadgets,
        "r",
        lambda a, b: _cmd_gadgets_fixed(a, b, gadgets.build_R, "nae02"),
        lambda p: p.add_argument("--out"),
    )
    add(
        g_gadgets,
        "nu",
        _cmd_gadgets_nu,
        lambda p: (
            p.add_argument("--m", type=int, default=1),
            p.add_argument("--alpha", default="0,2"),
            p.add_argument("--beta", default="1,2"),
            p.add_argument("--domain", type=int, default=3),
            p.add_argument("--out"),
        ),
    )

    g_qcsp = top.add_parser("qcsp").add_subparsers(dest="verb", required=True)
    add(
        g_qcsp,
        "solve",
        _cmd_qcsp_solve,
        lambda p: (
            p.add_argument("structure"),
            p.add_argument("sentence"),
            p.add_argument("--method", choices=["brute", "canon", "universal"], default="brute"),
        ),
    )
    add(
        g_qcsp,
        "reduce",
        _cmd_qcsp_reduce,
        lambda p: (
            p.add_argument("structure"),
            p.add_argument("sentence"),
            p.add_argument("--k", type=int, required=True),
            p.add_argument("--algebra"),
            p.add_argument("--assume-switchable", action="store_true"),
        ),
    )
    add(
        g_qcsp,
        "preprocess",
        _cmd_qcsp_preprocess,
        lambda p: (p.add_argument("sentence"), p.add_argument("--domain", type=int, default=3)),
    )

    g_reduce = top.add_parser("reduce").add_subparsers(dest="verb", required=True)
    add(
        g_reduce,
        "naesat",
        _cmd_reduce_naesat,
        lambda p: (
            p.add_argument("file"),
            p.add_argument("--alpha", default="0,2"),
            p.add_argument("--beta", default="1,2"),
            p.add_argument("--domain", type=int, default=3),
            p.add_argument("--eval", action="store_true"),
            p.add_argument("--out"),
            p.add_argument("--out-structure", dest="out_structure"),
        ),
    )
    add(
        g_reduce,
        "pi2",
        _cmd_reduce_pi2,
        lambda p: (
            p.add_argument("file"),
            p.add_argument("--case", choices=["A", "B"], required=True),
            p.add_argument("--eval", action="store_true"),
        ),
    )

    g_rel = top.add_parser("relations").add_subparsers(dest="verb", required=True)
    add(
        g_rel,
        "essential",
        _cmd_relations_essential,
        lambda p: (p.add_argument("file"), p.add_argument("--rel")),
    )
    add(
        g_rel,
        "pp-verify",
        _cmd_relations_ppverify,
        lambda p: (
            p.add_argument("--k", type=int, required=True),
            p.add_argument("--alpha", default="0,2"),
            p.add_argument("--beta", default="1,2"),
            p.add_argument("--domain", type=int, default=3),
        ),
    )

    g_bench = top.add_parser("bench").add_subparsers(dest="verb", required=True)
    add(g_bench, "vignette", _cmd_bench_vignette, lambda p: None)

    g_suite = top.add_parser("suite").add_subparsers(dest="verb", required=True)
    add(
        g_suite,
        "run",
        _cmd_suite_run,
        lambda p: (
            p.add_argument("manifest"),
            p.add_argument("--out"),
        ),
    )

    return parser


def cli_dispatch(argv) -> tuple[int, dict]:
    """Run one verb; returns (exit code, report) without printing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_ERROR if exc.code else EXIT_DECIDED), {"error": "bad arguments"}
    budgets = Budgets.from_env()
    if getattr(args, "budget_depth", None) is not None:
        budgets.depth = args.budget_depth
    if getattr(args, "budget_m", None) is not None:
        budgets.m = args.budget_m
    try:
        return args.handler(args, budgets)
    except BudgetError as exc:
        return EXIT_INCONCLUSIVE, {"inconclusive": str(exc)}
    except QforgeError as exc:
        return EXIT_ERROR, {"error": str(exc)}
    except OSError as exc:
        return EXIT_ERROR, {"error": str(exc)}


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, str) and "\n" in value:
            lines.append(f"{indent}{key}: |")
            for row in value.rstrip("\n").split("\n"):
                lines.append(f"{indent}  {row}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in argv
    # accepted anywhere, not only before the verb where the parser knows it
    code, report = cli_dispatch([a for a in argv if a != "--json"])
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
