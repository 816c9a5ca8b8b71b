"""Compare one qforge answer with the oracle answer stored for its question.

``check(question, code, report, answers)`` returns None when the answer is
right and a one-line reason otherwise.  ``answers`` maps question ids to the
latest reports given in the run, for properties that relate two questions
(verdicts monotone in k).  Nothing here imports qforge.
"""

from __future__ import annotations

import oracles

EXIT_DECIDED, EXIT_INCONCLUSIVE = 0, 2


def _ops(named: dict) -> list:
    return [(arity, tuple(table)) for arity, table in named.values()]


def _named(named: dict) -> dict:
    return {name: (arity, tuple(table)) for name, (arity, table) in named.items()}


def _verdicts(generates: dict, expect: dict, label: str):
    """Per-length verdict map against the exact lengths, the theory and the
    monotonicity in m (once False, False at every larger m)."""
    lengths = [str(m) for m in range(1, expect["m_max"] + 1)]
    if sorted(generates, key=int) != lengths:
        return f"{label}: lengths {sorted(generates, key=int)} != {lengths}"
    failed = False
    for m in lengths:
        value = generates[m]
        if value not in (True, False):
            return f"{label}: m={m} answered {value!r}"
        if m in expect["exact"] and value != expect["exact"][m]:
            return f"{label}: m={m} answered {value}, oracle {expect['exact'][m]}"
        if expect["theory"] and value is not True:
            return f"{label}: m={m} must generate"
        if failed and value:
            return f"{label}: generates at m={m} after a failure"
        failed = failed or not value
    return None


def _first_failure(generates: dict):
    for m in sorted(generates, key=int):
        if generates[m] is False:
            return int(m)
    return None


def check_switchable(q, code, report, answers):
    if code != EXIT_DECIDED:
        return f"exit {code}"
    error = _verdicts(report["generates"], q["expect"], "switch")
    if error:
        return error
    if report["first_failure"] != _first_failure(report["generates"]):
        return "first_failure disagrees with the verdicts"
    if report["all_generate"] != all(report["generates"].values()):
        return "all_generate disagrees with the verdicts"
    return _monotone_in_k(q, report, answers, lambda r: {"all": r["generates"]})


def check_collapsible(q, code, report, answers):
    if code != EXIT_DECIDED:
        return f"exit {code}"
    expect = q["expect"]["sources"]
    if sorted(report["sources"]) != sorted(expect):
        return f"labels {sorted(report['sources'])} != {sorted(expect)}"
    for label, entry in report["sources"].items():
        error = _verdicts(entry["generates"], expect[label], f"source {label}")
        if error:
            return error
        if entry["first_failure"] != _first_failure(entry["generates"]):
            return f"source {label}: first_failure disagrees with the verdicts"
    union = report["sources"]["union"]["generates"]
    for label, entry in report["sources"].items():
        for m, value in entry["generates"].items():
            if value and not union[m]:
                return f"source {label} generates at m={m} but the union does not"
    return _monotone_in_k(
        q, report, answers, lambda r: {s: e["generates"] for s, e in r["sources"].items()}
    )


def _monotone_in_k(q, report, answers, verdict_maps):
    """A probe with a larger k generates wherever the same probe with a
    smaller k does."""
    below_id = q.get("above")
    if below_id is None or below_id not in answers:
        return None
    below = verdict_maps(answers[below_id])
    here = verdict_maps(report)
    for label, verdicts in below.items():
        for m, value in verdicts.items():
            if value and m in here[label] and not here[label][m]:
                return f"{label}: generates at m={m} with a smaller k only"
    return None


def _pair_ok(pair, expect_pairs) -> bool:
    return [sorted(pair[0]), sorted(pair[1])] in expect_pairs


def check_classify3(q, code, report, answers):
    expect = q["expect"]
    if code != EXIT_DECIDED:
        return f"exit {code}"
    if report["class"] != expect["class"]:
        return f"class {report['class']}, oracle {expect['class']}"
    if expect["pairs"] and not _pair_ok((report["alpha"], report["beta"]), expect["pairs"]):
        return f"covering pair {report['alpha']}/{report['beta']} is not projective"
    if expect["class"] == "Pi2p-hard":
        sub = report["gset_subalgebra"]
        blocks = sorted(sorted(sub[i] for i in block) for block in report["gset_partition"])
        if [sorted(sub), blocks] not in [[s, b] for s, b in expect["factors"]]:
            return f"{sub} / {report['gset_partition']} is not a permutational factor"
    if expect["class"] == "NP":
        if report.get("switch_k") != 2:
            return "missing the 2-switch evidence"
        probe = {"m_max": 4, "exact": expect["switch"], "theory": expect["switch_theory"]}
        return _verdicts(report["switch_generates"], probe, "switch evidence")
    return None


def check_egp(q, code, report, answers):
    pairs = q["expect"]["pairs"]
    if code != EXIT_DECIDED:
        return f"exit {code}"
    if report["egp"] != bool(pairs) or report["growth"] != ("EGP" if pairs else "PGP"):
        return f"growth {report['growth']}, oracle {'EGP' if pairs else 'PGP'}"
    if pairs and not _pair_ok((report["alpha"], report["beta"]), pairs):
        return f"covering pair {report['alpha']}/{report['beta']} is not projective"
    return None


def check_witnesses(q, code, report, answers):
    expect = q["expect"]
    if report.get("budget_depth") != expect["depth"]:
        return f"budget_depth {report.get('budget_depth')} != {expect['depth']}"
    if expect["regime"] is None:
        if code != EXIT_INCONCLUSIVE or report.get("found") is not False:
            return f"exit {code}: found a witness the oracle has no room for"
        return None
    if code != EXIT_DECIDED or not report.get("found"):
        return f"exit {code}: no witness, oracle finds regime {expect['regime']}"
    if report["regime"] != expect["regime"]:
        return f"regime {report['regime']}, oracle {expect['regime']}"
    named = _named(expect["algebra"])
    p_rows, r3_rows = oracles.PINNED_ROWS[report["regime"]]
    for key, arity, rows in (("p", 2, p_rows), ("r3", 3, r3_rows)):
        table = oracles.term_table(named, report[key], arity)
        if list(table) != report[f"{key}_table"]:
            return f"{key} = {report[key]} does not have the reported table"
        if not oracles.meets_rows(table, rows):
            return f"{key} = {report[key]} misses the regime's rows"
    return None


def check_clone(q, code, report, answers):
    expect = q["expect"]
    named = _named(expect["algebra"])
    tables = {oracles.term_table(named, term, expect["arity"]) for term in report["terms"]}
    if len(tables) != len(report["terms"]) or len(tables) != report["tables"]:
        return "terms do not give distinct tables"
    if report["exhausted"]:
        return None if code == EXIT_INCONCLUSIVE else f"exit {code} on an exhausted search"
    if code != EXIT_DECIDED:
        return f"exit {code}"
    if not oracles.is_closed_table_set(_ops(named), tables, expect["arity"]):
        return "claimed fixpoint is not closed under the operations"
    return None


def check_gen(q, code, report, answers):
    expect = q["expect"]
    if code != EXIT_DECIDED or report["method"] != "exact":
        return f"exit {code}, method {report.get('method')}"
    if report["size"] != expect["size"]:
        return f"size {report['size']}, oracle {expect['size']}"
    witness = [tuple(int(c) for c in w) for w in report["witness"]]
    if len(set(witness)) != expect["size"]:
        return "witness does not have the reported size"
    if not oracles.generates(_ops(_named(expect["algebra"])), witness):
        return "witness does not generate the power"
    return None


def check_reduce(q, code, report, answers):
    if code != EXIT_DECIDED:
        return f"exit {code}"
    if report["satisfiable"] != q["expect"]["satisfiable"]:
        return f"satisfiable {report['satisfiable']}, oracle {q['expect']['satisfiable']}"
    return None


def check_solve(q, code, report, answers):
    if code != EXIT_DECIDED:
        return f"exit {code}: {report.get('inconclusive') or report.get('error')}"
    if report["true"] != q["expect"]["true"]:
        return f"answered {report['true']}, oracle {q['expect']['true']}"
    return None


def check_naesat(q, code, report, answers):
    expect = q["expect"]
    if code != EXIT_DECIDED:
        return f"exit {code}"
    for key in ("variables", "clauses", "true", "brute_satisfiable"):
        if report.get(key) != expect[key]:
            return f"{key} {report.get(key)}, oracle {expect[key]}"
    return None


CHECKS = {
    "switchable": check_switchable,
    "collapsible": check_collapsible,
    "classify3": check_classify3,
    "egp": check_egp,
    "witnesses": check_witnesses,
    "clone": check_clone,
    "gen": check_gen,
    "reduce": check_reduce,
    "solve": check_solve,
    "naesat": check_naesat,
}


def check(question: dict, code: int, report: dict, answers: dict):
    try:
        return CHECKS[question["kind"]](question, code, report, answers)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"
