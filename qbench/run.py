"""qforge benchmark: one workload, one process, one thread, closed loop.

    python3 qbench/run.py --workload probe|reduce|canon --seed N --seconds S --trace 0|1

Generates the workload's inputs and oracle answers from the seed
(``gen.py``, in a child process that never imports qforge), times the
workload's set-up in fresh interpreters (``setup_probe.py``), then asks the
workload's questions in whole rounds for about S seconds.  Each
question is one qforge CLI verb run in-process through
``qforge.cli.cli_dispatch``; each answer is checked against its oracle
answer (``checks.py``).  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, end-to-end ones with
``--trace 0`` and per-layer ones (``layers.py``) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("probe", "reduce", "canon")
#: fewest set-ups timed per run; one more is timed before every round
SETUP_MIN = 9
#: passes per round: a question with "asks": 1 is asked in one pass (the
#: heavy ones, spread over the passes), every other question in every pass
PASSES = 2
KNOWN_REFUSAL = "refusing to materialize"


class Session:
    """Asks a workload's questions round after round and keeps the tallies."""

    def __init__(self, questions: list, cli):
        self.cli = cli  # looked up per call, so the tracer's wrapper is seen
        single = [q["id"] for q in questions if q.get("asks") == 1]
        self.schedule = [
            q
            for p in range(PASSES)
            for q in questions
            if q.get("asks") != 1 or single.index(q["id"]) % PASSES == p
        ]
        self.answers: dict = {}  # question id -> latest report
        self.latencies: list = []  # seconds, one per ask
        self.by_question: dict = {}  # question id -> seconds of each of its asks
        self.round_seconds: list = []
        self.failed = 0
        self.failures: dict = {}  # question id -> (expected?, reason)
        self.verdicts: dict = {}  # (question id, answer digest) -> check result

    def ask_round(self, tracer=None):
        answers = self.answers
        spent = 0.0
        for q in self.schedule:
            if tracer is not None:
                tracer.question = q["id"]
            start = time.perf_counter()
            try:
                code, report = self.cli.cli_dispatch(q["argv"])
            except Exception as exc:  # a crash is a failed question, not a failed run
                elapsed = time.perf_counter() - start
                code, report = -1, {"crash": f"{type(exc).__name__}: {exc}"}
            else:
                elapsed = time.perf_counter() - start
            spent += elapsed
            self.latencies.append(elapsed)
            self.by_question.setdefault(q["id"], []).append(elapsed)
            answers[q["id"]] = report
            digest = hashlib.sha1(json.dumps(report, sort_keys=True).encode()).hexdigest()
            key = (q["id"], code, digest)
            if "above" in q or key not in self.verdicts:
                self.verdicts[key] = (
                    checks.check(q, code, report, answers) if code >= 0 else report["crash"]
                )
            reason = self.verdicts[key]
            if reason is not None:
                self.failed += 1
                expected = (
                    "known_failure" in q
                    and code == checks.EXIT_INCONCLUSIVE
                    and KNOWN_REFUSAL in str(report.get("inconclusive", ""))
                )
                self.failures.setdefault(q["id"], (expected, reason))
        self.round_seconds.append(spent)

    def ask_for(self, seconds: float, tracer=None, before_round=None, min_rounds=1):
        """Whole rounds, at least `min_rounds`, and no round that would
        likely end after `seconds` have passed."""
        start = time.perf_counter()
        rounds = 0
        while True:
            if before_round is not None:
                before_round()
            self.ask_round(tracer)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                return

    def unexpected(self) -> list:
        return [qid for qid, (expected, _) in self.failures.items() if not expected]


def time_setup(questions_path: str) -> float:
    child = subprocess.run(
        [sys.executable, os.path.join("qbench", "setup_probe.py"), "src", questions_path],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(child.stdout)


def end_to_end(session: Session, setup: list) -> dict:
    """Throughput over every ask of the run; latency percentiles over the
    workload's distinct questions, each at the mean wall time of its asks.

    On a shared machine the speed changes between spells within a run.  A
    percentile over single asks takes the fast or the slow spell's value of
    the question it lands on, whichever spell covered more of that
    question's asks, so it jumps between runs; a question's mean moves in
    proportion to the share of its asks that ran slow, as the throughput
    does."""
    seconds = sum(session.latencies)
    per_question = [1000 * statistics.fmean(v) for v in session.by_question.values()]
    deciles = statistics.quantiles(per_question, n=10, method="inclusive")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "questions_per_s": {"value": len(session.latencies) / seconds, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(per_question), "unit": "ms"},
        "latency_p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def per_layer(session: Session, seconds: float, work: str) -> dict:
    """Half the time untraced, half traced.  Per-layer times are medians over
    the traced rounds, counts those of one round (every round repeats them);
    the overhead compares the median answering time of a round in the two
    halves."""
    session.ask_for(seconds / 2)
    untraced = statistics.median(session.round_seconds)
    untraced_rounds = len(session.round_seconds)

    tracer = layers.Tracer()
    tracer.install()
    layer_rounds, count_rounds, marks = [], [], []

    def next_round():
        if marks:
            layer_rounds.append(tracer.layer_ms(marks[-1]))
            count_rounds.append(dict(tracer.counts))
        marks.append(len(tracer.spans))
        tracer.start_round()

    try:
        session.ask_for(seconds / 2, tracer, next_round)
        layer_rounds.append(tracer.layer_ms(marks[-1]))
        count_rounds.append(dict(tracer.counts))
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(work, "spans.jsonl"))

    traced = statistics.median(session.round_seconds[untraced_rounds:])
    metrics = {}
    for name in layers.TIME_METRICS:
        value = statistics.median(r[name] for r in layer_rounds)
        metrics[name] = {"value": value, "unit": "ms"}
    for name in layers.COUNT_METRICS:
        values = {r[name] for r in count_rounds}
        if len(values) != 1:
            print(f"count {name} differs between rounds: {sorted(values)}")
        metrics[name] = {"value": count_rounds[0][name], "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": 100 * (traced / untraced - 1), "unit": "%"}
    print(
        f"traced rounds {len(layer_rounds)}: {traced:.3f} s answering per round; "
        f"untraced rounds {untraced_rounds}: {untraced:.3f} s"
    )
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.3f} {metric['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qforge", "cli.py")):
        print(f"qbench: no qforge sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(".qbench_work", f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run(
        [sys.executable, os.path.join("qbench", "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", work],
        check=True, stdout=subprocess.DEVNULL, timeout=150,
    )
    questions_path = os.path.join(work, "questions.json")
    with open(questions_path, encoding="utf-8") as fh:
        questions = json.load(fh)["questions"]

    sys.path.insert(0, SRC)
    import qforge.cli

    if not os.path.abspath(qforge.cli.__file__).startswith(SRC + os.sep):
        print(f"qbench: imported qforge from {qforge.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    session = Session(questions, qforge.cli)
    if args.trace:
        metrics = per_layer(session, args.seconds, work)
    else:
        setup: list = []
        session.ask_for(
            args.seconds, before_round=lambda: setup.append(time_setup(questions_path)),
            min_rounds=2,
        )
        while len(setup) < SETUP_MIN:
            setup.append(time_setup(questions_path))
        metrics = end_to_end(session, setup)

    for qid, (expected, reason) in sorted(session.failures.items()):
        q = next(q for q in questions if q["id"] == qid)
        label = "expected failure" if expected else "FAILED"
        print(f"{label} {qid} qforge {' '.join(q['argv'])}: {reason}")
    print(
        f"{args.workload} seed {args.seed}: {len(session.round_seconds)} rounds of "
        f"{len(questions)} questions, {len(session.latencies)} attempted, {session.failed} failed"
    )
    result = {
        "correct": not session.unexpected(),
        "attempted": len(session.latencies),
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
