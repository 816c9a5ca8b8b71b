import json
import os

from qforge import files
from qforge.cli import (
    EXIT_DECIDED,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    cli_dispatch,
    main,
    run_suite,
)

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


class TestDispatch:
    def test_unknown_subcommand(self):
        code, report = cli_dispatch(["frobnicate"])
        assert code == EXIT_ERROR

    def test_missing_file(self):
        code, report = cli_dispatch(["algebra", "egp", "no-such-file.alg"])
        assert code == EXIT_ERROR
        assert "error" in report

    def test_egp_semilattice(self):
        code, report = cli_dispatch(["algebra", "egp", sample("semilattice.alg")])
        assert code == EXIT_DECIDED
        assert report["alpha"] == [0, 2] and report["beta"] == [1, 2]

    def test_classify3(self):
        code, report = cli_dispatch(["algebra", "classify3", sample("semilattice.alg")])
        assert code == EXIT_DECIDED
        assert report["class"] == "coNP-complete"

    def test_witness_pair_inconclusive_exit(self):
        code, report = cli_dispatch(["algebra", "witnesses", sample("projections3.alg")])
        assert code == EXIT_INCONCLUSIVE
        assert report["found"] is False

    def test_pp_verify(self):
        code, report = cli_dispatch(
            ["relations", "pp-verify", "--k", "1", "--alpha", "0,2", "--beta", "1,2"]
        )
        assert code == EXIT_DECIDED and report["verified"] is True

    def test_powers_gen(self):
        code, report = cli_dispatch(["powers", "gen", sample("semilattice.alg"), "--m", "1"])
        assert code == EXIT_DECIDED
        assert report["size"] == 2 and report["witness"] == ["0", "1"]
        # beyond the exact cap, the forced tuples decide the size
        code, report = cli_dispatch(["powers", "gen", sample("semilattice.alg"), "--m", "3"])
        assert code == EXIT_DECIDED
        assert report["size"] == 8 and report["method"] == "forced"

    def test_gadget_emission_round_trips(self, tmp_path):
        out = tmp_path / "tau.struct"
        code, report = cli_dispatch(
            ["gadgets", "tau", "--k", "2", "--alpha", "0,2", "--beta", "1,2", "--out", str(out)]
        )
        assert code == EXIT_DECIDED
        struct = files.load_structure(str(out))
        assert struct.relation("tau2").arity == 6

    def test_gadget_tuples_budget(self):
        code, report = cli_dispatch(["gadgets", "tau", "--k", "4", "--tuples"])
        assert code == EXIT_INCONCLUSIVE
        code, report = cli_dispatch(["gadgets", "tau", "--k", "4", "--dnf"])
        assert code == EXIT_DECIDED

    def test_qcsp_solve_methods(self):
        for method in ("brute", "universal"):
            code, report = cli_dispatch(
                ["qcsp", "solve", sample("pair.struct"), sample("holds.sentence")]
                + (["--method", method] if method != "brute" else [])
            )
            if method == "universal":
                assert code == EXIT_ERROR  # the sentence has an existential
            else:
                assert code == EXIT_DECIDED and report["true"] is True

    def test_qcsp_reduce(self):
        code, report = cli_dispatch(
            [
                "qcsp",
                "reduce",
                sample("pair.struct"),
                sample("holds.sentence"),
                "--k",
                "1",
                "--assume-switchable",
            ]
        )
        assert code == EXIT_DECIDED
        assert report["satisfiable"] is True

    def test_qcsp_reduce_refuses_without_verification(self):
        code, report = cli_dispatch(
            ["qcsp", "reduce", sample("pair.struct"), sample("holds.sentence"), "--k", "1"]
        )
        assert code == EXIT_ERROR
        assert "unverified" in report["error"]

    def test_reduce_pi2(self):
        code, report = cli_dispatch(
            ["reduce", "pi2", sample("example.pi2"), "--case", "B", "--eval"]
        )
        assert code == EXIT_DECIDED
        assert report["alternation"] == "Pi_2"

    def test_relations_essential(self):
        code, report = cli_dispatch(["relations", "essential", sample("pair.struct"), "--rel", "neq"])
        assert code == EXIT_DECIDED
        assert report["relations"]["neq"]["essential"] is True

    def test_bench_vignette(self):
        code, report = cli_dispatch(["bench", "vignette"])
        assert code == EXIT_DECIDED
        assert report["semilattice"]["class"] == "coNP-complete"
        assert report["switchable"]["class"] == "NP"
        assert report["projections"]["class"] == "Pi2p-hard"

    def test_main_prints_json(self, capsys):
        code = main(["--json", "relations", "pp-verify", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verified"] is True

    def test_json_flag_in_either_position(self, capsys):
        outputs = []
        for argv in (
            ["algebra", "egp", sample("semilattice.alg"), "--json"],
            ["--json", "algebra", "egp", sample("semilattice.alg")],
        ):
            assert main(argv) == EXIT_DECIDED
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["growth"] == "EGP"

    def test_qcsp_preprocess(self, tmp_path):
        path = tmp_path / "const.sentence"
        path.write_text("forall v\nmatrix: v=0\n")
        code, report = cli_dispatch(["qcsp", "preprocess", str(path)])
        assert code == EXIT_DECIDED and report["false"] is True
        path.write_text("exists v\nforall y\nexists z\nmatrix: v=0 & tau1(v,y,z)\n")
        code, report = cli_dispatch(["qcsp", "preprocess", str(path)])
        assert code == EXIT_DECIDED and report["false"] is False
        assert "tau1(0,y,z)" in report["sentence"]
        assert "exists v" not in report["sentence"]

    def test_canon_solve_on_k5_reduction(self, tmp_path, no_dnf_materialization):
        nae = tmp_path / "k5.nae"
        nae.write_text("nae p q r\nnae q r s\nnae r s t\nnae p s t\nnae p q t\n")
        sentence, structure = str(tmp_path / "k5.sentence"), str(tmp_path / "k5.struct")
        code, report = cli_dispatch(
            ["reduce", "naesat", str(nae), "--eval", "--out", sentence, "--out-structure", structure]
        )
        assert code == EXIT_DECIDED and report["true"] is not report["brute_satisfiable"]
        code, solved = cli_dispatch(["qcsp", "solve", structure, sentence, "--method", "canon"])
        assert code == EXIT_DECIDED and solved["true"] is report["true"]

    def test_gadgets_nu(self, tmp_path):
        out = tmp_path / "nu.alg"
        code, report = cli_dispatch(["gadgets", "nu", "--m", "1", "--out", str(out)])
        assert code == EXIT_DECIDED
        assert report["preserves_sigma"] is True
        assert files.load_algebra(str(out)).ops["nu"].arity == 4

    def test_powers_budget_verdicts_exit_two(self, monkeypatch):
        monkeypatch.setenv("QFORGE_BUDGET", "nodes=50")
        code, report = cli_dispatch(
            ["powers", "switchable", sample("switchable.alg"), "--k", "2", "--budget-m", "4"]
        )
        assert code == EXIT_INCONCLUSIVE
        assert report["generates"]["4"] == "budget"

    def test_powers_binary_only_decided_at_large_m(self):
        code, report = cli_dispatch(
            ["powers", "switchable", sample("semilattice.alg"), "--k", "1", "--budget-m", "14"]
        )
        assert code == EXIT_DECIDED
        assert [report["generates"][str(m)] for m in (12, 13, 14)] == [False] * 3

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("QFORGE_BUDGET", "depth=1,nodes=123")
        from qforge.cli import Budgets

        budgets = Budgets.from_env()
        assert budgets.depth == 1 and budgets.nodes == 123

    def test_budget_depth_flag(self):
        # depth 0 leaves only projections, so no witness pair can appear
        code, report = cli_dispatch(
            ["--budget-depth", "0", "algebra", "witnesses", sample("switchable.alg")]
        )
        # argparse puts top-level flags before the subcommand
        assert code == EXIT_INCONCLUSIVE
        assert report["budget_depth"] == 0


class TestSuite:
    def test_bundled_manifest_passes(self, tmp_path):
        out = tmp_path / "records.jsonl"
        code, summary = run_suite(sample("suite.json"), out_path=str(out))
        assert code == EXIT_DECIDED
        assert summary["result"] == "pass"
        lines = out.read_text().strip().split("\n")
        assert len(lines) == summary["steps"]

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"steps": []}')
        code, summary = run_suite(str(path))
        assert code == EXIT_DECIDED
        assert summary["steps"] == 0

    def test_inconclusive_step_marks_suite_inconclusive(self, tmp_path):
        manifest = {
            "steps": [
                {
                    "name": "verify",
                    "argv": ["relations", "pp-verify", "--k", "1"],
                    "expect_exit": 0,
                },
                {
                    "name": "no witness expected",
                    "argv": ["algebra", "witnesses", sample("projections3.alg")],
                    "expect_exit": 2,
                },
            ]
        }
        path = tmp_path / "inconclusive.json"
        path.write_text(json.dumps(manifest))
        code, summary = run_suite(str(path))
        assert code == EXIT_INCONCLUSIVE
        assert summary["result"] == "inconclusive"

    def test_drift_fails_suite(self, tmp_path):
        manifest = {
            "steps": [
                {
                    "argv": ["relations", "pp-verify", "--k", "1"],
                    "expect_report": {"verified": False},
                }
            ]
        }
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(manifest))
        code, summary = run_suite(str(path))
        assert code == EXIT_ERROR
        assert summary["result"] == "fail"

    def test_records_are_deterministic(self, tmp_path):
        manifest = {
            "steps": [
                {"argv": ["algebra", "egp", sample("semilattice.alg")]},
                {"argv": ["powers", "gen", sample("semilattice.alg"), "--m", "1"]},
            ]
        }
        path = tmp_path / "det.json"
        path.write_text(json.dumps(manifest))

        def scrubbed(records_path):
            out = []
            for line in open(records_path):
                record = json.loads(line)
                record.pop("wall_ms", None)
                out.append(json.dumps(record, sort_keys=True))
            return out

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_suite(str(path), out_path=str(a))
        run_suite(str(path), out_path=str(b))
        assert scrubbed(a) == scrubbed(b)
