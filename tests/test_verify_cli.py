"""CLI coverage for the ``verify`` subcommand and the hardened failure
paths: every operator mistake exits non-zero with a one-line
diagnostic on stderr — never a traceback.
"""

import json

import pytest

from repro.cli import (COMPONENT_ALIASES, _parse_scenario, build_parser,
                       main)

pytestmark = pytest.mark.verify


class TestScenarioParsing:
    @pytest.mark.parametrize("spec", ["worst10y", "10y_worst",
                                      "worst-10", "10_worst"])
    def test_spellings_of_worst_ten_years(self, spec):
        scenario = _parse_scenario(spec)
        assert scenario.label == "10y_worst"

    def test_balance_and_fresh(self):
        assert _parse_scenario("balance1y").label == "1y_balance"
        assert _parse_scenario("fresh").label == "fresh"

    def test_fractional_years(self):
        assert _parse_scenario("worst2.5y").label == "2.5y_worst"

    def test_rejects_garbage(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            _parse_scenario("sometimes")


class TestVerifyParser:
    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.command == "verify"
        assert args.scenario == "worst1y,worst10y,balance10y"
        assert args.vectors == 96
        assert args.fuzz == 0
        assert args.seed == 20170618

    def test_compact_component_spec(self):
        # "mult16" == --component multiplier --width 16 via aliases.
        assert COMPONENT_ALIASES["mult"] == "multiplier"
        args = build_parser().parse_args(
            ["verify", "--component", "mult16"])
        assert args.component == "mult16"


class TestVerifyCommand:
    def test_small_adder_passes(self, capsys):
        code = main(["verify", "--component", "add6", "--scenario",
                     "worst10y", "--vectors", "24", "--sweep-bits", "2",
                     "--event-cap", "8", "--effort", "high"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        assert "golden" in out
        assert "bytes/packed/event/timed" in out
        assert "PASS characterize_reference_bit_exact" in out

    def test_fuzz_and_corpus_flags(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        code = main(["verify", "--component", "add4", "--scenario",
                     "worst10y", "--vectors", "12", "--sweep-bits", "1",
                     "--event-cap", "8", "--effort", "high",
                     "--fuzz", "4", "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: 4 netlists" in out
        saved = list(corpus.glob("fuzz_*.json"))
        assert saved
        data = json.loads(saved[0].read_text())
        assert data["schema"] == "repro.verify.netlist/1"


class TestFailurePaths:
    def _assert_one_line_error(self, capsys, needle):
        captured = capsys.readouterr()
        assert needle in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_component(self, capsys):
        code = main(["verify", "--component", "divider8"])
        assert code == 2
        self._assert_one_line_error(capsys, "unknown component")

    def test_unknown_scenario(self, capsys):
        code = main(["verify", "--component", "add6", "--scenario",
                     "sometimes"])
        assert code == 2
        self._assert_one_line_error(capsys, "unknown scenario")

    def test_empty_scenario_list(self, capsys):
        code = main(["verify", "--component", "add6", "--scenario",
                     " , "])
        assert code == 2
        self._assert_one_line_error(capsys, "no scenarios given")

    def test_missing_cache_dir(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "dir"
        code = main(["verify", "--component", "add6", "--cache-dir",
                     str(missing)])
        assert code == 2
        self._assert_one_line_error(capsys, "does not exist")

    def test_missing_cache_dir_other_commands(self, capsys, tmp_path):
        missing = tmp_path / "gone"
        code = main(["timing", "--component", "adder", "--width", "6",
                     "--cache-dir", str(missing)])
        assert code == 2
        self._assert_one_line_error(capsys, "does not exist")
