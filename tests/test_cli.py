import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from iopsim import config
from iopsim.cli import FLAGS, main
from iopsim.scenarios import SCENARIOS
from iopsim.serialize import dumps, matrix_to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestRun:
    @pytest.mark.parametrize("scenario", ["stern-gerlach", "cat", "spin-one"])
    def test_scenarios_exit_zero(self, scenario, capsys):
        assert run_cli(["run", scenario]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_two_slit_exit_zero(self, capsys):
        assert run_cli(["run", "two-slit", "--grid", "64",
                        "--slits", "20:22,42:44", "--steps", "20"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--grid", "256", "--hbar", "2.5"],
        ["--grid", "256", "--slits", "80:84,172:176", "--steps", "40"],
    ], ids=["grid-256-hbar-2.5", "grid-256-far-slits"])
    def test_two_slit_before_the_waves_meet_exits_zero(self, argv, capsys):
        # the slits' waves have not met in the central window: both
        # interference checks are vacuous rather than a last-bit verdict
        assert run_cli(["run", "two-slit", *argv]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "all checks passed" in out

    def test_prior_below_the_zero_weight_floor_exits_zero(self, capsys):
        assert run_cli(["run", "stern-gerlach", "--p-up", "1e-13"]) == 0
        out, err = capsys.readouterr()
        assert "all checks passed" in out and "Traceback" not in err

    def test_json_output_parses(self, capsys):
        assert run_cli(["run", "spin-one", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "spin-one"
        assert payload["all_pass"] is True

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run_cli(["run", "cat", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "cat"
        # with --out and no --json, stdout stays quiet
        assert capsys.readouterr().out == ""

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run", "stern-gerlach", "--seed", "42", "--mc-samples", "2000"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_module_entry_point(self):
        # an uninstalled checkout runs the CLI as `python -m iopsim`
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-m", "iopsim", "run", "cat"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "all checks passed"

    def test_impossible_tolerance_exits_two(self, capsys):
        code = run_cli(["run", "spin-one", "--tol",
                        "max_contracts_to_mixture=1e-300"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_tolerance_exits_one(self, capsys):
        assert run_cli(["run", "spin-one", "--tol", "bogus=1.0"]) == 1

    def test_malformed_tolerance_exits_one(self, capsys):
        assert run_cli(["run", "spin-one", "--tol", "nonsense"]) == 1

    def test_bad_slits_exit_one(self, capsys):
        assert run_cli(["run", "two-slit", "--slits", "40-44"]) == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IOPSIM_SEED", "7")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["run", "stern-gerlach", "--mc-samples", "2000"]
        assert run_cli(base + ["--out", str(a)]) == 0
        monkeypatch.delenv("IOPSIM_SEED")
        assert run_cli(base + ["--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCallTimeDefaults:
    """The parser is built once; its call-time defaults are read per call."""

    def test_env_seed_set_after_first_call(self, tmp_path, monkeypatch):
        monkeypatch.delenv("IOPSIM_SEED", raising=False)
        base = ["run", "stern-gerlach", "--mc-samples", "2000"]
        unset, env, flag = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        assert run_cli(base + ["--out", str(unset)]) == 0
        monkeypatch.setenv("IOPSIM_SEED", "7")
        assert run_cli(base + ["--out", str(env)]) == 0
        monkeypatch.delenv("IOPSIM_SEED")
        assert run_cli(base + ["--seed", "7", "--out", str(flag)]) == 0
        assert env.read_bytes() == flag.read_bytes()
        assert env.read_bytes() != unset.read_bytes()

    def test_hbar_set_after_first_call(self, tmp_path):
        default, ambient, flag = (tmp_path / n for n in ("a.json", "b.json",
                                                          "c.json"))
        assert run_cli(["run", "cat", "--out", str(default)]) == 0
        with config.hbar(2.5):
            assert run_cli(["run", "cat", "--out", str(ambient)]) == 0
        assert run_cli(["run", "cat", "--hbar", "2.5", "--out", str(flag)]) == 0
        assert ambient.read_bytes() == flag.read_bytes()
        assert ambient.read_bytes() != default.read_bytes()


class TestRegistry:
    def test_flags_cover_every_scenario(self):
        assert FLAGS.keys() == SCENARIOS.keys()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_keywords_are_parameters(self, name):
        params = inspect.signature(SCENARIOS[name]).parameters
        for keyword, _, _ in FLAGS[name].values():
            assert keyword in params

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_defaults_are_the_function_defaults(self, name, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv("IOPSIM_SEED", raising=False)
        path = tmp_path / "report.json"
        assert run_cli(["run", name, "--out", str(path)]) == 0
        assert path.read_text() == dumps(SCENARIOS[name]().to_json())

    @pytest.mark.parametrize("argv", [
        ["run", "cat", "--p-up", "0.9"],
        ["run", "spin-one", "--grid", "64"],
        ["run", "stern-gerlach", "--slits", "1:2"],
        ["run", "two-slit", "--mc-samples", "10"],
    ])
    def test_foreign_flag_exits_one(self, argv, capsys):
        assert run_cli(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorContract:
    NAN_FILE = '[{"dim": 1, "entries": [[NaN, 0.0]]}]'

    @pytest.mark.parametrize("argv, env, text, message", [
        (["run", "stern-gerlach", "--mc-samples", "0"], None, None,
         "mc_samples must be positive"),
        (["run", "cat", "--hbar", "0"], None, None,
         "hbar must be positive"),
        (["run", "stern-gerlach"], "abc", None,
         "invalid int value: 'abc'"),
        (["run", "two-slit", "--slits", "40-44"], None, None,
         "slit range must be a:b"),
        (["run", "two-slit", "--grid", "4096"], None, None,
         "grid_n must be in [16, 4095]"),
        (["validate"], None, NAN_FILE,
         "operator 0: malformed (NotFinite)"),
        (["run", "stern-gerlach", "--mc-samples", "100000000000000000000"],
         None, None, "mc_samples must be at most 9223372036854775807"),
        (["run", "stern-gerlach", "--seed", "-1"], None, None,
         "seed must be nonnegative"),
        # an entry past float range: reported in place after operator 0
        (["validate"], None,
         '[{"dim": 1, "entries": [[1, 0]]}, '
         '{"dim": 1, "entries": [[1' + "0" * 400 + ', 0]]}]',
         "operator 1: malformed (ParseError)"),
        # an integer literal past Python's int-from-string digit limit
        (["validate"], None,
         '[{"dim": 1, "entries": [[1' + "0" * 5000 + ', 0]]}]',
         "iopsim: error: Exceeds the limit"),
        # nesting deeper than the JSON decoder's recursion limit
        (["validate"], None, "[" * 100000,
         "iopsim: error: maximum recursion depth exceeded"),
        # yes/no checks take no tolerance, so these names are unknown
        (["run", "stern-gerlach", "--tol", "interaction_dissolves_condensation=1"],
         None, None, "unknown tolerance names"),
        (["run", "cat", "--tol", "superposition_not_condensed=1"], None, None,
         "unknown tolerance names"),
        (["run", "spin-one", "--tol", "disjoint_support_rejected=1"], None, None,
         "unknown tolerance names"),
        (["run", "two-slit", "--tol", "interference_term=1"], None, None,
         "unknown tolerance names"),
        # a tolerance must be a finite positive number, as --hbar must
        (["run", "spin-one", "--tol", "entropy_values=nan"], None, None,
         "tolerance 'entropy_values' must be positive and finite, got nan"),
        (["run", "spin-one", "--tol", "entropy_values=inf"], None, None,
         "tolerance 'entropy_values' must be positive and finite, got inf"),
        # past the stated maximum, not hours of evolution
        (["run", "cat", "--steps", "10001"], None, None,
         "steps must be in [1, 10000], got 10001"),
        # rejected up front, not as a zero-probability outcome deep inside
        (["run", "two-slit", "--grid", "16", "--slits", "3:5", "--p-pass", "1e-300"],
         None, None, "p_pass must be in (ZERO_WEIGHT_FLOOR = 1e-12, 1], got 1e-300"),
    ], ids=["mc-samples-0", "hbar-0", "seed-env-abc", "slits-40-44",
            "grid-over-cap", "validate-nan", "mc-samples-over-int64",
            "seed-negative", "validate-float-overflow",
            "validate-int-digit-limit", "validate-deep-nesting",
            "tol-interaction-dissolves-condensation",
            "tol-superposition-not-condensed", "tol-disjoint-support-rejected",
            "tol-interference-term", "tol-nan", "tol-inf", "cat-steps-over-max",
            "p-pass-below-floor"])
    def test_exits_one_with_message(self, argv, env, text, message, tmp_path,
                                    monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("IOPSIM_SEED", env)
        if text is not None:
            path = tmp_path / "ops.json"
            path.write_text(text)
            argv = argv + [str(path)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert message in (captured.out + captured.err).splitlines()[-1]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_scenario(self, capsys):
        assert run_cli(["run", "no-such-scenario"]) == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(["run", "cat", "--frobnicate"]) == 1


class TestValidate:
    def test_valid_operator(self, tmp_path, capsys):
        path = tmp_path / "ops.json"
        path.write_text(dumps([matrix_to_json(np.eye(2) / 2)]))
        assert run_cli(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_operator(self, tmp_path, capsys):
        path = tmp_path / "ops.json"
        path.write_text(dumps([matrix_to_json(np.diag([0.7, 0.4]))]))
        assert run_cli(["validate", str(path)]) == 2
        assert "invalid" in capsys.readouterr().out

    def test_mixed_file_reports_both(self, tmp_path, capsys):
        path = tmp_path / "ops.json"
        path.write_text(dumps([matrix_to_json(np.eye(2) / 2),
                               matrix_to_json(np.diag([1.5, -0.5]))]))
        assert run_cli(["validate", str(path)]) == 2
        out = capsys.readouterr().out
        assert "operator 0: valid" in out
        assert "operator 1: invalid" in out

    def test_malformed_object_reported_in_place(self, tmp_path, capsys):
        path = tmp_path / "ops.json"
        path.write_text(dumps([matrix_to_json(np.eye(2) / 2),
                               {"dim": 2, "entries": [[1.0, 0.0]]},
                               matrix_to_json(np.eye(3) / 3)]))
        assert run_cli(["validate", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("operator 0: valid")
        assert lines[1].startswith("operator 1: malformed (ParseError)")
        assert lines[2].startswith("operator 2: valid")

    def test_missing_file(self, capsys):
        assert run_cli(["validate", "/no/such/file.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["validate", str(path)]) == 1


class TestSelftest:
    def test_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert "selftest passed" in capsys.readouterr().out
