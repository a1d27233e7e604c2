"""Command-line surface: artifacts, determinism, error reporting."""

import ctypes
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import qfit.cli
from qfit.cli import main
from qfit.problems import load_problem, normalize_problem, save_problem


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def worked_problem_file(tmp_path, worked_instance):
    path = tmp_path / "worked.json"
    save_problem(worked_instance, path)
    return str(path)


@pytest.fixture
def planted_problem_file(runner, tmp_path):
    path = tmp_path / "planted.json"
    invoke(runner, ["generate", "--kind", "random", "--n", "16", "--m", "8",
                    "--planted", "2,5", "--seed", "11", "--out", str(path)])
    return str(path)


def invoke(runner, args, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    return result


def error_payload(result) -> dict:
    """The one error object a failed command printed, after checking exit 2."""
    assert result.exit_code == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestGenerate:
    def test_identity_problem(self, runner, tmp_path):
        out = tmp_path / "identity.json"
        result = invoke(runner, ["generate", "--kind", "identity", "--n", "2",
                                 "--m", "2", "--out", str(out)])
        assert result.exit_code == 0
        problem = load_problem(out)
        np.testing.assert_allclose(problem.design_matrix, np.eye(2))

    def test_seeded_byte_determinism(self, runner, tmp_path):
        args = ["generate", "--kind", "poly", "--n", "8", "--m", "4", "--seed", "42"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert invoke(runner, args + ["--out", str(a)]).exit_code == 0
        assert invoke(runner, args + ["--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_planted_mass_verified_by_oracle(self, runner, tmp_path):
        out = tmp_path / "planted.json"
        result = invoke(runner, ["generate", "--kind", "random", "--n", "16", "--m", "8",
                                 "--planted", "2,5", "--mass", "0.98", "--seed", "3",
                                 "--out", str(out)])
        assert result.exit_code == 0
        from qfit.problems import classical_fit

        lam = classical_fit(load_problem(out)).lambda_
        weights = np.abs(lam) ** 2
        assert weights[[2, 5]].sum() / weights.sum() >= 0.98 - 1e-9

    def test_invalid_spec_fails_with_error_json(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--kind", "identity", "--n", "2",
                                      "--m", "3", "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "GenerationError"


class TestOracle:
    def test_worked_instance_solution(self, runner, worked_problem_file, tmp_path):
        out = tmp_path / "sol.json"
        result = invoke(runner, ["oracle", "--problem", worked_problem_file,
                                 "--out", str(out)])
        assert result.exit_code == 0
        sol = json.loads(out.read_text())
        assert sol["lambda"][0][0] == pytest.approx(0.70711, abs=5e-6)
        assert sol["residualEnergy"] == pytest.approx(0.5, abs=1e-10)

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["oracle", "--problem", "no/such/file.json"])
        assert result.exit_code == 2
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert "error" in payload

    @pytest.mark.parametrize("field, value", [
        pytest.param("kind", "foo", id="kind-unknown"),
        pytest.param("m", 0, id="m-zero"),
        pytest.param("m", 7, id="m-above-columns"),
        pytest.param("x", 1, id="x-short"),
        pytest.param("y", 3, id="y-short"),
    ])
    def test_records_contradicting_the_design_matrix_fail_with_schema_error_json(
            self, runner, tmp_path, field, value):
        path = tmp_path / "problem.json"
        invoke(runner, ["generate", "--kind", "poly", "--n", "4", "--m", "2",
                        "--out", str(path)])
        obj = json.loads(path.read_text())
        if field in ("kind", "m"):
            obj["basis"][field] = value
        else:
            obj["dataSet"][field] = obj["dataSet"][field][:value]
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["oracle", "--problem", str(path)])
        assert result.stdout == ""
        assert error_payload(result)["error"] == "SchemaError"

    def test_custom_basis_takes_m_from_its_matrix(self, runner, tmp_path):
        path = tmp_path / "problem.json"
        invoke(runner, ["generate", "--kind", "random", "--n", "4", "--m", "2",
                        "--out", str(path)])
        obj = json.loads(path.read_text())
        assert obj["basis"]["kind"] == "custom"
        obj["basis"]["m"] = 7
        path.write_text(json.dumps(obj))
        out = tmp_path / "sol.json"
        assert invoke(runner, ["oracle", "--problem", str(path),
                               "--out", str(out)]).exit_code == 0
        assert len(json.loads(out.read_text())["lambda"]) == 2


class TestRun:
    def test_worked_instance_report(self, runner, worked_problem_file, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(runner, ["run", "--problem", worked_problem_file,
                                 "-T", "8", "--t0", str(4 * np.pi),
                                 "--shots", "10000", "--seed", "1",
                                 "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["exactOverlapSq"] == pytest.approx(0.5, abs=1e-8)
        assert report["overlapSqEstimate"] == pytest.approx(0.5, abs=0.03)
        assert report["lambdaFidelity"] >= 1 - 1e-8
        assert report["config"]["seed"] == 1

    def test_rerun_from_embedded_config_is_byte_identical(self, runner,
                                                          worked_problem_file, tmp_path):
        first = tmp_path / "r1.json"
        args = ["run", "--problem", worked_problem_file, "-T", "8",
                "--t0", str(4 * np.pi), "--shots", "2000", "--seed", "9"]
        assert invoke(runner, args + ["--out", str(first)]).exit_code == 0
        config = json.loads(first.read_text())["config"]
        second = tmp_path / "r2.json"
        replay = ["run", "--problem", config["problem"], "-T", str(config["T"]),
                  "--t0", config["t0"], "--c", config["C"],
                  "--variant", config["variant"], "--window", config["window"],
                  "--shots", str(config["shots"]), "--delta", str(config["delta"]),
                  "--epsilon", str(config["epsilon"]), "--seed", str(config["seed"]),
                  "--out", str(second)]
        assert invoke(runner, replay).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_env_seed_fallback(self, runner, worked_problem_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run", "--problem", worked_problem_file, "-T", "8",
                "--t0", str(4 * np.pi), "--shots", "500"]
        assert invoke(runner, args + ["--out", str(a)], env={"QFIT_SEED": "77"}).exit_code == 0
        assert invoke(runner, args + ["--out", str(b)], env={"QFIT_SEED": "77"}).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["masterSeed"] == 77

    @pytest.mark.parametrize("damage", ["basis", "m", "yVector", "normScale"])
    def test_malformed_problem_file_fails_with_schema_error_json(self, runner, tmp_path,
                                                                damage):
        path = tmp_path / "problem.json"
        assert invoke(runner, ["generate", "--kind", "poly", "--n", "4", "--m", "2",
                               "--out", str(path)]).exit_code == 0
        obj = json.loads(path.read_text())
        if damage == "basis":
            obj["basis"] = ["polynomial", 2]
        elif damage == "m":
            del obj["basis"]["m"]
        elif damage == "yVector":
            obj["yVector"].append([0.0, 0.0])
        else:
            obj["normScale"][0] = -1.0
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["run", "--problem", str(path), "-T", "64",
                                      "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        payload = json.loads(result.stderr.strip().splitlines()[-1])
        assert payload["error"] == "SchemaError"

    def test_aliasing_config_rejected(self, runner, worked_problem_file, tmp_path):
        result = runner.invoke(main, ["run", "--problem", worked_problem_file,
                                      "-T", "8", "--t0", "1000.0",
                                      "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"

    def test_automatic_t0_at_the_smallest_clock_names_the_clock(self, runner,
                                                                worked_problem_file,
                                                                tmp_path):
        # At T = 2 the automatic t0 has no bin to sit on; the error names T
        # and the fix, not the t0 the user never set.
        args = ["run", "--problem", worked_problem_file, "-T", "2",
                "--out", str(tmp_path / "x.json")]
        payload = error_payload(runner.invoke(main, args))
        assert payload["error"] == "ConfigError"
        assert "T = 2" in payload["message"]
        assert "T >= 4" in payload["message"]
        assert "--t0" in payload["message"]
        assert "t0 > 0" not in payload["message"]
        # An explicit t0 below the aliasing limit still runs at T = 2.
        assert invoke(runner, [*args, "--t0", "1.0"]).exit_code == 0


class TestLearn:
    def test_planted_learn_report(self, runner, tmp_path):
        problem_path = tmp_path / "planted.json"
        invoke(runner, ["generate", "--kind", "random", "--n", "16", "--m", "8",
                        "--planted", "2,5", "--mass", "0.95", "--seed", "11",
                        "--out", str(problem_path)])
        out = tmp_path / "learn.json"
        result = invoke(runner, ["learn", "--problem", str(problem_path),
                                 "-T", "256", "--window", "sine",
                                 "--m-prime", "2", "--shots", "2000",
                                 "--seed", "11", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["recoveredSupport"] == [2, 5]
        assert report["reconstructionFidelity"] >= 0.75
        assert report["config"]["mPrime"] == 2


class TestNonFiniteSettings:
    @pytest.mark.parametrize("command, flag, value, named", [
        ("run", "--t0", "nan", "t0"),
        ("run", "--t0", "inf", "t0"),
        ("run", "--c", "nan", "C"),
        ("learn", "--c", "nan", "C"),
        ("learn", "--t0", "-inf", "t0"),
    ])
    def test_fails_with_config_error_json_and_no_warning(self, runner, tmp_path,
                                                         planted_problem_file,
                                                         command, flag, value, named):
        args = [command, "--problem", planted_problem_file, "-T", "64", flag, value,
                "--out", str(tmp_path / "x.json")]
        if command == "learn":
            args += ["--m-prime", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert [str(w.message) for w in caught] == []
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert f"{named} must be finite" in payload["message"]


class TestCost:
    def test_reference_value_via_alias(self, runner):
        result = invoke(runner, ["cost", "--n", "1024", "--s", "2", "--kappa", "2",
                                 "--eps", "0.1", "--alg", "eq3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["queries"] == pytest.approx(51200.0)

    def test_csv_export(self, runner):
        result = invoke(runner, ["cost", "--n", "1024", "--s", "2", "--kappa", "2",
                                 "--eps", "0.1", "--alg", "eq3", "--csv"])
        assert result.exit_code == 0
        header, row = result.output.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["queries"]) == pytest.approx(51200.0)
        assert values["algorithm"] == "prepare"

    def test_bad_query(self, runner):
        result = runner.invoke(main, ["cost", "--n", "1", "--s", "1", "--kappa", "1",
                                      "--eps", "0.5"])
        assert result.exit_code == 2

    def test_exponentially_large_n_is_priced(self, runner):
        n = 10**29
        result = invoke(runner, ["cost", "--n", str(n), "--s", "2", "--kappa", "2",
                                 "--eps", "0.1", "--alg", "eq3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["query"]["n"] == n
        assert payload["queries"] == pytest.approx(math.log2(n) * 8 * 64 / 0.1, rel=1e-12)


class TestErrorBoundary:
    """Every command reports qfit and file errors as one error object, exit 2."""

    @staticmethod
    def _args(command, problem_file, out):
        problem = ["--problem", problem_file]
        return {
            "generate": ["generate", "--kind", "poly", "--n", "4", "--m", "2"],
            "oracle": ["oracle", *problem],
            "run": ["run", *problem, "-T", "64", "--shots", "100"],
            "learn": ["learn", *problem, "-T", "64", "--shots", "100", "--m-prime", "2"],
            "cost": ["cost", "--n", "4", "--s", "1", "--kappa", "2", "--eps", "0.1"],
        }[command] + ["--out", out]

    @pytest.mark.parametrize("command, flags", [
        ("generate", []), ("oracle", []), ("run", []), ("learn", []),
        ("cost", []), ("cost", ["--csv"]),
    ], ids=["generate", "oracle", "run", "learn", "cost", "cost-csv"])
    def test_unwritable_output_fails_with_error_json(self, runner, tmp_path,
                                                     planted_problem_file, command, flags):
        out = str(tmp_path / "no" / "x.json")
        result = runner.invoke(main, self._args(command, planted_problem_file, out) + flags)
        assert error_payload(result)["error"] == "FileNotFoundError"

    def test_bad_planted_support_fails_with_generation_error_json(self, runner):
        result = runner.invoke(main, ["generate", "--kind", "poly", "--n", "4", "--m", "2",
                                      "--planted", "a", "--out", "-"])
        payload = error_payload(result)
        assert payload["error"] == "GenerationError"
        assert "--planted" in payload["message"]

    @pytest.mark.parametrize("command, flags", [
        pytest.param("learn", ["--alpha", "nan"], id="learn-alpha-nan"),
        pytest.param("learn", ["--alpha", "inf"], id="learn-alpha-inf"),
        pytest.param("cost", ["--kappa", "1e300"], id="cost-kappa-overflow"),
        pytest.param("cost", ["--alg", "alg2", "--delta", "1e-200"], id="cost-delta-underflow"),
        pytest.param("run", ["--delta", "1e-200"], id="run-delta-underflow"),
        pytest.param("cost", ["--kappa", "nan"], id="cost-kappa-nan"),
        pytest.param("cost", ["--kappa", "inf"], id="cost-kappa-inf"),
        pytest.param("run", ["--shots", str(10**29)], id="run-shots-overflow"),
        pytest.param("learn", ["--shots", str(10**29)], id="learn-shots-overflow"),
        pytest.param("learn", ["--alpha", "1e300"], id="learn-alpha-overflow"),
        pytest.param("learn", ["--tom-epsilon", "1e-300"], id="learn-tom-epsilon-underflow"),
        pytest.param("run", ["--seed", "-1"], id="run-seed-negative"),
        pytest.param("learn", ["--seed", "-1"], id="learn-seed-negative"),
        pytest.param("generate", ["--seed", "-1"], id="generate-seed-negative"),
    ])
    def test_out_of_range_setting_fails_with_config_error_json(self, runner, tmp_path,
                                                               planted_problem_file,
                                                               command, flags):
        out = str(tmp_path / "x.json")
        args = self._args(command, planted_problem_file, out) + flags
        result = runner.invoke(main, args)
        assert error_payload(result)["error"] == "ConfigError"

    def test_negative_env_seed_fails_with_config_error_json(self, runner, tmp_path,
                                                            planted_problem_file):
        args = self._args("run", planted_problem_file, str(tmp_path / "x.json"))
        result = runner.invoke(main, args, env={"QFIT_SEED": "-1"})
        assert error_payload(result)["error"] == "ConfigError"

    def test_problem_file_that_is_not_utf8_fails_with_schema_error_json(self, runner,
                                                                        tmp_path):
        path = tmp_path / "problem.json"
        path.write_bytes(b'\xff\xfe{"kind": "fit-problem"}')
        result = runner.invoke(main, ["run", "--problem", str(path), "-T", "64"])
        assert result.stdout == ""
        assert error_payload(result)["error"] == "SchemaError"

    @pytest.mark.parametrize("y0", [1e-14, 0.0])
    def test_support_orthogonal_to_y_fails_with_postselection_error_json(self, runner,
                                                                         tmp_path, y0):
        path = tmp_path / "problem.json"
        save_problem(normalize_problem([[1.0, -2.0], [0.0, 1.0], [0.0, 0.0]],
                                       [y0, 1.0, 0.0]), path)
        result = runner.invoke(main, ["learn", "--problem", str(path), "-T", "256",
                                      "--m-prime", "1", "--seed", "0"])
        payload = error_payload(result)
        assert payload["error"] == "PostselectionError"
        assert "support (0,)" in payload["message"]

    @pytest.mark.parametrize("command", ["run", "learn"])
    def test_unpriceable_settings_fail_before_any_pass(self, runner, tmp_path, monkeypatch,
                                                       planted_problem_file, command):
        import qfit.algorithms

        calls = []
        apply_pass = qfit.algorithms.apply_hermitian_via_pe

        def counted(*args, **kwargs):
            calls.append(1)
            return apply_pass(*args, **kwargs)

        monkeypatch.setattr(qfit.algorithms, "apply_hermitian_via_pe", counted)
        args = self._args(command, planted_problem_file, str(tmp_path / "x.json"))
        result = runner.invoke(main, args + ["--delta", "1e-200"])
        assert error_payload(result)["error"] == "ConfigError"
        assert calls == []

    @pytest.mark.parametrize("flags", [
        pytest.param(["--kind", "random", "--planted", "0", "--noise", "nan"], id="noise-nan"),
        pytest.param(["--kind", "random", "--planted", "0", "--noise", "-1"], id="noise-negative"),
        pytest.param(["--kind", "poly", "--condition-target", "nan"], id="poly-condition-nan"),
        pytest.param(["--kind", "random", "--condition-target", "nan"],
                     id="random-condition-nan"),
        pytest.param(["--kind", "random", "--condition-target", "inf"],
                     id="random-condition-inf"),
    ])
    def test_bad_generate_number_fails_with_generation_error_json(self, runner, tmp_path,
                                                                  flags):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["generate", "--n", "4", "--m", "2", *flags,
                                      "--out", str(out)])
        assert error_payload(result)["error"] == "GenerationError"
        assert not out.exists()

    def test_generate_size_numpy_cannot_index_fails_with_generation_error_json(self, runner,
                                                                             tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["generate", "--kind", "random", "--n", "10000000000",
                                      "--m", "2", "--out", str(out)])
        payload = error_payload(result)
        assert payload["error"] == "GenerationError"
        assert "10000000000" in payload["message"]
        assert not out.exists()

    def test_memory_error_fails_with_error_json(self, runner, monkeypatch):
        def refuse(spec, seed):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(qfit.cli, "generate_problem", refuse)
        result = runner.invoke(main, ["generate", "--kind", "poly", "--n", "10000000000",
                                      "--m", "2", "--out", "-"])
        assert result.stdout == ""
        assert error_payload(result) == {"error": "MemoryError",
                                         "message": "Unable to allocate 149. GiB"}


def test_failed_output_write_keeps_the_old_file(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("old report\n")
    # A lone surrogate cannot be encoded, so the write fails once the
    # temporary file exists.
    with pytest.raises(UnicodeEncodeError):
        qfit.cli._write_text("x" * 100_000 + "\ud800", str(out))
    assert out.read_bytes() == b"old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_runs_reuse_freed_memory(runner, tmp_path):
    """A repeated run takes its arrays from the heap, not from new pages."""
    resource = pytest.importorskip("resource")
    problem = str(tmp_path / "problem.json")
    invoke(runner, ["generate", "--kind", "random", "--n", "40", "--m", "24", "--seed", "5",
                    "--out", problem])
    args = ["run", "--problem", problem, "-T", "1024", "--out", str(tmp_path / "report.json")]
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert invoke(runner, args).exit_code == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[-1] < 1000, faults
