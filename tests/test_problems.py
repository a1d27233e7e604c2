"""Fit-problem construction, normalization, oracle, and generation."""

import json
import os
import stat

import numpy as np
import pytest

import qfit.problems
from qfit.exceptions import DimensionError, GenerationError, SchemaError
from qfit.problems import (
    BASIS_FOURIER,
    BASIS_POLYNOMIAL,
    FitBasis,
    ProblemSpec,
    build_design_matrix,
    classical_fit,
    denormalized_solution,
    generate_problem,
    load_problem,
    normalize_problem,
    problem_from_json,
    problem_to_json,
    restrict_columns,
    save_problem,
    write_text_atomic,
)

from conftest import random_complex_matrix, random_complex_vector


class TestBuildDesignMatrix:
    def test_monomials_at_0_and_1(self):
        f = build_design_matrix([0.0, 1.0], FitBasis(BASIS_POLYNOMIAL, 2))
        np.testing.assert_allclose(f, [[1, 0], [1, 1]])

    def test_constant_basis(self):
        f = build_design_matrix([0.0], FitBasis(BASIS_POLYNOMIAL, 1))
        np.testing.assert_allclose(f, [[1]])

    def test_three_point_line(self):
        f = build_design_matrix([0.0, 0.5, 1.0], FitBasis(BASIS_POLYNOMIAL, 2))
        np.testing.assert_allclose(f, [[1, 0], [1, 0.5], [1, 1]])

    def test_fourier_harmonics(self):
        x = np.array([0.0, 0.25])
        f = build_design_matrix(x, FitBasis(BASIS_FOURIER, 2))
        np.testing.assert_allclose(f[:, 0], [1, 1])
        np.testing.assert_allclose(f[:, 1], [1, 1j], atol=1e-12)

    def test_non_finite_evaluation(self):
        basis = FitBasis(BASIS_POLYNOMIAL, 3)
        with pytest.raises(DimensionError):
            build_design_matrix([1e200, 2e200], basis)


class TestNormalizeProblem:
    def test_already_normalized(self):
        prob = normalize_problem(np.eye(2), [1.0, 0.0])
        np.testing.assert_allclose(prob.design_matrix, np.eye(2))
        assert prob.scale_f == pytest.approx(1.0)
        assert prob.scale_y == pytest.approx(1.0)

    def test_scalar_scaling(self):
        prob = normalize_problem([[2.0]], [3.0])
        np.testing.assert_allclose(prob.design_matrix, [[1.0]])
        np.testing.assert_allclose(prob.y, [1.0])
        assert prob.scale_f == pytest.approx(0.5)
        assert prob.scale_y == pytest.approx(1.0 / 3.0)

    def test_column_pair(self):
        prob = normalize_problem([[1.0], [1.0]], [0.0, 1.0])
        np.testing.assert_allclose(prob.design_matrix, np.array([[1], [1]]) / np.sqrt(2))
        np.testing.assert_allclose(prob.y, [0, 1])
        assert prob.scale_f == pytest.approx(1 / np.sqrt(2))

    def test_normalized_band(self, rng):
        for _ in range(10):
            f = random_complex_matrix(rng, 6, 3)
            prob = normalize_problem(f, random_complex_vector(rng, 6, unit=False))
            gram_norm = np.linalg.norm(
                prob.design_matrix.conj().T @ prob.design_matrix, 2
            )
            assert abs(gram_norm - 1.0) <= 1e-10
            assert abs(np.linalg.norm(prob.y) - 1.0) <= 1e-10

    def test_zero_y(self):
        with pytest.raises(DimensionError):
            normalize_problem(np.eye(2), [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            normalize_problem(np.eye(2), [1.0, 0.0, 0.0])


class TestClassicalFit:
    def test_exact_interpolation(self):
        sol = classical_fit(normalize_problem(np.eye(2), [1.0, 0.0]))
        np.testing.assert_allclose(sol.lambda_, [1.0, 0.0])
        assert sol.residual_energy == pytest.approx(0.0, abs=1e-14)

    def test_worked_instance(self, worked_instance):
        sol = classical_fit(worked_instance)
        np.testing.assert_allclose(sol.lambda_, [1 / np.sqrt(2)], atol=1e-12)
        assert sol.residual_energy == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(sol.fitted, [0.5, 0.5], atol=1e-12)

    def test_square_invertible(self):
        prob = normalize_problem([[1.0, 0.0], [1.0, 1.0]], np.array([1.0, 1.0]) / np.sqrt(2))
        sol = classical_fit(prob)
        direction = sol.lambda_ / np.linalg.norm(sol.lambda_)
        np.testing.assert_allclose(np.abs(direction), [1.0, 0.0], atol=1e-12)
        assert sol.residual_energy == pytest.approx(0.0, abs=1e-12)

    def test_residual_identity(self, rng):
        f = random_complex_matrix(rng, 8, 3)
        prob = normalize_problem(f, random_complex_vector(rng, 8))
        sol = classical_fit(prob)
        direct = np.linalg.norm(prob.design_matrix @ sol.lambda_ - prob.y) ** 2
        assert sol.residual_energy == pytest.approx(direct, abs=1e-12)

    def test_rescaling_invariance(self, rng):
        f = random_complex_matrix(rng, 6, 3)
        y = random_complex_vector(rng, 6)
        lam = np.linalg.lstsq(f, y, rcond=None)[0]
        for c in (0.5, 2.0, 7.3):
            lam_c = np.linalg.lstsq(c * f, y, rcond=None)[0]
            np.testing.assert_allclose(lam_c, lam / c, atol=1e-10)
            np.testing.assert_allclose((c * f) @ lam_c, f @ lam, atol=1e-10)

    def test_basis_linearity_recovers_coefficients(self, rng):
        basis = FitBasis(BASIS_POLYNOMIAL, 3)
        x = np.linspace(0, 1, 9)
        coeff = random_complex_vector(rng, 3, unit=False)
        y = build_design_matrix(x, basis) @ coeff
        prob = normalize_problem(build_design_matrix(x, basis), y, basis=basis)
        sol = classical_fit(prob)
        recovered = denormalized_solution(prob, sol)
        np.testing.assert_allclose(recovered.lambda_, coeff, atol=1e-10)
        assert sol.residual_energy <= 1e-10

    def test_denormalization_scalar(self):
        prob = normalize_problem([[2.0]], [3.0])
        orig = denormalized_solution(prob, classical_fit(prob))
        np.testing.assert_allclose(orig.lambda_, [1.5])
        assert orig.residual_energy == pytest.approx(0.0, abs=1e-12)


class TestGenerateProblem:
    def test_identity_kind(self):
        prob = generate_problem(ProblemSpec(n=2, m=2, kind="identity"), seed=0)
        np.testing.assert_allclose(prob.design_matrix, np.eye(2))

    def test_determinism(self):
        spec = ProblemSpec(n=8, m=4, kind="poly")
        a = generate_problem(spec, seed=42)
        b = generate_problem(spec, seed=42)
        np.testing.assert_array_equal(a.design_matrix, b.design_matrix)
        np.testing.assert_array_equal(a.y, b.y)

    def test_planted_mass(self):
        spec = ProblemSpec(
            n=16, m=8, kind="random", planted_support=(2, 5), planted_mass=0.98
        )
        prob = generate_problem(spec, seed=7)
        lam = classical_fit(prob).lambda_
        weights = np.abs(lam) ** 2
        mass = weights[[2, 5]].sum() / weights.sum()
        assert mass >= 0.98 - 1e-9

    def test_planted_with_noise_keeps_dominance(self):
        spec = ProblemSpec(
            n=16, m=8, kind="random", planted_support=(1,), planted_mass=0.9, noise=0.05
        )
        prob = generate_problem(spec, seed=3)
        lam = classical_fit(prob).lambda_
        weights = np.abs(lam) ** 2
        assert np.argmax(weights) == 1

    def test_condition_target_random(self):
        from qfit.linalg import condition_estimate

        prob = generate_problem(
            ProblemSpec(n=10, m=5, kind="random", condition_target=4.0), seed=1
        )
        assert condition_estimate(prob.design_matrix).kappa == pytest.approx(4.0, rel=1e-6)

    def test_zero_condition_target_random_is_rejected(self):
        spec = ProblemSpec(n=10, m=5, kind="random", condition_target=0.0)
        with pytest.raises(GenerationError):
            generate_problem(spec, seed=1)

    def test_fourier_kind(self):
        prob = generate_problem(ProblemSpec(n=8, m=3, kind="fourier"), seed=4)
        assert prob.basis.kind == BASIS_FOURIER
        assert prob.design_matrix.shape == (8, 3)
        # equispaced harmonics give orthogonal columns
        gram = prob.design_matrix.conj().T @ prob.design_matrix
        np.testing.assert_allclose(gram, np.eye(3) * gram[0, 0], atol=1e-12)

    def test_infeasible_condition_target(self):
        spec = ProblemSpec(n=12, m=8, kind="poly", condition_target=2.0)
        with pytest.raises(GenerationError):
            generate_problem(spec, seed=0)

    def test_bad_shapes(self):
        with pytest.raises(GenerationError):
            generate_problem(ProblemSpec(n=2, m=4), seed=0)
        with pytest.raises(GenerationError):
            generate_problem(ProblemSpec(n=3, m=2, kind="identity"), seed=0)

    def test_bad_support(self):
        spec = ProblemSpec(n=8, m=4, kind="random", planted_support=(9,), planted_mass=0.9)
        with pytest.raises(GenerationError):
            generate_problem(spec, seed=0)


class TestProblemFiles:
    def test_roundtrip(self, rng, tmp_path):
        prob = generate_problem(ProblemSpec(n=6, m=3, kind="random"), seed=5)
        path = tmp_path / "problem.json"
        save_problem(prob, path)
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.design_matrix, prob.design_matrix)
        np.testing.assert_array_equal(loaded.y, prob.y)
        assert loaded.scale_f == prob.scale_f
        assert loaded.seed == prob.seed

    def test_functional_basis_roundtrip(self, tmp_path):
        prob = generate_problem(ProblemSpec(n=8, m=3, kind="poly"), seed=11)
        path = tmp_path / "poly.json"
        save_problem(prob, path)
        loaded = load_problem(path)
        assert loaded.basis.kind == BASIS_POLYNOMIAL
        np.testing.assert_array_equal(loaded.design_matrix, prob.design_matrix)

    def test_schema_version_check(self):
        obj = problem_to_json(generate_problem(ProblemSpec(n=2, m=2, kind="identity"), 0))
        obj["schemaVersion"] = 99
        with pytest.raises(SchemaError):
            problem_from_json(obj)

    def test_malformed_file(self):
        with pytest.raises(SchemaError):
            problem_from_json({"schemaVersion": 1})

    def test_denormalized_y_rejected(self):
        obj = problem_to_json(generate_problem(ProblemSpec(n=2, m=2, kind="identity"), 0))
        obj["yVector"] = [[5.0, 0.0], [0.0, 0.0]]
        with pytest.raises(SchemaError):
            problem_from_json(obj)

    def test_basis_not_an_object(self):
        obj = problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind="poly"), 0))
        obj["basis"] = "polynomial"
        with pytest.raises(SchemaError):
            problem_from_json(obj)

    @pytest.mark.parametrize("kind", ["poly", "fourier"])
    def test_functional_basis_without_m(self, kind):
        obj = problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind=kind), 0))
        del obj["basis"]["m"]
        with pytest.raises(SchemaError):
            problem_from_json(obj)

    def test_y_length_differs_from_rows(self):
        obj = problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind="random"), 0))
        obj["yVector"].append([0.0, 0.0])  # still unit norm
        with pytest.raises(SchemaError):
            problem_from_json(obj)

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("scale", [0.0, -0.5, float("inf"), float("nan")])
    def test_norm_scale_not_finite_positive(self, slot, scale):
        obj = problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind="random"), 0))
        obj["normScale"][slot] = scale
        with pytest.raises(SchemaError):
            problem_from_json(obj)

    @pytest.mark.parametrize("field", ["dataSet.x", "designMatrix"])
    @pytest.mark.parametrize(
        "element, error",
        [
            (True, None),
            (False, None),
            (3, None),
            ("1", SchemaError),
            (None, SchemaError),
            ([1.0, 0.0], SchemaError),
            (10**400, SchemaError),
            (float("nan"), DimensionError),
            (float("inf"), DimensionError),
        ],
    )
    def test_pair_element_outcomes(self, field, element, error):
        obj = problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind="random"), 0))
        pairs = obj["dataSet"]["x"] if field == "dataSet.x" else obj["designMatrix"]["entries"]
        pairs[1][0] = element
        if error is not None:
            with pytest.raises(error):
                problem_from_json(obj)
            return
        loaded = problem_from_json(obj)
        read = loaded.data_set.x[1] if field == "dataSet.x" else loaded.design_matrix[0, 1]
        assert read == complex(element, pairs[1][1])

    def test_empty_pair_list(self):
        obj = problem_to_json(generate_problem(ProblemSpec(n=4, m=2, kind="random"), 0))
        obj["dataSet"]["x"] = []
        with pytest.raises(DimensionError):
            problem_from_json(obj)

    def test_byte_determinism(self, tmp_path):
        spec = ProblemSpec(n=8, m=4, kind="poly")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(generate_problem(spec, seed=42), p1)
        save_problem(generate_problem(spec, seed=42), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "problem.json"
        save_problem(generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1), path)
        old = path.read_bytes()

        def refuse(src, dst):
            assert os.path.getsize(src) > len(old)  # the new text was written in full
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_problem(generate_problem(ProblemSpec(n=8, m=2, kind="poly"), seed=1), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["problem.json"]

    def test_save_through_a_symbolic_link_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        prob = generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1)
        save_problem(prob, link)
        assert link.is_symlink()
        np.testing.assert_array_equal(load_problem(target).design_matrix, prob.design_matrix)
        assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_write_to_a_named_pipe_goes_through_the_pipe(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_text_atomic(pipe, "report\n")
            assert os.read(reader, 100) == b"report\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_write_to_a_descriptor_path_goes_through_the_descriptor(self, tmp_path):
        reader, writer = os.pipe()
        try:
            write_text_atomic(f"/dev/fd/{writer}", "report\n")
            assert os.read(reader, 100) == b"report\n"
        finally:
            os.close(reader)
            os.close(writer)
        path = tmp_path / "report.json"
        path.write_text("old\n")
        inode = os.stat(path).st_ino
        with open(path, "r+") as fh:  # as a shell's "> report.json" for /dev/stdout
            write_text_atomic(f"/dev/fd/{fh.fileno()}", "new\n")
        assert os.stat(path).st_ino == inode
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["report.json"]

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX permission bits")
    def test_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text("old\n")
        os.chmod(path, 0o600)
        save_problem(generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1), path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX permission bits")
    @pytest.mark.parametrize("mode", [0o600, 0o640])
    def test_new_text_is_never_written_with_wider_permission_bits(self, tmp_path,
                                                                  monkeypatch, mode):
        path = tmp_path / "problem.json"
        path.write_text("old\n")
        os.chmod(path, mode)
        seen = []

        class Watched:
            """A text file that records its permission bits at every write."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                seen.append(stat.S_IMODE(os.fstat(self.fh.fileno()).st_mode))
                return self.fh.write(text)

        monkeypatch.setattr(qfit.problems, "open",
                            lambda *args, **kwargs: Watched(open(*args, **kwargs)),
                            raising=False)
        old_umask = os.umask(0o022)
        try:
            save_problem(generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1), path)
        finally:
            os.umask(old_umask)
        assert seen == [mode]
        assert stat.S_IMODE(os.stat(path).st_mode) == mode

    def test_planted_link_at_the_temporary_name_is_not_followed(self, tmp_path):
        # A link where the temporary file of this process could be named
        # must neither receive the text nor end up as the artifact.
        path, other = tmp_path / "problem.json", tmp_path / "other.json"
        path.write_text("old\n")
        other.write_text("other\n")
        planted = tmp_path / f".problem.json.{os.getpid()}.tmp"
        planted.symlink_to(other)
        prob = generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1)
        save_problem(prob, path)
        assert not path.is_symlink()
        np.testing.assert_array_equal(load_problem(path).design_matrix, prob.design_matrix)
        assert other.read_text() == "other\n"
        assert planted.is_symlink()
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["problem.json", "other.json", planted.name])

    def test_existing_file_at_the_temporary_name_is_left_alone(self, tmp_path, monkeypatch):
        # The temporary file is created exclusively: should its random name
        # already exist, the write fails and neither file changes.
        path = tmp_path / "problem.json"
        path.write_text("old\n")
        monkeypatch.setattr(os, "urandom", lambda n: b"\0" * n)
        taken = tmp_path / f".problem.json.{'00' * 8}.tmp"
        taken.write_text("taken\n")
        with pytest.raises(FileExistsError):
            write_text_atomic(path, "new\n")
        assert path.read_text() == "old\n"
        assert taken.read_text() == "taken\n"

    def test_file_with_another_hard_link_is_written_in_place(self, tmp_path):
        path, other = tmp_path / "problem.json", tmp_path / "other.json"
        path.write_text("old\n")
        os.link(path, other)
        prob = generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1)
        save_problem(prob, path)
        assert other.read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(load_problem(other).design_matrix, prob.design_matrix)

    def test_file_in_a_directory_not_writable_is_written_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "problem.json"
        path.write_text("old\n")
        inode = os.stat(path).st_ino
        monkeypatch.setattr(os, "access", lambda p, mode: not os.path.isdir(p))
        save_problem(generate_problem(ProblemSpec(n=4, m=2, kind="poly"), seed=1), path)
        assert os.stat(path).st_ino == inode
        assert os.listdir(tmp_path) == ["problem.json"]


class TestRestrictColumns:
    def test_reduces_and_renormalizes(self, rng):
        prob = generate_problem(ProblemSpec(n=10, m=5, kind="random"), seed=2)
        sub = restrict_columns(prob, [1, 3])
        assert sub.m == 2 and sub.n == 10
        gram_norm = np.linalg.norm(sub.design_matrix.conj().T @ sub.design_matrix, 2)
        assert abs(gram_norm - 1.0) <= 1e-10

    def test_full_support_preserves_solution(self):
        prob = generate_problem(ProblemSpec(n=8, m=4, kind="random"), seed=9)
        sub = restrict_columns(prob, range(4))
        a = classical_fit(prob)
        b = classical_fit(sub)
        assert b.residual_energy == pytest.approx(a.residual_energy, abs=1e-12)

    def test_invalid_support(self):
        prob = generate_problem(ProblemSpec(n=4, m=2, kind="random"), seed=0)
        with pytest.raises(DimensionError):
            restrict_columns(prob, [5])
