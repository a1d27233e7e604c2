"""``qfit`` command lines drawn from valid and boundary values.

Every numeric option of ``run``, ``learn``, ``generate`` and ``cost`` is
drawn from valid values and from nan, +-inf, 0, negatives, 1e+-300,
non-integers and 10**29, each within the option's click type: an int
option never gets a non-integer, which click refuses with its own usage
text.  An example passes when the command exits 0 with a parseable
artifact on stdout, or exits 2 with exactly one {"error", "message"}
object on stderr and nothing on stdout.  A traceback, another exit code
or a numpy warning fails it.

Bounds that keep an example small: ``-T`` is at most 256 or a size the
amplitude cap refuses before it allocates, and ``generate --n/--m`` are
at most 64: ``generate --kind random`` still draws an n x n Gaussian
matrix, though it QR-factors only the m columns it keeps.  A huge n
needs no draw here: ``generate`` refuses a matrix of more than
``linalg.MAX_MATRIX_ENTRIES`` entries with a GenerationError before any
draw, which tests/test_cli.py checks.  QFIT_SEED is drawn only as an
integer, and every problem file is valid JSON: a non-integer QFIT_SEED
and a non-JSON problem file still end in a traceback.  The module is
skipped where hypothesis is not installed.
"""

import csv
import io
import json
import traceback
import warnings

import pytest

pytest.importorskip("hypothesis")

from click.testing import CliRunner  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.cli import main  # noqa: E402
from qfit.problems import problem_from_json  # noqa: E402

HUGE = 10**29
EXAMPLES = settings(max_examples=60, deadline=None)

BOUNDARY_FLOATS = ["nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "1e300", "-1e300",
                   "1e-300", "-1e-300", "0.5", "2.5", "7", str(HUGE)]
BOUNDARY_INTS = [0, -1, -7, HUGE, -HUGE]


def floats(low: float, high: float):
    """A boundary value or a valid one in [low, high], as option text."""
    return st.sampled_from(BOUNDARY_FLOATS) | st.floats(low, high).map(repr)


def ints(*valid: int):
    return st.sampled_from(BOUNDARY_INTS + list(valid)).map(str)


def maybe(strategy):
    """None (the option is left out) or a drawn value."""
    return st.none() | strategy


SEEDS = ints(0, 1, 7, 2**64)
ENV_SEEDS = st.sampled_from([None, "0", "7", "-1", str(HUGE)])
# Powers of two up to 256, other sizes up to 256, and sizes the amplitude
# cap refuses before it allocates.
CLOCKS = ints(2, 4, 8, 16, 32, 64, 128, 256, 3, 100, 255, 2**22, 2**40, 2**63)
T0S = st.just("auto") | floats(1e-3, 1e3)
SCALES = st.just("auto") | floats(1e-3, 10.0)


def argv(command: str, fixed: list[str], options: dict) -> list[str]:
    args = [command, *fixed]
    for flag, value in options.items():
        if value is not None:
            args.append(f"{flag}={value}")
    return args


def invoke(args: list[str], env_seed: str | None) -> str | None:
    """Run one command line; its stdout if it exited 0, None if it failed cleanly."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args, env={"QFIT_SEED": env_seed})
    assert [str(w.message) for w in caught] == [], args
    if result.exit_code == 0:
        return result.stdout
    trace = "".join(traceback.format_exception(*result.exc_info)) if result.exc_info else ""
    assert result.exit_code == 2, (args, trace)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, (args, result.stderr)
    assert set(json.loads(lines[0])) == {"error", "message"}
    assert result.stdout == ""
    return None


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("fuzz") / "poly.json"
    invoke(["generate", "--kind", "poly", "--n", "4", "--m", "2", "--seed", "3",
            "--out", str(path)], None)
    return str(path)


def run_options(draw) -> dict:
    return {
        "--clock-size": draw(CLOCKS),
        "--t0": draw(maybe(T0S)),
        "--c": draw(maybe(SCALES)),
        "--variant": draw(maybe(st.sampled_from(["three-stage", "fused"]))),
        "--window": draw(maybe(st.sampled_from(["uniform", "sine"]))),
        "--shots": draw(maybe(ints(1, 100, 2**63 - 1, 2**63))),
        "--delta": draw(maybe(floats(1e-3, 1.0))),
        "--epsilon": draw(maybe(floats(1e-3, 1.0))),
        "--seed": draw(maybe(SEEDS)),
    }


@EXAMPLES
@given(data=st.data(), env_seed=ENV_SEEDS)
def test_run(problem_file, data, env_seed):
    options = run_options(data.draw)
    out = invoke(argv("run", ["--problem", problem_file], options), env_seed)
    if out is not None:
        assert json.loads(out)["kind"] == "fit-report"


@EXAMPLES
@given(data=st.data(), env_seed=ENV_SEEDS)
def test_learn(problem_file, data, env_seed):
    options = run_options(data.draw)
    options.update({
        "--m-prime": data.draw(ints(1, 2, 3)),
        "--alpha": data.draw(maybe(floats(1e-3, 100.0))),
        "--tom-epsilon": data.draw(maybe(floats(1e-3, 0.5))),
    })
    out = invoke(argv("learn", ["--problem", problem_file], options), env_seed)
    if out is not None:
        assert json.loads(out)["kind"] == "learn-report"


SIZES = st.sampled_from([-1, 0, 1, 2, 3, 4, 8, 64]).map(str)


@EXAMPLES
@given(data=st.data(), env_seed=ENV_SEEDS)
def test_generate(data, env_seed):
    options = {
        "--kind": data.draw(st.sampled_from(["identity", "poly", "fourier", "random"])),
        "--n": data.draw(SIZES),
        "--m": data.draw(SIZES),
        "--seed": data.draw(maybe(SEEDS)),
        "--planted": data.draw(maybe(st.sampled_from(["0", "1", "0,1", "1,0", "5", "-1",
                                                      "0,0"]))),
        "--mass": data.draw(maybe(floats(0.0, 1.0))),
        "--noise": data.draw(maybe(floats(0.0, 1.0))),
        "--condition-target": data.draw(maybe(floats(1.0, 100.0))),
    }
    out = invoke(argv("generate", ["--out", "-"], options), env_seed)
    if out is not None:
        problem_from_json(json.loads(out))


@EXAMPLES
@given(data=st.data(), as_csv=st.booleans())
def test_cost(data, as_csv):
    options = {
        "--n": data.draw(ints(2, 3, 1024, 1, 2**64)),
        "--s": data.draw(ints(1, 2, 16)),
        "--kappa": data.draw(floats(1.0, 1e3)),
        "--eps": data.draw(floats(1e-4, 1.0)),
        "--delta": data.draw(maybe(floats(1e-4, 1.0))),
        "--m-prime": data.draw(maybe(ints(1, 2, 16))),
        "--alg": data.draw(maybe(st.sampled_from(["eq3", "eq4", "alg2", "alg3"]))),
    }
    fixed = ["--no-amplified"] + (["--csv"] if as_csv else [])
    out = invoke(argv("cost", fixed, options), None)
    if out is None:
        return
    if as_csv:
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row)
    else:
        assert json.loads(out)["schemaVersion"] == 1
