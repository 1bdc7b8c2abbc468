import hashlib
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polydyn.cli import _SUITES, main

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "scripts" / "specs"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_counter_run_emits_the_cycle(tmp_path):
    code, data = run_to_file(tmp_path, "c.csv", ["run", "--spec", str(SPECS / "counter.json")])
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "t,output"
    assert [l.split(",")[1] for l in lines[1:]] == ["0", "1", "2", "3", "4", "5", "0"]


def test_markov_exact_rows_match_matrix_powers(tmp_path):
    code, data = run_to_file(tmp_path, "m.csv", ["run", "--spec", str(SPECS / "markov.json")])
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "t,p_up,p_down"
    k = np.array([[0.9, 0.1], [0.2, 0.8]])
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == t
        want = np.linalg.matrix_power(k, t)[0]
        assert abs(float(cells[1]) - want[0]) <= 1e-12
        assert abs(float(cells[2]) - want[1]) <= 1e-12
    # every row, digit for digit: run prints the repr of each weight
    assert lines == [
        "t,p_up,p_down",
        "0,1.0,0.0",
        "1,0.9,0.1",
        "2,0.8300000000000001,0.17000000000000004",
        "3,0.7810000000000001,0.21900000000000006",
        "4,0.7467000000000003,0.2533000000000001",
        "5,0.7226900000000003,0.2773100000000001",
    ]


def test_explicit_table_run_is_pinned(tmp_path):
    """``switch.json`` is an explicit-table system with constant directions
    and a constant section, and it gives no init, horizon or mode: the run
    starts from the uniform law and traces 8 ticks exactly.  Its weights are
    multiples of 1/8, so every row is the exact law, digit for digit, and
    ``--seed`` changes nothing in exact mode."""
    argv = ["run", "--spec", str(SPECS / "switch.json")]
    code, data = run_to_file(tmp_path, "s.csv", argv)
    assert code == 0
    assert data.decode().strip().split("\n") == [
        "t,p_dark,p_lit",
        "0,0.5,0.5",
        "1,0.6875,0.3125",
        "2,0.6015625,0.3984375",
        "3,0.619140625,0.380859375",
        "4,0.65283203125,0.34716796875",
        "5,0.6396484375,0.3603515625",
        "6,0.654754638671875,0.345245361328125",
        "7,0.664642333984375,0.335357666015625",
        "8,0.6684532165527344,0.3315467834472656",
    ]
    for name in ("a.csv", "b.csv"):
        assert run_to_file(tmp_path, name, argv + ["--seed", "7"]) == (0, data)


def _finite(*labels) -> dict:
    return {"kind": "finite", "labels": list(labels)}


# spaces as JSON objects: the states are pairs (level, bit), written as lists
# in output, update and init, and as JSON-encoded lists in categorical keys
OBJECT_SPACES_SPEC = {
    "system": {
        "interface": {
            "positions": _finite("dark", "lit"),
            "directions": {"constant": _finite("press", "wait")},
        },
        "states": {"kind": "prod", "factors": [_finite("lo", "hi"), _finite(0, 1)]},
        "output": [[["lo", 0], "dark"], [["lo", 1], "dark"],
                   [["hi", 0], "lit"], [["hi", 1], "lit"]],
        "update": [
            [["lo", 0], "press",
             {"categorical": {json.dumps(["hi", 0]): 0.75, json.dumps(["lo", 1]): 0.25}}],
            [["lo", 1], "press", {"dirac": ["hi", 1]}],
            [["hi", 0], "press",
             {"categorical": {json.dumps(["lo", 0]): 0.5, json.dumps(["hi", 1]): 0.5}}],
            [["hi", 1], "press", {"dirac": ["lo", 0]}],
            *([[s, "wait", {"dirac": s}] for s in (["lo", 0], ["lo", 1], ["hi", 0], ["hi", 1])]),
        ],
    },
    "section": {"constant": "press"},
    "init": {"dirac": ["lo", 0]},
    "horizon": 5,
}


def test_a_spec_whose_spaces_are_json_objects_runs(tmp_path):
    """Positions, directions and states given as JSON space objects, the
    states a product whose points are tuples.  The weights are multiples of
    1/8, so every row is the exact law, digit for digit, and ``--seed``
    changes nothing in exact mode."""
    argv = ["run", "--spec", _write_spec(tmp_path, OBJECT_SPACES_SPEC)]
    code, data = run_to_file(tmp_path, "o.csv", argv)
    assert code == 0
    assert data.decode().strip().split("\n") == [
        "t,p_dark,p_lit",
        "0,1.0,0.0",
        "1,0.25,0.75",
        "2,0.375,0.625",
        "3,0.71875,0.28125",
        "4,0.296875,0.703125",
        "5,0.50390625,0.49609375",
    ]
    for name in ("a.csv", "b.csv"):
        assert run_to_file(tmp_path, name, argv + ["--seed", "7"]) == (0, data)


def test_exact_runs_are_byte_identical(tmp_path):
    for spec in ("counter.json", "markov.json"):
        argv = ["run", "--spec", str(SPECS / spec)]
        _, a = run_to_file(tmp_path, "a.csv", argv)
        _, b = run_to_file(tmp_path, "b.csv", argv)
        assert a == b


def test_sampled_runs_are_seed_deterministic(tmp_path):
    spec = json.loads((SPECS / "markov.json").read_text())
    spec["mode"] = "sample"
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(spec))
    argv = ["run", "--spec", str(path), "--horizon", "30"]
    code, a = run_to_file(tmp_path, "a.csv", argv + ["--seed", "7"])
    assert code == 0
    _, b = run_to_file(tmp_path, "b.csv", argv + ["--seed", "7"])
    _, c = run_to_file(tmp_path, "c.csv", argv + ["--seed", "8"])
    assert a == b
    assert a != c
    assert len(a.decode().strip().split("\n")) == 32


def test_every_check_suite_passes(tmp_path):
    for suite in _SUITES:
        code, data = run_to_file(tmp_path, f"{suite}.json", ["check", "--suite", suite])
        report = json.loads(data)
        assert code == 0, report
        assert report["pass"] is True
        assert report["suite"] == suite


def test_perturbed_inversion_fails_the_bayes_suite(tmp_path):
    spec = {
        "labels_x": ["x1", "x2"],
        "labels_y": ["y1", "y2"],
        "prior": [["x1", 0.25], ["x2", 0.75]],
        "channel": [
            ["x1", [["y1", 0.9], ["y2", 0.1]]],
            ["x2", [["y1", 0.3], ["y2", 0.7]]],
        ],
        "perturb": 0.05,
    }
    path = tmp_path / "warped.json"
    path.write_text(json.dumps(spec))
    code, data = run_to_file(
        tmp_path, "report.json", ["check", "--suite", "bayes", "--spec", str(path)]
    )
    report = json.loads(data)
    assert code == 1
    assert report["pass"] is False
    assert report["checks"][0]["witness"] is not None


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["check", "--suite", "nonsense"]) == 2
    assert main(["run"]) == 2
    assert main(["check"]) == 2
    assert main(["laplace"]) == 2
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 2
    # a spec is a JSON object; exit 1 would read as a failed law suite
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["laplace", "--spec", str(listed)]) == 2
    assert main(["check", "--suite", "comonoid", "--spec", str(listed)]) == 2
    last = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert last["error"].endswith("holds list, not a JSON object")


def test_a_missing_required_flag_is_named(capsys):
    """``run`` and ``laplace`` need ``--spec`` and ``check`` needs
    ``--suite``: each exits 2 with one JSON error line naming the flag."""
    for argv, flag in ((["run"], "spec"), (["laplace", "--horizon", "3"], "spec"),
                       (["check", "--spec", str(SPECS / "markov.json")], "suite")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": f"{argv[0]} needs --{flag}"}) + "\n"


@pytest.mark.parametrize("suite", ["measure", "rds", "bundle"])
def test_a_suite_that_reads_no_spec_refuses_one(tmp_path, capsys, suite):
    """These suites check their built-in examples only, so any ``--spec``,
    an empty object or one the flow suite reads, exits 2 naming the suite."""
    for spec in (_write_spec(tmp_path, {}), str(SPECS / "markov.json")):
        assert main(["check", "--suite", suite, "--spec", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": f"SpecError: the {suite} suite checks its "
                                           "built-in examples and reads no spec"}) + "\n"


def test_unread_flags_are_usage_errors(capsys):
    """``--tol`` is not an option, ``--suite`` belongs to ``check`` only,
    ``--seed`` to ``run`` and ``demo``, and ``--horizon`` to every command but
    ``check``."""
    counter = str(SPECS / "counter.json")
    assert main(["run", "--spec", counter, "--tol", "1e-3"]) == 2
    assert main(["check", "--suite", "comonoid", "--tol", "1e-3"]) == 2
    assert main(["run", "--spec", counter, "--suite", "flow"]) == 2
    assert main(["check", "--suite", "comonoid", "--seed", "3"]) == 2
    assert main(["check", "--suite", "flow", "--horizon", "5"]) == 2
    laplace = str(SPECS / "laplace1d.json")
    assert main(["laplace", "--spec", laplace, "--seed", "1"]) == 2
    capsys.readouterr()


# positions a and b with their own fibres: a takes x or y, b takes only z
FIBRES_SPEC = {
    "system": {
        "interface": {
            "positions": ["a", "b"],
            "directions": {"fibres": [["a", ["x", "y"]], ["b", ["z"]]]},
        },
        "states": [0, 1],
        "output": [[0, "a"], [1, "b"]],
        "update": [[0, "x", {"dirac": 1}], [0, "y", {"dirac": 0}], [1, "z", {"dirac": 0}]],
    },
    "section": {"table": [["a", "x"], ["b", "z"]]},
    "init": {"dirac": 0},
    "horizon": 4,
}


def _write_spec(tmp_path, spec) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_a_spec_with_per_position_fibres_runs(tmp_path):
    argv = ["run", "--spec", _write_spec(tmp_path, FIBRES_SPEC)]
    code, data = run_to_file(tmp_path, "f.csv", argv)
    assert code == 0
    assert data.decode() == "t,output\n0,a\n1,b\n2,a\n3,b\n4,a\n"


@pytest.mark.parametrize(
    "section, message",
    [
        ({"constant": "x"}, "section at position 'b': 'x' is not a point of"),
        ({"table": [["a", "x"]]}, "section gives no direction at position 'b'"),
    ],
)
def test_a_section_is_checked_at_every_position(tmp_path, capsys, section, message):
    spec = dict(FIBRES_SPEC, section=section)
    assert main(["run", "--spec", _write_spec(tmp_path, spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err.startswith("SpecError") and message in err


@pytest.mark.parametrize(
    "argv, spec, error",
    [
        (["check", "--suite", "comonoid"], {"horizon": -1},
         "SpecError: spec key 'horizon' must be non-negative, got -1"),
        (["check", "--suite", "comonoid"], {"space": [[0], [1]]},
         "SpecError: spec key 'space[0]' must be a label, got [0]"),
        (["run"], dict(FIBRES_SPEC, system=dict(FIBRES_SPEC["system"], states=[[0, 1], [1, 0]])),
         "SpecError: spec key 'system.states[0]' must be a label, got [0, 1]"),
        (["laplace"], dict(json.loads((SPECS / "laplace1d.json").read_text()), levels=[]),
         "SpecError: spec key 'levels' must be a non-empty list, got []"),
    ],
    ids=["comonoid-horizon", "comonoid-space", "run-states", "laplace-levels"],
)
def test_a_spec_the_library_refuses_is_a_usage_error(tmp_path, capsys, argv, spec, error):
    assert main(argv + ["--spec", _write_spec(tmp_path, spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize(
    "command, spec, key",
    [
        ("run", "counter.json", "horizon"),
        ("laplace", "laplace1d.json", "steps"),
        ("demo", "ou.json", "horizon"),
    ],
)
def test_a_negative_horizon_is_a_usage_error(tmp_path, capsys, command, spec, key):
    """From the flag or from the spec key, a negative run length exits 2
    naming where it came from; zero runs no step."""
    base = json.loads((SPECS / spec).read_text())
    argv = [command, "--spec", str(SPECS / spec)]
    assert main(argv + ["--horizon", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--horizon must be non-negative, got -3" in json.loads(captured.err)["error"]
    negative = _write_spec(tmp_path, dict(base, **{key: -3}))
    assert main([command, "--spec", negative]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"spec key '{key}' must be non-negative" in json.loads(captured.err)["error"]
    zero = _write_spec(tmp_path, dict(base, **{key: 0}))
    for argv_zero in (argv + ["--horizon", "0"], [command, "--spec", zero]):
        assert main(argv_zero) == 0
        rows = capsys.readouterr().out.splitlines()
        # laplace prints its header only; run and demo also print tick 0
        assert len(rows) == (1 if command == "laplace" else 2)


@pytest.mark.parametrize("value", [2.7, True, "3"])
@pytest.mark.parametrize(
    "argv, spec, key",
    [
        (["run"], "counter.json", "horizon"),
        (["laplace"], "laplace1d.json", "steps"),
        (["demo"], "ou.json", "horizon"),
        (["check", "--suite", "comonoid"], None, "horizon"),
    ],
    ids=["run", "laplace", "demo", "comonoid"],
)
def test_a_run_length_that_is_not_an_integer_is_a_usage_error(
    tmp_path, capsys, argv, spec, key, value
):
    """A float or a boolean run length would be truncated into another run
    length (2.7 ran 2 ticks, true ran 1), so it exits 2 naming the key."""
    base = json.loads((SPECS / spec).read_text()) if spec else {}
    assert main(argv + ["--spec", _write_spec(tmp_path, dict(base, **{key: value}))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        f"SpecError: spec key {key!r} must be an integer, got {value!r}"
    )


@pytest.mark.parametrize(
    "system, message",
    [
        ({"named": "markov", "K": [[0.5, 0.5, 0.7], [0.2, 0.8]]},
         "spec key 'system.K[0]' must be a list of length 2, one per row of 'system.K', "
         "got [0.5, 0.5, 0.7]"),
        ({"named": "markov", "labels": ["a", "b", "c"], "K": [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]},
         "spec key 'system.K' must be a list of length 3, one per label of 'system.labels', "
         "got [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]"),
        ({"named": "counter", "n": 0}, "spec key 'system.n' must be at least 1, got 0"),
        ({"named": "counter", "n": 2.5}, "spec key 'system.n' must be an integer, got 2.5"),
    ],
    ids=["markov-long-row", "markov-missing-row", "counter-empty", "counter-float"],
)
def test_a_malformed_named_system_is_a_usage_error(tmp_path, capsys, system, message):
    """A weight past the last label was dropped, a missing row failed inside
    the update, an empty counter failed on its weights and a float one was
    truncated: each is refused with the key it comes from."""
    spec = {"system": system, "init": "uniform", "horizon": 2}
    assert main(["run", "--spec", _write_spec(tmp_path, spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"SpecError: {message}"


@pytest.mark.parametrize("key, value", [("iterations", 50), ("tolerance", 1e-6)])
def test_unread_laplace_spec_keys_are_usage_errors(tmp_path, capsys, key, value):
    """``laplace`` runs exactly ``steps`` steps, so a convergence key it would
    not read is a spec error."""
    spec = json.loads((SPECS / "laplace1d.json").read_text())
    spec[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["laplace", "--spec", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("SpecError") and key in err


def test_laplace_csv_descends_to_the_posterior(tmp_path):
    argv = ["laplace", "--spec", str(SPECS / "laplace1d.json")]
    code, data = run_to_file(tmp_path, "l.csv", argv)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "step,level,mean_0,free_energy"
    assert abs(float(lines[-1].split(",")[2]) - 0.4) <= 1e-6
    fes = [float(l.split(",")[-1]) for l in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(fes, fes[1:]))
    # a run in between leaves nothing behind that the next run reads
    assert main(["laplace", "--spec", str(SPECS / "laplace2level.json"), "--out",
                 str(tmp_path / "between.csv")]) == 0
    _, again = run_to_file(tmp_path, "again.csv", argv)
    assert again == data


def test_a_singular_level_covariance_is_a_usage_error(tmp_path, capsys):
    spec = json.loads((SPECS / "laplace1d.json").read_text())
    spec["levels"][0]["cov"] = [[0.0]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    assert main(["laplace", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "channel covariance is numerically singular" in json.loads(captured.err)["error"]


def test_a_nan_weight_in_a_spec_is_a_usage_error(tmp_path, capsys):
    """JSON reads NaN; an initial law with a NaN weight is refused, not run."""
    spec = json.loads((SPECS / "markov.json").read_text())
    spec["init"] = {"categorical": {"up": math.nan, "down": 1.0}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert "NaN" in path.read_text()
    assert main(["run", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "SpecError: spec key 'init.categorical.up' must be a finite number, got nan")




@pytest.mark.parametrize(
    "spec, error",
    [
        ({"system": {"named": "markov", "labels": [math.inf, 1], "K": [[0.5, 0.5]] * 2}},
         "spec key 'system.labels[0]' must be a label, got inf"),
        (dict(FIBRES_SPEC, section={"table": [["a", math.nan], ["b", "z"]]}),
         "spec key 'section.table[0][1]' must be an input of 'system' at 'a', got nan"),
        ({"system": {"named": "markov", "K": [[0.5, 0.5]] * 2},
          "init": {"categorical": {"0": 0.5, "-Infinity": 0.5}}},
         "spec key 'init.categorical.-Infinity' must be a point of the states of 'system', "
         "got -inf"),
    ],
    ids=["label", "section-coordinate", "categorical-key"],
)
def test_a_non_finite_label_or_coordinate_is_a_usage_error(tmp_path, capsys, spec, error):
    """An Infinity label ran and printed a ``p_inf`` column, and a NaN
    input was taken as a section's direction: labels, a section's inputs
    among them, are refused by the rule that refuses a non-finite number."""
    path = _write_spec(tmp_path, spec)
    assert main(["run", "--spec", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"SpecError: {error}"


# a table system whose input at a is a real number: its update rows list
# the one input 0.5, and the section gives it
EUCLID_INPUTS_SYSTEM = {
    "interface": {"positions": ["a"], "directions": {"constant": {"kind": "euclid", "dim": 1}}},
    "states": [0, 1],
    "output": [[0, "a"], [1, "a"]],
    "update": [[0, [0.5], {"dirac": 1}], [1, [0.5], {"dirac": 0}]],
}
EUCLID_FIBRE_SYSTEM = dict(
    EUCLID_INPUTS_SYSTEM,
    interface={"positions": ["a"], "directions": {"fibres": [["a", {"kind": "euclid", "dim": 1}]]}},
)


@pytest.mark.parametrize("command", [["run"], ["check", "--suite", "flow"]], ids=["run", "flow"])
@pytest.mark.parametrize(
    "system, key",
    [(EUCLID_INPUTS_SYSTEM, "system.interface.directions.constant"),
     (EUCLID_FIBRE_SYSTEM, "system.interface.directions.fibres[0][1]")],
    ids=["constant", "fibre"],
)
def test_inputs_that_are_not_finite_are_a_usage_error(tmp_path, capsys, command, system, key):
    """A table system lists its inputs in its update rows, so its direction
    spaces are finite.  Euclidean ones passed the reader, and then ``run``
    and the flow suite failed in the library with messages that named no
    key."""
    path = _write_spec(tmp_path, {"system": system, "section": {"constant": [0.5]}})
    assert main([*command, "--spec", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        f"SpecError: spec key {key!r} must be a finite space, got {{'kind': 'euclid', 'dim': 1}}: "
        "an update table lists each input"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_datum_is_a_usage_error(tmp_path, capsys, bad):
    """JSON reads NaN and Infinity; ``laplace`` refuses them as the datum, by
    name, before it prints a row."""
    spec = json.loads((SPECS / "laplace1d.json").read_text())
    spec["data"] = [bad]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["laplace", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        f"SpecError: spec key 'data[0]' must be a finite number, got {bad!r}"
    )


@pytest.mark.parametrize(
    "spec, digest",
    [
        ("laplace1d", "a711eade43bae33d613cb87a8bca40e1927b7ec5b9da79e73a7c417ea6068ea1"),
        ("laplace2level", "36e938cf334c631bd8dbe4ba2876031cad5bd04232e14bf6965f508d709d1275"),
    ],
)
def test_laplace_stdout_is_pinned(capsys, spec, digest):
    """``polydyn laplace`` prints every mean and free energy with ``repr``, so
    a change in the last bit of any step changes this digest."""
    assert main(["laplace", "--spec", str(SPECS / f"{spec}.json")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("flow", "e7487d3431161d0c0861262b0fac0a270305d584fd5cf5908bb6f7d45324200c"),
        ("measure", "ee5ca6fe298a6878cb518f8e91fa330fa8145dd3d779cd2df3fe0dca98ecfd08"),
        ("rds", "ed5eabc38edeff81d92835fd0f7a2fa029b5fbdc94ce37f6b3f0ddd974de620c"),
        ("bundle", "34943cc921893713f6310b8ea02715d916efa363a13ea4d3f6a738da87467033"),
        ("comonoid", "969597ec6d0503f686737a479dc8b1a66373bceafe9ea84bae517ceccf6022a1"),
        ("bayes", "7b4a7ec0714b5275dcce06925ddac0ccdb2a0843aed2ff3bcf7d063d919e58f6"),
    ],
)
def test_check_suite_stdout_is_pinned(capsys, suite, digest):
    """Each built-in ``check --suite`` report, byte for byte: every verdict,
    deviation and violation it lists."""
    assert main(["check", "--suite", suite]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sampled_markov_run_is_pinned(tmp_path, capsys):
    """A sampled run draws each tick from the closure's one-tick law, so a
    change in that law's atoms, weights or their order changes this digest."""
    spec = json.loads((SPECS / "markov.json").read_text())
    spec["mode"] = "sample"
    path = tmp_path / "markov-sample.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path), "--seed", "7", "--horizon", "30"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "18fc4616167576be3bc11576f805ff0b5802b9083147326574e3b60c8a0364ce"


def test_two_level_laplace_csv(tmp_path):
    code, data = run_to_file(
        tmp_path, "l2.csv", ["laplace", "--spec", str(SPECS / "laplace2level.json")]
    )
    assert code == 0
    last_rows = data.decode().strip().split("\n")[-2:]
    m0 = float(last_rows[0].split(",")[2])
    m1 = float(last_rows[1].split(",")[2])
    assert abs(m0 - 4.0 / 7.0) <= 1e-4
    assert abs(m1 - 10.0 / 7.0) <= 1e-4


def test_demo_is_seed_deterministic(tmp_path):
    argv = ["demo", "--spec", str(SPECS / "ou.json")]
    code, a = run_to_file(tmp_path, "a.csv", argv + ["--seed", "3"])
    assert code == 0
    _, b = run_to_file(tmp_path, "b.csv", argv + ["--seed", "3"])
    _, c = run_to_file(tmp_path, "c.csv", argv + ["--seed", "4"])
    assert a == b
    assert a != c
    lines = a.decode().strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 1002


def _check_comonoid(argv):
    proc = subprocess.run(argv + ["check", "--suite", "comonoid"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_console_entry_point():
    _check_comonoid([sys.executable, "-m", "polydyn"])
    # The `polydyn` script itself exists only after an install, so from the
    # source tree check its declaration and run its target the way the
    # generated wrapper does.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, attr = project["scripts"]["polydyn"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _check_comonoid([sys.executable, "-c", wrapper])


@pytest.mark.skipif(
    shutil.which("polydyn") is None,
    reason="no `polydyn` console script on PATH; pip install creates it",
)
def test_installed_console_script():
    _check_comonoid([shutil.which("polydyn")])


def _mutated_spec(tmp_path, name: str, edit) -> str:
    spec = json.loads((SPECS / f"{name}.json").read_text())
    edit(spec)
    return _write_spec(tmp_path, spec)


@pytest.mark.parametrize(
    "argv, name, edit, error",
    [
        (["run"], "counter", lambda s: s.update(init={"dirac": True}),
         "spec key 'init.dirac' must be a point of the states of 'system', got True"),
        (["laplace"], "laplace1d", lambda s: s["levels"][0]["mean"]["linear"].update(A=True),
         "spec key 'levels[0].mean.linear.A' must be a list, got True"),
        (["laplace"], "laplace1d", lambda s: s.update(rate=True),
         "spec key 'rate' must be a finite number, got True"),
        (["run"], "markov", lambda s: s["system"]["K"][0].__setitem__(0, True),
         "spec key 'system.K[0][0]' must be a finite number, got True"),
        (["demo"], "ou", lambda s: s.update(theta=True),
         "spec key 'theta' must be a finite number, got True"),
        (["run"], "markov", lambda s: s["system"]["labels"].__setitem__(0, True),
         "spec key 'system.labels[0]' must be a label, got True"),
    ],
    ids=["counter-dirac", "laplace-A", "laplace-rate", "markov-weight", "demo-theta",
         "markov-label"],
)
def test_a_boolean_is_never_a_number_or_a_label(tmp_path, capsys, argv, name, edit, error):
    """JSON true read as 1 ran ``{"dirac": true}`` from state 1 and
    ``"A": true`` as the gain 1; a number, a label or a point never reads a
    boolean."""
    assert main(argv + ["--spec", _mutated_spec(tmp_path, name, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"SpecError: {error}"


@pytest.mark.parametrize(
    "argv, name, edit, error",
    [
        (["laplace"], "laplace2level",
         lambda s: s["levels"][1]["mean"]["linear"]["A"][0].__setitem__(0, "x"),
         "spec key 'levels[1].mean.linear.A[0][0]' must be a finite number, got 'x'"),
        (["run"], "switch", lambda s: s["system"]["update"][0].__setitem__(2, {"dirac": "lit"}),
         "spec key 'system.update[0][2].dirac' must be a point of 'system.states', got 'lit'"),
        (["run"], "markov", lambda s: s["system"]["K"][1].__setitem__(0, None),
         "spec key 'system.K[1][0]' must be a finite number, got None"),
        (["laplace"], "laplace2level",
         lambda s: s["levels"][0]["mean"]["linear"].update(A=[[1.0], [2.0]]),
         "spec key 'levels[0].mean.linear.b' must be a list of length 2, one per row of "
         "'levels[0].mean.linear.A', got [0.0]"),
        (["laplace"], "laplace1d", lambda s: s.update(data=[1.0, 2.0]),
         "spec key 'data' must be a list of length 1, one per row of "
         "'levels[0].mean.linear.A', got [1.0, 2.0]"),
    ],
    ids=["laplace-gain", "switch-law", "markov-weight", "laplace-offset", "laplace-datum"],
)
def test_a_nested_refusal_names_its_whole_key_path(tmp_path, capsys, argv, name, edit, error):
    """A refusal names the key from the spec's root, through every object
    key and list index, and the key whose value it had to fit."""
    assert main(argv + ["--spec", _mutated_spec(tmp_path, name, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"SpecError: {error}"


@pytest.mark.parametrize(
    "argv, name, edit, error",
    [
        (["run"], "switch", lambda s: s["system"].pop("states"),
         "spec key 'system.states' must be a space, got nothing"),
        (["run"], "counter", lambda s: s["system"].pop("named"),
         "spec key 'system.named' must be one of 'counter', 'markov', got nothing"),
        (["run"], "counter", lambda s: s.update(mode="fast"),
         "spec key 'mode' must be one of 'exact', 'sample', got 'fast'"),
        (["run"], "switch", lambda s: s.pop("section"),
         "spec key 'section' must be a section, got nothing: 'system' has real inputs"),
        (["run"], "switch", lambda s: s["system"]["output"].pop(),
         "spec key 'system.output' must be a list with a row for each point of "
         "'system.states', got [['off', 'dark'], ['dim', 'lit'], ['bright', 'lit']]: "
         "none for 'broken'"),
        (["run"], "counter", lambda s: s.update(horizon=3, ticks=3),
         "spec key 'ticks' must be absent, got 3: the keys read here are 'system', "
         "'section', 'init', 'horizon', 'mode'"),
        (["demo"], "ou", lambda s: s.update(h=-1), "spec key 'h' must be non-negative, got -1"),
        (["demo"], "ou", lambda s: s.update(x0=10**400),
         f"spec key 'x0' must be a finite number, got {10**400}"),
    ],
    ids=["missing-states", "missing-name", "unknown-mode", "missing-section",
         "missing-output", "unread-key", "negative-step", "past-the-floats"],
)
def test_a_missing_unknown_or_out_of_range_key_is_refused(tmp_path, capsys, argv, name,
                                                         edit, error):
    assert main(argv + ["--spec", _mutated_spec(tmp_path, name, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"SpecError: {error}"


@pytest.mark.parametrize(
    "spec, error",
    [
        ({"labels_x": ["a", "b"], "labels_y": ["u"], "prior": [["a", 0.5], ["b", 0.5]],
          "channel": [["a", [["u", 1.0]]]]},
         "spec key 'channel' must be a list with a row for each label of 'labels_x', "
         "got [['a', [['u', 1.0]]]]: none for 'b'"),
        ({"labels_x": ["a"], "labels_y": ["u"], "prior": [["a", 1.0]],
          "channel": [["a", [["u", 1.0]]]], "perturb": -0.5},
         "spec key 'perturb' must be non-negative, got -0.5"),
        ({"labels_x": ["a"], "labels_y": ["u"], "prior": [["a", "1.0"]],
          "channel": [["a", [["u", 1.0]]]]},
         "spec key 'prior[0][1]' must be a finite number, got '1.0'"),
        ({"perturb": 0.1}, "spec key 'labels_x' must be a list, got nothing"),
    ],
    ids=["missing-row", "negative-perturbation", "string-weight", "perturbation-alone"],
)
def test_a_malformed_bayes_spec_is_refused_by_key(tmp_path, capsys, spec, error):
    """A channel row left out failed with a bare KeyError inside the check,
    and a weight written as a string was read as its number."""
    assert main(["check", "--suite", "bayes", "--spec", _write_spec(tmp_path, spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"SpecError: {error}"


def test_a_descent_past_the_largest_float_is_refused_by_step(tmp_path, capsys):
    """A learning rate too large for the level's curvature sends the descent
    past the largest float; it is refused at the step and level where its
    mean leaves the finite floats, with no warning on the way."""
    spec = _mutated_spec(tmp_path, "laplace1d", lambda s: s.update(rate=1.5))
    assert main(["laplace", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == (
        "LaplaceError: the descent failed at step 380, level 0: mean and covariance must be finite"
    )

