"""Single-field mutations of the bundled specs, generated.

Each mutation deletes one key or list entry of a bundled spec, or sets it to
null, "x", 1.5, -1, [], {}, true, [[1]], a large integer, NaN, Infinity or
-Infinity (``json.dumps`` writes the last three, and ``json.load`` reads
them back).  The command that reads the spec (``run`` and the flow suite,
``laplace`` or ``demo``) must then either run, printing the same bytes on a
second call, or exit 2 with one ``SpecError`` that names the mutated key
path: the key itself, the value that holds it (the reader refuses a whole
point of a finite space), or a key inside it (a required key of the object
that replaced it).  A value that must fit another key's value, such as an
initial law over the states of 'system', names that key too, so a mutation
of 'system' may be named where the initial law no longer fits it.  None
raises, and none exits 1 unless its unmutated spec's suite already fails.
No key takes NaN or Infinity, so those mutations never run under a command
that reads the mutated key.

A Laplace descent is the one run that may fail on well-formed values: a
large gain or learning rate sends it past the largest float.  That exits 2
with a ``LaplaceError`` naming the step and the level, since no one key
decides it.

The large integer is 10**6, but 10**3 on a key that sets a run length or a
system's size (``horizon``, ``steps`` and the counter's ``n``): 10**6 ticks
or states is a well-formed spec that runs for a minute or more.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polydyn.cli import main

SPECS = Path(__file__).resolve().parent.parent / "scripts" / "specs"

GENERATED = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# bundled spec -> the commands that read it
COMMANDS = {
    "counter": (["run"], ["check", "--suite", "flow"]),
    "markov": (["run"], ["check", "--suite", "flow"]),
    "switch": (["run"], ["check", "--suite", "flow"]),
    "laplace1d": (["laplace"],),
    "laplace2level": (["laplace"],),
    "ou": (["demo"],),
}
DELETE = "<delete>"
NON_FINITE = (float("nan"), float("inf"), -float("inf"))
VALUES = (DELETE, None, "x", 1.5, -1, [], {}, True, [[1]], 10**6) + NON_FINITE
SIZES = ("horizon", "steps", "n")


def _paths(obj, prefix=()):
    """Every dict key and list index of ``obj``, as paths from its root."""
    if isinstance(obj, dict):
        entries = obj.items()
    else:
        entries = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in entries:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _text(path) -> str:
    """A path as the reader writes it: ``system.K[1][0]``."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def _mutated(spec: dict, path: tuple, value):
    spec = copy.deepcopy(spec)
    node = spec
    for key in path[:-1]:
        node = node[key]
    if value == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = 10**3 if value == 10**6 and path[-1] in SIZES else value
    return spec


def _reads(command, path) -> bool:
    """Whether ``command`` reads the key at ``path``: the flow suite reads a
    run spec's 'system' and no other key, and every other command reads
    each key of its spec."""
    return command[0] != "check" or path[0] == "system"


def _call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _names(message: str, path: str) -> bool:
    """Whether ``message`` names ``path``, a key that holds it or a key
    inside it: the refused key, or a key whose value it had to fit, such as
    the states of 'system' that an initial law is over."""
    for named in re.findall(r"'([^']*)'", message):
        inner, outer = sorted((named, path), key=len, reverse=True)
        if inner == outer or inner.startswith(outer + ".") or inner.startswith(outer + "["):
            return True
    return False


BASES = {name: json.loads((SPECS / f"{name}.json").read_text()) for name in COMMANDS}
SITES = [(name, path) for name, spec in BASES.items() for path in _paths(spec)]


def _base_code(name: str, command: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(BASES[name]))
        return _call(command + ["--spec", str(spec)])[0]


@GENERATED
@given(site=st.sampled_from(SITES), value=st.sampled_from(VALUES))
def test_a_mutated_spec_runs_or_is_refused_by_key(site, value):
    name, path = site
    for command in COMMANDS[name]:
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps(_mutated(BASES[name], path, value)))
            argv = command + ["--spec", str(spec)]
            code, out, err = _call(argv)
            if value in NON_FINITE and _reads(command, path):
                # no key takes NaN or Infinity, so a command that reads the
                # key refuses it there
                message = json.loads(err)["error"] if code == 2 else err
                assert message.startswith("SpecError: ") and _names(message, _text(path)), (
                    name, path, value, code, message)
            elif code == 0:
                assert _call(argv) == (0, out, err), (name, path, value)
            elif code == 2:
                message = json.loads(err)["error"]
                assert (
                    message.startswith("SpecError: ") and _names(message, _text(path))
                    or command == ["laplace"]
                    and re.fullmatch(r"LaplaceError: the descent failed at step \d+, level \d+: "
                                     r"mean and covariance must be finite", message)
                ), (name, path, value, message)
            else:
                assert code == 1 == _base_code(name, command), (name, path, value, code)
