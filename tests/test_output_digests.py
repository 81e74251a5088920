"""Stdout and exit code of every command form, in both formats.

``output_digests.json`` holds, per run, the SHA-256 of stdout and the exit
code.  The runs are every command form on the six presets, plus three
documents that fail checks and one probe left undecided, so the fail,
undecided and error renderings of the text format are pinned as well as
the machine one (``perfbench/reference.json`` covers machine output of the
benchmark ops only).  Re-record with ``PYTHONPATH=src python
tests/test_output_digests.py`` only for an intended output change.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bfvkit.cli import main
from bfvkit.presets import PRESET_NAMES, load_preset

DIGESTS = Path(__file__).with_name("output_digests.json")
FORMS = (("validate",), ("charge",), ("charge", "--bfv0"), ("master",),
         ("master", "--bfv0"), ("lift",), ("extend",), ("brackets",),
         ("jacobi",), ("probe-h0", "--degree", "3"), ("bch", "--order", "3"),
         ("bch", "--order", "4"))


def _bad_c(doc):
    doc["lie"]["c"] = [[1, 2, 3, 2], [2, 3, 1, 1], [3, 1, 2, 1]]


def _out_of_range(doc):
    doc["lie"]["chi"] = [[1, 2, 4, 1]]
    doc["lie"]["a"] = [[1, 2, 5, 1]]


def _swapped_psi(doc):
    doc["psi"][0] = doc["psi"][1]


def _bad_cobracket(doc):
    doc["lie"]["a"] = [[2, 1, 2, -1]]


def _bad_A(doc):
    doc["lie"]["A"] = [[1, 1, -1], [2, 2, -1], [3, 3, -2]]


# a preset edited so that some checks fail, and the forms it runs (the
# lift of an out-of-range cobracket entry dies of an IndexError)
VARIANTS = {"so3-classical+bad-c": ("so3-classical", _bad_c, FORMS),
            "quasi-chi+out-of-range": ("quasi-chi", _out_of_range, FORMS[:5]),
            "group-valued-so3+swapped-psi": ("group-valued-so3", _swapped_psi,
                                             FORMS),
            "aff1-bialgebra+bad-cobracket": ("aff1-bialgebra", _bad_cobracket,
                                             FORMS[:1]),
            "dgla-identity+bad-A": ("dgla-identity", _bad_A, FORMS[:1])}
RUNS = [(name, form) for name in PRESET_NAMES for form in FORMS]
RUNS += [(name, form) for name, (_, _, forms) in VARIANTS.items() for form in forms]
RUNS.append(("so3-classical", ("probe-h0", "--degree", "4")))  # undecided


def run_key(name, form, fmt):
    return f"{name}|{' '.join(form)}|{fmt}"


def digest(name, form, fmt, folder: Path):
    """(SHA-256 of stdout, exit code) of one run."""
    scenario = name
    if name in VARIANTS:
        preset, edit, _ = VARIANTS[name]
        doc = load_preset(preset)
        edit(doc)
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        scenario = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*form, "--scenario", scenario, "--format", fmt])
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_run_is_recorded(recorded):
    assert sorted(recorded) == sorted(run_key(n, f, fmt) for n, f in RUNS
                                      for fmt in ("text", "machine"))


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("name, form", RUNS, ids=[f"{n}|{' '.join(f)}" for n, f in RUNS])
def test_stdout_and_exit_code_match_the_record(recorded, tmp_path, name, form, fmt):
    assert digest(name, form, fmt, tmp_path) == recorded[run_key(name, form, fmt)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(
            {run_key(n, f, fmt): digest(n, f, fmt, Path(tmp))
             for n, f in RUNS for fmt in ("text", "machine")}, indent=1) + "\n")
