"""The benchmark's recorded outputs, replayed in-process.

Every op of every perfbench workload runs through ``bfvkit.cli.main`` on
the documents that ``perfbench/workloads.py`` generates at the seed of
``perfbench/reference.json``.  Each must exit with its expected code and
print the recorded ``--format machine`` output byte for byte.  The test
only reads ``perfbench/``.
"""

import json
import os
import sys

import pytest

from bfvkit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
    REFERENCE = json.load(fh)

OPS = [(name, op) for name in sorted(workloads.WORKLOADS)
       for op in workloads.WORKLOADS[name]]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """(workload, preset) -> path of the generated document."""
    out = {}
    for name in workloads.WORKLOADS:
        folder = tmp_path_factory.mktemp(name)
        docs = workloads.generate(ROOT, name, REFERENCE["seed"])
        for preset, (_scales, doc) in docs.items():
            path = folder / f"{preset}.json"
            path.write_text(json.dumps(doc, indent=1))
            out[(name, preset)] = str(path)
    return out


def test_every_recorded_op_is_replayed():
    assert len(OPS) == 42
    assert {(name, workloads.op_id(op)) for name, op in OPS} == {
        (name, oid) for name, outputs in REFERENCE["outputs"].items()
        for oid in outputs}


@pytest.mark.parametrize("workload, op", OPS,
                         ids=[f"{name}:{workloads.op_id(op)}" for name, op in OPS])
def test_reference_output(documents, capsys, workload, op):
    cmd, preset, extra = op
    code = main([cmd, "--scenario", documents[(workload, preset)], *extra,
                 "--format", "machine"])
    out = capsys.readouterr().out
    assert code == workloads.expected_code(op)
    assert out == REFERENCE["outputs"][workload][workloads.op_id(op)]
