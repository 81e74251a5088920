"""bfvkit benchmark: closed loop, one client, one fresh worker per pass.

    python3 perfbench/run.py --workload {probe,extend,check} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a bfvkit checkout.  The seed generates the workload's
scenario documents (see ``workloads.py``); each pass is a fresh worker
process that imports bfvkit, parses the documents and runs the workload's
ops one after another through ``bfvkit.cli.main(argv)`` with
``--format machine``.  Passes repeat until S seconds have elapsed.  Every
op's exit code and output are checked (``check.py``).

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``wall_s`` (one pass), ``cpu_s`` (worker user+sys over the pass),
``op_max_s`` (slowest op of the pass), ``setup_s`` (import plus document
parsing in a fresh worker, at least ``MIN_SETUPS`` samples) and
``peak_rss_mb`` (the worker's RSS high-water mark after the pass).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced passes' spans (``tracer.py``), each
layer's share of the traced ``wall_s``, and the tracing overhead.

The last stdout line is one JSON object with ``correct`` (no op printed a
wrong output), ``attempted`` and ``failed`` (ops with a wrong exit code or
a wrong output) and ``metrics``.  Failures are listed on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import check
import tracer
import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
MIN_SETUPS = 15
WORKER_TIMEOUT_S = 150


@contextlib.contextmanager
def workspace(root: str, name: str):
    """A scratch directory under the checkout, removed afterwards."""
    parent = os.path.join(root, ".perfbench-run")
    path = os.path.join(parent, f"{name}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not os.listdir(parent):
            os.rmdir(parent)


class Bench:
    def __init__(self, root: str, workload: str, seed: int, workdir: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ops = workloads.WORKLOADS[workload]
        self.docs = workloads.generate(root, workload, seed)
        self.doc_paths = {}
        for name, (_scales, doc) in sorted(self.docs.items()):
            path = self.doc_paths[name] = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        self.ops_path = os.path.join(workdir, "ops.json")
        with open(self.ops_path, "w", encoding="utf-8") as fh:
            json.dump([[cmd, "--scenario", self.doc_paths[name], *extra,
                        "--format", "machine"] for cmd, name, extra in self.ops], fh)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.wrong_output = False
        self.reported = set()

    def worker(self, mode: str) -> dict:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, self.ops_path, *self.doc_paths.values()],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def check_pass(self, result: dict, reference: dict):
        ref_seed = reference["seed"]
        ref_docs = workloads.generate(self.root, self.workload, ref_seed)
        outputs = reference["outputs"][self.workload]
        for op, out in zip(self.ops, result["ops"]):
            scales, doc = self.docs[op[1]]
            errors = check.output_errors(
                op, out["stdout"], doc, scales, outputs, ref_docs[op[1]][0],
                self.seed == ref_seed)
            if errors:
                self.wrong_output = True
            want = workloads.expected_code(op)
            if out["code"] != want:
                errors.insert(0, f"exit code {out['code']}, expected {want}")
                if out["stderr"]:
                    errors.append(f"stderr: {out['stderr'].strip().splitlines()[-1]}")
            self.attempted += 1
            if errors:
                self.failed += 1
                oid = workloads.op_id(op)
                if oid not in self.reported:
                    self.reported.add(oid)
                    print(f"FAILED {oid}: {'; '.join(errors)}", file=sys.stderr)

    def run_pass(self, mode: str) -> dict:
        result = self.worker(mode)
        print(f"{mode.partition(':')[0]}: wall_s={result['wall_s']:.3f} "
              f"cpu_s={result['cpu_s']:.3f} setup_s={result['setup_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f}", file=sys.stderr)
        return result

    def timed_passes(self, seconds: float, trace: bool):
        """Untraced passes until ``seconds`` have elapsed, at least one; with
        ``trace`` each is followed by a traced pass, summarized from its
        spans.  Returns (untraced, traced) result lists."""
        plain, traced = [], []
        t0 = time.monotonic()
        while not plain or time.monotonic() - t0 < seconds:
            plain.append(self.run_pass("pass"))
            if trace:
                path = os.path.join(self.workdir, f"spans{len(traced)}")
                result = self.run_pass(f"trace:{path}")
                if result["absent"] and not traced:
                    print(f"absent, not traced: {', '.join(result['absent'])}",
                          file=sys.stderr)
                result["spans"] = tracer.summarize(path)
                tracer.remove(path)
                traced.append(result)
        return plain, traced


def end_to_end(bench: Bench, seconds: float, reference: dict) -> dict:
    passes, _ = bench.timed_passes(seconds, trace=False)
    for p in passes:
        bench.check_pass(p, reference)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(bench.worker("setup")["setup_s"])
    return {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (median(p["cpu_s"] for p in passes), "s"),
        "op_max_s": (median(max(o["seconds"] for o in p["ops"]) for p in passes), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(bench: Bench, seconds: float, reference: dict) -> dict:
    plain, traced = bench.timed_passes(seconds, trace=True)
    for p in plain + traced:
        bench.check_pass(p, reference)
    return tracer.layer_metrics(plain, traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bfvkit", "cli.py")):
        print("error: run from the root of a bfvkit checkout (src/bfvkit missing)",
              file=sys.stderr)
        return 2
    reference = check.load_reference()
    with workspace(root, f"{args.workload}-{args.seed}") as workdir:
        bench = Bench(root, args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seconds, reference)
    print(json.dumps({
        "correct": not bench.wrong_output,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
