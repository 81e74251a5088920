"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py MODE OPS DOC...

MODE is ``setup`` (set up and exit), ``pass`` (set up, then run every op
of the JSON list OPS through ``bfvkit.cli.main``, one after another) or
``trace:PATH`` (a pass with spans, dumped to PATH).  Set-up is timed from
the first bfvkit import through loading and parsing every scenario
document DOC, as a CLI user pays it.  The result is one JSON object on
stdout.  bfvkit must be importable (``PYTHONPATH=src``).
"""

import sys
import time


def peak_rss_mb() -> float:
    """This process's RSS high-water mark.  ``ru_maxrss`` is not used: it
    keeps the parent's RSS from before ``exec``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv):
    mode, ops_path, docs = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import bfvkit.cli
    from bfvkit.config import load_document, parse_scenario

    for path in docs:
        parse_scenario(load_document(path))
    setup_s = time.perf_counter() - t0

    import io
    import json
    import resource
    import traceback

    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if mode.startswith("trace:"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["absent"] = tracer.absent

    real_out, real_err = sys.stdout, sys.stderr
    outcomes = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        for i, argv_op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            s = time.perf_counter()
            try:
                code = bfvkit.cli.main(argv_op)
            except Exception:
                # an op that crashes is reported as a failed op, code -1
                traceback.print_exc()
                code = -1
            dt = time.perf_counter() - s
            outcomes.append({"code": code, "seconds": dt,
                             "stdout": sys.stdout.getvalue(),
                             "stderr": sys.stderr.getvalue()})
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=peak_rss_mb(),
        ops=outcomes)
    if tracer is not None:
        tracer.dump(mode[len("trace:"):])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
