"""One workload in one fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE [--setup-only]

Imports the checkout's ``src/landaustar`` (and fails if another copy would be
imported), generates the seeded plan, reports when it is ready, and with
``--setup-only`` stops there.  Otherwise it runs rounds until the time is
spent and writes a JSON summary to FILE.  With ``--trace 1`` it runs the
rounds untraced for half the time, replays exactly those rounds under the
tracer and reports per-layer metrics, the tracing overhead and whether the
two runs gave identical answers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_checkout_package():
    """Import landaustar from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    import landaustar.cli  # noqa: F401  (the CLI pulls in every module)

    where = Path(sys.modules["landaustar"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"error: imported landaustar from {where}, not from {SRC}")
    return where.parent


def summarize(workload, done):
    """Raw samples and counts of the rounds run; run.py turns them into metrics."""
    outcomes = [o for outcomes in done for o in outcomes]
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o)
    units = [workload.work_units(outcomes) for outcomes in done]
    return {
        "rounds": len(done),
        "round_busy_s": [sum(o.seconds for o in outcomes) for outcomes in done],
        "latency_ms": workload.latency_ms(outcomes),
        "work_units": sum(u for u, _ in units),
        "round_rates": [u / busy for u, busy in units if busy > 0],
        "kinds": {k: {"count": len(v), "busy_s": sum(o.seconds for o in v),
                      "points": sum(o.points for o in v),
                      "ms": [1e3 * o.seconds for o in v]} for k, v in by_kind.items()},
        "attempted": len(outcomes),
        "verdicts": dict(Counter(o.verdict for o in outcomes)),
        "overflowed": sum(o.overflowed for o in outcomes),
        "overflowed_states": sum(o.overflowed for o in outcomes if o.kind == "build"),
        "misses": [o.detail for o in outcomes if o.verdict != "ok"][:50],
    }


def environment(package_dir):
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(ctypes),
        "landaustar": str(package_dir),
    }


def _blas_threads(ctypes):
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    package_dir = import_checkout_package()
    import workloads  # imports landaustar, so only after the path is set

    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.plan(args.seed)
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if not args.setup_only:
        result["environment"] = environment(package_dir)
        if args.trace:
            result.update(traced_run(workload, rounds, args.seconds, args.workdir))
        else:
            done = workloads.run_rounds(workload, rounds, args.seconds, args.workdir, check=True)
            result["summary"] = summarize(workload, done)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def traced_run(workload, rounds, seconds, workdir):
    import workloads
    from tracer import Tracer

    plain = workloads.run_rounds(workload, rounds, seconds / 2.0, workdir, check=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run_rounds(workload, rounds[:len(plain)], float("inf"), workdir,
                                      check=False)
    finally:
        tracer.uninstall()
    plain_ops = [o for outcomes in plain for o in outcomes]
    traced_ops = [o for outcomes in traced for o in outcomes]
    differ = [i for i, (a, b) in enumerate(zip(plain_ops, traced_ops)) if a.digest != b.digest]
    return {
        "summary": summarize(workload, plain),
        "layers": tracer.layer_metrics(),
        "spans": len(tracer.start),
        "untraced_busy_s": sum(o.seconds for o in plain_ops),
        "traced_busy_s": sum(o.seconds for o in traced_ops),
        "answers_identical": not differ and len(plain_ops) == len(traced_ops),
        "answers_differ_at": differ[:20],
    }


if __name__ == "__main__":
    sys.exit(main())
