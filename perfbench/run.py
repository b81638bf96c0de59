"""Benchmark of landaustar: one seeded workload per fresh process.

    python3 perfbench/run.py --workload verify|densities|fock|all \
        --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from the checkout's src/.
Prints a table of every end-to-end metric (or, with --trace 1, every
per-layer metric) by name, unit and sample count, then a provenance line,
then as the last line one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "densities", "fock")
# set-up is measured in this many fresh interpreters; the median is reported
SETUP_SAMPLES = 5
# a run of one workload must end within 180 s
RUN_DEADLINE_S = 170.0
# latency tail: this percentile when ten samples lie beyond it, else the maximum
TAIL_PCT = 90.0

# end-to-end metric names used in BENCHMARK.json, per workload, under the
# names the metrics have when one workload is discussed on its own
ALIASES = {
    "verify": {"work_per_s": "checks_per_s", "op_ms.p50": "pass_ms.p50",
               "op_ms.tail": "pass_ms.tail"},
    "densities": {"op_ms.p50": "eval_ms.p50", "op_ms.tail": "eval_ms.tail",
                  "work_per_s": "points_per_s"},
    "fock": {"op_ms.p50": "state_queries_ms.p50", "op_ms.tail": "state_queries_ms.tail",
             "work_per_s": "queries_per_s"},
}


# work_per_s is a percentile of the per-round rates: the median, except on
# densities.  Its rounds are many and cost the same; a shared 2-core x86
# machine ran them mostly in one steady phase, with spells up to 30% faster,
# and the median moved from run to run with the share of fast spells.  The
# lower quartile, the rate three rounds in four reach, stays in the steady
# phase.
RATE_PCT = {"verify": 50.0, "densities": 25.0, "fock": 50.0}


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(name, args, workdir, env, timeout, setup_only=False):
    """Run worker.py to completion; returns (result dict, set-up seconds)."""
    result_path = workdir / ("setup.json" if setup_only else "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result, result["ready_monotonic"] - spawned


def provenance(args, nproc):
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        try:
            git = {"sha": git_out("rev-parse", "HEAD"),
                   "dirty": bool(git_out("status", "--porcelain", "--untracked-files=no"))}
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git": git, "nproc": nproc, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def end_to_end(name, res, setup):
    """Every end-to-end metric of one untraced run: name -> (value, unit, samples, note)."""
    s = res["summary"]
    lat = s["latency_ms"]
    tail, pct = stats.tail(lat, TAIL_PCT)
    fails = s["attempted"] - s["verdicts"].get("ok", 0)
    rates = s["round_rates"]
    rate = (stats.median(rates) if RATE_PCT[name] == 50.0
            else stats.nearest_rank(sorted(rates), RATE_PCT[name]))
    out = {
        "setup_s": (stats.median(setup), "s", len(setup), "fresh interpreter to inputs ready"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1, "ru_maxrss of the workload process"),
        "op_ms.p50": (stats.median(lat), "ms", len(lat), ""),
        "op_ms.tail": (tail, "ms", len(lat), f"p{pct:.4g}"),
        "work_per_s": (rate, "1/s", s["rounds"], f"p{RATE_PCT[name]:.4g} over rounds"),
        "fail_ratio": (fails / s["attempted"], "ratio", s["attempted"],
                       ", ".join(f"{v} {k}" for k, v in sorted(s["verdicts"].items()))),
    }
    kinds = s["kinds"]
    if name == "verify":
        out["verify_s"] = (stats.median(s["round_busy_s"]), "s", s["rounds"],
                           "one four-suite pass")
    if name == "fock":
        ev, io = kinds["fock_eval"], kinds["state_io"]
        out["fock_points_per_s"] = (ev["points"] / ev["busy_s"], "1/s", ev["count"], "")
        out["state_io_ms.p50"] = (stats.median(io["ms"]), "ms", io["count"], "")
        out["overflowed_states"] = (s["overflowed_states"], "count", kinds["build"]["count"],
                                    "states built with FockRep.overflow set")
    return out


def print_table(title, rows):
    print(title)
    print(f"  {'metric':34} {'value':>14} {'unit':6} {'samples':>8}  note")
    for name, (value, unit, n, note) in rows.items():
        print(f"  {name:34} {value:14.6g} {unit:6} {n:8d}  {note}")


def run_workload(name, args, spec, env, nproc):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            setup.append(start_worker(name, args, workdir, env, timeout=60, setup_only=True)[1])
        res, t = start_worker(name, args, workdir, env, timeout=deadline - time.monotonic())
        setup.append(t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    s = res["summary"]
    failed = s["verdicts"].get("miss", 0) + s["verdicts"].get("error", 0)
    correct = failed == 0
    detail = {"workload": name, "provenance": provenance(args, nproc),
              "environment": res["environment"], "rounds": s["rounds"],
              "attempted": s["attempted"], "verdicts": s["verdicts"],
              "overflowed_results": s["overflowed"], "not_ok": s["misses"]}
    if args.trace:
        layers = res["layers"]
        overhead = res["traced_busy_s"] - res["untraced_busy_s"]
        layers["trace.overhead_s"] = overhead
        correct = correct and res["answers_identical"]
        detail.update(spans=res["spans"], answers_identical=res["answers_identical"],
                      answers_differ_at=res["answers_differ_at"],
                      untraced_busy_s=res["untraced_busy_s"], traced_busy_s=res["traced_busy_s"])
        metrics = {m["name"]: (layers.get(m["name"], 0), m["unit"], s["rounds"], "")
                   for m in spec["per_layer"]}
        title = (f"{name}: per-layer metrics from {s['rounds']} traced rounds "
                 f"(tracing overhead {overhead:+.3f} s on {res['untraced_busy_s']:.3f} s busy, "
                 f"answers identical: {res['answers_identical']})")
        print_table(title, metrics)
    else:
        rows = end_to_end(name, res, setup)
        aliases = ALIASES[name]
        print_table(f"{name}: end-to-end metrics over {s['rounds']} rounds "
                    f"({s['attempted']} operations checked)",
                    {f"{aliases[k]} [{k}]" if k in aliases else k: v for k, v in rows.items()})
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: rows[k] for k in units}
        detail["aliases"] = aliases
    print("detail " + json.dumps(detail))
    return correct, s["attempted"], failed, {k: v[:2] for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "landaustar" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'landaustar'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, n, f, m = run_workload(name, args, spec, env, nproc)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        correct, attempted, failed = correct and ok, attempted + n, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
