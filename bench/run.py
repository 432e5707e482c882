"""qflsim benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the repository root:

    python3 bench/run.py --workload iris-aqgd --seed 1 --seconds 40 --trace 0

A repetition writes the workload's inputs (see workloads.py), starts a fresh
single-threaded worker process that runs ``qflsim run`` in-process on them
(worker.py, hooks.py), and applies every output check (checks.py).
Repetitions follow each other while another one still fits in ``--seconds``;
there is always at least one.

``--trace 0`` reports the end-to-end metrics: the shortest set-up time and
the shortest run time of any repetition, the optimizer iterations per second
of the fastest one, and the peak resident memory of any repetition. Every
repetition is a fresh worker process doing the same work, so each set-up is
a cold one; the shortest is taken because on a shared machine other tenants
slow whole stretches of tens of seconds.

``--trace 1`` runs each repetition twice, untraced and traced, requires equal
``rounds.csv`` files apart from the wall-clock column, and reports the
per-layer metrics of the fastest traced repetition plus ``trace.overhead_s``,
its total time minus that of the fastest untraced one.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where an operation is one device update sent to the server and a failed one
is an update the server dropped. Metric names and units come from
BENCHMARK.json. Outputs go to ``.bench_out/`` under the repository root.
"""

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

THREADS_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                    "NUMEXPR_NUM_THREADS")}

BENCH_DIR = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # one invocation, all workers included


class BenchError(RuntimeError):
    pass


def run_worker(root: Path, configs: list[dict], trace: bool, out: Path,
               deadline: float) -> dict:
    """Start one worker on `configs`, wait for it, return its recorded result."""
    spec = {"src": str(root / "src"), "trace": trace, "experiments": configs,
            "result": str(out / "result.pkl"), "spans": str(out / "spans.npz")}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), repr(spawned)],
            cwd=root, env={**os.environ, **THREADS_ENV}, stdout=sys.stderr,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    with open(spec["result"], "rb") as fh:  # written by our own worker
        result = pickle.load(fh)
    result["exps"] = [
        {"config": cfg, "rows": checks.read_rounds_csv(Path(cfg["output_dir"]) / "rounds.csv"),
         "capture": capture}
        for cfg, capture in zip(configs, result["experiments"])]
    return result


def repetition(workload: str, seed: int, root: Path, out: Path, trace: bool,
               deadline: float, toy: bool) -> dict:
    """Fresh inputs and one worker run, with every output check applied."""
    shutil.rmtree(out, ignore_errors=True)
    src = str(root / "src")
    if src not in sys.path:  # workloads.write_inputs imports qflsim.data
        sys.path.insert(0, src)
    configs = workloads.write_inputs(workload, seed, out, toy)
    result = run_worker(root, configs, trace, out, deadline)
    result["failures"] = checks.run_checks(workload, result["exps"], result["absent"],
                                           workloads.class_count(workload))
    result["attempted"] = sum(len(e["rows"]) * e["config"]["devices"] for e in result["exps"])
    result["failed"] = sum(len([d for d in row["dropped_devices"].split(";") if d])
                           for e in result["exps"] for row in e["rows"])
    return result


def _without_clock(exp: dict) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "wall_clock_seconds"} for row in exp["rows"]]


def _summary(rep: dict) -> dict:
    """A checked repetition without its captured data, which can be large."""
    rep["iterations"] = sum(e["iterations"] for e in rep.pop("experiments"))
    del rep["exps"]
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            out_dir: Path, toy: bool = False) -> tuple[dict, list[str], dict]:
    """Returns (raw metrics, failure messages, operation totals)."""
    began = time.monotonic()
    deadline = began + TIME_LIMIT_S
    plain, traced, failures = [], [], []
    while True:
        started = time.monotonic()
        rep = repetition(workload, seed, root, out_dir / "plain", False, deadline, toy)
        if trace:
            rep_traced = repetition(workload, seed, root, out_dir / "traced", True, deadline, toy)
            for a, b in zip(rep["exps"], rep_traced["exps"]):
                if _without_clock(a) != _without_clock(b):
                    failures.append(f"{a['config']['name']}: traced rounds.csv differs")
            traced.append(_summary(rep_traced))
        plain.append(_summary(rep))
        now = time.monotonic()
        if now - began + (now - started) > min(seconds, TIME_LIMIT_S / 2):
            break

    reps = plain + traced
    failures += [f"{name}: {msg}" for rep in reps
                 for name, msgs in rep["failures"].items() for msg in msgs]
    run_s = [sum(t["run_s"] for t in rep["timings"]) for rep in plain]
    if trace:
        fastest = min(traced, key=lambda rep: rep["total_s"])
        metrics = dict(fastest["layers"])
        metrics["trace.overhead_s"] = fastest["total_s"] - min(r["total_s"] for r in plain)
    else:
        steps = [rep["iterations"] for rep in plain]
        metrics = {
            "setup_s": min(sum(t["setup_s"] for t in rep["timings"]) for rep in plain),
            "run_s": min(run_s),
            "train_steps_per_s": max(n / s for n, s in zip(steps, run_s)),
            "peak_rss_mb": max(rep["peak_rss_mb"] for rep in plain),
        }
    totals = {"attempted": sum(r["attempted"] for r in reps),
              "failed": sum(r["failed"] for r in reps), "repetitions": len(plain),
              "absent": reps[-1]["absent"], "run_s_reps": run_s}
    return metrics, failures, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qflsim" / "__init__.py").is_file():
        print(f"bench: no qflsim sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        raw, failures, totals = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), root,
            root / ".bench_out" / f"{args.workload}-trace{args.trace}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"bench: CHECK FAILED {msg}", file=sys.stderr)
    for name in totals["absent"]:
        print(f"bench: absent from qflsim, reads 0: {name}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {totals['repetitions']} repetition(s)",
          file=sys.stderr)
    print("bench: run_s per repetition: " + " ".join(f"{t:.4f}" for t in totals["run_s_reps"]),
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
