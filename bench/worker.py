"""One workload process: run each experiment through ``qflsim run`` in-process.

Usage: python3 worker.py SPEC_JSON SPAWN_MONOTONIC

SPEC_JSON names the qflsim source directory, the experiment configs, whether
to trace, and where to write the result pickle. SPAWN_MONOTONIC is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time counts interpreter start and ``import qflsim``. The parent sets the
thread-count variables in this process's environment, so numpy runs
single-threaded.
"""

import json
import os
import pickle
import resource
import sys
import time


def _own_peak_rss_kb() -> int:
    """VmHWM of this process image.

    ``getrusage(RUSAGE_SELF).ru_maxrss`` is not used: Linux carries it across
    exec, so it would include the parent's resident set at spawn time.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str, spawned: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import qflsim
    from qflsim import cli

    package_dir = os.path.realpath(os.path.dirname(qflsim.__file__))
    if os.path.dirname(package_dir) != os.path.realpath(spec["src"]):
        print(f"worker: imported qflsim from {package_dir}, not {spec['src']}", file=sys.stderr)
        return 1

    import hooks

    recorder = hooks.Recorder(trace=spec["trace"])
    recorder.install(qflsim)
    timings = []
    for exp in spec["experiments"]:
        recorder.begin_experiment(exp["name"])
        called = time.monotonic()
        code = cli.main(["run", exp["path"]])
        returned = time.monotonic()
        if code != 0:
            print(f"worker: qflsim run {exp['path']} exited {code}", file=sys.stderr)
            return 1
        first_round = recorder.experiment["first_round"]
        if first_round is None:
            print("worker: no federated round seen (fed.run_round hook absent)",
                  file=sys.stderr)
            return 1
        timings.append({"setup_s": first_round - (spawned if not timings else called),
                        "run_s": returned - first_round})
    total_s = time.monotonic() - spawned
    rss_kb = max(_own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {
        "timings": timings,
        "total_s": total_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "experiments": recorder.experiments,
        "absent": recorder.absent,
    }
    if spec["trace"]:
        result["layers"] = recorder.layer_metrics()
        recorder.write_spans(spec["spans"])
    with open(spec["result"], "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
