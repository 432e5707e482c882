#!/usr/bin/env python3
"""Run the bundled experiment configs and print a comparison table.

Usage:
    python scripts/run_experiments.py [--results DIR] [--seed SEED] [--only NAME ...]

Each config in scripts/configs/ produces <results>/<name>/{rounds.csv,
summary.json, config.echo.json}. A genomic config whose `dataset_path` does not
exist gets a 400-sequence corpus (seed 7) generated at that path first.
"""

import argparse
import json
import sys
from pathlib import Path

from qflsim import cli

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--results", default="results")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--only", nargs="*", default=None,
                        help="config stem names to run (default: all)")
    args = parser.parse_args()

    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)

    configs = sorted(CONFIG_DIR.glob("*.json"))
    if args.only:
        configs = [c for c in configs if c.stem in set(args.only)]
    if not configs:
        print("no configs selected", file=sys.stderr)
        return 1

    rows = []
    for cfg_path in configs:
        name = cfg_path.stem
        config = json.loads(cfg_path.read_text())
        if config["dataset"] == "genomic" and not Path(config["dataset_path"]).exists():
            corpus = Path(config["dataset_path"])
            corpus.parent.mkdir(parents=True, exist_ok=True)
            rc = cli.main(["gen-genomic", "400", str(corpus), "--seed", "7"])
            if rc != 0:
                return rc
        out_dir = results / name
        argv = ["run", str(cfg_path), "--out", str(out_dir)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {name} ==")
        rc = cli.main(argv)
        if rc != 0:
            print(f"{name} failed with exit code {rc}", file=sys.stderr)
            return rc
        summary = json.loads((out_dir / "summary.json").read_text())
        rows.append((name,
                     summary["avg_device_train_acc"]["final"],
                     summary["pred_test_acc"]["final"],
                     summary["gplus_test_acc"]["final"],
                     summary["server_score"]["final"]))

    print(f"\n{'experiment':<24} {'train':>6} {'pred':>6} {'g+':>6} {'server':>7}")
    for name, train, pred, gplus, server in rows:
        print(f"{name:<24} {train:>6.3f} {pred:>6.3f} {gplus:>6.3f} {server:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
