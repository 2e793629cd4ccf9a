#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload paper-gates --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced, and reports the per-layer metrics, the
tracing overhead and the measured-vs-modeled Figure-1 shares.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
every line before it is a human-readable report (the first is the host
stamp).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-gates", "paper-matcha", "serve-sessions")


def host_stamp(workload: str) -> dict:
    import numpy

    from repro.utils.benchio import git_rev

    def present(module: str) -> bool:
        try:
            __import__(module)
        except Exception:  # noqa: BLE001 - any import failure means absent
            return False
        return True

    if workload == "serve-sessions":
        params, engine = "test-small (paper-110bit key for register_paper_key)", "double"
    else:
        from paper import WORKLOADS as PAPER

        cfg = PAPER[workload]
        params, engine = cfg.params_name, f"{cfg.engine}, unroll {cfg.unroll_factor}, batch {cfg.batch}"
    return {
        "git_rev": git_rev(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": present("numba"),
        "cupy": present("cupy"),
        "params": params,
        "engine": engine,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, params: str = ""):
    """One run of ``workload``: ``(tally, metrics, report lines)``.

    ``params`` swaps in a smaller parameter set (the self-check uses it).
    """
    from dataclasses import replace

    from layers import per_layer_units

    if workload == "serve-sessions":
        import serving

        tally, values, report = serving.run(params or serving.PARAMS, seed, seconds, trace)
    else:
        import paper

        cfg = paper.WORKLOADS[workload]
        if params:
            cfg = replace(cfg, params_name=params)
        tally, values, report = paper.run(cfg, seed, seconds, trace)
    if not trace:
        return tally, values, report
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in per_layer_units().items()}
    return tally, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print("host " + json.dumps(host_stamp(args.workload), sort_keys=True), flush=True)
    tally, metrics, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    if tally.reasons:
        print("outcomes " + json.dumps(tally.reasons, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
