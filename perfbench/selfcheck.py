#!/usr/bin/env python3
"""Quick self-check of the benchmark harness (about a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

It checks three things and exits non-zero on the first failure:

1. ``BENCHMARK.json`` keeps its fixed form, and names exactly the workloads
   and metrics the harness reports;
2. the layer wrappers leave outputs bit-identical — for the CMux and the
   BKU/approximate-FFT rotator, scalar and batched — and are taken off
   cleanly;
3. every workload, run briefly at ``test-tiny`` (the serving sessions at
   ``test-small``), reports every end-to-end metric as a positive number and
   every per-layer metric, non-zero for each layer the workload runs.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import (  # noqa: E402
    BOOTSTRAP_LAYERS,
    SERVING_LAYERS,
    LayerClock,
    Patches,
    per_layer_units,
    wrap_bootstrap_path,
    wrap_client_side,
    wrap_server_side,
)

END_TO_END = (
    "setup_s",
    "bootstraps_per_s",
    "gate_p50_ms",
    "gate_p90_ms",
    "circuit_p50_ms",
    "register_p50_ms",
    "requests_per_s",
    "peak_rss_mib",
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_benchmark_json() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(bench)}")
    check(bench["command"] == ["python3", "perfbench/run.py"], "command")
    check(bench["paths"] == ["perfbench"], "paths")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w}")
    check([m["name"] for m in bench["end_to_end"]] == list(END_TO_END), "end-to-end names")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys of {m['name']}")
        check(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher"), f"end-to-end {m['name']}")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    check(setup["unit"] == "s" and setup["better"] == "lower", "setup_s unit / direction")
    check(setup["bound"] == max(m["bound"] for m in bench["end_to_end"]), "setup_s has the largest bound")
    units = per_layer_units()
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == units, "per-layer names and units")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher"), f"per-layer {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"])), f"name/unit form of {m['name']}")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "BENCHMARK.json size")
    return bench


def _evaluate(context, secret, batch: int):
    """One scalar gate and one mixed batch: ``(scalar a, scalar b, batch a, batch b)``."""
    import numpy as np

    from repro.tfhe.gates import encrypt_bit, encrypt_bit_batch

    bits = [i & 1 for i in range(batch)]
    ca = encrypt_bit_batch(secret, bits, rng=7)
    cb = encrypt_bit_batch(secret, bits[::-1], rng=8)
    names = ["nand", "xor", "andny", "oryn"] * (batch // 4)
    out = context.batch_evaluator(batch).gate_rows(names, ca, cb)
    single = context.evaluator().gate("xnor", encrypt_bit(secret, 1, rng=9), encrypt_bit(secret, 0, rng=10))
    return np.asarray(single.a).copy(), int(single.b), out.a.copy(), out.b.copy()


def check_wrappers_bit_identical() -> None:
    import numpy as np

    import repro.runtime.protocol as protocol
    import repro.tfhe.bootstrap as bootstrap
    from repro.runtime.context import FheContext
    from repro.runtime.scheduler import BatchScheduler
    from repro.runtime.workers import WorkerPool
    from repro.tfhe.params import TEST_TINY
    from repro.tfhe.transform import make_transform

    for engine, unroll in (("double", 1), ("approx", 2)):
        secret, context = FheContext.generate(TEST_TINY, make_transform(engine, TEST_TINY.N), unroll, rng=3)
        plain = _evaluate(context, secret, 4)
        clock = LayerClock()
        with Patches(clock) as patches:
            wrap_bootstrap_path(patches, context)
            traced = _evaluate(context, secret, 4)
        for x, y in zip(plain, traced):
            check(np.array_equal(x, y), f"{engine}: traced outputs differ from untraced")
        check("rotate" not in vars(context.rotator), f"{engine}: rotator wrapper left installed")
        timed = {name for name, calls in clock.calls.items() if calls}
        expected = set(BOOTSTRAP_LAYERS) - {"tfhe.gates.self_ms"}
        expected -= {"core.bku.bundle_ms"} if unroll == 1 else {"tfhe.tlwe.rotate_gather_ms"}
        check(expected <= timed, f"{engine}: layers never timed: {sorted(expected - timed)}")

    originals = (bootstrap.modswitch_batch, protocol.encode_frame, protocol.read_frame,
                 vars(BatchScheduler)["flush"], vars(WorkerPool)["run_rows"], vars(FheContext)["rotator"])
    with Patches(LayerClock(keep_records=True)) as patches:
        wrap_server_side(patches)
        wrap_client_side(patches)
    after = (bootstrap.modswitch_batch, protocol.encode_frame, protocol.read_frame,
             vars(BatchScheduler)["flush"], vars(WorkerPool)["run_rows"], vars(FheContext)["rotator"])
    check(all(a is b for a, b in zip(originals, after)), "serving wrappers left installed")


def check_reports(bench: dict) -> None:
    units = per_layer_units()
    never_zero = {
        "paper-gates": set(BOOTSTRAP_LAYERS) - {"core.bku.bundle_ms"},
        "paper-matcha": set(BOOTSTRAP_LAYERS) - {"tfhe.tlwe.rotate_gather_ms"},
        "serve-sessions": set(SERVING_LAYERS) | {"runtime.context.keygen_s", "runtime.context.spectra_s"},
    }
    never_zero["paper-gates"] |= {name + ".single" for name in never_zero["paper-gates"]} - {
        "tfhe.tlwe.rotate_gather_ms.single"}
    for workload in run.WORKLOADS:
        params = "test-small" if workload == "serve-sessions" else "test-tiny"
        for trace in (False, True):
            tally, metrics, _ = run.measure(workload, seed=1, seconds=2.0, trace=trace, params=params)
            where = f"{workload} (trace {int(trace)})"
            check(tally.correct and tally.attempted > 0, f"{where}: outputs not correct: {tally.reasons}")
            if workload == "serve-sessions":
                check(all(r.startswith("register_paper_key") for r in tally.reasons),
                      f"{where}: failures other than register_paper_key: {tally.reasons}")
            else:
                check(tally.failed == 0, f"{where}: failed operations: {tally.reasons}")
            if not trace:
                check(list(metrics) == list(END_TO_END), f"{where}: end-to-end names {list(metrics)}")
                check(all(m["value"] > 0 for m in metrics.values()), f"{where}: a zero end-to-end metric")
                continue
            check(list(metrics) == list(units), f"{where}: per-layer names")
            zero = sorted(name for name in never_zero[workload] if not metrics[name]["value"] > 0)
            check(not zero, f"{where}: layers reported as zero: {zero}")
        print(f"selfcheck: {workload} reports every metric")


def main() -> int:
    bench = check_benchmark_json()
    print("selfcheck: BENCHMARK.json keeps its fixed form")
    check_wrappers_bit_identical()
    print("selfcheck: wrappers leave outputs bit-identical")
    check_reports(bench)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
