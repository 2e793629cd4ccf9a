"""The two in-process workloads at the paper's parameters.

``paper-gates``: double-precision FFT engine, CMux blind rotation.  Two
kinds of call, interleaved through the run: the single-gate phase calls the
scalar evaluator on the ten two-input gates in turn, and the throughput
phase sends batches of mixed gates through ``BatchGateEvaluator.gate_rows``.

``paper-matcha``: the paper's datapath — the approximate integer FFT
(``core.integer_fft`` with ``core.lifting`` butterflies) and bootstrapping-key
unrolling (``core.bku``, unroll factor 2) — on batches of mixed gates only.

Both kinds draw from one input stream: row ``r`` evaluates gate
``GATE_NAMES[r % 10]`` on two seeded random bits, encrypted with seeded
noise.  A batch covers rows ``16j .. 16j+15``, so every batch whose rows the
single-gate phase also ran is compared with it bit for bit.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    BITS_STREAM,
    ENCRYPT_STREAM,
    KEY_STREAM,
    Tally,
    median,
    metric,
    own_peak_rss_mib,
    quantile,
    stream,
)
from layers import (
    BOOTSTRAP_LAYERS,
    LayerClock,
    Patches,
    bootstrap_layer_metrics,
    wrap_bootstrap_path,
)
from oracle import GATE_NAMES, GATES
from repro.utils.tables import format_table

#: The clock every time of these workloads is read on: the CPU time of this
#: process.  The workloads run one thread, so on a dedicated host it equals
#: wall time.  On a shared virtual machine the kernel (paravirtual steal
#: accounting) keeps the time the hypervisor gives to other guests out of
#: it, while wall time takes it in, and that steal changes from run to run.
cpu_clock = time.process_time


@dataclass(frozen=True)
class PaperConfig:
    name: str
    params_name: str
    engine: str
    unroll_factor: int
    batch: int
    #: Share of the run spent in the scalar single-gate phase (0: none).
    single_share: float
    #: Full set-ups per timed run; ``setup_s`` is their median.
    setups: int
    #: Extra context builds from the kept cloud key (``register_p50_ms``).
    registers: int
    #: One untimed call per phase first, so first-call allocations stay out
    #: of the timings (off where one batch costs seconds).
    warm_up: bool


WORKLOADS = {
    "paper-gates": PaperConfig("paper-gates", "paper-110bit", "double", 1, 16, 0.4, 5, 10, True),
    "paper-matcha": PaperConfig("paper-matcha", "paper-110bit", "approx", 2, 8, 0.0, 1, 4, False),
}


class InputStream:
    """Row ``r``: gate name, plain bits, and their seeded encryptions."""

    def __init__(self, secret, seed: int, batch: int) -> None:
        self.secret = secret
        self.seed = seed
        self.batch = batch
        self._rows: Dict[int, Tuple[str, int, int, object, object]] = {}
        self._batches: Dict[int, Tuple[List[str], object, object]] = {}

    def row(self, r: int):
        if r not in self._rows:
            from repro.tfhe.gates import encrypt_bit

            a, b = (int(x) for x in stream(self.seed, BITS_STREAM, r).integers(0, 2, 2))
            enc = stream(self.seed, ENCRYPT_STREAM, r)
            self._rows[r] = (
                GATE_NAMES[r % len(GATE_NAMES)],
                a,
                b,
                encrypt_bit(self.secret, a, enc),
                encrypt_bit(self.secret, b, enc),
            )
        return self._rows[r]

    def batch_rows(self, j: int):
        if j not in self._batches:
            from repro.tfhe.lwe import LweBatch

            rows = [self.row(r) for r in range(j * self.batch, (j + 1) * self.batch)]
            self._batches[j] = (
                [row[0] for row in rows],
                LweBatch.from_samples(row[3] for row in rows),
                LweBatch.from_samples(row[4] for row in rows),
            )
        return self._batches[j]


@dataclass
class Phase:
    """The calls of one kind — scalar gates or batches — in a timed loop."""

    latencies: List[float] = field(default_factory=list)
    bootstraps: int = 0
    #: Row index → output ``(a, b)``, for bit-identity checks.
    outputs: Dict[int, Tuple[np.ndarray, int]] = field(default_factory=dict)
    #: Layer self times of these calls (traced loops only).
    layers: LayerClock = field(default_factory=LayerClock)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def _batch_call(cfg: PaperConfig, gate_rows, secret, inputs: InputStream, j: int, phase: Phase, tally: Tally,
                clock: Optional[LayerClock]) -> float:
    """Batch ``j`` through ``gate_rows``; checks every row; returns its time."""
    from repro.tfhe.gates import decrypt_bit_batch

    names, ca, cb = inputs.batch_rows(j)
    start = cpu_clock()
    out = gate_rows(names, ca, cb)
    spent = cpu_clock() - start
    phase.latencies.append(spent)
    if clock is not None:
        clock.drain_into(phase.layers)
    for i, bit in enumerate(decrypt_bit_batch(secret, out)):
        row = j * cfg.batch + i
        name, a, b = inputs.row(row)[:3]
        tally.record(int(bit) == GATES[name](a, b), "wrong decryption")
        phase.outputs[row] = (np.asarray(out.a[i]).copy(), int(out.b[i]))
    phase.bootstraps += cfg.batch
    return spent


def _scalar_call(gate, secret, inputs: InputStream, r: int, phase: Phase, tally: Tally,
                 clock: Optional[LayerClock]) -> float:
    """Row ``r`` through the scalar ``gate``; checks it; returns its time."""
    from repro.tfhe.gates import decrypt_bit

    name, a, b, ca, cb = inputs.row(r)
    start = cpu_clock()
    out = gate(name, ca, cb)
    spent = cpu_clock() - start
    phase.latencies.append(spent)
    if clock is not None:
        clock.drain_into(phase.layers)
    tally.record(decrypt_bit(secret, out) == GATES[name](a, b), "wrong decryption")
    phase.outputs[r] = (np.asarray(out.a).copy(), int(out.b))
    phase.bootstraps += 1
    return spent


def _cycle(cfg: PaperConfig, context, secret, inputs: InputStream, tally: Tally, j: int,
           phases: Tuple[Phase, Phase], clock: Optional[LayerClock], rows: Optional[List[int]],
           first_row: int) -> List[int]:
    """Batch ``j``, then scalar gates: ``rows`` if given, else new rows from
    ``first_row`` for the batch's share of time.  Returns the scalar rows run."""
    gate = context.evaluator().gate
    gate_rows = context.batch_evaluator(cfg.batch).gate_rows
    patches = None
    if clock is not None:
        patches = Patches(clock)
        wrap_bootstrap_path(patches, context)
        gate = clock.wrap(gate, "tfhe.gates.self_ms")
        gate_rows = clock.wrap(gate_rows, "tfhe.gates.self_ms")
    single, batch = phases
    try:
        spent = _batch_call(cfg, gate_rows, secret, inputs, j, batch, tally, clock)
        if rows is None:
            rows, budget = [], spent * cfg.single_share / (1.0 - cfg.single_share)
            while budget > 0:
                rows.append(first_row + len(rows))
                budget -= _scalar_call(gate, secret, inputs, rows[-1], single, tally, clock)
        else:
            for r in rows:
                _scalar_call(gate, secret, inputs, r, single, tally, clock)
    finally:
        if patches is not None:
            patches.remove()
    return rows


def timed_loop(cfg: PaperConfig, context, secret, inputs: InputStream, seconds: float, tally: Tally,
               clock: Optional[LayerClock] = None):
    """Cycles of one batch and a share of scalar gates until ``seconds`` pass.

    After each ``gate_rows`` batch, scalar gates run through
    ``FheContext.evaluator()`` for ``single_share / (1 - single_share)`` of
    the batch's time.  Interleaved, both kinds of call span the whole run, so
    a burst of contention on the host hits them in like proportion.

    With ``clock``, each cycle runs twice on the same inputs, once untraced
    and once with the layer wrappers installed, the order alternating from
    cycle to cycle: the two see the same host, and their outputs are
    compared bit for bit.

    The loop stops on wall time.  Returns ``(untraced, traced, wall
    seconds, CPU seconds)``; ``untraced`` and ``traced`` are each a
    ``(single, batch)`` pair of :class:`Phase`.
    """
    untraced, traced = (Phase(), Phase()), (Phase(), Phase())
    modes = [(untraced, None)] + ([(traced, clock)] if clock is not None else [])
    begin, cpu_begin = time.monotonic(), cpu_clock()
    r = j = 0
    while time.monotonic() - begin < seconds:
        rows = None
        for phases, mode_clock in modes if j % 2 == 0 else modes[::-1]:
            rows = _cycle(cfg, context, secret, inputs, tally, j, phases, mode_clock, rows, r)
        r += len(rows)
        j += 1
    return untraced, traced, time.monotonic() - begin, cpu_clock() - cpu_begin


def _same_bits(x: Tuple[np.ndarray, int], y: Tuple[np.ndarray, int]) -> bool:
    return int(x[1]) == int(y[1]) and np.array_equal(x[0], y[0])


def check_identical(first: Dict, second: Dict, tally: Tally, what: str) -> int:
    """Compare outputs of the rows both runs evaluated; returns rows compared."""
    common = sorted(set(first) & set(second))
    for r in common:
        if not _same_bits(first[r], second[r]):
            tally.broken(f"{what}: row {r} differs")
    return len(common)


def _setup(cfg: PaperConfig, seed: int):
    """Key generation and the spectrum cache: ``(secret, context, keygen_s, spectra_s)``."""
    from repro.runtime.context import FheContext
    from repro.tfhe.params import get_parameters
    from repro.tfhe.transform import make_transform

    params = get_parameters(cfg.params_name)
    start = cpu_clock()
    secret, context = FheContext.generate(
        params,
        make_transform(cfg.engine, params.N),
        cfg.unroll_factor,
        rng=stream(seed, KEY_STREAM),
    )
    built = cpu_clock()
    context.rotator
    return secret, context, built - start, cpu_clock() - built


def _register_samples(context, count: int) -> List[float]:
    """Build a context from the cloud key, as a server does on ``register_key``."""
    from repro.runtime.context import FheContext

    samples = []
    for _ in range(count):
        start = cpu_clock()
        FheContext(context.cloud_key).rotator
        samples.append(cpu_clock() - start)
        gc.collect()
    return samples


def run(cfg: PaperConfig, seed: int, seconds: float, trace: bool):
    """One run: returns ``(tally, metrics, report lines)``."""
    tally = Tally()
    setups = 1 if trace else cfg.setups
    secret = context = None
    keygen, spectra = [], []
    for _ in range(setups):
        secret = context = None  # free the previous set-up before the next
        gc.collect()
        secret, context, k, s = _setup(cfg, seed)
        keygen.append(k)
        spectra.append(s)
    # Half the context builds before the timed loop and half after, so they
    # span the run like the other samples.
    registers = [] if trace else _register_samples(context, cfg.registers // 2)

    inputs = InputStream(secret, seed, cfg.batch)
    has_single = cfg.single_share > 0
    if cfg.warm_up:
        if has_single:
            name, _, _, ca, cb = inputs.row(0)
            context.evaluator().gate(name, ca, cb)
        context.batch_evaluator(cfg.batch).gate_rows(*inputs.batch_rows(0))
    clock = LayerClock(timer=cpu_clock) if trace else None
    # A traced run measures every cycle twice, untraced and traced.
    (single, batch), (traced_single, traced_batch), wall, cpu = timed_loop(
        cfg, context, secret, inputs, 2 * seconds if trace else seconds, tally, clock
    )
    peak_rss = own_peak_rss_mib()
    if has_single and not check_identical(single.outputs, batch.outputs, tally, "batch vs scalar"):
        tally.broken("no batch overlapped the scalar gates")
    report = [f"{cfg.name}: {len(batch.latencies)} batches of {cfg.batch}"
              + (f", {len(single.latencies)} scalar gates" if has_single else "")
              + f" in {wall:.1f} s wall, {cpu:.1f} s CPU"]

    if not trace:
        registers += _register_samples(context, cfg.registers - len(registers))
        gate_samples = single.latencies if has_single else batch.latencies
        metrics = {
            "setup_s": metric(median([k + s for k, s in zip(keygen, spectra)]), "s"),
            "bootstraps_per_s": metric(batch.bootstraps / batch.busy, "1/s"),
            "gate_p50_ms": metric(1000 * median(gate_samples), "ms"),
            "gate_p90_ms": metric(1000 * quantile(gate_samples, 0.9), "ms"),
            "circuit_p50_ms": metric(1000 * median(batch.latencies), "ms"),
            "register_p50_ms": metric(1000 * median(registers), "ms"),
            "requests_per_s": metric((len(single.latencies) + len(batch.latencies)) / cpu, "1/s"),
            "peak_rss_mib": metric(peak_rss, "MiB"),
        }
        return tally, metrics, report

    compared = check_identical(batch.outputs, traced_batch.outputs, tally, "traced vs untraced batch")
    compared += check_identical(single.outputs, traced_single.outputs, tally, "traced vs untraced scalar")
    metrics = {
        "runtime.context.keygen_s": median(keygen),
        "runtime.context.spectra_s": median(spectra),
        **bootstrap_layer_metrics(traced_batch.layers, traced_batch.bootstraps),
        **bootstrap_layer_metrics(traced_single.layers, traced_single.bootstraps, ".single"),
    }
    report.append(f"traced outputs bit-identical to untraced on {compared} rows")
    report.extend(_overhead_report(cfg, single, traced_single, batch, traced_batch, metrics))
    return tally, metrics, report


def _bootstrap_layers(metrics: Dict[str, float], suffix: str) -> Dict[str, float]:
    """The per-bootstrap self times of one phase, keyed without the suffix."""
    return {name: metrics[name + suffix] for name in BOOTSTRAP_LAYERS if name + suffix in metrics}


def _ms_per_bootstrap(phase: Phase) -> float:
    return 1000.0 * phase.busy / phase.bootstraps


def _overhead_report(cfg, single, traced_single, batch, traced_batch, metrics) -> List[str]:
    """Tracing overhead, self-time accounting and the Figure-1 comparison.

    Per bootstrap, the traced calls' mean time equals the sum of the layer
    self times; the untraced mean on the same inputs differs from it by the
    tracing overhead.
    """
    headers = ["per bootstrap, ms", "untraced p50", "traced p50", "untraced mean",
               "sum of self times", "overhead (mean)"]
    rows = []
    kinds = [("scalar gate", single, traced_single, ".single", 1)] if single.latencies else []
    kinds.append((f"batch of {cfg.batch}", batch, traced_batch, "", cfg.batch))
    for label, plain, traced, suffix, per_call in kinds:
        u50 = 1000 * median(plain.latencies) / per_call
        t50 = 1000 * median(traced.latencies) / per_call
        mean = _ms_per_bootstrap(plain)
        total = sum(_bootstrap_layers(metrics, suffix).values())
        rows.append([label, f"{u50:.2f}", f"{t50:.2f}", f"{mean:.2f}", f"{total:.2f}",
                     f"{100 * (total - mean) / mean:+.1f}%"])
    title = f"tracing overhead ({cfg.name}, same inputs, untraced and traced in alternating order):"
    return [format_table(headers, rows, title), _figure1_report(cfg, metrics, bool(single.latencies))]


def _figure1_report(cfg, metrics, with_single: bool) -> str:
    """Measured gate / other / IFFT / FFT shares beside the modeled Figure 1."""
    from repro.analysis.breakdown import gate_latency_breakdown
    from repro.tfhe.params import get_parameters

    model = gate_latency_breakdown(get_parameters(cfg.params_name), unroll_factor=cfg.unroll_factor)
    modeled = {b.gate: b.percentages() for b in model}["nand"]
    headers = ["bucket", "modeled (nand)"] + (["measured scalar"] if with_single else []) + ["measured batch"]
    measured = []
    for suffix in ([".single"] if with_single else []) + [""]:
        layers = _bootstrap_layers(metrics, suffix)
        total = sum(layers.values()) or 1.0
        gate = layers.get("tfhe.gates.self_ms", 0.0)
        ifft = layers.get("tfhe.transform.forward_ms", 0.0)
        fft = layers.get("tfhe.transform.backward_ms", 0.0)
        measured.append({
            "gate": 100 * gate / total,
            "ifft": 100 * ifft / total,
            "fft": 100 * fft / total,
            "other": 100 * (total - gate - ifft - fft) / total,
        })
    rows = [[bucket, f"{modeled[bucket]:.1f}%"] + [f"{m[bucket]:.1f}%" for m in measured]
            for bucket in ("gate", "other", "ifft", "fft")]
    title = "Figure-1 buckets (IFFT = forward transform, FFT = backward; other = every other layer):"
    return format_table(headers, rows, title)
