"""The ``serve-sessions`` workload: the serving stack end to end.

A server process, started as ``tools/serve.py --port 0 --workers 1`` (one
bootstrap worker), serves two client connections, driven in a closed loop
from one thread of this process.  Each round runs one session on each
connection:

1. each connection generates a fresh ``test-small`` key pair and registers
   its cloud key, one connection after the other;
2. the gate and boolean LUT requests of both sessions go out pipelined, so
   the scheduler coalesces them across sessions, and every reply is read;
3. the two 8-bit circuits (``fhe_max(a*3 + b, b - c)``, traced and
   optimised once per set-up) go out pipelined, and both replies are read;
4. both connections close.

The steps do not overlap, because the server runs registrations and flushes
under one lock and a flush runs every queued job to completion.  With the
steps overlapped, a request's latency depended on which flush it happened to
join, and the figures swung by a quarter from run to run.

A run times a fixed number of rounds, ``ROUNDS_PER_SECOND`` per requested
second, so every run attempts the same operations.  Then, after every metric
has been read, one ``register_key`` of a ``paper-110bit`` cloud key is
attempted on each server (``register_paper_key``).
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import KEY_STREAM, SESSION_STREAM, Tally, median, metric, quantile, stream
from layers import LayerClock, Patches, wrap_client_side
from oracle import GATE_NAMES, GATES, LUTS, WIDTH, bits_to_int, circuit_expected, truth_table
from repro.compiler import FheUint, PassManager, fhe_max, trace
from repro.utils.tables import format_table

HERE = pathlib.Path(__file__).resolve().parent


#: Parameter set of the sessions' keys, and of the ``register_paper_key`` attempt.
PARAMS, PAPER_PARAMS = "test-small", "paper-110bit"
WORKERS = 1
CLIENTS = 2
#: Gate and LUT requests per session.
GATE_REQUESTS, LUT_REQUESTS = 64, 16
#: Full set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5
#: Rounds timed per requested second: about ``--seconds`` of rounds on the
#: reference host (a round takes ~1.2 s there).
ROUNDS_PER_SECOND = 0.8


class Server:
    """One server process on a free port; traced, it times the serving layers."""

    def __init__(self, trace: bool) -> None:
        script = HERE / "traced_server.py" if trace else HERE.parent / "tools" / "serve.py"
        self.proc = subprocess.Popen(
            [sys.executable, str(script), "--port", "0", "--workers", str(WORKERS)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mib(self) -> float:
        """High-water RSS of the server and every process below it."""
        total_kib = 0
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for row in handle:
                        if row.startswith("VmHWM:"):
                            total_kib += int(row.split()[1])
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        pending.extend(int(child) for child in handle.read().split())
            except (FileNotFoundError, ProcessLookupError):
                continue
        return total_kib / 1024.0

    def stop(self) -> str:
        """Graceful drain (SIGTERM); returns the server's remaining stdout."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        return out

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()


def compile_circuit():
    """Trace ``fhe_max(a*3 + b, b - c)`` at 8 bit and run the pass pipeline."""
    start = time.monotonic()
    circuit = trace(
        lambda a, b, c: fhe_max(a * 3 + b, b - c),
        FheUint(WIDTH, "a"),
        FheUint(WIDTH, "b"),
        FheUint(WIDTH, "c"),
    )
    optimised = PassManager().run(circuit)
    return optimised, time.monotonic() - start


def keypair(params_name: str, rng):
    """A fresh key pair through ``FheContext.generate``: ``(secret, cloud key, seconds)``."""
    from repro.runtime.context import FheContext
    from repro.tfhe.params import get_parameters
    from repro.tfhe.transform import make_transform

    params = get_parameters(params_name)
    start = time.monotonic()
    secret, context = FheContext.generate(params, make_transform("double", params.N), 1, rng=rng)
    return secret, context.cloud_key, time.monotonic() - start


@dataclass
class Samples:
    """Round trips and outcomes gathered by the client threads."""

    gate: List[float] = field(default_factory=list)
    circuit: List[float] = field(default_factory=list)
    register: List[float] = field(default_factory=list)
    keygen: List[float] = field(default_factory=list)
    #: ``(send, reply)`` monotonic times of every request.
    spans: List[Tuple[float, float]] = field(default_factory=list)
    completed: int = 0
    bootstraps: int = 0
    #: ``(client, round)`` → digest of the session's output ciphertexts.
    digests: Dict[Tuple[int, int], str] = field(default_factory=dict)


LUT_TABLES = [(name, arity, truth_table(arity, fn), fn) for name, (arity, fn) in LUTS.items()]


class Session:
    """One client session: a fresh key pair and its encoded requests.

    Every request body is serialized while the session is prepared, so while
    requests are in flight the client only writes and reads frames.
    """

    def __init__(self, params_name: str, seed: int, client: int, round_: int, circuit_json) -> None:
        import repro.runtime.protocol as protocol
        from repro.tfhe.circuits import encrypt_integer
        from repro.tfhe.gates import encrypt_bit
        from repro.tfhe.lwe import LweBatch

        def body(*artifacts) -> bytes:
            return protocol.pack_parts([protocol.to_bytes(x) for x in artifacts])

        self.key = (client, round_)
        rng = stream(seed, SESSION_STREAM, client, round_)
        self.secret, cloud, self.keygen_s = keypair(params_name, rng)
        self.register = body(cloud)
        #: ``(op, header fields, body, expected answer)`` of every pipelined request.
        self.requests = []
        for k in range(GATE_REQUESTS):
            name = GATE_NAMES[(k + round_) % len(GATE_NAMES)]
            a, b = (int(x) for x in rng.integers(0, 2, 2))
            operands = (encrypt_bit(self.secret, a, rng), encrypt_bit(self.secret, b, rng))
            self.requests.append(("gate", {"gate": name}, body(*operands), GATES[name](a, b)))
        for k in range(LUT_REQUESTS):
            _, arity, table, fn = LUT_TABLES[(k + round_) % len(LUT_TABLES)]
            bits = [int(x) for x in rng.integers(0, 2, arity)]
            operands = [encrypt_bit(self.secret, bit, rng) for bit in bits]
            self.requests.append(("lut", {"table": table}, body(*operands), fn(bits)))
        operands = tuple(int(x) for x in rng.integers(0, 1 << WIDTH, 3))
        inputs = LweBatch.from_samples(s for v in operands for s in encrypt_integer(self.secret, v, WIDTH, rng))
        self.circuit = ("circuit", {"circuit": circuit_json}, body(inputs), circuit_expected(*operands))
        self.digest = hashlib.sha256()

    def answer(self, reply_body: bytes) -> int:
        """Decode and decrypt a reply (a bit, or an integer from a bit batch)."""
        import numpy as np

        import repro.runtime.protocol as protocol
        from repro.tfhe.gates import decrypt_bit, decrypt_bit_batch

        out = protocol.from_bytes(protocol.unpack_parts(reply_body, expected=1)[0])
        self.digest.update(np.asarray(out.a).tobytes())
        self.digest.update(np.asarray(out.b).tobytes())
        if np.ndim(out.b):
            return bits_to_int(decrypt_bit_batch(self.secret, out))
        return decrypt_bit(self.secret, out)


def _pipelined(requests) -> List[Tuple[float, bytes]]:
    """Send every ``(session, conn, request)`` at once, then read each reply.

    Returns ``(round trip, reply body)`` in request order; replies are
    decoded only after the last one arrived.
    """
    sent = []
    for _, conn, (op, fields, body, _) in requests:
        sent.append((time.monotonic(), conn.submit(op, body, **fields)))
    replies = []
    for (_, conn, _), (start, request_id) in zip(requests, sent):
        _, reply_body = conn.result(request_id)
        replies.append((start, time.monotonic(), reply_body))
    return replies


def run_round(params_name: str, port: int, seed: int, round_: int, circuit_json, gates_per_circuit: int,
              tally: Tally, samples: Samples) -> None:
    """One session per connection: the registrations one after the other,
    then every gate and LUT request of both sessions pipelined, then both
    circuits pipelined, then both connections close."""
    from repro.runtime.protocol import ServingClient

    sessions = [Session(params_name, seed, client, round_, circuit_json) for client in range(CLIENTS)]
    conns = []
    outcomes: List[Tuple[bool, str]] = []
    spans: List[Tuple[float, float]] = []
    gate_rts, circuit_rts, register_rts = [], [], []
    bootstraps = 0
    try:
        for sess in sessions:
            conns.append(ServingClient(port=port))
            sent = time.monotonic()
            header, _ = conns[-1].call("register_key", sess.register)
            done = time.monotonic()
            register_rts.append(done - sent)
            spans.append((sent, done))
            outcomes.append((header.get("params") == params_name, "register_key: wrong reply"))

        for phase in ("requests", "circuit"):
            requests = [
                (sess, conn, request)
                for sess, conn in zip(sessions, conns)
                for request in (sess.requests if phase == "requests" else [sess.circuit])
            ]
            for (sess, _, (op, _, _, expected)), (sent, done, body) in zip(requests, _pipelined(requests)):
                spans.append((sent, done))
                if op == "gate":
                    gate_rts.append(done - sent)
                elif op == "circuit":
                    circuit_rts.append(done - sent)
                outcomes.append((sess.answer(body) == expected, f"{op}: wrong decryption"))
                bootstraps += gates_per_circuit if op == "circuit" else 1
    except Exception as exc:  # noqa: BLE001 - every request left unanswered fails
        expected_ops = CLIENTS * (GATE_REQUESTS + LUT_REQUESTS + 2)
        outcomes.extend([(False, f"round: {type(exc).__name__}: {exc}")] * (expected_ops - len(outcomes)))
    finally:
        for conn in conns:
            conn.close()
    for ok, reason in outcomes:
        tally.record(ok, reason)
    samples.gate.extend(gate_rts)
    samples.circuit.extend(circuit_rts)
    samples.register.extend(register_rts)
    samples.keygen.extend(sess.keygen_s for sess in sessions)
    samples.spans.extend(spans)
    samples.completed += len(spans)
    samples.bootstraps += bootstraps
    for sess in sessions:
        samples.digests[sess.key] = sess.digest.hexdigest()


def timed_phase(params_name: str, ports: List[int], seed: int, rounds: int, circuit, tally: Tally,
                clock: Optional[LayerClock] = None):
    """``rounds`` whole rounds.

    With two ports (a traced run) every round runs against the untraced
    server and, with the client-side wrappers on ``clock``, against the
    traced one — the same sessions on the same inputs, right after each
    other and in alternating order, so both see the same host.

    Returns ``(samples, walls, begin, end)`` with one :class:`Samples` and
    one summed round time per port.
    """
    from repro.compiler.passes import live_gate_count

    from repro.tfhe.serialize import circuit_to_json

    gates_per_circuit = live_gate_count(circuit)
    circuit_json = json.loads(circuit_to_json(circuit))
    samples = [Samples() for _ in ports]
    walls = [0.0 for _ in ports]
    begin = time.monotonic()
    order = list(enumerate(ports))
    for round_ in range(rounds):
        for i, port in order if round_ % 2 == 0 else order[::-1]:
            start = time.monotonic()
            if i == 0:
                run_round(params_name, port, seed, round_, circuit_json, gates_per_circuit, tally, samples[i])
            else:
                with Patches(clock) as patches:
                    wrap_client_side(patches)
                    run_round(params_name, port, seed, round_, circuit_json, gates_per_circuit, tally, samples[i])
            walls[i] += time.monotonic() - start
    return samples, walls, begin, time.monotonic()


def register_paper_key(port: int, cloud, tally: Tally) -> None:
    """Try once to register a paper-parameter cloud key."""
    from repro.runtime.protocol import DEFAULT_MAX_FRAME, ProtocolError, ServerError, ServingClient
    from repro.tfhe.serialize import to_bytes

    key_mib = len(to_bytes(cloud)) / 2**20
    limit_mib = DEFAULT_MAX_FRAME / 2**20
    try:
        with ServingClient(port=port) as conn:
            conn.register_key(cloud)
        tally.record(True)
    except (OSError, ServerError, ProtocolError) as exc:
        reason = f"register_paper_key: {type(exc).__name__}: {exc}"
        if key_mib > limit_mib and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            reason += (f" ({key_mib:.0f} MiB key over the {limit_mib:.0f} MiB DEFAULT_MAX_FRAME; "
                       "the server resets the connection instead of a typed error)")
        tally.record(False, reason)


def setup_once(params_name: str, seed: int, trace: bool):
    """Server start, circuit compilation and the first registration."""
    from repro.runtime.protocol import ServingClient

    start = time.monotonic()
    server = Server(trace)
    try:
        circuit, compile_s = compile_circuit()
        _, cloud, _ = keypair(params_name, stream(seed, KEY_STREAM))
        with ServingClient(port=server.port) as conn:
            conn.register_key(cloud)
    except BaseException:
        server.kill()
        raise
    return server, circuit, time.monotonic() - start, compile_s


def run(params_name: str, seed: int, seconds: float, trace: bool):
    """One run: returns ``(tally, metrics, report lines)``."""
    from repro.compiler.passes import live_gate_count

    tally = Tally()
    setup_s, compile_s = [], []
    servers: List[Server] = []
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    try:
        for _ in range(1 if trace else SETUPS):
            if servers:
                servers.pop().stop()
            server, circuit, s, c = setup_once(params_name, seed, False)
            servers.append(server)
            setup_s.append(s)
            compile_s.append(c)
        clock = None
        if trace:
            server, circuit, _, c = setup_once(params_name, seed, True)
            servers.append(server)
            compile_s.append(c)
            clock = LayerClock()
        # A traced run measures every round twice, untraced and traced.
        samples, walls, begin, end = timed_phase(
            params_name, [s.port for s in servers], seed, rounds, circuit, tally, clock
        )
        peak = servers[0].peak_rss_mib()

        gc.collect()
        _, paper_cloud, _ = keypair(PAPER_PARAMS, stream(seed, KEY_STREAM, 1))
        for s in servers:
            register_paper_key(s.port, paper_cloud, tally)
        outputs = [s.stop() for s in servers]
    except BaseException:
        for s in servers:
            if s.proc.poll() is None:
                s.kill()
        raise

    untraced = samples[0]
    wall = walls[0]
    report = [f"serve-sessions: {rounds} rounds of {CLIENTS} sessions, "
              f"{untraced.completed} requests in {wall:.1f} s"]
    if not trace:
        metrics = {
            "setup_s": metric(median(setup_s), "s"),
            "bootstraps_per_s": metric(untraced.bootstraps / wall, "1/s"),
            "gate_p50_ms": metric(1000 * median(untraced.gate), "ms"),
            "gate_p90_ms": metric(1000 * quantile(untraced.gate, 0.9), "ms"),
            "circuit_p50_ms": metric(1000 * median(untraced.circuit), "ms"),
            "register_p50_ms": metric(1000 * median(untraced.register), "ms"),
            "requests_per_s": metric(untraced.completed / wall, "1/s"),
            "peak_rss_mib": metric(peak, "MiB"),
        }
        return tally, metrics, report

    traced = samples[1]
    for key in sorted(untraced.digests):
        if untraced.digests[key] != traced.digests.get(key):
            tally.broken(f"traced vs untraced session {key} differs")
    report.append(f"traced outputs bit-identical to untraced on {len(traced.digests)} sessions")
    metrics, accounting = _layer_metrics(traced, begin, end, clock.export(), _server_layers(outputs[-1]))
    metrics["compiler.compile_ms"] = 1000 * median(compile_s)
    metrics["compiler.circuit_bootstraps"] = live_gate_count(circuit)
    report.extend(_overhead_report(untraced, wall, traced, walls[1], metrics, accounting))
    return tally, metrics, report


def _server_layers(out: str) -> Dict:
    for row in out.splitlines():
        if row.startswith("perfbench-layers "):
            return json.loads(row[len("perfbench-layers "):])
    raise RuntimeError("traced server printed no layer record")


def _merged(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _layer_metrics(samples: Samples, begin: float, end: float, client: Dict, server: Dict):
    """Per-layer figures of the traced timed phase, and the round-trip accounting."""
    records = [r for r in server["records"] if r[1] >= begin and r[2] <= end]

    def total(name: str) -> float:
        return sum(r[3] for r in records if r[0] == name)

    def count(name: str) -> int:
        return sum(1 for r in records if r[0] == name)

    requests = samples.completed or 1
    flushes = count("runtime.scheduler.flush") or 1
    registers = count("runtime.scheduler.register_client") or 1
    spectra = [r[3] for r in records if r[0] == "runtime.context.spectra"]
    client_s = client["self_s"]
    encode = client_s.get("tfhe.serialize.encode", 0.0)
    decode = client_s.get("tfhe.serialize.decode", 0.0)

    blocking = _merged([(r[1], r[2]) for r in records if r[0] in (
        "runtime.scheduler.flush", "runtime.scheduler.register_client",
        "tfhe.serialize.encode", "tfhe.serialize.decode")])
    starts = [s for s, _ in blocking]
    round_trips = covered = 0.0
    for sent, done in samples.spans:
        round_trips += done - sent
        i = max(bisect.bisect_right(starts, sent) - 1, 0)
        while i < len(blocking) and blocking[i][0] < done:
            s, e = blocking[i]
            covered += max(0.0, min(e, done) - max(s, sent))
            i += 1
    return {
        "runtime.context.keygen_s": median(samples.keygen),
        "runtime.context.spectra_s": median(spectra) if spectra else 0.0,
        "tfhe.serialize.encode_ms": 1000 * (encode + total("tfhe.serialize.encode")) / requests,
        "tfhe.serialize.decode_ms": 1000 * (decode + total("tfhe.serialize.decode")) / requests,
        "runtime.protocol.bytes_per_request": client_s.get("runtime.protocol.bytes", 0.0) / requests,
        "runtime.scheduler.flush_ms": 1000 * total("runtime.scheduler.flush") / flushes,
        "runtime.scheduler.rows_per_flush": total("runtime.scheduler.rows") / flushes,
        "runtime.workers.run_rows_ms": 1000 * total("runtime.workers.run_rows") / flushes,
        "runtime.scheduler.register_client_ms": 1000 * total("runtime.scheduler.register_client") / registers,
        "runtime.workers.register_client_ms": 1000 * total("runtime.workers.register_client") / registers,
        "runtime.server.self_ms": 1000 * (round_trips - covered) / requests,
    }, {
        "round_trip_ms": 1000 * round_trips / requests,
        "server_calls_ms": 1000 * covered / requests,
        "client_serialize_ms": 1000 * (encode + decode) / requests,
    }


def _overhead_report(untraced: Samples, wall: float, traced: Samples, traced_wall: float,
                     metrics: Dict[str, float], accounting: Dict[str, float]) -> List[str]:
    rows = []
    for label, u, t in (
        ("gate_p50_ms", 1000 * median(untraced.gate), 1000 * median(traced.gate)),
        ("requests_per_s", untraced.completed / wall, traced.completed / traced_wall),
        ("bootstraps_per_s", untraced.bootstraps / wall, traced.bootstraps / traced_wall),
    ):
        rows.append([label, f"{u:.2f}", f"{t:.2f}", f"{100 * (t - u) / u:+.1f}%"])
    title = "tracing overhead (serve-sessions, same sessions, untraced and traced in alternating order):"
    return [
        format_table(["metric", "untraced", "traced", "overhead"], rows, title),
        f"mean round trip per request, traced: {accounting['round_trip_ms']:.2f} ms = server calls "
        f"(flush, register_client, serialization) {accounting['server_calls_ms']:.2f} + rest of the "
        f"server {metrics['runtime.server.self_ms']:.2f}; client serialization, outside the round "
        f"trip: {accounting['client_serialize_ms']:.2f} ms",
    ]
