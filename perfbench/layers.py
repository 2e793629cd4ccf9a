"""Per-layer timing from outside the program: wrap public calls, keep self times.

The benchmark never edits ``src/``.  In a traced run it replaces a layer's
entry point (a module function, a class method or one instance's bound
method) by a wrapper that times the call.  Wrapped calls nest — a blind
rotation calls the decomposition, which the forward transform follows — so
each layer keeps its *self* time: its own duration minus the durations of
the wrapped calls made inside it.  Self times along a single-threaded call
path therefore add up to the outermost call's duration.

Each thread keeps its own stack of open calls, so the server's event-loop
thread and its flush thread time independently.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-bootstrap self-time layers of the in-process workloads (ms per
#: bootstrap), in call order along one gate.
BOOTSTRAP_LAYERS = (
    "tfhe.bootstrap.modswitch_ms",
    "tfhe.bootstrap.blind_rotate_ms",
    "tfhe.tlwe.rotate_gather_ms",
    "tfhe.tgsw.decompose_ms",
    "tfhe.transform.forward_ms",
    "tfhe.transform.contract_ms",
    "tfhe.transform.backward_ms",
    "core.bku.bundle_ms",
    "tfhe.tlwe.extract_ms",
    "tfhe.keyswitch.apply_ms",
    "tfhe.gates.self_ms",
)
#: Call counts of the transform engine, per bootstrap.
BOOTSTRAP_COUNTS = ("tfhe.transform.forward_calls", "tfhe.transform.backward_calls")
#: Set-up layers, in seconds.
SETUP_LAYERS = ("runtime.context.keygen_s", "runtime.context.spectra_s")
#: Serving-stack layers.
SERVING_LAYERS = (
    "compiler.compile_ms",
    "compiler.circuit_bootstraps",
    "tfhe.serialize.encode_ms",
    "tfhe.serialize.decode_ms",
    "runtime.protocol.bytes_per_request",
    "runtime.scheduler.flush_ms",
    "runtime.scheduler.rows_per_flush",
    "runtime.workers.run_rows_ms",
    "runtime.scheduler.register_client_ms",
    "runtime.workers.register_client_ms",
    "runtime.server.self_ms",
)
#: The scalar single-gate phase reports its bootstrap layers under this
#: suffix; the gather is fused into the decomposition there, so it has none.
SINGLE_SUFFIX = ".single"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name → unit, in report order."""
    units: Dict[str, str] = {name: "s" for name in SETUP_LAYERS}
    for suffix in ("", SINGLE_SUFFIX):
        for name in BOOTSTRAP_LAYERS:
            if suffix and name == "tfhe.tlwe.rotate_gather_ms":
                continue
            units[name + suffix] = "ms/bootstrap"
        for name in BOOTSTRAP_COUNTS:
            units[name + suffix] = "calls/bootstrap"
    units.update(
        {
            "compiler.compile_ms": "ms",
            "compiler.circuit_bootstraps": "count",
            "tfhe.serialize.encode_ms": "ms/request",
            "tfhe.serialize.decode_ms": "ms/request",
            "runtime.protocol.bytes_per_request": "bytes/request",
            "runtime.scheduler.flush_ms": "ms/flush",
            "runtime.scheduler.rows_per_flush": "rows/flush",
            "runtime.workers.run_rows_ms": "ms/flush",
            "runtime.scheduler.register_client_ms": "ms/register",
            "runtime.workers.register_client_ms": "ms/register",
            "runtime.server.self_ms": "ms/request",
        }
    )
    return units


class LayerClock:
    """Accumulates self time and call counts per layer name.

    Calls are timed on ``timer``.  With ``keep_records`` every finished call
    is also kept as ``(layer, start, end, self_seconds)``; on the default
    ``time.monotonic`` clock, which is shared by all processes of the host,
    a client can line a server's calls up against its own requests.
    """

    def __init__(self, keep_records: bool = False, timer: Callable[[], float] = time.monotonic) -> None:
        self.timer = timer
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.records: List[Tuple[str, float, float, float]] = []
        self.keep_records = keep_records
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.records.clear()

    def drain_into(self, other: "LayerClock") -> None:
        """Move every total into ``other`` and start from zero."""
        with self._lock:
            for name, seconds in self.self_s.items():
                other.self_s[name] += seconds
            for name, calls in self.calls.items():
                other.calls[name] += calls
            self.self_s.clear()
            self.calls.clear()

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to counter ``name`` (kept as a zero-length record too)."""
        now = self.timer()
        with self._lock:
            self.self_s[name] += amount
            self.calls[name] += 1
            if self.keep_records:
                self.records.append((name, now, now, amount))

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """Return ``fn`` timed as ``layer`` (self time: minus nested wrapped calls)."""
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            start = clock.timer()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock.timer()
                elapsed = end - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                with clock._lock:
                    clock.self_s[layer] += own
                    clock.calls[layer] += 1
                    if clock.keep_records:
                        clock.records.append((layer, start, end, own))

        return timed

    def export(self) -> Dict[str, Any]:
        with self._lock:
            return {"self_s": dict(self.self_s), "records": list(self.records)}


class Patches:
    """Installs wrappers on attributes and takes every one of them off again."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._undo: List[Tuple[Any, str, Optional[Any], bool]] = []

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Time ``owner.attr`` as ``layer`` (a module, a class or an instance)."""
        if not hasattr(owner, attr):
            return
        in_dict = attr in vars(owner)
        original = vars(owner)[attr] if in_dict else None
        # A class keeps the plain function, so the wrapper still binds ``self``.
        current = original if isinstance(owner, type) and in_dict else getattr(owner, attr)
        setattr(owner, attr, self.clock.wrap(current, layer))
        self._undo.append((owner, attr, original, in_dict))

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`remove`."""
        self._undo.append((owner, attr, vars(owner)[attr], True))
        setattr(owner, attr, new)

    def wrap_first_access(self, cls: type, prop: str, built: str, layer: str) -> None:
        """Time the first read of property ``cls.prop`` (while ``built`` is false)."""
        original = vars(cls)[prop]
        timed_get = self.clock.wrap(original.fget, layer)

        def getter(obj):
            return original.fget(obj) if getattr(obj, built) else timed_get(obj)

        setattr(cls, prop, property(getter, doc=original.__doc__))
        self._undo.append((cls, prop, original, True))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original, in_dict = self._undo.pop()
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *_exc) -> None:
        self.remove()


def wrap_bootstrap_path(patches: Patches, context) -> None:
    """Time every layer one gate bootstrap passes through, for one context."""
    import repro.tfhe.bootstrap as bootstrap
    import repro.tfhe.gates as gates
    import repro.tfhe.tgsw as tgsw

    for name in ("modswitch_sample", "modswitch_batch"):
        patches.wrap(bootstrap, name, "tfhe.bootstrap.modswitch_ms")
    rotator = context.rotator
    for name in ("rotate", "rotate_batch"):
        patches.wrap(rotator, name, "tfhe.bootstrap.blind_rotate_ms")
    for name in ("build_bundle", "build_bundle_batch"):
        patches.wrap(rotator, name, "core.bku.bundle_ms")
    patches.wrap(tgsw, "tlwe_batch_mul_by_xk_minus_one", "tfhe.tlwe.rotate_gather_ms")
    # The scalar CMux step fuses the (X^p - 1) gather into its decomposition.
    for name in ("gadget_decompose_rows", "_decompose_rotated_difference"):
        patches.wrap(tgsw, name, "tfhe.tgsw.decompose_ms")
    engine = context.engine
    patches.wrap(engine, "forward", "tfhe.transform.forward_ms")
    patches.wrap(engine, "spectrum_contract", "tfhe.transform.contract_ms")
    patches.wrap(engine, "backward", "tfhe.transform.backward_ms")
    for name in ("tlwe_sample_extract", "tlwe_batch_sample_extract"):
        patches.wrap(bootstrap, name, "tfhe.tlwe.extract_ms")
    for module in (bootstrap, gates):
        for name in ("keyswitch_apply", "keyswitch_apply_batch"):
            patches.wrap(module, name, "tfhe.keyswitch.apply_ms")


def bootstrap_layer_metrics(clock: LayerClock, bootstraps: int, suffix: str = "") -> Dict[str, float]:
    """Self time per bootstrap (ms) and transform calls per bootstrap."""
    out: Dict[str, float] = {}
    for name in BOOTSTRAP_LAYERS:
        if suffix and name == "tfhe.tlwe.rotate_gather_ms":
            continue
        seconds = clock.self_s.get(name, 0.0)
        out[name + suffix] = 1000.0 * seconds / bootstraps if bootstraps else 0.0
    for name, layer in zip(BOOTSTRAP_COUNTS, ("tfhe.transform.forward_ms", "tfhe.transform.backward_ms")):
        calls = clock.calls.get(layer, 0)
        out[name + suffix] = calls / bootstraps if bootstraps else 0.0
    return out


def wrap_server_side(patches: Patches) -> None:
    """Time the serving layers inside the server process."""
    import repro.runtime.server as server
    from repro.runtime.context import FheContext
    from repro.runtime.scheduler import BatchScheduler
    from repro.runtime.workers import WorkerPool

    clock = patches.clock
    patches.wrap(BatchScheduler, "flush", "runtime.scheduler.flush")
    patches.wrap(BatchScheduler, "register_client", "runtime.scheduler.register_client")
    patches.wrap(WorkerPool, "register_client", "runtime.workers.register_client")
    original_run_rows = WorkerPool.run_rows

    def run_rows(self, client_id, context, rows, *args, **kwargs):
        clock.count("runtime.scheduler.rows", len(rows))
        return original_run_rows(self, client_id, context, rows, *args, **kwargs)

    patches.replace(WorkerPool, "run_rows", run_rows)
    patches.wrap(WorkerPool, "run_rows", "runtime.workers.run_rows")
    patches.wrap_first_access(FheContext, "rotator", "spectra_cached", "runtime.context.spectra")
    patches.wrap(server, "to_bytes", "tfhe.serialize.encode")
    patches.wrap(server, "from_bytes", "tfhe.serialize.decode")


def wrap_client_side(patches: Patches) -> None:
    """Time serialization and count frame bytes in the client process."""
    import repro.runtime.protocol as protocol

    clock = patches.clock
    patches.wrap(protocol, "to_bytes", "tfhe.serialize.encode")
    patches.wrap(protocol, "from_bytes", "tfhe.serialize.decode")
    encode_frame, read_frame = protocol.encode_frame, protocol.read_frame
    prefix = len(encode_frame({}, b"")) - len(b"{}")

    def counted_encode(header, body=b""):
        frame = encode_frame(header, body)
        clock.count("runtime.protocol.bytes", len(frame))
        return frame

    def counted_read(*args, **kwargs):
        header, body = read_frame(*args, **kwargs)
        size = prefix + len(json.dumps(header, separators=(",", ":")).encode("utf-8")) + len(body)
        clock.count("runtime.protocol.bytes", size)
        return header, body

    patches.replace(protocol, "encode_frame", counted_encode)
    patches.replace(protocol, "read_frame", counted_read)
