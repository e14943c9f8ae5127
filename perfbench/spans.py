"""In-memory span recorder and the timing wrappers the benchmark installs.

The benchmark observes the program only from the outside: it replaces a
public entry point (a class attribute, an instance attribute or a module
function) with a wrapper that records one span per call, and puts the
original back afterwards.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, request_id, thread, extra, id)``.
``parent`` is the id of the enclosing span on the same thread, so a
layer's self time is its duration minus the time its child spans cover.
``request_id`` is taken from the request argument where the entry point
has one and is otherwise inherited from the parent span.  Spans are
stored as tuples of plain values when they end, which keeps the garbage
collector from re-scanning hundreds of thousands of them.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import operator
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "install_layer_wrappers", "self_times", "span_cost"]


class Tracer:
    """Span recorder; wrappers record only while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self._done: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    @property
    def spans(self) -> list[tuple]:
        """Finished spans ordered by id, so ``spans[i]`` has id ``i``."""
        self._done.sort(key=operator.itemgetter(7))
        return self._done

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, request_id=None,
             extra=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``request_id(args, kwargs)`` names the request a call serves;
        ``extra(args, result)`` stores a per-call value (e.g. bytes).
        Class- and static methods keep their descriptor kind.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(
            static, (classmethod, staticmethod)) else None
        fn = static.__func__ if kind is not None else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent, rid = stack[-1] if stack else (None, None)
            if request_id is not None:
                rid = request_id(args, kwargs) or rid
            span_id = next(tracer._ids)
            stack.append((span_id, rid))
            result, returned = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._done.append((
                    name, start, end, parent, rid, threading.get_ident(),
                    extra(args, result) if returned and extra else None,
                    span_id))

        wrapper.__wrapped__ = fn
        installed = kind(wrapper) if kind is not None else wrapper
        # Instance attributes shadow the class; remember whether the
        # owner had its own binding so uninstall restores the same shape.
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, static, own))
        setattr(owner, attr, installed)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON line (times relative to
        the first span; ``extra`` only where it is a number or a list)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as handle:
            for (name, start, end, parent, rid, thread, extra,
                 span_id) in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent, "request_id": rid,
                    "thread": thread,
                    "extra": extra if isinstance(extra, (int, float, list))
                    else None}) + "\n")


def _request_id(args, kwargs) -> str | None:
    """request_id of the request a bound engine method was called with."""
    request = args[0] if args else kwargs.get("request")
    return getattr(request, "request_id", None) or None


def _quant_gemm_bytes(args, result) -> int:
    """Bytes the fused kernel reads and writes, from tensor sizes."""
    layer, x = args[0], args[1]
    x = getattr(x, "data", x)
    out = getattr(result, "data", result)
    return int(x.nbytes + layer.qweight.nbytes + layer.scales.nbytes
               + out.nbytes)


def install_layer_wrappers(tracer: Tracer, engine) -> None:
    """Wrap the public entry point of every layer the benchmark reports.

    ``engine`` is the :class:`PromptServeEngine` under test: its own
    methods and its base model's ``decode_span`` (the speculative verify
    forward) are wrapped on the instances; shared layers on their
    classes.
    """
    import repro.core.framework as framework
    import repro.serve.session as session_module
    from repro.ag.layers import QuantizedLinear
    from repro.compression import OVTAutoencoder
    from repro.core import NoiseAwareTrainer, NVCiMDeployment
    from repro.retrieval import CiMSearchEngine
    from repro.serve import SessionSnapshot, SessionStore

    # Admission remembers each handle; a round's extra is the list of
    # request ids it retired, which dates every request's engine finish.
    live = []

    def admitted(args, handle):
        live.append(handle)

    def retired(args, report):
        done = [handle for handle in live if handle.done]
        for handle in done:
            live.remove(handle)
        return [handle.request.request_id for handle in done]

    wrap = tracer.wrap
    wrap(engine, "begin_query", "serve.admit", request_id=_request_id,
         extra=admitted)
    wrap(engine, "query", "serve.query", request_id=_request_id)
    wrap(engine, "submit", "serve.tune", request_id=_request_id)
    wrap(engine, "run_decode_round", "llm.decode_round", extra=retired)
    wrap(engine.model, "decode_span", "llm.spec.verify")
    wrap(session_module, "prefill", "llm.prefill")
    wrap(QuantizedLinear, "forward", "llm.quant_gemm",
         extra=_quant_gemm_bytes)
    wrap(QuantizedLinear, "affine_numpy", "llm.quant_gemm",
         extra=_quant_gemm_bytes)
    wrap(CiMSearchEngine, "query_batch", "retrieval.query_batch")
    wrap(CiMSearchEngine, "restore", "retrieval.restore")
    wrap(NVCiMDeployment, "encode_query", "compression.encode_query")
    wrap(OVTAutoencoder, "decode_matrix", "compression.decode")
    wrap(OVTAutoencoder, "fit", "compression.ae_fit")
    wrap(NVCiMDeployment, "__init__", "nvm.program")
    wrap(NoiseAwareTrainer, "fit", "tuning.fit")
    wrap(framework, "select_representatives", "core.select")
    wrap(SessionSnapshot, "capture", "serve.snapshot_capture")
    wrap(SessionSnapshot, "to_bytes", "serve.snapshot_encode",
         extra=lambda args, blob: len(blob))
    wrap(SessionStore, "put", "serve.store_put")
    wrap(SessionStore, "get", "serve.store_get",
         extra=lambda args, blob: len(blob) if blob else 0)
    wrap(SessionSnapshot, "from_bytes", "serve.snapshot_decode")
    wrap(SessionSnapshot, "build_session", "serve.build_session")


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time (seconds) per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, *_rest) in enumerate(spans):
        totals[name] += (end - start) - child[index]
    return dict(totals)


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured in-process.

    Times a wrapped no-op against the bare one, so the overhead estimate
    does not depend on how fast the machine was during either phase.
    """
    class Probe:
        def noop(self):
            return None

    bare, wrapped = Probe(), Probe()
    tracer = Tracer()
    tracer.wrap(wrapped, "noop", "probe")
    tracer.enabled = True
    elapsed = []
    for target in (bare, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            target.noop()
        elapsed.append(time.perf_counter() - start)
    tracer.uninstall()
    return max(0.0, elapsed[1] - elapsed[0]) / calls
