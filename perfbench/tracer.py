"""Per-layer tracing of trienotary from outside the library.

``Tracer.install`` replaces each traced public function of the library with
a wrapper that records a span (name, start, end, parent span, request id)
while the tracer is active, and passes straight through otherwise. Modules
import functions by name (``notary`` holds its own reference to
``ledger_root``, ``audit`` to ``parse_node``), so a function is replaced in
every loaded ``trienotary.*`` namespace that holds it, not only where it is
defined. Store and chain methods are replaced on their classes, and
``HashAlg.hash`` is counted, without a span, at class level: it is the
hottest call in the library and its time stays in its caller's self time.

Spans are kept in flat arrays and summarised once the traced phase ends.
Self time is a span's duration minus the durations of its child spans
(calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (layer, function) -> op kinds whose timed calls reach it. A workload whose
# steps contain one of those kinds must see at least one call.
FUNCTIONS = {
    ("merkle", "ledger_root"): ("round", "audit"),
    ("merkle", "root_at"): ("round", "audit"),
    ("merkle", "prove_consistency"): ("round",),
    ("merkle", "verify_consistency"): ("audit",),
    ("merkle", "encode_consistency_proof"): ("round",),
    ("merkle", "decode_consistency_proof"): ("audit",),
    ("trie", "update"): ("round",),
    ("trie", "rechain"): ("round",),
    ("trie", "serialize_node"): ("round",),
    ("trie", "parse_node"): ("round", "audit"),
    ("notary", "notarize_round"): ("round",),
    ("audit", "audit_ledger"): ("audit",),
    ("audit", "make_audit_proof"): ("audit",),
    ("audit", "encode_audit_proof"): ("audit",),
    ("audit", "decode_audit_proof"): ("audit",),
    ("audit", "verify_audit_proof"): ("audit",),
}
METHODS = {
    ("store", "get"): ("round", "audit"),
    ("store", "put"): ("round",),
    ("store", "index_proof"): ("round",),
    ("store", "find_proof"): ("audit",),
    ("chain", "publish"): ("round",),
}
LAYERS = ("merkle", "trie", "store", "chain", "notary", "audit")


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports: name, unit, better."""
    specs = []

    def add(name, unit, better="lower"):
        specs.append({"name": name, "unit": unit, "better": better})

    for layer, fn in [*FUNCTIONS, *METHODS]:
        add(f"{layer}.{fn}.calls", "count/step")
        add(f"{layer}.{fn}.self_s", "s/step")
    add("store.put.bytes", "B/step")
    add("store.put.new_ratio", "ratio", "higher")
    add("store.get.bytes", "B/step")
    add("store.get.distinct_ratio", "ratio", "higher")
    add("crypto.hash.calls", "count/step")
    add("crypto.hash.bytes", "B/step")
    for layer in LAYERS:
        add(f"{layer}.hash.calls", "count/step")
    for layer in LAYERS:
        add(f"{layer}.self_share", "ratio")
    add("trace.overhead_s", "s/step")
    add("trace.overhead_ratio", "ratio")
    return specs


class Tracer:
    """Span recorder; ``active`` gates recording so checks run untraced."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self.layers: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.layer_stack: list[str] = []
        self.hash_calls: Counter = Counter()
        self.hash_bytes = 0
        self.put_bytes = 0
        self.put_new = 0
        self.get_bytes = 0
        self.get_addresses: dict[int, set] = defaultdict(set)
        self.known: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, name_id: int, layer: str) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self.stack.append(index)
        self.layer_stack.append(layer)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.stack.pop()
        self.layer_stack.pop()

    def _span(self, name: str, layer: str, fn):
        name_id = self._name_id(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name_id, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    # ---------------------------------------------------------- installation

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function and method; ``uninstall`` undoes it."""
        import trienotary
        from trienotary import crypto
        from trienotary.chain import Chain
        from trienotary.store import DirectoryStore, MemoryStore

        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "trienotary" or name.startswith("trienotary.")
        ]
        for layer, fn_name in FUNCTIONS:
            original = getattr(getattr(trienotary, layer), fn_name)
            wrapper = self._span(f"{layer}.{fn_name}", layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        tracer = self
        for cls in (MemoryStore, DirectoryStore):
            get = self._span("store.get", "store", cls.get)
            put = self._span("store.put", "store", cls.put)

            def counted_get(store, address, _get=get):
                content = _get(store, address)
                if tracer.active:
                    tracer.get_bytes += len(content)
                    tracer.get_addresses[tracer.request].add(address)
                return content

            def counted_put(store, content, _put=put):
                address = _put(store, content)
                if tracer.active:
                    tracer.put_bytes += len(content)
                    if address not in tracer.known:
                        tracer.known.add(address)
                        tracer.put_new += 1
                return address

            self._patch(cls, "get", counted_get)
            self._patch(cls, "put", counted_put)
            for method in ("index_proof", "find_proof"):
                self._patch(cls, method, self._span(f"store.{method}", "store", getattr(cls, method)))
        self._patch(Chain, "publish", self._span("chain.publish", "chain", Chain.publish))

        original_hash = crypto.HashAlg.hash

        def counted_hash(alg, data):
            if tracer.active:
                tracer.hash_calls[tracer.layer_stack[-1] if tracer.layer_stack else "none"] += 1
                tracer.hash_bytes += len(data)
            return original_hash(alg, data)

        self._patch(crypto.HashAlg, "hash", counted_hash)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # --------------------------------------------------------------- results

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its child spans."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - covered

    def metrics(
        self, steps: int, traced_raw_s: float, traced_s: float, untraced_s: float
    ) -> dict[str, float]:
        """Per-layer metrics normalised per timed step.

        ``traced_raw_s`` is the summed wall time of the traced operations, the
        base of each layer's share. ``traced_s`` and ``untraced_s`` are the
        gauge-scaled times of the same operations with tracing on and off.
        """
        # A name can have several ids (store.get on each store class).
        name_ids = np.frombuffer(self.span_name, dtype=np.int32)
        per_id_calls = np.bincount(name_ids, minlength=len(self.names))
        per_id_self = np.bincount(name_ids, weights=self.self_times(), minlength=len(self.names))
        calls: Counter = Counter()
        selfs: Counter = Counter()
        layer_self: Counter = Counter()
        for name_id, name in enumerate(self.names):
            calls[name] += int(per_id_calls[name_id])
            selfs[name] += float(per_id_self[name_id])
            layer_self[self.layers[name_id]] += float(per_id_self[name_id])

        out: dict[str, float] = {}
        for layer, fn in [*FUNCTIONS, *METHODS]:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls[name] / steps
            out[f"{name}.self_s"] = selfs[name] / steps
        gets = calls["store.get"]
        puts = calls["store.put"]
        distinct = sum(len(addresses) for addresses in self.get_addresses.values())
        out["store.put.bytes"] = self.put_bytes / steps
        out["store.put.new_ratio"] = self.put_new / puts if puts else 0.0
        out["store.get.bytes"] = self.get_bytes / steps
        out["store.get.distinct_ratio"] = distinct / gets if gets else 0.0
        out["crypto.hash.calls"] = sum(self.hash_calls.values()) / steps
        out["crypto.hash.bytes"] = self.hash_bytes / steps
        for layer in LAYERS:
            out[f"{layer}.hash.calls"] = self.hash_calls[layer] / steps
        for layer in LAYERS:
            out[f"{layer}.self_share"] = layer_self[layer] / traced_raw_s
        out["trace.overhead_s"] = (traced_s - untraced_s) / steps
        out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        return out

    def save(self, path) -> None:
        """Write every span, with its name table, as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
