"""Which entry points are traced, under which layer, and the per-layer
metrics derived from their spans.

Layers are named after the program's modules.  Each function is wrapped
at the attribute its caller resolves it through: the client and server
modules import the protocol codecs by name, ``apps.kvstore`` imports
``restore_resizable`` by name, and methods are looked up on their class.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import kvstore
from repro.core.resize import ResizableMcCuckoo
from repro.maintenance.checkpoint import Checkpointer
from repro.maintenance.compactor import Compactor
from repro.maintenance.daemon import MaintenanceDaemon
from repro.serve import client, server
from repro.serve.store import ShardedLogStore

import speed
from tracer import Tracer


def install_layers(tracer: Tracer) -> None:
    wrap = tracer.wrap

    def put_result(_token, result, *_args) -> None:
        tracer.count("store.put_kicks", result.kicks)
        tracer.count("store.put_created", result.created)

    def key_count(counter: str):
        def observe(_token, _result, _self, keys, *_rest) -> None:
            tracer.count(counter, len(keys))
        return observe

    def image_size(log, *_args) -> int:
        return log.image_size

    def appended(before, _result, log, *_args) -> None:
        tracer.count("log.bytes", log.image_size - before)

    def scanned(_token, _result, data) -> None:
        tracer.count("recovery.scanned_bytes", len(data))

    wrap(client, "encode_request", "client.encode_request", "serve.client")
    wrap(client, "decode_reply", "client.decode_reply", "serve.client")
    wrap(server, "decode_request", "protocol.decode_request", "serve.protocol")
    wrap(server, "encode_reply", "protocol.encode_reply", "serve.protocol")
    wrap(ShardedLogStore, "get_many", "store.get_many", "serve.store",
         observe=key_count("store.get_keys"))
    wrap(ShardedLogStore, "put", "store.put", "serve.store", observe=put_result)
    wrap(ShardedLogStore, "delete", "store.delete", "serve.store")
    wrap(ResizableMcCuckoo, "lookup_many", "index.lookup_many", "core",
         observe=key_count("index.lookup_keys"))
    wrap(ResizableMcCuckoo, "put", "index.put", "core")
    wrap(ResizableMcCuckoo, "try_update", "index.try_update", "core")
    wrap(ResizableMcCuckoo, "delete", "index.delete", "core")
    wrap(kvstore.DurableValueLog, "append", "log.append", "apps.kvstore",
         pre=image_size, observe=appended)
    wrap(Compactor, "compact", "maint.compact", "maintenance")
    wrap(Checkpointer, "checkpoint", "maint.checkpoint", "maintenance")
    wrap(MaintenanceDaemon, "maybe_run", "maint.maybe_run", "maintenance")
    wrap(ShardedLogStore, "crash_and_recover", "recovery.crash_and_recover", "recovery")
    wrap(kvstore.LogStructuredStore, "recover_with_checkpoint",
         "recovery.recover_with_checkpoint", "recovery")
    wrap(kvstore, "decode_checkpoint", "recovery.decode_checkpoint", "recovery")
    wrap(kvstore, "scan_log_bytes", "recovery.scan_log_bytes", "recovery", observe=scanned)
    wrap(kvstore, "restore_resizable", "recovery.restore_resizable", "recovery")
    wrap(speed, "chunk", "bench.probe", "bench")
    tracer.install()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase) -> Dict[str, dict]:
    """Per-layer metrics of the traced phase.

    Per-op times come from the ``ops`` window (client traffic), recovery
    times from the ``restart`` window, per full restart of every shard.
    """
    ops = tracer.totals("ops")
    restart = tracer.totals("restart")

    def calls(totals, name: str) -> int:
        return totals.get(name, (0, 0, 0, 0))[0]

    def self_us(totals, name: str) -> float:
        return totals.get(name, (0, 0, 0, 0))[1] / 1e3

    def count(key: str, window: str = "ops") -> float:
        return tracer.counts.get((window, key), 0.0)

    requests = calls(ops, "client.encode_request")
    index_writes = calls(ops, "index.put") + calls(ops, "index.try_update")
    restarts = len(phase.restarts)
    client_ops = phase.ops
    stats = phase.stats
    gc_ms = sum(row[1] for name, row in tracer.totals().items() if name == "gc") / 1e6
    metrics = {
        "client.us_per_req": (_ratio(
            self_us(ops, "client.encode_request") + self_us(ops, "client.decode_reply"),
            requests), "us"),
        "protocol.decode_us_per_req": (_ratio(
            self_us(ops, "protocol.decode_request"),
            calls(ops, "protocol.decode_request")), "us"),
        "protocol.encode_us_per_req": (_ratio(
            self_us(ops, "protocol.encode_reply"),
            calls(ops, "protocol.encode_reply")), "us"),
        "server.busy_replies": (stats.get("busy_rejections", 0), "count"),
        "store.get_many_us_per_key": (_ratio(
            self_us(ops, "store.get_many"), count("store.get_keys")), "us"),
        "store.put_us_per_op": (_ratio(
            self_us(ops, "store.put"), calls(ops, "store.put")), "us"),
        "store.delete_us_per_op": (_ratio(
            self_us(ops, "store.delete"), calls(ops, "store.delete")), "us"),
        "index.lookup_many_us_per_key": (_ratio(
            self_us(ops, "index.lookup_many"), count("index.lookup_keys")), "us"),
        "index.put_us_per_op": (_ratio(
            self_us(ops, "index.put") + self_us(ops, "index.try_update"), index_writes), "us"),
        "index.kicks_per_insert": (_ratio(
            count("store.put_kicks"), count("store.put_created")), "kicks/insert"),
        "index.stash_items": (stats.get("index_stash_population", 0), "count"),
        "index.load_ratio": (stats.get("index_load_ratio", 0), "ratio"),
        "mem.onchip_reads_per_op": (_ratio(phase.mem["on_r"], client_ops), "reads/op"),
        "mem.offchip_reads_per_op": (_ratio(phase.mem["off_r"], client_ops), "reads/op"),
        "mem.offchip_writes_per_op": (_ratio(phase.mem["off_w"], client_ops), "writes/op"),
        "log.append_us_per_op": (_ratio(
            self_us(ops, "log.append"), calls(ops, "log.append")), "us"),
        "log.bytes_written_per_user_byte": (_ratio(
            count("log.bytes"), phase.user_bytes), "B/B"),
        "maint.compactions": (stats.get("store_compactions", 0), "count"),
        "maint.checkpoints": (stats.get("store_checkpoints", 0), "count"),
        "maint.compact_ms": (_ratio(
            self_us(ops, "maint.compact"), calls(ops, "maint.compact")) / 1e3, "ms"),
        "maint.checkpoint_ms": (_ratio(
            self_us(ops, "maint.checkpoint"), calls(ops, "maint.checkpoint")) / 1e3, "ms"),
        "maint.max_stall_ms": (ops.get("maint.maybe_run", (0, 0, 0, 0))[3] / 1e6, "ms"),
        "recovery.checkpoint_decode_ms": (_ratio(
            self_us(restart, "recovery.decode_checkpoint"), restarts) / 1e3, "ms"),
        "recovery.scan_ms": (_ratio(
            self_us(restart, "recovery.scan_log_bytes"), restarts) / 1e3, "ms"),
        "recovery.scanned_bytes": (_ratio(
            count("recovery.scanned_bytes", "restart"), restarts), "B"),
        "recovery.restore_ms": (_ratio(
            self_us(restart, "recovery.restore_resizable"), restarts) / 1e3, "ms"),
        "recovery.tail_records": (_ratio(
            count("recovery.tail_records", "restart"), restarts), "count"),
        "gc.pause_ms": (gc_ms, "ms"),
        "unattributed_ms": (tracer.ledger()["unattributed"], "ms"),
    }
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}
