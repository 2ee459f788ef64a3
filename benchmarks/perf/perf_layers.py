"""Which callables the traced run wraps, and the per-layer metrics it derives.

Wrappers are installed by the harness around public callables of ``repro``
— nothing under ``src/`` knows it is being traced.  Span names are
``"<module path under src/repro>:<callable>"``; the part before the colon is
the layer a metric's prefix names.
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import Callable, Dict, List, Optional

from perf_harness import percentile
from perf_tracing import Patcher, Tracer, TraceReport

LAYERS = (
    "service.query_service",
    "service.sharded",
    "service.subscriptions",
    "core.requests",
    "core.database",
    "core.executor",
    "core.aknn",
    "core.range_search",
    "core.rknn",
    "core.reverse_nn",
    "index.soa",
    "index.rtree",
    "index.bulk",
    "fuzzy.summary",
    "fuzzy.alpha_distance",
    "fuzzy.fuzzy_object",
    "storage.object_store",
    "storage.wal",
    "storage.snapshot",
    "harness",
)


# ----------------------------------------------------------------------
# Counts read from the results of wrapped calls
# ----------------------------------------------------------------------
def _aknn_counts(tracer: Tracer, args, result) -> None:
    stats = result.stats
    tracer.count("core.aknn.calls")
    tracer.count("core.aknn.node_accesses", stats.node_accesses)
    tracer.count(
        "core.aknn.bound_evals",
        stats.lower_bound_evaluations + stats.upper_bound_evaluations,
    )
    tracer.count("core.aknn.distance_evals", stats.distance_evaluations)


def _executor_counts(tracer: Tracer, args, result) -> None:
    stats = result.stats
    tracer.count("core.executor.queries", len(result.results))
    tracer.count("core.executor.node_accesses", stats.node_accesses)
    tracer.count("core.executor.nodes_pruned", stats.extra.get("nodes_pruned", 0.0))
    tracer.count("core.executor.distance_evals", stats.distance_evaluations)
    tracer.count("core.executor.candidates", stats.extra.get("batch_candidates", 0.0))
    tracer.count("core.executor.results", sum(len(r.neighbors) for r in result.results))


def _range_counts(tracer: Tracer, args, result) -> None:
    tracer.count("core.range_search.candidates", result.stats.distance_evaluations)
    tracer.count("core.range_search.results", len(result.matches))


def _sweep_counts(tracer: Tracer, args, result) -> None:
    tracer.count("core.rknn.calls")
    tracer.count("core.rknn.aknn_calls", result.stats.aknn_calls)
    tracer.count("core.rknn.refinement_steps", result.stats.refinement_steps)


def _reverse_counts(tracer: Tracer, args, result) -> None:
    for answer in result:
        if not isinstance(answer, BaseException):
            tracer.count("core.reverse_nn.queries")
            tracer.count("core.reverse_nn.results", len(answer.object_ids))
            tracer.count(
                "core.reverse_nn.candidates",
                answer.stats.extra.get("candidates", 0.0),
            )


def _snapshot_bytes(tracer: Tracer, args, result) -> None:
    manager = args[0]
    wal_name = manager.wal.path.name
    rewritten = sum(
        entry.stat().st_size
        for entry in manager.directory.iterdir()
        if entry.is_file() and entry.name != wal_name
    )
    tracer.count("storage.snapshot.bytes", rewritten)


def _wal_wrapper(tracer: Tracer) -> Callable[[Callable], Callable]:
    """A span per WAL append that also reads how far the file grew."""

    def wrap(fn: Callable) -> Callable:
        def traced(self, op, object_id, blob):
            handle = self._file.fileno()
            before = os.fstat(handle).st_size
            token = tracer.open("storage.wal:append")
            try:
                return fn(self, op, object_id, blob)
            finally:
                tracer.close(token)
                self._file.flush()
                tracer.count("storage.wal.bytes", os.fstat(handle).st_size - before)
                tracer.count("storage.wal.user_bytes", len(blob))
                tracer.count("storage.wal.records")

        traced.__wrapped_by_perf__ = fn
        return traced

    return wrap


def _fanout_adapter(tracer: Tracer, args: tuple) -> tuple:
    """Give every per-shard call of a fan-out its own child span."""
    database, shards, fn = args

    def shard_call(shard):
        token = tracer.open("service.sharded:shard_call", shard.index)
        try:
            return fn(shard)
        finally:
            tracer.close(token)

    return (database, shards, shard_call)


def _boxes(args: tuple) -> int:
    """Box rows evaluated by ``min/max_dist_to_boxes`` (from argument shapes)."""
    query_lower, lower = args[0], args[2]
    queries = query_lower.shape[0] if query_lower.ndim == 2 else 1
    return int(queries * lower.shape[0])


# ----------------------------------------------------------------------
# Installing
# ----------------------------------------------------------------------
def install_request_spans(tracer: Tracer, patcher: Patcher) -> None:
    """Phase ``open``: spans on ``submit_request`` and the flush only.

    With requests in flight concurrently a worker-side span has no unique
    parent, so the two spans are joined by request id instead.
    """
    from repro.service.query_service import QueryService

    ids = tracer.request_ids
    patcher.patch_attr(
        QueryService,
        "submit_request",
        lambda fn: tracer.wrap_span(
            fn,
            "service.query_service:submit_request",
            ident=lambda args, kwargs: ids.get(id(args[1])),
        ),
    )
    patcher.patch_attr(
        QueryService,
        "_execute",
        lambda fn: tracer.wrap_span(
            fn,
            "service.query_service:flush",
            ident=lambda args, kwargs: [
                ids.get(id(pending.request)) for pending in args[1].requests
            ],
        ),
    )


def install_all(tracer: Tracer, patcher: Patcher) -> None:
    """Every layer boundary, for set-up and the closed-loop phases."""
    # import_module, not ``import a.b as m``: packages here re-export
    # functions under their submodule's name (repro.fuzzy.alpha_distance).
    executor_module = import_module("repro.core.executor")
    requests_module = import_module("repro.core.requests")
    reverse_module = import_module("repro.core.reverse_nn")
    distance_module = import_module("repro.fuzzy.alpha_distance")
    summary_module = import_module("repro.fuzzy.summary")
    bulk_module = import_module("repro.index.bulk")
    soa_module = import_module("repro.index.soa")
    from repro.core.aknn import AKNNSearcher
    from repro.core.database import FuzzyDatabase
    from repro.core.executor import BatchQueryExecutor
    from repro.core.range_search import AlphaRangeSearcher
    from repro.core.reverse_nn import ReverseAKNNSearcher
    from repro.core.rknn import RKNNSearcher
    from repro.fuzzy.fuzzy_object import FuzzyObject
    from repro.index.bulk import CompactionManager
    from repro.index.rtree import RTree
    from repro.index.soa import NodeSoA
    from repro.service.sharded import ShardedDatabase
    from repro.service.subscriptions import SubscriptionEngine
    from repro.storage.object_store import ObjectStore
    from repro.storage.snapshot import SnapshotManager
    from repro.storage.wal import WriteAheadLog

    install_request_spans(tracer, patcher)

    def span(owner, attr, name, **options):
        patcher.patch_attr(owner, attr, lambda fn: tracer.wrap_span(fn, name, **options))

    def function_span(module, attr, name, **options):
        patcher.patch_function(
            module, attr, lambda fn: tracer.wrap_span(fn, name, **options)
        )

    def kernel(owner, attr, name, rows=None):
        patcher.patch_attr(owner, attr, lambda fn: tracer.wrap_kernel(fn, name, rows))

    def function_kernel(module, attr, name, rows=None):
        patcher.patch_function(
            module, attr, lambda fn: tracer.wrap_kernel(fn, name, rows)
        )

    # Planning and the engines' bucket hooks.
    function_span(requests_module, "execute_plan", "core.requests:execute_plan")
    for family in ("aknn", "range", "sweep", "reverse"):
        on_result = _reverse_counts if family == "reverse" else None
        span(
            ShardedDatabase, f"_execute_{family}_bucket",
            f"service.sharded:{family}_bucket", on_result=on_result,
        )
        span(
            FuzzyDatabase, f"_execute_{family}_bucket",
            f"core.database:{family}_bucket", on_result=on_result,
        )
    span(
        ShardedDatabase, "_map_pool", "service.sharded:fanout",
        handoff=True, adapt=_fanout_adapter,
    )
    span(ShardedDatabase, "insert", "service.sharded:insert")
    span(ShardedDatabase, "delete", "service.sharded:delete")
    span(ShardedDatabase, "recover", "service.sharded:recover")
    span(ShardedDatabase, "enable_durability", "service.sharded:enable_durability")
    span(FuzzyDatabase, "insert", "core.database:insert")
    span(FuzzyDatabase, "delete", "core.database:delete")
    span(FuzzyDatabase, "recover", "core.database:recover")

    # Searchers.
    span(BatchQueryExecutor, "aknn_batch", "core.executor:aknn_batch", on_result=_executor_counts)
    function_kernel(executor_module, "_exact_min_distances", "core.executor:exact_min_distances")
    span(AKNNSearcher, "search", "core.aknn:search", on_result=_aknn_counts)
    span(AlphaRangeSearcher, "search", "core.range_search:search", on_result=_range_counts)
    span(RKNNSearcher, "search", "core.rknn:search", on_result=_sweep_counts)
    span(ReverseAKNNSearcher, "search_batch", "core.reverse_nn:search_batch")
    for name in (
        "query_filter_thresholds",
        "plan_bucket_verification",
        "collect_memberships",
        "build_bucket_results",
    ):
        function_span(reverse_module, name, f"core.reverse_nn:{name}")

    # Index kernels (thousands of calls a second: accumulated, no spans).
    function_kernel(soa_module, "min_dist_to_boxes", "index.soa:min_dist_to_boxes", _boxes)
    function_kernel(soa_module, "max_dist_to_boxes", "index.soa:max_dist_to_boxes", _boxes)
    function_kernel(soa_module, "certainly_closer_counts", "index.soa:certainly_closer_counts")
    function_kernel(
        soa_module, "rep_to_samples_distances", "index.soa:rep_to_samples_distances",
        lambda args: int(args[0].shape[0]),
    )
    for name in ("approx_alpha_bounds", "min_dist", "improved_min_dist", "max_dist", "rep_upper_bounds"):
        kernel(NodeSoA, name, f"index.soa:{name}")
    for name in ("__init__", "append", "remove_row", "refresh_box"):
        kernel(NodeSoA, name, f"index.soa:maintain.{name.strip('_')}")
    span(RTree, "insert", "index.rtree:insert")
    span(RTree, "delete", "index.rtree:delete")
    span(RTree, "delete_lazy", "index.rtree:delete_lazy")
    function_span(bulk_module, "bulk_load_tree", "index.bulk:bulk_load_tree")
    span(CompactionManager, "maybe_compact", "index.bulk:maybe_compact")

    # Fuzzy objects and exact distance.
    function_span(summary_module, "build_summary", "fuzzy.summary:build_summary")
    function_kernel(
        distance_module, "alpha_distance_points", "fuzzy.alpha_distance:alpha_distance_points",
        lambda args: int(args[0].shape[0] + args[1].shape[0]),
    )
    kernel(FuzzyObject, "alpha_cut", "fuzzy.fuzzy_object:alpha_cut")

    # Storage and durability.
    kernel(ObjectStore, "get", "storage.object_store:get")
    kernel(ObjectStore, "delete", "storage.object_store:delete")
    span(ObjectStore, "put", "storage.object_store:put")
    patcher.patch_attr(WriteAheadLog, "_append", _wal_wrapper(tracer))
    span(SnapshotManager, "snapshot", "storage.snapshot:snapshot", on_result=_snapshot_bytes)

    # Standing queries.
    span(SubscriptionEngine, "notify_insert", "service.subscriptions:notify_insert")
    span(SubscriptionEngine, "notify_delete", "service.subscriptions:notify_delete")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def count_metrics(delta: Dict[str, float], facts: Dict[str, float]) -> Dict[str, float]:
    """Count metrics from the program's own counters (no wrappers needed).

    ``delta`` is the change of :meth:`Workload.raw_counters` over the
    deterministic phase; these repeat exactly for a seed, traced or not.
    """
    ops = facts["ops"]
    get = lambda name: delta.get(name, 0.0)  # noqa: E731 - local shorthand
    accesses = get("store.object_accesses")
    cut_lookups = get("cut.hits") + get("cut.misses")
    screened = get("service.sub_screened_out")
    return {
        "service.sharded.fanouts_per_op": ratio(get("engine.shard_fanouts"), ops),
        "service.sharded.retries_per_op": ratio(get("engine.retries"), ops),
        "service.sharded.partial_frac": ratio(get("engine.partial_results"), ops),
        "core.requests.requests_per_group": ratio(
            get("engine.plan_requests"), get("engine.plan_groups")
        ),
        "fuzzy.fuzzy_object.cut_cache_hit_rate": ratio(get("cut.hits"), cut_lookups),
        "storage.object_store.physical_reads_per_op": ratio(get("store.physical_reads"), ops),
        "storage.object_store.cache_hit_rate": ratio(get("store.cache_hits"), accesses),
        "storage.object_store.bytes_read_per_op": ratio(get("store.bytes_read"), ops),
        "storage.snapshot.count": get("shard.snapshots"),
        "index.bulk.compactions": get("shard.compactions"),
        "service.subscriptions.screen_out_rate": ratio(
            screened, screened + get("service.sub_evaluations")
        ),
        "service.subscriptions.requeries_per_delete": ratio(
            get("service.sub_requeries"), facts.get("deletes", 0.0)
        ),
        "service.subscriptions.deltas_per_write": ratio(
            get("service.sub_deltas"), facts.get("writes", 0.0)
        ),
    }


def traced_metrics(
    run: TraceReport,
    setup: TraceReport,
    facts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer timings and wrapper-derived counts of the traced phase."""
    ops = facts["ops"]
    writes = facts.get("writes", 0.0)
    counts = run.counts
    plans = len(run.named("core.requests:execute_plan"))
    wall = facts["traced_wall_s"]
    layer_self = run.layer_self_s()

    def ms(seconds: float, per: float) -> float:
        return ratio(seconds * 1e3, per)

    def kernel_entry(*names: str) -> float:
        return sum(run.kernel(name)["entry_s"] for name in names)

    sharded_spans = [
        f"service.sharded:{name}"
        for name in ("aknn_bucket", "range_bucket", "sweep_bucket", "reverse_bucket",
                     "fanout", "shard_call")
    ]
    # Slowest over mean shard call, time-weighted over every parallel fan-out.
    slowest = mean = 0.0
    by_parent: Dict[int, List[float]] = {}
    for span in run.named("service.sharded:shard_call"):
        by_parent.setdefault(span[4], []).append(span[3] - span[2])
    for durations in by_parent.values():
        if len(durations) > 1:
            slowest += max(durations)
            mean += sum(durations) / len(durations)

    soa = [name for name in run.kernel_names() if name.startswith("index.soa:")]
    soa_maintain = [name for name in soa if name.startswith("index.soa:maintain.")]
    distance = run.kernel("fuzzy.alpha_distance:alpha_distance_points")

    def family_busy_s(family: str) -> float:
        """Time one request family's bucket hook is busy, on either engine."""
        return run.busy_s(
            f"service.sharded:{family}_bucket", f"core.database:{family}_bucket"
        )

    setup_builds = setup.durations_ms("fuzzy.summary:build_summary")
    out = {
        "service.query_service.self_ms_per_op": ms(
            run.span_self_s(
                "service.query_service:submit_request",
                "service.query_service:flush",
                "service.query_service:await",
            ),
            ops,
        ),
        "service.sharded.self_ms_per_batch": ms(run.span_self_s(*sharded_spans), plans),
        "service.sharded.shard_skew": ratio(slowest, mean),
        "service.sharded.write_self_ms_per_write": ms(
            run.span_self_s("service.sharded:insert", "service.sharded:delete"), writes
        ),
        "core.requests.plan_self_ms_per_batch": ms(
            run.span_self_s("core.requests:execute_plan"), plans
        ),
        "core.executor.busy_ms_per_op": ms(run.busy_s("core.executor:aknn_batch"), ops),
        "core.executor.node_accesses_per_op": ratio(counts.get("core.executor.node_accesses", 0), ops),
        "core.executor.nodes_pruned_per_op": ratio(counts.get("core.executor.nodes_pruned", 0), ops),
        "core.executor.distance_evals_per_op": ratio(counts.get("core.executor.distance_evals", 0), ops),
        "core.executor.candidates_per_result": ratio(
            counts.get("core.executor.candidates", 0), counts.get("core.executor.results", 0)
        ),
        "core.aknn.busy_ms_per_op": ms(run.busy_s("core.aknn:search"), ops),
        "core.aknn.node_accesses_per_op": ratio(counts.get("core.aknn.node_accesses", 0), ops),
        "core.aknn.bound_evals_per_op": ratio(counts.get("core.aknn.bound_evals", 0), ops),
        "core.aknn.distance_evals_per_op": ratio(counts.get("core.aknn.distance_evals", 0), ops),
        "core.range_search.busy_ms_per_op": ms(
            family_busy_s("range"), facts.get("range_ops", 0.0)
        ),
        "core.range_search.candidates_per_result": ratio(
            counts.get("core.range_search.candidates", 0),
            counts.get("core.range_search.results", 0),
        ),
        "core.rknn.busy_ms_per_op": ms(
            family_busy_s("sweep"), facts.get("sweep_ops", 0.0)
        ),
        "core.rknn.aknn_calls_per_op": ratio(
            counts.get("core.rknn.aknn_calls", 0), counts.get("core.rknn.calls", 0)
        ),
        "core.rknn.refinement_steps_per_op": ratio(
            counts.get("core.rknn.refinement_steps", 0), counts.get("core.rknn.calls", 0)
        ),
        "core.reverse_nn.busy_ms_per_op": ms(
            family_busy_s("reverse"), facts.get("reverse_ops", 0.0)
        ),
        "core.reverse_nn.filter_ms_per_op": ms(
            run.busy_s("core.reverse_nn:query_filter_thresholds")
            + kernel_entry("index.soa:certainly_closer_counts"),
            facts.get("reverse_ops", 0.0),
        ),
        "core.reverse_nn.candidates_per_result": ratio(
            counts.get("core.reverse_nn.candidates", 0),
            counts.get("core.reverse_nn.results", 0),
        ),
        "harness.range_share": ratio(family_busy_s("range"), wall),
        "harness.sweep_share": ratio(family_busy_s("sweep"), wall),
        "harness.reverse_share": ratio(family_busy_s("reverse"), wall),
        "index.soa.busy_ms_per_op": ms(run.layer_entry_s("index.soa"), ops),
        "index.soa.calls_per_op": ratio(sum(run.kernel(n)["entries"] for n in soa), ops),
        "index.soa.boxes_per_op": ratio(sum(run.kernel(n)["rows"] for n in soa), ops),
        "index.soa.closer_counts_ms_per_op": ms(
            kernel_entry("index.soa:certainly_closer_counts"), ops
        ),
        "index.soa.maintain_ms_per_write": ms(kernel_entry(*soa_maintain), writes),
        "index.rtree.insert_ms_p50": percentile(run.durations_ms("index.rtree:insert"), 50),
        "index.rtree.delete_lazy_ms_p50": percentile(
            run.durations_ms("index.rtree:delete_lazy"), 50
        ),
        "index.bulk.compaction_stall_ms_max": max(
            run.durations_ms("index.bulk:maybe_compact"), default=0.0
        ),
        "index.bulk.bulk_load_ms": sum(setup.durations_ms("index.bulk:bulk_load_tree")),
        "fuzzy.summary.build_ms_per_object": ratio(sum(setup_builds), len(setup_builds)),
        "fuzzy.summary.build_ms_per_insert": ms(
            run.busy_s("fuzzy.summary:build_summary"), facts.get("inserts", 0.0)
        ),
        "fuzzy.alpha_distance.busy_ms_per_op": ms(distance["entry_s"], ops),
        "fuzzy.alpha_distance.calls_per_op": ratio(distance["calls"], ops),
        "fuzzy.alpha_distance.points_per_call": ratio(distance["rows"], distance["calls"]),
        "fuzzy.fuzzy_object.alpha_cut_ms_per_op": ms(
            kernel_entry("fuzzy.fuzzy_object:alpha_cut"), ops
        ),
        "storage.object_store.busy_ms_per_op": ms(
            kernel_entry("storage.object_store:get", "storage.object_store:delete")
            + run.busy_s("storage.object_store:put"),
            ops,
        ),
        "storage.object_store.put_ms_p50": percentile(
            run.durations_ms("storage.object_store:put"), 50
        ),
        "storage.wal.append_ms_p50": percentile(run.durations_ms("storage.wal:append"), 50),
        "storage.wal.bytes_per_write": ratio(
            counts.get("storage.wal.bytes", 0), counts.get("storage.wal.records", 0)
        ),
        "storage.wal.write_amp": ratio(
            counts.get("storage.wal.bytes", 0), counts.get("storage.wal.user_bytes", 0)
        ),
        "storage.snapshot.stall_ms_max": max(
            run.durations_ms("storage.snapshot:snapshot"), default=0.0
        ),
        "storage.snapshot.bytes_rewritten": counts.get("storage.snapshot.bytes", 0.0),
        "service.subscriptions.notify_ms_per_write": ms(
            run.busy_s(
                "service.subscriptions:notify_insert", "service.subscriptions:notify_delete"
            ),
            writes,
        ),
        "harness.layer_sum_frac": ratio(sum(layer_self.values()), wall),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(layer_self.get(layer, 0.0), wall)
    return out


def queue_wait_ms(report: Optional[TraceReport]) -> List[float]:
    """Submit-to-flush wait per request of phase ``open`` (joined by id)."""
    if report is None:
        return []
    submitted = {
        span[5]: span[2]
        for span in report.named("service.query_service:submit_request")
        if span[5] is not None
    }
    waits = []
    for flush in report.named("service.query_service:flush"):
        for request_id in flush[5] or ():
            if request_id in submitted:
                waits.append((flush[2] - submitted[request_id]) * 1e3)
    return waits
