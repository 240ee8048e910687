"""Per-layer metrics from the spans of a traced run.

Every traced run reports every name in :data:`PER_LAYER`; a layer a
workload bypasses reads 0 there, which is itself the prediction
(``optimizer.calls`` = 0 on ``hot``, ``core.analyses`` = 0 on ``http-mixed``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from harness import median, percentile
from spans import Span, layer_self_seconds, self_times

#: name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "optimizer.optimize_ms.p50": "ms",
    "optimizer.optimize_ms.p90": "ms",
    "optimizer.calls": "count",
    "optimizer.self_share": "ratio",
    "optimizer.self_share.ldbc_q3": "ratio",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.hit_ratio.read_cold": "ratio",
    "plan_cache.hit_ratio.read_hot": "ratio",
    "plan_cache.lookup_ms.p50": "ms",
    "sparql.parse_ms.p50": "ms",
    "sparql.parse_calls": "count",
    "engine.execute_ms.p50": "ms",
    "engine.execute_ms.p90": "ms",
    "engine.decode_ms.p50": "ms",
    "engine.self_share": "ratio",
    "engine.self_share.ldbc_q3": "ratio",
    "engine.rows_examined_per_result": "ratio",
    "engine.execute_after_write_ms.p50": "ms",
    "store.stats_recollects": "count",
    "store.stats_recollect_ms": "ms",
    "store.update_ms.p50": "ms",
    "store.compactions": "count",
    "store.compaction_ms": "ms",
    "store.delta_triples.max": "count",
    "api.session_execute_ms.p50": "ms",
    "api.serialize_ms.p50": "ms",
    "api.http_overhead_ms.p50": "ms",
    "api.rejected": "count",
    "api.client_parse_ms.p50": "ms",
    "api.reads_after_write_share": "ratio",
    "core.analyze_ms.p50": "ms",
    "core.partition_ms": "ms",
    "core.analyses": "count",
    "core.classes": "count",
    "core.self_share.ldbc_q3": "ratio",
    "datagen.generate_s": "s",
    "store.statistics_collect_s": "s",
    "curate.curate_s": "s",
    "mix.read_cold_p50_ms": "ms",
    "mix.read_cold_p90_ms": "ms",
    "mix.read_hot_p50_ms": "ms",
    "mix.read_hot_p90_ms": "ms",
    "mix.write_p50_ms": "ms",
    "mix.write_p90_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _named(spans: Iterable[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]


def _ms(spans: Iterable[Span]) -> List[float]:
    return [span.duration * 1e3 for span in spans]


def _per_request_ms(spans: Iterable[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.request_id] = totals.get(span.request_id, 0.0) + span.duration * 1e3
    return totals


def _startup(spans: Sequence[Span]) -> Dict[str, float]:
    """Data generation and the first statistics scan of one process."""
    generate = sum(span.duration for span in _named(spans, "datagen.generate"))
    scans = [span for span in _named(spans, "store.stats_collect") if span.attrs.get("rescan")]
    first = min(scans, key=lambda span: span.start).duration if scans else 0.0
    return {"generate": generate, "collect": first}


def common(run, spans: Sequence[Span], setup_spans: Sequence) -> None:
    """Metrics every workload can report from its timed-phase spans.

    ``setup_spans`` are the span lists of set-up probes (each one process);
    their data generation and first statistics scan give the set-up layers.
    """
    ops = _named(spans, "op")
    op_seconds = sum(span.duration for span in ops) or 1.0
    shares = layer_self_seconds([span for span in spans if span.name != "op"])
    selves = self_times(spans)

    optimize = _ms(_named(spans, "optimizer.optimize"))
    run.put("optimizer.optimize_ms.p50", percentile(optimize, 50), "ms")
    run.put("optimizer.optimize_ms.p90", percentile(optimize, 90), "ms")
    run.put("optimizer.calls", len(optimize), "count")
    run.put("optimizer.self_share", shares.get("optimizer", 0.0) / op_seconds, "ratio")

    lookups = _named(spans, "plan_cache.lookup")
    hits = sum(1 for span in lookups if span.attrs.get("hit"))
    run.put("plan_cache.hit_ratio", hits / len(lookups) if lookups else 0.0, "ratio")
    run.put("plan_cache.lookup_ms.p50", percentile([selves[s.span_id] * 1e3 for s in lookups], 50), "ms")

    parse = _ms(_named(spans, "sparql.parse"))
    run.put("sparql.parse_ms.p50", percentile(parse, 50), "ms")
    run.put("sparql.parse_calls", len(parse), "count")

    executes = _named(spans, "engine.execute")
    run.put("engine.execute_ms.p50", percentile(_ms(executes), 50), "ms")
    run.put("engine.execute_ms.p90", percentile(_ms(executes), 90), "ms")
    decode = list(_per_request_ms(_named(spans, "engine.decode")).values())
    run.put("engine.decode_ms.p50", percentile(decode, 50), "ms")
    run.put("engine.self_share", shares.get("engine", 0.0) / op_seconds, "ratio")
    rows = sum(span.attrs.get("rows", 0) for span in executes)
    cout = sum(span.attrs.get("cout", 0.0) for span in executes)
    run.put("engine.rows_examined_per_result", cout / rows if rows else 0.0, "ratio")

    updates = sorted(_named(spans, "store.update"), key=lambda span: span.start)
    after_write = []
    ordered = sorted(executes, key=lambda span: span.start)
    position = 0
    for update in updates:
        while position < len(ordered) and ordered[position].start < update.end:
            position += 1
        if position < len(ordered):
            after_write.append(ordered[position].duration * 1e3)
    run.put("engine.execute_after_write_ms.p50", percentile(after_write, 50), "ms")

    rescans = [span for span in _named(spans, "store.stats_collect") if span.attrs.get("rescan")]
    run.put("store.stats_recollects", len(rescans), "count")
    run.put("store.stats_recollect_ms", percentile(_ms(rescans), 50), "ms")
    run.put("store.update_ms.p50", percentile(_ms(updates), 50), "ms")
    compactions = [span for span in updates if span.attrs.get("compacted")]
    run.put("store.compactions", len(compactions), "count")
    run.put("store.compaction_ms", percentile([s.attrs["compaction_s"] * 1e3 for s in compactions], 50), "ms")
    run.put("store.delta_triples.max", max([s.attrs.get("delta_triples", 0) for s in updates] or [0]), "count")

    run.put("api.session_execute_ms.p50", percentile(_ms(_named(spans, "api.session_execute")), 50), "ms")
    serialize = list(_per_request_ms(_named(spans, "api.serialize")).values())
    run.put("api.serialize_ms.p50", percentile(serialize, 50), "ms")
    run.put("api.client_parse_ms.p50", percentile(_ms(_named(spans, "client.parse_json")), 50), "ms")

    analyses = _ms(_named(spans, "core.analyze"))
    run.put("core.analyze_ms.p50", percentile(analyses, 50), "ms")
    run.put("core.partition_ms", percentile(_ms(_named(spans, "core.partition")), 50), "ms")
    run.put("core.analyses", len(analyses), "count")

    startups = [_startup([Span.from_list(item) for item in group]) for group in setup_spans]
    if startups:
        run.put("datagen.generate_s", median([s["generate"] for s in startups]), "s")
        run.put("store.statistics_collect_s", median([s["collect"] for s in startups]), "s")


def curate(run, spans: Sequence[Span], traced_calls, untraced_calls) -> None:
    """Layer shares over the ``ldbc_q3`` calls; classes found; curate_s."""
    q3 = {span.request_id for span in _named(spans, "op") if span.attrs.get("template") == "ldbc_q3"}
    q3_seconds = sum(span.duration for span in _named(spans, "op") if span.request_id in q3) or 1.0
    shares = layer_self_seconds([span for span in spans if span.name != "op"], q3)
    run.put("optimizer.self_share.ldbc_q3", shares.get("optimizer", 0.0) / q3_seconds, "ratio")
    run.put("engine.self_share.ldbc_q3", shares.get("engine", 0.0) / q3_seconds, "ratio")
    run.put("core.self_share.ldbc_q3", shares.get("core", 0.0) / q3_seconds, "ratio")
    run.put("core.classes", sum(len(workload.partition) for _n, _s, workload, _l in traced_calls), "count")
    run.put("curate.curate_s", median([seconds for _n, seconds, _w, _l in untraced_calls]), "s")
    run.report.append("ldbc_q3 self-time shares: %s" % ", ".join(
        "%s %.3f" % (layer, seconds / q3_seconds) for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1])
    ))


def http(run, spans: Sequence[Span], server_spans: Sequence[Span], traced_ops, hot, rejected: int) -> None:
    """Hit ratio by read kind, HTTP overhead and rejections from the timed
    phase's ``spans``; server start-up from all of ``server_spans``."""
    startup = _startup(server_spans)
    run.put("datagen.generate_s", startup["generate"], "s")
    run.put("store.statistics_collect_s", startup["collect"], "s")
    hot = set(hot)
    kind_of = {span.request_id: ("read_hot" if span.attrs.get("text") in hot else "read_cold")
               for span in _named(spans, "api.session_execute")}
    for kind in ("read_cold", "read_hot"):
        lookups = [span for span in _named(spans, "plan_cache.lookup") if kind_of.get(span.request_id) == kind]
        hits = sum(1 for span in lookups if span.attrs.get("hit"))
        run.put("plan_cache.hit_ratio.%s" % kind, hits / len(lookups) if lookups else 0.0, "ratio")

    server_ms = _per_request_ms(
        span for span in spans
        if span.name in ("api.session_execute", "engine.decode", "api.serialize") and span.request_id in kind_of
    )
    reads = [(end - begin) * 1e3 for kind, begin, end, _t, _a in traced_ops if kind != "write"]
    run.put("api.http_overhead_ms.p50", percentile(reads, 50) - percentile(list(server_ms.values()), 50), "ms")
    run.put("api.rejected", rejected, "count")

    timeline = sorted(traced_ops, key=lambda op: op[1])
    reads_total = after_write = 0
    last_write_end = None
    for kind, begin, end, _text, _answer in timeline:
        if kind == "write":
            last_write_end = end if last_write_end is None else max(last_write_end, end)
            continue
        reads_total += 1
        if last_write_end is not None and begin >= last_write_end:
            after_write += 1
            last_write_end = None
    run.put("api.reads_after_write_share", after_write / reads_total if reads_total else 0.0, "ratio")
