"""The three workloads.  Each returns a :class:`Run` with its end-to-end
metrics (untraced) or its per-layer metrics (traced), the outcome of the
answer checks, and report lines for a human reader.

All workloads use the ``small`` scale, closed loops and the program's
defaults: vector executor, parallelism 1, result cache off, plan cache of
512 entries (and the server's 30 s timeout on ``http-mixed``).
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness
import inputs
import layers
from harness import Outcome, describe, fingerprint, median, percentile
from spans import Span, SpanRecorder, install

#: hot warm-up: passes over the texts until one pass is within this share
#: of the previous one (QPS keeps climbing for a few passes after start)
WARMUP_STEADY = 0.05
WARMUP_MIN_PASSES = 5
WARMUP_MAX_S = 8.0
#: http-mixed: closed-loop clients (the container has two CPUs)
CLIENTS = 2
HTTP_WARMUP_S = 2.0
#: requests per throughput block: three ten-request mix blocks per client
HTTP_BLOCK = 3 * len(inputs.MIX_BLOCK) * CLIENTS
SERVER_START_TIMEOUT_S = 120.0
#: timed slices of an untraced run; one set-up runs before each, and
#: setup_s is the median of these set-ups
SLICES = 3
#: the end-to-end metrics every workload reports, with tracing off
END_TO_END = ("setup_s", "throughput_ops_s", "p50_ms", "p90_ms", "peak_rss_mb")


class Run:
    def __init__(self):
        self.outcome = Outcome()
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.report: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _ldbc_templates():
    from repro.datagen.ldbc.queries import template

    return {name: template(name) for name in ("ldbc_q2", "ldbc_q3", "ldbc_q4", "ldbc_q5", "ldbc_q8")}


def _reference_engine(dataset):
    """A second engine over the same store: its own statistics and optimizer,
    no plan cache, no session — a different public path to each answer."""
    from repro import QueryEngine

    return QueryEngine(dataset.store)


def _read_all(session, text: str):
    cursor = session.execute(text)
    return [row for page in cursor.pages() for row in page]


def _slices(trace: bool) -> List[bool]:
    """Whether each timed slice is traced.

    An untraced run measures ``SLICES`` slices with one set-up between
    each: the set-ups are needed anyway, and they spread the timed window
    over more of the host's speed drift.  A traced run measures one
    untraced slice, then one traced slice.
    """
    return [False, True] if trace else [False] * SLICES


def _traced(recorder: SpanRecorder, measure):
    """Run ``measure()`` with the layer wrappers installed."""
    installed = install(recorder)
    try:
        return measure()
    finally:
        installed.remove()


# -- hot -------------------------------------------------------------------------------


def run_hot(seed: int, seconds: float, trace: bool) -> Run:
    """One in-process session replaying a few dozen fixed texts, plan cache
    always hit; one operation in fifty is the analytic path count."""
    run = Run()
    import repro
    from repro.experiments import common

    dataset = repro.connect("ldbc:small")
    session = dataset.session()
    reference = _reference_engine(dataset)
    ldbc = inputs.ldbc_properties(reference, common.ldbc_dataset("small"))
    texts = inputs.hot_texts(seed, ldbc, _ldbc_templates())
    expected = {text: fingerprint(reference.execute(text).rows) for text in texts + [inputs.PATH_COUNT_QUERY]}
    schedule = inputs.hot_schedule(seed, texts)

    passes = _warm_up(session, texts)
    run.report.append("warm-up: %d passes over %d texts, last %.3f s" % (len(passes), len(texts), passes[-1]))

    def phase(duration: float, recorder: Optional[SpanRecorder] = None) -> Dict:
        """Whole blocks of PATH_COUNT_EVERY operations until ``duration``."""
        ops = []
        started = time.perf_counter()
        deadline = started + duration
        while time.perf_counter() < deadline or len(ops) % inputs.PATH_COUNT_EVERY:
            kind, text = next(schedule)
            begin = time.perf_counter()
            try:
                if recorder is None:
                    rows = _read_all(session, text)
                else:
                    with recorder.span("op", recorder.new_request_id(), kind=kind):
                        rows = _read_all(session, text)
                end = time.perf_counter()
                digest = fingerprint(rows)
            except Exception as error:  # every failure counts, whatever raised it
                end = time.perf_counter()
                digest = repr(error)
            ops.append((kind, begin, end, text, digest))
        return {"ops": ops, "started": started,
                "rates": harness.block_rates([op[2] for op in ops], started, inputs.PATH_COUNT_EVERY)}

    setups, plain, traced = [], [], []
    recorder = SpanRecorder()
    slices = _slices(trace)
    for traced_slice in slices:
        setups.append(harness.probe_setup("hot", trace))
        if traced_slice:
            traced.append(_traced(recorder, lambda: phase(seconds / len(slices), recorder)))
        else:
            plain.append(phase(seconds / len(slices)))
    for kind, _begin, _end, text, digest in [op for part in plain + traced for op in part["ops"]]:
        run.outcome.check(digest == expected[text], "%s answer differs: %s" % (kind, text[:80]))

    ops = [op for part in plain for op in part["ops"]]
    latencies = [(end - begin) * 1e3 for _kind, begin, end, _text, _digest in ops]
    throughput = _median_rate(plain)
    run.report.append("ops: %d in %d slices, latency %s" % (len(ops), len(plain), describe(latencies)))
    for kind in ("hot", "path_count"):
        values = [(end - begin) * 1e3 for k, begin, end, _t, _d in ops if k == kind]
        run.report.append("  %-10s %s" % (kind, describe(values)))
    if not trace:
        _end_to_end(run, setups, throughput, latencies, harness.peak_rss_mb())
        return run
    layers.common(run, recorder.spans, setup_spans=[setup["spans"] for setup in setups])
    run.put("trace.overhead_ratio", _median_rate(traced) / throughput, "ratio")
    return run


def _median_rate(parts: List[Dict]) -> float:
    """Median of the block rates of every slice."""
    return median([rate for part in parts for rate in part["rates"]])


def _warm_up(session, texts) -> List[float]:
    """Passes over ``texts`` and the path count until the pass time is steady."""
    passes: List[float] = []
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        for text in list(texts) + [inputs.PATH_COUNT_QUERY]:
            _read_all(session, text)
        passes.append(time.perf_counter() - begin)
        if len(passes) >= WARMUP_MIN_PASSES and abs(passes[-1] - passes[-2]) <= WARMUP_STEADY * passes[-2]:
            return passes
        if time.perf_counter() - started > WARMUP_MAX_S:
            return passes


def _end_to_end(run: Run, setups, throughput: float, latencies, rss_mb: float) -> None:
    run.put("setup_s", median([setup["setup_s"] for setup in setups]), "s")
    run.put("throughput_ops_s", throughput, "1/s")
    run.put("p50_ms", percentile(latencies, 50), "ms")
    run.put("p90_ms", percentile(latencies, 90), "ms")
    run.put("peak_rss_mb", rss_mb, "MB")
    run.report.append("set-up: %s" % ", ".join("%.3f s" % setup["setup_s"] for setup in setups))
    if len(latencies) < 100:
        run.report.append("WARNING: p90 has fewer than ten samples beyond it (n=%d)" % len(latencies))


# -- curate ------------------------------------------------------------------------------


def run_curate(seed: int, seconds: float, trace: bool) -> Run:
    """The paper's pipeline: ``curate()`` over stratified candidates of
    ldbc_q3, ldbc_q2 and bsbm_bi_q4, a fresh sub-seed per call."""
    run = Run()
    import repro
    from repro.core.curation import curate
    from repro.datagen.bsbm.queries import template as bsbm_template
    from repro.engine.query_engine import execution_noise_key
    from repro.experiments import common

    ldbc_db = repro.connect("ldbc:small")
    bsbm_db = repro.connect("bsbm:small")
    engines = {"ldbc": ldbc_db.engine, "bsbm": bsbm_db.engine}
    references = {"ldbc": _reference_engine(ldbc_db), "bsbm": _reference_engine(bsbm_db)}
    ldbc = inputs.ldbc_properties(references["ldbc"], common.ldbc_dataset("small"))
    bsbm_types = inputs.bsbm_types_ranked(common.bsbm_dataset("small"))
    templates = dict(_ldbc_templates(), bsbm_bi_q4=bsbm_template("bsbm_bi_q4"))

    candidate_latencies: List[float] = []
    for engine in engines.values():
        engine.execute_template = _timed(engine.execute_template, candidate_latencies)
    next_call = [-len(inputs.CURATE_ROUND)]  # the warm-up round's own sub-seeds

    def one_round(recorder: Optional[SpanRecorder]):
        calls = []
        for name, candidates in inputs.CURATE_ROUND:
            call = next_call[0]
            next_call[0] += 1
            space = inputs.curate_space(seed, call, name, candidates, ldbc, bsbm_types)
            engine = engines["bsbm" if name.startswith("bsbm") else "ldbc"]
            first = len(candidate_latencies)
            begin = time.perf_counter()
            if recorder is None:
                workload = curate(engine, templates[name], space, candidates=candidates,
                                  seed=inputs.sub_seed(seed, "curate-call", call, name))
            else:
                with recorder.span("op", recorder.new_request_id(), template=name):
                    workload = curate(engine, templates[name], space, candidates=candidates,
                                      seed=inputs.sub_seed(seed, "curate-call", call, name))
            calls.append((name, time.perf_counter() - begin, workload,
                          candidate_latencies[first:]))
        return calls

    def phase(duration: float, recorder: Optional[SpanRecorder] = None) -> Dict:
        """Whole rounds until ``duration``; one candidates-per-second rate
        per round."""
        calls: List = []
        rates: List[float] = []
        started = time.perf_counter()
        while time.perf_counter() - started < duration:
            begin = time.perf_counter()
            done = one_round(recorder)
            rates.append(sum(len(values) for _n, _s, _w, values in done) / (time.perf_counter() - begin))
            calls.extend(done)
        return {"calls": calls, "rates": rates}

    expected: Dict[Tuple[str, str], tuple] = {}

    def check(part: Dict) -> None:
        for name, _seconds, workload, _latencies in part["calls"]:
            engine = references["bsbm" if name.startswith("bsbm") else "ldbc"]
            for analysis in workload.analyses:
                text = inputs.instantiate(templates[name].text, analysis.binding)
                key = (name, analysis.binding_key())
                try:
                    if key not in expected:
                        result = engine.execute(text, execution_noise_key(name, analysis.binding, 0))
                        expected[key] = (result.plan_signature(), result.estimated_cout,
                                         result.actual_cout, result.runtime_ms, len(result))
                    ok = expected[key] == (analysis.plan_signature, analysis.estimated_cout,
                                           analysis.actual_cout, analysis.runtime_ms, analysis.result_rows)
                except Exception as error:  # every failure counts, whatever raised it
                    ok = False
                    text = "%s (%r)" % (text, error)
                run.outcome.check(ok, "%s analysis differs: %s" % (name, text[:80]))

    one_round(None)
    setups, plain, traced = [], [], []
    recorder = SpanRecorder()
    slices = _slices(trace)
    for traced_slice in slices:
        setups.append(harness.probe_setup("curate", trace))
        if traced_slice:
            traced.append(_traced(recorder, lambda: phase(seconds / len(slices), recorder)))
        else:
            plain.append(phase(seconds / len(slices)))
        # checking between slices also spreads them further apart in time
        check((traced if traced_slice else plain)[-1])
    for engine in engines.values():
        del engine.execute_template

    calls = [call for part in plain for call in part["calls"]]
    traced_calls = [call for part in traced for call in part["calls"]]

    latencies = [latency * 1e3 for _n, _s, _w, values in calls for latency in values]
    run.report.append("candidates: %d over %d curate() calls, latency %s"
                      % (len(latencies), len(calls), describe(latencies)))
    for name, _candidates in inputs.CURATE_ROUND:
        durations = [s for n, s, _w, _l in calls if n == name]
        run.report.append("  %-10s curate() median %.3f s (n=%d), classes per call %.1f"
                          % (name, median(durations), len(durations),
                             sum(len(w.partition) for n, _s, w, _l in calls if n == name) / max(1, len(durations))))
    run.report.append("  curate_s (all calls) median %.3f s" % median([s for _n, s, _w, _l in calls]))
    throughput = _median_rate(plain)
    if not trace:
        _end_to_end(run, setups, throughput, latencies, harness.peak_rss_mb())
        return run
    layers.common(run, recorder.spans, setup_spans=[setup["spans"] for setup in setups])
    layers.curate(run, recorder.spans, traced_calls, calls)
    run.put("trace.overhead_ratio", _median_rate(traced) / throughput, "ratio")
    return run


def _timed(function, latencies: List[float]):
    """``function``, appending each call's duration to ``latencies``."""

    def timed(*args, **kwargs):
        begin = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - begin)

    return timed


# -- http-mixed --------------------------------------------------------------------------------


class Server:
    """``repro serve ldbc:small`` in its own process (see ``serve.py``)."""

    def __init__(self, trace: bool):
        from repro.api.client import RemoteEndpoint

        begin = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "%s/serve.py" % harness.HERE, "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, env=harness.program_env(),
        )
        line = self.process.stdout.readline()
        match = re.search(r" at (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.endpoint = RemoteEndpoint(match.group(1))
        while True:
            try:
                self.endpoint.health()
                break
            except Exception:
                if time.perf_counter() - begin > SERVER_START_TIMEOUT_S or self.process.poll() is not None:
                    self.stop()
                    raise
                time.sleep(0.01)
        self.setup_s = time.perf_counter() - begin
        self.url = match.group(1)
        self.peak_rss_mb = 0.0

    def stop(self) -> List[Span]:
        """SIGTERM (graceful drain), wait, and return the server's spans."""
        spans: List[Span] = []
        if self.process.poll() is None:
            self.peak_rss_mb = harness.peak_rss_mb(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
        try:
            output = self.process.stdout.read()
        finally:
            self.process.stdout.close()
            self.process.wait(timeout=60)
        for line in output.splitlines():
            if line.startswith("["):
                spans = [Span.from_list(item) for item in json.loads(line)]
        return spans


def run_http_mixed(seed: int, seconds: float, trace: bool) -> Run:
    """Two closed-loop HTTP clients against ``repro serve``: 30% cold reads,
    60% hot reads, 10% writes.  Each slice runs on a freshly started server."""
    run = Run()
    import repro
    from repro.experiments import common

    dataset = repro.connect("ldbc:small")
    reference = _reference_engine(dataset)
    ldbc = inputs.ldbc_properties(reference, common.ldbc_dataset("small"))
    templates = _ldbc_templates()
    hot = inputs.hot_texts(seed, ldbc, templates)
    expected = {text: fingerprint(reference.execute(text).rows) for text in hot}

    def drive(server: Server, duration: float, recorder: Optional[SpanRecorder] = None) -> Dict:
        """Prime the hot texts, warm up, then run ``duration`` seconds timed."""
        clients = [inputs.ClientInputs(seed, index, CLIENTS, ldbc, hot, templates) for index in range(CLIENTS)]
        initial = server.endpoint.health()["triples"]
        for text in hot:
            server.endpoint.query(text)
        warm: List = []
        _closed_loop(server.url, clients, HTTP_WARMUP_S, None, warm)
        rejected = _rejected(server.endpoint)
        ops: List = []
        started = time.perf_counter()
        _closed_loop(server.url, clients, duration, recorder, ops)
        return {
            "initial": initial, "warm": warm, "ops": ops, "started": started,
            "ended": max(op[2] for op in ops),
            "rates": harness.block_rates([op[2] for op in ops], started, HTTP_BLOCK),
            "final": server.endpoint.health()["triples"],
            "rejected": _rejected(server.endpoint) - rejected,
        }

    def check_phase(phase: Dict) -> None:
        net = 0
        for kind, _begin, _end, _text, answer in phase["warm"] + phase["ops"]:
            if kind == "write" and isinstance(answer, dict):
                net += answer.get("inserted", 0) - answer.get("deleted", 0)
        for kind, _begin, _end, text, answer in phase["ops"]:
            if kind == "write":
                ok = write_ok(text, answer)
            else:
                if text not in expected:
                    expected[text] = fingerprint(reference.execute(text).rows)
                ok = answer == expected[text]
            run.outcome.check(ok, "%s failed: %s -> %r" % (kind, text[:80], str(answer)[:120]))
        initial, final = phase["initial"], phase["final"]
        run.outcome.check(final == initial + net, "healthz triples %d != %d + %d" % (final, initial, net))

    setups, peaks, plain, traced = [], [], [], []
    recorder = SpanRecorder("c")
    slices = _slices(trace)
    for traced_slice in slices:
        server = Server(traced_slice)
        try:
            if traced_slice:
                traced.append(_traced(recorder, lambda: drive(server, seconds / len(slices), recorder)))
            else:
                plain.append(drive(server, seconds / len(slices)))
        finally:
            server_spans = server.stop()
        check_phase((traced if traced_slice else plain)[-1])
        if not traced_slice:
            setups.append({"setup_s": server.setup_s})
            peaks.append(server.peak_rss_mb)

    ops = [op for phase in plain for op in phase["ops"]]
    by_kind: Dict[str, List[float]] = {}
    for kind, begin, end, _text, _answer in ops:
        by_kind.setdefault(kind, []).append((end - begin) * 1e3)
    latencies = [value for values in by_kind.values() for value in values]
    throughput = _median_rate(plain)
    run.report.append("requests: %d in %d slices with %d clients, latency %s"
                      % (len(ops), len(plain), CLIENTS, describe(latencies)))
    for kind in ("read_cold", "read_hot", "write"):
        run.report.append("  %-10s %s" % (kind, describe(by_kind.get(kind, []))))
    if not trace:
        _end_to_end(run, setups, throughput, latencies, max(peaks))
        return run
    for kind in ("read_cold", "read_hot", "write"):
        values = by_kind.get(kind, [])
        run.put("mix.%s_p50_ms" % kind, percentile(values, 50), "ms")
        run.put("mix.%s_p90_ms" % kind, percentile(values, 90), "ms")
    # priming and warm-up ran traced too; keep the timed phase only (both
    # processes read the same monotonic clock)
    timed = traced[0]
    window = [span for span in server_spans + recorder.spans
              if timed["started"] <= span.start <= timed["ended"]]
    layers.common(run, window, setup_spans=[])
    layers.http(run, window, server_spans, timed["ops"], hot, timed["rejected"])
    run.put("trace.overhead_ratio", _median_rate(traced) / throughput, "ratio")
    return run


def write_ok(text: str, answer) -> bool:
    """An update answered with exactly the triple counts it must change."""
    want = inputs.TRIPLES_PER_WRITE
    counts = (want, 0) if text.startswith("INSERT") else (0, want)
    return isinstance(answer, dict) and (answer.get("inserted"), answer.get("deleted")) == counts


def _rejected(endpoint) -> int:
    """Non-2xx responses the server counted."""
    by_code = endpoint.metrics()["responses"]["by_code"]
    return sum(count for code, count in by_code.items() if not str(code).startswith("2"))


def _closed_loop(url: str, clients, duration: float, recorder: Optional[SpanRecorder], ops: List) -> None:
    """Each client thread sends its next request when the previous answer
    arrived, until ``duration`` has passed; appends
    ``(kind, begin, end, text, answer)`` to ``ops``."""
    from repro.api.client import RemoteEndpoint

    deadline = time.perf_counter() + duration
    lock = threading.Lock()
    failures: List[BaseException] = []

    def client(inputs_: "inputs.ClientInputs"):
        endpoint = RemoteEndpoint(url)
        mine = []
        try:
            while time.perf_counter() < deadline:
                kind, text = inputs_.next_op()
                begin = time.perf_counter()
                try:
                    if recorder is None:
                        answer = _send(endpoint, kind, text)
                    else:
                        with recorder.span("op", recorder.new_request_id(), kind=kind):
                            answer = _send(endpoint, kind, text)
                    end = time.perf_counter()
                    if kind != "write":
                        answer = fingerprint(answer)
                except Exception as error:  # a failed request is a counted failure
                    end = time.perf_counter()
                    answer = repr(error)
                mine.append((kind, begin, end, text, answer))
        except BaseException as error:  # surfaced on the main thread below
            failures.append(error)
        with lock:
            ops.extend(mine)

    threads = [threading.Thread(target=client, args=(c,), name="perfbench-client") for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 120)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    if failures:
        raise failures[0]


def _send(endpoint, kind: str, text: str):
    if kind == "write":
        return endpoint.update(text)
    return endpoint.query(text)[1]
