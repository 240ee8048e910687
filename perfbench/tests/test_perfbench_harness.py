"""Self-tests of the benchmark harness (not of the program it measures).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), os.path.dirname(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import inputs  # noqa: E402
from spans import Span, SpanRecorder, covered, self_times  # noqa: E402
from workloads import write_ok  # noqa: E402

from repro.rdf.terms import IRI, Literal, Variable  # noqa: E402


# -- the percentile rule --------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert harness.tail_percentile(99) is None
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(199) == 90.0
    assert harness.tail_percentile(200) == 95.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(list(reversed(values)), 90) == 90
    assert harness.percentile([7.0], 90) == 7.0
    assert harness.percentile([], 50) == 0.0
    # with n = 100 exactly ten samples lie beyond p90
    assert sum(1 for value in values if value > harness.percentile(values, 90)) == 10


def test_block_rates_leave_out_a_partial_block():
    # blocks of 2 completions: 2/1 s, 2/2 s, 2/0.5 s; the seventh op is left out
    ends = [0.5, 1.0, 2.0, 3.0, 3.2, 3.5, 9.0]
    assert harness.block_rates(ends, 0.0, 2) == [2.0, 1.0, 4.0]


# -- self time --------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("r", None, "q", "op", 0.0, 10.0),
        Span("a", "r", "q", "engine.execute", 1.0, 4.0),
        Span("b", "r", "q", "engine.decode", 3.0, 6.0),  # overlaps a
        Span("c", "a", "q", "optimizer.optimize", 2.0, 3.0),
        Span("d", "r", "q", "api.serialize", 9.0, 12.0),  # runs past its parent
    ]
    selves = self_times(spans)
    assert selves["r"] == 10.0 - 5.0 - 1.0
    assert selves["a"] == 2.0
    assert selves["b"] == 3.0
    assert selves["c"] == 1.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == 3.0


def test_recorder_nests_wrapped_calls_and_shares_the_request_id():
    recorder = SpanRecorder("t")

    def inner():
        time.sleep(0.01)

    wrapped_inner = recorder.wrap("engine.execute", inner)

    def outer():
        wrapped_inner()
        time.sleep(0.01)

    with recorder.span("op", "request-1"):
        recorder.wrap("api.session_execute", outer)()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["engine.execute"].parent_id == by_name["api.session_execute"].span_id
    assert by_name["api.session_execute"].parent_id == by_name["op"].span_id
    assert {span.request_id for span in recorder.spans} == {"request-1"}
    selves = self_times(recorder.spans)
    outer_span = by_name["api.session_execute"]
    assert abs(selves[outer_span.span_id] - (outer_span.duration - by_name["engine.execute"].duration)) < 1e-9


# -- seeded inputs ------------------------------------------------------------------------


class _Template:
    def __init__(self, text):
        self.text = text


def _ldbc():
    persons = [IRI("http://example.org/person%d" % index) for index in range(40)]
    return {
        "persons": persons,
        "friend_posts": {person: index // 3 for index, person in enumerate(persons)},
        "forum_posts": {person: (index * 7) % 11 for index, person in enumerate(persons)},
        "countries": [IRI("http://example.org/country%d" % index) for index in range(6)],
    }


def _templates():
    return {
        name: _Template("SELECT * WHERE { %%person <http://example.org/%s> ?x . "
                        "?x <http://example.org/in> %%countryX . ?x <http://example.org/in> %%countryY }" % name)
        for name in inputs.HOT_TEMPLATES + ("ldbc_q3",)
    }


def _client_ops(seed: int, count: int):
    ldbc = _ldbc()
    hot = inputs.hot_texts(seed, ldbc, _templates())
    client = inputs.ClientInputs(seed, 0, 2, ldbc, hot, _templates())
    return [client.next_op() for _ in range(count)]


def test_same_seed_gives_the_same_operation_sequence():
    ldbc = _ldbc()
    texts = inputs.hot_texts(5, ldbc, _templates())
    assert texts == inputs.hot_texts(5, ldbc, _templates())
    first = list(itertools.islice(inputs.hot_schedule(5, texts), 300))
    assert first == list(itertools.islice(inputs.hot_schedule(5, texts), 300))
    assert first != list(itertools.islice(inputs.hot_schedule(6, texts), 300))
    assert _client_ops(5, 200) == _client_ops(5, 200)
    assert _client_ops(5, 200) != _client_ops(6, 200)


def test_every_seed_keeps_the_operation_mix():
    ldbc = _ldbc()
    for seed in (1, 2, 3):
        texts = inputs.hot_texts(seed, ldbc, _templates())
        # one binding per stratum per template
        assert len(texts) == len(inputs.HOT_TEMPLATES) * inputs.HOT_STRATA
        schedule = list(itertools.islice(inputs.hot_schedule(seed, texts), 10 * inputs.PATH_COUNT_EVERY))
        assert sum(1 for kind, _text in schedule if kind == "path_count") == 10
        kinds = [kind for kind, _text in _client_ops(seed, 100)]
        assert (kinds.count("read_cold"), kinds.count("read_hot"), kinds.count("write")) == (30, 60, 10)


# -- answer checks --------------------------------------------------------------------------


def test_a_wrong_answer_counts_as_a_failure():
    row = {Variable("post"): IRI("http://example.org/post1"), Variable("date"): Literal("2014")}
    other = {Variable("post"): IRI("http://example.org/post2"), Variable("date"): Literal("2013")}
    expected = harness.fingerprint([row, other])
    outcome = harness.Outcome()
    outcome.check(harness.fingerprint([dict(row), dict(other)]) == expected, "same rows")
    outcome.check(harness.fingerprint([other, row]) == expected, "rows out of order")
    wrong = dict(row)
    wrong[Variable("date")] = Literal("2015")
    outcome.check(harness.fingerprint([wrong, other]) == expected, "one term differs")
    insert = "INSERT DATA { %s }" % inputs.write_triples(0, 1, _ldbc()["countries"])
    outcome.check(write_ok(insert, {"inserted": inputs.TRIPLES_PER_WRITE, "deleted": 0}), "write")
    outcome.check(write_ok(insert, {"inserted": inputs.TRIPLES_PER_WRITE - 1, "deleted": 0}), "short write")
    outcome.check(write_ok(insert, "ExecutionError('HTTP 503')"), "refused write")
    assert (outcome.attempted, outcome.failed) == (6, 4)
    line = json.loads(harness.result_line(outcome, {"p50_ms": (1.5, "ms")}))
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (6, 4)
    assert line["metrics"] == {"p50_ms": {"value": 1.5, "unit": "ms"}}
