"""Seeded benchmark inputs: bindings, query texts, operation schedules, writes.

The benchmark draws every binding with its own sampler and hands the
program only query texts (or, for ``curate``, a parameter space made of the
drawn values).  Person bindings are stratified by a count the benchmark
computes from the generated dataset (posts by the person's friends, see
:func:`ldbc_properties`): each stratum holds an equal share of persons
ranked by that count, and every draw takes the same number of persons from
each stratum.  Another seed then picks other persons
but the same cheap/expensive mix — the paper's lesson from E2 (uniform
samples of LDBC Q2 bindings give unstable means) applied to this benchmark.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple

SN = "http://ldbc.example.org/vocabulary/"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
#: IRIs of the entities the write operations create; no read reaches them
WRITE_NS = "http://perfbench.example.org/"

#: the templates whose fixed bindings make up the ``hot`` texts
HOT_TEMPLATES = ("ldbc_q2", "ldbc_q4", "ldbc_q5", "ldbc_q8")
#: friend-count strata per hot template (one binding from each)
HOT_STRATA = 8
#: one operation in this many on ``hot`` is the analytic path count
PATH_COUNT_EVERY = 50
#: the join-heavy 3-hop path COUNT of ``benchmarks/test_bench_executor.py``
PATH_COUNT_QUERY = (
    "PREFIX sn: <%s> "
    "SELECT (COUNT(*) AS ?paths) WHERE { "
    "?post sn:hasCreator ?creator . "
    "?creator sn:knows ?friend . "
    "?friend sn:knows ?fof . }" % SN
)

#: the templates one ``curate`` round runs, with the candidates per call
#: (multiples of COLD_STRATA; ldbc_q3's are persons x 2 x 2 country pairs)
CURATE_ROUND = (("ldbc_q3", 40), ("ldbc_q2", 60), ("bsbm_bi_q4", 40))
COLD_STRATA = 10

#: ``http-mixed`` operation shares per block of ten: 3 cold, 6 hot, 1 write
MIX_BLOCK = ("read_cold",) * 3 + ("read_hot",) * 6 + ("write",)
#: posts per INSERT DATA request (four triples each); sized so that a run
#: crosses the store's 8192-triple compaction threshold several times
POSTS_PER_WRITE = 300
TRIPLES_PER_WRITE = 4 * POSTS_PER_WRITE
#: every fourth write of a client deletes that client's oldest live batch
DELETE_EVERY = 4


def sub_seed(seed: int, *path) -> int:
    """A deterministic child seed of ``seed`` for one named purpose."""
    return random.Random("%d/%s" % (seed, "/".join(str(part) for part in path))).getrandbits(48)


def instantiate(template_text: str, binding: Dict[str, object]) -> str:
    """Substitute ``%name`` placeholders with the terms' N-Triples form."""
    text = template_text
    for name in sorted(binding, key=len, reverse=True):
        text = text.replace("%" + name, binding[name].n3())
    return text


def strata(ranked: Sequence, count: int) -> List[List]:
    """Split a ranked sequence into ``count`` contiguous, near-equal strata."""
    size = len(ranked)
    return [list(ranked[size * index // count:size * (index + 1) // count]) for index in range(count)]


# -- properties of the generated datasets ---------------------------------------------


def count_per_value(engine, query: str, variable: str) -> Dict:
    """value -> the count ``query`` returns for it as ``?n``."""
    from repro.rdf.terms import Variable

    return {
        row[Variable(variable)]: int(row[Variable("n")].lexical)
        for row in engine.execute(query).rows
    }


def ldbc_properties(engine, dataset) -> Dict:
    """Per-person counts that drive the LDBC templates' cost, and countries
    ranked by post count.

    ``friend_posts`` (posts by the person's friends) drives ldbc_q2, q3, q4
    and q8; ``forum_posts`` (posts in the forums the person belongs to)
    drives ldbc_q5.  ``persons`` is ranked by ``friend_posts``.
    """
    friend_posts = count_per_value(
        engine,
        "PREFIX sn: <%s> SELECT ?p (COUNT(?x) AS ?n) WHERE { ?p sn:knows ?f . ?x sn:hasCreator ?f } "
        "GROUP BY ?p" % SN,
        "p",
    )
    forum_posts = count_per_value(
        engine,
        "PREFIX sn: <%s> SELECT ?p (COUNT(?x) AS ?n) WHERE { ?m sn:hasMember ?p . ?m sn:containerOf ?x } "
        "GROUP BY ?p" % SN,
        "p",
    )
    posts = count_per_value(
        engine,
        "PREFIX sn: <%s> SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x sn:isLocatedIn ?c } GROUP BY ?c" % SN,
        "c",
    )
    persons = dataset.person_iris()
    friend_posts = {person: friend_posts.get(person, 0) for person in persons}
    return {
        "friend_posts": friend_posts,
        "forum_posts": {person: forum_posts.get(person, 0) for person in persons},
        "persons": sorted(persons, key=lambda p: (friend_posts[p], p.n3())),
        "countries": sorted(dataset.country_iris(), key=lambda c: (posts.get(c, 0), c.n3())),
    }


def bsbm_types_ranked(dataset) -> List:
    """BSBM product types ranked by how many products carry them."""
    counts = dataset.products_per_type
    return sorted(dataset.product_type_iris(), key=lambda iri: (counts.get(iri, 0), iri.n3()))


# -- hot ---------------------------------------------------------------------------


def hot_texts(seed: int, ldbc: Dict, templates) -> List[str]:
    """One binding per stratum per hot template.

    Persons are ranked by the count that drives the template's cost; each
    binding is one of the three persons ranked nearest the stratum's middle
    (the seed picks which), so every seed replays nearly the same cost mix.
    """
    rng = random.Random(sub_seed(seed, "hot"))
    texts = []
    for name in HOT_TEMPLATES:
        drive = ldbc["forum_posts" if name == "ldbc_q5" else "friend_posts"]
        ranked = sorted(ldbc["persons"], key=lambda p: (drive[p], p.n3()))
        for stratum in strata(ranked, HOT_STRATA):
            middle = len(stratum) // 2
            person = rng.choice(stratum[max(0, middle - 1):middle + 2])
            texts.append(instantiate(templates[name].text, {"person": person}))
    return texts


def hot_schedule(seed: int, texts: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """Endless ``(kind, text)``: shuffled passes over ``texts``, and the
    path count as the last operation of every block of ``PATH_COUNT_EVERY``."""
    rng = random.Random(sub_seed(seed, "hot-order"))

    def passes():
        while True:
            order = list(texts)
            rng.shuffle(order)
            yield from order

    hot = passes()
    position = 0
    while True:
        position += 1
        if position % PATH_COUNT_EVERY == 0:
            yield "path_count", PATH_COUNT_QUERY
        else:
            yield "hot", next(hot)


# -- curate ------------------------------------------------------------------------


def curate_space(seed: int, call: int, template_name: str, candidates: int, ldbc: Dict, bsbm_types):
    """The parameter space of one ``curate()`` call: exactly ``candidates``
    stratified bindings, so ``curate`` enumerates them all."""
    from repro.core.domain import ParameterSpace, domain_from_values

    rng = random.Random(sub_seed(seed, "curate", call, template_name))
    if template_name == "ldbc_q3":
        # persons x countryX x countryY = (candidates / 4) x 2 x 2: the two
        # middle countries of the rare and of the frequent half, fixed for
        # every seed because they decide the plan and most of the cost
        rare_x, rare_y, frequent_x, frequent_y = near_middle(None, ldbc["countries"], 2, 2)
        return ParameterSpace([
            domain_from_values("person", near_middle(rng, ldbc["persons"], COLD_STRATA, candidates // (4 * COLD_STRATA))),
            domain_from_values("countryX", [rare_x, frequent_x]),
            domain_from_values("countryY", [frequent_y, rare_y]),
        ])
    if template_name == "ldbc_q2":
        persons = near_middle(rng, ldbc["persons"], COLD_STRATA, candidates // COLD_STRATA)
        return ParameterSpace([domain_from_values("person", persons)])
    if template_name == "bsbm_bi_q4":
        types = near_middle(rng, bsbm_types, COLD_STRATA, candidates // COLD_STRATA)
        return ParameterSpace([domain_from_values("type", types)])
    raise ValueError("no curate space for %r" % template_name)


def near_middle(rng, ranked: Sequence, count: int, per: int) -> List:
    """``per`` consecutive values from the middle of each of ``count`` strata,
    the window shifted by ``rng`` (if given) by at most one rank either way."""
    picked: List = []
    for stratum in strata(ranked, count):
        start = len(stratum) // 2 - per // 2 + (rng.randint(-1, 1) if rng is not None else 0)
        start = min(max(0, start), len(stratum) - per)
        picked.extend(stratum[start:start + per])
    return picked


# -- http-mixed ----------------------------------------------------------------------


class ClientInputs:
    """The operation sequence of one ``http-mixed`` client.

    Cold reads alternate fresh ``ldbc_q3`` and ``ldbc_q2`` bindings; each
    client draws its persons from its own half of every stratum, so the two
    clients never send the same cold text.  Writes add
    posts by a new person (no existing person knows it, so no checked
    answer changes) and periodically delete an earlier batch.
    """

    def __init__(self, seed: int, client: int, clients: int, ldbc: Dict, hot: Sequence[str], templates):
        self.rng = random.Random(sub_seed(seed, "client", client))
        self.client = client
        self.hot = list(hot)
        self.templates = templates
        self.countries = ldbc["countries"]
        # the six middle countries of the rare and of the frequent half
        self.rare, self.frequent = [
            half[max(0, len(half) // 2 - 3):len(half) // 2 + 3] for half in strata(ldbc["countries"], 2)
        ]
        self.person_strata = [
            [person for position, person in enumerate(stratum) if position % clients == client]
            for stratum in strata(ldbc["persons"], COLD_STRATA)
        ]
        self._unused_q2 = [list() for _ in self.person_strata]
        self._seen_q3 = set()
        self._cold = 0
        self._writes = 0
        self._live: List[str] = []
        self._block: List[str] = []

    def next_op(self) -> Tuple[str, str]:
        """The next ``(kind, text)`` of this client."""
        if not self._block:
            self._block = list(MIX_BLOCK)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "read_hot":
            return kind, self.rng.choice(self.hot)
        if kind == "read_cold":
            return kind, self._cold_text()
        return kind, self._write_text()

    def _cold_text(self) -> str:
        self._cold += 1
        stratum = (self._cold // 2) % COLD_STRATA
        if self._cold % 2:
            pool = self._unused_q2[stratum]
            while True:
                if not pool:
                    pool.extend(self.person_strata[stratum])
                    self.rng.shuffle(pool)
                text = instantiate(self.templates["ldbc_q2"].text, {"person": pool.pop()})
                if text not in self.hot:
                    return text
        # the four rare/frequent country pairings, each in turn with every
        # stratum: the plan flips with the countries
        pairing = (self._cold // 2 // COLD_STRATA) % 4
        while True:
            binding = {
                "person": self.rng.choice(self.person_strata[stratum]),
                "countryX": self.rng.choice(self.frequent if pairing & 1 else self.rare),
                "countryY": self.rng.choice(self.frequent if pairing & 2 else self.rare),
            }
            key = tuple(term.n3() for term in binding.values())
            if binding["countryX"] != binding["countryY"] and key not in self._seen_q3:
                self._seen_q3.add(key)
                return instantiate(self.templates["ldbc_q3"].text, binding)

    def _write_text(self) -> str:
        self._writes += 1
        if self._writes % DELETE_EVERY == 0 and self._live:
            return "DELETE DATA { %s }" % self._live.pop(0)
        triples = write_triples(self.client, self._writes, self.countries)
        self._live.append(triples)
        return "INSERT DATA { %s }" % triples


def write_triples(client: int, batch: int, countries: Sequence) -> str:
    """``POSTS_PER_WRITE`` new posts by one new person, four triples each."""
    person = "<%sc%d/person%d>" % (WRITE_NS, client, batch)
    parts = []
    for post_index in range(POSTS_PER_WRITE):
        post = "<%sc%d/post%d_%d>" % (WRITE_NS, client, batch, post_index)
        parts.append("%s <%shasCreator> %s ." % (post, SN, person))
        parts.append(
            '%s <%screationDate> "2014-%02d-%02dT12:00:00"^^<%s> .'
            % (post, SN, 1 + batch % 12, 1 + post_index % 28, XSD_DATETIME)
        )
        parts.append(
            "%s <%sisLocatedIn> %s ." % (post, SN, countries[(batch + post_index) % len(countries)].n3())
        )
        parts.append("%s <%shasTag> <%stag%d> ." % (post, SN, WRITE_NS, post_index % 7))
    return " ".join(parts)
