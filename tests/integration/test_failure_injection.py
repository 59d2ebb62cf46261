"""Failure injection: errors must surface cleanly, never corrupt state.

The second half of this file exercises the fault-injected link end to end
through the CMS: injected outages, retry/backoff, the circuit breaker, and
graceful degradation from the stale archive and partial cache answers.
"""

import pytest

from repro.common.errors import (
    BraidError,
    CacheCapacityError,
    RemoteDBMSError,
    UnknownRelationError,
)
from repro.caql.parser import parse_query
from repro.common.metrics import CACHE_TUPLES_PROCESSED
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.relational.columnar import ColumnarBatch
from repro.relational.relation import relation_from_columns
from repro.remote.faults import FaultPolicy, RetryPolicy
from repro.remote.server import RemoteDBMS
from repro.remote.sql import FetchTableQuery
from repro.workloads.genealogy import genealogy
from repro.workloads.queries import StreamSpec, repeated_selection_stream

OUTAGE = FaultPolicy(seed=0, transient_rate=1.0)


def make_cms(**kwargs):
    server = RemoteDBMS()
    server.load_table(relation_from_columns("t", a=[1, 2, 3], b=[4, 5, 6]))
    cms = CacheManagementSystem(server, **kwargs)
    cms.begin_session()
    return cms, server


class TestUnknownRelations:
    def test_query_on_missing_table(self):
        cms, _server = make_cms()
        with pytest.raises(UnknownRelationError):
            cms.query(parse_query("q(X) :- ghost(X)")).fetch_all()

    def test_error_is_a_braid_error(self):
        cms, _server = make_cms()
        with pytest.raises(BraidError):
            cms.query(parse_query("q(X) :- ghost(X)")).fetch_all()

    def test_cms_still_usable_after_error(self):
        cms, _server = make_cms()
        with pytest.raises(UnknownRelationError):
            cms.query(parse_query("q(X) :- ghost(X)")).fetch_all()
        result = cms.query(parse_query("q(A, B) :- t(A, B)")).fetch_all()
        assert len(result) == 3

    def test_arity_mismatch_surfaces(self):
        cms, _server = make_cms()
        with pytest.raises(BraidError):
            cms.query(parse_query("q(X) :- t(X)")).fetch_all()


class TestBrokenEngine:
    class ExplodingEngine:
        """An engine that fails on every request."""

        def create_table(self, relation):
            self.schema = relation.schema

        def execute(self, request):
            raise RemoteDBMSError("disk on fire")

    def test_engine_failure_propagates(self):
        server = RemoteDBMS(engine=self.ExplodingEngine())
        server.load_table(relation_from_columns("t", a=[1]))
        with pytest.raises(RemoteDBMSError):
            server.execute(FetchTableQuery("t"))

    def test_cms_propagates_engine_failure(self):
        server = RemoteDBMS(engine=self.ExplodingEngine())
        server.load_table(relation_from_columns("t", a=[1]))
        cms = CacheManagementSystem(server)
        cms.begin_session()
        with pytest.raises(RemoteDBMSError):
            cms.query(parse_query("q(A) :- t(A)")).fetch_all()


class TestTinyCache:
    def test_results_still_correct_when_nothing_fits(self):
        # Capacity so small no element can be stored: every query refetches
        # but answers stay correct.
        cms, server = make_cms(capacity_bytes=8)
        q = parse_query("q(A, B) :- t(A, B)")
        first = cms.query(q).fetch_all()
        second = cms.query(q).fetch_all()
        assert first == second
        assert len(cms.cache) == 0
        assert server.metrics.get("remote.requests") >= 2

    def test_store_raises_but_query_succeeds(self):
        cms, _server = make_cms(capacity_bytes=8)
        result = cms.query(parse_query("q(A, B) :- t(A, B)")).fetch_all()
        assert len(result) == 3  # CacheCapacityError swallowed internally

    def test_direct_store_raises(self):
        from repro.caql.eval import psj_of, result_schema
        from repro.relational.relation import Relation

        cms, _server = make_cms(capacity_bytes=8)
        psj = psj_of(parse_query("q(A, B) :- t(A, B)"))
        big = Relation(result_schema("q", 2), [(i, i) for i in range(100)])
        with pytest.raises(CacheCapacityError):
            cms.cache.store(psj, big)


class TestStreamMisuse:
    def test_exhausted_stream_stays_exhausted(self):
        cms, _server = make_cms()
        stream = cms.query(parse_query("q(A) :- t(A, 4)"))
        assert stream.next() == (1,)
        assert stream.next() is None
        assert stream.next() is None

    def test_fetch_all_after_partial_next(self):
        cms, _server = make_cms()
        stream = cms.query(parse_query("q(A, B) :- t(A, B)"))
        stream.next()
        assert len(stream.fetch_all()) == 3  # fetch_all is complete, not a tail


class TestDegradedFallback:
    """Exhausted retries fall back to stale/partial cache answers."""

    def make(self, **features):
        # caching off by default so repeat queries must go remote — the
        # stale archive (not the live cache) is what serves the outage.
        features.setdefault("caching", False)
        features.setdefault("retry_policy", RetryPolicy(max_retries=1))
        cms, server = make_cms(features=CMSFeatures(**features))
        return cms, server

    def test_stale_archive_serves_exact_repeat(self):
        cms, server = self.make()
        q = parse_query("q(A, B) :- t(A, B)")
        fresh = cms.query(q)
        rows = fresh.fetch_all()
        assert not fresh.degraded

        server.set_fault_policy(OUTAGE)
        stale = cms.query(q)
        assert sorted(stale.fetch_all()) == sorted(rows)
        assert stale.degraded
        assert server.metrics.get("remote.degraded_answers") == 1

    def test_stale_archive_serves_subsumed_query(self):
        cms, server = self.make()
        cms.query(parse_query("q(A, B) :- t(A, B)")).fetch_all()
        server.set_fault_policy(OUTAGE)
        narrower = cms.query(parse_query("p(B) :- t(2, B)"))
        assert narrower.fetch_all() == [(5,)]
        assert narrower.degraded

    def test_partial_answer_from_cache_parts(self):
        # t is big and cached, s is small and remote: the hybrid split wins
        # the plan comparison, so when the s-side fetch fails only the
        # cached t-side can be served.
        server = RemoteDBMS()
        server.load_table(
            relation_from_columns(
                "t", a=list(range(200)), b=[4 + i % 2 for i in range(200)]
            )
        )
        server.load_table(relation_from_columns("s", b=[4, 5], c=[7, 8]))
        cms = CacheManagementSystem(
            server, features=CMSFeatures(retry_policy=RetryPolicy(max_retries=1))
        )
        cms.begin_session()
        cms.query(parse_query("q1(A, B) :- t(A, B)")).fetch_all()  # caches t

        server.set_fault_policy(OUTAGE)
        joined = cms.query(parse_query("q2(A, C) :- t(A, B), s(B, C)"))
        rows = joined.fetch_all()
        assert joined.degraded
        # The t-side column is real; the unreachable s-side is unknown.
        assert sorted(row[0] for row in rows) == list(range(200))
        assert all(row[1] is None for row in rows)

    def test_degraded_answers_are_not_archived(self):
        cms, server = self.make()
        q = parse_query("q(A, B) :- t(A, B)")
        cms.query(q).fetch_all()
        archived = len(cms._archive)
        server.set_fault_policy(OUTAGE)
        assert cms.query(q).degraded
        assert len(cms._archive) == archived  # stale copy not re-archived

    def test_recovery_clears_the_degraded_flag(self):
        cms, server = self.make()
        q = parse_query("q(A, B) :- t(A, B)")
        cms.query(q).fetch_all()
        server.set_fault_policy(OUTAGE)
        assert cms.query(q).degraded
        server.set_fault_policy(None)
        assert not cms.query(q).degraded

    def test_degradation_disabled_propagates_the_error(self):
        cms, server = self.make(degradation=False)
        q = parse_query("q(A, B) :- t(A, B)")
        cms.query(q).fetch_all()
        server.set_fault_policy(OUTAGE)
        with pytest.raises(RemoteDBMSError):
            cms.query(q).fetch_all()

    def test_nothing_to_degrade_to_propagates_the_error(self):
        cms, server = self.make()
        server.set_fault_policy(OUTAGE)  # outage before anything was seen
        with pytest.raises(RemoteDBMSError):
            cms.query(parse_query("q(A, B) :- t(A, B)")).fetch_all()

    def test_aggregate_over_degraded_base_is_flagged(self):
        from repro.caql.ast import AggregateQuery

        cms, server = self.make()
        base = parse_query("q(A, B) :- t(A, B)")
        cms.query(base).fetch_all()
        server.set_fault_policy(OUTAGE)
        stream = cms.query(
            AggregateQuery(base, group_by=(), aggregations=(("count", 0, "n"),))
        )
        assert stream.fetch_all() == [(3,)]
        assert stream.degraded


class TestDegradedOnTheSelectedEngine:
    """Degraded answers run on the CMS's selected engine: the tuple and the
    columnar engine give the same rows, the same ``degraded`` tag and the
    same local work (tuples processed, which the clock rates per engine)."""

    def stale_archive(self, columnar):
        cms, server = make_cms(
            features=CMSFeatures(
                caching=False,
                columnar=columnar,
                retry_policy=RetryPolicy(max_retries=1),
            )
        )
        cms.query(parse_query("q(A, B) :- t(A, B)")).fetch_all()
        server.set_fault_policy(OUTAGE)
        return cms, parse_query("p(B) :- t(2, B)")

    def partial_cache_part(self, columnar):
        # The hybrid split of TestDegradedFallback: cached t, remote s.
        server = RemoteDBMS()
        server.load_table(
            relation_from_columns(
                "t", a=list(range(200)), b=[4 + i % 2 for i in range(200)]
            )
        )
        server.load_table(relation_from_columns("s", b=[4, 5], c=[7, 8]))
        cms = CacheManagementSystem(
            server,
            features=CMSFeatures(
                columnar=columnar, retry_policy=RetryPolicy(max_retries=1)
            ),
        )
        cms.begin_session()
        cms.query(parse_query("q1(A, B) :- t(A, B)")).fetch_all()
        server.set_fault_policy(OUTAGE)
        return cms, parse_query("q2(A, C) :- t(A, B), s(B, C)")

    @pytest.mark.parametrize("case", ["stale_archive", "partial_cache_part"])
    def test_engines_agree(self, case):
        outcomes = []
        for columnar in (False, True):
            cms, query = getattr(self, case)(columnar)
            before = cms.metrics.get(CACHE_TUPLES_PROCESSED)
            stream = cms.query(query)
            assert isinstance(stream._relation, ColumnarBatch) == columnar
            outcomes.append(
                (
                    sorted(stream.fetch_all(), key=repr),
                    stream.degraded,
                    cms.metrics.get(CACHE_TUPLES_PROCESSED) - before,
                )
            )
        assert outcomes[0] == outcomes[1]
        rows, degraded, local_tuples = outcomes[0]
        assert rows and degraded and local_tuples > 0


class TestFaultedWorkload:
    """Acceptance scenario: an E2-style session over a 20%-flaky link with a
    total outage in the middle must complete with every query answered."""

    def run_session(self, seed):
        server = RemoteDBMS(faults=FaultPolicy(seed=seed, transient_rate=0.2))
        for table in genealogy(seed=23).tables:
            server.load_table(table)
        # Tiny cache: elements evict constantly, so outage-time answers
        # really come from the stale archive, not lucky cache residency.
        cms = CacheManagementSystem(server, capacity_bytes=600)
        cms.begin_session()
        people = [f"p{i}" for i in range(22)]
        queries = list(
            repeated_selection_stream(
                "q(Y) :- parent($C, Y)", people, StreamSpec(60, 0.6, seed=7)
            )
        )
        answered = degraded = failed = 0
        for i, q in enumerate(queries):
            if i == 30:
                server.set_fault_policy(FaultPolicy(seed=seed + 1, transient_rate=1.0))
            if i == 35:
                server.set_fault_policy(FaultPolicy(seed=seed + 2, transient_rate=0.2))
            try:
                stream = cms.query(q)
                stream.fetch_all()
                answered += 1
                degraded += stream.degraded
            except RemoteDBMSError:
                failed += 1
        return {
            "answered": answered,
            "degraded": degraded,
            "failed": failed,
            "snapshot": server.metrics.snapshot(),
            "clock": server.clock.now,
        }

    def test_availability_under_faults(self):
        outcome = self.run_session(seed=11)
        total = outcome["answered"] + outcome["failed"]
        assert total == 60
        assert outcome["answered"] / total >= 0.95
        assert outcome["degraded"] > 0
        snapshot = outcome["snapshot"]
        assert snapshot["remote.retries"] > 0
        assert snapshot["remote.degraded_answers"] > 0
        assert snapshot["remote.faults_injected"] > 0

    def test_same_seed_runs_are_byte_identical(self):
        assert self.run_session(seed=11) == self.run_session(seed=11)

    def test_breaker_cycles_during_long_outage(self):
        server = RemoteDBMS()
        for table in genealogy(seed=23).tables:
            server.load_table(table)
        cms = CacheManagementSystem(server, capacity_bytes=600)
        cms.begin_session()
        people = [f"p{i}" for i in range(22)]
        queries = list(
            repeated_selection_stream(
                "q(Y) :- parent($C, Y)", people, StreamSpec(60, 0.6, seed=7)
            )
        )
        for i, q in enumerate(queries):
            if i == 30:
                server.set_fault_policy(FaultPolicy(seed=12, transient_rate=1.0))
            if i == 40:
                server.set_fault_policy(None)
            try:
                cms.query(q).fetch_all()
            except RemoteDBMSError:
                pass
        changes = server.metrics.get("remote.breaker_state_changes")
        # At least one full open -> half-open -> closed recovery.
        assert changes >= 3
        assert cms.rdi.breaker.state == "closed"
