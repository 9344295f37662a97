"""Differential gate: served records are bit-identical to local run().

The serving daemon answers from four paths — fresh scalar execution,
cross-tenant batched execution, the content-addressed result cache,
and the in-flight dedup index.  Every one of them must hand back a
record whose deterministic identity (name, spec hash, metrics, series)
equals a local :func:`repro.run.run` of the same spec; anything else
means the service layer perturbed the science.  This suite also proves
the computed-exactly-once property: duplicate traffic never increments
``serve.jobs_computed``; and that a cache hit's record, which rides the
``/v1/submit`` response, is the one ``/v1/result`` returns, handed over
without a second request.
"""

import pytest

from repro.run import execute_scalar, run
from repro.serve import Client, ServeConfig, ServeDaemon
from repro.serve.batching import execute_group, family_key
from repro.xp.spec import Matrix, ScenarioSpec


def make_spec(seed=0, name="diff", **overrides):
    base = dict(name=name, workload="quadratic_bowl",
                workload_params={"dim": 8, "noise_horizon": 8},
                optimizer="momentum_sgd",
                optimizer_params={"lr": 0.02, "momentum": 0.5},
                delay={"kind": "constant", "delay": 1.0},
                workers=2, reads=25, seed=seed, smooth=4)
    base.update(overrides)
    return ScenarioSpec(**base)


def local_identity(spec):
    """The ground truth: what run() computes for this spec locally."""
    (record,) = run(spec).results
    return record.identity()


@pytest.fixture
def daemon(tmp_path):
    d = ServeDaemon(ServeConfig(
        cache_dir=str(tmp_path / "cache"), min_workers=1,
        max_workers=2)).start()
    yield d
    d.stop()


class TestServedEqualsLocal:
    def test_uncached_scalar_path(self, daemon):
        # the delay model draws from its own declared seed — without
        # one, stochastic delays are unrepeatable by design, so the
        # differential contract only covers seeded configurations
        spec = make_spec(seed=3, name="diff/scalar",
                         delay={"kind": "uniform", "low": 0.5,
                                "high": 1.5, "seed": 13})
        client = Client(daemon.address, tenant="t")
        record = client.result(client.submit(spec), timeout=120)
        assert record.env["serve_unit"] == "scalar"
        assert record.identity() == local_identity(spec)

    def test_replicated_spec_path(self, daemon):
        # a replicated spec is its own one-spec unit and runs as the
        # serial backend runs it: all replicates on the batched engine
        spec = make_spec(seed=5, name="diff/replicated", replicates=3)
        client = Client(daemon.address, tenant="t")
        record = client.result(client.submit(spec), timeout=120)
        assert record.env["serve_unit"] == "batched:1"
        assert record.env["fleet_engine"] == "fleet"
        assert record.identity() == local_identity(spec)
        assert len(record.replicate_metrics) == 3

    def test_cross_tenant_batched_path(self, daemon):
        specs = [make_spec(seed=s, name=f"diff/b{s}")
                 for s in (1, 2, 3)]
        clients = [Client(daemon.address, tenant=f"tenant-{i}")
                   for i in range(3)]
        daemon.pause()
        tickets = [c.submit(s) for c, s in zip(clients, specs)]
        daemon.resume()
        records = [c.result(t, timeout=120)
                   for c, t in zip(clients, tickets)]
        for record, spec in zip(records, specs):
            assert record.env["serve_unit"] == "batched:3"
            assert record.identity() == local_identity(spec)

    def test_cached_path(self, daemon):
        spec = make_spec(seed=4, name="diff/cached")
        client = Client(daemon.address, tenant="t")
        first = client.result(client.submit(spec), timeout=120)
        ticket = client.submit(spec)
        assert ticket.cached
        record = client.result(ticket, timeout=30)
        assert record.cached and not first.cached
        assert record.identity() == first.identity() \
            == local_identity(spec)

    def test_batched_equals_scalar_serving(self, tmp_path):
        # the same spec served batched and served alone must agree —
        # the serving layer's unit shape is not allowed to matter
        spec = make_spec(seed=7, name="diff/shape")
        sibling = make_spec(seed=8, name="diff/shape-sib")
        batched = ServeDaemon(ServeConfig(
            cache_dir=None, min_workers=1, max_workers=1)).start()
        try:
            client = Client(batched.address)
            batched.pause()
            t1 = client.submit(spec)
            client.submit(sibling)
            batched.resume()
            via_batch = client.result(t1, timeout=120)
        finally:
            batched.stop()
        alone = ServeDaemon(ServeConfig(
            cache_dir=None, min_workers=1, max_workers=1,
            scheduler="fifo")).start()
        try:
            client = Client(alone.address)
            via_scalar = client.result(client.submit(spec),
                                       timeout=120)
        finally:
            alone.stop()
        assert via_batch.env["serve_unit"] == "batched:2"
        assert via_scalar.env["serve_unit"] == "scalar"
        assert via_batch.identity() == via_scalar.identity()


class TestExecuteGroup:
    """The batched unit without a daemon: every member's record
    equals its solo scalar run."""

    @staticmethod
    def yellowfin_members(fused, **overrides):
        params = {"window": 5, "beta": 0.99}
        if fused:
            params["fused"] = True
        return [make_spec(seed=s, name=f"yf/{s}",
                          workload="toy_classifier", workload_params={},
                          optimizer="yellowfin", optimizer_params=params,
                          workers=4, reads=60, **overrides)
                for s in (3, 4)]

    def test_fused_yellowfin_autograd_members_batch_exactly(self):
        members = self.yellowfin_members(fused=True)
        records = execute_group(members)
        for record, spec in zip(records, members):
            assert record.env["serve_unit"] == "batched:2"
            assert record.identity() == execute_scalar(spec).identity()

    def test_unfused_yellowfin_autograd_members_never_batch(self):
        # per-tensor norms of F-ordered gradients differ in the last
        # bit between the kernels: such members run as scalar units
        members = self.yellowfin_members(fused=False)
        assert family_key(members[0]) is None
        with pytest.raises(ValueError, match="batch family"):
            execute_group(members)

    def test_seeded_stochastic_delay_members_batch(self):
        members = [make_spec(seed=s, name=f"uniform/{s}",
                             delay={"kind": "uniform", "low": 0.5,
                                    "high": 1.5, "seed": 13})
                   for s in (1, 2, 3)]
        records = execute_group(members)
        for record, spec in zip(records, members):
            assert record.env["serve_unit"] == "batched:3"
            assert record.identity() == local_identity(spec)


class TestComputedExactlyOnce:
    def test_duplicates_in_one_submission_share_a_job(self, daemon):
        spec = make_spec(seed=5, name="diff/dup")
        client = Client(daemon.address, tenant="t")
        daemon.pause()
        t1, t2 = client.submit([spec, spec])
        daemon.resume()
        assert t2.deduplicated and not t1.deduplicated
        assert t1.job_id == t2.job_id
        r1 = client.result(t1, timeout=120)
        r2 = client.result(t2, timeout=120)
        assert r1.identity() == r2.identity() == local_identity(spec)
        counters = daemon.metrics.snapshot()["counters"]
        assert counters["serve.jobs_computed"] == 1
        assert counters["serve.deduplicated"] == 1

    def test_concurrent_tenants_dedup_against_inflight(self, daemon):
        spec = make_spec(seed=6, name="diff/race")
        alice = Client(daemon.address, tenant="alice")
        bob = Client(daemon.address, tenant="bob")
        daemon.pause()
        ta = alice.submit(spec)
        tb = bob.submit(spec)
        daemon.resume()
        assert tb.deduplicated
        assert ta.job_id == tb.job_id
        ra = alice.result(ta, timeout=120)
        rb = bob.result(tb, timeout=120)
        assert ra.identity() == rb.identity() == local_identity(spec)
        assert daemon.metrics.snapshot()["counters"][
            "serve.jobs_computed"] == 1

    def test_cache_hit_never_reaches_the_pool(self, daemon):
        spec = make_spec(seed=9, name="diff/hot")
        client = Client(daemon.address, tenant="t")
        client.result(client.submit(spec), timeout=120)
        before = daemon.pool.units_dispatched
        for _ in range(5):
            ticket = client.submit(spec)
            assert ticket.cached
            client.result(ticket, timeout=30)
        assert daemon.pool.units_dispatched == before
        assert daemon.metrics.snapshot()["counters"][
            "serve.jobs_computed"] == 1


class CountingClient(Client):
    """A client that logs every request's path and response payload."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def _request(self, method, path, payload=None, extra_timeout=0.0):
        data = super()._request(method, path, payload, extra_timeout)
        self.calls.append((path.split("?")[0], data))
        return data

    def paths(self):
        return [path for path, _ in self.calls]


class OldProtocolClient(CountingClient):
    """A client of the protocol before submit carried ``records``."""

    def _request(self, method, path, payload=None, extra_timeout=0.0):
        data = super()._request(method, path, payload, extra_timeout)
        data.pop("records", None)
        return data


class TestCacheHitInOneRoundTrip:
    """A ticket the result cache answers is finished at admission: its
    record rides the submit response and ``result`` sends nothing."""

    def test_cached_result_sends_no_request(self, daemon):
        spec = make_spec(seed=12, name="diff/one-trip")
        client = CountingClient(daemon.address, tenant="t")
        first = client.result(client.submit(spec), timeout=120)
        assert client.paths()[-1] == "/v1/result"
        del client.calls[:]
        ticket = client.submit(spec)
        assert ticket.cached
        record = client.result(ticket, timeout=30)
        assert client.paths() == ["/v1/submit"]
        # the record /v1/result returns for the same ticket, and a
        # local run's identity
        polled = CountingClient(daemon.address, tenant="t").result(
            ticket.id, timeout=30)
        assert record.cached and polled.cached and not first.cached
        assert record.as_dict() == polled.as_dict()
        assert record.identity() == polled.identity() \
            == local_identity(spec)
        # taken once: a second result() asks the daemon, same record
        again = client.result(ticket, timeout=30)
        assert client.paths() == ["/v1/submit", "/v1/result"]
        assert again.as_dict() == record.as_dict()

    def test_old_protocol_client_gets_the_same_record(self, daemon):
        spec = make_spec(seed=14, name="diff/old-client")
        Client(daemon.address).result(Client(daemon.address).submit(spec),
                                      timeout=120)
        new = CountingClient(daemon.address, tenant="t")
        old = OldProtocolClient(daemon.address, tenant="t")
        via_submit = new.result(new.submit(spec), timeout=30)
        ticket = old.submit(spec)
        assert ticket.cached
        via_poll = old.result(ticket, timeout=30)
        assert old.paths() == ["/v1/submit", "/v1/result"]
        assert new.paths() == ["/v1/submit"]
        assert via_poll.as_dict() == via_submit.as_dict()
        assert via_poll.identity() == local_identity(spec)

    def test_stream_of_a_cached_ticket_replays_queued_then_done(
            self, daemon):
        spec = make_spec(seed=15, name="diff/stream-hit")
        client = CountingClient(daemon.address, tenant="t")
        client.result(client.submit(spec), timeout=120)
        ticket = client.submit(spec)
        events = list(client.stream(ticket))
        assert [e["event"] for e in events] == ["queued", "done"]
        assert events[-1]["cached"] is True
        del client.calls[:]
        assert client.result(ticket, timeout=30).identity() \
            == local_identity(spec)
        assert client.calls == []

    def test_a_matrix_of_hits_and_misses_gets_records_for_hits_only(
            self, daemon):
        matrix = Matrix(make_spec(seed=16, name="diff/mix"), axes={
            "lr": {"slow": {"optimizer_params.lr": 0.01},
                   "mid": {"optimizer_params.lr": 0.02},
                   "fast": {"optimizer_params.lr": 0.04}}})
        specs = matrix.expand()
        client = CountingClient(daemon.address, tenant="t")
        client.result(client.submit(specs[1]), timeout=120)
        del client.calls[:]
        tickets = client.submit(matrix)
        assert [t.cached for t in tickets] == [False, True, False]
        (submitted,) = client.calls
        assert set(submitted[1]["records"]) == {tickets[1].id}
        records = [client.result(t, timeout=120) for t in tickets]
        # only the two misses long-poll
        assert client.paths() == ["/v1/submit", "/v1/result",
                                  "/v1/result"]
        for record, spec in zip(records, specs):
            assert record.identity() == local_identity(spec)
        # a submission without hits carries no records key
        fresh = make_spec(seed=17, name="diff/mix-fresh")
        payload = daemon.submit_payload(daemon.submit("t", [fresh]))
        assert "records" not in payload
