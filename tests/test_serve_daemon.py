"""Serve smoke suite: daemon up, two tenants, batched + cached +
quota-rejected submissions, clean shutdown.

This file is what ``make serve-smoke`` runs in tier-1 CI, so it keeps
to small specs and generous timeouts.  The full HTTP client path is
exercised — every interaction goes through :class:`repro.serve.Client`
over real localhost sockets — plus protocol edge cases (unknown
tickets, malformed bodies) and the ``python -m repro serve`` CLI.
"""

import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.serve import (AdmissionRejected, Client, ServeConfig,
                         ServeDaemon, ServeError)
from repro.xp.spec import Matrix, ScenarioSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def make_spec(seed=0, name="smoke", **overrides):
    base = dict(name=name, workload="quadratic_bowl",
                workload_params={"dim": 8, "noise_horizon": 8},
                optimizer="momentum_sgd",
                optimizer_params={"lr": 0.02, "momentum": 0.5},
                delay={"kind": "constant", "delay": 1.0},
                workers=2, reads=25, seed=seed, smooth=4)
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture
def daemon(tmp_path):
    d = ServeDaemon(ServeConfig(
        cache_dir=str(tmp_path / "cache"), min_workers=1,
        max_workers=2)).start()
    yield d
    d.stop()


class TestSmoke:
    def test_two_tenants_batched_cached_rejected_and_shutdown(
            self, tmp_path):
        daemon = ServeDaemon(ServeConfig(
            cache_dir=str(tmp_path / "cache"), min_workers=1,
            max_workers=2,
            admission_params={"max_pending": 64,
                              "max_inflight_per_tenant": 2})).start()
        try:
            alice = Client(daemon.address, tenant="alice")
            bob = Client(daemon.address, tenant="bob")

            # --- cross-tenant batching: two lockstep-compatible
            # specs, one engine run ---
            daemon.pause()
            ta = alice.submit(make_spec(seed=1, name="alice/a"))
            tb = bob.submit(make_spec(seed=2, name="bob/b"))
            daemon.resume()
            ra = alice.result(ta, timeout=120)
            rb = bob.result(tb, timeout=120)
            assert ra.env["serve_unit"] == "batched:2"
            assert rb.env["serve_unit"] == "batched:2"
            assert ra.name == "alice/a" and rb.name == "bob/b"

            # --- cached resubmission is answered without compute ---
            cached = alice.submit(make_spec(seed=1, name="alice/a"))
            assert cached.cached
            rc = alice.result(cached, timeout=30)
            assert rc.cached
            assert rc.identity() == ra.identity()

            # --- per-tenant quota rejects with HTTP 429 + reason ---
            daemon.pause()
            overload = [make_spec(seed=s, name=f"alice/q{s}")
                        for s in range(3)]
            with pytest.raises(AdmissionRejected) as info:
                alice.submit(overload)
            assert "tenant quota" in str(info.value)
            daemon.resume()

            # tenants are accounted separately in the status payload
            status = alice.status()
            assert status["tenants"]["alice"]["rejected"] == 3
            assert status["tenants"]["bob"]["rejected"] == 0
            counters = status["metrics"]["counters"]
            assert counters["serve.cache_hits.alice"] == 1
            assert counters["serve.cache_misses.bob"] == 1
            assert counters["serve.batched_jobs"] == 2

            # --- clean shutdown over the protocol ---
            alice.shutdown()
            deadline = time.monotonic() + 30
            while not daemon._stopped.is_set():
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            daemon.stop()

    def test_matrix_submission_expands_like_run(self, daemon):
        client = Client(daemon.address, tenant="grid")
        matrix = Matrix(make_spec(seed=5, name="grid"), axes={
            "lr": {"slow": {"optimizer_params.lr": 0.01},
                   "fast": {"optimizer_params.lr": 0.04}}})
        tickets = client.submit(matrix)
        assert [t.name for t in tickets] == \
            [s.name for s in matrix.expand()]
        for ticket in tickets:
            record = client.result(ticket, timeout=120)
            assert record.name == ticket.name

    def test_streamed_events_bracket_the_iterations(self, daemon):
        client = Client(daemon.address, tenant="stream")
        ticket = client.submit(make_spec(seed=7, name="stream/s"))
        events = list(client.stream(ticket))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds[-1] == "done"
        iterations = [e for e in events if e["event"] == "iteration"]
        assert iterations, "scalar units must stream iterations"
        assert all("staleness" in e and "sim_time" in e
                   for e in iterations)
        steps = [e["step"] for e in iterations]
        assert steps == sorted(steps)


class TestStop:
    @pytest.mark.parametrize("mode", ["thread", "fork"])
    def test_stop_wakes_the_accept_loop_and_closes_the_port(self, mode):
        # the accept loop sleeps until a connection or stop(); a polled
        # loop would take up to its 0.5 s poll to notice
        daemon = ServeDaemon(ServeConfig(
            cache_dir=None, min_workers=1, max_workers=1,
            pool_mode=mode)).start()
        try:
            address = daemon.address
            threads = list(daemon._threads)
            assert Client(address).status()["pool"]["mode"] == mode
            start = time.perf_counter()
            daemon.stop()
            elapsed = time.perf_counter() - start
        finally:
            daemon.stop()
        assert elapsed < 0.25, elapsed
        assert not any(thread.is_alive() for thread in threads)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()


class TestWake:
    @pytest.mark.parametrize("mode", ["thread", "fork"])
    def test_dispatch_does_not_wait_for_the_tick(self, mode):
        # submissions and finished units wake the scheduler, so with a
        # 5 s tick a two-spec matrix is dispatched and answered long
        # before the second tick, and stop() returns at once
        daemon = ServeDaemon(ServeConfig(
            cache_dir=None, min_workers=1, max_workers=2, tick=5.0,
            pool_mode=mode)).start()
        try:
            client = Client(daemon.address, tenant="wake")
            matrix = Matrix(make_spec(name="wake"), axes={
                "seed": {"a": {"seed": 1}, "b": {"seed": 2}}})
            start = time.perf_counter()
            records = [client.result(t, timeout=60)
                       for t in client.submit(matrix)]
            elapsed = time.perf_counter() - start
            stop_start = time.perf_counter()
            daemon.stop()
            stop_elapsed = time.perf_counter() - stop_start
        finally:
            daemon.stop()
        assert [r.name for r in records] == \
            [s.name for s in matrix.expand()]
        assert elapsed < 2.5, elapsed
        assert stop_elapsed < 1.0, stop_elapsed

    def test_scalar_units_dispatch_as_workers_free_up(self):
        # one worker and three unbatchable specs: each later unit starts
        # when the previous one's result frees the worker, not at a tick
        daemon = ServeDaemon(ServeConfig(
            cache_dir=None, min_workers=1, max_workers=1, tick=5.0,
            scheduler="fifo")).start()
        try:
            client = Client(daemon.address, tenant="wake")
            specs = [make_spec(seed=s, name=f"wake/{s}") for s in (1, 2, 3)]
            start = time.perf_counter()
            records = [client.result(t, timeout=60)
                       for t in client.submit(specs)]
            elapsed = time.perf_counter() - start
        finally:
            daemon.stop()
        assert all(r.env["serve_unit"] == "scalar" for r in records)
        assert elapsed < 2.5, elapsed

    def test_a_failing_round_keeps_the_tick_period(self):
        # a round that raises is counted and retried a tick later, not
        # at once in a spinning loop
        daemon = ServeDaemon(ServeConfig(
            cache_dir=None, min_workers=1, max_workers=1, tick=0.05))

        def fail(**_):
            raise RuntimeError("autoscaler down")

        daemon.autoscaler.target = fail
        daemon.start()
        try:
            time.sleep(0.5)
        finally:
            daemon.stop()
        errors = daemon.metrics.snapshot()["counters"]["serve.tick_errors"]
        assert 1 <= errors <= 15, errors


class TestProtocolEdges:
    def test_unknown_ticket_is_a_serve_error(self, daemon):
        client = Client(daemon.address, tenant="x")
        with pytest.raises(ServeError, match="404|unknown"):
            client.result("t-424242", timeout=5)

    def test_malformed_submit_is_rejected_not_fatal(self, daemon):
        host, port = daemon.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/submit",
            data=b"this is not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        # the daemon is still healthy afterwards
        assert Client(daemon.address).status()["jobs"] == 0

    def test_invalid_component_name_is_a_400(self, daemon):
        client = Client(daemon.address, tenant="x")
        bad = make_spec(seed=1).with_overrides(
            {"optimizer": "no_such_optimizer"})
        with pytest.raises(ServeError, match="400|invalid"):
            client.submit(bad)


class TestCli:
    def test_parser_accepts_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-workers", "2",
             "--scheduler", "fifo", "--no-cache"])
        assert args.command == "serve"
        assert args.scheduler == "fifo"
        assert args.no_cache

    def test_python_m_repro_serve_round_trip(self, tmp_path):
        # the real CLI entry point: boot, submit over HTTP, shut down
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port",
             "0", "--max-workers", "2", "--cache",
             str(tmp_path / "cache")],
            cwd=str(tmp_path), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner, banner
            address = banner.split("http://")[1].split()[0]
            host, port = address.split(":")
            client = Client((host, int(port)), tenant="cli")
            ticket = client.submit(make_spec(seed=11, name="cli/a"))
            record = client.result(ticket, timeout=120)
            assert record.name == "cli/a"
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
