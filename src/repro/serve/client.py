"""The typed client surface of the tuning service.

One result contract, two transports: :class:`Client` submits
:class:`~repro.xp.spec.ScenarioSpec` / :class:`~repro.xp.spec.Matrix`
traffic to a running daemon over localhost HTTP+JSON and hands back
records that are **bit-identical** in deterministic identity to a
local :func:`repro.run.run` of the same specs — whether the daemon
answered from the result cache, deduplicated against an in-flight
job, executed the spec alone, or coalesced it into a cross-tenant
batched engine run.

The three-call surface mirrors the async shape of the service::

    client = Client(("127.0.0.1", 8631), tenant="alice")
    ticket = client.submit(spec)              # returns immediately
    for event in client.stream(ticket):       # live per-iteration
        print(event["step"], event.get("staleness"))
    record = client.result(ticket)            # blocks until done

Transport notes: every call is one HTTP/1.0 request on a fresh
connection with a close-delimited response — no keep-alive or chunked
framing, so the protocol is trivially debuggable with ``curl``.
Result payloads cross the wire through the tagged
:func:`repro.utils.serialization.encode_state` codec, the same one the
result cache uses, so float and array values survive bit-for-bit.  A
ticket the result cache answered is finished at admission, so the
``/v1/submit`` response carries its record under ``records`` and
:meth:`Client.result` returns it without a request: a cache hit costs
one round trip.  Without ``records`` (an older daemon) ``result``
long-polls ``/v1/result`` as for any other ticket.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.utils.serialization import decode_state, encode_state
from repro.xp.runner import ScenarioResult
from repro.xp.spec import Matrix, ScenarioSpec

from repro.serve.jobs import Ticket


class ServeError(RuntimeError):
    """Base error for client/daemon interactions."""


class AdmissionRejected(ServeError):
    """The daemon refused a submission (quota or saturation).

    Raised by :meth:`Client.submit` on an HTTP 429, and by
    :meth:`repro.serve.daemon.ServeDaemon.submit` directly; the
    message carries the admission policy's reason verbatim.
    """


class JobFailed(ServeError):
    """The submitted scenario's execution raised in the worker.

    The message carries the worker-side traceback text.
    """


Submittable = Union[ScenarioSpec, Matrix, Sequence[ScenarioSpec]]


class Client:
    """Typed HTTP client for a :class:`~repro.serve.daemon.ServeDaemon`.

    Parameters
    ----------
    address : tuple of (str, int)
        The daemon's ``(host, port)``.
    tenant : str
        Tenant identity attached to every submission; quotas and the
        per-tenant cache counters are keyed by it.
    timeout : float
        Per-request socket timeout in seconds (long-polls add their
        own wait on top).
    """

    def __init__(self, address: Tuple[str, int],
                 tenant: str = "default", timeout: float = 30.0):
        self.host, self.port = str(address[0]), int(address[1])
        self.tenant = str(tenant)
        self.timeout = float(timeout)
        # ticket id -> coded record the submit response carried, until
        # result() takes it
        self._records: Dict[str, dict] = {}

    # ------------------------------------------------------------- #
    # transport
    # ------------------------------------------------------------- #
    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 extra_timeout: float = 0.0) -> dict:
        """One request/response cycle on a fresh connection."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout + extra_timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode("utf-8")
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                raise ServeError(
                    f"malformed response from daemon ({response.status}): "
                    f"{raw[:200]!r}") from None
            if response.status == 429:
                raise AdmissionRejected(data.get("error", "rejected"))
            if response.status >= 400:
                raise ServeError(
                    f"{method} {path} -> {response.status}: "
                    f"{data.get('error', raw[:200])}")
            return data
        except (OSError, http.client.HTTPException) as exc:
            if isinstance(exc, ServeError):
                raise
            raise ServeError(
                f"cannot reach daemon at {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()

    @staticmethod
    def _specs(scenarios: Submittable) -> List[ScenarioSpec]:
        if isinstance(scenarios, ScenarioSpec):
            return [scenarios]
        if isinstance(scenarios, Matrix):
            return scenarios.expand()
        specs = list(scenarios)
        bad = [s for s in specs if not isinstance(s, ScenarioSpec)]
        if bad:
            raise TypeError(
                f"expected ScenarioSpec items, got {type(bad[0]).__name__}")
        return specs

    # ------------------------------------------------------------- #
    # the api_redesign surface: submit / stream / result
    # ------------------------------------------------------------- #
    def submit(self, scenarios: Submittable) -> Union[Ticket, List[Ticket]]:
        """Submit scenarios; returns immediately with ticket(s).

        Parameters
        ----------
        scenarios : ScenarioSpec or Matrix or sequence of ScenarioSpec
            What to run.  A Matrix expands in axis order, exactly as
            ``run()`` would.

        Returns
        -------
        Ticket or list of Ticket
            One ticket per spec — a single :class:`Ticket` when a
            single spec was submitted, a list otherwise.  Admission is
            all-or-nothing: either every spec is ticketed or the whole
            submission raises.  A cache-hit ticket's record came with
            the response and is held until :meth:`result` takes it.

        Raises
        ------
        AdmissionRejected
            Quota or saturation rejection (HTTP 429).
        ServeError
            Transport failures and invalid-spec rejections.
        """
        specs = self._specs(scenarios)
        if not specs:
            raise ValueError("nothing to submit")
        data = self._request("POST", "/v1/submit", {
            "tenant": self.tenant,
            "specs": [encode_state(spec.as_dict()) for spec in specs],
        })
        tickets = [Ticket(**t) for t in data["tickets"]]
        self._records.update(data.get("records", {}))
        if isinstance(scenarios, ScenarioSpec):
            return tickets[0]
        return tickets

    def stream(self, ticket: Union[Ticket, str],
               poll: float = 10.0) -> Iterator[dict]:
        """Iterate a ticket's live event feed until its job finishes.

        Yields every history event in order — ``queued``, ``started``
        (with the dispatch unit's ``batch_size``), one ``iteration``
        per committed optimizer step for scalar units (step, staleness,
        sim time, queue depth — the payload the cluster engine emits
        through the obs subscriber seam), and finally ``done`` or
        ``error``.  A consumer attaching late replays the full history
        first; nothing is ever missed.

        Parameters
        ----------
        ticket : Ticket or str
            The submission handle (or its id).
        poll : float
            Seconds each underlying long-poll waits before re-asking.

        Yields
        ------
        dict
            One event per iteration of the loop.
        """
        ticket_id = ticket.id if isinstance(ticket, Ticket) else str(ticket)
        cursor = 0
        while True:
            data = self._request(
                "GET",
                f"/v1/events?ticket={ticket_id}&cursor={cursor}"
                f"&timeout={poll}",
                extra_timeout=poll)
            for event in data.get("events", []):
                yield event
            cursor = int(data.get("cursor", cursor))
            if data.get("finished"):
                return

    def result(self, ticket: Union[Ticket, str],
               timeout: float = 300.0) -> ScenarioResult:
        """Block until a ticket's record is ready and return it.

        The record's deterministic identity (name, spec hash, metrics,
        series) is bit-identical to a local ``run()`` of the same spec
        — the differential suite enforces this across the cached,
        uncached, and cross-tenant-batched serving paths.

        A cache-hit ticket's record arrived with :meth:`submit`'s
        response; the first ``result`` call for it returns that record
        without a request (a later call asks ``/v1/result``, which
        returns the same record).

        Parameters
        ----------
        ticket : Ticket or str
            The submission handle (or its id).
        timeout : float
            Seconds to wait before giving up.

        Returns
        -------
        ScenarioResult

        Raises
        ------
        JobFailed
            The scenario's execution raised in the worker.
        ServeError
            Unknown ticket, daemon unreachable, or timeout.
        """
        ticket_id = ticket.id if isinstance(ticket, Ticket) else str(ticket)
        record = self._records.pop(ticket_id, None)
        deadline = time.monotonic() + max(0.0, timeout)
        while record is None:
            wait = min(30.0, max(0.0, deadline - time.monotonic()))
            data = self._request(
                "GET", f"/v1/result?ticket={ticket_id}&timeout={wait}",
                extra_timeout=wait)
            if data.get("error"):
                raise JobFailed(data["error"])
            if data.get("done"):
                record = data["record"]
            elif time.monotonic() >= deadline:
                raise ServeError(
                    f"timed out after {timeout}s waiting on {ticket_id}")
        return ScenarioResult.from_dict(decode_state(record))

    # ------------------------------------------------------------- #
    # service management
    # ------------------------------------------------------------- #
    def status(self) -> dict:
        """The daemon's status payload (queue depth, tenants, metrics
        snapshot including the per-tenant serve cache counters)."""
        return self._request("GET", "/v1/status")

    def shutdown(self) -> None:
        """Ask the daemon to shut down cleanly (unfinished jobs fail)."""
        self._request("POST", "/v1/shutdown", {})
