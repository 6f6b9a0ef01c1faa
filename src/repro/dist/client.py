"""Client for the ``si-mapper serve`` synthesis job API.

:class:`ServiceClient` is what ``si-mapper submit`` and the
work-stealing ``report --claim`` loop talk through: a thin
``urllib``-based wrapper over the job endpoints of
:mod:`repro.dist.server` that turns HTTP failures into
:class:`~repro.errors.ServiceError` (a clean CLI error, never a
traceback) and knows the submit → poll → fetch choreography.

Unlike the artifact-cache client (:class:`~repro.dist.remote.
RemoteArtifactCache`), which *degrades to a miss* when the server is
away — a cache is an optimization — this client *fails loudly*: a job
the user explicitly submitted has no local fallback to degrade to.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.dist.jobs import JobParams
from repro.errors import ServiceError

#: how long one HTTP round-trip may take; job *computation* time is
#: governed by the poll deadline, not this
REQUEST_TIMEOUT = 30.0


class ServiceClient:
    """Talk to one serve daemon's job API."""

    def __init__(self, base_url: str, api_key: Optional[str] = None,
                 timeout: float = REQUEST_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None
                 ) -> Tuple[int, bytes]:
        from repro.obs.trace import trace_span
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method)
        if self.api_key is not None:
            request.add_header("X-SI-Key", self.api_key)
        with trace_span("client.request", "http", method=method,
                        path=path.split("?")[0]) as span:
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    status, payload = response.status, response.read()
            except urllib.error.HTTPError as error:
                # error replies carry a JSON body worth surfacing
                status, payload = error.code, error.read()
            except (urllib.error.URLError, OSError) as error:
                if span is not None:
                    span["status"] = "unreachable"
                raise ServiceError(
                    f"cannot reach synthesis service at "
                    f"{self.base_url}: "
                    f"{getattr(error, 'reason', error)}") from error
            if span is not None:
                span["status"] = status
            return status, payload

    @staticmethod
    def _json(payload: bytes) -> Dict:
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except ValueError as error:
            raise ServiceError(
                f"service sent a non-JSON reply: {payload[:200]!r}"
            ) from error
        if not isinstance(decoded, dict):
            raise ServiceError(
                f"service sent an unexpected reply: {decoded!r}")
        return decoded

    def _error_of(self, status: int, payload: bytes) -> ServiceError:
        try:
            detail = self._json(payload).get("error", "")
        except ServiceError:
            detail = payload.decode("utf-8", "replace").strip()
        return ServiceError(f"service replied {status}: {detail}",
                            status=status)

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------

    def submit(self, g_text: str,
               params: Optional[JobParams] = None) -> Dict:
        """POST one ``.g`` source; returns the acceptance document
        (``id``, ``state``, ``created``)."""
        query = (params or JobParams()).to_query()
        status, payload = self._request(
            "POST", f"/jobs?{query}", g_text.encode("utf-8"))
        if status not in (200, 202):
            raise self._error_of(status, payload)
        return self._json(payload)

    def status(self, job_id: str) -> Dict:
        status, payload = self._request("GET", f"/jobs/{job_id}")
        if status != 200:
            raise self._error_of(status, payload)
        return self._json(payload)

    def result(self, job_id: str) -> Optional[bytes]:
        """The finished row's canonical bytes, or ``None`` while the
        job is still queued/running."""
        status, payload = self._request(
            "GET", f"/jobs/{job_id}/result")
        if status == 200:
            return payload
        if status == 202:
            return None
        raise self._error_of(status, payload)

    def cancel(self, job_id: str) -> Dict:
        status, payload = self._request("DELETE", f"/jobs/{job_id}")
        if status != 200:
            raise self._error_of(status, payload)
        return self._json(payload)

    def submit_and_wait(self, g_text: str,
                        params: Optional[JobParams] = None,
                        poll_seconds: float = 0.2,
                        deadline_seconds: float = 600.0,
                        on_progress: Optional[
                            Callable[[Dict], None]] = None) -> bytes:
        """The whole choreography: submit, poll, fetch the row bytes.

        ``on_progress`` (if given) sees each polled status document —
        the CLI uses it to narrate stage completions.  Raises
        :class:`ServiceError` when the job fails or the deadline
        passes (the job keeps running server-side; resubmitting later
        dedupes onto it).
        """
        accepted = self.submit(g_text, params)
        job_id = accepted["id"]
        deadline = time.monotonic() + deadline_seconds
        while True:
            document = self.status(job_id)
            if on_progress is not None:
                on_progress(document)
            state = document["state"]
            if state == "done":
                payload = self.result(job_id)
                if payload is None:      # done a moment ago; refetch
                    continue
                return payload
            if state in ("failed", "cancelled"):
                raise ServiceError(
                    f"job {job_id} {state}: "
                    f"{document.get('error', '')}".rstrip(": "))
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {state} after "
                    f"{deadline_seconds:.0f}s (it keeps running "
                    "server-side; resubmitting later reuses it)")
            time.sleep(poll_seconds)

    # ------------------------------------------------------------------
    # Work stealing
    # ------------------------------------------------------------------

    def claim(self, names: Sequence[str]) -> Dict:
        """One ``POST /claim`` round: the next unclaimed name of this
        battery, or ``{"claimed": None}`` when it is drained."""
        if isinstance(names, str):
            # list("half") would claim letters, not circuits
            raise ServiceError(
                "claim needs a list of circuit names, not a string")
        body = json.dumps({"names": list(names)}).encode("utf-8")
        status, payload = self._request("POST", "/claim", body)
        if status != 200:
            raise self._error_of(status, payload)
        return self._json(payload)
