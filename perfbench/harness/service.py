"""service-open: ``si-mapper serve`` under open-loop traffic.

The daemon runs in its own process (``--workers 2``, a fresh store
directory, a small ``--retain-jobs``).  This process is the traffic
generator: two threads, each with at most one HTTP connection open,
sharing one schedule of submits and polls.

* Phase 1 is open-loop: seeded Poisson arrivals at a fixed rate, a
  fixed number of them.  Each job is timed from its *scheduled* send
  time until its row bytes are fetched, so a stalled generator
  counts against every later job; its lateness is reported.
* Phase 2 is a burst: batches of fresh jobs, each submitted back to
  back once the one before it is served.  ``wall_s`` is the median
  batch makespan, from its first submit to its last row fetched.

Polling is rate-bounded (a first poll at a random point of the first
interval after the submit, then a fixed interval per job, and a
minimum gap between any two polls) so the poller cannot starve the
daemon's workers of the interpreter.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from harness import inputs, metrics, oracle
from harness.common import ROOT, Outcome, peak_rss_mb, run_dir
from harness.spans import SpanRecorder
from harness.stats import median, percentile

WORKERS = 2
JOB_QUERY = "k=2,3,4"            # the default battery: k=2,3,4 + [12]
POLL_INTERVAL_S = 0.010          # per job
MIN_POLL_GAP_S = 0.005           # between any two polls, phase 1
BURST_POLL_GAP_S = 0.025         # phase 2: jobs finish in order, so
                                 # faster polls only take the workers' CPU
DEADLINE_S = 60.0                # per job, from its scheduled send
MAX_LAG_SHARE = 0.5              # of job p50: the run is void beyond
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


@dataclass
class Job:
    """One submission and what the client saw of it."""

    arrival: inputs.Arrival
    due: float = 0.0              # scheduled send (perf_counter)
    sent: float = 0.0
    accepted: float = 0.0         # the submit reply arrived
    job_id: str = ""
    created: bool = False         # 202: a new job, not a dedupe
    latency: Optional[float] = None
    row: Optional[bytes] = None
    polls: int = 0
    error: str = ""


class _Connection:
    """HTTP requests to the daemon, each on a fresh connection as the
    ``si-mapper submit`` client (urllib) makes them.

    On a kept-alive connection every reply would wait ~40 ms for the
    client's delayed ACK, because the daemon writes headers and body
    as two segments; the generator would then measure that stall
    (p50 113 ms instead of 48 ms, and a client-bound burst).
    """

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=30)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def close(self) -> None:
        """Nothing stays open between requests."""


class Daemon:
    """The serve daemon process: spawn, wait until ready, stop."""

    def __init__(self, directory: str, retain: int, traced: bool):
        self.directory = directory
        self.spans_path = os.path.join(directory, "daemon-spans.json")
        serve = ["--cache-dir", os.path.join(directory, "store"),
                 "--port", "0", "--workers", str(WORKERS),
                 "--retain-jobs", str(retain)]
        if traced:
            command = [sys.executable,
                       os.path.join(ROOT, "perfbench", "harness",
                                    "daemon.py"), self.spans_path] + serve
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self._out = open(os.path.join(directory, "daemon.out"), "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._out, stderr=subprocess.STDOUT)
        self.host, self.port = "", 0

    def wait_ready(self) -> None:
        """Wait for the listening address and a 200 on ``/healthz``."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        path = os.path.join(self.directory, "daemon.out")
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            with open(path, "rb") as handle:
                found = re.search(rb" at http://([\d.]+):(\d+)",
                                  handle.read())
            if found:
                host, port = found.group(1).decode(), int(found.group(2))
                connection = _Connection(host, port)
                try:
                    status, _ = connection.request("GET", "/healthz")
                finally:
                    connection.close()
                if status == 200:
                    self.host, self.port = host, port
                    return
            time.sleep(0.01)
        raise RuntimeError("serve daemon not ready in time")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait; kill if it
        hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=STOP_TIMEOUT_S)
        self._out.close()


def _prometheus(text: str) -> Dict[Tuple[str, frozenset], float]:
    """Parse Prometheus text exposition into {(name, labels): value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        pairs = frozenset(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', labels))
        samples[(name, pairs)] = float(value)
    return samples


def _total(samples, name: str, **labels: str) -> float:
    wanted = set(labels.items())
    return sum(value for (sample, pairs), value in samples.items()
               if sample == name and wanted <= pairs)


class ServiceOpen:
    """Open-loop arrivals plus a burst against one serve daemon."""

    name = "service-open"

    def __init__(self, seed: int, smoke: bool = False,
                 traced: bool = False):
        self.seed = seed
        self.plan = inputs.SERVICE_SMOKE if smoke else inputs.SERVICE_PLAN
        self.traced = traced
        self.daemon: Optional[Daemon] = None
        self.directory = ""

    # -- set-up ------------------------------------------------------

    def setup(self) -> None:
        """Traffic generation, daemon spawn and readiness, and one
        warm-up job."""
        self.arrivals, self.batches = inputs.service_inputs(self.seed,
                                                            self.plan)
        self.directory = run_dir("service-open")
        self.daemon = Daemon(self.directory, self.plan.retain, self.traced)
        self.daemon.wait_ready()
        warm = inputs.Arrival(0.0, "warmup", "", "warmup-celement",
                              inputs.WARMUP_G)
        connection = self._connect()
        try:
            job = Job(warm)
            self._submit(connection, job)
            while job.row is None and not job.error:
                time.sleep(0.01)
                self._poll(connection, job)
        finally:
            connection.close()
        if job.error:
            raise RuntimeError(f"warm-up job failed: {job.error}")

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = ""

    # -- client operations -------------------------------------------

    def _connect(self) -> _Connection:
        assert self.daemon is not None
        return _Connection(self.daemon.host, self.daemon.port)

    @staticmethod
    def _submit(connection: _Connection, job: Job) -> None:
        job.sent = time.perf_counter()
        status, body = connection.request(
            "POST", f"/jobs?{JOB_QUERY}", job.arrival.text.encode())
        job.accepted = time.perf_counter()
        if status not in (200, 202):
            job.error = f"submit replied {status}: {body[:200]!r}"
            return
        job.job_id = json.loads(body)["id"]
        job.created = status == 202

    @staticmethod
    def _poll(connection: _Connection, job: Job) -> None:
        """One poll of the row: 202 while queued or running."""
        job.polls += 1
        status, body = connection.request("GET",
                                          f"/jobs/{job.job_id}/result")
        if status == 200:
            job.latency = time.perf_counter() - job.due
            job.row = body
        elif status != 202:
            job.error = f"result replied {status}: {body[:200]!r}"

    def _status_documents(self, jobs: List[Job]) -> Dict[str, Dict]:
        """Job id -> the status document fields (``wait_seconds``,
        ``run_seconds``) of each job these submits created, as the
        daemon spilled them to its store: read after it stopped, so
        fetching them costs the measured traffic nothing."""
        from repro.pipeline.store import MISS, DiskArtifactCache
        store = DiskArtifactCache(os.path.join(self.directory, "store"))
        documents = {}
        for job in jobs:
            if job.created and job.job_id not in documents:
                row = store.get(("jobrow", job.job_id))
                if row is not MISS:
                    documents[job.job_id] = row
        return documents

    # -- the phases --------------------------------------------------

    def _drive(self, jobs: List[Job], open_loop: bool) -> float:
        """Submit ``jobs`` (on schedule, or back to back) and poll them
        until every row is fetched; returns the last fetch time."""
        traffic = _Traffic(jobs, open_loop)
        helper = threading.Thread(target=traffic.work,
                                  args=(self._connect(),),
                                  name="perfbench-traffic")
        helper.start()
        try:
            traffic.work(self._connect())
        finally:
            helper.join(timeout=DEADLINE_S + 30)
        if helper.is_alive():
            raise RuntimeError("traffic thread did not finish")
        if traffic.errors:
            raise traffic.errors[0]
        return traffic.last_fetch

    def _scrape(self) -> Tuple[Dict, Dict]:
        connection = self._connect()
        try:
            _, text = connection.request("GET", "/metrics")
            _, stats = connection.request("GET", "/stats")
        finally:
            connection.close()
        return _prometheus(text.decode()), json.loads(stats)["jobs"]

    def measure(self) -> Outcome:
        """Both phases, the output check, and the metrics."""
        from repro.report import Table1Row
        assert self.daemon is not None
        outcome = Outcome()
        if self.traced:
            before = self._scrape()
        phase1 = [Job(arrival) for arrival in self.arrivals]
        batches = [[Job(arrival) for arrival in batch]
                   for batch in self.batches]
        window_start = time.perf_counter()
        self._drive(phase1, open_loop=True)
        makespans = [self._drive(batch, open_loop=False)
                     - min(job.sent for job in batch) for batch in batches]
        window_end = time.perf_counter()
        if self.traced:
            after = self._scrape()
        rss = self.daemon.peak_rss_mb()
        self.daemon.stop()

        burst = [job for batch in batches for job in batch]
        everything = phase1 + burst
        outcome.attempted = len(everything)
        references = oracle.reference_rows(
            {base: inputs.suite_text(base)
             for base in sorted({job.arrival.base for job in everything})})
        counts: Counter = Counter()
        for job in everything:
            label = f"{job.arrival.kind}:{job.arrival.name}"
            if job.error:
                outcome.fail(label, [job.error])
                continue
            outcome.fail(label, oracle.check_service_row(
                job.row, job.arrival.name, references[job.arrival.base]))
            if job.arrival.kind == "burst" and label not in \
                    outcome.failures:
                counts.update(metrics.table1_counts(
                    Table1Row.from_json(json.loads(job.row))))

        # a failed job counts as missing any latency limit
        latencies = [job.latency if job.latency is not None else DEADLINE_S
                     for job in phase1]
        lags = [job.sent - job.due for job in phase1]
        p50, p95 = median(latencies), percentile(latencies, 95)
        outcome.put("wall_s", median(makespans))
        outcome.put("peak_rss_mb", rss)
        for name in ("inserted_signals", "si_area", "solved_cells"):
            outcome.put(name, counts[name])
        # a generator that sends late measures itself, not the service
        if percentile(lags, 95) > MAX_LAG_SHARE * p50:
            outcome.fail("generator", [
                f"send lag p95 {percentile(lags, 95):.3f} s is over "
                f"{MAX_LAG_SHARE:.0%} of job p50 {p50:.3f} s"])
        kinds = {kind: sum(1 for job in phase1 if job.arrival.kind == kind)
                 for kind in ("fresh", "hot", "cold")}
        outcome.detail.append(
            f"phase 1: {len(phase1)} arrivals at {self.plan.rate:g}/s "
            f"({kinds}); p50 over {len(latencies)} samples; send lag "
            f"p50 {median(lags) * 1e3:.2f} ms, "
            f"p95 {percentile(lags, 95) * 1e3:.2f} ms")
        for kind in ("fresh", "hot", "cold"):
            chosen = [job for job in phase1 if job.arrival.kind == kind
                      and job.latency is not None]
            if chosen:
                latency = median([job.latency for job in chosen])
                submit = median([job.accepted - job.sent for job in chosen])
                polls = sum(job.polls for job in chosen) / len(chosen)
                outcome.detail.append(
                    f"  {kind}: p50 latency {latency * 1e3:.1f} ms, p50 "
                    f"submit {submit * 1e3:.1f} ms, {polls:.2f} polls/job")
        outcome.detail.append(f"phase 1: p50 {p50 * 1e3:.1f} ms, "
                              f"p95 {p95 * 1e3:.1f} ms")
        outcome.detail.append(
            f"phase 2: {len(batches)} batches of {len(batches[0])} jobs "
            "in " + ", ".join(f"{seconds:.3f}" for seconds in makespans)
            + f" s; {len(burst) / sum(makespans):.2f} jobs/s")
        if self.traced:
            outcome.layer = self._layer_metrics(
                before, after, phase1, everything, lags,
                window_start, window_end)
            outcome.layer["dist.job_p50_s"] = p50
            outcome.layer["dist.job_p95_s"] = p95
        return outcome

    def _layer_metrics(self, before, after, phase1: List[Job],
                       everything: List[Job], lags: List[float],
                       since: float, until: float) -> Dict[str, float]:
        (prom0, jobs0), (prom1, jobs1) = before, after

        def delta(name: str, **labels: str) -> float:
            return _total(prom1, name, **labels) - _total(prom0, name,
                                                          **labels)

        recorder = SpanRecorder.load(self.daemon.spans_path)
        layer = metrics.span_metrics(
            recorder.layer_totals(since, until),
            delta("si_mapper_candidates_total"))
        hits = delta("si_cache_ops_total", op="hit")
        misses = delta("si_cache_ops_total", op="miss")
        layer["pipeline.cache_hit_ratio"] = metrics.ratio(hits,
                                                          hits + misses)
        layer["pipeline.store_writes"] = delta("si_store_ops_total",
                                               op="writes")
        layer["pipeline.store_reads"] = sum(
            delta("si_store_ops_total", op=op)
            for op in ("hits", "misses", "stale", "errors"))
        layer["pipeline.store_bytes_written"] = delta(
            "si_store_bytes_total", direction="written")
        layer["dist.http_submit_s"] = delta(
            "si_http_request_seconds_sum", method="POST", route="/jobs")
        layer["dist.http_result_s"] = delta(
            "si_http_request_seconds_sum", method="GET",
            route="/jobs/<id>/result")
        layer["dist.http_requests"] = delta("si_http_request_seconds_count")
        # phase-1 jobs this run created (a dedupe shares its job's
        # document; the burst's queue is phase 2's, not the open loop's)
        documents = self._status_documents(phase1)
        created = [job for job in phase1 if job.job_id in documents
                   and job.latency is not None]
        waits = [float(documents[job.job_id]["wait_seconds"])
                 for job in created]
        runs = [float(documents[job.job_id]["run_seconds"])
                for job in created]
        overheads = [job.latency - wait - run
                     for job, wait, run in zip(created, waits, runs)]
        layer["dist.queue_wait_p95_s"] = percentile(waits, 95)
        layer["dist.job_run_p50_s"] = median(runs)
        layer["dist.client_overhead_p50_s"] = median(overheads)
        layer["dist.polls_per_job"] = metrics.ratio(
            sum(job.polls for job in everything), len(everything))
        layer["dist.dedupe_ratio"] = metrics.ratio(
            jobs1["deduplicated"] - jobs0["deduplicated"], len(everything))
        layer["dist.restored"] = jobs1["restored"] - jobs0["restored"]
        layer["dist.evicted"] = jobs1["evicted"] - jobs0["evicted"]
        layer["client.send_lag_p95_s"] = percentile(lags, 95)
        return layer


class _Traffic:
    """The two generator threads' shared schedule.

    Each thread owns one connection and repeatedly takes the next due
    action: a submit as soon as it is due (an open loop sends on
    schedule, so submits go first), else a poll of the oldest job whose
    next poll is due, with a minimum gap between polls.  Two threads
    keep one stalled request from delaying the next send.
    """

    def __init__(self, jobs: List[Job], open_loop: bool):
        start = time.perf_counter() + 0.05
        for job in jobs:
            job.due = start + (job.arrival.at if open_loop else 0.0)
        self.jobs = jobs
        self.open_loop = open_loop
        self.poll_gap = MIN_POLL_GAP_S if open_loop else BURST_POLL_GAP_S
        # The first poll lands at a random point of the poll interval:
        # on a fixed grid, a median near the grid's step would jump a
        # whole interval as the host speeds up or slows down.
        dither = random.Random(len(jobs))
        self.first_poll = {id(job): dither.uniform(0.0, POLL_INTERVAL_S)
                           for job in jobs}
        self.next_submit = 0
        self.pending: Dict[int, List] = {}    # id -> [next poll, job]
        self.in_flight = 0
        self.last_poll = 0.0
        self.last_fetch = 0.0
        self.errors: List[Exception] = []
        self.cond = threading.Condition()

    def _take(self) -> Optional[Tuple[str, Job]]:
        """Wait for the next due action; ``None`` when all are done."""
        with self.cond:
            while True:
                if self.errors:
                    return None
                now = time.perf_counter()
                wake = now + 0.05
                if self.next_submit < len(self.jobs):
                    job = self.jobs[self.next_submit]
                    if job.due <= now:
                        self.next_submit += 1
                        self.in_flight += 1
                        return "submit", job
                    wake = min(wake, job.due)
                elif not self.pending and not self.in_flight:
                    return None
                ready = [entry for entry in self.pending.values()
                         if entry[0] <= now]
                if ready:
                    allowed = self.last_poll + self.poll_gap
                    if allowed <= now:
                        entry = min(ready, key=lambda item: item[1].sent)
                        del self.pending[id(entry[1])]
                        self.in_flight += 1
                        self.last_poll = now
                        return "poll", entry[1]
                    wake = min(wake, allowed)
                elif self.pending:
                    wake = min(wake, min(entry[0] for entry in
                                         self.pending.values()))
                self.cond.wait(max(0.0, wake - now))

    def work(self, connection: _Connection) -> None:
        try:
            while True:
                action = self._take()
                if action is None:
                    return
                kind, job = action
                if kind == "submit":
                    if not self.open_loop:
                        job.due = time.perf_counter()
                    ServiceOpen._submit(connection, job)
                    again = job.accepted + self.first_poll[id(job)]
                else:
                    ServiceOpen._poll(connection, job)
                    again = time.perf_counter() + POLL_INTERVAL_S
                    if job.row is not None:
                        self.last_fetch = max(self.last_fetch,
                                              time.perf_counter())
                    elif again - job.due > DEADLINE_S:
                        job.error = (f"not done {DEADLINE_S:.0f} s "
                                     "after its scheduled send")
                with self.cond:
                    self.in_flight -= 1
                    if job.row is None and not job.error:
                        self.pending[id(job)] = [again, job]
                    self.cond.notify_all()
        except Exception as error:  # surfaced by the caller
            with self.cond:
                self.errors.append(error)
                self.cond.notify_all()
        finally:
            connection.close()
