"""Concurrency fixtures: threaded request handlers and counters."""

import threading
from http.server import BaseHTTPRequestHandler


class TpHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.server.jobs["x"] = 1  # expect: conc-handler-shared-write
        self.server.total += 1  # expect: conc-handler-shared-write
        self.server.log.append("posted")  # expect: conc-handler-shared-write
        self.server.store.stats.add(hits=1)  # expect: conc-handler-shared-write


class FpHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        with self.server.lock:
            self.server.jobs["x"] = 1
            self.server.store.stats.add(hits=1)
        self.body = b"local to this request"
        self.count = 0


class TpCounters:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def record(self):
        self.hits += 1  # expect: conc-unlocked-counter


class FpCounters:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def record(self):
        with self._lock:
            self.hits += 1


def tp_stats_field_mutation(store):
    store.stats.hits += 1  # expect: conc-unlocked-counter


def fp_locked_mixin(store):
    store.stats.add(hits=1)


class FpPlainClass:
    """No lock owned: bare += on own attributes is single-threaded."""

    def __init__(self):
        self.calls = 0

    def record(self):
        self.calls += 1
