"""Background accept loops stop promptly: ``stop()`` waits for one short
shutdown poll, not ``serve_forever``'s 0.5 s default."""

import time

import pytest

from repro.dist.s3fake import FakeS3Server
from repro.dist.server import ArtifactServer


@pytest.mark.parametrize("make", [
    lambda root: ArtifactServer(str(root), port=0),
    lambda root: FakeS3Server(port=0),
], ids=["serve", "s3fake"])
def test_stop_returns_within_a_short_poll(tmp_path, make):
    server = make(tmp_path).start_background()
    time.sleep(0.1)  # the accept loop is inside its poll by now
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.3
