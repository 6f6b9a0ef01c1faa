"""Launch ``si-mapper serve`` with the benchmark's span wrappers.

    python3 perfbench/harness/daemon.py SPANS.json [serve options...]

The wrappers are installed before the serve entry point runs, so every
job the daemon executes records spans.  When the daemon stops (SIGINT),
the spans are written once, to ``SPANS.json``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]
    import repro.cli
    import repro.dist.server  # noqa: F401  (bind before wrapping)
    from harness.spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    recorder.active = True
    try:
        return repro.cli.main(["serve"] + serve_args)
    finally:
        recorder.active = False
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
