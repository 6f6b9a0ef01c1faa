"""The si-mapper benchmark harness (see ``perfbench/README.md``)."""
