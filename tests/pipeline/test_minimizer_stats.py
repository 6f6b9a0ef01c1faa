"""``RunRecord.stats`` minimizer counts with the complement bound.

A complement the essential-variable bound skips is one minimization
the run no longer poses, so ``minimize_skipped`` is positive, and
solved + reused + skipped equals solved + reused of a run whose
complements are always minimized.
"""

from unittest import mock

from repro.boolean.minimize import minimize
from repro.obs.metrics import use_registry
from repro.pipeline import Pipeline, PipelineConfig
from repro.synthesis import cover as cover_module


def trimos_send_k2_stats():
    config = PipelineConfig(libraries=(2,), with_siegel=False,
                            keep_artifacts=False)
    with use_registry():
        return Pipeline(config).run("trimos-send").stats


def test_skipped_complements_account_for_every_call():
    stats = trimos_send_k2_stats()

    def always_minimize(on, off, support, cover):
        return minimize(off, on, support)

    with mock.patch.object(cover_module, "minimize_complement",
                           always_minimize):
        reference = trimos_send_k2_stats()
    assert stats["minimize_skipped"] > 0
    assert reference["minimize_skipped"] == 0
    assert (stats["minimize_solved"] + stats["minimize_reused"]
            + stats["minimize_skipped"]) \
        == reference["minimize_solved"] + reference["minimize_reused"]
    assert stats["minimize_solved"] < reference["minimize_solved"]
