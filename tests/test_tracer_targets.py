"""The benchmark tracer must still find every name it wraps.

``perfbench/tracing.py`` patches package functions and methods by name. A
rename in ``src/`` that it does not follow breaks ``perfbench/run.py
--trace 1``; installing and uninstalling the tracer here makes that a tier-1
failure.
"""

import csqe.expansion
import csqe.llm
import csqe.prf

from conftest import REPO_ROOT


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from tracing import Tracer

    targets = [(csqe.expansion, "csqe_pipeline"), (csqe.prf, "rm3_search"),
               (csqe.llm.LlmClient, "sample"), (csqe.llm, "request_fingerprint")]
    before = [getattr(owner, name) for owner, name in targets]
    tracer = Tracer({})
    tracer.install()
    try:
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(targets, before))
