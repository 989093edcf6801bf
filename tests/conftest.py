import threading
from pathlib import Path

import pytest

from csqe.corpus import Document
from csqe.index import build_index

REPO_ROOT = Path(__file__).resolve().parent.parent
TOY_DIR = REPO_ROOT / "data" / "toy"
DATA_DIR = Path(__file__).resolve().parent / "data"
# how long a test's csqe-* threads get to end once it returns; a zlib call on a
# test-sized index takes milliseconds
THREAD_GRACE_S = 10.0


@pytest.fixture(autouse=True)
def no_csqe_thread_outlives_its_test():
    """Fail a test that leaves a ``csqe-*`` thread alive once it has had time to end.

    ``csqe.index`` names its zlib worker threads ``csqe-<what it runs>``. ``save``
    and ``load`` join theirs before they return, errors included; a built
    index's texts deflate ends on its own, and its first ``save`` or
    ``doc_texts`` read joins it.
    """
    yield
    alive = []
    for thread in threading.enumerate():
        if thread.name.startswith("csqe-"):
            thread.join(timeout=THREAD_GRACE_S)
            if thread.is_alive():
                alive.append(thread.name)
    if alive:
        pytest.fail(f"threads still alive {THREAD_GRACE_S:g} s after the test: {alive}")


@pytest.fixture(scope="session")
def toy_paths():
    return {
        "corpus": TOY_DIR / "corpus.jsonl",
        "queries": TOY_DIR / "queries.tsv",
        "qrels": TOY_DIR / "qrels.txt",
        "fixtures": TOY_DIR / "fixtures.json",
    }


# 3-document corpus whose texts tokenize to themselves: shark/warm/cold are
# Porter fixed points and none is a stopword. Session-scoped: the index is
# immutable and hypothesis tests draw many examples against it.
@pytest.fixture(scope="session")
def shark_docs():
    return [
        Document("d1", "shark shark"),
        Document("d2", "shark warm"),
        Document("d3", "cold"),
    ]


@pytest.fixture(scope="session")
def shark_index(shark_docs):
    return build_index(shark_docs)
