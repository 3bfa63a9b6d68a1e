import json
import os
import sys

import pytest

from protagent import backends, domains, homology
from protagent.executor import build_standard_registry
from protagent.seq import Sequence

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

MSCL_RESIDUES = (
    "MLKEFKEFALKGNVLDLAIAVVMGAAFNKIVTSLVTYIIMPLIGKIFGSVDFAKDWEFWG"
    "IKYGLFIQSIIDFIIVAIALFIFVKIANTLVKKEEPEEEIEENTVLLTEIRDLLRAK"
)


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture(scope="session")
def mscl_seq() -> Sequence:
    return Sequence(id="query", residues=MSCL_RESIDUES)


@pytest.fixture(scope="session")
def store_entries():
    return homology.load_reference_store(
        data_path("store.fasta"), data_path("store.annotations.jsonl")
    )


@pytest.fixture(scope="session")
def store_index(store_entries):
    return homology.build_index(store_entries)


@pytest.fixture(scope="session")
def store_annotations(store_entries):
    return {e.accession: e.annotation for e in store_entries}


@pytest.fixture(scope="session")
def hmm_library():
    with open(data_path("toy.hmm"), encoding="utf-8") as fh:
        return domains.parse_hmm_library(fh.read())


@pytest.fixture(scope="session")
def registry(store_index, store_annotations, hmm_library):
    return build_standard_registry(
        index=store_index, annotations=store_annotations, hmm_library=hmm_library
    )


class StubReply:
    """What a replaced `requests.post` returns: the body as JSON text, the
    one part of a response the remote backend reads."""

    def __init__(self, body):
        self.text = json.dumps(body)

    def raise_for_status(self):
        pass


def http_backend(monkeypatch, message) -> backends.HttpChatBackend:
    """A remote backend whose every request is answered, in process, with a
    reply holding `message`."""
    monkeypatch.setenv("PROTAGENT_API_KEY", "test-key")
    reply = StubReply({"choices": [{"message": message}]})
    monkeypatch.setattr(backends.requests, "post", lambda *args, **kwargs: reply)
    return backends.HttpChatBackend("http://localhost/v1/chat/completions", "test-model")


def http_tool_call(arguments, name="seq_basic_props", call_id="c0"):
    return {"id": call_id, "type": "function", "function": {"name": name, "arguments": arguments}}


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for label, ok in results:
        terminalreporter.write_line(f"  [{'PASS' if ok else 'FAIL'}] {label}")
