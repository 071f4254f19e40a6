"""``repro check`` command line: replay output and the axes list."""

import json
from pathlib import Path

import pytest

from repro.cli import CHECK_AXES, main

CORPUS = Path(__file__).parent / "corpus"


def test_replay_json_prints_one_document(capsys):
    paths = sorted(str(p) for p in CORPUS.glob("*.json"))[:2]
    assert len(paths) == 2
    assert main(["check", "--replay", *paths, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert [entry["path"] for entry in doc["files"]] == paths
    for entry in doc["files"]:
        assert entry["status"] == "certified"
        assert entry["errors"] == []


def test_help_lists_every_accepted_axis(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["check", "--help"])
    assert exc_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert ",".join(CHECK_AXES) in help_text
    assert "brute force" in help_text
