"""The command line's bytes on the byte corpus (``corpus.py``) against
``golden.json``: every exit code, stderr text and stdout length and
SHA-256. A change that means to move bytes regenerates the golden file
with ``PYTHONPATH=src python tests/corpus.py --write``."""

import json

from corpus import GOLDEN, outputs


def test_the_corpus_prints_its_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = outputs()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want), "the corpus files differ from the golden file's"
    differing = []
    for name, runs in want.items():
        assert sorted(got[name]) == sorted(runs), f"{name}: the commands differ"
        for command, expected in runs.items():
            actual = got[name][command]
            if actual["exit"] != expected["exit"]:
                differing.append(f"{name} | {command} | exit")
            if actual["stderr"] != expected["stderr"]:
                differing.append(f"{name} | {command} | stderr")
            if (actual["stdout_bytes"], actual["stdout_sha256"]) != (
                    expected["stdout_bytes"], expected["stdout_sha256"]):
                differing.append(f"{name} | {command} | stdout")
    assert not differing, "outputs that differ:\n" + "\n".join(differing)
