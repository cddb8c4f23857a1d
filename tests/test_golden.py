"""The golden output corpus, ``tests/golden/outputs.json``: ``cli.main``,
run in process on each entry's argv, gives the entry's exit code, stderr
and stdout (see ``tests/golden/write_outputs.py`` for the format)."""

import json

import pytest
from golden.write_outputs import OUTPUTS, observe

CORPUS = json.loads(OUTPUTS.read_text())


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=[
    f"{i:03d}-{entry['argv'][0] if entry['argv'] else 'no-command'}"
    for i, entry in enumerate(CORPUS["entries"])])
def test_the_output_is_unchanged(entry):
    assert observe(entry["argv"], CORPUS["inputs"]) == entry
