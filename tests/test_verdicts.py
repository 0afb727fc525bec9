"""Verdict regression: every recorded verdict must come out bit-identical.

`data/verdict_digests.json` holds a `verdict_digest` (status, depth, total
cubes, reason, trace, run template and every frontier layer's cubes) for the
bundled models and the first 16 corpus models, each under the semantics
named in its key.  A change that is meant to leave verdicts alone, such as a
speed-up of the search, must keep all of them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import verdict_digest
from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_pmas
from pmasafety.encoder import encode
from pmasafety.engine import breach
from pmasafety.models import fixture_text

DIGESTS = json.loads((Path(__file__).parent / "data" / "verdict_digests.json").read_text())


def _model(name: str):
    if name.startswith("corpus"):
        return generate_model(int(name[len("corpus"):]))
    return parse_pmas(fixture_text(name), name)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_verdict_unchanged(case):
    name, semantics = case.split("/")
    assert verdict_digest(breach(encode(_model(name), semantics))) == DIGESTS[case]
