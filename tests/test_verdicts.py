"""Verdict regression: every recorded verdict must come out bit-identical.

`data/verdict_digests.json` holds a `verdict_digest` (status, depth, total
cubes, reason, trace, run template and every frontier layer's cubes) for the
bundled models, the first 16 corpus models, and corpus models 16 (concurrent)
and 42 (interleaved), the two whose fixpoint checks read relation literals
through the constants the cube sets; each under the semantics named in its
key.  `data/oracle_digests.json` holds an `oracle_digest`
(status, depth, states seen and run of the explicit-state search over small
agent counts and interpretations) for the same models, and
`data/encoding_digests.json` an `encoding_digest` (signature, initial state,
every rule in order and the goal's cubes) of the encoding itself.  A change
that is meant to leave answers alone, such as a speed-up of the search or a
rewrite of the encoder, must keep all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import encoding_digest, named_model, oracle_digest, verdict_digest
from pmasafety.encoder import encode
from pmasafety.engine import breach

DATA = Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "verdict_digests.json").read_text())
ORACLE_DIGESTS = json.loads((DATA / "oracle_digests.json").read_text())
ENCODING_DIGESTS = json.loads((DATA / "encoding_digests.json").read_text())


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_verdict_unchanged(case):
    name, semantics = case.split("/")
    assert verdict_digest(breach(encode(named_model(name), semantics))) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS))
def test_oracle_unchanged(case):
    name, semantics = case.split("/")
    assert oracle_digest(named_model(name), semantics) == ORACLE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ENCODING_DIGESTS))
def test_encoding_unchanged(case):
    name, semantics = case.split("/")
    assert encoding_digest(encode(named_model(name), semantics)) == ENCODING_DIGESTS[case]


_ORDER = ["cannon/interleaved", "cannon/concurrent", "trains/interleaved",
          "trains/concurrent", "two-robot/interleaved"]


def test_verdicts_independent_of_run_order():
    """Terms, atoms and literals hash by identity, so a set of them iterates
    in the order of their addresses, which follow all the process allocated
    before.  The same runs in two orders within one process, the first
    order's verdicts alive while the second runs, give the recorded digests
    (each layer's cube renderings included) both times."""

    def run(cases):
        return {case: breach(encode(named_model(name), semantics))
                for case in cases for name, semantics in [case.split("/")]}

    first = run(_ORDER)
    second = run(_ORDER[::-1])
    want = {case: DIGESTS[case] for case in _ORDER}
    assert {case: verdict_digest(v) for case, v in first.items()} == want
    assert {case: verdict_digest(v) for case, v in second.items()} == want


def test_verdicts_unchanged_under_another_hash_seed():
    """Every recorded verdict digest again, in a process with another str
    hash seed: a verdict that depends on the iteration order of a set or
    dict of strings fails here."""
    code = (
        "import json, sys\n"
        "from helpers import named_model, verdict_digest\n"
        "from pmasafety.encoder import encode\n"
        "from pmasafety.engine import breach\n"
        "out = {}\n"
        "for case in json.load(sys.stdin):\n"
        "    name, semantics = case.split('/')\n"
        "    out[case] = verdict_digest(breach(encode(named_model(name), semantics)))\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="12345")
    run = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(sorted(DIGESTS)), capture_output=True,
        text=True, check=True, env=env, timeout=300,
    )
    assert json.loads(run.stdout) == DIGESTS
