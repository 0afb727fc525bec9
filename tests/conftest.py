"""Fixtures shared by several test modules."""

from __future__ import annotations

import time
from dataclasses import replace
from typing import NamedTuple

import pytest

from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.encoder import encode
from pmasafety.engine import Verdict, breach
from pmasafety.model import Pmas
from pmasafety.models import fixture_text


class TwoRobot(NamedTuple):
    model: Pmas
    verdict: Verdict
    seconds: float  # wall time of the breach


@pytest.fixture(scope="session")
def two_robot() -> TwoRobot:
    """`cannon` with a goal that needs two distinct robots at the target, and
    its interleaved verdict: the slowest breach of the suite, run once."""
    p = parse_pmas(fixture_text("cannon"), "cannon")
    p2 = replace(p, goal=parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2"))
    t0 = time.monotonic()
    v = breach(encode(p2, "interleaved"))
    return TwoRobot(p2, v, time.monotonic() - t0)
