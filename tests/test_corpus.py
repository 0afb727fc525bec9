"""Pseudo-random model generator used by the cross-check suites."""

from __future__ import annotations

import pytest

from pmasafety.corpus import generate_corpus, generate_model, generate_model_text
from pmasafety.model import infer_formula_var_templates, validate_pmas


def test_deterministic_per_seed():
    assert generate_model_text(42) == generate_model_text(42)
    assert generate_model_text(42) != generate_model_text(43)


@pytest.mark.parametrize("seed", range(30))
def test_generated_models_are_valid_and_bounded(seed):
    p = generate_model(seed)
    assert validate_pmas(p) == []
    assert 1 <= len(p.templates) <= 2
    for t in p.templates + (p.env,):
        assert 1 <= len(t.variables) <= 2
        assert 1 <= len(t.actions) <= 3
        for _v, sort, _init in t.variables:
            sd = next(s for s in p.sorts if s.name == sort)
            assert len(sd.constants) <= 3
    assert len(p.relations) <= 1
    if p.relations:
        assert len(p.relations[0].arg_sorts) <= 2
    assert len(infer_formula_var_templates(p, p.goal, None)) <= 2


def test_generate_corpus():
    corpus = generate_corpus(10, base_seed=5)
    assert [s for s, _ in corpus] == list(range(5, 15))
    assert all(p.name for _s, p in corpus)
