"""Surface-language parser."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fixture_names
from pmasafety.dsl import _KEYWORDS, parse_formula, parse_pmas
from pmasafety.model import ModelError
from pmasafety.models import fixture_text


def test_cannon_structure():
    p = parse_pmas(fixture_text("cannon"), "cannon")
    assert [t.name for t in p.templates] == ["Att"]
    assert p.env.name == "Cannon"
    att = p.templates[0]
    assert {a.name for a in att.actions} == {
        "gotoA", "gotoB", "goTargetA", "goTargetB", "blastA", "blastB",
    }
    assert att.var_sort("loc") == "Loc"
    assert {v: init for v, _sort, init in att.variables}["destroyed"] == "no"
    assert p.alternation == (("Cannon",), ("Att",))
    assert [r.name for r in p.relations] == ["Snow"]


def test_trains_structure():
    p = parse_pmas(fixture_text("trains"), "trains")
    assert {t.name for t in p.templates} == {"PTrain", "NTrain"}
    assert p.env.name == "Controller"
    ind = [a for t in p.templates for a in t.actions if a.kind == "individual"]
    assert ind, "trains fixture uses individual synchronisation"


def test_syntax_error_has_position():
    with pytest.raises(ModelError) as ei:
        parse_pmas("sort Loc {", "bad")
    assert any(d.line >= 1 for d in ei.value.diagnostics)


def _error_at(parse, src: str) -> tuple[int, int]:
    with pytest.raises(ModelError) as ei:
        parse(src)
    (d,) = ei.value.diagnostics
    return d.line, d.col


def test_error_position_after_an_index():
    # columns after a spaced index on the same line, and lines after an index
    # that spans a line break, count the source as written
    plain = "pre: loc[self] = init and destroyed[self] = no and pulse_loc[e] != A"
    line = "pre: loc[ self ] = init and destroyed[ self ] = no and pulse_loc[ e ] != ?"
    src = fixture_text("cannon").replace(plain, line, 1)
    assert src != fixture_text("cannon")
    row = src[:src.index(line)].count("\n") + 1
    col = src.split("\n")[row - 1].index("?") + 1
    assert _error_at(parse_pmas, src) == (row, col)
    assert _error_at(parse_formula, "loc[\n  j ] = A and\n ?") == (3, 2)


def test_unknown_constant_rejected():
    src = fixture_text("cannon").replace("loc := A", "loc := Z")
    with pytest.raises(ModelError) as ei:
        parse_pmas(src, "bad")
    assert "Z" in str(ei.value)


def test_parse_formula():
    f = parse_formula("loc[j] = target and not Snow(A, B)")
    assert f is not None
    with pytest.raises(ModelError):
        parse_formula("loc[j] = target extra")
    with pytest.raises(ModelError):
        parse_formula("")


# words and symbols of the language, so that random token strings get past
# the tokenizer and exercise the parser
_TOKENS = sorted(_KEYWORDS) + [
    "{", "}", "(", ")", ",", ";", ":", "=", "!=", ":=", "[", "]", "#", "\n",
    "Loc", "A", "B", "x", "loc", "j", "self", "e", "T", "loc[j]", "x[self]",
]


def _edited_fixture(name: str, edits) -> str:
    """A bundled model with a few spans replaced by tokens, so that most of
    it still parses and the validator sees broken declarations."""
    src = fixture_text(name)
    for at, cut, tok in edits:
        i = int(at * len(src))
        src = src[:i] + tok + src[i + cut:]
    return src


_EDITS = st.lists(
    st.tuples(st.floats(0, 1), st.integers(0, 12), st.sampled_from(_TOKENS + [""])),
    min_size=1, max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(_TOKENS), max_size=60).map(" ".join),
    st.builds(_edited_fixture, st.sampled_from(fixture_names()), _EDITS),
))
def test_parsers_raise_only_model_errors(src):
    for parse in (parse_pmas, parse_formula):
        try:
            parse(src)
        except ModelError:
            pass
