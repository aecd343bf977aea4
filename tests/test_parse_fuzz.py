"""Property test of the instance parser on mutated instance text.

Whatever the text, ``parse_instance`` returns an ``Instance`` or raises
``FormatError`` with a line number; no other exception may escape.
A mutated PAIRS value is small, or so large (10**13 pairs) that a
parser sizing a section by it before checking the file would fail at
once rather than allocate gigabytes.
"""

import random

from hypothesis import given, settings, strategies as st

from pdtsp_kit.instance import FormatError, Instance, parse_instance, render_instance
from helpers import euclid_instance, float_instance


def _bases():
    rng = random.Random(5)
    closed = euclid_instance(rng, 2)
    floats = float_instance(rng, 1, mode="open")
    return [
        render_instance(closed),
        render_instance(floats),
        render_instance(euclid_instance(rng, 3, mode="open", rounding="none")),
        render_instance(Instance(2, closed.cost, name="int-matrix")),
        render_instance(Instance(1, floats.cost, mode="open", name="float-matrix")),
        # Raw labels that the parser relabels.
        "NAME raw\nPAIRS 2\nMODE closed\nROUNDING nearest\nEDGE_SOURCE coords\n"
        "COORDS\n3 4 4\n0 0 0\n4 9 1\n1 5 2\n2 3 3\nPAIRING\n3 1\n2 4\nEOF\n",
    ]


BASES = _bases()
NUMBERS = [
    "0", "1", "2", "3", "9", "-1", "0.5", "-0.0", "2.5e-7", "1e200", "-1e200",
    "1e400", "9" * 400, "10000000000000", "nan", "inf", "-inf",
]
WORDS = [
    "x", "#", "NAME", "PAIRS", "MODE", "ROUNDING", "EDGE_SOURCE", "COORDS",
    "MATRIX", "PAIRING", "EOF", "coords", "matrix", "open", "closed", "none",
    "nearest",
]
TOKENS = st.sampled_from(NUMBERS * 2 + WORDS)


@st.composite
def mutated_text(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    # Positions come from a plain Random seeded by Hypothesis. Its own
    # integers favour small values, which would keep nearly every edit
    # in the header.
    rnd = draw(st.randoms(use_true_random=True))
    for _ in range(draw(st.integers(1, 2))):
        if not lines:
            lines.append(draw(TOKENS))
        at = rnd.randrange(len(lines))
        op = draw(st.sampled_from(["set"] * 4 + ["drop", "add", "line", "text"]))
        toks = lines[at].split() or [""]
        k = rnd.randrange(len(toks))
        if op == "set":
            toks[k] = draw(TOKENS)
        elif op == "drop":
            del toks[k]
        elif op == "add":
            toks.insert(k, draw(TOKENS))
        elif op == "line":
            # Delete, duplicate or move a whole line.
            line = lines.pop(at)
            for _ in range(rnd.randrange(3)):
                lines.insert(rnd.randrange(len(lines) + 1), line)
            continue
        else:
            toks[k] = draw(st.text(max_size=6))
        lines[at] = " ".join(toks)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(mutated_text())
def test_parse_returns_instance_or_numbered_format_error(text):
    try:
        inst = parse_instance(text)
    except FormatError as err:
        assert err.line_no >= 1
    else:
        assert isinstance(inst, Instance)
