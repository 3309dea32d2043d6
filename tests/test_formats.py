import random
import time

import pytest

from conftest import fig4_digraph, random_free_lineset, triangle
from omlab.digraphs import graphic_om, minty_certificate
from omlab.errors import FormatError
from omlab.formats import (
    emit_certificate,
    emit_digraph,
    emit_lines,
    emit_matroid,
    emit_oriented,
    parse_digraph,
    parse_lines,
    parse_oriented,
)
from omlab.lines import LineSet, neat_prefix
from omlab.matroid import Matroid
from omlab.oriented import alternating_rank2
from omlab.signed_sets import GroundSet


def test_matroid_roundtrip():
    pair = graphic_om(fig4_digraph())
    text = emit_oriented(pair)
    assert text.startswith(emit_matroid(pair.matroid) + "\n")
    assert parse_oriented(text).matroid == pair.matroid


def test_matroid_format_example():
    text = "a,b,c\na,b,c\n"
    m = parse_oriented(text + "\n+-+\n\n++0\n+0-\n0++\n").matroid
    assert m.ground.labels == ("a", "b", "c")
    assert emit_matroid(m) == text


def test_matroid_parse_errors():
    # the matroid block of an oriented-matroid file, followed by two empty signed blocks
    with pytest.raises(FormatError, match="^missing ground-set line$"):
        parse_oriented("\n\n")
    with pytest.raises(FormatError, match="^line 2: unknown element 'z'$"):
        parse_oriented("a,b\na,z\n\n\n")
    err = pytest.raises(FormatError, parse_oriented, "a,b,c\na,b\na,b,c\n\n\n")
    assert "C2" in str(err.value) and err.value.line == 1


def test_oriented_roundtrip():
    for pair in (alternating_rank2(5), graphic_om(fig4_digraph()), graphic_om(triangle())):
        text = emit_oriented(pair)
        back = parse_oriented(text)
        assert back.matroid == pair.matroid
        assert back.circuit_sig.signed == pair.circuit_sig.signed
        assert back.cocircuit_sig.signed == pair.cocircuit_sig.signed
        assert emit_oriented(back) == text


def test_oriented_roundtrip_no_circuits():
    from omlab.oriented import CircuitSignature, SignaturePair
    from omlab.signed_sets import SignedSubset

    ground = GroundSet.range(2)
    m = Matroid.from_circuits(ground, [])
    pair = SignaturePair(
        m,
        CircuitSignature.from_representatives(m, []),
        CircuitSignature.from_representatives(
            m.dual(),
            [SignedSubset.from_string(ground, "+0"), SignedSubset.from_string(ground, "0+")],
        ),
    )
    text = emit_oriented(pair)
    back = parse_oriented(text)
    assert back.matroid == pair.matroid
    assert back.cocircuit_sig.signed == pair.cocircuit_sig.signed


def test_oriented_parse_errors():
    with pytest.raises(FormatError):
        parse_oriented("a,b,c\na,b,c\n")  # missing signature blocks
    with pytest.raises(FormatError):
        parse_oriented("a,b,c\na,b,c\n\n+-\n\n++0\n")  # bad vector length
    with pytest.raises(FormatError):
        parse_oriented("a,b,c\na,b,c\n\n+-+\n\n++0\n")  # cocircuit support mismatch


def test_digraph_roundtrip():
    d = fig4_digraph()
    assert parse_digraph(emit_digraph(d)) == d


def test_digraph_parse_errors():
    with pytest.raises(FormatError):
        parse_digraph("")
    with pytest.raises(FormatError):
        parse_digraph("x\n")
    with pytest.raises(FormatError):
        parse_digraph("2\n1 1 e1\n")  # loop
    with pytest.raises(FormatError):
        parse_digraph("2\n1 2 e1 extra junk\n")


def test_digraph_default_labels():
    d = parse_digraph("2\n1 2\n2 1\n")
    assert d.labels == ("e1", "e2")


def test_lines_roundtrip():
    q = neat_prefix(6, seed=2)
    assert parse_lines(emit_lines(q)) == q


def test_lines_accepts_rationals():
    q = parse_lines("1/2 0 0\n0 1 0\n")
    assert q == LineSet.of([(1, 0, 0), (0, 1, 0)])


def test_lines_parse_errors():
    with pytest.raises(FormatError):
        parse_lines("1 2\n")
    with pytest.raises(FormatError):
        parse_lines("a b c\n")
    with pytest.raises(FormatError):
        parse_lines("0 0 0\n")


def test_lines_refuse_coordinates_beyond_the_format_limit():
    # each would have Fraction compute 10**exp or parse a huge integer; the
    # bound refuses them from the text alone, so no case may take long
    rest = "\n0 1 0\n1 1 1\n"
    for coord in ("1e999999999", "-1E+999999999", "1e-999999999", "2.5e1_000", "1e0000000000001000", "7" * 1001, "1e1000"):
        start = time.perf_counter()
        with pytest.raises(FormatError, match="longer than 1000 digits"):
            parse_lines(f"0 0 1\n{coord} 1 0{rest}")
        assert time.perf_counter() - start < 0.1, coord
    # at the limit: 1000 digits written out
    for coord in ("7" * 1000, "1e999", "1e-999", "1" * 500 + "e500", "1E+0000000000000999"):
        assert len(parse_lines(f"0 0 1\n{coord} 1 0{rest}")) == 4, coord


def test_every_line_fixture_still_parses():
    # neat-prefix line sets as the benchmark and the CLI tests write them, and the pool's random free ones
    fixtures = [neat_prefix(n, seed) for n in range(4, 14) for seed in range(6)]
    fixtures += [random_free_lineset(random.Random(seed), n) for seed in range(40) for n in (4, 5, 6, 7)]
    for q in fixtures:
        assert parse_lines(emit_lines(q)) == q


def test_certificate_format():
    cert = minty_certificate(triangle(), "e1")
    text = emit_certificate(cert)
    assert text == "kind: directed-cycle\narcs: e1,e2,e3\norientation: +++\n"
