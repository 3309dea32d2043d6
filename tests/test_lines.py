import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_free_lineset
from omlab.errors import DomainError, UnknownElementError
from omlab.lines import (
    Line,
    LineSet,
    _determined_normal,
    _generic_normal,
    _pick_in_plane,
    cocircuit_signing,
    det3,
    is_free,
    lex_canonical,
    neat_prefix,
    pair_normal,
    triple_plane_concurrency,
    u3_signature,
)
from omlab.matroid import MinorSpec
from omlab.oriented import check_4P, check_CE, check_FA, check_orthogonality, induced_signature


# -- independent oracle: coplanarity via Fraction Gaussian elimination ---------------


def frac_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def coplanar_oracle(a, b, c) -> bool:
    return frac_rank([a.vec, b.vec, c.vec]) <= 2


# -- canonicalization -----------------------------------------------------------------


def test_lex_canonical_examples():
    assert lex_canonical((-1, 2, 0)) == Line(1, -2, 0)
    assert lex_canonical((2, 4, 6)) == Line(1, 2, 3)
    assert lex_canonical((0, 0, -5)) == Line(0, 0, 1)
    assert lex_canonical((Fraction(1, 2), Fraction(1, 3), 0)) == Line(3, 2, 0)


def test_lex_canonical_rejects_zero():
    with pytest.raises(DomainError):
        lex_canonical((0, 0, 0))


def test_line_validation():
    with pytest.raises(DomainError):
        Line(2, 4, 6)
    with pytest.raises(DomainError):
        Line(-1, 2, 0)
    with pytest.raises(DomainError):
        LineSet.of([(1, 0, 0), (-2, 0, 0)])


# -- freeness ----------------------------------------------------------------------------


def test_free_standard_frame_plus_diagonal():
    q = LineSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert is_free(q)
    for a, b, c in itertools.combinations(q.lines, 3):
        assert not coplanar_oracle(a, b, c)


def test_free_witness_for_coplanar_triple():
    q = LineSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    verdict = is_free(q)
    assert not verdict and verdict.witness == (0, 1, 2)


def test_two_lines_vacuously_free():
    assert is_free(LineSet.of([(1, 0, 0), (0, 1, 0)]))


def test_freeness_agrees_with_rank_oracle():
    rng = random.Random(77)
    for _ in range(30):
        vecs = [
            tuple(rng.randint(-4, 4) for _ in range(3))
            for _ in range(4)
        ]
        try:
            q = LineSet.of([v for v in vecs if v != (0, 0, 0)])
        except DomainError:
            continue
        expect = any(
            coplanar_oracle(a, b, c) for a, b, c in itertools.combinations(q.lines, 3)
        )
        assert bool(is_free(q)) == (not expect)


# -- plane concurrency ----------------------------------------------------------------------


def test_concurrency_constructed_positive_case():
    a, b = Line(1, 0, 0), Line(0, 1, 0)
    c, d = Line(0, 0, 1), Line(1, 1, 1)
    meet = lex_canonical(
        (
            pair_normal(a, b).vec[1] * pair_normal(c, d).vec[2]
            - pair_normal(a, b).vec[2] * pair_normal(c, d).vec[1],
            pair_normal(a, b).vec[2] * pair_normal(c, d).vec[0]
            - pair_normal(a, b).vec[0] * pair_normal(c, d).vec[2],
            pair_normal(a, b).vec[0] * pair_normal(c, d).vec[1]
            - pair_normal(a, b).vec[1] * pair_normal(c, d).vec[0],
        )
    )
    e = meet  # on the intersection line of the two planes
    f = Line(0, 0, 1)
    assert triple_plane_concurrency(a, b, c, d, e, f)
    assert det3(pair_normal(a, b).vec, pair_normal(c, d).vec, pair_normal(e, f).vec) == 0


def test_concurrency_generic_case_false():
    rng = random.Random(9)
    q = random_free_lineset(rng, 6)
    a, b, c, d, e, f = q.lines
    got = triple_plane_concurrency(a, b, c, d, e, f)
    oracle = frac_rank([pair_normal(a, b).vec, pair_normal(c, d).vec, pair_normal(e, f).vec]) <= 2
    assert got == oracle


def test_concurrency_rejects_degenerate_pair():
    l = Line(1, 0, 0)
    with pytest.raises(DomainError):
        triple_plane_concurrency(l, l, Line(0, 1, 0), Line(0, 0, 1), Line(1, 1, 1), Line(1, 2, 3))


# -- the rank-3 signing -----------------------------------------------------------------------


def spec_example_lines() -> LineSet:
    return LineSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)])


def test_cocircuit_signing_example():
    q = spec_example_lines()
    u = cocircuit_signing(q, 0, 1)
    # normal (0,0,1); dot products with the remaining lines are 1, 1, 3
    assert u.to_string() == "00+++"


def test_u3_signature_passes_orthogonality():
    pair = u3_signature(spec_example_lines())
    assert check_orthogonality(pair)


def test_antipodal_construction_is_opposite():
    q = spec_example_lines()
    for a, b in itertools.combinations(range(5), 2):
        assert cocircuit_signing(q, a, b, negative_points=True) == -cocircuit_signing(q, a, b)


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (0, 6), (0, 7)])
def test_cocircuit_signing_rejects_unknown_line(a, b):
    # the set is free, so an index outside it must not read as a coplanar line
    with pytest.raises(UnknownElementError):
        cocircuit_signing(neat_prefix(6), a, b)


def test_u3_signature_preconditions():
    with pytest.raises(DomainError):
        u3_signature(LineSet.of([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    with pytest.raises(DomainError):
        u3_signature(LineSet.of([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]))


def test_u3_restriction_agrees_with_smaller_construction():
    q = spec_example_lines()
    pair = u3_signature(q)
    sub = LineSet.of([l.vec for i, l in enumerate(q.lines) if i != 4])
    direct = u3_signature(sub)
    induced = induced_signature(pair, MinorSpec.of(delete=[4]))
    assert induced.cocircuit_sig.signed == direct.cocircuit_sig.signed
    assert induced.circuit_sig.signed == direct.circuit_sig.signed


def test_free_line_oms_pass_all_axioms():
    q = random_free_lineset(random.Random(123), 5)
    pair = u3_signature(q)
    assert check_orthogonality(pair)
    assert check_CE(pair.circuit_sig)
    assert check_CE(pair.cocircuit_sig)
    assert check_4P(pair)
    assert check_FA(pair)


# -- the prefix generator ------------------------------------------------------------------------


def test_neat_prefix_empty():
    assert neat_prefix(0) == LineSet(())


def test_neat_prefix_free():
    assert is_free(neat_prefix(5))


def test_neat_prefix_deterministic_regression():
    q = neat_prefix(8, seed=1)
    assert [str(l) for l in q.lines] == [
        "1 -1 0",
        "2 1 1",
        "1 0 1",
        "2 1 -1",
        "1 1 -1",
        "7 -1 7",
        "7 -1 16",
        "0 2 1",
    ]
    assert neat_prefix(8, seed=1) == q


def test_neat_prefix_exercises_plane_completion():
    # at least one completed plane triple must appear among the first eight
    q = neat_prefix(8, seed=1)
    found = False
    for idxs in itertools.permutations(range(8), 5):
        a, b, c, d, e = (q.lines[i] for i in idxs)
        if len({a, b} & {c, d}) > 0:
            continue
        for f in q.lines:
            if f in (a, b, c, d, e) or f == e:
                continue
            if triple_plane_concurrency(a, b, c, d, e, f):
                found = True
                break
        if found:
            break
    assert found


# -- oracle: the pending-queue prefix generator -----------------------------------------------


def pending_tuples(bound: int):
    """Admissible index 5-tuples whose largest entry is ``bound - 1``.

    Tuple (p1,p2,p3,p4,p5): p1 != p2, p3 != p4, the pairs share at most one
    index, and p5 avoids all four.
    """
    for t in itertools.product(range(bound), repeat=5):
        p1, p2, p3, p4, p5 = t
        if max(t) != bound - 1 or p1 == p2 or p3 == p4:
            continue
        if len({p1, p2} & {p3, p4}) > 1 or p5 in (p1, p2, p3, p4):
            continue
        yield t


def pending_neat_prefix(n: int, seed: int = 0) -> LineSet:
    """Every admissible tuple queued, disjoint pairs first, then by largest entry.

    Step 4 pops a shared-pair tuple (no disjoint pair fits in four lines); from
    step 5 on the disjoint-pair tuples, five distinct indices each, outnumber
    the steps, so no shared-pair tuple is popped again.
    """
    lines = []
    pending = []
    for i in range(n):
        pending.extend(pending_tuples(i))
        pending.sort(key=lambda t: (len({t[0], t[1]} & {t[2], t[3]}), max(t), t))
        plane_normal = _determined_normal(lines, pending.pop(0)) if pending else None
        if plane_normal is None:
            plane_normal = _generic_normal(lines)
        lines.append(_pick_in_plane(lines, plane_normal, seed))
    return LineSet(tuple(lines))


@pytest.mark.parametrize("seed", range(6))
def test_neat_prefix_matches_pending_queue(seed):
    # seeds 0-5 are the offsets rank3-construct draws; every prefix of the
    # n = 11 set is the smaller prefix, so this covers every n <= 11
    want = pending_neat_prefix(11, seed)
    assert neat_prefix(11, seed) == want
    assert all(neat_prefix(k, seed).lines == want.lines[:k] for k in range(11))


def test_shared_pair_tuples_never_determine_a_plane():
    lines = list(neat_prefix(9).lines)
    shared = [t for b in range(10) for t in pending_tuples(b) if len({t[0], t[1]} & {t[2], t[3]}) == 1]
    assert shared and all(_determined_normal(lines, t) is None for t in shared)
