import contextlib
import io
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig4_digraph, triangle
import omlab
from omlab import formats
from omlab.cli import main
from omlab.digraphs import graphic_om
from omlab.formats import emit_digraph, emit_lines, emit_oriented, parse_oriented
from omlab.lines import neat_prefix, u3_signature
from omlab.oriented import alternating_rank2


@pytest.fixture()
def alt5_file(tmp_path):
    path = tmp_path / "alt5.om"
    path.write_text(emit_oriented(alternating_rank2(5)))
    return str(path)


@pytest.fixture()
def fig4_file(tmp_path):
    path = tmp_path / "fig4.dg"
    path.write_text(emit_digraph(fig4_digraph()))
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_all_pass(alt5_file, capsys):
    code, out, _ = run(capsys, "check", alt5_file)
    assert code == 0
    for name in ("O", "CE", "4P", "FP", "FA"):
        assert f"check {name}: pass" in out
    assert "verdict: pass" in out


def test_check_porcelain_fields(alt5_file, capsys):
    code, out, _ = run(capsys, "check", alt5_file, "--porcelain", "--which", "O,FP")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"subject={alt5_file}"
    assert "check.O.status=pass" in lines
    assert "check.FP.status=pass" in lines
    assert lines[-1] == "verdict=pass"


def test_check_which_runs_each_named_check_once(alt5_file, capsys):
    code, out, _ = run(capsys, "check", alt5_file, "--porcelain", "--which", "O,O,FP,O")
    assert code == 0
    keys = [line.partition("=")[0] for line in out.splitlines()]
    assert len(keys) == len(set(keys)), keys
    assert [k for k in keys if k.endswith(".status")] == ["check.O.status", "check.FP.status"]


def test_check_corrupted_fails_with_witness(alt5_file, tmp_path, capsys):
    text = open(alt5_file).read()
    bad = text.replace("+-+00", "--+00", 1)
    path = tmp_path / "bad.om"
    path.write_text(bad)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "witness" in out
    assert "verdict: fail" in out


def test_check_corrupted_fa_witness_names_minor_and_reorientation(alt5_file, tmp_path, capsys):
    text = open(alt5_file).read()
    bad = text.replace("+-+00", "--+00", 1)
    path = tmp_path / "bad.om"
    path.write_text(bad)
    code, out, _ = run(capsys, "check", str(path), "--which", "FA")
    assert code == 1
    assert "contract=" in out and "reorient=" in out


def test_check_ce_witness_bytes_after_a_failing_single(alt5_file, tmp_path, capsys):
    # one flipped circuit sign fails a single-element instance, so the
    # family search runs and names the first witness in enumeration order
    path = tmp_path / "flip.om"
    path.write_text(open(alt5_file).read().replace("+0-+0", "+0++0", 1))
    code, out, _ = run(capsys, "check", str(path), "--which", "CE")
    assert code == 1
    assert out == (
        f"subject: {path}\n"
        "check CE: fail witness: no admissible circuit through 2 when eliminating [1] from +-+00\n"
        "verdict: fail\n"
    )


def test_c3_violation_bytes(tmp_path, capsys):
    # the first (C3) witness eliminates two elements, X = {a, c} from abcd
    path = tmp_path / "c3.om"
    path.write_text(
        "a,b,c,d,e\na,b,c,d\na,b,e\na,d,e\nb,c,e\nc,d,e\n\n"
        "++++0\n++00+\n+00++\n0++0+\n00+++\n\n+++++\n"
    )
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "parse error: line 1: not a matroid: (C3) no circuit through 1 inside the allowed union "
        "for C=[0, 1, 2, 3], X=[0, 2]\n"
    )


def test_check_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "binary.om"
    path.write_bytes(b"1,2\xff\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: 'utf-8' codec can't decode byte 0xff in position 3: invalid start byte\n"


FUZZ_PAIRS = (alternating_rank2(4), alternating_rank2(5), graphic_om(triangle()), graphic_om(fig4_digraph()))
FUZZ_BASES = [emit_oriented(pair).encode() for pair in FUZZ_PAIRS]
# a splice replaces bytes [at, at + cut) of the file with the inserted bytes
FUZZ_SPLICE = st.tuples(
    st.integers(0, 200),
    st.integers(0, 3),
    st.lists(st.sampled_from(b"+-0,1a \n\xff"), max_size=3).map(bytes) | st.binary(max_size=3),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.om"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FUZZ_BASES),
    st.lists(st.integers(0, 200), max_size=3),
    st.lists(FUZZ_SPLICE, max_size=3),
    st.sampled_from(["check", "derive", "dual"]),
)
def test_cli_survives_mutated_om_files(fuzz_file, base, flips, splices, command):
    # sign flips keep a file parseable, so the checks themselves run on it
    data = bytearray(base)
    signs = [i for i, b in enumerate(data) if b in b"+-"]
    for k in flips:
        data[signs[k % len(signs)]] ^= ord("+") ^ ord("-")
    for at, cut, inserted in splices:
        at %= len(data) + 1
        data[at : at + cut] = inserted
    fuzz_file.write_bytes(bytes(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(fuzz_file)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert "verdict: fail" in out or err.startswith("derivation failed:")


def mutated(base: bytes, flips: list[int], splices, flip) -> bytes:
    """``base`` with ``flip`` applied at each drawn spot, then the byte splices."""
    data = bytearray(base)
    for k in flips:
        data = flip(data, k)
    for at, cut, inserted in splices:
        at %= len(data) + 1
        data[at : at + cut] = inserted
    return bytes(data)


def reverse_arc(data: bytearray, k: int) -> bytearray:
    """Swap the tail and head of arc k of a digraph file: the digraph's sign flip."""
    rows = bytes(data).split(b"\n")
    arcs = [i for i, row in enumerate(rows[1:], 1) if len(row.split()) == 3]
    if arcs:
        i = arcs[k % len(arcs)]
        tail, head, label = rows[i].split()
        rows[i] = b" ".join((head, tail, label))
    return bytearray(b"\n".join(rows))


def negate_coordinate(data: bytearray, k: int) -> bytearray:
    """Negate coordinate k of a line-set file."""
    words = bytes(data).split(b" ")
    target = k % len(words)
    word = words[target]
    words[target] = word[1:] if word.startswith(b"-") else b"-" + word
    return bytearray(b" ".join(words))


FUZZ_DIGRAPHS = [emit_digraph(d).encode() for d in (fig4_digraph(), triangle())]
FUZZ_LINES = [emit_lines(neat_prefix(n)).encode() for n in (4, 6)]
FUZZ_CHARS = st.lists(st.sampled_from(b"0123456789-/ .e\n\xff"), max_size=3).map(bytes) | st.binary(max_size=3)


def run_fuzzed(fuzz_file, data: bytes, argv: list[str]) -> None:
    fuzz_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert err and not out


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FUZZ_DIGRAPHS),
    st.lists(st.integers(0, 50), max_size=3),
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 3), FUZZ_CHARS), max_size=3),
    st.sampled_from([["gen", "graphic", "{}"], ["farkas", "{}", "e1"], ["farkas", "{}", "e3"], ["farkas", "{}", "e9"]]),
)
def test_cli_survives_mutated_digraph_files(fuzz_file, base, flips, splices, command):
    data = mutated(base, flips, splices, reverse_arc)
    run_fuzzed(fuzz_file, data, [arg.format(fuzz_file) for arg in command])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FUZZ_LINES),
    st.lists(st.integers(0, 50), max_size=3),
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 3), FUZZ_CHARS), max_size=3),
)
def test_cli_survives_mutated_line_files(fuzz_file, base, flips, splices):
    run_fuzzed(fuzz_file, mutated(base, flips, splices, negate_coordinate), ["gen", "lines", str(fuzz_file)])


def test_check_unknown_name_usage_error(alt5_file, capsys):
    code, _, err = run(capsys, "check", alt5_file, "--which", "XX")
    assert code == 2


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.om"
    path.write_text("not,a\nmatroid file")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "parse error" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.om")
    assert code == 2


def test_cap_exceeded_guidance(alt5_file, capsys):
    code, _, err = run(capsys, "--cap-fa", "3", "check", alt5_file, "--which", "FA")
    assert code == 2
    assert "cap exceeded" in err and "sampling" in err


def test_sampling_mode(alt5_file, capsys):
    code, out, _ = run(
        capsys, "--cap-fa", "3", "check", alt5_file, "--which", "FA", "--sample", "50", "--seed", "7"
    )
    assert code == 0
    assert "seed=7" in out


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_sample_below_one_usage_error(alt5_file, capsys, sample):
    code, out, err = run(capsys, "check", alt5_file, "--sample", sample)
    assert code == 2
    assert "pass" not in out and "--sample" in err


def test_sampled_check_of_circuit_free_matroid(tmp_path, capsys):
    tree = tmp_path / "tree.dg"
    tree.write_text("3\n1 2 e1\n2 3 e2\n")
    om = tmp_path / "tree.om"
    assert main(["gen", "graphic", str(tree), "-o", str(om)]) == 0
    code, out, err = run(capsys, "check", str(om), "--sample", "5")
    assert code == 0 and "Traceback" not in err
    assert "verdict: pass" in out
    # the sides' details differ, so both are shown
    assert (
        "check CE: pass (circuit side: empty family: no elimination instances; "
        "cocircuit side: sampled 5 instances, seed=0, 0 admissible tested)\n"
    ) in out


def test_sampled_ce_redraws_until_the_sample_is_tested(tmp_path, capsys):
    # on neat-9 most draws have no instance (32 and 12 of the first 50 do);
    # they are redrawn, so both sides test all 50 and share one detail
    om = tmp_path / "neat9.om"
    assert main(["gen", "neat-prefix", "9", "--seed", "1", "-o", str(om)]) == 0
    code, out, _ = run(capsys, "check", str(om), "--which", "CE", "--sample", "50")
    assert code == 0
    assert "check CE: pass (sampled 50 instances, seed=0, 50 admissible tested)\n" in out


def test_digraph_vertex_count_is_bounded(tmp_path, capsys, monkeypatch):
    # every vertex is named before any arc is read, so a huge count is refused
    # before any name is built
    def bounded_range(*args):
        got = range(*args)
        assert len(got) <= 1000, "vertex names built past the bound"
        return got

    monkeypatch.setattr(formats, "range", bounded_range, raising=False)
    path = tmp_path / "huge.dg"
    path.write_text("3999999999\n1 2 a\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "graphic", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", "parse error: line 1: vertex count above 1000\n")
    path.write_text("1000\n1 2 a\n999 1000 b\n")
    code, out, _ = run(capsys, "gen", "graphic", str(path))
    assert code == 0 and out.startswith("a,b\n")


@pytest.mark.parametrize("flag", ["--cap-4p", "--cap-ce", "--cap-fa"])
def test_negative_cap_flag_usage_error(alt5_file, capsys, flag):
    code, out, err = run(capsys, flag, "-1", "check", alt5_file)
    assert code == 2
    assert out == "" and flag in err


@pytest.mark.parametrize("env", ["fa=3", "4p=x", "zz=3", "ce=-1"])
def test_caps_env_is_not_read(alt5_file, capsys, monkeypatch, env):
    # the cap flags are the only way to set a cap
    monkeypatch.setenv("OMLAB_CAPS", env)
    code, out, err = run(capsys, "check", alt5_file, "--which", "FA")
    assert (code, err) == (0, "") and "check FA: pass" in out
    code, _, err = run(capsys, "--cap-fa", "3", "check", alt5_file, "--which", "FA")
    assert code == 2 and err.startswith("cap exceeded: ")


def test_gen_uniform_alt_fixture_rows(capsys):
    code, out, _ = run(capsys, "gen", "uniform-alt", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,2,3,4"
    assert "+-+0" in lines  # C_{1,2,3}
    pair = parse_oriented(out)
    rows = {u.to_string() for u in pair.cocircuit_sig.signed}
    assert "0---" in rows  # U_1
    assert "+++0" in rows  # U_4, the empty right leg


def test_gen_uniform_alt_golden_bytes(capsys):
    code, out, _ = run(capsys, "gen", "uniform-alt", "4")
    assert code == 0
    assert out == (
        "1,2,3,4\n"
        "1,2,3\n"
        "1,2,4\n"
        "1,3,4\n"
        "2,3,4\n"
        "\n"
        "+-+0\n"
        "+-0+\n"
        "+0-+\n"
        "0+-+\n"
        "\n"
        "+++0\n"
        "++0-\n"
        "+0--\n"
        "0+++\n"
    )


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    got = subprocess.run(
        [sys.executable, "-m", "omlab", "gen", "uniform-alt", "4"],
        capture_output=True,
        text=True,
    )
    assert got.returncode == 0
    assert got.stdout.startswith("1,2,3,4\n")


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.om", tmp_path / "b.om"
    assert main(["gen", "neat-prefix", "6", "--seed", "1", "-o", str(a)]) == 0
    assert main(["gen", "neat-prefix", "6", "--seed", "1", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_graphic_contains_worked_circuits(fig4_file, capsys):
    code, out, _ = run(capsys, "gen", "graphic", fig4_file)
    assert code == 0
    assert "++++00" in out.splitlines()
    assert "+0-0--" in out.splitlines() or "-0+0++" in out.splitlines()


def test_gen_lines_rejects_non_free(tmp_path, capsys):
    path = tmp_path / "bad.lines"
    path.write_text("1 0 0\n0 1 0\n1 1 0\n0 0 1\n")
    code, _, err = run(capsys, "gen", "lines", str(path))
    assert code == 2
    assert "free" in err


def test_gen_lines_refuses_a_huge_exponent(tmp_path, capsys):
    # Fraction would compute 10**999999999; parsing stops at the format limit instead
    path = tmp_path / "huge.lines"
    path.write_text("1 0 0\n0 1 0\n1e999999999 1 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "lines", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not out
    assert err == "parse error: line 3: coordinate longer than 1000 digits written out\n"


def test_derive_recovers_cocircuits(alt5_file, tmp_path, capsys):
    # strip the cocircuit block down to the derived one and compare
    code, out, _ = run(capsys, "derive", alt5_file)
    assert code == 0
    derived = parse_oriented(out)
    original = parse_oriented(open(alt5_file).read())
    assert derived.cocircuit_sig.signed == original.cocircuit_sig.signed


def test_minor_matches_direct_generation(alt5_file, capsys):
    code, out, _ = run(capsys, "minor", alt5_file, "--delete", "5")
    assert code == 0
    got = parse_oriented(out)
    direct = alternating_rank2(4)
    assert {c.to_string() for c in got.circuit_sig.signed} == {
        c.to_string() for c in direct.circuit_sig.signed
    }


def test_farkas_cycle_and_bond(tmp_path, capsys):
    tri = tmp_path / "tri.dg"
    tri.write_text("3\n1 2 e1\n2 3 e2\n3 1 e3\n")
    code, out, _ = run(capsys, "farkas", str(tri), "e2")
    assert code == 0
    assert "kind: directed-cycle" in out
    rev = tmp_path / "rev.dg"
    rev.write_text("3\n1 2 e1\n2 3 e2\n1 3 e3\n")
    code, out, _ = run(capsys, "farkas", str(rev), "e3")
    assert code == 0
    assert "kind: directed-bond" in out


def test_decompose_command(fig4_file, tmp_path, capsys):
    om = tmp_path / "fig4.om"
    assert main(["gen", "graphic", fig4_file, "-o", str(om)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "decompose", str(om), "++++++")
    assert code == 0
    pieces = out.splitlines()
    assert pieces and all(set(p) <= {"+", "-", "0"} for p in pieces)


def test_dual_roundtrip(alt5_file, capsys):
    code, out, _ = run(capsys, "dual", alt5_file)
    assert code == 0
    dual = parse_oriented(out)
    original = parse_oriented(open(alt5_file).read())
    assert dual.matroid == original.matroid.dual()
    assert dual.circuit_sig.signed == original.cocircuit_sig.signed


def test_minor_unknown_label(alt5_file, capsys):
    code, _, err = run(capsys, "minor", alt5_file, "--contract", "99")
    assert code == 2
    assert "unknown element" in err


def test_gen_uniform_alt_too_small_is_a_precondition_error(capsys):
    code, out, err = run(capsys, "gen", "uniform-alt", "2")
    assert code == 2 and out == ""
    assert err == "error: the alternating truncation needs at least 3 elements\n"


def test_decompose_non_orthogonal_target_is_a_precondition_error(fig4_file, tmp_path, capsys):
    om = tmp_path / "fig4.om"
    assert main(["gen", "graphic", fig4_file, "-o", str(om)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "decompose", str(om), "+00000")
    assert code == 2 and out == ""
    assert err.startswith("error: target is not orthogonal to cocircuit")


def test_derive_failure_exit_code(alt5_file, tmp_path, capsys):
    text = open(alt5_file).read()
    path = tmp_path / "bad.om"
    path.write_text(text.replace("+-+00", "--+00", 1))
    code, _, err = run(capsys, "derive", str(path))
    assert code == 1
    assert "derivation failed" in err


def test_trust_input_skips_validation_cap(tmp_path, capsys):
    om = tmp_path / "alt13.om"
    assert main(["gen", "uniform-alt", "13", "-o", str(om)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "check", str(om), "--which", "O")
    assert code == 2 and "cap exceeded" in err
    # the refusal is validate_circuits' own, reached through parse_oriented
    assert err.startswith("cap exceeded: (C3) validation needs ground size <= 12 (got 13); pass trusted=True to skip\n")
    code, out, _ = run(capsys, "--trust-input", "check", str(om), "--which", "O")
    assert code == 0


def test_trusted_non_matroid_with_a_non_clutter_dual_is_refused(tmp_path, capsys):
    # 145, 25, 3, 6 fails (C3); its hyperplane dual would list the empty set as a cocircuit
    om = tmp_path / "bad.om"
    om.write_text("1,2,3,4,5,6\n1,4,5\n2,5\n3\n6\n\n+00++0\n0+00+0\n00+000\n00000+\n\n+00000\n")
    code, out, err = run(capsys, "--trust-input", "check", str(om))
    assert (code, out) == (2, "")
    assert err == "error: the circuits fail (C3): their hyperplane dual has the empty set among its cocircuits\n"
    code, _, err = run(capsys, "check", str(om))
    assert code == 2 and err.startswith("parse error: line 1: not a matroid: (C3) ")


def test_gen_int_argument_validation(capsys):
    code, _, err = run(capsys, "gen", "uniform-alt", "abc")
    assert code == 2
    assert "integer" in err


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["gen"]) == 2


def test_cli_start_up_loads_no_dataclasses_inspect_or_fractions(alt5_file, tmp_path):
    """A fresh interpreter runs ``check`` without importing ``dataclasses``, ``inspect`` or
    ``fractions``; ``gen neat-prefix`` works on integer vectors and does not import ``fractions`` either."""
    out = tmp_path / "neat8.om"
    probe = (
        "import sys\n"
        "from omlab import cli\n"
        "watched = ('dataclasses', 'inspect', 'fractions')\n"
        f"print(cli.main(['check', {alt5_file!r}]), [m for m in watched if m in sys.modules])\n"
        f"print(cli.main(['gen', 'neat-prefix', '8', '-o', {str(out)!r}]), 'fractions' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(omlab.__file__))}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["0 []", "0 False"]
    assert out.read_text() == emit_oriented(u3_signature(neat_prefix(8, 0)))


def test_cli_builds_fa_tables_only_on_the_first_fa_call(alt5_file):
    """(FA)'s liveness tables, spread lookups and key strings are built lazily: importing
    ``omlab.cli`` and running other checks builds none of them."""
    probe = (
        "from omlab import cli, oriented\n"
        "tables = [oriented._subset_inside, oriented._spread_keys, oriented._spread_bytes, oriented._spread]\n"
        f"code = cli.main(['check', {alt5_file!r}, '--which', 'O,CE'])\n"
        "print('built:', code, [t.cache_info().currsize for t in tables])\n"
        f"code = cli.main(['check', {alt5_file!r}, '--which', 'FA'])\n"
        "print('built:', code, all(t.cache_info().currsize for t in tables))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(omlab.__file__))}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert [ln for ln in run.stdout.splitlines() if ln.startswith("built:")] == ["built: 0 [0, 0, 0, 0]", "built: 0 True"]


def test_fa_cap_boundary_exit_codes(tmp_path, capsys):
    # the default (FA) cap is 10: alt-10 gets a verdict, alt-11 needs sampling
    for n in (10, 11):
        (tmp_path / f"alt{n}.om").write_text(emit_oriented(alternating_rank2(n)))
    code, out, _ = run(capsys, "check", str(tmp_path / "alt10.om"), "--which", "FA")
    assert code == 0 and "check FA: pass\n" in out
    code, out, err = run(capsys, "check", str(tmp_path / "alt11.om"), "--which", "FA")
    assert code == 2 and out == ""
    assert "exhaustive (FA) needs ground size <= 10 (got 11); use sampling instead" in err
