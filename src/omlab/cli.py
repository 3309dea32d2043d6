"""Command-line surface: axiom checks, generators, and certificate emission.

Exit codes: 0 = all checks pass / operation succeeded, 1 = a check failed
(with witness), 2 = usage, parse, precondition, or complexity-cap errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple

from . import formats, oriented
from .digraphs import graphic_om, minty_certificate
from .errors import CapExceededError, DomainError, FormatError, OmlabError
from .lines import neat_prefix, u3_signature
from .matroid import MinorSpec
from .oriented import (
    CE_CAP_DEFAULT,
    FA_CAP_DEFAULT,
    FOUR_P_CAP_DEFAULT,
    DecomposeFailure,
    SignaturePair,
    Verdict,
    alternating_rank2,
    check_4P,
    check_CE,
    check_FA,
    check_FP,
    check_orthogonality,
    conformal_decompose,
    derive_cocircuit_signature,
    induced_signature,
)
from .signed_sets import SignedSubset

CHECK_NAMES = ("O", "CE", "4P", "FP", "FA")


# caps and check results: unvalidated NamedTuple records
class Caps(NamedTuple):
    four_p: int = FOUR_P_CAP_DEFAULT
    ce: int = CE_CAP_DEFAULT
    fa: int = FA_CAP_DEFAULT


class CheckEntry(NamedTuple):
    name: str
    ok: bool
    witness: str
    elapsed: float
    detail: str = ""


class CheckReport(NamedTuple):
    subject: str
    entries: list[CheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def render(self) -> str:
        lines = [f"subject: {self.subject}"]
        for e in self.entries:
            status = "pass" if e.ok else "fail"
            line = f"check {e.name}: {status}"
            if e.detail:
                line += f" ({e.detail})"
            if not e.ok:
                line += f" witness: {e.witness}"
            lines.append(line)
        lines.append(f"verdict: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"

    def render_porcelain(self) -> str:
        lines = [f"subject={self.subject}"]
        for e in self.entries:
            lines.append(f"check.{e.name}.status={'pass' if e.ok else 'fail'}")
            lines.append(f"check.{e.name}.elapsed_ms={int(e.elapsed * 1000)}")
            if e.detail:
                lines.append(f"check.{e.name}.detail={e.detail}")
            if not e.ok:
                lines.append(f"check.{e.name}.witness={e.witness}")
        lines.append(f"verdict={'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"


def _run_checks(pair: SignaturePair, which: list[str], caps: Caps, sample: int | None, seed: int) -> CheckReport:
    entries = []
    for name in sorted(set(which), key=CHECK_NAMES.index):
        start = time.perf_counter()
        if name == "O":
            verdict = check_orthogonality(pair)
        elif name == "CE":
            verdict = check_CE(pair.circuit_sig, cap=caps.ce, sample=sample, seed=seed)
            if verdict.ok:
                cover = check_CE(pair.cocircuit_sig, cap=caps.ce, sample=sample, seed=seed)
                if not cover.ok:
                    verdict = Verdict(False, cover.witness, (cover.detail + " (cocircuit side)").strip())
                elif cover.detail != verdict.detail:
                    verdict = Verdict(True, detail=f"circuit side: {verdict.detail}; cocircuit side: {cover.detail}")
        elif name == "4P":
            verdict = check_4P(pair, cap=caps.four_p, sample=sample, seed=seed)
        elif name == "FP":
            verdict = check_FP(pair.circuit_sig.signed, pair.cocircuit_sig.signed, pair.ground)
        elif name == "FA":
            verdict = check_FA(pair, cap=caps.fa, sample=sample, seed=seed)
        elapsed = time.perf_counter() - start
        witness = "" if verdict.ok else str(verdict.witness)
        entries.append(CheckEntry(name, verdict.ok, witness, elapsed, verdict.detail))
    return CheckReport("", entries)


def _load_pair(args) -> SignaturePair:
    return formats.parse_oriented(_read(args.file), trusted=getattr(args, "trust_input", False))


def _int_arg(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {raw!r}") from None


def cmd_check(args, caps: Caps) -> int:
    pair = _load_pair(args)
    which = [w.strip() for w in args.which.split(",")] if args.which else list(CHECK_NAMES)
    for w in which:
        if w not in CHECK_NAMES:
            raise FormatError(f"unknown check {w!r}; choose from {','.join(CHECK_NAMES)}")
    report = _run_checks(pair, which, caps, args.sample, args.seed)._replace(subject=args.file)
    sys.stdout.write(report.render_porcelain() if args.porcelain else report.render())
    return 0 if report.ok else 1


def cmd_gen(args, caps: Caps) -> int:
    if args.kind == "uniform-alt":
        pair = alternating_rank2(_int_arg(args.arg, "size"))
    elif args.kind == "graphic":
        pair = graphic_om(formats.parse_digraph(_read(args.arg)))
    elif args.kind == "lines":
        q = formats.parse_lines(_read(args.arg))
        pair = u3_signature(q)
    elif args.kind == "neat-prefix":
        q = neat_prefix(_int_arg(args.arg, "size"), args.seed)
        if args.lines_out:
            _write(args.lines_out, formats.emit_lines(q))
        pair = u3_signature(q)
    _emit(args, formats.emit_oriented(pair))
    return 0


def cmd_derive(args, caps: Caps) -> int:
    pair = _load_pair(args)
    got = derive_cocircuit_signature(pair.matroid, pair.circuit_sig)
    if isinstance(got, oriented.DeriveFailure):
        sys.stderr.write(f"derivation failed: {got}\n")
        return 1
    _emit(args, formats.emit_oriented(SignaturePair(pair.matroid, pair.circuit_sig, got)))
    return 0


def cmd_minor(args, caps: Caps) -> int:
    pair = _load_pair(args)
    ground = pair.ground
    contract = frozenset(ground.index(x) for x in _split(args.contract))
    delete = frozenset(ground.index(x) for x in _split(args.delete))
    induced = induced_signature(pair, MinorSpec(contract, delete))
    _emit(args, formats.emit_oriented(induced))
    return 0


def cmd_farkas(args, caps: Caps) -> int:
    d = formats.parse_digraph(_read(args.file))
    cert = minty_certificate(d, args.arc)
    _emit(args, formats.emit_certificate(cert))
    return 0


def cmd_decompose(args, caps: Caps) -> int:
    pair = _load_pair(args)
    target = SignedSubset.from_string(pair.ground, args.signvector)
    got = conformal_decompose(pair, target, trust_4p=args.trust_4p, cap_4p=caps.four_p)
    if isinstance(got, DecomposeFailure):
        sys.stderr.write(f"decomposition failed: {got}\n")
        return 1
    _emit(args, "".join(c.to_string() + "\n" for c in got))
    return 0


def cmd_dual(args, caps: Caps) -> int:
    pair = _load_pair(args)
    _emit(args, formats.emit_oriented(pair.dual()))
    return 0


def _split(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [x.strip() for x in raw.split(",") if x.strip()]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        _write(args.output, text)
    else:
        sys.stdout.write(text)


def _int_at_least(least: int):
    """argparse type: an integer no smaller than ``least``."""

    def parse(raw: str) -> int:
        try:
            n = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least} (got {n})")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    cap = _int_at_least(0)
    parser = argparse.ArgumentParser(prog="omlab", description=__doc__)
    parser.add_argument("--cap-4p", type=cap, default=FOUR_P_CAP_DEFAULT, help="ground-size cap for exhaustive (4P)")
    parser.add_argument(
        "--trust-input",
        action="store_true",
        help="skip the circuit-axiom validation of parsed files (needed above the validation cap)",
    )
    parser.add_argument("--cap-ce", type=cap, default=CE_CAP_DEFAULT, help="ground-size cap for exhaustive (CE)")
    parser.add_argument("--cap-fa", type=cap, default=FA_CAP_DEFAULT, help="ground-size cap for exhaustive (FA)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom checkers on an oriented-matroid file")
    p.add_argument("file")
    p.add_argument("--which", default=None, help="comma-separated subset of O,CE,4P,FP,FA")
    p.add_argument(
        "--sample", type=_int_at_least(1), default=None, help="randomized trials (at least 1) instead of exhaustion"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for sampling mode")
    p.add_argument("--porcelain", action="store_true", help="stable key:value output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate an oriented-matroid file")
    p.add_argument("kind", choices=["uniform-alt", "graphic", "lines", "neat-prefix"])
    p.add_argument("arg", help="size (uniform-alt, neat-prefix) or input file (graphic, lines)")
    p.add_argument("--seed", type=int, default=0, help="seed for neat-prefix")
    p.add_argument("--lines-out", default=None, help="also write the generated line set here")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("derive", help="derive the cocircuit signature from the circuit signature")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("minor", help="emit the induced oriented matroid of a minor")
    p.add_argument("file")
    p.add_argument("--contract", default="", help="comma-separated labels")
    p.add_argument("--delete", default="", help="comma-separated labels")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("farkas", help="directed cycle or bond certificate through an arc")
    p.add_argument("file", help="digraph file")
    p.add_argument("arc", help="arc label")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_farkas)

    p = sub.add_parser("decompose", help="conformal circuit decomposition of a sign vector")
    p.add_argument("file")
    p.add_argument("signvector")
    p.add_argument("--trust-4p", action="store_true", help="skip the (4P) precondition check")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dual", help="emit the dual oriented matroid")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dual)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, Caps(args.cap_4p, args.cap_ce, args.cap_fa))
    except CapExceededError as exc:
        sys.stderr.write(
            f"cap exceeded: {exc}\n"
            "hint: raise the cap flag, use --sample N --seed S for randomized trials, "
            "or --trust-input to skip input validation\n"
        )
        return 2
    except (FormatError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"cannot read {exc.filename}\n")
        return 2
    except OmlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, DomainError) else 1  # a broken precondition is no failed check


if __name__ == "__main__":
    sys.exit(main())
