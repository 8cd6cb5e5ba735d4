"""Command-line entry point.

Each subcommand is one entry of the command table below: its options, a
handler that returns only the report fields of its own, and the text layout
of those fields when it is not one "key = JSON value" line per field.  The
table writes the frame around them: every report starts with "command", and
a windowed report continues with "window", built once from the parsed
options before the handler runs.  The --help description is _DESCRIPTION.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import canonical, coideals, forcing, gowers, net
from .core import (
    BlockSeq,
    FinkError,
    Window,
    WindowExhausted,
    decompose,
    format_element,
    format_seq,
    parse_element,
    parse_seq,
    read_lines,
    span_texts,
    tetris,
    window_generators,
)

_DESCRIPTION = """Command-line entry point.

One binary, subcommand style.  Every report is built as a JSON-safe dict;
--json prints it verbatim and text mode renders the same fields, so the two
modes carry identical information.  Window parameters are echoed in every
windowed report.  Exit codes: 0 success or witness found, 1 exhausted,
absent or false, 2 usage or input error.  Every search is one sequential
scan and outputs contain no randomness, so they are byte-identical across
runs.  --threads is accepted for compatibility and has no effect."""

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_USAGE = 2
# the reader closed stdout before the report was written: 128 + SIGPIPE, as a
# shell reports a process that SIGPIPE ended
EXIT_BROKEN_PIPE = 141

# Python prints an int of at most 4300 digits; t(858) has 4297, t(859) has 4303.
TK_MAX_K = 858
# Fraction("1e-999999999") would build 10^999999999 before any check could run;
# 10^4299 has 4300 digits, the most Python prints.
RATIONAL_MAX_EXPONENT = 4299
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


# -- the command table --------------------------------------------------------
# One entry per subcommand, in help order: its help line, the (flags, kwargs)
# of each add_argument call in order, the framed handler that turns the
# parsed Namespace into (report, exit code), and the text layout that turns
# the handler's fields into lines (None: one "key = JSON value" line each).
# @_command registers an entry.


class _Command(NamedTuple):
    help: str
    args: tuple
    handler: Callable
    text: Optional[Callable]


_COMMANDS: dict[str, _Command] = {}


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def _command(name: str, summary: str, *args: tuple, window: Optional[Callable] = None,
             text: Optional[Callable] = None):
    """Register handler(args) -> (fields, hit) under name and return it framed.

    A command that takes the _WINDOW options, or names its own window(args),
    is windowed: its handler is called as handler(args, w).  The framed
    report is "command", then "window" if windowed, then the handler's
    fields; the exit code is EXIT_OK on a hit, else EXIT_EXHAUSTED.  Text
    mode prints text(fields), a list of lines, when text is given.
    """
    if window is None and _WINDOW[0] in args:
        window = _window

    def register(handler):
        def framed(parsed):
            report = {"command": name}
            if window is None:
                fields, hit = handler(parsed)
            else:
                w = window(parsed)
                report["window"] = {"k": w.k, "n_max": w.n_max, "len_max": w.len_max}
                fields, hit = handler(parsed, w)
            report.update(fields)
            return report, EXIT_OK if hit else EXIT_EXHAUSTED

        _COMMANDS[name] = _Command(summary, args, framed, text)
        return framed

    return register


_K = _arg("--k", type=int, required=True)
_JSON = _arg("--json", action="store_true", help="machine-readable output")
_THREADS = _arg("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
_WINDOW = (
    _arg("--k", type=int, required=True, help="level bound k >= 1"),
    _arg("--nmax", type=int, required=True, help="positions live in [0, nmax)"),
    _arg("--lenmax", type=int, default=None, help="sequence length cap (default: nmax)"),
)
_SEARCH = (*_WINDOW, _THREADS, _JSON)
_SEQ_OPT = _arg("seq", nargs="?", default=None)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The finkit parser.  For a known command only its subparser is built;
    otherwise (no arguments, --help, an unknown name) every one is."""
    top = argparse.ArgumentParser(prog="finkit", description=_DESCRIPTION)
    if command in _COMMANDS:
        # argparse spells the command list in the top-level usage from the
        # subparsers it holds, so name every command here.  With all of them
        # built the metavar stays unset, because it would also replace
        # "command" in "the following arguments are required: command".
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        entry = _COMMANDS[name]
        p = sub.add_parser(name, help=entry.help)
        for flags, kwargs in entry.args:
            p.add_argument(*flags, **kwargs)
    return top


def _rational(name: str, text: str) -> Fraction:
    """A rational argument such as 3/4, 0.5 or 1e-3.  A zero denominator, or an
    exponent past RATIONAL_MAX_EXPONENT, is an input error."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > RATIONAL_MAX_EXPONENT:
        raise FinkError(f"{name} {text!r} has an exponent beyond {RATIONAL_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise FinkError(f"{name} {text!r} has a zero denominator") from None


def _window(args) -> Window:
    lenmax = args.lenmax if args.lenmax is not None else args.nmax
    return Window(args.k, args.nmax, lenmax)


def _ambient(args, w: Window) -> BlockSeq:
    if args.seq:
        return parse_seq(args.seq, w.k)
    return window_generators(w)


def _seq_or_none(b: Optional[BlockSeq]) -> Optional[str]:
    return None if b is None else format_seq(b)


# -- command handlers ---------------------------------------------------------


@_command("span", "enumerate the span of a block sequence",
          *_WINDOW, _JSON, _arg("seq", help="block sequence, e.g. '0:1;1:1'"),
          text=lambda f: f["elements"])
def _cmd_span(args, w):
    return {"elements": span_texts(parse_seq(args.seq, w.k), w)}, True


def _member_text(f: dict) -> list[str]:
    if f["member"]:
        head = "member: " + " + ".join(f"T^{j}(a[{i}])" for i, j in f["decomposition"])
    else:
        head = "absent"
    return [head, f"element = {f['element']}", f"ambient = {f['ambient']}", f"k = {f['k']}"]


@_command("member", "decompose an element over a block sequence",
          _K, _arg("--in", dest="seq", required=True, help="ambient block sequence"), _JSON,
          _arg("element"), text=_member_text)
def _cmd_member(args):
    A = parse_seq(args.seq, args.k)
    x = parse_element(args.element, args.k)
    d = decompose(x, A)
    return {
        "k": args.k,
        "element": format_element(x),
        "ambient": format_seq(A),
        "member": d is not None,
        "decomposition": None if d is None else [[i, j] for i, j in d.parts],
    }, d is not None


@_command("tetris", "apply the decrement operation",
          _K, _arg("--j", type=int, default=1, help="iterations (default 1)"), _JSON, _arg("element"))
def _cmd_tetris(args):
    x = parse_element(args.element, args.k)
    out = tetris(x, args.j)
    return {
        "k": args.k,
        "j": args.j,
        "element": format_element(x),
        "result": "zero" if out is None else format_element(out),
    }, True


def _witness_search(search: Callable, args, w: Window, **n) -> tuple[dict, bool]:
    """gowers and ramsey2: search the ambient for an m-term witness of a
    coloring of arity n (1 unless given) and report the outcome."""
    A = _ambient(args, w)
    f = gowers.parse_coloring(args.coloring, args.r, arity=n.get("n", 1))
    rep = search(f, A, args.m, w)
    return {
        "coloring": args.coloring,
        **n,
        "r": args.r,
        "m": args.m,
        "ambient": format_seq(A),
        "found": rep.found,
        "witness": _seq_or_none(rep.witness),
        "color": rep.color,
        "nodes_explored": rep.nodes_explored,
        "note": None
        if rep.found
        else "window exhausted: no witness at this scale (the infinite statement is not refuted)",
    }, rep.found


@_command(
    "gowers", "search a monochromatic span witness", *_SEARCH,
    _arg("--coloring", required=True, help="const:0 | min_mod | max_mod | size_mod | value_at:P | table:FILE"),
    _arg("--r", type=int, default=2, help="number of colors"),
    _arg("--m", type=int, required=True, help="witness length"),
    _arg("seq", nargs="?", default=None, help="ambient sequence (default: window generators)"),
)
def _cmd_gowers(args, w):
    return _witness_search(gowers.gowers_search, args, w)


def _verify_window(args) -> Window:
    """gowers-verify's window, echoed with len_max = max(m, 1); the budget is
    checked first."""
    if args.budget < 1:
        raise FinkError(f"budget must be positive, got {args.budget}")
    return Window(args.k, args.nmax, max(args.m, 1))


def _verify_text(f: dict) -> list[str]:
    lines = [f"{key} = {json.dumps(f[key])}" for key in ("holds", "m", "r", "colorings_checked")]
    if f["failing_coloring"] is None:
        return lines + ["failing_coloring = null"]
    return lines + ["failing_coloring:"] + [f"  {x}\t{c}" for x, c in f["failing_coloring"].items()]


@_command(
    "gowers-verify", "check every coloring of a window has a witness",
    _K, _arg("--nmax", type=int, required=True), _THREADS, _JSON,
    _arg("--m", type=int, required=True), _arg("--r", type=int, default=2),
    _arg("--budget", type=int, default=2**24, help="max colorings to enumerate"),
    window=_verify_window, text=_verify_text,
)
def _cmd_gowers_verify(args, w):
    rep = gowers.verify_finite_gowers(args.k, args.m, args.r, args.nmax, budget=args.budget)
    return {
        "m": args.m,
        "r": args.r,
        "holds": rep.holds,
        "colorings_checked": rep.colorings_checked,
        "failing_coloring": rep.failing_coloring,
    }, rep.holds


@_command(
    "ramsey2", "search a witness monochromatic on length-n subsequences", *_SEARCH,
    _arg("--coloring", required=True), _arg("--n", type=int, required=True, help="coloring arity"),
    _arg("--r", type=int, default=2), _arg("--m", type=int, required=True), _SEQ_OPT,
)
def _cmd_ramsey2(args, w):
    return _witness_search(gowers.ramsey2_search, args, w, n=args.n)


@_command(
    "forcing", "decide accepts/rejects for a stem against a family", *_SEARCH,
    _arg("--family", required=True, help="empty | all_singletons | min_even_first | support_ge:S | explicit:FILE"),
    _arg("--stem", default="", help="stem sequence (default empty)"),
    _arg("--min-len", type=int, default=1, help="condensation length floor"),
    _arg("seq", help="ambient block sequence"),
)
def _cmd_forcing(args, w):
    B = parse_seq(args.seq, w.k)
    a = parse_seq(args.stem, w.k)
    F = forcing.parse_family(args.family, w.k)
    verdict = forcing.decides(B, a, F, w, min_len=args.min_len)
    return {
        "family": args.family,
        "stem": format_seq(a),
        "ambient": format_seq(B),
        "status": verdict.status,
        "avoiding_branch": _seq_or_none(verdict.branch),
        "accepting_condensation": _seq_or_none(verdict.condensation),
    }, verdict.status in ("accepts", "rejects")


@_command(
    "galvin", "two-alternative dichotomy below a sequence", *_SEARCH,
    _arg("--family", required=True), _arg("--stem", default=""),
    _arg("--m", type=int, required=True, help="condensation length"), _SEQ_OPT,
)
def _cmd_galvin(args, w):
    A = _ambient(args, w)
    a = parse_seq(args.stem, w.k)
    F = forcing.parse_family(args.family, w.k)
    res = forcing.galvin_dichotomy(A, a, F, args.m, w)
    return {
        "family": args.family,
        "stem": format_seq(a),
        "m": args.m,
        "ambient": format_seq(A),
        "alternative": res.alternative,
        "witness": _seq_or_none(res.witness),
        "note": None
        if res.alternative is not None
        else "window exhausted: neither alternative verifiable at this scale",
    }, res.alternative is not None


@_command(
    "classify", "canonical relation agreeing on some span", *_SEARCH,
    _arg("--relation", required=True,
         help="equality | full | min_level:I | max_level:I | minmax_level:I | size_parity | table:FILE"),
    _arg("--m", type=int, required=True, help="witness length"), _SEQ_OPT,
)
def _cmd_classify(args, w):
    A = _ambient(args, w)
    R = canonical.parse_relation(args.relation, w.k, w)
    res = canonical.canonicalize_search(R, A, args.m, w)
    return {
        "input_relation": args.relation,
        "m": args.m,
        "ambient": format_seq(A),
        "relation": None if res is None else res.relation,
        "witness": None if res is None else format_seq(res.witness),
        "caveat": None if res is None else res.caveat,
    }, res is not None


@_command(
    "sos", "staircase-system check", _K,
    _arg("--zero-convention", default="support-boundary", choices=canonical.ZERO_CONVENTIONS,
         help="meaning of the level-0 landmarks"),
    _JSON, _arg("element"),
)
def _cmd_sos(args):
    x = parse_element(args.element, args.k)
    res = canonical.sos_check(x, args.zero_convention)
    return {
        "k": args.k,
        "element": format_element(x),
        "zero_convention": args.zero_convention,
        "sos": res.ok,
        "violated": res.violated,
    }, res.ok


@_command("tk", "size of the canonical relation list", _JSON, _arg("k", type=int),
          text=lambda f: [str(f["t"]), f"k = {f['k']}"])
def _cmd_tk(args):
    if args.k > TK_MAX_K:
        raise FinkError(f"t({args.k}) has more than 4300 digits; k must be at most {TK_MAX_K}")
    return {"k": args.k, "t": canonical.t_count(args.k)}, True


@_command("mu", "positions where the terms attain k", _K, _JSON, _arg("seq"),
          text=lambda f: [" ".join(map(str, f["mu"])) or "(empty)",
                          f"ambient = {f['ambient']}", f"k = {f['k']}"])
def _cmd_mu(args):
    A = parse_seq(args.seq, args.k)
    return {"k": args.k, "ambient": format_seq(A), "mu": sorted(coideals.mu(A))}, True


@_command(
    "top-member", "membership in the closure coideal of a family file", *_SEARCH,
    _arg("--family", required=True, help="file of base sequences, one per line"),
    _arg("--len", dest="length", type=int, required=True, help="common condensation length"),
    _arg("seq"),
)
def _cmd_top_member(args, w):
    B = parse_seq(args.seq, w.k)
    base = [parse_seq(line, w.k) for line in read_lines(args.family)]
    if not base:
        raise FinkError(f"family file {args.family!r} lists no sequences")
    witness = coideals.first_common_condensation(base, B, args.length, w)
    return {
        "family_size": len(base),
        "len": args.length,
        "ambient": format_seq(B),
        "member": witness is not None,
        "witness": _seq_or_none(witness),
    }, witness is not None


@_command("diagonal", "greedy diagonal through a decreasing chain", *_SEARCH,
          _arg("--chain", required=True, help="file of sequences, one per line, index order"))
def _cmd_diagonal(args, w):
    chain = [parse_seq(line, w.k) for line in read_lines(args.chain)]
    fields = {"chain_length": len(chain)}
    try:
        fields["diagonal"] = format_seq(coideals.diagonal_build(chain, w))
    except WindowExhausted as e:
        fields.update(diagonal=None, exhausted_at_step=e.step, partial=format_seq(e.partial))
        return fields, False
    return fields, True


@_command("theta", "net function to FIN_k element",
          _K, _arg("--delta", default="1/2", help="net parameter as P/Q (labels only)"), _JSON,
          _arg("netfn", help="exponent map, e.g. '0:0,2:1'"))
def _cmd_theta(args):
    delta = _rational("delta", args.delta)
    h = net.parse_net_function(args.netfn, args.k, delta)
    return {
        "k": args.k,
        "delta": str(delta),
        "net_function": net.format_net_function(h),
        "element": format_element(net.theta(h)),
    }, True


@_command("theta-inv", "FIN_k element to net function",
          _K, _arg("--delta", default="1/2"), _JSON, _arg("element"))
def _cmd_theta_inv(args):
    delta = _rational("delta", args.delta)
    p = parse_element(args.element, args.k)
    return {
        "k": args.k,
        "delta": str(delta),
        "element": format_element(p),
        "net_function": net.format_net_function(net.theta_inv(p, delta)),
    }, True


@_command("kfor", "level and delta for a stability epsilon",
          _JSON, _arg("epsilon", help="positive rational, e.g. 1 or 3/4"),
          text=lambda f: [f"k={f['k']} delta={f['delta']}", f"epsilon = {f['epsilon']}"])
def _cmd_kfor(args):
    eps = _rational("epsilon", args.epsilon)
    k, delta = net.k_for_epsilon(eps)
    return {"epsilon": str(eps), "k": k, "delta": str(delta)}, True


# -- rendering ----------------------------------------------------------------


def render_text(report: dict) -> str:
    """Text rendering of a report dict; every field appears in the output."""
    fields = dict(report)
    layout = _COMMANDS[fields.pop("command")].text
    w = fields.pop("window", None)
    lines = [] if w is None else [f"# window k={w['k']} n_max={w['n_max']} len_max={w['len_max']}"]
    if layout is None:
        lines.extend(f"{key} = {json.dumps(value)}" for key, value in fields.items())
    else:
        lines.extend(layout(fields))
    return "\n".join(lines) + "\n"


# The parsers run has built, one per key: a command name, or None for every
# other first argument (none, --help, an unknown name), so the table holds at
# most len(_COMMANDS) + 1 entries.  Reuse is safe: every option default is
# immutable, parse_args leaves the parser as it found it, and help reads the
# terminal width when it is printed, not when the parser is built.
_PARSERS: dict[Optional[str], argparse.ArgumentParser] = {}


def run(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default): print its report to
    stdout, or its error to stderr, and return the exit code (EXIT_OK,
    EXIT_EXHAUSTED or EXIT_USAGE).

    The command's handler runs with the cyclic garbage collector paused, and
    the collector's earlier state is restored however it ends.  A query
    makes no reference cycles, so a collection would only traverse the live
    spans and sequences again and free nothing.  The cyclic garbage a run
    does make is made outside the handler, with the collector on: argparse's
    formatters when a parser is first built, json's indenting encoder under
    --json.
    """
    argv = sys.argv[1:] if argv is None else argv
    key = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _PARSERS.get(key)
    if parser is None:
        parser = _PARSERS[key] = build_parser(key)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        report, code = _COMMANDS[args.command].handler(args)
    except (FinkError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_text(report))
    return code


def main() -> None:
    """run() as a process.  A reader that closes stdout early, as head does,
    ends it with EXIT_BROKEN_PIPE and nothing on stderr, in text and --json
    mode alike, whether stdout is buffered or not."""
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.FileIO):
        # unbuffered (python -u): a short raw write would lose the rest unseen,
        # where a buffered writer writes on and meets the closed pipe
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding, out.errors)
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module's docs: stdout goes to devnull, so
        # the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
