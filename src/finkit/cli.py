"""Command-line entry point.

One binary, subcommand style.  Every report is built as a JSON-safe dict;
--json prints it verbatim and text mode renders the same fields, so the two
modes carry identical information.  Window parameters are echoed in every
windowed report.  Exit codes: 0 success or witness found, 1 exhausted,
absent or false, 2 usage or input error.  Every search is one sequential
scan and outputs contain no randomness, so they are byte-identical across
runs.  --threads is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import canonical, coideals, forcing, gowers, net
from .core import (
    BlockSeq,
    FinkError,
    Window,
    WindowExhausted,
    decompose,
    format_element,
    format_seq,
    generators,
    parse_element,
    parse_seq,
    read_lines,
    span_enumerate,
    tetris,
)

EXIT_OK = 0
EXIT_EXHAUSTED = 1
EXIT_USAGE = 2


def _add_window(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="level bound k >= 1")
    p.add_argument("--nmax", type=int, required=True, help="positions live in [0, nmax)")
    p.add_argument("--lenmax", type=int, default=None, help="sequence length cap (default: nmax)")


def _add_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _window(args) -> Window:
    lenmax = args.lenmax if args.lenmax is not None else args.nmax
    return Window(args.k, args.nmax, lenmax)


def _window_dict(w: Window) -> dict:
    return {"k": w.k, "n_max": w.n_max, "len_max": w.len_max}


def _ambient(args, w: Window) -> BlockSeq:
    if getattr(args, "seq", None):
        return parse_seq(args.seq, w.k)
    return generators(w.k, w.n_max)


def _seq_or_none(b: Optional[BlockSeq]) -> Optional[str]:
    return None if b is None else format_seq(b)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="finkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("span", help="enumerate the span of a block sequence")
    _add_window(p)
    _add_output(p)
    p.add_argument("seq", help="block sequence, e.g. '0:1;1:1'")

    p = sub.add_parser("member", help="decompose an element over a block sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="seq", required=True, help="ambient block sequence")
    _add_output(p)
    p.add_argument("element")

    p = sub.add_parser("tetris", help="apply the decrement operation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=1, help="iterations (default 1)")
    _add_output(p)
    p.add_argument("element")

    p = sub.add_parser("gowers", help="search a monochromatic span witness")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--coloring", required=True, help="const:0 | min_mod | max_mod | size_mod | value_at:P | table:FILE")
    p.add_argument("--r", type=int, default=2, help="number of colors")
    p.add_argument("--m", type=int, required=True, help="witness length")
    p.add_argument("seq", nargs="?", default=None, help="ambient sequence (default: window generators)")

    p = sub.add_parser("gowers-verify", help="check every coloring of a window has a witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    _add_search(p)
    _add_output(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--budget", type=int, default=2**24, help="max colorings to enumerate")

    p = sub.add_parser("ramsey2", help="search a witness monochromatic on length-n subsequences")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--coloring", required=True)
    p.add_argument("--n", type=int, required=True, help="coloring arity")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("seq", nargs="?", default=None)

    p = sub.add_parser("forcing", help="decide accepts/rejects for a stem against a family")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--family", required=True, help="empty | all_singletons | min_even_first | support_ge:S | explicit:FILE")
    p.add_argument("--stem", default="", help="stem sequence (default empty)")
    p.add_argument("--min-len", type=int, default=1, help="condensation length floor")
    p.add_argument("seq", help="ambient block sequence")

    p = sub.add_parser("galvin", help="two-alternative dichotomy below a sequence")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--family", required=True)
    p.add_argument("--stem", default="")
    p.add_argument("--m", type=int, required=True, help="condensation length")
    p.add_argument("seq", nargs="?", default=None)

    p = sub.add_parser("classify", help="canonical relation agreeing on some span")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--relation", required=True, help="equality | full | min_level:I | max_level:I | minmax_level:I | size_parity | table:FILE")
    p.add_argument("--m", type=int, required=True, help="witness length")
    p.add_argument("seq", nargs="?", default=None)

    p = sub.add_parser("sos", help="staircase-system check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--zero-convention",
        default="support-boundary",
        choices=canonical.ZERO_CONVENTIONS,
        help="meaning of the level-0 landmarks",
    )
    _add_output(p)
    p.add_argument("element")

    p = sub.add_parser("tk", help="size of the canonical relation list")
    _add_output(p)
    p.add_argument("k", type=int)

    p = sub.add_parser("mu", help="positions where the terms attain k")
    p.add_argument("--k", type=int, required=True)
    _add_output(p)
    p.add_argument("seq")

    p = sub.add_parser("top-member", help="membership in the closure coideal of a family file")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--family", required=True, help="file of base sequences, one per line")
    p.add_argument("--len", dest="length", type=int, required=True, help="common condensation length")
    p.add_argument("seq")

    p = sub.add_parser("diagonal", help="greedy diagonal through a decreasing chain")
    _add_window(p)
    _add_search(p)
    _add_output(p)
    p.add_argument("--chain", required=True, help="file of sequences, one per line, index order")

    p = sub.add_parser("theta", help="net function to FIN_k element")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", default="1/2", help="net parameter as P/Q (labels only)")
    _add_output(p)
    p.add_argument("netfn", help="exponent map, e.g. '0:0,2:1'")

    p = sub.add_parser("theta-inv", help="FIN_k element to net function")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", default="1/2")
    _add_output(p)
    p.add_argument("element")

    p = sub.add_parser("kfor", help="level and delta for a stability epsilon")
    _add_output(p)
    p.add_argument("epsilon", help="positive rational, e.g. 1 or 3/4")

    return top


# -- command handlers ---------------------------------------------------------


def _cmd_span(args):
    w = _window(args)
    A = parse_seq(args.seq, w.k)
    elems = [format_element(x) for x in span_enumerate(A, w)]
    return {"command": "span", "window": _window_dict(w), "elements": elems}, EXIT_OK


def _cmd_member(args):
    A = parse_seq(args.seq, args.k)
    x = parse_element(args.element, args.k)
    d = decompose(x, A)
    report = {
        "command": "member",
        "k": args.k,
        "element": format_element(x),
        "ambient": format_seq(A),
        "member": d is not None,
        "decomposition": None if d is None else [[i, j] for i, j in d.parts],
    }
    return report, EXIT_OK if d is not None else EXIT_EXHAUSTED


def _cmd_tetris(args):
    x = parse_element(args.element, args.k)
    out = tetris(x, args.j)
    report = {
        "command": "tetris",
        "k": args.k,
        "j": args.j,
        "element": format_element(x),
        "result": "zero" if out is None else format_element(out),
    }
    return report, EXIT_OK


def _cmd_gowers(args):
    w = _window(args)
    A = _ambient(args, w)
    f = gowers.parse_coloring(args.coloring, args.r, arity=1)
    rep = gowers.gowers_search(f, A, args.m, w)
    report = {
        "command": "gowers",
        "window": _window_dict(w),
        "coloring": args.coloring,
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
    }
    return report, EXIT_OK if rep.found else EXIT_EXHAUSTED


def _cmd_gowers_verify(args):
    if args.budget < 1:
        raise FinkError(f"budget must be positive, got {args.budget}")
    w = Window(args.k, args.nmax, max(args.m, 1))
    rep = gowers.verify_finite_gowers(args.k, args.m, args.r, args.nmax, budget=args.budget)
    report = {
        "command": "gowers-verify",
        "window": _window_dict(w),
        "m": args.m,
        "r": args.r,
        "holds": rep.holds,
        "colorings_checked": rep.colorings_checked,
        "failing_coloring": rep.failing_coloring,
    }
    return report, EXIT_OK if rep.holds else EXIT_EXHAUSTED


def _cmd_ramsey2(args):
    w = _window(args)
    A = _ambient(args, w)
    f = gowers.parse_coloring(args.coloring, args.r, arity=args.n)
    rep = gowers.ramsey2_search(f, A, args.m, w)
    report = {
        "command": "ramsey2",
        "window": _window_dict(w),
        "coloring": args.coloring,
        "n": args.n,
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
    }
    return report, EXIT_OK if rep.found else EXIT_EXHAUSTED


def _cmd_forcing(args):
    w = _window(args)
    B = parse_seq(args.seq, w.k)
    a = parse_seq(args.stem, w.k)
    F = forcing.parse_family(args.family, w.k)
    verdict = forcing.decides(B, a, F, w, min_len=args.min_len)
    report = {
        "command": "forcing",
        "window": _window_dict(w),
        "family": args.family,
        "stem": format_seq(a),
        "ambient": format_seq(B),
        "status": verdict.status,
        "avoiding_branch": _seq_or_none(verdict.branch),
        "accepting_condensation": _seq_or_none(verdict.condensation),
    }
    code = EXIT_OK if verdict.status in ("accepts", "rejects") else EXIT_EXHAUSTED
    return report, code


def _cmd_galvin(args):
    w = _window(args)
    A = _ambient(args, w)
    a = parse_seq(args.stem, w.k)
    F = forcing.parse_family(args.family, w.k)
    res = forcing.galvin_dichotomy(A, a, F, args.m, w)
    report = {
        "command": "galvin",
        "window": _window_dict(w),
        "family": args.family,
        "stem": format_seq(a),
        "m": args.m,
        "ambient": format_seq(A),
        "alternative": res.alternative,
        "witness": _seq_or_none(res.witness),
        "note": None
        if res.alternative is not None
        else "window exhausted: neither alternative verifiable at this scale",
    }
    return report, EXIT_OK if res.alternative is not None else EXIT_EXHAUSTED


def _cmd_classify(args):
    w = _window(args)
    A = _ambient(args, w)
    R = canonical.parse_relation(args.relation, w.k, w)
    res = canonical.canonicalize_search(R, A, args.m, w)
    report = {
        "command": "classify",
        "window": _window_dict(w),
        "input_relation": args.relation,
        "m": args.m,
        "ambient": format_seq(A),
        "relation": None if res is None else res.relation,
        "witness": None if res is None else format_seq(res.witness),
        "caveat": None if res is None else res.caveat,
    }
    return report, EXIT_OK if res is not None else EXIT_EXHAUSTED


def _cmd_sos(args):
    x = parse_element(args.element, args.k)
    res = canonical.sos_check(x, args.zero_convention)
    report = {
        "command": "sos",
        "k": args.k,
        "element": format_element(x),
        "zero_convention": args.zero_convention,
        "sos": res.ok,
        "violated": res.violated,
    }
    return report, EXIT_OK if res.ok else EXIT_EXHAUSTED


def _cmd_tk(args):
    return {"command": "tk", "k": args.k, "t": canonical.t_count(args.k)}, EXIT_OK


def _cmd_mu(args):
    A = parse_seq(args.seq, args.k)
    report = {
        "command": "mu",
        "k": args.k,
        "ambient": format_seq(A),
        "mu": sorted(coideals.mu(A)),
    }
    return report, EXIT_OK


def _cmd_top_member(args):
    w = _window(args)
    B = parse_seq(args.seq, w.k)
    base = [parse_seq(line, w.k) for line in read_lines(args.family)]
    if not base:
        raise FinkError(f"family file {args.family!r} lists no sequences")
    witness = None
    for A in base:
        witness = coideals.common_condensation(A, B, args.length, w)
        if witness is not None:
            break
    report = {
        "command": "top-member",
        "window": _window_dict(w),
        "family_size": len(base),
        "len": args.length,
        "ambient": format_seq(B),
        "member": witness is not None,
        "witness": _seq_or_none(witness),
    }
    return report, EXIT_OK if witness is not None else EXIT_EXHAUSTED


def _cmd_diagonal(args):
    w = _window(args)
    chain = [parse_seq(line, w.k) for line in read_lines(args.chain)]
    report = {
        "command": "diagonal",
        "window": _window_dict(w),
        "chain_length": len(chain),
    }
    try:
        C = coideals.diagonal_build(chain, w)
    except WindowExhausted as e:
        report["diagonal"] = None
        report["exhausted_at_step"] = e.step
        report["partial"] = format_seq(e.partial)
        return report, EXIT_EXHAUSTED
    report["diagonal"] = format_seq(C)
    return report, EXIT_OK


def _cmd_theta(args):
    delta = Fraction(args.delta)
    h = net.parse_net_function(args.netfn, args.k, delta)
    p = net.theta(h)
    report = {
        "command": "theta",
        "k": args.k,
        "delta": str(delta),
        "net_function": net.format_net_function(h),
        "element": format_element(p),
    }
    return report, EXIT_OK


def _cmd_theta_inv(args):
    delta = Fraction(args.delta)
    p = parse_element(args.element, args.k)
    h = net.theta_inv(p, delta)
    report = {
        "command": "theta-inv",
        "k": args.k,
        "delta": str(delta),
        "element": format_element(p),
        "net_function": net.format_net_function(h),
    }
    return report, EXIT_OK


def _cmd_kfor(args):
    eps = Fraction(args.epsilon)
    k, delta = net.k_for_epsilon(eps)
    report = {
        "command": "kfor",
        "epsilon": str(eps),
        "k": k,
        "delta": str(delta),
    }
    return report, EXIT_OK


_HANDLERS = {
    "span": _cmd_span,
    "member": _cmd_member,
    "tetris": _cmd_tetris,
    "gowers": _cmd_gowers,
    "gowers-verify": _cmd_gowers_verify,
    "ramsey2": _cmd_ramsey2,
    "forcing": _cmd_forcing,
    "galvin": _cmd_galvin,
    "classify": _cmd_classify,
    "sos": _cmd_sos,
    "tk": _cmd_tk,
    "mu": _cmd_mu,
    "top-member": _cmd_top_member,
    "diagonal": _cmd_diagonal,
    "theta": _cmd_theta,
    "theta-inv": _cmd_theta_inv,
    "kfor": _cmd_kfor,
}


# -- rendering ----------------------------------------------------------------


def render_text(report: dict) -> str:
    """Text rendering of a report dict; every field appears in the output."""
    lines = []
    if "window" in report:
        w = report["window"]
        lines.append(f"# window k={w['k']} n_max={w['n_max']} len_max={w['len_max']}")
    cmd = report["command"]
    skip = {"command", "window"}
    if cmd == "span":
        lines.extend(report["elements"])
        skip.add("elements")
    elif cmd == "member":
        if report["member"]:
            parts = " + ".join(f"T^{j}(a[{i}])" for i, j in report["decomposition"])
            lines.append(f"member: {parts}")
        else:
            lines.append("absent")
        skip |= {"member", "decomposition"}
        lines.append(f"element = {report['element']}")
        lines.append(f"ambient = {report['ambient']}")
        lines.append(f"k = {report['k']}")
        skip |= {"element", "ambient", "k"}
    elif cmd == "tk":
        lines.append(str(report["t"]))
        lines.append(f"k = {report['k']}")
        skip |= {"t", "k"}
    elif cmd == "kfor":
        lines.append(f"k={report['k']} delta={report['delta']}")
        lines.append(f"epsilon = {report['epsilon']}")
        skip |= {"k", "delta", "epsilon"}
    elif cmd == "gowers-verify":
        lines.append(f"holds = {json.dumps(report['holds'])}")
        lines.append(f"m = {report['m']}")
        lines.append(f"r = {report['r']}")
        lines.append(f"colorings_checked = {report['colorings_checked']}")
        if report["failing_coloring"] is None:
            lines.append("failing_coloring = null")
        else:
            lines.append("failing_coloring:")
            for elem, color in report["failing_coloring"].items():
                lines.append(f"  {elem}\t{color}")
        skip |= {"holds", "m", "r", "colorings_checked", "failing_coloring"}
    elif cmd == "mu":
        lines.append(" ".join(str(n) for n in report["mu"]) if report["mu"] else "(empty)")
        lines.append(f"ambient = {report['ambient']}")
        lines.append(f"k = {report['k']}")
        skip |= {"mu", "ambient", "k"}
    for key, value in report.items():
        if key in skip:
            continue
        lines.append(f"{key} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        report, code = _HANDLERS[args.command](args)
    except WindowExhausted as e:
        print(f"exhausted: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (FinkError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_text(report))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
