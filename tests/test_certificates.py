"""Every witness that a gowers or ramsey2 line of the search benchmark finds,
at seeds 0 and 1, is a certificate.

Each line runs in process with --json.  The witness is checked with the
oracles alone, from the report's texts and the line's options: it is block
ordered, each of its elements lies in the span of the report's ambient, and
every element of its span (gowers), or every length-n block sequence over
that span (ramsey2), carries the reported color under the line's coloring
rule, evaluated here on raw value maps.  So a changed prune cannot report a
witness that is not monochromatic.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from finkit.cli import run
from oracles import _end, _start, raw_sequences, raw_span, to_seq
from test_pinned_outputs import workloads


def _raws(text):
    """The raw value maps of a block sequence's text, block by block."""
    return [
        frozenset(tuple(map(int, pair.split(":"))) for pair in block.split(","))
        for block in text.split(";")
    ]


def _key(raws):
    """The text of a block sequence of raw maps, as a coloring table keys it."""
    return ";".join(",".join(f"{p}:{v}" for p, v in sorted(s)) for s in raws)


def _rule(text, r, files):
    """The color of a tuple of raw maps under the coloring rule text, read
    off the union of their supports, or looked up by their text."""
    kind, _, param = text.partition(":")
    if kind == "table":
        table = dict(line.split("\t") for line in files[param].splitlines())
        return lambda raws: int(table[_key(raws)])
    measure = {"size_mod": len, "max_mod": max}[kind]
    return lambda raws: measure([p for s in raws for p, _ in s]) % r


def _reports(seed, tmp_path, monkeypatch):
    files, queries = workloads.build("search", seed)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in queries:
        if argv[0] not in ("gowers", "ramsey2"):
            continue
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = run(argv if "--json" in argv else [*argv, "--json"])
        yield argv, files, code, json.loads(out.getvalue())


def _in_span(x, ambient, k):
    """x lies in the span of ambient: a sum of images of its blocks, where a
    block that meets no position of x can only have added nothing."""
    support = {p for p, _ in x}
    meeting = [b for b in ambient if support & {p for p, _ in b}]
    return bool(meeting) and x in raw_span(to_seq(meeting, k))


@pytest.mark.parametrize("seed", [0, 1])
def test_every_found_witness_is_a_certificate(seed, tmp_path, monkeypatch):
    found = 0
    for argv, files, code, report in _reports(seed, tmp_path, monkeypatch):
        assert code == (0 if report["found"] else 1), argv
        if not report["found"]:
            continue
        found += 1
        k, m = report["window"]["k"], report["m"]
        witness, ambient = _raws(report["witness"]), _raws(report["ambient"])
        assert len(witness) == m, argv
        assert all(k == max(v for _, v in x) for x in witness), argv
        assert all(_end(x) < _start(y) for x, y in zip(witness, witness[1:])), argv
        assert all(_in_span(x, ambient, k) for x in witness), argv
        color = _rule(report["coloring"], report["r"], files)
        span = raw_span(to_seq(witness, k))
        if argv[0] == "gowers":
            colored = [(x,) for x in span]
        else:
            colored = list(raw_sequences(span, report["n"]))
        assert colored and {color(raws) for raws in colored} == {report["color"]}, argv
    assert found >= 7
