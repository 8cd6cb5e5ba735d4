"""Every positive outcome that a line of the search or scan benchmark
reports, at seeds 0 and 1, is a certificate.

Each line runs in process with --json, and its outcome is checked with the
oracles alone, from the report's texts and the line's options; every rule
(coloring, family, relation) is evaluated here on raw value maps, not
through the library's specs.  A witness is block ordered and each of its
elements lies in the span of the report's ambient.  For the search lines,
every element of the witness's span (gowers), or every length-n block
sequence over that span (ramsey2), carries the reported color.  For the
scan lines: the input relation and the named canonical one agree on every
pair from the witness's span, whose terms are staircase systems at k >= 2
(classify); the witness is galvin's first certificate in span order, and
its alternative holds on raw maps (galvin); an avoiding branch is a maximal
branch that meets no member, and an accepting condensation holds the stem
and every maximal branch through its span meets one (forcing).  So a
changed prune or spec cannot report a witness that is not one.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from types import SimpleNamespace

import pytest

from finkit import Window, parse_family
from finkit.cli import run
from oracles import (
    _end,
    _start,
    flat_galvin,
    pairwise_restriction_equals,
    pairwise_sos_check,
    raw_extensions,
    raw_maximal_branches,
    raw_sequences,
    raw_span,
    relation_by_definition,
    to_elem,
    to_seq,
)
from test_pinned_outputs import workloads


def _raws(text):
    """The raw value maps of a block sequence's text, block by block."""
    return [
        frozenset(tuple(map(int, pair.split(":"))) for pair in block.split(","))
        for block in text.split(";")
        if block
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


def _reports(workload, seed, tmp_path, monkeypatch):
    files, queries = workloads.build(workload, seed)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in queries:
        if argv[0] == "gowers-verify":
            continue
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = run(argv if "--json" in argv else [*argv, "--json"])
        yield argv, files, code, json.loads(out.getvalue())


def _condensation(text, ambient_text, k, m, argv):
    """The raw maps of a reported witness, checked to be a block sequence of
    m level-k elements, each in the span of the reported ambient."""
    witness, ambient = _raws(text), _raws(ambient_text)
    assert len(witness) == m, argv
    assert all(k == max(v for _, v in x) for x in witness), argv
    assert all(_end(x) < _start(y) for x, y in zip(witness, witness[1:])), argv
    assert all(_in_span(x, ambient, k) for x in witness), argv
    return witness


def _in_span(x, ambient, k):
    """x lies in the span of ambient: a sum of images of its blocks, where a
    block that meets no position of x can only have added nothing."""
    support = {p for p, _ in x}
    meeting = [b for b in ambient if support & {p for p, _ in b}]
    return bool(meeting) and x in raw_span(to_seq(meeting, k))


@pytest.mark.parametrize("seed", [0, 1])
def test_every_found_witness_is_a_certificate(seed, tmp_path, monkeypatch):
    found = 0
    for argv, files, code, report in _reports("search", seed, tmp_path, monkeypatch):
        assert code == (0 if report["found"] else 1), argv
        if not report["found"]:
            continue
        found += 1
        k = report["window"]["k"]
        witness = _condensation(report["witness"], report["ambient"], k, report["m"], argv)
        color = _rule(report["coloring"], report["r"], files)
        span = raw_span(to_seq(witness, k))
        if argv[0] == "gowers":
            colored = [(x,) for x in span]
        else:
            colored = list(raw_sequences(span, report["n"]))
        assert colored and {color(raws) for raws in colored} == {report["color"]}, argv
    assert found >= 7


def _family(text, files):
    """The membership of a tuple of raw maps in the family rule text."""
    kind, _, param = text.partition(":")
    if kind == "explicit":
        members = {_key(_raws(line)) for line in files[param].splitlines()}
        return lambda raws: _key(raws) in members
    return {
        "empty": lambda raws: False,
        "all_singletons": lambda raws: len(raws) == 1,
        "min_even_first": lambda raws: len(raws) >= 1 and _start(raws[0]) % 2 == 0,
        "support_ge": lambda raws: len(raws) >= 1 and all(len(x) >= int(param) for x in raws),
    }[kind]


def _meets(member):
    """Does a node have a prefix in the family, the empty one and the stem's included?"""
    return lambda node: any(member(node[:t]) for t in range(len(node) + 1))


def _relation(text, k, files):
    """The relation that a classify input or a reported name stands for,
    given by its definition, or by the transitive closure of a table's edges."""
    kind, _, param = text.partition(":")
    if kind == "table":
        root = {}

        def find(key):
            while root.setdefault(key, key) != key:
                key = root[key]
            return key

        for line in files[param].splitlines():
            left, right = map(find, line.split("\t"))
            root[left] = right
        return SimpleNamespace(holds=lambda a, b: find(_key([a.values])) == find(_key([b.values])))
    name, _, level = text.rpartition("_")  # a level at k >= 2, as in min_2
    if not level.isdigit():
        name, level = text, "1"
    kinds = {"=": "equality", "FIN^2": "full", "size_parity": "size_parity", "min": "min_level",
             "max": "max_level", "(min,max)": "minmax_level"}
    return SimpleNamespace(holds=lambda a, b: relation_by_definition(kinds[name], int(level), a, b))


def _check_classify(report, argv, files):
    k = report["window"]["k"]
    witness = _condensation(report["witness"], report["ambient"], k, report["m"], argv)
    B = to_seq(witness, k)
    R = _relation(report["input_relation"], k, files)
    assert pairwise_restriction_equals(R, _relation(report["relation"], k, files), B), argv
    if k >= 2:
        assert all(pairwise_sos_check(to_elem(x, k)) == (True, None) for x in witness), argv


def _check_galvin(report, argv, files):
    k, len_max = report["window"]["k"], report["window"]["len_max"]
    witness = _condensation(report["witness"], report["ambient"], k, report["m"], argv)
    stem = tuple(_raws(report["stem"]))
    meets = _meets(_family(report["family"], files))
    span = raw_span(to_seq(witness, k))
    if report["alternative"] == 1:
        assert not any(map(meets, [stem] + raw_extensions(span, stem, len_max))), argv
    else:
        assert all(map(meets, raw_maximal_branches(span, stem, len_max))), argv
    # the first certificate in span order, as the flat scan finds it
    w = Window(k, report["window"]["n_max"], len_max)
    F = parse_family(report["family"], k)
    A, a = to_seq(_raws(report["ambient"]), k), to_seq(stem, k)
    flat = flat_galvin(A, a, F, report["m"], w)
    assert (flat.alternative, str(flat.witness)) == (report["alternative"], report["witness"]), argv


def _check_forcing(report, argv, files):
    k, len_max = report["window"]["k"], report["window"]["len_max"]
    stem = tuple(_raws(report["stem"]))
    meets = _meets(_family(report["family"], files))
    span = raw_span(to_seq(_raws(report["ambient"]), k))
    if report["avoiding_branch"] is not None:
        branch = tuple(_raws(report["avoiding_branch"]))
        assert branch in raw_maximal_branches(span, stem, len_max) and not meets(branch), argv
    if report["accepting_condensation"] is not None:
        B = _raws(report["accepting_condensation"])
        assert all(_in_span(x, _raws(report["ambient"]), k) for x in B), argv
        span_b = raw_span(to_seq(B, k))
        assert set(stem) <= span_b, argv
        assert all(map(meets, raw_maximal_branches(span_b, stem, len_max))), argv


@pytest.mark.parametrize("seed", [0, 1])
def test_every_scan_outcome_is_a_certificate(seed, tmp_path, monkeypatch):
    checked = {"classify": 0, "galvin": 0, "forcing": 0}
    for argv, files, code, report in _reports("scan", seed, tmp_path, monkeypatch):
        if argv[0] == "forcing":
            assert code == (0 if report["status"] in ("accepts", "rejects") else 1), argv
            assert report["status"] != "accepts" or report["avoiding_branch"] is None, argv
        else:
            assert code == (0 if report["witness"] is not None else 1), argv
            if report["witness"] is None:
                continue
        {"classify": _check_classify, "galvin": _check_galvin, "forcing": _check_forcing}[argv[0]](
            report, argv, files
        )
        checked[argv[0]] += 1
    assert checked == {"classify": 3, "galvin": 3, "forcing": 2}
