import argparse
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finkit import FinkElement, cli, core, parse_element, t_count
from finkit.cli import TK_MAX_K, _cmd_tk, render_text, run

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_span_example():
    code, out, _ = invoke(["span", "--k", "1", "--nmax", "2", "0:1;1:1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# window k=1 n_max=2")
    assert lines[1:] == ["0:1", "0:1,1:1", "1:1"]
    for line in lines[1:]:
        parse_element(line, 1)  # printed elements re-parse


def test_tk_example():
    code, out, _ = invoke(["tk", "1"])
    assert code == 0 and out.splitlines()[0] == "5"
    code, out, _ = invoke(["tk", "3"])
    assert out.splitlines()[0] == "619"


def test_tk_refuses_k_past_the_printable_limit_at_once():
    start = time.perf_counter()
    code, out, err = invoke(["tk", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: t(1000000000) has more than 4300 digits; k must be at most 858\n"
    code, _, _ = invoke(["tk", str(TK_MAX_K + 1), "--json"])
    assert code == 2


def test_tk_limit_is_the_last_printable_k():
    assert t_count(TK_MAX_K) < 10**4300 <= t_count(TK_MAX_K + 1)
    code, out, _ = invoke(["tk", str(TK_MAX_K)])
    assert code == 0 and out.endswith(f"k = {TK_MAX_K}\n")


def test_tk_text_unchanged_through_850():
    # sha256 of the concatenated text reports of tk 1..850, as printed by the
    # factorial-sum implementation this recurrence replaced
    digest = hashlib.sha256()
    for k in range(1, 851):
        report, code = _cmd_tk(argparse.Namespace(k=k))
        assert code == 0
        digest.update(render_text(report).encode())
    assert digest.hexdigest() == (
        "dfd9c54efbb9928bf39d30a5fcb2c9caf787a0eb8b4e17b3b212ab4ad80e51f8"
    )
    report, _ = _cmd_tk(argparse.Namespace(k=850))
    assert invoke(["tk", "850"])[1] == render_text(report)


def test_member_examples():
    code, out, _ = invoke(["member", "--k", "2", "1:2", "--in", "0:2,1:1;3:2"])
    assert code == 1 and out.splitlines()[0] == "absent"
    code, out, _ = invoke(["member", "--k", "2", "0:1,3:2", "--in", "0:2,1:1;3:2"])
    assert code == 0 and "T^1(a[0]) + T^0(a[1])" in out


def test_tetris_zero():
    code, out, _ = invoke(["tetris", "--k", "2", "--j", "2", "3:2"])
    assert code == 0 and 'result = "zero"' in out


def test_gowers_exit_codes():
    code, _, _ = invoke(
        ["gowers", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--m", "2"]
    )
    assert code == 0
    code, _, _ = invoke(
        ["gowers", "--k", "1", "--nmax", "2", "--coloring", "min_mod", "--m", "2"]
    )
    assert code == 1


def test_gowers_constant_color_out_of_range():
    for color in ("5", "-1"):
        argv = ["gowers", "--k", "1", "--nmax", "3", "--coloring", f"const:{color}"]
        code, out, err = invoke(argv + ["--r", "2", "--m", "2"])
        assert code == 2 and out == ""
        assert err == f"error: constant color {color} outside 0..1\n"



def test_gowers_value_at_negative_position():
    argv = ["gowers", "--k", "1", "--nmax", "3", "--coloring", "value_at:-5", "--m", "1"]
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err == "error: value_at position -5 is negative\n"

def test_gowers_verify_reports():
    code, out, _ = invoke(["gowers-verify", "--k", "1", "--nmax", "1", "--m", "1"])
    assert code == 0 and "holds = true" in out
    code, out, _ = invoke(["gowers-verify", "--k", "1", "--nmax", "2", "--m", "2"])
    assert code == 1 and "failing_coloring:" in out


def test_gowers_verify_decides_k2_n4_past_the_default_budget():
    # the least failing coloring, read as a base-2 number, is 524287224
    argv = ["gowers-verify", "--k", "2", "--nmax", "4", "--m", "2", "--budget", str(2**300)]
    code, out, _ = invoke(argv)
    assert code == 1 and "colorings_checked = 524287225" in out.splitlines()


def test_gowers_verify_target_length_zero_exits_2():
    code, out, err = invoke(["gowers-verify", "--k", "1", "--nmax", "3", "--m", "0"])
    assert code == 2 and out == ""
    assert err == "error: target length 0 outside 1..1\n"


def test_gowers_verify_budget_error():
    code, _, err = invoke(
        ["gowers-verify", "--k", "1", "--nmax", "5", "--m", "2", "--budget", "1000"]
    )
    assert code == 2 and "budget" in err
    code, _, err = invoke(
        ["gowers-verify", "--k", "1", "--nmax", "2", "--m", "2", "--budget", "0"]
    )
    assert code == 2 and "positive" in err


def test_gowers_verify_refuses_huge_window_without_enumerating():
    # 2^40 - 1 elements: the refusal must not list them or build 2^(2^40 - 1)
    t0 = time.monotonic()
    code, out, err = invoke(["gowers-verify", "--k", "1", "--nmax", "40", "--m", "2"])
    assert time.monotonic() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: 2^1099511627775 colorings exceed budget 16777216\n"


def test_ramsey2_runs():
    code, out, _ = invoke(
        ["ramsey2", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--n", "2", "--m", "2"]
    )
    assert code == 0 and "witness" in out


def test_ramsey2_refuses_a_target_length_outside_the_window():
    argv = ["ramsey2", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--n", "2", "--m", "5"]
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err == "error: target length 5 outside 1..4\n"


def test_forcing_statuses(tmp_path):
    base = ["forcing", "--k", "1", "--nmax", "4", "--family"]
    seq = "0:1;1:1;2:1;3:1"
    code, out, _ = invoke(base + ["all_singletons", seq])
    assert code == 0 and 'status = "accepts"' in out
    code, out, _ = invoke(base + ["empty", seq])
    assert code == 0 and 'status = "rejects"' in out
    fam = tmp_path / "f.txt"
    fam.write_text("0:1,1:1\n")
    code, out, _ = invoke(base + [f"explicit:{fam}", seq])
    assert code == 1 and 'status = "undecided"' in out


def test_forcing_min_len_outside_the_window_exits_2():
    base = ["forcing", "--k", "1", "--nmax", "8", "--family", "empty"]
    seq = ";".join(f"{i}:1" for i in range(8))
    code, out, err = invoke(base + ["--min-len", "-3", seq])
    assert code == 2 and out == ""
    assert err == "error: condensation length floor -3 outside 1..8\n"
    code, out, err = invoke(base + ["--min-len", "99", seq])
    assert code == 2 and out == ""
    assert err == "error: condensation length floor 99 outside 1..8\n"


def test_kfor_small_epsilon_is_fast_and_unchanged():
    start = time.perf_counter()
    code, out, _ = invoke(["kfor", "1/2000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == "k=33182 delta=1/4000\nepsilon = 1/2000\n"


def test_kfor_refuses_past_the_power_bound_at_once():
    start = time.perf_counter()
    code, out, err = invoke(["kfor", "1/1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: epsilon 1/1000000000 needs powers past the bound of 1048576 bits\n"


def test_galvin_and_classify():
    code, out, _ = invoke(
        ["galvin", "--k", "1", "--nmax", "8", "--family", "min_even_first", "--m", "3"]
    )
    assert code == 0 and "alternative = 2" in out and '"0:1;2:1;4:1"' in out
    code, out, _ = invoke(
        ["classify", "--k", "1", "--nmax", "8", "--relation", "size_parity", "--m", "3"]
    )
    assert code == 0 and '"FIN^2"' in out
    # at m=2 a smaller span already realizes size_parity as the min relation
    code, out, _ = invoke(
        ["classify", "--k", "1", "--nmax", "6", "--relation", "size_parity", "--m", "2"]
    )
    assert code == 0 and '"min"' in out


def test_classify_json_fields():
    code, out, _ = invoke(
        ["classify", "--k", "2", "--nmax", "6", "--relation", "full", "--m", "2", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"relation", "witness", "caveat"}
    assert data["caveat"] is not None


def test_sos_and_mu():
    code, out, _ = invoke(["sos", "--k", "2", "0:1,1:2,2:1"])
    assert code == 0 and "sos = true" in out
    code, out, _ = invoke(["sos", "--k", "2", "0:2"])
    assert code == 1 and '"range"' in out
    # nested level landmarks, not one rise and one fall: this falls back to 1
    # between its rises and passes, so a change of definition shows here
    code, out, _ = invoke(["sos", "--k", "3", "0:1,1:2,2:1,3:3,4:2,5:1"])
    assert code == 0 and "sos = true" in out.splitlines()
    code, out, _ = invoke(["mu", "--k", "2", "0:2,1:1;3:2,4:2"])
    assert code == 0 and out.splitlines()[0] == "0 3 4"


def test_top_member(tmp_path):
    fam = tmp_path / "base.txt"
    fam.write_text("0:1;2:1;4:1\n")
    code, out, _ = invoke(
        ["top-member", "--k", "1", "--nmax", "6", "--family", str(fam), "--len", "2", "0:1;1:1;2:1;3:1;4:1;5:1"]
    )
    assert code == 0 and "member = true" in out
    code, out, _ = invoke(
        ["top-member", "--k", "1", "--nmax", "6", "--family", str(fam), "--len", "4", "0:1;1:1;2:1;3:1;4:1;5:1"]
    )
    assert code == 1


def test_top_member_refuses_a_length_outside_the_window(tmp_path):
    fam = tmp_path / "base.txt"
    fam.write_text("0:1;1:1;2:1;3:1\n")
    for length in (0, 3):
        code, out, err = invoke(
            ["top-member", "--k", "1", "--nmax", "6", "--lenmax", "2", "--family", str(fam),
             "--len", str(length), "0:1;1:1;2:1;3:1"]
        )
        assert code == 2 and out == ""
        assert err == f"error: target length {length} outside 1..2\n"


def test_diagonal(tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text("0:1;1:1;2:1;3:1\n0:1;1:1;2:1;3:1\n")
    code, out, _ = invoke(["diagonal", "--k", "1", "--nmax", "4", "--chain", str(chain)])
    assert code == 0 and '"0:1;1:1;2:1;3:1"' in out
    chain2 = tmp_path / "chain2.txt"
    chain2.write_text("3:1\n3:1\n3:1\n")
    code, out, _ = invoke(["diagonal", "--k", "1", "--nmax", "4", "--chain", str(chain2)])
    assert code == 1 and "exhausted_at_step" in out


def test_theta_commands():
    code, out, _ = invoke(["theta", "--k", "2", "0:0,2:1"])
    assert code == 0 and '"0:2,2:1"' in out
    code, out, _ = invoke(["theta-inv", "--k", "2", "0:2,2:1"])
    assert code == 0 and '"0:0,2:1"' in out
    for text, chunk in (("3", "3"), ("0:1,x:2", "x:2")):
        code, out, err = invoke(["theta", "--k", "2", text])
        assert code == 2 and out == ""
        assert err == f"error: bad exponent pair {chunk!r} in {text!r}\n"
    code, out, _ = invoke(["kfor", "1"])
    assert code == 0 and out.splitlines()[0] == "k=3 delta=1/2"
    code, out, _ = invoke(["kfor", "2"])
    assert out.splitlines()[0] == "k=2 delta=1"
    code, _, err = invoke(["kfor", "-1"])
    assert code == 2


def test_usage_and_input_errors():
    code, _, _ = invoke(["span", "--k", "1", "0:1"])  # missing --nmax
    assert code == 2
    code, _, err = invoke(["span", "--k", "1", "--nmax", "2", "0:3"])
    assert code == 2 and "error" in err
    code, _, err = invoke(["member", "--k", "2", "0:2", "--in", "0:1;xx"])
    assert code == 2


def test_top_member_empty_family(tmp_path):
    fam = tmp_path / "empty.txt"
    fam.write_text("# nothing here\n\n")
    code, out, err = invoke(
        ["top-member", "--k", "1", "--nmax", "4", "--family", str(fam), "--len", "1", "0:1"]
    )
    assert code == 2 and out == ""
    assert err == f"error: family file {str(fam)!r} lists no sequences\n"


def test_relation_parser_rejects_a_parameter_on_a_bare_kind():
    for relation in ("size_parity:7", "equality:foo", "full:"):
        argv = ["classify", "--k", "1", "--nmax", "4", "--relation", relation, "--m", "2"]
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        kind = relation.partition(":")[0]
        assert err == f"error: relation {kind!r} takes no parameter, got {relation!r}\n"


def test_coloring_parser_rejects_a_parameter_on_a_bare_kind():
    argv = ["gowers", "--k", "1", "--nmax", "4", "--coloring", "min_mod:9", "--m", "2"]
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err == "error: coloring 'min_mod' takes no parameter, got 'min_mod:9'\n"


def test_family_parser_rejects_a_parameter_on_a_bare_kind():
    argv = ["galvin", "--k", "1", "--nmax", "6", "--family", "min_even_first:zz", "--m", "2"]
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err == "error: family 'min_even_first' takes no parameter, got 'min_even_first:zz'\n"


def test_coloring_parser_needs_an_integer_parameter():
    for coloring in ("const", "const:", "value_at:x"):
        argv = ["gowers", "--k", "1", "--nmax", "3", "--coloring", coloring, "--m", "1"]
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        kind = coloring.partition(":")[0]
        assert err == f"error: coloring {kind!r} needs an integer parameter, got {coloring!r}\n"


def test_family_parser_needs_an_integer_parameter():
    for family in ("support_ge", "support_ge:two"):
        argv = ["galvin", "--k", "1", "--nmax", "6", "--family", family, "--m", "2"]
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err == f"error: family 'support_ge' needs an integer parameter, got {family!r}\n"


def test_relation_parser_needs_an_integer_parameter():
    for relation in ("min_level", "max_level:", "minmax_level:1.5"):
        argv = ["classify", "--k", "1", "--nmax", "4", "--relation", relation, "--m", "2"]
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        kind = relation.partition(":")[0]
        assert err == f"error: relation {kind!r} needs an integer parameter, got {relation!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["gowers", "--k", "1", "--nmax", "3", "--coloring", "const:0", "--r", "1", "--m", "1"],
     "need at least 2 colors, got 1"),
    (["ramsey2", "--k", "1", "--nmax", "3", "--coloring", "size_mod", "--n", "0", "--m", "1"],
     "coloring arity must be >= 1, got 0"),
    (["classify", "--k", "2", "--nmax", "4", "--relation", "min_level:3", "--m", "2"],
     "level 3 outside 1..2"),
    (["gowers", "--k", "1", "--nmax", "3", "--coloring", "wat", "--m", "1"],
     "unknown coloring rule 'wat'"),
    (["classify", "--k", "1", "--nmax", "3", "--relation", "wat", "--m", "1"],
     "unknown relation 'wat'"),
    (["galvin", "--k", "1", "--nmax", "3", "--family", "wat", "--m", "1"],
     "unknown family 'wat'"),
    (["tetris", "--k", "1", "--j", "-1", "0:1"], "tetris exponent must be >= 0, got -1"),
    (["span", "--k", "1", "--nmax", "0", "0:1"],
     "window parameters must be >= 1, got Window(k=1, n_max=0, len_max=0)"),
    (["theta", "--k", "0", "0:0"], "level bound must be >= 1, got 0"),
    (["theta", "--k", "2", "0:0,0:1"], "positions must be strictly increasing, bad 0"),
    (["diagonal", "--k", "1", "--nmax", "3", "--chain", "{comment}"], "empty chain"),
    (["tetris", "--k", "1", "--", "-3:1"], "negative position -3"),
], ids=["colors", "arity", "level", "coloring", "relation", "family", "tetris-j", "window",
        "theta-k", "theta-order", "empty-chain", "negative-position"])
def test_input_errors_exit_2_with_their_message(tmp_path, argv, message):
    comment = tmp_path / "comment.txt"
    comment.write_text("# no sequence here\n")
    code, out, err = invoke([arg.format(comment=comment) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def gowers_with_table(tmp_path, text):
    table = tmp_path / "colors.txt"
    table.write_text(text)
    argv = ["gowers", "--k", "1", "--nmax", "2", "--coloring", f"table:{table}", "--m", "1"]
    return invoke(argv)


def test_coloring_table_line_needs_a_tab_and_an_integer_color(tmp_path):
    # a doubled TAB was read as one, int() skipping the second as whitespace
    for line in ("0:1 1", "0:1\tred", "0:1", "0:1\t\t1", "0:1\t1\t1"):
        code, out, err = gowers_with_table(tmp_path, f"1:1\t0\n{line}\n0:1,1:1\t0\n")
        assert code == 2 and out == ""
        assert err == f"error: coloring table line {line!r} is not KEY<TAB>COLOR\n"


def test_relation_table_line_needs_exactly_one_tab(tmp_path):
    # (file line, the line as reported: read_lines strips the trailing tab)
    for line, shown in (("0:1", "0:1"), ("0:1\t", "0:1"), ("1:1\t2:1\t0:1", "1:1\t2:1\t0:1"),
                        ("0:1\t\t1:1", "0:1\t\t1:1")):
        table = tmp_path / "relation.txt"
        table.write_text(f"0:1\t1:1\n{line}\n")
        argv = ["classify", "--k", "1", "--nmax", "4", "--relation", f"table:{table}", "--m", "2"]
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err == f"error: relation table line {shown!r} is not ELEMENT<TAB>ELEMENT\n"


def test_coloring_table_colors_are_checked_off_the_window_too(tmp_path):
    # the key 1:1,0:1 is no element of the window, so totality never reads
    # it; its color is still refused
    code, out, err = gowers_with_table(tmp_path, "0:1\t0\n0:1,1:1\t0\n1:1\t1\n1:1,0:1\t5\n")
    assert code == 2 and out == ""
    assert err == "error: color 5 for '1:1,0:1' outside 0..1\n"
    code, out, _ = gowers_with_table(tmp_path, "0:1\t0\n0:1,1:1\t0\n1:1\t1\n1:1,0:1\t1\n")
    assert code == 0 and "found = true" in out


def test_json_text_equivalence():
    corpus = [
        ["span", "--k", "1", "--nmax", "2", "0:1;1:1"],
        ["member", "--k", "2", "1:2", "--in", "0:2,1:1;3:2"],
        ["tetris", "--k", "2", "--j", "1", "0:2,1:1"],
        ["gowers", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--m", "2"],
        ["gowers-verify", "--k", "1", "--nmax", "2", "--m", "2"],
        ["ramsey2", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--n", "2", "--m", "2"],
        ["forcing", "--k", "1", "--nmax", "4", "--family", "all_singletons", "0:1;1:1;2:1;3:1"],
        ["galvin", "--k", "1", "--nmax", "6", "--family", "min_even_first", "--m", "2"],
        ["classify", "--k", "1", "--nmax", "6", "--relation", "full", "--m", "2"],
        ["sos", "--k", "2", "0:1,1:2,2:1"],
        ["tk", "2"],
        ["mu", "--k", "1", "0:1;2:1"],
        ["theta", "--k", "2", "0:0,2:1"],
        ["theta-inv", "--k", "2", "0:2,2:1"],
        ["kfor", "3/4"],
    ]
    for argv in corpus:
        code_t, text, _ = invoke(argv)
        code_j, js, _ = invoke(argv + ["--json"])
        assert code_t == code_j
        assert render_text(json.loads(js)) == text, argv


def test_threads_byte_identical_quick():
    argv = ["galvin", "--k", "1", "--nmax", "6", "--family", "support_ge:2", "--m", "2"]
    _, a, _ = invoke(argv + ["--threads", "1"])
    _, b, _ = invoke(argv + ["--threads", "8"])
    assert a == b


@pytest.mark.parametrize(
    "argv, name",
    [
        (["kfor", "1/0"], "epsilon"),
        (["theta", "--k", "2", "--delta", "1/0", "0:0,2:1"], "delta"),
        (["theta-inv", "--k", "2", "--delta", "1/0", "0:2,2:1"], "delta"),
    ],
    ids=["kfor", "theta", "theta-inv"],
)
def test_zero_denominator_is_an_input_error(argv, name):
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {name} '1/0' has a zero denominator\n"


def test_rational_exponent_is_bounded_before_the_power_is_built():
    start = time.perf_counter()
    code, out, err = invoke(["theta", "--k", "2", "--delta", "1e-999999999", "0:0,2:1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: delta '1e-999999999' has an exponent beyond 4299\n"
    code, out, err = invoke(["kfor", "1E+4_300"])
    assert (code, out) == (2, "")
    assert err == "error: epsilon '1E+4_300' has an exponent beyond 4299\n"
    code, out, _ = invoke(["theta", "--k", "2", "--delta", "25e-2", "0:0,2:1"])
    assert code == 0 and 'delta = "1/4"' in out
    code, out, _ = invoke(["theta", "--k", "2", "--delta", "1e-4299", "0:0,2:1"])
    assert code == 0 and f'delta = "1/1{"0" * 4299}"' in out


def test_span_refuses_a_huge_span_before_building_it():
    seq = ";".join(f"{i}:1" for i in range(60))
    start = time.perf_counter()
    code, out, err = invoke(["span", "--k", "1", "--nmax", "60", seq])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: the span of 60 blocks at k=1 has more than 1048576 elements\n"


def test_span_bound_is_the_exact_span_size(monkeypatch):
    argv = ["span", "--k", "2", "--nmax", "6", "0:2;1:1,2:2;4:2"]  # 3^3 - 2^3 = 19 elements
    monkeypatch.setattr(core, "SPAN_MAX_ELEMENTS", 19)
    code, out, _ = invoke(argv)
    assert code == 0 and len(out.splitlines()) == 1 + 19
    monkeypatch.setattr(core, "SPAN_MAX_ELEMENTS", 18)
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err == "error: the span of 3 blocks at k=2 has more than 18 elements\n"


def test_span_checks_its_size_then_the_window():
    # 21 blocks past n_max=2: the size bound speaks first
    seq = ";".join(f"{i}:1" for i in range(21))
    code, out, err = invoke(["span", "--k", "1", "--nmax", "2", seq])
    assert (code, out) == (2, "")
    assert err == "error: the span of 21 blocks at k=1 has more than 1048576 elements\n"
    code, out, err = invoke(["span", "--k", "1", "--nmax", "2", "0:1;5:1"])
    assert (code, out) == (2, "")
    assert err == "error: block sequence 0:1;5:1 has support past window n_max=2\n"


SEQ21 = ";".join(f"{i}:1" for i in range(21))


@pytest.mark.parametrize("argv", [
    ["gowers", "--k", "1", "--nmax", "21", "--coloring", "const:0", "--m", "1"],
    ["gowers", "--k", "2", "--nmax", "13", "--coloring", "const:0", "--m", "1"],
    ["gowers", "--k", "1", "--nmax", "1000000", "--coloring", "table:{empty}", "--m", "1", "0:1"],
    ["ramsey2", "--k", "1", "--nmax", "21", "--coloring", "size_mod", "--n", "2", "--m", "3"],
    ["ramsey2", "--k", "1", "--nmax", "21", "--coloring", "table:{pairs}", "--n", "2", "--m", "3"],
    ["galvin", "--k", "1", "--nmax", "21", "--family", "empty", "--m", "2"],
    ["classify", "--k", "1", "--nmax", "21", "--relation", "size_parity", "--m", "2"],
    ["forcing", "--k", "1", "--nmax", "21", "--family", "empty", SEQ21],
    ["top-member", "--k", "1", "--nmax", "21", "--family", "{family}", "--len", "2", SEQ21],
    ["diagonal", "--k", "1", "--nmax", "21", "--chain", "{chain}"],
], ids=["gowers", "gowers-k2", "gowers-table", "ramsey2", "ramsey2-table", "galvin", "classify", "forcing",
        "top-member", "diagonal"])
def test_every_command_refuses_a_span_over_the_bound_at_once(tmp_path, argv):
    # the one span bound of core: gowers --nmax 21 took seconds and half a
    # GiB for one node before every command shared span's check; an element
    # table's totality check walked the window's elements until the first
    # missing key, 50 ms per table line at nmax = 10^6
    files = {"pairs": "0:1;1:1\t0\n", "family": "0:1;1:1\n", "chain": SEQ21 + "\n", "empty": ""}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: tmp_path / name for name in files}) for arg in argv]
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 1.0
    # the ambient is the window's nmax generators, or as many listed blocks
    k, n = argv[argv.index("--k") + 1], argv[argv.index("--nmax") + 1]
    assert (code, out) == (2, "")
    assert err == f"error: the span of {n} blocks at k={k} has more than 1048576 elements\n"


@pytest.mark.parametrize("argv", [
    ["gowers", "--k", "1", "--nmax", "1000000", "--coloring", "const:0", "--m", "1"],
    ["ramsey2", "--k", "1", "--nmax", "1000000", "--coloring", "table:{pairs}", "--n", "2", "--m", "3"],
    ["galvin", "--k", "1", "--nmax", "1000000", "--family", "empty", "--m", "2"],
    ["classify", "--k", "1", "--nmax", "1000000", "--relation", "size_parity", "--m", "2"],
], ids=["gowers", "ramsey2-table", "galvin", "classify"])
def test_a_default_ambient_over_the_bound_is_refused_before_it_is_built(tmp_path, monkeypatch, argv):
    # the window's generators were built, one validated element per position,
    # before the span bound could refuse: 3.2 s and 209 MiB at nmax 10^6
    (tmp_path / "pairs").write_text("0:1;1:1\t0\n")
    argv = [arg.format(pairs=tmp_path / "pairs") for arg in argv]
    built = []
    check = FinkElement.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(FinkElement, "__post_init__", counted)
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 1.0
    k, n = argv[argv.index("--k") + 1], argv[argv.index("--nmax") + 1]
    assert (code, out) == (2, "")
    assert err == f"error: the span of {n} blocks at k={k} has more than 1048576 elements\n"
    assert built == []


def test_span_builds_no_element_per_span_element(monkeypatch):
    # the texts are joined from per-block image texts; only parsing the
    # input validates FinkElements
    built = []
    check = FinkElement.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(FinkElement, "__post_init__", counted)
    seq = ";".join(f"{2 * i}:1" for i in range(12))
    code, out, _ = invoke(["span", "--k", "1", "--nmax", "30", seq])
    assert code == 0 and len(out.splitlines()) == 1 + 4095
    assert len(built) < 100


# sha256 of the stdout of --help ("" is the top level) and of the stderr of
# usage errors at COLUMNS=80, as printed when every query built all 17
# subparsers; the bytes are the same on Python 3.10, 3.11 and 3.12.
HELP_SHA256 = {
    "": "8faffa0b6650e7eb6be50e0e00f6c16608ebeeb2423a57a7f788cc3653710e78",
    "span": "1279fe0fd29277187ab5099e8277d085c0656bb1b07ded52be0a8173b128e34e",
    "member": "5ae618e31028d74b7e192b9242b5e5e0b40e2814c50e3d6e2e4bdf833662f629",
    "tetris": "f3f7a7c8fb1621bdffb3e641c5355c2563fcab7754f7584deea6fa91b26bea93",
    "gowers": "7ac64502dc0c14eea4984f5d4148ce411c734a445508da99f6e60b2d8d94257f",
    "gowers-verify": "717850c48d78a379c7a5c135d87afb5001c8c72f3d614cd438b6d6483571007c",
    "ramsey2": "22d6341abc2c8ff5ccbcc405602d46cdc1a9a120367693869d041f4bb7d57530",
    "forcing": "985f8c55dde6c6030d2eaca92ee1a3f3c6be6243ee0b73239677ba2b2e282811",
    "galvin": "66ca7379c3dc57f056b64463e8009774e51b4abc74108c3d690371b181dae242",
    "classify": "c0a36bc6186458809b1c30e4a98dfebadc31edb91e33a57434859166464992d2",
    "sos": "06b6a05b003a71f7de55ed96f067582f7639bf4dab3dc674a930d0966419d523",
    "tk": "cfb5fbb4b316c0b8bf90177a52a334bf8bd1af71e29d6e7637927d569a3b7a4f",
    "mu": "cb0cebfc8ae84386d110444686f3e70f13c7c806e589bcdaa218fb41516caace",
    "top-member": "3b2b8559dc94801a024cc1b02ef4b3ee2d00a79190180f9fcf09f35843148503",
    "diagonal": "49c2bab10f7ed11e0527046835e21a27e414b28f07d014ac20a32dfb60047cc7",
    "theta": "2494c590a7c617de102c9bc418068fb2cd0f648c1300bccc759e982bd539a83c",
    "theta-inv": "79a8b9a794ff3dd29f2fe9260f403e5778e2c4d89dcf893e5419cbc91af09b13",
    "kfor": "6fdd55b70387450e322174f9e8600c7e97bbe21cc04802ef8a75dc6c7a69566b",
}
USAGE_ERROR_SHA256 = {
    (): "ee0252bf2bb420cea5a8cc2284e41d940ef1e4141667eee720054109a524fbb8",
    ("bogus",): "a2ac4ddc72c2af97a9e24c12d7400d65e0f20f499e80ca73101f3a8e09279c3e",
    ("span", "--bogus"): "22be5501d297753a4ca8f9f9f95e7dc5637cb2c4e0f098ec1ebe0722ce4a8f0c",
    ("span", "--k", "1", "0:1"): "79479d623a32a10cd2b32955062649db4ebf0b498250f5b5281073a9c2546ecc",
    # the top-level usage, listing every command, after one subparser ran
    ("tk", "1", "extra"): "13a2303fe16b609af25a14ce36ddbb79558d7b185692af6494bf38bc8bc0317b",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_help_and_usage_error_bytes_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        code, out, err = invoke([command, "--help"] if command else ["--help"])
        assert (code, err) == (0, "") and _sha256(out) == digest, command
    for argv, digest in USAGE_ERROR_SHA256.items():
        code, out, err = invoke(list(argv))
        assert (code, out) == (2, "") and _sha256(err) == digest, argv


def test_a_query_builds_only_its_own_subparser(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    monkeypatch.setattr(cli, "_PARSERS", {})
    assert invoke(["tk", "1"])[0] == 0
    assert built == ["tk"]
    built.clear()
    assert invoke(["--help"])[0] == 0
    assert built == [name for name in HELP_SHA256 if name]
    built.clear()
    # the tk parser is kept from the first query
    assert invoke(["tk", "1"])[0] == 0
    assert built == []


def test_a_kept_parser_answers_as_a_fresh_one(monkeypatch):
    gowers = ["gowers", "--k", "1", "--nmax", "8", "--coloring", "size_mod", "--m", "3"]
    span = ["span", "--k", "2", "--nmax", "4", "0:2;1:1,2:2"]
    fresh = {}  # each query on an empty table
    for first, second in (([*span, "--json"], span), ([*gowers, "--r", "3"], gowers)):
        for argv in (first, second):
            monkeypatch.setattr(cli, "_PARSERS", {})
            fresh[tuple(argv)] = invoke(argv)
        assert fresh[tuple(first)] != fresh[tuple(second)]
        monkeypatch.setattr(cli, "_PARSERS", {})
        assert invoke(first) == fresh[tuple(first)]
        # a usage error on the same parser, between the two queries
        code, out, err = invoke([*first, "--bogus"])
        assert (code, out) == (2, "") and "unrecognized arguments: --bogus" in err
        assert invoke(second) == fresh[tuple(second)]
        assert list(cli._PARSERS) == [first[0]]


def test_help_and_an_unknown_name_share_one_parser(monkeypatch):
    monkeypatch.setattr(cli, "_PARSERS", {})
    built = []
    build_parser = cli.build_parser

    def counting_build_parser(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert invoke(["--help"])[0] == 0
    assert invoke(["bogus"])[0] == 2
    assert invoke([])[0] == 2
    assert invoke(["--json"])[0] == 2
    assert built == [None] and list(cli._PARSERS) == [None]


def test_help_width_is_read_when_help_is_printed(monkeypatch):
    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setenv("COLUMNS", "200")
    wide = {command: invoke([command, "--help"] if command else ["--help"])[1] for command in HELP_SHA256}
    assert _sha256(wide[""]) != HELP_SHA256[""]
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        code, out, err = invoke([command, "--help"] if command else ["--help"])
        assert (code, err) == (0, "") and _sha256(out) == digest, command
    assert set(cli._PARSERS) == set(cli._COMMANDS) | {None}


def test_python_dash_m_finkit():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "finkit", "tk", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "619\nk = 3\n")


def test_importing_the_cli_loads_finkit_and_the_standard_library_only():
    # sys.modules is compared before and after, since site may import
    # third-party modules (a .pth file) before any finkit code runs
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import finkit.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    ours = [name for name in loaded if name.partition(".")[0] == "finkit"]
    assert ours == ["finkit", *(f"finkit.{name}" for name in (
        "canonical", "cli", "coideals", "core", "forcing", "gowers", "net"))]
    others = {name.partition(".")[0] for name in loaded} - {"finkit"}
    assert others <= sys.stdlib_module_names, sorted(others - sys.stdlib_module_names)
    # no class is generated at import: the records are written out by hand
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def _closed_pipe_run(mode, unbuffered, read_first_line):
    """Run a large span query as a process whose stdout reader leaves early:
    after one line, or before anything is written."""
    seq = ";".join(f"{i}:1" for i in range(16))
    argv = [sys.executable, "-m", "finkit", "span", "--k", "1", "--nmax", "16", *mode, seq]
    # buffered stdout, as a plain python run has it, or unbuffered as under -u
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(SRC)
    if read_first_line:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), line, err
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, None, proc.stderr


@pytest.mark.parametrize(
    "mode, unbuffered",
    [((), False), (("--json",), False), ((), True), (("--json",), True)],
    ids=["text", "json", "text-unbuffered", "json-unbuffered"],
)
def test_a_closed_pipe_exits_quietly_with_one_code(mode, unbuffered):
    # unbuffered text mode used to lose the rest of a short write and exit 0
    code, line, err = _closed_pipe_run(mode, unbuffered, read_first_line=True)
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, b"")
    assert line == (b"{\n" if mode else b"# window k=1 n_max=16 len_max=16\n")
    closed = _closed_pipe_run(mode, unbuffered, read_first_line=False)
    assert closed[::2] == (cli.EXIT_BROKEN_PIPE, b"")


# Every command"s report, with each miss branch: (exit code, sha256 of the
# text stdout, sha256 of the --json stdout), as printed when every handler
# wrote its own "command" and "window" keys.  The files named here are read
# from the working directory, so no report echoes a temporary path.
REPORT_FILES = {
    "family.txt": "0:1,1:1\n",
    "base.txt": "0:1;2:1;4:1\n",
    "chain.txt": "0:1;1:1;2:1;3:1\n0:1;1:1;2:1;3:1\n",
    "chain2.txt": "3:1\n3:1\n3:1\n",
}
S4 = "0:1;1:1;2:1;3:1"
REPORT_SHA256 = {
    ("span", "--k", "2", "--nmax", "4", "0:2;1:1,2:2"): (
        0, "1b4f9077a6a515a0e8b0fb648535666c782d4a34b39e49ec44fca5003c10ea70",
        "25d6e79bff6e6b5aab8241f6b14ef9ee52765f573bb55a5d0ba689f54b173f82",
    ),
    ("member", "--k", "2", "0:1,3:2", "--in", "0:2,1:1;3:2"): (
        0, "21e95bcc520bc8159f5255b144adc217ad59f82f297f55575a278feea233719c",
        "5d102c31469d3e4e647976aa4835391c2a5e9468e0cf96b8d6d9990f5eefd74f",
    ),
    ("member", "--k", "2", "1:2", "--in", "0:2,1:1;3:2"): (
        1, "0642edaa364f7582b8490995876262fda45e344ed670359b867a9ace1fc4abb5",
        "0a886da3c0b5a555a2cabf3c6e848de211cff5da3ddd50c1790ab372a1e3dab7",
    ),
    ("tetris", "--k", "2", "0:2,1:1"): (
        0, "26a9922f87a2f541bd9fd379fdc8e41a7a563eadbf0c292aed69e21299204f26",
        "015f6a2979b98ce57e44e99fe0c9e29346cf0b76c1b61d2b64e386b98dc3bb56",
    ),
    ("tetris", "--k", "2", "--j", "2", "3:2"): (
        0, "9d94177083a756242bfa947ee784a6bf9f06f11e40aa89c0ac796ca8d6d16ed2",
        "ddefd4f5c9871537afb78c55b4e09830b8e69be6494adb562ef0360058f193bc",
    ),
    ("gowers", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--m", "2"): (
        0, "3ab19e69431d5fe844d85cd5697faa4951a357f4c4ee9bd5d8bf03222be798e4",
        "68f0b8ea96c7b17431025a4a4200808d92ba7b720b3fd52d9bf457376c67b631",
    ),
    ("gowers", "--k", "1", "--nmax", "2", "--coloring", "min_mod", "--m", "2"): (
        1, "225def020869ec69cb25e404419b7a3f8e02077b9fdc6df3a340b5356658ba43",
        "c63e32a65b70abf4fa8eef5403d7c8ff57300ddd1f0a470db6c29c91bfcadf89",
    ),
    ("gowers", "--k", "2", "--nmax", "4", "--lenmax", "2", "--coloring", "max_mod", "--m", "1", "0:2;1:1,2:2"): (
        0, "9604a037396cfbd0577fbe82d2bbbd59d56fc7ab2bb125387e8108a3eff47ee7",
        "dd6fcf46b12bf331c6b08ef05761ce4fe26d41ed656eb9cf564270f7573f7675",
    ),
    ("gowers-verify", "--k", "1", "--nmax", "1", "--m", "1"): (
        0, "647c6f827aaefced26e547ac80b1bd34c5c3fb39f7ab65d5594918d773f8194a",
        "69d1a3685567f83223fd4cf310708ad098c39a47213d492cd4d3a68d8157b69f",
    ),
    ("gowers-verify", "--k", "1", "--nmax", "2", "--m", "2"): (
        1, "0e4205aa36776d317a32b64b291e3c22a6e86428efaa17bebb84fbd6455825dc",
        "0b269423b88a4f6a47915956732a17fb553b5d6729b23a2a2a888c40d0581243",
    ),
    ("ramsey2", "--k", "1", "--nmax", "4", "--coloring", "size_mod", "--n", "2", "--m", "2"): (
        0, "0f3ddc4728e01233b72532ea9311a7cba93d787d46edf27fb6340628a24ea8c4",
        "b450ba17ab13a1527d9ee93c794fcae366167af158d98c63bb34adcf48f00db9",
    ),
    ("ramsey2", "--k", "1", "--nmax", "5", "--coloring", "size_mod", "--r", "3", "--n", "2", "--m", "3"): (
        1, "118019e36276832fb6243d1cea7fc612787bce803bc91f4974ce0cc17465113f",
        "144d215782b23960309f9537be4944ae6645614f6150b05b1c735b18d651803f",
    ),
    ("forcing", "--k", "1", "--nmax", "4", "--family", "all_singletons", S4): (
        0, "3ec19a06e1b6a0f0176ac325ac2ce537a3d4e6f9d173be097aea395b4e3fc4ab",
        "e45868fbe698755793efe0d14ead8d4e8bc1b4310c0fe7ebfcd1a4f74c132834",
    ),
    ("forcing", "--k", "1", "--nmax", "4", "--family", "empty", S4): (
        0, "4656264c90865d07d6a2169286fad5878cace4da3116045aeb516f6e788a167d",
        "9a5c7a660960b0d10cd3d1196f7c571dd890b71ba61bce08465f56028ba95c05",
    ),
    ("forcing", "--k", "1", "--nmax", "4", "--family", "explicit:family.txt", S4): (
        1, "c732a6b17068e5c1565b1b92eb5ed279848352a0d6bd02756298a9f4b9e5f4a9",
        "0262696ab46e4fecd414e6674647b331262daf5c487fa6643bb4f374dcef7522",
    ),
    ("forcing", "--k", "1", "--nmax", "4", "--family", "support_ge:2", "--min-len", "2", S4): (
        1, "97e89b1a0fe22add227ae1d3001e841391b9561659e3e8bf22adc99786ce00a9",
        "3c080fac5bddead006454b121c0e5d1d775cb141faf1c0bcede600079626404e",
    ),
    ("galvin", "--k", "1", "--nmax", "6", "--family", "min_even_first", "--m", "2"): (
        0, "f0070eb0ac04aec8b9995d9531edec5352b086dfc22a27a1a29c5d98cd400f04",
        "3bf3d71265af8440dcc33e071fa92ed7b3048b41d76136ac962b92d698c61142",
    ),
    ("galvin", "--k", "1", "--nmax", "8", "--family", "support_ge:3", "--m", "3"): (
        1, "8869142eb037aee95819aadccf927bd5918a33c0cea24050713c05b7194eb7f3",
        "a0674c541579542198cff9cb3319272bfa175cbd7892d8a72d388394690f4825",
    ),
    ("classify", "--k", "1", "--nmax", "6", "--relation", "size_parity", "--m", "2"): (
        0, "6587b8edc0514598a91b2bfc50e72129ef1513c31d8e8bbc7162829ac80b44fe",
        "bb6a83083cba8ddf848c02f75453bcd5580cb02c849bb8cfcff75f683d82da71",
    ),
    ("classify", "--k", "2", "--nmax", "6", "--relation", "full", "--m", "2"): (
        0, "687b1a8d6bb4c4807876b0caac5875c6c82f0f844fd471ea69c20a4f8fcaecde",
        "0a1b9d5bae936a3400e59d19edefb53388ed38d2a0d349bc5e90a1ea8051c53b",
    ),
    ("classify", "--k", "2", "--nmax", "5", "--relation", "size_parity", "--m", "2"): (
        1, "48773c807c5efc37e722e602ab1acbaaa6b4fe109d4d82d408cd8fbb036434df",
        "65c9c014aac6d9d20d18ce226e41a2e50db96011d63556e9b8b52f0ed635f825",
    ),
    ("sos", "--k", "2", "0:1,1:2,2:1"): (
        0, "622f12d9c94ae06aaf56a4c804d24e80deb7e02b56cf516ffd33fb0df61ca424",
        "8aaff38dae5c97d29a06ef3f03b3c80829eec796e152d3131bf906e76d91b17d",
    ),
    ("sos", "--k", "2", "--zero-convention", "first-zero", "0:1,1:2,2:1"): (
        1, "9db8bd4d60fd7c1a9c3aac6fe27f20b8439dea1131c23c6c529a434ba77f7fc7",
        "8f9224208731958a25f8771916e12a77f2e9bf4f725380aa6eaee87bc46c7553",
    ),
    ("sos", "--k", "2", "0:2"): (
        1, "7a99cb02d3ac4722f724164bc7f91842b084eb63720e61316857f6deb29b6071",
        "555bd0d5ae01a2de599ad6cfb184d6abe5b44546c371eb32ff6beeb862673c55",
    ),
    ("tk", "3"): (
        0, "ecea9559d4a8514676d5142a683aed7241728b79a673039f6d8fdf75c0da9c56",
        "fcf1b311d544693c08065416e63ee26e1fbd678456c05c9646c1cf2527153354",
    ),
    ("mu", "--k", "2", "0:2,1:1;3:2,4:2"): (
        0, "650c765e22989e4bf94d7ea88cb5a1eef5f88bd28430c9e0682ff60c28330bd5",
        "fd88b01a72cfcc5f656f510328ccfbf103d15701d4341890c9cd2c7a88702972",
    ),
    ("mu", "--k", "1", ""): (
        0, "ccdfce81eaad04f894c7be765b19c9ee03fa664e7d168f4055914781d0c68c0e",
        "1ecfa875c1699bbe8d0d002b00be8f169fcc46016a6902474898c42f2cd5a361",
    ),
    ("top-member", "--k", "1", "--nmax", "6", "--family", "base.txt", "--len", "2", "0:1;1:1;2:1;3:1;4:1;5:1"): (
        0, "051ee2ab60ecf92ffc3654dc972667af77eb77620c4e9544df6f851a057eaa67",
        "4199f083cbbb88b079219d03795c2aca72f0f53cb84bb0fa6589829f34053ef6",
    ),
    ("top-member", "--k", "1", "--nmax", "6", "--family", "base.txt", "--len", "4", "0:1;1:1;2:1;3:1;4:1;5:1"): (
        1, "81eb40042eb459891904f65f1bb24b01c945f57da97c3a80fa7b0036e8c69b86",
        "83431cecc33029d053b0ab7fac9a51e97e06cb5708abbbb3e2c672a14b62b24a",
    ),
    ("diagonal", "--k", "1", "--nmax", "4", "--chain", "chain.txt"): (
        0, "35e76833d87c78e1c310e16d0d8a359e31cfd241e39f059ef3ffd57db43e3faa",
        "0ae2ead0d85bc381001720cc82be6b9c23732a05a8824d3e42d3201d3eabfc58",
    ),
    ("diagonal", "--k", "1", "--nmax", "4", "--chain", "chain2.txt"): (
        1, "db8e36743f4548dea8f95bc1c112e5c469c36cc5d45f6ee9d94d1b8ab2ab0c90",
        "ceb45a161ff46bf1cdd2323fb495957cd12561c4191fd587aa428d6457510c27",
    ),
    ("theta", "--k", "2", "--delta", "1/4", "0:0,2:1"): (
        0, "ed6876b73794967941a9a02b9268cfd7f2973c3d1caa69d40ee53376f0bea3d0",
        "3fbb9997d4630b755755d305f8c2850d0b31eb6d5a61a830b887cdf6040365ef",
    ),
    ("theta-inv", "--k", "2", "0:2,2:1"): (
        0, "1664d7fe8484b54da4f9c536332ef199806b90f5ecec4826bded160cf0e683fd",
        "b8ca571733da1a39d3b96fa41b9fd87095abd4b54183a56a109ea1705fe2a824",
    ),
    ("kfor", "3/4"): (
        0, "8e168ba367b15898e4aa7263d882d42be0e28b8802d3a9c04f4c234108961751",
        "2b0c33055471c12ddfa2dc857da67f9d18b29636c892ad0a9f5b6066ab5d9866",
    ),
}


def test_report_bytes_and_exit_codes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in REPORT_FILES.items():
        (tmp_path / name).write_text(text)
    for argv, (code, text_digest, json_digest) in REPORT_SHA256.items():
        for mode, digest in (((), text_digest), (("--json",), json_digest)):
            got, out, err = invoke([*argv, *mode])
            assert (got, err, _sha256(out)) == (code, "", digest), (argv, mode)


def _set_collector(on):
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """The collector's state when run is called; the earlier one is restored."""
    was = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(was)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["tk", "3"], 0),
        (["sos", "--k", "2", "0:2"], 1),
        (["tk", "1000000000"], 2),
        (["tk", "--bogus"], 2),
    ],
)
def test_run_restores_the_collector_state(argv, code, collecting):
    # the handler runs with the collector paused; the state before run is the
    # state after it, and a caller that disabled the collector keeps it off
    assert invoke(argv)[0] == code
    assert gc.isenabled() is collecting


def test_run_restores_the_collector_state_when_a_handler_raises(monkeypatch, collecting):
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    monkeypatch.setitem(cli._COMMANDS, "tk", cli._COMMANDS["tk"]._replace(handler=handler))
    with pytest.raises(RuntimeError, match="^handler failed$"):
        run(["tk", "3"])
    assert seen == [False] and gc.isenabled() is collecting


def test_a_query_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    # why pausing the collector is safe: no pinned line of any command, and
    # no refusal, makes anything that only the cyclic collector could free.
    # The first round builds the parsers, whose argparse formatters are
    # cyclic.  Text mode only: --json renders with json's indenting encoder,
    # whose closures are cyclic, but it runs after the handler, with the
    # collector restored.
    monkeypatch.chdir(tmp_path)
    for name, text in REPORT_FILES.items():
        (tmp_path / name).write_text(text)
    lines = {argv: code for argv, (code, _, _) in REPORT_SHA256.items()}
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    lines[("tk", "1000000000")] = 2
    lines[("diagonal", "--k", "1", "--nmax", "4", "--chain", "missing.txt")] = 2
    was = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            gc.collect()
            for argv, code in lines.items():
                assert invoke(list(argv))[0] == code, argv
        assert gc.collect() == 0
    finally:
        _set_collector(was)


# -- the grammar fuzzer ---------------------------------------------------------
# Command lines drawn from the command table itself: each option of each
# command gets a value by its argparse declaration (an int, a choice, a flag)
# or, for a text option, by its dest, so a new option is fuzzed as soon as
# it is declared.  Bounds: k in 0..3; nmax in 1..8 at k <= 1, 1..6 at k = 2
# and 1..5 at k = 3, where the slowest line, forcing --family empty over the
# window's generators, takes 0.1-0.2 s (0.9 s at k = 2, nmax 7, and 0.7 s
# at k = 3, nmax 6); every other int in -1..4; budgets up to 2^20.

_FUZZ_NMAX = {0: 8, 1: 8, 2: 6, 3: 5}
_FUZZ_FILES = {
    "coloring.tsv": "".join(f"{','.join(f'{p}:1' for p in range(8) if mask >> p & 1)}\t{mask % 2}\n"
                            for mask in range(1, 2**4)),
    "family.txt": "0:1\n0:1;1:1\n1:1,2:1\n",
    "relation.tsv": "0:1\t1:1\n1:1,2:1\t2:1\n0:1\n",
    "chain.txt": "0:1;1:1;2:1;3:1\n1:1;2:1;3:1\n",
    "chain2.txt": "0:2;1:1,2:2;3:2\n1:1,2:2;3:2\n",
}
_FUZZ_TEXTS = {
    "coloring": ["const:0", "const:1", "const:5", "const", "min_mod", "max_mod", "size_mod",
                 "size_mod:1", "value_at:1", "value_at:-1", "table:coloring.tsv",
                 "table:relation.tsv", "table:missing.tsv", "func", "wat"],
    "family": ["empty", "all_singletons", "min_even_first", "support_ge:2", "support_ge",
               "explicit:family.txt", "explicit:missing.txt", "family.txt", "empty:1", "wat"],
    "relation": ["equality", "full", "size_parity", "min_level:1", "max_level:2",
                 "minmax_level:1", "min_level:0", "min_level", "table:relation.tsv",
                 "table:family.txt", "equality:1", "wat"],
    "chain": ["chain.txt", "chain2.txt", "family.txt", "missing.txt"],
    "top-member family": ["family.txt", "chain.txt", "missing.txt", "empty"],
    "delta": ["1/2", "1/3", "3/4", "1", "0", "-1", "1e-3", "1/0", "x"],
    "epsilon": ["1", "3/4", "1/200", "0", "-1", "1e-3", "1/0", "x"],
    "netfn": ["0:0,2:1", "0:1", "1:0", "0:0,1:1,3:0", "0:2", "x", ""],
}


@st.composite
def _fuzz_seq(draw, k, nmax, blocks=True):
    """A sequence text (one element unless blocks): a value in 0..k per
    position up to one past the window, cut into blocks before the marked
    positions.  Each block's largest value is raised to k unless the draw
    spoils it; a block that misses k, or a stray position, is an input error."""
    cells = draw(st.lists(st.tuples(st.sampled_from(range(k + 1)), st.booleans()), max_size=nmax + 1))
    spoil = draw(st.sampled_from((False,) * 4 + (True,)))
    parts: list = [[]]
    for pos, (value, cut) in enumerate(cells):
        if cut and blocks and parts[-1]:
            parts.append([])
        if value:
            parts[-1].append([pos, value])
    for part in parts:
        if part and not spoil:
            max(part, key=lambda pair: pair[1])[1] = k
    return ";".join(",".join(f"{p}:{v}" for p, v in part) for part in parts if part)


@st.composite
def _command_line(draw, name):
    k = draw(st.sampled_from((1, 2, 1, 3, 2, 1, 0)))
    nmax = draw(st.sampled_from(range(1, _FUZZ_NMAX[k] + 1)))
    argv = [name]
    for flags, kwargs in cli._COMMANDS[name].args:
        flag = flags[0]
        positional = not flag.startswith("-")
        required = kwargs.get("required", positional and kwargs.get("nargs") != "?")
        # a required option is left out now and then, for argparse's refusal
        if not draw(st.sampled_from((True,) * 19 + (False,)) if required else st.booleans()):
            continue
        dest = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
        if kwargs.get("action") == "store_true":
            argv.append(flag)
            continue
        if "choices" in kwargs:
            value = draw(st.sampled_from([*kwargs["choices"], "wat"]))
        elif kwargs.get("type") is int:
            value = str({"k": k, "nmax": nmax}.get(dest, draw(
                st.integers(1, 2**20) if dest == "budget" else st.sampled_from((1, 2, 3, 4, 2, 0, -1)))))
        elif dest in ("seq", "stem"):
            value = draw(_fuzz_seq(max(k, 1), nmax))
        elif dest == "element":
            value = draw(_fuzz_seq(max(k, 1), nmax, blocks=False))
        else:
            texts = _FUZZ_TEXTS.get(f"{name} {dest}", _FUZZ_TEXTS.get(dest))
            value = draw(st.text("0123456789:,;-x", max_size=8) if texts is None else st.sampled_from(texts))
        argv += [value] if positional else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in _FUZZ_FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_cli_grammar_holds_on_drawn_command_lines(fuzz_files, name, data):
    argv = data.draw(_command_line(name))
    cwd = os.getcwd()
    os.chdir(fuzz_files)
    try:
        text = invoke([arg for arg in argv if arg != "--json"])
        as_json = invoke([arg for arg in argv if arg != "--json"] + ["--json"])
    finally:
        os.chdir(cwd)
    for code, out, err in (text, as_json):
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "", argv
            assert re.fullmatch(r"error: [^\n]*\n", err) or (
                err.startswith("usage: finkit") and re.search(r"\nfinkit[^\n]*: error: [^\n]*\n\Z", err)), argv
        else:
            assert err == "", argv
    # both modes reach the same outcome and carry the same fields: one
    # "key = JSON value" line each, unless the command lays out its own text
    assert text[0] == as_json[0] and text[2] == as_json[2], argv
    if text[0] == 2:
        return
    report = json.loads(as_json[1])
    assert report.pop("command") == name, argv
    lines = text[1].splitlines()
    if "window" in report:
        assert lines.pop(0) == "# window k={k} n_max={n_max} len_max={len_max}".format(**report.pop("window"))
    if cli._COMMANDS[name].text is None:
        assert lines == [f"{key} = {json.dumps(value)}" for key, value in report.items()], argv
    else:
        assert lines == cli._COMMANDS[name].text(report), argv
