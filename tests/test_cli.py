import argparse
import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from finkit import parse_element, t_count
from finkit.cli import TK_MAX_K, _cmd_tk, render_text, run


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


def test_gowers_verify_reports():
    code, out, _ = invoke(["gowers-verify", "--k", "1", "--nmax", "1", "--m", "1"])
    assert code == 0 and "holds = true" in out
    code, out, _ = invoke(["gowers-verify", "--k", "1", "--nmax", "2", "--m", "2"])
    assert code == 1 and "failing_coloring:" in out


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
