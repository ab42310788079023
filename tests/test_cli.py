"""CLI exit codes, report schema, determinism and replay."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from tvcat import cli
from tvcat.cli import main
from tvcat.quantale import godel_chain, lukasiewicz


@pytest.fixture
def luk3_file(tmp_path):
    p = tmp_path / "luk3.json"
    p.write_text(json.dumps(lukasiewicz(3).to_dict()))
    return str(p)


@pytest.fixture
def chain2_file(tmp_path):
    p = tmp_path / "chain2.json"
    p.write_text(json.dumps({
        "quantale": "two", "monad": "identity", "carrier": ["a", "b"],
        "structure": {"a;a": "1", "b;b": "1", "a;b": "1"}}))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_quantale_check_pass(capsys):
    code, out = run(capsys, ["quantale", "check", "two", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_quantale_check_file(capsys, luk3_file):
    code, out = run(capsys, ["quantale", "check", luk3_file])
    assert code == 0


def test_unknown_quantale_is_usage_error(capsys):
    for spec in ("definitely_not_a_quantale", "two:3", "lukasiewicz"):
        assert main(["quantale", "check", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["nosuch", "labelled:z3", "identity:junk",
                                  "finite_ultrafilter:9"])
@pytest.mark.parametrize("argv", [["monad", "check"],
                                  ["theory", "check-assumptions", "--quantale",
                                   "two", "--monad"]], ids=["monad", "theory"])
def test_unknown_monad_is_usage_error(capsys, argv, spec):
    # a parameter the monad does not take is refused, not ignored
    assert main(argv + [spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_extension_over_a_non_absorbing_bottom_is_usage_error(capsys, tmp_path):
    # the join as tensor, with unit 0: 1 (x) 0 = 1 breaks tensor-bottom, the
    # one quantale law it fails, which the lax extension needs
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"elements": ["0", "1"], "order": [["0", "1"]],
                             "tensor": {"0,0": "0", "0,1": "1", "1,1": "1"},
                             "unit": "0"}))
    assert main(["theory", "check-assumptions", "--quantale", str(p),
                 "--monad", "word:2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tensor-bottom" in err
    # the quantale check builds no extension and names the law with a witness
    code, out = run(capsys, ["quantale", "check", str(p), "--format", "json"])
    assert code == 1
    rep = json.loads(out)["reports"][0]
    assert (rep["law"], rep["witness"]) == ("tensor-bottom", ["1"])


@pytest.mark.parametrize("elements,order", [
    ("0ab", ["0a", "0b"]),
    ("ab1", ["a1", "b1"]),
    # a and b have the two least upper bounds c and d
    ("0abcd1", ["0a", "0b", "ac", "ad", "bc", "bd", "c1", "d1"]),
], ids=["no-top", "no-bottom", "bowtie"])
def test_non_lattice_order_is_usage_error(capsys, tmp_path, elements, order):
    p = tmp_path / "q.json"
    p.write_text(json.dumps({
        "elements": list(elements), "order": [list(pair) for pair in order],
        "tensor": {"%s,%s" % (u, v): elements[0]
                   for u in elements for v in elements},
        "unit": elements[0]}))
    assert main(["quantale", "check", str(p)]) == 2
    assert capsys.readouterr().err == "error: order is not a lattice\n"


def test_malformed_json_is_usage_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert main(["cat", "check", str(p)]) == 2


def test_theory_failure_exit_and_witness(capsys, luk3_file):
    code, out = run(capsys, ["theory", "check-assumptions", "--quantale",
                             luk3_file, "--monad", "word:2",
                             "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    rep = payload["reports"][0]
    assert rep["status"] == "fail"
    assert "witness" in rep
    assert not rep["details"]["verdicts"]["scalar_tensor"]


def test_theory_pass(capsys):
    code, _ = run(capsys, ["theory", "check-assumptions", "--quantale", "two",
                           "--monad", "identity"])
    assert code == 0


def test_replay_reproduces_witness(capsys, luk3_file):
    _, out = run(capsys, ["theory", "check-assumptions", "--quantale",
                          luk3_file, "--monad", "word:2", "--format", "json"])
    witness = json.loads(out)["reports"][0]["witness"]
    code, out = run(capsys, ["theory", "check-assumptions", "--quantale",
                             luk3_file, "--monad", "word:2", "--format",
                             "json", "--replay", json.dumps(witness)])
    assert code == 0
    assert json.loads(out)["replay"]["reproduced"] is True
    code, _ = run(capsys, ["theory", "check-assumptions", "--quantale",
                           luk3_file, "--monad", "word:2",
                           "--replay", json.dumps(["other"])])
    assert code == 1


def test_gallery_run_deterministic_bytes(capsys):
    code, out1 = run(capsys, ["gallery", "run", "--format", "json"])
    assert code == 0
    code, out2 = run(capsys, ["gallery", "run", "--format", "json"])
    assert out1 == out2
    assert json.loads(out1)["matches"] is True


def test_cat_pipeline(capsys, chain2_file, tmp_path):
    # word-monad T-elements over a product carrier are words of pairs
    word = tmp_path / "word.json"
    word.write_text(json.dumps({
        "quantale": "two", "monad": "word:1", "carrier": ["a", "b"],
        "structure": {"a;a": "1", "b;b": "1"}}))
    word = str(word)
    for sub in (["cat", "check", chain2_file],
                ["cat", "dual", chain2_file],
                ["cat", "reflect", chain2_file],
                ["cat", "represent", chain2_file],
                ["cat", "product", chain2_file, chain2_file],
                ["cat", "tensor", chain2_file, chain2_file],
                ["cat", "coproduct", chain2_file, chain2_file],
                ["cat", "product", word, word],
                ["cat", "tensor", word, word],
                ["cat", "coproduct", word, word]):
        code, out = run(capsys, sub + ["--format", "json"])
        assert code == 0, (sub, out)
        assert json.loads(out)["schema"] == 1


def test_exp_and_psh_pipeline(capsys, chain2_file):
    code, out = run(capsys, ["exp", "build", chain2_file, chain2_file,
                             "--format", "json"])
    assert code == 0
    assert json.loads(out)["result"]["carrier_size"] == 3
    code, _ = run(capsys, ["exp", "criterion", chain2_file])
    assert code == 0
    code, out = run(capsys, ["exp", "curry", "--z", chain2_file, "--x",
                             chain2_file, "--y", chain2_file, "--map",
                             '{"a;a":"a","a;b":"b","b;a":"a","b;b":"b"}',
                             "--format", "json"])
    assert code == 0
    for sub in (["psh", "build", chain2_file],
                ["psh", "yoneda", chain2_file],
                ["psh", "injective", chain2_file],
                ["psh", "weak-exp", chain2_file, chain2_file]):
        code, out = run(capsys, sub + ["--format", "json"])
        assert code == 0, (sub, out)


@pytest.mark.parametrize("mismatch", ["quantale", "monad"])
@pytest.mark.parametrize("command", [
    ["cat", "product"], ["cat", "tensor"], ["cat", "coproduct"],
    ["exp", "build"], ["exp", "curry"], ["psh", "weak-exp"]],
    ids=lambda c: " ".join(c))
def test_structure_files_share_quantale_and_monad(capsys, tmp_path, command,
                                                  mismatch):
    # a structure file over two and the identity monad, against one over
    # godel:3 (a quantale mismatch) or over word:2 (a monad mismatch)
    paths = {}
    for name, q, m in (("a", "two", "identity"), ("b", "godel:3", "identity"),
                       ("w", "two", "word:2")):
        p = tmp_path / ("%s.json" % name)
        p.write_text(json.dumps({"quantale": q, "monad": m, "carrier": ["a"],
                                 "structure": {}}))
        paths[name] = str(p)
    other = paths["b" if mismatch == "quantale" else "w"]
    files = [paths["a"], other]
    if command == ["exp", "curry"]:
        files = ["--z", paths["a"], "--x", paths["a"], "--y", other,
                 "--map", '{"a;a": "a"}']
    assert main(command + files) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert mismatch in err


def test_psh_injective_failure_exit(capsys, tmp_path):
    p = tmp_path / "anti.json"
    p.write_text(json.dumps({
        "quantale": "two", "monad": "identity", "carrier": ["a", "b"],
        "structure": {"a;a": "1", "b;b": "1"}}))
    assert main(["psh", "injective", str(p)]) == 1


def test_psh_injective_runs_find_sup_once(capsys, monkeypatch, chain2_file):
    from tvcat import presheaf
    find_sup = presheaf.find_sup
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return find_sup(*args, **kwargs)
    monkeypatch.setattr(cli, "find_sup", recording)
    monkeypatch.setattr(presheaf, "find_sup", recording)
    code, out = run(capsys, ["psh", "injective", chain2_file, "--format", "json"])
    assert code == 0 and "sup" in json.loads(out)
    assert len(calls) == 1


def test_exp_criterion_runs_exponentiability_once(capsys, monkeypatch,
                                                  chain2_file):
    from tvcat import exponential
    check = exponential.check_exponentiability
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)
    monkeypatch.setattr(cli, "check_exponentiability", recording)
    monkeypatch.setattr(exponential, "check_exponentiability", recording)
    code, out = run(capsys, ["exp", "criterion", chain2_file, "--format", "json"])
    assert code == 0
    expo, frame = json.loads(out)["reports"]
    assert frame["check"] == "frame_criterion"
    assert frame["details"]["exponentiability"] == (expo["status"] == "pass")
    assert len(calls) == 1


def test_check_assumptions_guards_word_depth(capsys):
    # T((X x X') x (Y x Y')) under word:5 has 1,118,481 elements
    assert main(["theory", "check-assumptions", "--quantale", "two",
                 "--monad", "word:5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1118481" in err
    assert main(["theory", "check-assumptions", "--quantale", "two",
                 "--monad", "identity", "--guard-size", "15"]) == 2
    capsys.readouterr()


def test_map_keys_with_semicolons_are_read_by_lookup(tmp_path):
    load = cli._load_map
    assert load('{"a;b;c": "y", "d;c": "y"}', ("a;b", "d"), ("c",)) == {
        ("a;b", "c"): "y", ("d", "c"): "y"}
    # ('a;b', 'c') and ('a', 'b;c') share the key 'a;b;c'
    with pytest.raises(cli.FormatError, match="share the key"):
        load('{"a;b;c": "y"}', ("a;b", "a"), ("c", "b;c"))
    with pytest.raises(cli.FormatError, match="misses"):
        load('{"a;c": "y"}', ("a", "d"), ("c",))
    listed = tmp_path / "map.json"
    listed.write_text('["a;c"]')
    with pytest.raises(cli.FormatError, match="JSON object"):
        load(str(listed), ("a",), ("c",))


def test_guard_size_flag(capsys, chain2_file):
    # an absurdly small guard turns the construction into a usage error
    assert main(["psh", "build", chain2_file, "--guard-size", "1"]) == 2


def test_search_cond2(capsys):
    code, out = run(capsys, ["quantale", "search-cond2", "--max-size", "3",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quantales"] >= 3
    assert payload["condition_2_failures"] == []


def test_monad_check(capsys):
    code, out = run(capsys, ["monad", "check", "labelled:z2", "--quantale",
                             "two", "--format", "json"])
    assert code == 0
    assert all(r["status"] in ("pass", "bounded-pass")
               for r in json.loads(out)["reports"])


def test_malformed_word_depth_is_usage_error(capsys):
    assert main(["monad", "check", "word:0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "max_len >= 1" in err


def test_bare_word_needs_a_depth(capsys):
    # the depth is part of the monad name; there is no option that fills it
    for argv in (["monad", "check", "word"],
                 ["theory", "check-assumptions", "--quantale", "two",
                  "--monad", "word"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: word monad needs an integer depth (max_len), e.g. word:2\n")
    with pytest.raises(SystemExit) as exc:
        main(["monad", "check", "word", "--max-word-len", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


WORD_DEPTH = "error: word monad needs an integer depth (max_len), e.g. word:2\n"


@pytest.mark.parametrize("max_len", [True, 2.7, 2.0, "2", " 2"])
def test_word_depth_is_an_integer_in_files(capsys, tmp_path, max_len):
    # int() once read true as depth 1 and 2.7 as depth 2, and the check
    # passed; only an int is a depth, in a monad file and in the monad
    # object of a structure file
    monad = {"kind": "word", "max_len": max_len}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(monad))
    assert main(["monad", "check", str(path)]) == 2
    assert capsys.readouterr().err == WORD_DEPTH
    path.write_text(json.dumps({"quantale": "two", "monad": monad,
                                "carrier": ["a"]}))
    assert main(["cat", "check", str(path)]) == 2
    assert capsys.readouterr().err == WORD_DEPTH


def test_word_depth_text_is_decimal(capsys, tmp_path):
    for spec in ("word:2.7", "word:+2", "word: 2", "word:-1", "word:true"):
        assert main(["monad", "check", spec, "--carrier", "a"]) == 2
        assert capsys.readouterr().err == WORD_DEPTH
    path = tmp_path / "w.json"
    path.write_text('{"kind": "word", "max_len": 2}')
    for spec in ("word:2", str(path)):
        code, out = run(capsys, ["monad", "check", spec, "--carrier", "a",
                                 "--format", "json"])
        assert code == 0 and json.loads(out)["monad"] == "WordMonad(word)"


@pytest.mark.parametrize("carrier", ["a,a", ",", "a,,b", "", "b,a,b"])
def test_monad_check_carrier_has_distinct_nonempty_points(capsys, carrier):
    # a repeated point was counted twice (99 samples for a,a against 39 for
    # a), and "," ran on two empty-named points
    assert main(["monad", "check", "word:2", "--carrier", carrier]) == 2
    assert capsys.readouterr().err == (
        "error: --carrier needs distinct nonempty points, got %r\n" % carrier)


def test_monad_check_guards_t3(capsys, monkeypatch):
    # the guard counts what the laws build and walk, not T^3 X (about
    # 4.7e10 elements over two points under word:3): TX 15, T(TX) 3,616,
    # its in-bound fragment 52,969, so word:3 passes the default guard
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    code, out = run(capsys, ["monad", "check", "word:3", "--format", "json"])
    assert code == 0
    assert [(r["check"], r["status"], r["samples"], r["skipped"])
            for r in json.loads(out)["reports"]] == [
        ("monad_laws", "bounded-pass", 2264, 47293925720),
        ("bc_squares", "bounded-pass", 452, 10370)]
    # under word:4 T(TX) has 954,305 words of words
    assert main(["monad", "check", "word:4"]) == 2
    assert capsys.readouterr().err == (
        "error: T(TX) enumeration needs 954305 candidates" + GUARD_HINT % 100000)


GUARD_HINT = ", above the guard %d (raise with --guard-size or TVCAT_GUARD_SIZE)\n"


@pytest.mark.parametrize("argv,need", [
    (["theory", "check-assumptions", "--quantale", "two", "--monad", "word:5000"],
     "T((X x X') x (Y x Y')) enumeration needs at least 2^20000"),
    (["theory", "check-assumptions", "--quantale", "two", "--monad", "word:100000"],
     "T((X x X') x (Y x Y')) enumeration needs at least 2^400000"),
    # the count stops at T X = 2^5001 - 1, above the guard
    (["monad", "check", "word:5000"], "T X enumeration needs at least 2^5000"),
], ids=["assumptions-word:5000", "assumptions-word:100000", "monad-word:5000"])
def test_astronomical_counts_are_one_line_guard_errors(capsys, monkeypatch, argv, need):
    # a count past 64 bits is given by its power of two: word:5000 once
    # ended in a ValueError formatting a 6,000-digit count, and the nested
    # T^3 count of word:5000 and the count of word:100000 ran for minutes
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: %s candidates%s" % (need, GUARD_HINT % 100000)


@pytest.mark.parametrize("argv,need", [
    (["quantale", "check", "godel:100000000"],
     "quantale godel:100000000 (n x n table cells) needs 10000000000000000"),
    # 2^100000 elements: the count is given from below, at 2^64 of them
    (["quantale", "check", "powerset:100000"],
     "quantale powerset:100000 (n x n table cells) needs at least 2^128"),
    (["theory", "check-assumptions", "--quantale", "lukasiewicz:317",
      "--monad", "identity"],
     "quantale lukasiewicz:317 (n x n table cells) needs 100489"),
    (["monad", "check", "identity", "--quantale", "trunc_add:1000"],
     "quantale trunc_add:1000 (n x n table cells) needs 1000000"),
], ids=["godel", "powerset", "assumptions", "monad"])
def test_huge_builtin_quantales_are_one_line_guard_errors(capsys, monkeypatch,
                                                          argv, need):
    # the n x n tables were built before any check: godel:100000000 ran
    # past a 10 s timeout
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: %s candidates%s" % (need, GUARD_HINT % 100000)


def test_condition_inj_count_is_a_one_line_guard_error(capsys, monkeypatch, tmp_path):
    # godel:100 builds at once (10,000 table cells), but check_condition_inj
    # would visit 100 * 5050^2 candidates, some ten minutes: the quantale
    # check, a gallery entry and the assumption bundle exit 2 at once, at
    # the default guard and at one raised past the table cells
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    data = tmp_path / "gallery.json"
    data.write_text(json.dumps({"entries": [
        {"name": "big", "quantale": "godel:100", "monad": "identity"}]}))
    need = "condition_inj on godel_100 (u, v, w, u', v') needs 2550250000"
    bundle = ["theory", "check-assumptions", "--monad", "identity", "--quantale"]
    for argv, limit in ((["quantale", "check", "godel:100"], 100000),
                        (["gallery", "run", "--data", str(data),
                          "--guard-size", "200000"], 200000),
                        (bundle + ["godel:100"], 100000)):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == "error: %s candidates%s" % (need, GUARD_HINT % limit)
    # godel:13 (107,653 candidates) is refused at the default guard, and
    # checked once the guard admits it, as is godel:20 (882,000) by the bundle
    assert main(["quantale", "check", "godel:13"]) == 2
    capsys.readouterr()
    assert main(["quantale", "check", "godel:13", "--guard-size", "107653"]) == 0
    start = time.perf_counter()
    assert main(bundle + ["godel:20", "--guard-size", "882000"]) == 0
    assert time.perf_counter() - start < 10
    capsys.readouterr()
    assert main(bundle + ["godel:20", "--guard-size", "881999"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: condition_inj on godel_20 (u, v, w, u', v') needs 882000 candidates, "
        "above the guard 881999 ")


def test_quantale_guard_is_the_commands_guard(capsys, monkeypatch, tmp_path):
    # godel:3 has 9 table cells; the guard of each command, from the flag
    # or the environment, reaches the quantale, in structure files too, and
    # a quantale given as a file or as an object inside a structure file
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    path = tmp_path / "s.json"
    path.write_text('{"quantale": "godel:3", "monad": "identity", "carrier": ["a"]}')
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps(godel_chain(3).to_dict()))
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps({"quantale": godel_chain(3).to_dict(),
                                  "monad": "identity", "carrier": ["a"]}))
    for argv, name in ((["quantale", "check", "godel:3"], "godel:3"),
                       (["theory", "check-assumptions", "--quantale", "godel:3",
                         "--monad", "identity"], "godel:3"),
                       (["monad", "check", "identity", "--quantale", "godel:3"],
                        "godel:3"),
                       (["cat", "check", str(path)], "godel:3"),
                       (["quantale", "check", str(qfile)], str(qfile)),
                       (["cat", "check", str(inline)], "quantale")):
        err = ("error: quantale %s (n x n table cells) needs 9 candidates" % name
               + GUARD_HINT % 8)
        assert main(argv + ["--guard-size", "8"]) == 2
        assert capsys.readouterr().err == err
        monkeypatch.setenv("TVCAT_GUARD_SIZE", "8")
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        monkeypatch.delenv("TVCAT_GUARD_SIZE")
        main(argv + ["--guard-size", "9"])
        assert "table cells" not in capsys.readouterr().err


def test_structure_file_guards_its_t_carrier(capsys, monkeypatch, tmp_path):
    # word:24 over two points has 33,554,431 words; loading once enumerated
    # them all and ended in a MemoryError under an address-space cap
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    deep = tmp_path / "word24.json"
    deep.write_text('{"quantale":"two","monad":"word:24","carrier":["a","b"]}')
    assert main(["cat", "check", str(deep)]) == 2
    assert capsys.readouterr().err == (
        "error: T(carrier) enumeration needs 33554431 candidates" + GUARD_HINT % 100000)
    # the command's guard reaches the loader: word:2 over two points has 7
    shallow = tmp_path / "word2.json"
    shallow.write_text('{"quantale":"two","monad":"word:2","carrier":["a","b"]}')
    assert main(["cat", "check", str(shallow), "--guard-size", "6"]) == 2
    assert capsys.readouterr().err == (
        "error: T(carrier) enumeration needs 7 candidates" + GUARD_HINT % 6)
    assert main(["cat", "check", str(shallow), "--guard-size", "7"]) in (0, 1)
    capsys.readouterr()


def test_dual_guards_the_words_over_its_t_carrier(capsys, monkeypatch, tmp_path):
    # the dual enumerates T(TX): over six points word:3 once built 17.4M
    # words, peaked at 2 GB and ended in a MemoryError under an address cap
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    for points, words in ((6, 17441320), (4, 621436)):
        path = tmp_path / ("word3_%d.json" % points)
        path.write_text(json.dumps({"quantale": "two", "monad": "word:3",
                                    "carrier": list("abcdef"[:points])}))
        start = time.perf_counter()
        assert main(["cat", "dual", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: T(TX) enumeration needs %d candidates" % words
            + GUARD_HINT % 100000)
    # a guard that admits the count runs the dual; the empty structure is
    # no category
    assert main(["cat", "dual", str(path), "--guard-size", "621436"]) == 1
    assert capsys.readouterr().err == ""


def test_structure_file_guards_its_in_bound_fragment(capsys, monkeypatch, tmp_path):
    # one point over word:12 has 13 words, but empty letters let millions of
    # in-bound words of words through: these four commands ran past 8 s
    # inside WordMonad.inbound, walking the fragment the loader now counts
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    err = ("error: in-bound T(T carrier) fragment needs at least 100001 "
           "candidates" + GUARD_HINT % 100000)
    for n in (12, 10):
        (tmp_path / ("word%d.json" % n)).write_text(json.dumps({
            "quantale": "two", "monad": "word:%d" % n, "carrier": ["p"],
            "structure": {"p;p": "1"}}))
    path = str(tmp_path / "word12.json")
    for argv in (["cat", "check"], ["cat", "reflect"], ["cat", "represent"],
                 ["exp", "criterion"]):
        start = time.perf_counter()
        assert main(argv + [path]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == err
    # word:10 has 352,716 in-bound words of words: a raised guard loads the
    # file, and the dual stops at its own guard on T(TX)
    path = str(tmp_path / "word10.json")
    assert main(["cat", "dual", path]) == 2
    assert capsys.readouterr().err == err
    assert main(["cat", "dual", path, "--guard-size", "400000"]) == 2
    assert capsys.readouterr().err == (
        "error: T(TX) enumeration needs 28531167061 candidates" + GUARD_HINT % 400000)


def test_search_cond2_counts_tensors_against_the_guard(capsys, monkeypatch):
    # the chain tensors were enumerated past any guard: --max-size 9 ran
    # past 20 s, and --max-size 6 makes 2,646,497 candidates
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    start = time.perf_counter()
    assert main(["quantale", "search-cond2", "--max-size", "9",
                 "--guard-size", "10"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: chain tensor enumeration needs at least 11 candidates"
        + GUARD_HINT % 10)
    # the 39 tables on the chains of sizes 2 and 3 pass a guard of 39 only
    assert main(["quantale", "search-cond2", "--max-size", "3",
                 "--guard-size", "38"]) == 2
    capsys.readouterr()
    code, out = run(capsys, ["quantale", "search-cond2", "--max-size", "3",
                             "--guard-size", "39", "--format", "json"])
    assert code == 0 and json.loads(out)["candidates"] == 39


@pytest.mark.parametrize("size", ["1", "0", "-3"])
def test_search_cond2_below_two_is_usage_error(capsys, size):
    # no chain has fewer than two elements, so the search would pass vacuously
    assert main(["quantale", "search-cond2", "--max-size", size]) == 2
    assert capsys.readouterr().err == (
        "error: --max-size must be at least 2, got %s\n" % size)


def test_internal_error_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("planted")
    monkeypatch.setattr(cli, "COMMANDS", tuple(
        row[:4] + (boom,) if row[:2] == ("quantale", "check") else row
        for row in cli.COMMANDS))
    assert main(["quantale", "check", "two"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: planted\n"


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_malformed_guard_variable_is_usage_error(capsys, monkeypatch,
                                                 chain2_file, value):
    monkeypatch.setenv("TVCAT_GUARD_SIZE", value)
    assert main(["psh", "build", chain2_file]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: TVCAT_GUARD_SIZE must be")


@pytest.mark.parametrize("argv", [["psh", "build", "{chain2}"],
                                  ["gallery", "run"],
                                  ["theory", "check-assumptions", "--quantale",
                                   "godel:3", "--monad", "identity"]])
def test_negative_guard_flag_is_usage_error(capsys, chain2_file, argv):
    argv = [a.format(chain2=chain2_file) for a in argv]
    assert main(argv + ["--guard-size", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --guard-size must be a non-negative "
                            "integer, got '-5'\n")


@pytest.mark.parametrize("argv,message", [
    (["gallery", "run", "--guard-size", "abc"],
     "argument --guard-size: invalid int value: 'abc'"),
    (["frob"], "argument group: invalid choice: 'frob'"),
    (["cat", "check"], "the following arguments are required: file"),
])
def test_argparse_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class _EnvironSpy(dict):
    """A stand-in for os.environ that records every write."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writes = []

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.writes.append(key)
        super().__delitem__(key)

    def pop(self, key, *default):
        self.writes.append(key)
        return super().pop(key, *default)


def test_gallery_guard_size_is_passed_not_set(capsys, monkeypatch):
    spy = _EnvironSpy(os.environ)
    spy.pop("TVCAT_GUARD_SIZE", None)
    spy.writes.clear()
    monkeypatch.setattr(os, "environ", spy)
    code, out = run(capsys, ["gallery", "run", "--guard-size", "1",
                             "--format", "json"])
    assert spy.writes == []
    assert "TVCAT_GUARD_SIZE" not in spy
    # the guard reached the presheaf constructions of every entry
    assert code == 1
    verdicts = [v for r in json.loads(out)["results"]
                for v in r["computed"].get("structures", {}).values()]
    assert any(v.get("presheaf_skipped") == "GuardError" for v in verdicts)
    assert not any("presheaf_size" in v for v in verdicts)


@pytest.mark.parametrize("kind,payload,need", [
    ("quantale", {"elements": ["0", "1"], "order": [1, 2],
                  "tensor": {"0,0": "0", "0,1": "0", "1,1": "1"}, "unit": "1"}, "pairs"),
    ("monad", {"kind": "labelled", "monoid": {"elements": ["e"], "unit": "e"}}, "table"),
    ("structure", {"quantale": "two", "monad": "identity", "carrier": "ab",
                   "structure": {}}, "carrier"),
    ("monad", ["word", 2], "JSON object"),
    ("monad", {"kind": "word", "max_len": "x"}, "max_len"),
    ("monad", {"kind": "word", "max_len": None}, "max_len"),
    ("structure", ["two", "identity"], "JSON object"),
    ("structure", {"quantale": "two", "monad": "identity", "carrier": ["a"],
                   "structure": ["a;a", "1"]}, "entries"),
    ("gallery", {"entries": [{"name": "no-quantale", "monad": "identity"}]}, "quantale"),
    ("structure", {"quantale": "two", "monad": "word:2",
                   "carrier": ["a,b", "a", "b"], "structure": {"a,b;a": "1"}}, "relabel"),
    ("gallery", {"entries": [{"name": "e", "quantale": "two",
                              "monad": "identity",
                              "structures": [{"kind": "discrete"}]}]}, "carrier"),
    ("structure", {"quantale": "two", "monad": "identity",
                   "carrier": ["a;b", "a", "b;a"], "structure": {"a;b;a": "1"}}, "relabel"),
    ("gallery", {"entries": [{"name": "e", "quantale": "two",
                              "monad": "identity", "structures": [
                                  {"name": "s", "kind": "order",
                                   "carrier": ["a", "b"], "pairs": [["a"]]}]}]}, "pairs"),
    ("gallery", {"entries": [{"name": "e", "quantale": "two",
                              "monad": "identity", "structures": [
                                  {"name": "s", "kind": "order",
                                   "carrier": ["a", "b"],
                                   "pairs": [["a", "zzz"]]}]}]}, "over its carrier"),
    ("gallery", {"entries": [{"name": "e", "quantale": "two",
                              "monad": "identity", "structures": [
                                  {"name": "s", "kind": "discrete",
                                   "carrier": [["a"]]}]}]}, "strings"),
    ("gallery", {"entries": [{"name": "e", "quantale": "two",
                              "monad": "identity", "structures": [
                                  {"name": "s", "kind": "discrete",
                                   "carrier": []}]}]}, "nonempty"),
    ("monad", {"kind": "labelled", "monoid": {"elements": ["e", "e"], "unit": "e",
                                              "table": [["e", "e"], ["e", "e"]]}},
     "duplicate"),
], ids=["quantale-order-not-pairs", "labelled-without-table",
        "carrier-not-a-list", "monad-a-list", "max-len-not-a-number",
        "max-len-null", "structure-a-list", "structure-entries-a-list",
        "gallery-entry-without-quantale", "ambiguous-comma-label",
        "gallery-structure-without-carrier-or-name",
        "ambiguous-semicolon-label", "gallery-order-pair-of-one",
        "gallery-order-pair-off-carrier", "gallery-carrier-of-lists",
        "gallery-empty-carrier", "monoid-duplicate-labels"])
def test_malformed_file_exits_2_without_traceback(tmp_path, kind, payload, need):
    path = tmp_path / ("%s.json" % kind)
    path.write_text(json.dumps(payload))
    argv = {"quantale": ["quantale", "check", str(path)],
            "monad": ["monad", "check", str(path)],
            "structure": ["cat", "check", str(path)],
            "gallery": ["gallery", "run", "--data", str(path)]}[kind]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    done = subprocess.run([sys.executable, "-m", "tvcat.cli"] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert need in done.stderr


# Small JSON values, and objects with the fields the loaders read, each field
# well-formed or arbitrary or missing.  Element lists and carriers hold at
# most 3 items and word depths stay at most 2, so every load and check is
# cheap.
LABELS = st.sampled_from(["0", "1", "a", "b", "e", "g", ""])
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1, 2), LABELS),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(LABELS, kids, max_size=3)),
    max_leaves=6)


def _object(**fields):
    return st.fixed_dictionaries({}, optional={
        key: st.one_of(value, JSON) for key, value in fields.items()})


QUANTALE = _object(
    elements=st.lists(LABELS, max_size=3),
    order=st.lists(st.lists(LABELS, min_size=2, max_size=2), max_size=3),
    tensor=st.dictionaries(st.sampled_from(["0,0", "0,1", "1,0", "1,1", "a,b"]),
                           LABELS, max_size=4),
    unit=LABELS)
MONAD = _object(
    kind=st.sampled_from(["identity", "finite_ultrafilter", "word", "labelled",
                          "other"]),
    max_len=st.sampled_from([0, 1, 2, "2", "x", 1.5]),
    monoid=_object(elements=st.lists(LABELS, max_size=3),
                   table=st.lists(st.lists(LABELS, max_size=3), max_size=3),
                   unit=LABELS))
STRUCTURE = _object(
    quantale=st.one_of(st.sampled_from(["two", "godel:2", "lukasiewicz:3",
                                        "two:3", "godel", "godel:x", "nope"]),
                       QUANTALE),
    monad=st.one_of(st.sampled_from(["identity", "word:1", "word:2", "word:0",
                                     "word:x", "labelled:z2", "labelled:q"]),
                    MONAD),
    carrier=st.lists(LABELS, max_size=3),
    structure=st.dictionaries(st.sampled_from(["a;a", "a;b", "b;a", "a,b;a",
                                               "a,e;a", ";a", "a"]),
                              LABELS, max_size=3),
    name=JSON)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(st.just("quantale"), st.one_of(QUANTALE, JSON)),
                 st.tuples(st.just("monad"), st.one_of(MONAD, JSON)),
                 st.tuples(st.just("structure"), st.one_of(STRUCTURE, JSON))))
def test_loader_fuzz_exits_cleanly(kind_payload):
    kind, payload = kind_payload
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "%s.json" % kind)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = {"quantale": ["quantale", "check", path],
                "monad": ["monad", "check", path],
                "structure": ["cat", "check", path]}[kind]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
