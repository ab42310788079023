"""The bundled example suite and its committed verdicts."""

import json
import time

import pytest

import tvcat.gallery as gallery
from tvcat.gallery import DATA_PATH, _diff, load_gallery, run_entry, run_gallery
from tvcat.limits import DEFAULT_GUARD_SIZE, GuardError
from tvcat.report import CheckReport


def test_data_file_is_valid_json():
    with open(DATA_PATH, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    names = [e["name"] for e in data["entries"]]
    assert names == sorted(set(names), key=names.index)  # unique, ordered
    assert {"ord", "met_finite", "ultrametric", "lukasiewicz", "multiord",
            "labelled", "bitop_fragment"} <= set(names)
    for e in data["entries"]:
        assert "expected" in e


def test_run_gallery_matches_committed():
    ok, results = run_gallery()
    assert ok, [r.get("diff") for r in results if not r["matches"]]
    assert all(r["matches"] for r in results)


def test_run_entry_deterministic():
    entry = load_gallery()[0]
    a = run_entry(entry, seed=0)
    b = run_entry(entry, seed=0)
    assert a == b


def test_diff_reports_paths():
    assert _diff({"a": 1}, {"a": 1}) == []
    d = _diff({"a": {"b": 1}}, {"a": {"b": 2}})
    assert d == [{"path": "a.b", "expected": 1, "computed": 2}]
    d = _diff({"a": 1}, {})
    assert d[0]["computed"] is None


def test_tampered_expectations_fail(tmp_path):
    with open(DATA_PATH, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["entries"][0]["expected"]["quantale"] = "fail"
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    ok, results = run_gallery(str(p))
    assert not ok
    assert any(d["path"] == "quantale" for r in results
               for d in r.get("diff", []))


def test_raised_guard_reaches_the_quantale(monkeypatch):
    # godel:317 has 100,489 table cells, past the default guard: the entry's
    # guard reaches quantale_by_name when raised, and a lowered one leaves
    # the default, so the bundled quantales still load under --guard-size 1
    class Stop(Exception):
        pass

    seen = []

    def spy(spec, guard=None):
        seen.append((spec, guard))
        raise Stop

    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    monkeypatch.setattr(gallery, "quantale_by_name", spy)
    entry = {"name": "big", "quantale": "godel:317", "monad": "identity"}
    for guard in (200_000, 1, None):
        with pytest.raises(Stop):
            run_entry(entry, guard=guard)
    assert seen == [("godel:317", 200_000), ("godel:317", DEFAULT_GUARD_SIZE),
                    ("godel:317", DEFAULT_GUARD_SIZE)]


def test_raised_guard_reaches_the_assumption_bundle(monkeypatch):
    # the bundle counts condition_inj as run_entry does, so it gets the same
    # floored guard: a raised one reaches it, a lowered one leaves the default
    seen = []
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    monkeypatch.setattr(gallery, "check_assumptions_bundle",
                        lambda ext, seed, exhaustive, guard: seen.append(guard) or
                        CheckReport("assumptions_bundle", "pass"))
    entry = {"name": "g", "quantale": "two", "monad": "identity"}
    for guard in (882_000, 1, None):
        run_entry(entry, guard=guard)
    assert seen == [882_000, DEFAULT_GUARD_SIZE, DEFAULT_GUARD_SIZE]


def test_condition_inj_is_counted_before_the_quantale_checks(monkeypatch):
    # check_condition_inj visits n (sum_u |down u|)^2 candidates (u, v, w,
    # u', v'), about n^5/4 on a chain: 882,000 on godel:20, which runs in
    # about 0.2 s (two cores, Python 3.11), and 1,120,581 on godel:21
    monkeypatch.delenv("TVCAT_GUARD_SIZE", raising=False)
    entry = {"name": "g", "quantale": "godel:20", "monad": "identity",
             "assumptions": False}
    start = time.perf_counter()
    assert run_entry(entry, guard=882_000)["condition_inj"] == "pass"
    assert time.perf_counter() - start < 10
    with pytest.raises(GuardError, match=r"^condition_inj on godel_20 \(u, v, w, u', v'\) "
                                         r"needs 882000 candidates, above the guard 881999 "):
        run_entry(entry, guard=881_999)
    # a lowered guard leaves the default: godel:12 (73,008) runs, godel:13
    # (107,653) is refused before check_quantale
    assert run_entry(dict(entry, quantale="godel:12"), guard=1)["condition_inj"] == "pass"
    monkeypatch.setattr(gallery, "check_quantale", None)
    with pytest.raises(GuardError, match="needs 107653 candidates, above the guard 100000 "):
        run_entry(dict(entry, quantale="godel:13"), guard=1)
