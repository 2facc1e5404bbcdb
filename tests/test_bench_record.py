"""tools/bench_record.py's summary and comparison, on canned bench/run.py output."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]

META = {"nproc": 2, "cpu_model": "Xeon", "python": "3.11.7", "numpy": "2.4.6",
        "commit": None, "src_lines": 1596}
SPEC = {
    "cpu_s": {"name": "cpu_s", "better": "lower", "bound": 0.25},
    "items_per_s": {"name": "items_per_s", "better": "higher", "bound": 0.25},
}


@pytest.fixture(scope="module")
def tool():
    path = ROOT / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave tools/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def output(cpu_s, items_per_s, failed=0):
    """The last two lines of a bench/run.py run, after its readable report."""
    result = {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
        },
    }
    report = f"falsify-10k seed=1: ...\n  cpu_s  {cpu_s}\n"
    return f"{report}{json.dumps({'meta': META})}\n{json.dumps(result)}\n"


def runs(tool, values):
    return [{"seed": i, **tool.parse_run(output(*v))} for i, v in enumerate(values)]


def test_parse_run_reads_the_meta_and_result_lines(tool):
    run = tool.parse_run(output(0.5, 20000.0, failed=1))
    assert run == {
        "meta": META, "correct": False, "attempted": 10, "failed": 1,
        "metrics": {"cpu_s": 0.5, "items_per_s": 20000.0},
    }


def test_summary_is_median_and_inclusive_quartiles(tool):
    summary = tool.summarize(runs(tool, [(v, 1.0) for v in (0.4, 0.1, 0.3, 0.2, 0.5)]))
    assert summary["cpu_s"] == {"median": 0.3, "q1": 0.2, "q3": 0.4, "n": 5}
    assert tool.summarize(runs(tool, [(0.7, 2.0)]))["cpu_s"] == {
        "median": 0.7, "q1": 0.7, "q3": 0.7, "n": 1
    }


def test_a_gain_needs_nine_pairs_in_ten_and_a_gap_beyond_the_spread(tool):
    parent = runs(tool, [(0.50 + 0.001 * i, 100.0) for i in range(10)])
    # cpu_s: nine pairs better by far, one tie (counts for neither side)
    change = runs(tool, [(0.30, 100.0)] * 9 + [(0.509, 100.0)])
    verdicts = tool.compare(parent, change, SPEC)
    assert verdicts["cpu_s"]["better"] == 9 and verdicts["cpu_s"]["worse"] == 0
    assert verdicts["cpu_s"]["verdict"] == "gain"
    assert verdicts["cpu_s"]["delta"] == pytest.approx(0.30 / 0.5045 - 1)
    assert verdicts["items_per_s"] == {
        "better": 0, "worse": 0, "pairs": 10, "delta": 0.0, "parent_iqr": 0.0,
        "verdict": "within bound",
    }
    # Eight of ten is no gain, however large the difference.
    change = runs(tool, [(0.30, 100.0)] * 8 + [(0.9, 100.0)] * 2)
    assert tool.compare(parent, change, SPEC)["cpu_s"]["verdict"] == "within bound"
    # Nor is a faster change whose runs fail operations the parent's did not.
    change = runs(tool, [(0.30, 100.0)] * 9 + [(0.30, 100.0, 1)])
    assert tool.compare(parent, change, SPEC)["cpu_s"]["verdict"] == "within bound"
    # Failures count as a total: no more than the parent's leaves the gain.
    parent[0]["failed"] = 1
    for run in change:
        run["correct"] = True
    assert tool.compare(parent, change, SPEC)["cpu_s"]["verdict"] == "gain"
    change[0]["correct"] = False
    assert tool.compare(parent, change, SPEC)["cpu_s"]["verdict"] == "within bound"


def test_higher_is_better_metrics_and_the_worse_and_unresolved_verdicts(tool):
    parent = runs(tool, [(0.5, 100.0)] * 10)
    change = runs(tool, [(0.5, 70.0)] * 10)  # 30% fewer items per second
    verdict = tool.compare(parent, change, SPEC)["items_per_s"]
    assert (verdict["worse"], verdict["verdict"]) == (10, "worse")
    # A parent spread wider than the bound leaves a small move unresolved...
    parent = runs(tool, [(v, 100.0) for v in (0.3, 0.3, 0.5, 0.7, 0.7)])
    change = runs(tool, [(0.52, 100.0)] * 5)
    assert tool.compare(parent, change, SPEC)["cpu_s"]["verdict"] == "unresolved"
    # ...unless every change run beats every parent run; a gap below the
    # parent's spread is still no gain.
    change = runs(tool, [(0.29, 100.0)] * 5)
    assert tool.compare(parent, change, SPEC)["cpu_s"]["verdict"] == "within bound"


def test_deltas_compare_the_change_medians_with_the_earlier_file(tool):
    def doc(cpu_s, seconds=6.0, **meta):
        summary = tool.summarize(runs(tool, [(cpu_s, 100.0)]))
        change = {"meta": {**META, **meta}, "summary": summary}
        workloads = {"falsify-10k": {"change": change}}
        return {"seeds": [1, 2], "seconds": seconds, "workloads": workloads}

    lines = tool.deltas(doc(0.5), doc(0.4, commit="f" * 40))
    assert [line.split() for line in lines] == [
        ["falsify-10k", "cpu_s", "0.5", "->", "0.4", "-20.0%"],
        ["falsify-10k", "items_per_s", "100", "->", "100", "+0.0%"],
    ]
    assert tool.deltas({**doc(0.5), "workloads": {}}, doc(0.4)) == [
        "falsify-10k: not in the earlier file"
    ]
    # Runs of another length, on other seeds or on another host give no deltas.
    assert tool.deltas(doc(0.5, seconds=35.0), doc(0.4)) == [
        "not comparable: seconds 35.0 -> 6.0"
    ]
    assert tool.deltas({**doc(0.5), "seeds": [1]}, doc(0.4)) == [
        "not comparable: seeds [1] -> [1, 2]"
    ]
    assert tool.deltas(doc(0.5, nproc=4, numpy="2.3.0"), doc(0.4)) == [
        "falsify-10k: not comparable: nproc 4 -> 2, numpy 2.3.0 -> 2.4.6"
    ]


def test_newest_earlier_file_is_the_highest_number_below_the_output(tool, tmp_path):
    for n in (3, 19, 20, 25):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_notes.json").write_text("{}")
    assert tool.newest_earlier(tmp_path / "BENCH_21.json").name == "BENCH_20.json"
    assert tool.newest_earlier(tmp_path / "BENCH_20.json").name == "BENCH_19.json"
    assert tool.newest_earlier(tmp_path / "BENCH_3.json") is None


def test_the_bench_digest_ignores_caches_and_run_scratch(tool, tmp_path):
    (tmp_path / "bench" / "__pycache__").mkdir(parents=True)
    (tmp_path / "bench" / "run.py").write_text("print()\n")
    before = tool.bench_digest(tmp_path)
    (tmp_path / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    (tmp_path / "bench" / ".runs").mkdir()
    (tmp_path / "bench" / ".runs" / "1.out").write_text("x")
    assert tool.bench_digest(tmp_path) == before
    (tmp_path / "bench" / "run.py").write_text("print(1)\n")
    assert tool.bench_digest(tmp_path) != before


def test_pairs_alternate_and_a_differing_bench_is_refused(tool, tmp_path, monkeypatch, capsys):
    def unpack(rev, into, run_py="print()\n"):
        (into / "bench").mkdir(parents=True)
        (into / "bench" / "run.py").write_text(run_py)
        return "f" * 40

    calls = []

    def run_bench(tree, workload, seed, seconds):
        side = "change" if tree == tool.ROOT else "parent"
        calls.append((workload, seed, side))
        return {"seed": seed, **tool.parse_run(output(0.3 if side == "change" else 0.5, 100.0))}

    monkeypatch.setattr(tool, "ROOT", tmp_path / "checkout")
    unpack(None, tmp_path / "checkout")
    (tmp_path / "checkout" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "falsify-10k"}], "end_to_end": list(SPEC.values()),
    }))
    monkeypatch.setattr(tool, "unpack", unpack)
    monkeypatch.setattr(tool, "run_bench", run_bench)
    monkeypatch.setattr(tool, "checkout_commit", lambda: ("e" * 40, True))
    (tmp_path / "BENCH_20.json").write_text(json.dumps({"seeds": [4, 5, 6], "seconds": 6.0,
                                                        "workloads": {}}))
    out = tmp_path / "BENCH_21.json"

    assert tool.main(["--out", str(out), "--against", "HEAD~1", "--seeds", "4", "5", "6"]) == 0
    assert calls == [
        ("falsify-10k", 4, "change"), ("falsify-10k", 4, "parent"),
        ("falsify-10k", 5, "parent"), ("falsify-10k", 5, "change"),
        ("falsify-10k", 6, "change"), ("falsify-10k", 6, "parent"),
    ]
    doc = json.loads(out.read_text())
    assert doc["against"] == "f" * 40 and doc["seeds"] == [4, 5, 6]
    assert doc["src_lines"] == {"parent": 1596, "change": 1596}
    record = doc["workloads"]["falsify-10k"]
    assert [run["seed"] for run in record["parent"]["runs"]] == [4, 5, 6]
    # Each side names what was measured, not what bench/run.py saw as HEAD.
    parent_meta, change_meta = record["parent"]["meta"], record["change"]["meta"]
    assert (parent_meta["commit"], parent_meta["dirty"]) == ("f" * 40, False)
    assert (change_meta["commit"], change_meta["dirty"]) == ("e" * 40, True)
    assert record["compare"]["cpu_s"]["verdict"] == "gain"
    out = capsys.readouterr().out
    assert "medians against BENCH_20.json" in out
    assert "falsify-10k: not in the earlier file" in out

    monkeypatch.setattr(tool, "unpack", lambda rev, into: unpack(rev, into, "print(2)\n"))
    calls.clear()
    assert tool.main(["--out", str(tmp_path / "BENCH_22.json"), "--against", "HEAD~1"]) == 1
    assert calls == [] and not (tmp_path / "BENCH_22.json").exists()
    assert capsys.readouterr().err == "error: bench/ differs between HEAD~1 and this checkout\n"


def test_a_missing_output_directory_is_refused_before_any_run(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tool, "run_bench", lambda *a: pytest.fail("ran the benchmark"))
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--out", str(tmp_path / "missing" / "BENCH_1.json")])
    assert exit_info.value.code == 2


def test_the_query_mix_report_leads_with_its_scaled_metrics(tool, capsys):
    names = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "items_per_s", "cmd_p50_ms"]
    spec = {name: {"name": name, "better": "higher" if name == "items_per_s" else "lower",
                   "bound": 0.25} for name in names}

    def side(scale):
        return [{"seed": i, "meta": META, "correct": True, "failed": 0,
                 "metrics": {name: scale * (1.0 + i / 10) for name in names}} for i in range(3)]

    parent, change = side(1.0), side(0.9)
    record = {"change": tool.side_record(change, "e" * 40, False),
              "parent": tool.side_record(parent, "f" * 40, False),
              "compare": tool.compare(parent, change, spec)}
    for workload in ("query-mix", "sweep-grid"):
        tool.report(workload, record)
    lines = capsys.readouterr().out.splitlines()
    query, sweep = lines[1:7], lines[8:14]
    assert [line.split(" 1")[0].strip() for line in query] == [
        "items_per_s", "cmd_p50_ms", "setup_s", "wall_s (raw)", "cpu_s (raw)", "peak_rss_mb",
    ]
    assert [line.split()[0] for line in sweep] == names
    assert query[0].endswith("-10.0%  better 0/3  within bound")
    assert query[1].endswith("-10.0%  better 3/3  gain")
    # Without --against, one side's medians in the same order.
    del record["parent"]
    tool.report("query-mix", record)
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "  items_per_s  0.99 [0.945, 1.035]",
        "  cmd_p50_ms   0.99 [0.945, 1.035]",
        "  setup_s      0.99 [0.945, 1.035]",
    ]
