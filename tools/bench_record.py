"""Run the benchmark over fixed seeds and record the result in a BENCH file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--against REV] \
        [--seeds S ...] [--seconds T]

For every workload of ``BENCHMARK.json`` and every seed, the script
runs ``python3 bench/run.py --workload W --seed S --seconds T`` in this
checkout and reads its end-to-end metrics.  With ``--against REV`` it also
runs REV, unpacked from ``git archive`` into a temporary directory, seed by
seed in pairs whose first side alternates; it refuses to start when REV's
``bench/`` differs from this checkout's, since the two sides would then not
be measured alike.

The JSON written to ``--out`` holds, per workload and side, every run's
metrics and, per metric, the median, the quartiles and the run count; with
``--against``, per metric, in how many pairs the change was better or worse
(ties count for neither), the relative change of the medians and a verdict:

- ``gain``: better in at least 9 of 10 pairs, the medians differ by more
  than the parent's interquartile range, every change run is correct and
  the change's runs fail no more operations than the parent's;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's interquartile range exceeds that bound
  relative to its median, and not every change run beats every parent run;
- ``within bound`` otherwise.

Each side also records ``bench/run.py``'s ``meta`` line (with ``src_lines``),
its ``commit`` set to what was measured: REV's hash for the parent, this
checkout's HEAD for the change, with ``dirty`` true when ``src/`` or
``bench/`` differ from that commit.  The printed report lists
``query-mix``'s reference-scaled ``items_per_s`` and ``cmd_p50_ms`` first
and tags its ``wall_s`` and ``cpu_s`` as raw.  The script then prints the
verdicts and the change in every median against the newest earlier
``BENCH_*.json`` beside ``--out``, unless the two files differ in seconds,
seeds or host (``HOST_KEYS`` of the meta line), whose medians cannot be
compared.  It needs only the standard library and what the benchmark
itself needs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAIN_SHARE = 0.9
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy")
# query-mix's rate and per-command latencies are scaled to a reference host
# speed by bench/run.py and lead its report; its wall_s and cpu_s are raw
# process times, which swing by about 8% with nothing changed on their path.
LEADING = {"query-mix": ("items_per_s", "cmd_p50_ms")}
RAW = {"query-mix": ("wall_s", "cpu_s")}


def parse_run(stdout: str) -> dict:
    """bench/run.py's output as {meta, correct, attempted, failed, metrics},
    metrics mapping each name to its value."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        "meta": json.loads(lines[-2])["meta"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict]) -> dict:
    """Per metric of the runs: median, q1, q3 and n."""
    summary = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = quartiles([run["metrics"][name] for run in runs])
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(runs)}
    return summary


def compare(parent: list[dict], change: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: pairs better and worse, the relative change of the medians
    and the verdict (see the module docstring).  parent[i] and change[i] are
    pair i; `metrics` maps each name to its BENCHMARK.json entry."""
    before, after = summarize(parent), summarize(change)
    # A gain does not count where the change fails more operations.
    sound = (all(run["correct"] for run in change)
             and sum(run["failed"] for run in change) <= sum(run["failed"] for run in parent))
    verdicts = {}
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "lower" else -1.0
        # gains[i] > 0 where pair i's change run beats its parent run
        gains = [sign * (p["metrics"][name] - c["metrics"][name]) for p, c in zip(parent, change)]
        old, new = before[name], after[name]
        iqr = old["q3"] - old["q1"]
        improvement = sign * (old["median"] - new["median"])
        better = sum(g > 0 for g in gains)
        separated = all(
            sign * (p["metrics"][name] - c["metrics"][name]) > 0 for p in parent for c in change
        )
        if sound and better >= GAIN_SHARE * len(gains) and improvement > iqr:
            verdict = "gain"
        elif -improvement > spec["bound"] * abs(old["median"]):
            verdict = "worse"
        elif iqr > spec["bound"] * abs(old["median"]) and not separated:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        verdicts[name] = {
            "better": better,
            "worse": sum(g < 0 for g in gains),
            "pairs": len(gains),
            "delta": (new["median"] - old["median"]) / old["median"] if old["median"] else None,
            "parent_iqr": iqr,
            "verdict": verdict,
        }
    return verdicts


def deltas(earlier: dict, now: dict) -> list[str]:
    """One line per workload and metric in both files: the change side's
    median then and now; one line saying why instead where the two were
    run with other seconds, seeds or host."""
    for key in ("seconds", "seeds"):
        if earlier.get(key) != now[key]:
            return [f"not comparable: {key} {earlier.get(key)} -> {now[key]}"]
    lines = []
    for workload, record in now["workloads"].items():
        then = earlier.get("workloads", {}).get(workload)
        if then is None:
            lines.append(f"{workload}: not in the earlier file")
            continue
        old_meta, meta = then["change"]["meta"], record["change"]["meta"]
        moved = [f"{key} {old_meta.get(key)} -> {meta[key]}"
                 for key in HOST_KEYS if old_meta.get(key) != meta[key]]
        if moved:
            lines.append(f"{workload}: not comparable: {', '.join(moved)}")
            continue
        for name, stat in record["change"]["summary"].items():
            old = then["change"]["summary"].get(name)
            if old is None:
                continue
            rel = stat["median"] / old["median"] - 1 if old["median"] else float("nan")
            lines.append(
                f"{workload:<12} {name:<12} {old['median']:>12.6g} -> {stat['median']:>12.6g}"
                f"  {rel:+.1%}"
            )
    return lines


def newest_earlier(out: Path) -> Path | None:
    """The BENCH_*.json beside `out` with the highest number below out's
    (any number when out has none), or None."""
    def number(path: Path) -> int | None:
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        return int(match[1]) if match else None

    limit = number(out)
    earlier = [
        path for path in out.parent.glob("BENCH_*.json")
        if path.resolve() != out.resolve() and number(path) is not None
        and (limit is None or number(path) < limit)
    ]
    return max(earlier, key=number, default=None)


def bench_digest(tree: Path) -> str:
    """sha256 of the tree's bench/ files, caches and run scratch excluded."""
    h = hashlib.sha256()
    for path in sorted((tree / "bench").rglob("*")):
        rel = path.relative_to(tree)
        if path.is_file() and not {"__pycache__", ".runs"} & set(rel.parts):
            h.update(rel.as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def unpack(rev: str, into: Path) -> str:
    """Extract `git archive REV` into `into`; the full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return commit


def checkout_commit() -> tuple[str, bool]:
    """This checkout's HEAD, and whether src/ or bench/ differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout

    dirty = git("status", "--porcelain", "--", "src", "bench")
    return git("rev-parse", "HEAD").strip(), bool(dirty)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in `tree`, parsed; its seed is added."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return {"seed": seed, **parse_run(done.stdout)}


def side_record(runs: list[dict], commit: str, dirty: bool) -> dict:
    """One side's runs as written to the BENCH file, with their summary;
    `commit` and `dirty` replace the meta line's commit."""
    return {
        "meta": {**runs[0]["meta"], "commit": commit, "dirty": dirty},
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs),
        "runs": [{k: run[k] for k in ("seed", "correct", "failed", "metrics")} for run in runs],
        "summary": summarize(runs),
    }


def report(workload: str, record: dict) -> None:
    """Print each metric's median [q1, q3], with --against as parent -> change;
    the workload's LEADING metrics first, its RAW ones tagged."""
    def stats(stat: dict) -> str:
        return f"{stat['median']:.6g} [{stat['q1']:.6g}, {stat['q3']:.6g}]"

    change = record["change"]
    parent = record.get("parent")
    print(f"{workload}: {len(change['runs'])} runs, failed {change['failed']}"
          + (f" (parent: {parent['failed']})" if parent else ""))
    summary = change["summary"]
    leading = [name for name in LEADING.get(workload, ()) if name in summary]
    for name in leading + [name for name in summary if name not in leading]:
        label = f"{name} (raw)" if name in RAW.get(workload, ()) else name
        if not parent:
            print(f"  {label:<12} {stats(summary[name])}")
            continue
        verdict = record["compare"][name]
        delta = "" if verdict["delta"] is None else f"{verdict['delta']:+.1%}"
        print(f"  {label:<12} {stats(parent['summary'][name])} -> {stats(summary[name])}  {delta}"
              f"  better {verdict['better']}/{verdict['pairs']}  {verdict['verdict']}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("--against", metavar="REV", help="git revision to pair each run with")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    if not args.out.parent.is_dir():  # found before the runs, not after them
        parser.error(f"--out: no directory {args.out.parent}")

    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        parent_tree = commit = None
        if args.against:
            parent_tree = Path(tmp)
            commit = unpack(args.against, parent_tree)
            if bench_digest(parent_tree) != bench_digest(ROOT):
                print(f"error: bench/ differs between {args.against} and this checkout",
                      file=sys.stderr)
                return 1
        doc = {"seeds": args.seeds, "seconds": args.seconds, "against": commit, "workloads": {}}
        head, dirty = checkout_commit()
        for workload in names:
            change, parent = [], []
            for i, seed in enumerate(args.seeds):
                sides = [(change, ROOT)] + ([(parent, parent_tree)] if parent_tree else [])
                for runs, tree in sides if i % 2 == 0 else sides[::-1]:
                    runs.append(run_bench(tree, workload, seed, args.seconds))
            record = {"change": side_record(change, head, dirty)}
            if parent:
                record["parent"] = side_record(parent, commit, False)
                record["compare"] = compare(parent, change, metrics)
            doc["workloads"][workload] = record
            report(workload, record)

    doc["src_lines"] = {
        side: record[side]["meta"]["src_lines"]
        for record in doc["workloads"].values() for side in ("parent", "change") if side in record
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    earlier = newest_earlier(args.out)
    if earlier is None:
        print(f"no earlier BENCH file beside {args.out}")
    else:
        print(f"medians against {earlier.name} (change side):")
        for line in deltas(json.loads(earlier.read_text()), doc):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
