"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

It runs every workload at a tiny size, untraced and traced, and checks
that every metric of BENCHMARK.json is emitted with its unit and that the
count metrics repeat exactly for a seed. It then checks that the answer
checker rejects a corrupted family and a wrong query answer, that the
per-task cap raises a timeout, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (needs HERE on the path)

sys.path.insert(0, str(run.ROOT / "src"))
import afmat  # noqa: E402
import check  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def bench(*argv: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def metrics_emitted() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        counts = []
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, None)):
            proc = bench("--workload", w["name"], "--seed", "5", "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny")
            expect(proc.returncode == 0, f"{w['name']} trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w['name']} trace {trace} answers are all correct")
            if names is not None:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == {m["name"]: m["unit"] for m in names},
                       f"{w['name']} trace {trace} emits every metric with its unit")
            if trace == 1:
                counts.append({k: result["metrics"][k]["value"] for k in run.COUNT_METRICS})
        expect(counts[0] == counts[1], f"{w['name']} count metrics repeat exactly")


def checker_catches_errors() -> None:
    small = afmat.generate(afmat.GeneratorConfig(n=8, p=0.15, seed=3))
    big = afmat.generate(afmat.GeneratorConfig(n=14, p=0.08, seed=3))
    for f in (small, big):
        compute = lambda tag, f=f: afmat.extensions(f, tag).sets
        ad = set(afmat.extensions(f, "ad").sets)
        not_ad = next(s for s in afmat.extensions(f, "cf").sets if s not in ad)
        for tag, bad in (("ad", ad | {not_ad}), ("co", set())):
            try:
                check.FrameworkCheck(f, compute, seed=1).family(tag, bad)
            except check.CheckFailure:
                caught = True
            else:
                caught = False
            expect(caught, f"checker rejects a corrupted {tag} family at n={f.n}")
        right = afmat.query(f, "DC", "pr", (1,))
        try:
            check.FrameworkCheck(f, compute, seed=1).query("DC", "pr", (1,), not right)
        except check.CheckFailure:
            caught = True
        else:
            caught = False
        expect(caught, f"checker rejects a wrong DC answer at n={f.n}")


def cap_times_out() -> None:
    run.signal.signal(run.signal.SIGALRM, run._alarm)

    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass
    try:
        run.call_with_cap(spin, 0.05)
    except run.TaskTimeout:
        caught = True
    else:
        caught = False
    expect(caught, "a task over the cap raises a timeout")


def refuses_without_program() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "files-cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program's sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    metrics_emitted()
    checker_catches_errors()
    cap_times_out()
    refuses_without_program()
    print("selftest passed")
