"""Seeded benchmark of afmat, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-enum --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Load is one process and one client in a closed loop: each task (one
``extensions``, ``query`` or ``afmat.cli.run_cli`` call) is issued after
the previous one returns, with no threads. A run issues the workload's
fixed task list once (the first round), then repeats every task shorter
than ``REPEAT_BELOW_S`` in further rounds while another fits in
``--seconds``. Each task is scored by the median of its rounds, which
drops the stalls a shared host puts into single samples; a task too long
to repeat averages over its own length. The end-to-end timings are
scaled to a nominal host speed by ``reference()``, timed between tasks
(see perfbench/README.md). Every answer is checked outside the timed
region (see ``check.py``).
``--workload all`` runs each workload in a fresh child process.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the run does one untraced round, one traced round and
then probes outside the task spans, and reports the per-layer metrics.
Earlier lines give provenance, the tail percentile and sample count, the
unscaled timings, the host speed, and the failure fraction. Results, spans and the first counterexample go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sparse-enum", "sparse-select", "files-cli")
TASK_CAP_S = 20.0      # a task running longer is recorded as a timeout
RUN_BUDGET_S = 150.0   # after this, remaining tasks are timeouts: a run ends well inside 180 s
SETUP_REPEATS = 5
REPEAT_BELOW_S = 0.25  # tasks shorter than this in the first round are timed again
REF_EVERY_S = 0.02     # the host-speed reference runs between tasks at most this often
REF_NOMINAL_S = 1.7e-3  # its time at the nominal host speed that timings are scaled to
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# ROADMAP item 1's sparse stressors, all at generator seed 2024. They are the
# same for every workload seed so that the heaviest tasks, which set wall_s,
# do not swing with the seed.
STRESSOR_SEED = 2024
ENUM_STRESSORS = ((22, 0.03), (24, 0.05), (30, 0.08))
# Dense files-cli frameworks, (n, p): a fixed grid from 40 to 150 arguments,
# so that the slowest calls, which set the tail, have the same size for every
# seed; the seed draws the attacks. Density rises with n so that parsing, not
# the seed-dependent number of conflict-free sets, sets the time of a call.
DENSE_GRID = ((40, 0.5), (95, 0.65), (150, 0.8))
# Bounds on the (conflict-free, admissible) family sizes of seeded draws.
ENUM_BANDS = ((1000, 2000),)
SELECT_BANDS = ((512, 1024), (96, 160))

SEMANTICS = ("cf", "st", "ad", "co", "pr", "gr", "id", "sst", "eg")
ENUM_TAGS = ("cf", "st", "ad", "co", "pr")
SELECT_EE_TAGS = ("gr", "id", "sst", "eg")
SELECT_QUERY_TAGS = ("co", "pr", "st", "sst")
QUESTIONS = ("SE", "DC", "DS", "AC", "AS")
CLI_TASKS = ("EE",) + QUESTIONS
CORE = ("cf", "st", "ad", "co")
DERIVED = ("pr", "gr", "id", "sst", "eg")

END_TO_END = (
    ("wall_s", "s"), ("task_ms.p50", "ms"), ("task_ms.tail", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
PER_LAYER = (
    ("formats.parse_s", "s"), ("formats.parse_MB_per_s", "MB/s"), ("cli.self_s", "s"),
    ("core.retained_mb_per_100", "MB"),
    ("conflictfree.enumerate_s", "s"), ("conflictfree.sets", "count"),
    ("conflictfree.sets_per_s", "1/s"),
    *((f"semantics.family_s.{t}", "s") for t in CORE),
    ("semantics.criterion_self_s", "s"),
    *((f"semantics.kept.{t}", "count") for t in ("st", "ad", "co")),
    ("semantics.kept_ratio.ad", "ratio"),
    *((f"semantics.derived_s.{t}", "s") for t in DERIVED),
    ("semantics.selection_self_s", "s"), ("semantics.admissible_sets", "count"),
    *((f"semantics.query_s.{q}", "s") for q in QUESTIONS),
    ("semantics.query_over_ee", "ratio"),
    ("bench.check_s", "s"), ("bench.trace_overhead_frac", "ratio"),
)
COUNT_METRICS = ("conflictfree.sets", "semantics.kept.st", "semantics.kept.ad",
                 "semantics.kept.co", "semantics.admissible_sets")


@dataclass
class Input:
    f: object            # afmat.Framework
    label: str
    path: Path | None = None


@dataclass(frozen=True)
class Task:
    fw: int              # index into the workload's inputs
    kind: str            # "ee", "query" or "cli"
    tag: str
    question: str        # "EE" for enumeration tasks
    target: tuple = ()


@dataclass
class Workload:
    name: str
    inputs: list
    tasks: list


@dataclass
class Failure:
    task: int
    round: int
    kind: str            # "timeout", "error" or "wrong"
    detail: str


@dataclass
class RunState:
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)       # (fw, tag) -> family size
    check_s: list = field(default_factory=list)     # check time of each round
    counterexample: str | None = None


class TaskTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise TaskTimeout


def call_with_cap(fn, cap_s: float):
    """Run ``fn()`` and its duration in ns; raise TaskTimeout after ``cap_s``."""
    if cap_s <= 0:
        raise TaskTimeout
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        t0 = time.perf_counter_ns()
        result = fn()
        return result, time.perf_counter_ns() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- inputs -----------------------------------------------------------------

def _stratified(rng: random.Random, i: int, k: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (i + rng.random()) / k


def count_sets(f, limit: int) -> tuple[int, int]:
    """Conflict-free and admissible sets of ``f``, by a plain depth-first walk
    over conflict-free bitmasks; stops once more than ``limit`` sets are seen.

    Used only to draw inputs; shares no code with the program.
    """
    targets, attackers, loops = [0] * f.n, [0] * f.n, 0
    for a, b in f.attacks:
        targets[a - 1] |= 1 << (b - 1)
        attackers[b - 1] |= 1 << (a - 1)
        if a == b:
            loops |= 1 << (a - 1)
    total = [0, 0]

    def grow(i: int, mask: int, plus: int, minus: int) -> None:
        if total[0] > limit:
            return
        total[0] += 1
        total[1] += minus & ~plus == 0  # every attacker of the set is attacked back
        for j in range(i, f.n):
            if not (loops >> j) & 1 and not (targets[j] | attackers[j]) & mask:
                grow(j + 1, mask | 1 << j, plus | targets[j], minus | attackers[j])

    grow(0, 0, 0, 0)
    return total[0], total[1]


# A fixed framework for the host-speed reference, written out so that no
# change to afmat can change it.
REF_FRAMEWORK = SimpleNamespace(n=12, attacks=(
    (1, 2), (2, 3), (3, 1), (4, 5), (6, 7), (8, 9), (9, 8), (10, 11), (12, 1), (5, 12)))


def reference() -> int:
    """The two kinds of work afmat does, with none of its code: a bitmask
    walk over the conflict-free sets of REF_FRAMEWORK, and building a
    family of frozensets and a dict over it. Its time tracks the speed the
    shared host gives this process to such work."""
    walked, _ = count_sets(REF_FRAMEWORK, 10**6)
    family = frozenset(frozenset(j for j in range(11) if i >> j & 1) for i in range(0, 4000, 9))
    return walked + sum({s: len(s) for s in family}.values())


def build(afmat, name: str, seed: int, tiny: bool, files_dir: Path) -> Workload:
    """The inputs and fixed task list of one workload; a pure function of the seed."""
    rng = random.Random(f"{name}:{seed}")
    inputs, tasks = [], []

    def add(n: int, p: float, s: int):
        p = round(p, 4)
        f = afmat.generate(afmat.GeneratorConfig(n=n, p=p, seed=s))
        inputs.append(Input(f, f"gen(n={n},p={p},seed={s})"))
        return f

    def draw(i: int, k: int, n: int, p_range: tuple, bands: tuple) -> None:
        """Slot i of k: redraw until the (conflict-free, admissible) counts fall in ``bands``."""
        while True:
            f = add(n, _stratified(rng, i, k, *p_range), rng.randrange(2**32))
            counts = count_sets(f, bands[0][1])
            if tiny or all(lo <= c <= hi for c, (lo, hi) in zip(counts, bands)):
                return
            inputs.pop()

    if name == "sparse-enum":
        # The stressors give most of wall_s; each of their tasks runs longer
        # than REPEAT_BELOW_S, so it is timed once. Many small sparse
        # frameworks in ENUM_BANDS, timed in every round, set the median
        # and tail task.
        k = 4 if tiny else 96
        for i in range(k):
            draw(i, k, (8 if tiny else 13) + i % 4, (0.05, 0.08), ENUM_BANDS)
        for n, p in [] if tiny else ENUM_STRESSORS:
            add(n, p, STRESSOR_SEED)
        tasks = [Task(fw, "ee", tag, "EE") for fw in range(len(inputs)) for tag in ENUM_TAGS]
    elif name == "sparse-select":
        # Frameworks small enough for the oracle, in SELECT_BANDS: the
        # admissible family is large relative to the conflict-free one, and
        # no single draw's quadratic sst swamps a round or moves the median.
        # Every task is short, so each is timed in every round.
        k = 3 if tiny else 40
        for i in range(k):
            draw(i, k, 8 if tiny else 12, (0.03, 0.05), SELECT_BANDS)
        for fw, inp in enumerate(inputs):
            tasks += [Task(fw, "ee", tag, "EE") for tag in SELECT_EE_TAGS]
            tasks += [
                Task(fw, "query", tag, q, (rng.randint(1, inp.f.n),))
                for tag in SELECT_QUERY_TAGS for q in QUESTIONS
            ]
    elif name == "files-cli":
        small = 3 if tiny else 24
        for i in range(small):  # like the acceptance corpus
            add(1 + i % 12, (0.1, 0.3, 0.5)[i % 3], rng.randrange(2**32))
        for n, p in DENSE_GRID[:1] if tiny else DENSE_GRID:  # distinct dense mid-size frameworks
            add(n, p, rng.randrange(2**32))
        files_dir.mkdir(parents=True, exist_ok=True)
        for fw, inp in enumerate(inputs):
            fmt = ("tgf", "apx")[fw % 2]
            inp.path = files_dir / f"{fw:03d}.{fmt}"
            inp.path.write_text((afmat.format_tgf if fmt == "tgf" else afmat.format_apx)(inp.f),
                                encoding="utf-8")
            tasks += [
                Task(fw, "cli", tag, q, (rng.randint(1, inp.f.n),) if q != "EE" else ())
                for tag in SEMANTICS for q in CLI_TASKS
            ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, inputs, tasks)


def cli_argv(task: Task, inp: Input) -> list:
    argv = ["solve", str(inp.path), "--semantics", task.tag, "--task", task.question]
    return argv + (["--arg", str(task.target[0])] if task.target else [])


def warm_up(afmat, files_dir: Path) -> None:
    """Touch every code path once on a tiny framework before timing."""
    f = afmat.generate(afmat.GeneratorConfig(n=6, p=0.2, seed=1))
    for tag in SEMANTICS:
        afmat.extensions(f, tag)
        for q in QUESTIONS:
            afmat.query(f, q, tag, (1,))
    path = files_dir / "warmup.tgf"
    files_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(afmat.format_tgf(f), encoding="utf-8")
    afmat.parse_tgf(path.read_text(encoding="utf-8"))
    with redirect_stdout(io.StringIO()):
        afmat.cli.run_cli(["solve", str(path), "--semantics", "gr", "--task", "EE"])


# -- running ----------------------------------------------------------------

class Bench:
    def __init__(self, afmat, check, wl: Workload, seed: int, started: float):
        self.afmat, self.check, self.wl, self.seed = afmat, check, wl, seed
        self.started = started
        self.state = RunState()
        self.checker = None
        self.checker_fw = None
        self.refs = []            # durations of the reference, in seconds
        self.last_ref = 0.0

    def call(self, task: Task):
        inp = self.wl.inputs[task.fw]
        if task.kind == "ee":
            return lambda: self.afmat.extensions(inp.f, task.tag)
        if task.kind == "query":
            return lambda: self.afmat.query(inp.f, task.question, task.tag, task.target)
        argv = cli_argv(task, inp)

        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.afmat.cli.run_cli(argv)
            return code, out.getvalue()
        return run

    def checker_for(self, fw: int):
        if self.checker_fw != fw:  # tasks come grouped by framework
            f = self.wl.inputs[fw].f
            self.checker = self.check.FrameworkCheck(
                f, lambda tag: self.afmat.extensions(f, tag).sets, seed=self.seed * 7919 + fw)
            self.checker_fw = fw
        return self.checker

    def verify(self, i: int, task: Task, result) -> None:
        """Check one answer; raise CheckFailure if it is wrong."""
        check = self.check
        if task.kind == "cli":
            code, out = result
            if code != 0:
                raise check.CheckFailure(f"exit code {code}")
            result = check.parse_cli_output(task.question, out)
        elif task.kind == "ee":
            result = result.sets
        if task.question == "EE":
            self.state.sizes.setdefault((task.fw, task.tag), len(result))
        fingerprint = (len(result), hash(result)) if task.question == "EE" else result
        if i in self.state.fingerprints:  # later rounds: same answer as the checked one
            if self.state.fingerprints[i] != fingerprint:
                raise check.CheckFailure("answer changed between rounds")
            return
        checker = self.checker_for(task.fw)
        if task.question == "EE":
            checker.family(task.tag, result)
        else:
            checker.query(task.question, task.tag, task.target, result)
        self.state.fingerprints[i] = fingerprint

    def fail(self, i: int, rnd: int, kind: str, detail: str) -> None:
        self.state.failures.append(Failure(i, rnd, kind, detail))
        if self.state.counterexample is None:
            self.write_counterexample(self.wl.tasks[i], kind, detail)

    def write_counterexample(self, task: Task, kind: str, detail: str) -> None:
        inp = self.wl.inputs[task.fw]
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"counterexample-{self.wl.name}-seed{self.seed}.tgf"
        path.write_text(self.afmat.format_tgf(inp.f), encoding="utf-8")
        replay = f"afmat solve {path.relative_to(ROOT)} --semantics {task.tag} --task {task.question}"
        if task.target:
            replay += f" --arg {task.target[0]}"
        self.state.counterexample = f"{kind}: {detail}; {inp.label}; replay: {replay}"
        print(f"first failure: {self.state.counterexample}", file=sys.stderr)

    def run_round(self, rnd: int, traced: bool, indices) -> list:
        """Issue the tasks at ``indices`` once, in order; returns each one's duration in seconds."""
        times = []
        check_s = 0.0
        for i in indices:
            task = self.wl.tasks[i]
            if time.perf_counter() - self.last_ref >= REF_EVERY_S:
                t0 = time.perf_counter_ns()
                reference()
                self.refs.append((time.perf_counter_ns() - t0) / 1e9)
                self.last_ref = time.perf_counter()
            cap = min(TASK_CAP_S, RUN_BUDGET_S - (time.perf_counter() - self.started))
            try:
                result, ns = call_with_cap(self.call(task), cap)
            except TaskTimeout:
                self.fail(i, rnd, "timeout", f"exceeded {cap:.1f} s")
                times.append(max(cap, 0.0))
                continue
            except Exception as exc:  # the program raised: record it and go on
                self.fail(i, rnd, "error", f"{type(exc).__name__}: {exc}")
                times.append(0.0)
                continue
            end = time.perf_counter_ns()
            times.append(ns / 1e9)
            if traced:
                name = {"ee": "semantics.extensions", "query": "semantics.query",
                        "cli": "cli.run_cli"}[task.kind]
                self.span(name, end - ns, end, None, i, task.fw, task.tag, task.question)
            t0 = time.perf_counter()
            try:
                self.verify(i, task, result)
            except self.check.CheckFailure as exc:
                self.fail(i, rnd, "wrong", str(exc))
            check_s += time.perf_counter() - t0
        self.checker = self.checker_fw = None
        self.state.check_s.append(check_s)
        return times

    def span(self, name, start, end, parent, task, fw, tag=None, question=None, **attrs) -> int:
        sid = len(self.state.spans)
        self.state.spans.append(dict(id=sid, name=name, start=start, end=end, parent=parent,
                                     task=task, fw=fw, tag=tag, question=question, **attrs))
        return sid

    def timed(self, name, parent, task, fw, fn, tag=None, question=None, **attrs):
        t0 = time.perf_counter_ns()
        out = fn()
        self.span(name, t0, time.perf_counter_ns(), parent, task, fw, tag, question, **attrs)
        return out

    def probe(self) -> None:
        """Trace-only measurements, made outside the task spans."""
        afmat, wl = self.afmat, self.wl
        ee_tags = {(t.fw, t.tag) for t in wl.tasks if t.question == "EE"}
        for fw, inp in enumerate(wl.inputs):
            root = self.span("bench.probe", time.perf_counter_ns(), 0, None, None, fw)
            count = self.timed("conflictfree.iter_conflict_free", root, None, fw,
                               lambda: sum(1 for _ in afmat.iter_conflict_free(inp.f)))
            self.state.spans[-1]["sets"] = count
            if wl.name == "sparse-select":  # EE times the task list does not measure
                for tag in ("ad",) + SELECT_QUERY_TAGS:
                    if (fw, tag) not in ee_tags:
                        fam = self.timed("semantics.extensions", root, None, fw,
                                         lambda: afmat.extensions(inp.f, tag), tag, "EE")
                        self.state.sizes.setdefault((fw, tag), len(fam))
            self.state.spans[root]["end"] = time.perf_counter_ns()
        for i, task in enumerate(wl.tasks):
            if task.kind != "cli":
                continue
            inp = wl.inputs[task.fw]
            parse = afmat.parse_tgf if inp.path.suffix == ".tgf" else afmat.parse_apx
            text = inp.path.read_text(encoding="utf-8")
            root = self.span("bench.probe", time.perf_counter_ns(), 0, None, i, task.fw)
            f, _ = self.timed("formats.parse", root, i, task.fw, lambda: parse(text),
                              bytes=len(text.encode()))
            target = task.target or None
            self.timed("semantics.query", root, i, task.fw,
                       lambda: afmat.query(f, task.question, task.tag, target),
                       task.tag, task.question)
            self.state.spans[root]["end"] = time.perf_counter_ns()


# -- metrics ----------------------------------------------------------------

def percentile(xs: list, q: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return next((q for q in TAIL_LADDER if n * (1 - q / 100) >= 10), 50.0)


def rss_mb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(spans: list, sizes: dict, overhead: float, check_s: float,
                  retained: float) -> dict:
    """Per-layer metrics of the traced round, computed from its spans."""
    dur = lambda s: (s["end"] - s["start"]) / 1e9
    task_spans = [s for s in spans if s["parent"] is None and s["task"] is not None
                  and s["name"] != "bench.probe"]
    cli_spans = [s for s in task_spans if s["name"] == "cli.run_cli"]
    in_task = [s for s in spans if s["parent"] is not None and s["task"] is not None]
    # Work done for a task, by layer: the task span itself, or for a CLI call
    # the separately timed solve of the same call.
    work = [s for s in task_spans if s["name"] != "cli.run_cli"]
    work += [s for s in in_task if s["name"] == "semantics.query"]
    ee_time: dict = {}
    for s in work + [s for s in spans if s["task"] is None and s["name"] == "semantics.extensions"]:
        if s["question"] == "EE":
            ee_time.setdefault((s["fw"], s["tag"]), dur(s))
    drains = {s["fw"]: s for s in spans if s["name"] == "conflictfree.iter_conflict_free"}
    enum_time = {fw: dur(s) for fw, s in drains.items()}

    m = {}
    parse = [s for s in in_task if s["name"] == "formats.parse"]
    m["formats.parse_s"] = sum(map(dur, parse))
    parsed_mb = sum(s["bytes"] for s in parse) / 1e6
    m["formats.parse_MB_per_s"] = parsed_mb / m["formats.parse_s"] if parse else 0.0
    by_task = {}
    for s in in_task:
        by_task[s["task"]] = by_task.get(s["task"], 0.0) + dur(s)
    m["cli.self_s"] = sum(dur(s) - by_task.get(s["task"], 0.0) for s in cli_spans)
    m["core.retained_mb_per_100"] = retained
    m["conflictfree.enumerate_s"] = sum(enum_time.values())
    m["conflictfree.sets"] = sum(s["sets"] for s in drains.values())
    m["conflictfree.sets_per_s"] = m["conflictfree.sets"] / max(m["conflictfree.enumerate_s"], 1e-9)
    ee = [s for s in work if s["question"] == "EE"]
    for t in CORE:
        m[f"semantics.family_s.{t}"] = sum(dur(s) for s in ee if s["tag"] == t)
    m["semantics.criterion_self_s"] = sum(
        dur(s) - enum_time[s["fw"]] for s in ee if s["tag"] in ("st", "ad", "co"))
    kept = {t: sum(v for (fw, tag), v in sizes.items() if tag == t) for t in ("st", "ad", "co")}
    for t in ("st", "ad", "co"):
        m[f"semantics.kept.{t}"] = kept[t]
    visited = sum(drains[fw]["sets"] for (fw, tag) in sizes if tag == "ad")
    m["semantics.kept_ratio.ad"] = kept["ad"] / visited if visited else 0.0
    for t in DERIVED:
        m[f"semantics.derived_s.{t}"] = sum(dur(s) for s in ee if s["tag"] == t)
    m["semantics.selection_self_s"] = sum(
        dur(s) - ee_time[(s["fw"], "ad")] for s in ee if s["tag"] in DERIVED)
    m["semantics.admissible_sets"] = kept["ad"]
    queries = [s for s in work if s["question"] != "EE"]
    for q in QUESTIONS:
        m[f"semantics.query_s.{q}"] = sum(dur(s) for s in queries if s["question"] == q)
    ee_base = sum(ee_time[(s["fw"], s["tag"])] for s in queries)
    m["semantics.query_over_ee"] = sum(map(dur, queries)) / ee_base if queries else 0.0
    m["bench.check_s"] = check_s
    m["bench.trace_overhead_frac"] = overhead
    return m


# -- entry ------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "afmat" / "__init__.py").is_file():
        print(f"perfbench: afmat sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import afmat
    import afmat.cli
    import_s = time.perf_counter() - t0
    import check

    files_dir = OUT / f"files-{args.workload}-{args.seed}"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = build(afmat, args.workload, args.seed, args.scale == "tiny", files_dir)
        warm_up(afmat, files_dir)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    signal.signal(signal.SIGALRM, _alarm)
    bench = Bench(afmat, check, wl, args.seed, started)
    gc.collect()
    rss_before = rss_mb()
    samples = [[] for _ in wl.tasks]   # durations of each task, one per round it ran in
    indices = range(len(wl.tasks))
    walls = []
    measure_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(walls) == 1
        round_start = time.perf_counter()
        times = bench.run_round(len(walls), traced, indices)
        for i, t in zip(indices, times):
            samples[i].append(t)
        walls.append(sum(times))
        next_round_s = time.perf_counter() - round_start  # checks included
        if len(walls) == 1:
            gc.collect()
            retained = (rss_mb() - rss_before) / len(wl.inputs) * 100
            if args.trace == 0:
                indices = [i for i, ts in enumerate(samples) if ts[0] < REPEAT_BELOW_S]
                next_round_s = sum(samples[i][0] for i in indices)
        if args.trace == 1:
            if len(walls) == 2:
                break
        elif not indices or time.perf_counter() - measure_start + next_round_s > args.seconds:
            break
    state = bench.state
    if args.trace == 1:
        bench.probe()

    per_task = [statistics.median(ts) for ts in samples]
    tail_q = tail_percentile(len(per_task))
    attempted = sum(map(len, samples))
    failed = len({(f.task, f.round) for f in state.failures})
    # Timings scaled to the nominal host speed: the host's speed drifts by
    # tens of percent over minutes, and the reference, run between tasks
    # throughout the run, drifts with it.
    speed = REF_NOMINAL_S / statistics.fmean(bench.refs)
    raw = {
        "wall_s": sum(per_task),
        "task_ms.p50": percentile(per_task, 50) * 1e3,
        "task_ms.tail": percentile(per_task, tail_q) * 1e3,
        "setup_s": setup_s,
    }
    if args.trace == 0:
        metrics = {k: v * speed for k, v in raw.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    else:
        # Counts must repeat exactly: the drain agrees with every EE cf answer.
        for s in state.spans:
            if s["name"] == "conflictfree.iter_conflict_free":
                if state.sizes.get((s["fw"], "cf"), s["sets"]) != s["sets"]:
                    state.failures.append(Failure(-1, 1, "wrong", f"cf count differs on {s['fw']}"))
                    failed += 1
        metrics = layer_metrics(state.spans, state.sizes, walls[1] / walls[0] - 1,
                                state.check_s[0], retained)
        # The counts are fixed by the semantics, so every run of a seed must agree.
        counts = {k: metrics[k] for k in COUNT_METRICS}
        record = OUT / f"counts-{args.workload}-seed{args.seed}-{args.scale}.json"
        if not record.exists():
            OUT.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(counts))
        elif json.loads(record.read_text()) != counts:
            state.failures.append(Failure(-1, 1, "wrong", f"counts differ from {record.name}"))
            failed += 1
        units = dict(PER_LAYER)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "afmat_version": afmat.__version__,
        "frameworks": len(wl.inputs), "tasks": len(wl.tasks), "rounds": len(walls),
        "tasks_attempted": attempted,
    }
    extras = {
        "task_ms.tail": {"percentile": tail_q, "samples": len(per_task)},
        "failed_frac": {"value": failed / attempted, "attempted": attempted, "failed": failed},
        "round_walls_s": walls,
        "unscaled": raw, "speed": speed, "reference_mean_s": REF_NOMINAL_S / speed,
        "reference_samples": len(bench.refs),
        "import_s": import_s, "setup_repeats_s": setups,
        "task_s": per_task,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "provenance": provenance, "extras": extras, "result": result,
        "failures": [vars(f) for f in state.failures[:100]],
        "counterexample": state.counterexample,
    }, indent=1))
    if args.trace == 1:
        stem.with_suffix(".spans.json").write_text(json.dumps(state.spans))

    print("provenance " + json.dumps(provenance))
    for k, v in result["metrics"].items():
        note = ""
        if k == "task_ms.tail":
            note = f"  (p{tail_q:g}, {len(per_task)} samples)"
        if args.trace == 0 and k in raw:
            note += f"  (unscaled {raw[k]:.6g})"
        print(f"{args.workload:14s} {k:34s} {v['value']:14.6g} {v['unit']}{note}")
    print(f"{args.workload:14s} {'host_speed':34s} {speed:14.6g} ratio"
          f"  (reference {REF_NOMINAL_S / speed * 1e6:.1f} us over {len(bench.refs)} samples)")
    print(f"{args.workload:14s} {'failed_frac':34s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} attempted)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is that workload's own."""
    combined = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small frameworks, for the self-test")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
