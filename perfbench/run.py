"""Network-free benchmark of the text2sql pipeline and its scorer.

Usage (from the repository root):

    python3 perfbench/run.py --workload huge_db --seed 1 --seconds 20 --trace 0

It generates (or reuses) the seeded dataset of the workload, then runs whole
rounds of ``text2sql bench`` -> ``text2sql eval`` -> ``text2sql export-sft``
in-process through the CLI entry point, with the model replaced by a replay
backend, until ``--seconds`` have passed and at least 100 questions were
timed. Every output is checked against
answers computed apart from the program. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run prints the per-layer metrics and writes its spans to one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import text2sql  # noqa: E402

if not Path(text2sql.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"text2sql imported from {text2sql.__file__}, not from {ROOT / 'src'}")

from text2sql import cli  # noqa: E402
from text2sql.datasets import load_benchmark  # noqa: E402
from text2sql.execution import execute_sql  # noqa: E402
from text2sql.pipeline import Pipeline  # noqa: E402

import generate  # noqa: E402
from oracle import verdict  # noqa: E402
from replay import ReplayBackend, load_replies, request_key  # noqa: E402

WORKLOADS = ("huge_db", "wide_schema", "bulk_rows")
CACHE = ROOT / ".perfbench-cache"
OUT = CACHE / "out"
# 8192 tokens at the default prune fraction 0.8 gates schemas above ~26 KB of
# text: every wide_schema database passes the gate, the retail one does not.
CONFIG = {"context_window": 8192, "parallelism": 1, "timeout": 30.0}
SETUP_REPEATS = 3
# A run repeats whole rounds until --seconds have passed and at least this
# many questions were timed, so that p90 has ten samples above it.
MIN_QUESTIONS = 100
OVERHEAD_PROBES = 200
RSS_PERIOD_S = 0.002
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class RssPeak:
    """Highest resident set size seen while the block runs, sampled from /proc."""

    def __enter__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        resident = int(os.pread(self._fd, 128, 0).split()[1])
        self.peak = max(self.peak, resident)

    def _loop(self):
        while not self._stop.wait(RSS_PERIOD_S):
            self._sample()

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        os.close(self._fd)
        self.mb = self.peak * PAGE_MB


class Workload:
    def __init__(self, name: str, data_dir: Path):
        self.items_path = data_dir / f"{name}.items.json"
        self.db_root = data_dir / "dev_databases"
        self.replies_path = data_dir / f"{name}.replies.json"
        expect = json.loads((data_dir / f"{name}.expect.json").read_text(encoding="utf-8"))
        self.expect = expect["items"]
        self.databases = expect["databases"]
        self.items = json.loads(self.items_path.read_text(encoding="utf-8"))
        self.question_of = {str(i["question_id"]): i["question"] for i in self.items}
        self.n = len(self.items)
        self.faults = sum(1 for e in self.expect.values() if e["fault"])


class Checker:
    """Compares the program's outputs with the generator's answers."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_answers(self) -> None:
        """Gold and predicted SQL return the answers computed in Python."""
        for item in self.wl.items:
            e = self.wl.expect[str(item["question_id"])]
            path = self.wl.db_root / item["db_id"] / f"{item['db_id']}.sqlite"
            conn = sqlite3.connect(f"{path.as_uri()}?mode=ro", uri=True)
            try:
                for sql, stored in ((item["SQL"], e["gold"]), (e["final_sql"], e["pred"])):
                    rows = conn.execute(sql).fetchall()
                    if not _matches(rows, stored, e["ordered"]):
                        self.fail(f"{item['question_id']}: {sql!r} disagrees with its Python answer")
            finally:
                conn.close()

    def check_journal(self, journal: Path) -> None:
        states = {}
        for line in journal.read_text(encoding="utf-8").splitlines():
            state = json.loads(line)
            states[state["task"]["task_id"]] = state
        if len(states) != self.wl.n:
            self.fail(f"journal holds {len(states)} states for {self.wl.n} items")
        for qid, e in self.wl.expect.items():
            s = states.get(qid)
            if s is None:
                continue
            if s["error"]:
                self.fail(f"{qid}: error {s['error']}")
            if s["final_sql"] != e["final_sql"]:
                self.fail(f"{qid}: final SQL {s['final_sql']!r}, script ends with {e['final_sql']!r}")
            if len(s["llm_calls"]) != e["calls"]:
                self.fail(f"{qid}: {len(s['llm_calls'])} agent calls, script implies {e['calls']}")
            fired = any(c["agent"] == "selector" for c in s["llm_calls"])
            if fired != e["selector"] or (s["pruning"] is not None) != e["selector"]:
                self.fail(f"{qid}: selector fired={fired}, expected {e['selector']}")
            if s["pruning"] is not None:
                self._check_pruning(qid, s["task"]["db_id"], s["pruning"]["selection"])

    def _check_pruning(self, qid, db_id, selection) -> None:
        tables = self.wl.databases[db_id]
        if len(selection) < min(3, len(tables)):
            self.fail(f"{qid}: pruned schema keeps {len(selection)} tables")
        for table, cols in selection.items():
            spec = tables[table]
            if not set(spec["primary_keys"]) <= set(cols):
                self.fail(f"{qid}: pruned {table} lost a primary key")
            if len(cols) < min(6, len(spec["columns"])):
                self.fail(f"{qid}: pruned {table} keeps {len(cols)} columns")

    def check_bench_summary(self, stdout: str) -> None:
        summary = json.loads(stdout.strip().splitlines()[-1])
        hits = round(summary["ex_pct"] * summary["n"] / 100)
        expected = sum(1 for e in self.wl.expect.values() if e["ex"])
        self._count(self.wl.n, hits - expected, f"bench EX pass counts {hits} hits, oracle {expected}")

    def check_report(self, report_path: Path) -> None:
        items = json.loads(report_path.read_text(encoding="utf-8"))["items"]
        fault_hits = 0
        for item in items:
            e = self.wl.expect[item["task_id"]]
            if item["ex"] and not (math.isfinite(item["ves_ratio"]) and item["ves_ratio"] > 0):
                self.fail(f"{item['task_id']}: VES ratio {item['ves_ratio']}")
            if item["ex"] == e["ex"]:
                continue
            if e["fault"] and item["ex"]:
                fault_hits += 1
            else:
                self.fail(f"{item['task_id']}: eval EX {item['ex']}, oracle {e['ex']}")
        self._count(len(items), fault_hits, "eval")

    def check_records(self, records_path: Path) -> None:
        per_question = Counter()
        for line in records_path.read_text(encoding="utf-8").splitlines():
            per_question[request_key(json.loads(line)["prompt"])[1]] += 1
        fault_hits = 0
        for qid, e in self.wl.expect.items():
            got = per_question[self.wl.question_of[qid]]
            want = e["calls"] if e["ex"] else 0
            if got == want:
                continue
            if e["fault"] and got == e["calls"]:
                fault_hits += 1
            else:
                self.fail(f"{qid}: export wrote {got} records, expected {want}")
        self._count(self.wl.n, fault_hits, "export")

    def _count(self, attempted: int, fault_hits: int, what: str) -> None:
        """Operations on fault items that the program scores wrongly count as failed."""
        self.attempted += attempted
        if 0 <= fault_hits <= self.wl.faults:
            self.failed += fault_hits
        else:
            self.fail(f"{what}: {fault_hits} unexplained EX disagreements")


def _matches(rows, stored, ordered) -> bool:
    if "digest" in stored:
        return len(rows) == stored["count"] and generate.digest(rows, ordered) == stored["digest"]
    return verdict(rows, [tuple(r) for r in stored["rows"]], ordered)


class Runner:
    def __init__(self, wl: Workload, tag: str):
        self.wl = wl
        self.tag = tag
        self.backends: list[ReplayBackend] = []
        self.question_s: list[float] = []
        self.phase_s = {"bench": [], "eval": [], "export": []}
        self.rss = {"bench": [], "eval": []}
        self.journal_bytes = 0
        self.rounds = 0
        self.config_path = OUT / "config.json"
        self.config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
        replies = load_replies(wl.replies_path)

        def build_backend(settings):
            backend = ReplayBackend(replies, settings["context_window"])
            self.backends.append(backend)
            return backend
        cli.build_backend = build_backend

    def _cli(self, args: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(args=args, prog_name="text2sql", standalone_mode=False)
        return out.getvalue()

    def run_round(self, checker: Checker, tracer=None) -> None:
        wl = self.wl
        base = OUT / f"{self.tag}-r{self.rounds}"
        journal, report, records = (Path(f"{base}.jsonl"), Path(f"{base}-report"),
                                    Path(f"{base}-sft.jsonl"))
        for path in (journal, records, Path(f"{report}.json"), Path(f"{report}.txt")):
            path.unlink(missing_ok=True)
        common = ["--benchmark", "bird", "--items", str(wl.items_path), "--db-root", str(wl.db_root),
                  "--config", str(self.config_path)]
        phases = (
            ("bench", ["bench", *common, "--journal", str(journal), "--parallelism", "1", "--json"]),
            ("eval", ["eval", "--predictions", str(journal), *common, "--out", str(report),
                      "--json"]),
            ("export", ["export-sft", "--journal", str(journal), *common, "--out", str(records),
                        "--json"]),
        )
        outputs = {}
        for phase, args in phases:
            span = tracer.phase_span(phase) if tracer else contextlib.nullcontext()
            with RssPeak() as rss, span:
                start = time.perf_counter()
                outputs[phase] = self._cli(args)
                self.phase_s[phase].append(time.perf_counter() - start)
            if phase in self.rss:
                self.rss[phase].append(rss.mb)
        self.rounds += 1
        self.journal_bytes += journal.stat().st_size
        checker.check_journal(journal)
        checker.check_bench_summary(outputs["bench"])
        checker.check_report(Path(f"{report}.json"))
        checker.check_records(records)
        for path in (journal, records, Path(f"{report}.json"), Path(f"{report}.txt")):
            path.unlink(missing_ok=True)

    def llm_totals(self) -> tuple[Counter, Counter]:
        calls, tokens = Counter(), Counter()
        for backend in self.backends:
            calls.update(backend.calls)
            tokens.update(backend.prompt_tokens)
        return calls, tokens


def time_questions(sink: list):
    """Wrap Pipeline.run_question with a wall-clock timer; returns the undo function."""
    original = Pipeline.run_question

    def timed(self, task):
        start = time.perf_counter()
        try:
            return original(self, task)
        finally:
            sink.append(time.perf_counter() - start)
    Pipeline.run_question = timed
    return lambda: setattr(Pipeline, "run_question", original)


def measure_setup(wl: Workload) -> float:
    """Median wall time of load_benchmark plus the first get_schema of every database."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench = load_benchmark("bird", str(wl.items_path), str(wl.db_root))
        registry = bench.registry()
        for db_id in registry.db_ids():
            registry.get_schema(db_id)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _done(start: float, seconds: float, rounds: int, n: int) -> bool:
    return time.perf_counter() - start >= seconds and rounds * n >= MIN_QUESTIONS


def run_plain(wl: Workload, runner: Runner, checker: Checker, seconds: float, setup_s: float):
    undo = time_questions(runner.question_s)
    start = time.perf_counter()
    try:
        while not _done(start, seconds, runner.rounds, wl.n):
            runner.run_round(checker)
    finally:
        undo()
    questions = wl.n * runner.rounds
    calls, tokens = runner.llm_totals()

    def rate(phase):
        """Median over rounds of items per second, robust to one disturbed round."""
        return statistics.median(wl.n / s for s in runner.phase_s[phase])
    return {
        "setup_s": (setup_s, "s"),
        "bench_questions_per_s": (rate("bench"), "1/s"),
        "question_ms_p50": (statistics.median(runner.question_s) * 1e3, "ms"),
        "question_ms_p90": (_quantile(runner.question_s, 90) * 1e3, "ms"),
        "eval_items_per_s": (rate("eval"), "1/s"),
        "export_items_per_s": (rate("export"), "1/s"),
        # The first round only: later rounds inherit a heap that earlier ones
        # fragmented, and a command-line user runs one command per process.
        "bench_peak_rss_mb": (runner.rss["bench"][0], "MB"),
        "eval_peak_rss_mb": (runner.rss["eval"][0], "MB"),
        "prompt_tokens_per_question": (sum(tokens.values()) / questions, "tokens"),
        "llm_calls_per_question": (sum(calls.values()) / questions, "calls"),
    }


def run_traced(wl: Workload, runner: Runner, checker: Checker, seconds: float, trace_path: Path):
    """Pairs of an untraced and a traced round until ``seconds`` have passed.

    Alternating the two kinds, and which of them goes first, keeps drift and
    order effects out of the tracing overhead. The per-layer figures come from
    the traced rounds only.
    """
    import tracing

    tracer = tracing.Tracer()
    plain_q, plain_rounds, traced_rounds = [], [], []
    journal_bytes, tokens = 0, Counter()

    def plain_round():
        undo = time_questions(plain_q)
        t0 = time.perf_counter()
        try:
            runner.run_round(checker)
        finally:
            undo()
        plain_rounds.append(time.perf_counter() - t0)

    def traced_round():
        nonlocal journal_bytes
        runner.backends.clear()
        bytes_before = runner.journal_bytes
        tracer.install(ReplayBackend)
        t0 = time.perf_counter()
        try:
            runner.run_round(checker, tracer)
        finally:
            tracer.uninstall()
        traced_rounds.append(time.perf_counter() - t0)
        journal_bytes += runner.journal_bytes - bytes_before
        tokens.update(runner.llm_totals()[1])

    start = time.perf_counter()
    while not _done(start, seconds, len(traced_rounds), wl.n):
        pair = (plain_round, traced_round) if len(traced_rounds) % 2 == 0 else (traced_round, plain_round)
        for run_one in pair:
            run_one()

    db = next(iter(sorted(wl.db_root.iterdir())))
    db_path = str(db / f"{db.name}.sqlite")
    probes = []
    for _ in range(OVERHEAD_PROBES):
        t0 = time.perf_counter()
        execute_sql(db_path, "SELECT 1")
        probes.append(time.perf_counter() - t0)

    n_traced = len(traced_rounds)
    metrics = tracing.layer_metrics(
        tracer, questions=wl.n * n_traced, eval_items=wl.n * n_traced, benches=n_traced,
        exports=n_traced, prompt_tokens=tokens, journal_bytes=journal_bytes,
        overhead_us=statistics.median(probes) * 1e6)
    traced_q = [s[tracing.END] - s[tracing.START] for s in tracer.spans
                if s[tracing.NAME] == "pipeline.run_question"]
    metrics["trace.overhead_pct"] = (
        (statistics.median(traced_rounds) / statistics.median(plain_rounds) - 1) * 100, "%")
    metrics["trace.question_overhead_pct"] = (
        (statistics.median(traced_q) / statistics.median(plain_q) - 1) * 100, "%")
    tracer.dump(trace_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    data_dir = generate.dataset_dir(args.workload, args.seed, CACHE)
    if not generate.is_complete(data_dir):
        # A child process, so that generation leaves no garbage or heap growth
        # behind in the measured process.
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(generate.__file__)), args.workload,
                        str(args.seed), str(CACHE)], check=True)
        print(f"dataset {data_dir.name}: generated in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    wl = Workload(args.workload, data_dir)
    checker = Checker(wl)
    checker.check_answers()
    setup_s = measure_setup(wl)
    # The harness's own long-lived objects (answers, replies) leave the
    # collector's generations, so they add nothing to the program's GC passes.
    gc.collect()
    gc.freeze()

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(wl, tag)
    if args.trace:
        metrics = run_traced(wl, runner, checker, args.seconds, OUT / f"trace-{tag}.json")
    else:
        metrics = run_plain(wl, runner, checker, args.seconds, setup_s)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}", file=sys.stderr)
    for message in checker.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
