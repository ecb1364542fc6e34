"""The benchmark's workloads: set-up, one timed iteration, output checks.

An iteration is the unit the benchmark times (``run_s``); it is made of
operations, the unit it counts as attempted or failed: a training run, a sweep
cell, a CLI command. An operation fails if it raises or its output fails a
check. Each operation also yields a digest of its outputs, which must repeat
exactly whenever the same workload runs with the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from lingualchemy import cli, harness
from lingualchemy.alchemy import TRACE_HEADER

SWEEP_EPOCHS = 2
ANALYZE_TRAIN_EPOCHS = 4
# Trace columns that must be finite and that enter the digest.
LOSS_COLUMNS = ("l_cls", "l_uriel", "total")
# CSV columns that hold labels; every other cell must parse as a number.
LABEL_COLUMNS = frozenset({"kind", "lang", "method"})


@dataclass
class Op:
    name: str
    digest: str | None = None
    problem: str | None = None      # output check failed
    error: str | None = None        # raised

    @property
    def failed(self) -> bool:
        return self.problem is not None or self.error is not None


@dataclass
class Iteration:
    ops: list[Op] = field(default_factory=list)
    train_steps: int = 0
    unseen_acc: float | None = None


def training_seed(seed: int) -> int:
    """The workload seed picks one of the default config's training seeds,
    the seeds the paper's protocol and the acceptance criteria use."""
    seeds = harness.ExperimentConfig().seeds
    return seeds[seed % len(seeds)]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def non_numeric_cell(path: Path) -> str | None:
    """First CSV value cell that does not parse as a number, described."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    for r, row in enumerate(rows[1:], start=2):
        for col, cell in zip(header, row):
            if col in LABEL_COLUMNS:
                continue
            try:
                float(cell)
            except ValueError:
                return f"{path.name} row {r} column {col}: {cell!r} is not a number"
    return None


class TrainDefault:
    """One default ``run_experiment``, persisted as ``lingualchemy train`` does."""

    name = "train_default"

    def __init__(self, seed: int, workdir: Path, nproc: int, traced: bool):
        self.seed = training_seed(seed)
        self.cfg = harness.ExperimentConfig(seeds=(self.seed,))
        self.workdir = workdir
        self.bench = None
        self._count = 0

    def setup(self, tracer=None) -> None:
        self.bench = harness.prepare_benchmark(self.cfg)

    def iteration(self, tracer=None) -> Iteration:
        self._count += 1
        op = Op("run")
        it = Iteration(ops=[op])
        try:
            report = harness.run_experiment(
                self.cfg, seed=self.seed, benchmark=self.bench,
                run_dir=self.workdir / f"run{self._count}")
        except Exception as exc:
            op.error = _error(exc)
            return it
        cols = [TRACE_HEADER.index(c) for c in LOSS_COLUMNS]
        losses = [[row[c] for c in cols] for row in report.trace]
        op.digest = _digest(report.rows, losses)
        it.train_steps = len(report.trace)
        it.unseen_acc = report.aggregates.get("unseen_mean")
        if len(report.rows) != self.cfg.n_langs:
            op.problem = (f"{len(report.rows)} report rows, "
                          f"expected {self.cfg.n_langs}")
        elif not report.trace:
            op.problem = "empty loss trace"
        elif not all(math.isfinite(float(v)) for row in losses for v in row):
            op.problem = "non-finite loss in the trace"
        return it


class SweepScale:
    """``harness.scaling_sweep`` on the default benchmark, short epochs."""

    name = "sweep_scale"

    def __init__(self, seed: int, workdir: Path, nproc: int, traced: bool):
        # Spans in pool workers are not collected, so a traced sweep runs
        # every cell in this process.
        self.cfg = harness.ExperimentConfig(
            seeds=(training_seed(seed),), epochs=SWEEP_EPOCHS,
            threads=1 if traced else nproc)
        self.n_cells = len(harness.SWEEP_FACTORS) + 2
        self.steps_per_cell = 0

    def setup(self, tracer=None) -> None:
        bench = harness.prepare_benchmark(self.cfg)
        n_train = len(bench.corpus.for_langs(bench.seen).subset("train").examples)
        batches = -(-n_train // self.cfg.batch_size)
        self.steps_per_cell = self.cfg.epochs * batches

    def iteration(self, tracer=None) -> Iteration:
        it = Iteration()
        try:
            rows = harness.scaling_sweep(self.cfg)
        except Exception as exc:
            it.ops = [Op(f"cell{i}", error=_error(exc))
                      for i in range(self.n_cells)]
            return it
        values = []
        for row in rows:
            for _, value in row.per_seed:
                op = Op(f"cell:{row.label}", digest=_digest(value))
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    op.problem = f"cell {row.label} = {value!r}, not in [0, 1]"
                it.ops.append(op)
                values.append(value)
        it.train_steps = len(it.ops) * self.steps_per_cell
        finite = [v for v in values if math.isfinite(v)]
        it.unseen_acc = sum(finite) / len(finite) if finite else None
        return it


class AnalyzeRun:
    """``lingualchemy eval`` then ``lingualchemy align`` on a saved run."""

    name = "analyze_run"

    def __init__(self, seed: int, workdir: Path, nproc: int, traced: bool):
        self.seed = training_seed(seed)
        self.workdir = workdir
        self.config_path = workdir / "analyze.cfg"
        self.run_dir: Path | None = None
        self._setups = 0
        self._count = 0

    def _cli(self, argv, tracer, span_name) -> tuple[int, str]:
        out = io.StringIO()
        with _span(tracer, span_name), redirect_stdout(out):
            code = cli.main(["--config", str(self.config_path)] + argv)
        return code, out.getvalue()

    def setup(self, tracer=None) -> None:
        self.config_path.write_text(
            f"[training]\nepochs = {ANALYZE_TRAIN_EPOCHS}\nseeds = {self.seed}\n",
            encoding="utf-8")
        self._setups += 1
        run_dir = self.workdir / f"trained{self._setups}"
        code, _ = self._cli(["--out", str(run_dir), "train"], tracer, "cli.train")
        if code != 0 or not (run_dir / "checkpoint.lalc").is_file():
            raise RuntimeError(f"set-up training exited with code {code}")
        self.run_dir = run_dir

    def iteration(self, tracer=None) -> Iteration:
        self._count += 1
        eval_op, unseen_acc = self._eval(tracer)
        return Iteration(ops=[eval_op, self._align(tracer)],
                         unseen_acc=unseen_acc)

    def _eval(self, tracer) -> tuple[Op, float | None]:
        """The eval operation and the mean of the unseen rows it prints."""
        op = Op("eval")
        try:
            code, text = self._cli(["eval", "--run-dir", str(self.run_dir)],
                                   tracer, "cli.eval")
        except Exception as exc:
            op.error = _error(exc)
            return op, None
        op.digest = _digest(text)
        if code != 0:
            op.problem = f"eval exited with code {code}"
            return op, None
        unseen = []
        lines = text.splitlines()
        for line in lines:
            parts = line.split("\t")
            try:
                value = float(parts[2])
            except (IndexError, ValueError):
                op.problem = f"eval printed {line!r}, not lang/split/number"
                return op, None
            if parts[1] == "unseen":
                unseen.append(value)
        if not unseen or len(lines) != harness.ExperimentConfig().n_langs:
            op.problem = f"eval printed {len(lines)} rows"
        return op, (sum(unseen) / len(unseen) if unseen else None)

    def _align(self, tracer) -> Op:
        op = Op("align")
        out = self.workdir / f"align{self._count}"
        try:
            code, _ = self._cli(["--out", str(out), "align",
                                 "--run-dir", str(self.run_dir)],
                                tracer, "cli.align")
        except Exception as exc:
            op.error = _error(exc)
            return op
        if code != 0:
            op.problem = f"align exited with code {code}"
            return op
        csvs = sorted(out.glob("*.csv"))
        op.digest = _digest(*[p.name.encode() + p.read_bytes() for p in csvs])
        if not csvs:
            op.problem = "align wrote no CSV"
        for path in csvs:
            op.problem = op.problem or non_numeric_cell(path)
        return op


WORKLOADS = {w.name: w for w in (TrainDefault, SweepScale, AnalyzeRun)}
