"""Spans around calls into the lingualchemy layers, recorded from outside.

The tracer replaces each traced public function at every attribute a caller
looks it up by (a module global such as ``alchemy.encoder_forward``, a name
imported into another module such as ``harness.generate_corpus``, or a class
attribute such as ``AdamW.step``) with a wrapper that records a span. The
program itself is not edited. Spans stay in memory and are written once, when
the benchmark ends.

A span is ``(span_id, parent_id, name, start, end, run_id)``; ``parent_id`` is
-1 for a span opened by no traced call. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Public autodiff ops. Every one is wrapped so that tracked graph nodes are
# counted; ops a later version removes are skipped.
AUTODIFF_OPS = (
    "add", "sub", "mul", "add_bias", "gelu", "softplus", "matmul",
    "transpose_last2", "slice_last", "slice_rows", "concat_last", "embedding",
    "layer_norm", "masked_softmax", "scale", "sum_all", "take_first_position",
    "mean_pool_masked", "softmax_cross_entropy", "mse",
)
# Ops whose forward time is reported one by one.
TIMED_OPS = ("matmul", "add_bias", "layer_norm", "masked_softmax", "gelu",
             "embedding", "slice_last", "concat_last", "transpose_last2")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.tracked_nodes = 0
        self.run_id = "setup"
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, self.run_id))

    def _call(self, name, fn, args, kwargs):
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, parent, name, start)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around a CLI command."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    # -- installing wrappers --------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def wrap_function(self, modules, owner, attr, name):
        """Wrap ``owner.attr`` and every alias of it in ``modules``.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        naming = name if callable(name) else (lambda args, kwargs: name)
        call = self._call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(naming(args, kwargs), original, args, kwargs)

        self._replace_everywhere(modules, original, wrapper)

    def wrap_op(self, modules, autodiff, attr):
        """Wrap an autodiff op; a result that joins the graph is a node."""
        original = getattr(autodiff, attr, None)
        if original is None:
            return
        name = f"autodiff.{attr}"
        grad_name = name + ".grad"
        call = self._call
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            grad = autodiff._grad_enabled
            out = call(grad_name if grad else name, original, args, kwargs)
            if getattr(out, "requires_grad", False):
                tracer.tracked_nodes += 1
            return out

        self._replace_everywhere(modules, original, wrapper)

    def wrap_method(self, cls, attr, name):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        call = self._call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, original, args, kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def install(self, pkg):
        """Wrap the public entry points of every lingualchemy layer."""
        import lingualchemy.alchemy as alchemy
        import lingualchemy.alignment as alignment
        import lingualchemy.autodiff as autodiff
        import lingualchemy.cli as cli
        import lingualchemy.encoder as encoder
        import lingualchemy.harness as harness
        import lingualchemy.synthlang as synthlang
        import lingualchemy.uriel as uriel

        modules = (pkg, alchemy, alignment, autodiff, cli, encoder, harness,
                   synthlang, uriel)
        for op in AUTODIFF_OPS:
            self.wrap_op(modules, autodiff, op)
        self.wrap_function(modules, autodiff, "backward", "autodiff.backward")
        self.wrap_method(autodiff.AdamW, "step", "autodiff.AdamW.step")
        self.wrap_function(modules, autodiff, "save_checkpoint",
                           "autodiff.save_checkpoint")
        self.wrap_function(modules, autodiff, "load_checkpoint",
                           "autodiff.load_checkpoint")
        self.wrap_function(
            modules, encoder, "encoder_forward",
            lambda args, kwargs: ("encoder.encoder_forward.train"
                                  if autodiff._grad_enabled
                                  else "encoder.encoder_forward.eval"))
        for fn in ("train_step", "forward_losses", "combine_losses",
                   "predict_classes"):
            self.wrap_function(modules, alchemy, fn, f"alchemy.{fn}")
        for fn in ("prepare_benchmark", "make_token_batch"):
            self.wrap_function(modules, harness, fn, f"harness.{fn}")
        for fn in ("generate_languages", "generate_corpus"):
            self.wrap_function(modules, synthlang, fn, f"synthlang.{fn}")
        self.wrap_method(uriel.UrielStore, "target_matrix",
                         "uriel.target_matrix")

        def fit_name(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs.get("method")
            kind = type(method).__name__ if method is not None else "ClosedForm"
            return ("alignment.fit_alignment.gradient_descent"
                    if kind == "GradientDescent"
                    else "alignment.fit_alignment.closed_form")

        self.wrap_function(modules, alignment, "collect_sentence_reps",
                           "alignment.collect_sentence_reps")
        self.wrap_function(modules, alignment, "fit_alignment", fit_name)
        self.wrap_function(modules, alignment, "export_alignment_pca",
                           "alignment.export_alignment_pca")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return {sid: (end - start) - child[sid]
                for sid, _, _, start, end, _ in self.spans}

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "parent_id", "name", "start_s",
                             "end_s", "self_s", "run_id"])
            for sid, parent, name, start, end, run_id in sorted(self.spans):
                writer.writerow([sid, parent, name, repr(start), repr(end),
                                 repr(selfs[sid]), run_id])


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a nonempty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class _Totals:
    __slots__ = ("setup_calls", "body_calls", "setup_s", "body_s", "self_s",
                 "durations")

    def __init__(self):
        self.setup_calls = self.body_calls = 0
        self.setup_s = self.body_s = self.self_s = 0.0
        self.durations: list[float] = []


def layer_metrics(tracer: Tracer, n_iterations: int, overhead_share: float):
    """Per-layer figures of one traced run, as ``(name, value, unit, listed)``.

    ``listed`` marks the figures every workload measures. The others, for
    layers some workload never reaches, are printed but kept out of the
    machine-readable result, where they would read 0 on those workloads.

    Conventions:
    * ``*_per_step``: over every training step of the traced run, set-up
      included (``analyze_run`` trains only in its set-up).
    * ``*_per_call``, ``ms_p50``/``ms_p98``: over every call of the run.
    * ``.calls`` and ``.ms``: what one set-up plus one timed iteration of
      the workload costs.
    """
    totals: dict[str, _Totals] = defaultdict(_Totals)
    selfs = tracer.self_times()
    for sid, _, name, start, end, run_id in tracer.spans:
        t = totals[name]
        dur = end - start
        if run_id == "setup":
            t.setup_calls += 1
            t.setup_s += dur
        else:
            t.body_calls += 1
            t.body_s += dur
        t.self_s += selfs[sid]
        t.durations.append(dur)
    iterations = max(n_iterations, 1)

    def calls(name):
        t = totals.get(name)
        return t.setup_calls + t.body_calls / iterations if t else 0.0

    def ms(name):
        t = totals.get(name)
        return 1e3 * (t.setup_s + t.body_s / iterations) if t else 0.0

    def all_ms(name):
        t = totals.get(name)
        return 1e3 * (t.setup_s + t.body_s) if t else 0.0

    def ms_per_call(name):
        t = totals.get(name)
        return all_ms(name) / len(t.durations) if t else 0.0

    step = totals.get("alchemy.train_step")
    steps = len(step.durations) if step else 0
    per_step = 1.0 / steps if steps else 0.0
    step_ms = [1e3 * d for d in step.durations] if step else [0.0]

    out = [
        ("alchemy.train_step.calls", calls("alchemy.train_step"), "count", False),
        ("autodiff.graph_nodes_per_step", tracer.tracked_nodes * per_step,
         "count", True),
        ("autodiff.matmul.calls_per_step",
         len(totals["autodiff.matmul.grad"].durations) * per_step, "count", True),
    ]
    for op in TIMED_OPS:
        out.append((f"autodiff.{op}.fwd_ms_per_step",
                    all_ms(f"autodiff.{op}.grad") * per_step, "ms", True))
    out += [
        ("autodiff.backward.ms_per_step",
         all_ms("autodiff.backward") * per_step, "ms", True),
        ("autodiff.AdamW.step.ms_per_step",
         all_ms("autodiff.AdamW.step") * per_step, "ms", True),
        ("autodiff.save_checkpoint.ms", ms("autodiff.save_checkpoint"), "ms", False),
        ("autodiff.load_checkpoint.ms", ms("autodiff.load_checkpoint"), "ms", False),
        ("encoder.encoder_forward.train_ms_per_step",
         all_ms("encoder.encoder_forward.train") * per_step, "ms", True),
        ("encoder.encoder_forward.eval_ms_per_call",
         ms_per_call("encoder.encoder_forward.eval"), "ms", True),
        ("alchemy.train_step.ms_p50", percentile(step_ms, 50), "ms", True),
        ("alchemy.train_step.ms_p98", percentile(step_ms, 98), "ms", True),
        ("alchemy.train_step.self_ms_per_step",
         1e3 * (step.self_s if step else 0.0) * per_step, "ms", True),
        ("alchemy.forward_losses.ms_per_step",
         all_ms("alchemy.forward_losses") * per_step, "ms", True),
        ("alchemy.combine_losses.ms_per_step",
         all_ms("alchemy.combine_losses") * per_step, "ms", True),
        ("alchemy.predict_classes.ms_per_call",
         ms_per_call("alchemy.predict_classes"), "ms", True),
    ]
    for name in ("harness.prepare_benchmark", "synthlang.generate_languages",
                 "synthlang.generate_corpus"):
        out.append((f"{name}.calls", calls(name), "count", True))
        out.append((f"{name}.ms", ms(name), "ms", True))
    out += [
        ("harness.make_token_batch.calls", calls("harness.make_token_batch"),
         "count", True),
        ("harness.make_token_batch.ms_per_call",
         ms_per_call("harness.make_token_batch"), "ms", True),
        ("uriel.target_matrix.calls", calls("uriel.target_matrix"), "count", True),
        ("uriel.target_matrix.ms_per_call", ms_per_call("uriel.target_matrix"),
         "ms", True),
        ("alignment.collect_sentence_reps.ms",
         ms("alignment.collect_sentence_reps"), "ms", False),
        ("alignment.fit_alignment.closed_form_ms",
         ms("alignment.fit_alignment.closed_form"), "ms", False),
        ("alignment.fit_alignment.gradient_descent_ms",
         ms("alignment.fit_alignment.gradient_descent"), "ms", False),
        ("alignment.export_alignment_pca.ms",
         ms("alignment.export_alignment_pca"), "ms", False),
        ("cli.eval.ms", ms("cli.eval"), "ms", False),
        ("cli.align.ms", ms("cli.align"), "ms", False),
        ("trace.overhead_share", overhead_share, "ratio", True),
    ]
    return out
