"""Traced in-process replay of a workload's qpc commands.

The replay calls `qpc.cli.main` with each command's arguments, so it runs
the very pipeline the CLI runs.  Before it starts, every binding of the
public functions listed in `TARGETS` -- in whichever qpc module imported
it -- is replaced by a wrapper that records a span (name, start, end,
parent span, command span) and the counts taken at that boundary.  Spans
and counts stay in memory until the replay ends; the bindings are put back
afterwards.  Only this module imports qpc.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

LAYERS = ("gf2", "classical", "groups", "tanner", "products", "analysis", "render", "cli")
RENDER_FORMATS = ("json", "svg", "tikz", "dot")

# (module, attribute, span name).  render.emit gets one span name per format.
TARGETS = (
    ("gf2", "rref", "gf2.rref"),
    ("gf2", "rank", "gf2.rank"),
    ("gf2", "kernel_basis", "gf2.kernel_basis"),
    ("gf2", "matmul", "gf2.matmul"),
    ("gf2", "transpose", "gf2.transpose"),
    ("gf2", "kron", "gf2.kron"),
    ("classical", "emit_pcm_text", "classical.emit_pcm"),
    ("classical", "emit_alist", "classical.emit_alist"),
    ("classical", "parse_pcm_text", "classical.parse_pcm"),
    ("classical", "parse_alist", "classical.parse_alist"),
    ("classical", "ClassicalCode.min_distance", "classical.min_distance"),
    ("groups", "parse_ring_matrix", "groups.parse_ring_matrix"),
    ("groups", "binary_map", "groups.binary_map"),
    ("tanner", "parse_graph", "tanner.parse_graph"),
    ("tanner", "parse_action", "tanner.parse_action"),
    ("tanner", "is_free", "tanner.is_free"),
    ("tanner", "has_fixed_edge", "tanner.has_fixed_edge"),
    ("tanner", "quotient", "tanner.quotient"),
    ("tanner", "verify_covering", "tanner.verify_covering"),
    ("products", "hgp", "products.hgp"),
    ("products", "lifted_product", "products.lifted_product"),
    ("products", "balanced_product", "products.balanced_product"),
    ("products", "css_from_matrices", "products.css_from_matrices"),
    ("analysis", "logical_count", "analysis.logical_count"),
    ("analysis", "css_distance", "analysis.css_distance"),
    ("analysis", "hgp_k_formula", "analysis.hgp_checks"),
    ("analysis", "hgp_distance_bound", "analysis.hgp_checks"),
    ("render", "emit", "render.emit"),
    ("render", "parse_layout", "render.parse_layout"),
    ("render", "line_layout_table", "render.line_layout_table"),
    ("cli", "main", "cli.main"),
)

TIMED_SPANS = sorted(
    {name for _, _, name in TARGETS if name not in ("render.emit", "cli.main")}
    | {f"render.emit_{fmt}" for fmt in RENDER_FORMATS}
)
COUNTS = ("gf2.rref_cells", "classical.bytes_emitted", "products.n", "products.nnz",
          "analysis.enum_steps", "render.bytes")

# name -> (unit, better); the order here is the order of the report.
METRICS = {
    **{f"{name}_s": ("s", "lower") for name in TIMED_SPANS},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{name: ("count", "lower") for name in COUNTS},
    "gf2.rref_cells_per_s": ("1/s", "higher"),
    "classical.emit_MB_per_s": ("MB/s", "higher"),
    "analysis.steps_per_s": ("1/s", "higher"),
    "cli.startup_s": ("s", "lower"),
    "cli.traced_total_s": ("s", "lower"),
    "cli.explained_share": ("frac", "higher"),
}


class Tracer:
    """Spans as [name, start, end, parent, command, ok]; `command` is the root span's index."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.deferred: list = []        # counts computed after the replay, off the clock
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        command = index if parent is None else self.spans[parent][4]
        span = [name, time.perf_counter(), None, parent, command, False]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
            span[5] = True
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def _kernel_steps(h_x, h_z) -> int:
    """2^(kernel dimension) for both directions, from the benchmark's own rank."""
    n = h_x.cols
    return sum(1 << (n - workloads.gf2_rank(h.to_dense())) for h in (h_x, h_z))


def _count(tracer: Tracer, name: str, args, result) -> None:
    if name == "gf2.rref":
        tracer.counts["gf2.rref_cells"] += args[0].rows * args[0].cols
    elif name in ("classical.emit_pcm", "classical.emit_alist"):
        tracer.counts["classical.bytes_emitted"] += len(result)
    elif name.startswith("render.emit"):
        tracer.counts["render.bytes"] += len(result)
    elif name.startswith("products."):
        h_x, h_z = result.h_x, result.h_z
        tracer.counts["products.n"] += h_x.cols
        tracer.deferred.append(("products.nnz", lambda: h_x.weight() + h_z.weight()))
    elif name == "analysis.css_distance" and result[2] is not None:
        h_x, h_z = args[0].h_x, args[0].h_z
        tracer.deferred.append(("analysis.enum_steps", lambda: _kernel_steps(h_x, h_z)))


def _wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        span = name
        if name == "render.emit":
            span = f"render.emit_{args[3] if len(args) > 3 else kwargs['fmt']}"
        result = tracer.call(span, fn, args, kwargs)
        _count(tracer, span, args, result)
        return result

    return traced


def load_qpc(src: Path):
    """Import qpc from `src`, refusing any other copy."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("qpc.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"qpc was imported from {cli.__file__}, not from {src}")
    return cli


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Swap every binding of each target for its traced wrapper."""
    modules = [importlib.import_module(f"qpc.{m}") for m in LAYERS]
    modules.append(importlib.import_module("qpc"))
    saved = []
    for module, attr, name in TARGETS:
        owner = importlib.import_module(f"qpc.{module}")
        if "." in attr:                          # a method: patch the class
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original))
            continue
        original = getattr(owner, attr)
        wrapper = _wrapper(tracer, name, original)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                saved.append((mod, key, original))
                setattr(mod, key, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def replay(cli, plan: workloads.Plan) -> tuple[Tracer, list[workloads.Outcome]]:
    """Run every command of `plan` in-process under tracing."""
    tracer = Tracer()
    outcomes = []
    with patched(tracer):
        main = cli.main
        for command in plan.commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(command.args))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:                # a traceback: the command failed
                    code = -1
            outcomes.append(workloads.Outcome(code, stdout.getvalue()))
    for name, fn in tracer.deferred:
        tracer.counts[name] += fn()
    return tracer, outcomes


def summarize(tracer: Tracer, e2e_s: list[float]) -> tuple[dict, list[dict]]:
    """Per-layer metrics of one replay, and per-command attribution.

    A span's self time is its duration minus that of its children.  A
    name's time sums only its outermost spans, so rank -> rref is not
    counted twice.  `e2e_s` are the untraced subprocess times of the
    same commands, in order.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    inclusive: Counter = Counter()
    layer_self: Counter = Counter()
    for i, s in enumerate(spans):
        layer_self[s[0].split(".")[0]] += dur[i] - child[i]
        parent = s[3]
        while parent is not None and spans[parent][0] != s[0]:
            parent = spans[parent][3]
        if parent is None:
            inclusive[s[0]] += dur[i]
    metrics = {f"{name}_s": float(inclusive[name]) for name in TIMED_SPANS}
    metrics.update({f"{layer}.self_s": float(layer_self[layer]) for layer in LAYERS})
    metrics.update({name: tracer.counts[name] for name in COUNTS})
    decided = sum(dur[i] for i, s in enumerate(spans) if s[0] == "analysis.css_distance" and s[5])
    emit_s = metrics["classical.emit_pcm_s"] + metrics["classical.emit_alist_s"]
    rate = lambda work, secs: work / secs if secs > 0 else 0.0  # noqa: E731
    metrics["gf2.rref_cells_per_s"] = rate(metrics["gf2.rref_cells"], metrics["gf2.rref_s"])
    metrics["classical.emit_MB_per_s"] = rate(metrics["classical.bytes_emitted"] / 1e6, emit_s)
    metrics["analysis.steps_per_s"] = rate(metrics["analysis.enum_steps"], decided)

    roots = [i for i, s in enumerate(spans) if s[3] is None]
    commands = []
    for i, e2e in zip(roots, e2e_s):
        below = child[i]
        top = Counter()
        for j, s in enumerate(spans):
            if s[4] == i:
                top[s[0]] += dur[j] - child[j]
        commands.append({
            "e2e_s": e2e,
            "traced_s": dur[i],
            "layer_s": below,
            "explained_share": below / e2e,
            "self_s": dict(top.most_common(4)),
        })
    metrics["cli.traced_total_s"] = sum(dur[i] for i in roots)
    metrics["cli.explained_share"] = sum(c["layer_s"] for c in commands) / sum(e2e_s)
    return metrics, commands


def median_metrics(replays: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in replays) for k in replays[0]}
