"""Outside-in layer trace for the benchmark.

Public functions and methods of ``segnce`` are wrapped at every module that
binds them (``from .analysis import embed_frames`` makes a second binding in
``planning``; patching only the defining module would miss its calls). Each
wrapped call records one span: name, start, end, parent span and the id of
the benchmark operation it ran under. Spans stay in memory, are written out
when the run ends, and per-layer metrics are computed from them afterwards:
``calls``, ``self_s`` (span duration minus the time its child spans cover)
and a work count per layer.

A wrapped name that no longer exists is reported as unmeasured with a
reason; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("autodiff", "encoders", "sampling", "objectives", "world", "training",
           "analysis", "planning", "imitation", "cli")
EMBED_SITES = ("planning", "imitation", "analysis")
CLI_SUBCOMMANDS = ("gen-world", "train", "heatmap", "reward-curve", "plan", "eval-lcbc")


def _rows(x) -> int:
    value = getattr(x, "value", x)
    shape = np.shape(value)
    return int(shape[0]) if len(shape) > 1 else 1


def _distinct_rows(x) -> int:
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(getattr(x, "value", x), dtype=np.float64)))
    return len(np.unique(m.view(np.dtype((np.void, m.dtype.itemsize * m.shape[1])))))


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, column-wise to keep hundreds of thousands small
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)  # "<span name>.<stat>" totals
        self.span_rows: dict[int, int] = {}  # span id -> rows (embed_frames only)
        self._stack: list[int] = []
        self.current_op = -1
        self._restore: list[tuple[object, str, object]] = []
        self.unmeasured: dict[str, str] = {}

    # ---- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    # ---- patching ----------------------------------------------------------------

    def _hook(self, name, hook, *args):
        """Run a counting hook in its own ``trace.hook`` span, so its cost is
        not charged to the enclosing layer; a hook that no longer fits the
        library marks the layer's counts unmeasured instead of failing."""
        sid = self.open("trace.hook")
        try:
            return hook(*args)
        except Exception as exc:  # the library changed shape under the hook
            self.unmeasured.setdefault(name, f"work count failed: {exc!r}")
            return None
        finally:
            self.close(sid)

    def _wrap(self, fn, name, before=None, after=None):
        """``before(args, kwargs)`` returns state for
        ``after(state, args, kwargs, result, sid)``; neither is timed as the layer."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._hook(name, before, args, kwargs) if before else None
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after:
                self._hook(name, after, state, args, kwargs, result, sid)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, site_names=False, before=None, after=None):
        """Wrap ``segnce.<module>.<attr>`` in every segnce module that binds it;
        with ``site_names`` each binding module gets its own span name."""
        fn = getattr(sys.modules[f"segnce.{module}"], attr, None)
        label = f"{module}.{attr}"
        if not callable(fn):
            self.unmeasured[label] = f"segnce.{module} has no function {attr!r}"
            return
        for site in MODULES:
            mod = sys.modules.get(f"segnce.{site}")
            if mod is not None and getattr(mod, attr, None) is fn:
                span = f"{label}.{site}" if site_names else label
                self._set(mod, attr, self._wrap(fn, span, before, after))

    def patch_method(self, module: str, cls: str, attr: str, before=None, after=None):
        owner = getattr(sys.modules[f"segnce.{module}"], cls, None)
        label = f"{module}.{cls}.{attr}"
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.unmeasured[label] = f"segnce.{module} has no method {cls}.{attr}"
            return
        self._set(owner, attr, self._wrap(fn, label, before, after))

    def install(self) -> None:
        count = self.counts
        for module in MODULES:
            importlib.import_module(f"segnce.{module}")

        def add(key, amount):
            count[key] += amount

        self.patch_function(
            "sampling", "sample_batch",
            after=lambda s, a, k, r, sid: add("sampling.sample_batch.segments", len(r)))
        self.patch_function(
            "encoders", "encode_observations",
            after=lambda s, a, k, r, sid: add("encoders.encode_observations.rows", _rows(a[1])))

        def instructions_after(s, a, k, r, sid):
            add("encoders.encode_instructions.rows", len(a[1]))
            add("encoders.encode_instructions.distinct", len(set(a[1])))

        self.patch_function("encoders", "encode_instructions", after=instructions_after)
        self.patch_method("autodiff", "Tensor", "backward")
        self.patch_function(
            "autodiff", "mlp_apply",
            after=lambda s, a, k, r, sid: add("autodiff.mlp_apply.rows", _rows(a[1])))
        self.patch_function("objectives", "batch_loss")
        self.patch_function("training", "train")
        self.patch_method("training", "Adam", "step")
        self.patch_function(
            "training", "save_checkpoint",
            after=lambda s, a, k, r, sid: add("training.save_checkpoint.bytes", _file_bytes(a[1])))
        self.patch_function(
            "training", "load_checkpoint",
            after=lambda s, a, k, r, sid: add("training.load_checkpoint.bytes", _file_bytes(a[0])))
        self.patch_method(
            "world", "World", "generate",
            after=lambda s, a, k, r, sid: add("world.World.generate.frames", sum(t.h for t in r)))
        self.patch_function(
            "world", "save_dataset",
            after=lambda s, a, k, r, sid: add("world.save_dataset.bytes", _file_bytes(a[0])))
        self.patch_function(
            "world", "load_dataset",
            after=lambda s, a, k, r, sid: add("world.load_dataset.bytes", _file_bytes(a[0])))
        self.patch_method("world", "World", "render")

        def step_before(a, k):
            return getattr(a[0], "action_clamps", None)

        def step_after(before_clamps, a, k, r, sid):
            if before_clamps is None:
                self.unmeasured["world.action_clamps"] = "World has no action_clamps counter"
            else:
                add("world.action_clamps", a[0].action_clamps - before_clamps)

        self.patch_method("world", "World", "step", before=step_before, after=step_after)
        self.patch_method(
            "world", "World", "render_batch",
            after=lambda s, a, k, r, sid: add("world.World.render_batch.rows", len(a[2])))

        def embed_after(s, a, k, r, sid):
            rows = _rows(a[1])
            self.span_rows[sid] = rows
            site = self.names[self.name[sid]]
            add(f"{site}.rows", rows)
            add(f"{site}.distinct", _distinct_rows(a[1]))

        self.patch_function("analysis", "embed_frames", site_names=True, after=embed_after)
        self.patch_function("analysis", "segment_score")
        self.patch_function(
            "analysis", "reward_heatmap",
            after=lambda s, a, k, r, sid: add("analysis.reward_heatmap.cells",
                                              len(a[1]) * len(a[2])))
        self.patch_function("planning", "plan")
        self.patch_function("planning", "weighted_average")
        self.patch_function("imitation", "featurize_demos")
        self.patch_function("imitation", "train_bc")
        self.patch_function("imitation", "policy_action")
        self._patch_cli()

    def _patch_cli(self) -> None:
        cli = sys.modules["segnce.cli"]
        fn = getattr(cli, "run_resolved", None)
        if not callable(fn):
            self.unmeasured["cli.run_resolved"] = "segnce.cli has no function 'run_resolved'"
            return

        def count_inputs(state, a, k, manifest, sid):
            inputs = json.loads(Path(manifest).read_text(encoding="utf-8"))["inputs"]
            self.counts["cli.manifest.input_bytes"] += sum(_file_bytes(p) for p in inputs)

        def run_resolved(subcommand, *args, **kwargs):
            wrapped = self._wrap(fn, f"cli.run_resolved.{subcommand}", after=count_inputs)
            return wrapped(subcommand, *args, **kwargs)

        self._set(cli, "run_resolved", run_resolved)
        self.patch_function("cli", "replay_manifest")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- results ---------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        duration = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_s = np.bincount(name, weights=duration - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return ({nm: float(self_s[i]) for i, nm in enumerate(self.names)},
                {nm: int(calls[i]) for i, nm in enumerate(self.names)})

    def rows_under(self, ancestor: str) -> int:
        """Rows embedded by embed_frames spans nested anywhere below ``ancestor`` spans."""
        target = self._name_ids.get(ancestor)
        if target is None:
            return 0
        total = 0
        for sid, rows in self.span_rows.items():
            p = self.parent[sid]
            while p >= 0:
                if self.name[p] == target:
                    total += rows
                    break
                p = self.parent[p]
        return total

    def write(self, path: Path, meta: dict) -> None:
        """Spans as columns (name index, parent, start, end, operation id) plus a
        JSON sidecar with the name table, run id and environment."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.start)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            op=np.frombuffer(self.op, dtype=np.int64, count=n),
        )
        sidecar = {"run_id": self.run_id, "names": self.names, "spans": n,
                   "unmeasured": self.unmeasured, **meta}
        path.with_suffix(".json").write_text(json.dumps(sidecar, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")


# (metric name, unit) for every per-layer metric; the trace must cover all of them
def layer_metric_units() -> list[tuple[str, str]]:
    out = []

    def add(prefix, *stats):
        for stat in stats:
            out.append((f"{prefix}.{stat}", STAT_UNITS[stat]))

    add("sampling.sample_batch", "calls", "self_s", "segments")
    add("encoders.encode_observations", "calls", "self_s", "rows")
    add("encoders.encode_instructions", "calls", "self_s", "rows", "distinct_ratio")
    add("autodiff.Tensor.backward", "calls", "self_s")
    add("autodiff.mlp_apply", "calls", "self_s", "rows")
    add("objectives.batch_loss", "calls", "self_s")
    add("training.train", "calls", "self_s")
    add("training.Adam.step", "calls", "self_s")
    add("training.save_checkpoint", "calls", "self_s", "bytes")
    add("training.load_checkpoint", "calls", "self_s", "bytes")
    add("world.World.generate", "self_s", "frames")
    add("world.save_dataset", "self_s", "bytes")
    add("world.load_dataset", "self_s", "bytes")
    add("world.World.render", "calls", "self_s")
    add("world.World.step", "calls", "self_s")
    add("world.World.render_batch", "calls", "self_s", "rows")
    out.append(("world.action_clamps", "count"))
    for site in EMBED_SITES:
        add(f"analysis.embed_frames.{site}", "calls", "self_s", "rows", "distinct_ratio")
    add("analysis.segment_score", "calls", "self_s")
    add("analysis.reward_heatmap", "self_s", "cells", "embed_rows_per_cell")
    add("planning.plan", "calls", "self_s")
    add("planning.weighted_average", "self_s")
    add("imitation.featurize_demos", "self_s")
    add("imitation.train_bc", "self_s")
    add("imitation.policy_action", "calls", "self_s")
    for sub in CLI_SUBCOMMANDS:
        add(f"cli.run_resolved.{sub}", "self_s")
    add("cli.replay_manifest", "calls", "self_s", "mismatches")
    out.append(("cli.manifest.input_bytes", "B"))
    return out


STAT_UNITS = {
    "calls": "count", "self_s": "s", "segments": "segments", "rows": "rows", "bytes": "B",
    "frames": "frames", "cells": "cells", "distinct_ratio": "ratio", "mismatches": "count",
    "embed_rows_per_cell": "rows/cell",
}


def layer_metrics(tracer: Tracer, mismatches: int) -> dict[str, dict]:
    """Every per-layer metric, computed from the recorded spans and counts."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    derived = {"cli.replay_manifest.mismatches": mismatches}
    for prefix in ("encoders.encode_instructions",
                   *(f"analysis.embed_frames.{s}" for s in EMBED_SITES)):
        rows = counts.get(f"{prefix}.rows", 0)
        derived[f"{prefix}.distinct_ratio"] = counts.get(f"{prefix}.distinct", 0) / rows if rows else 0.0
    cells = counts.get("analysis.reward_heatmap.cells", 0)
    derived["analysis.reward_heatmap.embed_rows_per_cell"] = (
        tracer.rows_under("analysis.reward_heatmap") / cells if cells else 0.0)

    metrics = {}
    for name, unit in layer_metric_units():
        prefix, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif stat == "self_s":
            value = self_s.get(prefix, 0.0)
        elif stat == "calls":
            value = calls.get(prefix, 0)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
