"""Spans around calls into ``gpcl``, installed from outside the package.

Each wrapper replaces a function under every name the package's modules
bind it to (``gpcl.likelihood.maximize`` as well as
``gpcl._optim.maximize``), because callers look names up in their own
module's namespace.  A span is (name, start, end, parent); spans stay in
memory and are aggregated and written out when the run ends.
A target that no longer exists is reported as missing instead of failing.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method.
TARGETS = (
    ("gpcl.likelihood", "fit_mcle", "likelihood.fit_mcle"),
    ("gpcl.likelihood", "_ClCore.__init__", "likelihood.stats"),
    ("gpcl.likelihood", "_ClCore.evaluate", "likelihood.eval"),
    ("gpcl.likelihood", "_score_from_core", "likelihood.score"),
    ("gpcl.likelihood", "maximize", "_optim.maximize"),
    ("gpcl.models", "correlation_at_lags", "models.corr"),
    ("gpcl.models", "correlation_grid", "models.corr"),
    ("gpcl.mme", "fou_init", "mme.init"),
    ("gpcl.mme", "cauchy_init", "mme.init"),
    ("gpcl.mme", "mme_fou", "mme.estimate"),
    ("gpcl.mme", "mme_cauchy", "mme.estimate"),
    ("gpcl.asymptotics", "attach_std_errors", "asymptotics.sandwich"),
    ("gpcl.asymptotics", "sensitivity_H", "asymptotics.sensitivity"),
    ("gpcl.asymptotics", "_variability", "asymptotics.variability"),
    ("gpcl.simulate", "simulate_fou", "simulate.path"),
    ("gpcl.simulate", "simulate_cauchy", "simulate.path"),
    ("gpcl.cli", "run_mc_study", "cli.run_mc_study"),
    ("gpcl.hf", "ingest_ticks", "hf.ingest"),
    ("gpcl.hf", "build_rv_series", "hf.build_rv_series"),
    ("gpcl.hf", "grid_prices", "hf.grid"),
    ("gpcl.hf", "log_returns", "hf.corrections"),
    ("gpcl.hf", "diurnal_factors", "hf.corrections"),
    ("gpcl.hf", "apply_diurnal", "hf.corrections"),
    ("gpcl.hf", "dow_factors", "hf.corrections"),
    ("gpcl.hf", "apply_dow", "hf.corrections"),
    ("gpcl.hf", "truncate_jumps", "hf.truncate"),
    ("gpcl.hf", "block_rv", "hf.block"),
    ("gpcl.hf", "volume_series", "hf.volume"),
    ("gpcl.hf", "volatility_signature", "hf.signature"),
)

OP = "op"
LAYERS = ("likelihood", "_optim", "models", "mme", "asymptotics", "simulate", "hf")


class Tracer:
    """Span recorder: parallel arrays, parents known at entry."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def open_op(self) -> int:
        """Open the span of one top-level benchmark operation."""
        return self.open(self.name_id(OP))

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            self.close(idx)
            if name == "_optim.maximize":
                nfev = getattr(out, "nfev", None)
                if nfev is None:
                    counts["_optim.nfev-missing"] += 1
                else:
                    counts["_optim.nfev"] += int(nfev)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under every ``gpcl`` name bound to it."""
        for mod_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(mod_name)
                owner_name, _, meth = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    orig = owner.__dict__[meth]
                    setattr(owner, meth, self.wrap(span, orig))
                    continue
                orig = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(span, orig)
            for name, mod in list(sys.modules.items()):
                if name == "gpcl" or name.startswith("gpcl."):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def arrays(self):
        return (
            np.asarray(self.name, dtype=np.int64),
            np.asarray(self.start),
            np.asarray(self.end),
            np.asarray(self.parent, dtype=np.int64),
        )

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent):
                fh.write(json.dumps([self.names[n], s, e, p]) + "\n")


def _union_time(names, dur, parent, ids) -> float:
    """Summed duration of spans in ``ids`` not nested inside another of them."""
    member = np.isin(names, ids)
    nested = np.zeros(names.size, dtype=bool)
    anc = parent.copy()
    while (live := anc >= 0).any():
        nested[live] |= member[anc[live]]
        anc[live] = parent[anc[live]]
    return float(dur[member & ~nested].sum())


def layer_metrics(tracer: Tracer, n_ops: int, op_bytes: float, overhead_s: float):
    """Per-layer metrics from the recorded spans, plus the missing ones.

    Each metric is (unit, value, span names it needs).  Times are seconds
    per top-level operation, inclusive of nested calls unless named
    ``self_s``; counts are per operation unless named per fit.
    """
    names, start, end, parent = tracer.arrays()
    dur = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}
    missing_spans = {span for mod, attr, span in TARGETS if f"{mod}.{attr}" in tracer.missing}

    def sel(*spans):
        return [ids[s] for s in spans if s in ids]

    def per_op(value):
        return value / n_ops

    child = np.zeros(names.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def self_of(prefix):
        layer_ids = [i for i, n in enumerate(tracer.names) if n.split(".")[0] == prefix]
        return per_op(float(self_time[np.isin(names, layer_ids)].sum()))

    def group(*spans):
        return per_op(_union_time(names, dur, parent, sel(*spans)))

    def count(span):
        return int((names == ids[span]).sum()) if span in ids else 0

    fits = count("likelihood.fit_mcle")
    evals = count("likelihood.eval")
    eval_durs = dur[names == ids["likelihood.eval"]] if "likelihood.eval" in ids else np.empty(0)
    ingest_s = group("hf.ingest")
    c = tracer.counts
    metrics = {
        "likelihood.evals_per_fit": ("count", evals / fits if fits else 0.0, ["likelihood.eval", "likelihood.fit_mcle"]),
        "optim.nfev_per_fit": ("count", c.get("_optim.nfev", 0) / fits if fits else 0.0, ["_optim.maximize"]),
        "likelihood.eval_us": ("us", float(np.median(eval_durs)) * 1e6 if evals else 0.0, ["likelihood.eval"]),
        "likelihood.eval_s": ("s", group("likelihood.eval"), ["likelihood.eval"]),
        "models.corr_s": ("s", group("models.corr"), ["models.corr"]),
        "models.corr_calls": ("count", per_op(count("models.corr")), ["models.corr"]),
        "likelihood.stats_s": ("s", group("likelihood.stats"), ["likelihood.stats"]),
        "likelihood.score_s": ("s", group("likelihood.score"), ["likelihood.score"]),
        "mme.init_s": ("s", group("mme.init", "mme.estimate"), ["mme.init", "mme.estimate"]),
        "asymptotics.sandwich_s": ("s", group("asymptotics.sandwich"), ["asymptotics.sandwich"]),
        "asymptotics.sensitivity_s": ("s", group("asymptotics.sensitivity"), ["asymptotics.sensitivity"]),
        "asymptotics.variability_s": ("s", group("asymptotics.variability"), ["asymptotics.variability"]),
        "simulate.calls": ("count", per_op(count("simulate.path")), ["simulate.path"]),
        "simulate.s": ("s", group("simulate.path"), ["simulate.path"]),
        "cli.study_self_s": ("s", self_of("cli"), ["cli.run_mc_study"]),
        "hf.ingest_s": ("s", ingest_s, ["hf.ingest"]),
        "hf.ingest_mb_per_s": ("MB/s", op_bytes / 1e6 / ingest_s if ingest_s > 0 else 0.0, ["hf.ingest"]),
        "hf.grid_s": ("s", group("hf.grid"), ["hf.grid"]),
        "hf.corrections_s": ("s", group("hf.corrections"), ["hf.corrections"]),
        "hf.truncate_s": ("s", group("hf.truncate"), ["hf.truncate"]),
        "hf.block_s": ("s", group("hf.block"), ["hf.block"]),
        "hf.volume_s": ("s", group("hf.volume"), ["hf.volume"]),
        "hf.signature_s": ("s", group("hf.signature"), ["hf.signature"]),
    }
    for exc in ("TruncationError", "RegimeError", "CovarianceError"):
        metrics[f"asymptotics.refusals.{exc}"] = (
            "count",
            per_op(c.get(f"asymptotics.sandwich!{exc}", 0)),
            ["asymptotics.sandwich"],
        )
    for layer in LAYERS:
        spans = [s for _, _, s in TARGETS if s.split(".")[0] == layer]
        metrics[f"{layer.lstrip('_')}.self_s"] = ("s", self_of(layer), spans)
    metrics["unattributed_s"] = ("s", self_of(OP), [])
    metrics["trace.overhead_s"] = ("s", overhead_s, [])

    out, missing = {}, []
    for key, (unit, value, needs) in metrics.items():
        if any(s in missing_spans for s in needs) or (
            key == "optim.nfev_per_fit" and c.get("_optim.nfev-missing")
        ):
            missing.append(key)
        else:
            out[key] = {"value": value, "unit": unit}
    refusals = {k.split("!", 1)[1]: v for k, v in c.items() if k.startswith("asymptotics.sandwich!")}
    return out, missing, refusals
