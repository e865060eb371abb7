"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Only public names are wrapped. Each is rebound wherever a caller resolves
it: in its own module, in every sidnn module that imported it (for example
`cli.fit` and `hpo.fit` beside `training.fit`), and on the Model class.
"""

from __future__ import annotations

import os
import sys

from tracer import Tracer


def _variant(model) -> str:
    return f"{model.spec.arch}_{model.spec.mode}"


def _forward_name(args, kwargs) -> str:
    kind = "train_fwd" if kwargs.get("training", False) else "sim_fwd"
    return f"models.{kind}.{_variant(args[0])}"


def _conv_amounts(args, out) -> dict:
    """Computed, not measured: multiply-adds of the taps that overlap the
    sequence, and bytes of x, k and the output at 8 bytes per float64."""
    x, k, dilation = args[0], args[1], args[2]
    batch, c_in, length = x.shape
    c_out, _, taps = k.shape
    covered = sum(max(length - dilation * (taps - 1 - j), 0) for j in range(taps))
    return {"flops": 2 * batch * c_out * c_in * covered,
            "bytes": 8 * (x.size + k.size + out.size)}


def install(tracer: Tracer, sk) -> None:
    """Wrap the layer boundaries of the sidnn package `sk` (a namespace with
    its modules as attributes)."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "sidnn" or name.startswith("sidnn."))]
    namespaces.append(sk.models.Model)

    def span(module, attr, name, describe=None, named_by_site=None):
        fn = getattr(module, attr)

        def make(ns):
            site_name = named_by_site(ns) if named_by_site else name
            return tracer.spanned(fn, site_name, describe)

        if tracer.rebind(fn, make, namespaces) == 0:
            raise RuntimeError(f"nothing resolves {module.__name__}.{attr}")

    def count(module, attr, name, amounts=None, generator=False):
        fn = getattr(module, attr)
        wrapper = (tracer.counted_iter(fn, name) if generator
                   else tracer.counted(fn, name, amounts))
        if tracer.rebind(fn, lambda ns: wrapper, namespaces) == 0:
            raise RuntimeError(f"nothing resolves {module.__name__}.{attr}")

    def saved_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    def loaded_rows(args, kwargs, result):
        return {"rows": sum(u.shape[0] for u, _ in result.sequences)}

    def search_outcome(args, kwargs, result):
        records, events = result
        done = [e for e in events if e.decision != "fail"]
        return {"workers": args[2], "trials": len(records),
                "trial_epochs": sum(e.epochs for e in done),
                "fails": len(events) - len(done),
                "promotions": sum(e.decision == "promote" for e in events)}

    Model = sk.models.Model
    span(Model, "forward", _forward_name)
    span(Model, "backward", lambda a, k: f"models.bwd.{_variant(a[0])}")
    span(sk.cli, "cmd_train", "cli.train")
    span(sk.cli, "cmd_evaluate", "cli.evaluate")
    span(sk.training, "fit", None,
         named_by_site=lambda ns: "hpo.fit" if ns is sk.hpo else "training.fit")
    span(sk.training, "lr_finder", "training.finder")
    span(sk.training, "train_epoch", "training.epoch")
    span(sk.training, "radam_lookahead_step", "training.optimizer")
    span(sk.training, "clip_gradients", "training.clip")
    span(sk.training, "masked_mse_grad", "training.loss")
    span(sk.data, "load_csv", "data.load_csv", loaded_rows)
    span(sk.inference, "simulate", "inference.simulate")
    span(sk.checkpoint, "save_checkpoint", "checkpoint.save", saved_bytes)
    span(sk.checkpoint, "load_checkpoint", "checkpoint.load")
    span(sk.hpo, "run_search", "hpo.search", search_outcome)
    count(sk.numkit, "sigmoid", "numkit.sigmoid")
    count(sk.numkit, "causal_conv1d", "numkit.conv", _conv_amounts)
    count(sk.numkit, "causal_conv1d_backward", "numkit.conv_bwd")
    count(sk.models, "conv_cache_step", "models.conv_cache_step")
    count(sk.data, "sample_windows", "data.windows", generator=True)


VARIANTS = ("gru_nar", "gru_ar", "tcn_nar", "tcn_ar")

# end-to-end metrics whose traced-minus-untraced difference is reported
OVERHEAD = ("train_s", "eval_s", "hpo_epochs_per_s",
            *[f"{kind}_sps.{v}" for kind in ("train", "sim") for v in VARIANTS])

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("numkit.sigmoid.calls", "count"), ("numkit.sigmoid.s", "s"),
    ("numkit.conv.calls", "count"), ("numkit.conv.s", "s"),
    ("numkit.conv_bwd.s", "s"), ("numkit.conv.flops", "flop"),
    ("numkit.conv.bytes", "B"),
    *[(f"models.{kind}.s.{v}", "s") for kind in ("train_fwd", "bwd", "sim_fwd")
      for v in VARIANTS],
    ("models.conv_cache_step.calls", "count"), ("models.conv_cache_step.s", "s"),
    ("training.finder.s", "s"), ("training.finder.steps", "count"),
    ("training.epoch.s", "s"), ("training.epochs", "count"),
    ("training.optimizer.s", "s"), ("training.optimizer.calls", "count"),
    ("training.clip.s", "s"), ("training.loss.s", "s"),
    ("training.validation.s", "s"), ("training.fit.self_s", "s"),
    ("data.load_csv.s", "s"), ("data.load_csv.rows", "count"),
    ("data.windows.s", "s"), ("data.windows.batches", "count"),
    ("inference.simulate.calls", "count"), ("inference.simulate.s", "s"),
    ("inference.simulate.per_eval_seq", "ratio"),
    ("checkpoint.save.s", "s"), ("checkpoint.load.s", "s"),
    ("checkpoint.bytes", "B"),
    ("cli.train.self_s", "s"), ("cli.evaluate.self_s", "s"),
    ("hpo.trials", "count"), ("hpo.trial_epochs", "count"), ("hpo.fails", "count"),
    ("hpo.promotions", "count"), ("hpo.trial.s", "s"), ("hpo.idle_frac", "ratio"),
]


def layer_metrics(tracer: Tracer, eval_sequences: int) -> dict[str, float]:
    """Per-layer values of one traced pass; eval_sequences is how many
    sequences each cmd_evaluate call scores."""
    spans = tracer.spans
    tot = tracer.totals()

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return sum(s.seconds for s in named(name))

    def total(name, key):
        # a span whose call raised has no info
        return sum(s.info[key] for s in named(name) if s.info)

    m: dict[str, float] = {
        "numkit.sigmoid.calls": tot.get("numkit.sigmoid.calls", 0),
        "numkit.sigmoid.s": tot.get("numkit.sigmoid.s", 0.0),
        "numkit.conv.calls": tot.get("numkit.conv.calls", 0),
        "numkit.conv.s": tot.get("numkit.conv.s", 0.0),
        "numkit.conv_bwd.s": tot.get("numkit.conv_bwd.s", 0.0),
        "numkit.conv.flops": tot.get("numkit.conv.flops", 0),
        "numkit.conv.bytes": tot.get("numkit.conv.bytes", 0),
        "models.conv_cache_step.calls": tot.get("models.conv_cache_step.calls", 0),
        "models.conv_cache_step.s": tot.get("models.conv_cache_step.s", 0.0),
        "data.windows.s": tot.get("data.windows.s", 0.0),
        "data.windows.batches": tot.get("data.windows.calls", 0),
    }
    for kind in ("train_fwd", "bwd", "sim_fwd"):
        for v in VARIANTS:
            m[f"models.{kind}.s.{v}"] = secs(f"models.{kind}.{v}")
    finder = {"training.finder"}
    fits = {"training.fit", "hpo.fit"}
    m["training.finder.s"] = secs("training.finder")
    m["training.finder.steps"] = sum(
        1 for s in spans if s.name == "training.optimizer" and tracer.has_ancestor(s, finder))
    m["training.epoch.s"] = secs("training.epoch")
    m["training.epochs"] = len(named("training.epoch"))
    m["training.optimizer.s"] = secs("training.optimizer")
    m["training.optimizer.calls"] = len(named("training.optimizer"))
    m["training.clip.s"] = secs("training.clip")
    m["training.loss.s"] = secs("training.loss")
    m["training.validation.s"] = sum(
        s.seconds for s in named("inference.simulate")
        if tracer.has_ancestor(s, fits) and not tracer.has_ancestor(s, finder))
    m["training.fit.self_s"] = tracer.self_seconds(fits)
    m["data.load_csv.s"] = secs("data.load_csv")
    m["data.load_csv.rows"] = total("data.load_csv", "rows")
    sims = named("inference.simulate")
    m["inference.simulate.calls"] = len(sims)
    m["inference.simulate.s"] = sum(s.seconds for s in sims)
    evals = named("cli.evaluate")
    under_eval = sum(1 for s in sims if tracer.has_ancestor(s, {"cli.evaluate"}))
    m["inference.simulate.per_eval_seq"] = (
        under_eval / (len(evals) * eval_sequences) if evals else 0.0)
    m["checkpoint.save.s"] = secs("checkpoint.save")
    m["checkpoint.load.s"] = secs("checkpoint.load")
    m["checkpoint.bytes"] = total("checkpoint.save", "bytes")
    m["cli.train.self_s"] = tracer.self_seconds({"cli.train"})
    m["cli.evaluate.self_s"] = tracer.self_seconds({"cli.evaluate"})
    for key in ("trials", "trial_epochs", "fails", "promotions"):
        m[f"hpo.{key}"] = total("hpo.search", key)
    m["hpo.trial.s"] = secs("hpo.fit")
    capacity = sum(s.info["workers"] * s.seconds for s in named("hpo.search") if s.info)
    m["hpo.idle_frac"] = 1.0 - m["hpo.trial.s"] / capacity if capacity else 0.0
    return m
