"""Which package functions the benchmark wraps, and the per-layer metrics.

The layers are the package modules.  `core` only validates inputs, so its
time lands in its callers' self time.  Metric names use `kernels` for the
`_kernels` module, because a metric name must start with a letter.

Every `.s` metric is self time in seconds per pass: the function's span
minus the spans of the wrapped functions it called.  Counts are per pass.
Kernel `.ops` (word-mask pairs) and `.bytes` (argument plus result array
sizes) are computed from array shapes, not measured.
"""
from __future__ import annotations

import numpy as np

LAYERS = ("cli", "setgen", "combinatorics", "codegen", "channel_sim", "kernels")
KERNELS = (
    "distance_counts",
    "reach_matrix",
    "mask_probabilities",
    "distortion_pmf_flip",
    "distortion_pmf_forced",
    "trial_distortions",
)

PER_LAYER = [
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("setgen.sets_fast.s", "s"),
    ("setgen.sets_bruteforce.s", "s"),
    ("setgen.placements", "count"),
    ("combinatorics.bounds_dataset.s", "s"),
    ("combinatorics.divisibility_report.s", "s"),
    ("combinatorics.y_star.s", "s"),
    ("combinatorics.cache_hit_ratio", "ratio"),
    ("codegen.solve_iid.s", "s"),
    ("codegen.solve_perbit.s", "s"),
    ("codegen.verify_table.s", "s"),
    ("codegen.constraint_lhs.calls", "count"),
    ("codegen.perbit_sweeps", "count"),
    ("codegen.perbit_open", "count"),
    ("codegen.perbit_p_mean", "p"),
    ("codegen.verdict_mismatch", "count"),
    ("channel_sim.simulate.s", "s"),
    ("channel_sim.simulate.trials", "count"),
    ("channel_sim.trials_per_s", "1/s"),
    ("channel_sim.exact_distortion.s", "s"),
    ("channel_sim.exact_outcomes", "count"),
    ("channel_sim.analytic_single_error.s", "s"),
    ("channel_sim.placement_mass.s", "s"),
    ("channel_sim.ingest_trace.s", "s"),
]
for _k in KERNELS:
    PER_LAYER += [
        (f"kernels.{_k}.s", "s"),
        (f"kernels.{_k}.calls", "count"),
        (f"kernels.{_k}.ops", "ops-computed"),
        (f"kernels.{_k}.bytes", "B-computed"),
    ]
PER_LAYER += [(f"{layer}.share", "ratio") for layer in LAYERS + ("bench",)]
PER_LAYER += [
    ("setup.import_s", "s"),
    ("setup.gen_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.pass_ref", "ref-loops"),
]


def _count_placements(tracer, args, kwargs, result) -> None:
    tracer.count("setgen.placements", sum(result.cardinalities().values()))


def _count_perbit(tracer, args, kwargs, result) -> None:
    tracer.count("codegen.perbit_sweeps", result.metadata.get("sweeps", 0))
    tracer.count("codegen.perbit_open", list(result.metadata.get("certificate", ())).count("open"))


def _count_trials(tracer, args, kwargs, result) -> None:
    tracer.count("channel_sim.simulate.trials", args[2] if len(args) > 2 else kwargs["trials"])


def _count_outcomes(tracer, args, kwargs, result) -> None:
    model = args[0] if args else kwargs["model"]
    tracer.count("channel_sim.exact_outcomes", 4**model.L)


def _kernel_counter(kernel: str):
    def on_call(tracer, args, kwargs, result) -> None:
        arrays = [a for a in args if isinstance(a, np.ndarray)] + [np.asarray(result)]
        if kernel in ("distance_counts", "reach_matrix"):
            ops = (1 << int(args[0])) * len(args[1])
        elif kernel in ("distortion_pmf_flip", "distortion_pmf_forced"):
            values = args[-1]
            ops = int(np.count_nonzero(values)) * values.size
        else:
            ops = np.asarray(result).size
        tracer.count(f"kernels.{kernel}.ops", ops)
        tracer.count(f"kernels.{kernel}.bytes", sum(a.nbytes for a in arrays))

    return on_call


def instrument(tracer, full: bool) -> None:
    """Wrap the package's public functions.

    Untraced runs (`full=False`) wrap only `channel_sim.simulate`, whose
    inclusive time gives trials per second.
    """
    from vdbcode import _kernels, channel_sim, cli, codegen, combinatorics, setgen

    tracer.wrap(channel_sim, "simulate", "channel_sim.simulate", _count_trials)
    if not full:
        return
    tracer.wrap(cli, "main", "cli.main")
    for fn in ("sets_fast", "sets_bruteforce"):
        tracer.wrap(setgen, fn, f"setgen.{fn}", _count_placements)
    for fn in ("bounds_dataset", "divisibility_report", "y_star"):
        tracer.wrap(combinatorics, fn, f"combinatorics.{fn}")
    tracer.wrap(codegen, "solve_iid", "codegen.solve_iid")
    tracer.wrap(codegen, "solve_perbit", "codegen.solve_perbit", _count_perbit)
    tracer.wrap(codegen, "verify_table", "codegen.verify_table")
    tracer.wrap(codegen, "constraint_lhs", "codegen.constraint_lhs", span=False)
    tracer.wrap(channel_sim, "exact_distortion", "channel_sim.exact_distortion", _count_outcomes)
    for fn in ("analytic_single_error", "placement_mass", "ingest_trace"):
        tracer.wrap(channel_sim, fn, f"channel_sim.{fn}")
    for kernel in KERNELS:
        tracer.wrap(_kernels, kernel, f"kernels.{kernel}", _kernel_counter(kernel))
    # The numpy flip/forced kernels call the mask-probability kernel by its
    # private name; wrap that name too so those calls are seen.
    if getattr(_kernels, "BACKEND", None) == "numpy":
        tracer.wrap(
            _kernels,
            "_mask_probabilities_np",
            "kernels.mask_probabilities",
            _kernel_counter("mask_probabilities"),
        )


def per_layer_metrics(tracer, passes: int, total_s: float, extra: dict[str, float]) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counters of `passes` passes.

    `total_s` is the summed step time of those passes (without the
    reference loops between steps), the base of each layer's share.
    `extra` supplies the values the harness measures itself (set-up parts,
    the traced pass time, and the solver and simulator outcomes).
    """
    self_s = tracer.self_times()
    counters = tracer.counters
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
        elif name.endswith(".s"):
            values[name] = self_s.get(name[:-2], 0.0) / passes
        elif unit != "ratio":
            values[name] = counters.get(name, 0.0) / passes
    values["cli.self_s"] = self_s.get("cli.main", 0.0) / passes
    values["cli.calls"] = counters.get("cli.main.calls", 0.0) / passes
    hits = counters.get("combinatorics.cache_hits", 0.0)
    misses = counters.get("combinatorics.cache_misses", 0.0)
    values["combinatorics.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for layer in LAYERS + ("bench",):
        layer_self = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        values[f"{layer}.share"] = layer_self / total_s if total_s else 0.0
    return values
