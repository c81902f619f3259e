#!/usr/bin/env python3
"""Compare a fresh BENCH_kernels.json against the committed baseline.

Fails (exit 1) when any model's SIMD ns/frame regresses more than
--tolerance (default 15%) over the baseline, when the GEMM
SIMD-vs-scalar speedup drops below --min-gemm-speedup on a machine
whose dispatcher reports a SIMD level, when the INT8 GEMM fails to
reach --min-int8-speedup over the FP32 SIMD kernel on the best shape,
or when a kernel dispatched to a different path than the active SIMD
level promises (a silent scalar fallback).

Absolute ns/frame is only comparable on the machine that produced the
baseline; on shared CI runners pass --ratio-only, which checks the
machine-relative quantities (per-model scalar/SIMD speedup and GEMM
GFLOP/s ratios) instead of wall-clock numbers.

Also understands BENCH_multi_model.json (top-level "bench":
"multi_model"): fails when the micro-batched aggregate throughput
speedup drops below --min-batch-speedup (default 1.5), when the
scheduler stopped forming batches (mean batch size 1), or when the
per-model p99 serve latencies violate the priority ordering
critical < high < normal. All multi-model quantities are
machine-relative (modelled stream clock), so they hold on any runner.

Also understands BENCH_planner.json (top-level "bench": "planner"):
with SIMD active, fails when the kernel planner stopped picking
Winograd on any 3x3 stage, when the best Winograd layer's measured
speedup over always-im2col drops below --min-winograd-speedup
(default 1.5), when any planner choice is measurably SLOWER than
a materialized im2col conv (a cost-model mischoice), or when the
planned engine's output diverges from the legacy engine (the
constructor's unplanned plan, im2col stripes everywhere). Layer/model
speedups are machine-relative; planned ns/frame is additionally
compared against the baseline unless --ratio-only.

Also understands BENCH_pareto.json (top-level "bench": "pareto"), the
accuracy-vs-speed frontier over the compressed execution formats. With
SIMD active, fails when the sparse packed GEMM stops clearing
--min-sparse-speedup (default 1.3) over the masked-dense kernel at
50% N:M on the conv-heavy gate shape, when the fp16-storage kernel's
best bandwidth-bound point drops below --min-fp16-speedup (default
1.2), when an nm50-planned engine measures slower than its fp32
baseline beyond the tolerance, or when the planner stopped selecting
any sparse/fp16 kernels at all (the observability counters). At any
SIMD level, fails when the sparse engine diverges from its
hand-masked dense twin beyond 1e-4 or when a gated frontier variant's
trained-detector accuracy moved more than --max-accuracy-delta-pt
(default 1.5 percentage points) from fp32. Kernel/engine speedups are
machine-relative; frontier ns/frame is additionally compared against
the baseline unless --ratio-only.

Also understands BENCH_fault.json (top-level "bench": "fault"), the
fault-injection resilience bench (DESIGN.md §14). Fails when the
checksum layer's verify-cadence overhead exceeds
--max-verify-overhead-pct (default 2.0) of the median clean frame,
when a warmed verify-enabled frame performed heap allocations (only
enforced when the build counts them), when any model's injected
corruption went undetected (recovery.detected false or zero flips
landed), when recovery failed to restore bit-exact clean outputs
(max_abs_diff_after != 0), when the serving quarantine took more than
--max-quarantine-frames (default 4) to bench a corrupted model or
never re-admitted it after reload, or when a devsim degradation mode
failed to slow the modelled device. All fault quantities are
machine-relative, so they hold on any runner.

Usage:
  scripts/check_bench_regression.py BENCH_kernels.json \
      --baseline bench/baselines/BENCH_kernels.json [--tolerance 0.15]
  scripts/check_bench_regression.py BENCH_multi_model.json \
      --baseline bench/baselines/BENCH_multi_model.json
  scripts/check_bench_regression.py BENCH_planner.json \
      --baseline bench/baselines/BENCH_planner.json
  scripts/check_bench_regression.py BENCH_pareto.json \
      --baseline bench/baselines/BENCH_pareto.json
  scripts/check_bench_regression.py BENCH_fault.json \
      --baseline bench/baselines/BENCH_fault.json
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def index_by(items: list[dict], key: str) -> dict[str, dict]:
    return {item[key]: item for item in items}


PRIORITY_ORDER = {"critical": 0, "high": 1, "normal": 2}


def check_multi_model(current: dict, min_speedup: float) -> list[str]:
    """Gate the serving-scheduler bench: batching must pay off and the
    priority classes must actually shape the latency distribution."""
    failures: list[str] = []
    speedup = current.get("batched_speedup", 0.0)
    if speedup < min_speedup:
        failures.append(
            f"micro-batching speedup {speedup:.2f} below required "
            f"{min_speedup:.2f}"
        )
    models = current.get("models", [])
    for model in models:
        if model.get("mean_batch", 0.0) <= 1.0:
            failures.append(
                f"{model['model']}: scheduler formed no batches "
                f"(mean batch {model.get('mean_batch', 0.0):.2f})"
            )
    ranked = sorted(
        models, key=lambda m: PRIORITY_ORDER.get(m.get("priority"), 99)
    )
    for higher, lower in zip(ranked, ranked[1:]):
        if (
            higher["p99_serve_ms_batched"]
            >= lower["p99_serve_ms_batched"]
        ):
            failures.append(
                f"p99 ordering violated: {higher['model']} "
                f"({higher['priority']}, "
                f"{higher['p99_serve_ms_batched']:.1f} ms) not faster "
                f"than {lower['model']} ({lower['priority']}, "
                f"{lower['p99_serve_ms_batched']:.1f} ms)"
            )
    return failures


MAX_PLANNED_ABS_DIFF = 1e-4


def check_planner(
    current: dict,
    baseline: dict | None,
    tolerance: float,
    min_winograd_speedup: float,
    ratio_only: bool,
) -> list[str]:
    """Gate the conv-planner bench: the cost model must keep choosing
    kernels that are actually faster, and the planned engine must stay
    numerically equivalent to the legacy (unplanned stripe) engine."""
    failures: list[str] = []
    simd_active = current.get("simd", "scalar") != "scalar"
    layers = current.get("layers", [])

    winograd_speedups = [
        layer["speedup"] for layer in layers if layer["chosen"] == "winograd"
    ]
    if simd_active:
        if not winograd_speedups:
            failures.append(
                "planner chose winograd on no 3x3 stage (SIMD active)"
            )
        elif max(winograd_speedups) < min_winograd_speedup:
            failures.append(
                f"best winograd layer speedup {max(winograd_speedups):.2f} "
                f"below required {min_winograd_speedup:.2f}"
            )
    for layer in layers:
        if layer["chosen"] != "im2col" and layer["speedup"] < 1.0 - tolerance:
            failures.append(
                f"{layer['label']}: planner chose {layer['chosen']} but it "
                f"measured {layer['speedup']:.2f}x vs im2col (mischoice)"
            )

    base_models = (
        index_by(baseline.get("models", []), "name") if baseline else {}
    )
    for model in current.get("models", []):
        name = model["name"]
        if model["max_abs_diff"] > MAX_PLANNED_ABS_DIFF:
            failures.append(
                f"{name}: planned engine diverges from legacy stripe engine "
                f"(max |diff| {model['max_abs_diff']:.2e})"
            )
        if model["speedup"] < 1.0 - tolerance:
            failures.append(
                f"{name}: planned engine slower than legacy stripe engine "
                f"(speedup {model['speedup']:.2f})"
            )
        if not ratio_only:
            base = base_models.get(name)
            if base is None:
                continue
            limit = base["planned_ns_frame"] * (1.0 + tolerance)
            if model["planned_ns_frame"] > limit:
                failures.append(
                    f"{name}: planned ns/frame "
                    f"{model['planned_ns_frame']:.0f} exceeds baseline "
                    f"{base['planned_ns_frame']:.0f} +{tolerance:.0%}"
                )
    return failures


def check_pareto(
    current: dict,
    baseline: dict | None,
    tolerance: float,
    min_sparse_speedup: float,
    min_fp16_speedup: float,
    max_accuracy_delta_pt: float,
    ratio_only: bool,
) -> list[str]:
    """Gate the compression Pareto bench: the sparse/fp16 kernels must
    keep their structural speedups, the sparse engine must stay
    numerically equivalent to masked-dense, and the gated variants must
    hold the trained-detector accuracy budget."""
    failures: list[str] = []
    simd_active = current.get("simd", "scalar") != "scalar"
    gates = current.get("kernel_gates", {})
    frontier = current.get("frontier", [])

    if simd_active:
        nm50 = [
            g["speedup"]
            for g in gates.get("sparse", [])
            if g.get("sparsity_pct") == 50
        ]
        if not nm50:
            failures.append("no 50% N:M sparse kernel gate point")
        elif max(nm50) < min_sparse_speedup:
            failures.append(
                f"sparse GEMM speedup at 50% N:M {max(nm50):.2f} below "
                f"required {min_sparse_speedup:.2f}"
            )
        fp16 = [g["speedup"] for g in gates.get("fp16", [])]
        if not fp16:
            failures.append("no fp16-storage kernel gate point")
        elif max(fp16) < min_fp16_speedup:
            failures.append(
                f"best fp16-storage GEMM speedup {max(fp16):.2f} below "
                f"required {min_fp16_speedup:.2f}"
            )
        # Observability: pruning/fp16 requests must actually reach the
        # kernels — a frontier where the planner never picks a
        # compressed format is all control flow and no effect.
        nm_rows = [p for p in frontier if p["variant"].startswith("nm")]
        fp16_rows = [p for p in frontier if "fp16" in p["variant"]]
        if nm_rows and max(p["sparse_nodes"] for p in nm_rows) < 1:
            failures.append(
                "no frontier N:M variant ran any sparse-planned node"
            )
        if fp16_rows and max(p["fp16_nodes"] for p in fp16_rows) < 1:
            failures.append(
                "no frontier fp16 variant ran any half-stored node"
            )
        for point in frontier:
            if (
                point["variant"] == "nm50"
                and point["speedup_vs_fp32"] < 1.0 - tolerance
            ):
                failures.append(
                    f"{point['model']}: nm50 engine slower than fp32 "
                    f"(speedup {point['speedup_vs_fp32']:.2f})"
                )

    equivalence = current.get("equivalence", {})
    if equivalence.get("max_abs_diff", 0.0) > MAX_PLANNED_ABS_DIFF:
        failures.append(
            f"{equivalence.get('model')}: sparse engine diverges from "
            f"masked-dense twin (max |diff| "
            f"{equivalence['max_abs_diff']:.2e})"
        )
    if simd_active and equivalence.get("sparse_nodes", 0) < 1:
        failures.append(
            "equivalence run planned no sparse nodes (nothing compared)"
        )

    for point in frontier:
        if point.get("gated") and "delta_accuracy_pt" in point:
            if abs(point["delta_accuracy_pt"]) > max_accuracy_delta_pt:
                failures.append(
                    f"{point['model']} {point['variant']}: accuracy moved "
                    f"{point['delta_accuracy_pt']:+.2f} pt vs fp32 "
                    f"(budget ±{max_accuracy_delta_pt:.1f})"
                )

    if not ratio_only and baseline is not None:
        base_points = {
            (p["model"], p["variant"]): p
            for p in baseline.get("frontier", [])
        }
        for point in frontier:
            base = base_points.get((point["model"], point["variant"]))
            if base is None:
                continue
            limit = base["ns_frame"] * (1.0 + tolerance)
            if point["ns_frame"] > limit:
                failures.append(
                    f"{point['model']} {point['variant']}: ns/frame "
                    f"{point['ns_frame']:.0f} exceeds baseline "
                    f"{base['ns_frame']:.0f} +{tolerance:.0%}"
                )
    return failures


def check_fault(
    current: dict,
    max_verify_overhead_pct: float,
    max_quarantine_frames: int,
) -> list[str]:
    """Gate the fault-injection bench: the checksum layer must stay
    cheap on the clean path and actually detect + repair corruption,
    and the serving quarantine must bench and re-admit a faulted model
    within the frame budget."""
    failures: list[str] = []
    alloc_counting = current.get("alloc_counting", False)

    overhead = current.get("verify_overhead_pct", 0.0)
    if overhead > max_verify_overhead_pct:
        failures.append(
            f"checksum verify overhead {overhead:.2f}% of median frame "
            f"exceeds budget {max_verify_overhead_pct:.2f}%"
        )

    for model in current.get("models", []):
        name = model["name"]
        if alloc_counting and model.get("warm_allocs", 0) != 0:
            failures.append(
                f"{name}: warmed verify-enabled frame performed "
                f"{model['warm_allocs']} heap allocation(s)"
            )
        recovery = model.get("recovery", {})
        if recovery.get("flips", 0) <= 0:
            failures.append(f"{name}: injection landed no bit flips")
        if not recovery.get("detected", False):
            failures.append(
                f"{name}: injected weight corruption went undetected"
            )
        if recovery.get("max_abs_diff_after", 1.0) != 0.0:
            failures.append(
                f"{name}: recovery did not restore bit-exact outputs "
                f"(max |diff| after "
                f"{recovery.get('max_abs_diff_after'):.2e})"
            )
        quarantine = model.get("quarantine", {})
        frames = quarantine.get("frames_to_quarantine", -1)
        if frames < 0 or frames > max_quarantine_frames:
            failures.append(
                f"{name}: corrupted model not quarantined within "
                f"{max_quarantine_frames} frames (took {frames})"
            )
        if not quarantine.get("readmitted", False):
            failures.append(
                f"{name}: quarantined model never re-admitted after reload"
            )

    devsim = current.get("devsim", {})
    for mode in ("thermal_slowdown", "bandwidth_slowdown"):
        if devsim.get(mode, 0.0) <= 1.0:
            failures.append(
                f"devsim {mode} {devsim.get(mode, 0.0):.2f} does not slow "
                "the modelled device"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated BENCH_kernels.json")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_kernels.json",
        help="committed reference results",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional ns/frame regression (0.15 = 15%%)",
    )
    parser.add_argument(
        "--min-gemm-speedup",
        type=float,
        default=2.0,
        help="minimum SIMD-vs-scalar GEMM speedup when SIMD is active",
    )
    parser.add_argument(
        "--min-int8-speedup",
        type=float,
        default=1.0,
        help="minimum INT8-vs-FP32-SIMD GEMM throughput ratio on the "
        "best shape when SIMD is active",
    )
    parser.add_argument(
        "--ratio-only",
        action="store_true",
        help="skip wall-clock comparisons (cross-machine CI runners)",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=1.5,
        help="minimum micro-batched vs frame-at-a-time aggregate "
        "throughput ratio (multi-model bench)",
    )
    parser.add_argument(
        "--min-winograd-speedup",
        type=float,
        default=1.5,
        help="minimum measured speedup of the best winograd-planned "
        "layer over always-im2col (planner bench, SIMD active)",
    )
    parser.add_argument(
        "--min-sparse-speedup",
        type=float,
        default=1.3,
        help="minimum sparse-vs-masked-dense GEMM speedup at 50%% N:M "
        "on the conv gate shape (pareto bench, SIMD active)",
    )
    parser.add_argument(
        "--min-fp16-speedup",
        type=float,
        default=1.2,
        help="minimum fp16-storage GEMM speedup on the best "
        "bandwidth-bound gate shape (pareto bench, SIMD active)",
    )
    parser.add_argument(
        "--max-accuracy-delta-pt",
        type=float,
        default=1.5,
        help="largest trained-detector accuracy move (percentage "
        "points vs fp32) a gated pareto variant may show",
    )
    parser.add_argument(
        "--max-verify-overhead-pct",
        type=float,
        default=2.0,
        help="largest checksum-verify overhead (%% of the median clean "
        "frame at the default cadence) the fault bench may show",
    )
    parser.add_argument(
        "--max-quarantine-frames",
        type=int,
        default=4,
        help="frames the serving quarantine may take to bench a model "
        "failing its checksum sweep (fault bench)",
    )
    args = parser.parse_args()

    current = load(args.current)

    if current.get("bench") == "fault":
        failures = check_fault(
            current,
            args.max_verify_overhead_pct,
            args.max_quarantine_frames,
        )
        if failures:
            print("bench regression check FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        models = current.get("models", [])
        worst_frames = max(
            (
                m.get("quarantine", {}).get("frames_to_quarantine", -1)
                for m in models
            ),
            default=-1,
        )
        print(
            "bench regression check passed (fault: "
            f"{len(models)} models, verify overhead "
            f"{current.get('verify_overhead_pct', 0.0):.2f}%, recovery "
            "bit-exact, quarantine within "
            f"{worst_frames} frame(s), simd={current.get('simd')})"
        )
        return 0

    if current.get("bench") == "pareto":
        try:
            baseline = load(args.baseline)
        except OSError:
            baseline = None
        failures = check_pareto(
            current,
            baseline,
            args.tolerance,
            args.min_sparse_speedup,
            args.min_fp16_speedup,
            args.max_accuracy_delta_pt,
            args.ratio_only,
        )
        if failures:
            print("bench regression check FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        gates = current.get("kernel_gates", {})
        nm50 = max(
            (
                g["speedup"]
                for g in gates.get("sparse", [])
                if g.get("sparsity_pct") == 50
            ),
            default=0.0,
        )
        fp16 = max(
            (g["speedup"] for g in gates.get("fp16", [])), default=0.0
        )
        print(
            "bench regression check passed (pareto: "
            f"{len(current.get('frontier', []))} frontier points, sparse "
            f"nm50 {nm50:.2f}x, fp16 {fp16:.2f}x, "
            f"simd={current.get('simd')})"
        )
        return 0

    if current.get("bench") == "planner":
        try:
            baseline = load(args.baseline)
        except OSError:
            baseline = None
        failures = check_planner(
            current,
            baseline,
            args.tolerance,
            args.min_winograd_speedup,
            args.ratio_only,
        )
        if failures:
            print("bench regression check FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        layers = current.get("layers", [])
        wino = [l for l in layers if l["chosen"] == "winograd"]
        best = max((l["speedup"] for l in wino), default=0.0)
        print(
            "bench regression check passed (planner: "
            f"{len(layers)} layers, {len(wino)} winograd, best winograd "
            f"speedup {best:.2f}, simd={current.get('simd')})"
        )
        return 0

    if current.get("bench") == "multi_model":
        failures = check_multi_model(current, args.min_batch_speedup)
        if failures:
            print("bench regression check FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            "bench regression check passed (multi-model: speedup "
            f"{current.get('batched_speedup', 0.0):.2f}, "
            f"{len(current.get('models', []))} models, priority p99 "
            "ordering holds)"
        )
        return 0

    baseline = load(args.baseline)
    failures: list[str] = []
    simd_active = current.get("simd", "scalar") != "scalar"

    base_models = index_by(baseline.get("models", []), "name")
    for model in current.get("models", []):
        name = model["name"]
        if not args.ratio_only:
            base = base_models.get(name)
            if base is None:
                continue
            limit = base["simd_ns_frame"] * (1.0 + args.tolerance)
            if model["simd_ns_frame"] > limit:
                failures.append(
                    f"{name}: simd ns/frame {model['simd_ns_frame']:.0f} "
                    f"exceeds baseline {base['simd_ns_frame']:.0f} "
                    f"+{args.tolerance:.0%}"
                )
        if simd_active and model["speedup"] < 1.0 - args.tolerance:
            failures.append(
                f"{name}: SIMD path slower than scalar "
                f"(speedup {model['speedup']:.2f})"
            )

    if simd_active:
        speedups = [g["speedup"] for g in current.get("gemm", [])]
        if speedups and max(speedups) < args.min_gemm_speedup:
            failures.append(
                f"best GEMM speedup {max(speedups):.2f} below required "
                f"{args.min_gemm_speedup:.2f}"
            )
        int8_speedups = [
            g["int8_speedup"]
            for g in current.get("gemm", [])
            if "int8_speedup" in g
        ]
        if int8_speedups and max(int8_speedups) < args.min_int8_speedup:
            failures.append(
                f"best INT8 GEMM speedup {max(int8_speedups):.2f} below "
                f"required {args.min_int8_speedup:.2f}"
            )
        # Dispatch audit: with SIMD active, every shape must have taken
        # the advertised path — the scalar kernel reaching these numbers
        # would mean the dispatcher silently fell back.
        level = current.get("simd", "scalar")
        for g in current.get("gemm", []):
            for field in ("simd_path", "int8_path"):
                path = g.get(field)
                if path is not None and path != level:
                    failures.append(
                        f"gemm {g['label']!r}: {field} took {path!r}, "
                        f"expected active level {level!r}"
                    )
            scalar_path = g.get("scalar_path")
            if scalar_path is not None and scalar_path != "scalar":
                failures.append(
                    f"gemm {g['label']!r}: forced-scalar measurement "
                    f"dispatched to {scalar_path!r}"
                )

    if failures:
        print("bench regression check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1

    checked = "ratios" if args.ratio_only else "ns/frame and ratios"
    print(
        f"bench regression check passed ({checked}, "
        f"{len(current.get('models', []))} models, simd={current.get('simd')})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
