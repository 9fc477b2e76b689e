"""Capture v2: fused multi-step decode, prefill programs, cache hit rate.

Three serving hot paths ride the program cache beyond the single decode
step that ``bench_step_capture.py`` times:

* **Fused decode** — ``capture_fused_decode`` folds a window of decode
  steps (greedy feedback included) into one program; replaying the
  window in one call amortizes per-step dispatch and unlocks the
  whole-window tape optimizer.  Compared against stepping the v1
  single-step replay program through the same window from the same KV
  base, so the numpy work per position is identical.  The tape-optimized
  single-step program the serving path now runs is timed alongside
  (``replay1_opt_s``, ``fused_vs_opt``) for the report only; the gate
  stays on the v1 baseline.
* **Prefill programs** — ``capture_prefill_chunk`` traces one chunk of
  ``chunked_prefill`` and replays later same-length chunks; eager and
  replay append the same positions from the same cache base.
* **Program-cache hit rate** — a shrinking continuous batch decoded via
  ``StepCompiler.decode_step`` with batch bucketing; the bucketed
  signature keeps shrinking batches on one warm program.

All replays must be bit-identical to eager on both backends at every
shape; results land in ``BENCH_capture_v2.json`` at the repo root
(consumed by docs/mesh_backends.md and the README).
"""

import json
import pathlib

from repro.mesh.bench import (
    CAPTURE_BATCH,
    CAPTURE_V2_CHUNK,
    CAPTURE_V2_SHAPES,
    CAPTURE_V2_WINDOW,
    compare_capture_v2,
    format_capture_v2_table,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_capture_v2.json"


def run_comparison() -> dict:
    return compare_capture_v2(CAPTURE_V2_SHAPES)


def test_capture_v2(benchmark, save_result):
    sections = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = format_capture_v2_table(sections)
    save_result("capture_v2", table)
    JSON_PATH.write_text(json.dumps({
        "workload": "16-layer multiquery model, WG_XY + BATCH layout, "
                    f"batch {CAPTURE_BATCH}; fused decode window "
                    f"{CAPTURE_V2_WINDOW} vs the same window of v1 "
                    "single-step replays (and, report-only, of "
                    "tape-optimized single-step replays), prefill chunk "
                    "length "
                    f"{CAPTURE_V2_CHUNK} replayed vs eager from the "
                    "same KV base, and the StepCompiler hit rate on a "
                    "shrinking continuous batch; timed windows reset "
                    "the KV fill to a common base and each mode is "
                    "timed in consecutive blocks (its serving-loop "
                    "steady state)",
        "fused": sections["fused"],
        "prefill": sections["prefill"],
        "hit_rate": sections["hit_rate"],
    }, indent=2) + "\n")
    print(f"[saved to {JSON_PATH}]")

    # Every replay mode must be bit-identical to eager on both backends.
    assert all(row["bit_identical"]
               for row in sections["fused"] + sections["prefill"])
    fused = {(r["mesh"], r["backend"]): r for r in sections["fused"]}
    prefill = {(r["mesh"], r["backend"]): r for r in sections["prefill"]}
    # Acceptance bars on the paper's 4x4x4 torus (stacked backend): the
    # fused window beats stepping the v1 replay program, and prefill
    # replay beats eager chunked prefill, both by >= 1.5x.
    assert fused[("4x4x4", "stacked")]["speedup"] >= 1.5
    assert prefill[("4x4x4", "stacked")]["speedup"] >= 1.5
    # Shape-bucketed signatures keep the shrinking batch on warm
    # programs: >= 80% hit rate everywhere.
    assert all(row["hit_rate"] >= 0.8 for row in sections["hit_rate"])
