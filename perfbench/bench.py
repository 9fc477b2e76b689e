"""Measurement, oracle checks and reporting for one workload run.

The shared VM this benchmark was tuned on changes speed by up to 1.5x
in phases that can last a whole run.  So every run also times a fixed
numpy-and-Python kernel of the benchmark's own (:func:`kernel_samples`)
between its repetitions and between its set-up samples, and the timed
metrics are scaled to the machine speed at which that kernel takes
``KERNEL_REF_S``.  No change to the
program can move the kernel.

Untraced mode (``--trace 0``) reports, per workload:

* ``ref_tokens_per_s`` — generated tokens of completed requests over
  the wall seconds of ``serve()`` on a freshly built plane (summed over
  the repetitions that fill ``--seconds``, after one untimed warm-up
  repetition), scaled to the reference speed.  The unscaled
  ``wall_tokens_per_s`` is printed beside it.
* ``setup_s`` — wall seconds of ``init_weights`` plus control-plane
  construction, each sample the first build in a fresh process (so it
  includes once-per-process first-use costs); median over
  ``SETUP_SAMPLES`` processes, scaled to the reference speed by the
  kernel runs timed after each of them.  The unscaled median is
  printed beside it.
* ``peak_rss_mb`` — peak resident memory of a fresh process that
  builds and serves the workload once.
* ``error_frac`` — requests that failed, were admitted without a
  terminal outcome, or completed with tokens other than the oracle's,
  over requests submitted (printed; it is also ``failed`` /
  ``attempted`` in the result line).

Every repetition is checked outside the timed region: completed streams
against the unsharded reference model, the journal audit, page-lease
balance, and the digest of the modeled outcomes, which must not differ
between repetitions of one invocation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.audit import audit_run
from repro.cluster.chaos import reference_completions
from repro.cluster.control_plane import ClusterRequestStatus
from repro.model import init_weights

from perfbench.workloads import DECODE_BATCH, WORKLOADS, Workload, \
    shared_prefix_tokens

#: Fresh processes sampled for ``setup_s`` (the last also serves, for
#: ``peak_rss_mb``).
SETUP_SAMPLES = 15
#: Mean seconds of one :func:`kernel_samples` run on the reference
#: machine, a 2-vCPU 2.1 GHz Xeon VM with numpy's OpenBLAS.
KERNEL_REF_S = 0.005
#: Kernel runs timed before, between and after the timed repetitions,
#: and after each set-up sample.
KERNEL_RUNS = 40
#: Timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Where result files and span dumps go, under the checkout root.
OUT_DIR = ".perfbench_out"


@dataclass
class Ledger:
    """Correctness over every repetition of one invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    modeled: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 \
            and len(self.digests) <= 1 \
            and all(m == self.modeled[0] for m in self.modeled)


def outcome_digest(outcomes) -> str:
    """Hash of the modeled outcomes: status, first-token and finish."""
    h = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.request_id):
        h.update(repr((o.request_id, o.status.value, o.first_token_s,
                       o.finish_s)).encode())
    return h.hexdigest()


def check(plane, outcomes, reference: dict, ledger: Ledger) -> float:
    """Oracle-check one repetition into ``ledger``; returns audit wall s.

    A request counts as failed when it FAILED, was admitted without a
    terminal outcome, or completed with tokens other than the oracle's
    (a brownout-capped stream must be the oracle's greedy prefix).  A
    repetition whose journal audit or page-lease ledger fails counts
    every one of its requests as failed.
    """
    n = len(outcomes)
    counts = {s: 0 for s in ClusterRequestStatus}
    wrong = 0
    for o in outcomes:
        counts[o.status] += 1
        if o.completion is None:
            continue
        ref = reference[o.request_id]
        tokens = o.completion.tokens
        if o.output_capped:
            ok = np.array_equal(tokens, ref[:len(tokens)])
        else:
            ok = np.array_equal(tokens, ref)
        wrong += not ok
    admitted = n - counts[ClusterRequestStatus.REJECTED]
    dropped = admitted - counts[ClusterRequestStatus.COMPLETED] \
        - counts[ClusterRequestStatus.FAILED] \
        - counts[ClusterRequestStatus.DEADLINE_MISSED]
    failed = counts[ClusterRequestStatus.FAILED] + dropped + wrong

    t0 = time.perf_counter()
    audit = audit_run(plane.journal, final_state=plane.control_state(),
                      reference=reference)
    audit_s = time.perf_counter() - t0
    rep_problems = [f"audit: {v}" for v in audit.violations]
    if not audit.certified and not rep_problems:
        rep_problems.append("audit did not certify")
    if plane.kv_page_leases != plane.kv_page_releases:
        rep_problems.append(
            f"page leases {plane.kv_page_leases} != releases "
            f"{plane.kv_page_releases}")
    if wrong:
        rep_problems.append(f"{wrong} streams differ from the oracle")
    if rep_problems:
        failed = n
    ledger.problems.extend(rep_problems)
    ledger.attempted += n
    ledger.failed += failed
    ledger.digests.add(outcome_digest(outcomes))
    return audit_s


def generated_tokens(outcomes) -> int:
    return sum(o.completion.n_generated for o in outcomes
               if o.status is ClusterRequestStatus.COMPLETED)


def serve_once(workload: Workload, weights, submissions, recorder=None):
    """Build a fresh plane and serve; returns (plane, outcomes, wall s).

    With a ``recorder`` the build and the serve run traced; the timed
    region is the ``serve()`` call alone either way.  The previous
    repetition's plane is collected first, so its reference cycles are
    not freed inside the timed region.
    """
    def go():
        gc.collect()
        plane = workload.plane(weights)
        t0 = time.perf_counter()
        outcomes = plane.serve(submissions)
        return plane, outcomes, time.perf_counter() - t0

    if recorder is None:
        return go()
    from perfbench.layers import targets

    with recorder.installed(targets()):
        return go()


def descriptors(plane, outcomes, submissions) -> dict:
    """Workload properties later claims can quote shares of."""
    prompt_tokens = sum(len(s.request.prompt) for s in submissions)
    return {
        "requests": len(submissions),
        "prompt_tokens": prompt_tokens,
        "generated_tokens": generated_tokens(outcomes),
        "shared_prefix_frac": shared_prefix_tokens(submissions)
        / prompt_tokens if prompt_tokens else 0.0,
        "scale_outs": len(plane.events.of_kind("replica_added")),
        "handoffs": getattr(plane, "kv_handoffs", 0),
    }


def _git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload: Workload, root: Path) -> dict:
    from perfbench.run import CLEARED_VARS, THREAD_VARS

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": workload.backend,
        "mesh": workload.mesh,
        "step_threads": 0,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cleared_vars": {v: os.environ.get(v) for v in CLEARED_VARS},
    }


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_X = _KERNEL_RNG.standard_normal((16, 64))
_KERNEL_W = _KERNEL_RNG.standard_normal((64, 64))


def kernel_samples() -> list[float]:
    """Wall seconds of each of ``KERNEL_RUNS`` runs of a fixed kernel.

    Small matmuls and element-wise numpy ops under a Python loop with
    dict traffic, a mix of work like that of ``serve()``, so the two
    slow down together when the machine does.
    """
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        x, counts = _KERNEL_X, {}
        for i in range(400):
            y = np.maximum(x @ _KERNEL_W, 0.0)
            x = y / (1.0 + np.abs(y).max())
            counts[i % 37] = counts.get(i % 37, 0) + 1
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """This process image's peak resident set (``VmHWM``), in MiB.

    Not ``ru_maxrss``: that survives ``exec`` and so starts at the
    spawning parent's resident size.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(args) -> int:
    """A fresh process: time the first build; with ``rss`` also serve."""
    workload = WORKLOADS[args.workload]
    submissions = workload.submissions(args.seed)
    t0 = time.perf_counter()
    weights = init_weights(workload.config, seed=0)
    plane = workload.plane(weights)
    result = {"setup_s": time.perf_counter() - t0}
    if args.child == "rss":
        plane.serve(submissions)
        result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def _child_sample(root: Path, mode: str, args) -> dict:
    """Run one measuring child process to completion; its JSON line."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--child", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_untraced(workload, weights, submissions, reference, args,
                     root: Path, ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics plus the per-repetition record."""
    walls: list[float] = []
    kernel = kernel_samples()
    tokens = 0
    while len(walls) < MIN_REPS or sum(walls) < args.seconds:
        plane, outcomes, wall = serve_once(workload, weights, submissions)
        tokens = generated_tokens(outcomes)
        walls.append(wall)
        check(plane, outcomes, reference, ledger)
        kernel += kernel_samples()
    samples, setup_kernel = [], []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["rss"]:
        samples.append(_child_sample(root, mode, args))
        setup_kernel += kernel_samples()
    # Means, not medians, on both sides of the ratio: when a run spends
    # a share of its time in a faster phase of the machine, the serve()
    # total and the kernel's mean both shrink by that share.
    wall_tps = tokens * len(walls) / sum(walls)
    speed = KERNEL_REF_S / statistics.mean(kernel)
    setup_speed = KERNEL_REF_S / statistics.mean(setup_kernel)
    setups = [s["setup_s"] for s in samples]
    metrics = {
        "ref_tokens_per_s": wall_tps / speed,
        "setup_s": statistics.median(setups) * setup_speed,
        "peak_rss_mb": samples[-1]["peak_rss_mb"],
        "error_frac": ledger.failed / ledger.attempted,
    }
    record = {"serve_walls_s": walls, "tokens": tokens,
              "wall_tokens_per_s": wall_tps, "kernel_s": kernel,
              "machine_speed": speed, "setup_samples_s": setups,
              "setup_kernel_s": setup_kernel, "setup_speed": setup_speed}
    return metrics, record


def measure_traced(workload, weights, submissions, reference, args,
                   root: Path, ledger: Ledger) -> tuple[dict, dict]:
    """Per-layer metrics: traced runs alternating with untraced ones."""
    from perfbench.layers import layer_metrics, modeled_metrics
    from perfbench.spans import SpanRecorder

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_rep: list[dict] = []
    kernel = kernel_samples()
    recorder = None
    while len(traced_walls) < MIN_REPS or \
            sum(plain_walls) + sum(traced_walls) < args.seconds:
        plane, outcomes, wall = serve_once(workload, weights, submissions)
        plain_walls.append(wall)
        check(plane, outcomes, reference, ledger)
        ledger.modeled.append(modeled_metrics(plane, outcomes))

        recorder = SpanRecorder()
        plane, outcomes, wall = serve_once(workload, weights, submissions,
                                           recorder)
        traced_walls.append(wall)
        audit_s = check(plane, outcomes, reference, ledger)
        modeled = modeled_metrics(plane, outcomes)
        ledger.modeled.append(modeled)
        per_rep.append({**layer_metrics(recorder.spans, plane,
                                        audit_s=audit_s), **modeled})
        kernel += kernel_samples()
    metrics = {k: statistics.median(m[k] for m in per_rep)
               for k in per_rep[0]}
    metrics["machine.kernel_ms"] = statistics.mean(kernel) * 1e3
    metrics["trace.overhead_frac"] = \
        statistics.median(traced_walls) / statistics.median(plain_walls) \
        - 1.0
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    spans_path = out / f"{workload.name}.seed{args.seed}.spans.jsonl"
    recorder.write_jsonl(spans_path)
    record = {"serve_walls_s": plain_walls,
              "traced_serve_walls_s": traced_walls,
              "spans_file": str(spans_path.relative_to(root)),
              "spans": len(recorder.spans), "kernel_s": kernel}
    return metrics, record


def run(args, root: Path) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = json.loads((root / "BENCHMARK.json").read_text())
    listed = contract["per_layer" if args.trace else "end_to_end"]
    env = environment(args, workload, root)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    weights = init_weights(workload.config, seed=0)
    submissions = workload.submissions(args.seed)
    # The oracle: the unsharded reference model, once per seed.
    reference = {rid: c.tokens for rid, c in reference_completions(
        submissions, weights, DECODE_BATCH).items()}
    ledger = Ledger()
    # Warm-up repetition: checked, described, not timed.
    plane, outcomes, _ = serve_once(workload, weights, submissions)
    check(plane, outcomes, reference, ledger)
    desc = descriptors(plane, outcomes, submissions)
    print("descriptors " + json.dumps(desc, sort_keys=True))

    if args.trace:
        metrics, record = measure_traced(workload, weights, submissions,
                                         reference, args, root, ledger)
    else:
        metrics, record = measure_untraced(workload, weights, submissions,
                                           reference, args, root, ledger)
        for m in contract["end_to_end"]:
            print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
        print(f"error_frac {metrics['error_frac']} ratio")
        print(f"wall_tokens_per_s {record['wall_tokens_per_s']} tokens/s")
        print(f"machine_speed {record['machine_speed']} x reference")
        print(f"wall_setup_s {statistics.median(record['setup_samples_s'])}"
              " s")
        print(f"setup_machine_speed {record['setup_speed']} x reference")
    for problem in sorted(set(ledger.problems)):
        print(f"CHECK FAILED: {problem}")
    if len(ledger.digests) > 1:
        print("CHECK FAILED: modeled outcomes differ between repetitions")
    if any(m != ledger.modeled[0] for m in ledger.modeled):
        print("CHECK FAILED: modeled metrics differ between traced and "
              "untraced repetitions")

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    (out / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, "descriptors": desc, "metrics": metrics,
         "record": record, "correct": ledger.correct,
         "attempted": ledger.attempted, "failed": ledger.failed,
         "problems": sorted(set(ledger.problems))},
         indent=1, sort_keys=True))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0 if ledger.correct else 1
