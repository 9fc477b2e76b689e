"""Differential check of the chaos matrix's event view against a baseline.

Runs every chaos scenario on both mesh backends at seeds {0, 1, 7}, in
this checkout and in a baseline checkout (``--baseline DIR``, e.g. a
``git archive`` of the parent commit), and compares the two runs:

* the plane's ``EventLog`` — the same kinds in the same order, and every
  field a baseline event had with the same value in the new event (new
  events may carry extra fields; the field renames in :data:`RENAMES`
  are applied to the baseline first);
* the completed requests' token CRCs, read from the journals;
* in the new run: replay equals ``control_state()``, the audit
  certifies, and every stream is bit-identical to the oracle.

Usage::

    python tools/event_view_diff.py --baseline /path/to/baseline

Each tree's runs execute in a subprocess with ``PYTHONPATH`` pointing
at that tree's ``src/``.  Exit status 1 on any difference.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import pickle
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 7)

#: ``(event kind, old field) -> new field`` for event fields renamed so
#: the journal record and its event view share one name.
RENAMES = {
    ("kv_handoff", "attempts"): "attempt",
    ("kv_handoff_aborted", "retries"): "budget",
    ("request_failed", "retries"): "failovers",
}


def _crcs(journal_dump: list) -> dict[int, int]:
    """request id -> token crc, from either group_complete entry form."""
    out = {}
    for record in journal_dump:
        if record["kind"] != "group_complete":
            continue
        for entry in record["data"]["entries"]:
            if isinstance(entry, dict):
                out[entry["request_id"]] = entry["token_crc"]
            else:
                out[entry[0]] = entry[1]
    return out


def dump(path: str) -> None:
    """Run the matrix in the importable tree and pickle what it did."""
    from repro.cluster.chaos import SCENARIOS, run_scenario
    from repro.events import EventLog

    runs = {}
    for name in sorted(SCENARIOS):
        for backend in ("loop", "stacked"):
            for seed in SEEDS:
                log = EventLog()
                report = run_scenario(name, backend=backend, seed=seed,
                                      event_log=log)
                runs[name, backend, seed] = {
                    "events": [(e.kind, dict(e.data)) for e in log],
                    "crcs": _crcs(report.journal_dump),
                    "replay_matches": report.replay_matches,
                    "audit_certified": report.audit_certified,
                    "bit_identical": report.bit_identical,
                    "ok": report.ok,
                }
    with open(path, "wb") as fh:
        pickle.dump(runs, fh)


def _run_tree(tree: pathlib.Path, out: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, __file__, "--dump", out], env=env,
                   check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def compare(base: dict, new: dict) -> list[str]:
    problems = []
    for key in sorted(base):
        tag = "/".join(map(str, key))
        b, n = base[key], new[key]
        for flag in ("replay_matches", "audit_certified", "bit_identical",
                     "ok"):
            if not n[flag]:
                problems.append(f"{tag}: {flag} is False")
        if b["crcs"] != n["crcs"]:
            problems.append(f"{tag}: token crcs differ")
        b_kinds = [k for k, _ in b["events"]]
        n_kinds = [k for k, _ in n["events"]]
        if b_kinds != n_kinds:
            problems.append(f"{tag}: event kinds differ "
                            f"({len(b_kinds)} vs {len(n_kinds)} events)")
            continue
        for i, ((kind, old), (_, data)) in enumerate(zip(b["events"],
                                                         n["events"])):
            for field, value in old.items():
                field = RENAMES.get((kind, field), field)
                if field not in data or data[field] != value:
                    problems.append(
                        f"{tag}: event {i} ({kind}) field {field!r}: "
                        f"{value!r} -> {data.get(field, '<missing>')!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", help="baseline checkout to diff "
                                           "this tree against")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    with tempfile.TemporaryDirectory() as tmp:
        base = _run_tree(pathlib.Path(args.baseline).resolve(),
                         os.path.join(tmp, "base.pkl"))
        new = _run_tree(ROOT, os.path.join(tmp, "new.pkl"))
    problems = compare(base, new)
    n_events = sum(len(run["events"]) for run in new.values())
    for line in problems:
        print(line)
    print(f"{len(new)} runs, {n_events} events: "
          f"{'MATCH' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
