"""Invariant auditor: certify a run from its journal.

After any cluster run — chaotic or not — the auditor replays the
write-ahead journal (:mod:`repro.cluster.journal`) and checks the
invariants the control plane promises:

* **Conservation** — every admitted request reaches exactly one
  terminal state (completed *or* failed with a typed reason), no
  request completes twice (checked against the raw ``group_complete``
  records, not just the folded set), and no rejected request was also
  admitted.
* **Exactly-once KV handoff** — per dispatch group, at most one
  ``handoff_commit``; every commit is preceded by a
  ``handoff_prepare``; an ``handoff_abort`` is only legal after the
  retry budget (``handoff_retry`` records) was spent.
* **Exactly-once page leases** — every journaled cached-prefix pin
  (``page_lease``, one per replica/lease id) has exactly one matching
  ``page_release`` with the same page count: no lease leaked by a
  failover/drain/hedge path, no page double-freed.
* **Bit-identity** — when the fault-free oracle's token streams are
  supplied, every completed request's journaled ``token_crc`` must
  match the oracle (capped streams against the oracle's greedy prefix).
* **Reconstruction** — when the live final state is supplied, replay
  must reproduce it bit-identically.

A truncated journal is refused outright: the per-record checks above
need the full stream, so a journal that dropped records cannot certify
anything (replay from a covering snapshot may still *recover*, but
recovery and certification are different promises).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.journal import (
    ControlPlaneState,
    Journal,
    JournalTruncated,
    diff_states,
    replay_journal,
    token_crc,
)


@dataclass
class AuditReport:
    """Outcome of one audit: certified or a list of typed violations."""

    certified: bool
    violations: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


def audit_run(journal: Journal, *,
              final_state: ControlPlaneState | None = None,
              reference: Mapping[int, object] | None = None
              ) -> AuditReport:
    """Replay ``journal`` and check the control-plane invariants.

    ``final_state`` is the live plane's ``control_state()`` — supplied,
    the reconstruction check runs.  ``reference`` maps request id to
    the fault-free oracle's token array — supplied, completed streams
    are checked bit-identical (capped streams against the prefix).
    """
    violations: list[str] = []

    if journal.truncated:
        return AuditReport(
            certified=False,
            violations=[f"journal truncated: {journal.truncated} "
                        f"records dropped; a partial journal cannot "
                        f"certify anything"],
            counters={"records": len(journal.records),
                      "truncated": journal.truncated})

    try:
        state = replay_journal(journal)
    except (JournalTruncated, ValueError) as exc:
        return AuditReport(certified=False,
                           violations=[f"replay failed: {exc}"],
                           counters={"records": len(journal.records)})

    if final_state is not None and state != final_state:
        for line in diff_states(state, final_state):
            violations.append(f"replay mismatch: {line}")

    # --- conservation -----------------------------------------------------
    admitted = set(state.admitted)
    completed = {rid for rid, _, _, _ in state.completed}
    failed = {rid for rid, _ in state.failed}
    rejected = {rid for rid, _ in state.rejected}

    for rid in sorted(admitted - completed - failed):
        violations.append(f"request {rid} admitted but never reached a "
                          f"terminal state")
    for rid in sorted((completed | failed) - admitted):
        violations.append(f"request {rid} reached a terminal state "
                          f"without being admitted")
    for rid in sorted(completed & failed):
        violations.append(f"request {rid} both completed and failed")
    for rid in sorted(rejected & admitted):
        violations.append(f"request {rid} both rejected and admitted")

    seen_complete: dict[int, int] = {}
    for record in journal.of_kind("group_complete"):
        for entry in record["entries"]:
            rid = entry["request_id"]
            seen_complete[rid] = seen_complete.get(rid, 0) + 1
    for rid, count in sorted(seen_complete.items()):
        if count > 1:
            violations.append(f"request {rid} completed {count} times")

    # --- exactly-once KV handoff ------------------------------------------
    prepared = {r["group"] for r in journal.of_kind("handoff_prepare")}
    commits: dict[int, int] = {}
    for record in journal.of_kind("handoff_commit"):
        gid = record["group"]
        commits[gid] = commits.get(gid, 0) + 1
        if gid not in prepared:
            violations.append(f"group {gid} committed a KV handoff "
                              f"without a prepare record")
    for gid, count in sorted(commits.items()):
        if count > 1:
            violations.append(f"group {gid} committed a KV handoff "
                              f"{count} times (pages delivered twice)")
    retries: dict[int, int] = {}
    for record in journal.of_kind("handoff_retry"):
        gid = record["group"]
        retries[gid] = retries.get(gid, 0) + 1
    for record in journal.of_kind("handoff_abort"):
        gid = record["group"]
        budget = record.get("budget")
        if gid in commits:
            violations.append(f"group {gid} both committed and aborted "
                              f"its KV handoff")
        if budget is not None and retries.get(gid, 0) < budget:
            violations.append(
                f"group {gid} aborted its KV handoff after only "
                f"{retries.get(gid, 0)} of {budget} budgeted retries")

    # --- exactly-once page leases ------------------------------------------
    leased: dict[tuple[str, int], int] = {}
    for record in journal.of_kind("page_lease"):
        key = (record["replica"], record["lease_id"])
        if key in leased:
            violations.append(f"page lease {key[1]} on {key[0]} "
                              f"journaled twice")
        leased[key] = record["pages"]
    released: dict[tuple[str, int], int] = {}
    for record in journal.of_kind("page_release"):
        key = (record["replica"], record["lease_id"])
        if key in released:
            violations.append(f"page lease {key[1]} on {key[0]} "
                              f"released twice (double free)")
        released[key] = record["pages"]
        if key not in leased:
            violations.append(f"page release {key[1]} on {key[0]} "
                              f"without a lease record")
        elif leased[key] != record["pages"]:
            violations.append(
                f"page lease {key[1]} on {key[0]} pinned "
                f"{leased[key]} pages but released {record['pages']}")
    for key in sorted(set(leased) - set(released)):
        violations.append(f"page lease {key[1]} on {key[0]} never "
                          f"released (pages pinned forever)")

    # --- bit-identity vs the fault-free oracle ----------------------------
    if reference is not None:
        for rid, crc, stream_len, capped in state.completed:
            if rid not in reference:
                violations.append(f"request {rid} completed but the "
                                  f"oracle has no stream for it")
                continue
            ref_tokens = reference[rid]
            expect = token_crc(ref_tokens[:stream_len]) if capped \
                else token_crc(ref_tokens)
            if not capped and stream_len != len(ref_tokens):
                violations.append(
                    f"request {rid} completed {stream_len} tokens; the "
                    f"oracle produced {len(ref_tokens)}")
            elif crc != expect:
                violations.append(
                    f"request {rid} token stream diverged from the "
                    f"fault-free oracle (crc {crc:#010x} != "
                    f"{expect:#010x})")

    counters = {
        "records": len(journal.records),
        "admitted": len(admitted),
        "completed": len(completed),
        "failed": len(failed),
        "rejected": len(rejected),
        "handoff_commits": len(commits),
        "handoff_retries": state.handoff_retries,
        "handoff_aborts": state.handoff_aborts,
        "handoff_dup_drops": state.handoff_dup_drops,
        "page_leases": state.kv_page_leases,
        "page_releases": state.kv_page_releases,
        "restarts": state.restarts,
        "recoveries": state.recoveries,
    }
    return AuditReport(certified=not violations, violations=violations,
                       counters=counters)


def format_audit(report: AuditReport) -> str:
    """Human-readable audit summary for the CLI."""
    lines = []
    verdict = "CERTIFIED" if report.certified else "VIOLATIONS"
    lines.append(f"audit: {verdict}")
    for name, value in sorted(report.counters.items()):
        lines.append(f"  {name:<18} {value}")
    for violation in report.violations:
        lines.append(f"  ! {violation}")
    return "\n".join(lines)
