"""Property test for the single-mesh resilient server.

Hypothesis draws the execution backend, one scheduled fault (chip kill,
collective timeout, detected corruption or straggler) with its chip,
step and phase clock, a request group of 1-4 requests with their
generation lengths, and an optional deadline.  Whatever the draw, the
server must keep three promises:

* every request it completes carries the tokens of the unsharded
  ``TwoPhaseServer(ReferenceTransformer)`` run;
* a second run on the same inputs gives the same outcomes and the same
  event log, field for field (virtual-clock purity);
* a chip kill that fires leaves the server on a smaller mesh.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import FAULT_INJECTED, EventLog
from repro.mesh import (
    ChipKill,
    CollectiveFault,
    FaultPlan,
    StragglerFault,
    VirtualMesh,
)
from repro.mesh.virtual_mesh import BACKENDS
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.partitioning import AttentionLayoutKind, FfnLayoutKind, LayoutPlan
from repro.serving import (
    Request,
    RequestStatus,
    ResilientRequest,
    ResilientTwoPhaseServer,
    TwoPhaseServer,
)

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
REFERENCE_MODEL = ReferenceTransformer(WEIGHTS)
MESH_SHAPE = (2, 2, 2)
CHIPS = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]


@st.composite
def fault_plans(draw):
    kind = draw(st.sampled_from(["kill", "timeout", "corrupt",
                                 "straggler"]))
    at_step = draw(st.integers(0, 5))
    phase = draw(st.sampled_from(["prefill", "decode", None]))
    chip = draw(st.sampled_from(CHIPS))
    if kind == "kill":
        fault = ChipKill(chip=chip, at_step=at_step, phase=phase)
    elif kind == "straggler":
        fault = StragglerFault(chip=chip, slowdown=50.0,
                               delay_s_per_op=1e-3, at_step=at_step,
                               phase=phase)
    else:
        fault = CollectiveFault(kind=kind, at_step=at_step, phase=phase,
                                chip=chip)
    return FaultPlan(faults=(fault,))


@st.composite
def scenarios(draw):
    backend = draw(st.sampled_from(BACKENDS))
    plan = draw(fault_plans())
    n_new = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    requests = [Request(i, rng.integers(0, CFG.vocab_size, size=6), n)
                for i, n in enumerate(n_new)]
    deadline = draw(st.sampled_from([None, 0.3, 0.6, 1.2]))
    return backend, plan, requests, deadline


def serve(backend, plan, requests, deadline):
    log = EventLog()
    server = ResilientTwoPhaseServer(
        WEIGHTS, VirtualMesh(MESH_SHAPE, backend=backend), decode_batch=4,
        fault_plan=plan, event_log=log)
    outcomes = server.serve([ResilientRequest(r, deadline_s=deadline)
                             for r in requests])
    return server, outcomes, log


def outcome_view(outcomes):
    return [(o.request_id, o.status, o.retries, o.finish_s,
             None if o.completion is None else o.completion.tokens.tolist())
            for o in outcomes]


def event_view(log):
    return [(e.kind, e.data) for e in log]


def check(backend, plan, requests, deadline):
    reference = TwoPhaseServer(REFERENCE_MODEL, decode_batch=4).serve(
        requests)
    server, outcomes, log = serve(backend, plan, requests, deadline)

    for outcome, want in zip(outcomes, reference):
        if outcome.status is RequestStatus.COMPLETED:
            np.testing.assert_array_equal(outcome.completion.tokens,
                                          want.tokens)

    _, again, again_log = serve(backend, plan, requests, deadline)
    assert outcome_view(again) == outcome_view(outcomes)
    assert event_view(again_log) == event_view(log)

    kill_fired = any(e["fault"]["type"] == "ChipKill"
                     for e in log.of_kind(FAULT_INJECTED))
    if kill_fired:
        assert server.mesh.num_chips < MESH_SHAPE[0] * MESH_SHAPE[1] \
            * MESH_SHAPE[2]


@settings(max_examples=12, deadline=None)
@given(scenarios())
def test_single_mesh_server_properties(scenario):
    check(*scenario)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_during_retry_prefill_of_a_lone_request(backend):
    # A global-clock kill that lands on the retry's prefill: the
    # timeout's retry re-prefills, the kill fires there, and the second
    # retry runs on the replanned mesh.
    plan = FaultPlan(faults=(
        CollectiveFault(kind="timeout", at_step=1, phase="decode"),
        ChipKill(chip=(1, 0, 1), at_step=3, phase=None)))
    rng = np.random.default_rng(0)
    requests = [Request(0, rng.integers(0, CFG.vocab_size, size=6), 5)]
    check(backend, plan, requests, None)


def test_explicit_plans_reach_the_replica():
    decode_plan = LayoutPlan(FfnLayoutKind.WG_X, AttentionLayoutKind.BATCH)
    prefill_plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
    server = ResilientTwoPhaseServer(
        WEIGHTS, VirtualMesh(MESH_SHAPE), decode_batch=4,
        decode_plan=decode_plan, prefill_plan=prefill_plan)
    replica = server.replica
    assert replica.decode_model.plan == decode_plan
    assert replica.prefill_model.plan == prefill_plan
    assert replica.prefill_model.kv_arena is replica.kv_arena
    rng = np.random.default_rng(1)
    requests = [Request(i, rng.integers(0, CFG.vocab_size, size=6), 4)
                for i in range(3)]
    reference = TwoPhaseServer(REFERENCE_MODEL, decode_batch=4).serve(
        requests)
    for outcome, want in zip(server.serve(requests), reference):
        np.testing.assert_array_equal(outcome.completion.tokens,
                                      want.tokens)
