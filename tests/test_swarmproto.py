import itertools
import random

import pytest

from edgeswarm.model import (
    READ_ONLY,
    READ_WRITE,
    ContainerImage,
    EdgeNode,
    Layer,
)
from edgeswarm.policies import Swarm
from edgeswarm.swarmproto import (
    DeployService,
    InitSwarm,
    JoinAccepted,
    JoinRejected,
    JoinRequest,
    LayerRequest,
    LayerTransfer,
    LeaderIncompleteError,
    NodeProtocolState,
    PortClosedError,
    ResourceExceededError,
    ServiceSpec,
    SwarmNetworkConfig,
    SwarmNodeMachine,
    TraceEvent,
    PHASES,
    admit_workers,
    deploy_service,
    derive_join_token,
    handle_message,
    init_swarm,
    join_swarm,
    plan_layer_transfer,
)
from oracles import layer_difference
from swarm_fuzz import check_invariants, run_fuzz_trace

IMAGE = ContainerImage(
    image_id="app",
    layers=(Layer("base", 1_000_000, READ_ONLY), Layer("code", 500_000, READ_ONLY)),
    rw_layer=Layer("app.rw", 200_000, READ_WRITE),
)
IMAGES = {"app": IMAGE}
SPEC = ServiceSpec("svc", "fn", "app", 0.4, 10**9)


def node(node_id, stored=(), cpu=0.5, memory=10**10, rate=50.0):
    return EdgeNode(node_id, rate, cpu, memory, frozenset(stored))


class TestJoinToken:
    def test_deterministic_and_hex(self):
        token = derive_join_token(7)
        assert token == derive_join_token(7)
        assert len(token) == 24
        int(token, 16)

    def test_different_seeds_differ(self):
        assert derive_join_token(1) != derive_join_token(2)


class TestTraceEvent:
    def test_line_is_tab_separated(self):
        line = TraceEvent(2.0, "edge-b", "member", "DeployService", "transferring_layers").to_line()
        assert line == "2\tedge-b\tmember\tDeployService\ttransferring_layers"
        assert len(line.split("\t")) == 5


class TestInitAndJoin:
    def test_init_creates_empty_swarm_with_token(self):
        swarm, token = init_swarm(node("a"), SwarmNetworkConfig(), rng_seed=7)
        assert swarm.leader_id == "a"
        assert swarm.worker_ids == ()
        assert swarm.join_token == token == derive_join_token(7)

    def test_init_requires_open_ports(self):
        config = SwarmNetworkConfig(ports_open={"a": frozenset({7946, 4789})})
        with pytest.raises(PortClosedError) as err:
            init_swarm(node("a"), config, rng_seed=0)
        assert err.value.port == 2377

    def test_join_with_correct_token(self):
        swarm, token = init_swarm(node("a"), SwarmNetworkConfig(), rng_seed=0)
        swarm = join_swarm(swarm, node("b"), token, SwarmNetworkConfig())
        assert swarm.worker_ids == ("b",)

    def test_join_is_idempotent(self):
        swarm, token = init_swarm(node("a"), SwarmNetworkConfig(), rng_seed=0)
        config = SwarmNetworkConfig()
        swarm = join_swarm(swarm, node("b"), token, config)
        again = join_swarm(swarm, node("b"), token, config)
        assert again == swarm
        assert join_swarm(swarm, node("a"), token, config) == swarm

    def test_wrong_token_is_rejected_not_fatal(self):
        swarm, _ = init_swarm(node("a"), SwarmNetworkConfig(), rng_seed=0)
        after = join_swarm(swarm, node("b"), "wrong-code", SwarmNetworkConfig())
        assert after == swarm

    def test_join_port_enforcement(self):
        swarm, token = init_swarm(node("a"), SwarmNetworkConfig(), rng_seed=0)
        config = SwarmNetworkConfig(ports_open={"b": frozenset({2377})})
        with pytest.raises(PortClosedError):
            join_swarm(swarm, node("b"), token, config)

    @pytest.mark.parametrize("token_ok", [True, False])
    def test_admit_workers_is_one_join_per_node(self, token_ok):
        config = SwarmNetworkConfig()
        swarm, token = init_swarm(node("a"), config, rng_seed=0)
        swarm = join_swarm(swarm, node("b"), token, config)
        presented = token if token_ok else "wrong-code"
        joining = [node(i) for i in ("c", "a", "b", "d", "c", "e")]
        one_by_one = swarm
        for joiner in joining:
            one_by_one = join_swarm(one_by_one, joiner, presented, config)
        assert one_by_one.worker_ids == (("b", "c", "d", "e") if token_ok else ("b",))
        assert admit_workers(swarm, joining, presented, config) == one_by_one


class TestLayerTransferPlanning:
    def test_missing_layers_in_image_order(self):
        layers, bits = plan_layer_transfer(
            frozenset({"base", "code"}), frozenset({"code"}), IMAGE
        )
        assert layers == ("base", "app.rw")
        assert bits == 1_200_000

    def test_worker_with_everything_needs_nothing(self):
        layers, bits = plan_layer_transfer(
            frozenset({"base", "code"}), frozenset({"base", "code", "app.rw"}), IMAGE
        )
        assert layers == ()
        assert bits == 0

    def test_leader_missing_read_only_layer(self):
        with pytest.raises(LeaderIncompleteError):
            plan_layer_transfer(frozenset({"base"}), frozenset(), IMAGE)

    def test_exhaustive_inventories_match_brute_force(self):
        # A 10-layer image: every one of the 2^10 worker inventories.
        layers = tuple(Layer(f"l{i}", 2**i, READ_ONLY) for i in range(9))
        image = ContainerImage("big", layers, Layer("rw", 2**9, READ_WRITE))
        all_ids = [layer.layer_id for layer in image.all_layers()]
        leader = frozenset(layer.layer_id for layer in layers)
        sizes = {layer.layer_id: layer.size_bits for layer in image.all_layers()}
        for mask in itertools.product((False, True), repeat=10):
            inventory = frozenset(lid for lid, keep in zip(all_ids, mask) if keep)
            got_ids, got_bits = plan_layer_transfer(leader, inventory, image)
            want = layer_difference(all_ids, inventory)
            assert got_ids == want
            assert got_bits == sum(sizes[lid] for lid in want)


class TestDeployService:
    def roster(self):
        return {
            "a": node("a", stored=("base", "code")),
            "b": node("b", stored=("base",)),
            "c": node("c", stored=("base", "code", "app.rw")),
        }

    def swarm(self):
        return Swarm("a", ("b", "c"))

    def test_per_member_plans(self):
        plans = deploy_service(self.swarm(), SPEC, self.roster(), IMAGES)
        assert plans[0] == ("a", (), 0)
        assert plans[1] == ("b", ("code", "app.rw"), 700_000)
        assert plans[2] == ("c", (), 0)

    def test_cpu_budget_enforced(self):
        roster = self.roster()
        roster["b"] = node("b", stored=("base",), cpu=0.3)
        with pytest.raises(ResourceExceededError) as err:
            deploy_service(self.swarm(), SPEC, roster, IMAGES)
        assert err.value.resource == "cpu"

    def test_memory_budget_enforced(self):
        roster = self.roster()
        roster["c"] = node("c", stored=("base", "code"), memory=10)
        with pytest.raises(ResourceExceededError) as err:
            deploy_service(self.swarm(), SPEC, roster, IMAGES)
        assert err.value.resource == "memory"

    def test_leader_must_hold_read_only_layers(self):
        roster = self.roster()
        roster["a"] = node("a", stored=("base",))
        with pytest.raises(LeaderIncompleteError):
            deploy_service(self.swarm(), SPEC, roster, IMAGES)


class TestTransitionTable:
    """handle_message is total: unlisted pairs change nothing and emit nothing."""

    TOKEN = derive_join_token(0)

    def messages(self):
        return [
            InitSwarm("n1"),
            InitSwarm("other"),
            JoinRequest("n1", self.TOKEN),
            JoinRequest("other", self.TOKEN),
            JoinRequest("other", "wrong"),
            JoinAccepted("n1"),
            JoinAccepted("other"),
            JoinRejected("n1", "r"),
            JoinRejected("other", "r"),
            DeployService(SPEC),
            DeployService(ServiceSpec("svc", "fn", "ghost", 0.4, 1)),
            LayerRequest("n1", ("base",)),
            LayerTransfer(("base",), 5),
        ]

    def context(self):
        return dict(node_id="n1", stored_layer_ids=frozenset(), images=IMAGES, token_seed=0)

    def test_total_over_all_phase_message_pairs(self):
        legal = set()
        for phase in PHASES:
            for msg in self.messages():
                state = NodeProtocolState(phase, self.TOKEN)
                new_state, emitted = handle_message(state, msg, **self.context())
                assert new_state.phase in PHASES
                if new_state != state or emitted:
                    legal.add((phase, type(msg).__name__, repr(msg)))
        changed_pairs = {(phase, variant) for phase, variant, _ in legal}
        assert changed_pairs == {
            ("idle", "InitSwarm"),
            ("idle", "JoinRequest"),
            ("leader_initialized", "JoinRequest"),
            ("joining", "JoinAccepted"),
            ("joining", "JoinRejected"),
            ("leader_initialized", "DeployService"),
            ("member", "DeployService"),
            ("member", "LayerTransfer"),
            ("transferring_layers", "LayerTransfer"),
        }

    def test_happy_path_worker(self):
        machine = SwarmNodeMachine("n1", frozenset(), IMAGES, token_seed=0)
        assert machine.handle(JoinRequest("n1", self.TOKEN)) == []
        assert machine.state.phase == "joining"
        assert machine.handle(JoinAccepted("n1")) == []
        assert machine.state.phase == "member"
        [request] = machine.handle(DeployService(SPEC))
        assert isinstance(request, LayerRequest)
        assert request.missing_layer_ids == ("base", "code", "app.rw")
        assert machine.state.phase == "transferring_layers"
        assert machine.handle(LayerTransfer(request.missing_layer_ids, 1_700_000)) == []
        assert machine.state.phase == "container_ready"
        # Liveness: the worker needed exactly 4 delivered messages.
        assert len(machine.trace) == 4

    def test_happy_path_leader(self):
        machine = SwarmNodeMachine("n1", frozenset({"base", "code"}), IMAGES, token_seed=0)
        assert machine.handle(InitSwarm("n1")) == []
        assert machine.state.held_token == self.TOKEN
        accepted = machine.handle(JoinRequest("n2", self.TOKEN))
        assert accepted == [JoinAccepted("n2")]
        rejected = machine.handle(JoinRequest("n3", "bad-code"))
        assert rejected == [JoinRejected("n3", "invalid join token")]
        assert machine.handle(DeployService(SPEC)) == []
        assert machine.state.phase == "container_ready"
        assert len(machine.trace) == 4

    def test_wrong_token_worker_ends_rejected(self):
        machine = SwarmNodeMachine("n1", frozenset(), IMAGES, token_seed=0)
        machine.handle(JoinRequest("n1", "bad-code"))
        machine.handle(JoinRejected("n1", "invalid join token"))
        assert machine.state.phase == "rejected"


class TestFuzzedSchedules:
    def test_invariants_over_reordered_duplicated_traffic(self):
        rng = random.Random(0xF0221)
        for _ in range(300):
            check_invariants(run_fuzz_trace(rng))

    def test_clean_schedule_converges_to_container_ready(self):
        rng = random.Random(3)
        for _ in range(50):
            outcome = run_fuzz_trace(rng)
            for node_id, machine in outcome.machines.items():
                if node_id in outcome.wrong_token_workers:
                    continue
                # Even under reordering, anyone who reached container_ready
                # needed at most 4 deliveries that changed its state.
                transitions = [e for e in machine.trace if e.old_phase != e.new_phase]
                assert len(transitions) <= 4
