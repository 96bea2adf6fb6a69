import itertools
import random

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
    ServiceSpec,
    SwarmNetworkConfig,
    TraceEvent,
    PHASES,
    deploy_service,
    derive_join_token,
    handle_message,
    init_swarm,
    join_swarm,
    plan_layer_transfer,
)
from oracles import layer_difference
from swarm_fuzz import NodeStepper, check_invariants, run_fuzz_trace

IMAGE = ContainerImage(
    image_id="app",
    layers=(Layer("base", 1_000_000, READ_ONLY), Layer("code", 500_000, READ_ONLY)),
    rw_layer=Layer("app.rw", 200_000, READ_WRITE),
)
IMAGES = {"app": IMAGE}
IMAGE_LAYER_IDS = [layer.layer_id for layer in IMAGE.all_layers()]
SPEC = ServiceSpec("svc", "fn", "app", 0.4, 10**9)


def node(node_id, stored=()):
    return EdgeNode(node_id, 50.0, 0.5, 10**10, frozenset(stored))


class TestJoinToken:
    def test_deterministic_and_hex(self):
        token = derive_join_token(7)
        assert token == derive_join_token(7)
        assert len(token) == 24
        int(token, 16)

    def test_different_seeds_differ(self):
        assert derive_join_token(1) != derive_join_token(2)

    def test_every_integer_the_gate_accepts(self):
        seeds = (-1, 0, 1, 2**96, 10**5000, -10**5000)
        tokens = {derive_join_token(seed) for seed in seeds}
        assert len(tokens) == len(seeds)
        assert all(len(token) == 24 for token in tokens)


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
            LayerRequest("n1", ("base",)),
            LayerTransfer(("base",), 5),
        ]

    def context(self):
        missing = layer_difference(IMAGE_LAYER_IDS, frozenset())
        return dict(node_id="n1", missing_layer_ids=missing, join_token=self.TOKEN)

    def stepper(self, stored=frozenset()):
        return NodeStepper("n1", layer_difference(IMAGE_LAYER_IDS, stored), self.TOKEN)

    def test_total_over_all_phase_message_pairs(self):
        legal = set()
        for phase in PHASES:
            for msg in self.messages():
                new_phase, emitted = handle_message(phase, msg, **self.context())
                assert new_phase in PHASES
                if new_phase != phase or emitted:
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
        machine = self.stepper()
        assert machine.handle(JoinRequest("n1", self.TOKEN)) == []
        assert machine.state == "joining"
        assert machine.handle(JoinAccepted("n1")) == []
        assert machine.state == "member"
        [request] = machine.handle(DeployService(SPEC))
        assert isinstance(request, LayerRequest)
        assert request.missing_layer_ids == ("base", "code", "app.rw")
        assert machine.state == "transferring_layers"
        assert machine.handle(LayerTransfer(request.missing_layer_ids, 1_700_000)) == []
        assert machine.state == "container_ready"
        # Liveness: the worker needed exactly 4 delivered messages.
        assert len(machine.trace) == 4

    def test_happy_path_leader(self):
        machine = self.stepper(frozenset({"base", "code"}))
        assert machine.handle(InitSwarm("n1")) == []
        accepted = machine.handle(JoinRequest("n2", self.TOKEN))
        assert accepted == [JoinAccepted("n2")]
        rejected = machine.handle(JoinRequest("n3", "bad-code"))
        assert rejected == [JoinRejected("n3", "invalid join token")]
        assert machine.handle(DeployService(SPEC)) == []
        assert machine.state == "container_ready"
        assert len(machine.trace) == 4

    def test_wrong_token_worker_ends_rejected(self):
        machine = self.stepper()
        machine.handle(JoinRequest("n1", "bad-code"))
        machine.handle(JoinRejected("n1", "invalid join token"))
        assert machine.state == "rejected"


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
