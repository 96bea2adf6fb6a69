import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeswarm.model import (
    BITS_PER_MB,
    READ_ONLY,
    READ_WRITE,
    ContainerImage,
    EdgeNode,
    Layer,
    VideoTask,
    proportional_shares,
    split_task,
)
from edgeswarm.scenario import fig5_scenario, validate_scenario
from oracles import check_largest_remainder


def sample_task(frames=2220, bits=30_080_000):
    return VideoTask(
        task_id="task",
        duration_s=frames / 30.0,
        fps=30.0,
        width_px=1280,
        height_px=618,
        total_size_bits=bits,
        deadline_s=math.inf,
        function_id="fn",
    )


class TestVideoTask:
    def test_frame_count_rounds_duration_times_fps(self):
        task = sample_task()
        assert task.frame_count == 2220

    def test_calibrated_size(self):
        assert round(3.76 * BITS_PER_MB) == 30_080_000

    def test_make_task_allows_infinite_deadline(self):
        task = sample_task()
        assert task.deadline_s == math.inf
        scenario = fig5_scenario()
        scenario = dataclasses.replace(
            scenario, task=dataclasses.replace(scenario.task, deadline_s=math.inf)
        )
        assert validate_scenario(scenario) == []


def fraction_shares(total, weights):
    """Largest-remainder shares computed with exact rationals."""
    fracs = [Fraction(w) for w in weights]
    weight_sum = sum(fracs)
    quotas = [Fraction(total) * w / weight_sum for w in fracs]
    shares = [int(q) for q in quotas]
    leftover = total - sum(shares)
    for i in sorted(range(len(shares)), key=lambda i: (shares[i] - quotas[i], i))[:leftover]:
        shares[i] += 1
    return shares


class TestProportionalShares:
    def test_even_split(self):
        assert proportional_shares(10, [1, 1]) == [5, 5]

    def test_remainder_goes_to_lowest_index_on_tie(self):
        assert proportional_shares(11, [1, 1]) == [6, 5]
        assert proportional_shares(10, [1, 1, 1]) == [4, 3, 3]

    def test_weighted(self):
        assert proportional_shares(10, [3, 1]) == [8, 2]

    def test_zero_total(self):
        assert proportional_shares(0, [2, 5]) == [0, 0]

    @given(
        total=st.integers(min_value=0, max_value=10**6),
        weights=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_largest_remainder_oracle(self, total, weights):
        if sum(weights) == 0:
            weights = weights[:-1] + [1.0]
        shares = proportional_shares(total, weights)
        check_largest_remainder(total, weights, shares)

    @given(
        total=st.integers(min_value=0, max_value=10**12),
        weights=st.one_of(
            st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8),
            st.builds(
                lambda w, n: [w] * n,
                st.one_of(st.integers(min_value=1, max_value=10**6), st.floats(5e-324, 1e300)),
                st.integers(min_value=1, max_value=8),
            ),
            st.lists(
                st.one_of(
                    st.floats(min_value=0.0, max_value=1e300),
                    st.sampled_from([5e-324, 1e-310, 1e-300, 0.1, 1.0, 1e300]),
                ),
                min_size=1,
                max_size=8,
            ),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_fraction_restatement(self, total, weights):
        if not any(weights):
            weights = weights[:-1] + [1]
        assert proportional_shares(total, weights) == fraction_shares(total, weights)

    def test_exact_fraction_arithmetic_no_float_drift(self):
        # Weights whose float quotas would misround if done naively.
        weights = [0.1] * 3
        shares = proportional_shares(1000, weights)
        assert shares == [334, 333, 333]
        assert sum(Fraction(w) for w in weights) != Fraction(3, 10)


class TestSplitTask:
    def test_equal_split_halves_frames_and_bits(self):
        chunks = split_task(sample_task(), 2)
        assert [c.frame_count for c in chunks] == [1110, 1110]
        assert [c.size_bits for c in chunks] == [15_040_000, 15_040_000]

    def test_ranges_are_half_open_and_contiguous(self):
        chunks = split_task(sample_task(frames=7), 3)
        assert chunks[0].frame_range == (0, 3)
        assert chunks[1].frame_range == (3, 5)
        assert chunks[2].frame_range == (5, 7)

    def test_frames_and_bits_conserved(self):
        rng = random.Random(11)
        for _ in range(50):
            frames = rng.randrange(0, 5000)
            bits = rng.randrange(0, 10**8)
            n = rng.randint(1, 6)
            task = VideoTask(
                task_id="task",
                duration_s=frames / 30.0,
                fps=30.0,
                width_px=8,
                height_px=8,
                total_size_bits=bits,
                deadline_s=math.inf,
                function_id="fn",
            )
            chunks = split_task(task, n)
            assert sum(c.frame_count for c in chunks) == task.frame_count
            assert sum(c.size_bits for c in chunks) == bits
            assert all(c.index == i for i, c in enumerate(chunks))

    def test_equal_split_is_the_weighted_split_with_equal_weights(self):
        rng = random.Random(0xE9)
        for _ in range(100):
            frames, n = rng.randrange(0, 2000), rng.randint(1, 300)
            task = sample_task(frames=frames, bits=rng.randrange(0, 10**9))
            weighted = split_task(task, n, policy="weighted", weights=[1.0] * n)
            assert split_task(task, n) == weighted

    def test_weighted_split_follows_rates(self):
        chunks = split_task(sample_task(frames=300, bits=3000), 2, policy="weighted", weights=[2.0, 1.0])
        assert [c.frame_count for c in chunks] == [200, 100]
        assert [c.size_bits for c in chunks] == [2000, 1000]

    def test_zero_frame_task_splits_bits_by_weights(self):
        task = VideoTask(
            task_id="task",
            duration_s=0.0,
            fps=0.0,
            width_px=8,
            height_px=8,
            total_size_bits=900,
            deadline_s=math.inf,
            function_id="fn",
        )
        chunks = split_task(task, 3)
        assert [c.frame_count for c in chunks] == [0, 0, 0]
        assert [c.size_bits for c in chunks] == [300, 300, 300]


class TestImageAndNode:
    def image(self):
        return ContainerImage(
            image_id="app",
            layers=(Layer("base", 100, READ_ONLY), Layer("code", 50, READ_ONLY)),
            rw_layer=Layer("app.rw", 10, READ_WRITE),
        )

    def test_all_layers_puts_rw_last(self):
        image = self.image()
        assert [l.layer_id for l in image.all_layers()] == ["base", "code", "app.rw"]
        assert [l.layer_id for l in image.layers] == ["base", "code"]

    def test_holds_image_needs_only_read_only_layers(self):
        image = self.image()
        holder = EdgeNode("a", 10.0, 0.5, 10**9, frozenset({"base", "code"}))
        partial = EdgeNode("b", 10.0, 0.5, 10**9, frozenset({"base"}))
        assert holder.holds_image(image)
        assert not partial.holds_image(image)

    def test_effective_rate_applies_budget(self):
        node = EdgeNode("a", 95.36, 0.4, 10**9)
        assert node.effective_rate_wu_s == 95.36 * 0.4
        assert node.effective_rate_wu_s == pytest.approx(38.144)
