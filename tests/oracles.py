"""Independent reference computations the test suite checks against.

Everything here is deliberately written from first principles, in a
different shape than the library code, so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

from fractions import Fraction


def fair_share_completion_times(sizes_bits, capacity_bps):
    """Completion times of fluid flows sharing one channel, max-min fair.

    Direct formula: with sizes sorted ascending s_1 <= ... <= s_k, the
    i-th finisher completes at (s_1 + ... + s_i + (k - i) * s_i) / C,
    because everyone still alive has moved exactly s_i bits by then.
    """
    k = len(sizes_bits)
    order = sorted(range(k), key=lambda idx: sizes_bits[idx])
    completions = [0.0] * k
    prefix = 0.0
    for rank, idx in enumerate(order, start=1):
        size = sizes_bits[idx]
        prefix += size
        completions[idx] = (prefix + (k - rank) * size) / capacity_bps
    return completions


def layer_difference(image_layer_ids, worker_layer_ids):
    """Image layers missing from a worker, in image order (brute force)."""
    worker = set(worker_layer_ids)
    return tuple(layer_id for layer_id in image_layer_ids if layer_id not in worker)


def quota_shares(total, weights):
    """Exact proportional quotas as fractions, for checking integer splits."""
    denom = sum(Fraction(w) for w in weights)
    if denom == 0:
        return [Fraction(0)] * len(weights)
    return [Fraction(w) * total / denom for w in weights]


def check_largest_remainder(total, weights, shares):
    """Assert ``shares`` is the largest-remainder rounding of the quotas.

    Requirements: integers summing to ``total``, each within one of its
    exact quota, and the units going to the largest remainders with ties
    broken toward the lowest index.
    """
    assert all(isinstance(s, int) for s in shares)
    assert sum(shares) == total
    quotas = quota_shares(total, weights)
    floors = [int(q) for q in quotas]
    leftover = total - sum(floors)
    bumped = [i for i in range(len(shares)) if shares[i] == floors[i] + 1]
    kept = [i for i in range(len(shares)) if shares[i] == floors[i]]
    assert len(bumped) + len(kept) == len(shares), "share outside floor/floor+1"
    assert len(bumped) == leftover
    # Every bumped index must have a remainder no smaller than any kept
    # index's, and on exact ties the bumped one must have the lower index.
    for b in bumped:
        for k in kept:
            rb = quotas[b] - floors[b]
            rk = quotas[k] - floors[k]
            assert rb > rk or (rb == rk and b < k), (
                f"unit went to index {b} over better-entitled {k}"
            )


def strict_barrier_totals(
    transfer_bits_by_node,
    startup_by_node,
    internode_bps,
    chunk_sizes_bits,
    source_bps,
    frames_by_node,
    cost_wu,
    rate_by_node,
    output_bits_by_node,
    server_bps,
    ignore_return,
):
    """Whole-scenario delay components computed in one flat pass.

    A from-scratch restatement of the phase model used to cross-check
    the library: static equal shares for layer pulls, max-min fair
    delivery, parallel computation, parallel result upload.
    """
    pulling = [n for n, bits in transfer_bits_by_node.items() if bits > 0]
    t_ce = 0.0
    for node, bits in transfer_bits_by_node.items():
        t = startup_by_node[node]
        if bits > 0:
            t += bits * len(pulling) / internode_bps
        t_ce = max(t_ce, t)
    arrivals = fair_share_completion_times(chunk_sizes_bits, source_bps)
    t_d = max(arrivals, default=0.0)
    t_c = max(
        (frames_by_node[n] * cost_wu / rate_by_node[n] for n in frames_by_node),
        default=0.0,
    )
    if ignore_return:
        t_r = 0.0
    else:
        t_r = max(
            (bits / server_bps for bits in output_bits_by_node.values() if bits > 0),
            default=0.0,
        )
    return t_ce, t_d, t_c, t_r


def overlap_makespan(
    transfer_bits_by_node,
    startup_by_node,
    internode_bps,
    chunk_sizes_bits,
    chunk_receivers,
    source_bps,
    frames_by_node,
    cost_wu,
    rate_by_node,
    output_bits_by_node,
    server_bps,
    ignore_return,
):
    """Total time when every node runs its own phases back to back.

    Delivery starts at t=0, alongside the layer pulls. A node computes
    once its container is up and its last chunk (``chunk_receivers[j]``
    names the nodes chunk j reaches) has landed, then uploads at once:
    it finishes at ``max(ready, last arrival) + compute + return``. The
    makespan is the latest finish or ready time of any node.
    """
    pulling = sum(1 for bits in transfer_bits_by_node.values() if bits > 0)
    last_chunk = {}
    arrivals = fair_share_completion_times(chunk_sizes_bits, source_bps)
    for when, receivers in zip(arrivals, chunk_receivers):
        for node in receivers:
            last_chunk[node] = max(last_chunk.get(node, 0.0), when)
    makespan = 0.0
    for node, bits in transfer_bits_by_node.items():
        ready = startup_by_node[node]
        if bits > 0:
            ready += bits * pulling / internode_bps
        finish = max(ready, last_chunk.get(node, 0.0))
        finish += frames_by_node.get(node, 0) * cost_wu / rate_by_node[node]
        output_bits = output_bits_by_node.get(node, 0.0)
        if not ignore_return and output_bits > 0:
            finish += output_bits / server_bps
        makespan = max(makespan, ready, finish)
    return makespan
