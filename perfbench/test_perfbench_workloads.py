"""Properties of the benchmark's input generators.

The benchmark compares runs across commits and seeds, so a workload must be a
pure function of its seed, and each workload must have the graph shape it
exists to exercise: cycles for dispute-cyclic, none for dispute-dag.
"""

from __future__ import annotations

import pytest

import workloads as W


def _has_cycle(ops: list[tuple]) -> bool:
    """Whether the address graph of the transfers has a directed cycle
    (a self-transfer counts), by Kahn's algorithm."""
    edges = {(op[1], op[2]) for op in ops if op[0] in (W.TRANSFER, W.RTRANSFER)}
    if any(src == dst for src, dst in edges):
        return True
    succ: dict[str, list[str]] = {}
    indegree: dict[str, int] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
        indegree.setdefault(src, 0)
        indegree[dst] = indegree.get(dst, 0) + 1
    ready = [node for node, d in indegree.items() if d == 0]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        for nxt in succ.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return done < len(indegree)


@pytest.mark.parametrize("name", sorted(W.SPECS))
def test_same_seed_gives_identical_ops(name):
    assert W.generate(name, 11).digest() == W.generate(name, 11).digest()


@pytest.mark.parametrize("name", sorted(W.SPECS))
def test_different_seed_gives_different_ops(name):
    assert W.generate(name, 11).digest() != W.generate(name, 12).digest()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dispute_dag_economy_has_no_cycles(seed):
    assert not _has_cycle(W.generate("dispute-dag", seed).setup)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dispute_cyclic_economy_has_cycles(seed):
    assert _has_cycle(W.generate("dispute-cyclic", seed).setup)


def test_cycle_detector_on_known_graphs():
    chain = [(W.TRANSFER, "a", "b", 1, 1), (W.RTRANSFER, "b", "c", 1, 1)]
    assert not _has_cycle(chain)
    assert _has_cycle(chain + [(W.TRANSFER, "c", "a", 1, 1)])
    assert _has_cycle([(W.TRANSFER, "a", "a", 1, 1)])
