"""Block-layer bookkeeping pruning on cgroup removal.

``BlockLayer.observe_tree`` registers a :meth:`CgroupTree.add_remove_hook`
callback so per-cgroup accounting dicts (``completed_by_cgroup``,
``bytes_by_cgroup``, ``cgroup_latency``) never accumulate entries for
removed cgroups over a long-running machine: completion/byte counters fold
into the parent (mirroring rstat), latency windows are simply dropped.
"""

import numpy as np

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.sim import Simulator

SPEC = DeviceSpec(
    name="quiet",
    parallelism=8,
    srv_rand_read=100e-6,
    srv_seq_read=90e-6,
    srv_rand_write=120e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
)


def make_stack():
    sim = Simulator()
    tree = CgroupTree()
    device = Device(sim, SPEC, np.random.default_rng(0))
    layer = BlockLayer(sim, device, NoopController()).observe_tree(tree)
    return sim, tree, layer


class TestPruneOnRemoval:
    def test_counters_fold_into_parent(self):
        sim, tree, layer = make_stack()
        layer.track_cgroup_latency("workload.slice/job")
        tree.create("workload.slice")
        child = tree.create("workload.slice/job")
        for i in range(3):
            layer.submit(Bio(IOOp.READ, 4096, 8 * i, child))
        sim.run(until=1.0)
        assert layer.completed_by_cgroup["workload.slice/job"] == 3
        assert layer.bytes_by_cgroup["workload.slice/job"] == 3 * 4096
        assert "workload.slice/job" in layer.cgroup_latency

        tree.remove("workload.slice/job")

        assert "workload.slice/job" not in layer.completed_by_cgroup
        assert "workload.slice/job" not in layer.bytes_by_cgroup
        assert "workload.slice/job" not in layer.cgroup_latency
        # History survives on the parent, rstat-style.
        assert layer.completed_by_cgroup["workload.slice"] == 3
        assert layer.bytes_by_cgroup["workload.slice"] == 3 * 4096

    def test_fold_accumulates_onto_parent_counts(self):
        sim, tree, layer = make_stack()
        layer.track_cgroup_latency("workload.slice")
        parent = tree.create("workload.slice")
        child = tree.create("workload.slice/job")
        layer.submit(Bio(IOOp.READ, 4096, 8, parent))
        layer.submit(Bio(IOOp.WRITE, 8192, 16, child))
        sim.run(until=1.0)

        tree.remove("workload.slice/job")

        assert layer.completed_by_cgroup["workload.slice"] == 2
        assert layer.bytes_by_cgroup["workload.slice"] == 4096 + 8192
        # The parent's own latency window is untouched by the fold.
        assert "workload.slice" in layer.cgroup_latency

    def test_removing_idle_cgroup_is_a_noop(self):
        sim, tree, layer = make_stack()
        tree.create("idle")
        tree.remove("idle")
        assert layer.completed_by_cgroup == {}
        assert layer.bytes_by_cgroup == {}
        assert layer.cgroup_latency == {}

    def test_cascaded_removal_reaches_grandparent(self):
        sim, tree, layer = make_stack()
        tree.create("a")
        tree.create("a/b")
        grandchild = tree.create("a/b/c")
        layer.submit(Bio(IOOp.READ, 4096, 8, grandchild))
        sim.run(until=1.0)

        tree.remove("a/b/c")
        assert layer.completed_by_cgroup["a/b"] == 1
        tree.remove("a/b")
        assert layer.completed_by_cgroup["a"] == 1
        assert "a/b" not in layer.completed_by_cgroup

    def test_every_observing_layer_prunes(self):
        sim = Simulator()
        tree = CgroupTree()
        layers = []
        for index in range(2):
            device = Device(
                sim, SPEC, np.random.default_rng(index), devno=f"8:{16 * index}"
            )
            layers.append(
                BlockLayer(sim, device, NoopController()).observe_tree(tree)
            )
        tree.create("p")
        child = tree.create("p/c")
        layers[0].submit(Bio(IOOp.READ, 4096, 8, child))
        layers[1].submit(Bio(IOOp.WRITE, 8192, 8, child))
        sim.run(until=1.0)

        tree.remove("p/c")

        assert layers[0].completed_by_cgroup == {"p": 1}
        assert layers[0].bytes_by_cgroup == {"p": 4096}
        assert layers[1].completed_by_cgroup == {"p": 1}
        assert layers[1].bytes_by_cgroup == {"p": 8192}
