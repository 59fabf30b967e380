"""Cgroup tree with weights and IO statistics.

Mirrors the pieces of cgroup v2 that IO controllers consume: a rooted tree
of named groups, a per-group ``weight`` in [1, 10000] (default 100)
interpreted proportionally among siblings, and per-group cumulative IO
accounting.  Controllers attach their own per-group state via
:attr:`Cgroup.controller_data`, the moral equivalent of the kernel's
per-policy ``blkg`` data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

MIN_WEIGHT = 1
MAX_WEIGHT = 10000
DEFAULT_WEIGHT = 100


class CgroupError(ValueError):
    """Raised for invalid cgroup operations (bad weight, duplicate child...)."""


#: Device id used when IO is accounted without naming a device (direct
#: ``stats.account(...)`` calls outside any block layer).  Mirrors the
#: kernel's 0:0 pseudo-device.
UNATTRIBUTED_DEV = "0:0"


@dataclass
class IOStats:
    """One device's cumulative IO accounting for one cgroup.

    ``rbytes``/``wbytes``/``rios``/``wios`` count at submission, as the
    kernel does (``blk_cgroup_bio_start``).  ``dbytes``/``dios`` exist for
    io.stat format parity (the simulation issues no discards).
    ``wait_total`` accumulates, at completion, the wall **seconds** each bio
    spent above the device (throttling + issue-path CPU); the io.stat
    surface reports it in microseconds via :attr:`wait_usec` — the single
    place that conversion happens.  ``errors`` counts bios that completed
    with a terminal non-OK status and ``requeues`` block-layer retry
    requeues (docs/FAULTS.md); both are filled in by the block layer's
    completion path.
    """

    rbytes: int = 0
    wbytes: int = 0
    rios: int = 0
    wios: int = 0
    dbytes: int = 0
    dios: int = 0
    wait_total: float = 0.0
    errors: int = 0
    requeues: int = 0

    def account(self, is_write: bool, nbytes: int) -> None:
        if is_write:
            self.wbytes += nbytes
            self.wios += 1
        else:
            self.rbytes += nbytes
            self.rios += 1

    @property
    def wait_usec(self) -> float:
        """``wait_total`` (seconds) in io.stat's microsecond unit."""
        return self.wait_total * 1e6

    @property
    def total_bytes(self) -> int:
        return self.rbytes + self.wbytes

    @property
    def total_ios(self) -> int:
        return self.rios + self.wios


class CgroupIOStats:
    """Per-device IO accounting for one cgroup (``Cgroup.stats``).

    Holds one :class:`IOStats` record per device id (``maj:min`` string),
    matching the kernel where ``io.stat`` reports one line per device.  The
    machine-wide aggregates the old single-device ``IOStats`` surfaced
    (``rbytes``, ``wait_total``, ``total_bytes``, ...) remain available as
    read-only properties summing over devices, so existing callers keep
    working unchanged.
    """

    __slots__ = ("per_device",)

    def __init__(self) -> None:
        self.per_device: Dict[str, IOStats] = {}

    def device(self, dev: str) -> IOStats:
        """The record for one device id (created on first use)."""
        stats = self.per_device.get(dev)
        if stats is None:
            stats = IOStats()
            self.per_device[dev] = stats
        return stats

    def devices(self) -> Iterator[tuple]:
        """Iterate ``(dev_id, IOStats)`` pairs."""
        return iter(self.per_device.items())

    def account(self, is_write: bool, nbytes: int, dev: str = UNATTRIBUTED_DEV) -> None:
        self.device(dev).account(is_write, nbytes)

    # -- machine-wide aggregates (the legacy single-device surface) -------

    def _sum(self, attr: str):
        return sum(getattr(stats, attr) for stats in self.per_device.values())

    @property
    def rbytes(self) -> int:
        return self._sum("rbytes")

    @property
    def wbytes(self) -> int:
        return self._sum("wbytes")

    @property
    def rios(self) -> int:
        return self._sum("rios")

    @property
    def wios(self) -> int:
        return self._sum("wios")

    @property
    def dbytes(self) -> int:
        return self._sum("dbytes")

    @property
    def dios(self) -> int:
        return self._sum("dios")

    @property
    def wait_total(self) -> float:
        return self._sum("wait_total")

    @property
    def wait_usec(self) -> float:
        return self._sum("wait_usec")

    @property
    def errors(self) -> int:
        return self._sum("errors")

    @property
    def requeues(self) -> int:
        return self._sum("requeues")

    @property
    def total_bytes(self) -> int:
        return self.rbytes + self.wbytes

    @property
    def total_ios(self) -> int:
        return self.rios + self.wios


class Cgroup:
    """One node in the hierarchy.

    Use :meth:`CgroupTree.create` rather than instantiating directly so the
    tree index stays consistent.
    """

    def __init__(self, name: str, parent: Optional["Cgroup"], weight: int = DEFAULT_WEIGHT):
        if parent is not None and not name:
            raise CgroupError("non-root cgroup needs a name")
        if "/" in name:
            raise CgroupError("cgroup name must not contain '/'")
        self.name = name
        self.parent = parent
        # ``name`` and ``parent`` never change after construction, so the
        # path is joined once here rather than on every lookup.
        if parent is None:
            self._path = ""
        elif parent.parent is None:
            self._path = name
        else:
            self._path = f"{parent._path}/{name}"
        self.children: Dict[str, Cgroup] = {}
        self._weight = DEFAULT_WEIGHT
        self.weight = weight
        self.stats = CgroupIOStats()
        # Per-controller private state, keyed by controller name.
        self.controller_data: Dict[str, Any] = {}
        # Sequential-detection state: sector expected next, per device id.
        self.last_end_sector: Dict[str, int] = {}

    # -- weight -----------------------------------------------------------

    @property
    def weight(self) -> int:
        return self._weight

    @weight.setter
    def weight(self, value: int) -> None:
        if not (MIN_WEIGHT <= value <= MAX_WEIGHT):
            raise CgroupError(
                f"weight {value} out of range [{MIN_WEIGHT}, {MAX_WEIGHT}]"
            )
        self._weight = int(value)

    # -- topology ---------------------------------------------------------

    @property
    def path(self) -> str:
        """Slash-joined path from the root, '' for the root itself."""
        return self._path

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def ancestors(self, include_self: bool = False) -> Iterator["Cgroup"]:
        """Walk towards the root (root last)."""
        node = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    def walk(self) -> Iterator["Cgroup"]:
        """Depth-first pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cgroup({self.path or '/'}, weight={self.weight})"


class CgroupTree:
    """The hierarchy: a root plus a path index."""

    def __init__(self) -> None:
        self.root = Cgroup("", None)
        self._index: Dict[str, Cgroup] = {"": self.root}
        # Observers notified just before a cgroup is removed; the io.stat
        # collector uses this to fold the dying group's counters into its
        # parent (kernel rstat flush-on-release semantics).
        self._remove_hooks: List[Any] = []

    def add_remove_hook(self, hook: Any) -> None:
        """Register ``hook(cgroup)`` to run before each removal."""
        self._remove_hooks.append(hook)

    def create(self, path: str, weight: int = DEFAULT_WEIGHT) -> Cgroup:
        """Create a cgroup at ``path``, creating intermediate groups as needed.

        Intermediate groups get the default weight; the leaf gets ``weight``.
        Creating an existing path is an error (use :meth:`lookup`).
        """
        if not path:
            raise CgroupError("cannot re-create the root")
        if path in self._index:
            raise CgroupError(f"cgroup {path!r} already exists")
        parent = self.root
        parts = path.split("/")
        for depth, part in enumerate(parts):
            prefix = "/".join(parts[: depth + 1])
            node = self._index.get(prefix)
            if node is None:
                is_leaf = depth == len(parts) - 1
                node = Cgroup(part, parent, weight if is_leaf else DEFAULT_WEIGHT)
                parent.children[part] = node
                self._index[prefix] = node
            parent = node
        return parent

    def lookup(self, path: str) -> Cgroup:
        """Return the cgroup at ``path`` (raises :class:`CgroupError` if absent)."""
        try:
            return self._index[path]
        except KeyError:
            raise CgroupError(f"no cgroup at {path!r}") from None

    def get_or_create(self, path: str, weight: int = DEFAULT_WEIGHT) -> Cgroup:
        if path in self._index:
            return self._index[path]
        return self.create(path, weight)

    def remove(self, path: str) -> None:
        """Remove a leaf cgroup (children must be removed first)."""
        node = self.lookup(path)
        if node.parent is None:  # is_root, spelled so the check narrows
            raise CgroupError("cannot remove the root")
        if node.children:
            raise CgroupError(f"cgroup {path!r} still has children")
        for hook in self._remove_hooks:
            hook(node)
        del node.parent.children[node.name]
        del self._index[path]

    def __contains__(self, path: str) -> bool:
        return path in self._index

    def __iter__(self) -> Iterator[Cgroup]:
        return self.root.walk()

    def __len__(self) -> int:
        return len(self._index)


def make_meta_hierarchy(
    tree: Optional[CgroupTree] = None,
    workloads: Optional[Dict[str, int]] = None,
) -> CgroupTree:
    """Build the production hierarchy from the paper's Figure 1.

    ``system`` (auxiliary services like chef), ``hostcritical`` (sshd, the
    container agent) and ``workload`` (application containers) slices, with
    ``workloads`` mapping child-container name -> weight under the workload
    slice.
    """
    tree = tree or CgroupTree()
    tree.get_or_create("system.slice", weight=25)
    tree.get_or_create("hostcritical.slice", weight=100)
    tree.get_or_create("workload.slice", weight=500)
    for name, weight in (workloads or {}).items():
        tree.get_or_create(f"workload.slice/{name}", weight=weight)
    return tree
