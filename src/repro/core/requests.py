"""Simulation-side request state.

A :class:`SimRequest` tracks one user read through the library: arrival,
target platter/track(s), and completion. When the target platter is
unavailable (Section 7.6), the request *fans out* into sub-reads of the
matching tracks on the other platters of its platter-set (cross-platter
network coding recovery) and completes when the last sub-read finishes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..workload.traces import ReadRequest

#: ``dataclass(slots=True)`` needs Python 3.10; on 3.9 requests keep a
#: ``__dict__`` and behave the same.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class SimRequest:
    """One read request inside the simulator.

    Slotted where the interpreter allows it: a twin keeps every request
    it has seen, so dropping the per-instance ``__dict__`` (and sharing
    one empty ``children`` tuple until a fan-out) is most of a request's
    memory.
    """

    request_id: int
    arrival: float
    platter_id: str
    size_bytes: int
    num_tracks: int = 1
    track_start: int = 0  # first track of the file on its platter
    measured: bool = True  # inside the measured interval (§7.2)?
    completion: Optional[float] = None
    # Left out of ``==``: comparing ``children`` already covers the tree,
    # and comparing the back-link too would recurse parent -> children.
    parent: Optional["SimRequest"] = field(default=None, compare=False)
    pending_subreads: int = 0
    children: Sequence["SimRequest"] = ()
    # Transient-fault lifecycle bookkeeping (chaos harness):
    retries: int = 0  # read-retry ladder rungs taken while serving
    metadata_attempts: int = 0  # arrivals bounced off a metadata outage
    degraded: bool = False  # touched any retry / recovery / outage path
    is_recovery: bool = False  # a cross-platter NC recovery sub-read
    # Multi-tenant QoS tags ("" / None when tenancy is not in play):
    tenant: str = ""
    slo_class: str = ""
    deadline: Optional[float] = None  # absolute completion deadline

    @classmethod
    def from_trace(
        cls, request_id: int, request: ReadRequest, measured: bool
    ) -> "SimRequest":
        if request.platter_id is None:
            raise ValueError(f"request {request.file_id} has no platter placement")
        return cls(
            request_id=request_id,
            arrival=request.time,
            platter_id=request.platter_id,
            size_bytes=request.size_bytes,
            num_tracks=max(1, request.num_tracks),
            measured=measured,
            tenant=request.tenant,
        )

    @property
    def done(self) -> bool:
        return self.completion is not None

    @property
    def completion_time(self) -> float:
        """Delay from arrival to last byte out of the library (§7.2)."""
        if self.completion is None:
            raise ValueError(f"request {self.request_id} not complete")
        return self.completion - self.arrival

    def complete(self, now: float) -> Optional["SimRequest"]:
        """Mark done; propagate completion up the sub-read hierarchy.

        Sub-reads can nest (a sharded file whose shard needed cross-platter
        recovery is parent -> shard -> recovery reads), so completion walks
        upward: each finished level decrements its parent. Returns the
        topmost request this completion finished, or None.
        """
        self.completion = now
        finished: Optional[SimRequest] = None
        node = self.parent
        while node is not None:
            node.pending_subreads -= 1
            if node.pending_subreads > 0 or node.completion is not None:
                break
            node.completion = now
            finished = node
            node = node.parent
        return finished

    def mark_degraded(self) -> None:
        """Flag this request (and its ancestors) as served in degraded mode.

        Degraded-mode tail completion (resilience metrics) is computed over
        top-level requests carrying this flag."""
        node: Optional[SimRequest] = self
        while node is not None:
            node.degraded = True
            node = node.parent

    def fan_out(self, recovery_platters: List[str], request_ids: List[int]) -> List["SimRequest"]:
        """Expand into cross-platter recovery sub-reads (one per platter).

        Each sub-read reads the matching tracks on one surviving platter of
        the platter-set; the parent completes when all do (the 16x read
        amplification of Figure 8).
        """
        if len(request_ids) != len(recovery_platters):
            raise ValueError("need one request id per recovery platter")
        subs = []
        for rid, platter in zip(request_ids, recovery_platters):
            sub = SimRequest(
                request_id=rid,
                arrival=self.arrival,
                platter_id=platter,
                size_bytes=self.size_bytes,
                num_tracks=self.num_tracks,
                measured=False,  # the parent carries the measurement
                parent=self,
                is_recovery=True,
                tenant=self.tenant,
                slo_class=self.slo_class,
                deadline=self.deadline,
            )
            subs.append(sub)
        self.pending_subreads = len(subs)
        self.children = subs
        return subs
