"""Process-tree metadata: the client-facing inventory of Fig. 1.

The client's Processes-and-threads view (Fig. 2) needs the shape of the
whole debugged *program* — which processes exist, who forked whom, which
generation each belongs to.  Individual :class:`~repro.server.
sessionstate.SessionState` objects carry per-process truth; this module
aggregates the client's copies into one tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..util import locks


@dataclass
class ProcessNode:
    pid: int
    parent_pid: int
    program: Optional[str] = None
    fork_generation: int = 0
    alive: bool = True
    children: List["ProcessNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "parent_pid": self.parent_pid,
            "program": self.program,
            "fork_generation": self.fork_generation,
            "alive": self.alive,
            "children": [c.to_dict() for c in self.children],
        }


class ProcessTree:
    """Client-side aggregate over all attached sessions."""

    def __init__(self) -> None:
        self._lock = locks.Lock()
        self._nodes: Dict[int, ProcessNode] = {}

    def observe(self, pid: int, parent_pid: int,
                program: Optional[str] = None,
                fork_generation: int = 0) -> ProcessNode:
        """Record (or refresh) one process."""
        with self._lock:
            node = self._nodes.get(pid)
            if node is None:
                node = ProcessNode(pid=pid, parent_pid=parent_pid,
                                   program=program,
                                   fork_generation=fork_generation)
                self._nodes[pid] = node
            else:
                node.parent_pid = parent_pid
                node.alive = True
                if program is not None:
                    node.program = program
                node.fork_generation = fork_generation
            return node

    def mark_exited(self, pid: int) -> None:
        with self._lock:
            node = self._nodes.get(pid)
            if node is not None:
                node.alive = False

    def pids(self) -> List[int]:
        """Every pid ever observed, dead or alive (the timeline's
        expected-process set)."""
        with self._lock:
            return sorted(self._nodes)

    def roots(self) -> List[ProcessNode]:
        """Assemble the forest: children nested under known parents."""
        with self._lock:
            nodes = {pid: ProcessNode(pid=n.pid, parent_pid=n.parent_pid,
                                      program=n.program,
                                      fork_generation=n.fork_generation,
                                      alive=n.alive)
                     for pid, n in self._nodes.items()}
        roots = []
        for node in nodes.values():
            parent = nodes.get(node.parent_pid)
            if parent is not None and parent is not node:
                parent.children.append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: n.pid)
        return sorted(roots, key=lambda n: n.pid)

    def render(self) -> str:
        """Indentation-based text rendering of the process tree."""
        lines: List[str] = []

        def walk(node: ProcessNode, depth: int) -> None:
            status = "" if node.alive else " (exited)"
            program = f" [{node.program}]" if node.program else ""
            lines.append(f"{'  ' * depth}process {node.pid}"
                         f"{program}{status}")
            for child in node.children:
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)
