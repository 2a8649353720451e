"""An addressable binary min-heap.

GreedyAbs/GreedyRel repeatedly extract the coefficient with the minimum
potential error and *update the priorities* of its ancestors and
descendants in place (Section 5.1).  ``heapq`` cannot reprioritize, so we
maintain an explicit position map supporting ``update`` in ``O(log n)``.
The scalar reference engines (:mod:`repro.algos.reference`) are its only
users; the vectorized engines run a lazy ``heapq`` queue instead.

Ties are broken on the item id, which keeps the greedy algorithms fully
deterministic (important when comparing distributed against centralized
runs coefficient-by-coefficient).
"""

from __future__ import annotations

__all__ = ["AddressableMinHeap"]


class AddressableMinHeap:
    """Min-heap over ``(priority, item_id)`` with in-place reprioritization."""

    def __init__(self) -> None:
        self._entries: list[tuple[float, int]] = []
        self._positions: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._positions

    def push(self, item_id: int, priority: float) -> None:
        """Insert a new item (ValueError if it is already present)."""
        if item_id in self._positions:
            raise ValueError(f"item {item_id} already in heap")
        self._entries.append((priority, item_id))
        self._positions[item_id] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def pop(self) -> tuple[int, float]:
        """Remove and return ``(item_id, priority)`` of the minimum."""
        if not self._entries:
            raise IndexError("pop from empty heap")
        priority, item_id = self._entries[0]
        del self._positions[item_id]
        last = self._entries.pop()
        if self._entries:
            self._entries[0] = last
            self._sift_down(0)
        return item_id, priority

    def update(self, item_id: int, priority: float) -> None:
        """Change the priority of ``item_id`` (KeyError if absent)."""
        index = self._positions[item_id]
        old_priority = self._entries[index][0]
        if priority == old_priority:
            return
        self._entries[index] = (priority, item_id)
        if (priority, item_id) < (old_priority, item_id):
            self._sift_up(index)
        else:
            self._sift_down(index)

    def _sift_up(self, index: int) -> None:
        entry = self._entries[index]
        while index > 0:
            parent = (index - 1) // 2
            parent_entry = self._entries[parent]
            if entry >= parent_entry:
                break
            self._entries[index] = parent_entry
            self._positions[parent_entry[1]] = index
            index = parent
        self._entries[index] = entry
        self._positions[entry[1]] = index

    def _sift_down(self, index: int) -> None:
        entry = self._entries[index]
        size = len(self._entries)
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._entries[right] < self._entries[child]:
                child = right
            if self._entries[child] >= entry:
                break
            self._entries[index] = self._entries[child]
            self._positions[self._entries[index][1]] = index
            index = child
        self._entries[index] = entry
        self._positions[entry[1]] = index
