"""Unit tests for the addressable min-heap."""

import random

import pytest

from repro.algos.heap import AddressableMinHeap


class TestBasicOperations:
    def test_push_pop_orders_by_priority(self):
        heap = AddressableMinHeap()
        heap.push(10, 3.0)
        heap.push(20, 1.0)
        heap.push(30, 2.0)
        assert heap.pop() == (20, 1.0)
        assert heap.pop() == (30, 2.0)
        assert heap.pop() == (10, 3.0)

    def test_ties_break_on_item_id(self):
        heap = AddressableMinHeap()
        heap.push(5, 1.0)
        heap.push(3, 1.0)
        heap.push(4, 1.0)
        assert [heap.pop()[0] for _ in range(3)] == [3, 4, 5]

    def test_contains_and_len(self):
        heap = AddressableMinHeap()
        assert len(heap) == 0
        heap.push(7, 1.0)
        assert 7 in heap and 8 not in heap
        assert len(heap) == 1

    def test_empty_pop_raises(self):
        heap = AddressableMinHeap()
        with pytest.raises(IndexError):
            heap.pop()

    def test_duplicate_push_rejected(self):
        heap = AddressableMinHeap()
        heap.push(1, 1.0)
        with pytest.raises(ValueError):
            heap.push(1, 2.0)


class TestUpdates:
    def test_decrease_key_moves_to_front(self):
        heap = AddressableMinHeap()
        heap.push(1, 10.0)
        heap.push(2, 5.0)
        heap.update(1, 1.0)
        assert heap.pop() == (1, 1.0)

    def test_increase_key_moves_back(self):
        heap = AddressableMinHeap()
        heap.push(1, 1.0)
        heap.push(2, 5.0)
        heap.update(1, 10.0)
        assert heap.pop() == (2, 5.0)

    def test_update_missing_raises(self):
        heap = AddressableMinHeap()
        with pytest.raises(KeyError):
            heap.update(1, 1.0)


class TestRandomizedAgainstReference:
    def test_matches_sorting_reference(self):
        rng = random.Random(42)
        heap = AddressableMinHeap()
        reference: dict[int, float] = {}
        next_id = 0
        for _ in range(2000):
            op = rng.random()
            if op < 0.5 or not reference:
                priority = rng.uniform(0, 100)
                heap.push(next_id, priority)
                reference[next_id] = priority
                next_id += 1
            elif op < 0.75:
                item = rng.choice(list(reference))
                priority = rng.uniform(0, 100)
                heap.update(item, priority)
                reference[item] = priority
            else:
                item, priority = heap.pop()
                expected = min(reference.items(), key=lambda kv: (kv[1], kv[0]))
                assert (item, priority) == (expected[0], expected[1])
                del reference[item]
        while reference:
            item, priority = heap.pop()
            expected = min(reference.items(), key=lambda kv: (kv[1], kv[0]))
            assert (item, priority) == (expected[0], expected[1])
            del reference[item]
        assert len(heap) == 0
