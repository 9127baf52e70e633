"""The private-L2 sharer directory."""

from hypothesis import given, settings, strategies as st

from repro.cache.directory import Directory

# (op, line, node): a small line space so sequences revisit lines, and
# node ids spanning a 64-core mesh (the top bits of the mask).
_OPS = st.lists(st.tuples(st.sampled_from(("add", "remove", "find")),
                          st.integers(0, 7), st.integers(0, 63)),
                max_size=120)


class TestDirectory:
    def test_empty(self):
        d = Directory()
        assert d.find_sharer(10, requester=0) is None
        assert d.tracked_lines == 0

    def test_add_and_find(self):
        d = Directory()
        d.add_sharer(10, 3)
        assert d.find_sharer(10, requester=0) == 3

    def test_requester_excluded(self):
        d = Directory()
        d.add_sharer(10, 3)
        assert d.find_sharer(10, requester=3) is None

    def test_deterministic_choice(self):
        d = Directory()
        for node in (9, 2, 7):
            d.add_sharer(10, node)
        assert d.find_sharer(10, requester=0) == 2

    def test_remove(self):
        d = Directory()
        d.add_sharer(10, 3)
        d.add_sharer(10, 5)
        d.remove_sharer(10, 3)
        assert d.sharers_of(10) == {5}
        d.remove_sharer(10, 5)
        assert d.tracked_lines == 0

    def test_remove_absent_is_noop(self):
        d = Directory()
        d.remove_sharer(99, 1)
        assert d.tracked_lines == 0

    def test_sharers_of_copy(self):
        d = Directory()
        d.add_sharer(1, 2)
        s = d.sharers_of(1)
        s.add(99)
        assert d.sharers_of(1) == {2}


class TestBitmaskModel:
    @given(_OPS)
    @settings(max_examples=60)
    def test_matches_set_of_nodes_model(self, ops):
        # The bitmask directory against the plain line -> set-of-nodes
        # model it replaced: same answers, same tracked lines.
        d = Directory()
        model = {}
        for op, line, node in ops:
            if op == "add":
                d.add_sharer(line, node)
                model.setdefault(line, set()).add(node)
            elif op == "remove":
                d.remove_sharer(line, node)
                if line in model:
                    model[line].discard(node)
                    if not model[line]:
                        del model[line]
            else:
                others = model.get(line, set()) - {node}
                expected = min(others) if others else None
                assert d.find_sharer(line, node) == expected
            assert d.sharers_of(line) == model.get(line, set())
            assert d.tracked_lines == len(model)
        for line in range(8):
            assert d.sharers_of(line) == model.get(line, set())
