"""Property tests: fork-handler registry ordering invariants."""

from hypothesis import given, strategies as st

from repro.forkhooks.registry import ForkHandlerRegistry

labels = st.lists(st.text(min_size=1, max_size=8), min_size=1,
                  max_size=10, unique=True)


class TestOrderingInvariants:
    @given(names=labels)
    def test_prepare_is_reverse_of_parent(self, names):
        registry = ForkHandlerRegistry()
        calls = []
        for name in names:
            registry.register(
                name,
                prepare=lambda n=name: calls.append(("prep", n)),
                parent=lambda n=name: calls.append(("par", n)))
        registry.run_prepare()
        prep_order = [n for kind, n in calls if kind == "prep"]
        calls.clear()
        registry.run_parent()
        parent_order = [n for kind, n in calls if kind == "par"]
        assert prep_order == list(reversed(parent_order))
        assert parent_order == names

    @given(names=labels)
    def test_child_matches_registration_order(self, names):
        registry = ForkHandlerRegistry()
        calls = []
        for name in names:
            registry.register(name,
                              child=lambda n=name: calls.append(n))
        registry.run_child()
        assert calls == names

    @given(names=labels, data=st.data())
    def test_unregister_preserves_relative_order(self, names, data):
        registry = ForkHandlerRegistry()
        calls = []
        for name in names:
            registry.register(name,
                              child=lambda n=name: calls.append(n))
        to_remove = data.draw(st.sets(st.sampled_from(names),
                                      max_size=len(names)))
        for name in to_remove:
            registry.unregister(name)
        registry.run_child()
        assert calls == [n for n in names if n not in to_remove]

    @given(names=labels, data=st.data())
    def test_failing_prepare_unwinds_exactly_the_prepared(self, names,
                                                          data):
        """Whatever handler fails, only its own parent callback runs as
        its undo; every other handler stays prepared, run_prepare
        returns, and the parent phase runs for exactly those."""
        registry = ForkHandlerRegistry()
        failer = data.draw(st.sampled_from(names))
        prepared, undone = [], []
        for name in names:
            if name == failer:
                prepare = (lambda n=name: (_ for _ in ()).throw(
                    RuntimeError(n)))
            else:
                prepare = (lambda n=name: prepared.append(n))
            registry.register(name, prepare=prepare,
                              parent=lambda n=name: undone.append(n))
        still_prepared = [n for n in reversed(names) if n != failer]
        assert [h.label for h in registry.run_prepare()] == still_prepared
        assert prepared == still_prepared
        assert undone == [failer]
        undone.clear()
        registry.run_parent()
        assert undone == [n for n in names if n != failer]
        assert registry.quarantine.benched_labels() == [failer]
