"""Model-based property test for the FIB.

Drives random sequences of FIB operations against a trivial Python
model (dicts and sets) and checks the two stay equivalent — the
classic way to catch bookkeeping drift in state containers.
"""

from hypothesis import given, settings, strategies as st

from repro.core.fib import FIB
from repro.core.kernel import KernelEntry
from repro.netsim.address import IPv4Address, group_address

GROUPS = [group_address(i) for i in range(4)]
ADDRESSES = [IPv4Address(f"10.0.0.{i}") for i in range(1, 6)]
VIFS = [0, 1, 2]

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add_child"),
            st.sampled_from(GROUPS),
            st.sampled_from(ADDRESSES),
            st.sampled_from(VIFS),
        ),
        st.tuples(
            st.just("remove_child"),
            st.sampled_from(GROUPS),
            st.sampled_from(ADDRESSES),
        ),
        st.tuples(
            st.just("set_parent"),
            st.sampled_from(GROUPS),
            st.sampled_from(ADDRESSES),
            st.sampled_from(VIFS),
        ),
        st.tuples(st.just("clear_parent"), st.sampled_from(GROUPS)),
        st.tuples(st.just("remove_group"), st.sampled_from(GROUPS)),
    ),
    max_size=60,
)


def reference_kernel_entry(group, record):
    """What the data plane derived per packet before the download
    existed: the parent first, then children by ``int(address)``;
    for CBT mode grouped by ascending vif."""
    children = sorted(record["children"].items(), key=lambda kv: int(kv[0]))
    parent = record["parent"] or (None, None)
    targets = ([record["parent"]] if record["parent"] else []) + children
    by_vif = {}
    for address, vif in targets:
        by_vif.setdefault(vif, []).append(address)
    return KernelEntry(
        group=group,
        parent_address=parent[0],
        parent_vif=parent[1],
        children=tuple(children),
        tree_vifs=frozenset(vif for _, vif in targets),
        targets=tuple(targets),
        fanout=tuple((vif, tuple(by_vif[vif])) for vif in sorted(by_vif)),
    )


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_fib_matches_reference_model(ops):
    fib = FIB()
    model = {}  # group -> {"parent": (addr, vif) | None, "children": {addr: vif}}
    downloads = deletions = 0  # state-changing operations, per the model

    for op in ops:
        snapshot = {
            g: (r["parent"], dict(r["children"])) for g, r in model.items()
        }
        kind = op[0]
        group = op[1]
        if kind == "add_child":
            _, _, address, vif = op
            fib.get_or_create(group).add_child(address, vif)
            model.setdefault(group, {"parent": None, "children": {}})[
                "children"
            ][address] = vif
        elif kind == "remove_child":
            _, _, address = op
            entry = fib.get(group)
            if entry is not None:
                entry.remove_child(address)
            if group in model:
                model[group]["children"].pop(address, None)
        elif kind == "set_parent":
            _, _, address, vif = op
            fib.get_or_create(group).set_parent(address, vif)
            model.setdefault(group, {"parent": None, "children": {}})[
                "parent"
            ] = (address, vif)
        elif kind == "clear_parent":
            entry = fib.get(group)
            if entry is not None:
                entry.clear_parent()
            if group in model:
                model[group]["parent"] = None
        elif kind == "remove_group":
            fib.remove(group)
            model.pop(group, None)

        # The download follows every operation, as it occurs (spec §3).
        if group in model:
            record = model[group]
            downloads += snapshot.get(group, (None, {})) != (
                record["parent"],
                record["children"],
            )
        else:
            deletions += group in snapshot
        assert (fib.downloads, fib.deletions) == (downloads, deletions), op
        for live, record in model.items():
            assert fib.get(live).kernel == reference_kernel_entry(live, record), op

    # Equivalence checks.
    assert set(fib.groups()) == set(model)
    expected_state = 0
    for group, record in model.items():
        entry = fib.get(group)
        assert entry is not None
        if record["parent"] is None:
            assert not entry.has_parent
        else:
            assert (entry.parent_address, entry.parent_vif) == record["parent"]
        assert entry.children == record["children"]
        expected_state += len(record["children"]) + (
            1 if record["parent"] is not None else 0
        )
        expected_vifs = set(record["children"].values())
        if record["parent"] is not None:
            expected_vifs.add(record["parent"][1])
        assert set(entry.tree_vifs()) == expected_vifs
    assert fib.total_state() == expected_state
