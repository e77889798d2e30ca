"""Simulated behaviour must not depend on the shell or on what happens
to be pip-installed.

``netsim/ids.py`` once selected the data-plane lookup by an environment
variable and, under that, by whether NumPy imported.  Both forks are
gone; this walks the source so the next one fails here.  Every
exception is listed with its reason.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

_ENV_NAMES = ("environ", "environb", "getenv")

#: ``file::function`` -> why it may read the process environment.
ENV_READS_ALLOWED = {
    "harness/parallel.py::_subprocess_env": (
        "forwards the parent environment (plus PYTHONPATH) to pytest / "
        "lint / coverage child processes; nothing simulated reads it"
    ),
}

#: Top-level packages that are this repository, not an install.
FIRST_PARTY = {"repro", "benchmarks"}

#: ``(file, package)`` -> why a non-stdlib import is tolerated.
THIRD_PARTY_ALLOWED = {
    ("harness/parallel.py", "coverage"): (
        "availability probe of the optional CI coverage unit, which "
        "reports itself skipped on ImportError"
    ),
}


def _walk(path):
    """``(file, env reads as file::function, imported top-level packages)``."""
    rel = path.relative_to(SRC).as_posix()
    env_reads, packages = set(), set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
            if node.module == "os" and any(
                alias.name in _ENV_NAMES for alias in node.names
            ):
                env_reads.add(f"{rel}::{function}")
        elif isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            env_reads.add(f"{rel}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return rel, env_reads, packages


@pytest.fixture(scope="module")
def sources():
    return [_walk(path) for path in sorted(SRC.rglob("*.py"))]


def test_no_module_reads_the_environment(sources):
    found = set().union(*(env_reads for _, env_reads, _ in sources))
    assert found == set(ENV_READS_ALLOWED)


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs python >= 3.10"
)
def test_no_module_imports_an_installed_package(sources):
    found = {
        (rel, package)
        for rel, _, packages in sources
        for package in packages - FIRST_PARTY - sys.stdlib_module_names
    }
    assert found == set(THIRD_PARTY_ALLOWED)


# -- scheduled callbacks are methods or functions plus args -------------------
#
# ``call_later(delay, cb, *args)`` carries the arguments, so a closure
# built only to bind them is a second object per event that the
# collector has to walk (docs/PERFORMANCE.md, "Allocation and the
# collector").  The callback handed to the scheduler is therefore an
# attribute or a name — never a lambda, never the result of a factory
# call, never a function defined inside the scheduling function.

#: Position of the callback among the positional arguments.
_CALLBACK_POSITION = {"call_later": 1, "call_at": 1, "PeriodicTimer": 2}


def _scheduled_closures(path):
    """``file::function: reason`` for every scheduling call whose
    callback is not a plain attribute or outer-scope name."""
    rel = path.relative_to(SRC).as_posix()
    found = set()

    def nested_callables(function):
        """Name -> reason, for each name a ``def``, a ``name = lambda``
        or a ``name = factory(...)`` binds inside ``function``."""
        names = {}
        for node in ast.walk(function):
            if node is function:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[node.name] = "nested def"
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, (ast.Lambda, ast.Call)
            ):
                reason = (
                    "nested def" if isinstance(node.value, ast.Lambda)
                    else "bound from a call"
                )
                names.update(
                    (target.id, reason) for target in node.targets
                    if isinstance(target, ast.Name)
                )
        return names

    def visit(node, function, local_callables):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            local_callables = {**local_callables, **nested_callables(node)}
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            position = _CALLBACK_POSITION.get(callee)
            callback = None
            if position is not None:
                if len(node.args) > position:
                    callback = node.args[position]
                for keyword in node.keywords:
                    if keyword.arg == "callback":
                        callback = keyword.value
            if isinstance(callback, ast.Name):
                if callback.id in local_callables:
                    found.add(f"{rel}::{function}: {local_callables[callback.id]}")
            elif not isinstance(callback, (ast.Attribute, type(None))):
                found.add(f"{rel}::{function}: {type(callback).__name__}")
        for child in ast.iter_child_nodes(node):
            visit(child, function, local_callables)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", {})
    return found


def test_scheduled_callbacks_are_not_closures():
    found = set().union(
        *(_scheduled_closures(path) for path in sorted(SRC.rglob("*.py")))
    )
    assert found == set()


# -- what registers with the scheduler can be emptied ---------------------------
#
# ``Scheduler.close()`` ends a registered component by clearing its
# ``__dict__``.  A class with ``__slots__`` has none: ``close()`` would
# raise on it — and a ``close()`` reached through ``__del__`` would only
# print that.  Refused here instead, where the class is written.


def _slotted_registrants(path):
    rel = path.relative_to(SRC).as_posix()
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        registers = any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "register"
            and [getattr(arg, "id", None) for arg in call.args] == ["self"]
            for call in ast.walk(node)
        )
        slotted = any(
            isinstance(stmt, ast.Assign)
            and any(getattr(target, "id", None) == "__slots__" for target in stmt.targets)
            for stmt in node.body
        )
        if registers and slotted:
            found.add(f"{rel}: {node.name}")
    return found


def test_no_registered_component_has_slots():
    found = set().union(
        *(_slotted_registrants(path) for path in sorted(SRC.rglob("*.py")))
    )
    assert found == set()


# -- the collector is paused by one mechanism -----------------------------------
#
# ``repro.netsim.engine.collector_paused`` is the only thing in
# ``src/repro`` that touches the cyclic collector: it pauses, and hands
# back as found.  A second ``gc.disable()`` somewhere else would be a
# pause nothing hands back; a ``gc.collect()`` / ``freeze()`` /
# ``set_threshold()`` would be a tuning knob standing in for a network
# that was not closed (docs/PERFORMANCE.md, "a network closes").

_COLLECTOR_CALLS = {"disable", "enable", "freeze", "set_threshold", "collect"}


def _collector_calls(path):
    rel = path.relative_to(SRC).as_posix()
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.update(f"{rel}: from gc import {a.name}" for a in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _COLLECTOR_CALLS
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        ):
            found.add(f"{rel}: gc.{node.attr}")
    return found


def test_only_the_engine_touches_the_collector():
    found = set().union(
        *(_collector_calls(path) for path in sorted(SRC.rglob("*.py")))
    )
    assert found == {
        "netsim/engine.py: gc.disable",
        "netsim/engine.py: gc.enable",
    }


# -- telemetry has one mode -----------------------------------------------------
#
# The protocol's own statistics are registry counters, so "telemetry
# off" was never a configuration of the system (docs/PERFORMANCE.md,
# "Decision record: telemetry has one mode").  The only ``enabled``
# left in ``src/repro`` is the packet trace's, which has two values in
# real use.


def _telemetry_switches(path):
    """``file:line what`` for every ``telemetry_enabled`` parameter or
    keyword and every ``.enabled`` read that is not a packet trace's."""
    rel = path.relative_to(SRC).as_posix()
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.arg, ast.keyword)):
            if node.arg == "telemetry_enabled":
                found.add(f"{rel}:{node.lineno} telemetry_enabled")
        elif isinstance(node, ast.Attribute) and node.attr == "enabled":
            owner = node.value
            owner_name = getattr(owner, "attr", getattr(owner, "id", None))
            if owner_name == "trace":
                continue
            if rel == "netsim/trace.py" and owner_name == "self":
                continue  # PacketTrace's own attribute
            found.add(f"{rel}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_telemetry_switch_in_the_source():
    found = set().union(
        *(_telemetry_switches(path) for path in sorted(SRC.rglob("*.py")))
    )
    assert found == set()
    import repro.telemetry

    assert [
        name for name in repro.telemetry.__all__
        if name.startswith("NULL_") or name == "EventLog"
    ] == []


# -- the per-packet path copies and fans out without re-deriving ------------------
#
# A forwarded packet is copied once per hop and fanned out from the
# kernel entry its FIB entry downloaded (docs/PERFORMANCE.md, "Decision
# record: the data plane forwards from the downloaded entry").
# ``dataclasses.replace`` re-reads ``fields()`` and builds a kwargs
# dict per copy, and a ``sorted`` / ``set`` / dict per packet re-derives
# what only a JOIN_ACK, QUIT or FLUSH changes; together they were 19 of
# the streaming workload's 79 profiled calls per event, so neither
# comes back unnoticed.

#: ``file`` -> class whose body is held to the rule (``None``: all of it).
_NO_REPLACE = {
    "netsim/packet.py": None,
    "core/forwarding.py": None,
    "core/messages.py": "CBTDataPacket",
}

#: ``DataPlane`` methods that run for every forwarded packet.
_PER_PACKET = {
    "_receive_cbt",
    "_handle_native",
    "_forward_cbt",
    "_forward_native",
}

_CONTAINER_BUILDERS = {"sorted", "set", "frozenset", "dict", "list"}
_CONTAINER_NODES = (ast.Set, ast.Dict, ast.SetComp, ast.DictComp, ast.ListComp)


def _name_of(node):
    """The bare name an expression reads: ``f`` of ``f`` and ``x.f``."""
    return getattr(node, "attr", getattr(node, "id", None))


def _callee(node):
    return _name_of(node.func)


def _class_body(tree, name):
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    )


def test_per_hop_copies_do_not_go_through_dataclasses_replace():
    found = set()
    for rel, class_name in _NO_REPLACE.items():
        tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
        scope = tree if class_name is None else _class_body(tree, class_name)
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and _callee(node) == "replace":
                found.add(f"{rel}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                if class_name is None and any(a.name == "replace" for a in node.names):
                    found.add(f"{rel}:{node.lineno} import")
    assert found == set()


def test_per_packet_methods_build_no_containers():
    tree = ast.parse((SRC / "core/forwarding.py").read_text(encoding="utf-8"))
    methods = {
        node.name: node
        for node in _class_body(tree, "DataPlane").body
        if isinstance(node, ast.FunctionDef)
    }
    assert _PER_PACKET <= set(methods)  # a rename must rename it here too
    found = set()
    for name in sorted(_PER_PACKET):
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.Call) and _callee(node) in _CONTAINER_BUILDERS:
                found.add(f"{name}:{node.lineno} {_callee(node)}()")
            elif isinstance(node, _CONTAINER_NODES):
                found.add(f"{name}:{node.lineno} {type(node).__name__}")
    assert found == set()


# -- one interface-address -> router index ------------------------------------------
#
# ``CBTDomain.router_of`` owns the map from an interface address to the
# router that has it.  Seven readers used to rebuild it per call — a
# loop over ``protocols`` storing ``[interface.address] = name`` — which
# at n=1000 was 9,642 address hashes per auditor tick and per probe
# sample (docs/PERFORMANCE.md, "Decision record: observers read what
# exists").  Only the index's own builder may contain that loop.

ADDRESS_INDEX_BUILDERS = {"core/bootstrap.py::router_of"}


def _mentions_protocols(node):
    return any(
        isinstance(part, ast.Attribute) and part.attr == "protocols"
        or isinstance(part, ast.Name) and part.id == "protocols"
        for part in ast.walk(node)
    )


def _address_index_rebuilds(path):
    """``file::function`` for every loop over ``protocols`` that stores
    into a subscript keyed by an ``.address`` attribute."""
    rel = path.relative_to(SRC).as_posix()
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.For) and _mentions_protocols(node.iter):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Assign) and any(
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Attribute)
                    and target.slice.attr == "address"
                    for target in inner.targets
                ):
                    found.add(f"{rel}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_domain_builds_the_address_index():
    found = set().union(
        *(_address_index_rebuilds(path) for path in sorted(SRC.rglob("*.py")))
    )
    assert found == ADDRESS_INDEX_BUILDERS


# -- a packet is a tuple record, a transmission one frame per layer -----------------
#
# Building a frozen dataclass is one ``object.__setattr__`` slot-wrapper
# call per field, which cProfile does not even see; a HELLO was three of
# them and cost more than the protocol work it triggers
# (docs/PERFORMANCE.md, "Decision record: packets are tuple records").
# ``tests/test_records.py`` holds the records to the dataclasses'
# behaviour; this holds the source to the records.

#: Files in which every class is a per-packet record or its codec.
_RECORD_FILES = (
    "netsim/packet.py",
    "netsim/trace.py",
    "igmp/messages.py",
    "core/messages.py",
)

#: Files whose message classes (the ones with a ``size_bytes``) are
#: records, beside protocol state that may stay a dataclass.
_MESSAGE_FILES = ("baselines/dvmrp.py", "baselines/hpimdm.py", "core/legacy.py")


def _is_dataclass(class_node):
    return any(
        getattr(d, "id", None) == "dataclass"
        or isinstance(d, ast.Call) and _callee(d) == "dataclass"
        for d in class_node.decorator_list
    )


def test_packet_records_are_not_dataclasses():
    found = set()
    for rel in _RECORD_FILES + _MESSAGE_FILES:
        tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                is_message = any(
                    isinstance(item, ast.FunctionDef) and item.name == "size_bytes"
                    for item in node.body
                )
                if rel in _RECORD_FILES or is_message:
                    found.add(f"{rel}::{node.name}")
    assert found == set()


def test_no_per_field_setattr_where_packets_are_built():
    paths = [SRC / rel for rel in _RECORD_FILES + _MESSAGE_FILES]
    paths += sorted((SRC / "netsim").glob("*.py")) + sorted((SRC / "igmp").glob("*.py"))
    found = {
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and getattr(node.value, "id", None) == "object"
    }
    assert found == set()


def test_link_transmit_schedules_directly_and_builds_no_closure():
    tree = ast.parse((SRC / "netsim/link.py").read_text(encoding="utf-8"))
    transmit = next(
        node for node in _class_body(tree, "Link").body
        if isinstance(node, ast.FunctionDef) and node.name == "transmit"
    )
    callees = {
        _callee(node) for node in ast.walk(transmit) if isinstance(node, ast.Call)
    }
    assert "_schedule" in callees
    assert not callees & {"call_later", "call_at"}
    assert not [
        node for node in ast.walk(transmit)
        if isinstance(node, (ast.Lambda, ast.FunctionDef)) and node is not transmit
    ]


# -- a protocol is a row, not a branch ----------------------------------------------
#
# The cell runners reach CBT, DVMRP and HPIM-DM through the rows of
# ``repro.harness.campaign.LEGS`` and one leg run, so adding a protocol
# is one row.  A comparison against a protocol's name in ``harness/`` or
# ``workloads/`` is the per-protocol branch coming back, and
# ``cell_run`` is the one place a cell stands an auditor up (for a row
# that is ``audited``).

_CELL_PACKAGES = ("harness", "workloads")
_PROTOCOL_NAMES = {"cbt", "dvmrp", "hpimdm"}


def _cell_sources():
    for package in _CELL_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(
                path.read_text(encoding="utf-8")
            )


def _names_a_protocol(operand):
    elements = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
    return any(
        isinstance(e, ast.Constant) and e.value in _PROTOCOL_NAMES for e in elements
    )


def test_no_cell_runner_branches_on_a_protocol_name():
    found = {
        f"{rel}:{node.lineno}"
        for rel, tree in _cell_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(map(_names_a_protocol, [node.left, *node.comparators]))
    }
    assert found == set()


def test_one_place_constructs_the_auditor():
    found = []
    for rel, tree in _cell_sources():
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                found += [
                    f"{rel}::{function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "InvariantAuditor"
                ]
    assert found == ["harness/campaign.py::cell_run"]


# A cell is one body (``campaign.cell_run``) on one clock (``FAST_TIMERS``):
# ``CellRun.audited`` is the one place a cell catches the auditor's
# violation, ``CellRun.quiesce`` the one quiescence loop (the only reader
# of its window constants), and no cell function takes a ``timers``
# argument.  A result's fingerprint is its own fields
# (``parallel.Fingerprinted``); a hand-written one drifts from the fields
# the next time one is added.


def _function_sites(predicate):
    """``file::function`` for each node under ``harness/`` or
    ``workloads/`` that ``predicate`` accepts."""
    found = []

    def visit(node, rel, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if predicate(node):
            found.append(f"{rel}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, rel, function)

    for rel, tree in _cell_sources():
        visit(tree, rel, "<module>")
    return found


def test_one_cell_body_catches_violations_and_quiesces():
    assert _function_sites(
        lambda node: isinstance(node, ast.ExceptHandler)
        and "InvariantViolation" in ast.unparse(node.type or ast.Constant(None))
    ) == ["harness/campaign.py::audited"]
    window_names = {"QUIET_WINDOWS", "MAX_WINDOWS", "WINDOW"}
    assert sorted(
        set(
            _function_sites(
                lambda node: (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in window_names
                )
                or (isinstance(node, ast.Attribute) and node.attr in window_names)
                or (isinstance(node, ast.alias) and node.name in window_names)
            )
        )
    ) == ["harness/campaign.py::quiesce"]


def test_no_cell_function_takes_timers():
    assert _function_sites(
        lambda node: isinstance(node, ast.arg) and node.arg == "timers"
    ) == []


def test_no_result_writes_its_fingerprint_by_hand():
    found = [
        f"{rel}::{node.name}"
        for rel, tree in _cell_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "fingerprint"
            for item in node.body
        )
    ]
    # The rule itself.
    assert found == ["harness/parallel.py::Fingerprinted"]


# -- one delivery oracle -------------------------------------------------------------
#
# Who should get a probe is decided once: ``harness.scenarios.judge_delivery``
# reads the members from the hosts' IGMP state and each member's
# ``Host.delivered`` log.  The flash crowd's audit judges per-session
# windows instead, and the ``Host`` fills the log; a third reader is a
# second answer to "who should get this probe".


def test_only_the_oracle_and_the_flash_crowd_read_the_delivery_log():
    found = []

    def visit(node, rel, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "delivered":
            found.append(f"{rel}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, rel, function)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), rel, "<module>")
    assert sorted(set(found)) == [
        "harness/scenarios.py::judge_delivery",
        "routing/table.py::__init__",
        "routing/table.py::receive",
        "workloads/cell.py::run_flash_crowd_cell",
    ]


# -- an address is an int ------------------------------------------------------------
#
# ``repro.netsim.address`` defines the address and prefix types, and a
# standard library address compares unequal to one of them without
# raising, so a module that still builds the stdlib type mixes the two
# silently.  The reference test compares against ``ipaddress`` on
# purpose; ``benchmarks/e2e`` is frozen source that passes stdlib
# addresses through the public API, which accepts them.

REPO = SRC.parents[1]

#: Files allowed to import ``ipaddress``, relative to the repository.
IPADDRESS_IMPORTERS = {
    "src/repro/netsim/address.py": "the address types parse text through it",
    "tests/test_address.py": "the reference the address types are held to",
}


def _imports_ipaddress(path):
    return any(
        isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "ipaddress" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "ipaddress"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_only_the_address_module_imports_ipaddress():
    paths = [
        path
        for root in ("src/repro", "tests", "examples", "benchmarks")
        for path in sorted((REPO / root).rglob("*.py"))
        if "e2e" not in path.relative_to(REPO).parts
    ]
    found = {
        path.relative_to(REPO).as_posix() for path in paths if _imports_ipaddress(path)
    }
    assert found == set(IPADDRESS_IMPORTERS)


# -- a tree is checked in one place ------------------------------------------
#
# ``core/audit.py`` is the one module that checks a CBT tree: the
# auditor's sweep (``check_invariants``), which ``audit_domain`` and
# ``CBTDomain.assert_tree_consistent`` read, and the explorer's two
# oracles share one parent-pointer loop walker (``_parent_loops``) and
# one copy of each per-router hard check.  A second copy of a finding's
# text is a second checker that the next fix has to find; an import of
# ``_parent_loops`` elsewhere is a second walk.

#: Finding texts that one function each emits.
ONE_EMITTER = {
    "parent pointers form a loop": "core/audit.py::_parent_loops",
    "lists itself as parent": "core/audit.py::_self_references",
    "quit in progress with no live retry timer": "core/audit.py::_stuck_quits",
    "does not list this router as a child": "core/audit.py::check_invariants",
    "pending join is": "core/audit.py::_stuck_pending",
}


def _string_sites(text):
    """``file::function`` of each string literal holding ``text``, bar
    docstrings and the goal predicates' markers, which match findings
    rather than emit them."""
    found = []

    def visit(node, rel, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, ast.Constant) and text in str(node.value):
            found.append(f"{rel}::{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, rel, function)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel != "explore/predicates.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), rel, "<module>")
    return found


@pytest.mark.parametrize("text", sorted(ONE_EMITTER))
def test_one_place_emits_each_tree_finding(text):
    assert _string_sites(text) == [ONE_EMITTER[text]]


def _reaches_loop_walker(node):
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_parent_loops" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "_parent_loops"


def test_only_the_audit_module_walks_parent_pointers():
    readers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reaches_loop_walker(node)
    ]
    assert readers == []


# -- one attach rule ----------------------------------------------------------------
#
# ``core/router.py`` states who roots a group's tree once: ``_attach``
# picks a router's join by its role (the primary joins nothing, a
# secondary core joins the primary), ``_join_primary`` is the one active
# rejoin toward the primary, and ``_arm_rejoin`` the one place a rejoin's
# retry timer is armed.  A second copy is a site the next fix misses.


def _router_sites(predicate):
    """Name of the ``core/router.py`` function around each node
    ``predicate`` accepts."""
    tree = ast.parse((SRC / "core" / "router.py").read_text(encoding="utf-8"))
    return [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if predicate(node)
    ]


def _keyword(node, arg, matches):
    return isinstance(node, ast.keyword) and node.arg == arg and matches(node.value)


def test_one_place_stands_the_primary_as_root():
    def primary_root(node):
        return _keyword(
            node,
            "detail",
            lambda value: isinstance(value, ast.Constant)
            and value.value == "primary core root",
        )

    assert _router_sites(primary_root) == ["_attach"]


def test_one_place_rejoins_toward_the_primary():
    def rejoin_active(node):
        return _keyword(
            node,
            "subcode",
            lambda value: isinstance(value, ast.Attribute)
            and getattr(value.value, "id", None) == "JoinSubcode"
            and value.attr == "REJOIN_ACTIVE",
        )

    assert _router_sites(rejoin_active) == ["_join_primary"]


def _arms_retry_timer(callback):
    """A predicate for ``<record>.retry_timer = <call>(..., self.<callback>, ...)``."""

    def arms(node):
        return (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Attribute) and target.attr == "retry_timer"
                for target in node.targets
            )
            and isinstance(node.value, ast.Call)
            and any(getattr(arg, "attr", None) == callback for arg in node.value.args)
        )

    return arms


def test_one_place_arms_the_rejoin_retry():
    assert _router_sites(_arms_retry_timer("_retry_rejoin")) == ["_arm_rejoin"]


def test_one_place_arms_the_quit_retry():
    assert _router_sites(_arms_retry_timer("_quit_retry")) == ["_arm_quit_retry"]


def test_one_place_stores_a_learned_core_list():
    def stores_learned(node):
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "attr", None) == "_learned_cores"
        )

    def assigns(node):
        return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr))

    assert _router_sites(stores_learned) == ["learn_cores"]
    assert "cores_for" not in _router_sites(assigns)


# -- an IGMP query goes only where a host can hear it -----------------------------
#
# Querier duty (the start-up burst and the periodic query ticker) is
# granted in one place, ``IGMPRouterAgent.start``, and only on an
# interface whose link is multi-access: the test ``_send_hellos``
# applies to HELLOs.  A second grant would be a site that sends queries
# down router-to-router links again.


def test_one_place_grants_querier_duty_and_it_reads_multi_access():
    tree = ast.parse((SRC / "igmp" / "router_side.py").read_text(encoding="utf-8"))

    def grants(node):
        # A ``PeriodicTimer`` or a general query (``group`` None) armed.
        return isinstance(node, ast.Call) and (
            _callee(node) == "PeriodicTimer"
            or any(getattr(arg, "attr", None) == "_periodic_query" for arg in node.args)
            or (
                any(getattr(arg, "attr", None) == "_send_query" for arg in node.args)
                and isinstance(node.args[-1], ast.Constant)
                and node.args[-1].value is None
            )
        )

    sites = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if grants(node)
    }
    assert sites == {"start"}
    start = next(
        node for node in ast.walk(_class_body(tree, "IGMPRouterAgent"))
        if isinstance(node, ast.FunctionDef) and node.name == "start"
    )
    assert "multi_access" in {
        node.attr for node in ast.walk(start) if isinstance(node, ast.Attribute)
    }
    # Nothing else in the source arms IGMP query duty.
    others = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.name != "router_side.py"
        and "_periodic_query" in path.read_text(encoding="utf-8")
    ]
    assert others == []


# -- a HELLO goes only where another CBT router can hear it -------------------------
#
# ``_hello_tick`` is the one place that decides which LANs a periodic
# HELLO goes out of (a live CBT neighbour, an interface back up, or a
# hold time of quiet), and ``_send_hellos`` the one sender.  A second
# site would be a HELLO that skips the rule.


def _refers_to(name):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == name


def test_one_place_decides_where_a_periodic_hello_goes():
    assert _router_sites(_refers_to("_send_hello")) == ["_send_hellos"]
    # The start-up pair, the introduction to a new neighbour, the tick.
    assert sorted(set(_router_sites(_refers_to("_send_hellos")))) == [
        "_hello_tick",
        "_recv_hello",
        "start",
    ]
    assert _router_sites(_refers_to("has_live")) == ["_hello_tick"]
    for state in ("_hello_ticks", "_lans_up"):
        assert set(_router_sites(_refers_to(state))) == {"__init__", "start", "_hello_tick"}
    others = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.name != "router.py"
        and re.search(r"\b(_send_hello|_hello_ticks|_lans_up)\b", path.read_text(encoding="utf-8"))
    ]
    assert others == []


# -- every public name has a caller outside the tests -------------------------
#
# A public function, class, method or property in ``src/repro`` that no
# code outside ``tests/`` uses is code the product does not run, and so
# is a name a package ``__init__`` re-exports that no code imports
# through the package.  "Uses" is read off the syntax tree of every
# ``.py`` file under ``src/``, ``benchmarks/`` and ``examples/``.  A
# method or property is used only by a read attribute (``x.name``) or a
# dotted part of a ``str`` constant (``getattr`` names, attribute
# families, runner strings such as
# ``"repro.harness.campaign.run_scenario"``); a module-level function or
# class also by a read ``ast.Name``.  A bare name, an assignment target or
# a local variable spelled like a method never uses it.  Comments,
# docstrings, ``__all__`` and the names an import binds are not uses,
# and ``ast`` parses an f-string the same way on 3.9, 3.11 and 3.12.
# The scan cannot tell same-named members of different classes apart:
# ``x.describe()`` uses every ``describe``.  What stays without a caller
# is listed here with its reason.

#: ``module.name`` / ``module.Class.member`` / ``repro.package.name``
#: (a re-export) -> why it stays with no caller outside the tests.
ALLOWLIST = {
    # References: the independent side of a test's cross-check.
    "routing.table.RoutingTable.lookup_linear": (
        "linear longest-prefix scan the memoised lookup is checked against"
    ),
    "topology.graph.Tree.is_loop_free": (
        "whole-tree walk the SPF and Steiner trees are checked against"
    ),
    "metrics.overhead.trace_overhead": (
        "recounts transmissions from the packet trace, against the registry's counts"
    ),
    "metrics.latency.delivery_latency": (
        "first-tx to first-rx latency from the packet trace, against the "
        "application's own latency"
    ),
    "harness.workload.ChurnSchedule.members_at_end": (
        "the membership a churn schedule leaves: the expected side of the "
        "churn delivery check"
    ),
    "netsim.address.IPv4Network.overlaps": (
        "the allocator's disjointness check; agrees with ipaddress"
    ),
    "netsim.address.is_link_local_multicast": (
        "checks that group_address never hands out a link-local group"
    ),
    "topology.graph.Tree.spans": "checks that a built tree reaches every member",
    "explore.predicates.classify": (
        "the partition oracle the backward-search tests check the catalogue against"
    ),
    "explore.predicates.Predicate.holds": (
        "evaluates a goal over domain state: the soundness pin of the backward search"
    ),
    "netsim.address.IPv4Address.packed": "the 4-byte form checked against ipaddress",
    "explore.replay.verify_payload": (
        "called by the regression test export writes (named in its template text)"
    ),
    # Test inputs for behaviour the product has.
    "routing.linkstate.LinkStateRouting.override_cost": (
        "asymmetric-cost worlds: SPF honours per-direction costs"
    ),
    "routing.linkstate.LinkStateRouting.clear_overrides": "undoes override_cost",
    "core.router.CBTProtocol.configure_tunnels": (
        "attaches a §5.2 tunnel table, which forwarding and the NACK path read"
    ),
    "core.tunnels.TunnelTable": "the §5.2 tunnel table configure_tunnels takes",
    "core.tunnels.TunnelTable.configure": "fills the table configure_tunnels attaches",
    "core.tunnels.TunnelTable.rank": (
        "ranks a core's vifs in that table, the order resolve walks"
    ),
    "topology.generators.star_graph": (
        "the star family the placement and family-soak tests build worlds from"
    ),
    # Test accessors: deleting one would only move its body into tests.
    "app.StreamStats.max_latency": "the bound of a stream's latencies",
    "core.audit.warnings": "the warning half of what errors() filters",
    "core.fib.FIB.downloads": "how many kernel entries a FIB has downloaded",
    "igmp.host.IGMPHostAgent.is_member": "a host's membership of a group",
    "igmp.router_side.IGMPRouterAgent.is_querier": "querier duty on one interface",
    "netsim.link.PointToPointLink.peer_of": "the far end of a point-to-point link",
    "netsim.node.Node.interface_on": "a node's interface on a network",
    "netsim.trace.PacketTrace.filter": (
        "the packet trace's query the message-sequence tests read"
    ),
    "routing.table.Router.next_hop_toward": "the unicast next hop toward an address",
    "telemetry.tracebus.dumps_jsonl": "repro-trace/1 to a string (dump_jsonl writes a file)",
    "telemetry.tracebus.loads_jsonl": "repro-trace/1 from a string (load_jsonl reads a file)",
    "telemetry.registry.MetricsRegistry.diff": (
        "per-key difference of two snapshots, the inverse of merge"
    ),
    "topology.builder.Network.address_of": "a node's primary address by name",
    "topology.builder.Network.all_routers": "every router, in name order",
    "topology.builder.Network.all_subnets": "every multi-access link",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _module_name(path, src):
    """``core.router`` for ``src/repro/core/router.py``, ``core`` for
    ``src/repro/core/__init__.py``."""
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_names(tree, module):
    """``(qualified name, identifier, is member)`` of the module's public
    top-level functions and classes and its top-level classes' public
    methods and properties."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if not isinstance(node, definitions) or node.name.startswith("_"):
            continue
        out.append((f"{module}.{node.name}", node.name, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{module}.{node.name}.{member.name}", member.name, True)
                for member in node.body
                if isinstance(member, definitions[:2]) and not member.name.startswith("_")
            )
    return out


def _all_entries(tree):
    """The ``__all__`` assignment of a module, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return node
    return None


def _dotted(node, aliases):
    """The path an ``a.b.c`` expression names, its first part read
    through the file's imports; None for any other expression."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return base and f"{base}.{node.attr}"
    return None


def _prose(tree):
    """``id``s of the string statements (docstrings) and ``__all__``
    constants of a parsed file: text, not references."""
    prose = set()
    exported = _all_entries(tree)
    if exported is not None:
        prose.update(map(id, ast.walk(exported.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            prose.add(id(node.value))
    return prose


def _uses(tree):
    """``(attributes, names, paths)`` the code of one parsed file uses.

    ``attributes``: every read ``ast.Attribute`` attr and identifier
    part of a dotted ``str`` constant, leaving out string statements
    (docstrings) and ``__all__``; these alone use a member.  ``names``:
    every read ``ast.Name`` id, which uses a module-level function or
    class but never a member.  ``paths``: ``module.name`` for each
    ``from module import name``, each attribute chain as a dotted path
    (``import repro.core as c; c.FIB`` -> ``repro.core.FIB``) and each
    such string whole."""
    prose, aliases, attributes, names, paths = _prose(tree), {}, set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[alias.asname or bound] = bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                paths.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            paths.add(_dotted(node, aliases))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in prose
        ):
            attributes.update(part for part in node.value.split(".") if _IDENTIFIER.match(part))
            paths.add(node.value)
    return attributes, names, paths


def _lazy_exports(tree):
    """The names a module resolves on first use through its
    ``__getattr__``: the keys of a top-level ``{name: "repro.module"}``
    table (``repro/__init__.py``)."""
    return {
        key.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and node.value.values
        and all(
            isinstance(value, ast.Constant) and str(value.value).startswith("repro.")
            for value in node.value.values
        )
        for key in node.value.keys
    }


def _re_exports(tree, package, own_names):
    """``package.name`` for each name an ``__init__`` imports from a
    ``repro`` module at top level and does not itself use, or resolves
    lazily (:func:`_lazy_exports`)."""
    return {
        f"{package}.{alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "repro"
        for alias in node.names
        if (alias.asname or alias.name) not in own_names
    } | {f"{package}.{name}" for name in _lazy_exports(tree)}


def _stale_entries(tree, module):
    """``module.__all__:name`` for each ``__all__`` entry the module
    (``repro.core``) neither imports nor defines."""
    exported = _all_entries(tree)
    if exported is None:
        return set()
    bound = _lazy_exports(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return {
        f"{module}.__all__:{entry.value}"
        for entry in ast.walk(exported.value)
        if isinstance(entry, ast.Constant) and entry.value not in bound
    }


def unused_public_names(src=SRC):
    """Qualified names of the public ``src/repro`` code that no code
    outside ``tests/`` uses, of the package re-exports no such code
    imports through the package (``repro.core.FIB``), and of the
    ``__all__`` entries a module does not bind
    (``repro.core.__all__:FIB``)."""
    repo = src.parents[1]
    code = sorted(src.rglob("*.py"))
    others = [path for root in ("benchmarks", "examples") for path in (repo / root).rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in code + others}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    attributes = set().union(*(attrs for attrs, _, _ in uses.values()))
    names = attributes.union(*(names for _, names, _ in uses.values()))
    unused = set()
    for path in code:
        module = _module_name(path, src)
        dotted = ".".join(filter(None, ("repro", module)))
        unused.update(
            q
            for q, name, member in _public_names(trees[path], module)
            if name not in (attributes if member else names)
        )
        unused |= _stale_entries(trees[path], dotted)
        if path.name == "__init__.py":
            imported = set().union(*(paths for other, (*_, paths) in uses.items() if other != path))
            own, bare, _ = uses[path]
            unused |= _re_exports(trees[path], dotted, own | bare) - imported
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    only_tests = sorted(unused - set(ALLOWLIST))
    assert only_tests == [], (
        f"public code only tests reach, or __all__ entries nothing binds: delete "
        f"them, or list them in ALLOWLIST with the reason: {only_tests}"
    )
    stale = sorted(set(ALLOWLIST) - unused)
    assert stale == [], f"ALLOWLIST entries that are now used or gone: remove them: {stale}"


def test_the_scan_credits_a_member_only_through_an_attribute(tmp_path):
    """A local variable spelled like a method does not use it; a call
    through an attribute does, and a module-level function is used by
    its bare name."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(
        "class Shape:\n"
        "    def area(self):\n"
        "        return 1\n"
        "\n"
        "    def perimeter(self):\n"
        "        return 4\n"
        "\n"
        "\n"
        "def make():\n"
        "    return Shape()\n"
    )
    (package / "use.py").write_text(
        "from repro.shapes import make\n"
        "\n"
        "\n"
        "def main():\n"
        "    area = 2\n"
        "    return make().perimeter() + area\n"
    )
    assert unused_public_names(src=package) == {"shapes.Shape.area", "use.main"}


# -- every defaulted parameter has a caller that passes it --------------------
#
# A defaulted parameter that no code outside ``tests/`` passes is a
# setting the product never changes: only its default runs, and a test
# that varies it checks a path nothing else takes.  A parameter is
# passed where a call in ``src/``, ``benchmarks/`` or ``examples/``
# reaches it by position or by keyword (a ``*args`` or ``**kwargs``
# reaches every position or keyword).  Calls are matched by the callee's
# bare name, as the caller guard matches uses: ``f(...)``, ``x.f(...)``
# and ``partial(f, ...)`` call ``f``; ``C(...)``, ``cls(...)`` in a
# method of ``C`` and ``super().__init__(...)`` in a subclass of ``C``
# call ``C``'s ``__init__`` and ``__new__``, or the ones ``C`` inherits.
# A function read by value (a table row, a callback, ``g = f if ... else
# h``, a dotted part of a ``str`` constant) may be called with anything,
# so it counts as passed every parameter: the scan reports only what it
# can see is never passed.  It reads top-level functions and the methods
# of top-level classes, private ones too.  What stays with only tests
# to set it is listed here with its reason.

#: ``module.qualname(param)`` -> why only tests pass it.
KNOB_ALLOWLIST = {
    # Simulator model inputs the tests vary.
    "topology.builder.Network.add_subnet(delay)": (
        "a LAN's propagation delay; the serialisation tests zero it"
    ),
    "topology.builder.Network.add_subnet(bandwidth_bps)": (
        "a LAN's line rate; the serialisation-delay tests set one"
    ),
    "topology.builder.Network.add_p2p(mode)": (
        "a §5.2 CBT-mode tunnel; the tunnel and NACK tests build them"
    ),
    "topology.builder.Network.add_p2p(bandwidth_bps)": (
        "a link's line rate; the serialisation-delay tests set one"
    ),
    "topology.generators.realise(with_hosts)": (
        "a router mesh without stub LANs, for the routing and allocation tests"
    ),
    "topology.generators.barabasi_albert_graph(m)": (
        "the attachment degree; the generator tests check its n > m bound"
    ),
    # Reference-pin hooks: the slow side of a test's cross-check.
    "topology.builder.Network.fail_router(reconverge)": (
        "downs a router without re-running SPF, so a test plants a stale route"
    ),
    "topology.builder.Network.restore_router(reconverge)": (
        "the same for a restore"
    ),
    "core.audit.audit_domain(now)": (
        "pins the audit's clock, so the observer reference is compared at one instant"
    ),
    # Protocol switches.
    "core.bootstrap.CBTDomain.__init__(wire_format)": (
        "the spec §8 wire encoding, which the codec round-trip tests switch on"
    ),
    # Test accessors and test-speed hooks.
    "netsim.trace.PacketTrace.filter(link_name)": (
        "a criterion of the allowlisted trace query the message-sequence tests read"
    ),
    "netsim.trace.PacketTrace.filter(node_name)": "the same, by node",
    "netsim.trace.PacketTrace.filter(predicate)": "the same, by any test",
    "explore.backward.backward_search(stop_on_first)": (
        "the confirmation tests stop at the first counterexample: 7 replays "
        "where the 250-run budget spends 160"
    ),
}


def _base_names(class_node):
    return [name for name in map(_name_of, class_node.bases) if name]


def _calls(tree, calls, by_value):
    """Add each call of one parsed file to ``calls`` (callee name ->
    ``[(positional count, keywords)]``, a count of ``None`` for a
    ``*args``, a keyword ``None`` for a ``**kwargs``) and each name it
    reads other than as a callee to ``by_value``."""
    prose = _prose(tree)
    not_values = set()  # ids of callees, attribute bases, annotations, class bases

    def record(name, args, keywords):
        starred = any(isinstance(arg, ast.Starred) for arg in args)
        calls.setdefault(name, []).append(
            (None if starred else len(args), {keyword.arg for keyword in keywords})
        )

    def visit(node, class_node):
        if isinstance(node, ast.ClassDef):
            class_node = node
        if isinstance(node, ast.Call):
            not_values.add(id(node.func))
            name = _name_of(node.func)
            if name == "partial" and node.args:
                not_values.add(id(node.args[0]))
                record(_name_of(node.args[0]), node.args[1:], node.keywords)
            elif (
                name in ("__init__", "__new__")
                and isinstance(node.func.value, ast.Call)
                and _name_of(node.func.value.func) == "super"
                and class_node is not None
            ):
                for base in _base_names(class_node):
                    record(base, node.args, node.keywords)
            elif name == "cls" and class_node is not None:
                record(class_node.name, node.args, node.keywords)
            else:
                record(name, node.args, node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, class_node)

    visit(tree, None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            not_values.add(id(node.value))
        elif isinstance(node, ast.ClassDef):
            not_values.update(map(id, node.bases))
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            not_values.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            not_values.update(map(id, ast.walk(node.returns)))
    for node in ast.walk(tree):
        if id(node) in not_values:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            by_value.add(_name_of(node))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "." in node.value
            and id(node) not in prose
        ):
            by_value.update(part for part in node.value.split(".") if _IDENTIFIER.match(part))


def _constructor_names(classes):
    """``(class name, "__init__" or "__new__")`` -> the class names whose
    call reaches that constructor: the class and each subclass that
    inherits it (``classes``: name -> ``ast.ClassDef``)."""

    def owner(name, method, seen=()):
        node = classes.get(name)
        if node is None or name in seen:
            return None
        if any(
            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and member.name == method
            for member in node.body
        ):
            return name
        for base in _base_names(node):
            found = owner(base, method, (*seen, name))
            if found:
                return found
        return None

    names = {}
    for name in classes:
        for method in ("__init__", "__new__"):
            found = owner(name, method)
            if found:
                names.setdefault((found, method), set()).add(name)
    return names


def _defaulted(function, method):
    """``(positional index or None, name)`` of each defaulted parameter,
    the index counted after ``self`` / ``cls`` for a method."""
    a = function.args
    positional = a.posonlyargs + a.args
    static = any(_name_of(d) == "staticmethod" for d in function.decorator_list)
    skip = 1 if method and positional and not static else 0
    out = [
        (index - skip, parameter.arg)
        for index, parameter in enumerate(positional)
        if index >= len(positional) - len(a.defaults)
    ]
    out += [
        (None, parameter.arg)
        for parameter, default in zip(a.kwonlyargs, a.kw_defaults)
        if default is not None
    ]
    return out


def unpassed_knobs(src=SRC):
    """``module.qualname(param)`` of each defaulted parameter of a
    ``src/repro`` function or method that no call outside ``tests/``
    passes, nor reads the function by value."""
    repo = src.parents[1]
    code = sorted(src.rglob("*.py"))
    others = [path for root in ("benchmarks", "examples") for path in (repo / root).rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in code + others}
    calls, by_value = {}, set()
    for tree in trees.values():
        _calls(tree, calls, by_value)
    classes = {
        node.name: node
        for path in code
        for node in trees[path].body
        if isinstance(node, ast.ClassDef)
    }
    constructors = _constructor_names(classes)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unpassed = set()
    for path in code:
        module = _module_name(path, src)
        scopes = [(node, None) for node in trees[path].body] + [
            (member, node.name)
            for node in trees[path].body
            if isinstance(node, ast.ClassDef)
            for member in node.body
        ]
        for function, owner in scopes:
            if not isinstance(function, functions):
                continue
            if owner and function.name in ("__init__", "__new__"):
                callees = constructors.get((owner, function.name), {owner})
            else:
                callees = {function.name}
            if callees & by_value:
                continue
            sites = [site for callee in callees for site in calls.get(callee, ())]
            qualname = f"{owner}.{function.name}" if owner else function.name
            unpassed.update(
                f"{module}.{qualname}({name})"
                for index, name in _defaulted(function, owner is not None)
                if not any(
                    name in keys
                    or None in keys
                    or (index is not None and (count is None or count > index))
                    for count, keys in sites
                )
            )
    return unpassed


def test_every_knob_has_a_caller_outside_the_tests():
    unpassed = unpassed_knobs()
    only_tests = sorted(unpassed - set(KNOB_ALLOWLIST))
    assert only_tests == [], (
        f"defaulted parameters no code outside tests/ passes: delete them "
        f"(inline the default or name it as a module constant), or list them "
        f"in KNOB_ALLOWLIST with the reason: {only_tests}"
    )
    stale = sorted(set(KNOB_ALLOWLIST) - unpassed)
    assert stale == [], f"KNOB_ALLOWLIST entries that are now passed or gone: remove them: {stale}"
    assert all(KNOB_ALLOWLIST.values()), "every KNOB_ALLOWLIST entry needs a reason"


def test_the_knob_scan_credits_what_a_call_can_pass(tmp_path):
    """An unpassed default is reported; a ``partial`` keyword, a
    ``super().__init__`` argument and a read by value credit a
    parameter; a call only ``tests/`` makes credits nothing."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(
        "from functools import partial\n"
        "\n"
        "\n"
        "class Shape:\n"
        "    def __init__(self, sides=3, colour=None):\n"
        "        self.sides = sides\n"
        "\n"
        "\n"
        "class Square(Shape):\n"
        "    def __init__(self, size=1):\n"
        "        super().__init__(4)\n"
        "\n"
        "\n"
        "def scale(shape, factor=2, by=None):\n"
        "    return shape\n"
        "\n"
        "\n"
        "def tint(shape, colour=None):\n"
        "    return shape\n"
        "\n"
        "\n"
        "def draw(shape, width=1):\n"
        "    return shape\n"
        "\n"
        "\n"
        "def run():\n"
        "    doubled = partial(scale, by=3)\n"
        "    square = Square()\n"
        "    return doubled(square), [tint]\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_shapes.py").write_text(
        "from repro.shapes import Square, draw\n"
        "\n"
        "\n"
        "def test_draw():\n"
        "    draw(Square(size=2), width=3)\n"
    )
    assert unpassed_knobs(src=package) == {
        "shapes.Shape.__init__(colour)",
        "shapes.Square.__init__(size)",
        "shapes.scale(factor)",
        "shapes.draw(width)",
    }


def test_importing_a_submodule_loads_only_what_it_imports():
    """``repro/__init__`` resolves its four names on first use, so
    ``import repro.netsim.engine`` loads the engine and the telemetry it
    needs, not the CBT, IGMP, routing and topology stack behind those
    names (34 ``repro`` modules while the package imported them
    eagerly).  A fresh interpreter, since this one has loaded them all."""
    code = (
        "import sys, repro.netsim.engine; "
        "print(*sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert loaded == [
        "repro",
        "repro.netsim",
        "repro.netsim.engine",
        "repro.telemetry",
        "repro.telemetry.registry",
        "repro.telemetry.tracebus",
    ]
