"""Repository-integrity checks: docs, benches, and examples stay in sync."""

import ast
import functools
import pathlib
import re
import subprocess
import sys
import typing

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocumentation:
    def test_design_doc_lists_every_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            if bench.name == "bench_ablations.py":
                continue  # covered by the ablation index row
            assert bench.name in design, f"{bench.name} missing from DESIGN.md"

    def test_experiments_doc_names_every_figure_and_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for heading in (
            "Figure 1",
            "Table 1",
            "Figure 4 a",
            "Figure 4 d",
            "Figure 4 g",
            "Figure 5",
            "Figure 6",
            "Ablations",
        ):
            assert heading in text, f"{heading} missing from EXPERIMENTS.md"

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in readme, f"{example.name} missing from README"

    def test_bench_files_are_collectible(self):
        """Every bench module imports cleanly (no stale APIs)."""
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            source = bench.read_text()
            compile(source, str(bench), "exec")

    def test_all_paper_experiments_have_benches(self):
        names = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        assert names >= {
            "bench_figure1_reconfiguration_time.py",
            "bench_table1_recovery_breakdown.py",
            "bench_figure4_fault_tolerance.py",
            "bench_figure4_vertical_scaling.py",
            "bench_figure4_load_balancing.py",
            "bench_figure5_resource_utilization.py",
            "bench_figure6_varying_rates.py",
        }


#: Module-level names in ``src/`` that nothing in ``src/``, ``examples/``
#: or ``benchmarks/`` reaches, kept on purpose -- each with its reason.
KEPT_WITHOUT_CALLER = {
    "TransactionalSinkLogic": "the only exactly-once output check on Flink's restart path",
    "run_control_quorum_sweep": "drives CI's control-quorum sweeps",
    "failover_breakdown": "cross-checks takeover history against the trace",
    "text_timeline": "README's documented debugging view of a trace",
    "MapLogic": "stateless operator the engine tests build graphs from",
    "FilterLogic": "stateless operator the engine tests build graphs from",
    "PassThroughLogic": "stateless operator the engine tests build graphs from",
}

#: The same for methods and properties of module-level classes, keyed
#: ``"Class.method"``.
METHODS_KEPT_WITHOUT_CALLER = {}


def _references(tree):
    """Yield ``(word, lineno)`` for every name, attribute, imported name
    and identifier-like word of a string literal in ``tree`` (a docstring
    names, it does not call)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node.lineno


@functools.cache
def _non_test_references():
    """Every reference in ``src/``, ``examples/`` and ``benchmarks/`` as
    ``word -> [(path, lineno), ...]``.  A package ``__init__.py`` only
    re-exports, so its imports, ``__all__`` and lazy ``__getattr__`` strings
    are not references."""
    found = {}
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py" and top == "src":
                continue
            tree = ast.parse(path.read_text(), str(path))
            for word, lineno in _references(tree):
                found.setdefault(word, []).append((path, lineno))
    return found


class TestPublicApi:
    def test_every_public_rhino_name_has_a_caller(self):
        """Every public name on ``Rhino`` (the list ``test_api_surface``
        pins) is read as an attribute by code outside the tests, so API that
        only tests use cannot creep back in."""
        from repro.core.api import Rhino

        public = {name for name in vars(Rhino) if not name.startswith("_")}
        used = set()
        for top in ("src", "examples", "benchmarks"):
            for path in sorted((ROOT / top).rglob("*.py")):
                tree = ast.parse(path.read_text(), str(path))
                used.update(
                    node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                )
        assert sorted(public - used) == []

    def test_every_module_level_name_in_src_has_a_caller(self):
        """Every module-level function and class in ``src/`` is reached from
        ``src/``, ``examples/`` or ``benchmarks/``: referenced outside its
        own body (re-exports do not count) by code that is itself reached,
        or pinned in :data:`KEPT_WITHOUT_CALLER`.  Code only the tests reach
        leaves."""
        _assert_reached(methods=False, kept=KEPT_WITHOUT_CALLER)

    def test_every_method_in_src_has_a_caller(self):
        """The same rule for every method and property of a module-level
        class in ``src/``: a method only the tests call leaves too, and a
        test reads the attribute it wrapped.  Dunders are called by Python
        and are not checked; pinned ones are in
        :data:`METHODS_KEPT_WITHOUT_CALLER`."""
        _assert_reached(methods=True, kept=METHODS_KEPT_WITHOUT_CALLER)


def _assert_reached(methods, kept):
    """Every definition of one kind (methods, or module-level names) is
    reached or pinned in ``kept``, and no pinned one is reached."""
    definitions, unreached = _reachability()
    kind = [d for d in definitions if (d.qualname != d.name) == methods]
    missing = [d for d in kind if d in unreached]
    assert not missing, "reached by nothing outside the tests:\n" + "\n".join(
        f"{d.path.relative_to(ROOT / 'src')}::{d.qualname}" for d in missing
    )
    pinned = [d for d in kind if d.qualname in kept]
    assert sorted(d.qualname for d in pinned) == sorted(kept)
    assert [d.qualname for d in pinned if _reached(d, unreached)] == []


class _Definition(typing.NamedTuple):
    name: str
    qualname: str  # ``name`` at module level, ``Class.name`` for a method
    path: pathlib.Path
    first: int
    last: int


def _definitions():
    """Every module-level function and class in ``src/``, and every method
    and property of a module-level class (dunders excluded)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, functions + (ast.ClassDef,)):
                continue
            members = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (m, f"{node.name}.{m.name}")
                    for m in node.body
                    if isinstance(m, functions)
                ]
            for member, qualname in members:
                if member.name.startswith("__"):
                    continue
                first = min(
                    [member.lineno] + [d.lineno for d in member.decorator_list]
                )
                found.append(
                    _Definition(member.name, qualname, path, first, member.end_lineno)
                )
    return found


def _reached(definition, unreached):
    """Whether something outside ``definition``'s own body, and outside the
    body of every ``unreached`` definition, names it."""
    references = _non_test_references()
    return any(
        not (where == definition.path and definition.first <= lineno <= definition.last)
        and not any(
            where == d.path and d.first <= lineno <= d.last for d in unreached
        )
        for where, lineno in references.get(definition.name, ())
    )


def _reachability():
    """``(definitions, unreached)``: the unpinned definitions nothing outside
    the tests reaches.  A reference from the body of an unreached definition
    reaches nothing, so this repeats until no more definitions fall out."""
    definitions = _definitions()
    pinned = set(KEPT_WITHOUT_CALLER) | set(METHODS_KEPT_WITHOUT_CALLER)
    unreached = []
    while True:
        found = [
            d
            for d in definitions
            if d.qualname not in pinned and not _reached(d, unreached)
        ]
        if found == unreached:
            return definitions, unreached
        unreached = found


def _calls_in_src(name):
    """``(path, line)`` of every call in ``src/`` to a function or method
    named ``name``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None
                )
                if called == name:
                    yield path, node.lineno


def _where(path, line):
    return f"{path.relative_to(ROOT)}:{line}"


class TestOneBlockStream:
    def test_only_the_block_stream_calls_with_retry(self):
        """State blocks move through ``cluster/cluster.py::ChunkedTransfer``
        alone.  A hand-written block loop elsewhere in ``src/`` would bring
        back its own retry, credit and liveness handling -- the copies that
        leaked credit and wrote to dead machines -- so a ``with_retry`` call
        outside that file fails here, naming it."""
        stream = ROOT / "src" / "repro" / "cluster" / "cluster.py"
        callers = [
            _where(path, line)
            for path, line in _calls_in_src("with_retry")
            if path != stream
        ]
        assert callers == [], (
            "with_retry called outside cluster/cluster.py; ship state blocks "
            f"through Cluster.chunked_transfer instead: {callers}"
        )


class TestOneRetryPolicy:
    def test_only_faults_retry_builds_a_retry_policy(self):
        """Every deployment retries a state block by the one
        ``faults/retry.py::BLOCK_RETRY``.  A ``RetryPolicy`` built anywhere
        else in ``src/`` would bring back a per-deployment budget, one no
        test runs, so it fails here, naming file and line."""
        policy = ROOT / "src" / "repro" / "faults" / "retry.py"
        builders = [
            _where(path, line)
            for path, line in _calls_in_src("RetryPolicy")
            if path != policy
        ]
        assert builders == [], (
            "RetryPolicy built outside faults/retry.py; ship state blocks "
            f"under faults.retry.BLOCK_RETRY instead: {builders}"
        )


#: Defaulted parameters in ``src/`` that no call in ``src/``, ``examples/``
#: or ``benchmarks/`` sets, kept on purpose -- each with its reason.  Keyed
#: ``"qualname(parameter)"``; anything else a caller never sets is a
#: constant, not a parameter.
PARAMETERS_KEPT_WITHOUT_CALLER = {
    # The experiment surface: the ablation sweeps' axes and Figure 1's SUTs.
    "ablate_virtual_nodes(counts)": "ablation sweep axis",
    "ablate_virtual_nodes(state_bytes)": "ablation sweep input",
    "ablate_virtual_nodes(seed)": "ablation sweep input",
    "ablate_replication_factor(factors)": "ablation sweep axis",
    "ablate_replication_factor(delta_bytes)": "ablation sweep input",
    "ablate_incremental_checkpoints(total_bytes)": "ablation sweep input",
    "ablate_incremental_checkpoints(delta_fraction)": "ablation sweep input",
    "ablate_incremental_checkpoints(rounds)": "ablation sweep input",
    "ablate_replication_topology(delta_bytes)": "ablation sweep input",
    "ablate_replication_topology(factor)": "ablation sweep input",
    "ablate_credit_window(windows)": "ablation sweep axis",
    "ablate_credit_window(delta_bytes)": "ablation sweep input",
    "ablate_delta_size(deltas_gb)": "ablation sweep axis",
    "ablate_delta_size(checkpoint_interval)": "ablation sweep input",
    "run_figure1(suts)": "Figure 1's SUT list, narrowed by the quick runs",
    "run_control_quorum_sweep(replicas)": "CI's 3- and 5-replica sweeps",
    "run_control_quorum_sweep(machines)": "CI's 5-replica sweep",
    "run_control_quorum_sweep(artifacts_dir)": "CI's sweeps write verdicts there",
    # Set by name through a call the scan cannot follow.
    "Rhino._plan_rescale(machines)": "reconfigure() binds it by name",
    "Rhino._plan_rescale(share)": "reconfigure() binds it by name",
    "Rhino._plan_rebalance(node_count)": "reconfigure() binds it by name",
    "JobMetrics.sample_latency(weight)": "called through a local alias",
    "_Shipment._deliver(_room)": "an event callback: the kernel passes it",
    "main(argv)": "None reads sys.argv; tests pass the arguments",
    # Kernel calls whose optional value only a test reads.
    "Event.fail(delay)": "mirrors succeed(delay=)",
    # Sizes and hooks only the tests turn.
    "LatencySeries.__init__(max_samples)": "tests reach downsampling quickly",
    "KeyedStateBackend.__init__(memtable_limit)": "tests reach a flush quickly",
    "KeyedStateBackend.__init__(compaction_trigger)": "tests reach compaction quickly",
    "BloomFilter.__init__(false_positive_rate)": "tests check the sizing rule",
    "SSTable.__init__(table_id)": "tests pin a table's id",
    "Router.connect(capacity_batches)": "tests fill a channel quickly",
    "LogCursor.poll(max_records)": "tests read small batches",
    "DistributedFileSystem.write(parallelism)": "tests write one pipeline",
    "ResourceMonitor.__init__(interval)": "tests sample every second",
    "Megaphone.attach(monitor_interval)": "tests sample memory faster",
    "ControlJournal.read_records(committed_seq)": "tests read below the floor",
    "Cluster.__init__(scheduler)": "tests hand in the dense reference solver",
    "StreamSpec.__init__(key_factory)": "tests give partitions disjoint keys",
    "Record.__init__(origin)": "tests hand-build positioned records",
    "Record.__init__(position)": "tests hand-build positioned records",
    "FaultPlan.__init__(seed)": "tests replay a hand-written plan",
    "Tracer.__init__(clock)": "tests trace without a simulator",
    "text_timeline(include_events)": "README's documented debugging view",
    "StreamGraph.sink(parallelism)": "tests build parallel sinks",
}


def _defaulted_parameters():
    """``(key, callee, position, path, line)`` for every parameter with a
    default of every function in ``src/``: ``key`` is ``"qualname(name)"``,
    ``callee`` the name a call uses (the class for ``__init__``), and
    ``position`` the index a positional argument binds (None when
    keyword-only; a method's ``self`` or ``cls`` does not count)."""
    found = []

    def visit(node, prefix, cls, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + [child.name], child.name, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in child.decorator_list
                )
                bound = 1 if cls is not None and not static else 0
                callee = child.name
                if cls is not None and callee == "__init__":
                    callee = cls
                qualname = ".".join(prefix + [child.name])
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], start=first):
                    key = f"{qualname}({arg.arg})"
                    found.append((key, callee, index - bound, path, arg.lineno))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append(
                            (f"{qualname}({arg.arg})", callee, None, path, arg.lineno)
                        )
                visit(child, prefix + [child.name], None, path)
            else:
                visit(child, prefix, cls, path)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), [], None, path)
    return found


def _arguments_by_callee():
    """Every call in ``src/``, ``examples/`` and ``benchmarks/``, pooled by
    the called name: ``name -> [keywords, most positional arguments,
    unpacks]``.  Same-named functions and methods count together; a call
    that unpacks ``*`` or ``**`` sets every parameter, and
    ``super().__init__`` calls the class's first base."""
    pooled = {}
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            base_of = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef) and cls.bases:
                    first = cls.bases[0]
                    name = getattr(first, "id", getattr(first, "attr", None))
                    base_of.update((id(node), name) for node in ast.walk(cls))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "__init__":
                    name = base_of.get(id(node))
                if name is None:
                    continue
                entry = pooled.setdefault(name, [set(), 0, False])
                entry[0].update(k.arg for k in node.keywords if k.arg)
                plain = [a for a in node.args if not isinstance(a, ast.Starred)]
                entry[1] = max(entry[1], len(plain))
                entry[2] = entry[2] or len(plain) < len(node.args) or any(
                    k.arg is None for k in node.keywords
                )
    return pooled


class TestEveryParameterIsSet:
    def test_every_defaulted_parameter_in_src_has_a_caller_that_sets_it(self):
        """A default no caller in ``src/``, ``examples/`` or ``benchmarks/``
        ever overrides is a setting nothing sets: make it a constant, or
        pin it in :data:`PARAMETERS_KEPT_WITHOUT_CALLER` with its reason.
        Fails naming file and line; a pinned parameter that a caller now
        sets, or that is gone, fails too."""
        pooled = _arguments_by_callee()
        unset = {}
        for key, callee, position, path, line in _defaulted_parameters():
            keywords, most, unpacks = pooled.get(callee, (set(), 0, False))
            name = key[key.index("(") + 1 : -1]
            if not (
                unpacks
                or name in keywords
                or (position is not None and most > position)
            ):
                unset[key] = _where(path, line)
        missing = [
            f"{where} {key}"
            for key, where in unset.items()
            if key not in PARAMETERS_KEPT_WITHOUT_CALLER
        ]
        assert missing == [], (
            "defaulted parameters no caller sets; make each a constant or "
            "pin it with its reason:\n" + "\n".join(missing)
        )
        assert sorted(set(PARAMETERS_KEPT_WITHOUT_CALLER) - set(unset)) == []


class TestOneReconciler:
    def test_only_the_reconcile_pass_calls_bulk_copy(self):
        """Replica repair is decided in one place, ``Rhino._reconcile``:
        every completed checkpoint, chain repair, the control takeover and
        a restart all run that pass.  A ``bulk_copy`` call anywhere else in
        ``src/`` would bring back a second repair rule -- copies one after
        another, or before the primary's first checkpoint -- so it fails
        here, naming file and line."""
        api = ROOT / "src" / "repro" / "core" / "api.py"
        allowed = set()
        for node in ast.walk(ast.parse(api.read_text(), str(api))):
            if isinstance(node, ast.FunctionDef) and node.name == "_reconcile":
                allowed.update(range(node.lineno, node.end_lineno + 1))
        assert allowed, "Rhino._reconcile not found in core/api.py"
        inside, outside = [], []
        for path, line in _calls_in_src("bulk_copy"):
            if path == api and line in allowed:
                inside.append(_where(path, line))
            else:
                outside.append(_where(path, line))
        assert outside == [], (
            "bulk_copy called outside Rhino._reconcile; run the reconcile "
            f"pass instead: {outside}"
        )
        assert len(inside) == 1, inside


class TestOneDurabilityChoice:
    def test_core_never_names_the_dfs_storage(self):
        """Where a checkpoint becomes durable -- Rhino's replica chains or
        RhinoDFS's DFS files -- is chosen once, where the deployment is
        built (``Rhino.attach``, ``make_rhinodfs``); ``core/`` asks the
        job's checkpoint storage.  A module under ``src/repro/core/`` that
        names ``DFSCheckpointStorage`` or reads a ``dfs_storage`` attribute
        would bring a second durability path back, so it fails here,
        naming file and line."""
        core = ROOT / "src" / "repro" / "core"
        found = []
        for path in sorted(core.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = []
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
                if {"DFSCheckpointStorage", "dfs_storage"} & set(names):
                    found.append(_where(path, node.lineno))
        assert found == [], (
            "core/ branches on the DFS storage; ask the job's checkpoint "
            f"storage instead: {found}"
        )


class TestExamplesSmoke:
    @staticmethod
    def run_example(name):
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / f"{name}.py")],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_quickstart_runs_end_to_end(self):
        stdout = self.run_example("quickstart")
        assert "handover report" in stdout
        assert "counted exactly once" in stdout

    @pytest.mark.parametrize(
        "name, verdicts",
        [
            ("load_balancing_skew", ["exactly-once counting verified"]),
            # Its three inline decision-makers each act and report.
            (
                "autonomous_operations",
                [
                    "counted exactly once",
                    "handover (failure)",
                    "load balance:",
                    "checkpoint interval",
                ],
            ),
            ("elastic_scaling", ["after second scale-out (DOP 8)"]),
            ("fault_tolerant_auctions", ["reconfiguration completed in"]),
        ],
        ids=[
            "load_balancing_skew",
            "autonomous_operations",
            "elastic_scaling",
            "fault_tolerant_auctions",
        ],
    )
    def test_reconfiguring_example_runs_end_to_end(self, name, verdicts):
        """The other examples that call ``Rhino.reconfigure`` or the
        harness's ``SutHandle.reconfigure`` (directly or from their own
        callbacks): a stale call site fails here."""
        stdout = self.run_example(name)
        assert [v for v in verdicts if v not in stdout] == []
