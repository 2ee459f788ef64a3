"""What ``service/sharded.py`` may know, how both engines answer an AKNN
bucket, what each engine defines itself, where a bucket's counts come from, what ``reference.py`` may import,
where a tolerance may be spelled, what the package may carry, and the
line-count script, as checks.

The sharded module is fan-out / failure policy, durability glue and topology.
Every family lives in its own module and reaches it only through public
names, so the index kernels, the geometry, scipy and the pieces a family is
built from are none of its business, and it defines no class of its own
beyond the shard and its failures.  The brute-force reference imports none
of the engine it is the specification for.  Every module under
``src/repro`` is reached from an entry point, every function, method and
class is reached from the package's own code, a script, a benchmark or an
example (the few references tests compare against are listed, each with its
reason), and every ``RuntimeConfig`` field is set by one of those roots, so
nothing ships that only its own tests use.  No request or write takes an
``rng``.  Read from the syntax tree: nothing is imported or executed.
"""

import ast
import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SHARDED = SRC / "repro" / "service" / "sharded.py"
CONFIG = SRC / "repro" / "config.py"

FORBIDDEN = ("scipy", "repro.index.soa", "repro.geometry")
PUBLIC_NAMES_ONLY = (
    "repro.core.aknn",
    "repro.core.executor",
    "repro.core.range_search",
    "repro.core.reverse_nn",
    "repro.core.rknn",
)
# The pieces a family's own partition-set function uses: a sharded module that
# imports one of them is writing a family again.
FAMILY_PIECES = (
    "RKNNSearcher",
    "PreparedQuery",
    "Timer",
    "merge_topk",
    "resolve_exact",
    "bootstrap_radii",
    "StoreStatistics",
)
SHARDED_CLASSES = {"_Shard", "_ShardStore", "_ShardFailure", "_FanoutFailure", "ShardedDatabase"}


def imports_of(path, importer=None):
    """``(module, imported name or None)`` for every import statement in a file.

    ``importer`` is the file's own dotted name, which a relative import is
    resolved against.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                assert importer, "relative import: resolve it before judging it"
                package = importer.split(".")[: -node.level]
                module = ".".join(package + ([node.module] if node.module else []))
            found.extend((module, alias.name) for alias in node.names)
    return found


def within(module, package):
    return module == package or module.startswith(package + ".")


def test_sharded_imports_no_kernel_geometry_or_scipy():
    imported = imports_of(SHARDED)
    assert imported, "no imports found: the check is not looking at the module"
    for module, name in imported:
        # ``from repro.index import soa`` is the same import spelled sideways
        spelled = [module] + ([f"{module}.{name}"] if name else [])
        for package in FORBIDDEN:
            assert not any(within(m, package) for m in spelled), (module, name)


def test_sharded_reaches_the_family_passes_through_public_names_only():
    names = []
    for module, name in imports_of(SHARDED):
        # the module itself in hand (``import m`` / ``from repro.core import
        # executor``) would reach its private names by attribute
        assert module not in PUBLIC_NAMES_ONLY or name is not None, module
        assert f"{module}.{name}" not in PUBLIC_NAMES_ONLY, (module, name)
        if module in PUBLIC_NAMES_ONLY:
            names.append(name)
    assert names, "the sharded hooks no longer import the shared passes"
    assert not [name for name in names if name.startswith("_")]


def test_sharded_writes_no_family():
    imported = {name or module.rsplit(".", 1)[-1] for module, name in imports_of(SHARDED)}
    assert "FuzzyDatabase" in imported, "the check is not looking at the module"
    assert not imported.intersection(FAMILY_PIECES), sorted(imported.intersection(FAMILY_PIECES))
    # range is answered by its family's one pass, like every other family
    assert "range_pass" in imported and "range_bucket" not in imported
    classes = {
        node.name
        for node in ast.walk(ast.parse(SHARDED.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert classes == SHARDED_CLASSES, sorted(classes ^ SHARDED_CLASSES)


DATABASE = SRC / "repro" / "core" / "database.py"
EXECUTOR = SRC / "repro" / "core" / "executor.py"
# What only ``aknn_bucket_pass`` may call: an engine hook that names one of
# them answers an AKNN bucket its own way again.
AKNN_BUCKET_PIECES = {"aknn_batch", "searcher_over", "bootstrap_radii"}


def referenced_names(tree):
    """Every identifier a syntax tree names: variables, attributes, imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rsplit(".", 1)[-1])
    return names


def test_both_engines_answer_an_aknn_bucket_through_one_pass():
    for path in (DATABASE, SHARDED):
        names = referenced_names(ast.parse(path.read_text()))
        assert "aknn_bucket_pass" in names, f"{path.name}: the check is not looking at the hook"
        assert not names & AKNN_BUCKET_PIECES, (path.name, sorted(names & AKNN_BUCKET_PIECES))


def test_the_batch_executor_keeps_no_representative_index():
    """The index belongs to whoever owns the partition set, not to one part."""
    executor_class = next(
        node
        for node in ast.parse(EXECUTOR.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "BatchQueryExecutor"
    )
    names = referenced_names(executor_class) | {
        node.name for node in ast.walk(executor_class) if isinstance(node, ast.FunctionDef)
    }
    assert "aknn_batch" in names, "the check is not looking at the class"
    assert not {name for name in names if "rep_index" in name}, sorted(names)
    assert "RepresentativeIndex" not in names and "bootstrap_radii" not in names


# The per-family searcher objects a database no longer holds: it runs each
# family's pass over itself, as the sharded database runs it over its shards.
SEARCHERS = {"AlphaRangeSearcher", "ReverseAKNNSearcher", "RKNNSearcher", "BatchQueryExecutor"}
# What both engines inherit from ``repro.core.requests.Engine``.
SHARED_SURFACE = {
    "execute", "execute_batch", "add_update_listener", "remove_update_listener",
    "_notify_insert", "_notify_delete", "__enter__", "__exit__",
}


def class_methods(path, name):
    """The names a class defines in its own body, and its bases."""
    node = next(
        node
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    methods = {m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return methods, {ast.unparse(base) for base in node.bases}


def test_the_database_imports_no_per_family_searcher():
    imported = {name for _, name in imports_of(DATABASE)}
    assert "aknn_bucket_pass" in imported, "the check is not looking at the module"
    assert not imported & SEARCHERS, sorted(imported & SEARCHERS)


def test_the_sharded_database_has_one_combinator():
    methods, _ = class_methods(SHARDED, "ShardedDatabase")
    assert "_coupled" in methods, "the check is not looking at the class"
    assert not {"_isolated", "_map_outcomes"} & methods


def test_the_engine_surface_is_written_once():
    for path, name in ((DATABASE, "FuzzyDatabase"), (SHARDED, "ShardedDatabase")):
        methods, bases = class_methods(path, name)
        assert bases == {"Engine"}, (name, bases)
        assert not methods & SHARED_SURFACE, (name, sorted(methods & SHARED_SURFACE))
        # a profiler patches these in the class's own __dict__
        hooks = {f"_execute_{family}_bucket" for family in ("aknn", "range", "sweep", "reverse")}
        assert hooks | {"insert", "delete", "recover"} <= methods, name
    engine, _ = class_methods(SRC / "repro" / "core" / "requests.py", "Engine")
    assert engine == SHARED_SURFACE


RANGE = SRC / "repro" / "core" / "range_search.py"
# What walking an R-tree looks like: its nodes' entries and children, a stack.
NODE_WALK = {"root", "entries", "children", "child", "is_leaf"}


def test_range_search_walks_no_tree_of_its_own():
    """One descent in the package: range reuses the AKNN batch traversal."""
    tree = ast.parse(RANGE.read_text())
    assert ("repro.core.executor", "shared_traversal") in imports_of(RANGE)
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attributes & NODE_WALK, sorted(attributes & NODE_WALK)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not {name for name in names if "stack" in name.lower()}


BUCKET_MODULES = [
    SRC / "repro" / "core" / f"{name}.py"
    for name in ("executor", "range_search", "reverse_nn", "rknn")
]


def test_bucket_modules_count_from_their_decision_record():
    """A bucket's per-query counts are read from its decision record, so no
    bucket module builds a ``MetricsCollector`` per query (one inside a
    comprehension) and every one of them writes a ``Decisions`` record."""
    for path in BUCKET_MODULES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                called = {
                    call.func.id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
                assert "MetricsCollector" not in called, (path.name, node.lineno)
        assert "Decisions" in referenced_names(tree), f"{path.name} writes no decision record"


REFERENCE = SRC / "repro" / "reference.py"
# What the brute-force reference must not share with the engine it checks.
ENGINE = (
    "scipy",
    "repro.index",
    "repro.storage",
    "repro.geometry",
    "repro.core",
    "repro.fuzzy.alpha_distance",
    "repro.fuzzy.profile",
    "repro.fuzzy.summary",
)


def test_reference_shares_no_code_with_the_engine():
    """Of the predicates, the reference takes only the alpha-cut test, which
    is the problem's own definition of a cut; nothing that prunes, confirms
    or steps."""
    imported = imports_of(REFERENCE, "repro.reference")
    assert ("repro.fuzzy.fuzzy_object", "FuzzyObject") in imported, (
        "the check is not looking at the module"
    )
    for module, name in imported:
        spelled = [module] + ([f"{module}.{name}"] if name else [])
        for package in ENGINE:
            assert not any(within(m, package) for m in spelled), (module, name)
        if within(module, "repro.predicates"):
            assert name == "at_least", (module, name)


PREDICATES = SRC / "repro" / "predicates.py"
# A tolerance is a float below this; 1e-6 and above are knobs and guards
# (``query_service.py``'s rate floor).
TOLERANCE_BELOW = 1e-6


def test_no_tolerance_outside_the_predicates():
    """Every float literal below ``TOLERANCE_BELOW`` in ``src/`` is in
    ``repro/predicates.py``, named and argued there."""
    found, kept = [], []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0.0 < abs(node.value) < TOLERANCE_BELOW:
                    spot = (path.relative_to(SRC).as_posix(), node.lineno, node.value)
                    (kept if path == PREDICATES else found).append(spot)
    assert kept, "the check is not looking at the predicates"
    assert not found, found


# What people run or import directly (the console script, the served surface),
# and what the tests check the engine against: the brute-force reference and
# the Sec. 5 cost model (imported by ``benchmarks/scale.py``, whose sweeps
# ``tests/test_paper.py`` asserts).
ENTRY_POINTS = (
    "repro.cli",
    "repro.service.query_service",
    "repro.service.sharded",
    "repro.reference",
    "repro.analysis.cost_model",
)


def package_modules():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def test_every_module_is_imported_outside_a_package_init():
    modules = package_modules()
    assert len(modules) > 40, "the walk is not looking at the package"
    reached = set()
    for importer, path in modules.items():
        if path.name == "__init__.py":
            continue  # a re-export keeps nothing alive
        for module, name in imports_of(path, importer):
            # ``from repro.index import soa`` names a module by its alias
            reached.update((module, f"{module}.{name}"))
    unreachable = [
        name
        for name, path in modules.items()
        if path.name != "__init__.py"
        and name not in reached
        and not any(within(name, entry) for entry in ENTRY_POINTS)
    ]
    assert not unreachable, unreachable


# Where the package is used from: its own module-level code, and every script,
# benchmark and example.  The tests are not a root.
ROOT_DIRECTORIES = ("benchmarks", "scripts", "examples")
# A string that can name a definition: ``"insert"``, ``"repro.index.soa"``,
# ``"repro.core.requests:execute_plan"`` (what ``getattr`` and patchers take).
NAME_LIKE = re.compile(r"[A-Za-z_][\w.:]*")
DEFINING = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# The only definitions nothing reaches: what tests compare the engine
# against.  At most ten entries; a tuple is one class's methods.
UNREACHED_ALLOWED = {
    (
        "repro.core.query.PreparedQuery.node_lower_bound",
        "repro.core.query.PreparedQuery.simple_lower_bound",
        "repro.core.query.PreparedQuery.improved_lower_bound",
        "repro.core.query.PreparedQuery.maxdist_upper_bound",
        "repro.core.query.PreparedQuery.representative_upper_bound",
        "repro.core.query.PreparedQuery.combined_upper_bound",
    ): "the scalar bounds the NodeSoA kernels are checked against, entry by entry",
    "repro.fuzzy.fuzzy_object.FuzzyObject.alpha_mbr": (
        "the exact alpha-cut box the Equation (2) box must enclose"
    ),
    "repro.fuzzy.summary.FuzzyObjectSummary.approx_alpha_mbr": (
        "the one-box Equation (2) that NodeSoA.approx_alpha_bounds is checked against"
    ),
    "repro.fuzzy.boundary.ConservativeLine.delta_at": (
        "the one-line Definition 6 value approx_alpha_mbr evaluates"
    ),
    "repro.fuzzy.fuzzy_object.FuzzyObject.representative_point": (
        "the per-object draw the stacked summary build is checked against"
    ),
    "repro.geometry.distance.set_to_set_distances": (
        "the full distance matrix the closest-pair kernels are checked against"
    ),
    "repro.fuzzy.fuzzy_object.reset_cut_cache_statistics": (
        "tests zero CUT_CACHE_STATS between cases; it goes with the cut cache"
    ),
}


def is_docstring(node):
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


class References:
    """The names some code refers to: identifiers, attributes, import aliases,
    name-like strings, and the names an f-string can spell
    (``f"_execute_{family}_bucket"``) as patterns.  Docstrings refer to
    nothing."""

    def __init__(self):
        self.names = set()
        self.patterns = []

    def add(self, tree, aliases=True):
        docs = {id(node.value) for node in ast.walk(tree) if is_docstring(node)}
        # ``f"{x:.3f}"``'s format spec is an f-string too, not a name
        specs = {
            id(node.format_spec)
            for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.format_spec
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.names.add(node.attr)
            elif isinstance(node, ast.alias) and aliases:
                self.names.update(node.name.split("."))
                self.names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docs and NAME_LIKE.fullmatch(node.value):
                    self.names.update(re.split("[.:]", node.value))
            elif isinstance(node, ast.JoinedStr) and id(node) not in specs:
                # a name assembled at run time joins its words with ``_``
                parts = [v.value for v in node.values if isinstance(v, ast.Constant)]
                if any("_" in part for part in parts) and all(
                    re.fullmatch(r"\w*", part) for part in parts
                ):
                    self.patterns.append(re.compile("".join(
                        re.escape(v.value) if isinstance(v, ast.Constant) else r"\w*"
                        for v in node.values
                    )))

    def refer_to(self, name):
        return name in self.names or any(p.fullmatch(name) for p in self.patterns)


def package_definitions():
    """``{qualified name: (name, enclosing class or None, nodes)}`` of every
    function, class and method under ``src/repro``, and the package's own
    module-level code (imports and ``__all__`` are not a use) as references."""
    definitions, module_code = {}, References()
    for module, path in package_modules().items():
        for statement in ast.parse(path.read_text()).body:
            if isinstance(statement, DEFINING):
                qualified = f"{module}.{statement.name}"
                definitions.setdefault(qualified, (statement.name, None, []))[2].append(statement)
                if isinstance(statement, ast.ClassDef):
                    for member in statement.body:
                        if isinstance(member, DEFINING):
                            definitions.setdefault(
                                f"{qualified}.{member.name}", (member.name, qualified, [])
                            )[2].append(member)
            elif is_docstring(statement) or isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            elif not (
                isinstance(statement, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in statement.targets)
            ):
                module_code.add(statement, aliases=False)
    return definitions, module_code


def own_code(node):
    """What a definition runs or names by itself: a class's decorators, bases
    and non-method body, a function's signature, decorators and body."""
    body = [s for s in node.body if not is_docstring(s)]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords] + [
            s for s in body if not isinstance(s, DEFINING)
        ]
    return [*node.decorator_list, node.args, *([node.returns] if node.returns else []), *body]


def unreached_definitions():
    """Qualified names no root reaches, transitively: a definition counts as
    reached when a root or a reached definition refers to its name (a method
    only once its class is reached; a dunder method with its class).  A
    method of an unreached class is reported as the class."""
    definitions, references = package_definitions()
    for directory in ROOT_DIRECTORIES:
        for path in sorted((REPO / directory).rglob("*.py")):
            references.add(ast.parse(path.read_text()))
    reached, grew = set(), True
    while grew:
        grew = False
        for qualified, (name, owner, nodes) in definitions.items():
            if qualified in reached or (owner is not None and owner not in reached):
                continue
            dunder = owner is not None and name.startswith("__") and name.endswith("__")
            if dunder or references.refer_to(name):
                reached.add(qualified)
                grew = True
                for node in nodes:
                    for code in own_code(node):
                        references.add(code, aliases=False)
    return sorted(
        qualified
        for qualified, (_, owner, _) in definitions.items()
        if qualified not in reached and (owner is None or owner in reached)
    ), set(definitions)


def test_everything_in_the_package_is_reached_from_a_root():
    """A request, a write, the CLI or a paper figure reaches every function,
    method and class under ``src/repro`` (a private one too), or it is on
    ``UNREACHED_ALLOWED``.  Matching is by name, so a collision can only
    hide dead code, never fail live code.  That is a blind spot: a method
    that only tests call stays unseen while a reached definition shares its
    name (``FuzzyObject.from_pairs`` hid behind ``IntervalSet.from_pairs``,
    ``ObjectStore.build`` behind ``FuzzyDatabase.build``)."""
    unreached, defined = unreached_definitions()
    assert len(defined) > 500, "the walk is not looking at the package"
    allowed = {
        name: reason
        for key, reason in UNREACHED_ALLOWED.items()
        for name in (key if isinstance(key, tuple) else (key,))
    }
    assert len(UNREACHED_ALLOWED) <= 10, "the allow-list is a list of exceptions"
    assert all(reason.strip() for reason in allowed.values())
    only_tests_reach = [name for name in unreached if name not in allowed]
    assert not only_tests_reach, only_tests_reach
    stale = sorted(set(allowed) - set(unreached))
    assert not stale, f"reached or gone, take off the allow-list: {stale}"


def test_every_runtime_config_field_is_set_by_someone():
    """Some root (the package outside ``config.py``, a benchmark, a script or
    an example) sets every field, as a keyword or an attribute; a field that
    only tests set is an option no caller uses."""
    config_class = next(
        node
        for node in ast.parse(CONFIG.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "RuntimeConfig"
    )
    fields = {
        node.target.id for node in config_class.body if isinstance(node, ast.AnnAssign)
    }
    assert len(fields) >= 10, "no fields found: the check is not looking at the class"
    assigned = set()
    for directory in ("src",) + ROOT_DIRECTORIES:
        for path in (REPO / directory).rglob("*.py"):
            if path == CONFIG:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword):
                    assigned.add(node.arg)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    assigned.update(
                        target.attr for target in targets if isinstance(target, ast.Attribute)
                    )
    assert not fields - assigned, sorted(fields - assigned)


RNG_ALLOWED = {
    ("core/database.py", "FuzzyDatabase.build"),
    ("service/sharded.py", "ShardedDatabase.build"),
    ("service/faults.py", "FaultPlan.random"),
}


def test_requests_and_writes_take_no_rng():
    """Nothing on the request or write path draws at random: Lemma 1's query
    sample is evenly spaced and ``rep(A)`` is drawn when an index is built.
    So no function under ``core/`` or ``service/`` takes an ``rng`` but the
    two builds and the fault plan's generator."""
    found = set()
    for package in ("core", "service"):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            relative = path.relative_to(SRC / "repro").as_posix()
            tree = ast.parse(path.read_text())
            owners = {
                child: node.name
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for child in node.body
            }
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                arguments = node.args
                names = {
                    argument.arg
                    for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                }
                if "rng" in names:
                    qualified = f"{owners[node]}.{node.name}" if node in owners else node.name
                    found.add((relative, qualified))
    assert found == RNG_ALLOWED, sorted(found ^ RNG_ALLOWED)


def test_net_lines_reports_moved_files_and_directory_totals():
    spec = importlib.util.spec_from_file_location(
        "net_lines", REPO / "scripts" / "net_lines.py"
    )
    net_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(net_lines)
    before = {"src/a.py": 10, "src/gone.py": 4, "tests/t.py": 7, "scripts/s.py": 1}
    after = {"src/a.py": 6, "tests/t.py": 7, "tests/new.py": 9, "scripts/s.py": 1}
    rows = [row.split() for row in net_lines.report(before, after)]
    assert rows == [
        ["-4", "10", "->", "6", "src/a.py"],
        ["-4", "4", "->", "0", "src/gone.py"],
        ["+9", "0", "->", "9", "tests/new.py"],
        ["-8", "14", "->", "6", "src/"],
        ["+9", "7", "->", "16", "tests/"],
        ["+0", "1", "->", "1", "scripts/"],
        ["+1", "22", "->", "23", "total"],
    ]
