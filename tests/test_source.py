"""Rules on the source of the z2spec package, read from its syntax trees,
and on the README's code and record names, run against the package."""

import ast
import re
from pathlib import Path

import z2spec.rings as rings
from z2spec.catalog import CATALOG, catalog_entry
from z2spec.instances import _KINDS
from z2spec.verify import RECORDS, SUITE_NAMES, run_verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "z2spec"
MODULES = sorted(SRC.glob("*.py"))

# where a cache dict may be read or written: the owners' constructors create
# it, and rings._memo is the one memo rule (rings module docstring, "Caches")
CACHE_SITES = {
    ("rings.py", "FiniteRing.__init__"),
    ("rings.py", "_memo"),
    ("grading.py", "GradedRing.__init__"),
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _scoped_nodes(node: ast.AST, scope: str = ""):
    """(dotted name of the innermost enclosing def or class, node) pairs."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_only_memo_and_the_owner_constructors_touch_cache():
    seen, stray = set(), []
    for path in MODULES:
        for scope, node in _scoped_nodes(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "_cache"
                    or isinstance(node, ast.Name) and node.id == "_cache"):
                if (path.name, scope) in CACHE_SITES:
                    seen.add((path.name, scope))
                else:
                    stray.append(f"{path.name}:{node.lineno} in {scope or '<module>'}")
    assert stray == []
    assert seen == CACHE_SITES


def test_memo_keys_per_argument_are_pinned():
    """A ``_memo(owner, key, compute)`` key is a name, or a tuple of a name
    and an argument.  A named entry is one per owner; a tuple-keyed name
    holds one entry per argument value, so these are the caches that grow
    with use: three keyed by a member mask and two by a method name."""
    named, per_argument = set(), set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_memo"):
                key = node.args[1]
                found = per_argument if isinstance(key, ast.Tuple) else named
                name = key.elts[0] if isinstance(key, ast.Tuple) else key
                assert isinstance(name, ast.Constant) and isinstance(name.value, str), \
                    f"{path.name}:{node.lineno}"
                found.add(name.value)
    assert named
    assert per_argument == {"span_path", "pair_bounds", "formula_radical",
                            "graded_spec", "graded_max"}


def test_only_the_odd_part_helpers_read_r1_generators():
    """Every product with R1 and every colon by R1 goes through
    ``grading._r1_products`` or ``grading._r1_colon``."""
    readers = []
    for path in MODULES:
        for scope, node in _scoped_nodes(_tree(path)):
            if (isinstance(node, ast.Name) and node.id == "_r1_generators"
                    or isinstance(node, ast.alias) and node.name == "_r1_generators"):
                readers.append((path.name, scope or "<module>"))
    assert sorted(readers) == [("grading.py", "_r1_colon"), ("grading.py", "_r1_products")]


def test_only_verify_and_the_graded_lattice_enumerate_ideals():
    """Spec and Max come from the idempotents: the flat ideal lattice is
    built only by ``verify``, for its oracles and counts, and as the even
    parts of the graded lattice."""
    callers = set()
    for path in MODULES:
        for scope, node in _scoped_nodes(_tree(path)):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "enumerate_ideals"
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == "enumerate_ideals"):
                callers.add("verify.py" if path.name == "verify.py"
                            else f"{path.name}:{scope}")
    assert callers == {"verify.py", "graded_ideals.py:enumerate_graded_ideals"}


def test_only_the_generators_property_searches_for_a_witness():
    """An ideal's or a submodule's label is a function of its member set,
    found when it is read (``rings`` docstring, "Labels"): no constructor
    forms one, and the one ``generators`` of the shared record base serves
    both families."""
    readers = []
    for path in MODULES:
        for scope, node in _scoped_nodes(_tree(path)):
            if (isinstance(node, ast.Name) and node.id == "_span_path"
                    or isinstance(node, ast.alias) and node.name == "_span_path"):
                readers.append((path.name, scope or "<module>"))
    assert readers == [("rings.py", "_StableSubgroup.generators")]


def test_only_the_translation_builder_reads_the_radix():
    """A ring's radix is set by its constructor and trusted: it is read to
    plan the mask translations (``rings._translator``) and, by the
    constructors, only to compose the radix of the ring they build, never
    to check it (a test checks each radix against its add table)."""
    composed, readers = set(), set()
    for path in MODULES:
        tree = _tree(path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "FiniteRing"):
                composed.update(id(inner) for kw in node.keywords if kw.arg == "radix"
                                for inner in ast.walk(kw.value))
        for scope, node in _scoped_nodes(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "radix"
                    and isinstance(node.ctx, ast.Load) and id(node) not in composed):
                readers.add((path.name, scope))
    assert readers == {("rings.py", "_translator.compute")}


def test_every_suite_function_of_verify_is_the_check_of_one_record():
    """A module-level function of ``verify.py`` named ``_<suite>_...`` is
    the check of exactly one ``RECORDS`` entry of that suite, so a record
    taken out of the table cannot leave its check behind."""
    prefixes = tuple(f"_{suite}_" for suite in SUITE_NAMES)
    defined = sorted(node.name for node in _tree(SRC / "verify.py").body
                     if isinstance(node, ast.FunctionDef) and node.name.startswith(prefixes))
    checks = sorted(check.__name__ for _, check in RECORDS)
    assert checks == defined  # each record's check once, and no other suite function
    assert [name for name, check in RECORDS
            if not check.__name__.startswith(f"_{name.partition('.')[0]}_")] == []


def _declares_slots(node: ast.ClassDef) -> bool:
    return any(isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__slots__" for target in stmt.targets)
        for stmt in node.body)


def test_every_lattice_record_declares_slots():
    """A lattice may hold hundreds of thousands of records, so none keeps an
    instance dict: every subclass of the record base
    ``rings._StableSubgroup``, and ``GradedPrime``, declares ``__slots__``."""
    records = {}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and (node.name == "GradedPrime" or any(
                    isinstance(base, ast.Name) and base.id == "_StableSubgroup"
                    for base in node.bases)):
                records[node.name] = _declares_slots(node)
    assert records == dict.fromkeys(["GradedIdeal", "GradedPrime", "Ideal", "Submodule"],
                                    True)


def _bound_names(stmt: ast.stmt) -> set:
    """The names a statement of a class body binds by ``def`` or ``=``."""
    if isinstance(stmt, ast.FunctionDef):
        return {stmt.name}
    return {node.id for target in getattr(stmt, "targets", ())
            for node in ast.walk(target) if isinstance(node, ast.Name)}


def test_only_the_record_base_defines_equality_and_hash():
    """Every record compares and hashes by the tuple of its field values,
    through ``rings._Record``: no other class defines or assigns ``__eq__``
    or ``__hash__``."""
    owners = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    _bound_names(stmt) & {"__eq__", "__hash__"} for stmt in node.body):
                owners.add(f"{path.stem}.{node.name}")
    assert owners == {"rings._Record"}


def test_a_passing_verify_searches_for_no_witness(monkeypatch):
    """A passing run prints no ideal or submodule label, so on cold caches
    it never calls the witness search."""
    calls = []
    search = rings._span_path

    def spy(ring, *args):
        calls.append(ring)
        return search(ring, *args)
    monkeypatch.setattr(rings, "_span_path", spy)
    for instance_id in ("gaussian-10", "trivext-2-f2x3"):
        entry = catalog_entry(instance_id)
        g = entry.build()
        for owner in (g, g.ring, g.r0_ring):
            monkeypatch.setattr(owner, "_cache", {})
        assert run_verify(entry.spec()).status == "pass"
    assert calls == []


def test_commands_print_no_definitional_spectrum():
    """The definitional graded spectrum is an oracle for ``verify`` and the
    library; the printing commands go through the contraction."""
    found = [f"{name}:{node.lineno}"
             for name in ("cli.py", "dot.py")
             for node in ast.walk(_tree(SRC / name))
             if isinstance(node, ast.Constant) and node.value == "definitional"]
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_the_kind_table_names_a_recipe_kind():
    """``instances._KINDS`` is the one statement of each recipe kind: no
    walk branches on a kind's name, so a string constant naming a kind
    appears in ``instances.py`` only as a key of the table."""
    tree = _tree(SRC / "instances.py")
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["_KINDS"])
    allowed = {id(key) for key in table.keys}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in _KINDS
             and id(node) not in allowed]
    assert stray == []
    assert sorted(key.value for key in table.keys) == sorted(_KINDS)


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", _readme_section("Library quick tour"),
                        re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_lists_the_keys_of_every_recipe_kind():
    listed = {}
    for kind, shape, keys in re.findall(r"^- `(\w+)` \((plain|graded)\): (.*)$",
                                        _readme_section("CLI"), re.M):
        required, _, optional = keys.partition("; optional ")
        listed[kind] = (shape == "graded", tuple(re.findall(r"`(\w+)`", required)),
                        tuple(re.findall(r"`(\w+)`", optional)))
    assert listed == {kind: row[:3] for kind, row in _KINDS.items()}


def test_readme_names_only_records_that_verify_emits():
    pattern = r"`((?:%s)\.[a-z0-9-]+)`" % "|".join(SUITE_NAMES)
    named = set(re.findall(pattern, _readme_section("What is checked where")))
    assert named
    emitted = set()
    for entry in CATALOG:
        if named <= emitted:
            break
        emitted |= {record.name for record in run_verify(entry.spec()).checks}
    assert sorted(named - emitted) == []


def test_readme_counts_the_records():
    counts = re.findall(r"lists the (\d+) records", _readme_section("What is checked where"))
    assert counts == [str(len(RECORDS))]
