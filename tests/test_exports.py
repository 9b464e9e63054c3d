"""Every public function or class of cmnlab is used by the program itself
(``src/``, ``bench/`` or ``tools/``, not counting the package's re-exports
in ``__init__.py``), or is one of the documented helpers that only the
tests' oracles call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmnlab"
# helpers that oracles are built from, the references for batched forms, and
# the audit oracles that PAPER.md lists as library features; matricize_interior
# is the documented interior matricization, the reference for the dVH
# interior that Criterion.matrices cuts from a stack; cmn is the README's
# library example, while detect and the audits read cmn.minor_norm through
# Criterion.from_spectra; partial_trace is the documented one-state form of
# the partial_trace_raw that detect calls; filter_to_fnf is acceptance
# criterion 8's filter normal form, the one-row case of filter_stack; and the
# one-state samplers random_fully_separable and random_fully_separable_sfnf
# are what the tests' oracles draw from (the bench tracer names spans after
# them, which is no call)
TEST_ONLY = {
    "trace_distance", "pauli",
    "unitary_from_angles", "correlation_space_map",
    "compound_matrix", "schatten_norm", "elementary_symmetric_bruteforce", "ppt_check",
    "matricize_interior", "cmn", "partial_trace", "filter_to_fnf",
    "random_fully_separable", "random_fully_separable_sfnf",
}
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def public_definitions():
    """(module, name) of each public module-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _bound_in(fn):
    """The names a function binds: its own name, its arguments and every
    name it assigns (nested scopes included, so a use may be missed but a
    local never counts)."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names | ({fn.name} if hasattr(fn, "name") else set())


def references(tree):
    """The names ``tree`` refers to: imported names, attributes, names read
    where no enclosing function or comprehension binds them, and bare-name
    strings (``"f"``, as a tracer patching by name holds them). A dotted
    string (``"module.f"``, a tracer's span name) patches nothing, and a bare
    string that is a cmnlab module's name (a tracer's layer) names the
    module, not a function of that name."""
    refs = set()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            outer = getattr(node, "decorator_list", []) + node.args.defaults
            for child in outer + [d for d in node.args.kw_defaults if d is not None]:
                visit(child, bound)
            inner = bound | _bound_in(node)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, inner)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            bound = bound | {n.id for g in node.generators for n in ast.walk(g.target)
                             if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier() and node.value not in MODULES:
                refs.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, set())
    return refs


def program_references():
    """The names the program refers to; a re-export in the package's
    ``__init__.py`` is not a use."""
    refs = set()
    for top in ("src", "bench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                refs |= references(ast.parse(path.read_text()))
    return refs


def test_every_public_name_is_used_by_the_program_or_listed():
    refs = program_references()
    unused = [f"{module}.{name}" for module, name in public_definitions()
              if name not in refs and name not in TEST_ONLY]
    assert unused == []


def test_the_test_only_names_are_public_and_unused():
    refs = program_references()
    public = {name for _, name in public_definitions()}
    assert TEST_ONLY <= public
    assert not TEST_ONLY & refs


def test_a_local_of_the_same_name_is_no_reference():
    # linalg's loop variable pauli shadows the function of that name
    tree = ast.parse("def f(r):\n    for pauli in r:\n        print(pauli)\n"
                     "g = lambda pauli: pauli\n"
                     "h = [pauli for pauli in range(3)]\n")
    assert "pauli" not in references(tree)
    assert {"print", "range"} <= references(tree)
    assert "pauli" in references(ast.parse("def f():\n    return pauli('x')\n"))


def test_a_bare_module_name_is_no_reference():
    # bench/tracer.py's layer "cmn" is the module, not the function cmn.cmn
    assert "cmn" not in references(ast.parse('LAYERS = ("cmn", "linalg")\n'))
    assert "minor_norm" in references(ast.parse('PATCHED = "minor_norm"\n'))


def test_a_dotted_string_is_no_reference():
    # bench/tracer.py names spans "module.f" and patches only bare-name pairs
    spans = ast.parse('SPANS = ("cmn.cmn", "normal_form.filter_to_fnf")\n')
    assert not {"cmn", "filter_to_fnf", "normal_form.filter_to_fnf"} & references(spans)
    assert {"main", "detect"} <= references(
        ast.parse('SELF_CALLS = (("cli", "main"), ("bounds", "detect"))\n'))
