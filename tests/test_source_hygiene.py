"""Source hygiene of `src/polinv`, read with `ast` alone: every imported name
is used in its module, every module-level private name is referenced
somewhere in the package besides its own definition, and so is every
module-level function and class but four that the benchmark traces, and
every method, classmethod and property of a class; nothing evaluated at
import builds a list, dict or set, the `caps` record is handed on whole,
one function turns a list of rationals into ints, and no function calls
itself except two whose depth is bounded."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polinv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _annotation_names(node):
    """Names inside the string annotations under `node` ("Poly" and the like)."""
    out = set()
    for sub in ast.walk(node):
        annotations = []
        if isinstance(sub, ast.arg):
            annotations = [sub.annotation]
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [sub.returns]
        elif isinstance(sub, ast.AnnAssign):
            annotations = [sub.annotation]
        for ann in annotations:
            for c in ast.walk(ann) if ann is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    out.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                               if isinstance(n, ast.Name))
    return out


def _references(node):
    """Names that `node` reads: loaded names, attribute names and names in
    string annotations."""
    out = _annotation_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _defined(stmt):
    """Module-level names that the top-level statement `stmt` binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    assert sorted(imported - used - _annotation_names(tree)) == []


def test_every_private_module_name_is_referenced():
    trees = {path: _tree(path) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    private = []
    for path, tree in trees.items():
        for stmt in tree.body:
            own = _defined(stmt)
            # a definition's own body (a recursive call) does not count
            referenced |= _references(stmt) - own
            private += [(path.name, name) for name in sorted(own) if _private(name)]
    assert [p for p in private if p[1] not in referenced] == []


# no module of the package calls these four, but the benchmark's TRACED table
# (perfbench/spans.py) wraps them by name; they leave `src` together with
# that table's change
TRACED_ONLY = {
    ("groups", "reynolds"),  # ROADMAP item 14
    ("linalg", "rref"),  # ROADMAP item 14
    ("linalg", "solve_in_span"),  # ROADMAP item 14
    ("nullcone", "binary_form_nullcone_member"),  # ROADMAP item 14
}


def _scenario_functions():
    """The function names in `cli._SCENARIOS`, which the CLI reaches by `getattr`."""
    (table,) = [stmt.value for stmt in _tree(SRC / "cli.py").body
                if isinstance(stmt, ast.Assign) and _defined(stmt) == {"_SCENARIOS"}]
    return {row.elts[2].value for row in table.elts}


def test_every_module_level_function_and_class_is_referenced():
    # a function or class that no module of the package reaches is a dead
    # helper.  A reference is a load or an import of its name, the attribute
    # `module.name` of its own module (an attribute of anything else, as
    # `caps.monomials`, is another name) or a scenario of `cli._SCENARIOS`;
    # the strings of `__init__._EXPORTS` and the definition's own body
    # reach nothing
    referenced = _scenario_functions()
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _tree(path).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
                if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                    defined.add((path.stem, stmt.name))
            reached = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    reached.add(f"{node.value.id}.{node.attr}")
                elif isinstance(node, ast.alias):
                    reached.add(node.asname or node.name)
            referenced |= reached - own
    unreferenced = {(module, name) for module, name in defined
                    if not {name, f"{module}.{name}"} & referenced}
    assert sorted(unreferenced) == sorted(TRACED_ONLY)


def _attribute_reads(node):
    """The names that `node` reads as attributes (`x.name`), with their counts."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_class_member_is_read_as_an_attribute():
    # a method, classmethod or property that no code of the package reads as
    # `x.name` outside its own body is dead surface.  `ast` cannot tell the
    # type of `x`, so a read of the name on any object counts, and a member
    # that shares its name with a live one escapes this test; a bare name (a
    # local variable such as `scale`) is not a read of the member.  Dunder
    # protocol (`__neg__`, `__rsub__`) is reached by the operators.
    trees = [(path.stem, _tree(path)) for path in sorted(SRC.glob("*.py"))]
    reads = sum((_attribute_reads(tree) for _, tree in trees), Counter())
    unread = []
    for module, tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__") and fn.name.endswith("__"))
                        and reads[fn.name] == _attribute_reads(fn)[fn.name]):
                    unread.append((module, cls.name, fn.name))
    assert unread == []


MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _evaluated_on_import(node):
    """The nodes under `node` that run when the module is imported: all but
    the bodies of functions and lambdas, whose decorators and default values
    do run."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            for sub in [*getattr(child, "decorator_list", ()), *args.defaults,
                        *filter(None, args.kw_defaults)]:
                yield from ast.walk(sub)
        else:
            yield child
            yield from _evaluated_on_import(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_mutable_display(path):
    # module-level state is immutable: a table is a tuple, not a list or dict
    found = [(node.lineno, type(node).__name__) for node in _evaluated_on_import(_tree(path))
             if isinstance(node, MUTABLE_DISPLAYS)]
    assert found == []


def _names(tree):
    """Every name that `tree` defines, imports, loads or reads as an attribute,
    and every string constant (a name in a table such as `__init__`'s exports)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.update({node.name, node.asname} - {None})
    return out


def test_rref_is_named_only_where_it_is_defined_and_exported():
    # every span question in the package reads `_echelon`; `rref` is an entry
    # point for library callers, defined in `linalg` and exported by `__init__`
    naming = [path.name for path in sorted(SRC.glob("*.py")) if "rref" in _names(_tree(path))]
    assert naming == ["__init__.py", "linalg.py"]


def test_cli_reaches_the_package_through_the_lazy_module_objects():
    # `from . import reports` binds a lazy module, which executes on its first
    # attribute access; `from .reports import check` would execute `reports`
    # at start-up for every command.  No import sits inside a function.
    tree = _tree(SRC / "cli.py")
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [m for m in imported if m.startswith((".", "polinv"))] == [".", ".limits"]
    nested = [node.lineno for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_echelon_takes_only_rows_and_no_call_passes_track():
    # one elimination path: relations are read back from the steps the loop
    # logs, so `_echelon` has no option and no call in the package passes one
    (echelon,) = [node for node in _tree(SRC / "linalg.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_echelon"]
    args = echelon.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["rows"]
    assert args.vararg is None and args.kwarg is None
    passing = [(path.name, node.lineno) for path in MODULES for node in ast.walk(_tree(path))
               if isinstance(node, ast.Call)
               and any(k.arg == "track" for k in node.keywords)]
    assert passing == []


def _parameters(fn):
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def test_every_call_between_capped_functions_passes_caps():
    # the caps travel as one `Caps` record: a function that takes `caps` hands
    # it to every package function it calls that takes one, so no scenario or
    # command runs one of them at the default caps by omission
    functions = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(_tree(path)) if isinstance(node, ast.FunctionDef)]
    assert [(name, fn.name) for name, fn in functions
            if {"cap", "monomial_cap", "span_cap"} & set(_parameters(fn))] == []
    capped = [(name, fn) for name, fn in functions if "caps" in _parameters(fn)]
    names = {fn.name for _, fn in capped}
    assert {"builtin_family", "polarize", "membership", "capped_layout"} <= names
    missing = []
    for name, fn in capped:
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            passed = [*call.args, *(k.value for k in call.keywords)]
            if callee in names and not any(isinstance(a, ast.Name) and a.id == "caps"
                                           for a in passed):
                missing.append((name, fn.name, call.lineno, callee))
    assert missing == []


def _calls_by_function(tree, callee):
    """The qualified names ("Class.method" or "function") of the functions and
    methods in `tree` that call `callee` by name or as an attribute."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == callee:
                    out.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return out


def test_only_scaled_clears_a_list_of_denominators():
    # `linalg._scaled` is the one way from a list of rationals to ints over
    # the lcm of their denominators; the two other lcms have another shape
    # (a two-term common denominator, and one over the terms of a sum)
    calling = {(path.name, name) for path in MODULES
               for name in _calls_by_function(_tree(path), "lcm")}
    assert calling == {("linalg.py", "_scaled"), ("linalg.py", "_fm_solve"),
                       ("poly.py", "Poly.substitute")}


def _callee(call):
    """The name a call reaches itself by: a bare name, or a method of `self`
    or `cls` (`super().__init__` is another function)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("self", "cls"):
        return func.attr
    return None


def _self_calls(tree):
    """The qualified names ("Class.method", "outer.inner" or "function") of
    the functions in `tree` that call themselves by name."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(c, ast.Call) and _callee(c) == child.name
                        for c in ast.walk(child)):
                    out.add(".".join(inner))
                visit(child, inner)

    visit(tree, [])
    return out


def test_no_function_calls_itself():
    # a recursion whose depth grows with the input ends in a RecursionError
    # (exit 1, read as "no") long before any cap; these two are bounded: the
    # fixed nesting of a report and the box dimension of the oracle (at most
    # 3 in every call in the package)
    recursive = {(path.name, name) for path in sorted(SRC.glob("*.py"))
                 for name in _self_calls(_tree(path))}
    assert recursive == {("reports.py", "jsonable"),
                         ("nullcone.py", "brute_box_functional.descend")}
