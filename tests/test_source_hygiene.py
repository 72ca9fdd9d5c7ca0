"""Source hygiene of the package modules, read with the stdlib ``ast`` only:
no unused imports, no unreferenced private functions or methods, no
private attribute read that the reading module does not define, and no
parameter that its function never reads."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tagmap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bare_names(tree):
    """Every bare name the module mentions, outside the import statements
    and the ``def`` lines that bind names."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _attributes(tree):
    """Every attribute name the module reads or writes, as in ``self._x``."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _imported(tree):
    """The names the module's imports bind, ``__future__`` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_defs(tree):
    """The names of private functions and methods, dunder methods aside."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _private(node.name)):
            yield node.name


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"typegraph.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    read = _bare_names(tree)
    assert [name for name in _imported(tree) if name not in read] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_is_referenced_in_its_module(path):
    tree = _tree(path)
    read = _bare_names(tree) | _attributes(tree)
    assert [name for name in _private_defs(tree) if name not in read] == []


# the NamedTuple methods whose names start with an underscore
NAMEDTUPLE_API = {"_replace", "_fields", "_asdict", "_make"}


def _foreign_private_reads(tree):
    """The private attributes read as ``x._name`` on anything but a bare
    ``self`` or ``cls`` that the module neither defines as a function or
    method nor uses on ``self``, NamedTuple's own aside."""
    own = set(_private_defs(tree))
    foreign = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            if node.value.id == "self":
                own.add(node.attr)
        elif isinstance(node.ctx, ast.Load) and node.attr not in NAMEDTUPLE_API:
            foreign.append((node.lineno, node.attr))
    return [(line, name) for line, name in foreign if name not in own]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_privates_are_read_only_in_their_own_module(path):
    # callers do not reach into another module's privates, such as the
    # masks a ``TypeGraph`` keeps
    assert _foreign_private_reads(_tree(path)) == []


def _unread_parameters(tree):
    """The parameters of each ``def`` that its body never reads, ``self``,
    ``cls`` and the parameters of dunder methods, fixed by their protocol,
    aside."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p.arg not in read and p.arg not in ("self", "cls"):
                yield node.name, p.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert list(_unread_parameters(_tree(path))) == []


def _constant(node):
    """A literal, or an all-caps module name, as a comparable key; None for
    any other expression."""
    if isinstance(node, ast.Constant):
        return "literal", repr(node.value)
    if isinstance(node, ast.Name) and node.id.isupper():
        return "name", node.id
    return None


def _constant_parameters(tree):
    """The parameters of each private function that every call in the
    module passes the same literal or the same all-caps name; ``self``,
    ``cls`` and dunder methods aside.  A function that is defined twice,
    referenced other than by a call, or called with ``*`` or ``**``
    arguments is skipped, since its calls are not all seen."""
    defs = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _private(node.name)):
            defs[node.name] = None if node.name in defs else node
    calls = {name: [] for name in defs}
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in calls:
                calls[name].append(node)
                called.add(id(f))
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", None))
        if (isinstance(node, (ast.Name, ast.Attribute)) and name in calls
                and id(node) not in called):
            defs[name] = None
    for name, fn in defs.items():
        if fn is None or not calls[name]:
            continue
        params = [p.arg for p in fn.args.posonlyargs + fn.args.args]
        bound = 1 if params[:1] in (["self"], ["cls"]) else 0
        passed = {p: set() for p in params[bound:] + [
            p.arg for p in fn.args.kwonlyargs]}
        for call in calls[name]:
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                break
            given = dict(zip(params[bound:], call.args))
            given.update((k.arg, k.value) for k in call.keywords)
            for p, values in passed.items():
                values.add(_constant(given[p]) if p in given else None)
        else:
            yield from ((name, p) for p, values in passed.items()
                        if len(values) == 1 and None not in values)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_parameter_is_always_passed_one_constant(path):
    # such a parameter is a constant of the function, not an input
    assert list(_constant_parameters(_tree(path))) == []


def _self_reaching(tree):
    """The module-level functions that reach themselves through calls by
    plain name to module-level functions; calls of attributes, such as
    ``x.render()``, are not followed, since method names collide across
    classes."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    calls = {name: {node.func.id for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id in defs}
             for name, fn in defs.items()}
    for name in defs:
        reached, todo = set(), list(calls[name])
        while todo:
            callee = todo.pop()
            if callee not in reached:
                reached.add(callee)
                todo += calls[callee]
        if name in reached:
            yield name


# each function that reaches itself, by module, with the module constant
# that bounds the depth of its recursion
BOUNDED_RECURSION = {
    "specexpr.py": {name: "MAX_SPEC_DEPTH" for name in (
        "_parse_expr", "_parse_term", "_parse_factor", "_walk",
        "render_expr")},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_recursion_has_a_named_bound(path):
    # a depth that input can grow without a bound ends in RecursionError
    tree = _tree(path)
    bounds = BOUNDED_RECURSION.get(path.name, {})
    assert sorted(_self_reaching(tree)) == sorted(bounds)
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    assert set(bounds.values()) <= constants
