"""Module boundaries inside the package: no private names cross modules,
and every option is declared once."""

import ast
from dataclasses import fields
from pathlib import Path

import mfcutfem
from mfcutfem.harness import RunConfig, _build_parser, _CONVERTERS
from mfcutfem.operators import Parameters

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mfcutfem"


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not offenders, "\n".join(offenders)


def test_options_are_declared_once():
    # RunConfig is the list of options: each field is a flag and a config key,
    # and each numerical Parameters option is one of its fields
    options = [f.name for f in fields(RunConfig) if f.name != "command"]
    flags = {a.dest for a in _build_parser()._actions if a.option_strings} - {"help", "config"}
    assert sorted(flags) == sorted(options)
    assert list(_CONVERTERS) == options
    assert {f.name for f in fields(Parameters)} - {"degree"} <= set(options)


def test_cut_quadrature_reads_the_level_set_only_through_eval():
    # _eval checks the shape and finiteness of every value and gradient read,
    # and no other module of the package reads the level set
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    (reader,) = [n for n in trees["cutquad.py"].body if isinstance(n, ast.FunctionDef) and n.name == "_eval"]
    inside = {id(n) for n in ast.walk(reader)}
    reads = [
        (name, n) for name, tree in trees.items() for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("value", "gradient")
    ]
    assert reads
    assert all(id(n) in inside for _, n in reads), [f"{name}:{n.lineno}" for name, n in reads if id(n) not in inside]


def test_one_class_per_level_set_shape():
    # a sphere is the one-ball union, so balls have one value and gradient
    tree = ast.parse((PACKAGE / "geometry.py").read_text(encoding="utf-8"))
    defined = {
        (cls.name, fn.name)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in ("value", "gradient")
    }
    assert defined == {(c, m) for c in ("BallUnionLevelSet", "HalfSpaceLevelSet") for m in ("value", "gradient")}


def _cached(source: str) -> list[str]:
    """Functions of a source decorated with functools.lru_cache or
    functools.cache, bare, called or as an attribute of functools."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(f"{node.lineno} {node.name}")
    return found


def test_no_function_keeps_a_process_wide_cache():
    # a memoized function is state that every caller in the process shares;
    # kernels build their 1D matrices when they are made, and keep them
    for snippet in ("@lru_cache(maxsize=None)\ndef f(k):\n    pass\n", "@functools.cache\ndef f(k):\n    pass\n"):
        assert _cached(snippet) == ["2 f"]
    offenders = [f"{p.name}:{where}" for p in sorted(PACKAGE.glob("*.py")) for where in _cached(p.read_text("utf-8"))]
    assert not offenders, "\n".join(offenders)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)



def _bound(fn) -> set[str]:
    """Names fn binds in its own scope: its parameters and the names it
    assigns to; nested functions keep theirs."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _named(tree) -> set[str]:
    """Names a module refers to: every attribute, and every name read where
    no enclosing function binds it as a parameter or assignment target."""
    named = set()

    def visit(node, bound):
        if isinstance(node, _SCOPES):
            bound = bound | _bound(node)
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            named.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return named


def _unused(defining: dict[str, str], calling: list[str], public=()) -> list[str]:
    """Functions and classes (dunder methods aside) of the defining sources,
    by file name, that no calling source names and that are not public, as
    "file:line name"."""
    defined = {}
    for name, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
    named = set(public).union(*(_named(ast.parse(source)) for source in calling))
    return [f"{where} {name}" for name, where in defined.items() if name not in named]


def test_every_definition_has_a_caller():
    # a function or class of the package is public (in __all__) or named by
    # the package, the demos or perfbench; tests and __init__.py do not count,
    # and dunder methods are called by Python itself
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    callers = [source for name, source in modules.items() if name != "__init__.py"]
    callers += [p.read_text(encoding="utf-8") for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")
                if not p.name.startswith("test_")]
    unused = _unused(modules, callers, mfcutfem.__all__)
    assert not unused, "\n".join(unused)


def test_a_name_bound_in_a_function_does_not_name_a_definition():
    # a parameter or local variable that shares a dead function's name
    # reads the binding, not the function
    dead = "def f():\n    pass\n"
    assert _unused({"dead.py": dead}, ["def g(f):\n    return f()\n"]) == ["dead.py:1 f"]
    assert _unused({"dead.py": dead}, ["def g(x):\n    f = x\n    return [f for _ in x]\n"]) == ["dead.py:1 f"]
    assert _unused({"dead.py": dead}, ["def g(x):\n    return lambda f: f(x)\n"]) == ["dead.py:1 f"]
    # a read outside the binding function, or of an attribute, still names it
    assert _unused({"dead.py": dead}, ["def g(f):\n    return f\n\n\ndef h():\n    return f()\n"]) == []
    assert _unused({"dead.py": dead}, ["def g(x):\n    return x.f()\n"]) == []


def test_only_operators_knows_the_point_last_tensor_layout():
    # the 1D tables of the cut points and the basis rows built from them are
    # tabulated and read in operators alone; other modules go through
    # build_context, cut_block and the kernels
    layout = {"tabulate", "_tensor_rows"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        offenders += [f"{path.name} names {name}" for name in sorted(layout & (_named(tree) | imported))
                      if path.name != "operators.py"]
    assert not offenders, "\n".join(offenders)


def _attributes_read(source: str, base: str | None = None, outside: str | None = None) -> set[str]:
    """Attributes a source reads, of the name base only if given, outside the
    top-level function or class named outside."""
    tree = ast.parse(source)
    nodes = [n for n in tree.body if not (isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == outside)]
    return {
        n.attr for top in nodes for n in ast.walk(top)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and (base is None or isinstance(n.value, ast.Name) and n.value.id == base)
    }


def test_every_setting_is_read():
    # a Parameters field is read in operators, outside its own class, and a
    # RunConfig option that is not one is read as cfg.<name> in the harness,
    # outside its validation: a setting nothing reads is a setting to drop
    snippet = "class P:\n    a: int\n    def f(self):\n        return self.a\n\n\ndef g(cfg):\n    return cfg.b, x.c\n"
    assert _attributes_read(snippet, outside="P") == {"b", "c"}
    assert _attributes_read(snippet, "cfg", outside="P") == {"b"}
    params = {f.name for f in fields(Parameters)} - {"degree"}
    read = _attributes_read((PACKAGE / "operators.py").read_text(encoding="utf-8"), outside="Parameters")
    assert not params - read, sorted(params - read)
    options = {f.name for f in fields(RunConfig)} - {"command"} - params
    read = _attributes_read((PACKAGE / "harness.py").read_text(encoding="utf-8"), "cfg", outside="validate_config")
    assert not options - read, sorted(options - read)
