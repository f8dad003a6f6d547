"""Import hygiene: every module under the package uses what it imports,
every name it exports exists, and its ``__all__`` lists exactly the public
functions and classes it defines; every CLI option is read; every
parameter default of a package function is overridden by some caller;
every ``*args`` or ``**kwargs`` parameter is filled by one; every public
function, method and property is named by the program that ships; no
module reads the process environment; only the declared functions keep
state between calls, each through a ``functools`` cache decorator; and no
two ``raise`` sites spell the same message, so each input rule is checked
in one place.

No linter ships with the project, so these stdlib AST scans are the guard.
The package ``__init__`` is skipped by the import scan: its imports are
re-exports.
"""

import argparse
import ast
import importlib
import inspect
import math
import textwrap
from pathlib import Path

import guidedproc
from guidedproc import cli

PACKAGE = Path(guidedproc.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nimport os as _os\nfrom json import dumps, loads\nloads\n")
    assert unused_imports(module) == ["_os", "dumps", "math"]


def test_every_exported_name_resolves():
    modules = [guidedproc] + [
        importlib.import_module(f"guidedproc.{p.stem}")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    ]
    missing = {
        m.__name__: [n for n in m.__all__ if not hasattr(m, n)]
        for m in modules
        if hasattr(m, "__all__")
    }
    assert {name: names for name, names in missing.items() if names} == {}


def unlisted_and_foreign(module) -> tuple[list[str], list[str]]:
    """The public functions and classes a module defines but leaves out of
    its ``__all__``, and the functions and classes it lists but does not
    define (constants may be listed freely)."""
    def api(names):
        return {
            n for n in names
            if not n.startswith("_")
            and (inspect.isfunction(getattr(module, n)) or inspect.isclass(getattr(module, n)))
        }

    listed = api(n for n in module.__all__ if hasattr(module, n))
    defined = {n for n in api(vars(module)) if getattr(module, n).__module__ == module.__name__}
    return sorted(defined - listed), sorted(listed - defined)


def test_all_lists_exactly_the_public_functions_and_classes():
    modules = [
        importlib.import_module(f"guidedproc.{p.stem}")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    ]
    mismatched = {m.__name__: unlisted_and_foreign(m) for m in modules if hasattr(m, "__all__")}
    assert {name: pair for name, pair in mismatched.items() if pair != ([], [])} == {}
    assert {m.__name__ for m in modules if not hasattr(m, "__all__")} == {"guidedproc.cli"}


def test_all_scan_flags_both_directions():
    import types

    module = types.ModuleType("m")
    exec("import json\nfrom json import dumps\ndef f(): pass\ndef g(): pass\n", vars(module))
    module.__all__ = ["f", "dumps", "CONSTANT"]
    module.CONSTANT = 1
    assert unlisted_and_foreign(module) == (["g"], ["dumps"])


def unread_options() -> dict[str, list[str]]:
    """Per subcommand of ``cli._build_parser``, the option dests that its
    ``cmd_*`` function never reads as ``args.<dest>``."""
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = {}
    for name, sub in commands.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(cli._COMMANDS[name])))
        read = {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
        }
        unread[name] = sorted({a.dest for a in sub._actions} - {"help"} - read)
    return unread


def test_every_cli_option_is_read():
    unread = unread_options()
    assert set(unread) == set(cli._COMMANDS)
    assert {name: dests for name, dests in unread.items() if dests} == {}


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """``line: name`` for each ``os.environ``/``os.getenv`` attribute the
    module reads or imports: an environment variable is a knob that the
    option and default scans cannot see."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            reads.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"{node.lineno}: {a.name}" for a in node.names if a.name in ENVIRONMENT_READERS]
    return sorted(reads)


def test_no_module_reads_the_environment():
    reads = {p.name: environment_reads(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}


def test_environment_scan_flags_each_reader(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom os import getenv, path\n"
        "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.join('z')\n"
    )
    assert environment_reads(module) == ["2: getenv", "3: environ", "4: getenv"]


def repeated_messages(modules) -> dict[str, list[str]]:
    """Each message that two or more ``raise`` sites of the `modules` files
    pass, as the unparsed first argument of the raised call, with the
    ``module:line`` of every site."""
    sites = {}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                message = ast.unparse(node.exc.args[0])
                sites.setdefault(message, []).append((path.stem, node.lineno))
    return {
        message: [f"{stem}:{line}" for stem, line in sorted(where)]
        for message, where in sites.items()
        if len(where) > 1
    }


def test_no_two_raise_sites_share_a_message():
    assert repeated_messages(sorted(PACKAGE.glob("*.py"))) == {}


def test_message_scan_flags_a_repeated_message(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(x, where):\n"
        "    if x < 0:\n        raise ValueError('x must be >= 0')\n"
        "    if x > 9:\n        raise KeyError(f'{where}: x too big')\n"
        "    if x == 5:\n        raise TypeError('x must be >= 0')\n"
        "    raise ValueError(f'{where}: x too big', x)\n"
        "def g(exc):\n"
        "    raise ValueError('x must be > 0')\n"
        "    raise exc\n"
        "    raise ValueError\n"
        "    raise ValueError()\n"
        "    raise ValueError\n"
    )
    assert repeated_messages([module]) == {
        "'x must be >= 0'": ["m:3", "m:7"],
        "f'{where}: x too big'": ["m:5", "m:8"],
    }


CACHE_DECORATORS = {"cache", "lru_cache"}
CONTAINER_WRITERS = {"pop", "setdefault", "update", "clear", "append"}
# The package's process-wide state: the parser that cli.main builds once,
# solve_graph's bounded memo of terminal continuation tables, and
# load_model_file's bounded memo of parsed model documents.
STATE_KEEPERS = ["cli._build_parser", "graph._terminal_onward", "io._parsed_document"]


def state_keepers(path: Path) -> dict[str, list[str]]:
    """``module.function`` for each function or method of the module that
    keeps state between calls, with the sorted kinds of state it keeps:
    "cache" when it or a function inside it is decorated with
    ``functools.cache`` or ``lru_cache``, "global" when it holds a
    ``global`` statement, and "container" when it writes a container bound
    at module level and not in the function, by ``NAME[...] = ...``,
    ``del NAME[...]`` or a call of one of CONTAINER_WRITERS on it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    shared = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            shared |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    defined = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    defined += [
        (f"{c.name}.{n.name}", n)
        for c in tree.body if isinstance(c, ast.ClassDef)
        for n in c.body if isinstance(n, ast.FunctionDef)
    ]
    keepers = {}
    for name, fn in defined:
        inner = list(ast.walk(fn))
        local = {n.arg for n in inner if isinstance(n, ast.arg)}
        local |= {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}

        def module_level(expr):
            return isinstance(expr, ast.Name) and expr.id in shared - local

        def cached(decorator):
            f = decorator.func if isinstance(decorator, ast.Call) else decorator
            return getattr(f, "attr", getattr(f, "id", None)) in CACHE_DECORATORS

        def kind(n):
            if isinstance(n, ast.Global):
                return "global"
            if isinstance(n, ast.FunctionDef) and any(map(cached, n.decorator_list)):
                return "cache"
            if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load):
                return "container" if module_level(n.value) else None
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) in CONTAINER_WRITERS:
                return "container" if module_level(n.func.value) else None
            return None

        kinds = sorted({kind(n) for n in inner} - {None})
        if kinds:
            keepers[f"{path.stem}.{name}"] = kinds
    return keepers


def test_only_the_declared_functions_keep_state():
    keepers = {k: v for p in sorted(PACKAGE.glob("*.py")) for k, v in state_keepers(p).items()}
    assert sorted(keepers) == STATE_KEEPERS
    # each through a stdlib cache, never a hand-kept container or a global
    assert {k: kinds for k, kinds in keepers.items() if kinds != ["cache"]} == {}


def test_state_scan_flags_each_keeper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import functools\nfrom functools import lru_cache\nimport numpy as np\n"
        "_memo = {}\n_seen: list = []\nLIMIT = 3\n"
        "@functools.cache\ndef a(): pass\n"
        "@lru_cache(maxsize=2)\ndef b(): pass\n"
        "def c(k): _memo[k] = 1\n"
        "def d():\n    global LIMIT\n    LIMIT = 4\n"
        "def e(): _seen.append(1)\n"
        "def f(): del _memo['x']\n"
        "def g():\n    _memo = {}\n    _memo['x'] = 1\n"
        "def h(_seen): _seen.append(1)\n"
        "def i(): return _memo.get('x'), np.append([], 1)\n"
        "def j():\n    @functools.lru_cache\n    def inner(): pass\n    return inner\n"
        "@lru_cache\ndef k(x):\n    global LIMIT\n    _memo[x] = LIMIT = x\n"
        "class K:\n    def m(self): _memo.update(x=1)\n    def n(self): return LIMIT\n"
    )
    assert state_keepers(module) == {
        "m.a": ["cache"],
        "m.b": ["cache"],
        "m.c": ["container"],
        "m.d": ["global"],
        "m.e": ["container"],
        "m.f": ["container"],
        "m.j": ["cache"],
        "m.k": ["cache", "container", "global"],
        "m.K.m": ["container"],
    }


def calls_by_name(callers) -> dict[str, list[ast.Call]]:
    """Every call in the `callers` files, keyed by the called name."""
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def functions(modules):
    """(path, function definition) for every function in the `modules` files."""
    for path in modules:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, fn


def positional_parameters(fn) -> tuple[list[ast.arg], int]:
    """The parameters a call can fill by position, and 1 for a method's
    ``self`` or ``cls``, which takes no position, else 0."""
    positional = fn.args.posonlyargs + fn.args.args
    return positional, 1 if positional and positional[0].arg in ("self", "cls") else 0


def unset_parameters(modules, callers) -> list[str]:
    """``module.function(parameter)`` for each parameter with a default,
    of a function defined in the `modules` files, that no call of the
    function's name in the `callers` files sets, by keyword or by position.
    A call that unpacks ``*args`` or ``**kwargs`` sets them all; a method's
    ``self`` or ``cls`` takes no position."""
    calls = calls_by_name(callers)
    unset = []
    for path, fn in functions(modules):
        a = fn.args
        positional, shift = positional_parameters(fn)
        first = len(positional) - len(a.defaults)
        # (name, position in a call), inf for keyword-only parameters
        defaulted = [(p.arg, i - shift) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, math.inf) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        set_by = set()
        for call in calls.get(fn.name, []):
            unpacks = any(isinstance(x, ast.Starred) for x in call.args)
            unpacks |= any(k.arg is None for k in call.keywords)
            set_by |= {k.arg for k in call.keywords}
            set_by |= {n for n, i in defaulted if unpacks or i < len(call.args)}
        unset += [f"{path.stem}.{fn.name}({n})" for n, _ in defaulted if n not in set_by]
    return sorted(unset)


def unfilled_variadics(modules, callers) -> list[str]:
    """``module.function(*args)`` or ``module.function(**kwargs)`` for each
    variadic parameter, of a function defined in the `modules` files, that
    no call of the function's name in the `callers` files fills: ``*args``
    by a positional argument past the named ones or by unpacking a
    sequence, ``**kwargs`` by a keyword that names no parameter or by
    unpacking a mapping."""
    calls = calls_by_name(callers)
    unfilled = []
    for path, fn in functions(modules):
        a, of = fn.args, calls.get(fn.name, [])
        positional, shift = positional_parameters(fn)
        named = {p.arg for p in positional + a.kwonlyargs}
        if a.vararg and not any(
            len(c.args) > len(positional) - shift or any(isinstance(x, ast.Starred) for x in c.args)
            for c in of
        ):
            unfilled.append(f"{path.stem}.{fn.name}(*{a.vararg.arg})")
        if a.kwarg and not any(k.arg is None or k.arg not in named for c in of for k in c.keywords):
            unfilled.append(f"{path.stem}.{fn.name}(**{a.kwarg.arg})")
    return sorted(unfilled)


def package_and_callers() -> tuple[list[Path], list[Path]]:
    """The package's modules, and every Python file that may call them."""
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [
        p for d in ("src", "tests", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
    ]
    assert modules and callers
    return modules, callers


def test_every_parameter_default_is_overridden_somewhere():
    assert unset_parameters(*package_and_callers()) == []


def test_every_variadic_parameter_is_filled_somewhere():
    assert unfilled_variadics(*package_and_callers()) == []


def test_default_scan_flags_an_unset_parameter(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0, y=1): pass\n"
        "class K:\n"
        "    def m(self, z=1): pass\n"
    )
    caller = tmp_path / "use.py"
    caller.write_text("f(0, c=5, e=6)\ng(*xs)\nK().m(2)\n")
    assert unset_parameters([module], [module, caller]) == ["m.f(b)", "m.f(d)"]


def test_variadic_scan_flags_an_unfilled_parameter(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(a, *rest, b=1, **extra): pass\n"
        "def g(*xs, **kw): pass\n"
        "def h(**kw): pass\n"
        "class K:\n"
        "    def m(self, a, *rest): pass\n"
    )
    caller = tmp_path / "use.py"
    caller.write_text("f(0, b=2)\nf(a=1)\ng(*ys)\ng(**opts)\nh(z=1)\nK().m(1, 2)\n")
    assert unfilled_variadics([module], [module, caller]) == ["m.f(**extra)", "m.f(*rest)"]


# The scalar Bayes API that the test oracles build on; the package reads
# whole arrays through belief_transition and posterior_update instead.
UNNAMED_API = ["models.evidence"]


def public_api(path: Path) -> list[tuple[str, str]]:
    """(``module.function`` or ``module.Class.member``, name) for each
    public function of the module and each public method or property of
    its public classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    api = [(f"{path.stem}.{n.name}", n.name) for n in tree.body if isinstance(n, defs)]
    api += [
        (f"{path.stem}.{c.name}.{n.name}", n.name)
        for c in tree.body if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
        for n in c.body if isinstance(n, defs)
    ]
    return [(qual, name) for qual, name in api if not name.startswith("_")]


def names_read(path: Path) -> set[str]:
    """Every name the file reads, as a variable or an attribute, outside
    the definitions of functions of that name (an import is no read)."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return read


def unnamed_api(modules, callers) -> list[str]:
    """The public functions, methods and properties of the `modules` files
    whose name no `callers` file reads outside their own definition."""
    read = set().union(*(names_read(p) for p in callers))
    return sorted(qual for p in modules for qual, name in public_api(p) if name not in read)


def test_every_public_function_is_named_by_the_program():
    modules, _ = package_and_callers()
    callers = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unnamed_api(modules, callers) == UNNAMED_API


def test_api_scan_flags_an_unnamed_member(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(): return f()\n"
        "def g(): pass\n"
        "def _h(): pass\n"
        "class K:\n"
        "    def m(self): return self.m()\n"
        "    def n(self): pass\n"
        "    @property\n"
        "    def p(self): return 1\n"
        "    @property\n"
        "    def q(self): return 2\n"
        "    def __len__(self): return 0\n"
        "class _P:\n"
        "    def r(self): pass\n"
        "def s(): return t()\n"
        "def t(): pass\n"
    )
    caller = tmp_path / "use.py"
    caller.write_text("from m import K, f, g, s\nk = K()\nk.n()\nk.p\nk.q = 1\ns()\n")
    assert unnamed_api([module], [module, caller]) == ["m.K.m", "m.K.q", "m.f", "m.g"]
