"""Source-level rules for the package."""

import ast
from pathlib import Path

import fuskit

SRC = Path(fuskit.__file__).parent


def test_no_assert_statements():
    # internal invariants raise FuskitError, which python -O cannot skip
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_the_order_cap_is_the_only_environment_read():
    # an environment variable is a knob; FUSKIT_ORDER_CAP, read in
    # permgroup.order_cap, is the package's one
    names = ("environ", "environb", "getenv", "getenvb")
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parent = {id(c): p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        func = {id(n): f.name for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [(path.name, func.get(id(node)), f"from os import {a.name}")
                          for a in node.names if a.name in names]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                expr = node  # widen to the whole call, e.g. os.environ.get("X")
                while isinstance(parent.get(id(expr)), (ast.Attribute, ast.Call, ast.Subscript)):
                    expr = parent[id(expr)]
                reads.append((path.name, func.get(id(node)), ast.unparse(expr)))
    assert reads == [("permgroup.py", "order_cap", "os.environ.get('FUSKIT_ORDER_CAP')")]


def test_the_order_cap_has_no_per_call_override():
    # FUSKIT_ORDER_CAP alone sets the cap: order_cap takes no parameter, and
    # no function takes a cap (isomorphism_search reads DEFAULT_ISO_CAP)
    with_cap = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if getattr(node, "name", None) == "order_cap":
                assert names == [], f"{path.name}:{node.lineno}"
            if "cap" in names:
                with_cap.append((path.name, getattr(node, "name", "<lambda>")))
    assert with_cap == []


def test_only_the_output_boundary_and_the_oracles_read_pairs():
    # a hom is its images, aligned with its domain's members; the sorted
    # (source, image) pairs are a view for the serializer and the
    # independent reference implementations only
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "pairs":
                readers.append(path.name)
    assert set(readers) <= {"serialization.py", "oracles.py"}, readers


def _called(node):
    """The name a call calls: f for f(...) and x.f(...), else None."""
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None


def test_homs_are_pushed_and_built_only_to_make_a_system():
    # a system stores image tuples under masks, and every check and builder
    # reads and files those (permgroup.pushed_images): the GroupHom view of a
    # system's store (.table) is read by the module that defines it and by
    # the independent reference implementations only, induced_hom builds
    # the image of one hom under a morphism of systems
    # (FusionSystemMorphism.apply), and no contains_iso argument is a hom
    # built for the test
    built = {"GroupHom", "from_map", "induced_hom", "inverse", "restriction", "then"}
    pushes, tests, views = set(), [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        func = {id(n): f.name for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "table":
                views.add(path.name)
            if not isinstance(node, ast.Call):
                continue
            if _called(node) == "induced_hom":
                pushes.add((path.name, func.get(id(node))))
            elif _called(node) == "contains_iso":
                tests += [f"{path.name}:{node.lineno}" for arg in node.args for n in ast.walk(arg)
                          if isinstance(n, ast.Call) and _called(n) in built]
    assert views <= {"fusion.py", "oracles.py"}, views
    assert pushes == {("quotients.py", "apply")}, pushes
    assert tests == []


def test_every_memo_table_is_declared_once_through_memo():
    # a table is declared with permgroup.memo, whose wrapper alone fills it:
    # no other memo helper (the former permgroup.cached) is defined, imported
    # or called.  One path counts each table's builds by its name, so no two
    # tables share one
    others, names = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a def, an import, a name or an attribute called cached
            if "cached" in (getattr(node, a, None) for a in ("name", "id", "attr")):
                others.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and _called(node) == "memo":
                if node.args and isinstance(node.args[0], ast.Constant):
                    names.append(node.args[0].value)
    assert others == []
    assert len(names) > 30 and len(set(names)) == len(names), sorted(names)


def test_automorphisms_act_as_image_tuples():
    # inside the package an automorphism or isomorphism is the tuple of its
    # images, and a system is moved by pushing its isos (fusion.carries):
    # the GroupHom lists of Aut(Q), Aut_F(Q) and Iso_F(Q, R) and the
    # transported system are public answers, built inside the package only
    # by PreFusionSystem.aut and closure.alperin_generators
    homs = {"automorphisms", "automorphism_generators", "transport"}
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        func = {}  # the innermost function around each node
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func.update((id(n), f.name) for n in ast.walk(f) if n is not f)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    _called(node) in homs or isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("aut", "isos")):
                callers.add((path.name, func.get(id(node)), _called(node)))
    assert callers == {("fusion.py", "aut", "isos"),
                       ("closure.py", "alperin_generators", "aut")}, callers
