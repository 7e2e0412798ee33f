"""Static checks on the package source that need only the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import mixlab
from mixlab.lab import SCHEMA, Build, Either, Obj, Seq

MODULES = sorted(
    path
    for path in pathlib.Path(mixlab.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(path):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path) == []


def imported_names(path):
    """Dotted names of the modules and members that import statements of
    path bring in."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_second_quadrature_engine(path):
    names = imported_names(path)
    assert [name for name in names if name.startswith("scipy.integrate")] == []


@pytest.mark.parametrize(
    "path",
    sorted(pathlib.Path(mixlab.__file__).parent.rglob("*.py")),
    ids=lambda path: path.name,
)
def test_no_second_transport_solver(path):
    """Optimal transport has one solver, the transportation simplex in
    measures.py; no module reaches scipy's LP solver."""
    names = imported_names(path)
    assert [name for name in names if name.split(".")[-1] == "linprog"] == []
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "linprog"
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reaches_scipy_optimize(path):
    """Matching and root finding have their own solvers in measures.py and
    kernels.py; nothing loads scipy.optimize."""
    names = imported_names(path)
    assert [name for name in names if name.startswith("scipy.optimize")] == []
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not any(
        isinstance(node, ast.Attribute) and ast.unparse(node) == "scipy.optimize"
        for node in ast.walk(tree)
    )


def test_cli_import_leaves_scipy_optimize_and_linalg_unloaded():
    code = (
        "import sys, mixlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'linalg'])))"
    )
    src = str(pathlib.Path(mixlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert run.stdout.strip() == "[]"


def function_imports(path):
    """Names of the functions of path whose bodies hold an import statement."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                isinstance(inner, (ast.Import, ast.ImportFrom))
                for inner in ast.walk(node)
            ):
                found.add(node.name)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_at_module_level(path):
    assert function_imports(path) == []


def schema_field_names(spec):
    """Every field name that the config schema below spec accepts."""
    if isinstance(spec, Build):
        return schema_field_names(spec.spec)
    if isinstance(spec, Either):
        return schema_field_names(spec.other) | schema_field_names(spec.obj)
    if isinstance(spec, Seq):
        return schema_field_names(spec.item) | schema_field_names(spec.head)
    if not isinstance(spec, Obj):
        return set()
    names = {spec.tag} - {None}
    for fields in [spec.fields, *(spec.variants or {}).values()]:
        names |= set(fields)
        for field, _ in fields.values():
            names |= schema_field_names(field)
    return names


def test_readme_names_every_config_field():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    names = schema_field_names(SCHEMA)
    assert len(names) > 40
    assert sorted(name for name in names if f"`{name}`" not in readme) == []


def kernel_family_methods(path):
    """(class name, method node) for every method of each direct
    KernelFamily subclass in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "KernelFamily"
            for base in cls.bases
        ):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef):
                    yield cls.name, method


def test_kernel_families_leave_atom_checks_to_the_base_class():
    path = pathlib.Path(mixlab.__file__).parent / "kernels.py"
    methods = list(kernel_family_methods(path))
    assert len({name for name, _ in methods}) == 7
    calls = sorted(
        f"{name}.{method.name}"
        for name, method in methods
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("check_theta", "_coords", "_atom")
    )
    assert calls == []


def normal_drawing_functions(tree):
    """Names of the functions of a module tree whose bodies call
    ``.normal(`` or ``.standard_normal(`` on some object."""
    return sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("normal", "standard_normal")
            for inner in ast.walk(node)
        )
    )


def sums_compared_with_one(tree):
    """Source of each comparison in a module tree with a ``.sum(`` call and
    the constant 1 in it, as a check that weights sum to 1 has."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        inner = list(ast.walk(node))
        sums = any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "sum"
            for n in inner
        )
        one = any(
            isinstance(n, ast.Constant)
            and type(n.value) in (int, float)
            and n.value == 1
            for n in inner
        )
        if sums and one:
            found.append(ast.unparse(node))
    return found


def test_one_sampler_core_and_one_definition_of_measure_invariants():
    path = pathlib.Path(mixlab.__file__).parent / "posterior.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert normal_drawing_functions(tree) == ["mcmc_run"]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "WEIGHT_TOL" not in names
    assert sums_compared_with_one(tree) == []


PACKAGE = sorted(pathlib.Path(mixlab.__file__).parent.glob("*.py"))
# Functions that may test for (int, np.integer) themselves: the report
# formatter, which picks a text form and validates nothing.
INTEGER_TESTS_ALLOWED = {"lab._fmt"}


def scoped_nodes(node, scope="<module>"):
    """Each node below node, with the name of the innermost function
    holding it."""
    for child in ast.iter_child_nodes(node):
        inner = (
            child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            else scope
        )
        yield inner, child
        yield from scoped_nodes(child, inner)


def scalar_checks(path):
    """Where path writes the scalar-argument policy itself, as
    module.function: each np.isscalar or numbers.Real, and each isinstance
    test against a tuple holding int and np.integer."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for scope, node in scoped_nodes(tree):
        named = isinstance(node, ast.Attribute) and ast.unparse(node) in (
            "np.isscalar",
            "numbers.Real",
        )
        integer_test = (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and {"int", "np.integer"} <= set(map(ast.unparse, node.args[1].elts))
        )
        if named or integer_test:
            found.append(f"{path.stem}.{scope}: {ast.unparse(node)}")
    return found


def test_one_argument_policy():
    """check_real and check_integer in errors.py hold the policy for scalar
    arguments; no other module defines a checker or tests a scalar's type
    inline."""
    definitions = sorted(
        f"{path.stem}.{node.name}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and ("check_real" in node.name or "check_integer" in node.name
             or node.name == "_real")
    )
    assert definitions == ["errors.check_integer", "errors.check_real"]
    inline = [
        check
        for path in PACKAGE
        if path.name != "errors.py"
        for check in scalar_checks(path)
        if check.split(":")[0] not in INTEGER_TESTS_ALLOWED
    ]
    assert inline == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("mixlab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def dataclasses_comparing_arrays(path):
    """Names of the dataclasses of path with a field annotated np.ndarray
    or list whose decorator leaves the generated __eq__ in place."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for deco in cls.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            if ast.unparse(call.func if call else deco) != "dataclass":
                continue
            eq_off = call is not None and any(
                kw.arg == "eq" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in call.keywords
            )
            annotations = {
                ast.unparse(node.annotation)
                for node in cls.body
                if isinstance(node, ast.AnnAssign)
            }
            if annotations & {"np.ndarray", "list"} and not eq_off:
                found.append(f"{path.stem}.{cls.name}")
    return found


def test_dataclasses_with_array_fields_compare_by_identity():
    """The generated __eq__ compares fields as a tuple, so two equal arrays
    in it raise numpy's ambiguous-truth ValueError; such dataclasses
    declare eq=False and compare by identity."""
    found = [name for path in PACKAGE for name in dataclasses_comparing_arrays(path)]
    assert found == []
