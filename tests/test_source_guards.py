"""Guards on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "prmhull"
ENV_READERS = {"environ", "getenv", "environb", "getenvb"}
MATMUL_NAMES = {"matmul", "dot"}


def _env_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_READERS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # behaviour is set by arguments only, so a run is reproducible from its argv
    assert _env_reads(ast.parse(path.read_text(), str(path))) == []


def test_guard_sees_environment_reads():
    src = "import os\nfrom os import getenv\nx = os.environ.get('A')\ny = os.getenv('B')\n"
    assert _env_reads(ast.parse(src)) == [2, 3, 4]


def _matrix_products(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each @, matmul and dot; "" at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, func))
        elif isinstance(node, ast.Attribute) and node.attr in MATMUL_NAMES:
            found.append((node.lineno, func))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name in MATMUL_NAMES for alias in node.names):
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return sorted(found)


def test_codes_has_one_matrix_product():
    # every GF(q) product in the kernel goes through field_matmul, whose
    # float64 exactness bound is checked in one place
    path = SRC / "codes.py"
    products = _matrix_products(ast.parse(path.read_text(), str(path)))
    assert products
    assert {func for _, func in products} == {"field_matmul"}


def test_guard_sees_matrix_products():
    src = (
        "from numpy import dot\n"
        "x = a @ b\n"
        "def f(a, b):\n"
        "    a @= b\n"
        "    return np.matmul(a, b)\n"
        "class C:\n"
        "    def g(self, a, b):\n"
        "        return np.dot(a, b) + a.dot(b)\n"
    )
    assert _matrix_products(ast.parse(src)) == [
        (1, ""), (2, ""), (4, "f"), (5, "f"), (8, "g"), (8, "g")
    ]


DENSE_TABLES = {"add_table", "sub_table", "mul_table", "neg_table", "inv_table", "power_table"}
TABLE_OWNERS = {"fields.py", "codes.py"}


def _names(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines that name one of `names`, as attribute, variable, import or string."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if isinstance(name, str) and name in names:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name not in TABLE_OWNERS],
    ids=lambda p: p.name,
)
def test_only_the_field_and_the_kernel_name_dense_tables(path):
    # the q x q table format stays behind fields.py and the elimination kernel
    assert _names(ast.parse(path.read_text(), str(path)), DENSE_TABLES) == []


def test_guard_sees_dense_table_names():
    src = (
        "from .fields import power_table\n"
        "x = ctx.mul_table[a, b]\n"
        "add_table = 1\n"
        "y = getattr(ctx, 'inv_table')\n"
        "z = ctx.exp_table[ctx.log_table]\n"
    )
    assert _names(ast.parse(src), DENSE_TABLES) == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "fields.py"], ids=lambda p: p.name
)
def test_only_the_field_names_its_modulus(path):
    # the field polynomial enters arithmetic only through fields.py's companion matrix
    assert _names(ast.parse(path.read_text(), str(path)), {"modulus"}) == []


def test_guard_sees_modulus_names():
    src = (
        "from .fields import modulus\n"
        "m = ctx.modulus[0]\n"
        "modulus = 1\n"
        "y = getattr(ctx, 'modulus')\n"
        "z = 'modulus base must be >= 2'\n"
    )
    assert _names(ast.parse(src), {"modulus"}) == [1, 2, 3, 4]


# concurrent holds only concurrent.futures
POOL_PACKAGES = {"multiprocessing", "concurrent"}


def _forks_and_pool_imports(tree: ast.AST) -> tuple[list[str], list[int]]:
    """(enclosing function of each `os.fork`, lines importing a process pool)."""
    forks, imports = [], []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "fork"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            forks.append(func)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            forks.extend(func for alias in node.names if alias.name == "fork")
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
        else:
            modules = []
        if any(module.split(".")[0] in POOL_PACKAGES for module in modules):
            imports.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return forks, imports


def test_one_function_forks_and_no_module_imports_a_process_pool():
    # verify's sweeps run in workers from one fork-and-pipe executor; a pool
    # library would cost its import and start-up on every run
    forks, imports = [], []
    for path in sorted(SRC.glob("*.py")):
        f, i = _forks_and_pool_imports(ast.parse(path.read_text(), str(path)))
        forks += [(path.name, func) for func in f]
        imports += [(path.name, line) for line in i]
    (where,) = set(forks)
    assert where[1], "os.fork at module level"
    assert imports == []


def test_guard_sees_forks_and_pool_imports():
    src = (
        "import multiprocessing\n"
        "import concurrent.futures as cf\n"
        "from concurrent import futures\n"
        "from multiprocessing.pool import Pool\n"
        "from os import fork\n"
        "import os\n"
        "def f():\n"
        "    return os.fork()\n"
        "class C:\n"
        "    def g(self):\n"
        "        pid = os.fork\n"
    )
    assert _forks_and_pool_imports(ast.parse(src)) == (["", "f", "g"], [1, 2, 3, 4])
