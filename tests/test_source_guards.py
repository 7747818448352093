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
    # exactness bounds (float32 below 2^24, float64 below 2^53) are checked
    # in one place
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


def _single_precision_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each float32, by name, attribute, import
    or string, and of each 2^24 written as 1 << 24, 2 ** 24 or 16777216;
    "" at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        if name == "float32" or (type(name) is int and name == 1 << 24):
            found.append((node.lineno, func))
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.LShift, ast.Pow))
            and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
            and (node.left.value, node.right.value) in {(1, 24), (2, 24)}
        ):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return sorted(found)


def test_only_the_field_product_works_in_single_precision():
    # float32 is exact only while field_matmul's sums stay below 2^24; that
    # bound is checked where the dtype is chosen, and nowhere else
    users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        users |= {(path.name, func) for _, func in _single_precision_uses(tree)}
    assert users == {("codes.py", "field_matmul")}


def test_guard_sees_single_precision_uses():
    src = (
        "from numpy import float32\n"
        "x = a.astype(np.float32)\n"
        "def f(m):\n"
        "    return m < 1 << 24\n"
        "class C:\n"
        "    def g(self, m):\n"
        "        return m < 2 ** 24 or m < 16777216, np.dtype('float32')\n"
        "y = 1 << 53, 2 ** 23, 'float64'\n"
    )
    assert _single_precision_uses(ast.parse(src)) == [
        (1, ""), (2, ""), (4, "f"), (7, "g"), (7, "g"), (7, "g")
    ]


WEIGHT_SEARCHES = {"min_weight", "min_weight_excluding", "min_weight_word"}


def _weight_searches(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each attribute or name in
    WEIGHT_SEARCHES; "" at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in WEIGHT_SEARCHES:
            found.append((node.lineno, func))
        elif isinstance(node, ast.Name) and node.id in WEIGHT_SEARCHES:
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return sorted(found)


def test_only_the_purity_probe_searches_for_a_minimum_weight():
    # every emitted distance is a closed form; the one enumeration outside
    # the kernel is the purity probe, which a cap bounds, and the search's
    # minimum-weight word serves only as its certificate
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "codes.py":
            tree = ast.parse(path.read_text(), str(path))
            callers |= {(path.name, func) for _, func in _weight_searches(tree)}
    assert callers == {("quantum.py", "purity_probe")}


def test_guard_sees_weight_searches():
    src = (
        "w = code.min_weight()\n"
        "def f(c, s):\n"
        "    return c.dual().min_weight_excluding(s, cap=0)\n"
        "class C:\n"
        "    def g(self):\n"
        "        search = self.min_weight\n"
        "        return min_weight(search), self._min_weight, 'min_weight'\n"
        "def h(c):\n"
        "    return c.min_weight_word(cap=0), min_weight_word\n"
    )
    assert _weight_searches(ast.parse(src)) == [
        (1, ""), (3, "f"), (6, "g"), (7, "g"), (9, "h"), (9, "h")
    ]


# the field keeps its digit rows and log/antilog pair; the elimination
# kernel builds the only q x q tables itself (codes.kernel_tables)
RETIRED_TABLES = {"add_table", "sub_table", "mul_table", "neg_table", "inv_table", "shift_digits"}
DENSE_TABLES = {"power_table"}
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_a_retired_field_table(path):
    assert _names(ast.parse(path.read_text(), str(path)), RETIRED_TABLES) == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name not in TABLE_OWNERS],
    ids=lambda p: p.name,
)
def test_only_the_field_and_the_kernel_name_dense_tables(path):
    # power_table stays behind fields.py and the elimination kernel
    assert _names(ast.parse(path.read_text(), str(path)), DENSE_TABLES) == []


def test_guard_sees_dense_table_names():
    src = (
        "from .fields import power_table\n"
        "x = ctx.mul_table[a, b]\n"
        "add_table = 1\n"
        "y = getattr(ctx, 'inv_table')\n"
        "z = ctx.exp_table[ctx.log_table]\n"
        "w = ctx.shift_digits[0]\n"
    )
    tree = ast.parse(src)
    assert _names(tree, RETIRED_TABLES | DENSE_TABLES) == [1, 2, 3, 4, 6]
    assert _names(tree, RETIRED_TABLES) == [2, 3, 4, 6]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "codes.py"], ids=lambda p: p.name
)
def test_only_the_kernel_names_its_table_limit(path):
    # the q <= 512 limit belongs to the kernel's tables; others refuse through kernel_tables
    assert _names(ast.parse(path.read_text(), str(path)), {"TABLE_LIMIT"}) == []


def _imported_modules(tree: ast.AST) -> set[str]:
    """The last component of every module an import names, and every name
    imported from one: `from .codes import x` and `from . import codes`
    both name codes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
            if node.module:
                found.add(node.module.rpartition(".")[2])
    return found


def test_fields_imports_nothing_from_codes():
    # the field is the bottom layer: the kernel reads it, never the reverse
    path = SRC / "fields.py"
    assert "codes" not in _imported_modules(ast.parse(path.read_text(), str(path)))


def test_guard_sees_imports():
    src = (
        "import numpy as np\n"
        "import prmhull.codes\n"
        "from .codes import kernel_tables\n"
        "from . import points\n"
        "def f():\n"
        "    from prmhull import polynomials\n"
    )
    assert _imported_modules(ast.parse(src)) == {
        "numpy", "codes", "kernel_tables", "points", "prmhull", "polynomials"
    }


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


POINT_BUILDERS = {"projective_points", "affine_points"}


def _point_set_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each use of projective_points or
    affine_points outside an import, by name or attribute, called or
    passed on; "" at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr in POINT_BUILDERS:
            found.append((node.lineno, func))
        elif isinstance(node, ast.Name) and node.id in POINT_BUILDERS:
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return sorted(found)


def test_only_the_kernel_gate_builds_point_sets():
    # prm.kernel_points refuses a field too large for the kernel before its
    # points are built; a direct call would build the plane and then refuse
    users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        users |= {(path.name, func) for _, func in _point_set_uses(tree)}
    assert users == {("prm.py", "kernel_points")}


def test_guard_sees_point_set_uses():
    src = (
        "from .points import affine_points, projective_points\n"
        "pts = projective_points(ctx, 2)\n"
        "def f(ctx):\n"
        "    return points.affine_points(ctx, 2)\n"
        "class C:\n"
        "    def g(self, ctx):\n"
        "        build = projective_points\n"
        "        return evaluate(ctx, build(ctx, 2), [])\n"
    )
    assert _point_set_uses(ast.parse(src)) == [(2, ""), (4, "f"), (7, "g")]


def _dual_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing scope) of each `.dual` attribute, called or passed on;
    the scope is dotted through classes and functions, "" at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "dual":
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_only_the_asymmetric_oracle_and_the_hermitian_dual_take_a_dual():
    # intersections and relative hulls are taken by membership and Gram
    # ranks; a dual is eliminated only where it is the object computed:
    # C2perp in asym_from_codes, and the Frobenius image of the dual
    users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        users |= {(path.name, scope) for _, scope in _dual_uses(tree)}
    assert users == {("codes.py", "LinearCode.hermitian_dual"), ("quantum.py", "asym_from_codes")}


def test_guard_sees_dual_uses():
    src = (
        "d = code.dual()\n"
        "def f(c):\n"
        "    return c.dual().k, c._dual, dual(c)\n"
        "class C:\n"
        "    def dual(self):\n"
        "        return self.dual\n"
        "    def g(self, codes):\n"
        "        def h(c):\n"
        "            return c.dual().dual()\n"
        "        return map(LinearCode.dual, codes), 'dual'\n"
    )
    assert _dual_uses(ast.parse(src)) == [
        (1, ""), (3, "f"), (6, "C.dual"), (9, "C.g.h"), (9, "C.g.h"), (10, "C.g")
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "codes.py"], ids=lambda p: p.name
)
def test_only_the_kernel_reads_the_pivot_layout(path):
    # a code's RREF pivots are the kernel's own layout: elsewhere membership
    # is a reduction against the code and a rank an elimination of the rows
    assert _names(ast.parse(path.read_text(), str(path)), {"pivots"}) == []


def test_guard_sees_pivot_reads():
    src = (
        "p = code.pivots\n"
        "def f(oracle, rows, residual):\n"
        "    return np.hstack([rows[:, list(oracle.pivots)], residual])\n"
        "class C:\n"
        "    def g(self, m):\n"
        "        piv = getattr(self.code, 'pivots')\n"
        "        return len(rref(self.ctx, m)[1]), self.pivot, piv\n"
    )
    assert _names(ast.parse(src), {"pivots"}) == [1, 3, 6]


def _rref_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each use of `rref`, by name or
    attribute, other than the rank `len(rref(...)[1])`; "" at module level."""
    ranks = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Subscript)
            and isinstance(node.args[0].slice, ast.Constant)
            and node.args[0].slice.value == 1
            and isinstance(node.args[0].value, ast.Call)
        ):
            ranks.add(id(node.args[0].value.func))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if id(node) not in ranks and (
            (isinstance(node, ast.Name) and node.id == "rref")
            or (isinstance(node, ast.Attribute) and node.attr == "rref")
        ):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "codes.py"], ids=lambda p: p.name
)
def test_outside_the_kernel_rref_only_counts_a_rank(path):
    # every code built from rows not in RREF goes through LinearCode.from_rows,
    # which converts and checks them once; elsewhere an elimination gives a rank
    assert _rref_uses(ast.parse(path.read_text(), str(path))) == []


def test_guard_sees_rref_uses():
    src = (
        "from .codes import rref\n"
        "R, piv = rref(ctx, rows)\n"
        "def f(ctx, rows):\n"
        "    return len(rref(ctx, rows)[1]), len(codes.rref(ctx, rows)[1])\n"
        "class C:\n"
        "    def g(self, rows):\n"
        "        R, piv = codes.rref(self.ctx, rows)\n"
        "        return LinearCode(self.ctx, R.shape[1], R, piv), len(rref(ctx, rows)[0])\n"
        "def h(rows):\n"
        "    eliminate = rref\n"
        "    return len(rref(ctx, rows)), rref(ctx, rows)[1]\n"
    )
    assert _rref_uses(ast.parse(src)) == [
        (2, ""), (7, "g"), (8, "g"), (10, "h"), (11, "h"), (11, "h")
    ]


ORACLE_ROOTS = ("hermitian_hull_oracle", "affine_hull_oracle")
EVALUATIONS = {"evaluate_monomials", "field_matmul", "kernel_points"}


def _oracle_path_evaluations(tree: ast.AST, roots) -> tuple[list[tuple[int, str]], set[str]]:
    """(line, function) of each name in EVALUATIONS, by name or attribute,
    inside the module-level functions that `roots` reach by the names they
    use, and the set of those functions."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    path, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in funcs and name not in path:
            path.add(name)
            todo += [n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)]
    found = []
    for name in path:
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Name) and node.id in EVALUATIONS) or (
                isinstance(node, ast.Attribute) and node.attr in EVALUATIONS
            ):
                found.append((node.lineno, name))
    return sorted(found), path


def test_hermitian_oracles_evaluate_nothing_at_the_points():
    # the Gram entries are power sums looked up by residue, so the oracles
    # neither build the plane nor evaluate a monomial on it; power_span_code,
    # off their path, keeps its evaluation
    path = SRC / "hermitian_hull.py"
    found, reached = _oracle_path_evaluations(ast.parse(path.read_text(), str(path)), ORACLE_ROOTS)
    assert {"_gram_null_space", "_gram_entries"} <= reached
    assert "power_span_code" not in reached
    assert found == []


def test_guard_sees_evaluations_on_the_oracle_path():
    src = (
        "from .polynomials import evaluate_monomials\n"
        "def oracle(q):\n"
        "    return helper(q)\n"
        "def helper(q):\n"
        "    return codes.field_matmul(evaluate_monomials(q), q)\n"
        "def public(q):\n"
        "    return evaluate_monomials(kernel_points(q))\n"
        "def unused():\n"
        "    return oracle, kernel_points\n"
    )
    assert _oracle_path_evaluations(ast.parse(src), ["oracle"]) == (
        [(5, "helper"), (5, "helper")], {"oracle", "helper"}
    )
