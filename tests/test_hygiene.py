"""Source hygiene under src/walg: no unused imports, no unreferenced
definitions, and no floating-point arithmetic.

Stdlib only.  An imported name counts as used when it is read anywhere in
the module, including inside string annotations such as `-> "SparseMatrix"`.
src/walg holds only what `walg run` and the benchmark run: a function,
class or method counts as referenced when code in src/ or perfbench/
refers to it, by a name, an attribute, an import or a word of a string
that is not a docstring (perfbench resolves walg's names from strings, in
code it runs and in the names its tracer wraps).  A mention in a docstring
or a use in tests/ is not a reference: the second routes the tests check
against live in tests/reference.py.
Every `__slots__` entry of a class is read, as an attribute `.name` that
is loaded (not only assigned), somewhere in src/, tests/ or perfbench/: a
field that is only ever written is dead weight.
Arithmetic is exact (Fraction and int), so a float or complex literal, or
a read of the name `float`, is an error.  PBW straightening runs on
integer numerators, so the straightening functions of `walg.backend` may
not name `Fraction` or `QQ`; only the rescale helper `_divide` mints
Fractions.  The same holds for the rewriting in the generators of H_ell
(`gen_times_word`), which takes its commutators and keeps its memo as
integer forms, and for the elimination of the one incremental echelon
(`Echelon.reduce`, `Echelon.extend` and their row step `_eliminate` in
`walg.linalg`); only `Echelon.coordinates`, which hands out rational
coordinates, may.  And for the kernels on integer forms (den, ints): the
memoized images and the sum of `backend.MonomialMap`, the one map behind
the PBW product, the left action on Q in `walg.whittaker`, the ad columns
(`AdColumns`, each built by the Leibniz rule from its suffix's with the
generator step of the left action), the integer Leibniz derivation of the
CE complex (`SymbolDerivation`), the forms of the ordered monomials in
the generators of H, the products of H by
rewriting (`backend.word_map`), the basis change and
`poisson.Substitution`, together with the steps and the call of the last
two, and `backend.combine`, the sum over one common scale; they leave the
integers only through `_divide`.
Within `walg.whittaker` only `q_product`, `q_transport`, `_word_forms`
and `_products` call `_left_action`: a product in Q is formed only for a
product of two given elements, for the natural map, for the forms of the
ordered monomials and for the commutators of the generators of H; the ad
columns take no right multiplication, and every other product of H is
rewritten in its generators.
Elimination stays behind the linear-algebra layer: outside
`walg.backend`, which holds the kernel, and `walg.linalg`, which wraps it
in `SparseMatrix`, `Subspace`, `Echelon`, `solve` and the kernels, no
module names `rref_sparse` or `rref_dense`, nor the row-step helpers
`lincomb`, `_clear` and `_normalize`: no other module steps rows itself.
Within `walg.whittaker` only `_representatives` (every canonical F_n H,
from the certified forms, for the representatives the reports print)
builds a `Subspace`, by calling `Subspace` or one of its class methods, or
`kernel`: one elimination gives every F_d H and every Wh(F_d Q) by
truncation (`linalg.kernel_vectors`), so no other function eliminates a
prefix again, and the `whittaker` check reads the Whittaker vectors off
the certificate's echelon instead of spanning them.
Likewise only `_h_basis` (the certificate), `n_ell_generators`,
`_representatives` and `ell_comparison` build an `Echelon`: the
certificate chooses the generators and certifies every form on one.
And only `_h_basis` and `whittaker_vectors` call `kernel_vectors`: H_ell
is built by one route, the certificate, which runs its elimination once,
and the Whittaker vectors are the other side of the `whittaker` check, so
no third function takes a joint kernel.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "walg"
MODULES = sorted(SRC.glob("*.py"))
SEARCHED = sorted(p for d in ("src", "tests", "perfbench")
                  for p in (ROOT / d).rglob("*.py"))
RUN_SOURCES = sorted(p for d in ("src", "perfbench")
                     for p in (ROOT / d).rglob("*.py"))
WORD = re.compile(r"\w+")


def imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [a for a in (args.vararg, args.kwarg) if a]):
                if arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                            if isinstance(m, ast.Name))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def test_finds_unused_and_string_annotation_uses():
    source = ("from typing import Dict, List\n"
              "import os\n"
              "from a import B\n"
              "def f(x: 'Dict[int, B]') -> None:\n"
              "    return x\n")
    assert unused_imports(source) == [("List", 1), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source):
    """(name, line) of every function, class and method, dunders excepted."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) \
                and not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def docstrings(tree):
    """The ids of the docstring nodes of the module, classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def references(source):
    """Every name the source refers to: a name, an attribute, each part of
    an imported name, and every word of a string that is not a
    docstring."""
    tree = ast.parse(source)
    skip = docstrings(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                yield from alias.name.split(".")
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and id(n) not in skip:
            yield from WORD.findall(n.value)


def unreferenced_definitions(checked, searched):
    """Names defined in the `checked` sources that no `searched` source
    refers to (`references`).

    Both map a path to its text, and `searched` includes `checked`.
    """
    referenced = {name for text in searched.values()
                  for name in references(text)}
    return sorted({name for text in checked.values()
                   for name, _ in definitions(text) if name not in referenced})


def test_finds_unreferenced_definitions():
    lib = ('"""Module docstring naming mentioned."""\n'
           "import os.path\n"
           "class A:\n"
           "    def used(self): return 1\n"
           "    def unused(self): return used\n"
           "    def __init__(self): pass\n"
           "def helper(): return A\n"
           "def dead(): pass\n"
           "def mentioned():\n"
           '    """Calls dead."""\n'
           "def path(): return os\n"
           "def wrapped(): pass\n")
    sources = {"lib.py": lib,
               "run.py": 'CODE = "lib.helper()"\nNAMES = ("wrapped",)\n'}
    assert unreferenced_definitions({"lib.py": lib}, sources) == [
        "dead", "mentioned", "unused"]


def test_no_unreferenced_definitions():
    searched = {p: p.read_text(encoding="utf-8") for p in RUN_SOURCES}
    checked = {p: searched[p] for p in MODULES}
    assert unreferenced_definitions(checked, searched) == []


def slot_entries(source):
    """(class, entry) of every entry of a class's `__slots__`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets):
                    for elt in item.value.elts:
                        yield node.name, elt.value


def unread_slots(checked, searched):
    """`Class.entry` for every `__slots__` entry in the `checked` sources
    that no `searched` source loads as an attribute; an assignment, an
    augmented one included, or a name in a string is not a read.

    Both map a path to its text, and `searched` includes `checked`."""
    reads = {n.attr for text in searched.values() for n in ast.walk(ast.parse(text))
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{cls}.{entry}" for text in checked.values()
                  for cls, entry in slot_entries(text) if entry not in reads)


def test_finds_unread_slots():
    lib = ("class A:\n"
           "    __slots__ = ('read', 'written', 'counted', 'elsewhere')\n"
           "    def __init__(self):\n"
           "        self.read = self.written = self.elsewhere = 1\n"
           "        self.counted = 0\n"
           "    def step(self):\n"
           "        self.counted += 1\n"
           "        return self.read\n"
           "class B:\n"
           "    __slots__ = ['only_named']\n")
    sources = {"lib.py": lib,
               "run.py": "x = A().elsewhere\nnote = 'b.only_named'\n"}
    assert unread_slots({"lib.py": lib}, sources) == [
        "A.counted", "A.written", "B.only_named"]


def test_no_unread_slots():
    searched = {p: p.read_text(encoding="utf-8") for p in SEARCHED}
    checked = {p: searched[p] for p in MODULES}
    assert unread_slots(checked, searched) == []


def inexact_uses(source):
    """(text, line) of every float or complex literal and every read of
    the name `float`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                          (float, complex)):
            yield repr(node.value), node.lineno
        elif isinstance(node, ast.Name) and node.id == "float" \
                and isinstance(node.ctx, ast.Load):
            yield "float", node.lineno


def test_finds_inexact_arithmetic():
    source = ("from fractions import Fraction\n"
              "HALF = Fraction(1, 2)\n"
              "def f(x):\n"
              "    return float(x) + 0.5\n"
              "g = 1e3 * 2j\n"
              "note = 'float 0.5'\n")
    assert sorted(inexact_uses(source)) == [
        ("0.5", 4), ("1000.0", 5), ("2j", 5), ("float", 4)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exact_arithmetic_only(path):
    assert list(inexact_uses(path.read_text(encoding="utf-8"))) == []


STRAIGHTENING = ("gen_times_mono", "_gen_times_terms", "mul_terms",
                 "gen_times_word")
ECHELON_ELIMINATION = ("Echelon.reduce", "Echelon._reduce", "Echelon.extend",
                       "_eliminate")
# module -> its integer-form kernels: the memoized monomial map, the left
# action on Q, the Leibniz ad columns built with its generator step (with
# their lowest-terms form) and the Leibniz derivation of the CE complex,
# the forms of the generator monomials of H, the multiplicativity
# cross-check of nu and the one-pass poisson check (the sum of nu over the
# representatives, and the comparison both make), the product of H by
# rewriting and the substitution built on the map, the bracket on
# chi + a^perp (the gradient, the bivector and the Hamiltonian field of a
# lift), and the sum over a common scale behind the map
INTEGER_FORM_KERNELS = {
    "whittaker.py": ("_linear", "_step", "_left_action", "_word_forms",
                     "AdColumns.__init__", "AdColumns.column",
                     "AdColumns._image", "AdColumns.kills",
                     "SymbolDerivation.__init__", "SymbolDerivation.image",
                     "SymbolDerivation._image",
                     "_same", "_multiplicative", "gr_commutators_vs_poisson"),
    "poisson.py": ("Substitution.__call__", "Substitution.form", "gradient",
                   "add_product", "poly_mul", "lift_gradient",
                   "hamiltonian_field", "restricted_bracket",
                   "ReductionData.poisson_tensor"),
    "backend.py": ("combine", "_value", "MonomialMap.image",
                   "MonomialMap.__call__", "word_map", "lowest_form"),
}
RATIONAL_NAMES = ("Fraction", "QQ")


def functions_of(source):
    """(name, node) of every top-level function, and of every method of a
    top-level class as `Class.method`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def rational_uses(source, functions):
    """(function, line) of every use of `Fraction` or `QQ`, as a name or an
    attribute, inside the functions named in `functions`."""
    for name, node in functions_of(source):
        if name in functions:
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id in RATIONAL_NAMES or \
                        isinstance(n, ast.Attribute) and n.attr in RATIONAL_NAMES:
                    yield name, n.lineno


def test_finds_rational_uses():
    source = ("from fractions import Fraction\n"
              "import fractions\n"
              "def mul_terms(t):\n"
              "    def inner(c):\n"
              "        return fractions.Fraction(c)\n"
              "    return {m: Fraction(c, 2) for m, c in t.items()}\n"
              "def gen_times_mono(g):\n"
              "    return QQ(g)\n"
              "def _divide(t, den):\n"
              "    return {m: Fraction(c, den) for m, c in t.items()}\n"
              "ONE = Fraction(1)\n")
    assert sorted(rational_uses(source, STRAIGHTENING)) == [
        ("gen_times_mono", 8), ("mul_terms", 5), ("mul_terms", 6)]


def test_finds_rational_uses_in_methods():
    source = ("class Echelon:\n"
              "    def reduce(self, w: QQ):\n"
              "        return w\n"
              "    def extend(self, w):\n"
              "        return {j: QQ(v) for j, v in w.items()}\n"
              "    def coordinates(self, w):\n"
              "        return Fraction(1)\n"
              "def _eliminate(row):\n"
              "    x: QQ = 1\n"
              "    return fractions.Fraction(x)\n"
              "class Other:\n"
              "    def extend(self):\n"
              "        return QQ(0)\n")
    assert sorted(rational_uses(source, ECHELON_ELIMINATION)) == [
        ("Echelon.extend", 5), ("Echelon.reduce", 2), ("_eliminate", 9),
        ("_eliminate", 10)]


def test_straightening_is_fraction_free():
    source = (SRC / "backend.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(STRAIGHTENING) <= defined
    assert list(rational_uses(source, STRAIGHTENING)) == []


def test_echelon_elimination_is_fraction_free():
    source = (SRC / "linalg.py").read_text(encoding="utf-8")
    assert set(ECHELON_ELIMINATION) <= {name for name, _ in functions_of(source)}
    assert list(rational_uses(source, ECHELON_ELIMINATION)) == []


def test_finds_rational_uses_in_integer_form_kernels():
    source = ("class MonomialMap:\n"
              "    def __init__(self, step, base):\n"
              "        self.memo = {(): (1, base)}\n"
              "    def image(self, m):\n"
              "        return self.memo.get(m, (QQ(1), {}))\n"
              "    def __call__(self, terms):\n"
              "        return {m: Fraction(c) for m, c in terms.items()}\n"
              "def _step(basis, gens, ints):\n"
              "    return {m: fractions.Fraction(c) for m, c in ints.items()}\n"
              "class Substitution:\n"
              "    def __call__(self, F):\n"
              "        return sum(F.terms.values(), QQ(0))\n"
              "def _divide(terms, den):\n"
              "    return {m: Fraction(c, den) for m, c in terms.items()}\n")
    kernels = sum(INTEGER_FORM_KERNELS.values(), ())
    assert sorted(rational_uses(source, kernels)) == [
        ("MonomialMap.__call__", 7), ("MonomialMap.image", 5),
        ("Substitution.__call__", 12), ("_step", 9)]


@pytest.mark.parametrize("module", sorted(INTEGER_FORM_KERNELS))
def test_integer_form_kernels_are_fraction_free(module):
    source = (SRC / module).read_text(encoding="utf-8")
    functions = INTEGER_FORM_KERNELS[module]
    assert set(functions) <= {name for name, _ in functions_of(source)}
    assert list(rational_uses(source, functions)) == []


# the kernels, and the row-step helpers that `backend` and `linalg.Echelon`
# share
ELIMINATION_KERNELS = ("rref_sparse", "rref_dense", "lincomb", "_clear",
                       "_normalize")
ELIMINATION_HOMES = ("backend.py", "linalg.py")


def elimination_uses(source):
    """(name, line) of every use of an elimination kernel: a read of the
    name, an attribute, or an imported name."""
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and n.id in ELIMINATION_KERNELS:
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute) and n.attr in ELIMINATION_KERNELS:
            yield n.attr, n.lineno
        elif isinstance(n, ast.ImportFrom):
            for alias in n.names:
                if alias.name in ELIMINATION_KERNELS:
                    yield alias.name, n.lineno


def test_finds_elimination_uses():
    source = ("from walg.backend import rref_dense as rd\n"
              "from walg import backend\n"
              "def inverse(rows):\n"
              "    return backend.rref_sparse(rows, 4)\n"
              "kernel = rref_sparse\n"
              "note = 'rref_sparse is the kernel'\n"
              "def rref_sparse_free(rows):\n"
              "    return rows\n"
              "row = backend._normalize(backend.lincomb(2, x, 3, y))\n"
              "from walg.backend import _clear\n")
    assert sorted(elimination_uses(source)) == [
        ("_clear", 10), ("_normalize", 9), ("lincomb", 9), ("rref_dense", 1),
        ("rref_sparse", 4), ("rref_sparse", 5)]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ELIMINATION_HOMES],
                         ids=lambda p: p.name)
def test_elimination_only_in_backend_and_linalg(path):
    assert list(elimination_uses(path.read_text(encoding="utf-8"))) == []


SPAWN_FREE_MODULES = ("dataclasses", "inspect")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """`import walg.cli` loads neither `dataclasses` nor `inspect`.  Every
    `walg run` process pays for the modules the CLI imports before it does
    any work, so every benchmark job pays for them in `setup_s`; these two
    cost about 10-14 ms a spawn and walg needs neither."""
    code = ("import sys, walg.cli; "
            f"print(sorted(set({SPAWN_FREE_MODULES!r}) & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# the calls that build a Subspace, and the functions of a module that may
# make them
SUBSPACE_BUILDERS = ("Subspace", "kernel")
SUBSPACE_HOMES = {"whittaker.py": ("_representatives",)}
# likewise for an Echelon: one per certificate, span test or read-off
ECHELON_HOMES = {"whittaker.py": ("_h_basis", "n_ell_generators",
                                  "_representatives", "ell_comparison")}
# and for the one elimination of a joint kernel (`kernel_vectors`)
KERNEL_HOMES = {"whittaker.py": ("_h_basis", "whittaker_vectors")}


def builds(source, builders):
    """(owner, line) of every call that builds with `builders`: a call of
    one of those names or attributes, or of an attribute of one of those
    names (a class method).  The owner is the top-level function,
    `Class.method` or class around the call, or None at module level."""
    def owned(owner, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                f = n.func
                if isinstance(f, ast.Name) and f.id in builders or \
                        isinstance(f, ast.Attribute) and (
                            f.attr in builders or
                            isinstance(f.value, ast.Name)
                            and f.value.id in builders):
                    yield owner, n.lineno

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield from owned(node.name, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                yield from owned(f"{node.name}.{item.name}"
                                 if isinstance(item, ast.FunctionDef)
                                 else node.name, item)
        else:
            yield from owned(None, node)


def test_finds_subspace_builds():
    source = ("from walg.linalg import Subspace, kernel\n"
              "ZERO = Subspace(0, [])\n"
              "class HBasis:\n"
              "    def subspace_at(self, n):\n"
              "        return Subspace.from_sparse(n, kernel(M).rows)\n"
              "    def dim_f(self, n) -> 'Subspace':\n"
              "        return self.subspace_at(n).dim\n"
              "def _h_basis(mats, spaces: 'List[Subspace]'):\n"
              "    return [linalg.kernel(M) for M in mats]\n"
              "def whittaker_vectors(M):\n"
              "    return kernel(M)\n")
    assert sorted(builds(source, SUBSPACE_BUILDERS), key=lambda b: b[1]) == [
        (None, 2), ("HBasis.subspace_at", 5), ("HBasis.subspace_at", 5),
        ("_h_basis", 9), ("whittaker_vectors", 11)]


def test_finds_echelon_builds():
    source = ("from walg.linalg import Echelon\n"
              "class HBasis:\n"
              "    def contains(self, row):\n"
              "        return self._echelon.extend(row)\n"
              "    def _echelon_of(self, rows) -> 'Echelon':\n"
              "        return linalg.Echelon()\n"
              "def _h_basis(rows):\n"
              "    echelon = Echelon()\n"
              "    return echelon, Echelon().rows\n")
    assert sorted(builds(source, ("Echelon",)), key=lambda b: b[1]) == [
        ("HBasis._echelon_of", 6), ("_h_basis", 8), ("_h_basis", 9)]


def test_finds_kernel_vectors_calls():
    source = ("from walg.linalg import kernel_vectors\n"
              "def h_basis(n_max, sctx):\n"
              "    return _h_basis(qb, kernel_vectors(mats, n_max))\n"
              "class HBasis:\n"
              "    def dim_f(self, n):\n"
              "        return len(linalg.kernel_vectors(self.mats, n))\n"
              "def _h_basis(qb, vectors):\n"
              "    return HBasis(qb, vectors)\n")
    assert sorted(builds(source, ("kernel_vectors",)),
                  key=lambda b: b[1]) == [("h_basis", 3), ("HBasis.dim_f", 6)]


@pytest.mark.parametrize("module", sorted(SUBSPACE_HOMES))
def test_subspaces_built_only_in_their_homes(module):
    source = (SRC / module).read_text(encoding="utf-8")
    owners = {owner for owner, _ in builds(source, SUBSPACE_BUILDERS)}
    assert owners == set(SUBSPACE_HOMES[module])


@pytest.mark.parametrize("module", sorted(ECHELON_HOMES))
def test_echelons_built_only_in_their_homes(module):
    source = (SRC / module).read_text(encoding="utf-8")
    owners = {owner for owner, _ in builds(source, ("Echelon",))}
    assert owners == set(ECHELON_HOMES[module])


@pytest.mark.parametrize("module", sorted(KERNEL_HOMES))
def test_kernel_vectors_called_only_in_their_homes(module):
    source = (SRC / module).read_text(encoding="utf-8")
    owners = {owner for owner, _ in builds(source, ("kernel_vectors",))}
    assert owners == set(KERNEL_HOMES[module])


# the functions of a module that may build a left action on Q
LEFT_ACTION_HOMES = {"whittaker.py": ("q_product", "q_transport", "_word_forms",
                                      "_products")}


def test_finds_left_action_calls():
    source = ("def q_product(a, b, sctx):\n"
              "    return _left_action(basis, steps, b.terms)(a.terms)\n"
              "class AdColumns:\n"
              "    def __init__(self, x, sctx):\n"
              "        self.right = _left_action(basis, steps, xe)\n"
              "def ell_comparison(hb1, hb2):\n"
              "    act = W._left_action(basis, steps, images[j].terms)\n"
              "    return _left_action\n")
    assert sorted(builds(source, ("_left_action",)), key=lambda b: b[1]) == [
        ("q_product", 2), ("AdColumns.__init__", 5), ("ell_comparison", 7)]


@pytest.mark.parametrize("module", sorted(LEFT_ACTION_HOMES))
def test_left_action_called_only_in_its_homes(module):
    source = (SRC / module).read_text(encoding="utf-8")
    owners = {owner for owner, _ in builds(source, ("_left_action",))}
    assert owners == set(LEFT_ACTION_HOMES[module])
