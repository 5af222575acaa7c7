"""Layering: how a local class is encoded (class numbers, histograms and
the Hilbert-symbol tables) is known only to `localfields`.  Every other
module of the package reads local data through `form_class_at`,
`local_aniso_dim`, `_split_planes` and the symbols; this test reads each
module's syntax tree and fails on any import or mention of the encoding's
private names.  `forms` also reads the real place from the walk like any
other completion, so it names neither the real place nor a symbol.  The
walk factors nothing: `localfields` names no factoring function, and its
callers pass the primes.  The algebra layer decides by theorem:
`involutions` names no walk and no decision built on one.  A `Place` is
built only through its checked constructor, which tests primality.  The
test oracles borrow no private arithmetic from the engine, so that a fault
in it cannot pass engine and oracle alike."""

import ast
import dataclasses
from pathlib import Path

import pytest

import wittcert
from wittcert.localfields import Place

ENCODING = {"_class_index", "_class_histogram", "_histogram_class", "_symbol_table",
            "_TAME_TABLES", "_SERRE_TABLE"}
PACKAGE = Path(wittcert.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "localfields")


def names_used(tree: ast.AST) -> set[str]:
    """Every name the module imports, reads or reads as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"forms", "extensions", "similitude", "cli", "codecs"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_class_encoding_stays_in_localfields(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not names_used(tree) & ENCODING, path.name


def test_real_place_takes_the_path_of_every_prime():
    """R and C are completions like every Q_p: the symbols, square classes,
    form classes and degrees are read off the class-number tables, with no
    branch that names the real place."""
    tree = ast.parse((PACKAGE / "localfields.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    local_field = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "LocalField")
    degree = next(node for node in local_field.body
                  if isinstance(node, ast.FunctionDef) and node.name == "degree")
    for node in [functions["hilbert_symbol"], functions["local_square_class"],
                 functions["form_class_at"], degree]:
        assert not names_used(node) & {"is_real", "is_complex", "REAL"}, node.name


def test_localfields_defines_the_encoding():
    tree = ast.parse((PACKAGE / "localfields.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert ENCODING <= defined


def test_forms_sets_no_place_apart():
    names = names_used(ast.parse((PACKAGE / "forms.py").read_text()))
    assert not names & {"REAL", "is_real", "hilbert_symbol"}


def test_localfields_factors_nothing():
    names = names_used(ast.parse((PACKAGE / "localfields.py").read_text()))
    assert not names & {"factorize", "prime_support", "_factorize_rat", "_squarefree_part",
                        "squarefree_rep"}


def test_involutions_walks_nothing():
    names = names_used(ast.parse((PACKAGE / "involutions.py").read_text()))
    assert not names & {"is_isotropic", "is_hyperbolic", "witt_decompose", "completions",
                        "form_class_at"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_places_are_built_by_the_checked_constructor(path):
    """No `object.__new__(Place)` or `Place.__new__` skips `__post_init__`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "__new__":
            args = [a.id for a in node.args if isinstance(a, ast.Name)]
            owner = node.func.value
            assert "Place" not in args and not (isinstance(owner, ast.Name)
                                                and owner.id == "Place"), path.name


def test_place_takes_no_known_prime_flag():
    assert [f.name for f in dataclasses.fields(Place)] == ["p"]


@pytest.mark.parametrize("name", ["oracles.py", "dyadic_oracle.py"])
def test_oracles_borrow_no_private_arithmetic(name):
    tree = ast.parse((Path(__file__).parent / name).read_text())
    borrowed = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "wittcert.arith"
                for alias in node.names}
    borrowed |= {node.attr for node in ast.walk(tree)  # arith.name after `from wittcert import arith`
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "arith"}
    assert not {n for n in borrowed if n.startswith("_") or n == "legendre"}, name
