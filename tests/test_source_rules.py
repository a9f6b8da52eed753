"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import pathlib

import hopfgal

PACKAGE = pathlib.Path(hopfgal.__file__).parent
TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_package_has_no_assert_statements():
    # invariants must raise typed errors: `python -O` strips assert
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def outside_imatmul(is_use):
    """file:line of the package's AST nodes that `is_use` accepts, outside
    the body of _arrays._imatmul."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "_arrays.py":
            imatmul = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef)
                           and node.name == "_imatmul")
            allowed = {id(node) for node in ast.walk(imatmul)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in allowed and is_use(node)]
    return found


def node_name(node):
    return (node.attr if isinstance(node, ast.Attribute) else
            node.id if isinstance(node, ast.Name) else None)


def test_no_float64_arithmetic_outside_imatmul():
    # algebraic results are exact: float64 enters only _arrays._imatmul,
    # whose BLAS path is exact under a stated bound
    def is_use(node):
        func = node.func if isinstance(node, ast.Call) else None
        weighted = (getattr(func, "attr", getattr(func, "id", None))
                    == "bincount"
                    and any(kw.arg == "weights" for kw in node.keywords))
        return node_name(node) == "float64" or weighted
    found = outside_imatmul(is_use)
    assert not found, f"float64 arithmetic in the package: {found}"


def test_no_float32_arithmetic_outside_imatmul():
    # float32 BLAS is exact only under _imatmul's 2^24 bound: no other code
    # names the type, as a numpy attribute or a dtype string
    found = outside_imatmul(
        lambda node: node_name(node) in {"float32", "single"}
        or (isinstance(node, ast.Constant)
            and node.value in {"float32", "f4", "single"}))
    assert not found, f"float32 arithmetic in the package: {found}"


def test_dict_engine_stays_out_of_hot_paths():
    # the dict engine is the reference arithmetic: in resliealg only the
    # generator matrices (`_structure_rows`), the prop30_* oracles,
    # uenv_normalize and the engine itself call it; the rest runs on sparse
    # rows and matmuls
    path = PACKAGE / "resliealg.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    engine_calls = {"mul_label", "rmul_elem", "multiply", "word"}
    callers = {"_structure_rows", "prop30_sigma", "prop30_multiply",
               "uenv_normalize", "_Engine"}
    allowed = {id(node) for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               and top.name in callers for node in ast.walk(top)}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in allowed
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in engine_calls]
    assert not found, f"dict engine calls on a hot path: {found}"


def test_exactfield_has_one_polynomial_kernel():
    # polynomial arithmetic runs on Poly's int64 arrays: no module-level
    # _p* helpers on int lists beside it, and no Poly method falls back to
    # the per-coefficient Python products Field.cmul and Field.cinv
    path = PACKAGE / "exactfield.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_p")]
    poly = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "Poly")
    found += [f"{path.name}:{node.lineno} {node.func.attr}"
              for node in ast.walk(poly) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in {"cmul", "cinv"}]
    assert not found, f"a second polynomial kernel in exactfield: {found}"


def test_one_cocycle_kernel():
    # the cocycle of a cleaving map has one kernel, hopf.cocycle_pairs:
    # Prop30Context keeps no pass of its own, splitting_to_cocycle and
    # cocycle_transform build no dense heads gamma(x) gamma(y) and reach
    # the kernel through galois._cocycle_table
    tops = {}
    for name in ("resliealg", "galois"):
        path = PACKAGE / f"{name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        tops[name] = {node.name: node for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        tops[name]["module"] = tree

    def names(node):
        return {sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))}

    found = [f"resliealg.py:{node.lineno} defines _left_sums"
             for node in ast.walk(tops["resliealg"]["module"])
             if isinstance(node, ast.FunctionDef) and node.name == "_left_sums"]
    for layer, name, uses, avoids in [
            ("resliealg", "Prop30Context", "cocycle_pairs", None),
            ("galois", "_cocycle_table", "cocycle_pairs", None),
            ("galois", "splitting_to_cocycle", "_cocycle_table", "_products"),
            ("galois", "cocycle_transform", "_cocycle_table", "_products")]:
        node = tops[layer].get(name)
        got = names(node) if node is not None else set()
        if uses not in got:
            found.append(f"{layer}.{name} does not call {uses}")
        if avoids in got:
            found.append(f"{layer}.{name} calls {avoids}")
    assert not found, f"a second cocycle kernel: {found}"


def test_traced_entry_points_exist():
    # the traced benchmark wraps these by name: a kernel rework that renames
    # or drops one fails here, not in the benchmark run
    spec = importlib.util.spec_from_file_location("hopfgal_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"hopfgal.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, f"traced entry points not in the package: {missing}"


def left_table_contractions(path):
    """file:line of the fmatmul calls of a module whose third argument is
    <expr>.mul.reshape(...), a row block contracted against the whole
    structure tensor, outside the body of fdalg._left_table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {id(node) for top in tree.body
               if isinstance(top, ast.FunctionDef)
               and top.name == "_left_table" and path.name == "fdalg.py"
               for node in ast.walk(top)}

    def is_mul_reshape(arg):
        return (isinstance(arg, ast.Call) and node_name(arg.func) == "reshape"
                and isinstance(arg.func, ast.Attribute)
                and node_name(arg.func.value) == "mul")
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and node_name(node.func) == "fmatmul" and len(node.args) >= 3
            and is_mul_reshape(node.args[2])]


def test_one_left_table_kernel():
    # a product of coordinate vectors through mul goes through
    # fdalg._left_table, the left table U mul; PBW basis products in the
    # sl2 central elements are read as rows of mul, with no product at all
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in left_table_contractions(path)]
    path = PACKAGE / "speclab.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    products = {"power", "multiply", "left_mult_matrix", "binary_power"}
    found += [f"{path.name}:{node.lineno} {top.name} calls "
              f"{node_name(node.func)}"
              for top in tree.body if isinstance(top, ast.FunctionDef)
              and top.name in {"sl2_central_elements", "sl2_eq4_check"}
              for node in ast.walk(top) if isinstance(node, ast.Call)
              and node_name(node.func) in products]
    assert not found, f"products outside the left-table kernel: {found}"


def test_reports_stay_off_the_hopf_layer():
    # a fiber report reads its Frobenius form off the fiber's own mul:
    # no function of speclab builds u(L), its dual integral or a coaction
    path = PACKAGE / "speclab.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    hopf_route = {"u_restricted", "left_integral_dual", "frobenius_form",
                  "ComoduleAlgebra"}
    found = [f"{path.name}:{node.lineno} calls {node_name(node.func)}"
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and node_name(node.func) in hopf_route]
    assert not found, f"speclab calls the Hopf route: {found}"


def dense_coassociativity_buffers(path):
    """The zeros / empty / ones calls of a module whose arguments name nA
    once and nH twice: a dense (i, a, u, v) difference of (rho (x) id) rho
    and (id (x) Delta) rho, or a block of one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "attr", getattr(func, "id", None)) not in {
                "zeros", "empty", "ones"}:
            continue
        names = [sub.id for arg in node.args for sub in ast.walk(arg)
                 if isinstance(sub, ast.Name)]
        if names.count("nA") >= 1 and names.count("nH") >= 2:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_coassociativity_allocates_no_dense_difference():
    # coassociativity sums sorted term lists: galois allocates no buffer
    # of nA nH^2 cells per row i
    found = dense_coassociativity_buffers(PACKAGE / "galois.py")
    assert not found, f"dense coassociativity buffers: {found}"


def test_coproducts_and_coactions_are_held_as_terms():
    # Delta and rho are held once, as hopf.Terms: no module scatters the
    # splittings into a dense tensor (binomial_tensor is kept for the
    # benchmark and the tests) or keeps a second term extraction, and only
    # Terms.of scans a dense Delta or rho for its nonzeros
    legs = {"comul", "coaction", "rho", "binomial_tensor"}
    scans = {"nonzero", "flatnonzero", "argwhere", "csr"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for top in ast.walk(tree)
                   if isinstance(top, ast.ClassDef) and top.name == "Terms"
                   for fn in top.body if getattr(fn, "name", None) == "of"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "coaction_terms"):
                found.append(f"{path.name}:{node.lineno} coaction_terms")
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "binomial_tensor":
                found.append(f"{path.name}:{node.lineno} binomial_tensor")
            args = {getattr(sub, "attr", getattr(sub, "id", None))
                    for arg in node.args for sub in ast.walk(arg)}
            if name in scans and args & legs:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"dense coproducts or coactions: {found}"


# public names kept without a caller in the package, each for a reason
UNREFERENCED_PUBLIC = {
    # the block ideals, which the planned per-block radical will use
    "block_ideals",
    # independent oracles the tests check the package against
    "baby_verma_weights", "baby_verma_oracle", "prop30_multiply",
}


def test_public_names_are_used_or_exported():
    # a public top-level function or class is referenced elsewhere in the
    # package or exported by hopfgal.__all__: code only the tests call
    # belongs in the tests
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    # name -> the top-level statements that reference it
    refs = {}
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                ref = (node.name if isinstance(node, ast.alias)
                       else node_name(node))
                refs.setdefault(ref, set()).add(id(top))
    found = [f"{name}:{top.lineno} {top.name}"
             for name, tree in trees.items() for top in tree.body
             if isinstance(top, (ast.FunctionDef, ast.ClassDef))
             and not top.name.startswith("_")
             and top.name not in hopfgal.__all__
             and top.name not in UNREFERENCED_PUBLIC
             and not refs.get(top.name, set()) - {id(top)}]
    assert not found, f"public names with no use in the package: {found}"
