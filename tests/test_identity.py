"""A catalog tensor carries the FamilySpec it was built from.

Its name is the spec's label, and whether a Lyapunov function or an
invariant set applies to it is read from the spec, never from the name: a
loaded or random tensor has no spec and runs every check.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import cli
from qsodyn.analysis import (
    InvariantSetSpec,
    LyapunovFn,
    abs_diff_product,
    check_invariant_set,
    check_lyapunov,
    coord_product,
    cycle_product,
    cycle_sum,
    cyclic_product,
    khukr_m_tau,
    last_coord,
    m0_set,
    m_omega_set,
    vallander_diag,
)
from qsodyn.errors import InapplicableFunction, InapplicableSet, QsoError
from qsodyn.families import (
    REGISTRY,
    FamilySpec,
    make,
    make_alpha_combination,
    make_quasi_strict,
    make_regular,
    make_s2,
)
from qsodyn.simplex import parse_cycles
from qsodyn.tensor import CoefficientTensor, load_tensor, random_tensor, save_tensor

# (family, m, permutation, parameter) and the name the tensor had when each
# family wrote its own name
NAMES = [
    (("REGULAR", 3, None, None), "REGULAR(m=3)"),
    (("REGULAR", 9, None, None), "REGULAR(m=9)"),
    (("QUASI_STRICT", 3, "()", None), "QUASI_STRICT(m=3, pi=())"),
    (("QUASI_STRICT", 3, "(1 2)", None), "QUASI_STRICT(m=3, pi=(1 2))"),
    (("QUASI_STRICT", 6, "(1 2)(3 4 5)", None), "QUASI_STRICT(m=6, pi=(1 2)(3 4 5))"),
    (("ALPHA_COMBINATION", 4, "(1 2 3)", 0.3), "ALPHA_COMBINATION(m=4, pi=(1 2 3), alpha=0.3)"),
    (("ALPHA_COMBINATION", 4, "(1 3)", 1), "ALPHA_COMBINATION(m=4, pi=(1 3), alpha=1)"),
    (("ALPHA_COMBINATION", 3, "()", 0.0), "ALPHA_COMBINATION(m=3, pi=(), alpha=0.0)"),
    (("V0", None, None, None), "V0"),
    (("V1", None, None, None), "V1"),
    (("V2", None, None, None), "V2"),
    (("V3", None, None, None), "V3"),
    (("V4", None, None, None), "V4"),
    (("V5", None, None, None), "V5"),
    (("V6", None, None, None), "V6"),
    (("V7", None, None, None), "V7"),
    (("ZAKHAREVICH", None, None, None), "ZAKHAREVICH"),
    (("KHUKR", None, None, None), "KHUKR"),
    (("VALLANDER_THETA", None, None, 0.5), "VALLANDER_THETA(theta=0.5)"),
    (("GANIKHODJAEV_LAMBDA", None, None, 0.1), "GANIKHODJAEV_LAMBDA(lambda=0.1)"),
    (("VALLANDER_SPIRAL", None, None, 1), "VALLANDER_SPIRAL(lambda=1)"),
    (("GSN_ALPHA", None, None, 0.25), "GSN_ALPHA(alpha=0.25)"),
    (("GSN_BETA", None, None, 0.05), "GSN_BETA(beta=0.05)"),
    (("JJPH_THETA", None, None, 0.0), "JJPH_THETA(theta=0.0)"),
]


def perm_for(m: int) -> str:
    """Two cycles on 1..5 for m = 6, else one cycle on 1..m-1."""
    return "(1 2)(3 4 5)" if m == 6 else "(" + " ".join(map(str, range(1, m))) + ")"


def catalog_tensors():
    out = []
    for name, info in REGISTRY.items():
        for m in ([3, 6] if info.m_fixed is None else [None]):
            perm = parse_cycles(perm_for(m), m - 1) if info.needs_permutation else None
            out.append(make(name, m, perm, 0.5 if info.parameter else None))
    return out


def catalog_functions(m: int) -> list[LyapunovFn]:
    perm = parse_cycles(perm_for(m), m - 1)
    return [cyclic_product(), cycle_product(perm, 1), cycle_sum(perm, 1), last_coord(),
            abs_diff_product(), coord_product()]


def catalog_sets(m: int) -> list[InvariantSetSpec]:
    sets = [m0_set(m), vallander_diag(), khukr_m_tau(0.5)]
    if m == 6:
        sets.append(m_omega_set(6, parse_cycles(perm_for(6), 5), 1, 2, 2.0))
    return sets


@pytest.mark.parametrize("args,name", NAMES, ids=[name for _, name in NAMES])
def test_the_name_is_the_label_of_the_spec(args, name):
    family, m, perm, parameter = args
    perm = None if perm is None else parse_cycles(perm, m - 1)
    t = make(family, m, perm, parameter)
    assert t.name == name == t.spec.label
    assert t.spec == FamilySpec(family, m or 3, perm, parameter)


def test_the_wrappers_carry_the_spec_of_make():
    perm = parse_cycles("(1 2 3)", 3)
    for t, name in [(make_regular(9), "REGULAR(m=9)"),
                    (make_quasi_strict(4, perm), "QUASI_STRICT(m=4, pi=(1 2 3))"),
                    (make_alpha_combination(4, perm, 0.3),
                     "ALPHA_COMBINATION(m=4, pi=(1 2 3), alpha=0.3)"),
                    (make_s2("ZAKHAREVICH"), "ZAKHAREVICH"),
                    (make_s2("GSN_BETA", 0.05), "GSN_BETA(beta=0.05)")]:
        assert t.name == name == t.spec.label


@pytest.mark.parametrize("parameter,name", [
    (np.float64(0.05), "GSN_BETA(beta=0.05)"),
    (np.float32(0.5), "GSN_BETA(beta=0.5)"),
    (np.int64(1), "GSN_BETA(beta=1)"),
], ids=["float64", "float32", "int64"])
def test_a_numpy_parameter_is_named_as_the_python_number(parameter, name):
    t = make("GSN_BETA", parameter=parameter)
    assert t.name == name == t.spec.label
    assert type(t.spec.parameter) is type(parameter.item())
    assert np.array_equal(t.p, make("GSN_BETA", parameter=parameter.item()).p)


@pytest.mark.parametrize("parameter", ["0.5", b"0.5", [0.5], 0.5j],
                         ids=["str", "bytes", "list", "complex"])
def test_a_parameter_that_is_not_a_real_number_is_refused(parameter):
    with pytest.raises(QsoError, match="beta must be a real number"):
        make("GSN_BETA", parameter=parameter)


def test_every_catalog_family_entry_is_a_registry_name():
    for m in (3, 6):
        for check in catalog_functions(m) + catalog_sets(m):
            assert check.families and set(check.families) <= set(REGISTRY), check.id


def _refused(t, families) -> tuple[bool, bool]:
    """Whether a check for ``families`` refuses ``t``, as a Lyapunov
    function and as an invariant set that run on any m."""
    fn = LyapunovFn("ANY_M", "NON_INCREASING", 0, families, lambda x: 0.0 * x[..., 0])
    spec = InvariantSetSpec("ANY_M", families, lambda x: 0.0,
                            lambda rng: np.full(t.m, 1.0 / t.m))
    verdicts = []
    for check, args, error in [(check_lyapunov, (fn, 1, 1, 0), InapplicableFunction),
                               (check_invariant_set, (spec, 1, 1, 0), InapplicableSet)]:
        try:
            check(t, *args)
            verdicts.append(False)
        except error as exc:
            assert "applies to" in str(exc)
            verdicts.append(True)
    return tuple(verdicts)


def test_the_exact_rule_agrees_with_the_name_prefix_rule_on_the_catalog():
    family_sets = {check.families for m in (3, 6)
                   for check in catalog_functions(m) + catalog_sets(m)}
    for t in catalog_tensors():
        for families in family_sets:
            prefix = not any(t.name.startswith(f) for f in families)
            assert _refused(t, families) == (prefix, prefix), (t.name, families)


def test_a_tensor_without_a_spec_runs_every_check():
    t = make_regular(6)
    bare = CoefficientTensor(t.m, t.p, t.name)
    assert bare.spec is None
    assert _refused(t, ("QUASI_STRICT",)) == (True, True)
    assert _refused(bare, ("QUASI_STRICT",)) == (False, False)


def test_a_loaded_catalog_tensor_runs_the_checks_of_its_family(tmp_path):
    for t in catalog_tensors():
        path = tmp_path / "tensor.txt"
        save_tensor(t, str(path))
        loaded = load_tensor(str(path), name=str(path))
        assert loaded.spec is None and np.array_equal(loaded.p, t.p)
        for fn in catalog_functions(t.m):
            if t.spec.family in fn.families:
                args = (fn, 3, fn.n0 + 5, 1)
                assert check_lyapunov(loaded, *args) == check_lyapunov(t, *args)
        for spec in catalog_sets(t.m):
            if t.spec.family in spec.families:
                args = (spec, 3, 5, 1)
                assert check_invariant_set(loaded, *args) == check_invariant_set(t, *args)


def test_the_verdict_does_not_depend_on_the_file_name(tmp_path, monkeypatch, capsys):
    # relative names, so that the name is the one given on the command line
    monkeypatch.chdir(tmp_path)
    results = []
    for file_name in ("reg6.txt", "REGULAR_six.txt"):
        save_tensor(make_regular(6), file_name)
        code = cli.main(["lyapunov", "--tensor-file", file_name, "--fn", "CYCLIC_PRODUCT",
                         "--samples", "20", "--horizon", "30", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]
    assert results[0]["samples"] == 20 and results[0]["violations"] == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_a_random_tensor_runs_every_catalog_function(m, seed):
    t = random_tensor(np.random.default_rng(seed), m)
    assert t.spec is None
    for fn in catalog_functions(m):
        rep = check_lyapunov(t, fn, 2, fn.n0 + 3, seed)
        assert rep.fn_id == fn.id and rep.samples == 2
