"""Generated forall kernels against the AST-walking reference model.

``repro/lang/lower.py`` translates a forall body into NumPy source once
and compiles it; ``tests/kali_reference.py`` keeps the interpreter that
translation replaced.  Both are built here from one analysis and run on
the same batch: every write value and reduction contribution must agree
byte for byte, dtype included, or both must raise the same error.

The bodies cover assignment, ``if``/``else``, count-bounded and
constant-bounded inner ``for`` loops, sum / max / min reductions (under
``if`` and inside ``for``), integer and real locals, ``div`` / ``mod`` /
``/``, all six built-ins, and replicated, row, affine and indirect reads;
the operands hold -0.0, NaN and 1e16 among ordinary values.
"""

import ast as pyast
import builtins
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.forall import IndirectOperand, IndirectRead
from repro.errors import KaliSemanticError
from repro.lang import compile_kali, lower
from repro.lang.lower import ArrayInfo, ForallLowerer
from repro.lang.parser import parse
from repro.lang.sema import analyze
from tests.kali_reference import reference_kernel

N, W = 16, 3
HEADER = f"""
processors Procs : array[1..P] with P in 1..8;
const n : integer := {N};
const w : integer := {W};
var A, B : array[1..n] of real dist by [ block ] on Procs;
    K, C, U : array[1..n] of integer dist by [ block ] on Procs;
    T : array[1..n, 1..w] of integer dist by [ block, * ] on Procs;
    M : array[1..n, 1..w] of real dist by [ block, * ] on Procs;
var R : array[1..4] of real;
var tot, big, small, z : real;
    q : integer;
"""
ARRAYS = {
    **{name: ArrayInfo(name, (1,), (N,), True, "real") for name in "AB"},
    **{name: ArrayInfo(name, (1,), (N,), True, "integer") for name in "KCU"},
    "T": ArrayInfo("T", (1, 1), (N, W), True, "integer"),
    "M": ArrayInfo("M", (1, 1), (N, W), True, "real"),
    "R": ArrayInfo("R", (1,), (4,), False, "real"),
}
FLOATS = [-0.0, 0.0, 1.0, -2.5, 3.0, 0.5, 7.0, 1e16, -1e16, np.nan]
INTS = [0, 1, 2, 3, -1, -4, 7, 10 ** 16]


def _lowered(body: str, scalars):
    program = parse(HEADER + "forall i in 1..n on A[i].loc do\n"
                    "    var x : real; y : integer;\n" + body + "\nend;\n")
    stmt = program.stmts[-1]
    lowerer = ForallLowerer(stmt, analyze(program), ARRAYS, scalars,
                            {"R": scalars.pop("_R")}, "codegen")
    return lowerer, lowerer.build()


def _batch(forall, rng, size):
    """Iterations and operands as the executor would hand them over."""
    iters = np.sort(rng.choice(N, size=size, replace=False))
    counts = rng.integers(0, W + 1, size=size)
    ops = {}
    for read in forall.reads:
        integer = ARRAYS[read.array].elem == "integer"
        pool = INTS if integer else FLOATS
        if isinstance(read, IndirectRead):
            widths = counts if read.count else np.full(size, W)
            live = np.arange(W)[None, :] < widths[:, None]
            values = np.where(live, rng.choice(pool, size=(size, W)), 0)
            ops[read.name] = IndirectOperand(values.astype(np.int64 if integer else float),
                                             widths, live)
        elif read.array == "C":
            ops[read.name] = counts
        else:
            shape = (size, W) if read.array == "M" else size
            ops[read.name] = rng.choice(pool, size=shape)
    return iters, ops


def _outcome(kernel, iters, ops):
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = kernel(iters, ops)
    except Exception as exc:        # both must fail alike
        return "raises", type(exc)
    if not isinstance(out, dict):
        out = {None: out}
    # an object array (Python ints past int64) holds pointers: compare values
    return "returns", {name: (v.dtype.str, v.shape,
                              repr(v.tolist()) if v.dtype == object else v.tobytes())
                       for name, v in out.items()}


def _check(body: str, seed: int, sizes=(0, 1, 5)):
    rng = np.random.default_rng(seed)
    scalars = {"n": N, "w": W, "P": 4, "tot": 0.0, "big": 0.0, "small": 0.0,
               "z": float(rng.choice(FLOATS)), "q": int(rng.choice(INTS)),
               "_R": rng.choice(FLOATS, size=4)}
    lowerer, forall = _lowered(body, scalars)
    reference = reference_kernel(lowerer)
    for size in sizes:
        iters, ops = _batch(forall, rng, size)
        assert _outcome(forall.kernel, iters, ops) == _outcome(reference, iters, ops)


FEATURES = {
    "assign": "A[i] := A[i] * 2.0 + z;",
    "if-else": "if A[i] > 0.5 then A[i] := 1.0; else A[i] := -1.0; end;",
    "conditional-merge": "if K[i] > 1 then A[i] := z; end;",
    "empty-then": "if A[i] > 0.0 then else B[i] := 2.0; end;",
    "count-loop": "x := 0.0;\n for j in 1..C[i] do x := x + M[i, j] * A[T[i, j]]; end;\n"
                  " if (C[i] > 0) then A[i] := x; end;",
    "constant-loop": "x := 0.0; for k in 1..w do x := x + M[i, k] * B[T[i, k]]; end; B[i] := x;",
    "sum-under-if-in-for": "for j in 1..C[i] do if M[i, j] > 0.0 then tot := tot + M[i, j]; "
                           "end; end;",
    "max-min": "big := max(big, A[i]); small := min(abs(A[i]), small);",
    "reduction-and-write": "tot := tot + float(K[i]); K[i] := K[i] + 1;",
    "int-and-real-locals": "y := K[i] div 2; x := float(y) / 3.0; K[i] := y mod 5; A[i] := x;",
    "builtins": "A[i] := sqrt(abs(A[i])) + float(trunc(B[i + 1])) + min(A[i], z) "
                "- max(q, K[i]);",
    "div-mod-slash": "K[i] := K[i] div 3 + K[i] mod 3; A[i] := B[i + 1] / A[i];",
    "replicated": "A[i] := R[1 + i mod 4] * R[2];",
    "one-d-table-and-column": "A[i] := B[U[i]] + A[T[i, 2]];",
    "boolean-ops": "if (A[i] > 0.0) and not (B[i + 1] < z) or (K[i] = 3) then A[i] := 1.0; end;",
    "nested-loops": "x := 0.0; for j in 1..C[i] do for k in 1..2 do "
                    "x := x + M[i, j] * float(k); end; end; A[i] := x;",
    "loop-var-assigned": "for k in 1..2 do k := k + 1; x := x + M[i, k] * float(k); end; "
                         "A[i] := x;",
    # j = 3 raises only if some lane still runs it: a dead iteration is skipped
    "dead-iterations-skipped": "if A[i] > 0.0 then for j in 1..C[i] do "
                               "y := y + 1 div (3 - j); end; end; A[i] := y;",
    "non-uniform-lower-bound": "for k in C[i]..3 do x := x + 1.0; end; A[i] := x;",
    "literals": "A[i] := -0.0 * A[i] + 1e16 - 0.5; K[i] := -(i) + 10000000000000000;",
    "past-int64": "x := trunc(z * 1e16); A[i] := x;",
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_feature_matches_the_reference(feature):
    for seed in range(12):
        _check(FEATURES[feature], seed)


# --- hypothesis: generated bodies ------------------------------------------------

LEAVES = ["i", "x", "y", "q", "z", "0", "1", "2", "3", "0.5", "2.0", "1e16", "0.0",
          "A[i]", "B[i + 1]", "K[i]", "C[i]", "M[i, 2]", "A[T[i, 1]]", "B[U[i]]",
          "R[1 + i mod 4]"]


def _expr(draw, depth, loops):
    leaves = LEAVES + [leaf for var in loops
                       for leaf in (var, f"M[i, {var}]", f"A[T[i, {var}]]", f"R[{var}]")]
    shape = "leaf" if depth >= 3 else draw(st.sampled_from(
        ["leaf", "leaf", "binop", "binop", "neg", "call"]))
    if shape == "leaf":
        return draw(st.sampled_from(leaves))
    if shape == "neg":
        return f"(-{_expr(draw, depth + 1, loops)})"
    if shape == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "/", "div", "mod"]))
        return f"({_expr(draw, depth + 1, loops)} {op} {_expr(draw, depth + 1, loops)})"
    func = draw(st.sampled_from(["abs", "min", "max", "float", "trunc", "sqrt"]))
    args = [_expr(draw, depth + 1, loops) for _ in range(2 if func in ("min", "max") else 1)]
    return f"{func}({', '.join(args)})"


def _cond(draw, loops):
    cmp = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    base = f"({_expr(draw, 1, loops)} {cmp} {_expr(draw, 1, loops)})"
    form = draw(st.sampled_from(["plain", "plain", "not", "and", "or", "value"]))
    if form == "not":
        return f"not {base}"
    if form in ("and", "or"):
        return f"{base} {form} ({_expr(draw, 2, loops)} > 0.0)"
    return _expr(draw, 2, loops) if form == "value" else base


def _stmts(draw, depth, loops):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["local", "local", "write", "write", "reduce"]
        if depth < 2:
            kinds += ["if", "for"]
        kind = draw(st.sampled_from(kinds))
        if kind == "local":
            out.append(f"{draw(st.sampled_from(['x', 'y']))} := {_expr(draw, 0, loops)};")
        elif kind == "write":
            out.append(f"{draw(st.sampled_from('ABK'))}[i] := {_expr(draw, 0, loops)};")
        elif kind == "reduce":
            e = _expr(draw, 0, loops)
            out.append(draw(st.sampled_from([f"tot := tot + {e};", f"big := max(big, {e});",
                                             f"small := min({e}, small);"])))
        elif kind == "if":
            then = " ".join(_stmts(draw, depth + 1, loops))
            other = " ".join(_stmts(draw, depth + 1, loops)) if draw(st.booleans()) else ""
            out.append(f"if {_cond(draw, loops)} then {then}"
                       + (f" else {other}" if other else "") + " end;")
        else:
            var = "j" if "j" not in loops else "k"
            if var in loops:
                continue
            bound = draw(st.sampled_from(["1..C[i]", "1..C[i]", "1..2", "1..w"]))
            body = " ".join(_stmts(draw, depth + 1, loops + (var,)))
            out.append(f"for {var} in {bound} do {body} end;")
    return out


@st.composite
def bodies(draw):
    return "\n".join(_stmts(draw, 0, ()) + ["A[i] := " + _expr(draw, 1, ()) + ";"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bodies(), st.integers(0, 2 ** 16))
def test_generated_body_matches_the_reference(body, seed):
    _check(body, seed)


# --- what reaches compile() ---------------------------------------------------

#: names a kernel text may use besides the ones the lowerer numbers
_VOCABULARY = {"make", "kernel", "iters", "ops", "n", "np", "range", "abs",
               *(name for name in vars(lower)["_RUNTIME"])}
_NUMBERED = re.compile(r"[avpwurmt]\d+\Z")

HOSTILE = """
processors Procs : array[1..P] with P in 1..8;
const n : integer := 12;
const a0 : real := 0.5;
var np, ops : array[1..n] of real dist by [ block ] on Procs;
    kernel : array[1..n] of integer dist by [ block ] on Procs;
var make : array[1..2] of real;
make[1] := 2.0;
forall iters in 1..n on np[iters].loc do
    var __import__, lambda, v1 : real;
    __import__ := 1e999;
    lambda := 0000012;
    v1 := 123456789012345678901234567890.0 * a0;
    for exec in 1..kernel[iters] do
        lambda := lambda + make[1] * float(exec);
    end;
    if __import__ > v1 then np[iters] := ops[iters] + lambda - v1 * 0.0 + a0; end;
end;
"""


def test_hostile_source_reaches_compile_only_as_numbers(monkeypatch):
    texts = []

    def spy(text, *args, **kwargs):
        texts.append(text)
        return builtins.compile(text, *args, **kwargs)

    lower._kernel_factory.cache_clear()
    monkeypatch.setattr(lower, "compile", spy, raising=False)
    count = np.arange(12) % 4
    ops = np.linspace(-1.0, 1.0, 12)
    res = compile_kali(HOSTILE).run(nprocs=4, inputs={"kernel": count, "ops": ops})
    expected = ops + (12.0 + count * (count + 1)) - 0.0 + 0.5
    np.testing.assert_array_equal(res.arrays["np"], expected)
    assert texts
    for text in texts:
        for node in pyast.walk(pyast.parse(text)):
            if isinstance(node, pyast.Name):
                assert node.id in _VOCABULARY or _NUMBERED.match(node.id), node.id
            elif isinstance(node, pyast.arg):
                assert node.arg in ("iters", "ops") or _NUMBERED.match(node.arg)
            elif isinstance(node, pyast.Constant):
                assert type(node.value) in (int, float, bool), repr(node.value)
                assert np.isfinite(node.value)
        for word in ("__import__", "lambda", "exec", "1e999", "123456789012345678901234567890"):
            assert word not in text


def test_a_renamed_program_reuses_the_compiled_kernel():
    """The text is a function of the body's shape, not of its names."""
    src = HEADER + "forall i in 1..n-1 on A[i].loc do A[i] := B[i + 1] * z; end;"
    renamed = (src.replace("A, B", "P1, P2").replace("A[i]", "P1[i]")
               .replace("B[i + 1]", "P2[i + 1]").replace(" z ", " zz ")
               .replace("* z;", "* zz;"))
    assert renamed != src
    inputs = {"B": np.arange(float(N))}
    compile_kali(src).run(nprocs=2, inputs=inputs, consts={"z": 2.0})
    misses = lower._kernel_factory.cache_info().misses
    res = compile_kali(renamed).run(nprocs=2, inputs={"P2": inputs["B"]},
                                    consts={"zz": 2.0})
    assert lower._kernel_factory.cache_info().misses == misses
    np.testing.assert_array_equal(res.arrays["P1"][:-1], 2.0 * np.arange(1.0, N))


def test_lowering_rejects_what_the_kernel_cannot_scope():
    def lower_body(body):
        return _lowered(body, {"n": N, "w": W, "P": 4, "q": 0, "z": 0.0,
                               "tot": 0.0, "big": 0.0, "small": 0.0,
                               "_R": np.zeros(4)})

    with pytest.raises(KaliSemanticError, match="shadows"):
        lower_body("for i in 1..2 do A[i] := 1.0; end;")
    with pytest.raises(KaliSemanticError, match="shadows"):
        lower_body("for j in 1..2 do for j in 1..2 do A[i] := 1.0; end; end;")
    with pytest.raises(KaliSemanticError, match="string literals"):
        lower_body('A[i] := "text";')
    with pytest.raises(KaliSemanticError, match="has no value"):
        lower_body("A[i] := Procs;")
    lower_body("for j in 1..2 do A[i] := 1.0; end; for j in 1..3 do B[i] := 2.0; end;")
