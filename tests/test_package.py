"""The package root's public surface: each module's ``__all__``, republished."""

import importlib

import pytest

import dualperron

MODULES = ("dual", "linalg", "structure", "solver", "oracle", "generators", "errors")

# The whole public surface; a name added to or dropped from a module's
# ``__all__`` must be added or dropped here too.
SURFACE = {
    "DualNumber", "magnitude", "format_dual",
    "DualVector", "DualMatrix", "vec_norm2", "normalize", "matvec", "matmul", "inverse",
    "frn_norm", "save_matrix", "load_matrix",
    "StructureReport", "classify", "wielandt_check",
    "Flag", "SolverConfig", "PerronResult", "TraceRecord", "solve", "solve_dual_part",
    "row_sum_bounds", "minimax_ratios", "eigen_residual",
    "SpectrumReport", "spectrum", "lambda_d_oracle", "fd_check",
    "dual_part_at", "verify",
    "ExampleSpec", "XorShift64Star", "generate", "EXAMPLE_IDS",
    "DualPerronError", "DivisionUndefined", "ZeroVector", "DimensionMismatch",
    "SingularStandardPart", "NotSquare", "TooLarge", "StructureViolation",
    "NonPositiveIterate", "NonPositiveVector", "RankDeficient", "NoPositivePerronVector",
    "BadSpec",
    "__version__",
}


def test_root_exports_each_name_once():
    assert len(dualperron.__all__) == len(set(dualperron.__all__))


def test_root_exports_the_surface():
    assert len(SURFACE) == 49
    assert set(dualperron.__all__) == SURFACE


def test_root_is_the_modules_lists_in_order():
    modules = [importlib.import_module(f"dualperron.{m}") for m in MODULES]
    assert dualperron.__all__ == [n for m in modules for n in m.__all__] + ["__version__"]


@pytest.mark.parametrize("module", MODULES)
def test_each_name_is_its_modules_object(module):
    m = importlib.import_module(f"dualperron.{module}")
    for name in m.__all__:
        assert getattr(dualperron, name) is getattr(m, name), name


def test_trace_fields_stay_in_the_solver():
    # the CLI's trace CSV header, imported by name; not part of the surface
    from dualperron.solver import TRACE_FIELDS

    assert TRACE_FIELDS[0] == "k"
    assert not hasattr(dualperron, "TRACE_FIELDS")
