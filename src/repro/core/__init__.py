"""The compiler pass: the paper's primary contribution (Sections 4-5).

A lazy facade (:mod:`repro._lazy`): ``repro.program.ir`` imports
:mod:`repro.core.linalg`, and :mod:`repro.core.dependence` imports the
IR back, so this package must not import its submodules eagerly.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ArrayPlan", "ClusteredLayout", "DataToCoreResult",
    "DependenceResult", "LegalityReport", "Layout", "RefSystem",
    "check_parallelization", "check_program",
    "LayoutTransformer", "RowMajorLayout", "SharedL2Layout",
    "TransformationResult", "TransformedLayout", "data_to_core_mapping",
    "original_layouts", "partition_vector", "submatrix_without_column",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.data_to_core": ("DataToCoreResult", "RefSystem",
                                "data_to_core_mapping", "partition_vector",
                                "submatrix_without_column"),
    "repro.core.dependence": ("DependenceResult", "LegalityReport",
                              "check_parallelization", "check_program"),
    "repro.core.layout": ("ClusteredLayout", "Layout", "RowMajorLayout",
                          "SharedL2Layout", "TransformedLayout"),
    "repro.core.pipeline": ("ArrayPlan", "LayoutTransformer",
                            "TransformationResult", "original_layouts"),
})
