"""Lambda-calculus workbench: finite and rational terms, resource reduction,
Taylor slices, Boehm approximants, and desk-scale theorem checks."""

__version__ = "0.1.0"
