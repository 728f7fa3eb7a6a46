"""Session set-up shared by the test modules."""

import warnings

# When a property test fails, hypothesis's pytest plugin imports
# ``hypothesis.extra._patching`` to report it, and that imports ``libcst``,
# whose import warns that ``mypy_extensions.TypedDict`` is deprecated.  The
# project's ``error::DeprecationWarning`` filter would raise that warning
# inside pytest's report hook: an INTERNALERROR that loses the falsifying
# example and stops the run.  The module is imported here once, with that
# one warning ignored, so the report hook finds it loaded.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional for hypothesis
        pass
