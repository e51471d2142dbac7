import pathlib
import sys
import warnings

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Hypothesis imports this module to report a failing example; through libcst it raises a
# DeprecationWarning, which filterwarnings = ["error"] turns into an INTERNALERROR that ends the
# whole session.  Importing it once here, with that warning ignored, leaves the report to work.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
