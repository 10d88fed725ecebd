"""Exception types shared across the package.

Two families matter to callers. InputFormatError covers anything wrong with
bytes read from disk and maps to CLI exit code 2. ComputeError covers
semantically invalid or degenerate inputs to numeric routines and maps to
CLI exit code 3.
"""


class FreshkitError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(FreshkitError):
    """A file or stream does not match its documented format."""


class ComputeError(FreshkitError):
    """Inputs are well-formed but numerically or semantically unusable."""


# --- file format family -------------------------------------------------

class MalformedHeader(InputFormatError):
    """CSV header does not match the required column layout."""


class InconsistentWidth(InputFormatError):
    """A CSV row has a different field count than the header."""


class NonFiniteLogit(InputFormatError):
    """A logit cell is NaN, infinite, or not parseable as a float."""


class BadLabelIndex(InputFormatError):
    """A label is not an integer in [-1, C)."""


class BadSplitTag(InputFormatError):
    """A split cell is not one of train/val/test/ood."""


class BadMagic(InputFormatError):
    """A PGM/PPM file does not start with the expected magic number."""


class TruncatedPayload(InputFormatError):
    """A PGM/PPM payload is shorter than width*height implies."""


class UnsupportedMaxval(InputFormatError):
    """A PGM/PPM maxval other than 255 was encountered."""


class MalformedModel(InputFormatError):
    """A model JSON file does not hold the layout save_model writes."""


# --- numeric / semantic family ------------------------------------------

class EmptyVector(ComputeError):
    """An operation requiring at least one element got none."""


class NonPositiveTemperature(ComputeError):
    """Temperature parameters must be strictly positive."""


class DimensionMismatch(ComputeError):
    """Array shapes do not line up for the requested operation."""


class LengthMismatch(ComputeError):
    """Paired sequences differ in length."""


class EmptyDataset(ComputeError):
    """Training or evaluation was asked to run on zero samples."""


class EmptyBatch(ComputeError):
    """A batch-level routine received zero rows."""


class EmptyInput(ComputeError):
    """A statistics routine received zero observations."""


class EmptyMatrix(ComputeError):
    """A confusion matrix with zero total count cannot be summarized."""


class RowNotNormalized(ComputeError):
    """A probability row does not sum to 1 within tolerance."""


class MissingClass(ComputeError):
    """A class required by the computation has no samples on one side."""


class NegativeStatistic(ComputeError):
    """A chi-square statistic must be nonnegative."""


class BadTrainConfig(ComputeError):
    """A training setting is outside its valid range."""


class TrainingDiverged(ComputeError):
    """Training left some parameter infinite or NaN."""


class TooFewSamplesPerClass(ComputeError):
    """Some class has fewer samples than the fold layout needs."""


class TooFewPixels(ComputeError):
    """Fewer pixels than mixture components."""


class ImageTooSmall(ComputeError):
    """The image is below the minimum size for box initialization."""


class DegenerateGraph(ComputeError):
    """Every capacity in the cut graph is zero."""


class FlowStalled(ComputeError):
    """An augmenting path or a phase carries no flow, so the max-flow search would not end."""


class BadParameter(ComputeError):
    """A numeric parameter is outside its valid range."""
