"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes do not satisfy an operation's contract."""


class ContractError(RuntimeError):
    """A call violated a documented precondition."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class AlignmentError(ValueError):
    """Prediction and ground-truth corpora do not cover the same video ids."""

    def __init__(self, missing_in_pred, missing_in_gt):
        self.missing_in_pred = sorted(missing_in_pred)
        self.missing_in_gt = sorted(missing_in_gt)
        parts = []
        if self.missing_in_pred:
            parts.append(f"ids missing from predictions: {', '.join(self.missing_in_pred)}")
        if self.missing_in_gt:
            parts.append(f"ids missing from ground truth: {', '.join(self.missing_in_gt)}")
        super().__init__("; ".join(parts) or "corpora are not aligned")


class FileFormatError(ValueError):
    """A data file could not be parsed; the message names the offending line."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step, components):
        self.step = step
        self.components = components
        super().__init__(f"non-finite loss at step {step}: {components}")
