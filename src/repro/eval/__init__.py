"""Metrics and experiment-running utilities."""

from .metrics import Rouge1Score, classification_accuracy, rouge1, score_output

__all__ = ["rouge1", "Rouge1Score", "classification_accuracy", "score_output"]
