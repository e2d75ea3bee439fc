"""Recurrent-convolutional multi-station weather forecasting with explainability.

Four architectures (one- and two-stream ConvLSTM forecasters, each with an
optional self-attention encoder) built on a small float64 reverse-mode
autodiff core, trained with Adam on min-max-scaled daily station data, and
explained through occlusion analysis and score maximization.
"""

__version__ = "0.1.0"
