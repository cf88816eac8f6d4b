"""Monte-Carlo diagnostics for noisy parameterized quantum circuits."""

__version__ = "0.3.0"
