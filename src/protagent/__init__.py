"""Tool-augmented protein function reasoning agent.

Four local bioinformatics evidence tools behind a unified executor, a
multi-turn agent loop over a chat-completion wire protocol, and a
recall-based evaluation harness.
"""

__version__ = "0.1.0"

from .seq import Sequence, parse_fasta, validate_sequence

__all__ = [
    "Sequence",
    "parse_fasta",
    "validate_sequence",
    "__version__",
]
