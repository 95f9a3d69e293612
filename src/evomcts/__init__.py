"""Tree search on interval-splitting landscapes with evolvable policies."""

__version__ = "0.1.0"
