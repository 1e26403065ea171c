"""Incoherent dictionaries over prime fields and their Gram-spectrum statistics."""

__version__ = "0.1.0"
