"""Simulator and design-space-exploration toolkit for a noncoherent
microring-resonator binarized-neural-network accelerator."""

__version__ = "0.1.0"
__all__ = ["__version__"]
