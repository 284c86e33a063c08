"""Wave-domain DFT fitting and energy-only 2D direction finding toolkit."""

__version__ = "0.1.0"
