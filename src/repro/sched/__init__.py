"""Multi-GPU task scheduling (paper SS7.1), as virtual-GPU simulation."""
