"""Graph substrate: synthetic data-graph generators and CSR preprocessing.

This package is the reproduction's stand-in for G2Miner's *graph loader and
preprocessor* (paper SS4.2): loading a data graph into CSR, extracting input
information (|V|, |E|, max degree) and performing pattern-specific
preprocessing (orientation, neighbor-list sorting, edgelist reduction).
Vertex labels stay outside the CSR: only FSM reads them (``core.fsm``).
"""
