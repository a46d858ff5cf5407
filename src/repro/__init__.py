"""repro — Hybrid compressed-sensing ECG front-end.

A complete, from-scratch Python reproduction of

    H. Mamaghanian and P. Vandergheynst,
    "Ultra-Low-Power ECG Front-End Design based on Compressed Sensing",
    DATE 2015, pp. 671-676.

Subpackages
-----------
``repro.core``
    The paper's contribution: hybrid front-end, packets, receiver, pipeline.
``repro.runtime``
    Staged execution engine with pluggable serial/parallel executors.
``repro.signals``
    Synthetic MIT-BIH-like ECG substrate (ECGSYN model + noise + database).
``repro.wavelets``
    Orthogonal wavelet/DCT sparsifying bases built from first principles.
``repro.sensing``
    Measurement ensembles, ADC quantizers, behavioural RMPI simulator.
``repro.coding``
    Huffman/difference entropy coding of the low-resolution channel.
``repro.recovery``
    The receiver's decoders: the PDHG kernel for the box-constrained
    hybrid problem of the paper's Eq. 1 and plain BPDN, and BSBL-BO.
``repro.power``
    Analytical power models (Eqs. 4-9) and architecture comparisons.
``repro.experiments``
    One driver per paper table/figure, used by the benchmark harness.

Quickstart
----------
>>> from repro.core import DEFAULT_CONFIG, run_record
>>> from repro.signals import load_record
>>> outcome = run_record(load_record("100", duration_s=10.0), DEFAULT_CONFIG,
...                      max_windows=2)
>>> outcome.mean_snr_db > 15
True
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
