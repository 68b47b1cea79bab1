import os
import sys
from pathlib import Path

# Tier-1's byte pins (ROW_OUTPUT_DIGESTS, SHORT_BATCH_DIGESTS and the other
# digests) are taken on one BLAS kernel, named here once: OpenBLAS's Haswell
# core at one thread. Matrix products round differently per core, and with
# more threads OpenBLAS splits a product's rows among them, so a row at a
# split rounds differently too. OpenBLAS reads both variables when numpy
# loads it, so they are set before any test imports numpy, and they pass to
# every interpreter a test starts. The core needs x86-64 with AVX2 and
# numpy's DYNAMIC_ARCH OpenBLAS (the wheels' build); elsewhere (macOS
# Accelerate, aarch64) the pins may differ.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could name its BLAS "
                       "kernel; run tier-1 without the plugin or option that imports it")
os.environ["OPENBLAS_CORETYPE"] = "Haswell"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).parent))
