"""Table I: the paper's BCM compression numbers for a 512x512 FC layer.

The ``table1`` study in :mod:`repro.study.studies` computes the table
from :func:`repro.bcm.compression_table`; the benchmark checks it
against these rows.
"""

#: The numbers printed in the paper (block size -> compressed bytes,
#: storage reduction), for verification.
PAPER_TABLE1 = {
    16: (65536, 0.9375),
    32: (32768, 0.9687),
    64: (16384, 0.9843),
    128: (8192, 0.9921),
    256: (4096, 0.9960),
}
