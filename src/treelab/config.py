"""Defaults shared by the command line and the library.

Each setting has one source: its flag, whose argparse default is the
constant here.  The library signatures read the same constants, so a
default is written once.  Nothing reads a shell variable or a file.
Only the CLI enforces budgets (max_k, vertex_cap) before building
anything; library functions take vertex_cap only where it sizes the
result.
"""

from __future__ import annotations

# Global flags: --max-k, --vertex-cap, --precision.
DEFAULT_MAX_K = 12
DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_DECIMAL_PRECISION = 12

# Subcommand defaults, each read by its flag and, all but the seed, by a
# library signature.
DEFAULT_SEED = 0                        # gen random --seed
DEFAULT_VERIFY_MAX_N = 11               # verify --max-n, run_suite
DEFAULT_WINDOW_SIZES = (5, 6)           # verify's window-bound k, run_suite
DEFAULT_SCAN_MAX_N = 11                 # scan --max-n, conjecture_scan
DEFAULT_FIGURE_D_MAX = 8                # region --d-max, emit_figure_data
DEFAULT_FIGURE_SAMPLES = 50             # region --samples, emit_figure_data
DEFAULT_SCHEDULE = (1, 2, 4, 8, 16)     # inducibility --schedule, inducibility_lower_bound
