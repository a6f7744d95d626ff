"""Golden outputs: six CLI sweeps must reproduce committed CSVs byte for byte.

The LMMSE-only sweep pins 300 paper-scale symbol draws and decisions. The
nonconvex map_soav solves of the paper-scale rho sweeps run FISTA to the
500-iteration cap; those of the 8 x 6 sweep at rho 0.2 often stop before it.
The four-point rho sweep at sigma_w2 0.0226 adds convex map_soav at a fixed
variance. The oracle comparison is the only pin of exhaustive MAP, and of
ADMM's polish on 8 x 6 systems.
The convex solves run ADMM, which stops on its fixed-point residual, so
their `# solver` lines record where those stops fell: a CPU whose BLAS
kernel rounds differently can move a stop by 10 iterations, or the second
digit of a median residual.
"""

from pathlib import Path

import pytest

from soavmud.cli import main

GOLDEN = Path(__file__).parent / "golden"
PAPER_SCALE = ["--users", "100", "--meas", "70", "--seed", "1"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("simulate.csv", ["simulate", "--rho", "0.8", "--snr", "12,16",
                          "--detectors", "lmmse,lasso,map-soav", "--trials", "2",
                          *PAPER_SCALE]),
        ("sweep_rho.csv", ["sweep-rho", "--sigma2", "0.0226", "--rho", "0.05,0.3",
                           "--detectors", "lasso,map-soav", "--trials", "3", *PAPER_SCALE]),
        ("simulate_lmmse.csv", ["simulate", "--rho", "0.8", "--snr", "12,14,16",
                                "--detectors", "lmmse", "--trials", "100", *PAPER_SCALE]),
        ("simulate_fista_stops.csv", ["simulate", "--rho", "0.2", "--snr", "6,10,14",
                                      "--users", "8", "--meas", "6", "--detectors", "map-soav",
                                      "--trials", "20", "--seed", "5"]),
        ("sweep_rho_fig6.csv", ["sweep-rho", "--sigma2", "0.0226", "--rho", "0.2,0.5,0.8,0.95",
                                "--detectors", "lmmse,lasso,map-soav", "--trials", "4",
                                *PAPER_SCALE]),
        ("oracle_compare.csv", ["oracle-compare", "--users", "8", "--meas", "6", "--rho", "0.8",
                                "--snr", "12", "--detectors",
                                "lmmse,lasso,map-soav,exhaustive-map", "--trials", "24",
                                "--seed", "1"]),
    ],
    ids=["simulate", "sweep-rho", "simulate-lmmse", "simulate-fista-stops", "sweep-rho-fig6",
         "oracle-compare"],
)
def test_cli_csv_matches_golden(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
