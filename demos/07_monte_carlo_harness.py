"""Reproducible Monte Carlo experiments from a config tree.

Runs a small seeded experiment comparing the blind engine against the
pilot chain across an SNR grid, then a parameter sweep over the SNR. The
same configs drive the CLI, where a sweep can also set linked fields to
one value per swept value:

    pvdmimo run configs/default.json --trials 20 --out rows.csv
    pvdmimo sweep configs/default.json --param dims.N_t --values 1,2 \\
        --link dims.N_r=8,16 --out sweep.csv
    pvdmimo validate configs/default.json
"""

import numpy as np

from pvdmimo import run_experiment, sweep, validate_dict

config = {
    "dims": {"N_r": 4, "N_t": 1, "K": 1, "T": 16, "N_u": 1, "n": 8, "P": 1.0},
    "channel": {"model": "rayleigh"},
    "encoder": {"type": "linear", "init": "gaussian", "gain": 1.0},
    "prior_channel": {"type": "gaussian", "mean": "truth", "var": 1e-6},
    "prior_source": {"type": "gaussian", "mean": 0.0, "var": 1.0},
    "pvd": {"enabled": True, "J": 30, "J_in": 20,
            "sigma1_H": 1e-3, "sigmaJ_H": 10.0,
            "sigma1_D": 0.01, "sigmaJ_D": 10.0,
            "zeta_H": 0.06, "zeta_D": 0.06},
    "baselines": {"lmmse": True, "oracle_lmmse": True, "N_p": 2},
    "power_mode": "average",
    "snr_db": [5.0, 20.0],
    "trials": 15,
    "seed": 99,
}
assert validate_dict(config) == []

records = run_experiment(config)
print(f"{len(records)} rows = {config['trials']} trials x 2 SNR points x 3 methods\n")

print("method        SNR | median NMSE (dB) | median source MSE")
for snr in (5.0, 20.0):
    for method in ("pvd", "lmmse", "oracle_lmmse"):
        rows = [r for r in records
                if r.method == method and not r.error and abs(r.snr_db - snr) < 3.0]
        nm = np.median([r.nmse_db for r in rows])
        sm = [r.source_mse for r in rows if np.isfinite(r.source_mse)]
        sm_txt = f"{np.median(sm):.5f}" if sm else "   -   "
        print(f"{method:13s} {snr:4.0f} | {nm:16.2f} | {sm_txt}")

print("\nsweep over the SNR grid (each point re-runs the experiment):")
summary = sweep(config, "snr_db", [0.0, 10.0, 20.0])
for row in summary:
    print(f"  snr={row['value']:5.1f}: rows={row['rows']} "
          f"median pvd+baseline NMSE={row['nmse_db_median']:.2f} dB "
          f"errors={row['errors']}")
