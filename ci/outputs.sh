#!/bin/sh
# Write every pinned-seed output of the package at SRC (the directory put on PYTHONPATH, such
# as a tree's src/) into the new directory OUT, one subdirectory per run, with JOBS passed as
# -j to each montecarlo and sweep run. The configs are this repository's, whichever tree SRC
# belongs to, so two output directories compare with a plain `diff -r`: two trees at one JOBS,
# or one tree at two. A RuntimeWarning, such as one leaking from the bound's arithmetic, fails
# the script; the worker processes load what the parent has not, such as simdoa.analysis,
# themselves.
set -eu
if [ $# -ne 3 ]; then
  echo "usage: ci/outputs.sh SRC JOBS OUT" >&2
  exit 2
fi
src=$1 jobs=$2 out=$3
configs=$(dirname "$0")/../configs
cfg=$(mktemp -d)
trap 'rm -rf "$cfg"' EXIT
mkdir "$out"
sed 's/^  pipeline: wave/  pipeline: digital/' "$configs/montecarlo.yaml" > "$cfg/digital.yaml"
grep -q '^  pipeline: digital' "$cfg/digital.yaml"
# the benchmark's 4x4/T=8x8 bound shape, with a seed of three 32-bit words (2**70 + 12345)
cat > "$cfg/mc-4x4.yaml" <<'EOF'
geometry:
  n_x: 4
  n_y: 4
protocol:
  t_x: 8
  t_y: 8
montecarlo:
  trials: 250
  snr_db: [0, 10, 20, 30]
  seed: 1180591620717411315769
  with_bound: true
  ideal: true
EOF
# its digital pipeline, whose blocks build their energies on another path
{ cat "$cfg/mc-4x4.yaml"; echo '  pipeline: digital'; } > "$cfg/mc-4x4-digital.yaml"
# and its other draw paths: uniform electrical angles with unit-modulus symbols, and
# directions uniform over the hemisphere's solid angle
{ cat "$cfg/mc-4x4.yaml"; printf '  source_mode: uniform-psi\n  symbol: phase\n'; } \
  > "$cfg/mc-4x4-psi.yaml"
{ cat "$cfg/mc-4x4.yaml"; echo '  source_mode: solid'; } > "$cfg/mc-4x4-solid.yaml"
# both pipelines again at seed 7: each 250-trial point splits into 4 blocks, whatever -j is
for pipeline in "" -digital; do
  sed 's/^  seed: .*/  seed: 7/' "$cfg/mc-4x4$pipeline.yaml" > "$cfg/mc-4x4-seed7$pipeline.yaml"
  grep -q '^  seed: 7$' "$cfg/mc-4x4-seed7$pipeline.yaml"
done
# the benchmark's 4x4 fit shape: 13 layers of 15x15 atoms, two short restarts
cat > "$cfg/fit-4x4.yaml" <<'EOF'
geometry:
  n_x: 4
  n_y: 4
  m_x: 15
  m_y: 15
  s_x: 0.4444444444444444
  s_y: 0.4444444444444444
  layers: 13
  thickness: 12.0
train:
  eta0: 0.1
  zeta: 0.95
  max_iters: 40
  restarts: 2
EOF
# the benchmark's 4x4/T=8x8 shape, bounded with the stack that fit-4x4 fits
{ sed '/^train:/,$d' "$cfg/fit-4x4.yaml"; cat <<'EOF'; } > "$cfg/bound-4x4.yaml"
protocol:
  t_x: 8
  t_y: 8
source:
  psi_x: 0.31
  psi_y: -0.12
bound:
  snr_db: [0, 5, 10, 15, 20, 25, 30]
EOF
grep -q '^  m_x: 15' "$cfg/bound-4x4.yaml"
# a rotated receiver with its own spacings: the last propagation matrix is built, not
# transposed from the first
cat > "$cfg/fit-rotated.yaml" <<'EOF'
geometry:
  n_x: 2
  n_y: 2
  m_x: 5
  m_y: 5
  layers: 3
  thickness: 6.0
  u_x: 0.6
  u_y: 0.45
  rotation_deg: 17.0
train:
  max_iters: 30
  restarts: 2
EOF
# a fit that stops on rel_tolerance, so the converged path is compared too
cat > "$cfg/fit-converged.yaml" <<'EOF'
geometry:
  n_x: 2
  n_y: 2
  m_x: 5
  m_y: 5
  layers: 3
  thickness: 6.0
train:
  max_iters: 60
  restarts: 2
  rel_tolerance: 1.0e-2
EOF
# an estimate off half-wave input spacing, whose physical angles depend on d_x and d_y
cat > "$cfg/estimate-wide.yaml" <<'EOF'
geometry:
  n_x: 2
  n_y: 2
  d_x: 0.7
  d_y: 0.6
  m_x: 11
  m_y: 11
  layers: 7
  thickness: 9.0
protocol:
  t_x: 4
  t_y: 4
source:
  psi_x: 0.2
  psi_y: -0.3
estimate:
  snr_db: 20.0
  seed: 7
  ideal: true
EOF
# sha256 over every field of 3000 paired_trial estimates: the exact 2x2 DFT, a 3x3 response
# off the DFT with a complex beta, and a 2x2 one with a negative real beta, whose frame is
# -1.0 (public API that both trees have)
cat > "$cfg/paired.py" <<'EOF'
import hashlib, struct, sys
import numpy as np
from simdoa import experiments, geometry
from simdoa.estimator import ProtocolConfig
digest = hashlib.sha256()
for n_side, t_side, beta in ((2, 4, 1.0), (3, 2, 1.3 - 0.4j), (2, 3, -2.0)):
    rng = np.random.default_rng(2024)
    f = geometry.dft_matrix(n_side, n_side).matrix
    g = f if beta == 1.0 else (f + 0.05 * (rng.standard_normal(f.shape)
                                           + 1j * rng.standard_normal(f.shape))) / beta
    proto = ProtocolConfig(t_x=t_side, t_y=t_side)
    for i in range(500):
        src = experiments.sample_source(rng, ("parameter", "solid", "uniform-psi")[i % 3])
        for est in experiments.paired_trial(g, beta, src, proto, n_side, n_side,
                                            10.0 ** (i % 4), rng):
            digest.update(struct.pack("<2q4d", est.n, est.t, est.psi_x, est.psi_y,
                                      est.phi, est.theta))
sys.stdout.write(digest.hexdigest() + "\n")
EOF
simdoa() {
  PYTHONPATH="$src" python -W error::RuntimeWarning -m simdoa "$@"
}
simdoa montecarlo -c "$configs/montecarlo.yaml" -o "$out/wave" -j "$jobs"
for run in digital mc-4x4 mc-4x4-digital mc-4x4-psi mc-4x4-solid mc-4x4-seed7 \
           mc-4x4-seed7-digital; do
  simdoa montecarlo -c "$cfg/$run.yaml" -o "$out/$run" -j "$jobs"
done
simdoa estimate -c "$configs/estimate.yaml" -o "$out/estimate"
simdoa estimate -c "$cfg/estimate-wide.yaml" -o "$out/estimate-wide"
simdoa spectrum -c "$configs/spectrum.yaml" -o "$out/spectrum"
# each tree bounds with the stack it fitted, so the fit and the bound are both compared
simdoa fit -c "$configs/fit-2x2.yaml" -o "$out/fit"
simdoa fit -c "$cfg/fit-4x4.yaml" -o "$out/fit-4x4"
simdoa fit -c "$cfg/fit-rotated.yaml" -o "$out/fit-rotated"
simdoa fit -c "$cfg/fit-converged.yaml" -o "$out/fit-converged"
grep -q '^  stop_reason: converged$' "$out/fit-converged/fit-manifest.yaml"
simdoa bound -c "$configs/bound.yaml" -o "$out/bound" --stack "$out/fit/stack.bin"
simdoa bound -c "$cfg/bound-4x4.yaml" -o "$out/bound-4x4" --stack "$out/fit-4x4/stack.bin"
PYTHONPATH="$src" python -W error::RuntimeWarning "$cfg/paired.py" > "$out/paired.sha256"
simdoa sweep -c "$configs/sweep-ablation.yaml" -o "$out/ablation" -j "$jobs"
simdoa sweep -c "$configs/sweep-receiver.yaml" -o "$out/receiver" -j "$jobs"
# a manifest's results are outputs too; its creation time and its digest of the geometry
# record are left out
for manifest in "$out"/*/*-manifest.yaml; do
  grep -v -e '^created:' -e '^geometry_digest:' "$manifest" > "$manifest.filtered"
  mv "$manifest.filtered" "$manifest"
done
